//! [`Sequential`]: an ordered stack of layers with end-to-end backprop.

use crate::layer::{Layer, Mode, ParamView};
use crate::loss::Loss;
use crate::optim::Optimizer;
use stsl_tensor::Tensor;

/// A feed-forward network: layers applied in order.
///
/// `Sequential` is the unit the split-learning crate cuts apart: a client
/// holds one `Sequential` (the lower layers), the server holds another (the
/// upper layers plus the loss), and [`Sequential::split_at`] produces both
/// halves from a full model description.
///
/// # Examples
///
/// ```
/// use stsl_nn::{Sequential, Mode};
/// use stsl_nn::layers::{Dense, Relu};
/// use stsl_tensor::Tensor;
///
/// let mut net = Sequential::new();
/// net.push(Dense::new(4, 16, 1));
/// net.push(Relu::new());
/// net.push(Dense::new(16, 3, 2));
/// let out = net.forward(&Tensor::zeros([2, 4]), Mode::Eval);
/// assert_eq!(out.dims(), &[2, 3]);
/// ```
#[derive(Debug, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty network.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) -> &mut Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends an already-boxed layer.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) -> &mut Self {
        self.layers.push(layer);
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers (then it is the identity map).
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Layer names, in order (useful in logs and checkpoints).
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Runs the network forward. An empty network is the identity (and
    /// returns a copy of `input`); otherwise the first layer reads `input`
    /// in place.
    pub fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let mut layers = self.layers.iter_mut();
        let Some(first) = layers.next() else {
            return input.clone();
        };
        let mut x = first.forward(input, mode);
        for layer in layers {
            x = layer.forward(&x, mode);
        }
        x
    }

    /// Runs the network forward, returning the output of **every** layer
    /// in order (the last element equals [`Sequential::forward`]'s
    /// result). Used by the privacy experiments to capture what an
    /// eavesdropper sees after each stage (paper Fig. 4).
    pub fn forward_collect(&mut self, input: &Tensor, mode: Mode) -> Vec<Tensor> {
        let mut outputs: Vec<Tensor> = Vec::with_capacity(self.layers.len());
        for layer in &mut self.layers {
            let x = layer.forward(outputs.last().unwrap_or(input), mode);
            outputs.push(x);
        }
        outputs
    }

    /// Backpropagates `dout` through all layers (most recent training-mode
    /// forward), accumulating parameter gradients. Returns the gradient
    /// w.r.t. the network input — which split learning sends back to the
    /// end-system that produced the activations.
    ///
    /// # Panics
    ///
    /// Panics if no training-mode forward preceded this call.
    pub fn backward(&mut self, dout: &Tensor) -> Tensor {
        let mut layers = self.layers.iter_mut().rev();
        let Some(last) = layers.next() else {
            return dout.clone();
        };
        let mut g = last.backward(dout);
        for layer in layers {
            g = layer.backward(&g);
        }
        g
    }

    /// [`Sequential::backward`] for a caller that drops the input
    /// gradient (an end-system's encoder, a whole model in training): the
    /// same parameter gradients, with the first layer run through
    /// [`Layer::backward_params`] so it can skip forming its input
    /// gradient.
    ///
    /// # Panics
    ///
    /// Panics if no training-mode forward preceded this call.
    pub fn backward_params(&mut self, dout: &Tensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let mut g: Option<Tensor> = None;
        for layer in rest.iter_mut().rev() {
            g = Some(layer.backward(g.as_ref().unwrap_or(dout)));
        }
        first.backward_params(g.as_ref().unwrap_or(dout));
    }

    /// Clears all gradient accumulators.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Applies one optimizer step to every parameter, then calls
    /// [`Optimizer::finish_step`]. Parameter ids are `base_id + position`,
    /// letting several networks share one optimizer without id collisions
    /// (the split trainer gives each end-system a distinct base).
    pub fn step_with_base(&mut self, opt: &mut dyn Optimizer, base_id: usize) {
        let mut id = base_id;
        for layer in &mut self.layers {
            layer.visit_params(&mut |p: ParamView<'_>| {
                opt.update(id, p.value, p.grad);
                id += 1;
            });
        }
        opt.finish_step();
    }

    /// [`Sequential::step_with_base`] with base 0 (single-network case).
    pub fn step(&mut self, opt: &mut dyn Optimizer) {
        self.step_with_base(opt, 0);
    }

    /// One full training step: zero grads, forward, loss, backward, update.
    /// Returns the batch loss.
    pub fn train_batch(
        &mut self,
        input: &Tensor,
        targets: &[usize],
        loss: &dyn Loss,
        opt: &mut dyn Optimizer,
    ) -> f32 {
        self.zero_grads();
        let logits = self.forward(input, Mode::Train);
        let out = loss.forward(&logits, targets);
        self.backward_params(&out.grad);
        self.step(opt);
        out.value
    }

    /// Predicted class indices for a batch.
    pub fn predict(&mut self, input: &Tensor) -> Vec<usize> {
        self.forward(input, Mode::Eval).argmax_rows()
    }

    /// Total number of scalar parameters.
    pub fn param_count(&mut self) -> usize {
        self.layers.iter_mut().map(|l| l.param_count()).sum()
    }

    /// Snapshot of every parameter tensor, in layer order.
    pub fn state_dict(&mut self) -> Vec<Tensor> {
        let mut out = Vec::new();
        for layer in &mut self.layers {
            out.extend(layer.param_tensors());
        }
        out
    }

    /// Restores parameters from a [`Sequential::state_dict`] snapshot of an
    /// identically-configured network.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot has the wrong number of tensors or any shape
    /// mismatches.
    pub fn load_state_dict(&mut self, state: &[Tensor]) {
        let mut off = 0;
        for layer in &mut self.layers {
            off += layer.load_param_tensors(&state[off..]);
        }
        assert_eq!(
            off,
            state.len(),
            "state dict has {} extra tensors",
            state.len() - off
        );
    }

    /// Splits the network after layer `k`: returns `(lower, upper)` where
    /// `lower` holds layers `0..k` and `upper` holds `k..`.
    ///
    /// This is the primitive split learning is built on: `lower` goes to an
    /// end-system, `upper` stays at the centralized server.
    ///
    /// # Panics
    ///
    /// Panics if `k > self.len()`.
    pub fn split_at(mut self, k: usize) -> (Sequential, Sequential) {
        assert!(
            k <= self.layers.len(),
            "split index {} beyond {} layers",
            k,
            self.layers.len()
        );
        let upper = self.layers.split_off(k);
        (
            Sequential {
                layers: self.layers,
            },
            Sequential { layers: upper },
        )
    }

    /// Output shape for a given input shape, propagated through all layers.
    pub fn output_dims(&self, input_dims: &[usize]) -> Vec<usize> {
        let mut dims = input_dims.to_vec();
        for layer in &self.layers {
            dims = layer.output_dims(&dims);
        }
        dims
    }

    /// Visits every (parameter, gradient) pair across all layers, in
    /// stable order. This is how optimizers, checkpoints and the gradient
    /// checker reach parameters without holding two borrows of a layer.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(ParamView<'_>)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// Visits every layer in order (diagnostics such as
    /// [`crate::summary::summarize`]).
    pub fn visit_layers(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        for layer in &mut self.layers {
            f(layer.as_mut());
        }
    }

    /// Output shape of the single layer at `index` for `input_dims`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or the shape is incompatible.
    pub fn layer_output_dims(&self, index: usize, input_dims: &[usize]) -> Vec<usize> {
        self.layers[index].output_dims(input_dims)
    }

    /// Mean squared gradient norm across all parameters (diagnostic for
    /// exploding/vanishing gradients in the split pipeline).
    pub fn grad_sq_norm(&mut self) -> f32 {
        let mut per_param = Vec::new();
        for layer in &mut self.layers {
            layer.visit_params(&mut |p: ParamView<'_>| per_param.push(p.grad.sq_norm()));
        }
        stsl_tensor::sum_f32(per_param)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Flatten, Relu};
    use crate::loss::SoftmaxCrossEntropy;
    use crate::optim::Sgd;
    use stsl_tensor::init::rng_from_seed;

    fn tiny_net(seed: u64) -> Sequential {
        let mut net = Sequential::new();
        net.push(Dense::new(4, 8, seed));
        net.push(Relu::new());
        net.push(Dense::new(8, 3, seed + 1));
        net
    }

    #[test]
    fn empty_network_is_identity() {
        let mut net = Sequential::new();
        let x = Tensor::from_vec((0..4).map(|i| i as f32).collect(), [1, 4]);
        assert_eq!(net.forward(&x, Mode::Eval), x);
        assert!(net.is_empty());
    }

    #[test]
    fn forward_shape_inference_agrees_with_execution() {
        let mut net = tiny_net(0);
        let out = net.forward(&Tensor::zeros([5, 4]), Mode::Eval);
        assert_eq!(out.dims(), net.output_dims(&[5, 4]).as_slice());
    }

    #[test]
    fn training_reduces_loss_on_separable_data() {
        let mut rng = rng_from_seed(10);
        // Three linearly separable clusters.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..30 {
            let class = i % 3;
            let base = [0.0, 4.0, -4.0][class];
            let noise = Tensor::randn([4], &mut rng);
            for j in 0..4 {
                xs.push(base + 0.3 * noise.as_slice()[j]);
            }
            ys.push(class);
        }
        let x = Tensor::from_vec(xs, [30, 4]);
        let mut net = tiny_net(3);
        let loss = SoftmaxCrossEntropy::new();
        let mut opt = Sgd::new(0.1);
        let first = net.train_batch(&x, &ys, &loss, &mut opt);
        let mut last = first;
        for _ in 0..60 {
            last = net.train_batch(&x, &ys, &loss, &mut opt);
        }
        assert!(last < first * 0.2, "loss {} -> {}", first, last);
        let preds = net.predict(&x);
        let acc = preds.iter().zip(&ys).filter(|(p, y)| p == y).count() as f32 / 30.0;
        assert!(acc > 0.9, "accuracy {}", acc);
    }

    #[test]
    fn state_dict_roundtrip_preserves_behaviour() {
        let mut a = tiny_net(5);
        let mut b = tiny_net(99); // different init
        let x = Tensor::randn([3, 4], &mut rng_from_seed(0));
        assert_ne!(a.forward(&x, Mode::Eval), b.forward(&x, Mode::Eval));
        let state = a.state_dict();
        b.load_state_dict(&state);
        assert_eq!(a.forward(&x, Mode::Eval), b.forward(&x, Mode::Eval));
    }

    #[test]
    #[should_panic(expected = "extra tensors")]
    fn load_state_dict_rejects_wrong_length() {
        let mut net = tiny_net(0);
        let mut state = net.state_dict();
        state.push(Tensor::zeros([1]));
        net.load_state_dict(&state);
    }

    #[test]
    fn split_at_partitions_layers() {
        let net = tiny_net(1);
        let (lower, upper) = net.split_at(2);
        assert_eq!(lower.layer_names(), vec!["dense", "relu"]);
        assert_eq!(upper.layer_names(), vec!["dense"]);
    }

    #[test]
    fn split_halves_compose_to_full_network() {
        let mut full = tiny_net(8);
        let x = Tensor::randn([2, 4], &mut rng_from_seed(1));
        let expected = full.forward(&x, Mode::Eval);
        let (mut lower, mut upper) = full.split_at(2);
        let mid = lower.forward(&x, Mode::Eval);
        let got = upper.forward(&mid, Mode::Eval);
        assert_eq!(got, expected);
    }

    #[test]
    fn split_at_zero_gives_identity_lower() {
        let net = tiny_net(2);
        let (lower, upper) = net.split_at(0);
        assert!(lower.is_empty());
        assert_eq!(upper.len(), 3);
    }

    #[test]
    fn backward_through_split_matches_full_backward() {
        // Gradients flowing through (upper ∘ lower) must equal gradients of
        // the unsplit network — the core correctness property of split
        // learning.
        let x = Tensor::randn([2, 4], &mut rng_from_seed(2));
        let targets = [0usize, 2];
        let loss = SoftmaxCrossEntropy::new();

        let mut full = tiny_net(21);
        full.zero_grads();
        let logits = full.forward(&x, Mode::Train);
        let l = loss.forward(&logits, &targets);
        full.backward(&l.grad);
        let full_gnorm = full.grad_sq_norm();

        let (mut lower, mut upper) = tiny_net(21).split_at(2);
        lower.zero_grads();
        upper.zero_grads();
        let smashed = lower.forward(&x, Mode::Train);
        let logits2 = upper.forward(&smashed, Mode::Train);
        let l2 = loss.forward(&logits2, &targets);
        let cut_grad = upper.backward(&l2.grad);
        lower.backward(&cut_grad);
        let split_gnorm = lower.grad_sq_norm() + upper.grad_sq_norm();

        assert!((full_gnorm - split_gnorm).abs() < 1e-4 * (1.0 + full_gnorm));
        assert_eq!(logits, logits2);
    }

    #[test]
    fn flatten_conv_like_pipeline_shapes() {
        let mut net = Sequential::new();
        net.push(Flatten::new());
        net.push(Dense::new(16, 2, 0));
        assert_eq!(net.output_dims(&[3, 4, 2, 2]), vec![3, 2]);
    }

    #[test]
    fn param_count_sums_layers() {
        let mut net = tiny_net(0);
        assert_eq!(net.param_count(), (4 * 8 + 8) + (8 * 3 + 3));
    }
}
