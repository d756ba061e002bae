//! The [`Layer`] abstraction: stateful modules with manual backprop.

use stsl_tensor::Tensor;

/// Whether a forward pass is part of training or evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Training: layers cache the state needed by a subsequent
    /// [`Layer::backward`].
    Train,
    /// Inference: deterministic, no state is cached.
    Eval,
}

/// A mutable view of one trainable parameter and its gradient accumulator.
///
/// Produced by [`Layer::visit_params`]; optimizers consume these views to
/// apply updates without the borrow checker seeing two overlapping borrows
/// of the layer.
pub struct ParamView<'a> {
    /// The parameter tensor (updated in place by optimizers).
    pub value: &'a mut Tensor,
    /// The accumulated gradient for this parameter.
    pub grad: &'a mut Tensor,
    /// Stable name within the layer (`"weight"`, `"bias"`), used in
    /// diagnostics and checkpoints.
    pub name: &'static str,
}

/// A neural-network layer with explicit forward and backward passes.
///
/// The contract mirrors classic define-by-run frameworks:
///
/// 1. `forward(input, Mode::Train)` computes the output **and caches**
///    whatever intermediate state `backward` will need;
/// 2. `backward(dout)` consumes that cache, **accumulates** parameter
///    gradients (`+=`, so gradient accumulation across micro-batches works)
///    and returns the gradient w.r.t. the layer input (`backward_params`
///    does the same without forming that gradient);
/// 3. `zero_grads` resets the accumulators between optimizer steps.
///
/// Layers are deliberately object-safe so a network is just
/// `Vec<Box<dyn Layer>>`, which is what lets the split-learning crate cut a
/// model into client and server halves at an arbitrary layer boundary.
pub trait Layer: std::fmt::Debug + Send {
    /// Human-readable layer kind (e.g. `"conv2d"`), stable across runs.
    fn name(&self) -> &'static str;

    /// Computes the layer output.
    ///
    /// In [`Mode::Train`] the layer caches intermediates for `backward`.
    ///
    /// # Panics
    ///
    /// Panics if the input shape is incompatible with the layer.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor;

    /// Backpropagates `dout` (gradient w.r.t. this layer's output),
    /// accumulating parameter gradients and returning the gradient w.r.t.
    /// the input of the most recent training-mode `forward`.
    ///
    /// # Panics
    ///
    /// Panics if no training-mode forward preceded this call or shapes
    /// mismatch.
    fn backward(&mut self, dout: &Tensor) -> Tensor;

    /// Backpropagates `dout` like [`Layer::backward`], accumulating the
    /// same parameter gradients, but without returning the input
    /// gradient. Callers use it where that gradient would be dropped — a
    /// model's first layer — so a layer whose input gradient costs real
    /// work (a convolution's column GEMM and fold) can skip it.
    ///
    /// The default runs `backward` and drops the result.
    ///
    /// # Panics
    ///
    /// As [`Layer::backward`].
    fn backward_params(&mut self, dout: &Tensor) {
        self.backward(dout);
    }

    /// Visits every (parameter, gradient) pair, in a stable order.
    ///
    /// The default is a no-op for parameter-free layers.
    fn visit_params(&mut self, _f: &mut dyn FnMut(ParamView<'_>)) {}

    /// Clears accumulated gradients.
    fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.grad.fill_zero());
    }

    /// Snapshot of all parameters, in `visit_params` order.
    fn param_tensors(&mut self) -> Vec<Tensor> {
        let mut out = Vec::new();
        self.visit_params(&mut |p| out.push(p.value.clone()));
        out
    }

    /// Overwrites parameters from a snapshot produced by
    /// [`Layer::param_tensors`] on an identically-configured layer.
    ///
    /// Returns the number of tensors consumed from the front of `src`.
    ///
    /// # Panics
    ///
    /// Panics if `src` is too short or shapes mismatch.
    fn load_param_tensors(&mut self, src: &[Tensor]) -> usize {
        let mut i = 0;
        self.visit_params(&mut |p| {
            assert!(i < src.len(), "parameter snapshot too short");
            assert_eq!(
                p.value.shape(),
                src[i].shape(),
                "parameter {} shape mismatch",
                p.name
            );
            *p.value = src[i].clone();
            i += 1;
        });
        i
    }

    /// Total number of scalar parameters.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.value.len());
        n
    }

    /// Output shape for a given input shape (no batch dimension tricks:
    /// pass the full shape including batch).
    ///
    /// # Panics
    ///
    /// Panics if the input shape is incompatible.
    fn output_dims(&self, input_dims: &[usize]) -> Vec<usize>;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal layer used to exercise the trait's default methods.
    #[derive(Debug)]
    struct Scale {
        factor: Tensor,
        grad: Tensor,
    }

    impl Layer for Scale {
        fn name(&self) -> &'static str {
            "scale"
        }
        fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
            input.map(|x| x * self.factor.item())
        }
        fn backward(&mut self, dout: &Tensor) -> Tensor {
            dout.map(|g| g * self.factor.item())
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(ParamView<'_>)) {
            f(ParamView {
                value: &mut self.factor,
                grad: &mut self.grad,
                name: "factor",
            });
        }
        fn output_dims(&self, input_dims: &[usize]) -> Vec<usize> {
            input_dims.to_vec()
        }
    }

    #[test]
    fn default_param_helpers_work() {
        let mut s = Scale {
            factor: Tensor::scalar(2.0),
            grad: Tensor::scalar(5.0),
        };
        assert_eq!(s.param_count(), 1);
        s.zero_grads();
        let mut grads = Vec::new();
        s.visit_params(&mut |p| grads.push(p.grad.item()));
        assert_eq!(grads, vec![0.0]);
        let snap = s.param_tensors();
        let mut s2 = Scale {
            factor: Tensor::scalar(0.0),
            grad: Tensor::scalar(0.0),
        };
        assert_eq!(s2.load_param_tensors(&snap), 1);
        assert_eq!(s2.factor.item(), 2.0);
    }

    #[test]
    fn layers_are_object_safe() {
        let boxed: Box<dyn Layer> = Box::new(Scale {
            factor: Tensor::scalar(1.0),
            grad: Tensor::scalar(0.0),
        });
        assert_eq!(boxed.name(), "scale");
    }
}
