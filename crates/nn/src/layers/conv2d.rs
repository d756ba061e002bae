//! 2-D convolution layer.

use crate::layer::{Layer, Mode, ParamView};
use stsl_tensor::init::rng_from_seed;
use stsl_tensor::ops::conv::{conv2d_backward, conv2d_forward, ConvSpec, ConvWorkspace};
use stsl_tensor::Tensor;

/// A 2-D convolution with bias, He-initialized, `NCHW` activations.
///
/// # Examples
///
/// ```
/// use stsl_nn::layers::Conv2d;
/// use stsl_nn::{Layer, Mode};
/// use stsl_tensor::Tensor;
///
/// let mut conv = Conv2d::new(3, 16, 3, 42);
/// let x = Tensor::zeros([2, 3, 32, 32]);
/// let y = conv.forward(&x, Mode::Eval);
/// assert_eq!(y.dims(), &[2, 16, 32, 32]);
/// ```
#[derive(Debug)]
pub struct Conv2d {
    weight: Tensor,
    bias: Tensor,
    dweight: Tensor,
    dbias: Tensor,
    spec: ConvSpec,
    in_channels: usize,
    out_channels: usize,
    /// The columns a training forward keeps for its backward, and the
    /// scratch both reuse from step to step.
    ws: ConvWorkspace,
}

impl Conv2d {
    /// Creates a `k×k` convolution from `in_channels` to `out_channels`
    /// with stride 1 and "same" padding, He-initialized from `seed`.
    pub fn new(in_channels: usize, out_channels: usize, k: usize, seed: u64) -> Self {
        Conv2d::with_spec(in_channels, out_channels, ConvSpec::same(k), seed)
    }

    /// Creates a convolution with an explicit [`ConvSpec`].
    pub fn with_spec(in_channels: usize, out_channels: usize, spec: ConvSpec, seed: u64) -> Self {
        let mut rng = rng_from_seed(seed);
        let fan_in = in_channels * spec.kh * spec.kw;
        let weight = Tensor::he_normal(
            [out_channels, in_channels, spec.kh, spec.kw],
            fan_in,
            &mut rng,
        );
        let bias = Tensor::zeros([out_channels]);
        Conv2d {
            dweight: Tensor::zeros(weight.shape().clone()),
            dbias: Tensor::zeros(bias.shape().clone()),
            weight,
            bias,
            spec,
            in_channels,
            out_channels,
            ws: ConvWorkspace::new(),
        }
    }

    /// The convolution geometry.
    pub fn spec(&self) -> ConvSpec {
        self.spec
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels (filters).
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Immutable access to the weight tensor `[oc, ic, kh, kw]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Immutable access to the bias tensor `[oc]`.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let train = mode == Mode::Train;
        conv2d_forward(
            input,
            &self.weight,
            &self.bias,
            self.spec,
            train,
            &mut self.ws,
        )
        .expect("conv2d forward shape mismatch")
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        conv2d_backward(
            dout,
            &self.weight,
            self.spec,
            &mut self.ws,
            &mut self.dweight,
            &mut self.dbias,
            true,
        )
        .expect("input gradient requested")
    }

    /// Accumulates dW and db and skips the input gradient's GEMM and fold.
    fn backward_params(&mut self, dout: &Tensor) {
        conv2d_backward(
            dout,
            &self.weight,
            self.spec,
            &mut self.ws,
            &mut self.dweight,
            &mut self.dbias,
            false,
        );
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamView<'_>)) {
        f(ParamView {
            value: &mut self.weight,
            grad: &mut self.dweight,
            name: "weight",
        });
        f(ParamView {
            value: &mut self.bias,
            grad: &mut self.dbias,
            name: "bias",
        });
    }

    fn output_dims(&self, input_dims: &[usize]) -> Vec<usize> {
        assert_eq!(input_dims.len(), 4, "conv2d expects NCHW input");
        assert_eq!(input_dims[1], self.in_channels, "conv2d channel mismatch");
        let (oh, ow) = self
            .spec
            .output_hw(input_dims[2], input_dims[3])
            .expect("conv window does not fit");
        vec![input_dims[0], self.out_channels, oh, ow]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape_same_padding() {
        let mut conv = Conv2d::new(3, 8, 3, 0);
        let y = conv.forward(&Tensor::zeros([2, 3, 16, 16]), Mode::Eval);
        assert_eq!(y.dims(), &[2, 8, 16, 16]);
        assert_eq!(conv.output_dims(&[2, 3, 16, 16]), vec![2, 8, 16, 16]);
    }

    #[test]
    fn eval_mode_does_not_cache() {
        let mut conv = Conv2d::new(1, 1, 3, 0);
        conv.forward(&Tensor::zeros([1, 1, 4, 4]), Mode::Eval);
        assert!(!conv.ws.holds_forward());
    }

    #[test]
    #[should_panic(expected = "without cached forward")]
    fn backward_without_forward_panics() {
        let mut conv = Conv2d::new(1, 1, 3, 0);
        conv.backward(&Tensor::zeros([1, 1, 4, 4]));
    }

    #[test]
    fn gradients_accumulate_across_backwards() {
        let mut conv = Conv2d::new(1, 1, 3, 1);
        let x = Tensor::ones([1, 1, 4, 4]);
        let dout = Tensor::ones([1, 1, 4, 4]);
        conv.forward(&x, Mode::Train);
        conv.backward(&dout);
        let g1 = conv.dbias.item();
        conv.forward(&x, Mode::Train);
        conv.backward(&dout);
        assert!((conv.dbias.item() - 2.0 * g1).abs() < 1e-5);
        conv.zero_grads();
        assert_eq!(conv.dbias.item(), 0.0);
    }

    #[test]
    fn param_count_matches_formula() {
        let mut conv = Conv2d::new(3, 16, 3, 0);
        assert_eq!(conv.param_count(), 16 * 3 * 3 * 3 + 16);
    }

    #[test]
    fn seeded_construction_is_deterministic() {
        let a = Conv2d::new(3, 4, 3, 99);
        let b = Conv2d::new(3, 4, 3, 99);
        assert_eq!(a.weight(), b.weight());
    }
}
