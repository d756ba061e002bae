//! Fully-connected (dense) layer.

use crate::layer::{Layer, Mode, ParamView};
use stsl_tensor::init::rng_from_seed;
use stsl_tensor::Tensor;

/// A fully-connected layer: `y = x · Wᵀ + b` over `[batch, in]` inputs.
///
/// Weights are `[out, in]` (each row is one output unit), He-initialized.
#[derive(Debug)]
pub struct Dense {
    weight: Tensor,
    bias: Tensor,
    dweight: Tensor,
    dbias: Tensor,
    in_features: usize,
    out_features: usize,
    cache: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer, He-initialized from `seed`.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        let mut rng = rng_from_seed(seed);
        let weight = Tensor::he_normal([out_features, in_features], in_features, &mut rng);
        let bias = Tensor::zeros([out_features]);
        Dense {
            dweight: Tensor::zeros(weight.shape().clone()),
            dbias: Tensor::zeros(bias.shape().clone()),
            weight,
            bias,
            in_features,
            out_features,
            cache: None,
        }
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Immutable access to the `[out, in]` weight matrix.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Immutable access to the `[out]` bias.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Consumes the forward cache and accumulates dW and db for `dout`.
    fn param_grads(&mut self, dout: &Tensor) {
        let input = self
            .cache
            .take()
            .expect("dense backward without cached forward");
        assert_eq!(
            dout.dims(),
            &[input.dim(0), self.out_features],
            "dense dout shape"
        );
        // dW = doutᵀ · x  -> [out, in]
        self.dweight.axpy(1.0, &dout.t_matmul(&input));
        // db = column sums of dout.
        self.dbias.axpy(1.0, &dout.sum_axis(0));
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(
            input.rank(),
            2,
            "dense expects [batch, features], got {}",
            input.shape()
        );
        assert_eq!(input.dim(1), self.in_features, "dense input width mismatch");
        // [n, in] · [out, in]ᵀ -> [n, out] (the GEMM is row-parallel
        // inside stsl-tensor); the bias add is batch-parallel pure writes.
        let mut out = input.matmul_t(&self.weight);
        let bias = self.bias.as_slice();
        let o = out.dim(1);
        let data = out.as_mut_slice();
        if !data.is_empty() {
            stsl_parallel::par_chunks_mut(
                data,
                o,
                stsl_parallel::ChunkPolicy::min_chunk(64),
                |_r0, band| {
                    for row in band.chunks_mut(o) {
                        for (d, &b) in row.iter_mut().zip(bias) {
                            *d += b;
                        }
                    }
                },
            );
        }
        if mode == Mode::Train {
            self.cache = Some(input.clone());
        }
        out
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        self.param_grads(dout);
        // dx = dout · W -> [n, in]
        dout.matmul(&self.weight)
    }

    /// Accumulates dW and db and skips the input gradient's GEMM.
    fn backward_params(&mut self, dout: &Tensor) {
        self.param_grads(dout);
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
        assert_eq!(input_dims.len(), 2, "dense expects [batch, features]");
        assert_eq!(
            input_dims[1], self.in_features,
            "dense input width mismatch"
        );
        vec![input_dims[0], self.out_features]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stsl_tensor::init::rng_from_seed;

    #[test]
    fn forward_applies_affine_map() {
        let mut d = Dense::new(2, 1, 0);
        // Overwrite params with known values.
        let snap = vec![
            Tensor::from_vec(vec![2.0, -1.0], [1, 2]),
            Tensor::from_vec(vec![0.5], [1]),
        ];
        d.load_param_tensors(&snap);
        let x = Tensor::from_vec(vec![3.0, 4.0], [1, 2]);
        let y = d.forward(&x, Mode::Eval);
        assert_eq!(y.as_slice(), &[2.0 * 3.0 - 4.0 + 0.5]);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = rng_from_seed(2);
        let mut d = Dense::new(4, 3, 7);
        let x = Tensor::randn([2, 4], &mut rng);
        let m = Tensor::randn([2, 3], &mut rng);
        let y = d.forward(&x, Mode::Train);
        assert_eq!(y.dims(), &[2, 3]);
        let dx = d.backward(&m);

        let loss = |d: &mut Dense, x: &Tensor| -> f32 {
            let y = d.forward(x, Mode::Eval);
            y.as_slice()
                .iter()
                .zip(m.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        let eps = 1e-2;
        // dx check
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let num = (loss(&mut d, &xp) - loss(&mut d, &xm)) / (2.0 * eps);
            assert!((num - dx.as_slice()[i]).abs() < 1e-2 * (1.0 + num.abs()));
        }
        // dW check on a few coordinates
        let dw = d.dweight.clone();
        for i in [0usize, 5, 11] {
            let orig = d.weight.as_slice()[i];
            d.weight.as_mut_slice()[i] = orig + eps;
            let lp = loss(&mut d, &x);
            d.weight.as_mut_slice()[i] = orig - eps;
            let lm = loss(&mut d, &x);
            d.weight.as_mut_slice()[i] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - dw.as_slice()[i]).abs() < 1e-2 * (1.0 + num.abs()));
        }
    }

    #[test]
    fn bias_gradient_is_column_sum() {
        let mut d = Dense::new(2, 2, 1);
        let x = Tensor::zeros([3, 2]);
        d.forward(&x, Mode::Train);
        let dout = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [3, 2]);
        d.backward(&dout);
        assert_eq!(d.dbias.as_slice(), &[9.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn rejects_wrong_input_width() {
        let mut d = Dense::new(4, 2, 0);
        d.forward(&Tensor::zeros([1, 3]), Mode::Eval);
    }

    #[test]
    fn output_dims_inference() {
        let d = Dense::new(10, 5, 0);
        assert_eq!(d.output_dims(&[8, 10]), vec![8, 5]);
    }
}
