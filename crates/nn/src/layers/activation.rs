//! Parameter-free activation and reshaping layers.

use crate::layer::{Layer, Mode};
use stsl_tensor::Tensor;

/// Rectified linear unit: `y = max(0, x)`.
#[derive(Debug, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu { mask: None }
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        if mode == Mode::Train {
            self.mask = Some(input.as_slice().iter().map(|&x| x > 0.0).collect());
        }
        input.map(|x| x.max(0.0))
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        let mask = self
            .mask
            .take()
            .expect("relu backward without cached forward");
        assert_eq!(dout.len(), mask.len(), "relu dout length mismatch");
        let data = dout
            .as_slice()
            .iter()
            .zip(&mask)
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Tensor::from_vec(data, dout.shape().clone())
    }

    fn output_dims(&self, input_dims: &[usize]) -> Vec<usize> {
        input_dims.to_vec()
    }
}

/// Flattens `[n, …]` to `[n, prod(…)]` (the conv→dense transition).
#[derive(Debug, Default)]
pub struct Flatten {
    input_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { input_dims: None }
    }
}

impl Layer for Flatten {
    fn name(&self) -> &'static str {
        "flatten"
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        assert!(input.rank() >= 1, "flatten expects a batch dimension");
        if mode == Mode::Train {
            self.input_dims = Some(input.dims().to_vec());
        }
        let n = input.dim(0);
        input.reshape([n, input.len() / n.max(1)])
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        let dims = self
            .input_dims
            .take()
            .expect("flatten backward without cached forward");
        dout.reshape(dims)
    }

    fn output_dims(&self, input_dims: &[usize]) -> Vec<usize> {
        let n = input_dims[0];
        vec![n, input_dims[1..].iter().product()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], [3]);
        assert_eq!(r.forward(&x, Mode::Eval).as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 3.0], [2]);
        r.forward(&x, Mode::Train);
        let dx = r.backward(&Tensor::from_vec(vec![5.0, 7.0], [2]));
        assert_eq!(dx.as_slice(), &[0.0, 7.0]);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::zeros([2, 3, 4, 4]);
        let y = f.forward(&x, Mode::Train);
        assert_eq!(y.dims(), &[2, 48]);
        let dx = f.backward(&Tensor::ones([2, 48]));
        assert_eq!(dx.dims(), &[2, 3, 4, 4]);
    }
}
