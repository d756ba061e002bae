//! Elementwise convenience methods.

use crate::Tensor;

impl Tensor {
    /// Elementwise exponential.
    pub fn exp(&self) -> Tensor {
        self.map(f32::exp)
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Tensor {
        self.map(f32::ln)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        self.map(f32::sqrt)
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Tensor {
        self.map(f32::abs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::rng_from_seed;

    #[test]
    fn unary_maps() {
        let t = Tensor::from_vec(vec![1.0, 4.0], [2]);
        assert_eq!(t.sqrt().as_slice(), &[1.0, 2.0]);
        let n = Tensor::from_vec(vec![-2.0, 3.0], [2]);
        assert_eq!(n.abs().as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn exp_ln_roundtrip() {
        let t = Tensor::rand_uniform([20], 0.1, 5.0, &mut rng_from_seed(0));
        let back = t.exp().ln();
        assert!(back.allclose(&t, 1e-4));
    }
}
