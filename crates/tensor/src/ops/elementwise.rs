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

    /// Clamps every element into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn clip(&self, lo: f32, hi: f32) -> Tensor {
        assert!(lo <= hi, "invalid clip range [{}, {}]", lo, hi);
        self.map(|x| x.clamp(lo, hi))
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

    #[test]
    fn clip_bounds() {
        let t = Tensor::from_vec(vec![-5.0, 0.5, 5.0], [3]);
        assert_eq!(t.clip(-1.0, 1.0).as_slice(), &[-1.0, 0.5, 1.0]);
    }

    #[test]
    #[should_panic(expected = "invalid clip range")]
    fn clip_rejects_inverted_range() {
        Tensor::zeros([1]).clip(1.0, 0.0);
    }
}
