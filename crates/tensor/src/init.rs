//! Seeded random tensor construction and weight-initialization schemes.
//!
//! All randomness in the workspace flows from explicit `u64` seeds so every
//! experiment is bit-reproducible; nothing here reads OS entropy.

use crate::{Shape, Tensor};
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Creates a deterministic RNG from a seed.
///
/// This is the single entry point the rest of the workspace uses to obtain
/// randomness, making provenance greppable.
pub fn rng_from_seed(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives a child seed from a parent seed and a stream index.
///
/// Used to give each end-system / data shard / layer an independent but
/// reproducible random stream. Uses SplitMix64 finalization so nearby inputs
/// map to uncorrelated outputs.
pub fn derive_seed(parent: u64, stream: u64) -> u64 {
    let mut z = parent ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Tensor {
    /// Samples i.i.d. standard-normal elements.
    pub fn randn(shape: impl Into<Shape>, rng: &mut StdRng) -> Tensor {
        let shape = shape.into();
        let len = shape.len();
        let mut data = Vec::with_capacity(len);
        // Box-Muller: two uniforms -> two normals. Avoids a dependency on
        // rand_distr, which is not in the approved crate set.
        while data.len() < len {
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen::<f64>();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            data.push((r * theta.cos()) as f32);
            if data.len() < len {
                data.push((r * theta.sin()) as f32);
            }
        }
        Tensor::from_vec(data, shape)
    }

    /// Samples i.i.d. elements uniform in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn rand_uniform(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut StdRng) -> Tensor {
        assert!(lo < hi, "uniform range must be non-empty: [{}, {})", lo, hi);
        let shape = shape.into();
        let len = shape.len();
        let dist = Uniform::new(lo, hi);
        let data = (0..len).map(|_| dist.sample(rng)).collect();
        Tensor::from_vec(data, shape)
    }

    /// He (Kaiming) normal initialization: `N(0, sqrt(2 / fan_in))`.
    ///
    /// The right choice before ReLU nonlinearities — used for all conv and
    /// hidden dense layers of the paper's CNN.
    pub fn he_normal(shape: impl Into<Shape>, fan_in: usize, rng: &mut StdRng) -> Tensor {
        let std = (2.0 / fan_in.max(1) as f32).sqrt();
        let mut t = Tensor::randn(shape, rng);
        t.scale_inplace(std);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn randn_is_deterministic_per_seed() {
        let a = Tensor::randn([32], &mut rng_from_seed(7));
        let b = Tensor::randn([32], &mut rng_from_seed(7));
        let c = Tensor::randn([32], &mut rng_from_seed(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn randn_moments_are_plausible() {
        let t = Tensor::randn([10_000], &mut rng_from_seed(1));
        let mean: f32 = t.as_slice().iter().sum::<f32>() / t.len() as f32;
        let var: f32 = t
            .as_slice()
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f32>()
            / t.len() as f32;
        assert!(mean.abs() < 0.05, "mean {} too far from 0", mean);
        assert!((var - 1.0).abs() < 0.1, "variance {} too far from 1", var);
    }

    #[test]
    fn randn_odd_length() {
        let t = Tensor::randn([7], &mut rng_from_seed(3));
        assert_eq!(t.len(), 7);
    }

    #[test]
    fn uniform_respects_bounds() {
        let t = Tensor::rand_uniform([1000], -0.5, 0.25, &mut rng_from_seed(2));
        assert!(t.as_slice().iter().all(|&x| (-0.5..0.25).contains(&x)));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn uniform_rejects_inverted_range() {
        Tensor::rand_uniform([4], 1.0, 1.0, &mut rng_from_seed(0));
    }

    #[test]
    fn he_normal_scales_variance_by_fan_in() {
        let t = Tensor::he_normal([20_000], 50, &mut rng_from_seed(5));
        let var: f32 = t.sq_norm() / t.len() as f32;
        let expected = 2.0 / 50.0;
        assert!(
            (var - expected).abs() < expected * 0.15,
            "variance {} vs expected {}",
            var,
            expected
        );
    }

    #[test]
    fn derive_seed_decorrelates_streams() {
        let s0 = derive_seed(42, 0);
        let s1 = derive_seed(42, 1);
        let s2 = derive_seed(43, 0);
        assert_ne!(s0, s1);
        assert_ne!(s0, s2);
        // Stable across calls.
        assert_eq!(s0, derive_seed(42, 0));
    }
}
