//! Link models: latency distributions, bandwidth, jitter and loss.

use crate::SimDuration;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A one-way propagation-latency distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LatencyModel {
    /// Fixed latency.
    Constant {
        /// Latency in milliseconds.
        ms: f64,
    },
    /// Uniform in `[lo_ms, hi_ms]`.
    Uniform {
        /// Lower bound (ms).
        lo_ms: f64,
        /// Upper bound (ms).
        hi_ms: f64,
    },
    /// Normal with mean `mean_ms` and standard deviation `std_ms`,
    /// truncated at zero.
    Normal {
        /// Mean (ms).
        mean_ms: f64,
        /// Standard deviation (ms).
        std_ms: f64,
    },
}

impl LatencyModel {
    /// Samples one latency.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters (negative, or `lo > hi`).
    pub fn sample(&self, rng: &mut StdRng) -> SimDuration {
        let ms = match *self {
            LatencyModel::Constant { ms } => {
                assert!(ms >= 0.0, "latency must be non-negative");
                ms
            }
            LatencyModel::Uniform { lo_ms, hi_ms } => {
                assert!(0.0 <= lo_ms && lo_ms <= hi_ms, "invalid uniform range");
                if lo_ms == hi_ms {
                    lo_ms
                } else {
                    rng.gen_range(lo_ms..hi_ms)
                }
            }
            LatencyModel::Normal { mean_ms, std_ms } => {
                assert!(mean_ms >= 0.0 && std_ms >= 0.0, "invalid normal parameters");
                let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let u2: f64 = rng.gen::<f64>();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                (mean_ms + std_ms * z).max(0.0)
            }
        };
        SimDuration::from_secs_f64(ms / 1e3)
    }

    /// The mean latency of the model.
    pub fn mean(&self) -> SimDuration {
        let ms = match *self {
            LatencyModel::Constant { ms } => ms,
            LatencyModel::Uniform { lo_ms, hi_ms } => (lo_ms + hi_ms) / 2.0,
            LatencyModel::Normal { mean_ms, .. } => mean_ms,
        };
        SimDuration::from_secs_f64(ms / 1e3)
    }
}

/// A simulated network link.
///
/// Transfer time = propagation latency (sampled) + serialization delay
/// (`bytes / bandwidth`). Packets are dropped i.i.d. with `loss`
/// probability.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Propagation-latency distribution.
    pub latency: LatencyModel,
    /// Bandwidth in bytes per second. `f64::INFINITY` disables the
    /// serialization-delay term.
    pub bandwidth_bps: f64,
    /// Probability a transfer is lost entirely.
    pub loss: f64,
}

impl Link {
    /// An ideal link: zero latency, infinite bandwidth, no loss.
    pub fn ideal() -> Self {
        Link {
            latency: LatencyModel::Constant { ms: 0.0 },
            bandwidth_bps: f64::INFINITY,
            loss: 0.0,
        }
    }

    /// A symmetric WAN-like link with a constant one-way latency and a
    /// bandwidth in megabits per second.
    ///
    /// # Panics
    ///
    /// Panics on negative arguments.
    pub fn wan(latency_ms: f64, mbps: f64) -> Self {
        assert!(latency_ms >= 0.0 && mbps > 0.0, "invalid wan parameters");
        Link {
            latency: LatencyModel::Constant { ms: latency_ms },
            bandwidth_bps: mbps * 1e6 / 8.0,
            loss: 0.0,
        }
    }

    /// Overrides the latency model (builder style).
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Overrides the loss probability (builder style).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= loss < 1.0`.
    pub fn loss(mut self, loss: f64) -> Self {
        assert!((0.0..1.0).contains(&loss), "loss must be in [0, 1)");
        self.loss = loss;
        self
    }

    /// Samples the transfer outcome for a message of `bytes`:
    /// `Some(duration)` on delivery, `None` if lost.
    pub fn transfer(&self, bytes: usize, rng: &mut StdRng) -> Option<SimDuration> {
        if self.loss > 0.0 && rng.gen::<f64>() < self.loss {
            return None;
        }
        let prop = self.latency.sample(rng);
        let ser = if self.bandwidth_bps.is_finite() {
            SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bps)
        } else {
            SimDuration::ZERO
        };
        Some(prop + ser)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stsl_tensor_seed::rng_from_seed;

    // Tiny shim so tests don't depend on stsl-tensor: a local copy of the
    // seeded-rng constructor contract.
    mod stsl_tensor_seed {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        pub fn rng_from_seed(seed: u64) -> StdRng {
            StdRng::seed_from_u64(seed)
        }
    }

    #[test]
    fn constant_latency_is_exact() {
        let mut rng = rng_from_seed(0);
        let l = LatencyModel::Constant { ms: 5.0 };
        assert_eq!(l.sample(&mut rng), SimDuration::from_millis(5));
        assert_eq!(l.mean(), SimDuration::from_millis(5));
    }

    #[test]
    fn uniform_latency_respects_bounds() {
        let mut rng = rng_from_seed(1);
        let l = LatencyModel::Uniform {
            lo_ms: 2.0,
            hi_ms: 8.0,
        };
        for _ in 0..100 {
            let d = l.sample(&mut rng);
            assert!(d >= SimDuration::from_millis(2) && d <= SimDuration::from_millis(8));
        }
        assert_eq!(l.mean(), SimDuration::from_millis(5));
    }

    #[test]
    fn normal_latency_never_negative() {
        let mut rng = rng_from_seed(2);
        let l = LatencyModel::Normal {
            mean_ms: 1.0,
            std_ms: 5.0,
        };
        for _ in 0..200 {
            let _ = l.sample(&mut rng); // from_secs_f64 would clamp anyway;
                                        // sampling must not panic
        }
    }

    #[test]
    fn ideal_link_is_instant_and_lossless() {
        let mut rng = rng_from_seed(3);
        let link = Link::ideal();
        assert_eq!(link.transfer(1 << 20, &mut rng), Some(SimDuration::ZERO));
    }

    #[test]
    fn wan_serialization_delay_scales_with_bytes() {
        let link = Link::wan(10.0, 8.0); // 8 Mbps = 1 MB/s
        let d = link.transfer(1_000_000, &mut rng_from_seed(5)).unwrap();
        // 10 ms propagation + 1 s serialization.
        assert_eq!(d.as_millis(), 1_010);
    }

    #[test]
    fn lossy_link_drops_roughly_at_rate() {
        let mut rng = rng_from_seed(4);
        let link = Link::ideal().loss(0.3);
        let n = 10_000;
        let dropped = (0..n)
            .filter(|_| link.transfer(1, &mut rng).is_none())
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "drop rate {}", rate);
    }

    #[test]
    #[should_panic(expected = "loss")]
    fn loss_of_one_rejected() {
        Link::ideal().loss(1.0);
    }
}
