//! Partitioning a dataset across end-systems.
//!
//! The paper's setting is multiple medical end-systems, each holding local
//! patient data that can never leave the premises. These helpers carve one
//! dataset into per-end-system shards under three regimes:
//!
//! * [`Partition::Iid`] — uniformly random, the paper's implicit setting;
//! * [`Partition::Dirichlet`] — label-skewed shards (the standard non-IID
//!   federated-learning benchmark), for the ablation in DESIGN.md §5;
//! * [`Partition::Shards`] — pathological sort-and-deal label sharding.

use crate::ImageDataset;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use stsl_tensor::init::rng_from_seed;

/// How to distribute samples across end-systems.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Partition {
    /// Independent, identically distributed shards.
    Iid,
    /// Label-skewed shards: each class's samples are split according to a
    /// Dirichlet(α) draw over clients. Small α ⇒ extreme skew.
    Dirichlet {
        /// Dirichlet concentration (must be positive).
        alpha: f32,
    },
    /// Sort by label, deal `shards_per_client` contiguous shards to each
    /// client (McMahan et al.'s pathological non-IID setting).
    Shards {
        /// Number of label-contiguous shards each client receives.
        shards_per_client: usize,
    },
}

impl Partition {
    /// Splits `dataset` into `clients` shards.
    ///
    /// Every sample lands in exactly one shard; shards are never empty as
    /// long as `dataset.len() >= clients`.
    ///
    /// # Panics
    ///
    /// Panics if `clients == 0`, `dataset.len() < clients`, or parameters
    /// are invalid (`alpha <= 0`, `shards_per_client == 0`).
    pub fn split(&self, dataset: &ImageDataset, clients: usize, seed: u64) -> Vec<ImageDataset> {
        assert!(clients > 0, "need at least one client");
        assert!(
            dataset.len() >= clients,
            "cannot split {} samples across {} clients",
            dataset.len(),
            clients
        );
        let index_sets = self.split_indices(dataset, clients, seed);
        index_sets.iter().map(|idx| dataset.subset(idx)).collect()
    }

    /// Index-level variant of [`Partition::split`].
    pub fn split_indices(
        &self,
        dataset: &ImageDataset,
        clients: usize,
        seed: u64,
    ) -> Vec<Vec<usize>> {
        let mut rng = rng_from_seed(seed);
        let mut sets: Vec<Vec<usize>> = match self {
            Partition::Iid => {
                let mut idx: Vec<usize> = (0..dataset.len()).collect();
                idx.shuffle(&mut rng);
                let mut sets = vec![Vec::new(); clients];
                for (i, sample) in idx.into_iter().enumerate() {
                    sets[i % clients].push(sample);
                }
                sets
            }
            Partition::Dirichlet { alpha } => {
                assert!(*alpha > 0.0, "dirichlet alpha must be positive");
                let mut sets = vec![Vec::new(); clients];
                for class in 0..dataset.num_classes() {
                    let mut members: Vec<usize> = (0..dataset.len())
                        .filter(|&i| dataset.label(i) == class)
                        .collect();
                    members.shuffle(&mut rng);
                    let weights = sample_dirichlet(*alpha, clients, &mut rng);
                    // Convert weights to cumulative sample counts.
                    let mut start = 0usize;
                    let mut cum = 0.0f64;
                    for (c, &w) in weights.iter().enumerate() {
                        cum += w as f64;
                        let end = if c + 1 == clients {
                            members.len()
                        } else {
                            ((members.len() as f64) * cum).round() as usize
                        };
                        let end = end.clamp(start, members.len());
                        sets[c].extend_from_slice(&members[start..end]);
                        start = end;
                    }
                }
                sets
            }
            Partition::Shards { shards_per_client } => {
                assert!(*shards_per_client > 0, "shards_per_client must be positive");
                let mut idx: Vec<usize> = (0..dataset.len()).collect();
                idx.sort_by_key(|&i| dataset.label(i));
                let total_shards = clients * shards_per_client;
                let shard_size = (dataset.len() / total_shards).max(1);
                let mut shard_ids: Vec<usize> = (0..total_shards).collect();
                shard_ids.shuffle(&mut rng);
                let mut sets = vec![Vec::new(); clients];
                for (rank, shard) in shard_ids.into_iter().enumerate() {
                    let client = rank / shards_per_client;
                    let start = shard * shard_size;
                    let end = if shard + 1 == total_shards {
                        dataset.len()
                    } else {
                        ((shard + 1) * shard_size).min(dataset.len())
                    };
                    sets[client].extend_from_slice(&idx[start..end.max(start)]);
                }
                sets
            }
        };
        // Guarantee non-empty shards by stealing from the largest.
        loop {
            let empty = sets.iter().position(|s| s.is_empty());
            let Some(e) = empty else { break };
            let donor = sets
                .iter()
                .enumerate()
                .max_by_key(|(_, s)| s.len())
                .map(|(i, _)| i)
                .expect("at least one set");
            if sets[donor].len() <= 1 {
                break; // nothing to steal; caller asserted len >= clients
            }
            let moved = sets[donor].pop().expect("donor non-empty");
            sets[e].push(moved);
        }
        sets
    }
}

/// Samples a point from a symmetric Dirichlet(α) via normalized Gamma
/// draws (Marsaglia–Tsang for shape ≥ 1, boosted for shape < 1).
fn sample_dirichlet(alpha: f32, k: usize, rng: &mut rand::rngs::StdRng) -> Vec<f32> {
    let draws: Vec<f64> = (0..k).map(|_| sample_gamma(alpha as f64, rng)).collect();
    let total: f64 = draws.iter().sum::<f64>().max(1e-300);
    draws.iter().map(|&d| (d / total) as f32).collect()
}

fn sample_gamma(shape: f64, rng: &mut rand::rngs::StdRng) -> f64 {
    if shape < 1.0 {
        // Boost: Gamma(a) = Gamma(a+1) * U^(1/a)
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        return sample_gamma(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // Standard normal via Box-Muller.
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen::<f64>();
        let x = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen::<f64>();
        if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

/// Measures label-distribution skew across shards: the mean total-variation
/// distance between each shard's label distribution and the global one.
/// 0 = perfectly IID, approaching 1 = each shard holds disjoint labels.
pub fn label_skew(shards: &[ImageDataset]) -> f32 {
    assert!(!shards.is_empty(), "no shards");
    let classes = shards[0].num_classes();
    let total: usize = shards.iter().map(|s| s.len()).sum();
    let mut global = vec![0.0f32; classes];
    for s in shards {
        for (c, &n) in s.class_counts().iter().enumerate() {
            global[c] += n as f32;
        }
    }
    for g in &mut global {
        *g /= total.max(1) as f32;
    }
    let mut acc = 0.0;
    for s in shards {
        let counts = s.class_counts();
        let n = s.len().max(1) as f32;
        let tv: f32 = counts
            .iter()
            .enumerate()
            .map(|(c, &k)| (k as f32 / n - global[c]).abs())
            .sum::<f32>()
            / 2.0;
        acc += tv;
    }
    acc / shards.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SyntheticCifar;

    fn dataset() -> ImageDataset {
        SyntheticCifar::new(0).difficulty(0.0).generate(200)
    }

    #[test]
    fn iid_split_covers_everything_once() {
        let d = dataset();
        let sets = Partition::Iid.split_indices(&d, 4, 1);
        let mut all: Vec<usize> = sets.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..200).collect::<Vec<_>>());
        for s in &sets {
            assert_eq!(s.len(), 50);
        }
    }

    #[test]
    fn iid_split_has_low_skew() {
        let d = dataset();
        let shards = Partition::Iid.split(&d, 4, 2);
        assert!(label_skew(&shards) < 0.2, "skew {}", label_skew(&shards));
    }

    #[test]
    fn dirichlet_low_alpha_is_skewed() {
        let d = dataset();
        let iid = Partition::Iid.split(&d, 4, 3);
        let skewed = Partition::Dirichlet { alpha: 0.1 }.split(&d, 4, 3);
        assert!(label_skew(&skewed) > label_skew(&iid) + 0.1);
    }

    #[test]
    fn dirichlet_covers_everything_once() {
        let d = dataset();
        let sets = Partition::Dirichlet { alpha: 0.5 }.split_indices(&d, 5, 4);
        let mut all: Vec<usize> = sets.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all.len(), 200);
        all.dedup();
        assert_eq!(all.len(), 200);
    }

    #[test]
    fn shards_partition_is_extremely_skewed() {
        let d = dataset();
        let shards = Partition::Shards {
            shards_per_client: 2,
        }
        .split(&d, 5, 5);
        assert!(label_skew(&shards) > 0.3, "skew {}", label_skew(&shards));
        let total: usize = shards.iter().map(|s| s.len()).sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn no_shard_is_empty() {
        let d = dataset();
        for p in [
            Partition::Iid,
            Partition::Dirichlet { alpha: 0.05 },
            Partition::Shards {
                shards_per_client: 1,
            },
        ] {
            for &clients in &[1usize, 3, 7] {
                let shards = p.split(&d, clients, 6);
                assert_eq!(shards.len(), clients);
                assert!(
                    shards.iter().all(|s| !s.is_empty()),
                    "{:?} clients={}",
                    p,
                    clients
                );
            }
        }
    }

    #[test]
    fn partition_is_deterministic() {
        let d = dataset();
        let a = Partition::Dirichlet { alpha: 0.3 }.split_indices(&d, 4, 9);
        let b = Partition::Dirichlet { alpha: 0.3 }.split_indices(&d, 4, 9);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn zero_clients_rejected() {
        Partition::Iid.split(&dataset(), 0, 0);
    }

    #[test]
    fn gamma_sampler_has_correct_mean() {
        let mut rng = rng_from_seed(10);
        for &shape in &[0.5f64, 1.0, 3.0] {
            let n = 4000;
            let mean: f64 = (0..n).map(|_| sample_gamma(shape, &mut rng)).sum::<f64>() / n as f64;
            assert!(
                (mean - shape).abs() < 0.15 * shape.max(1.0),
                "shape {}: mean {}",
                shape,
                mean
            );
        }
    }
}
