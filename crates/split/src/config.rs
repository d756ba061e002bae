//! Configuration for spatio-temporal split-learning runs.

use crate::client::EndSystem;
use crate::model::{CnnArch, CutPoint};
use crate::server::CentralServer;
use serde::{Deserialize, Serialize};
use stsl_data::{ImageDataset, Partition};
use stsl_simnet::EndSystemId;
use stsl_tensor::init::derive_seed;

/// Which optimizer trains both the server part and every end-system part.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OptimizerKind {
    /// SGD with the given momentum.
    Sgd {
        /// Momentum coefficient (0.0 disables).
        momentum: f32,
    },
    /// Adam with default betas.
    Adam,
}

/// Full configuration of a training run.
///
/// Construct with [`SplitConfig::new`] and customize builder-style:
///
/// ```
/// use stsl_split::{SplitConfig, CutPoint};
///
/// let cfg = SplitConfig::new(CutPoint(1), 4)
///     .epochs(3)
///     .batch_size(32)
///     .learning_rate(0.05);
/// assert_eq!(cfg.end_systems, 4);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SplitConfig {
    /// Network architecture.
    pub arch: CnnArch,
    /// How many leading blocks live at the end-systems.
    pub cut: CutPoint,
    /// Number of end-systems sharing the centralized server.
    pub end_systems: usize,
    /// How training data is carved across end-systems.
    pub partition: PartitionKind,
    /// Mini-batch size at every end-system.
    pub batch_size: usize,
    /// Training epochs (each end-system passes over its shard once per
    /// epoch).
    pub epochs: usize,
    /// Learning rate for both halves.
    pub learning_rate: f32,
    /// Optimizer family.
    pub optimizer: OptimizerKind,
    /// Master seed; everything else derives from it.
    pub seed: u64,
    /// Whether to apply flip/crop augmentation at end-systems.
    pub augment: bool,
    /// Standard deviation of the Gaussian noise defense added to every
    /// activation tensor leaving an end-system (0.0 disables; see the
    /// `noise_ablation` experiment for the accuracy/privacy trade-off).
    pub smash_noise: f32,
    /// Probability that an end-system participates in a given epoch
    /// (models the "sparse arrivals" of §II: a far or busy site may skip
    /// rounds entirely). 1.0 = everyone, every epoch.
    pub participation: f32,
}

/// Serializable mirror of [`stsl_data::Partition`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PartitionKind {
    /// Uniform random shards.
    Iid,
    /// Dirichlet label skew.
    Dirichlet {
        /// Concentration parameter.
        alpha: f32,
    },
    /// Sort-and-deal label shards.
    Shards {
        /// Shards per client.
        shards_per_client: usize,
    },
}

impl From<PartitionKind> for Partition {
    fn from(k: PartitionKind) -> Partition {
        match k {
            PartitionKind::Iid => Partition::Iid,
            PartitionKind::Dirichlet { alpha } => Partition::Dirichlet { alpha },
            PartitionKind::Shards { shards_per_client } => Partition::Shards { shards_per_client },
        }
    }
}

/// Server-side overload protection: bounded ingress, per-client rate
/// limits and per-link circuit breaking. Opt-in via
/// [`crate::AsyncSplitTrainer::with_overload_control`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverloadConfig {
    /// Ingress-queue bound: arrivals past this depth shed the oldest
    /// pending batch (oldest-staleness-first).
    pub queue_capacity: usize,
    /// Per-client token-bucket refill rate, tokens (admitted batches) per
    /// simulated second.
    pub bucket_rate: u64,
    /// Per-client token-bucket burst size.
    pub bucket_burst: u64,
    /// Consecutive delivery failures on one link before its circuit
    /// breaker trips.
    pub breaker_threshold: u32,
    /// First breaker open window, milliseconds (doubles per failed probe).
    pub breaker_base_open_ms: u64,
    /// Breaker open-window ceiling, milliseconds.
    pub breaker_max_open_ms: u64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            queue_capacity: 32,
            bucket_rate: 50,
            bucket_burst: 20,
            breaker_threshold: 3,
            breaker_base_open_ms: 100,
            breaker_max_open_ms: 3_000,
        }
    }
}

/// Straggler mitigation: per-round deadlines with partial-quorum apply.
/// Opt-in via [`crate::AsyncSplitTrainer::with_round_deadlines`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeadlineConfig {
    /// Round length in simulated milliseconds: at each multiple the
    /// trainer checks round progress.
    pub round_ms: u64,
    /// Minimum fraction of active members that must have been served this
    /// round for the partial quorum to apply and stragglers' outstanding
    /// batches to be abandoned. In `(0, 1]`.
    pub min_quorum_frac: f64,
}

impl Default for DeadlineConfig {
    fn default() -> Self {
        DeadlineConfig {
            round_ms: 500,
            min_quorum_frac: 0.5,
        }
    }
}

impl SplitConfig {
    /// A sensible default configuration for the paper's setting: the
    /// Fig. 3 CNN, IID shards, SGD momentum 0.9, lr 0.01, batch 32.
    pub fn new(cut: CutPoint, end_systems: usize) -> Self {
        SplitConfig {
            arch: CnnArch::paper(),
            cut,
            end_systems,
            partition: PartitionKind::Iid,
            batch_size: 32,
            epochs: 10,
            learning_rate: 0.01,
            optimizer: OptimizerKind::Sgd { momentum: 0.9 },
            seed: 0,
            augment: false,
            smash_noise: 0.0,
            participation: 1.0,
        }
    }

    /// A fast test configuration on the tiny architecture.
    pub fn tiny(cut: CutPoint, end_systems: usize) -> Self {
        let mut cfg = SplitConfig::new(cut, end_systems);
        cfg.arch = CnnArch::tiny();
        cfg.batch_size = 16;
        cfg.epochs = 2;
        cfg
    }

    /// Sets the architecture (builder style).
    pub fn arch(mut self, arch: CnnArch) -> Self {
        self.arch = arch;
        self
    }

    /// Sets the epoch count (builder style).
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Sets the batch size (builder style).
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Sets the learning rate (builder style).
    pub fn learning_rate(mut self, lr: f32) -> Self {
        self.learning_rate = lr;
        self
    }

    /// Sets the optimizer (builder style).
    pub fn optimizer(mut self, optimizer: OptimizerKind) -> Self {
        self.optimizer = optimizer;
        self
    }

    /// Sets the partition scheme (builder style).
    pub fn partition(mut self, partition: PartitionKind) -> Self {
        self.partition = partition;
        self
    }

    /// Sets the master seed (builder style).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables augmentation (builder style).
    pub fn augment(mut self, augment: bool) -> Self {
        self.augment = augment;
        self
    }

    /// Sets the Gaussian smashed-activation noise defense (builder style).
    pub fn smash_noise(mut self, sigma: f32) -> Self {
        self.smash_noise = sigma;
        self
    }

    /// Sets the per-epoch participation probability (builder style).
    pub fn participation(mut self, participation: f32) -> Self {
        self.participation = participation;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.end_systems == 0 {
            return Err("end_systems must be at least 1".into());
        }
        if self.cut.blocks() > self.arch.blocks() {
            return Err(format!(
                "cut {} exceeds the architecture's {} blocks",
                self.cut.blocks(),
                self.arch.blocks()
            ));
        }
        if self.batch_size == 0 {
            return Err("batch_size must be positive".into());
        }
        if self.epochs == 0 {
            return Err("epochs must be positive".into());
        }
        if self.learning_rate <= 0.0 || !self.learning_rate.is_finite() {
            return Err("learning_rate must be positive".into());
        }
        if self.smash_noise < 0.0 || !self.smash_noise.is_finite() {
            return Err("smash_noise must be non-negative".into());
        }
        if !(self.participation > 0.0 && self.participation <= 1.0) {
            return Err("participation must be in (0, 1]".into());
        }
        if (self.arch.image_side >> self.arch.blocks()) == 0 {
            return Err("image side too small for the number of blocks".into());
        }
        Ok(())
    }

    /// Instantiates the configured optimizer.
    pub fn build_optimizer(&self) -> Box<dyn stsl_nn::optim::Optimizer> {
        match self.optimizer {
            OptimizerKind::Sgd { momentum } => {
                Box::new(stsl_nn::optim::Sgd::new(self.learning_rate).momentum(momentum))
            }
            OptimizerKind::Adam => Box::new(stsl_nn::optim::Adam::new(self.learning_rate)),
        }
    }

    /// Builds the deployment every trainer starts from: `train` carved
    /// into one shard per end-system (seed stream 7), the server's upper
    /// layers from `seed`, and end-system `i`'s private lower layers from
    /// seed stream `1000 + i`.
    pub(crate) fn build_deployment(&self, train: &ImageDataset) -> (CentralServer, Vec<EndSystem>) {
        let partition: Partition = self.partition.into();
        let shards = partition.split(train, self.end_systems, derive_seed(self.seed, 7));
        let (_, server_model) = self.arch.build_split(self.cut, self.seed);
        let server = CentralServer::new(server_model, self.build_optimizer(), self.end_systems);
        let clients = shards
            .into_iter()
            .enumerate()
            .map(|(i, shard)| {
                let client_seed = derive_seed(self.seed, 1000 + i as u64);
                let (client_model, _) = self.arch.build_split(self.cut, client_seed);
                EndSystem::new(
                    EndSystemId(i),
                    client_model,
                    shard,
                    self.batch_size,
                    self.build_optimizer(),
                    self.augment,
                    client_seed,
                )
                .with_smash_noise(self.smash_noise)
            })
            .collect();
        (server, clients)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(SplitConfig::new(CutPoint(1), 4).validate(), Ok(()));
        assert_eq!(SplitConfig::tiny(CutPoint(3), 2).validate(), Ok(()));
    }

    #[test]
    fn validation_catches_bad_configs() {
        assert!(SplitConfig::new(CutPoint(1), 0).validate().is_err());
        assert!(SplitConfig::new(CutPoint(6), 1).validate().is_err());
        assert!(SplitConfig::new(CutPoint(1), 1)
            .batch_size(0)
            .validate()
            .is_err());
        assert!(SplitConfig::new(CutPoint(1), 1)
            .epochs(0)
            .validate()
            .is_err());
        assert!(SplitConfig::new(CutPoint(1), 1)
            .learning_rate(0.0)
            .validate()
            .is_err());
    }

    #[test]
    fn builder_chains() {
        let cfg = SplitConfig::new(CutPoint(2), 3)
            .epochs(7)
            .batch_size(64)
            .learning_rate(0.01)
            .seed(9)
            .augment(true)
            .partition(PartitionKind::Dirichlet { alpha: 0.5 });
        assert_eq!(cfg.epochs, 7);
        assert_eq!(cfg.batch_size, 64);
        assert!(cfg.augment);
        assert!(matches!(cfg.partition, PartitionKind::Dirichlet { .. }));
    }

    #[test]
    fn optimizer_construction() {
        let sgd = SplitConfig::new(CutPoint(0), 1).build_optimizer();
        assert_eq!(sgd.learning_rate(), 0.01);
        let adam = SplitConfig::new(CutPoint(0), 1)
            .optimizer(OptimizerKind::Adam)
            .build_optimizer();
        assert_eq!(adam.learning_rate(), 0.01);
    }

    #[test]
    fn partition_kind_converts() {
        let p: Partition = PartitionKind::Dirichlet { alpha: 0.3 }.into();
        assert_eq!(p, Partition::Dirichlet { alpha: 0.3 });
    }

    #[test]
    fn config_serializes() {
        let cfg = SplitConfig::new(CutPoint(1), 2);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: SplitConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.cut, cfg.cut);
        assert_eq!(back.end_systems, 2);
    }
}
