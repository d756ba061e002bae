//! Baselines the paper compares against (explicitly or implicitly).
//!
//! * [`CentralizedTrainer`] — all layers at the server, pooled data: the
//!   "Nothing (all layers are in the server)" row of Table I, the
//!   accuracy ceiling.
//! * [`vanilla_split`] — classic single-end-system split learning
//!   (Fig. 1 of the paper), i.e. the spatio-temporal trainer with N = 1.
//! * [`FedAvgTrainer`] — federated averaging, the mainstream alternative
//!   for the same privacy goal, used in the communication-cost experiment
//!   (E6): FedAvg ships full model weights every round, split learning
//!   ships per-batch activations.

use crate::config::SplitConfig;
use crate::model::CutPoint;
use crate::report::{CommReport, EpochStats, TrainReport};
use crate::trainer::{ConfigError, SpatioTemporalTrainer};
use stsl_data::{BatchPlan, ImageDataset};
use stsl_nn::loss::SoftmaxCrossEntropy;
use stsl_nn::metrics::RunningMean;
use stsl_nn::Sequential;
use stsl_tensor::init::derive_seed;
use stsl_tensor::Tensor;

/// Centralized training: one model, all data in one place (no privacy).
#[derive(Debug)]
pub struct CentralizedTrainer {
    config: SplitConfig,
    model: Sequential,
}

impl CentralizedTrainer {
    /// Builds the baseline from the same config as the split trainers
    /// (cut and end-system count are ignored).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on invalid hyper-parameters.
    pub fn new(config: SplitConfig) -> Result<Self, ConfigError> {
        config.validate().map_err(ConfigError)?;
        let model = config.arch.build(config.seed);
        Ok(CentralizedTrainer { config, model })
    }

    /// Trains on pooled `train`, evaluating on `test` after each epoch.
    pub fn train(&mut self, train: &ImageDataset, test: &ImageDataset) -> TrainReport {
        let start = crate::WallTimer::start();
        let plan = BatchPlan::new(self.config.batch_size, derive_seed(self.config.seed, 11));
        let loss = SoftmaxCrossEntropy::new();
        let mut opt = self.config.build_optimizer();
        let mut epochs = Vec::new();
        for e in 0..self.config.epochs {
            let mut l = RunningMean::new();
            let mut a = RunningMean::new();
            for (images, targets) in plan.epoch(train, e as u64) {
                let batch_loss = self
                    .model
                    .train_batch(&images, &targets, &loss, opt.as_mut());
                l.push(batch_loss);
                let preds = self.model.predict(&images);
                a.push(stsl_nn::metrics::accuracy(&preds, &targets));
            }
            let test_accuracy = self.evaluate(test);
            epochs.push(EpochStats {
                epoch: e,
                train_loss: l.mean().unwrap_or(0.0),
                train_accuracy: a.mean().unwrap_or(0.0),
                test_accuracy,
                anomalies_rejected: 0,
                rollbacks: 0,
            });
        }
        let final_accuracy = self.evaluate(test);
        TrainReport {
            label: CutPoint(0).label(),
            end_systems: 1,
            cut_blocks: 0,
            epochs,
            final_accuracy,
            per_client_accuracy: vec![final_accuracy],
            comm: CommReport::default(),
            wall_seconds: start.seconds(),
            anomalies_rejected: 0,
            rollbacks: 0,
        }
    }

    /// Test accuracy of the current model.
    pub fn evaluate(&mut self, test: &ImageDataset) -> f32 {
        let batch = self.config.batch_size.max(32);
        test.accuracy(batch, |images| self.model.predict(images))
    }

    /// The underlying model (for the privacy experiments).
    pub fn model_mut(&mut self) -> &mut Sequential {
        &mut self.model
    }
}

/// Classic split learning with a single end-system (the paper's Fig. 1):
/// exactly the spatio-temporal trainer specialized to N = 1.
///
/// # Errors
///
/// Returns [`ConfigError`] if the configuration is invalid.
pub fn vanilla_split(
    config: SplitConfig,
    train: &ImageDataset,
) -> Result<SpatioTemporalTrainer, ConfigError> {
    let mut cfg = config;
    cfg.end_systems = 1;
    SpatioTemporalTrainer::new(cfg, train)
}

/// Federated averaging over the full model.
#[derive(Debug)]
pub struct FedAvgTrainer {
    config: SplitConfig,
    global: Sequential,
    shards: Vec<ImageDataset>,
    /// Local epochs per communication round.
    local_epochs: usize,
    comm: CommReport,
}

impl FedAvgTrainer {
    /// Builds the baseline: `config.end_systems` clients, full-model
    /// replicas, `local_epochs` local passes between averaging rounds.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on invalid configuration.
    pub fn new(
        config: SplitConfig,
        train: &ImageDataset,
        local_epochs: usize,
    ) -> Result<Self, ConfigError> {
        config.validate().map_err(ConfigError)?;
        if local_epochs == 0 {
            return Err(ConfigError("local_epochs must be positive".into()));
        }
        if train.len() < config.end_systems {
            return Err(ConfigError("dataset smaller than client count".into()));
        }
        let shards = config
            .partition
            .split(train, config.end_systems, derive_seed(config.seed, 7));
        let global = config.arch.build(config.seed);
        Ok(FedAvgTrainer {
            config,
            global,
            shards,
            local_epochs,
            comm: CommReport::default(),
        })
    }

    /// Size in bytes of one full-model transfer (f32 per parameter), the
    /// unit FedAvg pays twice per client per round.
    pub fn model_bytes(&mut self) -> u64 {
        (self.global.param_count() * 4) as u64
    }

    /// Runs `rounds` communication rounds and evaluates after each.
    pub fn train(&mut self, rounds: usize, test: &ImageDataset) -> TrainReport {
        let start = crate::WallTimer::start();
        let loss = SoftmaxCrossEntropy::new();
        let mut epochs = Vec::new();
        for round in 0..rounds {
            let global_state = self.global.state_dict();
            let model_bytes = self.model_bytes();
            let total: usize = self.shards.iter().map(|s| s.len()).sum();
            let mut averaged: Option<Vec<Tensor>> = None;
            for (i, shard) in self.shards.iter().enumerate() {
                // Download the global model.
                self.comm.downlink_bytes += model_bytes;
                self.comm.downlink_messages += 1;
                let mut local = self.config.arch.build(self.config.seed);
                local.load_state_dict(&global_state);
                let mut opt = self.config.build_optimizer();
                let plan = BatchPlan::new(
                    self.config.batch_size,
                    derive_seed(self.config.seed, 300 + i as u64),
                );
                for le in 0..self.local_epochs {
                    for (images, targets) in
                        plan.epoch(shard, (round * self.local_epochs + le) as u64)
                    {
                        local.train_batch(&images, &targets, &loss, opt.as_mut());
                    }
                }
                // Upload the trained model.
                self.comm.uplink_bytes += model_bytes;
                self.comm.uplink_messages += 1;
                let weight = shard.len() as f32 / total as f32;
                let state = local.state_dict();
                match &mut averaged {
                    None => {
                        averaged = Some(
                            state
                                .iter()
                                .map(|t| {
                                    let mut t = t.clone();
                                    t.scale_inplace(weight);
                                    t
                                })
                                .collect(),
                        );
                    }
                    Some(acc) => {
                        for (a, s) in acc.iter_mut().zip(&state) {
                            a.axpy(weight, s);
                        }
                    }
                }
            }
            self.global
                .load_state_dict(&averaged.expect("at least one client trained"));
            let test_accuracy = self.evaluate(test);
            epochs.push(EpochStats {
                epoch: round,
                train_loss: f32::NAN, // FedAvg reports round accuracy only
                train_accuracy: f32::NAN,
                test_accuracy,
                anomalies_rejected: 0,
                rollbacks: 0,
            });
        }
        let final_accuracy = self.evaluate(test);
        TrainReport {
            label: format!("fedavg(E={})", self.local_epochs),
            end_systems: self.config.end_systems,
            cut_blocks: 0,
            epochs,
            final_accuracy,
            per_client_accuracy: vec![final_accuracy; self.config.end_systems],
            comm: self.comm,
            wall_seconds: start.seconds(),
            anomalies_rejected: 0,
            rollbacks: 0,
        }
    }

    /// Test accuracy of the current global model.
    pub fn evaluate(&mut self, test: &ImageDataset) -> f32 {
        let batch = self.config.batch_size.max(32);
        test.accuracy(batch, |images| self.global.predict(images))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stsl_data::SyntheticCifar;

    fn data(n: usize) -> ImageDataset {
        SyntheticCifar::new(3)
            .difficulty(0.05)
            .generate_sized(n, 16)
    }

    #[test]
    fn centralized_trains_and_improves() {
        let cfg = SplitConfig::tiny(CutPoint(0), 1).epochs(3).seed(2);
        let mut t = CentralizedTrainer::new(cfg).unwrap();
        let report = t.train(&data(160), &data(40));
        assert!(
            report.final_accuracy > 0.2,
            "accuracy {}",
            report.final_accuracy
        );
        assert!(report.epochs.last().unwrap().train_loss < report.epochs[0].train_loss);
        assert_eq!(report.comm.total_bytes(), 0);
    }

    #[test]
    fn vanilla_split_is_single_client() {
        let cfg = SplitConfig::tiny(CutPoint(2), 4); // end_systems overridden
        let t = vanilla_split(cfg, &data(40)).unwrap();
        assert_eq!(t.config().end_systems, 1);
    }

    #[test]
    fn fedavg_rounds_improve_fit_on_training_data() {
        let cfg = SplitConfig::tiny(CutPoint(0), 2)
            .epochs(1)
            .seed(6)
            .learning_rate(0.02);
        let train = data(160);
        let mut t = FedAvgTrainer::new(cfg, &train, 2).unwrap();
        // Measure fit on the training distribution itself: averaging rounds
        // must make the global model better than its random init.
        let before = t.evaluate(&train);
        let report = t.train(4, &train);
        assert!(
            report.final_accuracy > before + 0.05,
            "{} -> {}",
            before,
            report.final_accuracy
        );
        assert_eq!(report.epochs.len(), 4);
    }

    #[test]
    fn fedavg_comm_is_model_sized() {
        let cfg = SplitConfig::tiny(CutPoint(0), 3).seed(1);
        let train = data(60);
        let mut t = FedAvgTrainer::new(cfg, &train, 1).unwrap();
        let mb = t.model_bytes();
        t.train(2, &data(20));
        // 2 rounds × 3 clients × (down + up).
        assert_eq!(t.comm.total_bytes(), 2 * 3 * 2 * mb);
        assert_eq!(t.comm.uplink_messages, 6);
    }

    #[test]
    fn fedavg_rejects_zero_local_epochs() {
        let cfg = SplitConfig::tiny(CutPoint(0), 2);
        assert!(FedAvgTrainer::new(cfg, &data(40), 0).is_err());
    }

    #[test]
    fn averaging_identical_clients_preserves_weights() {
        // With one client holding all data and weight 1.0, a round equals
        // plain local training (sanity of the weighted average).
        let cfg = SplitConfig::tiny(CutPoint(0), 1).epochs(1).seed(9);
        let train = data(40);
        let mut t = FedAvgTrainer::new(cfg, &train, 1).unwrap();
        let report = t.train(1, &data(20));
        assert_eq!(report.per_client_accuracy.len(), 1);
    }
}
