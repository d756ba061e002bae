//! The synchronous spatio-temporal split-learning trainer.
//!
//! This is the paper's Fig. 2 pipeline run in-process with no simulated
//! network: end-systems take turns (round-robin over batch indices)
//! sending smashed activations to the one centralized server, which trains
//! the shared upper model on *all* of them and returns cut-layer
//! gradients. It reproduces Table I.

use crate::checkpoint::{Checkpoint, CheckpointRing};
use crate::client::EndSystem;
use crate::config::SplitConfig;
use crate::guard::{tensor_rms, GuardConfig, HealthWatchdog, LR_COOLDOWN};
use crate::protocol::{ActivationMsg, GradientMsg};
use crate::report::{CommReport, EpochStats, TrainReport};
use crate::server::CentralServer;
use stsl_data::ImageDataset;
use stsl_nn::metrics::RunningMean;
use stsl_parallel::{par_map_mut, ChunkPolicy};
use stsl_simnet::{EndSystemId, EventLog, SimTime};
use stsl_telemetry::EventKind;
use stsl_tensor::init::derive_seed;

/// Error constructing a trainer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Orchestrates multiple [`EndSystem`]s and one [`CentralServer`].
#[derive(Debug)]
pub struct SpatioTemporalTrainer {
    config: SplitConfig,
    server: CentralServer,
    clients: Vec<EndSystem>,
    comm: CommReport,
    guard: Option<GuardConfig>,
    watchdog: HealthWatchdog,
    ring: CheckpointRing,
    /// Counts the anomalies and rollbacks the report totals. Nothing
    /// traces or journals them, so events carry no timestamp.
    log: EventLog,
}

impl SpatioTemporalTrainer {
    /// Builds the trainer: validates the configuration, partitions
    /// `train` across end-systems, builds each end-system's **private**
    /// lower model (unique seed per end-system — the paper's individual
    /// first hidden layers) and the server's shared upper model.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is inconsistent or the
    /// dataset is too small to shard.
    pub fn new(config: SplitConfig, train: &ImageDataset) -> Result<Self, ConfigError> {
        config.validate().map_err(ConfigError)?;
        if train.len() < config.end_systems {
            return Err(ConfigError(format!(
                "{} samples cannot be split across {} end-systems",
                train.len(),
                config.end_systems
            )));
        }
        let (server, clients) = config.build_deployment(train);
        Ok(SpatioTemporalTrainer {
            config,
            server,
            clients,
            comm: CommReport::default(),
            guard: None,
            watchdog: HealthWatchdog::new(&GuardConfig::default()),
            ring: CheckpointRing::new(1),
            log: EventLog::new(),
        })
    }

    /// Counts one `kind` event for `actor`.
    fn record(&mut self, kind: EventKind, actor: usize) {
        self.log.record(SimTime::ZERO, kind, EndSystemId(actor));
    }

    /// Enables the data-plane integrity guard: incoming activations are
    /// validated before they touch the shared model, and a training-health
    /// watchdog rolls the deployment back to the last good checkpoint
    /// (with a learning-rate cooldown) when loss or gradients diverge.
    pub fn with_integrity_guard(mut self, guard: GuardConfig) -> Self {
        self.watchdog = HealthWatchdog::new(&guard);
        self.ring = CheckpointRing::new(guard.ring_capacity);
        self.guard = Some(guard);
        self
    }

    /// The configuration this trainer runs.
    pub fn config(&self) -> &SplitConfig {
        &self.config
    }

    /// The end-systems (for inspection and the privacy experiments).
    pub fn clients_mut(&mut self) -> &mut [EndSystem] {
        &mut self.clients
    }

    /// The centralized server.
    pub fn server_mut(&mut self) -> &mut CentralServer {
        &mut self.server
    }

    /// Runs one epoch: every *participating* end-system passes once over
    /// its shard, with batches interleaved round-robin at the server.
    /// With `config.participation < 1.0`, each end-system independently
    /// skips the epoch with probability `1 - participation` (at least one
    /// always participates). Returns `(mean loss, mean batch accuracy)`.
    pub fn run_epoch(&mut self, epoch: usize) -> (f32, f32) {
        let participating = self.sample_participants(epoch);
        for (i, c) in self.clients.iter_mut().enumerate() {
            if participating[i] {
                c.begin_epoch(epoch as u64);
            }
        }
        let mut loss = RunningMean::new();
        let mut acc = RunningMean::new();
        // Each round has three phases. Client compute depends only on a
        // client's own private state, so fanning phases 1 and 3 out across
        // threads produces exactly the batches and updates of the old
        // serial interleave; phase 2 keeps the server a single logical
        // queue processing uplinks in ascending end-system order, so the
        // server's step order, comm totals, and metric order are
        // unchanged for any `STSL_THREADS`.
        let fanout = ChunkPolicy::min_chunk(1);
        let mut remaining = true;
        while remaining {
            remaining = false;
            // Phase 1 (spatial fan-out): every participating end-system
            // computes its next smashed-activation batch concurrently.
            let msgs: Vec<Option<ActivationMsg>> =
                par_map_mut(&mut self.clients, fanout, |i, c| {
                    if participating[i] {
                        c.next_batch()
                    } else {
                        None
                    }
                });
            // Phase 2 (serial server queue): process arrivals in
            // end-system order, exactly as the serial loop did. With the
            // integrity guard on, poisoned activations are rejected before
            // they touch the shared model, and the health watchdog may
            // roll the deployment back mid-round; either way the sender's
            // batch is abandoned rather than answered.
            let guard = self.guard;
            let mut grads: Vec<Option<GradientMsg>> = Vec::new();
            let mut abandoned = vec![false; self.clients.len()];
            for (i, msg) in msgs.iter().enumerate() {
                let Some(msg) = msg else {
                    grads.push(None);
                    continue;
                };
                remaining = true;
                self.comm.uplink_bytes += msg.encoded_len() as u64;
                self.comm.uplink_messages += 1;
                let Ok(out) = self.server.process(msg, guard.as_ref()) else {
                    self.record(EventKind::AnomalyRejected, i);
                    abandoned[i] = true;
                    grads.push(None);
                    continue;
                };
                if guard.is_some()
                    && self
                        .watchdog
                        .observe(out.loss, tensor_rms(&out.gradient.grad))
                {
                    self.rollback();
                    abandoned[i] = true;
                    grads.push(None);
                    continue;
                }
                self.comm.downlink_bytes += out.gradient.encoded_len() as u64;
                self.comm.downlink_messages += 1;
                loss.push(out.loss);
                acc.push(out.batch_accuracy);
                grads.push(Some(out.gradient));
            }
            // Phase 3 (fan-in): each end-system applies its own cut-layer
            // gradient to its private lower model, concurrently.
            let results = par_map_mut(&mut self.clients, fanout, |i, c| {
                if abandoned[i] {
                    c.abandon_outstanding();
                    return None;
                }
                grads[i].as_ref().map(|g| c.apply_gradient(g))
            });
            for r in results.into_iter().flatten() {
                r.expect("sync protocol answers every batch in order");
            }
        }
        (loss.mean().unwrap_or(0.0), acc.mean().unwrap_or(0.0))
    }

    /// Samples which end-systems take part in `epoch`, deterministically
    /// from the run seed. Guarantees at least one participant.
    fn sample_participants(&self, epoch: usize) -> Vec<bool> {
        let p = self.config.participation;
        if p >= 1.0 {
            return vec![true; self.clients.len()];
        }
        use rand::Rng;
        let mut rng =
            stsl_tensor::init::rng_from_seed(derive_seed(self.config.seed, 0x9A47 ^ epoch as u64));
        let mut participating: Vec<bool> = (0..self.clients.len())
            .map(|_| rng.gen::<f32>() < p)
            .collect();
        if participating.iter().all(|&x| !x) {
            let lucky = rng.gen_range(0..self.clients.len());
            participating[lucky] = true;
        }
        participating
    }

    /// Rolls the deployment back to the newest checkpoint in the ring
    /// (or just cools the learning rate when the ring is empty) and
    /// resets the watchdog. Repeated divergences walk backward through
    /// progressively older ring entries.
    fn rollback(&mut self) {
        self.record(EventKind::Rollback, self.clients.len());
        if let Some(ckpt) = self.ring.pop_latest() {
            self.restore(&ckpt)
                .expect("ring checkpoints come from this deployment");
        }
        self.server.scale_learning_rate(LR_COOLDOWN);
        self.watchdog.reset();
    }

    /// Activations the ingress guard has rejected so far.
    pub fn anomalies_rejected(&self) -> u64 {
        self.log.count(EventKind::AnomalyRejected)
    }

    /// Watchdog rollbacks so far.
    pub fn rollbacks(&self) -> u64 {
        self.log.count(EventKind::Rollback)
    }

    /// The ring of recent good checkpoints (populated only while the
    /// integrity guard is on).
    pub fn checkpoint_ring(&self) -> &CheckpointRing {
        &self.ring
    }

    /// Snapshots the full deployment state.
    pub fn checkpoint(&mut self) -> Checkpoint {
        Checkpoint::capture(&self.config, &mut self.server, &mut self.clients)
    }

    /// Restores parameters from a checkpoint taken on an
    /// identically-configured deployment.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the end-system count differs; panics on
    /// per-tensor shape mismatches (a checkpoint from a different
    /// architecture is a programming error, not a runtime condition).
    pub fn restore(&mut self, checkpoint: &Checkpoint) -> Result<(), ConfigError> {
        checkpoint.restore_into(&mut self.server, &mut self.clients)
    }

    /// Installs `ring` (e.g. loaded from disk after a crash) and restores
    /// the deployment from its newest entry, if any. Returns whether a
    /// checkpoint was applied.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the newest entry was taken on a
    /// deployment with a different end-system count.
    pub fn resume_from_ring(&mut self, ring: CheckpointRing) -> Result<bool, ConfigError> {
        let applied = if let Some(ckpt) = ring.latest() {
            self.restore(ckpt)?;
            true
        } else {
            false
        };
        self.ring = ring;
        Ok(applied)
    }

    /// Test accuracy per end-system encoder.
    pub fn evaluate_per_client(&mut self, test: &ImageDataset) -> Vec<f32> {
        let batch = self.config.batch_size.max(32);
        self.server
            .evaluate_encoders(test, batch, &mut self.clients)
    }

    /// Mean test accuracy over end-system encoders — the deployment-time
    /// number (each hospital serves predictions through its own encoder
    /// plus the shared server).
    pub fn evaluate(&mut self, test: &ImageDataset) -> f32 {
        let per = self.evaluate_per_client(test);
        stsl_tensor::mean_f32(&per)
    }

    /// Runs the full configured training, evaluating after every epoch.
    pub fn train(&mut self, test: &ImageDataset) -> TrainReport {
        let start = crate::WallTimer::start();
        if self.guard.is_some() {
            // Seed the rollback ring so the watchdog always has a target,
            // even if training diverges during the first epoch.
            let ckpt = self.checkpoint();
            self.ring.push(ckpt);
        }
        let mut epochs = Vec::with_capacity(self.config.epochs);
        for e in 0..self.config.epochs {
            let (anomalies_before, rollbacks_before) =
                (self.anomalies_rejected(), self.rollbacks());
            let (train_loss, train_accuracy) = self.run_epoch(e);
            let test_accuracy = self.evaluate(test);
            epochs.push(EpochStats {
                epoch: e,
                train_loss,
                train_accuracy,
                test_accuracy,
                anomalies_rejected: self.anomalies_rejected() - anomalies_before,
                rollbacks: self.rollbacks() - rollbacks_before,
            });
            if self.guard.is_some() && train_loss.is_finite() {
                let ckpt = self.checkpoint();
                self.ring.push(ckpt);
            }
        }
        let per_client_accuracy = self.evaluate_per_client(test);
        let final_accuracy = stsl_tensor::mean_f32(&per_client_accuracy);
        TrainReport {
            label: self.config.cut.label(),
            end_systems: self.config.end_systems,
            cut_blocks: self.config.cut.blocks(),
            epochs,
            final_accuracy,
            per_client_accuracy,
            comm: self.comm,
            wall_seconds: start.seconds(),
            anomalies_rejected: self.anomalies_rejected(),
            rollbacks: self.rollbacks(),
        }
    }

    /// Communication totals so far.
    pub fn comm(&self) -> CommReport {
        self.comm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CutPoint;
    use stsl_data::SyntheticCifar;

    fn data(n: usize) -> ImageDataset {
        SyntheticCifar::new(3)
            .difficulty(0.05)
            .generate_sized(n, 16)
    }

    #[test]
    fn construction_validates() {
        let cfg = SplitConfig::tiny(CutPoint(1), 2);
        assert!(SpatioTemporalTrainer::new(cfg, &data(40)).is_ok());
        let bad = SplitConfig::tiny(CutPoint(1), 0);
        assert!(SpatioTemporalTrainer::new(bad, &data(40)).is_err());
    }

    #[test]
    fn dataset_smaller_than_clients_rejected() {
        let cfg = SplitConfig::tiny(CutPoint(1), 8);
        let err = SpatioTemporalTrainer::new(cfg, &data(4)).unwrap_err();
        assert!(err.to_string().contains("cannot be split"));
    }

    #[test]
    fn one_epoch_processes_every_batch_once() {
        let cfg = SplitConfig::tiny(CutPoint(1), 2).batch_size(8);
        let mut t = SpatioTemporalTrainer::new(cfg, &data(48)).unwrap();
        t.run_epoch(0);
        // 48 samples, 2 clients × 24 samples -> 3 batches each.
        assert_eq!(t.server_mut().steps(), 6);
        assert_eq!(t.server_mut().served_per_client(), &[3, 3]);
        assert_eq!(t.comm().uplink_messages, 6);
        assert_eq!(t.comm().downlink_messages, 6);
    }

    #[test]
    fn training_improves_over_random_chance() {
        let cfg = SplitConfig::tiny(CutPoint(1), 2)
            .epochs(8)
            .learning_rate(0.02)
            .seed(1);
        let train = data(200);
        let test = SyntheticCifar::new(77)
            .difficulty(0.05)
            .generate_sized(60, 16);
        let mut t = SpatioTemporalTrainer::new(cfg, &train).unwrap();
        let report = t.train(&test);
        assert!(
            report.final_accuracy > 0.2,
            "accuracy {} not better than chance",
            report.final_accuracy
        );
        assert_eq!(report.epochs.len(), 8);
        assert_eq!(report.per_client_accuracy.len(), 2);
        // Loss decreased over training.
        assert!(report.epochs.last().unwrap().train_loss < report.epochs[0].train_loss);
    }

    #[test]
    fn identical_seeds_reproduce_reports() {
        let run = || {
            let cfg = SplitConfig::tiny(CutPoint(2), 2).epochs(1).seed(5);
            let train = data(60);
            let test = data(30);
            SpatioTemporalTrainer::new(cfg, &train)
                .unwrap()
                .train(&test)
        };
        let a = run();
        let b = run();
        assert_eq!(a.final_accuracy, b.final_accuracy);
        assert_eq!(a.epochs[0].train_loss, b.epochs[0].train_loss);
    }

    #[test]
    fn partial_participation_skips_clients_some_epochs() {
        let cfg = SplitConfig::tiny(CutPoint(1), 4)
            .epochs(1)
            .batch_size(8)
            .participation(0.5)
            .seed(2);
        let mut t = SpatioTemporalTrainer::new(cfg, &data(64)).unwrap();
        // Run several epochs; total served batches must be strictly fewer
        // than full participation would produce (4 clients × 2 batches ×
        // 6 epochs = 48), and every client id stays within range.
        for e in 0..6 {
            t.run_epoch(e);
        }
        let total: u64 = t.server_mut().served_per_client().iter().sum();
        assert!(total < 48, "expected skipped epochs, served {}", total);
        assert!(total > 0);
    }

    #[test]
    fn full_participation_is_default() {
        let cfg = SplitConfig::tiny(CutPoint(1), 2).epochs(1).batch_size(8);
        assert_eq!(cfg.participation, 1.0);
        assert!(SplitConfig::tiny(CutPoint(1), 1)
            .participation(0.0)
            .validate()
            .is_err());
        assert!(SplitConfig::tiny(CutPoint(1), 1)
            .participation(1.5)
            .validate()
            .is_err());
    }

    #[test]
    fn comm_bytes_scale_with_cut_depth() {
        // Deeper cuts produce smaller activations (pooling shrinks them).
        let bytes_at = |k: usize| {
            let cfg = SplitConfig::tiny(CutPoint(k), 1).epochs(1).batch_size(10);
            let train = data(20);
            let mut t = SpatioTemporalTrainer::new(cfg, &train).unwrap();
            t.run_epoch(0);
            t.comm().uplink_bytes
        };
        let shallow = bytes_at(1);
        let deep = bytes_at(3);
        assert!(shallow > deep, "uplink {} should exceed {}", shallow, deep);
    }
}
