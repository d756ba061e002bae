//! Structured results emitted by trainers (serialized by the experiment
//! harness into `results/*.json`).

use serde::Serialize;

/// Communication totals over a whole training run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CommReport {
    /// Activation bytes, end-systems → server.
    pub uplink_bytes: u64,
    /// Gradient bytes, server → end-systems.
    pub downlink_bytes: u64,
    /// Activation messages sent.
    pub uplink_messages: u64,
    /// Gradient messages sent.
    pub downlink_messages: u64,
}

impl CommReport {
    /// Total bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.uplink_bytes + self.downlink_bytes
    }
}

/// Metrics for one training epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct EpochStats {
    /// 0-based epoch number.
    pub epoch: usize,
    /// Mean training loss across all server steps this epoch.
    pub train_loss: f32,
    /// Mean training-batch accuracy this epoch.
    pub train_accuracy: f32,
    /// Test accuracy after the epoch (mean over end-system encoders).
    pub test_accuracy: f32,
    /// Updates the ingress guard rejected this epoch (non-finite or
    /// norm-exploding activations).
    pub anomalies_rejected: u64,
    /// Watchdog rollbacks triggered this epoch.
    pub rollbacks: u64,
}

/// Result of a synchronous spatio-temporal training run.
#[derive(Debug, Clone, Serialize)]
pub struct TrainReport {
    /// Label of the run (e.g. the Table I row).
    pub label: String,
    /// Number of end-systems.
    pub end_systems: usize,
    /// Cut depth in blocks.
    pub cut_blocks: usize,
    /// Per-epoch metrics.
    pub epochs: Vec<EpochStats>,
    /// Final test accuracy (mean over end-system encoders).
    pub final_accuracy: f32,
    /// Final test accuracy per end-system encoder.
    pub per_client_accuracy: Vec<f32>,
    /// Communication totals.
    pub comm: CommReport,
    /// Wall-clock seconds the run took (host time, informational).
    pub wall_seconds: f64,
    /// Total updates the ingress guard rejected across the run.
    pub anomalies_rejected: u64,
    /// Total watchdog rollbacks across the run.
    pub rollbacks: u64,
}

impl TrainReport {
    /// Best test accuracy over all epochs (the number Table I reports).
    pub fn best_accuracy(&self) -> f32 {
        self.epochs
            .iter()
            .map(|e| e.test_accuracy)
            .fold(self.final_accuracy, f32::max)
    }
}

/// Result of an asynchronous (network-simulated) training run.
#[derive(Debug, Clone, Serialize)]
pub struct AsyncReport {
    /// Scheduling policy label.
    pub policy: String,
    /// Number of end-systems.
    pub end_systems: usize,
    /// Cut depth in blocks.
    pub cut_blocks: usize,
    /// Simulated seconds until the pipeline drained.
    pub sim_seconds: f64,
    /// Final test accuracy (mean over end-system encoders).
    pub final_accuracy: f32,
    /// Batches the server processed, per end-system.
    pub served_per_client: Vec<u64>,
    /// Coefficient of variation of per-client service (0 = fair).
    pub service_imbalance: f64,
    /// Mean arrival-queue depth.
    pub mean_queue_depth: f64,
    /// Maximum arrival-queue depth.
    pub max_queue_depth: usize,
    /// Mean queueing delay of served batches, in milliseconds.
    pub mean_queue_wait_ms: f64,
    /// Batches discarded by the scheduler (staleness policy).
    pub scheduler_drops: u64,
    /// Messages lost by the network.
    pub network_drops: u64,
    /// Lost messages that were retransmitted after a backoff.
    pub retransmits: u64,
    /// Messages whose retry budget ran out.
    pub retry_exhausted: u64,
    /// Batches lost for good (retry exhaustion, scheduler discards and
    /// crashes), totalled over all end-systems.
    pub batches_lost: u64,
    /// Batches lost for good, per end-system.
    pub batches_lost_per_client: Vec<u64>,
    /// Simulated milliseconds each end-system spent crashed.
    pub downtime_ms_per_client: Vec<f64>,
    /// End-system crash events.
    pub crash_events: u64,
    /// End-system recovery events.
    pub recovery_events: u64,
    /// Auto-checkpoints taken during the run.
    pub checkpoint_saves: u64,
    /// End-systems restored from a checkpoint after a crash.
    pub checkpoint_restores: u64,
    /// Times the server's liveness tracker declared an end-system dead.
    pub dead_clients_detected: u64,
    /// Messages whose payloads were garbled in flight by a corruption
    /// fault.
    pub corrupted_payloads: u64,
    /// Corrupted messages that were detected and discarded (all of them
    /// with the integrity guard on; only the structurally unusable subset
    /// with the guard off — the difference is silent poison).
    pub corrupted_rejected: u64,
    /// Updates the ingress guard rejected (non-finite or norm-exploding).
    pub anomalies_rejected: u64,
    /// Times an end-system was quarantined for repeated anomalies.
    pub quarantines: u64,
    /// Updates dropped because their sender was quarantined.
    pub quarantine_drops: u64,
    /// Probationary rejoins after quarantine.
    pub quarantine_releases: u64,
    /// Watchdog rollbacks to an earlier checkpoint.
    pub rollbacks: u64,
    /// Telemetry snapshots emitted during the run.
    pub snapshots_emitted: u64,
    /// Telemetry journal events evicted because the ring was full.
    pub journal_dropped: u64,
    /// End-systems admitted mid-training (scheduled joins).
    pub clients_joined: u64,
    /// End-systems that departed the fleet (scheduled leaves).
    pub clients_departed: u64,
    /// Departed end-systems re-admitted after resyncing from their last
    /// acked batch.
    pub rejoins: u64,
    /// Batches shed by the bounded ingress queue under overload.
    pub batches_shed: u64,
    /// Per-link circuit-breaker trips.
    pub breaker_trips: u64,
    /// Round deadlines that applied a partial quorum and abandoned the
    /// stragglers' outstanding batches.
    pub deadline_partial_applies: u64,
    /// Updates poisoned at the sender by an adversarial persona.
    pub attacks_injected: u64,
    /// Robust-aggregation windows combined and applied.
    pub robust_applies: u64,
    /// Window members flagged as statistical outliers by the robust
    /// aggregator.
    pub robust_outliers: u64,
    /// Update-slots excluded from robust combines (trimmed, clipped or
    /// unselected), totalled over all applied windows.
    pub updates_trimmed: u64,
    /// Final test accuracy averaged over the encoders of end-systems
    /// *not* in quarantine when the run ended — the fleet the server
    /// still serves. Equals [`Self::final_accuracy`] when nothing was
    /// exiled. Under a Byzantine attack this is the defense's headline:
    /// an exiled attacker's own encoder is attacker-owned and no
    /// server-side policy can train it honestly, so averaging it into
    /// [`Self::final_accuracy`] measures the attacker's self-harm, not
    /// the defense.
    pub active_accuracy: f32,
    /// Communication totals.
    pub comm: CommReport,
}

/// Result of a fleet-scale cohort-sharded simulation run (E16).
///
/// Every number here derives from simulated time and deterministic
/// state, so the serialized report is byte-identical across
/// `STSL_THREADS` values; wall-clock throughput is printed by the bench
/// but never serialized.
#[derive(Debug, Clone, Serialize)]
pub struct FleetReport {
    /// Simulated end-systems.
    pub clients: usize,
    /// Cohort model replicas shared across those end-systems.
    pub cohorts: usize,
    /// Simulated seconds until the run drained.
    pub sim_seconds: f64,
    /// Discrete events processed by the simulation loop.
    pub events_processed: u64,
    /// Events per *simulated* second (deterministic throughput measure).
    pub events_per_sim_sec: f64,
    /// Uplink sends attempted by end-systems.
    pub sends_attempted: u64,
    /// Arrivals refused by per-end-system admission token buckets.
    pub admission_rejected: u64,
    /// Arrivals shed by the bounded ingress queue under overload.
    pub shed: u64,
    /// Arrivals the server actually consumed.
    pub served: u64,
    /// Real cohort-replica training steps driven by admitted arrivals.
    pub cohort_steps: u64,
    /// Mean arrival-queue depth over all arrivals.
    pub mean_queue_depth: f64,
    /// Maximum arrival-queue depth.
    pub max_queue_depth: usize,
    /// Mean queueing delay between arrival and service, milliseconds.
    pub mean_staleness_ms: f64,
    /// Final test accuracy, mean over cohort encoders.
    pub final_accuracy: f32,
    /// Final test accuracy per cohort encoder.
    pub per_cohort_accuracy: Vec<f32>,
    /// Bytes of model parameters held across all cohort replicas —
    /// O(cohorts), independent of `clients`.
    pub model_bytes: u64,
    /// Bytes of per-end-system bookkeeping state (identity, admission
    /// bucket, counters) — the O(N·small) term.
    pub per_client_state_bytes: u64,
    /// End-systems that departed mid-run.
    pub departures: u64,
    /// Telemetry snapshots emitted.
    pub snapshots_emitted: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_report_totals() {
        let c = CommReport {
            uplink_bytes: 100,
            downlink_bytes: 50,
            uplink_messages: 2,
            downlink_messages: 2,
        };
        assert_eq!(c.total_bytes(), 150);
    }

    #[test]
    fn best_accuracy_considers_all_epochs() {
        let r = TrainReport {
            label: "x".into(),
            end_systems: 1,
            cut_blocks: 0,
            epochs: vec![
                EpochStats {
                    epoch: 0,
                    train_loss: 1.0,
                    train_accuracy: 0.3,
                    test_accuracy: 0.5,
                    anomalies_rejected: 0,
                    rollbacks: 0,
                },
                EpochStats {
                    epoch: 1,
                    train_loss: 0.8,
                    train_accuracy: 0.5,
                    test_accuracy: 0.7,
                    anomalies_rejected: 0,
                    rollbacks: 0,
                },
            ],
            final_accuracy: 0.65,
            per_client_accuracy: vec![0.65],
            comm: CommReport::default(),
            wall_seconds: 0.0,
            anomalies_rejected: 0,
            rollbacks: 0,
        };
        assert_eq!(r.best_accuracy(), 0.7);
    }

    #[test]
    fn reports_serialize_to_json() {
        let r = AsyncReport {
            policy: "fifo".into(),
            end_systems: 2,
            cut_blocks: 1,
            sim_seconds: 1.5,
            final_accuracy: 0.4,
            active_accuracy: 0.4,
            served_per_client: vec![3, 4],
            service_imbalance: 0.1,
            mean_queue_depth: 0.5,
            max_queue_depth: 2,
            mean_queue_wait_ms: 3.0,
            scheduler_drops: 0,
            network_drops: 1,
            retransmits: 1,
            retry_exhausted: 0,
            batches_lost: 1,
            batches_lost_per_client: vec![1, 0],
            downtime_ms_per_client: vec![0.0, 12.5],
            crash_events: 1,
            recovery_events: 1,
            checkpoint_saves: 2,
            checkpoint_restores: 1,
            dead_clients_detected: 1,
            corrupted_payloads: 0,
            corrupted_rejected: 0,
            anomalies_rejected: 0,
            quarantines: 0,
            quarantine_drops: 0,
            quarantine_releases: 0,
            rollbacks: 0,
            snapshots_emitted: 0,
            journal_dropped: 0,
            clients_joined: 1,
            clients_departed: 1,
            rejoins: 1,
            batches_shed: 2,
            breaker_trips: 0,
            deadline_partial_applies: 0,
            attacks_injected: 3,
            robust_applies: 2,
            robust_outliers: 1,
            updates_trimmed: 4,
            comm: CommReport::default(),
        };
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("fifo"));
        assert!(json.contains("retransmits"));
    }
}
