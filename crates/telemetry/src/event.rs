//! The one event vocabulary of both split trainers, the fleet and the
//! simulated network.
//!
//! Every observable protocol event is an [`EventKind`]. The one recorder
//! (`stsl_simnet::EventLog`) counts each recorded event in a bank indexed
//! by [`EventKind::index`], appends it to the trace when tracing is on,
//! and appends it to the telemetry journal when telemetry is on and
//! [`EventKind::journaled`] says the kind belongs there. Report counters
//! are reads of that bank, so a kind cannot be recorded without also
//! being counted.
//!
//! Every variant must be recorded somewhere: `tests/async_golden.rs`
//! checks that its golden runs fire every kind but the fleet-only
//! [`EventKind::CohortStep`], which the fleet's unit test covers.

/// What happened.
///
/// The `Debug` names are the trace CSV's `kind` column and
/// [`EventKind::as_str`] is the journal's `kind` label in the telemetry
/// export, so both exports stay stable as long as neither is renamed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// An activation message reached the server's arrival queue.
    Arrival,
    /// The server started processing a queued batch.
    ServiceStart,
    /// A gradient message was delivered back to its end-system.
    GradientDelivered,
    /// The scheduling policy discarded a stale queued batch.
    SchedulerDrop,
    /// The network lost a message.
    NetworkDrop,
    /// A lost message was retransmitted after a backoff.
    Retransmit,
    /// A message exhausted its retry budget and its batch was abandoned.
    RetryExhausted,
    /// An end-system crashed.
    ClientCrash,
    /// A crashed end-system recovered and rejoined.
    ClientRecover,
    /// Training state was checkpointed.
    CheckpointSave,
    /// An end-system was restored from a checkpoint.
    CheckpointRestore,
    /// A fault garbled an in-flight payload.
    PayloadCorrupted,
    /// The integrity guard rejected a frame (checksum/structure failure).
    CorruptRejected,
    /// Ingress validation rejected a non-finite or norm-exploding update.
    AnomalyRejected,
    /// An end-system was quarantined after repeated anomalies.
    Quarantine,
    /// A quarantined end-system finished probation and rejoined.
    QuarantineRelease,
    /// An update from a quarantined end-system was dropped.
    QuarantineDrop,
    /// The health watchdog rolled training back to an earlier checkpoint.
    Rollback,
    /// A telemetry snapshot was emitted.
    SnapshotEmit,
    /// The telemetry journal evicted its oldest event to make room.
    JournalDrop,
    /// A new end-system joined the fleet mid-training.
    ClientJoin,
    /// An end-system departed the fleet.
    ClientLeave,
    /// A departed end-system rejoined and resynced from its last acked
    /// batch.
    ClientRejoin,
    /// The bounded ingress queue shed a batch under overload.
    IngressShed,
    /// A per-link circuit breaker tripped open after repeated delivery
    /// failures.
    BreakerTrip,
    /// A round deadline fired and the partial quorum was applied.
    DeadlinePartialApply,
    /// An adversarial persona poisoned an outgoing update.
    AttackInjected,
    /// The robust aggregator combined a full window of updates.
    RobustApply,
    /// The robust aggregator flagged a sender as a statistical outlier.
    RobustOutlier,
    /// A cohort model replica completed one real training step on behalf
    /// of its sharded end-systems (fleet path).
    CohortStep,
}

impl EventKind {
    /// Number of kinds: the size of a counter bank.
    pub const COUNT: usize = 30;

    /// Every kind, in declaration order, so `ALL[k.index()] == k`.
    pub const ALL: [EventKind; EventKind::COUNT] = [
        EventKind::Arrival,
        EventKind::ServiceStart,
        EventKind::GradientDelivered,
        EventKind::SchedulerDrop,
        EventKind::NetworkDrop,
        EventKind::Retransmit,
        EventKind::RetryExhausted,
        EventKind::ClientCrash,
        EventKind::ClientRecover,
        EventKind::CheckpointSave,
        EventKind::CheckpointRestore,
        EventKind::PayloadCorrupted,
        EventKind::CorruptRejected,
        EventKind::AnomalyRejected,
        EventKind::Quarantine,
        EventKind::QuarantineRelease,
        EventKind::QuarantineDrop,
        EventKind::Rollback,
        EventKind::SnapshotEmit,
        EventKind::JournalDrop,
        EventKind::ClientJoin,
        EventKind::ClientLeave,
        EventKind::ClientRejoin,
        EventKind::IngressShed,
        EventKind::BreakerTrip,
        EventKind::DeadlinePartialApply,
        EventKind::AttackInjected,
        EventKind::RobustApply,
        EventKind::RobustOutlier,
        EventKind::CohortStep,
    ];

    /// Slot of this kind in a `[u64; EventKind::COUNT]` counter bank.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether the kind is written to the telemetry journal. Five kinds
    /// are counted and traced only: `RetryExhausted`, `PayloadCorrupted`,
    /// `CorruptRejected`, `JournalDrop` (journaling an eviction would
    /// itself evict) and `CohortStep` (recorded at fleet rate).
    pub fn journaled(self) -> bool {
        !matches!(
            self,
            EventKind::RetryExhausted
                | EventKind::PayloadCorrupted
                | EventKind::CorruptRejected
                | EventKind::JournalDrop
                | EventKind::CohortStep
        )
    }

    /// Stable snake_case label of a journal row in the telemetry export.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Arrival => "arrival",
            EventKind::ServiceStart => "service_start",
            EventKind::GradientDelivered => "gradient_delivered",
            EventKind::SchedulerDrop => "scheduler_drop",
            EventKind::NetworkDrop => "network_drop",
            EventKind::Retransmit => "retransmit",
            EventKind::RetryExhausted => "retry_exhausted",
            EventKind::ClientCrash => "client_crash",
            EventKind::ClientRecover => "client_recover",
            EventKind::CheckpointSave => "checkpoint_save",
            EventKind::CheckpointRestore => "checkpoint_restore",
            EventKind::PayloadCorrupted => "payload_corrupted",
            EventKind::CorruptRejected => "corrupt_rejected",
            EventKind::AnomalyRejected => "anomaly_rejected",
            EventKind::Quarantine => "quarantine",
            EventKind::QuarantineRelease => "quarantine_release",
            EventKind::QuarantineDrop => "quarantine_drop",
            EventKind::Rollback => "rollback",
            EventKind::SnapshotEmit => "snapshot_emit",
            EventKind::JournalDrop => "journal_drop",
            EventKind::ClientJoin => "client_join",
            EventKind::ClientLeave => "client_leave",
            EventKind::ClientRejoin => "client_rejoin",
            EventKind::IngressShed => "ingress_shed",
            EventKind::BreakerTrip => "breaker_trip",
            EventKind::DeadlinePartialApply => "deadline_partial",
            EventKind::AttackInjected => "attack_injected",
            EventKind::RobustApply => "robust_apply",
            EventKind::RobustOutlier => "robust_outlier",
            EventKind::CohortStep => "cohort_step",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_in_index_order() {
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i, "{kind:?}");
        }
    }

    #[test]
    fn labels_are_unique() {
        for (i, a) in EventKind::ALL.iter().enumerate() {
            for b in &EventKind::ALL[i + 1..] {
                assert_ne!(a.as_str(), b.as_str());
            }
        }
    }

    #[test]
    fn exactly_five_kinds_stay_out_of_the_journal() {
        let unjournaled: Vec<EventKind> = EventKind::ALL
            .into_iter()
            .filter(|k| !k.journaled())
            .collect();
        assert_eq!(
            unjournaled,
            [
                EventKind::RetryExhausted,
                EventKind::PayloadCorrupted,
                EventKind::CorruptRejected,
                EventKind::JournalDrop,
                EventKind::CohortStep,
            ]
        );
        assert_eq!(EventKind::DeadlinePartialApply.as_str(), "deadline_partial");
    }
}
