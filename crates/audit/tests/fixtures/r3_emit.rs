//! Fixture: non-test code that records every `EventKind` variant, so the
//! R3 liveness check sees each one recorded. Never compiled.

pub fn emit_all(log: &mut EventLog, at: SimTime, id: EndSystemId) {
    log.record(at, EventKind::Arrival, id);
    log.record(at, EventKind::ServiceStart, id);
    log.record(at, EventKind::GradientDelivered, id);
    log.record(at, EventKind::SchedulerDrop, id);
    log.record(at, EventKind::NetworkDrop, id);
    log.record(at, EventKind::Retransmit, id);
    log.record(at, EventKind::RetryExhausted, id);
    log.record(at, EventKind::ClientCrash, id);
    log.record(at, EventKind::ClientRecover, id);
    log.record(at, EventKind::CheckpointSave, id);
    log.record(at, EventKind::CheckpointRestore, id);
    log.record(at, EventKind::PayloadCorrupted, id);
    log.record(at, EventKind::CorruptRejected, id);
    log.record(at, EventKind::AnomalyRejected, id);
    log.record(at, EventKind::Quarantine, id);
    log.record(at, EventKind::QuarantineRelease, id);
    log.record(at, EventKind::QuarantineDrop, id);
    log.record(at, EventKind::Rollback, id);
    log.record(at, EventKind::SnapshotEmit, id);
    log.record(at, EventKind::JournalDrop, id);
    log.record(at, EventKind::ClientJoin, id);
    log.record(at, EventKind::ClientLeave, id);
    log.record(at, EventKind::ClientRejoin, id);
    log.record(at, EventKind::IngressShed, id);
    log.record(at, EventKind::BreakerTrip, id);
    log.record(at, EventKind::DeadlinePartialApply, id);
    log.record(at, EventKind::AttackInjected, id);
    log.record(at, EventKind::RobustApply, id);
    log.record(at, EventKind::RobustOutlier, id);
    log.record(at, EventKind::CohortStep, id);
}

/// Reading a count is not recording: `r3_unemitted_variant_is_caught`
/// keeps this line when it drops the `Rollback` record above.
pub fn rollbacks(log: &EventLog) -> u64 {
    log.count(EventKind::Rollback)
}
