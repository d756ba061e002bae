//! Integration tests for the data-plane integrity guard: checksummed
//! frames under injected payload corruption, silent poisoning of the
//! unguarded receiver, quarantine of a poisonous end-system, and the
//! divergence-rollback watchdog.

use spatio_temporal_split_learning::simnet::{FaultPlan, Link, SimDuration, SimTime, StarTopology};
use spatio_temporal_split_learning::split::{
    AsyncReport, AsyncSplitTrainer, ComputeModel, CutPoint, GuardConfig, RetryPolicy,
    SchedulingPolicy, SpatioTemporalTrainer, SplitConfig,
};
use spatio_temporal_split_learning::telemetry::{EventKind, MetricId};

fn data(n: usize, seed: u64) -> spatio_temporal_split_learning::data::ImageDataset {
    spatio_temporal_split_learning::data::SyntheticCifar::new(seed)
        .difficulty(0.08)
        .generate_sized(n, 16)
}

/// A corruption plan covering the whole run on every link.
fn corruption_everywhere(clients: usize, rate: f64) -> FaultPlan {
    FaultPlan::new().payload_corruption_all(
        clients,
        rate,
        SimTime::ZERO,
        SimTime::from_micros(u64::MAX),
    )
}

fn build(
    clients: usize,
    epochs: usize,
    plan: FaultPlan,
    guard: bool,
    train: &spatio_temporal_split_learning::data::ImageDataset,
) -> AsyncSplitTrainer {
    let cfg = SplitConfig::tiny(CutPoint(1), clients)
        .epochs(epochs)
        .batch_size(8)
        .seed(21);
    let top = StarTopology::uniform(clients, Link::wan(5.0, 100.0));
    let mut t = AsyncSplitTrainer::new(
        cfg,
        train,
        top,
        SchedulingPolicy::Fifo,
        ComputeModel::default(),
    )
    .unwrap()
    .with_fault_plan(plan)
    .with_retry_policy(RetryPolicy::default())
    .with_auto_checkpoint(SimDuration::from_millis(100));
    if guard {
        t = t.with_integrity_guard(GuardConfig::default());
    }
    t
}

#[test]
fn guard_detects_all_corruption_and_loses_nothing() {
    let train = data(48, 5);
    let test = data(16, 6);
    let mut t = build(2, 2, corruption_everywhere(2, 0.25), true, &train);
    t.enable_trace();
    let r = t.run(&test);
    assert!(r.corrupted_payloads > 0, "corruption never fired: {r:?}");
    // Every garbled frame was caught (CRC) and none slipped through.
    assert_eq!(r.corrupted_rejected, r.corrupted_payloads);
    // Retransmission recovered every one: the full workload was served.
    assert_eq!(r.served_per_client, vec![6, 6]);
    assert_eq!(r.batches_lost, 0);
    // Rejections feed the same retry discipline as network drops.
    assert_eq!(
        r.retransmits + r.retry_exhausted,
        r.network_drops + r.corrupted_rejected
    );
    let trace = t.trace().unwrap();
    assert_eq!(
        trace.count(EventKind::PayloadCorrupted) as u64,
        r.corrupted_payloads
    );
    assert_eq!(
        trace.count(EventKind::CorruptRejected) as u64,
        r.corrupted_rejected
    );
}

#[test]
fn unguarded_receiver_accepts_silent_poison() {
    let train = data(48, 5);
    let test = data(16, 6);
    let guarded = build(2, 2, corruption_everywhere(2, 0.25), true, &train).run(&test);
    let unguarded = build(2, 2, corruption_everywhere(2, 0.25), false, &train).run(&test);
    // Without the CRC, only structurally unusable frames are caught; the
    // rest are silently applied.
    assert!(
        unguarded.corrupted_rejected < unguarded.corrupted_payloads,
        "legacy receiver should miss some corruption: {unguarded:?}"
    );
    assert_eq!(guarded.corrupted_rejected, guarded.corrupted_payloads);
    // The silently poisoned run trains a worse (or at best equal) model.
    assert!(
        guarded.final_accuracy >= unguarded.final_accuracy,
        "guard {} vs poisoned {}",
        guarded.final_accuracy,
        unguarded.final_accuracy
    );
}

#[test]
fn corruption_free_runs_identical_with_and_without_guard() {
    // With no corruption episodes the guard must be a pure pass-through:
    // same RNG streams, same event schedule, same trained model.
    let train = data(48, 5);
    let test = data(16, 6);
    let on = build(2, 1, FaultPlan::new(), true, &train).run(&test);
    let off = build(2, 1, FaultPlan::new(), false, &train).run(&test);
    assert_eq!(on.final_accuracy, off.final_accuracy);
    assert_eq!(on.sim_seconds, off.sim_seconds);
    assert_eq!(on.served_per_client, off.served_per_client);
    assert_eq!(on.corrupted_payloads, 0);
}

/// Wrecks client 0's private model with huge weights (NaN would be
/// squashed to zero by ReLU): every activation it sends norm-explodes.
/// The wire is clean, so only ingress validation can stop the poison.
fn poison_client_zero(t: &mut AsyncSplitTrainer) {
    let poisoned: Vec<_> = t.clients_mut()[0]
        .model_mut()
        .state_dict()
        .into_iter()
        .map(|mut p| {
            p.map_inplace(|_| 1e20);
            p
        })
        .collect();
    t.clients_mut()[0].model_mut().load_state_dict(&poisoned);
}

#[test]
fn poisonous_client_is_rejected_then_quarantined() {
    let train = data(48, 5);
    let test = data(16, 6);
    let mut t = build(2, 3, FaultPlan::new(), true, &train);
    poison_client_zero(&mut t);
    t.enable_trace();
    let r = t.run(&test);
    assert!(
        r.anomalies_rejected >= 3,
        "ingress should reject repeatedly: {r:?}"
    );
    assert!(
        r.quarantines >= 1,
        "repeat offender never quarantined: {r:?}"
    );
    assert!(r.quarantine_drops > 0, "quarantine never dropped: {r:?}");
    // Every batch of the poisoned client that reached the server was
    // rejected at ingress (the queue counts a batch as served when it is
    // popped, before validation), and quarantine kept the rest out.
    assert_eq!(r.anomalies_rejected, r.served_per_client[0]);
    assert_eq!(
        r.served_per_client[0] + r.quarantine_drops,
        9,
        "all 9 poisoned batches were rejected or quarantine-dropped: {r:?}"
    );
    // …and the healthy client trained unimpeded (3 epochs x 3 batches).
    assert_eq!(r.served_per_client[1], 9);
    let trace = t.trace().unwrap();
    assert!(trace.count(EventKind::AnomalyRejected) >= 3);
    assert!(trace.count(EventKind::Quarantine) >= 1);
}

/// Every event goes through one recorder: the trace, the counter bank
/// behind the report and the journal agree on every kind, including the
/// quarantine transitions and the journal evictions they cause.
#[test]
fn quarantine_journaling_is_counted_and_traced() {
    let train = data(48, 5);
    let test = data(16, 6);
    // A 1-slot journal: every journaled event after the first evicts.
    let mut t = build(2, 3, FaultPlan::new(), true, &train)
        .with_telemetry(SimDuration::from_millis(100), 1);
    poison_client_zero(&mut t);
    t.enable_trace();
    let r = t.run(&test);
    assert!(r.quarantines >= 1 && r.quarantine_drops > 0, "{r:?}");
    let trace = t.trace().unwrap();
    for kind in EventKind::ALL {
        assert_eq!(
            trace.count(kind) as u64,
            t.event_log().count(kind),
            "trace and bank disagree on {kind:?}"
        );
    }
    assert_eq!(
        trace.count(EventKind::JournalDrop) as u64,
        r.journal_dropped,
        "every eviction is traced"
    );
    let telemetry = t.telemetry().unwrap();
    assert_eq!(telemetry.journal().evicted(), r.journal_dropped);
    // Each quarantine transition reached the 1-slot journal, so its
    // eviction row follows it at the same instant.
    let events = trace.events();
    for (i, e) in events.iter().enumerate() {
        if matches!(e.kind, EventKind::Quarantine | EventKind::QuarantineDrop) {
            let next = events[i + 1];
            assert_eq!(
                (next.kind, next.at),
                (EventKind::JournalDrop, e.at),
                "{e:?}"
            );
        }
    }

    // With room to keep them, the journal holds every transition.
    let mut roomy = build(2, 3, FaultPlan::new(), true, &train)
        .with_telemetry(SimDuration::from_millis(100), 4_096);
    poison_client_zero(&mut roomy);
    let r = roomy.run(&test);
    assert_eq!(r.journal_dropped, 0);
    let journal = roomy.telemetry().unwrap().journal();
    assert_eq!(journal.count(EventKind::Quarantine) as u64, r.quarantines);
    assert_eq!(
        journal.count(EventKind::QuarantineDrop) as u64,
        r.quarantine_drops
    );
    assert_eq!(
        journal.count(EventKind::QuarantineRelease) as u64,
        r.quarantine_releases
    );
    // Service time is recorded only for the batches ingress accepted.
    let registry = roomy.telemetry().unwrap().registry();
    assert!(registry.histogram(MetricId::ServiceTime, 0).is_none());
    let service = registry.histogram(MetricId::ServiceTime, 1).unwrap();
    assert_eq!(service.count(), r.served_per_client[1]);
}

#[test]
fn watchdog_rolls_back_divergent_training() {
    let train = data(48, 5);
    let test = data(16, 6);
    // An absurd learning rate blows training up within a few steps; the
    // watchdog must roll back to a pre-divergence snapshot and cool the
    // rate instead of shipping NaN gradients to every end-system.
    let cfg = SplitConfig::tiny(CutPoint(1), 2)
        .epochs(3)
        .batch_size(8)
        .learning_rate(50.0)
        .seed(21);
    let top = StarTopology::uniform(2, Link::wan(5.0, 100.0));
    let mut t = AsyncSplitTrainer::new(
        cfg,
        &train,
        top,
        SchedulingPolicy::Fifo,
        ComputeModel::default(),
    )
    .unwrap()
    .with_auto_checkpoint(SimDuration::from_millis(50))
    .with_integrity_guard(GuardConfig {
        warmup_steps: 2,
        ..GuardConfig::default()
    });
    t.enable_trace();
    let r = t.run(&test);
    assert!(r.rollbacks >= 1, "divergence never rolled back: {r:?}");
    assert!(t.trace().unwrap().count(EventKind::Rollback) >= 1);
}

#[test]
fn sync_trainer_guard_rejects_poison_and_reports_it() {
    let train = data(48, 5);
    let test = data(16, 6);
    let cfg = SplitConfig::tiny(CutPoint(1), 2).epochs(2).seed(9);
    let mut t = SpatioTemporalTrainer::new(cfg, &train)
        .unwrap()
        .with_integrity_guard(GuardConfig::default());
    let poisoned: Vec<_> = t.clients_mut()[0]
        .model_mut()
        .state_dict()
        .into_iter()
        .map(|mut p| {
            p.map_inplace(|_| f32::INFINITY);
            p
        })
        .collect();
    t.clients_mut()[0].model_mut().load_state_dict(&poisoned);
    let report = t.train(&test);
    assert!(report.anomalies_rejected > 0, "{report:?}");
    assert_eq!(
        report
            .epochs
            .iter()
            .map(|e| e.anomalies_rejected)
            .sum::<u64>(),
        report.anomalies_rejected
    );
    // The ring banked a checkpoint per epoch plus the initial snapshot.
    assert!(!t.checkpoint_ring().is_empty());
}

#[test]
fn guarded_corrupted_runs_are_seed_deterministic() {
    let mk = || {
        let train = data(48, 5);
        let test = data(16, 6);
        let mut t = build(2, 2, corruption_everywhere(2, 0.3), true, &train);
        t.enable_trace();
        let r = t.run(&test);
        let csv = t.trace().unwrap().to_csv();
        (r, csv)
    };
    let (a, csv_a): (AsyncReport, String) = mk();
    let (b, csv_b) = mk();
    assert_eq!(csv_a, csv_b, "identical seeds must reproduce the trace");
    assert_eq!(a.corrupted_payloads, b.corrupted_payloads);
    assert_eq!(a.final_accuracy, b.final_accuracy);
    assert_eq!(a.sim_seconds, b.sim_seconds);
}
