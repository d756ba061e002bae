//! Chaos integration test: the asynchronous trainer under a fault plan
//! combining client crashes, a loss surge, a latency spike, a link outage
//! and a server stall — on top of a 10 % lossy link.
//!
//! The run must complete without panicking, keep its robustness counters
//! consistent, recover the crashed client from an auto-checkpoint, and be
//! bit-identical across runs with the same seed.

use spatio_temporal_split_learning::data::SyntheticCifar;
use spatio_temporal_split_learning::simnet::{
    EndSystemId, FaultPlan, Link, SimDuration, SimTime, StarTopology,
};
use spatio_temporal_split_learning::split::{
    AsyncReport, AsyncSplitTrainer, ComputeModel, CutPoint, RetryPolicy, SchedulingPolicy,
    SplitConfig,
};
use spatio_temporal_split_learning::telemetry::EventKind;

fn data(n: usize, seed: u64) -> spatio_temporal_split_learning::data::ImageDataset {
    SyntheticCifar::new(seed)
        .difficulty(0.08)
        .generate_sized(n, 16)
}

fn ms(x: u64) -> SimTime {
    SimTime::from_millis(x)
}

/// Three clients, client 0 on a 10 % lossy link, and a plan with every
/// fault kind. Returns the report plus the trace CSV.
fn chaos_run(seed: u64) -> (AsyncReport, String) {
    let train = data(144, 1);
    let test = data(24, 2);
    let topology = StarTopology::new(vec![
        Link::wan(5.0, 100.0).loss(0.10),
        Link::wan(20.0, 100.0),
        Link::wan(40.0, 100.0),
    ]);
    let plan = FaultPlan::new()
        .client_crash(EndSystemId(1), ms(60), ms(400))
        .loss_surge(EndSystemId(2), 0.4, ms(0), ms(300))
        .latency_spike(EndSystemId(0), 50.0, 20.0, ms(100), ms(500))
        .link_outage(EndSystemId(2), ms(500), ms(600))
        .server_stall(ms(200), ms(280));
    let cfg = SplitConfig::tiny(CutPoint(1), 3)
        .epochs(3)
        .batch_size(16)
        .seed(seed);
    let mut t = AsyncSplitTrainer::new(
        cfg,
        &train,
        topology,
        SchedulingPolicy::Fifo,
        ComputeModel::default(),
    )
    .expect("valid config")
    .with_fault_plan(plan)
    .with_retry_policy(RetryPolicy::default())
    .with_auto_checkpoint(SimDuration::from_millis(50))
    .with_liveness_timeout(SimDuration::from_millis(200));
    t.enable_trace();
    let report = t.run(&test);
    assert!(t.last_checkpoint().is_some(), "auto-checkpoints were taken");
    let csv = t.trace().expect("trace enabled").to_csv();
    let trace = t.trace().unwrap();
    // Crash recovery went through the checkpoint-restore path.
    assert_eq!(trace.count(EventKind::ClientCrash), 1);
    assert_eq!(trace.count(EventKind::ClientRecover), 1);
    assert_eq!(trace.count(EventKind::CheckpointRestore), 1);
    assert!(trace.count(EventKind::CheckpointSave) > 0);
    assert_eq!(
        trace.count(EventKind::Retransmit) as u64,
        report.retransmits
    );
    assert_eq!(
        trace.count(EventKind::NetworkDrop) as u64,
        report.network_drops
    );
    (report, csv)
}

#[test]
fn chaos_run_completes_with_consistent_counters() {
    let (r, _) = chaos_run(11);
    // The network was genuinely hostile...
    assert!(r.network_drops > 0, "expected losses: {:?}", r);
    assert!(r.retransmits > 0, "expected retransmissions: {:?}", r);
    // ...every drop was either retried or gave up its batch...
    assert_eq!(r.retransmits + r.retry_exhausted, r.network_drops);
    // ...the crash happened and recovered via checkpoint restore...
    assert_eq!(r.crash_events, 1);
    assert_eq!(r.recovery_events, 1);
    assert_eq!(r.checkpoint_restores, 1);
    assert!(r.checkpoint_saves > 0);
    assert!(
        (r.downtime_ms_per_client[1] - 340.0).abs() < 1.0,
        "crash window is 60..400 ms: {:?}",
        r.downtime_ms_per_client
    );
    // ...lost work is bounded and accounted per client...
    assert_eq!(
        r.batches_lost,
        r.batches_lost_per_client.iter().sum::<u64>()
    );
    // ...and every client still made progress through all three epochs
    // (9 batches each minus what was genuinely lost).
    let expected: u64 = 9 * 3 - r.batches_lost - r.scheduler_drops;
    assert_eq!(r.served_per_client.iter().sum::<u64>(), expected);
    for (i, &served) in r.served_per_client.iter().enumerate() {
        assert!(
            served > 0,
            "client {} starved: {:?}",
            i,
            r.served_per_client
        );
    }
    assert!(r.final_accuracy > 0.0);
}

#[test]
fn chaos_run_is_bit_identical_across_identical_seeds() {
    let (a, csv_a) = chaos_run(11);
    let (b, csv_b) = chaos_run(11);
    assert_eq!(csv_a, csv_b, "identical seeds must reproduce the trace");
    assert_eq!(a.sim_seconds, b.sim_seconds);
    assert_eq!(a.served_per_client, b.served_per_client);
    assert_eq!(a.retransmits, b.retransmits);
    assert_eq!(a.batches_lost_per_client, b.batches_lost_per_client);
    assert_eq!(a.downtime_ms_per_client, b.downtime_ms_per_client);
    assert_eq!(a.final_accuracy, b.final_accuracy);
    assert_eq!(a.comm, b.comm);
}

#[test]
fn different_seeds_change_the_fault_free_details_but_not_safety() {
    let (a, csv_a) = chaos_run(11);
    let (b, csv_b) = chaos_run(12);
    assert_ne!(csv_a, csv_b, "different seeds should differ somewhere");
    for r in [&a, &b] {
        assert_eq!(r.retransmits + r.retry_exhausted, r.network_drops);
        assert_eq!(r.crash_events, r.recovery_events);
    }
}
