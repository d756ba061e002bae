//! Golden-output regression for the asynchronous trainer.
//!
//! Small runs, with the integrity guard and without (the two take
//! different decode paths for a garbled frame), must reproduce byte for
//! byte the trace CSV and report JSON stored under `tests/fixtures/`.
//! Between them the runs reach every event the trainer handles: lossy
//! and corrupting links, a crash window with auto-checkpoint, a server
//! stall, a loss surge that trips a circuit breaker under overload
//! control (so sends in both directions are deferred and probed), churn
//! joins/leaves/rejoins, round deadlines, an adversary against robust
//! aggregation, telemetry snapshots, and a divergence the watchdog rolls
//! back.
//!
//! A change to the trainer that keeps these bytes keeps its behaviour.
//! The backend is pinned because the blocked and reference kernels may
//! differ in the last bit.

use spatio_temporal_split_learning::data::{ImageDataset, SyntheticCifar};
use spatio_temporal_split_learning::simnet::{
    AttackSpec, EndSystemId, FaultPlan, Link, SimDuration, SimTime, StarTopology,
};
use spatio_temporal_split_learning::split::{
    AggregationPolicy, AsyncSplitTrainer, ComputeModel, CutPoint, DeadlineConfig, GuardConfig,
    OverloadConfig, RetryPolicy, SchedulingPolicy, SplitConfig,
};
use spatio_temporal_split_learning::telemetry::EventKind;
use spatio_temporal_split_learning::tensor::{with_backend, Backend};

const GUARDED_CSV: &str = include_str!("fixtures/async_golden_guarded.csv");
const GUARDED_JSON: &str = include_str!("fixtures/async_golden_guarded.json");
const UNGUARDED_CSV: &str = include_str!("fixtures/async_golden_unguarded.csv");
const UNGUARDED_JSON: &str = include_str!("fixtures/async_golden_unguarded.json");
const DIVERGING_CSV: &str = include_str!("fixtures/async_golden_diverging.csv");
const DIVERGING_JSON: &str = include_str!("fixtures/async_golden_diverging.json");

fn ms(v: u64) -> SimTime {
    SimTime::from_millis(v)
}

fn data(n: usize, seed: u64) -> ImageDataset {
    SyntheticCifar::new(seed)
        .difficulty(0.05)
        .generate_sized(n, 16)
}

/// What one run exports, plus its per-kind event counts.
struct Golden {
    csv: String,
    json: String,
    counts: Vec<u64>,
}

fn export(mut trainer: AsyncSplitTrainer, test: &ImageDataset) -> Golden {
    trainer.enable_trace();
    let report = trainer.run(test);
    Golden {
        csv: trainer.trace().expect("trace enabled").to_csv(),
        json: serde_json::to_string(&report).expect("reports serialize"),
        counts: EventKind::ALL
            .iter()
            .map(|&k| trainer.event_log().count(k))
            .collect(),
    }
}

/// Guard on: CRC-checked frames, ingress validation and quarantine,
/// with overload control, churn, a crash window, a server stall, an
/// adversary under robust aggregation, round deadlines and telemetry.
fn guarded() -> Golden {
    let n = 6;
    let train = data(n * 48, 1);
    let test = data(24, 2);
    let links = (0..n)
        .map(|i| Link::wan(4.0 + 6.0 * i as f64, 100.0).loss(0.04))
        .collect();
    let plan = FaultPlan::new()
        .payload_corruption_all(n, 0.08, SimTime::ZERO, ms(1_000_000))
        .client_crash(EndSystemId(1), ms(40), ms(220))
        .server_stall(ms(60), ms(110))
        .loss_surge(EndSystemId(2), 0.97, ms(100), ms(700))
        .client_join(EndSystemId(5), ms(80))
        .client_leave(EndSystemId(4), ms(150))
        .client_rejoin(EndSystemId(4), ms(320))
        .adversary(
            EndSystemId(3),
            AttackSpec::Scale { factor: 4_000.0 },
            ms(30),
            ms(260),
        )
        .adversary(
            EndSystemId(0),
            AttackSpec::SignFlip { gain: 4.0 },
            SimTime::ZERO,
            ms(1_000_000),
        );
    let cfg = SplitConfig::tiny(CutPoint(1), n)
        .epochs(2)
        .batch_size(8)
        .seed(11);
    let trainer = AsyncSplitTrainer::new(
        cfg,
        &train,
        StarTopology::new(links),
        SchedulingPolicy::RoundRobin,
        ComputeModel::default(),
    )
    .unwrap()
    .with_fault_plan(plan)
    .with_retry_policy(RetryPolicy {
        base_backoff: SimDuration::from_millis(10),
        max_backoff: SimDuration::from_millis(40),
        jitter_frac: 0.1,
        max_attempts: 6,
    })
    .with_auto_checkpoint(SimDuration::from_millis(30))
    .with_integrity_guard(GuardConfig {
        probation: SimDuration::from_millis(80),
        ..GuardConfig::default()
    })
    .with_robust_aggregation(AggregationPolicy::CoordinateMedian, 4)
    .with_overload_control(OverloadConfig {
        queue_capacity: 2,
        bucket_rate: 25,
        bucket_burst: 2,
        breaker_threshold: 2,
        breaker_base_open_ms: 40,
        breaker_max_open_ms: 200,
    })
    .with_round_deadlines(DeadlineConfig {
        round_ms: 60,
        min_quorum_frac: 0.5,
    })
    .with_telemetry(SimDuration::from_millis(50), 48);
    export(trainer, &test)
}

/// Guard off: garbled frames that still parse are accepted, the rest
/// are retransmitted; stale batches are dropped by the scheduler.
fn unguarded() -> Golden {
    let n = 4;
    let train = data(n * 32, 3);
    let test = data(24, 4);
    let links = (0..n)
        .map(|i| Link::wan(3.0 + 15.0 * i as f64, 100.0).loss(0.08 + 0.08 * i as f64))
        .collect();
    let plan = FaultPlan::new()
        .payload_corruption_all(n, 0.3, SimTime::ZERO, ms(1_000_000))
        .client_crash(EndSystemId(2), ms(50), ms(180))
        .server_stall(ms(90), ms(140))
        .client_leave(EndSystemId(1), ms(70))
        .client_rejoin(EndSystemId(1), ms(200));
    let cfg = SplitConfig::tiny(CutPoint(1), n)
        .epochs(2)
        .batch_size(8)
        .seed(8);
    let trainer = AsyncSplitTrainer::new(
        cfg,
        &train,
        StarTopology::new(links),
        SchedulingPolicy::StalenessDrop {
            max_age: SimDuration::from_millis(25),
        },
        ComputeModel {
            server_batch: SimDuration::from_millis(6),
            ..ComputeModel::default()
        },
    )
    .unwrap()
    .with_fault_plan(plan)
    .with_retry_policy(RetryPolicy {
        base_backoff: SimDuration::from_millis(8),
        max_backoff: SimDuration::from_millis(30),
        jitter_frac: 0.1,
        max_attempts: 2,
    })
    .with_auto_checkpoint(SimDuration::from_millis(40))
    .with_round_deadlines(DeadlineConfig {
        round_ms: 45,
        min_quorum_frac: 0.5,
    })
    .with_telemetry(SimDuration::from_millis(60), 32);
    export(trainer, &test)
}

/// Guard on with an absurd learning rate: training diverges, so the
/// health watchdog rolls the deployment back through the checkpoint
/// ring.
fn diverging() -> Golden {
    let train = data(48, 5);
    let test = data(16, 6);
    let cfg = SplitConfig::tiny(CutPoint(1), 2)
        .epochs(3)
        .batch_size(8)
        .learning_rate(50.0)
        .seed(21);
    let trainer = AsyncSplitTrainer::new(
        cfg,
        &train,
        StarTopology::uniform(2, Link::wan(5.0, 100.0)),
        SchedulingPolicy::Fifo,
        ComputeModel::default(),
    )
    .unwrap()
    .with_auto_checkpoint(SimDuration::from_millis(50))
    .with_integrity_guard(GuardConfig {
        warmup_steps: 2,
        ..GuardConfig::default()
    });
    export(trainer, &test)
}

/// Asserts `actual == fixture`, naming the first differing line.
fn assert_same(name: &str, actual: &str, fixture: &str) {
    if actual == fixture {
        return;
    }
    let line = actual
        .lines()
        .zip(fixture.lines())
        .position(|(a, f)| a != f)
        .unwrap_or_else(|| actual.lines().count().min(fixture.lines().count()));
    panic!(
        "{name} differs from its fixture at line {}: got {:?}, fixture {:?} \
         ({} vs {} lines)",
        line + 1,
        actual.lines().nth(line),
        fixture.lines().nth(line),
        actual.lines().count(),
        fixture.lines().count()
    );
}

#[test]
fn async_runs_match_golden_fixtures() {
    let runs = with_backend(Backend::Blocked, || [guarded(), unguarded(), diverging()]);
    let fixtures = [
        ("guarded", GUARDED_CSV, GUARDED_JSON),
        ("unguarded", UNGUARDED_CSV, UNGUARDED_JSON),
        ("diverging", DIVERGING_CSV, DIVERGING_JSON),
    ];
    for (run, (name, csv, json)) in runs.iter().zip(fixtures) {
        assert_same(&format!("{name} trace"), &run.csv, csv);
        assert_same(&format!("{name} report"), &run.json, json.trim_end());
    }
    // Every kind the trainer records fires in at least one run, so the
    // fixtures pin each event handler, not just the common path. Cohort
    // steps belong to the fleet.
    for kind in EventKind::ALL {
        if kind == EventKind::CohortStep {
            continue;
        }
        assert!(
            runs.iter().any(|r| r.counts[kind.index()] > 0),
            "{kind:?} never fires in a golden run"
        );
    }
}
