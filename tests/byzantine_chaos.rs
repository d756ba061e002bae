//! Byzantine-resilience integration tests: adversarial personas vs the
//! robust-aggregation + attack-aware-guard defense stack.
//!
//! These pin the *mechanism* behind E15's headline table on a config
//! small enough for CI: poisoning degrades the undefended windowed
//! mean, the robust stack resists, persistent attackers quarantine via
//! window-verdict scoring (deferred clean-credit), the optimizer
//! cadence survives the exile (window shrink), membership churn cannot
//! launder an accrued anomaly score, and an attack-free run is exactly
//! the run where the adversarial machinery doesn't exist.

use spatio_temporal_split_learning::simnet::{
    AttackSpec, EndSystemId, FaultPlan, Link, SimDuration, SimTime, StarTopology,
};
use spatio_temporal_split_learning::split::{
    AggregationPolicy, AsyncSplitTrainer, ComputeModel, CutPoint, GuardConfig, SchedulingPolicy,
    SplitConfig,
};
use spatio_temporal_split_learning::telemetry::EventKind;

fn data(n: usize, seed: u64) -> spatio_temporal_split_learning::data::ImageDataset {
    spatio_temporal_split_learning::data::SyntheticCifar::new(seed)
        .difficulty(0.06)
        .generate_sized(n, 16)
}

/// Sign-flip persona on the first `attackers` end-systems for the whole
/// run — the E15 attack at test scale.
fn sign_flip(attackers: usize, gain: f64) -> FaultPlan {
    FaultPlan::new().adversaries(
        attackers,
        AttackSpec::SignFlip { gain },
        SimTime::ZERO,
        SimTime::from_millis(100_000_000),
    )
}

/// The bench's attack-tolerant guard tuning (DESIGN §13): blow-up
/// rescue reserved for genuine divergence, probation outlasting the
/// run, wide outlier factor so honest tails never exile.
fn attack_guard() -> GuardConfig {
    GuardConfig {
        loss_blowup: 100.0,
        probation: SimDuration::from_millis(600_000),
        outlier_factor: 8.0,
        quarantine_threshold: 4.0,
        ..GuardConfig::default()
    }
}

fn build(
    clients: usize,
    epochs: usize,
    plan: FaultPlan,
    policy: Option<AggregationPolicy>,
    guard: Option<GuardConfig>,
    train: &spatio_temporal_split_learning::data::ImageDataset,
) -> AsyncSplitTrainer {
    let cfg = SplitConfig::tiny(CutPoint(1), clients)
        .epochs(epochs)
        .batch_size(8)
        .learning_rate(0.05)
        .seed(33);
    let top = StarTopology::uniform(clients, Link::wan(5.0, 100.0));
    let mut t = AsyncSplitTrainer::new(
        cfg,
        train,
        top,
        SchedulingPolicy::Fifo,
        ComputeModel::default(),
    )
    .unwrap()
    .with_fault_plan(plan);
    if let Some(cfg) = guard {
        t = t.with_integrity_guard(cfg);
    }
    if let Some(policy) = policy {
        t = t.with_robust_aggregation(policy, clients);
    }
    t
}

/// Personas fire, are counted, are traced — and only on the end-systems
/// the plan names. Honest uplinks are untouched.
#[test]
fn adversaries_poison_only_their_own_uplinks() {
    let train = data(120, 9);
    let test = data(40, 10);
    let mut t = build(
        5,
        2,
        sign_flip(2, 4.0),
        Some(AggregationPolicy::CoordinateMedian),
        None,
        &train,
    );
    t.enable_trace();
    let r = t.run(&test);
    assert!(r.attacks_injected > 0, "personas never fired: {r:?}");
    let trace = t.trace().unwrap();
    assert_eq!(
        trace.count(EventKind::AttackInjected) as u64,
        r.attacks_injected
    );
    for honest in 2..5 {
        assert_eq!(
            trace.count_for(EventKind::AttackInjected, EndSystemId(honest)),
            0,
            "honest end-system {honest} traced as attacking"
        );
    }
}

/// The E15 headline at test scale: the same 40 % sign-flip cohort wrecks
/// the undefended windowed mean but not the robust stack. Everything is
/// seeded, so the accuracies are exact reproducible values; the margins
/// assert the *ordering* with room to spare.
#[test]
fn robust_stack_resists_where_plain_mean_degrades() {
    // One optimizer step per full window means ~5× fewer steps than
    // per-batch training, so this test needs the larger run (and the
    // windowed trainer's larger learning rate) for the clean baseline
    // to actually learn.
    let train = data(600, 9);
    let test = data(100, 10);
    let clean = build(
        5,
        6,
        FaultPlan::new(),
        Some(AggregationPolicy::Mean),
        None,
        &train,
    )
    .run(&test)
    .final_accuracy;
    let poisoned_mean = build(
        5,
        6,
        sign_flip(2, 4.0),
        Some(AggregationPolicy::Mean),
        None,
        &train,
    )
    .run(&test)
    .final_accuracy;
    // The defense's headline is the active-fleet accuracy: the exiled
    // attackers' own encoders trained against their poisoned uplinks —
    // damage no server-side policy can repair (DESIGN §13).
    let defended = build(
        5,
        6,
        sign_flip(2, 4.0),
        Some(AggregationPolicy::CoordinateMedian),
        Some(attack_guard()),
        &train,
    )
    .run(&test)
    .active_accuracy;
    assert!(
        clean - poisoned_mean > 0.10,
        "plain mean should lose >10 pts under 40% sign-flip: clean {clean} poisoned {poisoned_mean}"
    );
    assert!(
        defended - poisoned_mean > 0.05,
        "robust stack should clearly beat the undefended mean: defended {defended} mean {poisoned_mean}"
    );
}

/// A patient sign-flipper is flagged by the window statistics every
/// apply and quarantines out of the fleet. This only works because
/// clean-credit is deferred to the window verdict: with per-arrival
/// decay a persistent attacker's score converges to 2, forever under
/// the threshold of 4.
#[test]
fn persistent_attacker_quarantines_via_window_verdict() {
    let train = data(200, 9);
    let test = data(40, 10);
    let mut t = build(
        5,
        3,
        sign_flip(1, 4.0),
        Some(AggregationPolicy::CoordinateMedian),
        Some(attack_guard()),
        &train,
    );
    t.enable_trace();
    let r = t.run(&test);
    assert!(r.quarantines >= 1, "attacker never quarantined: {r:?}");
    let trace = t.trace().unwrap();
    assert!(trace.count_for(EventKind::Quarantine, EndSystemId(0)) >= 1);
    for honest in 1..5 {
        assert_eq!(
            trace.count_for(EventKind::Quarantine, EndSystemId(honest)),
            0,
            "honest end-system {honest} was exiled"
        );
    }
    // The flags that earned the exile came from the robust window.
    assert!(trace.count_for(EventKind::RobustOutlier, EndSystemId(0)) as u64 >= 4);
    // Excluding the exiled attacker's self-trashed encoder from the
    // average can only raise it: the active-fleet headline dominates
    // the whole-fleet mean.
    assert!(
        r.active_accuracy >= r.final_accuracy,
        "active {} < fleet {}",
        r.active_accuracy,
        r.final_accuracy
    );
}

/// Exiling the attacker shrinks the live window to the surviving fleet
/// (DESIGN §13), so full windows — and optimizer steps — keep coming
/// after the quarantine instead of waiting for an update that will
/// never arrive.
#[test]
fn optimizer_cadence_survives_quarantine() {
    let train = data(200, 9);
    let test = data(40, 10);
    let mut t = build(
        5,
        3,
        sign_flip(1, 4.0),
        Some(AggregationPolicy::CoordinateMedian),
        Some(attack_guard()),
        &train,
    );
    t.enable_trace();
    let r = t.run(&test);
    assert!(r.quarantines >= 1, "scenario needs a quarantine: {r:?}");
    let trace = t.trace().unwrap();
    let exile_at = trace
        .events()
        .iter()
        .find(|e| e.kind == EventKind::Quarantine)
        .expect("quarantine traced")
        .at;
    let applies_after = trace
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::RobustApply && e.at > exile_at)
        .count();
    assert!(
        applies_after >= 2,
        "window never refilled after the exile (applies after {applies_after})"
    );
}

/// A fault plan declaring zero adversaries is bitwise the same run as no
/// fault plan at all: the persona RNG streams are derived lazily, so an
/// attack-free fleet doesn't even observe that the feature exists.
#[test]
fn zero_attackers_matches_no_fault_plan_bitwise() {
    let train = data(120, 9);
    let test = data(40, 10);
    let a = build(
        4,
        2,
        FaultPlan::new(),
        Some(AggregationPolicy::TrimmedMean { trim: 0.25 }),
        Some(attack_guard()),
        &train,
    )
    .run(&test);
    let b = build(
        4,
        2,
        sign_flip(0, 4.0),
        Some(AggregationPolicy::TrimmedMean { trim: 0.25 }),
        Some(attack_guard()),
        &train,
    )
    .run(&test);
    assert_eq!(a.final_accuracy.to_bits(), b.final_accuracy.to_bits());
    // Nothing exiled ⇒ the active fleet IS the fleet.
    assert_eq!(a.active_accuracy.to_bits(), a.final_accuracy.to_bits());
    assert_eq!(a.attacks_injected, 0);
    assert_eq!(b.attacks_injected, 0);
    assert_eq!(a.robust_applies, b.robust_applies);
    assert_eq!(a.updates_trimmed, b.updates_trimmed);
    assert_eq!(a.served_per_client, b.served_per_client);
    assert_eq!(a.sim_seconds.to_bits(), b.sim_seconds.to_bits());
}

/// Regression (quarantine × membership): departing and rejoining must
/// not launder an accrued anomaly score. The attacker earns outlier
/// flags, leaves before the threshold trips, rejoins, and must be
/// exiled on its *remaining* allowance — the rejoin resyncs batches,
/// not reputations.
#[test]
fn rejoin_does_not_launder_anomaly_score() {
    let train = data(240, 9);
    let test = data(40, 10);
    // Churn window placed mid-run: late enough that the attacker has
    // accrued flags, early enough that post-rejoin windows remain.
    let plan = sign_flip(1, 4.0)
        .client_leave(EndSystemId(0), SimTime::from_millis(400))
        .client_rejoin(EndSystemId(0), SimTime::from_millis(500));
    let mut t = build(
        5,
        3,
        plan,
        Some(AggregationPolicy::CoordinateMedian),
        Some(attack_guard()),
        &train,
    );
    t.enable_trace();
    let r = t.run(&test);
    let trace = t.trace().unwrap();
    let rejoin_at = trace
        .events()
        .iter()
        .find(|e| e.kind == EventKind::ClientRejoin)
        .expect("rejoin traced")
        .at;
    let flags_before = trace
        .events()
        .iter()
        .filter(|e| {
            e.kind == EventKind::RobustOutlier && e.end_system == EndSystemId(0) && e.at < rejoin_at
        })
        .count();
    assert!(
        flags_before >= 1,
        "scenario needs pre-departure flags (got {flags_before}): {r:?}"
    );
    assert!(r.quarantines >= 1, "attacker never quarantined: {r:?}");
    let exile_at = trace
        .events()
        .iter()
        .find(|e| e.kind == EventKind::Quarantine && e.end_system == EndSystemId(0))
        .expect("attacker quarantine traced")
        .at;
    let flags_between = trace
        .events()
        .iter()
        .filter(|e| {
            e.kind == EventKind::RobustOutlier
                && e.end_system == EndSystemId(0)
                && e.at >= rejoin_at
                && e.at <= exile_at
        })
        .count();
    // Threshold is 4; with pre-departure credit intact the post-rejoin
    // allowance is strictly smaller. A laundered score would need the
    // full 4 flags again.
    assert!(
        (flags_before + flags_between) >= 4 && flags_between < 4,
        "rejoin laundered the anomaly score: {flags_before} flags before, {flags_between} after"
    );
}
