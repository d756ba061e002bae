//! **E15** — Byzantine poisoning sweep: final accuracy vs attacker
//! fraction per robust-aggregation policy.
//!
//! A fleet of end-systems trains asynchronously while the first
//! `round(fraction * fleet)` of them run an adversarial persona
//! ([`FaultPlan::adversaries`]) for the whole run. Every policy sees the
//! *identical* attack schedule and RNG streams at each fraction (same
//! seed, same cohort), so the columns of the resulting table differ only
//! in how the server combines its gradient window before stepping.
//!
//! The acceptance profile this file defends (checked by
//! `byzantine_chaos`): at 30 % sign-flip attackers, plain windowed mean
//! loses double-digit accuracy points against the attack-free baseline
//! while at least one robust policy stays within a few points of it.
//! Accuracy is scored over the *active* (non-exiled) fleet: an exiled
//! attacker's own encoder is attacker-owned damage outside any
//! server-side defense's reach (the whole-fleet average is reported
//! alongside as `fleet_accuracy`).
//!
//! Every value derives from simulated time and seeded RNG, so the file is
//! bitwise identical for any `STSL_THREADS`.
//!
//! ```text
//! cargo run -p stsl-bench --release --bin poison_sweep
//! cargo run -p stsl-bench --release --bin poison_sweep -- --quick
//! ```

use serde::Serialize;
use stsl_bench::{load_data, render_table, write_results, Args};
use stsl_simnet::{AttackSpec, FaultPlan, Link, SimDuration, SimTime, StarTopology};
use stsl_split::{
    AggregationPolicy, AsyncSplitTrainer, CnnArch, ComputeModel, CutPoint, GuardConfig,
    OptimizerKind, SchedulingPolicy, SplitConfig,
};

#[derive(Serialize)]
struct PoisonRow {
    policy: &'static str,
    attacker_fraction: f64,
    attackers: usize,
    /// Independent trainer seeds averaged into `accuracy` (counter
    /// fields are summed across them). A single trajectory is chaotic —
    /// ±5-10 accuracy points run to run — so per-seed numbers would say
    /// more about luck than about the defense.
    seeds: usize,
    attacks_injected: u64,
    robust_applies: u64,
    robust_outliers: u64,
    updates_trimmed: u64,
    quarantines: u64,
    rollbacks: u64,
    served_total: u64,
    sim_seconds: f64,
    /// Headline metric: test accuracy over the *active* (non-exiled)
    /// fleet — what the defense actually protects. An exiled attacker's
    /// own encoder trained against its poisoned activations; no
    /// server-side policy can make that private model honest, so it is
    /// reported in `fleet_accuracy` but kept out of the headline.
    accuracy: f32,
    /// Whole-fleet encoder average (`final_accuracy`), attacker-owned
    /// encoders included. Equal to `accuracy` when nothing was exiled.
    fleet_accuracy: f32,
    /// Accuracy drop vs the same policy's attack-free run, in points
    /// (positive = worse under attack).
    degradation_pts: f32,
}

#[derive(Serialize)]
struct PoisonSweep {
    data_source: String,
    clients: usize,
    window: usize,
    attack: String,
    fractions: Vec<f64>,
    rows: Vec<PoisonRow>,
}

/// The defense stacks under comparison. Plain windowed mean is the
/// *undefended* baseline — no integrity guard, every update reaches the
/// optimizer — while each robust policy runs the full stack: robust
/// combining plus the attack-aware guard, whose statistical-outlier
/// escalation quarantines persistent attackers out of the window
/// entirely. Aggregation alone bounds per-step damage, but a coordinate
/// that lands mid-range survives coordinate-wise trimming and injects a
/// consistent bias every step; exiling the sender is what removes it.
fn defenses() -> Vec<(AggregationPolicy, bool)> {
    vec![
        (AggregationPolicy::Mean, false),
        (AggregationPolicy::CoordinateMedian, true),
        (AggregationPolicy::TrimmedMean { trim: 0.3 }, true),
        (AggregationPolicy::NormClippedMean, true),
        (
            AggregationPolicy::Krum {
                assumed_attackers: 4,
            },
            true,
        ),
    ]
}

#[allow(clippy::too_many_arguments)]
fn run_once(
    policy: AggregationPolicy,
    guard: bool,
    attackers: usize,
    clients: usize,
    window: usize,
    gain: f64,
    epochs: usize,
    batch: usize,
    lr: f32,
    adam: bool,
    seed: u64,
    train: &stsl_data::ImageDataset,
    test: &stsl_data::ImageDataset,
) -> (stsl_split::AsyncReport, &'static str) {
    // Uniform links keep arrivals round-robin, so every full window holds
    // one update per end-system and the attacker share of a window equals
    // the attacker share of the fleet — the regime the trimming depths
    // are chosen for. (A latency gradient would let the fastest senders
    // stack windows; with first-N attackers that confounds the sweep.)
    let topology = StarTopology::new((0..clients).map(|_| Link::wan(5.0, 100.0)).collect());
    // The persona is active from the first batch to the end of the run:
    // a patient insider, not a transient glitch.
    let plan = FaultPlan::new().adversaries(
        attackers,
        AttackSpec::SignFlip { gain },
        SimTime::ZERO,
        SimTime::from_millis(100_000_000),
    );
    // One optimizer step per full window means ~`window`-fold fewer (but
    // variance-reduced) updates than per-batch stepping, so the windowed
    // trainer runs a proportionally larger learning rate.
    let mut cfg = SplitConfig::new(CutPoint(1), clients)
        .arch(CnnArch::tiny())
        .epochs(epochs)
        .batch_size(batch)
        .learning_rate(lr)
        .seed(seed);
    if adam {
        cfg = cfg.optimizer(OptimizerKind::Adam);
    }
    let mut trainer = AsyncSplitTrainer::new(
        cfg,
        train,
        topology,
        SchedulingPolicy::Fifo,
        ComputeModel::default(),
    )
    .expect("valid config")
    .with_fault_plan(plan);
    if guard {
        // Attack-tolerant guard tuning: adversarial batches legitimately
        // spike per-batch loss, so the watchdog's blow-up rescue is left
        // for genuine divergence only, and probation outlasts the
        // longest run — a sender the window statistics flag as hostile
        // three times is exiled for good, not paroled to poison again.
        // A wider outlier factor and higher threshold keep honest tail
        // updates from accruing to exile (a false quarantine is
        // permanent data loss here); a sign-flip attacker is flagged in
        // *every* window it touches, so it still trips within ~4 rounds.
        trainer = trainer.with_integrity_guard(GuardConfig {
            loss_blowup: 100.0,
            probation: SimDuration::from_millis(600_000),
            outlier_factor: 8.0,
            quarantine_threshold: 4.0,
            ..GuardConfig::default()
        });
    }
    let mut trainer = trainer.with_robust_aggregation(policy, window);
    let name = policy.name();
    (trainer.run(test), name)
}

fn main() {
    let args = Args::parse();
    let quick = args.get_flag("quick");
    let clients = args.get_usize("clients", 10);
    let window = args.get_usize("window", clients);
    let seed = args.get_u64("seed", 47);
    let epochs = args.get_usize("epochs", if quick { 2 } else { 12 });
    let batch = args.get_usize("batch", if quick { 8 } else { 32 });
    let train_n = args.get_usize("samples", if quick { 240 } else { 3200 });
    let gain = args.get_f32("gain", if quick { 3.0 } else { 5.0 }) as f64;
    let adam = args.get_flag("adam");
    let lr = args.get_f32("lr", if adam { 0.005 } else { 0.05 });
    let fractions: Vec<f64> = if quick {
        vec![0.0, 0.3]
    } else {
        vec![0.0, 0.1, 0.2, 0.3, 0.4]
    };

    let seeds_n = args.get_usize("seeds", if quick { 1 } else { 3 });
    let difficulty = args.get_f32("difficulty", if quick { 0.12 } else { 0.06 });
    let (train, test, source) = load_data(train_n, 160, 16, seed, difficulty);
    println!(
        "E15 poison sweep — {} data, {} end-systems, sign-flip gain {}, window {}, epochs {}, {} seed(s)/row",
        source, clients, gain, window, epochs, seeds_n
    );

    // `--policy <name>` restricts the sweep to matching defense stacks
    // (substring match on the policy label) for fast iteration on one
    // column of the table.
    let policy_filter = args.get_str("policy", "");

    let mut rows: Vec<PoisonRow> = Vec::new();
    for (policy, guard) in defenses() {
        if !policy_filter.is_empty() && !policy.name().contains(policy_filter.as_str()) {
            continue;
        }
        let mut baseline = 0.0f32;
        for &fraction in &fractions {
            let attackers = (fraction * clients as f64).round() as usize;
            let mut acc_sum = 0.0f64;
            let mut fleet_sum = 0.0f64;
            let mut name = "";
            let mut injected = 0u64;
            let mut applies = 0u64;
            let mut outliers = 0u64;
            let mut trimmed = 0u64;
            let mut quarantines = 0u64;
            let mut rollbacks = 0u64;
            let mut served = 0u64;
            let mut sim_seconds = 0.0f64;
            for k in 0..seeds_n {
                let (r, n) = run_once(
                    policy,
                    guard,
                    attackers,
                    clients,
                    window,
                    gain,
                    epochs,
                    batch,
                    lr,
                    adam,
                    seed + 1000 * k as u64,
                    &train,
                    &test,
                );
                name = n;
                if seeds_n > 1 {
                    println!(
                        "    [seed {}] {:>13} attackers {:>2}  active {:>5.1}%  fleet {:>5.1}%  quarantines {}  rollbacks {}",
                        seed + 1000 * k as u64,
                        n,
                        attackers,
                        r.active_accuracy * 100.0,
                        r.final_accuracy * 100.0,
                        r.quarantines,
                        r.rollbacks,
                    );
                }
                acc_sum += r.active_accuracy as f64;
                fleet_sum += r.final_accuracy as f64;
                injected += r.attacks_injected;
                applies += r.robust_applies;
                outliers += r.robust_outliers;
                trimmed += r.updates_trimmed;
                quarantines += r.quarantines;
                rollbacks += r.rollbacks;
                served += r.served_per_client.iter().sum::<u64>();
                sim_seconds += r.sim_seconds;
            }
            let accuracy = (acc_sum / seeds_n as f64) as f32;
            let fleet_accuracy = (fleet_sum / seeds_n as f64) as f32;
            if fraction == 0.0 {
                baseline = accuracy;
            }
            let row = PoisonRow {
                policy: name,
                attacker_fraction: fraction,
                attackers,
                seeds: seeds_n,
                attacks_injected: injected,
                robust_applies: applies,
                robust_outliers: outliers,
                updates_trimmed: trimmed,
                quarantines,
                rollbacks,
                served_total: served,
                sim_seconds,
                accuracy,
                fleet_accuracy,
                degradation_pts: (baseline - accuracy) * 100.0,
            };
            println!(
                "  {:>13}  attackers {:>2}/{:<2}  injected {:>4}  applies {:>3}  outliers {:>3}  trimmed {:>4}  quarantines {:>3}  active {:>5.1}%  fleet {:>5.1}%  Δ {:+.1} pts",
                row.policy,
                row.attackers,
                clients,
                row.attacks_injected,
                row.robust_applies,
                row.robust_outliers,
                row.updates_trimmed,
                row.quarantines,
                row.accuracy * 100.0,
                row.fleet_accuracy * 100.0,
                -row.degradation_pts,
            );
            rows.push(row);
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.to_string(),
                format!("{:.0}%", r.attacker_fraction * 100.0),
                format!("{}", r.attacks_injected),
                format!("{}", r.robust_outliers),
                format!("{}", r.updates_trimmed),
                format!("{}", r.quarantines),
                format!("{:.1}%", r.accuracy * 100.0),
                format!("{:.1}%", r.fleet_accuracy * 100.0),
                format!("{:+.1}", -r.degradation_pts),
            ]
        })
        .collect();
    println!(
        "\n{}",
        render_table(
            &[
                "policy",
                "attackers",
                "injected",
                "outliers",
                "trimmed",
                "quarantines",
                "active acc",
                "fleet acc",
                "Δ vs clean (pts)"
            ],
            &table
        )
    );

    let sweep = PoisonSweep {
        data_source: source.to_string(),
        clients,
        window,
        attack: format!("sign_flip(gain={gain})"),
        fractions,
        rows,
    };
    write_results("poison", "poison_sweep", seed, &sweep);
}
