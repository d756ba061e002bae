//! **E13** — churn-resilient membership and server overload control.
//!
//! Two experiments in one binary, both written into `results/churn.json`:
//!
//! 1. **Churn sweep** — a fleet of founding members plus pre-declared
//!    dormant joiners runs a seeded churn arrival process
//!    ([`FaultPlan::churn`]) at increasing turnover. Departing
//!    end-systems have their un-acked batch rewound, rejoin from their
//!    last acked batch with server-seeded warm start, and keep
//!    contributing; final accuracy at 20 % turnover stays within a
//!    couple of points of the churn-free (turnover 0) run.
//! 2. **Overload stress** — a deliberately slow server behind a latency
//!    gradient, run once with admission control (bounded ingress queue +
//!    token buckets) and once without. Shed-off, the queue climbs to the
//!    fleet size; shed-on, depth never exceeds the configured cap and the
//!    overflow is counted as `batches_shed` instead of hiding as queue
//!    wait.
//!
//! Every value derives from simulated time, so the file is bitwise
//! identical for any `STSL_THREADS`.
//!
//! ```text
//! cargo run -p stsl-bench --release --bin churn_sweep
//! cargo run -p stsl-bench --release --bin churn_sweep -- --quick
//! ```

use serde::Serialize;
use stsl_bench::{load_data, render_table, write_results, Args};
use stsl_simnet::{FaultPlan, Link, SimDuration, StarTopology};
use stsl_split::{
    AsyncSplitTrainer, CnnArch, ComputeModel, CutPoint, DeadlineConfig, OverloadConfig,
    SchedulingPolicy, SplitConfig,
};

#[derive(Serialize)]
struct ChurnRow {
    turnover: f64,
    shed: bool,
    sim_seconds: f64,
    clients_joined: u64,
    clients_departed: u64,
    rejoins: u64,
    batches_shed: u64,
    breaker_trips: u64,
    deadline_partial_applies: u64,
    checkpoint_restores: u64,
    batches_lost: u64,
    max_queue_depth: usize,
    served_total: u64,
    accuracy: f32,
}

#[derive(Serialize)]
struct OverloadRow {
    shed: bool,
    queue_capacity: usize,
    max_queue_depth: usize,
    batches_shed: u64,
    batches_lost: u64,
    served_total: u64,
    sim_seconds: f64,
    accuracy: f32,
    /// Every 8th ingress-queue depth sample, oldest first — shed-off this
    /// profile climbs toward the fleet size; shed-on it plateaus at the
    /// cap.
    depth_profile: Vec<usize>,
}

#[derive(Serialize)]
struct ChurnSweep {
    data_source: String,
    founding_members: usize,
    joiners: usize,
    turnovers: Vec<f64>,
    horizon_ms: u64,
    /// Accuracy of the turnover-0 shed-on run: the churn-free baseline
    /// the churn rows are compared against.
    baseline_accuracy: f32,
    rows: Vec<ChurnRow>,
    overload: Vec<OverloadRow>,
}

#[allow(clippy::too_many_arguments)]
fn run_churn(
    turnover: f64,
    shed: bool,
    members: usize,
    joiners: usize,
    horizon_ms: u64,
    epochs: usize,
    seed: u64,
    train: &stsl_data::ImageDataset,
    test: &stsl_data::ImageDataset,
) -> ChurnRow {
    let fleet = members + joiners;
    let topology = StarTopology::new(
        (0..fleet)
            .map(|i| Link::wan(3.0 + 2.0 * i as f64, 100.0))
            .collect(),
    );
    let plan = FaultPlan::churn(
        members,
        joiners,
        SimDuration::from_millis(horizon_ms),
        seed ^ 0xC4A2,
        turnover,
    );
    let cfg = SplitConfig::new(CutPoint(1), fleet)
        .arch(CnnArch::tiny())
        .epochs(epochs)
        .batch_size(8)
        .seed(seed);
    let mut trainer = AsyncSplitTrainer::new(
        cfg,
        train,
        topology,
        SchedulingPolicy::Fifo,
        ComputeModel::default(),
    )
    .expect("valid config")
    .with_fault_plan(plan)
    .with_auto_checkpoint(SimDuration::from_millis(50))
    .with_round_deadlines(DeadlineConfig::default());
    if shed {
        trainer = trainer.with_overload_control(OverloadConfig::default());
    }
    let r = trainer.run(test);
    ChurnRow {
        turnover,
        shed,
        sim_seconds: r.sim_seconds,
        clients_joined: r.clients_joined,
        clients_departed: r.clients_departed,
        rejoins: r.rejoins,
        batches_shed: r.batches_shed,
        breaker_trips: r.breaker_trips,
        deadline_partial_applies: r.deadline_partial_applies,
        checkpoint_restores: r.checkpoint_restores,
        batches_lost: r.batches_lost,
        max_queue_depth: r.max_queue_depth,
        served_total: r.served_per_client.iter().sum(),
        accuracy: r.final_accuracy,
    }
}

fn run_overload(
    shed: bool,
    clients: usize,
    epochs: usize,
    seed: u64,
    train: &stsl_data::ImageDataset,
    test: &stsl_data::ImageDataset,
) -> OverloadRow {
    // Staggered arrivals plus a server an order of magnitude slower than
    // the clients: the ingress queue is the bottleneck by construction.
    let topology = StarTopology::latency_gradient(clients, 1.0, 60.0, 100.0);
    let compute = ComputeModel {
        client_batch: SimDuration::from_millis(2),
        server_batch: SimDuration::from_millis(40),
    };
    let overload = OverloadConfig {
        queue_capacity: 2,
        ..OverloadConfig::default()
    };
    let cfg = SplitConfig::new(CutPoint(1), clients)
        .arch(CnnArch::tiny())
        .epochs(epochs)
        .batch_size(8)
        .seed(seed);
    let mut trainer = AsyncSplitTrainer::new(cfg, train, topology, SchedulingPolicy::Fifo, compute)
        .expect("valid config");
    if shed {
        trainer = trainer.with_overload_control(overload);
    }
    let r = trainer.run(test);
    let depth_profile: Vec<usize> = trainer
        .queue_depth_samples()
        .iter()
        .step_by(8)
        .copied()
        .collect();
    OverloadRow {
        shed,
        queue_capacity: if shed { overload.queue_capacity } else { 0 },
        max_queue_depth: r.max_queue_depth,
        batches_shed: r.batches_shed,
        batches_lost: r.batches_lost,
        served_total: r.served_per_client.iter().sum(),
        sim_seconds: r.sim_seconds,
        accuracy: r.final_accuracy,
        depth_profile,
    }
}

fn main() {
    let args = Args::parse();
    let quick = args.get_flag("quick");
    let members = args.get_usize("members", 6);
    let joiners = args.get_usize("joiners", 2);
    let seed = args.get_u64("seed", 43);
    let epochs = args.get_usize("epochs", if quick { 2 } else { 4 });
    let train_n = args.get_usize("samples", if quick { 240 } else { 640 });
    let horizon_ms = args.get_u64("horizon-ms", if quick { 400 } else { 1600 });
    let turnovers: Vec<f64> = if quick {
        vec![0.0, 0.2]
    } else {
        vec![0.0, 0.2, 0.5]
    };

    let difficulty = args.get_f32("difficulty", 0.12);
    let (train, test, source) = load_data(train_n, 160, 16, seed, difficulty);
    println!(
        "E13 churn sweep — {} data, {} founding members + {} joiners, epochs {}, churn horizon {} ms",
        source, members, joiners, epochs, horizon_ms
    );

    let mut rows = Vec::new();
    let mut baseline_accuracy = 0.0f32;
    for &turnover in &turnovers {
        for shed in [true, false] {
            let row = run_churn(
                turnover, shed, members, joiners, horizon_ms, epochs, seed, &train, &test,
            );
            println!(
                "  turnover {:>4.0}%  shed {:>3}  joined {}  departed {}  rejoined {}  shed_batches {:>3}  restores {:>2}  lost {:>3}  acc {:.1}%",
                turnover * 100.0,
                if shed { "on" } else { "off" },
                row.clients_joined,
                row.clients_departed,
                row.rejoins,
                row.batches_shed,
                row.checkpoint_restores,
                row.batches_lost,
                row.accuracy * 100.0
            );
            if turnover == 0.0 && shed {
                baseline_accuracy = row.accuracy;
            }
            rows.push(row);
        }
    }

    println!("\noverload stress — slow server, bounded ingress on/off");
    let mut overload_rows = Vec::new();
    for shed in [true, false] {
        let row = run_overload(shed, members, epochs.min(2), seed, &train, &test);
        println!(
            "  shed {:>3}  cap {}  max depth {}  shed_batches {:>3}  served {:>3}  acc {:.1}%",
            if shed { "on" } else { "off" },
            row.queue_capacity,
            row.max_queue_depth,
            row.batches_shed,
            row.served_total,
            row.accuracy * 100.0
        );
        overload_rows.push(row);
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.0}%", r.turnover * 100.0),
                (if r.shed { "on" } else { "off" }).to_string(),
                format!("{}", r.clients_joined),
                format!("{}", r.clients_departed),
                format!("{}", r.rejoins),
                format!("{}", r.batches_shed),
                format!("{}", r.deadline_partial_applies),
                format!("{}", r.batches_lost),
                format!("{:+.1}", (r.accuracy - baseline_accuracy) * 100.0),
                format!("{:.1}%", r.accuracy * 100.0),
            ]
        })
        .collect();
    println!(
        "\n{}",
        render_table(
            &[
                "turnover",
                "shed",
                "joined",
                "departed",
                "rejoined",
                "shed batches",
                "partial applies",
                "lost",
                "Δacc (pts)",
                "accuracy"
            ],
            &table
        )
    );

    let sweep = ChurnSweep {
        data_source: source.to_string(),
        founding_members: members,
        joiners,
        turnovers,
        horizon_ms,
        baseline_accuracy,
        rows,
        overload: overload_rows,
    };
    write_results("churn", "churn_sweep", seed, &sweep);
}
