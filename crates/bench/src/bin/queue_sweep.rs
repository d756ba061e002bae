//! **E4** — queueing, staleness and parameter scheduling under
//! geo-distributed latency (paper §II).
//!
//! The paper argues the server "requires queue" and that "parameter
//! scheduling is required" because far-away end-systems arrive late and
//! bias learning. This experiment measures that: for increasing latency
//! spread across end-systems it reports queue depth, queueing delay,
//! per-client service imbalance and final accuracy under three scheduling
//! policies (FIFO, round-robin, staleness-drop).
//!
//! ```text
//! cargo run -p stsl-bench --release --bin queue_sweep
//! cargo run -p stsl-bench --release --bin queue_sweep -- --quick
//! ```

use serde::Serialize;
use stsl_bench::{load_data, render_table, write_results, Args};
use stsl_simnet::{SimDuration, StarTopology};
use stsl_split::{
    AsyncSplitTrainer, CnnArch, ComputeModel, CutPoint, RetryPolicy, SchedulingPolicy, SplitConfig,
};

#[derive(Serialize)]
struct Row {
    policy: String,
    latency_spread_ms: f64,
    sim_seconds: f64,
    mean_queue_depth: f64,
    max_queue_depth: usize,
    mean_queue_wait_ms: f64,
    service_imbalance: f64,
    scheduler_drops: u64,
    served_per_client: Vec<u64>,
    accuracy: f32,
}

#[derive(Serialize)]
struct QueueSweep {
    data_source: String,
    end_systems: usize,
    rows: Vec<Row>,
}

fn main() {
    let args = Args::parse();
    let quick = args.get_flag("quick");
    let (arch, side, train_n, budget_s) = if quick {
        (CnnArch::tiny(), 16, 240, args.get_f32("budget", 2.0) as f64)
    } else {
        (
            CnnArch::tiny(),
            16,
            args.get_usize("samples", 1_000),
            args.get_f32("budget", 20.0) as f64,
        )
    };
    let clients = args.get_usize("clients", 4);
    let seed = args.get_u64("seed", 21);
    let spreads: Vec<f64> = if quick {
        vec![1.0, 100.0]
    } else {
        vec![1.0, 25.0, 50.0, 100.0, 200.0]
    };

    let difficulty = args.get_f32("difficulty", 0.12);
    let (train, test, source) = load_data(train_n, 200, side, seed, difficulty);
    println!(
        "E4 queue/scheduling sweep — {} data, {} end-systems, fixed {:.0} s simulated budget per run",
        source, clients, budget_s
    );

    // Server is made deliberately slow relative to client compute so a
    // queue actually forms (the regime §II describes).
    let compute = ComputeModel {
        client_batch: SimDuration::from_millis(4),
        server_batch: SimDuration::from_millis(12),
    };
    let policies = [
        SchedulingPolicy::Fifo,
        SchedulingPolicy::RoundRobin,
        SchedulingPolicy::StalenessDrop {
            max_age: SimDuration::from_millis(150),
        },
    ];

    let mut rows = Vec::new();
    for &spread in &spreads {
        // Latency gradient: nearest end-system 1 ms, farthest `spread` ms.
        let topology = StarTopology::latency_gradient(clients, 1.0, spread.max(1.0), 100.0);
        for policy in policies {
            // Many epochs: the fixed simulated-time budget terminates the
            // run, so per-client service counts reflect service *rates*
            // (the §II bias), not shard sizes.
            let cfg = SplitConfig::new(CutPoint(1), clients)
                .arch(arch.clone())
                .epochs(10_000)
                .batch_size(16)
                .seed(seed);
            let mut trainer =
                AsyncSplitTrainer::new(cfg, &train, topology.clone(), policy, compute)
                    .expect("valid config")
                    .with_retry_policy(RetryPolicy::from_timeout(SimDuration::from_millis(400)));
            let r = trainer.run_with_budget(&test, Some(SimDuration::from_secs_f64(budget_s)));
            println!(
                "  spread {:>5.0} ms  {:<22} depth {:.1} (max {:>2})  wait {:>7.1} ms  imbalance {:.3}  drops {}  acc {:.1}%",
                spread,
                r.policy,
                r.mean_queue_depth,
                r.max_queue_depth,
                r.mean_queue_wait_ms,
                r.service_imbalance,
                r.scheduler_drops,
                r.final_accuracy * 100.0
            );
            rows.push(Row {
                policy: r.policy.clone(),
                latency_spread_ms: spread,
                sim_seconds: r.sim_seconds,
                mean_queue_depth: r.mean_queue_depth,
                max_queue_depth: r.max_queue_depth,
                mean_queue_wait_ms: r.mean_queue_wait_ms,
                service_imbalance: r.service_imbalance,
                scheduler_drops: r.scheduler_drops,
                served_per_client: r.served_per_client.clone(),
                accuracy: r.final_accuracy,
            });
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.0}", r.latency_spread_ms),
                r.policy.clone(),
                format!("{:.2}", r.mean_queue_depth),
                format!("{:.1}", r.mean_queue_wait_ms),
                format!("{:.3}", r.service_imbalance),
                format!("{}", r.scheduler_drops),
                format!("{:.1}%", r.accuracy * 100.0),
            ]
        })
        .collect();
    println!(
        "\n{}",
        render_table(
            &[
                "spread (ms)",
                "policy",
                "mean depth",
                "wait (ms)",
                "imbalance",
                "drops",
                "accuracy"
            ],
            &table
        )
    );

    write_results(
        "queue",
        "queue_sweep",
        seed,
        &QueueSweep {
            data_source: source.to_string(),
            end_systems: clients,
            rows,
        },
    );
}
