//! **E12** — deterministic observability: latency/staleness/queue-depth
//! distributions, the event journal, and the live dashboard.
//!
//! Runs the asynchronous trainer over a latency-gradient star topology
//! with the telemetry hub attached, prints the final dashboard snapshot,
//! and writes `results/telemetry.json`: per-end-system p50/p90/p99
//! uplink/downlink latency, gradient staleness and service-time
//! histograms plus the sim-time-stamped event journal.
//!
//! The output is part of the determinism contract: every value derives
//! from simulated time, so the file is bitwise identical for any
//! `STSL_THREADS` (CI diffs the bytes across thread counts). The results
//! envelope therefore omits the thread count.
//!
//! ```text
//! cargo run -p stsl-bench --release --bin telemetry_report
//! cargo run -p stsl-bench --release --bin telemetry_report -- --quick
//! ```

use stsl_bench::{load_data, render_table, write_results_deterministic, Args};
use stsl_simnet::{SimDuration, StarTopology};
use stsl_split::{
    AsyncSplitTrainer, CnnArch, ComputeModel, CutPoint, RetryPolicy, SchedulingPolicy, SplitConfig,
};
use stsl_telemetry::{render_dashboard, MetricId};

fn main() {
    let args = Args::parse();
    let quick = args.get_flag("quick");
    let (train_n, budget_s) = if quick {
        (240, args.get_f32("budget", 2.0) as f64)
    } else {
        (
            args.get_usize("samples", 1_000),
            args.get_f32("budget", 15.0) as f64,
        )
    };
    let clients = args.get_usize("clients", 4);
    let seed = args.get_u64("seed", 51);
    let snapshot_ms = args.get_u64("snapshot-ms", 250);
    let journal_cap = args.get_usize("journal-cap", 4096);

    let difficulty = args.get_f32("difficulty", 0.12);
    let (train, test, source) = load_data(train_n, 160, 16, seed, difficulty);
    println!(
        "E12 telemetry report — {} data, {} end-systems, {:.0} s simulated budget, snapshot every {} ms",
        source, clients, budget_s, snapshot_ms
    );

    // Latency gradient (1..120 ms) so the per-end-system latency and
    // staleness distributions actually differ; slow server so a queue
    // forms and queue-depth has something to show.
    let topology = StarTopology::latency_gradient(clients, 1.0, 120.0, 100.0);
    let compute = ComputeModel {
        client_batch: SimDuration::from_millis(4),
        server_batch: SimDuration::from_millis(10),
    };
    let cfg = SplitConfig::new(CutPoint(1), clients)
        .arch(CnnArch::tiny())
        .epochs(10_000)
        .batch_size(16)
        .seed(seed);
    let mut trainer =
        AsyncSplitTrainer::new(cfg, &train, topology, SchedulingPolicy::Fifo, compute)
            .expect("valid config")
            .with_retry_policy(RetryPolicy::from_timeout(SimDuration::from_millis(400)))
            .with_telemetry(SimDuration::from_millis(snapshot_ms), journal_cap);
    trainer.enable_trace();

    let r = trainer.run_with_budget(&test, Some(SimDuration::from_secs_f64(budget_s)));
    let hub = trainer.telemetry().expect("telemetry enabled");

    println!();
    match hub.latest_snapshot() {
        Some(snap) => println!("{}", render_dashboard(snap)),
        None => println!("(no snapshot emitted)"),
    }

    // Per-end-system latency/staleness summary table.
    let mut rows = Vec::new();
    for actor in 0..clients as u64 {
        let cell = |metric: MetricId| match hub.registry().histogram(metric, actor) {
            Some(h) => format!("{}/{}/{}", h.p50(), h.p90(), h.p99()),
            None => "-".to_string(),
        };
        rows.push(vec![
            format!("{}", actor),
            cell(MetricId::UplinkLatency),
            cell(MetricId::DownlinkLatency),
            cell(MetricId::GradientStaleness),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "end-system",
                "uplink p50/p90/p99 (us)",
                "downlink p50/p90/p99 (us)",
                "staleness p50/p90/p99 (us)"
            ],
            &rows
        )
    );
    println!(
        "snapshots {}  journal events {} (evicted {})  served {:?}",
        r.snapshots_emitted,
        hub.journal_log().len(),
        r.journal_dropped,
        r.served_per_client
    );

    // Hand-rendered payload: every value is simulated-time-derived, so
    // the bytes must not depend on the thread count.
    let data_json = format!(
        "{{\"data_source\":\"{}\",\"end_systems\":{},\"policy\":\"{}\",\"sim_seconds\":{},\"snapshots_emitted\":{},\"journal_dropped\":{},\"telemetry\":{}}}",
        source,
        clients,
        r.policy,
        r.sim_seconds,
        r.snapshots_emitted,
        r.journal_dropped,
        hub.export_json()
    );
    write_results_deterministic("telemetry", "telemetry_report", seed, &data_json);
}
