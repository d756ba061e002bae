//! **E16** — fleet-scale simulation: 1k–100k+ end-systems through the
//! calendar event queue and cohort-sharded client state.
//!
//! Sweeps fleet size N with the cohort count K held small, charting
//! arrival-queue depth, gradient staleness, accuracy and simulation
//! throughput (events per *simulated* second — a deterministic number
//! that lands in `results/fleet.json`; wall-clock events/sec is printed
//! to stdout only, since it varies by machine). The 64-client row runs
//! the exact `FleetConfig::crossval64()` configuration that `scale_sweep`
//! also runs, so `results/scale.json` and `results/fleet.json` overlap
//! on one point for cross-validation.
//!
//! The JSON envelope is written with [`write_results_deterministic`], so
//! the file is byte-identical across `STSL_THREADS` settings — CI diffs
//! the two legs.
//!
//! ```text
//! cargo run -p stsl-bench --release --bin fleet_sweep -- --quick   # 64 + 1k
//! cargo run -p stsl-bench --release --bin fleet_sweep              # + 10k
//! cargo run -p stsl-bench --release --bin fleet_sweep -- --xl     # + 100k
//! ```

use serde::Serialize;
use stsl_bench::{crossval_fleet_data, load_data, render_table, write_results_deterministic, Args};
use stsl_split::{FleetConfig, FleetReport, FleetTrainer, WallTimer};

#[derive(Serialize)]
struct Row {
    clients: usize,
    cohorts: usize,
    crossval: bool,
    sim_seconds: f64,
    events_processed: u64,
    events_per_sim_sec: f64,
    sends_attempted: u64,
    admission_rejected: u64,
    shed: u64,
    served: u64,
    cohort_steps: u64,
    mean_queue_depth: f64,
    max_queue_depth: usize,
    mean_staleness_ms: f64,
    final_accuracy: f32,
    model_bytes: u64,
    per_client_state_bytes: u64,
    departures: u64,
    snapshots_emitted: u64,
}

impl Row {
    fn from_report(r: &FleetReport, crossval: bool) -> Self {
        Row {
            clients: r.clients,
            cohorts: r.cohorts,
            crossval,
            sim_seconds: r.sim_seconds,
            events_processed: r.events_processed,
            events_per_sim_sec: r.events_per_sim_sec,
            sends_attempted: r.sends_attempted,
            admission_rejected: r.admission_rejected,
            shed: r.shed,
            served: r.served,
            cohort_steps: r.cohort_steps,
            mean_queue_depth: r.mean_queue_depth,
            max_queue_depth: r.max_queue_depth,
            mean_staleness_ms: r.mean_staleness_ms,
            final_accuracy: r.final_accuracy,
            model_bytes: r.model_bytes,
            per_client_state_bytes: r.per_client_state_bytes,
            departures: r.departures,
            snapshots_emitted: r.snapshots_emitted,
        }
    }
}

#[derive(Serialize)]
struct FleetSweep {
    data_source: String,
    rows: Vec<Row>,
}

fn main() {
    let args = Args::parse();
    let quick = args.get_flag("quick");
    let xl = args.get_flag("xl");
    let seed = FleetConfig::crossval64().seed;

    // The 64-client row always runs (it is the scale.json overlap point);
    // larger rows chart how the calendar queue + cohort sharding scale.
    let mut sizes: Vec<usize> = vec![1_000];
    if !quick {
        sizes.push(10_000);
    }
    if xl {
        sizes.push(100_000);
    }

    println!(
        "E16 fleet sweep — sizes 64(crossval){}",
        sizes.iter().map(|n| format!(" {}", n)).collect::<String>()
    );

    let mut rows = Vec::new();

    // Shared cross-validation row: identical config + data to scale_sweep.
    {
        let (train, test) = crossval_fleet_data();
        let mut fleet =
            FleetTrainer::new(FleetConfig::crossval64(), &train).expect("crossval64 is valid");
        let wall = WallTimer::start();
        let report = fleet.run(&test);
        print_row(&report, wall.seconds(), true);
        rows.push(Row::from_report(&report, true));
    }

    // Fleet-scale rows: same synthetic data spec, smoke() preset scaled up.
    let (train, test, source) = load_data(320, 120, 16, seed, 0.12);
    for &n in &sizes {
        let cfg = FleetConfig::smoke(n);
        let mut fleet = FleetTrainer::new(cfg, &train).expect("smoke config is valid");
        let wall = WallTimer::start();
        let report = fleet.run(&test);
        print_row(&report, wall.seconds(), false);
        rows.push(Row::from_report(&report, false));
    }

    // An accuracy column means something only if every cohort trained.
    for r in &rows {
        assert!(
            r.cohort_steps >= r.cohorts as u64,
            "{} clients: {} cohort steps for {} cohorts, so the row never trained",
            r.clients,
            r.cohort_steps,
            r.cohorts
        );
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}{}", r.clients, if r.crossval { "*" } else { "" }),
                format!("{}", r.cohorts),
                format!("{:.2}", r.mean_queue_depth),
                format!("{:.1}", r.mean_staleness_ms),
                format!("{:.1}%", r.final_accuracy * 100.0),
                format!("{:.0}", r.events_per_sim_sec),
                format!("{}", r.model_bytes),
                format!("{}", r.per_client_state_bytes),
            ]
        })
        .collect();
    println!(
        "\n{}",
        render_table(
            &[
                "clients",
                "cohorts",
                "mean depth",
                "staleness (ms)",
                "accuracy",
                "events/sim-s",
                "model bytes",
                "per-client B",
            ],
            &table
        )
    );
    println!(
        "* = crossval64 row shared with scale_sweep (results/scale.json).\n\
         Model bytes are O(cohorts): constant while clients grow 64 → {}.",
        rows.last().map(|r| r.clients).unwrap_or(64)
    );

    let sweep = FleetSweep {
        data_source: source.to_string(),
        rows,
    };
    let data_json = serde_json::to_string_pretty(&sweep).expect("serialize sweep");
    write_results_deterministic("fleet", "fleet_sweep", seed, &data_json);
}

fn print_row(r: &FleetReport, wall_secs: f64, crossval: bool) {
    // Wall-clock throughput is stdout-only: it depends on the machine and
    // must never reach the deterministic results envelope.
    let wall_eps = if wall_secs > 0.0 {
        r.events_processed as f64 / wall_secs
    } else {
        0.0
    };
    println!(
        "  N={:<7}{} K={:<3} events {:>8}  sim {:>7.2}s  depth {:>6.2}  stale {:>7.1}ms  \
         acc {:>5.1}%  {:>9.0} ev/sim-s  ({:.0} ev/wall-s)",
        r.clients,
        if crossval { "*" } else { " " },
        r.cohorts,
        r.events_processed,
        r.sim_seconds,
        r.mean_queue_depth,
        r.mean_staleness_ms,
        r.final_accuracy * 100.0,
        r.events_per_sim_sec,
        wall_eps
    );
}
