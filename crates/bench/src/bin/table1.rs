//! **Table I** — classification accuracy vs. layers at the end-systems.
//!
//! Reproduces the paper's headline result: accuracy is highest when all
//! layers live at the server (cut 0) and degrades monotonically (a few
//! points) as more blocks `L_1..L_k` become private per-end-system,
//! because each end-system's private encoder trains only on its own shard
//! and is never averaged.
//!
//! ```text
//! cargo run -p stsl-bench --release --bin table1                # standard
//! cargo run -p stsl-bench --release --bin table1 -- --quick    # CI smoke
//! cargo run -p stsl-bench --release --bin table1 -- --full     # paper scale
//! cargo run -p stsl-bench --release --bin table1 -- --dirichlet 0.3
//! ```

use serde::Serialize;
use stsl_bench::{load_data, render_table, write_results, Args};
use stsl_data::Partition;
use stsl_split::{
    baselines::CentralizedTrainer, CnnArch, CutPoint, SpatioTemporalTrainer, SplitConfig,
};

#[derive(Serialize)]
struct Row {
    cut: usize,
    label: String,
    accuracy: f32,
    degradation_pts: f32,
    per_client: Vec<f32>,
    uplink_mb: f64,
}

#[derive(Serialize)]
struct Table1 {
    data_source: String,
    end_systems: usize,
    train_samples: usize,
    epochs: usize,
    paper_accuracy: Vec<(usize, f32)>,
    rows: Vec<Row>,
}

fn main() {
    let args = Args::parse();
    let quick = args.get_flag("quick");
    let full = args.get_flag("full");
    let (arch, side, train_n, test_n, epochs) = if quick {
        (CnnArch::tiny(), 16, 300, 100, args.get_usize("epochs", 3))
    } else if full {
        (
            CnnArch::paper(),
            32,
            20_000,
            4_000,
            args.get_usize("epochs", 15),
        )
    } else {
        (
            CnnArch::paper(),
            32,
            args.get_usize("samples", 2_000),
            500,
            args.get_usize("epochs", 6),
        )
    };
    let clients = args.get_usize("clients", 4);
    let seed = args.get_u64("seed", 42);
    let lr = args.get_f32("lr", 0.01);
    let dirichlet = args.get_f32("dirichlet", 0.0);
    let max_cut = args.get_usize("max-cut", (arch.blocks() - 1).min(4));
    // Harder synthetic noise at paper scale keeps the ceiling near the
    // paper's ~71 % instead of saturating.
    let difficulty = args.get_f32("difficulty", if quick { 0.12 } else { 0.35 });

    let (train, test, source) = load_data(train_n, test_n, side, seed, difficulty);
    println!(
        "Table I reproduction — {} data, {} train / {} test, {} end-systems, {} epochs",
        source,
        train.len(),
        test.len(),
        clients,
        epochs
    );

    let partition = if dirichlet > 0.0 {
        Partition::Dirichlet { alpha: dirichlet }
    } else {
        Partition::Iid
    };

    let mut rows = Vec::new();
    let mut baseline_acc = 0.0f32;
    for cut in 0..=max_cut {
        let cfg = SplitConfig::new(CutPoint(cut), clients)
            .arch(arch.clone())
            .epochs(epochs)
            .learning_rate(lr)
            .partition(partition)
            .seed(seed);
        let started = stsl_split::WallTimer::start();
        let report = if cut == 0 {
            // Cut 0 is the paper's "global model": identical to centralized
            // training on pooled data (verified by the equivalence tests).
            let mut t = CentralizedTrainer::new(cfg).expect("valid config");
            t.train(&train, &test)
        } else {
            let mut t = SpatioTemporalTrainer::new(cfg, &train).expect("valid config");
            t.train(&test)
        };
        let acc = report.best_accuracy();
        if cut == 0 {
            baseline_acc = acc;
        }
        println!(
            "  cut {} [{}]: accuracy {:.2}% ({:.1}s)",
            cut,
            report.label,
            acc * 100.0,
            started.seconds()
        );
        rows.push(Row {
            cut,
            label: report.label.clone(),
            accuracy: acc,
            degradation_pts: (baseline_acc - acc) * 100.0,
            per_client: report.per_client_accuracy.clone(),
            uplink_mb: report.comm.uplink_bytes as f64 / 1e6,
        });
    }

    let paper = vec![
        (0usize, 71.09f32),
        (1, 68.18),
        (2, 67.92),
        (3, 66.00),
        (4, 65.66),
    ];
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let paper_acc = paper
                .iter()
                .find(|(c, _)| *c == r.cut)
                .map(|(_, a)| format!("{:.2}%", a))
                .unwrap_or_else(|| "—".into());
            vec![
                r.label.clone(),
                format!("{:.2}%", r.accuracy * 100.0),
                format!("{:.2}", r.degradation_pts),
                paper_acc,
            ]
        })
        .collect();
    println!(
        "\n{}",
        render_table(
            &[
                "Layers at end-systems",
                "Accuracy (ours)",
                "Degradation (pts)",
                "Paper"
            ],
            &table_rows
        )
    );

    write_results(
        "table1",
        "table1",
        seed,
        &Table1 {
            data_source: source.to_string(),
            end_systems: clients,
            train_samples: train.len(),
            epochs,
            paper_accuracy: paper,
            rows,
        },
    );
}
