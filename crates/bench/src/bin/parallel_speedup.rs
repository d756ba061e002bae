//! **E14** — serial/parallel speedup of the `stsl-parallel` thread pool,
//! per numeric backend.
//!
//! Times the GEMM kernels (including the large square product the CI
//! speedup gate watches) and one synchronous split-learning epoch at
//! increasing thread counts, on both the scalar **reference** backend and
//! the cache-**blocked** backend, and reports wall-clock medians plus the
//! speedup over the exact serial path (`threads = 1`, same backend).
//! Because every parallel kernel is bitwise-deterministic *within a
//! backend*, the runs at different thread counts compute identical
//! results — the only thing that may change is time.
//!
//! Numbers are honest: `hardware_threads` records what the machine
//! actually offers, `simd` the vector level the kernels were built for,
//! every row carries the requested **and** granted thread counts, and
//! the envelope collects explicit warnings whenever a sweep point asks
//! for more threads than the host exposes — on such rows the pool still
//! spawns the requested workers, but they time-share cores and the
//! speedup is noise, not signal. `scripts/check_speedup.py`
//! consumes these fields to decide whether the ≥2× four-thread gate is
//! applicable on the current runner.
//!
//! ```text
//! cargo run -p stsl-bench --release --bin parallel_speedup
//! cargo run -p stsl-bench --release --bin parallel_speedup -- --quick
//! ```

use serde::Serialize;
use stsl_bench::{load_data, render_table, write_results, Args};
use stsl_parallel::with_threads;
use stsl_split::{CutPoint, SpatioTemporalTrainer, SplitConfig};
use stsl_tensor::init::rng_from_seed;
use stsl_tensor::ops::matmul::{gemm, gemm_at_b};
use stsl_tensor::{with_backend, Backend, Tensor};

#[derive(Serialize)]
struct Timing {
    workload: String,
    backend: String,
    threads_requested: usize,
    threads_granted: usize,
    median_ms: f64,
    speedup_vs_serial: f64,
}

#[derive(Serialize)]
struct SpeedupReport {
    hardware_threads: usize,
    /// The vector level the timed kernels were built for: `avx2` in the
    /// default x86-64-v3 build, `sse2` in a portable one.
    simd: &'static str,
    repeats: usize,
    gemm_dims: Vec<usize>,
    gemm_large_dims: Vec<usize>,
    epoch_samples: usize,
    data_source: String,
    /// Human-readable caveats (e.g. oversubscribed sweep points). Empty
    /// means every row's speedup is meaningful on this host.
    warnings: Vec<String>,
    rows: Vec<Timing>,
}

/// Median wall-clock milliseconds of `repeats` runs of `f`.
fn median_ms(repeats: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let start = stsl_split::WallTimer::start();
            f();
            start.seconds() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

fn main() {
    let args = Args::parse();
    let quick = args.get_flag("quick");
    let repeats = args.get_usize("repeats", if quick { 3 } else { 7 });
    let (m, k, n) = if quick { (96, 96, 96) } else { (256, 256, 256) };
    let large = if quick { 160 } else { 384 };
    let train_n = if quick { 64 } else { 256 };
    let threads_sweep = [1usize, 2, 4];

    let hardware_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut rng = rng_from_seed(3);
    let a: Vec<f32> = Tensor::randn([m, k], &mut rng).as_slice().to_vec();
    let b: Vec<f32> = Tensor::randn([k, n], &mut rng).as_slice().to_vec();
    let al: Vec<f32> = Tensor::randn([large, large], &mut rng).as_slice().to_vec();
    let bl: Vec<f32> = Tensor::randn([large, large], &mut rng).as_slice().to_vec();
    let (train, _test, data_source) = load_data(train_n, 16, 16, 5, 0.05);

    let mut warnings: Vec<String> = Vec::new();
    for &threads in &threads_sweep {
        if threads > hardware_threads {
            warnings.push(format!(
                "{threads}-thread rows are oversubscribed: host exposes only \
                 {hardware_threads} hardware thread(s), so their speedups \
                 measure scheduling overhead, not parallel scaling"
            ));
        }
    }

    let mut rows: Vec<Timing> = Vec::new();
    let mut table: Vec<Vec<String>> = Vec::new();
    for backend in [Backend::Reference, Backend::Blocked] {
        for (workload, mut run) in [
            (
                "gemm",
                Box::new(|| {
                    std::hint::black_box(gemm(&a, &b, m, k, n));
                }) as Box<dyn FnMut()>,
            ),
            (
                "gemm_large",
                Box::new(|| {
                    std::hint::black_box(gemm(&al, &bl, large, large, large));
                }),
            ),
            (
                "gemm_at_b",
                Box::new(|| {
                    std::hint::black_box(gemm_at_b(&a, &b, k, m, n));
                }),
            ),
            (
                "sync_epoch",
                Box::new(|| {
                    let cfg = SplitConfig::tiny(CutPoint(1), 4).epochs(1).seed(9);
                    let mut t = SpatioTemporalTrainer::new(cfg, &train).expect("valid config");
                    std::hint::black_box(t.run_epoch(0));
                }),
            ),
        ] {
            let mut serial_ms = 0.0;
            for &threads in &threads_sweep {
                let (ms, granted) = with_backend(backend, || {
                    with_threads(threads, || {
                        (median_ms(repeats, &mut run), stsl_parallel::max_threads())
                    })
                });
                if threads == 1 {
                    serial_ms = ms;
                }
                let speedup = if ms > 0.0 { serial_ms / ms } else { 0.0 };
                rows.push(Timing {
                    workload: workload.to_string(),
                    backend: backend.name().to_string(),
                    threads_requested: threads,
                    threads_granted: granted,
                    median_ms: ms,
                    speedup_vs_serial: speedup,
                });
                table.push(vec![
                    workload.to_string(),
                    backend.name().to_string(),
                    format!(
                        "{}/{}{}",
                        granted,
                        threads,
                        if threads > hardware_threads { "!" } else { "" }
                    ),
                    format!("{:.3}", ms),
                    format!("{:.2}x", speedup),
                ]);
            }
        }
    }

    println!(
        "parallel speedup (hardware threads: {}, repeats: {})\n",
        hardware_threads, repeats
    );
    println!(
        "{}",
        render_table(
            &["workload", "backend", "granted/req", "median ms", "speedup"],
            &table
        )
    );
    for w in &warnings {
        println!("warning: {w}");
    }

    write_results(
        "parallel",
        "parallel_speedup",
        9,
        &SpeedupReport {
            hardware_threads,
            simd: if cfg!(target_feature = "avx2") {
                "avx2"
            } else {
                "sse2"
            },
            repeats,
            gemm_dims: vec![m, k, n],
            gemm_large_dims: vec![large, large, large],
            epoch_samples: train_n,
            data_source: data_source.to_string(),
            warnings,
            rows,
        },
    );
}
