//! The repository's benchmark: one command that runs a named workload at
//! a pinned thread budget and prints its end-to-end metrics, or, with
//! `--trace 1`, a separate traced run that prints the per-layer metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sync_paper --seed 1 --seconds 10 --trace 0 [--threads 2]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A failed self-check
//! makes the exit code 1; a usage error makes it 2. See `README.md`.

#![forbid(unsafe_code)]

mod micro;
mod procfs;
mod stats;
mod trace;
mod workloads;

use stats::median;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{union_ns, Level, Recorder, Span};
use workloads::{execute, isolated_passes, setup, Outcome, Workload};

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
const END_TO_END: [(&str, &str); 4] = [
    ("samples_per_s", "samples/s"),
    ("eval_samples_per_s", "samples/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// count or share a workload does not produce reads 0. The last four are
/// end-to-end quantities that are 0 or undefined on some workload, or
/// spread across seeds by more than a bound allows, so they are reported
/// here, unbounded (see README.md).
const PER_LAYER: [(&str, &str); 53] = [
    ("tensor.gemm.paper_gflops", "GFLOP/s"),
    ("tensor.gemm.tiny_gflops", "GFLOP/s"),
    ("tensor.im2col.gb_s", "GB/s"),
    ("tensor.col2im.gb_s", "GB/s"),
    ("nn.conv0.fwd_ms", "ms"),
    ("nn.conv1.fwd_ms", "ms"),
    ("nn.conv2.fwd_ms", "ms"),
    ("nn.conv3.fwd_ms", "ms"),
    ("nn.conv4.fwd_ms", "ms"),
    ("nn.conv0.bwd_ms", "ms"),
    ("nn.conv1.bwd_ms", "ms"),
    ("nn.conv2.bwd_ms", "ms"),
    ("nn.conv3.bwd_ms", "ms"),
    ("nn.conv4.bwd_ms", "ms"),
    ("nn.relu.fwd_ms", "ms"),
    ("nn.relu.bwd_ms", "ms"),
    ("nn.pool.fwd_ms", "ms"),
    ("nn.pool.bwd_ms", "ms"),
    ("nn.dense.fwd_ms", "ms"),
    ("nn.dense.bwd_ms", "ms"),
    ("nn.eval_ms_per_sample", "ms"),
    ("nn.tiny_client.fwd_ms", "ms"),
    ("nn.tiny_client.bwd_ms", "ms"),
    ("data.batch_ms", "ms"),
    ("data.generate_s", "s"),
    ("split.server.busy_share", "fraction"),
    ("split.client.busy_share", "fraction"),
    ("split.comm.bytes_per_step", "bytes"),
    ("split.codec.encode_mb_s", "MB/s"),
    ("split.codec.decode_mb_s", "MB/s"),
    ("split.codec.crc_mb_s", "MB/s"),
    ("split.codec.frames_per_batch", "count"),
    ("split.guard.validate_us", "us"),
    ("split.retries_per_batch", "count"),
    ("split.scheduler.push_pop_ns", "ns"),
    ("split.fleet.events_per_step", "count"),
    ("split.fleet.shed_ratio", "fraction"),
    ("split.untraced_share", "fraction"),
    ("simnet.queue.deep_ns_per_event", "ns"),
    ("simnet.queue.shallow_ns_per_event", "ns"),
    ("telemetry.histogram.record_ns", "ns"),
    ("telemetry.snapshots_per_run", "count"),
    ("parallel.speedup_2t", "ratio"),
    ("parallel.join_us", "us"),
    ("proc.sys_cpu_share", "fraction"),
    ("proc.cpu_per_wall", "ratio"),
    ("proc.ctx_switches_per_step", "count"),
    ("proc.minor_faults_per_step", "count"),
    ("bench.trace_overhead", "fraction"),
    ("events_per_s", "events/s"),
    ("final_loss", "nats"),
    ("test_accuracy", "fraction"),
    ("fail_ratio", "fraction"),
];

/// Set-ups per untraced run at least; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Isolated training passes of the paper CNN (about 1 s) and of the tiny
/// CNN, for workloads whose own run does not reach those layers.
const PAPER_PASSES: usize = 8;
const TINY_PASSES: usize = 64;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    threads: usize,
}

fn parse_args(tokens: &[String], nproc: usize) -> Result<Args, String> {
    let mut values = BTreeMap::new();
    let mut it = tokens.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        values.insert(key, value.as_str());
    }
    let number = |key: &str, default: Option<u64>| -> Result<u64, String> {
        match values.get(key) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects a whole number, got {v:?}")),
            None => default.ok_or_else(|| format!("--{key} is required")),
        }
    };
    let name = values.get("workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let trace = match number("trace", Some(0))? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace expects 0 or 1, got {t}")),
    };
    // The pinned budget: two threads, or fewer on a smaller host; an
    // explicit request beyond the host is refused, not oversubscribed.
    let threads = number("threads", Some(2.min(nproc) as u64))? as usize;
    if threads == 0 || threads > nproc {
        return Err(format!(
            "--threads {threads} is outside 1..={nproc} (the host's hardware threads)"
        ));
    }
    let known = ["workload", "seed", "seconds", "trace", "threads"];
    if let Some(k) = values.keys().find(|k| !known.contains(k)) {
        return Err(format!("unknown flag --{k}"));
    }
    Ok(Args {
        workload,
        seed: number("seed", Some(1))?,
        seconds: number("seconds", Some(10))?,
        trace,
        threads,
    })
}

/// A run's result: metrics in output order, and the work it checked.
struct Report {
    metrics: Vec<(&'static str, &'static str, f64)>,
    attempted: u64,
    failures: Vec<String>,
}

fn peak_rss_mb() -> f64 {
    procfs::read_status().map_or(f64::NAN, |s| s.vm_hwm_kb as f64 / 1024.0)
}

/// Samples per second of each `(samples, seconds)` call.
fn rates(pairs: &[(f64, f64)]) -> Vec<f64> {
    pairs.iter().map(|(n, secs)| n / secs).collect()
}

/// The untraced run: set up several times, then run the workload
/// repeatedly for `seconds`, reporting medians over the timed calls.
fn end_to_end(args: &Args) -> Report {
    let mut setup_secs = Vec::new();
    let mut next = None;
    for _ in 0..SETUP_REPS {
        let s = setup(args.workload, args.seed);
        setup_secs.push(s.secs);
        next = Some(s.deployment);
    }
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut outcomes: Vec<Outcome> = Vec::new();
    while outcomes.is_empty() || start.elapsed() < budget {
        let deployment = next.take().unwrap_or_else(|| {
            let s = setup(args.workload, args.seed);
            setup_secs.push(s.secs);
            s.deployment
        });
        outcomes.push(execute(deployment, None));
    }
    let first = &outcomes[0];
    let mut failures: Vec<String> = outcomes.iter().flat_map(|o| o.failures.clone()).collect();
    for (i, o) in outcomes.iter().enumerate().skip(1) {
        if o.fingerprint != first.fingerprint {
            failures.push(format!("run {i} of the same seed gave different results"));
        }
    }
    let train = rates(
        &outcomes
            .iter()
            .flat_map(|o| o.train.clone())
            .collect::<Vec<_>>(),
    );
    let eval = rates(
        &outcomes
            .iter()
            .flat_map(|o| o.eval.clone())
            .collect::<Vec<_>>(),
    );
    let values = [
        median(&train),
        median(&eval),
        median(&setup_secs),
        peak_rss_mb(),
    ];
    for (what, rates) in [("training", &train), ("evaluation", &eval)] {
        let rounded: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
        println!("{what} samples/s per call: {}", rounded.join(" "));
    }
    println!(
        "runs {}; training calls: {}; evaluations: {}; set-ups: {}",
        outcomes.len(),
        stats::describe(&train, "samples/s"),
        stats::describe(&eval, "samples/s"),
        stats::describe(&setup_secs, "s"),
    );
    println!(
        "reported by the traced run: test_accuracy {}, final_loss {} nats, \
         events_per_s {}, fail_ratio {}",
        first.test_accuracy,
        first.final_loss,
        median(&outcomes.iter().map(|o| o.events_per_s).collect::<Vec<_>>()),
        first.fail_ratio
    );
    Report {
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect(),
        attempted: outcomes.iter().map(|o| o.attempted).sum(),
        failures,
    }
}

/// Total duration of spans matching `pred`, in milliseconds.
fn total_ms(spans: &[Span], pred: impl Fn(&Span) -> bool) -> f64 {
    let ns: u64 = spans
        .iter()
        .filter(|s| pred(s))
        .map(Span::duration_ns)
        .sum();
    ns as f64 / 1e6
}

/// Union of the intervals of spans matching `pred`, in nanoseconds.
fn union_of(spans: &[Span], pred: impl Fn(&Span) -> bool) -> f64 {
    union_ns(
        spans
            .iter()
            .filter(|s| pred(s))
            .map(|s| (s.start_ns, s.end_ns)),
        (0, u64::MAX),
    ) as f64
}

fn is_client(s: &Span) -> bool {
    s.level == Level::Model && s.name.starts_with("client")
}

/// A model-level training pass (forward or backward).
fn trains(s: &Span) -> bool {
    s.level == Level::Model && (s.name.ends_with(".fwd") || s.name.ends_with(".bwd"))
}

/// The paper CNN's `nn.*` layer metrics from spans covering `batches`
/// training batches and `eval_samples` evaluated samples.
fn paper_layer_metrics(
    spans: &[Span],
    batches: f64,
    eval_samples: f64,
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    // nn.<layer>.<pass>_ms: spans named <layer>.<pass>, per training batch.
    for &(metric, _) in &PER_LAYER {
        let Some(span) = metric
            .strip_prefix("nn.")
            .and_then(|m| m.strip_suffix("_ms"))
        else {
            continue;
        };
        if !span.starts_with("tiny_client") {
            m.insert(metric, total_ms(spans, |s| *s.name == *span) / batches);
        }
    }
    let eval_ms = total_ms(spans, |s| {
        s.level == Level::Model && s.name.ends_with(".eval")
    });
    m.insert("nn.eval_ms_per_sample", eval_ms / eval_samples);
    m
}

/// `nn.tiny_client.*`: mean client-model training pass, from spans.
fn tiny_client_metrics(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    for (metric, pass) in [
        ("nn.tiny_client.fwd_ms", ".fwd"),
        ("nn.tiny_client.bwd_ms", ".bwd"),
    ] {
        let of_pass = |s: &Span| is_client(s) && s.name.ends_with(pass);
        let calls = spans.iter().filter(|s| of_pass(s)).count();
        m.insert(metric, total_ms(spans, of_pass) / calls.max(1) as f64);
    }
    m
}

/// Busy and untraced shares of the traced run.
fn share_metrics(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let training =
        |s: &Span| s.level == Level::Phase && (&*s.name == "run_epoch" || &*s.name == "run");
    let train_ns: f64 = spans
        .iter()
        .filter(|s| training(s))
        .map(|s| s.duration_ns() as f64)
        .sum();
    m.insert(
        "split.server.busy_share",
        union_of(spans, |s| trains(s) && s.name.starts_with("server")) / train_ns,
    );
    m.insert(
        "split.client.busy_share",
        union_of(spans, |s| is_client(s) && trains(s)) / train_ns,
    );
    if let Some(root) = spans.iter().find(|s| s.level == Level::Root) {
        let covered = union_ns(
            spans
                .iter()
                .filter(|s| s.level >= Level::Model)
                .map(|s| (s.start_ns, s.end_ns)),
            (root.start_ns, root.end_ns),
        );
        m.insert(
            "split.untraced_share",
            1.0 - covered as f64 / root.duration_ns() as f64,
        );
    }
    m
}

/// Prints the step-time distribution of each model-level span name.
fn print_span_summary(spans: &[Span]) {
    let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.level <= Level::Model) {
        // client0.fwd, client1.fwd, … share one distribution.
        let key = match s.name.split_once('.') {
            Some((role, pass)) if role.starts_with("client") => format!("client.{pass}"),
            _ => s.name.to_string(),
        };
        by_name
            .entry(key)
            .or_default()
            .push(s.duration_ns() as f64 / 1e6);
    }
    for (name, ms) in by_name {
        println!("span {name}: {}", stats::describe(&ms, "ms"));
    }
}

/// `/proc/self` counters accumulated around the untraced runs.
#[derive(Default)]
struct ProcDelta {
    wall: f64,
    user_ticks: u64,
    sys_ticks: u64,
    minor_faults: u64,
    switches: u64,
    unreadable: bool,
}

impl ProcDelta {
    /// Runs `f`, adding the counters it moved.
    fn around<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let before = (procfs::read_stat(), procfs::read_status(), Instant::now());
        let result = f();
        let wall = before.2.elapsed().as_secs_f64();
        let after = (procfs::read_stat(), procfs::read_status());
        let (Some(a), Some(sa), Some(b), Some(sb)) = (before.0, before.1, after.0, after.1) else {
            self.unreadable = true;
            return result;
        };
        self.wall += wall;
        self.user_ticks += b.user_ticks - a.user_ticks;
        self.sys_ticks += b.sys_ticks - a.sys_ticks;
        self.minor_faults += b.minor_faults - a.minor_faults;
        self.switches += (sb.voluntary_switches + sb.involuntary_switches)
            - (sa.voluntary_switches + sa.involuntary_switches);
        result
    }
}

/// The traced run. Rounds of three runs repeat for `seconds` (at least
/// one round): untraced with `/proc` counters around it, traced, and
/// untraced at one thread. Then the isolated calls.
fn traced(args: &Args) -> Report {
    let (w, seed) = (args.workload, args.seed);
    let mut failures = Vec::new();
    let mut data_secs = Vec::new();
    let mut deploy = || {
        let s = setup(w, seed);
        data_secs.push(s.data_secs);
        s.deployment
    };
    let mut proc = ProcDelta::default();
    let (mut base, mut timed, mut serial) = (Vec::new(), Vec::new(), Vec::new());
    let mut spans = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    while base.is_empty() || start.elapsed() < budget {
        let d = deploy();
        base.push(proc.around(|| execute(d, None)));
        // Every round is timed; the first round's spans are kept.
        let rec = Recorder::new();
        timed.push(execute(deploy(), Some(&rec)));
        if spans.is_empty() {
            spans = rec.spans();
        }
        let d = deploy();
        serial.push(stsl_parallel::with_threads(1, || execute(d, None)));
    }
    if proc.unreadable {
        failures.push("/proc/self counters unreadable".to_string());
    }
    let reference = &base[0].fingerprint;
    for (label, runs) in [
        ("untraced", &base),
        ("traced", &timed),
        ("one-thread", &serial),
    ] {
        for o in runs.iter() {
            if o.fingerprint != *reference {
                failures.push(format!("a {label} run differs from the first untraced run"));
            }
            failures.extend(o.failures.iter().cloned());
        }
    }
    let throughput = |runs: &[Outcome]| {
        median(
            &runs
                .iter()
                .map(Outcome::train_throughput)
                .collect::<Vec<_>>(),
        )
    };
    let (base_tp, timed_tp, serial_tp) =
        (throughput(&base), throughput(&timed), throughput(&serial));
    let rounds = base.len() as u64;
    println!(
        "{rounds} rounds; training samples/s: untraced {base_tp:.1}, traced {timed_tp:.1}, \
         one thread {serial_tp:.1}"
    );
    let (base, timed) = (&base[0], &timed[0]);

    let path = PathBuf::from(".bench_out").join(format!("spans-{}-seed{seed}.csv", w.name()));
    match trace::write_csv(&path, &spans) {
        Ok(()) => println!("wrote {} spans to {}", spans.len(), path.display()),
        Err(e) => failures.push(format!("writing {}: {e}", path.display())),
    }
    print_span_summary(&spans);

    let mut m = share_metrics(&spans);
    // The paper CNN's layers are reached on `sync_paper` and the tiny
    // client on `async_wan`; elsewhere isolated passes stand in.
    if w == Workload::SyncPaper {
        let eval_samples: f64 = timed.eval.iter().map(|(n, _)| n).sum();
        m.extend(paper_layer_metrics(
            &spans,
            timed.steps as f64,
            eval_samples,
        ));
    } else {
        let passes = isolated_passes(Workload::SyncPaper, PAPER_PASSES);
        let batch = Workload::SyncPaper.shapes().batch as f64;
        m.extend(paper_layer_metrics(&passes, PAPER_PASSES as f64, batch));
    }
    if w == Workload::AsyncWan {
        m.extend(tiny_client_metrics(&spans));
    } else {
        m.extend(tiny_client_metrics(&isolated_passes(
            Workload::AsyncWan,
            TINY_PASSES,
        )));
    }
    m.extend(base.counts.iter().map(|(k, v)| (*k, *v)));
    let (train, _) = w.data(seed);
    match micro::measure(&w.shapes(), &train) {
        Some(micro) => m.extend(micro),
        None => failures.push("an isolated call returned a wrong result".into()),
    }
    m.insert("data.generate_s", median(&data_secs));
    m.insert("parallel.speedup_2t", base_tp / serial_tp);
    m.insert("bench.trace_overhead", 1.0 - timed_tp / base_tp);
    // Every round runs the same seed, so each takes `base.steps` steps.
    let steps = (base.steps * rounds).max(1) as f64;
    let secs = |ticks: u64| ticks as f64 / procfs::TICKS_PER_SEC;
    m.insert("proc.sys_cpu_share", secs(proc.sys_ticks) / proc.wall);
    m.insert(
        "proc.cpu_per_wall",
        secs(proc.user_ticks + proc.sys_ticks) / proc.wall,
    );
    m.insert("proc.ctx_switches_per_step", proc.switches as f64 / steps);
    m.insert(
        "proc.minor_faults_per_step",
        proc.minor_faults as f64 / steps,
    );
    m.insert("events_per_s", base.events_per_s);
    m.insert("final_loss", base.final_loss);
    m.insert("test_accuracy", base.test_accuracy);
    m.insert("fail_ratio", base.fail_ratio);
    if w == Workload::SyncPaper && m["split.untraced_share"] >= 0.2 {
        println!(
            "note: split.untraced_share is {:.3}",
            m["split.untraced_share"]
        );
    }
    Report {
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, m.get(name).copied().unwrap_or(0.0)))
            .collect(),
        attempted: base.attempted * 3 * rounds,
        failures,
    }
}

fn main() -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&tokens, nproc) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} threads={} nproc={} backend={} queue={} data=synthetic",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.threads,
        nproc,
        stsl_tensor::Backend::active().name(),
        stsl_simnet::QueueKind::active().name(),
    );
    let mut report = stsl_parallel::with_threads(args.threads, || {
        if args.trace {
            traced(&args)
        } else {
            end_to_end(&args)
        }
    });
    for &(name, unit, value) in &report.metrics {
        println!("{name:<36} {value:>16.6} {unit}");
        if !value.is_finite() || (!args.trace && value <= 0.0) {
            report.failures.push(format!("metric {name} = {value}"));
        }
    }
    for f in &report.failures {
        println!("FAILED: {f}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            // Non-finite values are already failures; keep the JSON valid.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = report.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failures.len(),
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        let tokens: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&tokens, 2)
    }

    #[test]
    fn the_thread_budget_is_pinned_and_bounded_by_the_host() {
        let a = args("--workload sync_paper --seed 3 --seconds 5 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace, a.threads), (3, 5, true, 2));
        assert_eq!(
            args("--workload fleet_100k --threads 1").unwrap().threads,
            1
        );
        assert!(args("--workload fleet_100k --threads 3").is_err());
        assert!(args("--workload fleet_100k --threads 0").is_err());
        let one = parse_args(&["--workload".into(), "async_wan".into()], 1).unwrap();
        assert_eq!(one.threads, 1);
    }

    #[test]
    fn malformed_command_lines_are_usage_errors() {
        assert!(args("").is_err());
        assert!(args("--workload nope").is_err());
        assert!(args("--workload sync_paper --seed x").is_err());
        assert!(args("--workload sync_paper --trace 2").is_err());
        assert!(args("--workload sync_paper --bogus 1").is_err());
        assert!(args("--workload sync_paper --seed").is_err());
    }

    #[test]
    fn per_layer_names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER
            .iter()
            .chain(&END_TO_END)
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
