//! The three workloads: inputs made from the seed, the trainer calls that
//! are timed, and the self-checks on what they return.

use crate::micro::Shapes;
use crate::trace::{wrap_model, Level, Recorder, Span, SpanGuard};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use stsl_data::{ImageDataset, SyntheticCifar};
use stsl_nn::loss::{Loss, SoftmaxCrossEntropy};
use stsl_nn::optim::Sgd;
use stsl_nn::Mode;
use stsl_simnet::{FaultPlan, Link, SimDuration, SimTime, StarTopology};
use stsl_split::{
    AsyncSplitTrainer, CentralServer, CnnArch, ComputeModel, CutPoint, FleetConfig, FleetTrainer,
    GuardConfig, RetryPolicy, SchedulingPolicy, SpatioTemporalTrainer, SplitConfig,
};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A Table I row: the paper CNN, cut 1, four end-systems, evaluated
    /// after every epoch.
    SyncPaper,
    /// The §II geo-distributed setting: eight end-systems over lossy,
    /// corrupting WAN links with every resilience feature on.
    AsyncWan,
    /// E16 at scale: 100 000 end-systems in eight cohorts.
    Fleet100k,
}

mod sync_paper {
    pub const END_SYSTEMS: usize = 4;
    pub const BATCH: usize = 32;
    pub const TRAIN: usize = 128;
    pub const TEST: usize = 64;
    pub const EPOCHS: usize = 16;
    pub const DIFFICULTY: f32 = 0.35;
}

mod async_wan {
    pub const END_SYSTEMS: usize = 8;
    pub const BATCH: usize = 16;
    pub const TRAIN: usize = 1_920;
    pub const TEST: usize = 128;
    pub const EPOCHS: usize = 2;
    pub const DIFFICULTY: f32 = 0.12;
    /// The async trainer evaluates in batches of at least 32.
    pub const EVAL_BATCH: usize = 32;
}

mod fleet_100k {
    pub const CLIENTS: usize = 100_000;
    pub const COHORTS: usize = 8;
    pub const BATCH: usize = 8;
    pub const TRAIN: usize = 320;
    pub const TEST: usize = 128;
    pub const DIFFICULTY: f32 = 0.12;
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "sync_paper" => Some(Workload::SyncPaper),
            "async_wan" => Some(Workload::AsyncWan),
            "fleet_100k" => Some(Workload::Fleet100k),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SyncPaper => "sync_paper",
            Workload::AsyncWan => "async_wan",
            Workload::Fleet100k => "fleet_100k",
        }
    }

    /// Whether the workload runs the tiny CNN (else the paper CNN).
    pub fn is_tiny(self) -> bool {
        self != Workload::SyncPaper
    }

    /// The shapes its isolated calls run at.
    pub fn shapes(self) -> Shapes {
        let batch = match self {
            Workload::SyncPaper => sync_paper::BATCH,
            Workload::AsyncWan => async_wan::BATCH,
            Workload::Fleet100k => fleet_100k::BATCH,
        };
        Shapes {
            batch,
            cut_dims: self.arch().cut_dims(CutPoint(1), batch),
        }
    }

    fn arch(self) -> CnnArch {
        if self.is_tiny() {
            CnnArch::tiny()
        } else {
            CnnArch::paper()
        }
    }

    /// Training and held-out data, generated from `seed`.
    pub fn data(self, seed: u64) -> (ImageDataset, ImageDataset) {
        let (train_n, test_n, side, difficulty) = match self {
            Workload::SyncPaper => (
                sync_paper::TRAIN,
                sync_paper::TEST,
                32,
                sync_paper::DIFFICULTY,
            ),
            Workload::AsyncWan => (async_wan::TRAIN, async_wan::TEST, 16, async_wan::DIFFICULTY),
            Workload::Fleet100k => (
                fleet_100k::TRAIN,
                fleet_100k::TEST,
                16,
                fleet_100k::DIFFICULTY,
            ),
        };
        let train = SyntheticCifar::new(seed)
            .difficulty(difficulty)
            .generate_sized(train_n, side);
        let test = SyntheticCifar::new(seed ^ 0xDEAD_BEEF)
            .difficulty(difficulty)
            .generate_sized(test_n, side);
        (train, test)
    }
}

/// A deployment ready to run, with its held-out set.
// A handful are built per run and moved once; boxing would buy nothing.
#[allow(clippy::large_enum_variant)]
pub enum Deployment {
    Sync(SpatioTemporalTrainer, ImageDataset),
    Async(AsyncSplitTrainer, ImageDataset),
    Fleet(FleetTrainer, ImageDataset),
}

/// One set-up: the deployment and how long making it took.
pub struct Setup {
    pub deployment: Deployment,
    /// Data generation plus trainer construction.
    pub secs: f64,
    /// Data generation alone.
    pub data_secs: f64,
}

fn fleet_config(seed: u64) -> FleetConfig {
    FleetConfig {
        clients: fleet_100k::CLIENTS,
        cohorts: fleet_100k::COHORTS,
        arch: CnnArch::tiny(),
        cut: CutPoint(1),
        batch_size: fleet_100k::BATCH,
        learning_rate: 0.05,
        seed,
        sends_per_client: 8,
        // Dozens of real cohort steps per run; the other fields match
        // `FleetConfig::smoke`.
        arrivals_per_step: 1_000,
        think_us: 200_000,
        serve_interval_us: 2_000,
        ingress_batch: 64,
        queue_capacity: 4_096,
        admission_rate: 20,
        admission_burst: 4,
        step_service_us: 3_000,
        snapshot_every_us: 100_000,
        leave_permille: 50,
    }
}

/// Generates the workload's inputs from `seed` and builds its trainer.
pub fn setup(workload: Workload, seed: u64) -> Setup {
    let start = Instant::now();
    let (train, test) = workload.data(seed);
    let data_secs = start.elapsed().as_secs_f64();
    let deployment = match workload {
        Workload::SyncPaper => {
            let cfg = SplitConfig::new(CutPoint(1), sync_paper::END_SYSTEMS)
                .arch(CnnArch::paper())
                .batch_size(sync_paper::BATCH)
                .epochs(sync_paper::EPOCHS)
                .seed(seed);
            let trainer = SpatioTemporalTrainer::new(cfg, &train).expect("sync_paper config");
            Deployment::Sync(trainer, test)
        }
        Workload::AsyncWan => {
            let n = async_wan::END_SYSTEMS;
            let links = (0..n)
                .map(|i| Link::wan(5.0 + 10.0 * i as f64, 100.0).loss(0.02))
                .collect();
            let corruption = FaultPlan::new().payload_corruption_all(
                n,
                0.10,
                SimTime::ZERO,
                SimTime::from_micros(u64::MAX),
            );
            let cfg = SplitConfig::new(CutPoint(1), n)
                .arch(CnnArch::tiny())
                .batch_size(async_wan::BATCH)
                .epochs(async_wan::EPOCHS)
                .seed(seed);
            let trainer = AsyncSplitTrainer::new(
                cfg,
                &train,
                StarTopology::new(links),
                SchedulingPolicy::RoundRobin,
                ComputeModel::default(),
            )
            .expect("async_wan config")
            .with_fault_plan(corruption)
            .with_retry_policy(RetryPolicy::default())
            .with_auto_checkpoint(SimDuration::from_millis(200))
            .with_integrity_guard(GuardConfig::default())
            .with_telemetry(SimDuration::from_millis(100), 1_024);
            Deployment::Async(trainer, test)
        }
        Workload::Fleet100k => {
            let trainer = FleetTrainer::new(fleet_config(seed), &train).expect("fleet_100k config");
            Deployment::Fleet(trainer, test)
        }
    };
    Setup {
        deployment,
        secs: start.elapsed().as_secs_f64(),
        data_secs,
    }
}

/// What one run of a workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// `(samples, seconds)` of each timed training call.
    pub train: Vec<(f64, f64)>,
    /// `(samples, seconds)` of each timed held-out evaluation.
    pub eval: Vec<(f64, f64)>,
    pub test_accuracy: f64,
    /// Mean train loss of the last epoch (sync only, else 0).
    pub final_loss: f64,
    /// Simulation events per wall second of `run` (fleet only, else 0).
    pub events_per_s: f64,
    /// Work the system itself lost or refused, over work attempted.
    pub fail_ratio: f64,
    /// Units of work attempted: batches, or uplink sends on the fleet.
    pub attempted: u64,
    /// Training batches the server processed.
    pub steps: u64,
    /// Self-checks that failed, described.
    pub failures: Vec<String>,
    /// Every deterministic result, rendered bit-exactly.
    pub fingerprint: String,
    /// Per-layer counts this workload produces; absent ones read 0.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Training samples per second over every timed training call.
    pub fn train_throughput(&self) -> f64 {
        let (samples, secs) = self
            .train
            .iter()
            .fold((0.0, 0.0), |(n, t), (dn, dt)| (n + dn, t + dt));
        samples / secs
    }
}

/// Spans of `steps` isolated training passes, then one evaluation pass, of
/// a freshly built copy of `shape`'s model split at cut 1, at its batch
/// size, through the same wrappers (`client0` and `server`). They stand in
/// for the layers a workload's own run does not reach.
pub fn isolated_passes(shape: Workload, steps: usize) -> Vec<Span> {
    let arch = shape.arch();
    let batch = shape.shapes().batch;
    let indices: Vec<usize> = (0..batch).collect();
    let (images, targets) = SyntheticCifar::new(5)
        .generate_sized(batch, arch.image_side)
        .batch(&indices);
    let (mut client, mut server) = arch.build_split(CutPoint(1), 5);
    let rec = Recorder::new();
    wrap_model(&mut client, &rec, "client0", 0);
    wrap_model(&mut server, &rec, "server", 1);
    let loss = SoftmaxCrossEntropy::new();
    let mut client_opt = Sgd::new(0.01).momentum(0.9);
    let mut server_opt = Sgd::new(0.01).momentum(0.9);
    // The order `EndSystem` and `CentralServer` run a training step in.
    for _ in 0..steps {
        let activations = client.forward(&images, Mode::Train);
        server.zero_grads();
        let out = loss.forward(&server.forward(&activations, Mode::Train), &targets);
        let cut_grad = server.backward(&out.grad);
        server.step(&mut server_opt);
        client.zero_grads();
        client.backward(&cut_grad);
        client.step(&mut client_opt);
    }
    black_box(server.forward(&client.forward(&images, Mode::Eval), Mode::Eval));
    rec.spans()
}

/// Opens a phase span when tracing.
fn phase(rec: Option<&Arc<Recorder>>, name: &str, step: u64) -> Option<SpanGuard> {
    rec.map(|r| r.span(&Arc::from(name), Level::Phase, step))
}

/// Runs a set-up deployment once. With a recorder, every reachable
/// client and server model is wrapped in timers first and the run is
/// covered by phase spans under one root.
pub fn execute(deployment: Deployment, rec: Option<&Arc<Recorder>>) -> Outcome {
    let root = rec.map(|r| r.span(&Arc::from("run"), Level::Root, 0));
    let outcome = match deployment {
        Deployment::Sync(trainer, test) => run_sync(trainer, &test, rec),
        Deployment::Async(trainer, test) => run_async(trainer, &test, rec),
        Deployment::Fleet(trainer, test) => run_fleet(trainer, &test, rec),
    };
    drop(root);
    outcome
}

fn run_sync(
    mut trainer: SpatioTemporalTrainer,
    test: &ImageDataset,
    rec: Option<&Arc<Recorder>>,
) -> Outcome {
    if let Some(rec) = rec {
        for (i, c) in trainer.clients_mut().iter_mut().enumerate() {
            wrap_model(c.model_mut(), rec, &format!("client{i}"), 0);
        }
        // Cut 1: the clients hold conv0, so the server starts at conv1.
        wrap_model(trainer.server_mut().model_mut(), rec, "server", 1);
    }
    let mut out = Outcome::default();
    let samples: usize = trainer.clients_mut().iter().map(|c| c.samples()).sum();
    let batches: usize = trainer
        .clients_mut()
        .iter()
        .map(|c| c.batches_per_epoch())
        .sum();
    let eval_samples = trainer.clients_mut().len() * test.len();
    let mut losses = Vec::new();
    for epoch in 0..sync_paper::EPOCHS {
        let start = Instant::now();
        let (loss, accuracy) = {
            let _p = phase(rec, "run_epoch", epoch as u64);
            trainer.run_epoch(epoch)
        };
        out.train
            .push((samples as f64, start.elapsed().as_secs_f64()));
        let start = Instant::now();
        let test_accuracy = {
            let _p = phase(rec, "evaluate", epoch as u64);
            trainer.evaluate(test)
        };
        out.eval
            .push((eval_samples as f64, start.elapsed().as_secs_f64()));
        out.fingerprint += &format!(
            "epoch {epoch}: loss {:08x} train_acc {:08x} test_acc {:08x}\n",
            loss.to_bits(),
            accuracy.to_bits(),
            test_accuracy.to_bits()
        );
        losses.push(loss);
        out.test_accuracy = f64::from(test_accuracy);
    }
    let steps = trainer.server_mut().steps();
    let comm = trainer.comm();
    out.fingerprint += &format!("steps {steps} comm {comm:?}\n");
    let expected = (batches * sync_paper::EPOCHS) as u64;
    out.steps = steps;
    out.attempted = expected;
    out.check(steps == expected, || {
        format!("server ran {steps} steps, expected {expected}")
    });
    out.check(losses.iter().all(|l| l.is_finite()), || {
        format!("non-finite loss in {losses:?}")
    });
    let (first, last) = (losses[0], losses[losses.len() - 1]);
    out.check(last < first, || {
        format!("last epoch loss {last} not below first {first}")
    });
    out.final_loss = f64::from(last);
    out.fail_ratio = out.failures.len() as f64 / expected.max(1) as f64;
    out.counts.insert(
        "split.comm.bytes_per_step",
        comm.total_bytes() as f64 / steps.max(1) as f64,
    );
    out
}

fn run_async(
    mut trainer: AsyncSplitTrainer,
    test: &ImageDataset,
    rec: Option<&Arc<Recorder>>,
) -> Outcome {
    if let Some(rec) = rec {
        for (i, c) in trainer.clients_mut().iter_mut().enumerate() {
            wrap_model(c.model_mut(), rec, &format!("client{i}"), 0);
        }
    }
    let mut out = Outcome::default();
    let expected: u64 = trainer
        .clients_mut()
        .iter()
        .map(|c| (c.batches_per_epoch() * async_wan::EPOCHS) as u64)
        .sum();
    let start = Instant::now();
    let result = {
        let _p = phase(rec, "run", 0);
        trainer.try_run(test)
    };
    let secs = start.elapsed().as_secs_f64();
    let sent: u64 = trainer.clients_mut().iter().map(|c| c.batches_sent()).sum();
    let applied: u64 = trainer
        .clients_mut()
        .iter()
        .map(|c| c.grads_applied())
        .sum();
    out.attempted = sent;
    let report = match result {
        Ok(report) => report,
        Err(lost) => {
            out.failures.push(format!("quorum lost: {lost:?}"));
            out.fail_ratio = 1.0;
            return out;
        }
    };
    let served: u64 = report.served_per_client.iter().sum();
    out.steps = served;
    out.train
        .push(((served as usize * async_wan::BATCH) as f64, secs));
    out.fingerprint = serde_json::to_string(&report).expect("reports serialize");
    out.check(sent == expected, || {
        format!("{sent} batches sent, expected {expected}")
    });
    // Every batch ends applied or lost. A batch whose gradient is lost on
    // the downlink was still served, so `served` may exceed `applied`.
    out.check(applied + report.batches_lost == sent, || {
        format!(
            "applied {applied} + lost {} != sent {sent}",
            report.batches_lost
        )
    });
    out.check(applied <= served && served <= sent, || {
        format!("served {served} outside applied {applied} ..= sent {sent}")
    });
    let accuracy = f64::from(report.final_accuracy);
    out.check(accuracy > 0.1, || {
        format!("accuracy {accuracy} not above chance")
    });
    out.test_accuracy = accuracy;
    out.fail_ratio = report.batches_lost as f64 / sent.max(1) as f64;
    let per_batch = |n: u64| n as f64 / served.max(1) as f64;
    out.counts.insert(
        "split.comm.bytes_per_step",
        per_batch(report.comm.total_bytes()),
    );
    out.counts.insert(
        "split.codec.frames_per_batch",
        per_batch(report.corrupted_payloads),
    );
    out.counts
        .insert("split.retries_per_batch", per_batch(report.retransmits));
    out.counts.insert(
        "telemetry.snapshots_per_run",
        report.snapshots_emitted as f64,
    );
    // The trainer evaluates inside `run`; time the same call on its
    // trained encoders and an upper model of the same shape.
    let (_, server_model) = CnnArch::tiny().build_split(CutPoint(1), 0);
    let mut server = CentralServer::new(server_model, Box::new(Sgd::new(0.01)), 1);
    let clients = trainer.clients_mut();
    let start = Instant::now();
    for c in clients.iter_mut() {
        server.evaluate_with_encoder(test, async_wan::EVAL_BATCH, |x| c.encode(x));
    }
    out.eval.push((
        (clients.len() * test.len()) as f64,
        start.elapsed().as_secs_f64(),
    ));
    out
}

fn run_fleet(
    mut trainer: FleetTrainer,
    test: &ImageDataset,
    rec: Option<&Arc<Recorder>>,
) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();
    let report = {
        let _p = phase(rec, "run", 0);
        trainer.run(test)
    };
    let secs = start.elapsed().as_secs_f64();
    out.steps = report.cohort_steps;
    out.attempted = report.sends_attempted;
    out.train.push((
        (report.cohort_steps as usize * fleet_100k::BATCH) as f64,
        secs,
    ));
    out.events_per_s = report.events_processed as f64 / secs;
    out.fingerprint = serde_json::to_string(&report).expect("reports serialize");
    out.check(report.cohort_steps > 0, || "no cohort step ran".to_string());
    let accounted = report.served + report.shed + report.admission_rejected;
    out.check(accounted <= report.sends_attempted, || {
        format!(
            "served + shed + rejected = {accounted} exceeds {} sends",
            report.sends_attempted
        )
    });
    out.test_accuracy = f64::from(report.final_accuracy);
    out.check(out.test_accuracy.is_finite(), || {
        "non-finite accuracy".into()
    });
    let lost = report.shed + report.admission_rejected;
    out.fail_ratio = lost as f64 / report.sends_attempted.max(1) as f64;
    out.counts.insert(
        "split.fleet.events_per_step",
        report.events_processed as f64 / report.cohort_steps.max(1) as f64,
    );
    out.counts.insert(
        "split.fleet.shed_ratio",
        report.shed as f64 / report.sends_attempted.max(1) as f64,
    );
    out.counts.insert(
        "telemetry.snapshots_per_run",
        report.snapshots_emitted as f64,
    );
    // The fleet evaluates its cohort encoders inside `run`; time the same
    // call at the same shapes on freshly built encoders.
    let arch = CnnArch::tiny();
    let (_, server_model) = arch.build_split(CutPoint(1), 0);
    let mut server = CentralServer::new(server_model, Box::new(Sgd::new(0.05)), 1);
    let mut encoders: Vec<_> = (0..fleet_100k::COHORTS as u64)
        .map(|c| arch.build_split(CutPoint(1), c).0)
        .collect();
    let start = Instant::now();
    for encoder in &mut encoders {
        server.evaluate_with_encoder(test, fleet_100k::BATCH, |x| encoder.forward(x, Mode::Eval));
    }
    out.eval.push((
        (encoders.len() * test.len()) as f64,
        start.elapsed().as_secs_f64(),
    ));
    out
}
