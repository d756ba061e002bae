//! Fleet-scale simulation: 10k–100k+ end-systems on one machine.
//!
//! The paper's premise is *many* spatially distributed end-systems
//! feeding one centralized server, but a faithful per-client model
//! replica at 100k clients would need hundreds of gigabytes. This
//! module makes fleet scale tractable with four moves (DESIGN.md §15):
//!
//! 1. **Calendar event queue** — the simulation loop runs on
//!    [`stsl_simnet::EventQueue`], whose calendar backing keeps
//!    per-event cost O(1) amortized at 100k+ pending events.
//! 2. **Cohort-sharded client state** — N end-systems share K
//!    [`EndSystem`] model replicas (one per cohort, each trained on its
//!    own data shard, each with its own init seed), preserving the
//!    paper's per-client divergence mechanism *per cohort*. Memory for
//!    model state is O(K·model); each end-system keeps only a slim
//!    [`FleetMember`] record — identity, admission bucket, liveness,
//!    counters — so faults, membership, and admission control still
//!    operate per end-system.
//! 3. **Streamed batched ingress** — arrivals flow through the same
//!    admission machinery PR 6 built for churn: per-end-system
//!    [`TokenBucket`]s, a bounded [`ArrivalQueue`] with oldest-first
//!    shedding, and a server that drains in batches instead of
//!    per-event wakeups.
//! 4. **Per-cohort telemetry** — queue depth, staleness, service time
//!    and cohort size are keyed by *cohort* id, so a snapshot is
//!    O(cohorts) regardless of N.
//!
//! Everything derives from simulated time and seed-derived hashes (no
//! RNG objects, no wall clock), so a [`FleetReport`] is byte-identical
//! across `STSL_THREADS` values.

use crate::client::EndSystem;
use crate::config::{OptimizerKind, SplitConfig};
use crate::protocol::ActivationMsg;
use crate::report::FleetReport;
use crate::scheduler::{ArrivalJob, ArrivalQueue, SchedulingPolicy, TokenBucket};
use crate::server::CentralServer;
use stsl_data::ImageDataset;
use stsl_simnet::{EndSystemId, EventLog, EventQueue, SimDuration, SimTime};
use stsl_telemetry::{EventKind, MetricId, TelemetryHub};
use stsl_tensor::init::derive_seed;

use crate::model::{CnnArch, CutPoint};

/// Uplink latency classes end-systems are hashed into: LAN, regional,
/// continental, intercontinental (microseconds).
const LATENCY_CLASSES_US: [u64; 4] = [5_000, 20_000, 60_000, 120_000];

/// Real training steps each cohort takes in a [`FleetConfig::smoke`] run,
/// give or take the arrivals lost to departures and admission control.
const SMOKE_STEPS_PER_COHORT: u64 = 16;

/// Configuration of a fleet run. Everything is deterministic given
/// `seed`; per-end-system variation comes from seed-derived hashes.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Simulated end-systems (N).
    pub clients: usize,
    /// Cohort model replicas shared across them (K).
    pub cohorts: usize,
    /// Network architecture of the cohort replicas.
    pub arch: CnnArch,
    /// Cut depth in blocks.
    pub cut: CutPoint,
    /// Mini-batch size at each cohort replica.
    pub batch_size: usize,
    /// Learning rate (plain SGD on both halves).
    pub learning_rate: f32,
    /// Master seed; everything else derives from it.
    pub seed: u64,
    /// Uplink sends each end-system attempts before going quiet.
    pub sends_per_client: u32,
    /// Admitted arrivals a cohort accumulates before running one real
    /// training step on its shared replica — the knob that decouples
    /// model compute from fleet size.
    pub arrivals_per_step: u64,
    /// Mean think time between an end-system's sends, microseconds.
    pub think_us: u64,
    /// Server drain cadence: one ingress batch per this interval.
    pub serve_interval_us: u64,
    /// Jobs the server consumes per drain (the streamed ingress batch).
    pub ingress_batch: usize,
    /// Bound on the arrival queue; excess sheds oldest-first.
    pub queue_capacity: usize,
    /// Per-end-system admission rate, tokens per simulated second.
    pub admission_rate: u64,
    /// Per-end-system admission burst, tokens.
    pub admission_burst: u64,
    /// Simulated service time recorded per real cohort step, µs.
    pub step_service_us: u64,
    /// Telemetry snapshot cadence, microseconds.
    pub snapshot_every_us: u64,
    /// Per-mille of end-systems that depart mid-run (hash-selected).
    pub leave_permille: u32,
}

impl FleetConfig {
    /// A CI-scale preset: `clients` end-systems in 8 cohorts on the tiny
    /// architecture, a few sends each — finishes in seconds at 1k–100k
    /// clients. The step cadence is derived from the arrivals one cohort
    /// is served, so every cohort takes about 16 real training steps at
    /// any fleet size.
    pub fn smoke(clients: usize) -> Self {
        let mut cfg = FleetConfig {
            clients,
            cohorts: 8.min(clients.max(1)),
            arch: CnnArch::tiny(),
            cut: CutPoint(1),
            batch_size: 8,
            learning_rate: 0.05,
            seed: 17,
            sends_per_client: 4,
            arrivals_per_step: 1,
            think_us: 200_000,
            serve_interval_us: 2_000,
            ingress_batch: 64,
            queue_capacity: 4_096,
            admission_rate: 20,
            admission_burst: 4,
            step_service_us: 3_000,
            snapshot_every_us: 100_000,
            leave_permille: 50,
        };
        // Served arrivals are bounded by the sends and by what the server
        // drains, one ingress batch per interval, over the send horizon
        // (each think time is at most 1.5 × `think_us`).
        let sends = clients as u64 * cfg.sends_per_client as u64;
        let horizon_us = cfg.sends_per_client as u64 * cfg.think_us * 3 / 2;
        let drain = cfg.ingress_batch as u64 * (horizon_us / cfg.serve_interval_us);
        let served_per_cohort = sends.min(drain) / cfg.cohorts as u64;
        cfg.arrivals_per_step = (served_per_cohort / SMOKE_STEPS_PER_COHORT).max(1);
        cfg
    }

    /// The cross-validation preset both `scale_sweep` and `fleet_sweep`
    /// run: 64 end-systems in 4 cohorts. The two benches sharing this
    /// exact configuration is what makes their overlapping row
    /// comparable point-for-point.
    pub fn crossval64() -> Self {
        FleetConfig {
            clients: 64,
            cohorts: 4,
            arrivals_per_step: 8,
            leave_permille: 0,
            ..FleetConfig::smoke(64)
        }
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.clients == 0 {
            return Err("clients must be >= 1".into());
        }
        if self.cohorts == 0 || self.cohorts > self.clients {
            return Err(format!(
                "cohorts must be in 1..={} (got {})",
                self.clients, self.cohorts
            ));
        }
        if self.batch_size == 0 {
            return Err("batch_size must be >= 1".into());
        }
        if self.ingress_batch == 0 {
            return Err("ingress_batch must be >= 1".into());
        }
        if self.queue_capacity == 0 {
            return Err("queue_capacity must be >= 1".into());
        }
        if self.arrivals_per_step == 0 {
            return Err("arrivals_per_step must be >= 1".into());
        }
        if self.think_us == 0 || self.serve_interval_us == 0 {
            return Err("think_us and serve_interval_us must be >= 1".into());
        }
        if self.snapshot_every_us == 0 {
            return Err("snapshot_every_us must be >= 1".into());
        }
        if self.leave_permille > 1000 {
            return Err("leave_permille must be <= 1000".into());
        }
        Ok(())
    }
}

/// Slim per-end-system record: everything the fleet tracks per client
/// *besides* the shared cohort replica. Its size is the O(N·small) term
/// of the memory budget, reported as
/// [`FleetReport::per_client_state_bytes`].
#[derive(Debug, Clone, Copy)]
struct FleetMember {
    /// Which cohort replica this end-system trains through.
    cohort: u32,
    /// Latency class index into [`LATENCY_CLASSES_US`].
    latency_class: u8,
    /// Whether the end-system is still in the fleet.
    active: bool,
    /// Uplink sends attempted so far.
    sends_done: u32,
    /// Per-end-system admission control (PR 6's token bucket).
    bucket: TokenBucket,
}

/// A queued fleet arrival: tensor-free, a few dozen bytes. The *sender*
/// for queue accounting (round-robin fairness, telemetry actor keys) is
/// the **cohort**, which is what keeps the queue's bookkeeping and the
/// telemetry registry O(cohorts); the true per-end-system identity rides
/// in [`FleetJob::from`] for membership and admission decisions.
#[derive(Debug, Clone, Copy)]
pub struct FleetJob {
    /// The actual originating end-system.
    pub from: EndSystemId,
    /// The cohort whose replica will consume this arrival.
    pub cohort: u32,
}

impl ArrivalJob for FleetJob {
    fn sender(&self) -> EndSystemId {
        EndSystemId(self.cohort as usize)
    }
}

/// Simulation events. Tensor-free: real training work happens only when
/// a cohort's admitted-arrival credit fills.
#[derive(Debug, Clone, Copy)]
enum FleetEvent {
    /// End-system `i` attempts an uplink send.
    Send(u32),
    /// End-system `i`'s job reaches server ingress.
    Arrival(u32),
    /// The server drains one ingress batch.
    ServerWake,
    /// End-system `i` departs the fleet.
    Depart(u32),
    /// Periodic telemetry snapshot.
    Snapshot,
}

/// The fleet simulator: cohort-sharded clients, batched admission-
/// controlled ingress, per-cohort telemetry.
#[derive(Debug)]
pub struct FleetTrainer {
    config: FleetConfig,
    members: Vec<FleetMember>,
    /// One shared model replica per cohort.
    replicas: Vec<EndSystem>,
    /// Admitted arrivals accumulated towards the next real step.
    step_credit: Vec<u64>,
    /// Live end-systems per cohort (for `CohortSize` sampling).
    live: Vec<u64>,
    server: CentralServer,
    queue: ArrivalQueue<FleetJob>,
    events: EventQueue<FleetEvent>,
    /// Cohort steps, departures and snapshots, with the (always
    /// attached) per-cohort telemetry hub.
    log: EventLog,
    server_busy: bool,
    events_processed: u64,
    sends_attempted: u64,
    admission_rejected: u64,
    served: u64,
}

impl FleetTrainer {
    /// Builds the fleet: K cohort replicas over a K-way partition of
    /// `train`, N slim member records hashed onto cohorts and latency
    /// classes, and the bounded admission-controlled ingress queue.
    ///
    /// # Errors
    ///
    /// Returns a message if the configuration is inconsistent or the
    /// dataset is too small to shard K ways.
    pub fn new(config: FleetConfig, train: &ImageDataset) -> Result<Self, String> {
        config.validate()?;
        if train.len() < config.cohorts {
            return Err(format!(
                "{} samples cannot shard across {} cohorts",
                train.len(),
                config.cohorts
            ));
        }
        let (server, replicas) = SplitConfig::new(config.cut, config.cohorts)
            .arch(config.arch.clone())
            .batch_size(config.batch_size)
            .learning_rate(config.learning_rate)
            .optimizer(OptimizerKind::Sgd { momentum: 0.0 })
            .seed(config.seed)
            .build_deployment(train);
        let mut live = vec![0u64; config.cohorts];
        let members: Vec<FleetMember> = (0..config.clients)
            .map(|i| {
                let cohort = (i % config.cohorts) as u32;
                live[cohort as usize] += 1;
                FleetMember {
                    cohort,
                    latency_class: (derive_seed(config.seed, 2000 + i as u64)
                        % LATENCY_CLASSES_US.len() as u64) as u8,
                    active: true,
                    sends_done: 0,
                    bucket: TokenBucket::new(config.admission_rate, config.admission_burst),
                }
            })
            .collect();
        let queue = ArrivalQueue::new(SchedulingPolicy::Fifo, config.cohorts)
            .with_capacity(config.queue_capacity);
        let step_credit = vec![0; config.cohorts];
        let mut log = EventLog::new();
        log.attach_hub(TelemetryHub::new(256));
        Ok(FleetTrainer {
            members,
            replicas,
            step_credit,
            live,
            server,
            queue,
            events: EventQueue::new(),
            log,
            server_busy: false,
            events_processed: 0,
            sends_attempted: 0,
            admission_rejected: 0,
            served: 0,
            config,
        })
    }

    /// A pure per-end-system hash stream: deterministic jitter without
    /// any RNG object (`derive_seed` is the workspace's sanctioned
    /// seed-mixing primitive, used here as a hash).
    fn jitter(&self, stream: u64, modulus: u64) -> u64 {
        derive_seed(self.config.seed, stream) % modulus.max(1)
    }

    /// The uplink latency of end-system `i`'s send number `n`.
    fn uplink_latency(&self, i: u32, n: u32) -> SimDuration {
        let base = LATENCY_CLASSES_US[self.members[i as usize].latency_class as usize];
        let jitter = self.jitter(3_000_000 + i as u64 * 1_009 + n as u64, base / 4 + 1);
        SimDuration::from_micros(base + jitter)
    }

    /// Bytes of model parameters across all cohort replicas plus the
    /// server's upper model — the O(cohorts) memory term.
    pub fn model_bytes(&mut self) -> u64 {
        let mut total = self.server.model_mut().param_count() as u64 * 4;
        for r in &mut self.replicas {
            total += r.model_mut().param_count() as u64 * 4;
        }
        total
    }

    /// Bytes of slim per-end-system state — the O(N·small) memory term.
    pub fn per_client_state_bytes(&self) -> u64 {
        (self.members.len() * std::mem::size_of::<FleetMember>()) as u64
    }

    /// The telemetry hub (per-cohort metric actors only).
    pub fn telemetry(&self) -> Option<&TelemetryHub> {
        self.log.hub()
    }

    /// Runs the simulation to completion and evaluates cohort encoders
    /// on `test`.
    pub fn run(&mut self, test: &ImageDataset) -> FleetReport {
        // Seed the event horizon: staggered first sends, hash-selected
        // departures, the first snapshot tick.
        for i in 0..self.config.clients as u32 {
            let offset = self.jitter(4_000_000 + i as u64, self.config.think_us);
            self.events
                .schedule(SimTime::from_micros(offset), FleetEvent::Send(i));
        }
        if self.config.leave_permille > 0 {
            let horizon = self.config.think_us * self.config.sends_per_client.max(1) as u64;
            for i in 0..self.config.clients as u32 {
                if self.jitter(5_000_000 + i as u64, 1000) < self.config.leave_permille as u64 {
                    let at = self.jitter(6_000_000 + i as u64, horizon);
                    self.events
                        .schedule(SimTime::from_micros(at), FleetEvent::Depart(i));
                }
            }
        }
        self.events.schedule(
            SimTime::from_micros(self.config.snapshot_every_us),
            FleetEvent::Snapshot,
        );

        while let Some((now, ev)) = self.events.pop() {
            self.events_processed += 1;
            match ev {
                FleetEvent::Send(i) => self.on_send(now, i),
                FleetEvent::Arrival(i) => self.on_arrival(now, i),
                FleetEvent::ServerWake => self.on_server_wake(now),
                FleetEvent::Depart(i) => self.on_depart(now, i),
                FleetEvent::Snapshot => self.on_snapshot(now),
            }
        }

        self.finish(test)
    }

    fn on_send(&mut self, now: SimTime, i: u32) {
        let m = self.members[i as usize];
        if !m.active || m.sends_done >= self.config.sends_per_client {
            return;
        }
        self.members[i as usize].sends_done += 1;
        self.sends_attempted += 1;
        let n = m.sends_done;
        let arrive_at = now + self.uplink_latency(i, n);
        self.events.schedule(arrive_at, FleetEvent::Arrival(i));
        if n < self.config.sends_per_client {
            let think = self.config.think_us
                + self.jitter(
                    7_000_000 + i as u64 * 1_013 + n as u64,
                    self.config.think_us / 2 + 1,
                );
            self.events
                .schedule(now + SimDuration::from_micros(think), FleetEvent::Send(i));
        }
    }

    fn on_arrival(&mut self, now: SimTime, i: u32) {
        let m = &mut self.members[i as usize];
        if !m.active {
            return;
        }
        if !m.bucket.try_take(now) {
            self.admission_rejected += 1;
            return;
        }
        let job = FleetJob {
            from: EndSystemId(i as usize),
            cohort: m.cohort,
        };
        // Bounded ingress: oldest pending jobs shed under overload; the
        // post-insert depth lands in telemetry keyed by cohort.
        self.queue.push_shed(now, job);
        let depth = self.queue.depth() as u64;
        self.log.observe(MetricId::QueueDepth, job.sender(), depth);
        if !self.server_busy {
            self.server_busy = true;
            let at = now + SimDuration::from_micros(self.config.serve_interval_us);
            self.events.schedule(at, FleetEvent::ServerWake);
        }
    }

    fn on_server_wake(&mut self, now: SimTime) {
        // Streamed batched ingress: drain up to one batch per wake
        // instead of waking per arrival.
        for _ in 0..self.config.ingress_batch {
            let (job, _) = self.queue.pop(now);
            let Some(job) = job else { break };
            let staleness = now.since(job.arrived_at).as_micros();
            self.log
                .observe(MetricId::GradientStaleness, job.msg.sender(), staleness);
            self.served += 1;
            let c = job.msg.cohort as usize;
            self.step_credit[c] += 1;
            if self.step_credit[c] >= self.config.arrivals_per_step {
                self.step_credit[c] = 0;
                self.cohort_step(now, c);
            }
        }
        if self.queue.is_empty() {
            self.server_busy = false;
        } else {
            let at = now + SimDuration::from_micros(self.config.serve_interval_us);
            self.events.schedule(at, FleetEvent::ServerWake);
        }
    }

    /// One real training step on cohort `c`'s shared replica: forward
    /// to the cut, server forward/backward, gradient applied straight
    /// back. This is where the paper's learning actually happens; its
    /// cost is O(cohort_steps), not O(arrivals).
    fn cohort_step(&mut self, now: SimTime, c: usize) {
        let msg: ActivationMsg = match self.replicas[c].next_batch() {
            Some(m) => m,
            None => {
                let replica = &mut self.replicas[c];
                replica.begin_epoch(replica.epoch() + 1);
                match replica.next_batch() {
                    Some(m) => m,
                    None => return, // empty shard: nothing to train
                }
            }
        };
        let Ok(out) = self.server.process(&msg, None) else {
            self.replicas[c].abandon_outstanding();
            return;
        };
        let service_us = self.config.step_service_us;
        self.log
            .observe(MetricId::ServiceTime, EndSystemId(c), service_us);
        if self.replicas[c].apply_gradient(&out.gradient).is_err() {
            self.replicas[c].abandon_outstanding();
        }
        self.log.record(now, EventKind::CohortStep, EndSystemId(c));
    }

    fn on_depart(&mut self, now: SimTime, i: u32) {
        let m = &mut self.members[i as usize];
        if m.active {
            m.active = false;
            self.live[m.cohort as usize] = self.live[m.cohort as usize].saturating_sub(1);
            self.log
                .record(now, EventKind::ClientLeave, EndSystemId(i as usize));
        }
    }

    fn on_snapshot(&mut self, now: SimTime) {
        // O(cohorts) per tick: one CohortSize sample per cohort, then
        // the registry snapshot (whose actors are all cohort-keyed).
        for (c, &n) in self.live.iter().enumerate() {
            self.log.observe(MetricId::CohortSize, EndSystemId(c), n);
        }
        // Server-scoped events use the id one past the last end-system.
        self.log.snapshot(now, EndSystemId(self.config.clients));
        // Tick liveness: only reschedule while real work is pending,
        // so a drained simulation actually terminates. This tick was the
        // only snapshot queued, so whatever is left is real work.
        if !self.events.is_empty() {
            self.events.schedule(
                now + SimDuration::from_micros(self.config.snapshot_every_us),
                FleetEvent::Snapshot,
            );
        }
    }

    fn finish(&mut self, test: &ImageDataset) -> FleetReport {
        let per_cohort_accuracy =
            self.server
                .evaluate_encoders(test, self.config.batch_size, &mut self.replicas);
        let final_accuracy = stsl_tensor::mean_f32(&per_cohort_accuracy);
        let sim_seconds = self.events.now().as_micros() as f64 / 1e6;
        let events_per_sim_sec = if sim_seconds > 0.0 {
            self.events_processed as f64 / sim_seconds
        } else {
            0.0
        };
        let model_bytes = self.model_bytes();
        FleetReport {
            clients: self.config.clients,
            cohorts: self.config.cohorts,
            sim_seconds,
            events_processed: self.events_processed,
            events_per_sim_sec,
            sends_attempted: self.sends_attempted,
            admission_rejected: self.admission_rejected,
            shed: self.queue.shed(),
            served: self.served,
            cohort_steps: self.log.count(EventKind::CohortStep),
            mean_queue_depth: self.queue.mean_depth(),
            max_queue_depth: self.queue.max_depth(),
            mean_staleness_ms: self.queue.mean_wait().as_micros() as f64 / 1e3,
            final_accuracy,
            per_cohort_accuracy,
            model_bytes,
            per_client_state_bytes: self.per_client_state_bytes(),
            departures: self.log.count(EventKind::ClientLeave),
            snapshots_emitted: self.log.count(EventKind::SnapshotEmit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stsl_data::SyntheticCifar;

    fn data(n: usize) -> ImageDataset {
        SyntheticCifar::new(3)
            .difficulty(0.05)
            .generate_sized(n, 16)
    }

    fn quick_config(clients: usize) -> FleetConfig {
        FleetConfig {
            cohorts: 4,
            sends_per_client: 2,
            arrivals_per_step: (clients as u64 / 4).max(1),
            ..FleetConfig::smoke(clients)
        }
    }

    #[test]
    fn fleet_runs_and_reports() {
        let train = data(64);
        let test = data(16);
        let mut fleet = FleetTrainer::new(quick_config(100), &train).unwrap();
        let report = fleet.run(&test);
        assert_eq!(report.clients, 100);
        assert_eq!(report.cohorts, 4);
        assert!(report.sends_attempted > 0);
        assert!(report.served > 0);
        assert!(report.cohort_steps > 0, "real training must happen");
        assert!(report.sim_seconds > 0.0);
        assert!(report.snapshots_emitted > 0);
        assert_eq!(report.per_cohort_accuracy.len(), 4);
        // Cohort steps are counted but kept out of the journal.
        let hub = fleet.telemetry().expect("fleet hub");
        assert_eq!(hub.journal_log().count(EventKind::CohortStep), 0);
        assert!(hub.journal_log().count(EventKind::SnapshotEmit) > 0);
        // Every snapshot samples every cohort's size.
        for c in 0..report.cohorts as u64 {
            let sizes = hub.registry().histogram(MetricId::CohortSize, c);
            assert!(sizes.is_some_and(|h| h.count() > 0), "cohort {c} size");
        }
    }

    #[test]
    fn smoke_steps_every_cohort() {
        let mut fleet = FleetTrainer::new(FleetConfig::smoke(1_000), &data(320)).unwrap();
        let report = fleet.run(&data(16));
        assert!(report.cohort_steps >= report.cohorts as u64);
        for (c, replica) in fleet.replicas.iter().enumerate() {
            assert!(
                replica.grads_applied() >= SMOKE_STEPS_PER_COHORT / 2,
                "cohort {c} took only {} steps",
                replica.grads_applied()
            );
        }
    }

    #[test]
    fn fleet_is_deterministic() {
        let train = data(64);
        let test = data(16);
        let run = || {
            let mut fleet = FleetTrainer::new(quick_config(200), &train).unwrap();
            let r = fleet.run(&test);
            format!("{r:?}")
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn model_memory_is_o_cohorts_not_o_clients() {
        let train = data(64);
        let mut small = FleetTrainer::new(quick_config(100), &train).unwrap();
        let mut large = FleetTrainer::new(quick_config(1_000), &train).unwrap();
        // Same K => identical model bytes, regardless of a 10x client gap.
        assert_eq!(small.model_bytes(), large.model_bytes());
        // Per-client state is slim and linear.
        assert_eq!(
            large.per_client_state_bytes(),
            10 * small.per_client_state_bytes()
        );
        let per_client = large.per_client_state_bytes() / 1_000;
        assert!(
            per_client <= 128,
            "FleetMember grew to {per_client} bytes; keep it slim"
        );
    }

    #[test]
    fn telemetry_actors_are_cohort_keyed() {
        let train = data(64);
        let test = data(16);
        let mut fleet = FleetTrainer::new(quick_config(300), &train).unwrap();
        fleet.run(&test);
        let snap = fleet
            .telemetry()
            .and_then(|hub| hub.latest_snapshot())
            .expect("snapshots");
        for metric in &snap.metrics {
            for series in &metric.series {
                assert!(
                    series.actor < 4,
                    "{:?} actor {} is not a cohort id",
                    metric.metric,
                    series.actor
                );
            }
        }
    }

    #[test]
    fn departures_shrink_cohorts() {
        let train = data(64);
        let test = data(16);
        let mut cfg = quick_config(400);
        cfg.leave_permille = 300;
        let mut fleet = FleetTrainer::new(cfg, &train).unwrap();
        let report = fleet.run(&test);
        assert!(report.departures > 0);
        let live_total: u64 = fleet.live.iter().sum();
        assert_eq!(live_total, 400 - report.departures);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(FleetConfig {
            cohorts: 0,
            ..FleetConfig::smoke(10)
        }
        .validate()
        .is_err());
        assert!(FleetConfig {
            cohorts: 11,
            ..FleetConfig::smoke(10)
        }
        .validate()
        .is_err());
        assert!(FleetConfig {
            leave_permille: 1001,
            ..FleetConfig::smoke(10)
        }
        .validate()
        .is_err());
        assert!(FleetConfig::smoke(10).validate().is_ok());
    }
}
