//! The asynchronous, network-simulated spatio-temporal trainer.
//!
//! Where [`crate::SpatioTemporalTrainer`] idealizes the network away, this
//! trainer runs the same protocol over a [`stsl_simnet`] star topology in
//! simulated time: activations and gradients take real (sampled) transfer
//! times, the server has a finite per-batch service time, and arrivals
//! wait in an [`crate::ArrivalQueue`] governed by a
//! [`crate::SchedulingPolicy`]. This is the machinery behind experiment E4
//! (queueing/staleness/scheduling) and the latency half of E5.
//!
//! # Fault tolerance
//!
//! The trainer survives a [`FaultPlan`] of scheduled fault episodes (link
//! outages, loss surges, latency spikes, client crashes, server stalls):
//!
//! * **Retransmission** — a lost activation or gradient message is resent
//!   under a [`RetryPolicy`] (exponential backoff + jitter); only when the
//!   retry budget is exhausted is the batch abandoned and counted lost.
//! * **Liveness tracking** — the server keeps one last-seen clock per
//!   active end-system with work left, moves members silent past the
//!   timeout from `Active` to `Suspect` (counted as dead), and re-admits
//!   them on their next uplink; the epoch keeps progressing with the
//!   survivors (graceful quorum degradation).
//! * **Crash / recover** — a crashed end-system loses its outstanding
//!   batch and its in-flight messages; on recovery it restores its private
//!   layers from the last auto-checkpoint (if any) and resumes from its
//!   persisted data-loader position.
//! * **Auto-checkpointing** — with
//!   [`AsyncSplitTrainer::with_auto_checkpoint`], the full deployment
//!   state is snapshotted every interval of simulated time into a
//!   [`CheckpointRing`]; the newest snapshot drives crash recovery and is
//!   available afterwards via [`AsyncSplitTrainer::last_checkpoint`].
//! * **Data-plane integrity** — with
//!   [`AsyncSplitTrainer::with_integrity_guard`], corrupted frames are
//!   rejected at the receiving edge (the wire format's CRC), incoming
//!   activations are validated before they touch the shared model,
//!   repeat offenders are quarantined with probationary rejoin, and a
//!   health watchdog rolls the deployment back through the checkpoint
//!   ring when training diverges anyway.

use crate::aggregate::AggregationPolicy;
use crate::checkpoint::{Checkpoint, CheckpointRing};
use crate::client::EndSystem;
use crate::config::{DeadlineConfig, OverloadConfig, SplitConfig};
use crate::guard::{
    tensor_rms, GuardConfig, HealthWatchdog, QuarantineStatus, QuarantineTracker, LR_COOLDOWN,
};
use crate::membership::{Membership, MembershipState, QuorumLost};
use crate::protocol::{ActivationMsg, GradientMsg};
use crate::report::{AsyncReport, CommReport};
use crate::resilience::{BreakerDecision, CircuitBreaker, RetryPolicy};
use crate::scheduler::{ArrivalQueue, SchedulingPolicy, TokenBucket};
use crate::server::CentralServer;
use crate::trainer::ConfigError;
use bytes::Bytes;
use rand::Rng;
use stsl_data::ImageDataset;
use stsl_simnet::{
    corrupt_payload, AttackSpec, EndSystemId, EventLog, EventQueue, FaultPlan, SimDuration,
    SimTime, StarTopology, Telemetry, TraceLog,
};
use stsl_telemetry::{EventKind, MetricId};
use stsl_tensor::init::{derive_seed, rng_from_seed};
use stsl_tensor::Tensor;

/// Timing knobs of the simulated deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeModel {
    /// Time an end-system needs to forward one batch through its private
    /// layers (and to apply a returned gradient).
    pub client_batch: SimDuration,
    /// Time the server needs to process one batch (forward + backward +
    /// step).
    pub server_batch: SimDuration,
}

impl Default for ComputeModel {
    fn default() -> Self {
        ComputeModel {
            client_batch: SimDuration::from_millis(5),
            server_batch: SimDuration::from_millis(3),
        }
    }
}

/// A protocol message on one end-system's link: smashed activations on
/// their way up to the server, or a cut-layer gradient on its way down.
/// Both directions share one send path.
#[derive(Debug)]
enum Msg {
    Up(ActivationMsg),
    Down(GradientMsg),
}

impl Msg {
    /// The end-system at the far end of the message's link.
    fn peer(&self) -> EndSystemId {
        match self {
            Msg::Up(m) => m.from,
            Msg::Down(m) => m.to,
        }
    }

    fn encoded_len(&self) -> usize {
        match self {
            Msg::Up(m) => m.encoded_len(),
            Msg::Down(m) => m.encoded_len(),
        }
    }

    fn encode(&self) -> Bytes {
        match self {
            Msg::Up(m) => m.encode(),
            Msg::Down(m) => m.encode(),
        }
    }
}

/// A periodic housekeeping event.
#[derive(Debug, Clone, Copy)]
enum Tick {
    /// Auto-checkpoint.
    Checkpoint,
    /// Telemetry snapshot.
    Snapshot,
    /// Round deadline: check round progress and, with enough quorum,
    /// abandon the stragglers' outstanding batches.
    Deadline,
}

#[derive(Debug)]
enum Event {
    /// A message reached its receiver: activations at the server, or a
    /// gradient at its end-system.
    Deliver(Msg),
    /// The server finished a batch (or a stall ended) and can pick the
    /// next queued one.
    ServerFree,
    /// A lost message is retransmitted. `failures` counts the send
    /// attempts that have already failed.
    Retry { msg: Msg, failures: u32 },
    /// A frame arrived garbled and was detected at the receiving edge;
    /// `msg` is the original for retransmission.
    Corrupt { msg: Msg, failures: u32 },
    /// A breaker-deferred send is re-attempted when its link half-opens.
    /// Unlike [`Event::Retry`] nothing was lost, so it is not counted as
    /// a retransmission.
    Probe { msg: Msg, failures: u32 },
    /// A client's outstanding batch is lost for good; abandon it and move
    /// on to the next one.
    BatchAbandon(EndSystemId),
    /// A scheduled fault crashes the end-system.
    ClientCrash(EndSystemId),
    /// A crashed end-system comes back up.
    ClientRecover(EndSystemId),
    /// A scheduled joiner is admitted to the fleet mid-training.
    MemberJoin(EndSystemId),
    /// A member departs the fleet for good (until a scheduled rejoin).
    MemberLeave(EndSystemId),
    /// A departed member re-admits and resyncs from its last acked batch.
    MemberRejoin(EndSystemId),
    /// A periodic housekeeping tick.
    Tick(Tick),
}

impl Event {
    /// The end-system whose batch this event carries or abandons. Such an
    /// event is void once that end-system has crashed (its forward cache
    /// is gone) or left the fleet (its batch is replayed if it rejoins).
    fn end_system(&self) -> Option<EndSystemId> {
        match self {
            Event::Deliver(msg)
            | Event::Retry { msg, .. }
            | Event::Corrupt { msg, .. }
            | Event::Probe { msg, .. } => Some(msg.peer()),
            Event::BatchAbandon(id) => Some(*id),
            _ => None,
        }
    }
}

/// Asynchronous trainer over a simulated network.
#[derive(Debug)]
pub struct AsyncSplitTrainer {
    config: SplitConfig,
    topology: StarTopology,
    policy: SchedulingPolicy,
    compute: ComputeModel,
    server: CentralServer,
    clients: Vec<EndSystem>,
    link_rngs: Vec<rand::rngs::StdRng>,
    retry_rng: rand::rngs::StdRng,
    /// Every protocol event goes through here: the counter bank behind
    /// the report, the optional trace and the optional telemetry.
    log: EventLog,
    // Configuration set by the builders.
    fault_plan: FaultPlan,
    retry: RetryPolicy,
    liveness_timeout: SimDuration,
    checkpoint_every: Option<SimDuration>,
    guard: Option<GuardConfig>,
    telemetry_every: Option<SimDuration>,
    overload: Option<OverloadConfig>,
    deadlines: Option<DeadlineConfig>,
    /// The window size [`AsyncSplitTrainer::with_robust_aggregation`]
    /// configured; the live window shrinks below it while senders sit in
    /// quarantine (0 = robust aggregation off).
    robust_window_base: usize,
    // State that outlives a run: the checkpoint ring and the watchdog
    // guard the models, which carry over from run to run.
    ring: CheckpointRing,
    watchdog: HealthWatchdog,
    // Per-run state, rebuilt by `reset_run`.
    events: EventQueue<Event>,
    queue: ArrivalQueue,
    server_busy_until: SimTime,
    stall_wake: Option<SimTime>,
    comm: CommReport,
    /// When each end-system was last heard from (its admission or latest
    /// uplink), for the liveness sweep; unset while it is dormant,
    /// departed or done, when silence is expected.
    last_seen: Vec<Option<SimTime>>,
    crashed: Vec<bool>,
    down_since: Vec<Option<SimTime>>,
    downtime_us: Vec<u64>,
    batches_lost_per_client: Vec<u64>,
    quarantine: QuarantineTracker,
    membership: Membership,
    breaker: CircuitBreaker,
    buckets: Vec<TokenBucket>,
    deadline_snapshot: Vec<u64>,
    attack_rngs: Vec<rand::rngs::StdRng>,
    attack_steps: Vec<u64>,
    updates_trimmed: u64,
    /// Periodic housekeeping events (checkpoint/snapshot/deadline ticks)
    /// currently sitting in the queue. Ticks reschedule only while the
    /// queue holds a *non-tick* event; otherwise two coexisting tick
    /// streams would keep each other — and the event loop — alive forever.
    queued_ticks: usize,
}

impl AsyncSplitTrainer {
    /// Builds the trainer.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid or the
    /// topology size disagrees with `config.end_systems`.
    pub fn new(
        config: SplitConfig,
        train: &ImageDataset,
        topology: StarTopology,
        policy: SchedulingPolicy,
        compute: ComputeModel,
    ) -> Result<Self, ConfigError> {
        config.validate().map_err(ConfigError)?;
        if topology.len() != config.end_systems {
            return Err(ConfigError(format!(
                "topology has {} links but config has {} end-systems",
                topology.len(),
                config.end_systems
            )));
        }
        if train.len() < config.end_systems {
            return Err(ConfigError("dataset smaller than client count".into()));
        }
        let (server, clients) = config.build_deployment(train);
        let link_rngs = (0..config.end_systems)
            .map(|i| rng_from_seed(derive_seed(config.seed, 5000 + i as u64)))
            .collect();
        let retry_rng = rng_from_seed(derive_seed(config.seed, 6000));
        let n = config.end_systems;
        Ok(AsyncSplitTrainer {
            config,
            topology,
            policy,
            compute,
            server,
            clients,
            link_rngs,
            retry_rng,
            log: EventLog::new(),
            fault_plan: FaultPlan::new(),
            retry: RetryPolicy::from_timeout(SimDuration::from_millis(500)),
            liveness_timeout: SimDuration::from_millis(2_000),
            checkpoint_every: None,
            guard: None,
            telemetry_every: None,
            overload: None,
            deadlines: None,
            robust_window_base: 0,
            ring: CheckpointRing::new(1),
            watchdog: HealthWatchdog::new(&GuardConfig::default()),
            // Per-run state: `reset_run` rebuilds all of it.
            events: EventQueue::new(),
            queue: ArrivalQueue::new(policy, n),
            server_busy_until: SimTime::ZERO,
            stall_wake: None,
            comm: CommReport::default(),
            last_seen: Vec::new(),
            crashed: Vec::new(),
            down_since: Vec::new(),
            downtime_us: Vec::new(),
            batches_lost_per_client: Vec::new(),
            quarantine: QuarantineTracker::new(n, &GuardConfig::default()),
            membership: Membership::new(n),
            breaker: CircuitBreaker::new(n, &OverloadConfig::default()),
            buckets: Vec::new(),
            deadline_snapshot: Vec::new(),
            attack_rngs: Vec::new(),
            attack_steps: Vec::new(),
            updates_trimmed: 0,
            queued_ticks: 0,
        })
    }

    /// Injects a schedule of faults (builder style). Crash windows are
    /// turned into crash/recover events when the run starts; link faults
    /// are consulted on every transfer.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Overrides the retransmission policy (builder style; default
    /// [`RetryPolicy::from_timeout`] of 500 ms).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enables periodic auto-checkpointing every `every` of simulated time
    /// (builder style). The latest snapshot drives crash recovery.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn with_auto_checkpoint(mut self, every: SimDuration) -> Self {
        assert!(
            every > SimDuration::ZERO,
            "checkpoint interval must be positive"
        );
        self.checkpoint_every = Some(every);
        self
    }

    /// Overrides how long the server tolerates silence from an end-system
    /// before declaring it dead (builder style; default 2 s).
    pub fn with_liveness_timeout(mut self, timeout: SimDuration) -> Self {
        self.liveness_timeout = timeout;
        self
    }

    /// Enables the data-plane integrity guard (builder style): corrupted
    /// frames are rejected by CRC and retransmitted, activations are
    /// validated at ingress, repeat offenders are quarantined, and the
    /// health watchdog rolls back through the checkpoint ring on
    /// divergence. Without the guard, corrupted frames that still parse
    /// are silently accepted — the poison the guard exists to stop.
    pub fn with_integrity_guard(mut self, guard: GuardConfig) -> Self {
        self.watchdog = HealthWatchdog::new(&guard);
        self.ring = CheckpointRing::new(guard.ring_capacity);
        self.guard = Some(guard);
        self
    }

    /// Enables windowed Byzantine-robust aggregation on the server
    /// (builder style): per-batch gradients are buffered and combined
    /// under `policy` every `window` batches before they reach the
    /// optimizer. With the integrity guard also enabled, the stack turns
    /// attack-aware: window members flagged as statistical outliers are
    /// excluded from the combine (two-pass refine) and accrue anomaly
    /// score toward quarantine ([`GuardConfig::outlier_factor`] sets the
    /// flagging threshold; apply
    /// [`AsyncSplitTrainer::with_integrity_guard`] *before* this builder
    /// so both are picked up).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn with_robust_aggregation(mut self, policy: AggregationPolicy, window: usize) -> Self {
        let factor = self
            .guard
            .map(|g| g.outlier_factor)
            .unwrap_or(GuardConfig::default().outlier_factor);
        self.server
            .enable_robust_aggregation(policy, window, factor, self.guard.is_some());
        self.robust_window_base = window;
        self
    }

    /// Re-derives the live aggregation window from the configured base
    /// minus the senders currently in quarantine, so exiling an attacker
    /// does not leave the window waiting on updates that can never
    /// arrive (which would slow the optimizer cadence for the honest
    /// cohort). Called on every quarantine entry and release.
    fn resize_robust_window(&mut self, t: SimTime) {
        if self.robust_window_base == 0 {
            return;
        }
        let quarantined = (0..self.clients.len())
            .filter(|&i| self.quarantine.in_quarantine(i, t))
            .count();
        let window = self.robust_window_base.saturating_sub(quarantined).max(1);
        self.server.set_robust_window(window);
    }

    /// Enables telemetry (builder style): uplink/downlink latency, queue
    /// depth, gradient staleness and service-time histograms per
    /// end-system, a bounded event journal of `journal_capacity` events,
    /// and a [`Snapshot`](stsl_telemetry::Snapshot) of every metric each
    /// `every` of simulated time (plus one final snapshot when the run
    /// drains).
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn with_telemetry(mut self, every: SimDuration, journal_capacity: usize) -> Self {
        assert!(
            every > SimDuration::ZERO,
            "telemetry snapshot interval must be positive"
        );
        self.log.enable_telemetry(journal_capacity);
        self.telemetry_every = Some(every);
        self
    }

    /// The telemetry (registry, snapshots and journal), if
    /// [`AsyncSplitTrainer::with_telemetry`] was used.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.log.telemetry()
    }

    /// Enables server-side overload protection (builder style): the
    /// ingress queue is bounded (arrivals past the cap shed the oldest
    /// pending batch), each end-system is admission-limited by a token
    /// bucket, and every link gets a circuit breaker that trips after
    /// repeated delivery failures and half-opens on an exponential
    /// backoff schedule.
    pub fn with_overload_control(mut self, cfg: OverloadConfig) -> Self {
        self.overload = Some(cfg);
        self
    }

    /// Enables straggler mitigation (builder style): at every round
    /// deadline, if at least `min_quorum_frac` of the current members
    /// made progress this round, the stragglers' outstanding batches are
    /// abandoned so the round's updates apply without waiting for them.
    ///
    /// # Panics
    ///
    /// Panics if `round_ms` is zero or `min_quorum_frac` is outside
    /// `(0, 1]`.
    pub fn with_round_deadlines(mut self, cfg: DeadlineConfig) -> Self {
        assert!(cfg.round_ms > 0, "round length must be positive");
        assert!(
            cfg.min_quorum_frac > 0.0 && cfg.min_quorum_frac <= 1.0,
            "min_quorum_frac must be in (0, 1]"
        );
        self.deadlines = Some(cfg);
        self
    }

    /// The membership registry: per-client lifecycle state plus the
    /// join/depart/rejoin accounting.
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Ingress-queue depth after each arrival (one sample per push,
    /// decimated only past 65,536 samples), for offline analysis of
    /// overload behavior.
    pub fn queue_depth_samples(&self) -> &[usize] {
        self.queue.depth_samples()
    }

    /// The most recent auto-checkpoint, if any was taken.
    pub fn last_checkpoint(&self) -> Option<&Checkpoint> {
        self.ring.latest()
    }

    /// The ring of recent checkpoints (holds one without the integrity
    /// guard, [`GuardConfig::ring_capacity`] with it).
    pub fn checkpoint_ring(&self) -> &CheckpointRing {
        &self.ring
    }

    /// The end-systems — for inspection and for fault injection (e.g.
    /// poisoning a client's private model to exercise the ingress guard).
    pub fn clients_mut(&mut self) -> &mut [EndSystem] {
        &mut self.clients
    }

    /// Enables event tracing; every arrival, service start, gradient
    /// delivery, drop, retransmission, crash, recovery and checkpoint is
    /// recorded for later inspection via [`AsyncSplitTrainer::trace`].
    pub fn enable_trace(&mut self) {
        self.log.enable_trace();
    }

    /// The event trace, if [`AsyncSplitTrainer::enable_trace`] was called.
    pub fn trace(&self) -> Option<&TraceLog> {
        self.log.trace()
    }

    /// The event record: per-kind counts for the current run, plus the
    /// trace and the telemetry when enabled.
    pub fn event_log(&self) -> &EventLog {
        &self.log
    }

    /// The id used for server-scoped trace events (one past the last
    /// end-system).
    fn server_trace_id(&self) -> EndSystemId {
        EndSystemId(self.clients.len())
    }

    /// The period of `tick`, or `None` when its feature is off.
    fn tick_interval(&self, tick: Tick) -> Option<SimDuration> {
        match tick {
            Tick::Checkpoint => self.checkpoint_every,
            Tick::Snapshot => self.telemetry_every,
            Tick::Deadline => self.deadlines.map(|d| SimDuration::from_millis(d.round_ms)),
        }
    }

    /// Schedules a periodic housekeeping tick, keeping the tick census in
    /// step with the queue.
    fn schedule_tick(&mut self, at: SimTime, tick: Tick) {
        self.queued_ticks += 1;
        self.events.schedule(at, Event::Tick(tick));
    }

    /// Whether the queue holds any event that can make training progress
    /// (i.e. anything besides the periodic ticks). Ticks reschedule only
    /// while this holds, so a drained simulation terminates even with
    /// several tick streams active.
    fn has_pending_work(&self) -> bool {
        self.events.len() > self.queued_ticks
    }

    /// Emits one telemetry snapshot at `t` (recorded as
    /// [`EventKind::SnapshotEmit`]).
    fn emit_snapshot(&mut self, t: SimTime) {
        let server_id = self.server_trace_id();
        if self.overload.is_some() {
            // Cumulative shed total sampled once per snapshot — the
            // dashboard's shed-rate series.
            let shed = self.log.count(EventKind::IngressShed);
            self.log.observe(MetricId::ShedRate, server_id, shed);
        }
        if self.server.robust_enabled() {
            // Cumulative defense-layer refusals (ingress anomalies,
            // quarantine drops, robust outliers), sampled once per
            // snapshot — the dashboard's rejected-update series.
            let rejected = self.log.count(EventKind::RobustOutlier)
                + self.log.count(EventKind::AnomalyRejected)
                + self.log.count(EventKind::QuarantineDrop);
            self.log
                .observe(MetricId::RejectedUpdateRate, server_id, rejected);
        }
        self.log.snapshot(t, server_id);
    }

    /// Runs the configured number of client epochs to completion and
    /// evaluates on `test`.
    pub fn run(&mut self, test: &ImageDataset) -> AsyncReport {
        self.run_with_budget(test, None)
    }

    /// Like [`AsyncSplitTrainer::run`], but stops the simulation once the
    /// clock passes `budget` (if given), even if clients still have
    /// batches left.
    ///
    /// Fixed-time-budget runs are how the §II "biased learning" effect is
    /// measured: under a wall-clock budget, far end-systems complete fewer
    /// batches, so per-client service counts diverge and the scheduling
    /// policy matters. (In run-to-completion mode every batch is served
    /// eventually and totals are trivially equal.)
    pub fn run_with_budget(
        &mut self,
        test: &ImageDataset,
        budget: Option<SimDuration>,
    ) -> AsyncReport {
        self.run_inner(test, budget).0
    }

    /// Like [`AsyncSplitTrainer::run`], but surfaces quorum loss as a
    /// typed error: if every member departs while training is unfinished
    /// (and no future join or rejoin is scheduled), the simulation stops
    /// immediately instead of draining dead events.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumLost`] when no active member remains and work is
    /// left.
    pub fn try_run(&mut self, test: &ImageDataset) -> Result<AsyncReport, QuorumLost> {
        match self.run_inner(test, None) {
            (_, Some(lost)) => Err(lost),
            (report, None) => Ok(report),
        }
    }

    fn run_inner(
        &mut self,
        test: &ImageDataset,
        budget: Option<SimDuration>,
    ) -> (AsyncReport, Option<QuorumLost>) {
        self.reset_run();
        self.kickoff();
        let lost = self.drain(budget).err();
        (self.report(test), lost)
    }

    /// Resets every piece of per-run state — everything stamped with the
    /// run's clock — so each run starts at time zero and reports only
    /// itself.
    fn reset_run(&mut self) {
        let n = self.clients.len();
        self.events = EventQueue::new();
        let mut queue = ArrivalQueue::new(self.policy, n);
        if let Some(cfg) = self.overload {
            queue = queue.with_capacity(cfg.queue_capacity);
            self.breaker = CircuitBreaker::new(n, &cfg);
            self.buckets = (0..n)
                .map(|_| TokenBucket::new(cfg.bucket_rate, cfg.bucket_burst))
                .collect();
        }
        self.queue = queue;
        self.server_busy_until = SimTime::ZERO;
        self.stall_wake = None;
        self.comm = CommReport::default();
        self.log.reset_counts();
        self.crashed = vec![false; n];
        self.down_since = vec![None; n];
        self.downtime_us = vec![0; n];
        self.batches_lost_per_client = vec![0; n];
        self.quarantine = QuarantineTracker::new(n, &self.guard.unwrap_or_default());
        // Pre-declared joiners (clients with a scheduled join episode)
        // start dormant: they are part of the configured fleet but sit in
        // `Joining` until their admission event fires.
        let mut membership = Membership::new(n);
        for (id, _) in self.fault_plan.join_events() {
            if id.0 < n {
                membership = membership.dormant(id.0);
            }
        }
        self.last_seen = (0..n)
            .map(|i| membership.is_active(i).then_some(SimTime::ZERO))
            .collect();
        self.membership = membership;
        self.deadline_snapshot = vec![0; n];
        // Adversary streams are derived per client and consulted only
        // while an attack window is active, so attack-free plans keep
        // their exact event streams (the same discipline as corruption).
        self.attack_rngs = (0..n)
            .map(|i| rng_from_seed(derive_seed(self.config.seed, 7000 + i as u64)))
            .collect();
        self.attack_steps = vec![0; n];
        self.updates_trimmed = 0;
        self.server.clear_robust_buffer();
        self.queued_ticks = 0;
        for c in &mut self.clients {
            // A batch still in flight when the previous run stopped (at
            // its budget or on quorum loss) ended with that run.
            c.abandon_outstanding();
            c.begin_epoch(0);
        }
    }

    /// Schedules the run's fault plan and periodic ticks, and launches
    /// every client's first batch.
    fn kickoff(&mut self) {
        let n = self.clients.len();
        // Schedule every crash window from the fault plan.
        for (id, from, until) in self.fault_plan.crash_windows() {
            self.events.schedule(from, Event::ClientCrash(id));
            self.events.schedule(until, Event::ClientRecover(id));
        }
        // Schedule the churn arrivals: joins, leaves and rejoins.
        for (id, at) in self.fault_plan.join_events() {
            if id.0 < n {
                self.events.schedule(at, Event::MemberJoin(id));
            }
        }
        for (id, at) in self.fault_plan.leave_events() {
            if id.0 < n {
                self.events.schedule(at, Event::MemberLeave(id));
            }
        }
        for (id, at) in self.fault_plan.rejoin_events() {
            if id.0 < n {
                self.events.schedule(at, Event::MemberRejoin(id));
            }
        }
        // Each tick stream fires first one interval in.
        for tick in [Tick::Deadline, Tick::Checkpoint, Tick::Snapshot] {
            if let Some(iv) = self.tick_interval(tick) {
                self.schedule_tick(SimTime::ZERO + iv, tick);
            }
        }
        // Kick off: every client computes its first batch at t = 0. The
        // batch forwards are independent per client, so they fan out
        // across threads; the uplinks are then sent in ascending client
        // order, so the event schedule — and with it every subsequent
        // arrival, retry, and gradient — is identical to a serial kickoff
        // for any `STSL_THREADS`. Dormant joiners keep their data-loader
        // cursor untouched until admission; their first batch is
        // produced at join time.
        let dormant: Vec<bool> = (0..n)
            .map(|i| self.membership.state(i) == Some(MembershipState::Joining))
            .collect();
        let firsts: Vec<Option<ActivationMsg>> = stsl_parallel::par_map_mut(
            &mut self.clients,
            stsl_parallel::ChunkPolicy::min_chunk(1),
            |i, c| {
                if dormant[i] || c.epoch_finished() {
                    None
                } else {
                    c.next_batch()
                }
            },
        );
        for (i, first) in firsts.into_iter().enumerate() {
            match first {
                Some(mut msg) => {
                    self.apply_attack(&mut msg, SimTime::ZERO);
                    self.send(Msg::Up(msg), 0, SimTime::ZERO + self.compute.client_batch)
                }
                // An empty shard takes the ordinary path so epoch
                // bookkeeping stays in one place. (Dormant joiners fall
                // through its membership gate untouched.)
                None => self.launch_next_batch(EndSystemId(i), SimTime::ZERO),
            }
        }
    }

    /// Pops and handles events until the queue drains, the clock passes
    /// `budget`, or the fleet loses its quorum.
    fn drain(&mut self, budget: Option<SimDuration>) -> Result<(), QuorumLost> {
        while let Some((t, event)) = self.events.pop() {
            if budget.is_some_and(|b| t.since(SimTime::ZERO) > b) {
                break;
            }
            self.sweep_silent(t);
            if let Some(id) = event.end_system() {
                if self.crashed[id.0] || !self.is_member(id.0) {
                    continue;
                }
            }
            self.dispatch(t, event)?;
        }
        Ok(())
    }

    /// Suspects every active member with work left that has been silent
    /// past the liveness timeout. A suspect is not evicted: it still
    /// counts toward quorum and is re-admitted on its next uplink.
    fn sweep_silent(&mut self, t: SimTime) {
        for i in 0..self.clients.len() {
            let silent = self.last_seen[i].is_some_and(|s| t.since(s) > self.liveness_timeout);
            if silent && self.membership.is_active(i) {
                let _ = self.membership.transition(i, MembershipState::Suspect);
                self.note_membership();
            }
        }
    }

    /// Handles one event at `t`.
    fn dispatch(&mut self, t: SimTime, event: Event) -> Result<(), QuorumLost> {
        match event {
            Event::Deliver(Msg::Up(msg)) => self.on_arrival(t, msg),
            Event::Deliver(Msg::Down(grad)) => self.on_gradient(t, grad),
            Event::ServerFree => self.try_serve(t),
            Event::Retry { msg, failures } => {
                self.log.record(t, EventKind::Retransmit, msg.peer());
                self.send(msg, failures, t);
            }
            Event::Corrupt { msg, failures } => {
                self.log.record(t, EventKind::CorruptRejected, msg.peer());
                self.retry_later(msg, failures, t);
            }
            Event::Probe { msg, failures } => self.send(msg, failures, t),
            Event::BatchAbandon(id) => {
                self.clients[id.0].abandon_outstanding();
                self.launch_next_batch(id, t);
            }
            Event::ClientCrash(id) => self.on_crash(t, id),
            Event::ClientRecover(id) => self.on_recover(t, id),
            Event::MemberJoin(id) => self.on_join(t, id),
            Event::MemberLeave(id) => return self.on_leave(t, id),
            Event::MemberRejoin(id) => self.on_rejoin(t, id),
            Event::Tick(tick) => return self.on_tick(t, tick),
        }
        Ok(())
    }

    /// Activations reached the server: admission (quarantine, rate
    /// limit), then the arrival queue.
    fn on_arrival(&mut self, t: SimTime, msg: ActivationMsg) {
        let id = msg.from;
        if self.guard.is_some() {
            match self.quarantine.admit(id.0, t) {
                QuarantineStatus::Dropped => {
                    self.log.record(t, EventKind::QuarantineDrop, id);
                    self.lose_batch(id, t);
                    return;
                }
                QuarantineStatus::Released => {
                    self.log.record(t, EventKind::QuarantineRelease, id);
                    self.resize_robust_window(t);
                }
                QuarantineStatus::Clear => {}
            }
        }
        self.last_seen[id.0] = Some(t);
        if self.membership.state(id.0) == Some(MembershipState::Suspect) {
            // The suspect spoke up: back to full membership.
            let _ = self.membership.transition(id.0, MembershipState::Active);
            self.note_membership();
        }
        if self.overload.is_some() && !self.buckets[id.0].try_take(t) {
            // Rate limit: the sender is over its admission budget, so the
            // batch is refused at the ingress edge and never counts as an
            // arrival.
            self.log.record(t, EventKind::IngressShed, id);
            self.lose_batch(id, t);
            return;
        }
        self.log.record(t, EventKind::Arrival, id);
        let victims = self.queue.push_shed(t, msg);
        self.log
            .observe(MetricId::QueueDepth, id, self.queue.depth() as u64);
        for victim in victims {
            // Oldest-staleness-first shed (overload control only): the
            // longest-waiting pending batch makes room.
            self.log.record(t, EventKind::IngressShed, victim.from);
            self.lose_batch(victim.from, t);
        }
        self.try_serve(t);
    }

    /// A gradient reached its end-system.
    fn on_gradient(&mut self, t: SimTime, grad: GradientMsg) {
        let id = grad.to;
        self.log.record(t, EventKind::GradientDelivered, id);
        // A stale gradient (its batch was abandoned after a retry
        // exhaustion or crash) is ignored; the client already moved on.
        if self.clients[id.0].apply_gradient(&grad).is_ok() {
            // The gradient application costs client compute time.
            self.launch_next_batch(id, t + self.compute.client_batch);
        }
    }

    fn on_crash(&mut self, t: SimTime, id: EndSystemId) {
        if self.crashed[id.0] {
            return; // overlapping crash windows
        }
        self.crashed[id.0] = true;
        self.down_since[id.0] = Some(t);
        self.log.record(t, EventKind::ClientCrash, id);
        if self.clients[id.0].outstanding().is_some() {
            self.clients[id.0].abandon_outstanding();
            self.batches_lost_per_client[id.0] += 1;
        }
    }

    fn on_recover(&mut self, t: SimTime, id: EndSystemId) {
        if !self.crashed[id.0] || self.fault_plan.client_crashed(id, t) {
            return; // still inside an overlapping window
        }
        self.crashed[id.0] = false;
        if let Some(s) = self.down_since[id.0].take() {
            self.downtime_us[id.0] += t.since(s).as_micros();
        }
        self.log.record(t, EventKind::ClientRecover, id);
        // Crash-recovery restore: the private layers roll back to the
        // newest persisted snapshot.
        self.restore_client(t, id, id.0);
        self.launch_next_batch(id, t);
    }

    fn on_join(&mut self, t: SimTime, id: EndSystemId) {
        if self.membership.state(id.0) != Some(MembershipState::Joining)
            || self
                .membership
                .transition(id.0, MembershipState::Active)
                .is_err()
        {
            return;
        }
        self.log.record(t, EventKind::ClientJoin, id);
        self.note_membership();
        self.last_seen[id.0] = Some(t);
        // Server-seeded warm start: clone the most-served active member's
        // private layers from the newest checkpoint, so the joiner's
        // lowers are compatible with the co-adapted uppers instead of
        // dragging them back toward initialization. Without a checkpoint
        // the joiner keeps its fresh seed-derived init.
        if let Some(donor) = self.warm_start_donor(id) {
            self.restore_client(t, id, donor);
        }
        self.launch_next_batch(id, t);
    }

    fn on_leave(&mut self, t: SimTime, id: EndSystemId) -> Result<(), QuorumLost> {
        if !self.is_member(id.0)
            || self
                .membership
                .transition(id.0, MembershipState::Departed)
                .is_err()
        {
            return Ok(());
        }
        self.log.record(t, EventKind::ClientLeave, id);
        self.note_membership();
        self.last_seen[id.0] = None;
        // The un-acked batch is rewound, not abandoned: if the client
        // rejoins, it resumes from its last acked batch and replays this
        // one.
        self.clients[id.0].rewind_outstanding();
        self.quorum_check(t)
    }

    fn on_rejoin(&mut self, t: SimTime, id: EndSystemId) {
        if self.membership.state(id.0) != Some(MembershipState::Departed)
            || self
                .membership
                .transition(id.0, MembershipState::Rejoining)
                .is_err()
        {
            return;
        }
        // Rejoining -> Active is immediate in simulation; the two-step
        // keeps the lifecycle auditable.
        let _ = self.membership.transition(id.0, MembershipState::Active);
        self.log.record(t, EventKind::ClientRejoin, id);
        self.note_membership();
        self.last_seen[id.0] = Some(t);
        // Resync: the cursor was rewound at departure, so the next launch
        // replays the exact batch whose gradient never arrived.
        self.launch_next_batch(id, t);
    }

    /// Does a tick's work, then reschedules it one interval later — but
    /// only while the simulation still has non-tick work; otherwise
    /// coexisting tick streams would keep the event loop alive forever.
    fn on_tick(&mut self, t: SimTime, tick: Tick) -> Result<(), QuorumLost> {
        self.queued_ticks = self.queued_ticks.saturating_sub(1);
        match tick {
            Tick::Checkpoint => self.take_checkpoint(t),
            Tick::Snapshot => self.emit_snapshot(t),
            Tick::Deadline => self.round_deadline(t)?,
        }
        if let Some(iv) = self.tick_interval(tick) {
            if self.has_pending_work() {
                self.schedule_tick(t + iv, tick);
            }
        }
        Ok(())
    }

    /// Checks round progress at a deadline: with enough of the fleet
    /// served this round, the stragglers' outstanding batches are
    /// abandoned instead of holding everyone back (a partial-quorum
    /// apply).
    fn round_deadline(&mut self, t: SimTime) -> Result<(), QuorumLost> {
        let Some(d) = self.deadlines else {
            return Ok(());
        };
        self.quorum_check(t)?;
        let members: Vec<usize> = (0..self.clients.len())
            .filter(|&i| self.is_member(i))
            .collect();
        let served: Vec<u64> = self.queue.served_per_client().to_vec();
        let progressed = members
            .iter()
            .filter(|&&i| served[i] > self.deadline_snapshot[i])
            .count();
        let needed = ((members.len() as f64) * d.min_quorum_frac).ceil().max(1.0) as usize;
        let stragglers: Vec<EndSystemId> = members
            .iter()
            .filter(|&&i| {
                served[i] <= self.deadline_snapshot[i]
                    && self.clients[i].outstanding().is_some()
                    && !self.crashed[i]
            })
            .map(|&i| EndSystemId(i))
            .collect();
        if progressed >= needed && !stragglers.is_empty() {
            let server_id = self.server_trace_id();
            self.log
                .record(t, EventKind::DeadlinePartialApply, server_id);
            for id in stragglers {
                self.lose_batch(id, t);
            }
        }
        self.deadline_snapshot.copy_from_slice(&served);
        Ok(())
    }

    /// Builds the report once the event loop has stopped, evaluating every
    /// end-system's encoder with the shared uppers on `test`.
    fn report(&mut self, test: &ImageDataset) -> AsyncReport {
        let end = self.events.now();
        // A final snapshot so short runs (and the tail of long ones) are
        // always covered.
        self.emit_snapshot(end);
        // Clients still down when the simulation ends accrue downtime to
        // the end of the run.
        for i in 0..self.clients.len() {
            if let Some(s) = self.down_since[i].take() {
                self.downtime_us[i] += end.since(s).as_micros();
            }
        }
        let sim_seconds = end.as_secs_f64();
        let batch = self.config.batch_size.max(32);
        let per = self
            .server
            .evaluate_encoders(test, batch, &mut self.clients);
        let final_accuracy = stsl_tensor::mean_f32(&per);
        // The defense headline: accuracy over the fleet the server still
        // serves. An exiled attacker's own encoder trained against
        // poisoned activations — it is attacker-owned damage no
        // server-side policy can undo, so it belongs in `final_accuracy`
        // (whole-fleet average) but not here. With nothing exiled the
        // two are identical.
        let active: Vec<f32> = per
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.quarantine.in_quarantine(*i, end))
            .map(|(_, &a)| a)
            .collect();
        let active_accuracy = if active.is_empty() {
            final_accuracy
        } else {
            stsl_tensor::mean_f32(&active)
        };
        let count = |kind| self.log.count(kind);
        AsyncReport {
            policy: self.policy.to_string(),
            end_systems: self.config.end_systems,
            cut_blocks: self.config.cut.blocks(),
            sim_seconds,
            final_accuracy,
            active_accuracy,
            served_per_client: self.queue.served_per_client().to_vec(),
            service_imbalance: self.queue.service_imbalance(),
            mean_queue_depth: self.queue.mean_depth(),
            max_queue_depth: self.queue.max_depth(),
            mean_queue_wait_ms: self.queue.mean_wait().as_micros() as f64 / 1e3,
            scheduler_drops: count(EventKind::SchedulerDrop),
            network_drops: count(EventKind::NetworkDrop),
            retransmits: count(EventKind::Retransmit),
            retry_exhausted: count(EventKind::RetryExhausted),
            batches_lost: self.batches_lost_per_client.iter().sum(),
            batches_lost_per_client: self.batches_lost_per_client.clone(),
            downtime_ms_per_client: self.downtime_us.iter().map(|&us| us as f64 / 1e3).collect(),
            crash_events: count(EventKind::ClientCrash),
            recovery_events: count(EventKind::ClientRecover),
            checkpoint_saves: count(EventKind::CheckpointSave),
            checkpoint_restores: count(EventKind::CheckpointRestore),
            dead_clients_detected: self.membership.suspicions(),
            corrupted_payloads: count(EventKind::PayloadCorrupted),
            corrupted_rejected: count(EventKind::CorruptRejected),
            anomalies_rejected: count(EventKind::AnomalyRejected),
            quarantines: count(EventKind::Quarantine),
            quarantine_drops: count(EventKind::QuarantineDrop),
            quarantine_releases: count(EventKind::QuarantineRelease),
            rollbacks: count(EventKind::Rollback),
            snapshots_emitted: count(EventKind::SnapshotEmit),
            journal_dropped: count(EventKind::JournalDrop),
            clients_joined: count(EventKind::ClientJoin),
            clients_departed: count(EventKind::ClientLeave),
            rejoins: count(EventKind::ClientRejoin),
            batches_shed: count(EventKind::IngressShed),
            breaker_trips: count(EventKind::BreakerTrip),
            deadline_partial_applies: count(EventKind::DeadlinePartialApply),
            attacks_injected: count(EventKind::AttackInjected),
            robust_applies: count(EventKind::RobustApply),
            robust_outliers: count(EventKind::RobustOutlier),
            updates_trimmed: self.updates_trimmed,
            comm: self.comm,
        }
    }

    /// Whether end-system `i` currently counts toward the fleet (state
    /// `Active` or `Suspect`).
    fn is_member(&self, i: usize) -> bool {
        matches!(
            self.membership.state(i),
            Some(MembershipState::Active) | Some(MembershipState::Suspect)
        )
    }

    /// Records the current fleet size as [`MetricId::MembershipSize`]
    /// (called on every membership transition).
    fn note_membership(&mut self) {
        let size = self.membership.member_count() as u64;
        let server_id = self.server_trace_id();
        self.log.observe(MetricId::MembershipSize, server_id, size);
    }

    /// Whether end-system `i` has produced (and been acked for) every
    /// batch of every configured epoch.
    fn training_complete(&self, i: usize) -> bool {
        let c = &self.clients[i];
        c.epoch_finished() && c.epoch() + 1 >= self.config.epochs as u64
    }

    /// Detects quorum loss at `t`: no member remains, unfinished work is
    /// left, and no scheduled join or rejoin can ever repopulate the
    /// fleet.
    fn quorum_check(&self, t: SimTime) -> Result<(), QuorumLost> {
        if self.membership.member_count() > 0 {
            return Ok(());
        }
        let unfinished = (0..self.clients.len()).any(|i| !self.training_complete(i));
        if !unfinished {
            return Ok(());
        }
        let repopulates = self
            .fault_plan
            .join_events()
            .into_iter()
            .chain(self.fault_plan.rejoin_events())
            .any(|(_, at)| at > t);
        if repopulates {
            return Ok(());
        }
        Err(QuorumLost {
            at_us: t.as_micros(),
            joined: self.membership.joined(),
            departed: self.membership.departed(),
        })
    }

    /// Picks the warm-start donor for a joiner: the most-served active
    /// member (lowest id on ties), whose checkpointed private layers the
    /// joiner clones.
    fn warm_start_donor(&self, joiner: EndSystemId) -> Option<usize> {
        let served = self.queue.served_per_client();
        let mut donor: Option<usize> = None;
        for i in 0..self.clients.len() {
            if i == joiner.0 || self.membership.state(i) != Some(MembershipState::Active) {
                continue;
            }
            if donor.is_none_or(|d| served[i] > served[d]) {
                donor = Some(i);
            }
        }
        donor
    }

    /// Loads end-system `donor`'s private layers from the newest
    /// checkpoint into end-system `id`, if a checkpoint exists.
    fn restore_client(&mut self, t: SimTime, id: EndSystemId, donor: usize) {
        let Some(state) = self.ring.latest().map(|c| c.client_states[donor].clone()) else {
            return;
        };
        self.clients[id.0].model_mut().load_state_dict(&state);
        self.log.record(t, EventKind::CheckpointRestore, id);
    }

    /// Snapshots the full deployment (config, server uppers, every
    /// end-system's private lowers) into the checkpoint ring. With the
    /// integrity guard on, a non-finite server state is never banked —
    /// that would turn the rollback ring into a trap.
    fn take_checkpoint(&mut self, t: SimTime) {
        let ckpt = Checkpoint::capture(&self.config, &mut self.server, &mut self.clients);
        if self.guard.is_some()
            && ckpt
                .server_state
                .iter()
                .any(|p| p.as_slice().iter().any(|v| !v.is_finite()))
        {
            return;
        }
        self.ring.push(ckpt);
        let server_id = self.server_trace_id();
        self.log.record(t, EventKind::CheckpointSave, server_id);
    }

    /// Watchdog-triggered rollback: restore the newest ring checkpoint
    /// (server uppers *and* every end-system's private lowers — they
    /// co-adapted, so they roll back together), cool the learning rate,
    /// and re-arm the watchdog. Repeated divergences pop progressively
    /// older entries.
    fn rollback(&mut self, t: SimTime) {
        let server_id = self.server_trace_id();
        self.log.record(t, EventKind::Rollback, server_id);
        if let Some(ckpt) = self.ring.pop_latest() {
            ckpt.restore_into(&mut self.server, &mut self.clients)
                .expect("ring checkpoints come from this deployment");
        }
        self.server.scale_learning_rate(LR_COOLDOWN);
        // A half-filled aggregation window straddling the rollback point
        // mixes pre- and post-restore gradients; drop it.
        self.server.clear_robust_buffer();
        self.watchdog.reset();
    }

    /// Computes client `id`'s next batch starting at `t` and sends it
    /// uplink. Advances the client's epoch when its shard is exhausted;
    /// stops silently (and leaves the liveness sweep) after the final
    /// epoch.
    fn launch_next_batch(&mut self, id: EndSystemId, t: SimTime) {
        if self.crashed[id.0] {
            return; // relaunched on recovery
        }
        if !self.is_member(id.0) {
            return; // relaunched on join/rejoin
        }
        let client = &mut self.clients[id.0];
        if client.epoch_finished() {
            let next_epoch = client.epoch() + 1;
            if next_epoch >= self.config.epochs as u64 {
                self.last_seen[id.0] = None;
                return; // this client is done for good
            }
            client.begin_epoch(next_epoch);
        }
        let Some(mut msg) = client.next_batch() else {
            return;
        };
        self.apply_attack(&mut msg, t);
        self.send(Msg::Up(msg), 0, t + self.compute.client_batch);
    }

    /// Applies the sender's active adversarial persona (if any) to a
    /// freshly produced batch, at batch-production time. The poisoned
    /// payload carries through retransmission untouched — the attacker
    /// *is* the sender, so every copy it puts on the wire lies
    /// identically. Unlike payload corruption, the poison is semantic:
    /// the frame stays CRC-valid, finite and RMS-plausible, so only
    /// statistical defenses at the aggregation point can catch it.
    fn apply_attack(&mut self, msg: &mut ActivationMsg, t: SimTime) {
        let id = msg.from;
        let Some(attack) = self.fault_plan.attack(id, t) else {
            return;
        };
        self.log.record(t, EventKind::AttackInjected, id);
        match attack {
            AttackSpec::SignFlip { gain } => {
                let g = -(gain as f32);
                msg.activations.map_inplace(|x| g * x);
            }
            AttackSpec::Scale { factor } => {
                let f = factor as f32;
                msg.activations.map_inplace(|x| f * x);
            }
            AttackSpec::GaussianDrift { sigma } => {
                // Noise grows with the attacker's step count: early
                // batches look almost honest, later ones drift ever
                // further — the slow-poison profile norm bounds miss.
                self.attack_steps[id.0] += 1;
                let scale = (sigma * (self.attack_steps[id.0] as f64).sqrt()) as f32;
                let noise =
                    Tensor::randn(msg.activations.dims().to_vec(), &mut self.attack_rngs[id.0]);
                msg.activations.axpy(scale, &noise);
            }
            AttackSpec::Collude { clique, gain } => {
                // Every clique member sends the same pseudorandom
                // direction for the same batch id: colluders reinforce
                // one another instead of averaging out, the attack
                // Krum-style selectors are most vulnerable to.
                let batch_key = ((msg.batch_id.epoch as u64) << 32) | msg.batch_id.batch as u64;
                let seed = derive_seed(derive_seed(self.config.seed, 7700 + clique), batch_key);
                let g = gain as f32;
                let mut dir =
                    Tensor::randn(msg.activations.dims().to_vec(), &mut rng_from_seed(seed));
                dir.map_inplace(|x| g * x);
                msg.activations = dir;
            }
        }
    }

    /// Attempts one transmission of `msg` over its end-system's link at
    /// `at` (`failures` prior attempts have been lost). A tripped breaker
    /// defers the send; a loss schedules a backed-off retransmission — or
    /// abandons the batch once the budget is spent.
    fn send(&mut self, msg: Msg, failures: u32, at: SimTime) {
        let id = msg.peer();
        if self.overload.is_some() {
            // A tripped breaker defers the send until its link half-opens
            // — before any comm accounting, since nothing hits the wire.
            if let BreakerDecision::Defer(until) = self.breaker.allow(id, at) {
                self.events.schedule(until, Event::Probe { msg, failures });
                return;
            }
        }
        let bytes = msg.encoded_len();
        let latency = match msg {
            Msg::Up(_) => {
                self.comm.uplink_bytes += bytes as u64;
                self.comm.uplink_messages += 1;
                MetricId::UplinkLatency
            }
            Msg::Down(_) => {
                self.comm.downlink_bytes += bytes as u64;
                self.comm.downlink_messages += 1;
                MetricId::DownlinkLatency
            }
        };
        let link = *self.topology.link(id);
        match self
            .fault_plan
            .transfer_through(&link, id, bytes, at, &mut self.link_rngs[id.0])
        {
            Some(dur) => {
                // The corruption RNG is only consulted while a corruption
                // episode is active, so corruption-free plans keep their
                // exact event streams.
                let rate = self.fault_plan.corruption_rate(id, at);
                let deliver = if rate > 0.0 && self.link_rngs[id.0].gen_bool(rate) {
                    self.log.record(at, EventKind::PayloadCorrupted, id);
                    self.garble(msg, failures)
                } else {
                    Event::Deliver(msg)
                };
                if self.overload.is_some() {
                    self.breaker.record_success(id);
                }
                self.log.observe(latency, id, dur.as_micros());
                self.events.schedule(at + dur, deliver);
            }
            None => {
                self.log.record(at, EventKind::NetworkDrop, id);
                if self.overload.is_some() && self.breaker.record_failure(id, at) {
                    self.log.record(at, EventKind::BreakerTrip, id);
                }
                self.retry_later(msg, failures, at);
            }
        }
    }

    /// Runs `msg` through the wire: encode, garble the bytes, re-decode at
    /// the receiving edge. With the guard on, the CRC catches the damage
    /// (barring an astronomically unlikely collision) and the frame is
    /// rejected for retransmission. With the guard off, a frame that still
    /// parses structurally — right end-system, batch and shapes (and label
    /// range, for activations), so the legacy receiver cannot tell it
    /// apart from a healthy one — is delivered garbled: silent poison.
    fn garble(&mut self, msg: Msg, failures: u32) -> Event {
        let mut bytes = msg.encode().as_ref().to_vec();
        corrupt_payload(&mut bytes, &mut self.link_rngs[msg.peer().0]);
        let wire = Bytes::from(bytes);
        let strict = self.guard.is_some();
        let classes = self.config.arch.classes;
        let received = match &msg {
            Msg::Up(_) if strict => ActivationMsg::decode(wire).ok().map(Msg::Up),
            Msg::Up(sent) => ActivationMsg::decode_lenient(wire)
                .ok()
                .map(|(m, _crc_ok)| m)
                .filter(|m| {
                    m.from == sent.from
                        && m.batch_id == sent.batch_id
                        && m.activations.dims() == sent.activations.dims()
                        && m.targets.len() == sent.targets.len()
                        && m.targets.iter().all(|&c| c < classes)
                })
                .map(Msg::Up),
            Msg::Down(_) if strict => GradientMsg::decode(wire).ok().map(Msg::Down),
            Msg::Down(sent) => GradientMsg::decode_lenient(wire)
                .ok()
                .map(|(m, _crc_ok)| m)
                .filter(|m| {
                    m.to == sent.to
                        && m.batch_id == sent.batch_id
                        && m.grad.dims() == sent.grad.dims()
                })
                .map(Msg::Down),
        };
        match received {
            Some(m) => Event::Deliver(m),
            None => Event::Corrupt { msg, failures },
        }
    }

    /// One more send attempt of `msg` has failed at `at`: schedule a
    /// backed-off retransmission, or — with the retry budget spent —
    /// count the batch as lost and abandon it.
    fn retry_later(&mut self, msg: Msg, failures: u32, at: SimTime) {
        let failures = failures + 1;
        if self.retry.may_retry(failures) {
            let delay = self.retry.backoff(failures, &mut self.retry_rng);
            self.events
                .schedule(at + delay, Event::Retry { msg, failures });
        } else {
            let id = msg.peer();
            self.log.record(at, EventKind::RetryExhausted, id);
            self.lose_batch(id, at);
        }
    }

    /// Counts `id`'s outstanding batch as lost and schedules its
    /// abandonment at `at`.
    fn lose_batch(&mut self, id: EndSystemId, at: SimTime) {
        self.batches_lost_per_client[id.0] += 1;
        self.events.schedule(at, Event::BatchAbandon(id));
    }

    /// If the server is idle (and not stalled by a fault) at `t`, pops the
    /// next job per the scheduling policy, processes it and schedules the
    /// completion + gradient delivery. Clients whose jobs were discarded
    /// as stale are told to skip.
    fn try_serve(&mut self, t: SimTime) {
        if let Some(stall_end) = self.fault_plan.server_stall_end(t) {
            // Wake up once when the stall lifts; queued work waits.
            if self.stall_wake != Some(stall_end) {
                self.stall_wake = Some(stall_end);
                self.events.schedule(stall_end, Event::ServerFree);
            }
            return;
        }
        if self.server_busy_until > t || self.queue.is_empty() {
            return;
        }
        let (job, discarded) = self.queue.pop(t);
        for msg in discarded {
            self.log.record(t, EventKind::SchedulerDrop, msg.from);
            // The client is still awaiting a gradient for this batch.
            self.lose_batch(msg.from, t);
        }
        let Some(job) = job else { return };
        let id = job.msg.from;
        // Staleness at apply time: the queueing delay between arrival
        // and the server consuming the update.
        let staleness = t.since(job.arrived_at).as_micros();
        self.log.observe(MetricId::GradientStaleness, id, staleness);
        self.log.record(t, EventKind::ServiceStart, id);
        let out = match self.server.process(&job.msg, self.guard.as_ref()) {
            Ok(out) => out,
            Err(_) => {
                // Only reachable with the guard on: ingress validation
                // rejected the update before it touched the model.
                // Validation is cheap, so the server stays free for the
                // next queued job.
                self.log.record(t, EventKind::AnomalyRejected, id);
                self.lose_batch(id, t);
                if self.quarantine.record_anomaly(id.0, t) {
                    self.log.record(t, EventKind::Quarantine, id);
                    self.resize_robust_window(t);
                }
                self.try_serve(t);
                return;
            }
        };
        let service_us = self.compute.server_batch.as_micros();
        self.log.observe(MetricId::ServiceTime, id, service_us);
        let done = t + self.compute.server_batch;
        self.server_busy_until = done;
        self.events.schedule(done, Event::ServerFree);
        if self.guard.is_some() {
            // With robust aggregation on, the quarantine clean-credit is
            // deferred to the window verdict below: a sender is "clean"
            // when its update survives statistical scrutiny, not when it
            // merely parses. Crediting here would let a persistent
            // attacker decay its own anomaly score once per round and
            // plateau below the quarantine threshold forever.
            if !self.server.robust_enabled() {
                self.quarantine.record_clean(id.0);
            }
            if self
                .watchdog
                .observe(out.loss, tensor_rms(&out.gradient.grad))
            {
                // The optimizer step that just happened poisoned the
                // shared model: roll back instead of propagating the
                // gradient. The batch still cost server time.
                self.rollback(t);
                self.lose_batch(id, done);
                return;
            }
        }
        if let Some(apply) = self.server.take_robust_apply() {
            self.updates_trimmed += apply.trimmed as u64;
            let server_id = self.server_trace_id();
            self.log.record(t, EventKind::RobustApply, server_id);
            let permille = apply.trim_fraction_permille;
            self.log
                .observe(MetricId::TrimFraction, server_id, permille);
            if self.guard.is_some() {
                // The deferred clean-credit: window members the policy
                // did not flag decay their anomaly score here.
                for sender in &apply.cleared {
                    self.quarantine.record_clean(*sender);
                }
            }
            for sender in apply.outliers {
                let sid = EndSystemId(sender);
                self.log.record(t, EventKind::RobustOutlier, sid);
                // Statistical outliers accrue quarantine anomaly score
                // exactly like NaN/RMS ingress rejections: the guard
                // becomes attack-aware, not just corruption-aware.
                if self.guard.is_some() && self.quarantine.record_anomaly(sender, t) {
                    self.log.record(t, EventKind::Quarantine, sid);
                    self.resize_robust_window(t);
                }
            }
        }
        self.send(Msg::Down(out.gradient), 0, done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CutPoint;
    use stsl_data::SyntheticCifar;
    use stsl_simnet::Link;

    fn data(n: usize) -> ImageDataset {
        SyntheticCifar::new(3)
            .difficulty(0.05)
            .generate_sized(n, 16)
    }

    fn run_with(
        policy: SchedulingPolicy,
        topology: StarTopology,
        clients: usize,
        epochs: usize,
    ) -> AsyncReport {
        let cfg = SplitConfig::tiny(CutPoint(1), clients)
            .epochs(epochs)
            .batch_size(8)
            .seed(4);
        let train = data(clients * 24);
        let test = data(40);
        let mut t =
            AsyncSplitTrainer::new(cfg, &train, topology, policy, ComputeModel::default()).unwrap();
        t.run(&test)
    }

    #[test]
    fn completes_and_serves_every_batch_homogeneous() {
        let top = StarTopology::uniform(2, Link::wan(5.0, 100.0));
        let r = run_with(SchedulingPolicy::Fifo, top, 2, 1);
        // 24 samples per client, batch 8 -> 3 batches each.
        assert_eq!(r.served_per_client, vec![3, 3]);
        assert_eq!(r.scheduler_drops, 0);
        assert_eq!(r.network_drops, 0);
        assert_eq!(r.retransmits, 0);
        assert_eq!(r.batches_lost, 0);
        assert!(r.sim_seconds > 0.0);
        assert_eq!(r.comm.uplink_messages, 6);
        assert_eq!(r.comm.downlink_messages, 6);
    }

    #[test]
    fn topology_size_must_match_clients() {
        let cfg = SplitConfig::tiny(CutPoint(1), 3);
        let top = StarTopology::uniform(2, Link::ideal());
        let err = AsyncSplitTrainer::new(
            cfg,
            &data(60),
            top,
            SchedulingPolicy::Fifo,
            ComputeModel::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("topology"));
    }

    #[test]
    fn heterogeneous_latency_slows_completion() {
        let fast = StarTopology::uniform(2, Link::wan(1.0, 100.0));
        let slow = StarTopology::uniform(2, Link::wan(200.0, 100.0));
        let rf = run_with(SchedulingPolicy::Fifo, fast, 2, 1);
        let rs = run_with(SchedulingPolicy::Fifo, slow, 2, 1);
        assert!(
            rs.sim_seconds > rf.sim_seconds * 2.0,
            "{} vs {}",
            rs.sim_seconds,
            rf.sim_seconds
        );
    }

    #[test]
    fn lossy_network_retransmits_and_still_serves_every_batch() {
        // 20 % loss on client 0's link: with retransmission the run now
        // completes *all* batches (where the old fixed-timeout design
        // silently lost them) at the cost of retransmits and extra
        // messages.
        let top = StarTopology::new(vec![Link::wan(5.0, 100.0).loss(0.2), Link::wan(5.0, 100.0)]);
        let r = run_with(SchedulingPolicy::Fifo, top, 2, 2);
        assert!(r.network_drops > 0, "expected some drops");
        assert!(r.retransmits > 0, "expected retransmissions");
        assert_eq!(r.served_per_client, vec![6, 6]);
        assert_eq!(r.batches_lost, 0);
        // Every drop was either retransmitted or (never, here) given up.
        assert_eq!(r.retransmits + r.retry_exhausted, r.network_drops);
        // Retransmissions cost extra messages over the 12 useful ones.
        assert!(r.comm.uplink_messages + r.comm.downlink_messages > 24);
    }

    #[test]
    fn pathological_loss_exhausts_retries_but_does_not_wedge() {
        // 90 % loss and a tiny retry budget: batches get abandoned, but
        // the run still terminates and the lossless client is unharmed.
        let top = StarTopology::new(vec![Link::wan(5.0, 100.0).loss(0.9), Link::wan(5.0, 100.0)]);
        let cfg = SplitConfig::tiny(CutPoint(1), 2)
            .epochs(1)
            .batch_size(8)
            .seed(4);
        let train = data(48);
        let test = data(20);
        let mut t = AsyncSplitTrainer::new(
            cfg,
            &train,
            top,
            SchedulingPolicy::Fifo,
            ComputeModel::default(),
        )
        .unwrap()
        .with_retry_policy(RetryPolicy {
            base_backoff: SimDuration::from_millis(10),
            max_backoff: SimDuration::from_millis(40),
            jitter_frac: 0.1,
            max_attempts: 2,
        });
        let r = t.run(&test);
        assert!(r.retry_exhausted > 0, "expected exhausted retries: {:?}", r);
        assert!(r.batches_lost > 0);
        assert_eq!(r.batches_lost_per_client[1], 0);
        assert_eq!(r.served_per_client[1], 3);
    }

    #[test]
    fn trace_records_protocol_events() {
        let cfg = SplitConfig::tiny(CutPoint(1), 2)
            .epochs(1)
            .batch_size(8)
            .seed(4);
        let train = data(32);
        let test = data(8);
        let top = StarTopology::uniform(2, Link::wan(5.0, 100.0));
        let mut t = AsyncSplitTrainer::new(
            cfg,
            &train,
            top,
            SchedulingPolicy::Fifo,
            ComputeModel::default(),
        )
        .unwrap();
        t.enable_trace();
        t.run(&test);
        let trace = t.trace().expect("trace enabled");
        // 2 clients x 2 batches each: every batch arrives, is served, and
        // its gradient is delivered.
        assert_eq!(trace.count(EventKind::Arrival), 4);
        assert_eq!(trace.count(EventKind::ServiceStart), 4);
        assert_eq!(trace.count(EventKind::GradientDelivered), 4);
        assert_eq!(trace.count(EventKind::SchedulerDrop), 0);
        assert_eq!(trace.count(EventKind::NetworkDrop), 0);
        assert_eq!(trace.count(EventKind::Retransmit), 0);
        assert_eq!(trace.count(EventKind::ClientCrash), 0);
        // CSV export is well-formed.
        assert_eq!(trace.to_csv().lines().count(), 13);
    }

    #[test]
    fn telemetry_collects_distributions_and_journal() {
        let cfg = SplitConfig::tiny(CutPoint(1), 2)
            .epochs(1)
            .batch_size(8)
            .seed(4);
        let train = data(32);
        let test = data(8);
        let top = StarTopology::new(vec![Link::wan(5.0, 100.0), Link::wan(60.0, 100.0)]);
        let mut t = AsyncSplitTrainer::new(
            cfg,
            &train,
            top,
            SchedulingPolicy::Fifo,
            ComputeModel::default(),
        )
        .unwrap()
        .with_telemetry(SimDuration::from_millis(100), 64);
        t.enable_trace();
        let r = t.run(&test);
        assert!(r.snapshots_emitted > 0);
        assert_eq!(r.journal_dropped, 0);
        let telemetry = t.telemetry().expect("telemetry enabled");
        assert_eq!(telemetry.snapshots().len() as u64, r.snapshots_emitted);
        // Both clients uplinked twice; the slow link's latencies dominate.
        let up0 = telemetry
            .registry()
            .histogram(stsl_telemetry::MetricId::UplinkLatency, 0)
            .unwrap();
        let up1 = telemetry
            .registry()
            .histogram(stsl_telemetry::MetricId::UplinkLatency, 1)
            .unwrap();
        assert_eq!(up0.count(), 2);
        assert_eq!(up1.count(), 2);
        assert!(up1.p50() > up0.p50());
        // Staleness and service time were recorded at apply time.
        assert!(telemetry
            .registry()
            .histogram(stsl_telemetry::MetricId::GradientStaleness, 0)
            .is_some());
        let svc = telemetry
            .registry()
            .histogram(stsl_telemetry::MetricId::ServiceTime, 0)
            .unwrap();
        assert_eq!(svc.max(), Some(3_000)); // ComputeModel::default

        // The journal saw every protocol milestone.
        let journal = telemetry.journal();
        assert_eq!(journal.count(EventKind::Arrival), 4);
        assert_eq!(journal.count(EventKind::ServiceStart), 4);
        assert_eq!(journal.count(EventKind::GradientDelivered), 4);
        assert!(journal.count(EventKind::SnapshotEmit) > 0);
        // Snapshot emissions are traced with the same discipline as every
        // other counter.
        let trace = t.trace().unwrap();
        assert_eq!(
            trace.count(EventKind::SnapshotEmit) as u64,
            r.snapshots_emitted
        );
        assert_eq!(trace.count(EventKind::JournalDrop), 0);
    }

    #[test]
    fn tiny_journal_capacity_reports_evictions() {
        let cfg = SplitConfig::tiny(CutPoint(1), 2)
            .epochs(1)
            .batch_size(8)
            .seed(4);
        let train = data(32);
        let test = data(8);
        let top = StarTopology::uniform(2, Link::wan(5.0, 100.0));
        let mut t = AsyncSplitTrainer::new(
            cfg,
            &train,
            top,
            SchedulingPolicy::Fifo,
            ComputeModel::default(),
        )
        .unwrap()
        .with_telemetry(SimDuration::from_millis(100), 2);
        t.enable_trace();
        let r = t.run(&test);
        assert!(r.journal_dropped > 0, "a 2-slot ring must evict");
        let telemetry = t.telemetry().unwrap();
        assert_eq!(telemetry.journal().evicted(), r.journal_dropped);
        assert_eq!(telemetry.journal().len(), 2);
        assert_eq!(
            t.trace().unwrap().count(EventKind::JournalDrop) as u64,
            r.journal_dropped
        );
    }

    #[test]
    fn run_is_deterministic() {
        let mk = || {
            let top = StarTopology::latency_gradient(3, 1.0, 80.0, 50.0);
            run_with(SchedulingPolicy::RoundRobin, top, 3, 1)
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.sim_seconds, b.sim_seconds);
        assert_eq!(a.served_per_client, b.served_per_client);
        assert_eq!(a.final_accuracy, b.final_accuracy);
    }

    #[test]
    fn time_budget_stops_early_and_biases_service_toward_near_clients() {
        // One near, one far client, many epochs, tight budget: the near
        // client gets served more — §II's bias, measurable only under a
        // fixed time budget.
        let cfg = SplitConfig::tiny(CutPoint(1), 2)
            .epochs(50)
            .batch_size(8)
            .seed(4);
        let train = data(48);
        let test = data(20);
        let top = StarTopology::new(vec![Link::wan(1.0, 100.0), Link::wan(120.0, 100.0)]);
        let mut t = AsyncSplitTrainer::new(
            cfg,
            &train,
            top,
            SchedulingPolicy::Fifo,
            ComputeModel::default(),
        )
        .unwrap();
        let budget = SimDuration::from_millis(3_000);
        let r = t.run_with_budget(&test, Some(budget));
        assert!(
            r.sim_seconds <= budget.as_secs_f64() + 1.0,
            "sim {}s",
            r.sim_seconds
        );
        // The budget cut batches off mid-flight; a rerun starts clean.
        let again = t.run_with_budget(&test, Some(budget));
        assert!(again.sim_seconds <= budget.as_secs_f64() + 1.0);
        assert!(
            r.served_per_client[0] > 2 * r.served_per_client[1],
            "near client should dominate under a budget: {:?}",
            r.served_per_client
        );
        assert!(r.service_imbalance > 0.1);
    }

    /// Extremely slow server -> deep queue -> stale batches.
    fn stale_pressure_trainer() -> AsyncSplitTrainer {
        let cfg = SplitConfig::tiny(CutPoint(1), 2)
            .epochs(1)
            .batch_size(8)
            .seed(4);
        let train = data(48);
        let compute = ComputeModel {
            client_batch: SimDuration::from_millis(1),
            server_batch: SimDuration::from_millis(400),
        };
        let top = StarTopology::uniform(2, Link::wan(1.0, 100.0));
        let policy = SchedulingPolicy::StalenessDrop {
            max_age: SimDuration::from_millis(50),
        };
        AsyncSplitTrainer::new(cfg, &train, top, policy, compute)
            .unwrap()
            .with_retry_policy(RetryPolicy::from_timeout(SimDuration::from_millis(100)))
    }

    #[test]
    fn staleness_policy_reports_drops_under_pressure() {
        let r = stale_pressure_trainer().run(&data(20));
        assert!(
            r.scheduler_drops > 0,
            "expected stale drops, report {:?}",
            r
        );
        // Scheduler discards count as lost work too.
        assert_eq!(r.batches_lost, r.scheduler_drops);
    }

    #[test]
    fn each_run_reports_only_itself() {
        // A second run on the same trainer starts from a fresh clock,
        // queue and loss ledger: its report accounts for exactly its own
        // six batches (2 clients x 3), not the first run's as well.
        let test = data(20);
        let mut t = stale_pressure_trainer();
        let first = t.run(&test);
        let second = t.run(&test);
        assert!(second.scheduler_drops > 0, "{second:?}");
        assert_eq!(second.batches_lost, second.scheduler_drops);
        let served: u64 = second.served_per_client.iter().sum();
        assert_eq!(served + second.batches_lost, 6);
        assert!(
            second.sim_seconds < 1.5 * first.sim_seconds,
            "the second run kept the first run's clock: {} vs {}s",
            second.sim_seconds,
            first.sim_seconds
        );
    }

    #[test]
    fn crash_window_loses_work_then_recovers_from_checkpoint() {
        let cfg = SplitConfig::tiny(CutPoint(1), 2)
            .epochs(4)
            .batch_size(8)
            .seed(4);
        let train = data(48);
        let test = data(20);
        let top = StarTopology::uniform(2, Link::wan(5.0, 100.0));
        let plan = FaultPlan::new().client_crash(
            EndSystemId(0),
            SimTime::from_millis(40),
            SimTime::from_millis(400),
        );
        let mut t = AsyncSplitTrainer::new(
            cfg,
            &train,
            top,
            SchedulingPolicy::Fifo,
            ComputeModel::default(),
        )
        .unwrap()
        .with_fault_plan(plan)
        .with_auto_checkpoint(SimDuration::from_millis(25));
        t.enable_trace();
        let r = t.run(&test);
        assert_eq!(r.crash_events, 1);
        assert_eq!(r.recovery_events, 1);
        assert_eq!(r.checkpoint_restores, 1);
        assert!(r.checkpoint_saves > 0);
        assert!(
            (r.downtime_ms_per_client[0] - 360.0).abs() < 1.0,
            "downtime {:?}",
            r.downtime_ms_per_client
        );
        assert_eq!(r.downtime_ms_per_client[1], 0.0);
        // The crashed client still finished all its batches after
        // recovery (run-to-completion), minus at most the one lost.
        assert!(r.served_per_client[0] >= 11, "{:?}", r.served_per_client);
        assert_eq!(r.served_per_client[1], 12);
        let trace = t.trace().unwrap();
        assert_eq!(trace.count(EventKind::ClientCrash), 1);
        assert_eq!(trace.count(EventKind::ClientRecover), 1);
        assert_eq!(trace.count(EventKind::CheckpointRestore), 1);
        assert!(trace.count(EventKind::CheckpointSave) > 0);
        assert!(t.last_checkpoint().is_some());
    }

    #[test]
    fn liveness_detects_dead_client_during_long_crash() {
        let cfg = SplitConfig::tiny(CutPoint(1), 2)
            .epochs(6)
            .batch_size(8)
            .seed(4);
        let train = data(48);
        let test = data(20);
        let top = StarTopology::uniform(2, Link::wan(5.0, 100.0));
        let plan = FaultPlan::new().client_crash(
            EndSystemId(0),
            SimTime::from_millis(30),
            SimTime::from_millis(800),
        );
        let mut t = AsyncSplitTrainer::new(
            cfg,
            &train,
            top,
            SchedulingPolicy::Fifo,
            ComputeModel::default(),
        )
        .unwrap()
        .with_fault_plan(plan)
        .with_liveness_timeout(SimDuration::from_millis(100));
        let r = t.run(&test);
        assert!(
            r.dead_clients_detected >= 1,
            "server should notice the silence: {:?}",
            r
        );
        // The survivor kept training the whole time (quorum of one).
        assert_eq!(r.served_per_client[1], 18);
    }

    #[test]
    fn dormant_joiner_is_not_counted_dead() {
        // End-system 2 is silent until its join event fires, as declared:
        // however late that is, the liveness sweep must not count it dead.
        for join_ms in [500, 2_500, 5_000] {
            let cfg = SplitConfig::tiny(CutPoint(1), 3)
                .epochs(1)
                .batch_size(8)
                .seed(4);
            let top = StarTopology::uniform(3, Link::wan(5.0, 100.0));
            let plan = FaultPlan::new().client_join(EndSystemId(2), SimTime::from_millis(join_ms));
            let mut t = AsyncSplitTrainer::new(
                cfg,
                &data(72),
                top,
                SchedulingPolicy::Fifo,
                ComputeModel::default(),
            )
            .unwrap()
            .with_fault_plan(plan);
            let r = t.run(&data(20));
            assert_eq!(r.clients_joined, 1, "join at {join_ms} ms");
            assert_eq!(r.crash_events, 0, "join at {join_ms} ms");
            assert_eq!(r.dead_clients_detected, 0, "join at {join_ms} ms");
        }
    }

    #[test]
    fn server_stall_delays_but_loses_nothing() {
        let top = StarTopology::uniform(2, Link::wan(5.0, 100.0));
        let mk = |plan: FaultPlan| {
            let cfg = SplitConfig::tiny(CutPoint(1), 2)
                .epochs(1)
                .batch_size(8)
                .seed(4);
            let train = data(48);
            let test = data(20);
            let mut t = AsyncSplitTrainer::new(
                cfg,
                &train,
                top.clone(),
                SchedulingPolicy::Fifo,
                ComputeModel::default(),
            )
            .unwrap()
            .with_fault_plan(plan);
            t.run(&test)
        };
        let clean = mk(FaultPlan::new());
        let stalled =
            mk(FaultPlan::new().server_stall(SimTime::from_millis(10), SimTime::from_millis(300)));
        assert_eq!(stalled.served_per_client, clean.served_per_client);
        assert_eq!(stalled.batches_lost, 0);
        assert!(
            stalled.sim_seconds > clean.sim_seconds + 0.2,
            "stall should delay: {} vs {}",
            stalled.sim_seconds,
            clean.sim_seconds
        );
    }

    #[test]
    fn scheduled_churn_joins_leaves_and_rejoins() {
        // Fleet of 3: clients 0 and 1 start active, client 2 is a
        // pre-declared joiner admitted at 100 ms. Client 0 departs at
        // 150 ms and rejoins at 400 ms, resuming from its last acked
        // batch.
        let mk = || {
            let cfg = SplitConfig::tiny(CutPoint(1), 3)
                .epochs(4)
                .batch_size(8)
                .seed(4);
            let train = data(72);
            let test = data(20);
            let top = StarTopology::uniform(3, Link::wan(5.0, 100.0));
            let plan = FaultPlan::new()
                .client_join(EndSystemId(2), SimTime::from_millis(100))
                .client_leave(EndSystemId(0), SimTime::from_millis(150))
                .client_rejoin(EndSystemId(0), SimTime::from_millis(400));
            let mut t = AsyncSplitTrainer::new(
                cfg,
                &train,
                top,
                SchedulingPolicy::Fifo,
                ComputeModel::default(),
            )
            .unwrap()
            .with_fault_plan(plan)
            .with_auto_checkpoint(SimDuration::from_millis(50));
            t.enable_trace();
            let r = t.run(&test);
            let csv = t.trace().unwrap().to_csv();
            let conserves = t.membership().conserves();
            (r, csv, conserves)
        };
        let (r, csv_a, conserves) = mk();
        assert_eq!(r.clients_joined, 1);
        assert_eq!(r.clients_departed, 1);
        assert_eq!(r.rejoins, 1);
        assert!(conserves, "joined - departed must equal members");
        // The joiner was warm-started from a checkpointed donor.
        assert!(r.checkpoint_restores >= 1, "{:?}", r);
        // Everyone finished every batch: the joiner ran its full shard
        // after admission, the rejoiner replayed its un-acked batch.
        assert_eq!(r.served_per_client, vec![12, 12, 12]);
        assert_eq!(r.batches_lost, 0);
        // Churn is seed-deterministic down to the trace.
        let (_, csv_b, _) = mk();
        assert_eq!(csv_a, csv_b);
    }

    #[test]
    fn overload_control_sheds_oldest_and_bounds_the_queue() {
        // Fast clients, nearly-stalled server, tiny ingress bound: the
        // queue sheds oldest-first and its depth never exceeds the cap.
        let cfg = SplitConfig::tiny(CutPoint(1), 3)
            .epochs(1)
            .batch_size(8)
            .seed(4);
        let train = data(72);
        let test = data(20);
        let compute = ComputeModel {
            client_batch: SimDuration::from_millis(1),
            server_batch: SimDuration::from_millis(500),
        };
        let top = StarTopology::uniform(3, Link::wan(1.0, 100.0));
        let mut t = AsyncSplitTrainer::new(cfg, &train, top, SchedulingPolicy::Fifo, compute)
            .unwrap()
            .with_retry_policy(RetryPolicy::from_timeout(SimDuration::from_millis(100)))
            .with_overload_control(OverloadConfig {
                queue_capacity: 1,
                bucket_rate: 1_000,
                bucket_burst: 1_000,
                ..OverloadConfig::default()
            })
            .with_telemetry(SimDuration::from_millis(100), 64);
        t.enable_trace();
        let r = t.run(&test);
        assert!(r.batches_shed > 0, "expected shedding: {:?}", r);
        assert!(r.max_queue_depth <= 1, "depth {}", r.max_queue_depth);
        assert_eq!(
            t.trace().unwrap().count(EventKind::IngressShed) as u64,
            r.batches_shed
        );
        assert_eq!(r.batches_lost, r.batches_shed);
        assert!(!t.queue_depth_samples().is_empty());
        // The recorded post-insert depth respects the bound as well.
        let registry = t.telemetry().unwrap().registry();
        for id in 0..3 {
            let depth = registry.histogram(MetricId::QueueDepth, id).unwrap();
            assert_eq!(depth.max(), Some(1), "end-system {id}");
        }
    }

    #[test]
    fn staleness_is_service_start_minus_arrival() {
        // A slow server makes batches queue. Without faults each client's
        // arrivals and service starts alternate, so they pair up in order.
        let cfg = SplitConfig::tiny(CutPoint(1), 3).epochs(1).batch_size(8);
        let compute = ComputeModel {
            client_batch: SimDuration::from_millis(1),
            server_batch: SimDuration::from_millis(40),
        };
        let top = StarTopology::uniform(3, Link::wan(5.0, 100.0));
        let mut t = AsyncSplitTrainer::new(cfg, &data(72), top, SchedulingPolicy::Fifo, compute)
            .unwrap()
            .with_telemetry(SimDuration::from_millis(100), 64);
        t.enable_trace();
        t.run(&data(8));
        let events = t.trace().unwrap().events();
        let registry = t.telemetry().unwrap().registry();
        for id in 0..3 {
            let at = |kind| {
                events
                    .iter()
                    .filter(move |e| e.kind == kind && e.end_system.0 == id)
                    .map(|e| e.at)
            };
            let waits: Vec<u64> = at(EventKind::Arrival)
                .zip(at(EventKind::ServiceStart))
                .map(|(arrived, served)| served.since(arrived).as_micros())
                .collect();
            let stale = registry
                .histogram(MetricId::GradientStaleness, id as u64)
                .unwrap();
            assert_eq!(stale.count(), waits.len() as u64);
            assert_eq!(stale.max(), waits.iter().max().copied());
            assert!(stale.max() > Some(0), "end-system {id} never waited");
        }
    }

    #[test]
    fn round_deadlines_apply_partial_quorum_and_abandon_stragglers() {
        // One near client, one pathologically far straggler, short round
        // deadline: the fleet applies partial quorums instead of waiting.
        let cfg = SplitConfig::tiny(CutPoint(1), 2)
            .epochs(1)
            .batch_size(8)
            .seed(4);
        let train = data(48);
        let test = data(20);
        let top = StarTopology::new(vec![Link::wan(2.0, 100.0), Link::wan(2_000.0, 100.0)]);
        let mut t = AsyncSplitTrainer::new(
            cfg,
            &train,
            top,
            SchedulingPolicy::Fifo,
            ComputeModel::default(),
        )
        .unwrap()
        .with_round_deadlines(DeadlineConfig {
            round_ms: 100,
            min_quorum_frac: 0.5,
        });
        t.enable_trace();
        let r = t.run(&test);
        assert!(
            r.deadline_partial_applies > 0,
            "expected partial applies: {:?}",
            r
        );
        assert_eq!(
            t.trace().unwrap().count(EventKind::DeadlinePartialApply) as u64,
            r.deadline_partial_applies
        );
        // The near client is unharmed; the straggler lost work to the
        // deadline.
        assert_eq!(r.served_per_client[0], 3);
        assert!(r.batches_lost_per_client[1] > 0);
    }

    #[test]
    fn breaker_trips_on_dead_link_and_defers_sends() {
        // Client 0's link drops everything during the surge: the breaker
        // trips after the threshold and defers sends while open.
        let cfg = SplitConfig::tiny(CutPoint(1), 2)
            .epochs(2)
            .batch_size(8)
            .seed(4);
        let train = data(48);
        let test = data(20);
        let top = StarTopology::uniform(2, Link::wan(5.0, 100.0));
        let plan = FaultPlan::new().loss_surge(
            EndSystemId(0),
            0.97,
            SimTime::from_millis(0),
            SimTime::from_millis(300),
        );
        let mut t = AsyncSplitTrainer::new(
            cfg,
            &train,
            top,
            SchedulingPolicy::Fifo,
            ComputeModel::default(),
        )
        .unwrap()
        .with_fault_plan(plan)
        .with_retry_policy(RetryPolicy {
            base_backoff: SimDuration::from_millis(10),
            max_backoff: SimDuration::from_millis(30),
            jitter_frac: 0.1,
            max_attempts: 30,
        })
        .with_overload_control(OverloadConfig::default());
        t.enable_trace();
        let r = t.run(&test);
        assert!(r.breaker_trips > 0, "expected breaker trips: {:?}", r);
        assert_eq!(
            t.trace().unwrap().count(EventKind::BreakerTrip) as u64,
            r.breaker_trips
        );
        // The healthy client is untouched by client 0's breaker.
        assert_eq!(r.served_per_client[1], 6);
    }

    #[test]
    fn faulty_runs_are_seed_deterministic() {
        let mk = || {
            let cfg = SplitConfig::tiny(CutPoint(1), 2)
                .epochs(2)
                .batch_size(8)
                .seed(9);
            let train = data(48);
            let test = data(20);
            let top = StarTopology::new(vec![
                Link::wan(5.0, 100.0).loss(0.15),
                Link::wan(40.0, 100.0),
            ]);
            let plan = FaultPlan::new()
                .client_crash(
                    EndSystemId(1),
                    SimTime::from_millis(50),
                    SimTime::from_millis(250),
                )
                .loss_surge(
                    EndSystemId(0),
                    0.3,
                    SimTime::from_millis(0),
                    SimTime::from_millis(200),
                );
            let mut t = AsyncSplitTrainer::new(
                cfg,
                &train,
                top,
                SchedulingPolicy::Fifo,
                ComputeModel::default(),
            )
            .unwrap()
            .with_fault_plan(plan)
            .with_auto_checkpoint(SimDuration::from_millis(40));
            t.enable_trace();
            let r = t.run(&test);
            let csv = t.trace().unwrap().to_csv();
            (r, csv)
        };
        let (a, csv_a) = mk();
        let (b, csv_b) = mk();
        assert_eq!(csv_a, csv_b, "identical seeds must reproduce the trace");
        assert_eq!(a.retransmits, b.retransmits);
        assert_eq!(a.sim_seconds, b.sim_seconds);
        assert_eq!(a.final_accuracy, b.final_accuracy);
        assert_eq!(a.downtime_ms_per_client, b.downtime_ms_per_client);
    }
}
