//! The server-side arrival queue and its scheduling policies.
//!
//! §II of the paper: "The centralized server requires queue while gathering
//! the results of the first hidden layers in end-systems … If an
//! end-system is located very far from the centralized server, the
//! parameters can arrive lately or sparsely. Then, the learning
//! performance can be biased … Thus, parameter scheduling is required
//! depending on applications, i.e., a queue data structure needs to be
//! defined." The paper leaves the policy open; we implement three and
//! measure them (experiment E4 in DESIGN.md).

use crate::protocol::ActivationMsg;
use std::collections::VecDeque;
use stsl_simnet::{SimDuration, SimTime};

/// How the server picks the next queued activation batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulingPolicy {
    /// Serve strictly in arrival order. Fast/near clients dominate under
    /// latency heterogeneity.
    Fifo,
    /// Serve the pending batch of the *least-served* end-system first
    /// (ties to the earliest arrival). Equalizes contributions.
    RoundRobin,
    /// FIFO, but discard batches that waited longer than `max_age` —
    /// bounding staleness at the cost of dropped work.
    StalenessDrop {
        /// Maximum queueing age before a batch is discarded.
        max_age: SimDuration,
    },
}

impl std::fmt::Display for SchedulingPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedulingPolicy::Fifo => write!(f, "fifo"),
            SchedulingPolicy::RoundRobin => write!(f, "round-robin"),
            SchedulingPolicy::StalenessDrop { max_age } => {
                write!(f, "staleness-drop({})", max_age)
            }
        }
    }
}

/// Anything the arrival queue can hold: the queue only needs to know
/// which end-system sent a job (for round-robin fairness accounting and
/// telemetry actor keys), so the fleet path can enqueue slim
/// tensor-free job records while the trainers keep using full
/// [`ActivationMsg`]s.
pub trait ArrivalJob {
    /// The end-system that sent this job.
    fn sender(&self) -> stsl_simnet::EndSystemId;
}

impl ArrivalJob for ActivationMsg {
    fn sender(&self) -> stsl_simnet::EndSystemId {
        self.from
    }
}

/// One queued job with its arrival metadata.
#[derive(Debug, Clone)]
pub struct QueuedJob<J = ActivationMsg> {
    /// When the job reached the server.
    pub arrived_at: SimTime,
    /// The queued payload.
    pub msg: J,
}

/// Upper bound on retained depth samples. Below it the series is the
/// complete per-arrival record (the churn bench relies on that); past it
/// the series decimates deterministically — keep every other retained
/// sample, double the keep-stride — so 100k-client fleets don't grow a
/// row per arrival. Aggregates (`mean_depth`, `max_depth`, `mean_wait`)
/// stay exact regardless: they use running integer accumulators.
const DEPTH_SAMPLE_CAP: usize = 65_536;

/// The server's arrival queue, generic over the queued payload
/// (defaulting to the full activation message the trainers enqueue).
#[derive(Debug)]
pub struct ArrivalQueue<J: ArrivalJob = ActivationMsg> {
    policy: SchedulingPolicy,
    pending: VecDeque<QueuedJob<J>>,
    served_per_client: Vec<u64>,
    /// Bounded-ingress capacity; `None` means unbounded (the legacy
    /// behavior).
    capacity: Option<usize>,
    /// Batches shed by the bounded-ingress policy.
    shed: u64,
    depth_samples: Vec<usize>,
    /// Keep one depth sample per `depth_stride` arrivals.
    depth_stride: u64,
    /// Total arrivals (depth observations) ever recorded.
    depth_total: u64,
    /// Exact running sum of post-insert depths.
    depth_sum: u128,
    /// Exact running maximum of post-insert depths.
    depth_max: usize,
    /// Exact running sum of served-batch queueing delays, µs.
    wait_sum_us: u128,
    /// Number of served batches contributing to `wait_sum_us`.
    wait_count: u64,
}

impl<J: ArrivalJob> ArrivalQueue<J> {
    /// Creates a queue for `end_systems` clients under `policy`.
    pub fn new(policy: SchedulingPolicy, end_systems: usize) -> Self {
        ArrivalQueue {
            policy,
            pending: VecDeque::new(),
            served_per_client: vec![0; end_systems],
            capacity: None,
            shed: 0,
            depth_samples: Vec::new(),
            depth_stride: 1,
            depth_total: 0,
            depth_sum: 0,
            depth_max: 0,
            wait_sum_us: 0,
            wait_count: 0,
        }
    }

    /// Bounds the queue at `capacity` pending batches (clamped to ≥ 1);
    /// [`ArrivalQueue::push_shed`] sheds the oldest pending batches to
    /// stay under the bound.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = Some(capacity.max(1));
        self
    }

    /// The configured ingress bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Batches shed by the bounded-ingress policy so far.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// The active policy.
    pub fn policy(&self) -> SchedulingPolicy {
        self.policy
    }

    /// Number of batches waiting.
    pub fn depth(&self) -> usize {
        self.pending.len()
    }

    /// Whether nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Records one post-insert depth observation: exact running
    /// aggregates plus the bounded, stride-decimated raw series.
    fn record_depth(&mut self) {
        let d = self.pending.len();
        if self.depth_total.is_multiple_of(self.depth_stride.max(1)) {
            self.depth_samples.push(d);
            if self.depth_samples.len() >= DEPTH_SAMPLE_CAP {
                let mut keep_odd = false;
                self.depth_samples.retain(|_| {
                    keep_odd = !keep_odd;
                    keep_odd
                });
                self.depth_stride = self.depth_stride.max(1) * 2;
            }
        }
        self.depth_total += 1;
        self.depth_sum += d as u128;
        self.depth_max = self.depth_max.max(d);
    }

    /// Enqueues an arrival, sampling the queue depth *after* insertion.
    pub fn push(&mut self, arrived_at: SimTime, msg: J) {
        self.pending.push_back(QueuedJob { arrived_at, msg });
        self.record_depth();
    }

    /// Enqueues under the bounded-ingress policy: when the queue is at
    /// capacity, the oldest pending batches (oldest-staleness-first — the
    /// queue front, since arrivals enqueue in time order) are shed to make
    /// room, so the post-insert depth never exceeds the bound. The shed
    /// victims are returned so the trainer can notify their senders.
    /// Without a configured capacity this is exactly [`ArrivalQueue::push`],
    /// so the trainers and the fleet call this one entry point.
    pub fn push_shed(&mut self, arrived_at: SimTime, msg: J) -> Vec<J> {
        let mut victims = Vec::new();
        if let Some(cap) = self.capacity {
            while self.pending.len() >= cap {
                let job = self.pending.pop_front().expect("queue is at capacity");
                self.shed += 1;
                victims.push(job.msg);
            }
        }
        self.push(arrived_at, msg);
        victims
    }

    /// Pops the next batch to serve at time `now` according to the policy.
    ///
    /// For [`SchedulingPolicy::StalenessDrop`], expired batches are
    /// discarded before selection and returned in the second tuple
    /// element, so the trainer can notify their senders and count them.
    pub fn pop(&mut self, now: SimTime) -> (Option<QueuedJob<J>>, Vec<J>) {
        let mut discarded = Vec::new();
        if let SchedulingPolicy::StalenessDrop { max_age } = self.policy {
            while let Some(front) = self.pending.front() {
                if now.since(front.arrived_at) > max_age {
                    let job = self.pending.pop_front().expect("front exists");
                    discarded.push(job.msg);
                } else {
                    break;
                }
            }
        }
        let chosen = match self.policy {
            SchedulingPolicy::Fifo | SchedulingPolicy::StalenessDrop { .. } => {
                self.pending.pop_front()
            }
            SchedulingPolicy::RoundRobin => {
                let best = self
                    .pending
                    .iter()
                    .enumerate()
                    .min_by_key(|(pos, job)| (self.served_per_client[job.msg.sender().0], *pos))
                    .map(|(pos, _)| pos);
                best.and_then(|pos| self.pending.remove(pos))
            }
        };
        if let Some(job) = &chosen {
            self.served_per_client[job.msg.sender().0] += 1;
            self.wait_sum_us += now.since(job.arrived_at).as_micros() as u128;
            self.wait_count += 1;
        }
        (chosen, discarded)
    }

    /// Mean queue depth observed at arrival instants (exact over every
    /// arrival, independent of sample decimation).
    pub fn mean_depth(&self) -> f64 {
        if self.depth_total == 0 {
            return 0.0;
        }
        self.depth_sum as f64 / self.depth_total as f64
    }

    /// Maximum observed queue depth (exact).
    pub fn max_depth(&self) -> usize {
        self.depth_max
    }

    /// Post-insert depth samples, in arrival order — the raw series the
    /// churn benchmark plots to show unbounded queue growth with
    /// shedding off. Complete up to a fixed cap, then a deterministic
    /// systematic subsample (every 2^k-th arrival).
    pub fn depth_samples(&self) -> &[usize] {
        &self.depth_samples
    }

    /// Mean queueing delay of served batches (exact running average).
    pub fn mean_wait(&self) -> SimDuration {
        if self.wait_count == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_micros((self.wait_sum_us / self.wait_count as u128) as u64)
    }

    /// Served-batch counts per end-system.
    pub fn served_per_client(&self) -> &[u64] {
        &self.served_per_client
    }

    /// Coefficient of variation of per-client service counts: 0 means
    /// perfectly fair, higher means the schedule is biased towards some
    /// clients — the "biased learning" failure mode §II warns about.
    pub fn service_imbalance(&self) -> f64 {
        let n = self.served_per_client.len() as f64;
        if n == 0.0 {
            return 0.0;
        }
        let mean = stsl_tensor::sum_f64(self.served_per_client.iter().map(|&c| c as f64)) / n;
        if mean == 0.0 {
            return 0.0;
        }
        let var = stsl_tensor::sum_f64(
            self.served_per_client
                .iter()
                .map(|&c| (c as f64 - mean).powi(2)),
        ) / n;
        var.sqrt() / mean
    }
}

/// Micro-tokens per token: the bucket does all arithmetic in integer
/// micro-tokens so refill is exact and deterministic (1 token/s refills
/// exactly 1 micro-token per simulated microsecond).
const MICRO_TOKENS: u64 = 1_000_000;

/// Deterministic per-client token bucket for admission control.
///
/// Refill is lazy: each [`TokenBucket::try_take`] first credits
/// `elapsed_us × rate_per_sec` micro-tokens (saturating, capped at the
/// burst size), then spends one token if available. Pure integer state —
/// no floats, no clocks — so admission decisions are bit-reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenBucket {
    tokens_micro: u64,
    rate_per_sec: u64,
    burst: u64,
    last_refill: SimTime,
}

impl TokenBucket {
    /// A bucket refilling at `rate_per_sec` tokens per simulated second
    /// with a burst size of `burst` tokens (clamped to ≥ 1). Starts full.
    pub fn new(rate_per_sec: u64, burst: u64) -> Self {
        let burst = burst.max(1);
        TokenBucket {
            tokens_micro: burst.saturating_mul(MICRO_TOKENS),
            rate_per_sec,
            burst,
            last_refill: SimTime::ZERO,
        }
    }

    fn refill(&mut self, now: SimTime) {
        if now <= self.last_refill {
            return;
        }
        let elapsed = now.since(self.last_refill).as_micros();
        let add = elapsed.saturating_mul(self.rate_per_sec);
        self.tokens_micro = self
            .tokens_micro
            .saturating_add(add)
            .min(self.burst.saturating_mul(MICRO_TOKENS));
        self.last_refill = now;
    }

    /// Spends one token at `now` if the (just-refilled) bucket holds one.
    pub fn try_take(&mut self, now: SimTime) -> bool {
        self.refill(now);
        if self.tokens_micro >= MICRO_TOKENS {
            self.tokens_micro -= MICRO_TOKENS;
            true
        } else {
            false
        }
    }

    /// Whole tokens currently held (after the last refill).
    pub fn tokens(&self) -> u64 {
        self.tokens_micro / MICRO_TOKENS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::BatchId;
    use stsl_simnet::EndSystemId;
    use stsl_tensor::Tensor;

    fn msg(from: usize, batch: u32) -> ActivationMsg {
        ActivationMsg {
            from: EndSystemId(from),
            batch_id: BatchId { epoch: 0, batch },
            activations: Tensor::zeros([1, 1, 1, 1]),
            targets: vec![0],
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn fifo_serves_in_arrival_order() {
        let mut q = ArrivalQueue::new(SchedulingPolicy::Fifo, 2);
        q.push(t(1), msg(0, 0));
        q.push(t(2), msg(1, 0));
        q.push(t(3), msg(0, 1));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop(t(10)).0)
            .map(|j| j.msg.batch_id.batch * 10 + j.msg.from.0 as u32)
            .collect();
        assert_eq!(order, vec![0, 1, 10]);
    }

    #[test]
    fn round_robin_prefers_underserved_client() {
        let mut q = ArrivalQueue::new(SchedulingPolicy::RoundRobin, 2);
        // Client 0 floods the queue; client 1 has one batch.
        q.push(t(1), msg(0, 0));
        q.push(t(2), msg(0, 1));
        q.push(t(3), msg(0, 2));
        q.push(t(4), msg(1, 0));
        let first = q.pop(t(5)).0.unwrap();
        assert_eq!(first.msg.from, EndSystemId(0));
        // Now client 0 has been served once, so client 1 goes next even
        // though its batch arrived last.
        let second = q.pop(t(6)).0.unwrap();
        assert_eq!(second.msg.from, EndSystemId(1));
    }

    #[test]
    fn round_robin_equalizes_service_counts() {
        let mut q = ArrivalQueue::new(SchedulingPolicy::RoundRobin, 3);
        for b in 0..4 {
            q.push(t(b), msg(0, b as u32)); // near client floods
        }
        q.push(t(10), msg(1, 0));
        q.push(t(11), msg(2, 0));
        for _ in 0..6 {
            q.pop(t(20));
        }
        assert_eq!(q.served_per_client(), &[4, 1, 1]);
    }

    #[test]
    fn staleness_drop_discards_old_batches() {
        let policy = SchedulingPolicy::StalenessDrop {
            max_age: SimDuration::from_millis(10),
        };
        let mut q = ArrivalQueue::new(policy, 2);
        q.push(t(0), msg(0, 0)); // will be 50 ms old
        q.push(t(45), msg(1, 0)); // 5 ms old
        let (job, discarded) = q.pop(t(50));
        assert_eq!(discarded.len(), 1);
        assert_eq!(discarded[0].from, EndSystemId(0));
        assert_eq!(job.unwrap().msg.from, EndSystemId(1));
    }

    #[test]
    fn statistics_track_depth_and_wait() {
        let mut q = ArrivalQueue::new(SchedulingPolicy::Fifo, 1);
        q.push(t(0), msg(0, 0));
        q.push(t(0), msg(0, 1));
        assert_eq!(q.max_depth(), 2);
        assert!((q.mean_depth() - 1.5).abs() < 1e-9);
        q.pop(t(4));
        assert_eq!(q.mean_wait().as_millis(), 4);
    }

    #[test]
    fn service_imbalance_zero_when_fair() {
        let mut q = ArrivalQueue::new(SchedulingPolicy::Fifo, 2);
        q.push(t(0), msg(0, 0));
        q.push(t(1), msg(1, 0));
        q.pop(t(2));
        q.pop(t(2));
        assert_eq!(q.service_imbalance(), 0.0);
    }

    #[test]
    fn service_imbalance_positive_when_skewed() {
        let mut q = ArrivalQueue::new(SchedulingPolicy::Fifo, 2);
        for b in 0..4 {
            q.push(t(b), msg(0, b as u32));
        }
        for _ in 0..4 {
            q.pop(t(10));
        }
        assert!(q.service_imbalance() > 0.9);
    }

    #[test]
    fn bounded_queue_sheds_oldest_first_and_never_exceeds_capacity() {
        let mut q = ArrivalQueue::new(SchedulingPolicy::Fifo, 3).with_capacity(2);
        assert_eq!(q.capacity(), Some(2));
        assert!(q.push_shed(t(0), msg(0, 0)).is_empty());
        assert!(q.push_shed(t(1), msg(1, 0)).is_empty());
        // Full: the third arrival sheds the oldest (client 0's batch).
        let victims = q.push_shed(t(2), msg(2, 0));
        assert_eq!(victims.len(), 1);
        assert_eq!(victims[0].from, EndSystemId(0));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.shed(), 1);
        assert_eq!(q.max_depth(), 2, "depth never exceeded the bound");
        // Survivors are served in order, unshed.
        assert_eq!(q.pop(t(3)).0.unwrap().msg.from, EndSystemId(1));
        assert_eq!(q.pop(t(3)).0.unwrap().msg.from, EndSystemId(2));
    }

    #[test]
    fn unbounded_push_shed_matches_plain_push() {
        let mut q = ArrivalQueue::new(SchedulingPolicy::Fifo, 1);
        for b in 0..50 {
            assert!(q.push_shed(t(b), msg(0, b as u32)).is_empty());
        }
        assert_eq!(q.depth(), 50);
        assert_eq!(q.shed(), 0);
        assert_eq!(q.depth_samples().len(), 50);
        assert_eq!(q.depth_samples().last(), Some(&50));
    }

    #[test]
    fn token_bucket_rates_and_bursts_are_exact() {
        let mut b = TokenBucket::new(2, 3); // 2 tokens/s, burst 3.
                                            // Starts full: the burst drains immediately.
        assert!(b.try_take(t(0)));
        assert!(b.try_take(t(0)));
        assert!(b.try_take(t(0)));
        assert!(!b.try_take(t(0)));
        assert_eq!(b.tokens(), 0);
        // 2 tokens/s -> one token every 500 ms.
        assert!(!b.try_take(t(499)));
        assert!(b.try_take(t(500)));
        assert!(!b.try_take(t(500)));
        // Idle long enough to refill past the burst: caps at 3.
        assert!(b.try_take(t(10_000)));
        assert!(b.try_take(t(10_000)));
        assert!(b.try_take(t(10_000)));
        assert!(!b.try_take(t(10_000)));
        // Deterministic: same calls, same outcomes.
        let run = || {
            let mut b = TokenBucket::new(7, 2);
            (0..40).map(|i| b.try_take(t(i * 37))).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_pop_returns_none() {
        let mut q: ArrivalQueue = ArrivalQueue::new(SchedulingPolicy::RoundRobin, 1);
        let (job, discarded) = q.pop(t(0));
        assert!(job.is_none());
        assert!(discarded.is_empty());
    }

    mod fairness_properties {
        use super::*;
        use proptest::prelude::*;

        const CLIENTS: usize = 4;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Round-robin fairness invariant: at every pop, the chosen
            /// end-system's already-served count is minimal among the
            /// end-systems that still have work queued. This is the local
            /// guarantee that prevents the "biased learning" failure mode —
            /// no client with pending batches can be skipped in favor of a
            /// better-served one, under *any* arrival order.
            #[test]
            fn round_robin_always_serves_a_least_served_pending_client(
                arrivals in prop::collection::vec(0usize..CLIENTS, 1..60),
            ) {
                let mut q = ArrivalQueue::new(SchedulingPolicy::RoundRobin, CLIENTS);
                let mut queued = [0u64; CLIENTS];
                for (i, &from) in arrivals.iter().enumerate() {
                    q.push(t(i as u64), msg(from, i as u32));
                    queued[from] += 1;
                }
                let mut served = vec![0u64; CLIENTS];
                loop {
                    let (job, discarded) = q.pop(t(1_000));
                    prop_assert!(discarded.is_empty());
                    let Some(job) = job else { break };
                    let who = job.msg.from.0;
                    let min_pending = (0..CLIENTS)
                        .filter(|&c| queued[c] > 0)
                        .map(|c| served[c])
                        .min()
                        .expect("a job was popped, so some client had work");
                    prop_assert_eq!(served[who], min_pending);
                    prop_assert!(queued[who] > 0);
                    served[who] += 1;
                    queued[who] -= 1;
                }
                prop_assert_eq!(&served, q.served_per_client());
            }

            /// Global staleness bound: while every end-system stays
            /// backlogged, no end-system's applied-update count may lag the
            /// maximum by more than one round — the round-robin staleness
            /// bound. The arrival interleaving is randomized; each client's
            /// backlog is topped up to the same size so the bound is
            /// exercised over a full drain.
            #[test]
            fn round_robin_lag_bounded_by_one_under_full_backlog(
                order in prop::collection::vec(0usize..CLIENTS, 8..60),
            ) {
                let mut counts = [0u64; CLIENTS];
                for &c in &order {
                    counts[c] += 1;
                }
                let per_client = counts.iter().copied().min().unwrap_or(0).max(1);

                let mut q = ArrivalQueue::new(SchedulingPolicy::RoundRobin, CLIENTS);
                let mut pushed = [0u64; CLIENTS];
                let mut clock = 0u64;
                // Random interleaving, capped at `per_client` per end-system.
                for &c in &order {
                    if pushed[c] < per_client {
                        q.push(t(clock), msg(c, clock as u32));
                        pushed[c] += 1;
                        clock += 1;
                    }
                }
                // Top up stragglers so every client holds exactly
                // `per_client` jobs (arriving last: the worst case for them).
                for (c, p) in pushed.iter_mut().enumerate() {
                    while *p < per_client {
                        q.push(t(clock), msg(c, clock as u32));
                        *p += 1;
                        clock += 1;
                    }
                }

                let mut served = vec![0u64; CLIENTS];
                for _ in 0..per_client * CLIENTS as u64 {
                    let job = q.pop(t(1_000)).0.expect("queue drains exactly");
                    served[job.msg.from.0] += 1;
                    let max = *served.iter().max().unwrap();
                    let min = *served.iter().min().unwrap();
                    prop_assert!(
                        max - min <= 1,
                        "service lag {} exceeds the round-robin staleness bound of 1 \
                         (served: {:?})",
                        max - min,
                        served
                    );
                }
                prop_assert!(q.is_empty());
                prop_assert!(served.iter().all(|&s| s == per_client));
                prop_assert_eq!(q.service_imbalance(), 0.0);
            }

            /// Staleness-drop policy invariant: a served batch is never
            /// older than `max_age` at service time, and everything expired
            /// ahead of it is discarded and handed back, regardless of arrival
            /// timing.
            #[test]
            fn staleness_drop_never_serves_expired_batches(
                mut gaps in prop::collection::vec(0u64..40, 1..30),
                max_age in 5u64..25,
            ) {
                let policy = SchedulingPolicy::StalenessDrop {
                    max_age: SimDuration::from_millis(max_age),
                };
                let mut q = ArrivalQueue::new(policy, 2);
                // Arrivals must be time-ordered, as in the simulator.
                let mut clock = 0u64;
                let total = gaps.len();
                for (i, gap) in gaps.drain(..).enumerate() {
                    clock += gap;
                    q.push(t(clock), msg(i % 2, i as u32));
                }
                let now = t(clock + max_age / 2);
                let mut served = 0usize;
                let mut discarded_total = 0usize;
                loop {
                    let (job, discarded) = q.pop(now);
                    discarded_total += discarded.len();
                    let Some(job) = job else { break };
                    prop_assert!(
                        now.since(job.arrived_at) <= SimDuration::from_millis(max_age),
                        "served a batch {} old, max_age {} ms",
                        now.since(job.arrived_at),
                        max_age
                    );
                    served += 1;
                }
                prop_assert_eq!(served + discarded_total, total);
            }
        }
    }
}
