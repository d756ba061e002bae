//! Fault-tolerance policies for the asynchronous trainer: retransmission
//! backoff and server-side liveness tracking.

use stsl_simnet::{EndSystemId, SimDuration, SimTime};

/// Retransmission policy for lost protocol messages: exponential backoff
/// with jitter and a bounded retry budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Backoff before the first retransmission.
    pub base_backoff: SimDuration,
    /// Backoff ceiling — doubling stops here.
    pub max_backoff: SimDuration,
    /// Jitter fraction in `[0, 1]`: each backoff adds `U[0, frac · b)`.
    pub jitter_frac: f64,
    /// Total send attempts per message (first try included). After this
    /// many failures the batch is abandoned.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_backoff: SimDuration::from_millis(50),
            max_backoff: SimDuration::from_millis(2_000),
            jitter_frac: 0.2,
            max_attempts: 5,
        }
    }
}

impl RetryPolicy {
    /// Derives a policy from a single loss-recovery timeout: first
    /// backoff at a quarter of the timeout, ceiling at four timeouts,
    /// five attempts. The asynchronous trainer defaults to a 500 ms
    /// timeout.
    pub fn from_timeout(timeout: SimDuration) -> Self {
        let quarter = (timeout.as_micros() / 4).max(1);
        RetryPolicy {
            base_backoff: SimDuration::from_micros(quarter),
            max_backoff: SimDuration::from_micros(quarter.saturating_mul(16).max(1)),
            jitter_frac: 0.1,
            max_attempts: 5,
        }
    }

    /// Backoff before retransmission number `attempt` (1-based: the first
    /// retransmission is attempt 1). Exponential in the attempt number,
    /// capped at [`RetryPolicy::max_backoff`], plus sampled jitter.
    pub fn backoff(&self, attempt: u32, rng: &mut rand::rngs::StdRng) -> SimDuration {
        use rand::Rng;
        // The doubling factor saturates rather than wrapping: at 64+
        // failures `1 << exp` would be UB/wraparound, so shifts past the
        // u64 width clamp to u64::MAX and the multiply saturates too —
        // the ceiling below then applies as usual.
        let exp = attempt.saturating_sub(1);
        let factor = 1u64.checked_shl(exp).unwrap_or(u64::MAX);
        let base = self
            .base_backoff
            .as_micros()
            .saturating_mul(factor)
            .min(self.max_backoff.as_micros())
            .max(1);
        let jitter = if self.jitter_frac > 0.0 {
            let amp = (base as f64 * self.jitter_frac).ceil() as u64;
            if amp > 0 {
                rng.gen_range(0..amp)
            } else {
                0
            }
        } else {
            0
        };
        SimDuration::from_micros(base + jitter)
    }

    /// Whether a message that already failed `failures` times may be
    /// retransmitted.
    pub fn may_retry(&self, failures: u32) -> bool {
        failures < self.max_attempts
    }
}

/// The server's view of which end-systems are alive, from last-seen
/// bookkeeping on uplink arrivals.
#[derive(Debug, Clone)]
pub struct LivenessTracker {
    last_seen: Vec<SimTime>,
    alive: Vec<bool>,
    /// Retired end-systems finished their work; silence from them is
    /// expected and never flagged as death.
    retired: Vec<bool>,
    timeout: SimDuration,
    dead_detections: u64,
    rejoins: u64,
}

impl LivenessTracker {
    /// Creates a tracker for `n` end-systems, all considered alive and
    /// last seen at `t = 0`.
    pub fn new(n: usize, timeout: SimDuration) -> Self {
        LivenessTracker {
            last_seen: vec![SimTime::ZERO; n],
            alive: vec![true; n],
            retired: vec![false; n],
            timeout,
            dead_detections: 0,
            rejoins: 0,
        }
    }

    /// Records traffic from `id` at `at`. Returns `true` if the
    /// end-system had been declared dead and is now rejoining.
    pub fn observe(&mut self, id: EndSystemId, at: SimTime) -> bool {
        self.last_seen[id.0] = at;
        let rejoined = !self.alive[id.0];
        if rejoined {
            self.alive[id.0] = true;
            self.rejoins += 1;
        }
        rejoined
    }

    /// Marks `id` as done with its work: it will never be declared dead.
    pub fn retire(&mut self, id: EndSystemId) {
        self.retired[id.0] = true;
    }

    /// Re-admits a departed or joining end-system: clears any retirement,
    /// marks it alive and resets its last-seen clock to `at` so the
    /// silence accumulated while away is not counted against it.
    pub fn readmit(&mut self, id: EndSystemId, at: SimTime) {
        self.retired[id.0] = false;
        self.alive[id.0] = true;
        self.last_seen[id.0] = at;
    }

    /// Declares dead every non-retired end-system silent for longer than
    /// the timeout. Returns the newly dead.
    pub fn sweep(&mut self, at: SimTime) -> Vec<EndSystemId> {
        let mut newly_dead = Vec::new();
        for i in 0..self.alive.len() {
            if self.alive[i] && !self.retired[i] && at.since(self.last_seen[i]) > self.timeout {
                self.alive[i] = false;
                self.dead_detections += 1;
                newly_dead.push(EndSystemId(i));
            }
        }
        newly_dead
    }

    /// Whether `id` is currently considered alive.
    pub fn is_alive(&self, id: EndSystemId) -> bool {
        self.alive[id.0]
    }

    /// Number of end-systems currently considered alive.
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Total death declarations over the run.
    pub fn dead_detections(&self) -> u64 {
        self.dead_detections
    }

    /// Total rejoin events (dead end-systems heard from again).
    pub fn rejoins(&self) -> u64 {
        self.rejoins
    }
}

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive delivery failures on one link before it trips open.
    pub threshold: u32,
    /// How long the breaker stays open after its first trip.
    pub base_open: SimDuration,
    /// Ceiling for the exponentially growing open window.
    pub max_open: SimDuration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            threshold: 3,
            base_open: SimDuration::from_millis(100),
            max_open: SimDuration::from_millis(3_000),
        }
    }
}

/// Verdict of [`CircuitBreaker::allow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerDecision {
    /// The link is closed (or half-open probing): send now.
    Allow,
    /// The link is open: defer the send until the given time, when the
    /// breaker half-opens and the deferred send becomes the probe.
    Defer(SimTime),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LinkState {
    /// Healthy; counts consecutive failures toward the threshold.
    Closed { failures: u32 },
    /// Tripped: nothing is sent until `until`. `streak` counts how many
    /// times in a row the breaker has tripped (drives the backoff).
    Open { until: SimTime, streak: u32 },
    /// Probing after an open window: one delivery decides the fate.
    HalfOpen { streak: u32 },
}

/// Per-link circuit breaker: after `threshold` consecutive delivery
/// failures a link trips open and all sends on it are deferred; the open
/// window grows exponentially (base·2^streak, capped) while probes keep
/// failing and collapses back to closed on the first success. Pure state
/// machine — no RNG, no host clock — so runs are bit-reproducible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    links: Vec<LinkState>,
}

impl CircuitBreaker {
    /// A breaker for `n` links, all initially closed.
    pub fn new(n: usize, cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cfg,
            links: vec![LinkState::Closed { failures: 0 }; n],
        }
    }

    fn open_window(&self, streak: u32) -> SimDuration {
        let factor = 1u64.checked_shl(streak).unwrap_or(u64::MAX);
        let us = self
            .cfg
            .base_open
            .as_micros()
            .saturating_mul(factor)
            .min(self.cfg.max_open.as_micros())
            .max(1);
        SimDuration::from_micros(us)
    }

    /// Asks whether a send on `id`'s link may go out at `at`. An open
    /// breaker whose window has elapsed half-opens and admits the send as
    /// its probe.
    pub fn allow(&mut self, id: EndSystemId, at: SimTime) -> BreakerDecision {
        match self.links[id.0] {
            LinkState::Closed { .. } | LinkState::HalfOpen { .. } => BreakerDecision::Allow,
            LinkState::Open { until, streak } => {
                if at >= until {
                    self.links[id.0] = LinkState::HalfOpen { streak };
                    BreakerDecision::Allow
                } else {
                    BreakerDecision::Defer(until)
                }
            }
        }
    }

    /// Records a successful delivery on `id`'s link: the breaker closes
    /// and the failure count resets.
    pub fn record_success(&mut self, id: EndSystemId) {
        self.links[id.0] = LinkState::Closed { failures: 0 };
    }

    /// Records a delivery failure on `id`'s link at `at`. Returns `true`
    /// when this failure trips the breaker open (a failed half-open probe
    /// re-trips with a doubled window).
    pub fn record_failure(&mut self, id: EndSystemId, at: SimTime) -> bool {
        match self.links[id.0] {
            LinkState::Closed { failures } => {
                let failures = failures.saturating_add(1);
                if failures >= self.cfg.threshold.max(1) {
                    self.links[id.0] = LinkState::Open {
                        until: at + self.open_window(0),
                        streak: 0,
                    };
                    true
                } else {
                    self.links[id.0] = LinkState::Closed { failures };
                    false
                }
            }
            LinkState::HalfOpen { streak } => {
                let streak = streak.saturating_add(1);
                self.links[id.0] = LinkState::Open {
                    until: at + self.open_window(streak),
                    streak,
                };
                true
            }
            // A failure reported while already open changes nothing: the
            // open window is the authority until it elapses.
            LinkState::Open { .. } => false,
        }
    }

    /// Whether `id`'s link is open (deferring sends) at `at`.
    pub fn is_open(&self, id: EndSystemId, at: SimTime) -> bool {
        matches!(self.links[id.0], LinkState::Open { until, .. } if at < until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stsl_tensor::init::rng_from_seed;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy {
            base_backoff: SimDuration::from_millis(10),
            max_backoff: SimDuration::from_millis(80),
            jitter_frac: 0.0,
            max_attempts: 10,
        };
        let mut rng = rng_from_seed(1);
        assert_eq!(p.backoff(1, &mut rng), SimDuration::from_millis(10));
        assert_eq!(p.backoff(2, &mut rng), SimDuration::from_millis(20));
        assert_eq!(p.backoff(3, &mut rng), SimDuration::from_millis(40));
        assert_eq!(p.backoff(4, &mut rng), SimDuration::from_millis(80));
        // Capped from here on.
        assert_eq!(p.backoff(7, &mut rng), SimDuration::from_millis(80));
    }

    #[test]
    fn jitter_stays_within_fraction() {
        let p = RetryPolicy {
            base_backoff: SimDuration::from_millis(100),
            max_backoff: SimDuration::from_millis(100),
            jitter_frac: 0.5,
            max_attempts: 3,
        };
        let mut rng = rng_from_seed(2);
        for _ in 0..100 {
            let b = p.backoff(1, &mut rng).as_micros();
            assert!((100_000..150_000 + 1).contains(&b), "backoff {}", b);
        }
    }

    #[test]
    fn backoff_saturates_at_extreme_failure_counts() {
        // Regression: at 63 failures the shift reaches the top bit of a
        // u64 and at 64+ it would be undefined without the checked shift;
        // the backoff must stay pinned at the ceiling instead of wrapping
        // down to a tiny value or panicking.
        let p = RetryPolicy {
            base_backoff: SimDuration::from_millis(10),
            max_backoff: SimDuration::from_millis(500),
            jitter_frac: 0.0,
            max_attempts: u32::MAX,
        };
        let mut rng = rng_from_seed(4);
        let ceiling = SimDuration::from_millis(500);
        for attempt in [63, 64, 65, 1_000, u32::MAX] {
            assert_eq!(p.backoff(attempt, &mut rng), ceiling, "attempt {attempt}");
        }
        // Even a 1 µs base with a huge ceiling cannot wrap: 2^64 µs
        // saturates to u64::MAX before the min() applies.
        let tiny = RetryPolicy {
            base_backoff: SimDuration::from_micros(1),
            max_backoff: SimDuration::from_micros(u64::MAX),
            jitter_frac: 0.0,
            max_attempts: u32::MAX,
        };
        assert_eq!(
            tiny.backoff(65, &mut rng),
            SimDuration::from_micros(u64::MAX)
        );
        assert!(tiny.backoff(64, &mut rng) >= tiny.backoff(63, &mut rng));
    }

    #[test]
    fn retry_budget_is_enforced() {
        let p = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        assert!(p.may_retry(0));
        assert!(p.may_retry(2));
        assert!(!p.may_retry(3));
    }

    #[test]
    fn from_timeout_scales_the_legacy_knob() {
        let p = RetryPolicy::from_timeout(SimDuration::from_millis(400));
        assert_eq!(p.base_backoff, SimDuration::from_millis(100));
        assert_eq!(p.max_backoff, SimDuration::from_millis(1_600));
        assert!(p.max_attempts > 1);
    }

    #[test]
    fn liveness_detects_death_and_rejoin() {
        let t = |ms| SimTime::from_millis(ms);
        let mut lt = LivenessTracker::new(2, SimDuration::from_millis(100));
        lt.observe(EndSystemId(0), t(50));
        lt.observe(EndSystemId(1), t(50));
        assert!(lt.sweep(t(100)).is_empty());
        lt.observe(EndSystemId(0), t(150));
        // Client 1 has been silent for 101 ms -> dead.
        let dead = lt.sweep(t(151));
        assert_eq!(dead, vec![EndSystemId(1)]);
        assert!(!lt.is_alive(EndSystemId(1)));
        assert_eq!(lt.alive_count(), 1);
        assert_eq!(lt.dead_detections(), 1);
        // Heard from again -> rejoin.
        assert!(lt.observe(EndSystemId(1), t(200)));
        assert!(lt.is_alive(EndSystemId(1)));
        assert_eq!(lt.rejoins(), 1);
        // A normal observe is not a rejoin.
        assert!(!lt.observe(EndSystemId(0), t(200)));
    }

    #[test]
    fn retired_clients_are_never_declared_dead() {
        let t = |ms| SimTime::from_millis(ms);
        let mut lt = LivenessTracker::new(1, SimDuration::from_millis(10));
        lt.retire(EndSystemId(0));
        assert!(lt.sweep(t(10_000)).is_empty());
        assert!(lt.is_alive(EndSystemId(0)));
    }

    #[test]
    fn readmit_clears_retirement_and_resets_the_clock() {
        let t = |ms| SimTime::from_millis(ms);
        let mut lt = LivenessTracker::new(1, SimDuration::from_millis(100));
        lt.retire(EndSystemId(0));
        lt.readmit(EndSystemId(0), t(5_000));
        assert!(lt.is_alive(EndSystemId(0)));
        // Its silence clock restarts at readmission time: not dead at
        // 5 050 ms, dead once 100 ms of fresh silence accumulate.
        assert!(lt.sweep(t(5_050)).is_empty());
        assert_eq!(lt.sweep(t(5_101)), vec![EndSystemId(0)]);
    }

    #[test]
    fn breaker_trips_after_threshold_and_recloses_on_success() {
        let t = |ms| SimTime::from_millis(ms);
        let cfg = BreakerConfig {
            threshold: 3,
            base_open: SimDuration::from_millis(100),
            max_open: SimDuration::from_millis(400),
        };
        let mut b = CircuitBreaker::new(2, cfg);
        let id = EndSystemId(0);
        assert!(!b.record_failure(id, t(1)));
        assert!(!b.record_failure(id, t(2)));
        assert_eq!(b.allow(id, t(2)), BreakerDecision::Allow);
        assert!(b.record_failure(id, t(3)), "third failure trips");
        assert!(b.is_open(id, t(50)));
        assert_eq!(b.allow(id, t(50)), BreakerDecision::Defer(t(103)));
        // The other link is unaffected.
        assert_eq!(b.allow(EndSystemId(1), t(50)), BreakerDecision::Allow);
        // Window elapsed: half-open, the send is the probe.
        assert_eq!(b.allow(id, t(103)), BreakerDecision::Allow);
        b.record_success(id);
        assert!(!b.is_open(id, t(104)));
        // After a success the failure streak restarts from zero.
        assert!(!b.record_failure(id, t(105)));
        assert!(!b.record_failure(id, t(106)));
        assert!(b.record_failure(id, t(107)));
    }

    #[test]
    fn failed_probes_double_the_open_window_up_to_the_cap() {
        let t = |ms| SimTime::from_millis(ms);
        let cfg = BreakerConfig {
            threshold: 1,
            base_open: SimDuration::from_millis(100),
            max_open: SimDuration::from_millis(300),
        };
        let mut b = CircuitBreaker::new(1, cfg);
        let id = EndSystemId(0);
        assert!(b.record_failure(id, t(0)));
        assert_eq!(b.allow(id, t(50)), BreakerDecision::Defer(t(100)));
        assert_eq!(b.allow(id, t(100)), BreakerDecision::Allow);
        // Probe fails: streak 1, window 200 ms.
        assert!(b.record_failure(id, t(100)));
        assert_eq!(b.allow(id, t(150)), BreakerDecision::Defer(t(300)));
        assert_eq!(b.allow(id, t(300)), BreakerDecision::Allow);
        // Streak 2 would be 400 ms but caps at 300 ms.
        assert!(b.record_failure(id, t(300)));
        assert_eq!(b.allow(id, t(301)), BreakerDecision::Defer(t(600)));
        // A failure reported while open neither trips nor extends.
        assert!(!b.record_failure(id, t(302)));
        assert_eq!(b.allow(id, t(303)), BreakerDecision::Defer(t(600)));
    }
}
