//! Fault-tolerance policies for the asynchronous trainer: retransmission
//! backoff and per-link circuit breaking.

use crate::config::OverloadConfig;
use stsl_simnet::{EndSystemId, SimDuration, SimTime};

/// `base · 2^doublings`, capped at `ceiling` and at least 1 µs — the
/// growth law of both the retry backoff and the breaker's open window.
/// The doubling saturates rather than wrapping: a shift past the u64
/// width clamps to `u64::MAX` and the multiply saturates too, so the
/// ceiling applies as usual.
fn capped_doubling(base: SimDuration, doublings: u32, ceiling: SimDuration) -> SimDuration {
    let factor = 1u64.checked_shl(doublings).unwrap_or(u64::MAX);
    let us = base
        .as_micros()
        .saturating_mul(factor)
        .min(ceiling.as_micros())
        .max(1);
    SimDuration::from_micros(us)
}

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
        let base = capped_doubling(
            self.base_backoff,
            attempt.saturating_sub(1),
            self.max_backoff,
        )
        .as_micros();
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
    threshold: u32,
    base_open: SimDuration,
    max_open: SimDuration,
    links: Vec<LinkState>,
}

impl CircuitBreaker {
    /// A breaker for `n` links, all initially closed, tuned by the
    /// overload config's `breaker_*` settings.
    pub fn new(n: usize, cfg: &OverloadConfig) -> Self {
        CircuitBreaker {
            threshold: cfg.breaker_threshold,
            base_open: SimDuration::from_millis(cfg.breaker_base_open_ms),
            max_open: SimDuration::from_millis(cfg.breaker_max_open_ms),
            links: vec![LinkState::Closed { failures: 0 }; n],
        }
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
                if failures >= self.threshold.max(1) {
                    self.links[id.0] = LinkState::Open {
                        until: at + capped_doubling(self.base_open, 0, self.max_open),
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
                    until: at + capped_doubling(self.base_open, streak, self.max_open),
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
    fn breaker_trips_after_threshold_and_recloses_on_success() {
        let t = |ms| SimTime::from_millis(ms);
        let cfg = OverloadConfig {
            breaker_threshold: 3,
            breaker_base_open_ms: 100,
            breaker_max_open_ms: 400,
            ..OverloadConfig::default()
        };
        let mut b = CircuitBreaker::new(2, &cfg);
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
        let cfg = OverloadConfig {
            breaker_threshold: 1,
            breaker_base_open_ms: 100,
            breaker_max_open_ms: 300,
            ..OverloadConfig::default()
        };
        let mut b = CircuitBreaker::new(1, &cfg);
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
