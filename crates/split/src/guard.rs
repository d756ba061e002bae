//! The data-plane integrity guard: ingress validation, per-end-system
//! anomaly scoring with quarantine, and a training-health watchdog.
//!
//! PR 1 hardened the *control plane* (retries, liveness, crash recovery);
//! this module hardens the *data plane*. With one server training a single
//! shared model on everyone's activations, a single NaN or norm-exploded
//! update poisons every end-system's model — so updates are validated
//! before they reach the optimizer, repeat offenders are quarantined with
//! a probationary rejoin (mirroring the [`Membership`](crate::Membership)
//! suspect/rejoin life cycle), and a watchdog on loss and gradient norms triggers rollback to the
//! [`CheckpointRing`](crate::CheckpointRing) when training diverges anyway.

use stsl_simnet::{SimDuration, SimTime};
use stsl_tensor::Tensor;

/// The watchdog treats a cut-layer gradient whose RMS exceeds this as
/// divergence (healthy values sit around 1, as for [`GuardConfig`]).
pub(crate) const MAX_GRADIENT_RMS: f32 = 1e3;

/// Multiplier applied to an end-system's anomaly score on every clean
/// update (scores decay instead of accumulating forever).
pub(crate) const ANOMALY_DECAY: f32 = 0.5;

/// Learning-rate multiplier applied on every watchdog rollback.
pub(crate) const LR_COOLDOWN: f32 = 0.5;

/// Tuning knobs for the integrity guard. All-default values are sized for
/// the workspace's tiny CNNs, where healthy activation and gradient RMS
/// values sit around 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardConfig {
    /// Reject an incoming activation tensor whose RMS exceeds this.
    pub max_activation_rms: f32,
    /// Declare divergence when the batch loss exceeds this multiple of the
    /// running loss average (after [`GuardConfig::warmup_steps`]).
    pub loss_blowup: f32,
    /// Watchdog observations before the loss-blowup check arms (the first
    /// batches of a fresh model legitimately have wild losses).
    pub warmup_steps: u64,
    /// Anomaly score at which an end-system is quarantined.
    pub quarantine_threshold: f32,
    /// How long a quarantined end-system's updates are dropped before it
    /// is allowed a probationary rejoin.
    pub probation: SimDuration,
    /// Capacity of the good-checkpoint ring the watchdog rolls back to.
    pub ring_capacity: usize,
    /// Robust-aggregation outlier threshold: a window member whose L2
    /// distance from the combined gradient exceeds this multiple of the
    /// window's median distance accrues anomaly score like any other
    /// guard violation. This is what makes the guard *attack*-aware —
    /// adversarially crafted updates are finite and RMS-plausible, so
    /// only their statistical deviation betrays them.
    pub outlier_factor: f32,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            max_activation_rms: 1e3,
            loss_blowup: 8.0,
            warmup_steps: 16,
            quarantine_threshold: 3.0,
            probation: SimDuration::from_millis(500),
            ring_capacity: 4,
            outlier_factor: 3.0,
        }
    }
}

/// Why ingress validation rejected an update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Anomaly {
    /// The tensor contains NaN or ±∞.
    NonFinite,
    /// The tensor's RMS exceeds the configured limit.
    NormExplosion {
        /// Observed RMS.
        rms: f32,
        /// The configured limit it broke.
        limit: f32,
    },
}

impl std::fmt::Display for Anomaly {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Anomaly::NonFinite => write!(f, "non-finite values in update"),
            Anomaly::NormExplosion { rms, limit } => {
                write!(f, "update RMS {rms:.3e} exceeds limit {limit:.3e}")
            }
        }
    }
}

impl std::error::Error for Anomaly {}

/// Root-mean-square of a tensor, accumulated in f64 so huge f32 values do
/// not overflow the sum before the comparison happens.
pub fn tensor_rms(t: &Tensor) -> f32 {
    let sumsq = stsl_tensor::sum_sq_f64(t.as_slice());
    (sumsq / t.len().max(1) as f64).sqrt() as f32
}

/// Ingress check: every element finite, RMS below `max_rms`.
pub fn validate_update(t: &Tensor, max_rms: f32) -> Result<(), Anomaly> {
    if t.as_slice().iter().any(|v| !v.is_finite()) {
        return Err(Anomaly::NonFinite);
    }
    let rms = tensor_rms(t);
    if rms > max_rms {
        return Err(Anomaly::NormExplosion {
            rms,
            limit: max_rms,
        });
    }
    Ok(())
}

/// Admission verdict for an end-system's update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineStatus {
    /// Not quarantined; process normally.
    Clear,
    /// In quarantine; the update must be dropped.
    Dropped,
    /// Probation just expired — this update is the probationary rejoin.
    Released,
}

/// Per-end-system anomaly scores with quarantine and probationary rejoin.
///
/// Every anomaly adds one point to the sender's score; every clean update
/// decays the score by `ANOMALY_DECAY`. Crossing
/// [`GuardConfig::quarantine_threshold`] puts the end-system in quarantine:
/// its updates are dropped until [`GuardConfig::probation`] elapses, after
/// which the next update is admitted on probation with a reset score (a
/// relapse re-quarantines it from scratch).
#[derive(Debug, Clone)]
pub struct QuarantineTracker {
    scores: Vec<f32>,
    until: Vec<Option<SimTime>>,
    threshold: f32,
    probation: SimDuration,
}

impl QuarantineTracker {
    /// Creates a tracker for `end_systems` clean end-systems.
    pub fn new(end_systems: usize, cfg: &GuardConfig) -> Self {
        QuarantineTracker {
            scores: vec![0.0; end_systems],
            until: vec![None; end_systems],
            threshold: cfg.quarantine_threshold,
            probation: cfg.probation,
        }
    }

    /// Admission check at update-arrival time; handles the probationary
    /// release transition. The caller records the verdict.
    ///
    /// An `id` the tracker has never heard of (a garbled sender field that
    /// survived decoding) is never admitted: it is dropped rather than a
    /// panic.
    pub fn admit(&mut self, id: usize, at: SimTime) -> QuarantineStatus {
        let Some(until) = self.until.get_mut(id) else {
            return QuarantineStatus::Dropped;
        };
        match *until {
            Some(u) if at < u => QuarantineStatus::Dropped,
            Some(_) => {
                *until = None;
                if let Some(score) = self.scores.get_mut(id) {
                    *score = 0.0;
                }
                QuarantineStatus::Released
            }
            None => QuarantineStatus::Clear,
        }
    }

    /// Records an ingress anomaly from `id`. Returns `true` when this
    /// anomaly pushed the end-system over the threshold into quarantine.
    /// Unknown ids are ignored (they are already barred by [`Self::admit`]).
    pub fn record_anomaly(&mut self, id: usize, at: SimTime) -> bool {
        let (Some(score), Some(until)) = (self.scores.get_mut(id), self.until.get_mut(id)) else {
            return false;
        };
        *score += 1.0;
        if until.is_none() && *score >= self.threshold {
            *until = Some(at + self.probation);
            true
        } else {
            false
        }
    }

    /// Records a clean, accepted update from `id` (decays its score).
    pub fn record_clean(&mut self, id: usize) {
        if let Some(score) = self.scores.get_mut(id) {
            *score *= ANOMALY_DECAY;
        }
    }

    /// Current anomaly score of `id` (0 for unknown ids).
    pub fn score(&self, id: usize) -> f32 {
        self.scores.get(id).copied().unwrap_or(0.0)
    }

    /// Whether `id` is quarantined at `at`.
    pub fn in_quarantine(&self, id: usize, at: SimTime) -> bool {
        matches!(self.until.get(id), Some(Some(until)) if at < *until)
    }
}

/// Divergence detector over the training-loss and gradient-norm streams.
///
/// Divergence is any of: non-finite loss, a cut gradient that is
/// non-finite or whose RMS exceeds `MAX_GRADIENT_RMS`, or — once
/// [`GuardConfig::warmup_steps`] observations are in — a batch loss more
/// than [`GuardConfig::loss_blowup`] times the exponential moving
/// average. On divergence the caller rolls back to the
/// last good checkpoint and calls [`HealthWatchdog::reset`] so the EMA
/// restarts from the restored state.
#[derive(Debug, Clone)]
pub struct HealthWatchdog {
    loss_blowup: f32,
    warmup: u64,
    ema: f64,
    observed: u64,
}

/// EMA smoothing factor for the loss average.
const EMA_ALPHA: f64 = 0.1;

impl HealthWatchdog {
    /// Creates a watchdog with the config's thresholds.
    pub fn new(cfg: &GuardConfig) -> Self {
        HealthWatchdog {
            loss_blowup: cfg.loss_blowup,
            warmup: cfg.warmup_steps,
            ema: 0.0,
            observed: 0,
        }
    }

    /// Feeds one served batch. Returns `true` when training has diverged
    /// and the caller must roll back. Diverged observations do not
    /// contaminate the EMA.
    pub fn observe(&mut self, loss: f32, grad_rms: f32) -> bool {
        let blown_up = self.observed >= self.warmup
            && loss as f64 > self.loss_blowup as f64 * self.ema.max(1e-6);
        if !loss.is_finite() || !grad_rms.is_finite() || grad_rms > MAX_GRADIENT_RMS || blown_up {
            return true;
        }
        if self.observed == 0 {
            self.ema = loss as f64;
        } else {
            self.ema = (1.0 - EMA_ALPHA) * self.ema + EMA_ALPHA * loss as f64;
        }
        self.observed += 1;
        false
    }

    /// Clears the loss history (call after restoring a checkpoint).
    pub fn reset(&mut self) {
        self.ema = 0.0;
        self.observed = 0;
    }

    /// Smoothed loss average, if any observations are in.
    pub fn loss_ema(&self) -> Option<f32> {
        (self.observed > 0).then_some(self.ema as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn validate_catches_nan_inf_and_explosion() {
        let ok = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.0], [4]);
        assert_eq!(validate_update(&ok, 1e3), Ok(()));
        let nan = Tensor::from_vec(vec![0.5, f32::NAN], [2]);
        assert_eq!(validate_update(&nan, 1e3), Err(Anomaly::NonFinite));
        let inf = Tensor::from_vec(vec![f32::INFINITY, 0.0], [2]);
        assert_eq!(validate_update(&inf, 1e3), Err(Anomaly::NonFinite));
        let huge = Tensor::from_vec(vec![1e5, 1e5], [2]);
        assert!(matches!(
            validate_update(&huge, 1e3),
            Err(Anomaly::NormExplosion { .. })
        ));
        assert!(validate_update(&huge, 1e6).is_ok());
    }

    #[test]
    fn rms_survives_values_that_overflow_f32() {
        let big = Tensor::from_vec(vec![1e30, 1e30], [2]);
        let rms = tensor_rms(&big);
        assert!(rms.is_finite() || rms == f32::INFINITY);
        // f64 accumulation keeps the comparison meaningful: 1e30 > 1e3.
        assert!(matches!(
            validate_update(&big, 1e3),
            Err(Anomaly::NormExplosion { .. })
        ));
    }

    #[test]
    fn quarantine_threshold_probation_and_release() {
        let cfg = GuardConfig {
            quarantine_threshold: 3.0,
            probation: SimDuration::from_millis(100),
            ..GuardConfig::default()
        };
        let mut q = QuarantineTracker::new(2, &cfg);
        assert_eq!(q.admit(0, t(0)), QuarantineStatus::Clear);
        assert!(!q.record_anomaly(0, t(1)));
        assert!(!q.record_anomaly(0, t(2)));
        // Third strike trips the threshold.
        assert!(q.record_anomaly(0, t(3)));
        assert!(q.in_quarantine(0, t(50)));
        assert_eq!(q.admit(0, t(50)), QuarantineStatus::Dropped);
        // The other end-system is unaffected.
        assert_eq!(q.admit(1, t(50)), QuarantineStatus::Clear);
        // Probation expires at from + 100ms.
        assert_eq!(q.admit(0, t(103)), QuarantineStatus::Released);
        assert_eq!(q.score(0), 0.0);
        assert_eq!(q.admit(0, t(104)), QuarantineStatus::Clear);
    }

    #[test]
    fn unknown_sender_id_is_dropped_not_a_panic() {
        // A garbled `from` field that survived decoding must never be
        // able to crash the server's quarantine bookkeeping.
        let mut q = QuarantineTracker::new(2, &GuardConfig::default());
        assert_eq!(q.admit(7, t(0)), QuarantineStatus::Dropped);
        assert!(!q.record_anomaly(usize::MAX, t(1)));
        q.record_clean(99);
        assert_eq!(q.score(99), 0.0);
        assert!(!q.in_quarantine(99, t(2)));
        // Known ids are unaffected.
        assert_eq!(q.admit(1, t(3)), QuarantineStatus::Clear);
    }

    #[test]
    fn clean_updates_decay_the_score() {
        let cfg = GuardConfig::default(); // threshold 3; ANOMALY_DECAY is 0.5
        let mut q = QuarantineTracker::new(1, &cfg);
        q.record_anomaly(0, t(0));
        q.record_anomaly(0, t(1));
        assert_eq!(q.score(0), 2.0);
        q.record_clean(0);
        q.record_clean(0);
        assert_eq!(q.score(0), 0.5);
        // Two fresh anomalies no longer reach the threshold.
        assert!(!q.record_anomaly(0, t(2)));
        assert!(!q.record_anomaly(0, t(3)));
        assert!(!q.in_quarantine(0, t(4)));
    }

    #[test]
    fn relapse_after_release_requarantines() {
        let cfg = GuardConfig {
            quarantine_threshold: 2.0,
            probation: SimDuration::from_millis(10),
            ..GuardConfig::default()
        };
        let mut q = QuarantineTracker::new(1, &cfg);
        q.record_anomaly(0, t(0));
        assert!(q.record_anomaly(0, t(1)));
        assert_eq!(q.admit(0, t(20)), QuarantineStatus::Released);
        // Score was reset on release; a full threshold's worth of new
        // anomalies is needed to re-quarantine.
        q.record_anomaly(0, t(21));
        assert!(q.record_anomaly(0, t(22)));
    }

    #[test]
    fn watchdog_flags_nonfinite_and_blowup() {
        let cfg = GuardConfig {
            warmup_steps: 4,
            loss_blowup: 4.0,
            ..GuardConfig::default()
        };
        let mut w = HealthWatchdog::new(&cfg);
        // Healthy warmup.
        for _ in 0..6 {
            assert!(!w.observe(1.0, 0.5));
        }
        assert!((w.loss_ema().unwrap() - 1.0).abs() < 1e-6);
        // NaN loss and exploding gradient are divergence regardless of EMA.
        assert!(w.observe(f32::NAN, 0.5));
        assert!(w.observe(1.0, MAX_GRADIENT_RMS * 10.0));
        assert!(w.observe(1.0, f32::INFINITY));
        // A 4x loss blow-up trips after warmup.
        assert!(w.observe(4.5, 0.5));
        // Diverged batches did not move the EMA.
        assert!((w.loss_ema().unwrap() - 1.0).abs() < 1e-6);
        // Healthy observation still passes.
        assert!(!w.observe(1.1, 0.5));
    }

    #[test]
    fn watchdog_warmup_tolerates_early_chaos() {
        let cfg = GuardConfig {
            warmup_steps: 8,
            loss_blowup: 2.0,
            ..GuardConfig::default()
        };
        let mut w = HealthWatchdog::new(&cfg);
        // Early losses bounce around far beyond 2x of each other — the
        // blow-up check is disarmed during warmup.
        for loss in [5.0, 1.0, 4.0, 0.5, 3.0] {
            assert!(!w.observe(loss, 0.1));
        }
    }

    #[test]
    fn watchdog_reset_rearms_warmup() {
        let cfg = GuardConfig {
            warmup_steps: 2,
            loss_blowup: 2.0,
            ..GuardConfig::default()
        };
        let mut w = HealthWatchdog::new(&cfg);
        for _ in 0..4 {
            assert!(!w.observe(1.0, 0.1));
        }
        assert!(w.observe(10.0, 0.1));
        w.reset();
        assert_eq!(w.loss_ema(), None);
        // Post-rollback losses restart the EMA instead of comparing
        // against the pre-rollback history.
        assert!(!w.observe(10.0, 0.1));
    }
}
