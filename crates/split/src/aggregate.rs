//! Byzantine-robust gradient aggregation.
//!
//! The data-plane guard (PR 3) rejects *random* corruption: non-finite
//! values and norm explosions. A CRC-valid, finite, plausible-RMS but
//! adversarially *crafted* update sails straight through it into the
//! optimizer. This module closes that gap with statistical defenses at
//! the aggregation point — the only place where updates from many
//! end-systems meet and an individual liar becomes an outlier.
//!
//! The seam is an [`AggregationPolicy`] applied to a window of flattened
//! server-side gradients *before* the optimizer step:
//!
//! * [`AggregationPolicy::Mean`] — the undefended baseline; a single
//!   attacker shifts it arbitrarily.
//! * [`AggregationPolicy::CoordinateMedian`] — coordinate-wise median,
//!   tolerant of up to ⌈n/2⌉−1 arbitrary updates per coordinate.
//! * [`AggregationPolicy::TrimmedMean`] — drops the `trim` fraction from
//!   each end of every coordinate's sorted column, then averages.
//! * [`AggregationPolicy::NormClippedMean`] — rescales every update whose
//!   L2 norm exceeds the window's median norm down to that median, then
//!   averages (defeats scaling/boosting attacks while keeping honest
//!   directions intact).
//! * [`AggregationPolicy::Krum`] — a windowed Multi-Krum selector: score
//!   every update by the sum of squared distances to its `n − f − 2`
//!   nearest neighbours, keep the `n − f − 2` best-scored updates and
//!   average them (Blanchard et al., adapted to the async arrival
//!   buffer). Unlike the coordinate-wise policies it filters on *whole
//!   vectors*, so an attacker moderate on every coordinate but wrong as
//!   a direction is still excluded.
//!
//! Every policy combines each coordinate's column in a canonical sorted
//! order ([`f32::total_cmp`]), so aggregation is **bitwise invariant
//! under permutation** of the window — the property the proptests pin
//! and the reason results stay byte-identical across `STSL_THREADS`.

use serde::{Deserialize, Serialize};

/// How a full window of per-batch gradients is combined into the single
/// gradient the optimizer consumes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AggregationPolicy {
    /// Plain coordinate-wise mean — the undefended baseline.
    Mean,
    /// Coordinate-wise median.
    CoordinateMedian,
    /// Coordinate-wise trimmed mean: drop the `trim` fraction of values
    /// from each end of every sorted column, average the rest.
    TrimmedMean {
        /// Fraction (of the window) trimmed from *each* side, in
        /// `[0, 0.5)`. At `0.0` this is exactly [`AggregationPolicy::Mean`].
        trim: f32,
    },
    /// Mean after rescaling every update whose L2 norm exceeds the
    /// window's median norm down to that median.
    NormClippedMean,
    /// Windowed Multi-Krum: average the `n − f − 2` updates with the best
    /// Krum scores, assuming at most `assumed_attackers` Byzantine
    /// members in any window.
    Krum {
        /// The `f` in Krum's `n − f − 2` neighbour and selection counts.
        assumed_attackers: usize,
    },
}

impl AggregationPolicy {
    /// Stable short name used in bench output and logs.
    pub fn name(&self) -> &'static str {
        match self {
            AggregationPolicy::Mean => "mean",
            AggregationPolicy::CoordinateMedian => "median",
            AggregationPolicy::TrimmedMean { .. } => "trimmed_mean",
            AggregationPolicy::NormClippedMean => "norm_clipped",
            AggregationPolicy::Krum { .. } => "krum",
        }
    }
}

/// Result of combining one full window.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregationOutcome {
    /// The combined gradient, same length as every input update.
    pub combined: Vec<f32>,
    /// Number of updates in the window.
    pub contributors: usize,
    /// Update-slots excluded from the combine (policy-defined: values
    /// dropped per coordinate for median/trimmed mean, rescaled updates
    /// for norm clipping, non-selected updates for Krum).
    pub trimmed: usize,
    /// `trimmed / contributors` in permille — the per-policy trim
    /// fraction exported as a telemetry metric.
    pub trim_fraction_permille: u64,
}

/// Why a window cannot be combined. Surfaced as a typed error (instead
/// of a panic) because the window is assembled from end-system traffic:
/// a malformed cohort must not abort the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggregateError {
    /// The window holds no updates.
    EmptyWindow,
    /// Updates disagree on gradient length.
    RaggedWindow {
        /// Length of the first update.
        expected: usize,
        /// The disagreeing length.
        got: usize,
    },
    /// A trimmed-mean fraction outside `[0, 0.5)`.
    BadTrim {
        /// The offending fraction.
        trim: f32,
    },
}

impl std::fmt::Display for AggregateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggregateError::EmptyWindow => write!(f, "cannot combine an empty window"),
            AggregateError::RaggedWindow { expected, got } => {
                write!(
                    f,
                    "updates disagree on gradient length: {expected} vs {got}"
                )
            }
            AggregateError::BadTrim { trim } => {
                write!(f, "trim fraction must be in [0, 0.5), got {trim}")
            }
        }
    }
}

impl std::error::Error for AggregateError {}

fn column_sorted(updates: &[Vec<f32>], coord: usize) -> Vec<f32> {
    let mut col: Vec<f32> = updates
        .iter()
        .filter_map(|u| u.get(coord))
        .copied()
        .collect();
    col.sort_by(f32::total_cmp);
    col
}

fn mean_of(values: &[f32]) -> f32 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f32>() / values.len() as f32
}

fn median_of_sorted(sorted: &[f32]) -> f32 {
    let n = sorted.len();
    let Some(&mid) = sorted.get(n / 2) else {
        return 0.0;
    };
    if n % 2 == 1 {
        mid
    } else {
        // Even and non-empty, so n / 2 ≥ 1.
        let lo = sorted.get(n / 2 - 1).copied().unwrap_or(mid);
        (lo + mid) * 0.5
    }
}

fn l2_norm(v: &[f32]) -> f32 {
    v.iter()
        .map(|x| (*x as f64) * (*x as f64))
        .sum::<f64>()
        .sqrt() as f32
}

fn sq_distance(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = (*x as f64) - (*y as f64);
            d * d
        })
        .sum()
}

fn lex_cmp(a: &[f32], b: &[f32]) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b) {
        let o = x.total_cmp(y);
        if o != std::cmp::Ordering::Equal {
            return o;
        }
    }
    std::cmp::Ordering::Equal
}

/// Combines a window of equal-length updates under `policy`.
///
/// Bitwise invariant under permutation of `updates` (each coordinate's
/// column is sorted into a canonical order before reduction; Krum breaks
/// score ties by lexicographic vector order).
///
/// # Errors
///
/// Rejects an empty window, updates that disagree on length, and a
/// trimmed-mean fraction outside `[0, 0.5)` — the window is built from
/// end-system traffic, so malformed cohorts surface as values, not
/// aborts.
pub fn combine(
    policy: AggregationPolicy,
    updates: &[Vec<f32>],
) -> Result<AggregationOutcome, AggregateError> {
    let n = updates.len();
    let Some(first) = updates.first() else {
        return Err(AggregateError::EmptyWindow);
    };
    let dim = first.len();
    if let Some(bad) = updates.iter().find(|u| u.len() != dim) {
        return Err(AggregateError::RaggedWindow {
            expected: dim,
            got: bad.len(),
        });
    }
    let (combined, trimmed) = match policy {
        AggregationPolicy::Mean => {
            let c = (0..dim)
                .map(|j| mean_of(&column_sorted(updates, j)))
                .collect();
            (c, 0)
        }
        AggregationPolicy::CoordinateMedian => {
            let c = (0..dim)
                .map(|j| median_of_sorted(&column_sorted(updates, j)))
                .collect();
            let kept = if n % 2 == 1 { 1 } else { 2.min(n) };
            (c, n - kept)
        }
        AggregationPolicy::TrimmedMean { trim } => {
            if !(0.0..0.5).contains(&trim) {
                return Err(AggregateError::BadTrim { trim });
            }
            let k = ((trim * n as f32).floor() as usize).min(n.saturating_sub(1) / 2);
            let c = (0..dim)
                .map(|j| {
                    let col = column_sorted(updates, j);
                    mean_of(col.get(k..n - k).unwrap_or(&[]))
                })
                .collect();
            (c, 2 * k)
        }
        AggregationPolicy::NormClippedMean => {
            let mut norms: Vec<f32> = updates.iter().map(|u| l2_norm(u)).collect();
            norms.sort_by(f32::total_cmp);
            let clip = median_of_sorted(&norms);
            let mut clipped = 0usize;
            let scaled: Vec<Vec<f32>> = updates
                .iter()
                .map(|u| {
                    let norm = l2_norm(u);
                    if norm > clip && norm > 0.0 {
                        clipped += 1;
                        let s = clip / norm;
                        u.iter().map(|x| x * s).collect()
                    } else {
                        u.clone()
                    }
                })
                .collect();
            let c = (0..dim)
                .map(|j| mean_of(&column_sorted(&scaled, j)))
                .collect();
            (c, clipped)
        }
        AggregationPolicy::Krum { assumed_attackers } => {
            // Multi-Krum: score each update by the sum of squared
            // distances to its n − f − 2 nearest neighbours, keep the
            // n − f − 2 best-scored updates and average them. Score ties
            // break by lexicographic vector order so selection is
            // permutation invariant.
            let neighbours = n
                .saturating_sub(assumed_attackers + 2)
                .max(1)
                .min(n.saturating_sub(1));
            let selection = n.saturating_sub(assumed_attackers + 2).max(1);
            let mut scored: Vec<(f64, &Vec<f32>)> = updates
                .iter()
                .enumerate()
                .map(|(i, ui)| {
                    let mut dists: Vec<f64> = updates
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != i)
                        .map(|(_, uj)| sq_distance(ui, uj))
                        .collect();
                    dists.sort_by(|a, b| a.total_cmp(b));
                    (dists.iter().take(neighbours).sum(), ui)
                })
                .collect();
            scored.sort_by(|(sa, ua), (sb, ub)| sa.total_cmp(sb).then_with(|| lex_cmp(ua, ub)));
            let selected: Vec<Vec<f32>> = scored
                .iter()
                .take(selection)
                .map(|(_, u)| (*u).clone())
                .collect();
            let c = (0..dim)
                .map(|j| mean_of(&column_sorted(&selected, j)))
                .collect();
            (c, n - selection)
        }
    };
    Ok(AggregationOutcome {
        combined,
        contributors: n,
        trimmed,
        trim_fraction_permille: (trimmed as u64 * 1000) / n as u64,
    })
}

/// Flags updates whose L2 distance from `combined` exceeds `factor`
/// times the window's median distance — the statistical-outlier signal
/// fed into the quarantine tracker.
///
/// With a zero median (all honest updates identical), any nonzero
/// deviation is flagged. Returns one flag per update, in input order.
pub fn outlier_flags(updates: &[Vec<f32>], combined: &[f32], factor: f32) -> Vec<bool> {
    let dists: Vec<f64> = updates
        .iter()
        .map(|u| sq_distance(u, combined).sqrt())
        .collect();
    let mut sorted: Vec<f32> = dists.iter().map(|d| *d as f32).collect();
    sorted.sort_by(f32::total_cmp);
    let median = median_of_sorted(&sorted) as f64;
    let threshold = factor as f64 * median;
    dists.iter().map(|d| *d > threshold && *d > 0.0).collect()
}

/// One applied window, as reported to the trainer: which senders were
/// flagged, plus the bookkeeping for counters and metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustApply {
    /// The combined gradient written into the model before the step.
    pub combined: Vec<f32>,
    /// Senders (end-system indices) flagged as statistical outliers,
    /// deduplicated, in ascending order.
    pub outliers: Vec<usize>,
    /// Senders whose every update in this window survived statistical
    /// scrutiny, deduplicated, in ascending order — disjoint from
    /// `outliers`. With the integrity guard on these earn the quarantine
    /// clean-credit: under robust aggregation "clean" means *vetted
    /// against the window*, not merely parsed, so a persistent attacker's
    /// anomaly score accrues instead of being decayed away by its own
    /// ingress traffic.
    pub cleared: Vec<usize>,
    /// Updates in the window.
    pub contributors: usize,
    /// Update-slots excluded from the combine (see
    /// [`AggregationOutcome::trimmed`]).
    pub trimmed: usize,
    /// Trim fraction in permille.
    pub trim_fraction_permille: u64,
}

/// Windowed robust aggregator owned by the server: buffers flattened
/// per-batch gradients with their senders and combines a full window in
/// arrival order.
#[derive(Debug, Clone)]
pub struct RobustAggregator {
    policy: AggregationPolicy,
    window: usize,
    outlier_factor: f32,
    refine: bool,
    buffer: Vec<(usize, Vec<f32>)>,
}

impl RobustAggregator {
    /// Creates an aggregator combining every `window` buffered updates.
    /// A zero `window` is clamped to 1 (combine on every update); window
    /// size can originate in run configuration, so it is sanitized, not
    /// asserted.
    pub fn new(policy: AggregationPolicy, window: usize) -> Self {
        let window = window.max(1);
        RobustAggregator {
            policy,
            window,
            outlier_factor: 3.0,
            refine: false,
            buffer: Vec::new(),
        }
    }

    /// Overrides the outlier-flagging factor (default 3× the median
    /// distance from the combined gradient). Non-finite or non-positive
    /// factors are ignored, keeping the previous value.
    pub fn outlier_factor(mut self, factor: f32) -> Self {
        if factor.is_finite() && factor > 0.0 {
            self.outlier_factor = factor;
        }
        self
    }

    /// Enables the two-pass refine (off by default): after flagging
    /// outliers against the first-pass combined gradient, the flagged
    /// updates are removed outright and the survivors recombined. Sound
    /// only when the first pass is itself robust — refining against a
    /// poison-dragged plain mean can exclude the *honest* cluster — so
    /// the trainer turns it on as part of the guarded defense stack, and
    /// [`RobustAggregator::push`] skips it for Krum, whose combine
    /// already excludes by selection.
    pub fn refine_outliers(mut self, refine: bool) -> Self {
        self.refine = refine;
        self
    }

    /// The configured policy.
    pub fn policy(&self) -> AggregationPolicy {
        self.policy
    }

    /// Resizes the window (e.g. to track the non-quarantined cohort so
    /// exiling an attacker does not slow the optimizer cadence: a window
    /// waiting on updates that can never arrive starves the model).
    /// Takes effect on the next [`RobustAggregator::push`]; a buffer
    /// already at or past a shrunken window fires on that push. A zero
    /// `window` is clamped to 1.
    pub fn set_window(&mut self, window: usize) {
        self.window = window.max(1);
    }

    /// Currently buffered (not yet combined) updates.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Buffers one flattened gradient from `sender`. When the buffer
    /// reaches the window size it is drained, combined under the policy,
    /// and returned with outlier flags resolved to senders.
    pub fn push(&mut self, sender: usize, flat: Vec<f32>) -> Option<RobustApply> {
        self.buffer.push((sender, flat));
        if self.buffer.len() < self.window {
            return None;
        }
        let window: Vec<(usize, Vec<f32>)> = std::mem::take(&mut self.buffer);
        let updates: Vec<Vec<f32>> = window.iter().map(|(_, u)| u.clone()).collect();
        // A window that cannot be combined (ragged lengths slipped past
        // upstream validation, or an unusable trim fraction) is dropped
        // whole rather than aborting the server; the next window starts
        // from an empty buffer.
        let Ok(mut outcome) = combine(self.policy, &updates) else {
            return None;
        };
        let flags = outlier_flags(&updates, &outcome.combined, self.outlier_factor);
        // Two-pass refine (when enabled): the first combine bounds the
        // damage any single update can do, which makes it a sound
        // reference point for flagging — and once flagged, the outliers
        // are removed outright and the survivors recombined. This
        // matters most in the first windows of an attack, before
        // quarantine escalation has exiled the senders: the policy alone
        // only *attenuates* a poisoned coordinate that lands mid-range,
        // the refine pass deletes it. Krum is exempt — its combine
        // already excludes by selection, and rerunning it on the kept
        // set with the same pessimistic attacker count would shrink the
        // selection toward a single update.
        let refinable = self.refine && !matches!(self.policy, AggregationPolicy::Krum { .. });
        if refinable && flags.iter().any(|&f| f) {
            let kept: Vec<Vec<f32>> = updates
                .iter()
                .zip(&flags)
                .filter(|(_, &f)| !f)
                .map(|(u, _)| u.clone())
                .collect();
            if let Ok(refined) = combine(self.policy, &kept) {
                let excluded = updates.len() - kept.len();
                outcome = AggregationOutcome {
                    combined: refined.combined,
                    contributors: updates.len(),
                    trimmed: refined.trimmed + excluded,
                    trim_fraction_permille: ((refined.trimmed + excluded) as u64 * 1000)
                        / updates.len() as u64,
                };
            }
        }
        let mut outliers: Vec<usize> = window
            .iter()
            .zip(&flags)
            .filter(|(_, &f)| f)
            .map(|((s, _), _)| *s)
            .collect();
        outliers.sort_unstable();
        outliers.dedup();
        let mut cleared: Vec<usize> = window
            .iter()
            .zip(&flags)
            .filter(|(_, &f)| !f)
            .map(|((s, _), _)| *s)
            .collect();
        cleared.sort_unstable();
        cleared.dedup();
        // A sender with mixed verdicts in one window (several buffered
        // updates, some flagged) is an outlier, not cleared.
        cleared.retain(|s| !outliers.contains(s));
        Some(RobustApply {
            combined: outcome.combined,
            outliers,
            cleared,
            contributors: outcome.contributors,
            trimmed: outcome.trimmed,
            trim_fraction_permille: outcome.trim_fraction_permille,
        })
    }

    /// Discards buffered updates (the watchdog clears the window on
    /// rollback so pre-rollback gradients never mix into post-rollback
    /// steps).
    pub fn clear(&mut self) {
        self.buffer.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(rows: &[&[f32]]) -> Vec<Vec<f32>> {
        rows.iter().map(|r| r.to_vec()).collect()
    }

    #[test]
    fn mean_matches_arithmetic_mean() {
        let u = w(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let out = combine(AggregationPolicy::Mean, &u).unwrap();
        assert_eq!(out.combined, vec![3.0, 4.0]);
        assert_eq!(out.trimmed, 0);
        assert_eq!(out.trim_fraction_permille, 0);
    }

    #[test]
    fn median_ignores_one_wild_update() {
        let u = w(&[&[1.0], &[2.0], &[1000.0]]);
        let out = combine(AggregationPolicy::CoordinateMedian, &u).unwrap();
        assert_eq!(out.combined, vec![2.0]);
        assert_eq!(out.trimmed, 2);
    }

    #[test]
    fn trimmed_mean_drops_extremes() {
        let u = w(&[&[0.0], &[1.0], &[2.0], &[3.0], &[1000.0]]);
        let out = combine(AggregationPolicy::TrimmedMean { trim: 0.2 }, &u).unwrap();
        assert_eq!(out.combined, vec![2.0]);
        assert_eq!(out.trimmed, 2);
        assert_eq!(out.trim_fraction_permille, 400);
    }

    #[test]
    fn trim_zero_is_exactly_mean() {
        let u = w(&[&[1.5, -2.0], &[0.25, 8.0], &[-3.75, 1.0]]);
        let a = combine(AggregationPolicy::TrimmedMean { trim: 0.0 }, &u).unwrap();
        let b = combine(AggregationPolicy::Mean, &u).unwrap();
        assert_eq!(a.combined, b.combined);
    }

    #[test]
    fn norm_clipping_caps_a_boosted_update() {
        let u = w(&[&[1.0, 0.0], &[0.0, 1.0], &[100.0, 0.0]]);
        let out = combine(AggregationPolicy::NormClippedMean, &u).unwrap();
        assert_eq!(out.trimmed, 1);
        // The boosted update is rescaled to norm 1, so no coordinate of
        // the mean can exceed (1 + 0 + 1)/3.
        assert!(out.combined.iter().all(|c| c.abs() <= 1.0));
    }

    #[test]
    fn krum_averages_cluster_members_and_excludes_the_attacker() {
        let honest = [
            &[1.0f32, 1.0] as &[f32],
            &[1.1, 0.9],
            &[0.9, 1.1],
            &[1.0, 0.95],
        ];
        let mut rows: Vec<&[f32]> = honest.to_vec();
        rows.push(&[-50.0, 40.0]);
        let u = w(&rows);
        let out = combine(
            AggregationPolicy::Krum {
                assumed_attackers: 1,
            },
            &u,
        )
        .unwrap();
        // n = 5, f = 1 → the 2 best-scored updates are averaged; the
        // attacker is far from every cluster member, so the combined
        // gradient stays inside the honest coordinate-wise range.
        assert_eq!(out.trimmed, u.len() - 2);
        for (j, c) in out.combined.iter().enumerate() {
            let lo = honest.iter().map(|h| h[j]).fold(f32::INFINITY, f32::min);
            let hi = honest
                .iter()
                .map(|h| h[j])
                .fold(f32::NEG_INFINITY, f32::max);
            assert!(
                (lo..=hi).contains(c),
                "coordinate {j} = {c} outside honest range [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn policies_are_bitwise_permutation_invariant() {
        let u = w(&[
            &[0.3, -1.7, 2.2],
            &[-0.1, 0.4, -0.9],
            &[5.0, 5.0, 5.0],
            &[0.2, -1.5, 2.0],
        ]);
        let mut perm = u.clone();
        perm.rotate_left(2);
        perm.swap(0, 1);
        for policy in [
            AggregationPolicy::Mean,
            AggregationPolicy::CoordinateMedian,
            AggregationPolicy::TrimmedMean { trim: 0.25 },
            AggregationPolicy::NormClippedMean,
            AggregationPolicy::Krum {
                assumed_attackers: 1,
            },
        ] {
            let a = combine(policy, &u).unwrap();
            let b = combine(policy, &perm).unwrap();
            assert_eq!(a.combined, b.combined, "policy {:?}", policy);
        }
    }

    #[test]
    fn outlier_flags_catch_the_distant_update() {
        let u = w(&[&[1.0, 1.0], &[1.1, 0.9], &[0.9, 1.0], &[-30.0, 25.0]]);
        let c = combine(AggregationPolicy::CoordinateMedian, &u)
            .unwrap()
            .combined;
        let flags = outlier_flags(&u, &c, 3.0);
        assert_eq!(flags, vec![false, false, false, true]);
    }

    #[test]
    fn aggregator_applies_on_full_window_and_resets() {
        let mut agg =
            RobustAggregator::new(AggregationPolicy::CoordinateMedian, 3).refine_outliers(true);
        assert!(agg.push(0, vec![1.0]).is_none());
        assert!(agg.push(1, vec![2.0]).is_none());
        let apply = agg.push(2, vec![300.0]).unwrap();
        // Two-pass refine: the flagged update is removed outright and the
        // survivors recombined — median of [1, 2], not of [1, 2, 300].
        assert_eq!(apply.combined, vec![1.5]);
        assert_eq!(apply.contributors, 3);
        assert_eq!(apply.outliers, vec![2]);
        assert_eq!(apply.cleared, vec![0, 1]);
        assert_eq!(agg.buffered(), 0);
        assert!(agg.push(0, vec![5.0]).is_none());
        agg.clear();
        assert_eq!(agg.buffered(), 0);
    }

    #[test]
    fn refine_off_keeps_first_pass_combine() {
        let mut agg = RobustAggregator::new(AggregationPolicy::CoordinateMedian, 3);
        agg.push(0, vec![1.0]);
        agg.push(1, vec![2.0]);
        let apply = agg.push(2, vec![300.0]).unwrap();
        // The outlier is still *reported* (quarantine escalation relies
        // on it) but stays in the combine.
        assert_eq!(apply.combined, vec![2.0]);
        assert_eq!(apply.outliers, vec![2]);
    }

    #[test]
    fn refine_never_applies_to_krum() {
        let policy = AggregationPolicy::Krum {
            assumed_attackers: 1,
        };
        let updates: [(usize, Vec<f32>); 5] = [
            (0, vec![1.0, 1.0]),
            (1, vec![1.1, 0.9]),
            (2, vec![0.9, 1.1]),
            (3, vec![1.0, 0.95]),
            (4, vec![-50.0, 40.0]),
        ];
        let mut plain = RobustAggregator::new(policy, 5);
        let mut refined = RobustAggregator::new(policy, 5).refine_outliers(true);
        let mut a = None;
        let mut b = None;
        for (s, u) in updates {
            a = plain.push(s, u.clone());
            b = refined.push(s, u);
        }
        // Krum's combine already excludes by selection; the refine flag
        // must not change its output.
        assert_eq!(a.unwrap().combined, b.unwrap().combined);
    }

    #[test]
    fn combine_rejects_malformed_windows() {
        assert_eq!(
            combine(AggregationPolicy::Mean, &[]),
            Err(AggregateError::EmptyWindow)
        );
        let ragged = w(&[&[1.0, 2.0], &[3.0]]);
        assert_eq!(
            combine(AggregationPolicy::Mean, &ragged),
            Err(AggregateError::RaggedWindow {
                expected: 2,
                got: 1
            })
        );
        let u = w(&[&[1.0], &[2.0]]);
        assert_eq!(
            combine(AggregationPolicy::TrimmedMean { trim: 0.5 }, &u),
            Err(AggregateError::BadTrim { trim: 0.5 })
        );
    }

    #[test]
    fn zero_window_clamps_to_one() {
        let mut agg = RobustAggregator::new(AggregationPolicy::Mean, 0);
        assert_eq!(agg.window, 1);
        // Every push fires a window of one.
        assert!(agg.push(0, vec![2.0]).is_some());
        agg.set_window(0);
        assert_eq!(agg.window, 1);
    }

    #[test]
    fn invalid_outlier_factor_keeps_previous() {
        let agg = RobustAggregator::new(AggregationPolicy::Mean, 2)
            .outlier_factor(5.0)
            .outlier_factor(f32::NAN)
            .outlier_factor(-1.0);
        assert_eq!(agg.outlier_factor, 5.0);
    }
}
