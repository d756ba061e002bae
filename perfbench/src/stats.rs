//! Order statistics for reported timings.

/// Median of `values` (mean of the middle pair for an even count);
/// `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The value at quantile `q` of `values` by the nearest-rank rule.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The highest of p50, p90, p99 and p99.9 that has at least ten of
/// `count` samples beyond it, or `None` when even the median has fewer.
pub fn reportable_quantile(count: usize) -> Option<f64> {
    // The tolerance absorbs float error in `1 - q` (100 × 0.1 < 10).
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|q| count as f64 * (1.0 - q) >= 10.0 - 1e-6)
}

/// "median X, pNN Y (n=Z)": the median plus the highest percentile the
/// sample count supports.
pub fn describe(values: &[f64], unit: &str) -> String {
    let n = values.len();
    let mut out = format!("median {:.3} {unit}", median(values));
    if let Some(q) = reportable_quantile(n).filter(|&q| q > 0.5) {
        out += &format!(", p{} {:.3} {unit}", q * 100.0, quantile(values, q));
    }
    out + &format!(" (n={n})")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(reportable_quantile(19), None);
        assert_eq!(reportable_quantile(20), Some(0.5));
        assert_eq!(reportable_quantile(99), Some(0.5));
        assert_eq!(reportable_quantile(100), Some(0.9));
        assert_eq!(reportable_quantile(999), Some(0.9));
        assert_eq!(reportable_quantile(1_000), Some(0.99));
        assert_eq!(reportable_quantile(10_000), Some(0.999));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert!(describe(&v, "ms").contains("p90 90.000 ms"));
        assert!(!describe(&v[..50], "ms").contains("p90"));
    }
}
