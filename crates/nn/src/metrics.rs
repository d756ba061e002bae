//! Classification metrics.

/// Fraction of predictions equal to targets.
///
/// # Panics
///
/// Panics if lengths differ or both are empty.
pub fn accuracy(predictions: &[usize], targets: &[usize]) -> f32 {
    assert_eq!(
        predictions.len(),
        targets.len(),
        "prediction/target length mismatch"
    );
    assert!(!targets.is_empty(), "accuracy of empty batch");
    let hits = predictions
        .iter()
        .zip(targets)
        .filter(|(p, t)| p == t)
        .count();
    hits as f32 / targets.len() as f32
}

/// Running mean of a scalar stream (loss curves etc.).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningMean {
    sum: f64,
    n: u64,
}

impl RunningMean {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningMean::default()
    }

    /// Adds an observation.
    pub fn push(&mut self, value: f32) {
        self.sum += value as f64;
        self.n += 1;
    }

    /// Current mean, or `None` if empty.
    pub fn mean(&self) -> Option<f32> {
        if self.n == 0 {
            None
        } else {
            Some((self.sum / self.n as f64) as f32)
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_hits() {
        assert_eq!(accuracy(&[0, 1, 2, 2], &[0, 1, 1, 2]), 0.75);
        assert_eq!(accuracy(&[5], &[5]), 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn accuracy_rejects_mismatched_lengths() {
        accuracy(&[0], &[0, 1]);
    }

    #[test]
    fn running_mean_accumulates() {
        let mut rm = RunningMean::new();
        assert_eq!(rm.mean(), None);
        rm.push(1.0);
        rm.push(3.0);
        assert_eq!(rm.mean(), Some(2.0));
        assert_eq!(rm.count(), 2);
    }
}
