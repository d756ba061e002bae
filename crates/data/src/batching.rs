//! Mini-batch iteration with seeded shuffling.

use crate::ImageDataset;
use rand::seq::SliceRandom;
use stsl_tensor::init::{derive_seed, rng_from_seed};
use stsl_tensor::Tensor;

/// A plan for iterating a dataset in mini-batches.
///
/// Shuffling is derived from `(seed, epoch)`, so every epoch gets a fresh
/// but reproducible order and two runs with the same seed see identical
/// batches — the property the split-learning determinism tests rely on.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    batch_size: usize,
    seed: u64,
}

impl BatchPlan {
    /// Creates a shuffled plan with the given batch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn new(batch_size: usize, seed: u64) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        BatchPlan { batch_size, seed }
    }

    /// The configured batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Batch index lists for `epoch`.
    pub fn epoch_indices(&self, len: usize, epoch: u64) -> Vec<Vec<usize>> {
        let mut idx: Vec<usize> = (0..len).collect();
        idx.shuffle(&mut rng_from_seed(derive_seed(self.seed, epoch)));
        idx.chunks(self.batch_size).map(|c| c.to_vec()).collect()
    }

    /// Iterates `(images, labels)` batches of `dataset` for `epoch`.
    pub fn epoch<'d>(
        &self,
        dataset: &'d ImageDataset,
        epoch: u64,
    ) -> impl Iterator<Item = (Tensor, Vec<usize>)> + 'd {
        let batches = self.epoch_indices(dataset.len(), epoch);
        batches.into_iter().map(move |b| dataset.batch(&b))
    }

    /// Number of batches per epoch for a dataset of `len` samples.
    pub fn batches_per_epoch(&self, len: usize) -> usize {
        len.div_ceil(self.batch_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SyntheticCifar;

    #[test]
    fn covers_all_samples_each_epoch() {
        let plan = BatchPlan::new(7, 0);
        let batches = plan.epoch_indices(20, 0);
        let mut all: Vec<usize> = batches.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn epochs_differ_but_are_reproducible() {
        let plan = BatchPlan::new(4, 5);
        let e0 = plan.epoch_indices(16, 0);
        let e1 = plan.epoch_indices(16, 1);
        assert_ne!(e0, e1);
        assert_eq!(e0, BatchPlan::new(4, 5).epoch_indices(16, 0));
    }

    #[test]
    fn epoch_yields_tensor_batches() {
        let d = SyntheticCifar::new(0).generate(10);
        let plan = BatchPlan::new(4, 1);
        let batches: Vec<_> = plan.epoch(&d, 0).collect();
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].0.dims(), &[4, 3, 32, 32]);
        assert_eq!(batches[2].0.dims(), &[2, 3, 32, 32]);
        assert_eq!(batches[0].1.len(), 4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_batch_size_rejected() {
        BatchPlan::new(0, 0);
    }
}
