//! Labeled image datasets.

use rand::seq::SliceRandom;
use stsl_tensor::init::rng_from_seed;
use stsl_tensor::Tensor;

/// Why a tensor/label pair cannot form an [`ImageDataset`].
///
/// Surfaced (instead of a panic) so loaders fed untrusted bytes — the
/// CIFAR reader — can propagate a typed error to the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// The image tensor is not rank 4 (`[n, c, h, w]`).
    NotImages {
        /// The offending rank.
        rank: usize,
    },
    /// Image count and label count disagree.
    LabelCount {
        /// Images in the tensor.
        images: usize,
        /// Labels supplied.
        labels: usize,
    },
    /// `num_classes` is zero.
    NoClasses,
    /// A label is `>= num_classes`.
    LabelOutOfRange {
        /// The offending label.
        label: usize,
        /// The declared class count.
        num_classes: usize,
    },
}

impl std::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatasetError::NotImages { rank } => {
                write!(f, "images must be [n, c, h, w], got rank {rank}")
            }
            DatasetError::LabelCount { images, labels } => {
                write!(f, "one label per image: {images} images, {labels} labels")
            }
            DatasetError::NoClasses => write!(f, "need at least one class"),
            DatasetError::LabelOutOfRange { label, num_classes } => {
                write!(f, "label {label} out of range for {num_classes} classes")
            }
        }
    }
}

impl std::error::Error for DatasetError {}

/// An in-memory labeled image dataset in `NCHW` layout.
///
/// This is the unit that gets partitioned across end-systems: each
/// end-system receives an `ImageDataset` it never shares (the paper's
/// privacy premise).
#[derive(Debug, Clone, PartialEq)]
pub struct ImageDataset {
    images: Tensor,
    labels: Vec<usize>,
    num_classes: usize,
}

impl ImageDataset {
    /// Creates a dataset from an `[n, c, h, w]` image tensor and `n`
    /// labels in `0..num_classes`.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree or a label is out of range. Loaders of
    /// untrusted bytes use [`ImageDataset::try_new`] instead.
    pub fn new(images: Tensor, labels: Vec<usize>, num_classes: usize) -> Self {
        match Self::try_new(images, labels, num_classes) {
            Ok(d) => d,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor: validates shapes and labels, returning a
    /// [`DatasetError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Rejects non-rank-4 images, image/label count mismatches, a zero
    /// class count, and out-of-range labels.
    pub fn try_new(
        images: Tensor,
        labels: Vec<usize>,
        num_classes: usize,
    ) -> Result<Self, DatasetError> {
        if images.rank() != 4 {
            return Err(DatasetError::NotImages {
                rank: images.rank(),
            });
        }
        if images.dim(0) != labels.len() {
            return Err(DatasetError::LabelCount {
                images: images.dim(0),
                labels: labels.len(),
            });
        }
        if num_classes == 0 {
            return Err(DatasetError::NoClasses);
        }
        if let Some(&label) = labels.iter().find(|&&l| l >= num_classes) {
            return Err(DatasetError::LabelOutOfRange { label, num_classes });
        }
        Ok(ImageDataset {
            images,
            labels,
            num_classes,
        })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Image dimensions `(c, h, w)`.
    pub fn image_dims(&self) -> (usize, usize, usize) {
        (self.images.dim(1), self.images.dim(2), self.images.dim(3))
    }

    /// The full image tensor `[n, c, h, w]`.
    pub fn images(&self) -> &Tensor {
        &self.images
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// The `i`-th image as `[c, h, w]`.
    pub fn image(&self, i: usize) -> Tensor {
        self.images.index_axis0(i)
    }

    /// The `i`-th label.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// Gathers a batch `(images [k, c, h, w], labels)` by sample indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn batch(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let (c, h, w) = self.image_dims();
        let sample = c * h * w;
        let src = self.images.as_slice();
        let mut data = Vec::with_capacity(indices.len() * sample);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            assert!(i < self.len(), "batch index {} out of bounds", i);
            data.extend_from_slice(&src[i * sample..(i + 1) * sample]);
            labels.push(self.labels[i]);
        }
        (Tensor::from_vec(data, [indices.len(), c, h, w]), labels)
    }

    /// The fraction of samples `predict` labels correctly. `predict` maps
    /// a batch of images to one class per image; it sees the samples in
    /// order, in batches of at most `batch_size`.
    pub fn accuracy(
        &self,
        batch_size: usize,
        mut predict: impl FnMut(&Tensor) -> Vec<usize>,
    ) -> f32 {
        let indices: Vec<usize> = (0..self.len()).collect();
        let mut hits = 0usize;
        for chunk in indices.chunks(batch_size.max(1)) {
            let (images, targets) = self.batch(chunk);
            let preds = predict(&images);
            hits += preds.iter().zip(&targets).filter(|(p, t)| p == t).count();
        }
        hits as f32 / self.len().max(1) as f32
    }

    /// Extracts the sub-dataset at `indices` (cloning samples).
    pub fn subset(&self, indices: &[usize]) -> ImageDataset {
        let (images, labels) = self.batch(indices);
        ImageDataset {
            images,
            labels,
            num_classes: self.num_classes,
        }
    }

    /// Splits into `(train, test)` with `train_fraction` of samples in the
    /// train part, shuffled by `seed`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < train_fraction < 1.0`.
    pub fn split(&self, train_fraction: f32, seed: u64) -> (ImageDataset, ImageDataset) {
        assert!(
            (0.0..1.0).contains(&train_fraction) && train_fraction > 0.0,
            "train fraction must be in (0, 1), got {}",
            train_fraction
        );
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(&mut rng_from_seed(seed));
        let cut = ((self.len() as f32) * train_fraction).round() as usize;
        let cut = cut.clamp(1, self.len().saturating_sub(1).max(1));
        (self.subset(&idx[..cut]), self.subset(&idx[cut..]))
    }

    /// Histogram of labels (length `num_classes`).
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize) -> ImageDataset {
        let images = Tensor::from_fn([n, 1, 2, 2], |idx| idx[0] as f32);
        let labels = (0..n).map(|i| i % 2).collect();
        ImageDataset::new(images, labels, 2)
    }

    #[test]
    fn construction_validates_labels() {
        let images = Tensor::zeros([2, 1, 2, 2]);
        let ok = ImageDataset::new(images.clone(), vec![0, 1], 2);
        assert_eq!(ok.len(), 2);
        assert_eq!(ok.image_dims(), (1, 2, 2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn construction_rejects_bad_labels() {
        ImageDataset::new(Tensor::zeros([1, 1, 2, 2]), vec![5], 2);
    }

    #[test]
    fn try_new_reports_typed_errors() {
        assert_eq!(
            ImageDataset::try_new(Tensor::zeros([2, 2]), vec![0, 0], 2),
            Err(DatasetError::NotImages { rank: 2 })
        );
        assert_eq!(
            ImageDataset::try_new(Tensor::zeros([2, 1, 2, 2]), vec![0], 2),
            Err(DatasetError::LabelCount {
                images: 2,
                labels: 1
            })
        );
        assert_eq!(
            ImageDataset::try_new(Tensor::zeros([1, 1, 2, 2]), vec![0], 0),
            Err(DatasetError::NoClasses)
        );
        assert_eq!(
            ImageDataset::try_new(Tensor::zeros([1, 1, 2, 2]), vec![5], 2),
            Err(DatasetError::LabelOutOfRange {
                label: 5,
                num_classes: 2
            })
        );
        assert!(ImageDataset::try_new(Tensor::zeros([1, 1, 2, 2]), vec![1], 2).is_ok());
    }

    #[test]
    fn batch_gathers_in_order() {
        let d = toy(5);
        let (x, y) = d.batch(&[4, 0, 2]);
        assert_eq!(x.dims(), &[3, 1, 2, 2]);
        assert_eq!(x.at(&[0, 0, 0, 0]), 4.0);
        assert_eq!(x.at(&[1, 0, 0, 0]), 0.0);
        assert_eq!(y, vec![0, 0, 0]);
    }

    #[test]
    fn accuracy_scores_every_sample_once_in_order() {
        // Pixel values are sample indices; label i % 2. Predicting
        // "always 0" is right on the 3 even samples of 5, and a batch
        // size of 2 leaves a partial last batch.
        let d = toy(5);
        let mut seen = Vec::new();
        let acc = d.accuracy(2, |x| {
            let n = x.dims()[0];
            seen.extend((0..n).map(|i| x.at(&[i, 0, 0, 0]) as usize));
            vec![0; n]
        });
        assert_eq!(acc, 0.6);
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(toy(0).accuracy(4, |_| Vec::new()), 0.0);
    }

    #[test]
    fn subset_preserves_classes() {
        let d = toy(6);
        let s = d.subset(&[1, 3, 5]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.labels(), &[1, 1, 1]);
        assert_eq!(s.num_classes(), 2);
    }

    #[test]
    fn split_partitions_all_samples() {
        let d = toy(10);
        let (train, test) = d.split(0.8, 1);
        assert_eq!(train.len() + test.len(), 10);
        assert_eq!(train.len(), 8);
    }

    #[test]
    fn split_is_deterministic_per_seed() {
        let d = toy(10);
        let (a, _) = d.split(0.5, 3);
        let (b, _) = d.split(0.5, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn class_counts_histogram() {
        let d = toy(7);
        assert_eq!(d.class_counts(), vec![4, 3]);
    }
}
