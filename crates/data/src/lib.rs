//! Datasets for the spatio-temporal split-learning experiments: a CIFAR-10
//! binary reader, a procedural CIFAR-like synthetic generator (used when
//! the real dataset is unavailable offline — see DESIGN.md §2), seeded
//! batching, augmentation, and the IID / Dirichlet / shard partitioners
//! that carve data across end-systems.
//!
//! # Examples
//!
//! ```
//! use stsl_data::{SyntheticCifar, Partition, BatchPlan};
//!
//! // 10-class, 32×32×3 task, deterministic from the seed.
//! let data = SyntheticCifar::new(42).generate(100);
//! let (train, test) = data.split(0.8, 0);
//!
//! // Four hospitals, IID shards.
//! let shards = Partition::Iid.split(&train, 4, 1);
//! assert_eq!(shards.len(), 4);
//!
//! // Mini-batches for epoch 0.
//! let plan = BatchPlan::new(16, 7);
//! let (images, labels) = plan.epoch(&shards[0], 0).next().unwrap();
//! assert_eq!(images.dim(0), labels.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod augment;
mod batching;
pub mod cifar;
mod dataset;
mod partition;
mod synthetic;

pub use augment::{hflip, random_crop, standard_augment};
pub use batching::BatchPlan;
pub use dataset::{DatasetError, ImageDataset};
pub use partition::{label_skew, Partition};
pub use synthetic::{SyntheticCifar, CHANNELS, CLASS_NAMES, IMAGE_SIDE, NUM_CLASSES};
