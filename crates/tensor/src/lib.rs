//! Dense `f32` tensors and the numeric kernels needed to train the paper's
//! CNN from scratch: broadcasting elementwise ops, reductions, blocked
//! GEMM, im2col convolution and max pooling, each with hand-written
//! backward passes validated against finite differences.
//!
//! This crate is the numerical substrate for the
//! `spatio-temporal-split-learning` workspace. It has no unsafe code and no
//! dependencies beyond `rand` (seeded initialization) and `serde`
//! (checkpoints). Everything is deterministic given a seed.
//!
//! # Examples
//!
//! ```
//! use stsl_tensor::{Tensor, ops::conv::{conv2d_forward, ConvSpec, ConvWorkspace}};
//! use stsl_tensor::init::rng_from_seed;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rng_from_seed(0);
//! let image = Tensor::randn([1, 3, 32, 32], &mut rng);     // NCHW
//! let kernel = Tensor::he_normal([16, 3, 3, 3], 27, &mut rng);
//! let bias = Tensor::zeros([16]);
//! let mut ws = ConvWorkspace::new();
//! let out = conv2d_forward(&image, &kernel, &bias, ConvSpec::same(3), false, &mut ws)?;
//! assert_eq!(out.dims(), &[1, 16, 32, 32]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
mod error;
pub mod init;
pub mod ops;
mod shape;
mod tensor;

pub use backend::{with_backend, Backend};
pub use error::TensorError;
pub use ops::reduce::{mean_f32, sum_f32, sum_f64, sum_sq_f64};
pub use shape::Shape;
pub use tensor::Tensor;
