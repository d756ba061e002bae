//! Concrete layer implementations.

mod activation;
mod avgpool2d;
mod conv2d;
mod dense;
mod maxpool2d;

pub use activation::{Flatten, Relu};
pub use avgpool2d::AvgPool2d;
pub use conv2d::Conv2d;
pub use dense::Dense;
pub use maxpool2d::MaxPool2d;
