//! The dense tensor type.

use crate::{Shape, TensorError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major, heap-allocated tensor of `f32` elements.
///
/// `Tensor` is the workhorse value of the whole workspace: activations,
/// weights, gradients and images are all tensors. Data is always contiguous
/// in C order; views are materialized (this library favours simplicity and
/// predictable performance over zero-copy aliasing).
///
/// # Examples
///
/// ```
/// use stsl_tensor::Tensor;
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
/// let b = Tensor::full([2, 2], 10.0);
/// let c = &a + &b;
/// assert_eq!(c.as_slice(), &[11.0, 12.0, 13.0, 14.0]);
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let len = shape.len();
        Tensor {
            shape,
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor of ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor where every element is `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let len = shape.len();
        Tensor {
            shape,
            data: vec![value; len],
        }
    }

    /// Creates a rank-0 tensor holding a single value.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::scalar(),
            data: vec![value],
        }
    }

    /// Creates a tensor from raw row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the number of elements implied
    /// by `shape`. Use [`Tensor::try_from_vec`] for a fallible variant.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Self {
        Tensor::try_from_vec(data, shape).expect("data length must match shape")
    }

    /// Creates a tensor from raw row-major data, checking the length.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLengthMismatch`] if the element count does
    /// not match the shape.
    pub fn try_from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Result<Self, TensorError> {
        let shape = shape.into();
        if data.len() != shape.len() {
            return Err(TensorError::DataLengthMismatch {
                got: data.len(),
                expected: shape.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor by evaluating `f` at every multi-index.
    pub fn from_fn(shape: impl Into<Shape>, mut f: impl FnMut(&[usize]) -> f32) -> Self {
        let shape = shape.into();
        let len = shape.len();
        let mut data = Vec::with_capacity(len);
        for flat in 0..len {
            let idx = shape.unravel(flat);
            data.push(f(&idx));
        }
        Tensor { shape, data }
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The extents of the tensor as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Extent of dimension `axis`.
    pub fn dim(&self, axis: usize) -> usize {
        self.shape.dim(axis)
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank mismatches, or (debug builds) out of bounds.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Sets the element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank mismatches, or (debug builds) out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }

    /// The single value of a rank-0 or single-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.len(),
            1,
            "item() requires a single-element tensor, got {}",
            self.shape
        );
        self.data[0]
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ. See [`Tensor::try_reshape`].
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        self.try_reshape(shape).expect("reshape length mismatch")
    }

    /// Fallible [`Tensor::reshape`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when element counts differ.
    pub fn try_reshape(&self, shape: impl Into<Shape>) -> Result<Tensor, TensorError> {
        let shape = shape.into();
        if shape.len() != self.len() {
            return Err(TensorError::LengthMismatch {
                from: self.shape.clone(),
                to: shape,
            });
        }
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Flattens to rank 1.
    pub fn flatten(&self) -> Tensor {
        Tensor {
            shape: Shape::from(vec![self.len()]),
            data: self.data.clone(),
        }
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(
            self.rank(),
            2,
            "transpose requires rank 2, got {}",
            self.shape
        );
        let (r, c) = (self.dim(0), self.dim(1));
        let mut out = vec![0.0f32; r * c];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data[i * c + j];
            }
        }
        Tensor {
            shape: Shape::from([c, r]),
            data: out,
        }
    }

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two tensors elementwise with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if the shapes cannot be broadcast together.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        self.try_zip_map(other, f).expect("broadcast mismatch")
    }

    /// Fallible [`Tensor::zip_map`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BroadcastMismatch`] if the shapes are
    /// incompatible.
    pub fn try_zip_map(
        &self,
        other: &Tensor,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor, TensorError> {
        if self.shape == other.shape {
            // Fast path: identical shapes need no index arithmetic.
            let data = self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect();
            return Ok(Tensor {
                shape: self.shape.clone(),
                data,
            });
        }
        let out_shape =
            self.shape
                .broadcast(&other.shape)
                .ok_or_else(|| TensorError::BroadcastMismatch {
                    lhs: self.shape.clone(),
                    rhs: other.shape.clone(),
                })?;
        let mut data = Vec::with_capacity(out_shape.len());
        let rank = out_shape.rank();
        let a_dims = self.shape.dims();
        let b_dims = other.shape.dims();
        let a_strides = self.shape.strides();
        let b_strides = other.shape.strides();
        let a_pad = rank - self.rank();
        let b_pad = rank - other.rank();
        for flat in 0..out_shape.len() {
            let idx = out_shape.unravel(flat);
            let mut a_off = 0;
            for d in 0..self.rank() {
                let coord = idx[d + a_pad];
                a_off += if a_dims[d] == 1 {
                    0
                } else {
                    coord * a_strides[d]
                };
            }
            let mut b_off = 0;
            for d in 0..other.rank() {
                let coord = idx[d + b_pad];
                b_off += if b_dims[d] == 1 {
                    0
                } else {
                    coord * b_strides[d]
                };
            }
            data.push(f(self.data[a_off], other.data[b_off]));
        }
        Ok(Tensor {
            shape: out_shape,
            data,
        })
    }

    /// Adds `scale * other` into `self` (both must have identical shapes).
    ///
    /// This is the hot in-place update used by optimizers (`w += -lr * g`).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, scale: f32, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "axpy requires identical shapes: {} vs {}",
            self.shape, other.shape
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Multiplies every element by `scale` in place.
    pub fn scale_inplace(&mut self, scale: f32) {
        for x in &mut self.data {
            *x *= scale;
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Extracts the `i`-th slice along axis 0 (e.g. one sample of a batch).
    ///
    /// # Panics
    ///
    /// Panics for rank-0 tensors or `i` out of bounds.
    pub fn index_axis0(&self, i: usize) -> Tensor {
        assert!(self.rank() >= 1, "index_axis0 requires rank >= 1");
        assert!(
            i < self.dim(0),
            "index {} out of bounds for axis 0 of {}",
            i,
            self.shape
        );
        let sub_shape = self.shape.remove_axis(0);
        let stride = sub_shape.len();
        let data = self.data[i * stride..(i + 1) * stride].to_vec();
        Tensor {
            shape: sub_shape,
            data,
        }
    }

    /// Stacks rank-`r` tensors into a rank-`r+1` tensor along a new axis 0.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or shapes differ.
    pub fn stack(parts: &[Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "stack requires at least one tensor");
        let sub = parts[0].shape.clone();
        let mut data = Vec::with_capacity(parts.len() * sub.len());
        for p in parts {
            assert_eq!(p.shape, sub, "stack requires identical shapes");
            data.extend_from_slice(&p.data);
        }
        let mut dims = vec![parts.len()];
        dims.extend_from_slice(sub.dims());
        Tensor {
            shape: Shape::from(dims),
            data,
        }
    }

    /// Concatenates tensors along axis 0 (all other extents must match).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or trailing shapes differ.
    pub fn concat0(parts: &[Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat0 requires at least one tensor");
        let tail = parts[0].shape.remove_axis(0);
        let mut n0 = 0;
        let mut data = Vec::new();
        for p in parts {
            assert_eq!(
                p.shape.remove_axis(0),
                tail,
                "concat0 trailing shape mismatch"
            );
            n0 += p.dim(0);
            data.extend_from_slice(&p.data);
        }
        let mut dims = vec![n0];
        dims.extend_from_slice(tail.dims());
        Tensor {
            shape: Shape::from(dims),
            data,
        }
    }

    /// Squared L2 norm of all elements.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Returns true when every element of `self` is within `tol` of the
    /// corresponding element of `other` (shapes must match exactly).
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())))
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const PREVIEW: usize = 8;
        write!(f, "Tensor({}, [", self.shape)?;
        for (i, x) in self.data.iter().take(PREVIEW).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{:.4}", x)?;
        }
        if self.len() > PREVIEW {
            write!(f, ", …")?;
        }
        write!(f, "])")
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl std::ops::$trait for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: &Tensor) -> Tensor {
                self.zip_map(rhs, |a, b| a $op b)
            }
        }
        impl std::ops::$trait<f32> for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: f32) -> Tensor {
                self.map(|a| a $op rhs)
            }
        }
    };
}

impl_binop!(Add, add, +);
impl_binop!(Sub, sub, -);
impl_binop!(Mul, mul, *);
impl_binop!(Div, div, /);

impl std::ops::Neg for &Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        self.map(|a| -a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `0, 1, 2, …` laid out row-major over `dims`.
    fn iota<const N: usize>(dims: [usize; N]) -> Tensor {
        let n = dims.iter().product();
        Tensor::from_vec((0..n).map(|i| i as f32).collect(), dims)
    }

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros([2, 2]).as_slice(), &[0.0; 4]);
        assert_eq!(Tensor::ones([3]).as_slice(), &[1.0; 3]);
        assert_eq!(Tensor::full([2], 7.5).as_slice(), &[7.5, 7.5]);
    }

    #[test]
    fn from_fn_uses_indices() {
        let t = Tensor::from_fn([2, 3], |idx| (idx[0] * 10 + idx[1]) as f32);
        assert_eq!(t.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn try_from_vec_checks_length() {
        assert!(Tensor::try_from_vec(vec![1.0; 5], [2, 3]).is_err());
        assert!(Tensor::try_from_vec(vec![1.0; 6], [2, 3]).is_ok());
    }

    #[test]
    fn at_and_set_roundtrip() {
        let mut t = Tensor::zeros([2, 3]);
        t.set(&[1, 2], 9.0);
        assert_eq!(t.at(&[1, 2]), 9.0);
        assert_eq!(t.as_slice()[5], 9.0);
    }

    #[test]
    fn item_on_scalar() {
        assert_eq!(Tensor::scalar(3.0).item(), 3.0);
    }

    #[test]
    #[should_panic(expected = "single-element")]
    fn item_panics_on_vector() {
        Tensor::zeros([2]).item();
    }

    #[test]
    fn reshape_preserves_data() {
        let t = iota([2, 3]);
        assert_eq!(t.dims(), &[2, 3]);
        assert_eq!(t.at(&[1, 0]), 3.0);
    }

    #[test]
    fn try_reshape_rejects_bad_length() {
        assert!(Tensor::zeros([4]).try_reshape([3]).is_err());
    }

    #[test]
    fn transpose_2d() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let tt = t.transpose();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.as_slice(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let t = iota([3, 4]);
        assert_eq!(t.transpose().transpose(), t);
    }

    #[test]
    fn broadcast_add_row_vector() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let b = Tensor::from_vec(vec![10.0, 20.0, 30.0], [3]);
        let c = &a + &b;
        assert_eq!(c.as_slice(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn broadcast_add_column_vector() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::from_vec(vec![1.0, 2.0], [2, 1]);
        let c = &a + &b;
        assert_eq!(c.as_slice(), &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn scalar_ops() {
        let a = Tensor::from_vec(vec![2.0, 4.0], [2]);
        assert_eq!((&a * 0.5).as_slice(), &[1.0, 2.0]);
        assert_eq!((&a - 1.0).as_slice(), &[1.0, 3.0]);
        assert_eq!((-&a).as_slice(), &[-2.0, -4.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::ones([3]);
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]);
        a.axpy(-0.5, &g);
        assert_eq!(a.as_slice(), &[0.5, 0.0, -0.5]);
    }

    #[test]
    fn index_axis0_extracts_sample() {
        let t = iota([3, 2, 2]);
        let s = t.index_axis0(1);
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.as_slice(), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn stack_adds_leading_axis() {
        let a = Tensor::ones([2]);
        let b = Tensor::zeros([2]);
        let s = Tensor::stack(&[a, b]);
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.as_slice(), &[1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn concat0_joins_batches() {
        let a = Tensor::ones([1, 2]);
        let b = Tensor::zeros([2, 2]);
        let c = Tensor::concat0(&[a, b]);
        assert_eq!(c.dims(), &[3, 2]);
    }

    #[test]
    fn allclose_tolerates_small_differences() {
        let a = Tensor::ones([3]);
        let mut b = Tensor::ones([3]);
        b.as_mut_slice()[0] += 1e-7;
        assert!(a.allclose(&b, 1e-5));
        b.as_mut_slice()[0] += 1.0;
        assert!(!a.allclose(&b, 1e-5));
    }

    #[test]
    fn serde_roundtrip() {
        let t = iota([2, 3]);
        let json = serde_json::to_string(&t).unwrap();
        let back: Tensor = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn debug_is_nonempty_and_truncated() {
        let t = Tensor::zeros([100]);
        let s = format!("{:?}", t);
        assert!(s.contains("…"));
        assert!(!s.is_empty());
    }
}
