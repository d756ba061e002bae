//! Shapes, strides and broadcasting rules for dense tensors.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The dimensions of a dense, row-major tensor.
///
/// A `Shape` is an ordered list of extents. The empty list denotes a scalar.
/// Shapes are small value types: cheap to clone, comparable, hashable.
///
/// # Examples
///
/// ```
/// use stsl_tensor::Shape;
///
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.len(), 24);
/// assert_eq!(s.rank(), 3);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from its extents.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape(dims)
    }

    /// The scalar shape (rank 0, one element).
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of extents; 1 for a scalar).
    pub fn len(&self) -> usize {
        self.0.iter().product()
    }

    /// Whether the shape contains zero elements (some extent is 0).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Extent of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= self.rank()`.
    pub fn dim(&self, axis: usize) -> usize {
        self.0[axis]
    }

    /// Row-major (C-order) strides, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.rank()];
        for i in (0..self.rank().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index to a flat row-major offset.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or any coordinate is out of
    /// bounds (debug builds check bounds; release builds check rank only).
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.rank(),
            "index rank {} does not match shape rank {}",
            index.len(),
            self.rank()
        );
        let mut off = 0;
        let mut stride = 1;
        for i in (0..self.rank()).rev() {
            debug_assert!(
                index[i] < self.0[i],
                "index {} out of bounds for dim {} of extent {}",
                index[i],
                i,
                self.0[i]
            );
            off += index[i] * stride;
            stride *= self.0[i];
        }
        off
    }

    /// Converts a flat row-major offset back to a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= self.len()`.
    pub fn unravel(&self, mut offset: usize) -> Vec<usize> {
        assert!(
            offset < self.len().max(1),
            "offset {} out of bounds for shape of {} elements",
            offset,
            self.len()
        );
        let mut idx = vec![0; self.rank()];
        for i in (0..self.rank()).rev() {
            idx[i] = offset % self.0[i];
            offset /= self.0[i];
        }
        idx
    }

    /// Computes the shape two operands broadcast to under NumPy rules, or
    /// `None` if they are incompatible.
    ///
    /// Trailing dimensions are aligned; each pair of extents must be equal
    /// or one of them must be 1.
    pub fn broadcast(&self, other: &Shape) -> Option<Shape> {
        let rank = self.rank().max(other.rank());
        let mut dims = vec![0; rank];
        #[allow(clippy::needless_range_loop)] // symmetric index math reads better
        for i in 0..rank {
            let a = if i < rank - self.rank() {
                1
            } else {
                self.0[i - (rank - self.rank())]
            };
            let b = if i < rank - other.rank() {
                1
            } else {
                other.0[i - (rank - other.rank())]
            };
            if a == b {
                dims[i] = a;
            } else if a == 1 {
                dims[i] = b;
            } else if b == 1 {
                dims[i] = a;
            } else {
                return None;
            }
        }
        Some(Shape(dims))
    }

    /// Removes the dimension at `axis`, returning the reduced shape.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= self.rank()`.
    pub fn remove_axis(&self, axis: usize) -> Shape {
        assert!(axis < self.rank(), "axis {} out of range", axis);
        let mut dims = self.0.clone();
        dims.remove(axis);
        Shape(dims)
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.0)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "×")?;
            }
            write!(f, "{}", d)?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape(dims.to_vec())
    }
}

impl AsRef<[usize]> for Shape {
    fn as_ref(&self) -> &[usize] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_shape_has_one_element() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn len_is_product_of_dims() {
        assert_eq!(Shape::from([2, 3, 4]).len(), 24);
        assert_eq!(Shape::from([7]).len(), 7);
        assert_eq!(Shape::from([3, 0, 5]).len(), 0);
    }

    #[test]
    fn zero_extent_is_empty() {
        assert!(Shape::from([3, 0]).is_empty());
        assert!(!Shape::from([3, 1]).is_empty());
    }

    #[test]
    fn strides_are_row_major() {
        assert_eq!(Shape::from([2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::from([5]).strides(), vec![1]);
        assert_eq!(Shape::scalar().strides(), Vec::<usize>::new());
    }

    #[test]
    fn offset_roundtrips_with_unravel() {
        let s = Shape::from([2, 3, 4]);
        for flat in 0..s.len() {
            let idx = s.unravel(flat);
            assert_eq!(s.offset(&idx), flat);
        }
    }

    #[test]
    fn offset_of_first_and_last() {
        let s = Shape::from([2, 3]);
        assert_eq!(s.offset(&[0, 0]), 0);
        assert_eq!(s.offset(&[1, 2]), 5);
    }

    #[test]
    #[should_panic(expected = "index rank")]
    fn offset_rejects_wrong_rank() {
        Shape::from([2, 3]).offset(&[1]);
    }

    #[test]
    fn broadcast_equal_shapes() {
        let a = Shape::from([2, 3]);
        assert_eq!(a.broadcast(&a), Some(a.clone()));
    }

    #[test]
    fn broadcast_scalar_with_anything() {
        let a = Shape::from([2, 3]);
        assert_eq!(Shape::scalar().broadcast(&a), Some(a.clone()));
        assert_eq!(a.broadcast(&Shape::scalar()), Some(a));
    }

    #[test]
    fn broadcast_ones_expand() {
        let a = Shape::from([4, 1, 3]);
        let b = Shape::from([2, 1]);
        assert_eq!(a.broadcast(&b), Some(Shape::from([4, 2, 3])));
    }

    #[test]
    fn broadcast_incompatible_is_none() {
        assert_eq!(Shape::from([2, 3]).broadcast(&Shape::from([4, 3])), None);
    }

    #[test]
    fn remove_axis_drops_one_extent() {
        let s = Shape::from([2, 3, 4]);
        assert_eq!(s.remove_axis(1), Shape::from([2, 4]));
    }

    #[test]
    fn display_uses_times_sign() {
        assert_eq!(Shape::from([2, 3]).to_string(), "[2×3]");
    }
}
