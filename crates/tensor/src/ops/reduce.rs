//! Reductions: sums, means, extrema, argmax, softmax.
//!
//! The softmax family and the full-tensor sum dispatch on
//! [`Backend::active`]: the reference path keeps the exact left-fold
//! summation order, the blocked path uses fixed-order lane partial sums
//! ([`blocked::sum_lanes`]) and row-parallel softmax. Axis reductions,
//! extrema and argmax are order-insensitive or intentionally shared, so
//! they are backend-invariant (asserted by `tests/kernel_conformance.rs`).

use crate::ops::blocked;
use crate::{Backend, Shape, Tensor};
use stsl_parallel::{par_chunks_mut, ChunkPolicy};

/// Minimum row elements worth handing a softmax row band to a thread.
const SOFTMAX_GRAIN: usize = 1 << 12;

/// Order-pinned left-fold sum of an `f32` stream.
///
/// This module is the sanctioned seam for non-associative float
/// reductions (the audit's float-reduction rule forbids ad-hoc `f32`/
/// `f64` accumulation elsewhere): accumulation order here is the
/// iterator's order, pinned by construction, so results are bitwise
/// reproducible for a given input sequence.
pub fn sum_f32(values: impl IntoIterator<Item = f32>) -> f32 {
    let mut acc = 0.0f32;
    for v in values {
        acc += v;
    }
    acc
}

/// Mean of a slice via [`sum_f32`]; `0.0` on an empty slice.
pub fn mean_f32(values: &[f32]) -> f32 {
    if values.is_empty() {
        return 0.0;
    }
    sum_f32(values.iter().copied()) / values.len() as f32
}

/// Order-pinned left-fold sum of an `f64` stream (see [`sum_f32`]).
pub fn sum_f64(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut acc = 0.0f64;
    for v in values {
        acc += v;
    }
    acc
}

/// Sum of squares of an `f32` slice, accumulated in `f64` so large
/// values do not overflow the partial sums (the ingress-guard RMS path).
pub fn sum_sq_f64(values: &[f32]) -> f64 {
    sum_f64(values.iter().map(|&v| (v as f64) * (v as f64)))
}

/// Fixed-size element blocks for the lane-parallel full-tensor sum; block
/// boundaries depend only on the length, never the thread count, so the
/// combined sum is bitwise thread-invariant.
const SUM_BLOCK: usize = 4096;

/// Blocked full-slice sum: fixed 4096-element blocks reduced with lane
/// partial sums, block results combined in ascending index order.
fn sum_blocked(xs: &[f32]) -> f32 {
    if xs.len() <= SUM_BLOCK {
        return blocked::sum_lanes(xs);
    }
    let blocks = xs.len().div_ceil(SUM_BLOCK);
    let partials = stsl_parallel::par_map_indexed(blocks, ChunkPolicy::min_chunk(4), |bi| {
        let start = bi * SUM_BLOCK;
        blocked::sum_lanes(&xs[start..(start + SUM_BLOCK).min(xs.len())])
    });
    blocked::sum_lanes(&partials)
}

impl Tensor {
    /// Sum of all elements.
    ///
    /// Reference backend: exact left-fold in element order. Blocked
    /// backend: fixed-order lane/block partial sums (ULP-bounded against
    /// the fold, bitwise thread-invariant).
    pub fn sum(&self) -> f32 {
        match Backend::active() {
            Backend::Reference => self.as_slice().iter().sum(),
            Backend::Blocked => sum_blocked(self.as_slice()),
        }
    }

    /// Mean of all elements.
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn mean(&self) -> f32 {
        assert!(!self.is_empty(), "mean of empty tensor");
        self.sum() / self.len() as f32
    }

    /// Maximum element.
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn max(&self) -> f32 {
        assert!(!self.is_empty(), "max of empty tensor");
        self.as_slice()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn min(&self) -> f32 {
        assert!(!self.is_empty(), "min of empty tensor");
        self.as_slice()
            .iter()
            .copied()
            .fold(f32::INFINITY, f32::min)
    }

    /// Sums along `axis`, removing that dimension.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= rank`.
    pub fn sum_axis(&self, axis: usize) -> Tensor {
        assert!(
            axis < self.rank(),
            "axis {} out of range for rank {}",
            axis,
            self.rank()
        );
        let out_shape = self.shape().remove_axis(axis);
        let mut out = Tensor::zeros(out_shape.clone());
        // Split the flat index into (outer, axis, inner) blocks.
        let dims = self.dims();
        let inner: usize = dims[axis + 1..].iter().product();
        let n_axis = dims[axis];
        let outer: usize = dims[..axis].iter().product();
        let src = self.as_slice();
        let dst = out.as_mut_slice();
        for o in 0..outer {
            for k in 0..n_axis {
                let base = (o * n_axis + k) * inner;
                let obase = o * inner;
                for i in 0..inner {
                    dst[obase + i] += src[base + i];
                }
            }
        }
        debug_assert_eq!(out.shape(), &out_shape);
        out
    }

    /// Means along `axis`, removing that dimension.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= rank` or the axis has extent 0.
    pub fn mean_axis(&self, axis: usize) -> Tensor {
        let n = self.dim(axis);
        assert!(n > 0, "mean over empty axis");
        let mut t = self.sum_axis(axis);
        t.scale_inplace(1.0 / n as f32);
        t
    }

    /// Index of the maximum element of a 1-d tensor.
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn argmax(&self) -> usize {
        assert!(!self.is_empty(), "argmax of empty tensor");
        self.as_slice()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .expect("non-empty")
    }

    /// Row-wise argmax of a rank-2 tensor `[n, c]` → `n` class indices.
    ///
    /// This is the prediction rule used for classification accuracy.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or has zero columns.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(
            self.rank(),
            2,
            "argmax_rows requires rank 2, got {}",
            self.shape()
        );
        let (n, c) = (self.dim(0), self.dim(1));
        assert!(c > 0, "argmax_rows requires at least one column");
        let data = self.as_slice();
        (0..n)
            .map(|r| {
                let row = &data[r * c..(r + 1) * c];
                let mut best = 0;
                for (j, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = j;
                    }
                }
                best
            })
            .collect()
    }

    /// Numerically stable softmax along the last axis of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn softmax_rows(&self) -> Tensor {
        assert_eq!(
            self.rank(),
            2,
            "softmax_rows requires rank 2, got {}",
            self.shape()
        );
        let (n, c) = (self.dim(0), self.dim(1));
        let src = self.as_slice();
        let mut out = vec![0.0f32; n * c];
        match Backend::active() {
            Backend::Reference => {
                for r in 0..n {
                    let row = &src[r * c..(r + 1) * c];
                    let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    let mut denom = 0.0;
                    for (j, &v) in row.iter().enumerate() {
                        let e = (v - m).exp();
                        out[r * c + j] = e;
                        denom += e;
                    }
                    for j in 0..c {
                        out[r * c + j] /= denom;
                    }
                }
            }
            Backend::Blocked => {
                // Row-parallel: each row is one independent unit, so any
                // band partition yields identical bits. The max and the
                // exponentials match the reference exactly (same scalar
                // fold, same `exp`); only the denominator's association
                // differs (lane partial sums), so outputs are ULP-bounded
                // against the reference.
                if n > 0 && c > 0 {
                    let policy = ChunkPolicy::min_chunk((SOFTMAX_GRAIN / c).max(1));
                    par_chunks_mut(&mut out, c, policy, |r0, band| {
                        for (ri, orow) in band.chunks_mut(c).enumerate() {
                            let row = &src[(r0 + ri) * c..(r0 + ri + 1) * c];
                            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                            for (o, &v) in orow.iter_mut().zip(row) {
                                *o = (v - m).exp();
                            }
                            let denom = blocked::sum_lanes(orow);
                            for o in orow.iter_mut() {
                                *o /= denom;
                            }
                        }
                    });
                }
            }
        }
        Tensor::from_vec(out, Shape::from([n, c]))
    }

    /// Numerically stable log-softmax along the last axis of a rank-2
    /// tensor. Used by the cross-entropy loss.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn log_softmax_rows(&self) -> Tensor {
        assert_eq!(
            self.rank(),
            2,
            "log_softmax_rows requires rank 2, got {}",
            self.shape()
        );
        let (n, c) = (self.dim(0), self.dim(1));
        let src = self.as_slice();
        let mut out = vec![0.0f32; n * c];
        match Backend::active() {
            Backend::Reference => {
                for r in 0..n {
                    let row = &src[r * c..(r + 1) * c];
                    let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    let log_denom: f32 = row.iter().map(|&v| (v - m).exp()).sum::<f32>().ln();
                    for j in 0..c {
                        out[r * c + j] = row[j] - m - log_denom;
                    }
                }
            }
            Backend::Blocked => {
                // Same structure as the blocked softmax: rows are
                // independent units, the denominator sum is lane-ordered.
                if n > 0 && c > 0 {
                    let policy = ChunkPolicy::min_chunk((SOFTMAX_GRAIN / c).max(1));
                    par_chunks_mut(&mut out, c, policy, |r0, band| {
                        for (ri, orow) in band.chunks_mut(c).enumerate() {
                            let row = &src[(r0 + ri) * c..(r0 + ri + 1) * c];
                            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                            for (o, &v) in orow.iter_mut().zip(row) {
                                *o = (v - m).exp();
                            }
                            let log_denom = blocked::sum_lanes(orow).ln();
                            for (o, &v) in orow.iter_mut().zip(row) {
                                *o = v - m - log_denom;
                            }
                        }
                    });
                }
            }
        }
        Tensor::from_vec(out, Shape::from([n, c]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_mean_max_min() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0, 4.0], [2, 2]);
        assert_eq!(t.sum(), 6.0);
        assert_eq!(t.mean(), 1.5);
        assert_eq!(t.max(), 4.0);
        assert_eq!(t.min(), -2.0);
    }

    #[test]
    fn sum_axis_0_and_1() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        assert_eq!(t.sum_axis(0).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(t.sum_axis(1).as_slice(), &[6.0, 15.0]);
    }

    #[test]
    fn sum_axis_middle_of_rank3() {
        let t = Tensor::from_vec((0..24).map(|i| i as f32).collect(), [2, 3, 4]);
        let s = t.sum_axis(1);
        assert_eq!(s.dims(), &[2, 4]);
        // element [0,0] = t[0,0,0]+t[0,1,0]+t[0,2,0] = 0+4+8
        assert_eq!(s.at(&[0, 0]), 12.0);
        assert_eq!(s.at(&[1, 3]), (15 + 19 + 23) as f32);
    }

    #[test]
    fn mean_axis_divides() {
        let t = Tensor::from_vec(vec![2.0, 4.0, 6.0, 8.0], [2, 2]);
        assert_eq!(t.mean_axis(0).as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn argmax_variants() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.5], [3]);
        assert_eq!(t.argmax(), 1);
        let m = Tensor::from_vec(vec![0.1, 0.9, 0.5, 0.8, 0.2, 0.1], [2, 3]);
        assert_eq!(m.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn argmax_first_wins_on_ties() {
        let m = Tensor::from_vec(vec![0.5, 0.5, 0.2], [1, 3]);
        assert_eq!(m.argmax_rows(), vec![0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0], [2, 3]);
        let s = t.softmax_rows();
        for r in 0..2 {
            let sum: f32 = (0..3).map(|c| s.at(&[r, c])).sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Large-logit row should be uniform, not NaN (stability check).
        assert!((s.at(&[1, 0]) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let t = Tensor::from_vec(vec![0.5, -1.0, 2.0], [1, 3]);
        let ls = t.log_softmax_rows();
        let s = t.softmax_rows();
        for c in 0..3 {
            assert!((ls.at(&[0, c]) - s.at(&[0, c]).ln()).abs() < 1e-5);
        }
    }
}
