//! 2-D convolution via im2col + GEMM, with full backward passes.
//!
//! Layout conventions (identical throughout the workspace):
//! * activations: `NCHW` — `[batch, channels, height, width]`
//! * conv weights: `[out_channels, in_channels, kh, kw]`
//! * conv bias: `[out_channels]`

use crate::ops::matmul::{gemm, gemm_a_bt, gemm_at_b};
use crate::{Tensor, TensorError};
use stsl_parallel::{par_chunks_mut, ChunkPolicy};

/// Geometry of a convolution or pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvSpec {
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Vertical and horizontal stride.
    pub stride: usize,
    /// Symmetric zero padding applied to each edge.
    pub pad: usize,
}

impl ConvSpec {
    /// A square kernel with stride 1 and "same" padding (output size equals
    /// input size for odd `k`). This is the Keras `padding="same"` setting
    /// the paper's CNN uses.
    pub fn same(k: usize) -> Self {
        ConvSpec {
            kh: k,
            kw: k,
            stride: 1,
            pad: k / 2,
        }
    }

    /// A square kernel with stride 1 and no padding (Keras `"valid"`).
    pub fn valid(k: usize) -> Self {
        ConvSpec {
            kh: k,
            kw: k,
            stride: 1,
            pad: 0,
        }
    }

    /// Output spatial size for an input of `(h, w)`.
    ///
    /// Returns `None` if the window does not fit even once.
    pub fn output_hw(&self, h: usize, w: usize) -> Option<(usize, usize)> {
        let eh = h + 2 * self.pad;
        let ew = w + 2 * self.pad;
        if eh < self.kh || ew < self.kw || self.stride == 0 {
            return None;
        }
        Some((
            (eh - self.kh) / self.stride + 1,
            (ew - self.kw) / self.stride + 1,
        ))
    }
}

/// Unfolds `input` (`[n, c, h, w]`) into a column matrix of shape
/// `[c*kh*kw, n*oh*ow]` where each column is one receptive field.
///
/// # Panics
///
/// Panics if the input is not rank 4 or the window does not fit.
pub fn im2col(input: &Tensor, spec: ConvSpec) -> Tensor {
    assert_eq!(
        input.rank(),
        4,
        "im2col requires NCHW input, got {}",
        input.shape()
    );
    let (n, c, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    let (oh, ow) = spec
        .output_hw(h, w)
        .expect("convolution window does not fit input");
    let ckk = c * spec.kh * spec.kw;
    let cols_n = n * oh * ow;
    let mut cols = vec![0.0f32; ckk * cols_n];
    let src = input.as_slice();
    // Each output row of the column matrix belongs to one (ci, ki, kj)
    // triple and is written by exactly one thread. The batch axis is not
    // contiguous in this layout ([ckk, n*oh*ow]), so the parallel unit is
    // the kernel-position row rather than the batch sample; writes are
    // pure (no accumulation), so any partition yields identical bits.
    if !cols.is_empty() {
        let policy = ChunkPolicy::min_chunk((4096 / cols_n.max(1)).max(1));
        par_chunks_mut(&mut cols, cols_n, policy, |row0, chunk| {
            for (ri, dst_row) in chunk.chunks_mut(cols_n).enumerate() {
                let row = row0 + ri;
                let ci = row / (spec.kh * spec.kw);
                let ki = row / spec.kw % spec.kh;
                let kj = row % spec.kw;
                for ni in 0..n {
                    let plane = &src[(ni * c + ci) * h * w..(ni * c + ci + 1) * h * w];
                    for oi in 0..oh {
                        let iy = (oi * spec.stride + ki) as isize - spec.pad as isize;
                        let dst_base = (ni * oh + oi) * ow;
                        if iy < 0 || iy >= h as isize {
                            continue; // stays zero (padding)
                        }
                        let src_base = iy as usize * w;
                        for oj in 0..ow {
                            let ix = (oj * spec.stride + kj) as isize - spec.pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            dst_row[dst_base + oj] = plane[src_base + ix as usize];
                        }
                    }
                }
            }
        });
    }
    Tensor::from_vec(cols, [ckk, cols_n])
}

/// Folds a column matrix back into an `[n, c, h, w]` image, accumulating
/// overlapping windows. Exact adjoint of [`im2col`].
///
/// # Panics
///
/// Panics if `cols` does not have shape `[c*kh*kw, n*oh*ow]`.
pub fn col2im(cols: &Tensor, n: usize, c: usize, h: usize, w: usize, spec: ConvSpec) -> Tensor {
    let (oh, ow) = spec
        .output_hw(h, w)
        .expect("convolution window does not fit input");
    let ckk = c * spec.kh * spec.kw;
    let cols_n = n * oh * ow;
    assert_eq!(cols.dims(), &[ckk, cols_n], "col2im shape mismatch");
    let src = cols.as_slice();
    let mut out = vec![0.0f32; n * c * h * w];
    // Batch-parallel: each thread folds a contiguous band of samples. A
    // sample's plane receives its overlapping-window sums in (ci, ki, kj,
    // oi, oj) ascending order — the same per-element order as a serial
    // sweep — so the accumulated floats are bitwise partition-invariant.
    if !out.is_empty() {
        par_chunks_mut(
            &mut out,
            c * h * w,
            ChunkPolicy::min_chunk(1),
            |ni0, band| {
                for (bi, sample) in band.chunks_mut(c * h * w).enumerate() {
                    let ni = ni0 + bi;
                    for ci in 0..c {
                        let plane = &mut sample[ci * h * w..(ci + 1) * h * w];
                        for ki in 0..spec.kh {
                            for kj in 0..spec.kw {
                                let row = (ci * spec.kh + ki) * spec.kw + kj;
                                let src_row = &src[row * cols_n..(row + 1) * cols_n];
                                for oi in 0..oh {
                                    let iy = (oi * spec.stride + ki) as isize - spec.pad as isize;
                                    if iy < 0 || iy >= h as isize {
                                        continue;
                                    }
                                    let src_base = (ni * oh + oi) * ow;
                                    let dst_base = iy as usize * w;
                                    for oj in 0..ow {
                                        let ix =
                                            (oj * spec.stride + kj) as isize - spec.pad as isize;
                                        if ix < 0 || ix >= w as isize {
                                            continue;
                                        }
                                        plane[dst_base + ix as usize] += src_row[src_base + oj];
                                    }
                                }
                            }
                        }
                    }
                }
            },
        );
    }
    Tensor::from_vec(out, [n, c, h, w])
}

/// Result of a convolution forward pass, retaining what backward needs.
#[derive(Debug, Clone)]
pub struct Conv2dForward {
    /// The output activations, `[n, out_c, oh, ow]`.
    pub output: Tensor,
    /// The unfolded input columns (kept for the weight gradient).
    pub cols: Tensor,
}

/// Gradients produced by [`conv2d_backward`].
#[derive(Debug, Clone)]
pub struct Conv2dGrads {
    /// Gradient w.r.t. the input, `[n, in_c, h, w]`.
    pub dinput: Tensor,
    /// Gradient w.r.t. the weights, `[out_c, in_c, kh, kw]`.
    pub dweight: Tensor,
    /// Gradient w.r.t. the bias, `[out_c]`.
    pub dbias: Tensor,
}

/// Convolution forward pass: `output = weight ⊛ input + bias`.
///
/// # Errors
///
/// Returns [`TensorError::IncompatibleShapes`] if operand shapes disagree
/// with the spec.
pub fn conv2d_forward(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    spec: ConvSpec,
) -> Result<Conv2dForward, TensorError> {
    if input.rank() != 4 || weight.rank() != 4 {
        return Err(TensorError::IncompatibleShapes {
            reason: format!(
                "conv2d expects NCHW input and OIHW weight, got {} and {}",
                input.shape(),
                weight.shape()
            ),
        });
    }
    let (n, c, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    let (oc, ic, kh, kw) = (weight.dim(0), weight.dim(1), weight.dim(2), weight.dim(3));
    if ic != c || kh != spec.kh || kw != spec.kw {
        return Err(TensorError::IncompatibleShapes {
            reason: format!(
                "weight {} incompatible with input {} under {:?}",
                weight.shape(),
                input.shape(),
                spec
            ),
        });
    }
    if bias.dims() != [oc] {
        return Err(TensorError::IncompatibleShapes {
            reason: format!("bias {} must be [{}]", bias.shape(), oc),
        });
    }
    let (oh, ow) = spec
        .output_hw(h, w)
        .ok_or_else(|| TensorError::IncompatibleShapes {
            reason: format!("window {:?} does not fit input {}", spec, input.shape()),
        })?;
    let cols = im2col(input, spec);
    let ckk = c * kh * kw;
    let l = n * oh * ow;
    // [oc, ckk] · [ckk, l] -> [oc, l]
    let flat = gemm(weight.as_slice(), cols.as_slice(), oc, ckk, l);
    // Reorder [oc, (n, oh, ow)] -> [n, oc, oh, ow] and add bias, one batch
    // sample per parallel unit (pure writes, partition-invariant).
    let mut out = vec![0.0f32; n * oc * oh * ow];
    let bias_s = bias.as_slice();
    let hw = oh * ow;
    if !out.is_empty() {
        par_chunks_mut(&mut out, oc * hw, ChunkPolicy::min_chunk(1), |ni0, band| {
            for (bi, sample) in band.chunks_mut(oc * hw).enumerate() {
                let ni = ni0 + bi;
                for o in 0..oc {
                    let b = bias_s[o];
                    let src = &flat[o * l + ni * hw..o * l + (ni + 1) * hw];
                    let dst = &mut sample[o * hw..(o + 1) * hw];
                    for (d, &s) in dst.iter_mut().zip(src) {
                        *d = s + b;
                    }
                }
            }
        });
    }
    Ok(Conv2dForward {
        output: Tensor::from_vec(out, [n, oc, oh, ow]),
        cols,
    })
}

/// Convolution backward pass.
///
/// `dout` is the gradient w.r.t. the forward output (`[n, oc, oh, ow]`);
/// `cols` is the column matrix saved by [`conv2d_forward`].
///
/// # Panics
///
/// Panics if shapes disagree with the forward pass.
pub fn conv2d_backward(
    dout: &Tensor,
    cols: &Tensor,
    weight: &Tensor,
    input_dims: (usize, usize, usize, usize),
    spec: ConvSpec,
) -> Conv2dGrads {
    let (n, c, h, w) = input_dims;
    let (oc, _ic, kh, kw) = (weight.dim(0), weight.dim(1), weight.dim(2), weight.dim(3));
    let (oh, ow) = spec.output_hw(h, w).expect("window fits");
    assert_eq!(dout.dims(), &[n, oc, oh, ow], "dout shape mismatch");
    let hw = oh * ow;
    let l = n * hw;
    let ckk = c * kh * kw;
    // Reorder dout [n, oc, oh, ow] -> [oc, l] matching the forward layout;
    // one output-channel row per parallel unit (pure copies).
    let mut dflat = vec![0.0f32; oc * l];
    let ds = dout.as_slice();
    if !dflat.is_empty() {
        par_chunks_mut(&mut dflat, l, ChunkPolicy::min_chunk(1), |o0, band| {
            for (bi, dst_row) in band.chunks_mut(l).enumerate() {
                let o = o0 + bi;
                for ni in 0..n {
                    let src = &ds[(ni * oc + o) * hw..(ni * oc + o + 1) * hw];
                    dst_row[ni * hw..(ni + 1) * hw].copy_from_slice(src);
                }
            }
        });
    }
    // dW = dflat [oc, l] · colsᵀ [l, ckk] -> [oc, ckk]
    let dw = gemm_a_bt(&dflat, cols.as_slice(), oc, l, ckk);
    // db = row sums of dflat.
    let mut db = vec![0.0f32; oc];
    for o in 0..oc {
        db[o] = dflat[o * l..(o + 1) * l].iter().sum();
    }
    // dcols = Wᵀ [ckk, oc] · dflat [oc, l] -> [ckk, l]
    let dcols = gemm_at_b(weight.as_slice(), &dflat, ckk, oc, l);
    let dinput = col2im(&Tensor::from_vec(dcols, [ckk, l]), n, c, h, w, spec);
    Conv2dGrads {
        dinput,
        dweight: Tensor::from_vec(dw, [oc, c, kh, kw]),
        dbias: Tensor::from_vec(db, [oc]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::rng_from_seed;

    fn naive_conv(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: ConvSpec) -> Tensor {
        let (n, c, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
        let oc = weight.dim(0);
        let (oh, ow) = spec.output_hw(h, w).unwrap();
        Tensor::from_fn([n, oc, oh, ow], |idx| {
            let (ni, o, oi, oj) = (idx[0], idx[1], idx[2], idx[3]);
            let mut acc = bias.at(&[o]);
            for ci in 0..c {
                for ki in 0..spec.kh {
                    for kj in 0..spec.kw {
                        let iy = (oi * spec.stride + ki) as isize - spec.pad as isize;
                        let ix = (oj * spec.stride + kj) as isize - spec.pad as isize;
                        if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                            continue;
                        }
                        acc += input.at(&[ni, ci, iy as usize, ix as usize])
                            * weight.at(&[o, ci, ki, kj]);
                    }
                }
            }
            acc
        })
    }

    #[test]
    fn spec_same_preserves_spatial_size() {
        let spec = ConvSpec::same(3);
        assert_eq!(spec.output_hw(32, 32), Some((32, 32)));
        assert_eq!(spec.output_hw(5, 7), Some((5, 7)));
    }

    #[test]
    fn spec_valid_shrinks() {
        assert_eq!(ConvSpec::valid(3).output_hw(5, 5), Some((3, 3)));
        assert_eq!(ConvSpec::valid(3).output_hw(2, 2), None);
    }

    #[test]
    fn spec_strided() {
        let spec = ConvSpec {
            kh: 2,
            kw: 2,
            stride: 2,
            pad: 0,
        };
        assert_eq!(spec.output_hw(8, 8), Some((4, 4)));
        assert_eq!(spec.output_hw(7, 7), Some((3, 3)));
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1: columns are just the flattened pixels.
        let input = Tensor::from_vec((0..8).map(|i| i as f32).collect(), [2, 1, 2, 2]);
        let cols = im2col(
            &input,
            ConvSpec {
                kh: 1,
                kw: 1,
                stride: 1,
                pad: 0,
            },
        );
        assert_eq!(cols.dims(), &[1, 8]);
        assert_eq!(cols.as_slice(), input.as_slice());
    }

    #[test]
    fn im2col_col2im_adjoint_property() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property that makes the backward pass correct.
        let mut rng = rng_from_seed(11);
        let spec = ConvSpec::same(3);
        let x = Tensor::randn([2, 3, 5, 5], &mut rng);
        let cx = im2col(&x, spec);
        let y = Tensor::randn(cx.dims().to_vec(), &mut rng);
        let lhs: f32 = cx
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let folded = col2im(&y, 2, 3, 5, 5, spec);
        let rhs: f32 = x
            .as_slice()
            .iter()
            .zip(folded.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0));
    }

    #[test]
    fn forward_matches_naive_same_padding() {
        let mut rng = rng_from_seed(3);
        let spec = ConvSpec::same(3);
        let x = Tensor::randn([2, 3, 6, 6], &mut rng);
        let w = Tensor::randn([4, 3, 3, 3], &mut rng);
        let b = Tensor::randn([4], &mut rng);
        let fast = conv2d_forward(&x, &w, &b, spec).unwrap().output;
        let slow = naive_conv(&x, &w, &b, spec);
        assert!(fast.allclose(&slow, 1e-4));
    }

    #[test]
    fn forward_matches_naive_valid_strided() {
        let mut rng = rng_from_seed(5);
        let spec = ConvSpec {
            kh: 3,
            kw: 3,
            stride: 2,
            pad: 0,
        };
        let x = Tensor::randn([1, 2, 9, 9], &mut rng);
        let w = Tensor::randn([3, 2, 3, 3], &mut rng);
        let b = Tensor::zeros([3]);
        let fast = conv2d_forward(&x, &w, &b, spec).unwrap().output;
        let slow = naive_conv(&x, &w, &b, spec);
        assert_eq!(fast.dims(), &[1, 3, 4, 4]);
        assert!(fast.allclose(&slow, 1e-4));
    }

    #[test]
    fn forward_rejects_mismatched_weight() {
        let x = Tensor::zeros([1, 3, 8, 8]);
        let w = Tensor::zeros([4, 2, 3, 3]); // wrong in_channels
        let b = Tensor::zeros([4]);
        assert!(conv2d_forward(&x, &w, &b, ConvSpec::same(3)).is_err());
    }

    #[test]
    fn conv_pipeline_bitwise_identical_across_thread_counts() {
        use stsl_parallel::with_threads;
        let mut rng = rng_from_seed(23);
        let spec = ConvSpec::same(3);
        let x = Tensor::randn([5, 3, 7, 7], &mut rng);
        let w = Tensor::randn([4, 3, 3, 3], &mut rng);
        let b = Tensor::randn([4], &mut rng);
        let dout = Tensor::randn([5, 4, 7, 7], &mut rng);
        let run = || {
            let fwd = conv2d_forward(&x, &w, &b, spec).unwrap();
            let grads = conv2d_backward(&dout, &fwd.cols, &w, (5, 3, 7, 7), spec);
            (fwd.output, fwd.cols, grads)
        };
        let (so, sc, sg) = with_threads(1, run);
        for threads in [2usize, 4] {
            let (po, pc, pg) = with_threads(threads, run);
            assert_eq!(so, po, "forward output drifted at {} threads", threads);
            assert_eq!(sc, pc, "im2col drifted at {} threads", threads);
            assert_eq!(
                sg.dinput, pg.dinput,
                "dinput drifted at {} threads",
                threads
            );
            assert_eq!(
                sg.dweight, pg.dweight,
                "dweight drifted at {} threads",
                threads
            );
            assert_eq!(sg.dbias, pg.dbias, "dbias drifted at {} threads", threads);
        }
    }

    #[test]
    fn backward_gradients_match_finite_differences() {
        let mut rng = rng_from_seed(17);
        let spec = ConvSpec::same(3);
        let x = Tensor::randn([1, 2, 4, 4], &mut rng);
        let w = Tensor::randn([2, 2, 3, 3], &mut rng);
        let b = Tensor::randn([2], &mut rng);
        // Loss = sum(output * m) for a fixed random m, so dLoss/doutput = m.
        let m = Tensor::randn([1, 2, 4, 4], &mut rng);
        let fwd = conv2d_forward(&x, &w, &b, spec).unwrap();
        let grads = conv2d_backward(&m, &fwd.cols, &w, (1, 2, 4, 4), spec);

        let loss = |x: &Tensor, w: &Tensor, b: &Tensor| -> f32 {
            let o = conv2d_forward(x, w, b, spec).unwrap().output;
            o.as_slice()
                .iter()
                .zip(m.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        let eps = 1e-2f32;
        // Check a scattering of coordinates in each gradient.
        for probe in 0..6 {
            let i = probe * 5 % x.len();
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let num = (loss(&xp, &w, &b) - loss(&xm, &w, &b)) / (2.0 * eps);
            let ana = grads.dinput.as_slice()[i];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + ana.abs()),
                "dx[{}]: {} vs {}",
                i,
                num,
                ana
            );
        }
        for probe in 0..6 {
            let i = probe * 7 % w.len();
            let mut wp = w.clone();
            wp.as_mut_slice()[i] += eps;
            let mut wm = w.clone();
            wm.as_mut_slice()[i] -= eps;
            let num = (loss(&x, &wp, &b) - loss(&x, &wm, &b)) / (2.0 * eps);
            let ana = grads.dweight.as_slice()[i];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + ana.abs()),
                "dw[{}]: {} vs {}",
                i,
                num,
                ana
            );
        }
        for i in 0..b.len() {
            let mut bp = b.clone();
            bp.as_mut_slice()[i] += eps;
            let mut bm = b.clone();
            bm.as_mut_slice()[i] -= eps;
            let num = (loss(&x, &w, &bp) - loss(&x, &w, &bm)) / (2.0 * eps);
            let ana = grads.dbias.as_slice()[i];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + ana.abs()),
                "db[{}]: {} vs {}",
                i,
                num,
                ana
            );
        }
    }
}
