//! 2-D convolution via im2col + GEMM, with full backward passes.
//!
//! Layout conventions (identical throughout the workspace):
//! * activations: `NCHW` — `[batch, channels, height, width]`
//! * conv weights: `[out_channels, in_channels, kh, kw]`
//! * conv bias: `[out_channels]`

use crate::ops::blocked::{self, Layout, MR, NR};
use crate::{Backend, Tensor, TensorError};
use std::ops::Range;
use stsl_parallel::{max_threads, par_chunks_mut, par_map_mut, ChunkPolicy};

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

/// The output positions along one axis whose input position
/// `o·stride + kernel_offset − pad` lands inside `0..size`.
fn valid_outputs(spec: ConvSpec, size: usize, out: usize, kernel_offset: usize) -> Range<usize> {
    let lo = spec.pad.saturating_sub(kernel_offset).div_ceil(spec.stride);
    let hi = if size + spec.pad > kernel_offset {
        ((size + spec.pad - kernel_offset - 1) / spec.stride + 1).min(out)
    } else {
        0
    };
    lo..hi.max(lo)
}

/// Writes the column entries of kernel offset `(ki, kj)` for output rows
/// `oi0..` of one input plane (`h×w`) into `dst` (`ow` entries a row): the
/// input pixel each output position reads, or zero where the window
/// hangs over the padding. Every entry of `dst` is written, so a reused
/// buffer needs no clearing.
#[allow(clippy::too_many_arguments)] // shape scalars of one row
fn unfold_row(
    plane: &[f32],
    (h, w): (usize, usize),
    (oh, ow): (usize, usize),
    spec: ConvSpec,
    (ki, kj): (usize, usize),
    oi0: usize,
    dst: &mut [f32],
) {
    let rows = valid_outputs(spec, h, oh, ki);
    let cols = valid_outputs(spec, w, ow, kj);
    for (oi, d) in (oi0..).zip(dst.chunks_exact_mut(ow)) {
        if !rows.contains(&oi) {
            d.fill(0.0);
            continue;
        }
        let src = &plane[(oi * spec.stride + ki - spec.pad) * w..][..w];
        d[..cols.start].fill(0.0);
        d[cols.end..].fill(0.0);
        if cols.is_empty() {
            continue;
        }
        let first = cols.start * spec.stride + kj - spec.pad;
        if spec.stride == 1 {
            d[cols.clone()].copy_from_slice(&src[first..first + cols.len()]);
        } else {
            for (t, oj) in cols.clone().enumerate() {
                d[oj] = src[first + t * spec.stride];
            }
        }
    }
}

/// Adds the `oh·ow` column entries `src` of kernel offset `(ki, kj)` onto
/// the input plane (`h×w`) they were read from. Each pixel receives at
/// most one entry per offset, so a caller that walks `(ci, ki, kj)` in
/// ascending order sums every pixel in `(ci, ki, kj, oi, oj)` order.
fn fold_row(
    src: &[f32],
    (h, w): (usize, usize),
    (oh, ow): (usize, usize),
    spec: ConvSpec,
    ki: usize,
    kj: usize,
    plane: &mut [f32],
) {
    let cols = valid_outputs(spec, w, ow, kj);
    if cols.is_empty() {
        return;
    }
    let first = cols.start * spec.stride + kj - spec.pad;
    for oi in valid_outputs(spec, h, oh, ki) {
        let dst = &mut plane[(oi * spec.stride + ki - spec.pad) * w..][..w];
        let s = &src[oi * ow + cols.start..oi * ow + cols.end];
        if spec.stride == 1 {
            for (d, &v) in dst[first..first + s.len()].iter_mut().zip(s) {
                *d += v;
            }
        } else {
            for (t, &v) in s.iter().enumerate() {
                dst[first + t * spec.stride] += v;
            }
        }
    }
}

/// Unfolds output rows `oi0..` of one sample (`[c, h, w]`) into the
/// `[c·kh·kw, width]` column matrix `dst` (`width` a whole number of
/// output rows), overwriting every entry.
fn unfold_sample(sample: &[f32], g: &Geom, oi0: usize, dst: &mut [f32]) {
    let spec = g.spec;
    let width = dst.len() / g.ckk;
    for (row, d) in dst.chunks_exact_mut(width).enumerate() {
        let ci = row / (spec.kh * spec.kw);
        let plane = &sample[ci * g.h * g.w..][..g.h * g.w];
        let kernel = (row / spec.kw % spec.kh, row % spec.kw);
        unfold_row(plane, (g.h, g.w), (g.oh, g.ow), spec, kernel, oi0, d);
    }
}

/// Folds one sample's column matrix back onto its `[c, h, w]` image
/// (which must start zeroed): row `r` of the matrix is
/// `src[r·ld + col0..][..oh·ow]`.
fn fold_sample(src: &[f32], ld: usize, col0: usize, g: &Geom, sample: &mut [f32]) {
    let (spec, hw, plane_len) = (g.spec, g.oh * g.ow, g.h * g.w);
    for (ci, plane) in sample.chunks_exact_mut(plane_len).enumerate() {
        for ki in 0..spec.kh {
            for kj in 0..spec.kw {
                let row = (ci * spec.kh + ki) * spec.kw + kj;
                let s = &src[row * ld + col0..][..hw];
                fold_row(s, (g.h, g.w), (g.oh, g.ow), spec, ki, kj, plane);
            }
        }
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
    let hw = oh * ow;
    let cols_n = n * hw;
    let mut cols = vec![0.0f32; ckk * cols_n];
    let src = input.as_slice();
    // Each output row of the column matrix belongs to one (ci, ki, kj)
    // triple and is written by exactly one thread. The batch axis is not
    // contiguous in this layout ([ckk, n*oh*ow]), so the parallel unit is
    // the kernel-position row rather than the batch sample; writes are
    // pure (no accumulation), so any partition yields identical bits.
    if !cols.is_empty() {
        let policy = ChunkPolicy::min_chunk((4096 / cols_n).max(1));
        par_chunks_mut(&mut cols, cols_n, policy, |row0, chunk| {
            for (ri, dst_row) in chunk.chunks_mut(cols_n).enumerate() {
                let row = row0 + ri;
                let ci = row / (spec.kh * spec.kw);
                let (ki, kj) = (row / spec.kw % spec.kh, row % spec.kw);
                for (ni, d) in dst_row.chunks_exact_mut(hw).enumerate() {
                    let plane = &src[(ni * c + ci) * h * w..][..h * w];
                    unfold_row(plane, (h, w), (oh, ow), spec, (ki, kj), 0, d);
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
    let g = Geom::new([n, c, h, w], 0, spec, (oh, ow));
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
                    fold_sample(src, cols_n, (ni0 + bi) * oh * ow, &g, sample);
                }
            },
        );
    }
    Tensor::from_vec(out, [n, c, h, w])
}

/// Minimum multiply-adds worth handing to a thread (the GEMM grain).
const PAR_GRAIN: usize = 1 << 14;

/// Columns one GEMM block aims for: eight `NR`-wide microtile strips. A
/// forward block is whole output rows of one sample, or whole samples
/// when a sample has fewer columns; an input-gradient block is always
/// whole samples (the fold sums each pixel across a whole sample). On the
/// paper CNN at batch 32, 64-column blocks ran faster and held less
/// scratch than blocks of 128 or 256, and 32 was no faster.
const BLOCK_COLS: usize = 8 * NR;

/// What a convolution layer keeps between calls so that a training step
/// allocates no batch-sized scratch: the columns a training forward saves
/// for its backward, a weight-sized gradient buffer, and one scratch
/// buffer per parallel job. Buffers only grow; a smaller batch reuses
/// them.
#[derive(Default)]
pub struct ConvWorkspace {
    /// Sample-major columns `[n, c·kh·kw, oh·ow]` of the last training
    /// forward: one per-sample im2col matrix after another.
    cols: Vec<f32>,
    /// Input dims `[n, c, h, w]` of the training forward whose columns
    /// `cols` holds; `None` once a backward has consumed them.
    saved: Option<[usize; 4]>,
    /// The weight gradient of one backward, transposed: `[c·kh·kw, oc]`.
    dwt: Vec<f32>,
    /// One scratch buffer per parallel job (packed panels, one block of
    /// output, columns or column gradients).
    jobs: Vec<Vec<f32>>,
}

impl std::fmt::Debug for ConvWorkspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConvWorkspace")
            .field("saved", &self.saved)
            .field("cols_len", &self.cols.len())
            .field("jobs", &self.jobs.len())
            .finish()
    }
}

impl ConvWorkspace {
    /// An empty workspace; buffers are sized by the first call.
    pub fn new() -> Self {
        ConvWorkspace::default()
    }

    /// Whether a training forward's columns await their backward.
    pub fn holds_forward(&self) -> bool {
        self.saved.is_some()
    }

    /// The sample-major columns `[n, c·kh·kw, oh·ow]` the last training
    /// forward kept (sample `s`'s im2col matrix at `s·c·kh·kw·oh·ow`).
    pub fn cols(&self) -> &[f32] {
        &self.cols
    }
}

/// Shapes of one convolution call.
#[derive(Clone, Copy)]
struct Geom {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    oc: usize,
    oh: usize,
    ow: usize,
    /// Output positions per sample (`oh·ow`).
    hw: usize,
    /// Column-matrix rows (`c·kh·kw`).
    ckk: usize,
    spec: ConvSpec,
}

impl Geom {
    fn new([n, c, h, w]: [usize; 4], oc: usize, spec: ConvSpec, (oh, ow): (usize, usize)) -> Self {
        Geom {
            n,
            c,
            h,
            w,
            oc,
            oh,
            ow,
            hw: oh * ow,
            ckk: c * spec.kh * spec.kw,
            spec,
        }
    }

    /// Samples per GEMM block: enough whole samples to fill
    /// [`BLOCK_COLS`] columns, so small feature maps still give the
    /// microkernel several strips. Any sample split leaves the forward and
    /// input-gradient sums alone; only the cache footprint depends on it.
    fn block_samples(&self) -> usize {
        BLOCK_COLS.div_ceil(self.hw).max(1)
    }

    /// Columns of one sample a forward block covers: whole output rows,
    /// about [`BLOCK_COLS`] of them, or the whole sample. Each output
    /// column's sum is independent of the others, so this split, too,
    /// changes no bit.
    fn forward_width(&self) -> usize {
        ((BLOCK_COLS / self.ow).max(1) * self.ow).min(self.hw)
    }

    /// Contiguous sample ranges, one per parallel job: a sample is the
    /// unit of work, and a job gets at least `PAR_GRAIN` multiply-adds.
    fn sample_ranges(&self) -> Vec<Range<usize>> {
        let per_sample = self.oc * self.ckk * self.hw;
        let grain = PAR_GRAIN.div_ceil(per_sample.max(1)).max(1);
        ChunkPolicy::min_chunk(grain).ranges(self.n, max_threads())
    }
}

/// One parallel job: a contiguous run of rows (samples, or rows of
/// `dWᵀ`) starting at `first`, the slices of them it owns, and its scratch.
struct Job<'a> {
    first: usize,
    out: &'a mut [f32],
    cols: &'a mut [f32],
    scratch: &'a mut Vec<f32>,
}

/// Pairs each range of rows with its chunk of `out` (`row_len` floats a
/// row), its chunk of `cols` (`cols_row` floats a row; 0 when the job
/// writes no columns) and one reusable scratch buffer.
fn split_jobs<'a>(
    ranges: &[Range<usize>],
    (out, row_len): (&'a mut [f32], usize),
    (cols, cols_row): (&'a mut [f32], usize),
    scratch: &'a mut Vec<Vec<f32>>,
) -> Vec<Job<'a>> {
    if scratch.len() < ranges.len() {
        scratch.resize_with(ranges.len(), Vec::new);
    }
    let (mut rest, mut cols_rest) = (out, cols);
    let mut bufs = scratch.iter_mut();
    ranges
        .iter()
        .map(|r| {
            let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(r.len() * row_len);
            rest = tail;
            let (cols, tail) = std::mem::take(&mut cols_rest).split_at_mut(r.len() * cols_row);
            cols_rest = tail;
            let scratch = bufs.next().expect("one scratch buffer per range");
            Job {
                first: r.start,
                out: chunk,
                cols,
                scratch,
            }
        })
        .collect()
}

/// Grows `buf` to at least `len` floats (never shrinks, never clears).
fn grow(buf: &mut Vec<f32>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// `c = A · B` for one block: `A` is the `m×k` weight operand (`w`
/// stored per `w_layout`), `B` is `k×n` held sample-major with rows of
/// `stride` floats (`Samples(stride)`, of which a block uses `width`
/// columns per sample: all of them, or one sample's leading `width`), and
/// `c` is row-major `m×n`. The association is the active backend's GEMM:
/// the reference kernel sums each element's `k` terms in ascending order
/// and skips zero weights; the blocked one sums `KC`-deep register
/// panels. Either way each column is independent of every other, so
/// splitting a batch into blocks changes no bit.
#[allow(clippy::too_many_arguments)] // BLAS-style shape scalars
fn block_product(
    w: &[f32],
    w_layout: Layout,
    b: &[f32],
    (stride, width): (usize, usize),
    c: &mut [f32],
    m: usize,
    k: usize,
    scratch: &mut [f32],
) {
    let n = c.len() / m;
    c.fill(0.0);
    match Backend::active() {
        Backend::Blocked => {
            let b_layout = Layout::Samples(stride);
            blocked::gemm_block(w, w_layout, b, b_layout, c, m, k, n, 0, scratch);
        }
        Backend::Reference => {
            for (i, crow) in c.chunks_exact_mut(n).enumerate() {
                for kk in 0..k {
                    let aik = w[w_layout.index(m, k, i, kk)];
                    if aik == 0.0 {
                        continue;
                    }
                    for (s, cs) in crow.chunks_exact_mut(width).enumerate() {
                        let brow = &b[(s * k + kk) * stride..][..width];
                        for (cv, &bv) in cs.iter_mut().zip(brow) {
                            *cv += aik * bv;
                        }
                    }
                }
            }
        }
    }
}

/// Convolution forward pass: `output = weight ⊛ input + bias`.
///
/// With `train` set, the columns the backward needs are kept in `ws`
/// (replacing any held before); otherwise `ws`'s saved columns are left
/// alone, so an evaluation may run between a training forward and its
/// [`conv2d_backward`]. The batch is split into contiguous runs of whole
/// samples, one per thread, each worked through in blocks of about 64
/// columns: unfold, multiply, and write bias-added NCHW output, all on
/// `ws`'s reused scratch.
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
    train: bool,
    ws: &mut ConvWorkspace,
) -> Result<Tensor, TensorError> {
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
    let g = Geom::new([n, c, h, w], oc, spec, (oh, ow));
    let mut out = vec![0.0f32; n * oc * g.hw];
    let ConvWorkspace {
        cols,
        saved,
        jobs: scratch,
        ..
    } = ws;
    let kept: (&mut [f32], usize) = if train {
        cols.resize(n * g.ckk * g.hw, 0.0);
        *saved = Some([n, c, h, w]);
        (cols, g.ckk * g.hw)
    } else {
        (&mut [], 0)
    };
    if !out.is_empty() {
        let ranges = g.sample_ranges();
        let mut jobs = split_jobs(&ranges, (&mut out, oc * g.hw), kept, scratch);
        let (x, wt, b) = (input.as_slice(), weight.as_slice(), bias.as_slice());
        par_map_mut(&mut jobs, ChunkPolicy::min_chunk(1), |_, job| {
            forward_job(job, &g, x, wt, b, train);
        });
    }
    Ok(Tensor::from_vec(out, [n, oc, oh, ow]))
}

/// One job's share of [`conv2d_forward`], block by block: `nb` whole
/// samples, or `width` columns (whole output rows) of one sample.
fn forward_job(job: &mut Job<'_>, g: &Geom, x: &[f32], w: &[f32], b: &[f32], train: bool) {
    let (ckk, hw, oc) = (g.ckk, g.hw, g.oc);
    let samples = job.out.len() / (oc * hw);
    let width = g.forward_width();
    let nb_max = if width < hw {
        1
    } else {
        g.block_samples().min(samples)
    };
    let bl = nb_max * width;
    let cols_len = if train { 0 } else { ckk * bl };
    grow(
        job.scratch,
        oc * bl + cols_len + blocked::gemm_block_scratch(oc, ckk, bl),
    );
    let (cblk, rest) = job.scratch.split_at_mut(oc * bl);
    let (colsblk, gemm) = rest.split_at_mut(cols_len);
    let chw = g.c * g.h * g.w;
    for first in (0..samples).step_by(nb_max) {
        let nb = nb_max.min(samples - first);
        let x = &x[(job.first + first) * chw..][..nb * chw];
        if train {
            // The whole samples once, where the backward will read them.
            let cols = &mut job.cols[first * ckk * hw..][..nb * ckk * hw];
            for (sample, dst) in x.chunks_exact(chw).zip(cols.chunks_exact_mut(ckk * hw)) {
                unfold_sample(sample, g, 0, dst);
            }
        }
        for p0 in (0..hw).step_by(width) {
            let wd = width.min(hw - p0);
            let (cols, stride): (&[f32], usize) = if train {
                (&job.cols[first * ckk * hw + p0..], hw)
            } else {
                let dst = &mut colsblk[..nb * ckk * wd];
                for (sample, d) in x.chunks_exact(chw).zip(dst.chunks_exact_mut(ckk * wd)) {
                    unfold_sample(sample, g, p0 / g.ow, d);
                }
                (dst, wd)
            };
            let cb = &mut cblk[..oc * nb * wd];
            block_product(w, Layout::Normal, cols, (stride, wd), cb, oc, ckk, gemm);
            // [oc, nb·wd] -> columns p0.. of nb × [oc, hw], adding the
            // bias after the sum.
            let dst = &mut job.out[first * oc * hw..][..nb * oc * hw];
            for (t, sample) in dst.chunks_exact_mut(oc * hw).enumerate() {
                for (o, d) in sample.chunks_exact_mut(hw).enumerate() {
                    let src = &cb[o * nb * wd + t * wd..][..wd];
                    for (dv, &sv) in d[p0..p0 + wd].iter_mut().zip(src) {
                        *dv = sv + b[o];
                    }
                }
            }
        }
    }
}

/// Convolution backward pass for the training forward `ws` holds.
///
/// `dout` is the gradient w.r.t. that forward's output
/// (`[n, oc, oh, ow]`). The weight and bias gradients are **added** to
/// `dweight` and `dbias`; the input gradient is computed and returned
/// only when `want_dinput` is set, so the first layer of a model can skip
/// its GEMM and fold.
///
/// Three phases, each one parallel region at most: the bias gradient sums
/// each output channel over the batch in order; the weight gradient
/// splits its `c·kh·kw` rows across threads, each walking the whole batch
/// in `KC`-column panels from column 0 (the blocked association, or the
/// reference kernel's single left fold); and the input gradient splits
/// the batch into runs of whole samples, forming and folding each
/// block's column gradients on reused scratch.
///
/// # Panics
///
/// Panics if no training forward preceded this call, or if shapes
/// disagree with it.
pub fn conv2d_backward(
    dout: &Tensor,
    weight: &Tensor,
    spec: ConvSpec,
    ws: &mut ConvWorkspace,
    dweight: &mut Tensor,
    dbias: &mut Tensor,
    want_dinput: bool,
) -> Option<Tensor> {
    let [n, c, h, w] = ws
        .saved
        .take()
        .expect("conv2d backward without cached forward");
    let oc = weight.dim(0);
    let (oh, ow) = spec.output_hw(h, w).expect("window fits");
    assert_eq!(dout.dims(), &[n, oc, oh, ow], "dout shape mismatch");
    assert_eq!(dweight.dims(), weight.dims(), "dweight shape mismatch");
    assert_eq!(dbias.dims(), &[oc], "dbias shape mismatch");
    let g = Geom::new([n, c, h, w], oc, spec, (oh, ow));
    let (hw, ckk) = (g.hw, g.ckk);
    let d = dout.as_slice();
    // db: each channel's left fold over (sample, position).
    for (o, db) in dbias.as_mut_slice().iter_mut().enumerate() {
        let sum: f32 = (0..n).flat_map(|s| &d[(s * oc + o) * hw..][..hw]).sum();
        *db += sum;
    }
    // dWᵀ [ckk, oc] = cols [ckk, l] · doutᵀ [l, oc], one band of rows per
    // thread. Transposed so that each thread packs the small dout panel
    // and only its own rows of the columns.
    let ConvWorkspace {
        cols,
        dwt,
        jobs: scratch,
        ..
    } = ws;
    dwt.clear();
    dwt.resize(ckk * oc, 0.0);
    let l = n * hw;
    if !dwt.is_empty() && l > 0 {
        let min_rows = (PAR_GRAIN / (l * oc)).max(1);
        let ranges = ChunkPolicy::tiles(min_rows.max(MR), MR).ranges(ckk, max_threads());
        let mut bands = split_jobs(&ranges, (dwt, oc), (&mut [], 0), scratch);
        let x = cols.as_slice();
        par_map_mut(&mut bands, ChunkPolicy::min_chunk(1), |_, band| {
            weight_grad_band(band, &g, d, x);
        });
    }
    let dw = dweight.as_mut_slice();
    for (ci, row) in dwt.chunks_exact(oc).enumerate() {
        for (o, &v) in row.iter().enumerate() {
            dw[o * ckk + ci] += v;
        }
    }
    if !want_dinput {
        return None;
    }
    let chw = c * h * w;
    let mut dinput = vec![0.0f32; n * chw];
    if !dinput.is_empty() {
        let ranges = g.sample_ranges();
        let mut jobs = split_jobs(&ranges, (&mut dinput, chw), (&mut [], 0), scratch);
        let wt = weight.as_slice();
        par_map_mut(&mut jobs, ChunkPolicy::min_chunk(1), |_, job| {
            input_grad_job(job, &g, d, wt);
        });
    }
    Some(Tensor::from_vec(dinput, [n, c, h, w]))
}

/// Rows `first..` of `dWᵀ` (`job.out`, `oc` columns each) over the whole
/// batch. The blocked GEMM walks `KC`-column panels from column 0, as it
/// does when `B` is packed whole; the reference fold multiplies
/// `dout · cols` in ascending column order, as `gemm_a_bt` does.
fn weight_grad_band(job: &mut Job<'_>, g: &Geom, dout: &[f32], cols: &[f32]) {
    let (oc, hw, ckk) = (g.oc, g.hw, g.ckk);
    let l = g.n * hw;
    match Backend::active() {
        Backend::Blocked => {
            let rows = job.out.len() / oc;
            grow(job.scratch, blocked::gemm_block_scratch(rows, l, oc));
            blocked::gemm_block(
                cols,
                Layout::Samples(hw),
                dout,
                Layout::SamplesT(hw),
                job.out,
                ckk,
                l,
                oc,
                job.first,
                job.scratch,
            );
        }
        Backend::Reference => {
            for (r, crow) in job.out.chunks_exact_mut(oc).enumerate() {
                let ci = job.first + r;
                for (o, cv) in crow.iter_mut().enumerate() {
                    let mut acc = 0.0f32;
                    for s in 0..g.n {
                        let dv = &dout[(s * oc + o) * hw..][..hw];
                        let xv = &cols[(s * ckk + ci) * hw..][..hw];
                        for (&a, &b) in dv.iter().zip(xv) {
                            acc += a * b;
                        }
                    }
                    *cv = acc;
                }
            }
        }
    }
}

/// One job's share of the input gradient: per block of whole samples,
/// the column gradients `Wᵀ · dout` into scratch, folded onto each
/// sample's zeroed image.
fn input_grad_job(job: &mut Job<'_>, g: &Geom, dout: &[f32], w: &[f32]) {
    let (ckk, hw, oc) = (g.ckk, g.hw, g.oc);
    let chw = g.c * g.h * g.w;
    let samples = job.out.len() / chw;
    let nb_max = g.block_samples().min(samples);
    let bl = nb_max * hw;
    grow(
        job.scratch,
        ckk * bl + blocked::gemm_block_scratch(ckk, oc, bl),
    );
    let (dcols, gemm) = job.scratch.split_at_mut(ckk * bl);
    for first in (0..samples).step_by(nb_max) {
        let nb = nb_max.min(samples - first);
        let dblk = &dout[(job.first + first) * oc * hw..][..nb * oc * hw];
        let dc = &mut dcols[..ckk * nb * hw];
        block_product(w, Layout::Trans, dblk, (hw, hw), dc, ckk, oc, gemm);
        let dst = &mut job.out[first * chw..][..nb * chw];
        for (t, sample) in dst.chunks_exact_mut(chw).enumerate() {
            fold_sample(dc, nb * hw, t * hw, g, sample);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::rng_from_seed;

    /// Forward (train) then backward on a fresh workspace: output, kept
    /// columns, dX, dW, db.
    fn fwd_bwd(
        x: &Tensor,
        w: &Tensor,
        b: &Tensor,
        dout: &Tensor,
        spec: ConvSpec,
    ) -> (Tensor, Vec<f32>, Tensor, Tensor, Tensor) {
        let mut ws = ConvWorkspace::new();
        let out = conv2d_forward(x, w, b, spec, true, &mut ws).unwrap();
        let cols = ws.cols().to_vec();
        let mut dw = Tensor::zeros(w.shape().clone());
        let mut db = Tensor::zeros(b.shape().clone());
        let dx = conv2d_backward(dout, w, spec, &mut ws, &mut dw, &mut db, true).unwrap();
        (out, cols, dx, dw, db)
    }

    fn forward(x: &Tensor, w: &Tensor, b: &Tensor, spec: ConvSpec) -> Tensor {
        conv2d_forward(x, w, b, spec, false, &mut ConvWorkspace::new()).unwrap()
    }

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
        let fast = forward(&x, &w, &b, spec);
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
        let fast = forward(&x, &w, &b, spec);
        let slow = naive_conv(&x, &w, &b, spec);
        assert_eq!(fast.dims(), &[1, 3, 4, 4]);
        assert!(fast.allclose(&slow, 1e-4));
    }

    #[test]
    fn forward_rejects_mismatched_weight() {
        let x = Tensor::zeros([1, 3, 8, 8]);
        let w = Tensor::zeros([4, 2, 3, 3]); // wrong in_channels
        let b = Tensor::zeros([4]);
        let mut ws = ConvWorkspace::new();
        assert!(conv2d_forward(&x, &w, &b, ConvSpec::same(3), true, &mut ws).is_err());
        assert!(!ws.holds_forward(), "a rejected forward keeps nothing");
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
        let run = || fwd_bwd(&x, &w, &b, &dout, spec);
        let (so, sc, sx, sw, sb) = with_threads(1, run);
        for threads in [2usize, 4] {
            let (po, pc, px, pw, pb) = with_threads(threads, run);
            assert_eq!(so, po, "forward output drifted at {} threads", threads);
            assert_eq!(sc, pc, "im2col drifted at {} threads", threads);
            assert_eq!(sx, px, "dinput drifted at {} threads", threads);
            assert_eq!(sw, pw, "dweight drifted at {} threads", threads);
            assert_eq!(sb, pb, "dbias drifted at {} threads", threads);
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
        let (_, _, dinput, dweight, dbias) = fwd_bwd(&x, &w, &b, &m, spec);

        let loss = |x: &Tensor, w: &Tensor, b: &Tensor| -> f32 {
            let o = forward(x, w, b, spec);
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
            let ana = dinput.as_slice()[i];
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
            let ana = dweight.as_slice()[i];
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
            let ana = dbias.as_slice()[i];
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
