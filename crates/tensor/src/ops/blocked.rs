//! Cache-blocked packed GEMM microkernels — the [`Backend::Blocked`]
//! implementation of the matmul family and of the convolution's GEMMs.
//!
//! The layout follows the classic BLIS/GotoBLAS decomposition, reduced to
//! what safe Rust auto-vectorizes well:
//!
//! * `B` is packed into `NR`-wide column strips, k-major inside each
//!   strip, zero-padded on the ragged edge. Each microkernel iteration
//!   then reads one contiguous `NR`-float row. [`gemm_core`] packs all of
//!   `B` once per call; [`gemm_block`] packs one `KC`-deep panel at a time
//!   into caller-owned scratch.
//! * `A` is packed per `MC×KC` block into `MR`-tall row strips, k-major,
//!   so the microkernel reads one contiguous `MR`-float column per step.
//! * The microkernel keeps an `MR×NR` accumulator array in registers and
//!   walks `k` ascending; LLVM turns the fixed-bound inner loops into
//!   plain SIMD mul/add chains (no fast-math, no intrinsics, no unsafe).
//!   The workspace builds for x86-64-v3 (`.cargo/config.toml`), so each
//!   accumulator row is one 8-lane AVX2 register fed by a broadcast, a
//!   multiply and an add; a portable build uses two SSE registers.
//!
//! # Determinism
//!
//! Work is partitioned over **microtile-aligned bands** of output rows
//! ([`stsl_parallel::ChunkPolicy::tiles`]), and each output element
//! accumulates its `k` terms in ascending order within each `KC` panel,
//! with panels starting at multiples of `KC` and applied in ascending
//! order — a fixed association that does not depend on where band,
//! block or column boundaries fall, or on whether `B` was packed whole or
//! panel by panel. Results are therefore bitwise identical for every
//! `STSL_THREADS` value. They are also identical at every vector width:
//! each lane is rounded as the scalar operation would round it, and Rust
//! never fuses `a*b + c` into an FMA. The tests below spell this order
//! out in scalar loops and compare bit for bit.
//!
//! Relative to the scalar reference backend the association *does*
//! differ (panel partial sums are accumulated in registers before being
//! added to `C`, and `alpha` is applied to the panel sum rather than to
//! each term), so blocked results are ULP-bounded against the reference,
//! not bitwise equal. `tests/kernel_conformance.rs` asserts the bound.

use stsl_parallel::{par_chunks_mut, ChunkPolicy};

/// Rows per microtile (the microkernel's register-block height).
pub(crate) const MR: usize = 4;
/// Columns per microtile: one AVX2 vector at the x86-64-v3 baseline, two
/// SSE vectors in a portable build (the accumulator is MR×NR).
pub(crate) const NR: usize = 8;
/// k-panel depth: one packed A strip of `MR * KC` floats is 4 KiB.
const KC: usize = 256;
/// Row-block height per A pack (MC×KC floats = 64 KiB, L2-resident).
const MC: usize = 64;
/// Minimum multiply-adds worth handing to a thread (matches the
/// reference path's grain so small problems stay on the caller).
const PAR_GRAIN: usize = 1 << 14;

/// How one logical GEMM operand is stored.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Layout {
    /// Row-major as written: logical `(r, c)` at `data[r * cols + c]`.
    Normal,
    /// Transposed storage: logical `(r, c)` at `data[c * rows + r]`.
    Trans,
    /// Columns grouped by sample: a logical `[rows, s·hw]` matrix held as
    /// `s` row-major `[rows, hw]` matrices back to back, the way an NCHW
    /// tensor holds `[channels, n·h·w]`. Logical `(r, c)` is at
    /// `data[(c / hw)·rows·hw + r·hw + c % hw]`.
    Samples(usize),
    /// The transpose of a [`Layout::Samples`] store: logical `(r, c)` is
    /// element `(c, r)` of a `[cols, s·hw]` `Samples` matrix, at
    /// `data[(r / hw)·cols·hw + c·hw + r % hw]`.
    SamplesT(usize),
}

impl Layout {
    /// Storage index of logical `(r, c)` in a `rows × cols` operand.
    #[inline]
    pub(crate) fn index(self, rows: usize, cols: usize, r: usize, c: usize) -> usize {
        match self {
            Layout::Normal => r * cols + c,
            Layout::Trans => c * rows + r,
            Layout::Samples(hw) => (c / hw) * rows * hw + r * hw + c % hw,
            Layout::SamplesT(hw) => (r / hw) * cols * hw + c * hw + r % hw,
        }
    }
}

/// Splits positions `start..start + len` of a sample-major axis (`hw`
/// positions per sample) into runs that stay inside one sample. Yields
/// `(offset from start, sample, position in sample, run length)`.
fn sample_runs(
    start: usize,
    len: usize,
    hw: usize,
) -> impl Iterator<Item = (usize, usize, usize, usize)> {
    let mut off = 0;
    std::iter::from_fn(move || {
        if off >= len {
            return None;
        }
        let pos = start + off;
        let (s, p) = (pos / hw, pos % hw);
        let run = (hw - p).min(len - off);
        let item = (off, s, p, run);
        off += run;
        Some(item)
    })
}

/// Packs k-panel `k0..k0+kc` of columns `js·NR..` of logical `B` (`k×n`)
/// into one `NR`-wide strip, k-major: `strip[kk·NR + jj]` is
/// `B[k0 + kk, js·NR + jj]`. Lanes past column `n` are zeroed, so a
/// reused buffer never carries stale values into a ragged strip.
#[allow(clippy::too_many_arguments)] // BLAS-style shape/offset scalars
fn pack_b_strip(
    strip: &mut [f32],
    b: &[f32],
    layout: Layout,
    k: usize,
    n: usize,
    js: usize,
    k0: usize,
    kc: usize,
) {
    let j0 = js * NR;
    let width = NR.min(n - j0);
    match layout {
        Layout::Normal => {
            for kk in 0..kc {
                let src = &b[(k0 + kk) * n + j0..][..width];
                strip[kk * NR..kk * NR + width].copy_from_slice(src);
            }
        }
        Layout::Trans => {
            // b is n×k; strip lane jj is column j0+jj, i.e. row j0+jj of
            // the stored matrix, walked along k.
            for jj in 0..width {
                let src = &b[(j0 + jj) * k + k0..][..kc];
                for (kk, &v) in src.iter().enumerate() {
                    strip[kk * NR + jj] = v;
                }
            }
        }
        Layout::Samples(hw) => {
            for (jj, s, p, len) in sample_runs(j0, width, hw) {
                let base = s * k * hw + p;
                for kk in 0..kc {
                    let src = &b[base + (k0 + kk) * hw..][..len];
                    strip[kk * NR + jj..][..len].copy_from_slice(src);
                }
            }
        }
        Layout::SamplesT(hw) => {
            for (kk0, s, p, len) in sample_runs(k0, kc, hw) {
                for jj in 0..width {
                    let src = &b[s * n * hw + (j0 + jj) * hw + p..][..len];
                    for (t, &v) in src.iter().enumerate() {
                        strip[(kk0 + t) * NR + jj] = v;
                    }
                }
            }
        }
    }
    if width < NR {
        for row in strip.chunks_exact_mut(NR).take(kc) {
            row[width..].fill(0.0);
        }
    }
}

/// Packs rows `i0..i0+rows` × columns `k0..k0+kc` of logical `A` into
/// `MR`-tall strips, k-major, zero-padding the ragged bottom strip.
/// Strip `is` holds rows `i0 + is*MR ..`; step `kk` of a strip is the
/// contiguous `MR` floats `A[rows of strip, k0+kk]`.
#[allow(clippy::too_many_arguments)] // BLAS-style shape/offset scalars
fn pack_a(
    apack: &mut [f32],
    a: &[f32],
    layout: Layout,
    m: usize,
    k: usize,
    i0: usize,
    rows: usize,
    k0: usize,
    kc: usize,
) {
    let strips = apack.chunks_exact_mut(kc * MR).take(rows.div_ceil(MR));
    for (is, strip) in strips.enumerate() {
        let r0 = i0 + is * MR;
        let height = MR.min(i0 + rows - r0);
        match layout {
            Layout::Normal => {
                for r in 0..height {
                    let src = &a[(r0 + r) * k + k0..][..kc];
                    for (kk, &v) in src.iter().enumerate() {
                        strip[kk * MR + r] = v;
                    }
                }
            }
            Layout::Trans => {
                for kk in 0..kc {
                    let src = &a[(k0 + kk) * m + r0..][..height];
                    strip[kk * MR..kk * MR + height].copy_from_slice(src);
                }
            }
            Layout::Samples(hw) => {
                for (kk0, s, p, len) in sample_runs(k0, kc, hw) {
                    for r in 0..height {
                        let src = &a[s * m * hw + (r0 + r) * hw + p..][..len];
                        for (t, &v) in src.iter().enumerate() {
                            strip[(kk0 + t) * MR + r] = v;
                        }
                    }
                }
            }
            Layout::SamplesT(_) => {
                for r in 0..height {
                    for kk in 0..kc {
                        strip[kk * MR + r] = a[layout.index(m, k, r0 + r, k0 + kk)];
                    }
                }
            }
        }
        if height < MR {
            for col in strip.chunks_exact_mut(MR) {
                col[height..].fill(0.0);
            }
        }
    }
}

/// The register microkernel: accumulates a `kc`-deep panel product of one
/// packed A strip and one packed B strip, then folds `alpha * acc` into a
/// full `MR × NR` tile of `c` (row stride `ldc`). `ap` is `kc*MR` floats,
/// `bp` is `kc*NR` floats, and `c` must cover the whole tile — ragged
/// edges go through [`microkernel_edge`].
///
/// Two details here are load-bearing for codegen, each worth ~2×:
///
/// * `inline(never)`: compiled standalone, LLVM keeps the whole `MR×NR`
///   accumulator in SIMD registers; inlined into the blocking loops it
///   inherits their register pressure and spills accumulators on every
///   `k` step. The call cost is amortized over `kc·MR·NR` multiply-adds.
/// * The writeback loops have **constant** bounds (`MR`, `NR`). Any
///   dynamically-bounded read of `acc` (as the edge case needs) defeats
///   SROA, the accumulator becomes a stack object, and the hot `k` loop
///   round-trips it through memory each iteration.
#[inline(never)]
fn microkernel(ap: &[f32], bp: &[f32], kc: usize, c: &mut [f32], ldc: usize, alpha: f32) {
    let mut acc = [[0.0f32; NR]; MR];
    for (arow, brow) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kc) {
        for r in 0..MR {
            let ar = arow[r];
            for j in 0..NR {
                acc[r][j] += ar * brow[j];
            }
        }
    }
    for r in 0..MR {
        let crow = &mut c[r * ldc..r * ldc + NR];
        for j in 0..NR {
            crow[j] += alpha * acc[r][j];
        }
    }
}

/// Ragged-edge wrapper: runs [`microkernel`] into a zeroed `MR×NR`
/// scratch tile (`alpha = 1`, so scratch holds the raw panel sums), then
/// folds `alpha * sum` into the valid `mr_eff × nr_eff` corner of `c` —
/// the same `c += alpha · panel_sum` association as the full-tile path,
/// so edge elements are bitwise independent of which path handled them.
#[allow(clippy::too_many_arguments)] // BLAS-style shape/offset scalars
fn microkernel_edge(
    ap: &[f32],
    bp: &[f32],
    kc: usize,
    c: &mut [f32],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
    alpha: f32,
) {
    let mut scratch = [0.0f32; MR * NR];
    microkernel(ap, bp, kc, &mut scratch, NR, 1.0);
    for r in 0..mr_eff {
        let crow = &mut c[r * ldc..r * ldc + nr_eff];
        for (j, cv) in crow.iter_mut().enumerate() {
            *cv += alpha * scratch[r * NR + j];
        }
    }
}

/// Runs every microtile of one packed `A` block against one k-panel of
/// packed `B`. `apack` holds the block's `rows` rows as `MR`-strips of
/// `kc·MR` floats; strip `js` of the panel is
/// `bpack[js·bstride..][..kc·NR]`; `c` starts at the block's first row
/// and has `n` columns.
#[allow(clippy::too_many_arguments)] // BLAS-style shape/offset scalars
fn macro_kernel(
    apack: &[f32],
    bpack: &[f32],
    bstride: usize,
    kc: usize,
    c: &mut [f32],
    rows: usize,
    n: usize,
    alpha: f32,
) {
    for js in 0..n.div_ceil(NR) {
        let bp = &bpack[js * bstride..][..kc * NR];
        let j0 = js * NR;
        let nr_eff = NR.min(n - j0);
        let astrips = apack.chunks_exact(kc * MR).take(rows.div_ceil(MR));
        for (is, ap) in astrips.enumerate() {
            let ir = is * MR;
            let mr_eff = MR.min(rows - ir);
            let ctile = &mut c[ir * n + j0..];
            if mr_eff == MR && nr_eff == NR {
                microkernel(ap, bp, kc, ctile, n, alpha);
            } else {
                microkernel_edge(ap, bp, kc, ctile, n, mr_eff, nr_eff, alpha);
            }
        }
    }
}

/// Floats of packed `A` one `MC`-row block of an operand with `rows` rows
/// and `k` columns needs.
fn apack_len(rows: usize, k: usize) -> usize {
    MC.min(rows).next_multiple_of(MR) * KC.min(k)
}

/// `C += alpha * A · B` with packed blocked microkernels; `C` is `m×n`
/// row-major, logical `A` is `m×k`, logical `B` is `k×n` (storage per
/// `Layout`).
#[allow(clippy::too_many_arguments)] // BLAS-style shape/offset scalars
pub(crate) fn gemm_core(
    a: &[f32],
    a_layout: Layout,
    b: &[f32],
    b_layout: Layout,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    alpha: f32,
) {
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        // k == 0 is an empty sum: C += alpha·0 leaves C untouched, same
        // as the reference loops simply not executing.
        return;
    }
    // All of B, one strip of `k·NR` floats per NR columns; the k-panel
    // `k0..` of strip `js` is then `bpack[js·k·NR + k0·NR..]`. Pure
    // indexed writes, so the strip-parallel fill is partition-invariant.
    let strip_len = k * NR;
    let mut bpack = vec![0.0f32; n.div_ceil(NR) * strip_len];
    let fill = ChunkPolicy::min_chunk((PAR_GRAIN / strip_len).max(1));
    par_chunks_mut(&mut bpack, strip_len, fill, |js0, band| {
        for (si, strip) in band.chunks_exact_mut(strip_len).enumerate() {
            pack_b_strip(strip, b, b_layout, k, n, js0 + si, 0, k);
        }
    });
    // One band per thread, boundaries on microtile edges so no MR-tile is
    // split across threads; the work grain matches the reference path.
    let min_rows = (PAR_GRAIN / (k * n)).max(1);
    let policy = ChunkPolicy::tiles(min_rows.max(MR), MR);
    par_chunks_mut(c, n, policy, |row0, band| {
        let rows = band.len() / n;
        let mut apack = vec![0.0f32; apack_len(rows, k)];
        for ic in (0..rows).step_by(MC) {
            let ic_len = MC.min(rows - ic);
            for k0 in (0..k).step_by(KC) {
                let kc = KC.min(k - k0);
                pack_a(&mut apack, a, a_layout, m, k, row0 + ic, ic_len, k0, kc);
                let panel = &bpack[k0 * NR..];
                let cblock = &mut band[ic * n..];
                macro_kernel(&apack, panel, strip_len, kc, cblock, ic_len, n, alpha);
            }
        }
    });
}

/// Scratch floats [`gemm_block`] needs for `rows` output rows of a
/// product with inner dimension `k` and `n` columns.
pub(crate) fn gemm_block_scratch(rows: usize, k: usize, n: usize) -> usize {
    n.div_ceil(NR) * NR * KC.min(k) + apack_len(rows, k)
}

/// Serial `C += A · B` for rows `i0..i0 + rows` of the logical product:
/// `c` holds just those rows (`n` columns each). `B` is packed one
/// `KC`-deep panel at a time into `scratch` (at least
/// [`gemm_block_scratch`] floats, contents irrelevant) instead of whole,
/// so no buffer grows with `k`. Each element gets the association
/// [`gemm_core`] gives it with `alpha = 1`.
#[allow(clippy::too_many_arguments)] // BLAS-style shape/offset scalars
pub(crate) fn gemm_block(
    a: &[f32],
    a_layout: Layout,
    b: &[f32],
    b_layout: Layout,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    i0: usize,
    scratch: &mut [f32],
) {
    if c.is_empty() || n == 0 || k == 0 {
        return;
    }
    let rows = c.len() / n;
    let strips = n.div_ceil(NR);
    let (bpack, apack) = scratch.split_at_mut(strips * NR * KC.min(k));
    for k0 in (0..k).step_by(KC) {
        let kc = KC.min(k - k0);
        for (js, strip) in bpack.chunks_exact_mut(kc * NR).take(strips).enumerate() {
            pack_b_strip(strip, b, b_layout, k, n, js, k0, kc);
        }
        for ic in (0..rows).step_by(MC) {
            let ic_len = MC.min(rows - ic);
            pack_a(apack, a, a_layout, m, k, i0 + ic, ic_len, k0, kc);
            macro_kernel(apack, bpack, kc * NR, kc, &mut c[ic * n..], ic_len, n, 1.0);
        }
    }
}

/// Blocked `C += alpha * A · B` (row-major `m×k` times `k×n`).
pub(crate) fn gemm_into(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    alpha: f32,
) {
    gemm_core(a, Layout::Normal, b, Layout::Normal, c, m, k, n, alpha);
}

/// Blocked `C = Aᵀ · B` where `a` is stored `k×m`.
pub(crate) fn gemm_at_b(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    gemm_core(a, Layout::Trans, b, Layout::Normal, &mut c, m, k, n, 1.0);
    c
}

/// Blocked `C = A · Bᵀ` where `b` is stored `n×k`.
pub(crate) fn gemm_a_bt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    gemm_core(a, Layout::Normal, b, Layout::Trans, &mut c, m, k, n, 1.0);
    c
}

/// Fixed-order lane-parallel sum: eight running partial sums over the
/// slice, combined pairwise, remainder appended last. The association is
/// a function of `xs.len()` alone — never of thread count — so it is
/// deterministic, but it differs from the reference left-fold and is
/// ULP-bounded against it.
pub(crate) fn sum_lanes(xs: &[f32]) -> f32 {
    const LANES: usize = 8;
    let mut acc = [0.0f32; LANES];
    let chunks = xs.chunks_exact(LANES);
    let rem = chunks.remainder();
    for ch in chunks {
        for (j, a) in acc.iter_mut().enumerate() {
            *a += ch[j];
        }
    }
    let mut tail = 0.0f32;
    for &v in rem {
        tail += v;
    }
    let front = (acc[0] + acc[4]) + (acc[1] + acc[5]);
    let back = (acc[2] + acc[6]) + (acc[3] + acc[7]);
    (front + back) + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f64; m * n];
        for i in 0..m {
            for kk in 0..k {
                for j in 0..n {
                    c[i * n + j] += a[i * k + kk] as f64 * b[kk * n + j] as f64;
                }
            }
        }
        c.into_iter().map(|v| v as f32).collect()
    }

    fn seq(len: usize, scale: f32) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 7 % 13) as f32 - 6.0) * scale)
            .collect()
    }

    #[test]
    fn blocked_gemm_matches_f64_naive_on_awkward_shapes() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 2),
            (4, 8, 8),
            (5, 9, 11),
            (17, 300, 7),
            (70, 1, 70),
            (65, 64, 63),
        ] {
            let a = seq(m * k, 0.25);
            let b = seq(k * n, 0.5);
            let mut c = vec![0.0f32; m * n];
            gemm_into(&a, &b, &mut c, m, k, n, 1.0);
            let want = naive(&a, &b, m, k, n);
            for (got, want) in c.iter().zip(&want) {
                assert!(
                    (got - want).abs() <= 1e-3 * (1.0 + want.abs()),
                    "({m},{k},{n}): {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn blocked_transposed_variants_agree_with_normal() {
        let (m, k, n) = (9usize, 13usize, 10usize);
        let a = seq(m * k, 0.1);
        let b = seq(k * n, 0.2);
        let mut c = vec![0.0f32; m * n];
        gemm_into(&a, &b, &mut c, m, k, n, 1.0);

        // Build transposed storages and check the *_at_b / *_a_bt entry
        // points recover the same product (identical association, so
        // bitwise equality is expected).
        let mut at = vec![0.0f32; k * m];
        for i in 0..m {
            for kk in 0..k {
                at[kk * m + i] = a[i * k + kk];
            }
        }
        let mut bt = vec![0.0f32; n * k];
        for kk in 0..k {
            for j in 0..n {
                bt[j * k + kk] = b[kk * n + j];
            }
        }
        assert_eq!(gemm_at_b(&at, &b, m, k, n), c);
        assert_eq!(gemm_a_bt(&a, &bt, m, k, n), c);
    }

    #[test]
    fn k_zero_leaves_c_untouched() {
        let mut c = vec![3.0f32; 6];
        gemm_into(&[], &[], &mut c, 2, 0, 3, 1.0);
        assert_eq!(c, vec![3.0; 6]);
    }

    #[test]
    fn alpha_scales_the_panel_sum() {
        let a = [1.0f32, 2.0];
        let b = [3.0f32, 4.0];
        let mut c = vec![10.0f32];
        gemm_into(&a, &b, &mut c, 1, 2, 1, 0.5);
        assert_eq!(c, vec![10.0 + 0.5 * 11.0]);
    }

    #[test]
    fn bitwise_identical_across_thread_counts() {
        use stsl_parallel::with_threads;
        let (m, k, n) = (67usize, 300usize, 41usize);
        let a = seq(m * k, 0.03);
        let b = seq(k * n, 0.07);
        let run = || {
            let mut c = vec![0.0f32; m * n];
            gemm_into(&a, &b, &mut c, m, k, n, 1.0);
            c
        };
        let serial = with_threads(1, run);
        for threads in [2usize, 3, 4, 7] {
            assert_eq!(serial, with_threads(threads, run), "{threads} threads");
        }
    }

    /// Storage for a logical `rows × cols` operand held per `layout`,
    /// filled with full-mantissa values in `[-1, 1)` so that every product
    /// and partial sum rounds: any change of association moves some bit.
    fn operand(layout: Layout, rows: usize, cols: usize, seed: u32) -> Vec<f32> {
        let len = (0..rows)
            .flat_map(|r| (0..cols).map(move |c| layout.index(rows, cols, r, c)))
            .max()
            .map_or(0, |last| last + 1);
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 8) as f32 / (1 << 23) as f32 - 1.0
            })
            .collect()
    }

    /// The blocked association spelled out in scalar loops, for rows
    /// `i0..` of the logical `m×k · k×n` product (`c` holds those rows):
    /// each element sums its `k` terms in ascending order inside each `KC`
    /// panel, starting from 0; the panels run in order from panel 0, and
    /// each ends with `c += alpha · panel_sum`.
    fn oracle(
        (a, al): (&[f32], Layout),
        (b, bl): (&[f32], Layout),
        c: &mut [f32],
        (m, k, n): (usize, usize, usize),
        i0: usize,
        alpha: f32,
    ) {
        for (i, crow) in c.chunks_exact_mut(n).enumerate() {
            for (j, cv) in crow.iter_mut().enumerate() {
                for k0 in (0..k).step_by(KC) {
                    let mut panel = 0.0f32;
                    for kk in k0..(k0 + KC).min(k) {
                        panel += a[al.index(m, k, i0 + i, kk)] * b[bl.index(k, n, kk, j)];
                    }
                    *cv += alpha * panel;
                }
            }
        }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn blocked_gemms_follow_the_documented_summation_order_bit_for_bit() {
        use stsl_parallel::with_threads;
        // m and n are not multiples of MR and NR, m spans two MC blocks,
        // and k = 600 spans three KC panels (256 + 256 + 88).
        let (m, k, n) = (67usize, 600usize, 21usize);
        // Every pairing the crate uses: gemm_into, gemm_at_b, gemm_a_bt;
        // the conv forward over whole samples and over one sample's
        // leading columns, the conv dX, the conv dWᵀ. Sample widths 3, 5
        // and 30 do not divide NR.
        let pairings = [
            (Layout::Normal, Layout::Normal),
            (Layout::Trans, Layout::Normal),
            (Layout::Normal, Layout::Trans),
            (Layout::Normal, Layout::Samples(3)),
            (Layout::Normal, Layout::Samples(30)),
            (Layout::Trans, Layout::Samples(3)),
            (Layout::Samples(3), Layout::SamplesT(3)),
            (Layout::Samples(5), Layout::SamplesT(5)),
        ];
        let c0 = operand(Layout::Normal, m, n, 99);
        let zero = vec![0.0f32; m * n];
        for threads in [1usize, 3] {
            with_threads(threads, || {
                for (p, &(al, bl)) in pairings.iter().enumerate() {
                    let (a, b) = (
                        operand(al, m, k, 2 * p as u32 + 1),
                        operand(bl, k, n, 2 * p as u32 + 2),
                    );
                    let want = |i0: usize, c: &[f32], alpha: f32| {
                        let mut c = c.to_vec();
                        oracle((&a, al), (&b, bl), &mut c, (m, k, n), i0, alpha);
                        bits(&c)
                    };
                    let label = format!("{al:?} x {bl:?}, {threads} threads");
                    for alpha in [1.0f32, -1.375] {
                        let mut got = c0.clone();
                        gemm_core(&a, al, &b, bl, &mut got, m, k, n, alpha);
                        assert_eq!(
                            bits(&got),
                            want(0, &c0, alpha),
                            "gemm_core {label}, alpha {alpha}"
                        );
                    }
                    for (i0, rows) in [(0usize, m), (3, 10), (4, 63), (61, 6)] {
                        let c = &c0[i0 * n..][..rows * n];
                        let mut got = c.to_vec();
                        // Stale scratch must not reach the result.
                        let mut scratch = vec![f32::NAN; gemm_block_scratch(rows, k, n)];
                        gemm_block(&a, al, &b, bl, &mut got, m, k, n, i0, &mut scratch);
                        assert_eq!(bits(&got), want(i0, c, 1.0), "gemm_block {label}, i0 {i0}");
                    }
                    // The named entry points on their own pairings: gemm_into
                    // scales and adds into a non-zero C, the others start at 0.
                    let (got, expected) = match (al, bl) {
                        (Layout::Normal, Layout::Normal) => {
                            let mut got = c0.clone();
                            gemm_into(&a, &b, &mut got, m, k, n, 0.625);
                            (got, want(0, &c0, 0.625))
                        }
                        (Layout::Trans, Layout::Normal) => {
                            (gemm_at_b(&a, &b, m, k, n), want(0, &zero, 1.0))
                        }
                        (Layout::Normal, Layout::Trans) => {
                            (gemm_a_bt(&a, &b, m, k, n), want(0, &zero, 1.0))
                        }
                        _ => continue,
                    };
                    assert_eq!(bits(&got), expected, "entry point for {label}");
                }
            });
        }
    }

    #[test]
    fn sum_lanes_is_exact_on_integers_and_handles_edges() {
        assert_eq!(sum_lanes(&[]), 0.0);
        assert_eq!(sum_lanes(&[2.5]), 2.5);
        let xs: Vec<f32> = (1..=25).map(|i| i as f32).collect();
        assert_eq!(sum_lanes(&xs), 325.0);
    }
}
