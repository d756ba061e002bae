//! Compute-backend selection for the hot kernels.
//!
//! Every hot kernel in this crate (the GEMM family, and through it the
//! im2col convolution, plus the softmax/reduction family) exists twice:
//!
//! * [`Backend::Reference`] — the scalar reference path. It preserves the
//!   exact per-element summation order the workspace has always used, so
//!   it is the numeric **oracle**: anything the blocked backend computes
//!   is validated against it by `tests/kernel_conformance.rs`.
//! * [`Backend::Blocked`] — cache-blocked packed microkernels whose inner
//!   loops are written to auto-vectorize, partitioned over microtiles for
//!   the `stsl-parallel` pool. Where blocking reorders a floating-point
//!   accumulation the result is *not* bitwise equal to the reference;
//!   the conformance suite asserts the documented error bound instead
//!   (see DESIGN.md §12 for the equivalence policy).
//!
//! # Selection
//!
//! Each kernel call runs the backend pinned by the innermost
//! [`with_backend`] scope, else [`Backend::Blocked`]. The pin is
//! propagated into `stsl-parallel` worker threads, so a test that pins
//! the backend around a whole trainer run pins it for every nested kernel
//! too. Nothing reads the environment: only the tests and the
//! `parallel_speedup` bin pin the reference path.
//!
//! # Determinism
//!
//! Backend choice is **explicit state**, never host sniffing: there is no
//! runtime CPU-feature detection (stsl-audit bans it in this crate), so a
//! given `(backend, seed)` pair reproduces bit-for-bit on any machine.
//! Within each backend, results are bitwise identical for every
//! `STSL_THREADS` value — the same contract the workspace has always had,
//! now enforced per backend by `tests/parallel_equivalence.rs`.

/// Which kernel family services tensor ops on this thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Scalar reference kernels: today's exact summation order, the
    /// conformance oracle.
    Reference,
    /// Cache-blocked packed microkernels tuned for auto-vectorization.
    #[default]
    Blocked,
}

/// Scope-context bit set while the reference backend is pinned.
const CTX_REFERENCE: u64 = 1;

impl Backend {
    /// The backend kernels must dispatch to on this thread: the
    /// [`with_backend`] pin, else [`Backend::Blocked`].
    pub fn active() -> Backend {
        if stsl_parallel::scope_context() & CTX_REFERENCE != 0 {
            Backend::Reference
        } else {
            Backend::default()
        }
    }

    /// Stable lower-case name, the spelling the bench outputs report.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Reference => "reference",
            Backend::Blocked => "blocked",
        }
    }
}

/// Runs `f` with the compute backend pinned to `backend`, restoring the
/// previous selection afterwards (including on panic).
///
/// The pin rides the `stsl-parallel` scope context, so it survives into
/// every worker thread a parallel kernel inside `f` spawns — a trainer
/// fan-out over end-systems dispatches the pinned backend on all of them.
pub fn with_backend<R>(backend: Backend, f: impl FnOnce() -> R) -> R {
    let others = stsl_parallel::scope_context() & !CTX_REFERENCE;
    let ctx = match backend {
        Backend::Reference => others | CTX_REFERENCE,
        Backend::Blocked => others,
    };
    stsl_parallel::with_scope_context(ctx, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_backend_pins_and_restores() {
        let outer = Backend::active();
        assert_eq!(outer, Backend::Blocked);
        with_backend(Backend::Reference, || {
            assert_eq!(Backend::active(), Backend::Reference);
            with_backend(Backend::Blocked, || {
                assert_eq!(Backend::active(), Backend::Blocked);
            });
            assert_eq!(Backend::active(), Backend::Reference);
        });
        assert_eq!(Backend::active(), outer);
    }

    #[test]
    fn with_backend_reaches_pool_workers() {
        stsl_parallel::with_threads(4, || {
            with_backend(Backend::Reference, || {
                let seen = stsl_parallel::par_map_indexed(
                    6,
                    stsl_parallel::ChunkPolicy::min_chunk(1),
                    |_| Backend::active(),
                );
                assert_eq!(seen, vec![Backend::Reference; 6]);
            });
        });
    }
}
