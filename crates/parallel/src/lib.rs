//! Deterministic scoped thread pool for the STSL workspace.
//!
//! A tiny parallel-for layer built directly on [`std::thread::scope`] — no
//! work stealing, no global registry, no dependencies. The API is shaped
//! like rayon's `scope`/`join`/indexed parallel-for, but the scheduling
//! model is much simpler: every parallel call splits its index space into
//! **contiguous, disjoint blocks** (see [`ChunkPolicy`]) and runs one block
//! per thread.
//!
//! # Determinism guarantee
//!
//! Callers are required to make each output element depend only on its own
//! index — blocks write disjoint slices, there are no atomics and no
//! parallel reductions, and every per-element accumulation loop runs in the
//! same order regardless of how the index space is partitioned. Under that
//! contract the results are **bitwise identical** for every thread count,
//! which `tests/parallel_equivalence.rs` at the workspace root enforces.
//!
//! # Thread-count control
//!
//! The thread budget is resolved per call by [`max_threads`]:
//!
//! 1. a thread-local override installed by [`with_threads`] (tests use this
//!    to compare serial and parallel runs inside one process), else
//! 2. the `STSL_THREADS` environment variable (`1` = exact serial path;
//!    unparsable values fall back to `1`), else
//! 3. [`std::thread::available_parallelism`].
//!
//! Parallelism is one level deep: worker blocks run with an override of `1`
//! so nested kernels (e.g. a GEMM inside a per-client forward pass) do not
//! oversubscribe the machine. A call that stays on the caller's thread
//! leaves the budget untouched, so the innermost *parallelizable* layer
//! still gets the full budget when outer layers have nothing to split.

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::ops::Range;

/// Scoped threads, re-exported so downstream crates never spell out
/// `std::thread` for ad-hoc fan-outs.
pub use std::thread::scope;

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    static SCOPE_CONTEXT: Cell<u64> = const { Cell::new(0) };
}

/// Restores the previous thread-local override when dropped, so overrides
/// nest correctly even across panics.
struct OverrideGuard(Option<usize>);

impl Drop for OverrideGuard {
    fn drop(&mut self) {
        THREAD_OVERRIDE.with(|o| o.set(self.0));
    }
}

fn set_override(n: Option<usize>) -> OverrideGuard {
    OverrideGuard(THREAD_OVERRIDE.with(|o| o.replace(n)))
}

/// Runs `f` with the thread budget pinned to 1 (used inside worker blocks).
fn serial<R>(f: impl FnOnce() -> R) -> R {
    let _guard = set_override(Some(1));
    f()
}

/// Restores the previous scope context when dropped.
struct ContextGuard(u64);

impl Drop for ContextGuard {
    fn drop(&mut self) {
        SCOPE_CONTEXT.with(|c| c.set(self.0));
    }
}

fn set_context(bits: u64) -> ContextGuard {
    ContextGuard(SCOPE_CONTEXT.with(|c| c.replace(bits)))
}

/// The ambient scope-context bits for the current thread.
///
/// The context is an opaque `u64` that callers (e.g. `stsl-tensor`'s
/// compute-backend override) stash per-call configuration in. Unlike a
/// plain `thread_local!` in the caller's crate, these bits are
/// **propagated into every worker thread** spawned by the parallel
/// primitives in this crate, so a configuration installed with
/// [`with_scope_context`] is seen by kernels running on pool workers —
/// not just on the installing thread. Zero means "no context".
pub fn scope_context() -> u64 {
    SCOPE_CONTEXT.with(|c| c.get())
}

/// Runs `f` with the ambient scope context set to `bits` on this thread
/// (and, transitively, on every worker any parallel call inside `f`
/// spawns), restoring the previous context afterwards — including on
/// panic. Overrides nest like [`with_threads`].
pub fn with_scope_context<R>(bits: u64, f: impl FnOnce() -> R) -> R {
    let _guard = set_context(bits);
    f()
}

/// Worker-side prologue: adopt the spawning thread's scope context and a
/// serial thread budget, then run the block. Every scoped worker in this
/// crate funnels through here so the two ambient values stay in sync.
fn worker<R>(ctx: u64, f: impl FnOnce() -> R) -> R {
    let _ctx = set_context(ctx);
    let _budget = set_override(Some(1));
    f()
}

/// The thread budget for parallel calls made on the current thread.
///
/// Resolution order: [`with_threads`] override, then `STSL_THREADS`, then
/// [`std::thread::available_parallelism`]. Always at least 1. The
/// environment is consulted on every call (no caching) so tests can flip
/// thread counts within one process.
pub fn max_threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(|o| o.get()) {
        return n.max(1);
    }
    match std::env::var("STSL_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            // Unparsable or zero: the safe interpretation is exact-serial.
            _ => 1,
        },
        Err(_) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Runs `f` with the thread budget pinned to `n.max(1)` on this thread,
/// restoring the previous budget afterwards (including on panic).
///
/// This is how the equivalence suite compares `STSL_THREADS=1` against
/// `STSL_THREADS=4` inside a single test process.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _guard = set_override(Some(n.max(1)));
    f()
}

/// Runs two closures, potentially in parallel, and returns both results.
///
/// With a budget of 1 this is exactly `(a(), b())`; otherwise `b` runs on a
/// scoped thread while `a` runs on the caller's thread. Panics in either
/// closure propagate to the caller.
pub fn join<RA, RB, A, B>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    if max_threads() < 2 {
        return (a(), b());
    }
    let ctx = scope_context();
    std::thread::scope(|s| {
        let hb = s.spawn(move || worker(ctx, b));
        let ra = serial(a);
        let rb = match hb.join() {
            Ok(r) => r,
            Err(p) => std::panic::resume_unwind(p),
        };
        (ra, rb)
    })
}

/// How a parallel call splits its index space into contiguous blocks.
///
/// `min_chunk` is the smallest number of items worth handing to a thread;
/// an index space of `items` is split into
/// `min(threads, items / min_chunk).max(1)` balanced contiguous ranges.
/// Small problems therefore stay on the caller's thread with zero spawn
/// overhead.
///
/// `tile` (see [`ChunkPolicy::tiles`]) additionally forces every block
/// boundary except the last onto a multiple of the tile size, so
/// cache-blocked kernels never see a microtile split across two threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkPolicy {
    /// Minimum items per block; blocks are never smaller than this unless
    /// the whole index space is.
    pub min_chunk: usize,
    /// Block-boundary alignment in items; 1 means unaligned row splits.
    pub tile: usize,
}

impl ChunkPolicy {
    /// Policy with the given minimum block size and unaligned boundaries.
    pub const fn min_chunk(min_chunk: usize) -> Self {
        ChunkPolicy { min_chunk, tile: 1 }
    }

    /// Policy whose block boundaries fall on multiples of `tile`.
    ///
    /// This is the partitioning the blocked tensor kernels use: the index
    /// space is a stack of `tile`-row microtiles, and handing a thread a
    /// range that starts or ends mid-tile would force it to recompute a
    /// partial tile another thread also owns. Boundaries are rounded down
    /// to tile edges (the final block absorbs the ragged tail), and a
    /// block never covers fewer than `min_chunk.max(tile)` items unless
    /// the whole index space does.
    pub const fn tiles(min_chunk: usize, tile: usize) -> Self {
        ChunkPolicy { min_chunk, tile }
    }

    /// The contiguous, disjoint, ascending ranges covering `0..items`.
    ///
    /// Partitioning depends on `threads`, but because callers keep
    /// per-element work independent of the partition, results do not.
    pub fn ranges(&self, items: usize, threads: usize) -> Vec<Range<usize>> {
        if items == 0 {
            return Vec::new();
        }
        let min = self.min_chunk.max(1).max(self.tile);
        let mut blocks = (items / min).clamp(1, threads.max(1));
        let tile = self.tile.max(1);
        if tile > 1 {
            // Never more blocks than whole tiles, or boundaries collide.
            blocks = blocks.min(items.div_ceil(tile));
        }
        if blocks <= 1 {
            // One element, not a range-to-collect: the lint misreads this.
            #[allow(clippy::single_range_in_vec_init)]
            return vec![0..items];
        }
        let mut out = Vec::with_capacity(blocks);
        let mut start = 0;
        if tile == 1 {
            let base = items / blocks;
            let rem = items % blocks;
            for b in 0..blocks {
                let len = base + usize::from(b < rem);
                out.push(start..start + len);
                start += len;
            }
        } else {
            for b in 1..=blocks {
                let end = if b == blocks {
                    items
                } else {
                    (items * b / blocks / tile * tile).clamp(start, items)
                };
                if end > start {
                    out.push(start..end);
                    start = end;
                }
            }
        }
        out
    }
}

/// Splits `data` into row-aligned contiguous chunks and calls
/// `f(first_row, chunk)` for each, potentially in parallel.
///
/// `data.len()` must be a multiple of `row_len`; the chunk passed to `f`
/// starts at row `first_row` and blocks never split a row. Each block owns
/// its slice exclusively (`split_at_mut`), so there is no write contention
/// by construction.
///
/// # Panics
///
/// Panics if `row_len == 0` or `data.len() % row_len != 0`; panics from `f`
/// propagate.
pub fn par_chunks_mut<T, F>(data: &mut [T], row_len: usize, policy: ChunkPolicy, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(row_len > 0, "row_len must be positive");
    assert_eq!(data.len() % row_len, 0, "data must be whole rows");
    let rows = data.len() / row_len;
    let ranges = policy.ranges(rows, max_threads());
    if ranges.len() <= 1 {
        if rows > 0 {
            f(0, data);
        }
        return;
    }
    let ctx = scope_context();
    std::thread::scope(|s| {
        let f = &f;
        let mut rest = data;
        let mut handles = Vec::new();
        let mut first = None;
        for (bi, r) in ranges.iter().enumerate() {
            let tmp = std::mem::take(&mut rest);
            let (chunk, tail) = tmp.split_at_mut((r.end - r.start) * row_len);
            rest = tail;
            if bi == 0 {
                first = Some((r.start, chunk));
            } else {
                let start = r.start;
                handles.push(s.spawn(move || worker(ctx, || f(start, chunk))));
            }
        }
        let (start, chunk) = first.expect("at least two ranges");
        serial(|| f(start, chunk));
        for h in handles {
            if let Err(p) = h.join() {
                std::panic::resume_unwind(p);
            }
        }
    });
}

/// Indexed parallel map: returns `[f(0), f(1), …, f(items-1)]` in index
/// order, computing contiguous blocks of indices potentially in parallel.
pub fn par_map_indexed<R, F>(items: usize, policy: ChunkPolicy, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let ranges = policy.ranges(items, max_threads());
    if ranges.len() <= 1 {
        return (0..items).map(f).collect();
    }
    let ctx = scope_context();
    std::thread::scope(|s| {
        let f = &f;
        let mut iter = ranges.into_iter();
        let head = iter.next().expect("at least two ranges");
        let handles: Vec<_> = iter
            .map(|r| s.spawn(move || worker(ctx, || r.map(f).collect::<Vec<R>>())))
            .collect();
        let mut out = serial(|| head.map(f).collect::<Vec<R>>());
        for h in handles {
            match h.join() {
                Ok(v) => out.extend(v),
                Err(p) => std::panic::resume_unwind(p),
            }
        }
        out
    })
}

/// Parallel map with exclusive mutable access to each item: returns
/// `[f(0, &mut items[0]), …]` in index order.
///
/// This is the fan-out primitive the split trainers use to run every
/// end-system's forward/backward concurrently — each `EndSystem` is one
/// item, touched by exactly one thread.
pub fn par_map_mut<T, R, F>(items: &mut [T], policy: ChunkPolicy, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let ranges = policy.ranges(items.len(), max_threads());
    if ranges.len() <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let ctx = scope_context();
    std::thread::scope(|s| {
        let f = &f;
        let mut rest = items;
        let mut handles = Vec::new();
        let mut first = None;
        for (bi, r) in ranges.iter().enumerate() {
            let tmp = std::mem::take(&mut rest);
            let (chunk, tail) = tmp.split_at_mut(r.end - r.start);
            rest = tail;
            if bi == 0 {
                first = Some((r.start, chunk));
            } else {
                let start = r.start;
                handles.push(s.spawn(move || {
                    worker(ctx, || {
                        chunk
                            .iter_mut()
                            .enumerate()
                            .map(|(i, t)| f(start + i, t))
                            .collect::<Vec<R>>()
                    })
                }));
            }
        }
        let (start, chunk) = first.expect("at least two ranges");
        let mut out = serial(|| {
            chunk
                .iter_mut()
                .enumerate()
                .map(|(i, t)| f(start + i, t))
                .collect::<Vec<R>>()
        });
        for h in handles {
            match h.join() {
                Ok(v) => out.extend(v),
                Err(p) => std::panic::resume_unwind(p),
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn ranges_cover_exactly_once_and_respect_min_chunk() {
        for items in [0usize, 1, 5, 16, 17, 100] {
            for threads in [1usize, 2, 4, 7] {
                for min in [1usize, 4, 32] {
                    let ranges = ChunkPolicy::min_chunk(min).ranges(items, threads);
                    let mut next = 0;
                    for r in &ranges {
                        assert_eq!(r.start, next, "contiguous ascending");
                        assert!(r.end > r.start, "non-empty");
                        next = r.end;
                    }
                    assert_eq!(next, items, "full coverage");
                    assert!(ranges.len() <= threads.max(1));
                    if ranges.len() > 1 {
                        for r in &ranges {
                            assert!(r.end - r.start >= min);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tiled_ranges_align_all_interior_boundaries() {
        for items in [1usize, 3, 4, 7, 16, 37, 64, 129, 1000] {
            for threads in [1usize, 2, 4, 7] {
                for tile in [2usize, 4, 8] {
                    let ranges = ChunkPolicy::tiles(1, tile).ranges(items, threads);
                    let mut next = 0;
                    for (i, r) in ranges.iter().enumerate() {
                        assert_eq!(r.start, next, "contiguous ascending");
                        assert!(r.end > r.start, "non-empty");
                        if i + 1 < ranges.len() {
                            assert_eq!(r.end % tile, 0, "interior boundary on tile edge");
                        }
                        next = r.end;
                    }
                    assert_eq!(next, items, "full coverage");
                    assert!(ranges.len() <= threads.max(1));
                    assert!(ranges.len() <= items.div_ceil(tile));
                }
            }
        }
    }

    #[test]
    fn scope_context_defaults_to_zero_and_restores() {
        assert_eq!(scope_context(), 0);
        with_scope_context(7, || {
            assert_eq!(scope_context(), 7);
            with_scope_context(9, || assert_eq!(scope_context(), 9));
            assert_eq!(scope_context(), 7);
        });
        assert_eq!(scope_context(), 0);
    }

    #[test]
    fn scope_context_propagates_to_workers() {
        with_threads(4, || {
            with_scope_context(42, || {
                let seen = par_map_indexed(8, ChunkPolicy::min_chunk(1), |_| scope_context());
                assert_eq!(seen, vec![42; 8]);
                let mut buf = vec![0u64; 8];
                par_chunks_mut(&mut buf, 1, ChunkPolicy::min_chunk(1), |_, c| {
                    c.fill(scope_context());
                });
                assert_eq!(buf, vec![42; 8]);
                let (a, b) = join(scope_context, scope_context);
                assert_eq!((a, b), (42, 42));
            });
        });
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = max_threads();
        with_threads(3, || {
            assert_eq!(max_threads(), 3);
            with_threads(1, || assert_eq!(max_threads(), 1));
            assert_eq!(max_threads(), 3);
        });
        assert_eq!(max_threads(), outer);
    }

    #[test]
    fn workers_run_with_serial_budget() {
        with_threads(4, || {
            let budgets = par_map_indexed(4, ChunkPolicy::min_chunk(1), |_| max_threads());
            // Every block (including the caller's own) pins itself to 1 so
            // nested calls cannot oversubscribe.
            assert_eq!(budgets, vec![1, 1, 1, 1]);
        });
    }

    #[test]
    fn par_chunks_mut_matches_serial_fill() {
        let fill = |start: usize, chunk: &mut [usize]| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (start * 3 + i) * 7;
            }
        };
        let mut serial_out = vec![0usize; 30];
        with_threads(1, || {
            par_chunks_mut(&mut serial_out, 3, ChunkPolicy::min_chunk(1), |s, c| {
                fill(s, c)
            })
        });
        let mut par_out = vec![0usize; 30];
        with_threads(4, || {
            par_chunks_mut(&mut par_out, 3, ChunkPolicy::min_chunk(1), |s, c| {
                fill(s, c)
            })
        });
        assert_eq!(serial_out, par_out);
        // Row 4 starts at element 12, so element 12 is (4*3+0)*7.
        assert_eq!(par_out[12], 84);
    }

    #[test]
    fn par_map_mut_preserves_index_order() {
        let mut items: Vec<usize> = (0..11).collect();
        let out = with_threads(4, || {
            par_map_mut(&mut items, ChunkPolicy::min_chunk(1), |i, v| {
                *v += 100;
                i * 2
            })
        });
        assert_eq!(out, (0..11).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(items, (100..111).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_indexed_handles_empty_and_tiny() {
        let empty: Vec<usize> =
            with_threads(4, || par_map_indexed(0, ChunkPolicy::min_chunk(1), |i| i));
        assert!(empty.is_empty());
        let one = with_threads(4, || {
            par_map_indexed(1, ChunkPolicy::min_chunk(1), |i| i + 9)
        });
        assert_eq!(one, vec![9]);
    }

    #[test]
    fn join_runs_both_sides() {
        let counter = AtomicUsize::new(0);
        let (a, b) = with_threads(2, || {
            join(
                || {
                    counter.fetch_add(1, Ordering::SeqCst);
                    "left"
                },
                || {
                    counter.fetch_add(1, Ordering::SeqCst);
                    "right"
                },
            )
        });
        assert_eq!((a, b), ("left", "right"));
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panics_propagate() {
        let mut data = vec![0u8; 8];
        with_threads(4, || {
            par_chunks_mut(&mut data, 1, ChunkPolicy::min_chunk(1), |row0, _| {
                if row0 > 0 {
                    panic!("worker boom");
                }
            });
        });
    }

    #[test]
    fn min_chunk_keeps_small_problems_on_caller_thread() {
        let caller = std::thread::current().id();
        let ids = with_threads(4, || {
            par_map_indexed(3, ChunkPolicy::min_chunk(8), |_| {
                std::thread::current().id()
            })
        });
        assert!(ids.iter().all(|&id| id == caller));
    }
}
