//! # csrplus-par
//!
//! The shared parallel substrate of the `csrplus` workspace: a
//! lazily-initialised, **persistent** global worker pool plus
//! deterministic-chunking iteration primitives.
//!
//! Before this crate existed, every parallel kernel paid thread-spawn
//! cost on each call via `std::thread::scope` and sized itself from an
//! independent `available_parallelism` read — so nested callers (the
//! serving batcher evaluating a query inside an HTTP worker, say) could
//! oversubscribe the machine.  Here the workers are spawned once, live
//! for the process, and every kernel shares them.
//!
//! ## Determinism contract
//!
//! All chunking decisions depend **only on the problem shape** (element
//! counts and per-element work estimates), never on the thread count.
//! Each chunk writes a disjoint output region and accumulates
//! floating-point values in a fixed serial order, so results are
//! **bitwise identical** whether a kernel runs on 1 thread or 64 — the
//! serial path executes the very same chunks in index order.  This is
//! what lets a test run a kernel at cap 1 and cap 4 in one process and
//! compare the bits.
//!
//! ## Sizing
//!
//! The effective parallelism defaults to
//! [`std::thread::available_parallelism`]; [`set_threads`] overrides it
//! at runtime (the CLI applies `--threads` and its environment variable
//! through it), and every entry point also accepts an explicit per-call
//! limit (`*_with_limit`, or the `*_with_threads` kernel variants layered
//! on top of this crate).

#![warn(missing_docs)]

mod chunk;
mod pool;

pub use chunk::{chunk_count, chunk_len};
pub use pool::Pool;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

static GLOBAL_POOL: OnceLock<Pool> = OnceLock::new();
/// Effective parallelism limit; 0 means "not yet initialised".
static GLOBAL_LIMIT: AtomicUsize = AtomicUsize::new(0);

/// The process-wide persistent pool shared by every kernel.
pub fn global() -> &'static Pool {
    GLOBAL_POOL.get_or_init(Pool::new)
}

/// The current effective parallelism: the machine's available
/// parallelism unless overridden by [`set_threads`].  Always at least 1.
pub fn threads() -> usize {
    let cur = GLOBAL_LIMIT.load(Ordering::Relaxed);
    if cur != 0 {
        return cur;
    }
    let initial =
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    // Racing initialisers compute the same value; first store wins.
    let _ = GLOBAL_LIMIT.compare_exchange(0, initial, Ordering::Relaxed, Ordering::Relaxed);
    GLOBAL_LIMIT.load(Ordering::Relaxed)
}

/// Overrides the effective parallelism for every subsequent kernel call
/// (the CLI's `--threads` setting and the in-process thread-cap sweeps).  Clamped
/// to at least 1; workers are spawned on demand, so raising the limit
/// above the initial value is fine.
pub fn set_threads(n: usize) {
    GLOBAL_LIMIT.store(n.max(1), Ordering::Relaxed);
}

/// Runs `task(i)` for every `i in 0..n_tasks` on the global pool at the
/// current [`threads`] limit.  Blocks until every task has finished.
pub fn parallel_for(n_tasks: usize, task: &(dyn Fn(usize) + Sync)) {
    global().run_with_limit(n_tasks, threads(), task);
}

/// [`parallel_for`] with an explicit parallelism cap (counting the
/// calling thread).  `limit <= 1` executes the tasks inline, in index
/// order, on the caller — the exact same per-task code path.
pub fn parallel_for_with_limit(n_tasks: usize, limit: usize, task: &(dyn Fn(usize) + Sync)) {
    global().run_with_limit(n_tasks, limit, task);
}

/// Splits `data` into consecutive chunks of `chunk_len` elements (the
/// final chunk may be shorter) and runs `f(chunk_index, chunk)` for each
/// on the global pool, capped at `limit` concurrent executors.
///
/// Chunk boundaries depend only on `data.len()` and `chunk_len`, and the
/// `limit <= 1` path visits the same chunks serially in index order, so
/// any per-chunk computation is bitwise reproducible at any parallelism.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], chunk_len: usize, limit: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    let chunk_len = chunk_len.max(1);
    let n_chunks = chunk_count(data.len(), chunk_len);
    if n_chunks == 1 || limit <= 1 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    // Hand each task exclusive access to its chunk through a take-once
    // slot; the lock is uncontended (every index is claimed exactly once)
    // so this costs one atomic per chunk, amortised over the chunk body.
    let slots: Vec<Mutex<Option<&mut [T]>>> =
        data.chunks_mut(chunk_len).map(|c| Mutex::new(Some(c))).collect();
    global().run_with_limit(n_chunks, limit, &|i| {
        let chunk =
            slots[i].lock().expect("chunk slot poisoned").take().expect("chunk claimed twice");
        f(i, chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallel_for_runs_every_task_once() {
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        parallel_for_with_limit(1000, 8, &|i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "task {i}");
        }
    }

    #[test]
    fn serial_limit_runs_in_order() {
        let order = Mutex::new(Vec::new());
        parallel_for_with_limit(16, 1, &|i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_chunk_mut_covers_slice_exactly() {
        for limit in [1usize, 2, 5] {
            let mut data = vec![0u64; 103];
            for_each_chunk_mut(&mut data, 10, limit, |ci, chunk| {
                for (off, v) in chunk.iter_mut().enumerate() {
                    *v += (ci * 10 + off) as u64 + 1;
                }
            });
            for (i, v) in data.iter().enumerate() {
                assert_eq!(*v, i as u64 + 1, "limit {limit} index {i}");
            }
        }
    }

    #[test]
    fn for_each_chunk_mut_handles_empty_and_oversized_chunks() {
        let mut empty: Vec<u8> = Vec::new();
        for_each_chunk_mut(&mut empty, 4, 4, |_, _| panic!("no chunks expected"));
        let mut one = vec![1u8, 2, 3];
        for_each_chunk_mut(&mut one, 100, 4, |ci, chunk| {
            assert_eq!(ci, 0);
            assert_eq!(chunk.len(), 3);
        });
    }

    #[test]
    fn nested_parallel_for_completes() {
        // A task that itself fans out must not deadlock the pool: the
        // caller participates in its own batch, so progress is always
        // possible even with every worker blocked in a nested wait.
        let total = AtomicUsize::new(0);
        parallel_for_with_limit(4, 4, &|_| {
            parallel_for_with_limit(8, 4, &|_| {
                total.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(total.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn panics_propagate_after_all_tasks_finish() {
        let finished = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_for_with_limit(64, 4, &|i| {
                if i == 17 {
                    panic!("boom");
                }
                finished.fetch_add(1, Ordering::SeqCst);
            });
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        assert_eq!(finished.load(Ordering::SeqCst), 63, "all other tasks still ran");
    }

    #[test]
    fn set_threads_round_trips_and_clamps() {
        let before = threads();
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(0);
        assert_eq!(threads(), 1, "0 clamps to 1");
        set_threads(before);
        assert_eq!(threads(), before);
    }
}
