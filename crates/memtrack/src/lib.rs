//! # csrplus-memtrack
//!
//! Memory accounting for the CSR+ experiments.
//!
//! Figures 6–9 of the paper report *memory usage per algorithm and phase*,
//! and several baselines "fail due to memory crash" on the larger graphs.
//! This crate reproduces both behaviours:
//!
//! * [`TrackingAllocator`] — a global-allocator wrapper counting live and
//!   peak heap bytes.  The `figures` harness binary installs it with
//!   `#[global_allocator]` and brackets each phase in a [`PeakScope`] to
//!   measure the phase's peak footprint, the same quantity MATLAB's
//!   `memory` profiling reports.
//! * [`MemoryBudget`] — a logical byte budget checked *before* an
//!   allocation-heavy step runs.  When the faithful CSR-NI baseline would
//!   materialise a `n²×r²` Kronecker product beyond the budget it returns
//!   [`MemoryLimitError`] instead of taking down the process, which the
//!   harness reports exactly as the paper reports "memory crash".
//! * [`model`] — closed-form byte counts for the data structures each
//!   algorithm materialises (Table 1's memory column, made concrete).

#![warn(missing_docs)]
// `unsafe` is required to implement `GlobalAlloc`; it is confined to the
// impl below and only delegates to `System`.

pub mod budget;
pub mod model;

pub use budget::{MemoryBudget, MemoryLimitError};

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live heap bytes allocated through [`TrackingAllocator`].
static CURRENT: AtomicUsize = AtomicUsize::new(0);
/// High-water mark since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Monotone count of allocation events (`alloc` + growing `realloc`)
/// since process start — the denominator of the zero-copy regression
/// tests: byte peaks can hide allocator churn, the event count cannot.
static ALLOC_COUNT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// [`ALLOC_COUNT`]'s events made by the current thread alone, so a
    /// count taken on one thread is immune to other threads (a test
    /// harness spawning the next test, say).  Const-initialised with no
    /// destructor: touching it from the allocator never allocates.
    static THREAD_ALLOC_COUNT: Cell<usize> = const { Cell::new(0) };
}

/// Counts one allocation event, globally and for the current thread.
fn count_event() {
    ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
    // `try_with` only fails while the thread's locals are torn down.
    let _ = THREAD_ALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
}

/// A [`GlobalAlloc`] wrapper around the system allocator that maintains
/// live/peak byte counters.
///
/// Install in a binary with:
/// ```ignore
/// #[global_allocator]
/// static ALLOC: csrplus_memtrack::TrackingAllocator = csrplus_memtrack::TrackingAllocator;
/// ```
pub struct TrackingAllocator;

// SAFETY: delegates directly to `System`; the bookkeeping uses only
// atomics and cannot violate allocator invariants.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count_event();
            let cur = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(cur, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count_event();
            let cur = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(cur, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            let old = layout.size();
            if new_size > old {
                // A growing realloc may move the block — count it as an
                // allocation event (shrinks stay in place and are free).
                count_event();
            }
            if new_size >= old {
                let cur = CURRENT.fetch_add(new_size - old, Ordering::Relaxed) + (new_size - old);
                PEAK.fetch_max(cur, Ordering::Relaxed);
            } else {
                CURRENT.fetch_sub(old - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Live heap bytes right now (0 unless the tracking allocator is
/// installed in this binary).
pub fn current_bytes() -> usize {
    CURRENT.load(Ordering::Relaxed)
}

/// Peak heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Resets the peak to the current live count and returns the new value.
///
/// The peak is process-wide: this resets it for every thread, including
/// any [`PeakScope`] another thread has open.  Measurements that rely on
/// it (a whole phase's heap high-water mark, across every thread that
/// phase uses) must not overlap with another measurement.
pub fn reset_peak() -> usize {
    let cur = current_bytes();
    PEAK.store(cur, Ordering::Relaxed);
    cur
}

/// True when the tracking allocator has observed any traffic — used by the
/// harness to decide between measured and modelled memory numbers.
pub fn tracking_active() -> bool {
    peak_bytes() > 0
}

/// Total allocation events observed since process start (0 unless the
/// tracking allocator is installed in this binary).
pub fn alloc_count() -> usize {
    ALLOC_COUNT.load(Ordering::Relaxed)
}

/// RAII scope counting the allocation events that happen inside it.
///
/// Unlike [`PeakScope`] this needs no reset of global state — the event
/// counter is monotone, so a scope is just a start marker.
///
/// ```ignore
/// let scope = CountScope::start();
/// run_phase();
/// let allocations = scope.finish();
/// ```
#[derive(Debug)]
pub struct CountScope {
    baseline: usize,
}

impl CountScope {
    /// Starts a counting scope.
    pub fn start() -> Self {
        CountScope { baseline: alloc_count() }
    }

    /// Ends the scope, returning the allocation events since `start`.
    pub fn finish(self) -> usize {
        alloc_count().saturating_sub(self.baseline)
    }
}

/// Runs `f`, returning its result together with the number of allocation
/// events the call performed on the calling thread (0 without the
/// tracking allocator installed).  Other threads' allocations in the
/// meantime are not counted — neither unrelated ones nor work `f` hands
/// to a pool, so pin `csrplus_par` to one thread for an exact count.
pub fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let events = || THREAD_ALLOC_COUNT.with(Cell::get);
    let baseline = events();
    let out = f();
    let count = events().saturating_sub(baseline);
    (out, count)
}

/// RAII scope measuring the *additional* peak heap consumed inside it.
///
/// The scope reads the process-wide peak, so it counts every thread's
/// allocations — what a phase running on a worker pool needs — and a
/// [`reset_peak`] (or another scope's start) on any thread while it is
/// open moves its baseline.  Scopes must not overlap.
///
/// ```ignore
/// let scope = PeakScope::start();
/// run_phase();
/// let phase_peak_bytes = scope.finish();
/// ```
#[derive(Debug)]
pub struct PeakScope {
    baseline: usize,
}

impl PeakScope {
    /// Starts a measurement scope (resets the global peak).
    pub fn start() -> Self {
        let baseline = reset_peak();
        PeakScope { baseline }
    }

    /// Ends the scope, returning peak bytes above the starting baseline.
    pub fn finish(self) -> usize {
        peak_bytes().saturating_sub(self.baseline)
    }
}

/// Runs `f`, returning its result together with the peak heap bytes the
/// call allocated (0 without the tracking allocator installed).
pub fn measure_peak<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let scope = PeakScope::start();
    let out = f();
    (out, scope.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: the tracking allocator is *not* installed in the test binary,
    // so counters stay at zero; these tests cover the bookkeeping API
    // surface.  End-to-end allocator behaviour is exercised by the
    // `figures` harness binary which does install it.

    #[test]
    fn counters_start_consistent() {
        let c = current_bytes();
        let p = peak_bytes();
        assert!(p >= c || p == 0);
    }

    #[test]
    fn reset_peak_returns_current() {
        let v = reset_peak();
        assert_eq!(v, current_bytes());
        assert_eq!(peak_bytes(), v);
    }

    #[test]
    fn measure_peak_returns_closure_result() {
        let (v, peak) = measure_peak(|| 40 + 2);
        assert_eq!(v, 42);
        // No allocator installed in unit tests: peak is 0 (the e2e
        // behaviour is covered by tests/allocator.rs).
        assert_eq!(peak, 0);
    }

    #[test]
    fn peak_scope_without_allocator_is_zero() {
        let scope = PeakScope::start();
        let v: Vec<u8> = vec![0; 1024];
        drop(v);
        assert_eq!(scope.finish(), 0);
    }
}
