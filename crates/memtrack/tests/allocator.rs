//! End-to-end test of the tracking allocator — this integration-test
//! binary installs it globally, so the counters observe real traffic
//! (the unit tests in the library can only exercise the API surface).

#[global_allocator]
static ALLOC: csrplus_memtrack::TrackingAllocator = csrplus_memtrack::TrackingAllocator;

use csrplus_memtrack::{current_bytes, peak_bytes, reset_peak, tracking_active, PeakScope};
use std::sync::{Mutex, MutexGuard};

/// The peak is process-wide and libtest runs tests concurrently: a
/// `reset_peak()` in one test would move another's `PeakScope` baseline.
/// Each test holds this lock throughout.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // The guarded value is `()`, so a test that panicked while holding
    // the lock left nothing inconsistent behind.
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn allocator_counts_live_and_peak_bytes() {
    let _serial = serial();
    reset_peak();
    let before = current_bytes();
    let block: Vec<u8> = vec![7; 1 << 20]; // 1 MiB
    let during = current_bytes();
    assert!(during >= before + (1 << 20), "live bytes did not grow: {before} → {during}");
    assert!(peak_bytes() >= during);
    drop(block);
    let after = current_bytes();
    assert!(after < during, "dealloc not observed: {during} → {after}");
    // Peak survives the drop.
    assert!(peak_bytes() >= during);
    assert!(tracking_active());
}

#[test]
fn peak_scope_measures_transient_allocation() {
    let _serial = serial();
    // NB: tests in one binary may run concurrently; use a size large
    // enough to dominate incidental allocations from the harness.
    let scope = PeakScope::start();
    {
        let big: Vec<u64> = vec![0; 4 << 20]; // 32 MiB
        std::hint::black_box(&big);
    }
    let measured = scope.finish();
    assert!(measured >= 32 * (1 << 20), "scope missed the transient allocation: {measured} bytes");
}

#[test]
fn realloc_paths_are_tracked() {
    let _serial = serial();
    reset_peak();
    let mut v: Vec<u8> = Vec::new();
    for i in 0..100_000u32 {
        v.push(i as u8); // forces repeated grow/realloc
    }
    assert!(current_bytes() > 0);
    assert!(peak_bytes() >= v.capacity());
    v.shrink_to_fit();
    drop(v);
}
