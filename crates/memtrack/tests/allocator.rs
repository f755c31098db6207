//! End-to-end test of the tracking allocator — this integration-test
//! binary installs it globally, so the counters observe real traffic
//! (the unit tests in the library can only exercise the API surface).

#[global_allocator]
static ALLOC: csrplus_memtrack::TrackingAllocator = csrplus_memtrack::TrackingAllocator;

use csrplus_memtrack::{current_bytes, peak_bytes, reset_peak, tracking_active, PeakScope};

/// The counters are process-wide on purpose, so this binary runs without
/// libtest's harness: no other test, and no harness thread freeing the
/// previous test's output, allocates inside a measured window.
fn main() {
    let checks: [(&str, fn()); 3] = [
        ("allocator_counts_live_and_peak_bytes", allocator_counts_live_and_peak_bytes),
        ("peak_scope_measures_transient_allocation", peak_scope_measures_transient_allocation),
        ("realloc_paths_are_tracked", realloc_paths_are_tracked),
    ];
    for (name, check) in checks {
        check();
        println!("test {name} ... ok");
    }
}

fn allocator_counts_live_and_peak_bytes() {
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

fn peak_scope_measures_transient_allocation() {
    let scope = PeakScope::start();
    {
        let big: Vec<u64> = vec![0; 4 << 20]; // 32 MiB
        std::hint::black_box(&big);
    }
    let measured = scope.finish();
    assert!(measured >= 32 * (1 << 20), "scope missed the transient allocation: {measured} bytes");
}

fn realloc_paths_are_tracked() {
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
