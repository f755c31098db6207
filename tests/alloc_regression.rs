//! Allocation-count regression pins for the zero-copy view refactor.
//!
//! The strided-view layer (`csrplus_linalg::view`) removed every
//! materialised `transpose()` and intermediate clone from the
//! precompute and query hot paths.  This binary installs the tracking
//! allocator and pins the allocation *event counts* on the paper's
//! Figure 1 graph so the zero-copy property cannot silently regress:
//! byte peaks can hide churn, event counts cannot.
//!
//! Seed baselines (same graph, rank 4, two-query batch, single-threaded),
//! measured before the view refactor: precompute = 105, multi_source = 2,
//! query_columns = 5 (total 112).

#[global_allocator]
static ALLOC: csrplus_memtrack::TrackingAllocator = csrplus_memtrack::TrackingAllocator;

use csrplus_core::{CsrPlusConfig, CsrPlusModel, DenseMatrix, Query};
use csrplus_graph::{generators::figure1_graph, TransitionMatrix};
use csrplus_memtrack::count_allocations;
use std::sync::{Mutex, MutexGuard};

/// The allocation counters and the `csrplus_par` thread cap are
/// process-global, and libtest runs tests concurrently: each test holds
/// this lock throughout, so no other test allocates inside its scopes.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // The guarded value is `()`, so a test that panicked while holding
    // the lock left nothing inconsistent behind.
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn precompute_and_query_allocate_less_than_seed() {
    let _serial = serial();
    // Single-threaded: the serial in-line path of `csrplus_par` performs
    // no pool hand-off, so counts are exact and deterministic.
    let prior = csrplus_par::threads();
    csrplus_par::set_threads(1);

    let t = TransitionMatrix::from_graph(&figure1_graph());
    let cfg = CsrPlusConfig::with_rank(4);

    // Warm-up: first run takes any one-time lazy initialisation.
    let warm = CsrPlusModel::precompute(&t, &cfg).unwrap();
    let _ = warm.multi_source(&[1, 3]).unwrap();
    let _ = warm.query_columns(&[1, 3]).unwrap();

    let (model, precompute_allocs) =
        count_allocations(|| CsrPlusModel::precompute(&t, &cfg).unwrap());
    let (_, multi_source_allocs) = count_allocations(|| model.multi_source(&[1, 3]).unwrap());
    let (_, query_columns_allocs) = count_allocations(|| model.query_columns(&[1, 3]).unwrap());

    // Strictly fewer than the pre-view seed in total; no phase worse.
    // (The view refactor collapsed precompute from 105 to ~74 events —
    // QR/Jacobi/randomized-SVD transposes and the UΣ / ΣPΣ clones.)
    assert!(precompute_allocs < 105, "precompute regressed: {precompute_allocs} allocs (seed 105)");
    assert!(multi_source_allocs <= 2, "multi_source regressed: {multi_source_allocs} (seed 2)");
    assert!(query_columns_allocs <= 5, "query_columns regressed: {query_columns_allocs} (seed 5)");
    let total = precompute_allocs + multi_source_allocs + query_columns_allocs;
    assert!(total < 112, "total regressed: {total} allocs (seed 112)");

    // The `_into` steady state: with a warm scratch block the result
    // buffer is reused, so a repeated evaluation allocates strictly less
    // than the owned entry point ever could.
    let mut scratch = DenseMatrix::zeros(0, 0);
    let plan = Query::new(&[1, 3]);
    model.evaluate_into(&plan, &mut scratch).unwrap();
    let (_, steady) = count_allocations(|| model.evaluate_into(&plan, &mut scratch).unwrap());
    assert!(steady <= 1, "warm evaluate_into should only gather U_Q: {steady} allocs");
    let (_, steady_cols) =
        count_allocations(|| model.query_columns_into(&[1, 3], &mut scratch).unwrap());
    assert!(
        steady_cols < 5,
        "warm query_columns_into must beat the seed's 5 allocs: {steady_cols}"
    );

    csrplus_par::set_threads(prior);
}

/// Thin QR assembles `Q` in the spent working copy instead of a third
/// `m × n` panel, so peak scratch is two `m × n` matrices (working
/// copy / `Q` and the reflector panel) plus `R` and small vectors.  Pin
/// that with a byte budget; a reintroduced third panel blows it.
#[test]
fn thin_qr_peak_scratch_stays_within_two_panels() {
    use csrplus_linalg::qr::thin_qr;
    use csrplus_memtrack::{measure_peak, model, MemoryBudget};
    let _serial = serial();

    let prior = csrplus_par::threads();
    csrplus_par::set_threads(1);

    let (m, n) = (1024usize, 64usize);
    let a = DenseMatrix::from_fn(m, n, |i, j| ((i * 31 + j * 17) % 97) as f64 / 97.0 - 0.5);
    let _ = thin_qr(&a).unwrap(); // warm-up: one-time lazy initialisation

    let (qr, peak) = measure_peak(|| thin_qr(&a).unwrap());
    assert_eq!(qr.q.shape(), (m, n));

    // Two m×n panels + R + 256 KiB of slack for w/partials/bookkeeping.
    let budget = MemoryBudget::new(2 * model::dense(m, n) + model::dense(n, n) + 256 * 1024);
    budget.check("thin_qr scratch", peak).unwrap_or_else(|e| panic!("{e}"));

    csrplus_par::set_threads(prior);
}

/// Saving a model streams: payload bytes pass through fixed stack
/// scratch with the checksum folded in on the way, so the allocation
/// count is a small constant — *independent of model size* — rather than
/// a buffered copy of the payload.
#[test]
fn save_model_streams_with_constant_allocations() {
    use csrplus_core::persist::write_model;
    let _serial = serial();

    fn synthetic(n: usize, r: usize) -> CsrPlusModel {
        let seq = |len: usize| (0..len).map(|i| 0.5 + (i % 7) as f64 * 0.125).collect::<Vec<_>>();
        let mut sigma: Vec<f64> = (0..r).map(|i| 2.0 - i as f64 * 0.25).collect();
        sigma.sort_by(|a, b| b.partial_cmp(a).unwrap());
        CsrPlusModel::from_parts(
            CsrPlusConfig { rank: r, ..Default::default() },
            n,
            DenseMatrix::from_vec(n, r, seq(n * r)).unwrap(),
            DenseMatrix::from_vec(n, r, seq(n * r)).unwrap(),
            sigma,
            DenseMatrix::from_vec(r, r, seq(r * r)).unwrap(),
            DenseMatrix::from_vec(r, r, seq(r * r)).unwrap(),
        )
        .unwrap()
    }

    let small = synthetic(32, 4);
    let large = synthetic(512, 4); // 16× the payload

    // Warm-up takes any lazy one-time initialisation.
    write_model(&small, std::io::sink()).unwrap();

    let (_, small_allocs) = count_allocations(|| write_model(&small, std::io::sink()).unwrap());
    let (_, large_allocs) = count_allocations(|| write_model(&large, std::io::sink()).unwrap());

    // The writer's bookkeeping (section table, names) is a fixed handful
    // of events; a buffered implementation would scale with n·r.
    assert!(small_allocs <= 64, "save allocates too much: {small_allocs} events");
    assert_eq!(
        small_allocs, large_allocs,
        "save allocations must not scale with model size ({small_allocs} → {large_allocs})"
    );
}
