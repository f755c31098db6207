//! Owned-vs-view comparison of the kernels the strided-view refactor
//! rewrote, with results written to `BENCH_views.json` at the repository
//! root.  Sizes follow the acceptance target (n = 4096, r = 64).
//!
//! Each row times an operation two ways and reports wall-clock seconds,
//! peak heap bytes, and allocation-event counts for both:
//!
//! * **owned** — the pre-refactor pattern: materialised `transpose()`
//!   copies, per-column temporaries, or allocate-per-call entry points.
//!   For `precompute` the seed's *internal* QR/SVD transposes cannot be
//!   re-created from outside the model, so its owned column re-adds only
//!   the model-layer clones the refactor removed and therefore
//!   *under-reports* the seed cost.
//! * **view** — the current path: stride-transposed operands through
//!   [`csrplus_linalg::matmul_into`], and `_into` entry points that reuse
//!   a caller buffer.
//!
//! The outputs of both variants are asserted approximately equal, and
//! the view variants of the pure products are asserted **bitwise** equal
//! across thread caps 1 and the configured pool width (the determinism
//! contract).
//!
//! Run with `cargo bench -p csrplus-bench --bench view_kernels`.

#[global_allocator]
static ALLOC: csrplus_memtrack::TrackingAllocator = csrplus_memtrack::TrackingAllocator;

use csrplus_core::{CsrPlusConfig, CsrPlusModel, Query};
use csrplus_graph::generators::erdos_renyi::erdos_renyi;
use csrplus_graph::TransitionMatrix;
use csrplus_linalg::qr::thin_qr;
use csrplus_linalg::{vector, DenseMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

const N: usize = 4096;
const RANK: usize = 64;
const DEGREE: usize = 16;
const REPS: usize = 3;

/// One measured variant: best-of-REPS seconds, peak bytes, alloc events.
struct Measure {
    seconds: f64,
    peak_bytes: usize,
    allocs: usize,
}

/// One comparison row.
struct Row {
    name: &'static str,
    owned: Measure,
    view: Measure,
}

/// Best-of-`REPS` wall clock; peak/allocs from the final rep.
fn measure<R>(mut f: impl FnMut() -> R) -> (Measure, R) {
    let mut seconds = f64::INFINITY;
    for _ in 0..REPS - 1 {
        let t0 = Instant::now();
        let _ = f();
        seconds = seconds.min(t0.elapsed().as_secs_f64());
    }
    let scope = csrplus_memtrack::PeakScope::start();
    let count = csrplus_memtrack::CountScope::start();
    let t0 = Instant::now();
    let out = f();
    seconds = seconds.min(t0.elapsed().as_secs_f64());
    let allocs = count.finish();
    let peak_bytes = scope.finish();
    (Measure { seconds, peak_bytes, allocs }, out)
}

/// Modified Gram–Schmidt thin QR materialising one column vector per
/// step — the owned-allocation pattern the Householder view sweep
/// replaced (same O(n·r²) flop count, so the contrast is copies, not
/// asymptotics).
fn mgs_qr(a: &DenseMatrix) -> (DenseMatrix, DenseMatrix) {
    let (n, r) = a.shape();
    let mut q = DenseMatrix::zeros(n, r);
    let mut rm = DenseMatrix::zeros(r, r);
    for j in 0..r {
        let mut v = a.col(j); // owned copy per column
        for i in 0..j {
            let qi = q.col(i); // owned copy per projection
            let dot = vector::dot(&qi, &v);
            rm.set(i, j, dot);
            vector::axpy(-dot, &qi, &mut v);
        }
        let norm = vector::norm2(&v);
        rm.set(j, j, norm);
        if norm > 0.0 {
            v.iter_mut().for_each(|x| *x /= norm);
        }
        q.set_col(j, &v);
    }
    (q, rm)
}

fn main() {
    let pooled_cap = csrplus_par::threads();
    let mut rng = StdRng::seed_from_u64(0x51DE);
    let a = DenseMatrix::random_gaussian(N, RANK, &mut rng);
    let tall = DenseMatrix::random_gaussian(N, RANK, &mut rng);
    let w = DenseMatrix::random_gaussian(N, RANK, &mut rng);
    let p = DenseMatrix::random_gaussian(RANK, RANK, &mut rng);
    let graph = erdos_renyi(N, N * DEGREE, 0xED6E).expect("valid generator parameters");
    let transition = TransitionMatrix::from_graph(&graph);
    let queries: Vec<usize> = (0..32).map(|i| (i * 97) % N).collect();
    let config = CsrPlusConfig::with_rank(RANK);

    let mut rows = Vec::new();

    // --- matmul: Aᵀ·B (the H₀ / projection shape, 64×4096 · 4096×64).
    let (owned, o_out) = measure(|| {
        let at = a.transpose(); // materialised transpose (seed pattern)
        at.matmul(&tall).expect("conforming shapes")
    });
    let (view, v_out) = measure(|| a.matmul_transpose_a(&tall).expect("conforming shapes"));
    assert!(o_out.approx_eq(&v_out, 1e-10), "At*B: owned and view paths disagree");
    let serial = a.matmul_transpose_a_with_threads(&tall, 1).expect("conforming shapes");
    let pooled = a.matmul_transpose_a_with_threads(&tall, pooled_cap).expect("conforming shapes");
    assert_eq!(serial.as_slice(), pooled.as_slice(), "At*B: cross-cap divergence");
    rows.push(Row { name: "matmul_t_a_64x4096x64", owned, view });

    // --- matmul: A·Bᵀ (the U·(ΣPΣ) sandwich shape, 4096×64 · 64×64).
    let (owned, o_out) = measure(|| {
        let pt = p.transpose();
        w.matmul(&pt).expect("conforming shapes")
    });
    let (view, v_out) = measure(|| w.matmul_transpose_b(&p).expect("conforming shapes"));
    assert!(o_out.approx_eq(&v_out, 1e-10), "A*Bt: owned and view paths disagree");
    let serial = w.matmul_transpose_b_with_threads(&p, 1).expect("conforming shapes");
    let pooled = w.matmul_transpose_b_with_threads(&p, pooled_cap).expect("conforming shapes");
    assert_eq!(serial.as_slice(), pooled.as_slice(), "A*Bt: cross-cap divergence");
    rows.push(Row { name: "matmul_t_b_4096x64x64", owned, view });

    // --- QR: owned column-copying MGS vs the in-place Householder sweep
    // over strided reflector panels.
    let (owned, (oq, or)) = measure(|| mgs_qr(&tall));
    let (view, vqr) = measure(|| thin_qr(&tall).expect("full column rank w.h.p."));
    let o_recon = oq.matmul(&or).expect("conforming shapes");
    let v_recon = vqr.q.matmul(&vqr.r).expect("conforming shapes");
    assert!(o_recon.approx_eq(&tall, 1e-9), "MGS reconstruction drifted");
    assert!(v_recon.approx_eq(&tall, 1e-9), "Householder reconstruction drifted");
    rows.push(Row { name: "qr_4096x64", owned, view });

    // --- precompute: view path vs view path + the model-layer clones the
    // refactor removed (UΣ, the two ΣPΣ scale copies, and the H₀/Z
    // transposes).  Internal QR/SVD copies are not re-created, so this
    // owned column is a lower bound on the seed's true cost.
    let (owned, _) = measure(|| {
        let m = CsrPlusModel::precompute(&transition, &config).expect("precompute succeeds");
        let extra = m.u().to_dense().transpose(); // re-materialise the seed's copies
        let mut us = m.u().to_dense();
        us.scale_columns_mut(m.sigma());
        let sps = m.u().to_dense();
        (m, extra, us, sps)
    });
    let (view, model) =
        measure(|| CsrPlusModel::precompute(&transition, &config).expect("precompute succeeds"));
    rows.push(Row { name: "precompute_4096_r64", owned, view });

    // --- multi-source query: allocate-per-call vs warm `_into` scratch.
    let (owned, o_out) = measure(|| model.multi_source(&queries).expect("in-bounds queries"));
    let mut scratch = DenseMatrix::zeros(0, 0);
    model.evaluate_into(&Query::new(&queries), &mut scratch).expect("in-bounds queries");
    let (view, _) = measure(|| {
        model.evaluate_into(&Query::new(&queries), &mut scratch).expect("in-bounds queries");
    });
    assert_eq!(o_out.as_slice(), scratch.as_slice(), "multi_source: into path diverged");
    rows.push(Row { name: "multi_source_32q", owned, view });

    // --- per-query column extraction: same contrast on the serving path.
    let (owned, o_cols) = measure(|| model.query_columns(&queries).expect("in-bounds queries"));
    let (view, v_cols) =
        measure(|| model.query_columns_into(&queries, &mut scratch).expect("in-bounds queries"));
    assert_eq!(o_cols, v_cols, "query_columns: into path diverged");
    rows.push(Row { name: "query_columns_32q", owned, view });

    // --- report ----------------------------------------------------------
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"n\": {N},");
    let _ = writeln!(json, "  \"rank\": {RANK},");
    let _ = writeln!(json, "  \"threads\": {pooled_cap},");
    let _ = writeln!(json, "  \"rows\": [");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \
             \"owned_s\": {:.6}, \"owned_peak_bytes\": {}, \"owned_allocs\": {}, \
             \"view_s\": {:.6}, \"view_peak_bytes\": {}, \"view_allocs\": {}, \
             \"speedup\": {:.3}}}{comma}",
            row.name,
            row.owned.seconds,
            row.owned.peak_bytes,
            row.owned.allocs,
            row.view.seconds,
            row.view.peak_bytes,
            row.view.allocs,
            row.owned.seconds / row.view.seconds.max(1e-12),
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");

    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_views.json");
    std::fs::write(&out, &json).expect("BENCH_views.json is writable");

    for row in &rows {
        println!(
            "{:<24} owned {:>9.2}ms / {:>12} B / {:>6} allocs   view {:>9.2}ms / {:>12} B / {:>6} allocs",
            row.name,
            row.owned.seconds * 1e3,
            row.owned.peak_bytes,
            row.owned.allocs,
            row.view.seconds * 1e3,
            row.view.peak_bytes,
            row.view.allocs,
        );
    }
    println!("wrote {}", out.display());
}
