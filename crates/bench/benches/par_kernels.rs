//! Pooled-vs-serial comparison of the `csrplus-par` runtime on the
//! kernels the precompute and query hot paths are built from, plus
//! end-to-end precompute/query throughput, with results written to
//! `BENCH_par.json` at the repository root.
//!
//! Sizes follow the acceptance target (n = 4096, r = 64).  The pooled
//! column reports the shared pool at its default width (available
//! parallelism); the serial
//! column forces a thread cap of 1 through the same code path.  On a
//! single-core runner the expected speedup is ~1.0× — the determinism
//! contract guarantees the *results* are bitwise identical either way,
//! which this harness also asserts.
//!
//! Run with `cargo bench -p csrplus-bench --bench par_kernels`.

use csrplus_core::{CsrPlusConfig, CsrPlusModel};
use csrplus_graph::generators::erdos_renyi::erdos_renyi;
use csrplus_graph::TransitionMatrix;
use csrplus_linalg::DenseMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

const N: usize = 4096;
const RANK: usize = 64;
const DEGREE: usize = 16;
const REPS: usize = 3;

struct KernelResult {
    name: &'static str,
    serial_s: f64,
    pooled_s: f64,
}

impl KernelResult {
    fn speedup(&self) -> f64 {
        self.serial_s / self.pooled_s
    }
}

/// Best-of-`REPS` wall-clock seconds for `f`.
fn best_of<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.expect("REPS >= 1"))
}

/// Times one kernel serial (cap 1) and pooled (configured cap), asserting
/// the outputs are bitwise identical.
fn compare(name: &'static str, pooled_cap: usize, run: impl Fn(usize) -> Vec<f64>) -> KernelResult {
    let (serial_s, serial_out) = best_of(|| run(1));
    let (pooled_s, pooled_out) = best_of(|| run(pooled_cap));
    assert_eq!(serial_out, pooled_out, "{name}: pooled result diverged from serial");
    KernelResult { name, serial_s, pooled_s }
}

fn main() {
    let pooled_cap = csrplus_par::threads();
    let mut rng = StdRng::seed_from_u64(0x9A11);
    let a = DenseMatrix::random_gaussian(N, RANK, &mut rng);
    let b = DenseMatrix::random_gaussian(RANK, N, &mut rng);
    let tall = DenseMatrix::random_gaussian(N, RANK, &mut rng);
    let x = DenseMatrix::random_gaussian(N, RANK, &mut rng);
    let v: Vec<f64> = (0..N).map(|i| (i as f64).sin()).collect();
    let graph = erdos_renyi(N, N * DEGREE, 0xED6E).expect("valid generator parameters");
    let transition = TransitionMatrix::from_graph(&graph);

    let mut kernels = Vec::new();
    kernels.push(compare("dense_matmul_4096x64x4096", pooled_cap, |t| {
        a.matmul_with_threads(&b, t).expect("conforming shapes").into_vec()
    }));
    kernels.push(compare("dense_matmul_transpose_a_64x4096x64", pooled_cap, |t| {
        a.matmul_transpose_a_with_threads(&tall, t).expect("conforming shapes").into_vec()
    }));
    kernels.push(compare("dense_matvec_transpose_4096x64", pooled_cap, |t| {
        a.matvec_transpose_with_threads(&v, t)
    }));
    kernels.push(compare("spmm_q_4096x64", pooled_cap, |t| {
        transition.q().matmul_dense_with_threads(&x, t).into_vec()
    }));

    // End-to-end precompute + multi-source query, serial vs pooled via the
    // global cap (these paths size their chunks off the shared pool).
    let queries: Vec<usize> = (0..32).map(|i| (i * 97) % N).collect();
    let config = CsrPlusConfig::with_rank(RANK);
    let mut end_to_end = Vec::new();
    for (label, cap) in [("serial", 1usize), ("pooled", pooled_cap)] {
        csrplus_par::set_threads(cap);
        let t0 = Instant::now();
        let model = CsrPlusModel::precompute(&transition, &config).expect("precompute succeeds");
        let precompute_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let s = model.multi_source(&queries).expect("in-bounds queries");
        let query_s = t1.elapsed().as_secs_f64();
        end_to_end.push((label, cap, precompute_s, query_s, s.into_vec()));
    }
    csrplus_par::set_threads(pooled_cap);
    assert_eq!(
        end_to_end[0].4, end_to_end[1].4,
        "multi_source: pooled result diverged from serial"
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"env\": {},", csrplus_bench::report::env_json());
    let _ = writeln!(json, "  \"n\": {N},");
    let _ = writeln!(json, "  \"rank\": {RANK},");
    let _ = writeln!(json, "  \"pooled_threads\": {pooled_cap},");
    let _ = writeln!(json, "  \"kernels\": [");
    for (i, k) in kernels.iter().enumerate() {
        let comma = if i + 1 < kernels.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"serial_s\": {:.6}, \"pooled_s\": {:.6}, \
             \"speedup\": {:.3}}}{comma}",
            k.name,
            k.serial_s,
            k.pooled_s,
            k.speedup()
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"end_to_end\": [");
    for (i, (label, cap, pre, query, _)) in end_to_end.iter().enumerate() {
        let comma = if i + 1 < end_to_end.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"mode\": \"{label}\", \"threads\": {cap}, \"precompute_s\": {pre:.6}, \
             \"query_s\": {query:.6}}}{comma}"
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"bitwise_identical\": true");
    json.push_str("}\n");

    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_par.json");
    std::fs::write(&out, &json).expect("BENCH_par.json is writable");

    println!("pooled threads: {pooled_cap}");
    for k in &kernels {
        println!(
            "{:<36} serial {:>9.2}ms  pooled {:>9.2}ms  speedup {:>5.2}x",
            k.name,
            k.serial_s * 1e3,
            k.pooled_s * 1e3,
            k.speedup()
        );
    }
    for (label, cap, pre, query, _) in &end_to_end {
        println!(
            "end_to_end/{label:<7} ({cap} threads)      precompute {:>8.2}s  query {:>8.2}ms",
            pre,
            query * 1e3
        );
    }
    println!("wrote {}", out.display());
}
