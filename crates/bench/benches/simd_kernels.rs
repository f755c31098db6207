//! Roofline report for the vectorised kernel layer, written to
//! `BENCH_simd.json` at the repository root.
//!
//! Each row times one dense hot path under the scalar and SIMD
//! dispatchers (`csrplus_linalg::simd::set_enabled`) and reports
//! achieved GFLOP/s plus *fraction of peak*, where "peak" is the best
//! measured rate of the L1-resident dot micro-kernel on this machine —
//! a hardware-honest proxy that needs no clock-frequency guessing.  The
//! mixed-precision rows (f32 storage, f64 accumulation) additionally
//! report AvgDiff against the f64 result, the paper's accuracy measure
//! (mean absolute element difference, Section 5.2).
//!
//! Two invariants are asserted, not just reported:
//! * scalar and SIMD dispatch produce **bitwise identical** results at
//!   each precision (the kernels share one fixed reduction order);
//! * the f64 SIMD matmul reaches ≥ 2× the scalar rate (the issue's
//!   acceptance floor — fails loudly on regression rather than
//!   silently shipping a slow kernel).
//!
//! Run with `cargo bench -p csrplus-bench --bench simd_kernels`.

use csrplus_core::metrics::avg_diff;
use csrplus_core::{set_storage_precision, CsrPlusConfig, CsrPlusModel, Precision, Query};
use csrplus_graph::generators::erdos_renyi::erdos_renyi;
use csrplus_graph::TransitionMatrix;
use csrplus_linalg::{
    matmul_into, matmul_into_mixed, matvec_into, simd, vector, DenseMatrix, MatView,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

const REPS: usize = 5;

/// One report row.
struct Row {
    name: &'static str,
    precision: &'static str,
    isa: &'static str,
    seconds: f64,
    gflops: f64,
    fraction_of_peak: f64,
    /// AvgDiff against the f64 result; `None` for the f64 rows.
    avg_diff_vs_f64: Option<f64>,
    /// Scalar and SIMD dispatch agreed bitwise for this kernel+precision.
    bitwise_scalar_simd: bool,
}

/// Best-of-`REPS` wall clock.
fn best_of<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let mut seconds = f64::INFINITY;
    let mut out = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let r = f();
        seconds = seconds.min(t0.elapsed().as_secs_f64());
        out = Some(r);
    }
    (seconds, out.expect("REPS >= 1"))
}

/// Peak proxy: the dot micro-kernel on two L1-resident vectors, SIMD on.
/// Everything downstream is reported as a fraction of this rate.
fn measure_peak_proxy() -> f64 {
    let mut rng = StdRng::seed_from_u64(0x9EA4);
    let x = DenseMatrix::random_gaussian(1, 2048, &mut rng);
    let y = DenseMatrix::random_gaussian(1, 2048, &mut rng);
    let (xs, ys) = (x.as_slice(), y.as_slice());
    const ITERS: usize = 4096;
    simd::set_enabled(true);
    let (secs, acc) = best_of(|| {
        let mut acc = 0.0;
        for _ in 0..ITERS {
            acc += vector::dot(std::hint::black_box(xs), std::hint::black_box(ys));
        }
        acc
    });
    std::hint::black_box(acc);
    (2.0 * 2048.0 * ITERS as f64) / secs / 1e9
}

fn main() {
    csrplus_par::set_threads(1); // single-kernel roofline, no pool noise
    let peak = measure_peak_proxy();
    let mut rows: Vec<Row> = Vec::new();
    let mut rng = StdRng::seed_from_u64(0x51D0);

    let push = |rows: &mut Vec<Row>,
                name: &'static str,
                precision: &'static str,
                isa: &'static str,
                seconds: f64,
                flops: f64,
                avg_diff_vs_f64: Option<f64>,
                bitwise: bool| {
        let gflops = flops / seconds / 1e9;
        rows.push(Row {
            name,
            precision,
            isa,
            seconds,
            gflops,
            fraction_of_peak: gflops / peak,
            avg_diff_vs_f64,
            bitwise_scalar_simd: bitwise,
        });
    };

    // --- dot product, L2-resident (the single-pair similarity inner loop shape).
    {
        let x = DenseMatrix::random_gaussian(1, 65_536, &mut rng);
        let y = DenseMatrix::random_gaussian(1, 65_536, &mut rng);
        let flops = 2.0 * 65_536.0 * 256.0;
        simd::set_enabled(false);
        let (t_scalar, d_scalar) = best_of(|| {
            let mut acc = 0.0;
            for _ in 0..256 {
                acc += vector::dot(std::hint::black_box(x.as_slice()), y.as_slice());
            }
            acc
        });
        simd::set_enabled(true);
        let (t_simd, d_simd) = best_of(|| {
            let mut acc = 0.0;
            for _ in 0..256 {
                acc += vector::dot(std::hint::black_box(x.as_slice()), y.as_slice());
            }
            acc
        });
        let bitwise = d_scalar.to_bits() == d_simd.to_bits();
        assert!(bitwise, "dot: scalar and SIMD disagree");
        push(&mut rows, "dot_65536", "f64", "scalar", t_scalar, flops, None, bitwise);
        push(&mut rows, "dot_65536", "f64", simd::active(), t_simd, flops, None, bitwise);
    }

    // --- dense matmul, the precompute workhorse shape (Z = U·(ΣPΣ) is
    // n×r · r×r; this uses a square-ish proxy big enough to stream).
    let (m, k, n) = (768usize, 512, 768);
    let a = DenseMatrix::random_gaussian(m, k, &mut rng);
    let b = DenseMatrix::random_gaussian(k, n, &mut rng);
    let flops = 2.0 * (m * k * n) as f64;
    let mut c_scalar = DenseMatrix::zeros(m, n);
    let mut c_simd = DenseMatrix::zeros(m, n);
    simd::set_enabled(false);
    let (t_scalar, ()) = best_of(|| {
        matmul_into(a.view(), b.view(), c_scalar.view_mut(), 1).expect("conforming shapes")
    });
    simd::set_enabled(true);
    let (t_simd, ()) = best_of(|| {
        matmul_into(a.view(), b.view(), c_simd.view_mut(), 1).expect("conforming shapes")
    });
    let bitwise = c_scalar.as_slice() == c_simd.as_slice();
    assert!(bitwise, "matmul f64: scalar and SIMD disagree");
    assert!(
        t_scalar / t_simd >= 2.0,
        "f64 SIMD matmul below the 2x acceptance floor: {:.2}x",
        t_scalar / t_simd
    );
    push(&mut rows, "matmul_768x512x768", "f64", "scalar", t_scalar, flops, None, bitwise);
    push(&mut rows, "matmul_768x512x768", "f64", simd::active(), t_simd, flops, None, bitwise);

    // --- the same product with f32 storage through the mixed kernel.
    {
        let a32: Vec<f32> = a.as_slice().iter().map(|&v| v as f32).collect();
        let b32: Vec<f32> = b.as_slice().iter().map(|&v| v as f32).collect();
        let av = MatView::<f32>::new(&a32, m, k, k, 1).expect("contiguous");
        let bv = MatView::<f32>::new(&b32, k, n, n, 1).expect("contiguous");
        let mut c32_scalar = DenseMatrix::zeros(m, n);
        let mut c32_simd = DenseMatrix::zeros(m, n);
        simd::set_enabled(false);
        let (t32_scalar, ()) = best_of(|| {
            matmul_into_mixed(av, bv, c32_scalar.view_mut(), 1).expect("conforming shapes")
        });
        simd::set_enabled(true);
        let (t32_simd, ()) = best_of(|| {
            matmul_into_mixed(av, bv, c32_simd.view_mut(), 1).expect("conforming shapes")
        });
        let bitwise32 = c32_scalar.as_slice() == c32_simd.as_slice();
        assert!(bitwise32, "matmul mixed: scalar and SIMD disagree");
        let diff = avg_diff(&c32_simd, &c_simd);
        push(
            &mut rows,
            "matmul_768x512x768",
            "f32",
            "scalar",
            t32_scalar,
            flops,
            Some(diff),
            bitwise32,
        );
        push(
            &mut rows,
            "matmul_768x512x768",
            "f32",
            simd::active(),
            t32_simd,
            flops,
            Some(diff),
            bitwise32,
        );
    }

    // --- A·Bᵀ, the sandwich/query hot shape (`Z·U_Qᵀ`,
    // `matmul_transpose_b`): B's *transposed* columns are contiguous, so
    // both the f64 and the mixed kernel take the vectorised dot path —
    // unlike the row-major product above, where the mixed kernel has no
    // contiguous f32 columns to stream and stays on its scalar path.
    {
        let bt = DenseMatrix::random_gaussian(n, k, &mut rng); // B stored as n×k
        let mut d_scalar = DenseMatrix::zeros(m, n);
        let mut d_simd = DenseMatrix::zeros(m, n);
        simd::set_enabled(false);
        let (t_scalar, ()) = best_of(|| {
            matmul_into(a.view(), bt.view().t(), d_scalar.view_mut(), 1).expect("conforming shapes")
        });
        simd::set_enabled(true);
        let (t_simd, ()) = best_of(|| {
            matmul_into(a.view(), bt.view().t(), d_simd.view_mut(), 1).expect("conforming shapes")
        });
        let bitwise = d_scalar.as_slice() == d_simd.as_slice();
        assert!(bitwise, "matmul_t_b f64: scalar and SIMD disagree");
        push(&mut rows, "matmul_t_b_768x512x768", "f64", "scalar", t_scalar, flops, None, bitwise);
        push(
            &mut rows,
            "matmul_t_b_768x512x768",
            "f64",
            simd::active(),
            t_simd,
            flops,
            None,
            bitwise,
        );

        let a32: Vec<f32> = a.as_slice().iter().map(|&v| v as f32).collect();
        let bt32: Vec<f32> = bt.as_slice().iter().map(|&v| v as f32).collect();
        let av = MatView::<f32>::new(&a32, m, k, k, 1).expect("contiguous");
        let btv = MatView::<f32>::new(&bt32, n, k, k, 1).expect("contiguous");
        let mut d32_scalar = DenseMatrix::zeros(m, n);
        let mut d32_simd = DenseMatrix::zeros(m, n);
        simd::set_enabled(false);
        let (t32_scalar, ()) = best_of(|| {
            matmul_into_mixed(av, btv.t(), d32_scalar.view_mut(), 1).expect("conforming shapes")
        });
        simd::set_enabled(true);
        let (t32_simd, ()) = best_of(|| {
            matmul_into_mixed(av, btv.t(), d32_simd.view_mut(), 1).expect("conforming shapes")
        });
        let bitwise32 = d32_scalar.as_slice() == d32_simd.as_slice();
        assert!(bitwise32, "matmul_t_b mixed: scalar and SIMD disagree");
        let diff = avg_diff(&d32_simd, &d_simd);
        push(
            &mut rows,
            "matmul_t_b_768x512x768",
            "f32",
            "scalar",
            t32_scalar,
            flops,
            Some(diff),
            bitwise32,
        );
        push(
            &mut rows,
            "matmul_t_b_768x512x768",
            "f32",
            simd::active(),
            t32_simd,
            flops,
            Some(diff),
            bitwise32,
        );
    }

    // --- dense matvec (the single-query column shape).
    {
        let x = DenseMatrix::random_gaussian(1, k, &mut rng);
        let mut y_scalar = vec![0.0; m];
        let mut y_simd = vec![0.0; m];
        let mv_flops = 2.0 * (m * k) as f64 * 64.0;
        simd::set_enabled(false);
        let (t_scalar, ()) = best_of(|| {
            for _ in 0..64 {
                matvec_into(a.view(), std::hint::black_box(x.as_slice()), &mut y_scalar, 1)
                    .expect("conforming shapes");
            }
        });
        simd::set_enabled(true);
        let (t_simd, ()) = best_of(|| {
            for _ in 0..64 {
                matvec_into(a.view(), std::hint::black_box(x.as_slice()), &mut y_simd, 1)
                    .expect("conforming shapes");
            }
        });
        let bitwise = y_scalar == y_simd;
        assert!(bitwise, "matvec: scalar and SIMD disagree");
        push(&mut rows, "matvec_768x512", "f64", "scalar", t_scalar, mv_flops, None, bitwise);
        push(&mut rows, "matvec_768x512", "f64", simd::active(), t_simd, mv_flops, None, bitwise);
    }

    // --- end-to-end multi-source query at both storage precisions (the
    // paper workload: [S]_{*,Q} via Z·U_Qᵀ, n=4096, r=64, |Q|=32).
    {
        const N: usize = 4096;
        const RANK: usize = 64;
        let graph = erdos_renyi(N, N * 16, 0xED6E).expect("valid generator parameters");
        let transition = TransitionMatrix::from_graph(&graph);
        let config = CsrPlusConfig::with_rank(RANK);
        let queries: Vec<usize> = (0..32).map(|i| (i * 97) % N).collect();
        let q_flops = 2.0 * (N * RANK * queries.len()) as f64;

        set_storage_precision(Precision::F64);
        let m64 = CsrPlusModel::precompute(&transition, &config).expect("precompute succeeds");
        set_storage_precision(Precision::F32);
        let m32 = CsrPlusModel::precompute(&transition, &config).expect("precompute succeeds");
        set_storage_precision(Precision::F64);

        let plan = Query::new(&queries);
        let mut scratch = DenseMatrix::zeros(0, 0);
        simd::set_enabled(true);
        m64.evaluate_into(&plan, &mut scratch).expect("in-bounds queries");
        let (t64, ()) = best_of(|| {
            m64.evaluate_into(&plan, &mut scratch).expect("in-bounds queries");
        });
        let s64 = scratch.clone();
        simd::set_enabled(false);
        m64.evaluate_into(&plan, &mut scratch).expect("in-bounds queries");
        let bw64 = s64.as_slice() == scratch.as_slice();
        assert!(bw64, "multi_source f64: scalar and SIMD disagree");
        simd::set_enabled(true);
        let (t32, ()) = best_of(|| {
            m32.evaluate_into(&plan, &mut scratch).expect("in-bounds queries");
        });
        let s32 = scratch.clone();
        simd::set_enabled(false);
        m32.evaluate_into(&plan, &mut scratch).expect("in-bounds queries");
        let bw32 = s32.as_slice() == scratch.as_slice();
        assert!(bw32, "multi_source f32: scalar and SIMD disagree");
        simd::set_enabled(true);

        // The two models come from independent precomputes (f32 rounds U
        // before Z = U·ΣPΣ), so this AvgDiff is the *model-level* error —
        // what a user switching precision actually observes.
        let diff = avg_diff(&s32, &s64);
        push(&mut rows, "multi_source_4096_32q", "f64", simd::active(), t64, q_flops, None, bw64);
        push(
            &mut rows,
            "multi_source_4096_32q",
            "f32",
            simd::active(),
            t32,
            q_flops,
            Some(diff),
            bw32,
        );
    }

    // --- report ----------------------------------------------------------
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"reps\": {REPS},");
    let _ = writeln!(json, "  \"threads\": 1,");
    let _ = writeln!(json, "  \"simd_isa\": \"{}\",", simd::active());
    let _ = writeln!(json, "  \"peak_gflops_proxy\": {peak:.3},");
    let _ = writeln!(json, "  \"rows\": [");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let diff = match row.avg_diff_vs_f64 {
            Some(d) => format!("{d:.3e}"),
            None => "null".to_string(),
        };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"precision\": \"{}\", \"isa\": \"{}\", \
             \"seconds\": {:.6}, \"gflops\": {:.3}, \"fraction_of_peak\": {:.3}, \
             \"avg_diff_vs_f64\": {diff}, \"bitwise_scalar_simd\": {}}}{comma}",
            row.name,
            row.precision,
            row.isa,
            row.seconds,
            row.gflops,
            row.fraction_of_peak,
            row.bitwise_scalar_simd,
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_simd.json");
    std::fs::write(&out, &json).expect("BENCH_simd.json is writable");

    println!("peak proxy (L1 dot, SIMD on): {peak:.2} GFLOP/s");
    for row in &rows {
        println!(
            "{:<24} {:<4} {:<7} {:>8.2} ms {:>7.2} GFLOP/s  {:>5.1}% of peak  avg_diff {}",
            row.name,
            row.precision,
            row.isa,
            row.seconds * 1e3,
            row.gflops,
            row.fraction_of_peak * 100.0,
            row.avg_diff_vs_f64.map_or("-".into(), |d| format!("{d:.2e}")),
        );
    }
}
