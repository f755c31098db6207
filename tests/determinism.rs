//! Determinism contract of the `csrplus-par` runtime and the SIMD
//! kernel layer: every pooled kernel chunks its work from the problem
//! *shape* alone, never from the thread count, so the floating-point
//! reduction order — and therefore every bit of every result — is
//! identical at any pool width.  The vectorised kernels keep the *same*
//! fixed reduction order as the scalar ones (no FMA, lane-mapped
//! accumulators), so flipping SIMD off must not move a single bit
//! either.
//!
//! This suite sweeps three axes and asserts bitwise equality at each
//! precision: the global thread cap over {1, 2, 8} (part 1, f64), then
//! SIMD on/off × thread caps {1, 4} × storage precision {f64, f32}
//! (part 2) for the layers the issues name — raw dense `matmul`, the
//! full `precompute` pipeline (randomized SVD, repeated squaring,
//! persisted model bytes), and the online `multi_source` query.
//! The precision is a value in each run's config; everything runs inside
//! one `#[test]` because the thread cap and the SIMD switch are
//! process-wide settings and the harness runs tests concurrently.

use csrplus_core::{persist, CsrPlusConfig, CsrPlusModel, Precision};
use csrplus_graph::generators::erdos_renyi::erdos_renyi;
use csrplus_graph::TransitionMatrix;
use csrplus_linalg::{simd, DenseMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREAD_CAPS: [usize; 3] = [1, 2, 8];

#[test]
fn matmul_precompute_and_multi_source_are_bitwise_stable_across_thread_caps() {
    let mut rng = StdRng::seed_from_u64(0xD57E);
    // Large enough that the shape-based chunking splits every kernel into
    // many chunks (the linalg threshold is ~1 MiFLOP per chunk).
    let a = DenseMatrix::random_gaussian(512, 256, &mut rng);
    let b = DenseMatrix::random_gaussian(256, 512, &mut rng);
    let graph = erdos_renyi(3000, 30_000, 0xBEEF).expect("valid generator parameters");
    let transition = TransitionMatrix::from_graph(&graph);
    let queries: Vec<usize> = (0..40).map(|i| (i * 71) % 3000).collect();

    let dir = std::env::temp_dir().join(format!("csrplus_determinism_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir is writable");

    let run = |precision: Precision, cap: usize, tag: &str| -> (Vec<f64>, Vec<u8>, Vec<f64>) {
        csrplus_par::set_threads(cap);
        let product = a.matmul(&b).expect("conforming shapes").into_vec();
        let config = CsrPlusConfig { precision, ..CsrPlusConfig::with_rank(24) };
        let model = CsrPlusModel::precompute(&transition, &config).expect("precompute succeeds");
        let path = dir.join(format!("model_{tag}.csrp"));
        persist::save_model(&model, &path).expect("model saves");
        let model_bytes = std::fs::read(&path).expect("model readable");
        let s = model.multi_source(&queries).expect("in-bounds queries").into_vec();
        (product, model_bytes, s)
    };

    // Part 1: thread-cap sweep at f64 storage under the detected SIMD
    // dispatch (part 2's SIMD-off legs then double as a scalar-vs-SIMD
    // check against this baseline).
    let mut baseline: Option<(Vec<f64>, Vec<u8>, Vec<f64>)> = None;
    for cap in THREAD_CAPS {
        let (product, model_bytes, s) = run(Precision::F64, cap, &format!("cap{cap}"));
        match &baseline {
            None => baseline = Some((product, model_bytes, s)),
            Some((p0, m0, s0)) => {
                assert_eq!(p0, &product, "matmul diverged at {cap} threads");
                assert_eq!(m0, &model_bytes, "precompute diverged at {cap} threads");
                assert_eq!(s0, &s, "multi_source diverged at {cap} threads");
            }
        }
    }
    let baseline = baseline.expect("part 1 ran");

    // Part 2: SIMD on/off × thread caps × storage precision.  Within a
    // precision every combination must agree bitwise; the f64 SIMD-on
    // results must also match part 1's baseline exactly (same settings).
    for precision in [Precision::F64, Precision::F32] {
        let mut base: Option<(Vec<f64>, Vec<u8>, Vec<f64>)> = None;
        for simd_on in [true, false] {
            simd::set_enabled(simd_on);
            for cap in [1usize, 4] {
                let tag = format!("{}_{}_cap{cap}", precision.name(), simd::active());
                let (product, model_bytes, s) = run(precision, cap, &tag);
                if precision == Precision::F64 && simd_on {
                    assert_eq!(baseline.0, product, "f64 SIMD-on matmul drifted from part 1");
                    assert_eq!(baseline.1, model_bytes, "f64 SIMD-on model drifted from part 1");
                    assert_eq!(baseline.2, s, "f64 SIMD-on query drifted from part 1");
                }
                match &base {
                    None => base = Some((product, model_bytes, s)),
                    Some((p0, m0, s0)) => {
                        assert_eq!(p0, &product, "matmul diverged at {tag}");
                        assert_eq!(m0, &model_bytes, "precompute diverged at {tag}");
                        assert_eq!(s0, &s, "multi_source diverged at {tag}");
                    }
                }
            }
        }
        simd::set_enabled(true);
    }

    std::fs::remove_dir_all(&dir).ok();
}
