//! End-to-end contract for the storage backends: a model saved as a
//! `CSRP` v2 artifact must answer queries **bitwise identically**
//! whether it was eagerly deserialised into owned buffers or
//! memory-mapped off the page cache — at any thread cap.  This is the
//! acceptance property of the mmap path: zero-copy boot may change
//! *where* the factors live, never *what* any query returns.

use csrplus_core::persist::{load_model_with, save_model};
use csrplus_core::{CsrPlusConfig, CsrPlusModel, Precision};
use csrplus_graph::{generators, TransitionMatrix};
use csrplus_store::Backend;

fn fixture() -> (CsrPlusModel, std::path::PathBuf) {
    let graph = generators::erdos_renyi(200, 1600, 0xED6E).unwrap();
    let t = TransitionMatrix::from_graph(&graph);
    let model = CsrPlusModel::precompute(&t, &CsrPlusConfig::with_rank(8)).unwrap();
    let dir = std::env::temp_dir().join("csrplus_store_backend_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("model_{}.csrp", std::process::id()));
    save_model(&model, &path).unwrap();
    (model, path)
}

#[test]
fn mapped_and_owned_backends_answer_bitwise_identically() {
    let (original, path) = fixture();
    let owned = load_model_with(&path, Backend::Owned).unwrap();
    let mapped = load_model_with(&path, Backend::Mmap).unwrap();

    assert!(!owned.is_mapped());
    if cfg!(unix) {
        assert!(mapped.is_mapped(), "the mmap backend must map on unix");
    }

    // The factors themselves are bit-identical across representations,
    // in whichever precision the artifact stores them.
    for (a, b) in [(owned.u(), mapped.u()), (owned.z(), mapped.z())] {
        assert_eq!(a.precision(), b.precision());
        if a.precision() == Precision::F32 {
            assert_eq!(a.as_f32_slice(), b.as_f32_slice());
        } else {
            assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    // Warm multi-source queries agree bitwise at thread caps 1 and 4 —
    // chunk geometry depends only on shape, so parallelism cannot
    // reorder the accumulations either.
    let queries = [3usize, 57, 111, 199];
    let prior = csrplus_par::threads();
    for cap in [1usize, 4] {
        csrplus_par::set_threads(cap);
        let a = original.multi_source(&queries).unwrap();
        let b = owned.multi_source(&queries).unwrap();
        let c = mapped.multi_source(&queries).unwrap();
        assert!(a.approx_eq(&b, 0.0), "owned load diverged at {cap} threads");
        assert!(a.approx_eq(&c, 0.0), "mapped load diverged at {cap} threads");
    }
    csrplus_par::set_threads(prior);

    assert_eq!(original.top_k(3, 10).unwrap(), mapped.top_k(3, 10).unwrap());

    std::fs::remove_file(&path).ok();
}

#[test]
fn env_var_selects_backend() {
    // `Backend::from_env` reads CSRPLUS_STORE; spell out the mapping
    // rather than mutating the process environment from a test.
    assert_eq!(Backend::parse(Some("mmap")), Backend::Mmap);
    assert_eq!(Backend::parse(Some("owned")), Backend::Owned);
    assert_eq!(Backend::parse(Some("auto")), Backend::Auto);
    assert_eq!(Backend::parse(None), Backend::Auto);
    if cfg!(unix) {
        assert_eq!(Backend::Auto.resolved(), Backend::Mmap);
    }
}
