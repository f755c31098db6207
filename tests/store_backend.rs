//! End-to-end contract for the storage backends: a model saved as a
//! `CSRP` v2 artifact must answer queries **bitwise identically**
//! whether it was eagerly deserialised into owned buffers or
//! memory-mapped off the page cache — at either storage precision and
//! any thread cap.  This is the acceptance property of the mmap path:
//! zero-copy boot may change *where* the factors live, never *what* any
//! query returns.

use csrplus_core::persist::{load_model_with, save_model};
use csrplus_core::{CsrPlusConfig, CsrPlusModel, Precision};
use csrplus_graph::{generators, TransitionMatrix};
use csrplus_store::Backend;

fn fixture(precision: Precision) -> (CsrPlusModel, std::path::PathBuf) {
    let graph = generators::erdos_renyi(200, 1600, 0xED6E).unwrap();
    let t = TransitionMatrix::from_graph(&graph);
    let config = CsrPlusConfig { precision, ..CsrPlusConfig::with_rank(8) };
    let model = CsrPlusModel::precompute(&t, &config).unwrap();
    assert_eq!(model.precision(), precision);
    let dir = std::env::temp_dir().join("csrplus_store_backend_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("model_{}_{}.csrp", precision.name(), std::process::id()));
    save_model(&model, &path).unwrap();
    (model, path)
}

#[test]
fn mapped_and_owned_backends_answer_bitwise_identically() {
    for precision in [Precision::F64, Precision::F32] {
        let (original, path) = fixture(precision);
        let owned = load_model_with(&path, Backend::Owned).unwrap();
        let mapped = load_model_with(&path, Backend::Mmap).unwrap();

        assert!(!owned.is_mapped());
        if cfg!(unix) {
            assert!(mapped.is_mapped(), "the mmap backend must map on unix");
        }
        // Each load reports the precision its file stores, config included.
        for loaded in [&owned, &mapped] {
            assert_eq!(loaded.precision(), precision);
            assert_eq!(loaded.config(), original.config());
        }

        // The factors themselves are bit-identical across representations,
        // in whichever precision the artifact stores them.
        for (a, b) in [(owned.u(), mapped.u()), (owned.z(), mapped.z())] {
            assert_eq!((a.precision(), b.precision()), (precision, precision));
            if precision == Precision::F32 {
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
            let tag = format!("{} at {cap} threads", precision.name());
            assert!(a.approx_eq(&b, 0.0), "owned load diverged, {tag}");
            assert!(a.approx_eq(&c, 0.0), "mapped load diverged, {tag}");
        }
        csrplus_par::set_threads(prior);

        assert_eq!(original.top_k(3, 10).unwrap(), mapped.top_k(3, 10).unwrap());

        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn auto_backend_resolves_per_platform() {
    // `load_model` opens with `Auto`; what it picks depends only on the
    // platform.
    let expected = if cfg!(unix) { Backend::Mmap } else { Backend::Owned };
    assert_eq!(Backend::Auto.resolved(), expected);
    assert_eq!(Backend::Owned.resolved(), Backend::Owned);
    assert_eq!(Backend::Mmap.resolved(), Backend::Mmap);
}
