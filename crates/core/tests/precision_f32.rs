//! End-to-end coverage of the f32-storage precision mode.
//!
//! Lives in its own integration-test binary because the storage
//! precision is a process-global: flipping it here cannot race the
//! in-crate unit tests, and the two tests below share one `#[test]` so
//! the flip/restore pair brackets everything deterministically.
//!
//! What must hold in f32 mode:
//! * `precompute` demotes `U`/`Z` to f32 storage (accumulation stays
//!   f64 via the mixed kernels);
//! * persistence round-trips through v2 keep the f32 dtype on disk and
//!   answer bitwise-identically across owned and mmap backends;
//! * the legacy v1 writer widens losslessly, and the widened-f64 model
//!   answers bitwise-identically to the mixed-kernel path (the f32
//!   kernels use the same accumulation order on widened values);
//! * accuracy vs the f64 model stays within a few ulps-of-f32 AvgDiff.

use csrplus_core::metrics::avg_diff;
use csrplus_core::persist::{load_model_with, read_model, save_model, write_model, write_model_v1};
use csrplus_core::{set_storage_precision, CsrPlusConfig, CsrPlusModel, Precision};
use csrplus_graph::{generators, TransitionMatrix};
use csrplus_store::{Artifact, Backend, DType};

#[test]
fn f32_mode_end_to_end() {
    let graph = generators::erdos_renyi(300, 2400, 0xF32).unwrap();
    let t = TransitionMatrix::from_graph(&graph);
    let cfg = CsrPlusConfig::with_rank(12);
    let queries: Vec<usize> = vec![3, 77, 154, 298];

    // Reference: full f64 storage.
    set_storage_precision(Precision::F64);
    let m64 = CsrPlusModel::precompute(&t, &cfg).unwrap();
    assert_eq!(m64.u().precision(), Precision::F64);
    let a64 = m64.multi_source(&queries).unwrap();

    // Same graph, f32 storage.
    set_storage_precision(Precision::F32);
    let m32 = CsrPlusModel::precompute(&t, &cfg).unwrap();
    // Restore the global immediately — everything below must depend only
    // on the models and files, never on the process setting.
    set_storage_precision(Precision::F64);

    assert_eq!(m32.u().precision(), Precision::F32);
    assert_eq!(m32.z().precision(), Precision::F32);
    let a32 = m32.multi_source(&queries).unwrap();

    // Storage rounding is the only error source; r=12 dot products of
    // O(1) values keep AvgDiff near f32 epsilon, far under the paper's
    // reported 1e-4 regime.
    let diff = avg_diff(&a32, &a64);
    assert!(diff > 0.0, "f32 storage must actually round something");
    assert!(diff < 1e-6, "AvgDiff vs f64 too large: {diff:e}");

    // Point lookups and top-k run off the same stored values.
    let s = m32.similarity(queries[1], queries[0]).unwrap();
    assert_eq!(s, a32.get(queries[1], 0), "similarity must match the query column");
    let top = m32.top_k(queries[0], 5).unwrap();
    assert_eq!(top.len(), 5);

    // v2 round-trip: the on-disk dtype is f32 and both backends answer
    // bitwise-identically to the in-memory model.
    let mut buf = Vec::new();
    write_model(&m32, &mut buf).unwrap();
    let art = Artifact::from_bytes(&buf).unwrap();
    assert_eq!(art.section("u").unwrap().dtype, DType::F32);
    assert_eq!(art.section("z").unwrap().dtype, DType::F32);
    assert_eq!(art.section("p").unwrap().dtype, DType::F64, "r×r stays f64");

    let loaded = read_model(buf.as_slice()).unwrap();
    assert_eq!(loaded.u().precision(), Precision::F32);
    assert!(loaded.multi_source(&queries).unwrap().approx_eq(&a32, 0.0));

    let dir = std::env::temp_dir().join("csrplus_precision_f32_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("model_{}.csrp", std::process::id()));
    save_model(&m32, &path).unwrap();
    let owned = load_model_with(&path, Backend::Owned).unwrap();
    let mapped = load_model_with(&path, Backend::Mmap).unwrap();
    assert_eq!(owned.u().precision(), Precision::F32);
    if cfg!(unix) {
        assert!(mapped.is_mapped(), "the mmap backend must map on unix");
        assert_eq!(mapped.u().precision(), Precision::F32);
    }
    assert!(owned.multi_source(&queries).unwrap().approx_eq(&a32, 0.0));
    assert!(mapped.multi_source(&queries).unwrap().approx_eq(&a32, 0.0));
    std::fs::remove_file(&path).ok();

    // v1 widens to f64 losslessly; the widened model runs the pure-f64
    // kernels, which share their accumulation order with the mixed ones,
    // so answers stay bitwise-identical.
    let mut v1 = Vec::new();
    write_model_v1(&m32, &mut v1).unwrap();
    let widened = read_model(v1.as_slice()).unwrap();
    assert_eq!(widened.u().precision(), Precision::F64);
    for (i, (&w, &s)) in
        widened.u().as_slice().iter().zip(m32.u().as_f32_slice().iter()).enumerate()
    {
        assert_eq!(w, f64::from(s), "widened U diverges at flat index {i}");
    }
    assert!(widened.multi_source(&queries).unwrap().approx_eq(&a32, 0.0));
}
