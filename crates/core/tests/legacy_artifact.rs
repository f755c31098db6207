//! Artifacts from older writers keep loading and answering bit for bit.
//!
//! `fixtures/fig1_rank3_legacy.csrp` is the paper's Figure-1 graph
//! precomputed at rank 3 by `csrplus precompute --rank 3`, from a writer
//! that also stored `Z`'s row-norm tables as the sections `zn.norm`,
//! `zn.id` and `zs`.  The current reader ignores those sections.  Loaded
//! owned or memory-mapped, the fixture must answer exactly as the same
//! model re-saved by this build and reloaded.

use csrplus_core::persist::{load_model_with, save_model};
use csrplus_core::CsrPlusModel;
use csrplus_store::{Artifact, Backend};
use std::path::PathBuf;

const LEGACY_SECTIONS: [&str; 3] = ["zn.norm", "zn.id", "zs"];

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/fig1_rank3_legacy.csrp")
}

/// Every `similarity`, `top_k` and `query_columns` answer of `m`, as bits.
fn answers(m: &CsrPlusModel) -> Vec<u64> {
    let n = m.n();
    let mut out = Vec::new();
    for a in 0..n {
        out.extend((0..n).map(|b| m.similarity(a, b).unwrap().to_bits()));
        for k in [1, 3, usize::MAX] {
            let top = m.top_k(a, k).unwrap();
            out.push(top.len() as u64);
            out.extend(top.into_iter().flat_map(|(id, s)| [id as u64, s.to_bits()]));
        }
    }
    let nodes: Vec<usize> = (0..n).chain([3, 1]).collect();
    out.extend(m.query_columns(&nodes).unwrap().concat().iter().map(|v| v.to_bits()));
    out
}

#[test]
fn legacy_artifact_answers_like_its_resaved_model() {
    let legacy = std::fs::read(fixture()).unwrap();
    let artifact = Artifact::from_bytes(&legacy).unwrap();
    for name in LEGACY_SECTIONS {
        assert!(artifact.section(name).is_some(), "fixture lacks legacy section {name}");
    }

    let owned = load_model_with(fixture(), Backend::Owned).unwrap();
    let mapped = load_model_with(fixture(), Backend::Mmap).unwrap();
    assert!(!owned.is_mapped());
    if cfg!(unix) {
        assert!(mapped.is_mapped(), "the mmap backend must map on unix");
    }
    // Known values of this model: S[b,d] and b's top hit.
    assert!((owned.similarity(1, 3).unwrap() - 0.4755).abs() < 1e-4);
    let top = owned.top_k(1, 1).unwrap();
    assert_eq!(top[0].0, 4);
    assert!((top[0].1 - 0.4853).abs() < 1e-4);

    let path =
        std::env::temp_dir().join(format!("csrplus_legacy_resave_{}.csrp", std::process::id()));
    save_model(&owned, &path).unwrap();
    let resaved = Artifact::from_bytes(&std::fs::read(&path).unwrap()).unwrap();
    for name in LEGACY_SECTIONS {
        assert!(resaved.section(name).is_none(), "this build still writes {name}");
    }
    let reloaded = load_model_with(&path, Backend::Owned).unwrap();
    std::fs::remove_file(&path).ok();

    let want = answers(&reloaded);
    assert_eq!(answers(&owned), want, "owned legacy load diverged");
    assert_eq!(answers(&mapped), want, "mapped legacy load diverged");
}
