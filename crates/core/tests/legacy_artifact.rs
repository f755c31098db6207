//! Artifacts from older writers keep loading and answering bit for bit.
//!
//! `fixtures/fig1_rank3_legacy.csrp` is the paper's Figure-1 graph
//! precomputed at rank 3 by `csrplus precompute --rank 3`, from a writer
//! that also stored `Z`'s row-norm tables as the sections `zn.norm`,
//! `zn.id` and `zs`.  The current reader ignores those sections.  Loaded
//! owned or memory-mapped, the fixture must answer exactly as the same
//! model re-saved by this build and reloaded.
//!
//! `fixtures/fig1_rank3_lanczos.csrp` is the same graph at rank 3 from
//! `csrplus precompute --rank 3 --backend lanczos`, a build that offered
//! a Golub–Kahan–Lanczos SVD next to the randomized one.  Its header
//! carries SVD-backend tag 1.  It loads, and answers exactly as its
//! re-saved model (tag 0) does.

use csrplus_core::persist::{load_model_with, save_model};
use csrplus_core::CsrPlusModel;
use csrplus_store::{Artifact, Backend};
use std::path::{Path, PathBuf};

const LEGACY_SECTIONS: [&str; 3] = ["zn.norm", "zn.id", "zs"];

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
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

/// Loads `path` owned and memory-mapped, checks the model's known values,
/// and asserts both loads answer bit for bit as the model re-saved by
/// this build and reloaded.  Returns the re-saved artifact's bytes.
fn answers_like_its_resaved_model(path: &Path) -> Vec<u8> {
    let owned = load_model_with(path, Backend::Owned).unwrap();
    let mapped = load_model_with(path, Backend::Mmap).unwrap();
    assert!(!owned.is_mapped());
    if cfg!(unix) {
        assert!(mapped.is_mapped(), "the mmap backend must map on unix");
    }
    // Known values of this model: S[b,d] and b's top hit.
    assert!((owned.similarity(1, 3).unwrap() - 0.4755).abs() < 1e-4);
    let top = owned.top_k(1, 1).unwrap();
    assert_eq!(top[0].0, 4);
    assert!((top[0].1 - 0.4853).abs() < 1e-4);

    let stem = path.file_stem().unwrap().to_string_lossy();
    let resaved_path =
        std::env::temp_dir().join(format!("csrplus_{stem}_resave_{}.csrp", std::process::id()));
    save_model(&owned, &resaved_path).unwrap();
    let resaved = std::fs::read(&resaved_path).unwrap();
    let reloaded = load_model_with(&resaved_path, Backend::Owned).unwrap();
    std::fs::remove_file(&resaved_path).ok();

    let want = answers(&reloaded);
    assert_eq!(answers(&owned), want, "owned load of {stem} diverged");
    assert_eq!(answers(&mapped), want, "mapped load of {stem} diverged");
    resaved
}

#[test]
fn legacy_artifact_answers_like_its_resaved_model() {
    let legacy = std::fs::read(fixture("fig1_rank3_legacy.csrp")).unwrap();
    let artifact = Artifact::from_bytes(&legacy).unwrap();
    for name in LEGACY_SECTIONS {
        assert!(artifact.section(name).is_some(), "fixture lacks legacy section {name}");
    }

    let resaved = answers_like_its_resaved_model(&fixture("fig1_rank3_legacy.csrp"));
    let resaved = Artifact::from_bytes(&resaved).unwrap();
    for name in LEGACY_SECTIONS {
        assert!(resaved.section(name).is_none(), "this build still writes {name}");
    }
}

/// The `meta` section's SVD-backend tag of an artifact.
fn svd_tag(bytes: &[u8]) -> u64 {
    Artifact::from_bytes(bytes).unwrap().decode_u64s("meta").unwrap()[5]
}

#[test]
fn lanczos_tagged_artifact_answers_like_its_resaved_model() {
    let tagged = std::fs::read(fixture("fig1_rank3_lanczos.csrp")).unwrap();
    assert_eq!(svd_tag(&tagged), 1, "the fixture must carry the Lanczos tag");

    let resaved = answers_like_its_resaved_model(&fixture("fig1_rank3_lanczos.csrp"));
    assert_eq!(svd_tag(&resaved), 0, "this build writes the randomized tag");
}
