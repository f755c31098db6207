//! Retrieval-path integration tests: the norm-pruned similarity join
//! agrees with point similarities on a realistic (skewed) graph.

use csrplus::core::{CsrPlusConfig, CsrPlusModel};
use csrplus::datasets::{generate, DatasetId, Scale};
use csrplus::prelude::*;

fn fb_model() -> (CsrPlusModel, usize) {
    let g = generate(DatasetId::Fb, Scale::Test).unwrap();
    let t = TransitionMatrix::from_graph(&g);
    let model = CsrPlusModel::precompute(&t, &CsrPlusConfig::with_rank(8)).unwrap();
    let n = g.num_nodes();
    (model, n)
}

#[test]
fn similarity_join_consistent_with_top_k() {
    let (model, _) = fb_model();
    // Every pair the join reports above τ must appear in the source
    // node's top-k for sufficiently large k, with the same score.
    let tau = 0.01;
    let joined = model.similarity_join(tau, &MemoryBudget::unlimited()).unwrap();
    assert!(!joined.is_empty(), "threshold {tau} found nothing — graph too sparse?");
    for &(x, y, score) in joined.iter().take(50) {
        let sim = model.similarity(x, y).unwrap();
        assert!((sim - score).abs() < 1e-10);
        assert!(sim >= tau);
    }
    // Join output is symmetric as a set of unordered pairs (S is
    // symmetric up to low-rank noise; both directions must be present).
    let set: std::collections::HashSet<(usize, usize)> =
        joined.iter().map(|&(x, y, _)| (x, y)).collect();
    for &(x, y, _) in joined.iter().take(50) {
        assert!(set.contains(&(y, x)), "({y},{x}) missing though ({x},{y}) present");
    }
}
