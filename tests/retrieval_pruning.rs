//! Retrieval-path integration tests: pruned top-k and the similarity
//! join agree with brute force on realistic (skewed) graphs, and the
//! pruning actually skips work.

use csrplus::core::{CsrPlusConfig, CsrPlusModel};
use csrplus::datasets::{generate, DatasetId, Scale};
use csrplus::graph::sample::sample_queries;
use csrplus::prelude::*;

fn fb_model() -> (CsrPlusModel, usize) {
    let g = generate(DatasetId::Fb, Scale::Test).unwrap();
    let t = TransitionMatrix::from_graph(&g);
    let model = CsrPlusModel::precompute(&t, &CsrPlusConfig::with_rank(8)).unwrap();
    let n = g.num_nodes();
    (model, n)
}

#[test]
fn pruned_top_k_agrees_with_naive_on_social_graph() {
    let (model, n) = fb_model();
    let g = generate(DatasetId::Fb, Scale::Test).unwrap();
    for &q in sample_queries(&g, 12, 3).iter() {
        let naive = model.top_k(q, 10).unwrap();
        let pruned = model.top_k_pruned(q, 10).unwrap();
        assert_eq!(naive.len(), pruned.len());
        for (a, b) in naive.iter().zip(pruned.iter()) {
            assert_eq!(a.0, b.0, "q={q}");
            assert!((a.1 - b.1).abs() < 1e-10);
        }
    }
    let _ = n;
}

#[test]
fn pruning_skips_candidates_on_skewed_norms() {
    let (model, n) = fb_model();
    let g = generate(DatasetId::Fb, Scale::Test).unwrap();
    let queries = sample_queries(&g, 20, 4);
    let mut total_scanned = 0usize;
    for &q in &queries {
        let scanned = model.top_k_scan(q, 5, None).unwrap().scanned;
        assert!(scanned <= n);
        total_scanned += scanned;
    }
    let avg = total_scanned as f64 / queries.len() as f64;
    // A BA-style social graph has heavy-tailed Z norms: the average scan
    // should clearly undercut the full candidate set.
    assert!(avg < 0.9 * n as f64, "pruning ineffective: avg scan {avg:.0} of n={n}");
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
