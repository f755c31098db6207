//! Top-10 quality against exact CoSimRank, by a measure that can fail.
//!
//! `avg_diff` cannot see the low-rank term: almost every entry of a
//! column is tiny, so the identity-only answer `[I]_{*,q}` (the low-rank
//! term dropped) scores well on it.  The top-10 exact-mass share
//! ([`mass_at_k`]) sees only the entries a top-10 answer returns, and
//! there the low-rank term decides the order.  So each graph's model must
//! beat the identity-only answer's share by a stated margin, and a model
//! whose `Z` is zeroed, which answers exactly the identity, must fail the
//! same check.

use csrplus_core::metrics::{mass_at_k, MassAtK};
use csrplus_core::{exact, CsrPlusConfig, CsrPlusModel};
use csrplus_datasets::{DatasetId, Scale};
use csrplus_graph::generators::sbm::{stochastic_block_model, SbmConfig};
use csrplus_graph::TransitionMatrix;
use csrplus_linalg::DenseMatrix;

const K: usize = 10;

/// How far above the identity-only share a model must reach.  Measured
/// on the samples below, model against identity: 0.923 against 0.307 on
/// the SBM at rank 20, and 0.788 against 0.606 on test-scale FB at the
/// default rank 5.
const MARGIN: f64 = 0.15;

/// Exact columns of every `step`-th node, each with the query's own entry
/// zeroed, since a top-k answer never returns the query itself.
fn exact_columns(t: &TransitionMatrix, step: usize) -> Vec<(usize, Vec<f64>)> {
    (0..t.n())
        .step_by(step)
        .map(|q| {
            let mut column = exact::single_source(t, q, 0.6, 1e-8);
            column[q] = 0.0;
            (q, column)
        })
        .collect()
}

/// The sample's mass@10 share of the ranking `top_ids(q)`.
fn share(columns: &[(usize, Vec<f64>)], top_ids: impl Fn(usize) -> Vec<usize>) -> f64 {
    columns.iter().map(|(q, column)| mass_at_k(&top_ids(*q), column, K)).sum::<MassAtK>().share()
}

fn model_share(model: &CsrPlusModel, columns: &[(usize, Vec<f64>)]) -> f64 {
    share(columns, |q| model.top_k(q, K).unwrap().into_iter().map(|(id, _)| id).collect())
}

/// `model` with its low-rank term `c·Z·[U]_{q,*}ᵀ` zeroed.
fn identity_only(model: &CsrPlusModel) -> CsrPlusModel {
    let (n, r) = (model.n(), model.rank());
    CsrPlusModel::from_parts(
        *model.config(),
        n,
        model.u().to_dense(),
        DenseMatrix::zeros(n, r),
        model.sigma().to_vec(),
        model.p().clone(),
        model.h0().clone(),
    )
    .unwrap()
}

/// Checks the model built from `t` at `config` against the identity-only
/// answer, whose top-10 ties every score at 0 and so is the ten lowest
/// ids other than the query.
fn assert_beats_identity(name: &str, t: &TransitionMatrix, config: &CsrPlusConfig, step: usize) {
    let columns = exact_columns(t, step);
    let identity = share(&columns, |q| (0..t.n()).filter(|&id| id != q).take(K).collect());
    let passes = |model: &CsrPlusModel| model_share(model, &columns) >= identity + MARGIN;

    let model = CsrPlusModel::precompute(t, config).unwrap();
    assert!(
        passes(&model),
        "{name}: mass@{K} {:.3} is not {MARGIN} above the identity-only {identity:.3}",
        model_share(&model, &columns)
    );
    let zeroed = identity_only(&model);
    assert_eq!(model_share(&zeroed, &columns), identity);
    assert!(!passes(&zeroed), "{name}: the check passes a model without its low-rank term");
}

/// The planted-partition graph of `examples/community_retrieval.rs`, at
/// the rank that example uses.
#[test]
fn sbm_mass_at_10_beats_the_identity_answer() {
    let sbm = stochastic_block_model(&SbmConfig {
        block_size: 60,
        blocks: 4,
        p_in: 0.25,
        p_out: 0.01,
        seed: 2024,
    })
    .unwrap();
    let t = TransitionMatrix::from_graph(&sbm.graph);
    assert_beats_identity("SBM", &t, &CsrPlusConfig::with_rank(20), 4);
}

#[test]
fn fb_mass_at_10_beats_the_identity_answer() {
    let t = TransitionMatrix::from_graph(
        &csrplus_datasets::generate(DatasetId::Fb, Scale::Test).unwrap(),
    );
    assert_beats_identity("FB", &t, &CsrPlusConfig::default(), 4);
}
