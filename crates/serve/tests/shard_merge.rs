//! Property tests for the scatter-gather merge: for *arbitrary* models,
//! row partitions, and `k`, the coordinator's merge of per-shard top-k
//! lists equals the single-process top-k — including shards with more
//! `k` than candidates, empty shards, and exact score ties.
//!
//! Each shard's list and the merge are built with core's one selection,
//! `csrplus_core::topk::select_top_k`, exactly as the `/shard/topk` route
//! and the coordinator call it.

use csrplus_core::topk::select_top_k;
use csrplus_core::{CsrPlusConfig, CsrPlusModel, DenseMatrix};
use csrplus_graph::partition::Reordering;
use proptest::prelude::*;

/// One shard's `/shard/topk` list: its internal rows `lo..hi` of the
/// query's column, in original ids, without the query node.
fn shard_top_k(
    model: &CsrPlusModel,
    column: &[f64],
    q: usize,
    k: usize,
    lo: usize,
    hi: usize,
) -> Vec<(usize, f64)> {
    select_top_k(
        (lo..hi)
            .map(|row| model.original_id(row))
            .map(|id| (id, column[id]))
            .filter(|&(id, _)| id != q),
        k,
    )
}

fn bits(top: &[(usize, f64)]) -> Vec<(usize, u64)> {
    top.iter().map(|&(i, s)| (i, s.to_bits())).collect()
}

/// A model with deliberately collision-heavy factors: entries drawn from
/// a tiny set so duplicate scores (the tie-break regression surface) are
/// common, plus an arbitrary node relabeling.
fn arb_model() -> impl Strategy<Value = CsrPlusModel> {
    (2usize..12, 1usize..3).prop_flat_map(|(n, r)| {
        let r = r.min(n);
        // Entries quantised to quarter steps so duplicate scores (the
        // tie-break regression surface) occur constantly; one draw holds
        // both U (first half) and Z (second half).
        let entries = proptest::collection::vec(0u8..8, 2 * n * r);
        // The compat shim has no prop_shuffle: derive a permutation by
        // arg-sorting random keys (ties broken by id keep it a bijection).
        let keys = proptest::collection::vec(0u32..1000, n);
        (Just(n), Just(r), entries, keys).prop_map(|(n, r, entries, keys)| {
            let vals: Vec<f64> = entries.iter().map(|&q| f64::from(q) * 0.25 - 1.0).collect();
            let (u, z) = vals.split_at(n * r);
            let mut order: Vec<u32> = (0..n as u32).collect();
            order.sort_by_key(|&i| (keys[i as usize], i));
            let config = CsrPlusConfig { rank: r, ..Default::default() };
            let model = CsrPlusModel::from_parts(
                config,
                n,
                DenseMatrix::from_vec(n, r, u.to_vec()).unwrap(),
                DenseMatrix::from_vec(n, r, z.to_vec()).unwrap(),
                vec![1.0; r],
                DenseMatrix::identity(r),
                DenseMatrix::identity(r),
            )
            .unwrap();
            model.with_permutation(order, Reordering::DegreeSort).unwrap()
        })
    })
}

/// An arbitrary partition of `0..n` into contiguous ranges, empty ranges
/// included.
fn arb_partition(n: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec(0usize..=n, 0..4).prop_map(move |mut cuts| {
        cuts.push(0);
        cuts.push(n);
        cuts.sort_unstable();
        cuts.windows(2).map(|w| (w[0], w[1])).collect()
    })
}

proptest! {
    #[test]
    fn merged_shard_top_k_equals_single_process(
        model in arb_model(),
        cuts in arb_partition(12),
        q_seed in 0usize..12,
        k in 0usize..16,
    ) {
        let n = model.n();
        let q = q_seed % n;
        // Clamp the partition (drawn for the max n) onto this model;
        // clamping preserves order, so the ranges still tile 0..n.
        let partition: Vec<(usize, usize)> =
            cuts.iter().map(|&(lo, hi)| (lo.min(n), hi.min(n))).collect();
        prop_assert!(partition.last().is_some_and(|&(_, hi)| hi == n));

        let global = model.top_k(q, k).unwrap();
        // k > candidates-in-shard and empty shards both fall out of the
        // row ranges naturally; the merge must not care.  The coordinator
        // folds each shard's list into the running best as it arrives.
        let column = &model.query_columns(&[q]).unwrap()[0];
        let merged = partition.iter().fold(Vec::new(), |best, &(lo, hi)| {
            select_top_k(best.into_iter().chain(shard_top_k(&model, column, q, k, lo, hi)), k)
        });
        prop_assert_eq!(bits(&global), bits(&merged));
    }
}
