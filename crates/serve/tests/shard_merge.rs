//! Property tests for the scatter-gather merge: for *arbitrary* models,
//! row partitions, and `k`, the coordinator's K-way merge of per-shard
//! top-k heaps equals the single-process top-k — including shards with
//! more `k` than candidates, empty shards, and exact score ties.
//!
//! The merge under test is the pure comparator pipeline both
//! `render::top_k_from_column` and the shard `/shard/topk` route use:
//! (score descending, original id ascending), truncate `k`.

use csrplus_core::{CsrPlusConfig, CsrPlusModel, DenseMatrix};
use csrplus_graph::partition::Reordering;
use proptest::prelude::*;

/// Merge per-shard top-k lists the way the coordinator does.
fn merge_top_k(partials: &[Vec<(usize, f64)>], k: usize) -> Vec<(usize, f64)> {
    let mut best: Vec<(usize, f64)> = partials.iter().flatten().copied().collect();
    best.sort_by(|a, b| {
        b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
    });
    best.truncate(k);
    best
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

        let global = model.top_k_pruned(q, k).unwrap();
        // k > candidates-in-shard and empty shards both fall out of the
        // range API naturally; the merge must not care.
        let partials: Vec<Vec<(usize, f64)>> = partition
            .iter()
            .map(|&(lo, hi)| model.top_k_scan(q, k, Some(lo..hi)).unwrap().hits)
            .collect();
        let merged = merge_top_k(&partials, k);
        prop_assert_eq!(&global, &merged);

        // And the exact bits agree with a full-column rank, the other
        // path a coordinator can answer from (its column cache).
        let columns = model.query_columns(&[q]).unwrap();
        let from_column = csrplus_serve::render::top_k_from_column(&columns[0], q, k);
        let no_diag: Vec<(usize, f64)> = from_column;
        prop_assert_eq!(merged.len(), no_diag.len());
        for (&(na, sa), &(nb, sb)) in merged.iter().zip(&no_diag) {
            prop_assert_eq!(na, nb);
            prop_assert_eq!(sa.to_bits(), sb.to_bits());
        }
    }
}
