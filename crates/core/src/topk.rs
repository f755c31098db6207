//! Top-`k` selection: the one ranking routine behind every top-k answer.
//!
//! A top-k answer of CSR+ is a selection over the column
//! `[S]_{*,q} = [Iₙ]_{*,q} + c·Z·[U]_{q,*}ᵀ` (Algorithm 1 line 7).
//! [`CsrPlusModel::top_k`](crate::CsrPlusModel::top_k), the server's
//! `/topk` and `/shard/topk` routes and the scatter-gather coordinator's
//! per-shard merge all rank through [`select_top_k`], so every path
//! orders candidates identically, score bit for score bit.

use std::cmp::Ordering;

/// Candidates buffered past `k` before the buffer is cut back to the best
/// `k`, for small `k`.  Larger `k` buffers `k` more, so every cut costs
/// `O(k)` and happens at most once per `k` accepted candidates.
const MIN_SLACK: usize = 32;

/// `k` is caller-controlled (a request parameter on the server), so the
/// up-front allocation is capped; the buffer grows past it on demand.
const MAX_PREALLOC: usize = 4096;

/// The ranking order: `Less` sorts first and is better.  Descending
/// score, NaN after every number, then ascending id.  `-0.0` and `0.0`
/// are equal scores and fall back to the id.  Over distinct ids this is a
/// strict total order, so the top-`k` set and its order are unique.
fn rank_order(a: &(usize, f64), b: &(usize, f64)) -> Ordering {
    let by_score = match b.1.partial_cmp(&a.1) {
        Some(o) => o,
        // At least one NaN: a NaN ranks after a number, two NaNs tie.
        None => a.1.is_nan().cmp(&b.1.is_nan()),
    };
    by_score.then(a.0.cmp(&b.0))
}

/// The best `k` of `scored`, best first: descending score with NaN after
/// every number, then ascending id.  Ids must be distinct; they may
/// arrive in any order.
///
/// The result is bitwise equal to sorting every candidate and keeping the
/// first `k`, at `O(n + k log k)` rather than `O(n log n)` for `n`
/// candidates.  A candidate enters a buffer only if it beats the `k`-th
/// best as of the last cut; once the buffer holds `k + max(k, 32)` it is
/// cut back to its best `k` with one `select_nth_unstable_by`.  Almost
/// every candidate fails the threshold on one f64 compare, so the scan
/// is branch-predictable.
pub fn select_top_k(scored: impl IntoIterator<Item = (usize, f64)>, k: usize) -> Vec<(usize, f64)> {
    if k == 0 {
        return Vec::new();
    }
    let cap = k.saturating_add(k.max(MIN_SLACK));
    let mut top: Vec<(usize, f64)> = Vec::with_capacity(cap.min(MAX_PREALLOC));
    // The k-th best as of the last cut.  Before the first cut it is the
    // worst possible entry, a NaN score at the largest id, which every
    // candidate beats.
    let mut floor = (usize::MAX, f64::NAN);
    for cand in scored {
        // A tie with the floor loses on a larger id, which is every tie
        // of an ascending-id stream: columns of equal scores (an
        // all-zero column) reject as cheaply as lower ones.
        if cand.1 < floor.1 || (cand.1 == floor.1 && cand.0 > floor.0) {
            continue;
        }
        if cand.1 > floor.1 || rank_order(&cand, &floor) == Ordering::Less {
            top.push(cand);
            if top.len() == cap {
                top.select_nth_unstable_by(k - 1, rank_order);
                top.truncate(k);
                floor = top[k - 1];
            }
        }
    }
    if top.len() > k {
        top.select_nth_unstable_by(k - 1, rank_order);
        top.truncate(k);
    }
    top.sort_unstable_by(rank_order);
    top
}

/// Top-`k` over a similarity column indexed by node id, excluding the
/// query node `q`: [`select_top_k`] over `(id, column[id])`.
pub fn top_k_from_column(column: &[f64], q: usize, k: usize) -> Vec<(usize, f64)> {
    select_top_k(column.iter().copied().enumerate().filter(|&(i, _)| i != q), k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference: sort everything, keep the first `k`.
    fn full_sort(scored: &[(usize, f64)], k: usize) -> Vec<(usize, f64)> {
        let mut all = scored.to_vec();
        all.sort_by(rank_order);
        all.truncate(k);
        all
    }

    fn bits(top: &[(usize, f64)]) -> Vec<(usize, u64)> {
        top.iter().map(|&(i, s)| (i, s.to_bits())).collect()
    }

    #[test]
    fn column_top_k_excludes_query_sorts_and_tie_breaks() {
        let col = [0.5, 9.0, 0.25, 0.5, 0.75];
        assert_eq!(top_k_from_column(&col, 1, 3), vec![(4, 0.75), (0, 0.5), (3, 0.5)]);
        assert_eq!(top_k_from_column(&col, 1, 0), vec![]);
        assert_eq!(top_k_from_column(&col, 1, 10).len(), 4);
        assert_eq!(top_k_from_column(&[], 0, usize::MAX), vec![]);
        let zeros: Vec<(usize, f64)> = [0, 1, 2, 4, 5].map(|i| (i, 0.0)).to_vec();
        assert_eq!(top_k_from_column(&[0.0; 100], 3, 5), zeros);
    }

    #[test]
    fn rank_order_puts_nan_last_and_signed_zeros_level() {
        assert_eq!(rank_order(&(5, 1.0), &(0, f64::NAN)), Ordering::Less);
        assert_eq!(rank_order(&(0, f64::NAN), &(5, f64::NEG_INFINITY)), Ordering::Greater);
        assert_eq!(rank_order(&(0, f64::NAN), &(5, f64::NAN)), Ordering::Less);
        assert_eq!(rank_order(&(2, -0.0), &(1, 0.0)), Ordering::Greater);
        assert_eq!(rank_order(&(1, 0.5), &(2, 0.5)), Ordering::Less);
    }

    /// Scores that stress the comparator: signed zeros, infinities, NaN,
    /// subnormals and a few ordinary values.
    const SPECIAL: [f64; 10] =
        [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 5e-324, 1e300, 1.0, 0.5, -3.0];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Streams of up to 400 candidates cross many buffer cuts at the
        /// small `k`, with exact ties straddling each cut.
        #[test]
        fn selection_equals_a_full_sort(
            n in 0usize..400,
            pool in proptest::collection::vec(0usize..SPECIAL.len(), 6),
            picks in proptest::collection::vec(0usize..6, 400),
            keys in proptest::collection::vec(0u32..1000, 400),
        ) {
            // Heavy ties: every score is one of six pooled values.
            let ascending: Vec<(usize, f64)> =
                (0..n).map(|i| (i, SPECIAL[pool[picks[i]]])).collect();
            // Permuted ids: arg-sort random keys (ties broken by id).
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&i| (keys[i], i));
            let permuted: Vec<(usize, f64)> = order.iter().map(|&i| ascending[i]).collect();
            for stream in [&ascending, &permuted] {
                for k in [0, 1, 10, n.saturating_sub(1), n, n + 5, usize::MAX] {
                    prop_assert_eq!(
                        bits(&select_top_k(stream.iter().copied(), k)),
                        bits(&full_sort(stream, k)),
                        "n {} k {}", n, k
                    );
                }
            }
        }
    }
}
