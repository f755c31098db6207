//! Accuracy metrics — §4.2.3 of the paper.

use csrplus_linalg::DenseMatrix;

/// `AvgDiff_Q(Ŝ, S) = (1 / (|V|·|Q|)) · Σ_{(i,j)} |Ŝ_{i,j} − S_{i,j}|`
/// over the `n × |Q|` similarity blocks (the measure of Table 3).
///
/// # Panics
/// Panics on shape mismatch or empty matrices.
pub fn avg_diff(estimate: &DenseMatrix, exact: &DenseMatrix) -> f64 {
    assert_eq!(estimate.shape(), exact.shape(), "avg_diff: shape mismatch");
    let (n, q) = estimate.shape();
    assert!(n > 0 && q > 0, "avg_diff: empty matrices");
    let total: f64 =
        estimate.as_slice().iter().zip(exact.as_slice().iter()).map(|(a, b)| (a - b).abs()).sum();
    total / (n as f64 * q as f64)
}

/// Largest absolute entry-wise difference (`‖Ŝ − S‖_max`).
pub fn max_diff(estimate: &DenseMatrix, exact: &DenseMatrix) -> f64 {
    estimate.max_abs_diff(exact)
}

/// Precision@k between two ranked lists of node ids: the fraction of the
/// top-`k` estimated ids that appear in the top-`k` exact ids.  Used by
/// the retrieval-quality extension experiments.
pub fn precision_at_k(estimated: &[usize], exact: &[usize], k: usize) -> f64 {
    if k == 0 {
        return 1.0;
    }
    let est: Vec<usize> = estimated.iter().copied().take(k).collect();
    let truth: std::collections::HashSet<usize> = exact.iter().copied().take(k).collect();
    let hits = est.iter().filter(|id| truth.contains(id)).count();
    hits as f64 / k.min(est.len().max(1)) as f64
}

/// Normalised discounted cumulative gain at `k` between an estimated
/// ranking and graded relevances (`relevance[node]`), the standard
/// ranking-quality measure for retrieval experiments.  1.0 = the
/// estimated order is an ideal ordering of the relevances.
pub fn ndcg_at_k(estimated: &[usize], relevance: &[f64], k: usize) -> f64 {
    let dcg: f64 = estimated
        .iter()
        .take(k)
        .enumerate()
        .map(|(rank, &node)| relevance[node] / ((rank + 2) as f64).log2())
        .sum();
    let mut ideal: Vec<f64> = relevance.to_vec();
    ideal.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
    let idcg: f64 =
        ideal.iter().take(k).enumerate().map(|(rank, rel)| rel / ((rank + 2) as f64).log2()).sum();
    if idcg > 0.0 {
        dcg / idcg
    } else {
        1.0 // no relevant items at all: any order is vacuously ideal
    }
}

/// The exact score mass of a model's top-`k` ([`mass_at_k`]) next to the
/// most any `k` ids could hold.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MassAtK {
    /// Σ exact score over the model's top-`k` ids.
    pub model: f64,
    /// Σ exact score over the exact top-`k` ids.
    pub ideal: f64,
}

impl MassAtK {
    /// `model / ideal`: 1.0 when the model's top-`k` holds as much exact
    /// score as the exact top-`k` does.
    pub fn share(self) -> f64 {
        self.model / self.ideal
    }
}

/// Sums a sample's masses, so that its share is a ratio of sums.  A mean
/// of per-query shares would be NaN as soon as one query's exact top-`k`
/// holds no mass at all.
impl std::iter::Sum for MassAtK {
    fn sum<I: Iterator<Item = MassAtK>>(iter: I) -> MassAtK {
        iter.fold(MassAtK::default(), |a, b| MassAtK {
            model: a.model + b.model,
            ideal: a.ideal + b.ideal,
        })
    }
}

/// Top-`k` exact-mass share of one ranked answer: the exact scores of the
/// first `k` of `model_ids`, next to the `k` largest scores of
/// `exact_column` (indexed by node id).  Unlike [`avg_diff`], it sees only
/// the entries a top-`k` answer returns, where the low-rank term decides
/// the order.  Give the query node's own entry as 0 when the ranking
/// excludes it, as [`CsrPlusModel::top_k`](crate::CsrPlusModel::top_k)
/// does.
pub fn mass_at_k(model_ids: &[usize], exact_column: &[f64], k: usize) -> MassAtK {
    let model = model_ids.iter().take(k).map(|&id| exact_column[id]).sum();
    let ideal = crate::topk::select_top_k(exact_column.iter().copied().enumerate(), k)
        .iter()
        .map(|e| e.1)
        .sum();
    MassAtK { model, ideal }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_diff_known_value() {
        let a = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = DenseMatrix::from_vec(2, 2, vec![1.5, 2.0, 2.0, 4.0]).unwrap();
        // |diffs| = [0.5, 0, 1, 0] → mean = 1.5/4
        assert!((avg_diff(&a, &b) - 0.375).abs() < 1e-15);
        assert_eq!(avg_diff(&a, &a), 0.0);
    }

    #[test]
    fn avg_diff_is_symmetric() {
        let a = DenseMatrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]).unwrap();
        let b = DenseMatrix::from_vec(1, 3, vec![0.0, 5.0, 3.0]).unwrap();
        assert_eq!(avg_diff(&a, &b), avg_diff(&b, &a));
    }

    #[test]
    fn max_diff_finds_worst_entry() {
        let a = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = DenseMatrix::from_vec(2, 2, vec![1.0, 0.0, 3.0, 4.5]).unwrap();
        assert_eq!(max_diff(&a, &b), 2.0);
    }

    #[test]
    fn ndcg_basics() {
        let relevance = [0.0, 3.0, 1.0, 2.0];
        // Ideal order: 1, 3, 2 (then 0).
        assert!((ndcg_at_k(&[1, 3, 2], &relevance, 3) - 1.0).abs() < 1e-12);
        // Worst top-3 order of the relevant items still scores < 1.
        let worst = ndcg_at_k(&[2, 3, 1], &relevance, 3);
        assert!(worst < 1.0 && worst > 0.5);
        // Retrieving only the irrelevant node scores 0.
        assert_eq!(ndcg_at_k(&[0], &relevance, 1), 0.0);
        // All-zero relevance is vacuously perfect.
        assert_eq!(ndcg_at_k(&[0, 1], &[0.0, 0.0], 2), 1.0);
    }

    #[test]
    fn ndcg_monotone_in_better_placement() {
        let relevance = [1.0, 0.0, 0.0, 5.0];
        let good = ndcg_at_k(&[3, 0, 1], &relevance, 3);
        let bad = ndcg_at_k(&[1, 0, 3], &relevance, 3);
        assert!(good > bad);
    }

    #[test]
    fn mass_at_k_compares_against_the_exact_top_k() {
        let exact = [0.0, 0.5, 0.25, 0.125, 1.0];
        let m = mass_at_k(&[4, 1, 0], &exact, 2);
        assert_eq!(m, MassAtK { model: 1.5, ideal: 1.5 });
        assert_eq!(m.share(), 1.0);
        assert_eq!(mass_at_k(&[3, 2], &exact, 2), MassAtK { model: 0.375, ideal: 1.5 });
        // A query with no exact mass does not make the sample's share NaN.
        let empty = mass_at_k(&[0, 1], &[0.0; 3], 2);
        assert_eq!(empty, MassAtK::default());
        let sample: MassAtK = [m, empty].into_iter().sum();
        assert_eq!(sample.share(), 1.0);
    }

    #[test]
    fn precision_at_k_basics() {
        assert_eq!(precision_at_k(&[1, 2, 3], &[3, 2, 1], 3), 1.0);
        assert_eq!(precision_at_k(&[1, 2, 3], &[4, 5, 6], 3), 0.0);
        assert!((precision_at_k(&[1, 2, 9], &[1, 2, 3], 3) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(precision_at_k(&[], &[], 0), 1.0);
    }
}
