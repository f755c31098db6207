//! Exact CoSimRank references.
//!
//! Three independent ways of computing the true fixed point of
//! `S = c·QᵀSQ + Iₙ`, used as ground truth for Table 3's `AvgDiff` and to
//! cross-validate CSR+ and every baseline:
//!
//! * [`single_source`] / [`multi_source`] — per-query recursion using only
//!   sparse matvecs: `[S_K]·v = v + c·Qᵀ(S_{K-1}·(Q·v))`, i.e. `2K` matvecs
//!   per query and `O(n)` live memory.  Scales to large graphs.
//! * [`all_pairs_iterative`] — the dense fixed-point iteration
//!   `S ← c·Qᵀ(SQ) + Iₙ` (`O(n²)` memory; small graphs).
//! * [`all_pairs_kronecker_solve`] — Li et al.'s closed form Eq. (5),
//!   `vec(S) = (I_{n²} − c(Q⊗Q)ᵀ)⁻¹ vec(Iₙ)`, solved by LU.  `O(n⁴)`
//!   memory: tiny graphs only, but entirely independent of any iteration.

use crate::config::linear_iterations;
use csrplus_graph::TransitionMatrix;
use csrplus_linalg::kron::kron;
use csrplus_linalg::lu::Lu;
use csrplus_linalg::{DenseMatrix, LinalgError};

/// Exact single-source CoSimRank `[S]_{*,q}`, truncated so the geometric
/// tail is below `eps`.
///
/// Cost: `2K` sparse matvecs with `K = linear_iterations(c, eps)`.
pub fn single_source(t: &TransitionMatrix, q: usize, c: f64, eps: f64) -> Vec<f64> {
    assert!(q < t.n(), "query {q} out of bounds");
    let k = linear_iterations(c, eps);
    single_source_k(t, q, c, k)
}

/// Exact single-source CoSimRank truncated at exactly `k` iterations
/// (the primitive behind the CSR-RLS baseline, whose iteration count is
/// pinned to `r` for fairness in the paper's experiments).
pub fn single_source_k(t: &TransitionMatrix, q: usize, c: f64, k: usize) -> Vec<f64> {
    assert!(q < t.n(), "query {q} out of bounds");
    let mut e = vec![0.0; t.n()];
    e[q] = 1.0;
    apply_similarity_operator(t, &e, c, k)
}

/// Applies the K-truncated similarity operator to an arbitrary vector:
/// `S_K·v` with `S_0 = I`, `S_k = I + c·Qᵀ S_{k-1} Q` — `2K` sparse
/// matvecs and `O(n)` live memory.
pub fn apply_similarity_operator(t: &TransitionMatrix, v: &[f64], c: f64, k: usize) -> Vec<f64> {
    if k == 0 {
        return v.to_vec();
    }
    let qv = t.propagate(v);
    let inner = apply_similarity_operator(t, &qv, c, k - 1);
    let mut out = t.propagate_transpose(&inner);
    for (o, &vi) in out.iter_mut().zip(v.iter()) {
        *o = c * *o + vi;
    }
    out
}

/// Exact single-pair CoSimRank by the literal Eq. (3) of Rothe & Schütze:
/// `[S]_{a,b} = Σ_k c^k · (p_a^{(k)})ᵀ p_b^{(k)}`, where `p^{(k+1)} = Q·p^{(k)}`
/// are the iterated PPR vectors.  Two rolling vectors, `2K` sparse
/// matvecs — the cheapest possible exact primitive, and an independent
/// cross-check of the recursion used by [`single_source`].
pub fn single_pair(t: &TransitionMatrix, a: usize, b: usize, c: f64, eps: f64) -> f64 {
    assert!(a < t.n() && b < t.n(), "pair ({a},{b}) out of bounds");
    let k = linear_iterations(c, eps);
    let mut pa = vec![0.0; t.n()];
    pa[a] = 1.0;
    let mut pb = vec![0.0; t.n()];
    pb[b] = 1.0;
    let mut total = csrplus_linalg::vector::dot(&pa, &pb); // k = 0 term
    let mut factor = c;
    for _ in 1..=k {
        pa = t.propagate(&pa);
        pb = t.propagate(&pb);
        total += factor * csrplus_linalg::vector::dot(&pa, &pb);
        factor *= c;
    }
    total
}

/// Exact multi-source CoSimRank `[S]_{*,Q}` (column `j` answers
/// `queries[j]`), by running the single-source recursion per query.
pub fn multi_source(t: &TransitionMatrix, queries: &[usize], c: f64, eps: f64) -> DenseMatrix {
    let n = t.n();
    let mut out = DenseMatrix::zeros(n, queries.len());
    for (j, &q) in queries.iter().enumerate() {
        let col = single_source(t, q, c, eps);
        out.set_col(j, &col);
    }
    out
}

/// Exact all-pairs CoSimRank by dense fixed-point iteration
/// (`O(n²)` memory — intended for validation on small graphs).
pub fn all_pairs_iterative(t: &TransitionMatrix, c: f64, eps: f64) -> DenseMatrix {
    let n = t.n();
    let k = linear_iterations(c, eps);
    let mut s = DenseMatrix::identity(n);
    for _ in 0..k {
        // S ← c·Qᵀ(S·Q) + I.  S·Q is a direct dense×sparse product (row i
        // of S scattered over Q's rows) — no transposed materialisation.
        let sq = t.q().left_matmul_dense(&s); // S·Q
        let mut next = t.qt().matmul_dense(&sq); // Qᵀ·S·Q
        next.scale_in_place(c);
        next.add_diag(1.0).expect("square");
        s = next;
    }
    s
}

/// Exact all-pairs CoSimRank through Li et al.'s closed form Eq. (5)
/// (LU solve in `n²` dimensions — tiny graphs only).
///
/// # Errors
/// Propagates LU failures (the system matrix is always non-singular for
/// `c < 1`, so errors indicate numerical breakdown).
pub fn all_pairs_kronecker_solve(t: &TransitionMatrix, c: f64) -> Result<DenseMatrix, LinalgError> {
    let n = t.n();
    let q = t.q().to_dense();
    // M = I_{n²} − c·(Q ⊗ Q)ᵀ
    let mut m = kron(&q, &q).transpose();
    m.scale_in_place(-c);
    m.add_diag(1.0)?;
    let rhs = DenseMatrix::identity(n).vectorize();
    let x = Lu::factor(&m)?.solve_vec(&rhs)?;
    DenseMatrix::unvectorize(n, n, &x)
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index loops mirror the matrix math
mod tests {
    use super::*;
    use csrplus_graph::generators::{classic::cycle, classic::star, figure1_graph};

    fn fig1() -> TransitionMatrix {
        TransitionMatrix::from_graph(&figure1_graph())
    }

    #[test]
    fn three_references_agree_on_figure1() {
        let t = fig1();
        let c = 0.6;
        let dense = all_pairs_iterative(&t, c, 1e-10);
        let solved = all_pairs_kronecker_solve(&t, c).unwrap();
        assert!(dense.approx_eq(&solved, 1e-8), "diff {}", dense.max_abs_diff(&solved));
        for q in 0..6 {
            let col = single_source(&t, q, c, 1e-10);
            for i in 0..6 {
                assert!(
                    (col[i] - solved.get(i, q)).abs() < 1e-8,
                    "S[{i},{q}]: {} vs {}",
                    col[i],
                    solved.get(i, q)
                );
            }
        }
    }

    #[test]
    fn single_pair_ppr_formulation_matches_recursion() {
        // Eq. (3) (rolling PPR vectors) vs the S_K recursion vs the
        // Kronecker solve — three formulations, one answer.
        let t = fig1();
        let solved = all_pairs_kronecker_solve(&t, 0.6).unwrap();
        for a in 0..6 {
            for b in 0..6 {
                let pair = single_pair(&t, a, b, 0.6, 1e-11);
                assert!(
                    (pair - solved.get(a, b)).abs() < 1e-8,
                    "S[{a},{b}]: {pair} vs {}",
                    solved.get(a, b)
                );
            }
        }
    }

    #[test]
    fn single_pair_is_symmetric() {
        let t = fig1();
        for a in 0..6 {
            for b in 0..6 {
                let ab = single_pair(&t, a, b, 0.6, 1e-10);
                let ba = single_pair(&t, b, a, 0.6, 1e-10);
                assert!((ab - ba).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn multi_source_stacks_columns() {
        let t = fig1();
        let m = multi_source(&t, &[1, 3], 0.6, 1e-8);
        let c1 = single_source(&t, 1, 0.6, 1e-8);
        let c3 = single_source(&t, 3, 0.6, 1e-8);
        for i in 0..6 {
            assert_eq!(m.get(i, 0), c1[i]);
            assert_eq!(m.get(i, 1), c3[i]);
        }
    }

    #[test]
    fn fixed_point_equation_holds() {
        // The converged S must satisfy S = cQᵀSQ + I.
        let t = fig1();
        let c = 0.6;
        let s = all_pairs_iterative(&t, c, 1e-12);
        let qts = t.qt().matmul_dense(&s);
        let sq = qts.transpose();
        let mut rhs = t.qt().matmul_dense(&sq);
        rhs.scale_in_place(c);
        rhs.add_diag(1.0).unwrap();
        assert!(s.approx_eq(&rhs, 1e-9), "residual {}", s.max_abs_diff(&rhs));
    }

    #[test]
    fn cosimrank_is_symmetric_and_diag_dominant() {
        let t = fig1();
        let s = all_pairs_iterative(&t, 0.6, 1e-10);
        assert!(s.approx_eq(&s.transpose(), 1e-10));
        // [S]_{a,a} ≥ [S]_{a,x} (noted under Eq. (1) of the paper) and
        // the diagonal is at least 1.
        for a in 0..6 {
            assert!(s.get(a, a) >= 1.0 - 1e-12);
            for x in 0..6 {
                assert!(s.get(a, a) >= s.get(a, x) - 1e-12);
            }
        }
    }

    #[test]
    fn cycle_diagonal_closed_form() {
        // On a directed n-cycle, p_a^(k) are unit basis vectors and two
        // surfers starting at the same node always meet: [S]_{a,a} =
        // Σ c^k = 1/(1−c); distinct nodes never meet: [S]_{a,b} = 0.
        let t = TransitionMatrix::from_graph(&cycle(6));
        let c = 0.6;
        let s = all_pairs_iterative(&t, c, 1e-12);
        for a in 0..6 {
            assert!((s.get(a, a) - 1.0 / (1.0 - c)).abs() < 1e-6);
            for b in 0..6 {
                if a != b {
                    assert!(s.get(a, b).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn star_leaves_are_fully_similar() {
        // All leaves of a star have the identical in-neighbour structure
        // (none) and identical PPR trajectories after hop 1 via the hub:
        // leaves i,j: p_i^(0)=e_i ⊥ e_j; p^(1) = Q e_i = 0 (leaf has no
        // in-edges) — so S[i,j] = 0 for i≠j and S[i,i] = 1.
        let t = TransitionMatrix::from_graph(&star(5));
        let s = all_pairs_iterative(&t, 0.6, 1e-12);
        for i in 1..5 {
            assert!((s.get(i, i) - 1.0).abs() < 1e-12);
            for j in 1..5 {
                if i != j {
                    assert!(s.get(i, j).abs() < 1e-12);
                }
            }
        }
        // The hub's self-similarity accumulates its in-walk meetings:
        // p_hub^(1) is uniform over leaves, which then die out; S[0,0] =
        // 1 + c·(1/4) (4 leaves, each contributing (1/4)² at k=1).
        assert!((s.get(0, 0) - (1.0 + 0.6 * 0.25)).abs() < 1e-9);
    }

    #[test]
    fn eps_controls_truncation() {
        let t = fig1();
        let rough = single_source(&t, 1, 0.6, 1e-2);
        let fine = single_source(&t, 1, 0.6, 1e-12);
        let worst: f64 =
            rough.iter().zip(fine.iter()).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        assert!(worst < 1e-2, "truncation error {worst} above eps");
        assert!(worst > 0.0, "different eps must change something");
    }
}
