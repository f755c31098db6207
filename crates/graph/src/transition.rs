//! The column-normalised transition matrix `Q` of §2.
//!
//! `Q[x, y] = 1/indeg(y)` iff edge `x → y` exists — i.e. `Q` is the
//! adjacency matrix with each column divided by its sum, so every non-empty
//! column is a probability distribution over the target's in-neighbours.
//! (Nodes without in-edges yield zero columns, exactly as MATLAB's
//! column normalisation of a sparse adjacency leaves them.)
//!
//! `TransitionMatrix` caches both `Q` and `Qᵀ` as CSR so that forward and
//! transposed products both run the row-parallel gather kernel.

use crate::csr::CsrMatrix;
use crate::digraph::DiGraph;
use crate::error::GraphError;
use csrplus_linalg::{DenseMatrix, LinearOperator};

/// Column-normalised adjacency matrix with a cached transpose.
#[derive(Debug, Clone)]
pub struct TransitionMatrix {
    q: CsrMatrix,
    qt: CsrMatrix,
}

impl TransitionMatrix {
    /// Builds `Q` from a directed graph.
    ///
    /// ```
    /// use csrplus_graph::{DiGraph, TransitionMatrix};
    ///
    /// // 0 → 2 and 1 → 2: column 2 splits mass between its in-neighbours.
    /// let g = DiGraph::from_edges(3, vec![(0, 2), (1, 2)])?;
    /// let t = TransitionMatrix::from_graph(&g);
    /// assert_eq!(t.q().get(0, 2), 0.5);
    /// assert_eq!(t.q().get(1, 2), 0.5);
    /// # Ok::<(), csrplus_graph::GraphError>(())
    /// ```
    pub fn from_graph(g: &DiGraph) -> Self {
        let n = g.num_nodes();
        let indeg = g.in_degrees();
        let triples: Vec<(u32, u32, f64)> =
            g.edges().iter().map(|&(x, y)| (x, y, 1.0 / indeg[y as usize] as f64)).collect();
        let q = CsrMatrix::from_coo(n, n, triples).expect("edges validated by DiGraph");
        let qt = q.transpose();
        TransitionMatrix { q, qt }
    }

    /// Builds `Q` from weighted edges `(x, y, w)`: column `y` holds each
    /// in-edge's weight divided by the column's total weight, so columns
    /// remain probability distributions and CoSimRank generalises to
    /// weighted graphs (duplicate coordinates sum their weights first).
    ///
    /// # Errors
    /// [`GraphError::NodeOutOfBounds`] for ids `>= n`;
    /// [`GraphError::InvalidParameter`] for non-positive weights.
    pub fn from_weighted_triples(
        n: usize,
        triples: &[(u32, u32, f64)],
    ) -> Result<Self, GraphError> {
        for &(_, _, w) in triples {
            if w.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) || !w.is_finite() {
                return Err(GraphError::InvalidParameter {
                    message: format!("edge weight {w} must be positive and finite"),
                });
            }
        }
        // Sum duplicates through CSR construction, then normalise columns.
        let raw = CsrMatrix::from_coo(n, n, triples.to_vec())?;
        let ones = vec![1.0; n];
        let col_sums = raw.matvec_transpose(&ones); // Aᵀ·1 = column sums
        let mut normalised = Vec::with_capacity(raw.nnz());
        for i in 0..n {
            let (idx, val) = raw.row(i);
            for (&j, &v) in idx.iter().zip(val.iter()) {
                normalised.push((i as u32, j, v / col_sums[j as usize]));
            }
        }
        let q = CsrMatrix::from_coo(n, n, normalised)?;
        let qt = q.transpose();
        Ok(TransitionMatrix { q, qt })
    }

    /// Number of nodes `n` (the matrix is `n × n`).
    #[inline]
    pub fn n(&self) -> usize {
        self.q.rows()
    }

    /// Number of stored non-zeros (= `m`, the edge count).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.q.nnz()
    }

    /// The forward matrix `Q`.
    #[inline]
    pub fn q(&self) -> &CsrMatrix {
        &self.q
    }

    /// The transposed matrix `Qᵀ`.
    #[inline]
    pub fn qt(&self) -> &CsrMatrix {
        &self.qt
    }

    /// `y = Q·x` — one step of PPR propagation towards in-neighbours.
    pub fn propagate(&self, x: &[f64]) -> Vec<f64> {
        self.q.matvec(x)
    }

    /// `y = Qᵀ·x`.
    pub fn propagate_transpose(&self, x: &[f64]) -> Vec<f64> {
        self.qt.matvec(x)
    }

    /// Estimated heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.q.heap_bytes() + self.qt.heap_bytes()
    }
}

impl LinearOperator for TransitionMatrix {
    fn nrows(&self) -> usize {
        self.q.rows()
    }

    fn ncols(&self) -> usize {
        self.q.cols()
    }

    fn apply(&self, x: &DenseMatrix) -> DenseMatrix {
        self.q.matmul_dense(x)
    }

    fn apply_transpose(&self, x: &DenseMatrix) -> DenseMatrix {
        // Products with Qᵀ run the gather kernel on the cached transpose.
        self.qt.matmul_dense(x)
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index loops mirror the matrix math
mod tests {
    use super::*;
    use crate::generators::paper_example;

    #[test]
    fn columns_sum_to_one_or_zero() {
        let g = paper_example::figure1_graph();
        let t = TransitionMatrix::from_graph(&g);
        let d = t.q().to_dense();
        let n = t.n();
        let indeg = g.in_degrees();
        for j in 0..n {
            let s: f64 = (0..n).map(|i| d.get(i, j)).sum();
            if indeg[j] > 0 {
                assert!((s - 1.0).abs() < 1e-12, "column {j} sums to {s}");
            } else {
                assert_eq!(s, 0.0, "dangling column {j} must be zero");
            }
        }
    }

    #[test]
    fn figure1_matrix_matches_paper() {
        // The worked example in §3.3 prints Q for the Figure-1 graph with
        // node order (a, b, c, d, e, f). Spot-check the printed entries.
        let g = paper_example::figure1_graph();
        let t = TransitionMatrix::from_graph(&g);
        let q = t.q().to_dense();
        assert!((q.get(0, 1) - 1.0 / 3.0).abs() < 1e-12); // Q[a,b] = 1/3
        assert!((q.get(0, 3) - 1.0 / 3.0).abs() < 1e-12); // Q[a,d] = 1/3
        assert!((q.get(3, 0) - 1.0).abs() < 1e-12); // Q[d,a] = 1
        assert!((q.get(2, 4) - 0.5).abs() < 1e-12); // Q[c,e] = 1/2
        assert!((q.get(5, 4) - 0.5).abs() < 1e-12); // Q[f,e] = 1/2
        assert!((q.get(5, 3) - 1.0 / 3.0).abs() < 1e-12); // Q[f,d] = 1/3
        assert_eq!(q.get(1, 0), 0.0);
    }

    #[test]
    fn transpose_is_consistent() {
        let g = paper_example::figure1_graph();
        let t = TransitionMatrix::from_graph(&g);
        let qd = t.q().to_dense();
        let qtd = t.qt().to_dense();
        assert!(qtd.approx_eq(&qd.transpose(), 0.0));
    }

    #[test]
    fn propagate_follows_in_links() {
        let g = paper_example::figure1_graph();
        let t = TransitionMatrix::from_graph(&g);
        // Seed at node a (index 0): p¹ = Q·e_a = column a of Q = e_d.
        let mut e_a = vec![0.0; t.n()];
        e_a[0] = 1.0;
        let p1 = t.propagate(&e_a);
        assert_eq!(p1[3], 1.0);
        assert_eq!(p1.iter().sum::<f64>(), 1.0);
    }

    #[test]
    fn weighted_columns_sum_to_one() {
        // Edge weights 1, 3 into node 2: column = [0.25, 0.75].
        let t =
            TransitionMatrix::from_weighted_triples(3, &[(0, 2, 1.0), (1, 2, 3.0), (2, 0, 2.0)])
                .unwrap();
        let d = t.q().to_dense();
        assert!((d.get(0, 2) - 0.25).abs() < 1e-15);
        assert!((d.get(1, 2) - 0.75).abs() < 1e-15);
        assert!((d.get(2, 0) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn weighted_with_unit_weights_matches_unweighted() {
        let g = paper_example::figure1_graph();
        let unweighted = TransitionMatrix::from_graph(&g);
        let triples: Vec<(u32, u32, f64)> = g.edges().iter().map(|&(x, y)| (x, y, 1.0)).collect();
        let weighted = TransitionMatrix::from_weighted_triples(6, &triples).unwrap();
        assert!(weighted.q().to_dense().approx_eq(&unweighted.q().to_dense(), 1e-14));
    }

    #[test]
    fn weighted_duplicates_summed() {
        // The same edge twice with weight 1 equals once with weight 2.
        let a = TransitionMatrix::from_weighted_triples(2, &[(0, 1, 1.0), (0, 1, 1.0)]).unwrap();
        let d = a.q().to_dense();
        assert!((d.get(0, 1) - 1.0).abs() < 1e-15); // single in-edge: still 1
        assert_eq!(a.nnz(), 1);
    }

    #[test]
    fn weighted_rejects_bad_weights() {
        assert!(TransitionMatrix::from_weighted_triples(2, &[(0, 1, 0.0)]).is_err());
        assert!(TransitionMatrix::from_weighted_triples(2, &[(0, 1, -1.0)]).is_err());
        assert!(TransitionMatrix::from_weighted_triples(2, &[(0, 1, f64::NAN)]).is_err());
        assert!(TransitionMatrix::from_weighted_triples(2, &[(0, 5, 1.0)]).is_err());
    }

    #[test]
    fn operator_matches_matvec() {
        let g = paper_example::figure1_graph();
        let t = TransitionMatrix::from_graph(&g);
        let x: Vec<f64> = (0..t.n()).map(|i| i as f64 + 1.0).collect();
        let xm = DenseMatrix::from_vec(t.n(), 1, x.clone()).unwrap();
        let y1 = t.propagate(&x);
        let y2 = LinearOperator::apply(&t, &xm);
        for i in 0..t.n() {
            assert!((y1[i] - y2.get(i, 0)).abs() < 1e-14);
        }
        let z1 = t.propagate_transpose(&x);
        let z2 = t.apply_transpose(&xm);
        for i in 0..t.n() {
            assert!((z1[i] - z2.get(i, 0)).abs() < 1e-14);
        }
    }
}
