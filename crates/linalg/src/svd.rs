//! Singular value decomposition.
//!
//! Two entry points:
//! * [`jacobi_svd`] — exact one-sided Jacobi SVD for small dense matrices.
//!   Used for `r × r` subspace matrices, as the inner factorisation of the
//!   randomized method, and as ground truth in tests.
//! * [`TruncatedSvd`] — the common result type `A ≈ U Σ Vᵀ` shared with the
//!   randomized sparse factorisation in [`crate::randomized`].

use crate::dense::DenseMatrix;
use crate::error::LinalgError;
use crate::vector;

/// Relative cut below which a singular triple counts as numerically null
/// (see [`TruncatedSvd::trim_null_triples`]).  Chosen two orders of
/// magnitude above [`jacobi_svd`]'s own `1e-14` zeroing threshold so that
/// near-null garbage produced by *compositions* of factorisations (e.g.
/// repeated rank-one updates) is caught as well.
pub const NULL_TRIPLE_TOL: f64 = 1e-12;

/// A rank-`k` (possibly truncated) SVD `A ≈ U · diag(σ) · Vᵀ`.
#[derive(Debug, Clone)]
pub struct TruncatedSvd {
    /// Left singular vectors, `m × k`, orthonormal columns.
    pub u: DenseMatrix,
    /// Singular values, length `k`, non-negative, sorted descending.
    pub sigma: Vec<f64>,
    /// Right singular vectors, `n × k`, orthonormal columns.
    pub v: DenseMatrix,
}

impl TruncatedSvd {
    /// Rank of the factorisation.
    pub fn rank(&self) -> usize {
        self.sigma.len()
    }

    /// `diag(σ)` as a dense `k × k` matrix.
    pub fn sigma_matrix(&self) -> DenseMatrix {
        DenseMatrix::from_diag(&self.sigma)
    }

    /// Reconstructs the (approximation of the) original matrix `U Σ Vᵀ`.
    pub fn reconstruct(&self) -> DenseMatrix {
        let mut us = self.u.clone();
        us.scale_columns_mut(&self.sigma);
        us.matmul_transpose_b(&self.v).expect("reconstruct: internal shape mismatch")
    }

    /// Keeps only the leading `r` triples, dropping the rest.
    pub fn truncate(mut self, r: usize) -> TruncatedSvd {
        let r = r.min(self.sigma.len());
        self.sigma.truncate(r);
        let keep: Vec<usize> = (0..r).collect();
        self.u = self.u.select_cols(&keep);
        self.v = self.v.select_cols(&keep);
        self
    }

    /// Drops trailing numerically-null singular triples (σᵢ ≤ σ₁·`rel_tol`).
    ///
    /// [`jacobi_svd`] reports null directions as exact-zero singular values
    /// with **zeroed left columns** (see the function docs), so a rank-deficient
    /// input yields a factorisation whose trailing columns are not orthonormal.
    /// Downstream consumers that rely on `UᵀU = VᵀV = I` — subspace fixed-point
    /// solves, [`rank_one_update`](crate::svd_update::rank_one_update) rotations
    /// — must not see those triples: a single zero column fed into an update
    /// smears non-orthogonality across *all* columns of the rotated basis.
    pub fn trim_null_triples(self, rel_tol: f64) -> TruncatedSvd {
        let keep = non_null_len(&self.sigma, rel_tol);
        if keep == self.sigma.len() {
            self
        } else {
            self.truncate(keep)
        }
    }

    /// Verifies the factorisation invariants (orthonormality, ordering);
    /// returns the worst violation found.  Test/diagnostic helper.
    pub fn invariant_violation(&self) -> f64 {
        let k = self.rank();
        let utu = self.u.matmul_transpose_a(&self.u).expect("shape");
        let vtv = self.v.matmul_transpose_a(&self.v).expect("shape");
        let eye = DenseMatrix::identity(k);
        let mut worst = utu.max_abs_diff(&eye).max(vtv.max_abs_diff(&eye));
        for w in self.sigma.windows(2) {
            if w[1] > w[0] {
                worst = worst.max(w[1] - w[0]);
            }
        }
        for &s in &self.sigma {
            if s < 0.0 {
                worst = worst.max(-s);
            }
        }
        worst
    }
}

/// How many leading triples of the descending spectrum `sigma`
/// [`TruncatedSvd::trim_null_triples`] keeps: those with σᵢ > σ₁·`rel_tol`.
/// An all-zero spectrum (zero matrix) keeps one triple: rank 0 has no
/// representation downstream (persisted headers, subspace solves).
pub(crate) fn non_null_len(sigma: &[f64], rel_tol: f64) -> usize {
    let cut = sigma.first().copied().unwrap_or(0.0) * rel_tol;
    sigma.iter().filter(|&&s| s > cut).count().max(1).min(sigma.len())
}

/// Maximum number of one-sided Jacobi sweeps.
const MAX_SWEEPS: usize = 60;

/// Exact SVD of a dense matrix via one-sided Jacobi rotations.
///
/// Returns the full factorisation with `k = min(m, n)`.  Singular values
/// smaller than `~1e-14 · σ₁` come back as exact zeros with zeroed
/// singular-vector columns on one side (`U` for tall inputs, `V` for wide
/// ones — callers that invert `Σ` must truncate first).
///
/// Both orientations work **in place on a single row-major copy** of the
/// input: tall matrices orthogonalise columns (strided rotations), wide
/// matrices orthogonalise rows while accumulating the left rotations into
/// `U` directly.  Earlier revisions materialised `a.transpose()` (and for
/// wide inputs recursed on it); no transposed copies remain.
///
/// # Errors
/// [`LinalgError::NoConvergence`] if column pairs fail to orthogonalise
/// within the sweep budget.
pub fn jacobi_svd(a: &DenseMatrix) -> Result<TruncatedSvd, LinalgError> {
    let (m, n) = a.shape();
    if n == 0 || m == 0 {
        return Ok(TruncatedSvd {
            u: DenseMatrix::zeros(m, 0),
            sigma: vec![],
            v: DenseMatrix::zeros(n, 0),
        });
    }
    if m >= n {
        jacobi_svd_tall(a)
    } else {
        jacobi_svd_wide(a)
    }
}

/// One-sided Jacobi for `m ≥ n`: orthogonalises the *columns* of a working
/// copy of `a`; the rotation product accumulated on an identity gives `V`.
fn jacobi_svd_tall(a: &DenseMatrix) -> Result<TruncatedSvd, LinalgError> {
    let (m, n) = a.shape();
    let mut w = a.clone();
    let mut v = DenseMatrix::identity(n);

    let eps = 1e-15;
    // Columns whose norm collapses below `null_cut` are numerically in the
    // null space; rotating them against each other only churns rounding
    // noise (|γ|/√(αβ) stays O(1)) and would never converge.
    let frob = a.frobenius_norm();
    let null_cut = (frob * 1e-14).max(f64::MIN_POSITIVE);
    let mut converged = false;
    let mut sweeps = 0;
    while !converged {
        if sweeps >= MAX_SWEEPS {
            return Err(LinalgError::NoConvergence { context: "jacobi_svd", iterations: sweeps });
        }
        sweeps += 1;
        converged = true;
        for p in 0..n {
            for q in p + 1..n {
                let (alpha, beta, gamma) = col_dots(&w, p, q);
                if alpha.sqrt() <= null_cut || beta.sqrt() <= null_cut {
                    continue; // numerically zero column: σ = 0 territory
                }
                if gamma.abs() <= eps * (alpha * beta).sqrt() || gamma == 0.0 {
                    continue;
                }
                converged = false;
                let (c, s) = rotation(alpha, beta, gamma);
                rotate_cols(&mut w, p, q, c, s);
                rotate_cols(&mut v, p, q, c, s);
            }
        }
    }

    // Singular values are the column norms of the rotated matrix.
    let sigma: Vec<f64> = (0..n).map(|j| col_norm2(&w, j)).collect();
    let (order, cut) = null_aware_order(&sigma);

    let mut u = DenseMatrix::zeros(m, n);
    let mut v_sorted = DenseMatrix::zeros(n, n);
    let mut sigma_sorted = Vec::with_capacity(n);
    for (out_j, &j) in order.iter().enumerate() {
        let s = sigma[j];
        if s > cut {
            let inv = 1.0 / s;
            for i in 0..m {
                u.set(i, out_j, w.get(i, j) * inv);
            }
            sigma_sorted.push(s);
        } else {
            sigma_sorted.push(0.0);
            // zero U column (documented contract for null space)
        }
        for i in 0..n {
            v_sorted.set(i, out_j, v.get(i, j));
        }
    }

    Ok(TruncatedSvd { u, sigma: sigma_sorted, v: v_sorted })
}

/// One-sided Jacobi for `m < n`: orthogonalises the *rows* of a working
/// copy of `a` (each rotation multiplies from the left), accumulating the
/// transposed rotations into `U`.  After convergence row `i` equals
/// `σᵢ·vᵢᵀ`, so `V`'s columns are the normalised rows.
fn jacobi_svd_wide(a: &DenseMatrix) -> Result<TruncatedSvd, LinalgError> {
    let (m, n) = a.shape();
    let mut w = a.clone();
    // U accumulates the product of transposed row rotations: each row
    // rotation is W ← J·W, so A = (J₁ᵀ·…·J_kᵀ)·W_final and the running
    // product right-multiplies by the newest Jᵀ — a column rotation with
    // the same (c, s).
    let mut u = DenseMatrix::identity(m);

    let eps = 1e-15;
    let frob = a.frobenius_norm();
    let null_cut = (frob * 1e-14).max(f64::MIN_POSITIVE);
    let mut converged = false;
    let mut sweeps = 0;
    while !converged {
        if sweeps >= MAX_SWEEPS {
            return Err(LinalgError::NoConvergence { context: "jacobi_svd", iterations: sweeps });
        }
        sweeps += 1;
        converged = true;
        for p in 0..m {
            for q in p + 1..m {
                let (alpha, beta, gamma) = {
                    let wp = w.row(p);
                    let wq = w.row(q);
                    (vector::dot(wp, wp), vector::dot(wq, wq), vector::dot(wp, wq))
                };
                if alpha.sqrt() <= null_cut || beta.sqrt() <= null_cut {
                    continue;
                }
                if gamma.abs() <= eps * (alpha * beta).sqrt() || gamma == 0.0 {
                    continue;
                }
                converged = false;
                let (c, s) = rotation(alpha, beta, gamma);
                rotate_rows(&mut w, p, q, c, s);
                rotate_cols(&mut u, p, q, c, s);
            }
        }
    }

    let sigma: Vec<f64> = (0..m).map(|i| vector::norm2(w.row(i))).collect();
    let (order, cut) = null_aware_order(&sigma);

    let mut u_sorted = DenseMatrix::zeros(m, m);
    let mut v = DenseMatrix::zeros(n, m);
    let mut sigma_sorted = Vec::with_capacity(m);
    for (out_j, &j) in order.iter().enumerate() {
        let s = sigma[j];
        if s > cut {
            let inv = 1.0 / s;
            for (i, &x) in w.row(j).iter().enumerate() {
                v.set(i, out_j, x * inv);
            }
            sigma_sorted.push(s);
        } else {
            sigma_sorted.push(0.0);
            // zero V column (null-space contract, mirroring the tall case)
        }
        for i in 0..m {
            u_sorted.set(i, out_j, u.get(i, j));
        }
    }

    Ok(TruncatedSvd { u: u_sorted, sigma: sigma_sorted, v })
}

/// Jacobi rotation `(c, s)` annihilating the off-diagonal Gram entry for a
/// column/row pair with self-products `alpha`, `beta` and cross `gamma`.
fn rotation(alpha: f64, beta: f64, gamma: f64) -> (f64, f64) {
    let zeta = (beta - alpha) / (2.0 * gamma);
    let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
    let c = 1.0 / (1.0 + t * t).sqrt();
    (c, c * t)
}

/// Descending order of `sigma` plus the relative null cut `σ₁·1e-14`.
fn null_aware_order(sigma: &[f64]) -> (Vec<usize>, f64) {
    let smax = sigma.iter().cloned().fold(0.0f64, f64::max);
    let mut order: Vec<usize> = (0..sigma.len()).collect();
    order.sort_by(|&i, &j| sigma[j].partial_cmp(&sigma[i]).unwrap_or(std::cmp::Ordering::Equal));
    (order, smax * 1e-14)
}

/// Gram entries `(‖colₚ‖², ‖col_q‖², colₚ·col_q)` in one streaming pass
/// over the rows (no transposed copy, no gather).
fn col_dots(m: &DenseMatrix, p: usize, q: usize) -> (f64, f64, f64) {
    let n = m.cols();
    let data = m.as_slice();
    let (mut alpha, mut beta, mut gamma) = (0.0f64, 0.0f64, 0.0f64);
    let mut off = 0;
    for _ in 0..m.rows() {
        let a = data[off + p];
        let b = data[off + q];
        alpha += a * a;
        beta += b * b;
        gamma += a * b;
        off += n;
    }
    (alpha, beta, gamma)
}

/// Overflow-safe L2 norm of column `j` (strided [`vector::norm2_iter`]).
fn col_norm2(m: &DenseMatrix, j: usize) -> f64 {
    vector::norm2_iter((0..m.rows()).map(|i| m.get(i, j)))
}

/// Applies the Givens rotation to rows `p`, `q` of `m`.
fn rotate_rows(m: &mut DenseMatrix, p: usize, q: usize, c: f64, s: f64) {
    let cols = m.cols();
    debug_assert!(p < q);
    // Split borrow: rows p and q are disjoint slices.
    let (head, tail) = m.as_mut_slice().split_at_mut(q * cols);
    let rp = &mut head[p * cols..(p + 1) * cols];
    let rq = &mut tail[..cols];
    for k in 0..cols {
        let a = rp[k];
        let b = rq[k];
        rp[k] = c * a - s * b;
        rq[k] = s * a + c * b;
    }
}

/// Applies the Givens rotation to columns `p`, `q` of `m` in place — the
/// strided twin of [`rotate_rows`], walking each row once.
fn rotate_cols(m: &mut DenseMatrix, p: usize, q: usize, c: f64, s: f64) {
    let cols = m.cols();
    debug_assert!(p < q && q < cols);
    for row in m.as_mut_slice().chunks_exact_mut(cols) {
        let a = row[p];
        let b = row[q];
        row[p] = c * a - s * b;
        row[q] = s * a + c * b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_svd(a: &DenseMatrix, tol: f64) -> TruncatedSvd {
        let svd = jacobi_svd(a).unwrap();
        let rec = svd.reconstruct();
        assert!(
            rec.approx_eq(a, tol),
            "reconstruction error {} for {:?}",
            rec.max_abs_diff(a),
            a.shape()
        );
        // Orthonormality only guaranteed on the non-null part.
        let nz = svd.sigma.iter().filter(|s| **s > 0.0).count();
        let trunc = svd.clone().truncate(nz);
        assert!(trunc.invariant_violation() < tol, "invariants violated");
        svd
    }

    #[test]
    fn svd_known_diagonal() {
        let a = DenseMatrix::from_diag(&[3.0, 1.0, 2.0]);
        let svd = check_svd(&a, 1e-12);
        assert!((svd.sigma[0] - 3.0).abs() < 1e-12);
        assert!((svd.sigma[1] - 2.0).abs() < 1e-12);
        assert!((svd.sigma[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn svd_random_shapes() {
        let mut rng = StdRng::seed_from_u64(17);
        for &(m, n) in &[(1, 1), (3, 3), (10, 4), (4, 10), (25, 25), (50, 8)] {
            let a = DenseMatrix::random_gaussian(m, n, &mut rng);
            check_svd(&a, 1e-9);
        }
    }

    #[test]
    fn svd_rank_deficient() {
        // Rank-1 matrix: outer product.
        let u = [1.0, 2.0, 3.0, 4.0];
        let v = [2.0, -1.0, 0.5];
        let a = DenseMatrix::from_fn(4, 3, |i, j| u[i] * v[j]);
        let svd = check_svd(&a, 1e-10);
        let nz = svd.sigma.iter().filter(|s| **s > 1e-10).count();
        assert_eq!(nz, 1, "rank-1 matrix must have one nonzero σ, got {:?}", svd.sigma);
    }

    #[test]
    fn svd_zero_matrix() {
        let a = DenseMatrix::zeros(3, 2);
        let svd = jacobi_svd(&a).unwrap();
        assert!(svd.sigma.iter().all(|&s| s == 0.0));
        assert!(svd.reconstruct().approx_eq(&a, 1e-15));
    }

    #[test]
    fn svd_singular_values_match_eigen_of_gram() {
        let mut rng = StdRng::seed_from_u64(23);
        let a = DenseMatrix::random_gaussian(12, 6, &mut rng);
        let svd = jacobi_svd(&a).unwrap();
        let gram = a.matmul_transpose_a(&a).unwrap();
        let eig = crate::jacobi::symmetric_eigen(&gram).unwrap();
        for (s, l) in svd.sigma.iter().zip(eig.eigenvalues.iter()) {
            assert!((s * s - l).abs() < 1e-8 * l.max(1.0), "σ²={} λ={}", s * s, l);
        }
    }

    #[test]
    fn truncate_keeps_leading_triples() {
        let a = DenseMatrix::from_diag(&[5.0, 4.0, 3.0, 2.0]);
        let svd = jacobi_svd(&a).unwrap().truncate(2);
        assert_eq!(svd.rank(), 2);
        assert_eq!(svd.sigma, vec![5.0, 4.0]);
        assert_eq!(svd.u.shape(), (4, 2));
        assert_eq!(svd.v.shape(), (4, 2));
        // Best rank-2 approximation error in max-norm is the dropped σ₃=3
        // on the diagonal.
        let rec = svd.reconstruct();
        assert!((rec.get(2, 2) - 0.0).abs() < 1e-12);
        assert!((rec.get(0, 0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruct_wide_matrix() {
        let mut rng = StdRng::seed_from_u64(31);
        let a = DenseMatrix::random_gaussian(3, 9, &mut rng);
        let svd = jacobi_svd(&a).unwrap();
        assert_eq!(svd.u.shape(), (3, 3));
        assert_eq!(svd.v.shape(), (9, 3));
        assert!(svd.reconstruct().approx_eq(&a, 1e-10));
    }
}
