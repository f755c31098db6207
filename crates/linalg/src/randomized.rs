//! Randomized truncated SVD (Halko–Martinsson–Tropp subspace iteration).
//!
//! Line 2 of Algorithm 1 in the paper decomposes the sparse transition
//! matrix `Q ≈ U Σ Vᵀ` at a target low rank `r ≪ n` (MATLAB's `svds`).
//! This module provides the equivalent: a randomized range finder with
//! power iterations over any [`LinearOperator`], costing
//! `O((r+s)·m·(p+1))` sparse applications plus small dense work — i.e. the
//! `O(mr + r³)` of the paper's complexity table.
//!
//! Algorithm (rank `r`, oversampling `s`, `p` power iterations):
//! 1. `Ω ← n×l` Gaussian, `l = r+s`;  `Y = A·Ω`;  `W = qr(Y).Q`.
//! 2. repeat `p` times: `W = qr(Aᵀ·W).Q`, then `W = qr(A·W).Q`.
//! 3. `Bᵀ = Aᵀ·W` (`n×l`), small exact SVD `Bᵀ = Ub Σ Vbᵀ`.
//! 4. `U = W·Vb`, `V = Ub`, truncate to rank `r`.
//!
//! Every heavy step — the operator applies in the power iterations (the
//! pooled SpMM of `csrplus-graph` / dense matmul here), the Gram products
//! and triangular panel products of the CholeskyQR2 inside `qr` (or its
//! Householder fallback on an ill-conditioned panel), and the final
//! `W·Vb` — runs on the shared `csrplus_par` worker pool with shape-only
//! chunking, so the factorisation is bitwise reproducible at any thread
//! count (on top of being deterministic given `seed`).

use crate::dense::DenseMatrix;
use crate::error::LinalgError;
use crate::linop::LinearOperator;
use crate::qr::{orthonormalize, thin_qr};
use crate::svd::{jacobi_svd, TruncatedSvd, NULL_TRIPLE_TOL};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration for the randomized truncated SVD.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomizedSvdConfig {
    /// Target rank `r` (number of singular triples returned).
    pub rank: usize,
    /// Oversampling columns added to the sketch (default 8).
    pub oversample: usize,
    /// Number of power (subspace) iterations (default 2). Each iteration
    /// sharpens the spectrum at the cost of two extra operator sweeps.
    pub power_iterations: usize,
    /// RNG seed — factorisations are deterministic given the seed.
    pub seed: u64,
}

impl Default for RandomizedSvdConfig {
    fn default() -> Self {
        RandomizedSvdConfig { rank: 5, oversample: 8, power_iterations: 2, seed: 0x5eed }
    }
}

impl RandomizedSvdConfig {
    /// Convenience constructor with defaults for everything but the rank.
    pub fn with_rank(rank: usize) -> Self {
        RandomizedSvdConfig { rank, ..Default::default() }
    }
}

/// Computes a rank-`cfg.rank` truncated SVD of `a` by randomized subspace
/// iteration.
///
/// ```
/// use csrplus_linalg::randomized::{randomized_svd, RandomizedSvdConfig};
/// use csrplus_linalg::DenseMatrix;
///
/// let a = DenseMatrix::from_diag(&[5.0, 3.0, 1.0, 0.1]);
/// let svd = randomized_svd(&a, &RandomizedSvdConfig::with_rank(2))?;
/// assert!((svd.sigma[0] - 5.0).abs() < 1e-8);
/// assert!((svd.sigma[1] - 3.0).abs() < 1e-8);
/// # Ok::<(), csrplus_linalg::LinalgError>(())
/// ```
///
/// # Errors
/// * [`LinalgError::InvalidParameter`] if the rank is 0 or exceeds
///   `min(nrows, ncols)`.
/// * Propagates QR/Jacobi failures (practically unreachable).
pub fn randomized_svd<A: LinearOperator + ?Sized>(
    a: &A,
    cfg: &RandomizedSvdConfig,
) -> Result<TruncatedSvd, LinalgError> {
    let (m, n) = (a.nrows(), a.ncols());
    let min_dim = m.min(n);
    if cfg.rank == 0 || cfg.rank > min_dim {
        return Err(LinalgError::InvalidParameter {
            context: "randomized_svd",
            message: format!("rank {} not in 1..={min_dim}", cfg.rank),
        });
    }
    let l = (cfg.rank + cfg.oversample).min(min_dim);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Stage 1: sketch the range of A.
    let omega = DenseMatrix::random_gaussian(n, l, &mut rng);
    let y = a.apply(&omega); // m x l
    let mut w = orthonormalize(&y)?;

    // Stage 2: power iterations with re-orthonormalisation at every half
    // step (prevents the sketch collapsing onto the dominant vector).
    for _ in 0..cfg.power_iterations {
        let z = a.apply_transpose(&w); // n x l
        let wz = orthonormalize(&z)?;
        let y2 = a.apply(&wz); // m x l
        w = orthonormalize(&y2)?;
    }

    // Stage 3: project. Bᵀ = AᵀW is n×l; QR-compress it first so the
    // Jacobi sweeps run on the l×l triangle instead of the n×l panel:
    // Bᵀ = Qb·Rb, Rb = Ur Σ Vrᵀ ⟹ Bᵀ = (Qb·Ur) Σ Vrᵀ.
    let bt = a.apply_transpose(&w); // n x l
    let qr = thin_qr(&bt)?;
    let small = jacobi_svd(&qr.r)?; // Ur, Vr: l×l

    // A ≈ W·B = W·(Vr Σ (Qb·Ur)ᵀ) → U = W·Vr, V = Qb·Ur.
    let u = w.matmul(&small.v)?;
    let v = qr.q.matmul(&small.u)?;
    let svd = TruncatedSvd { u, sigma: small.sigma, v };
    // When A is rank-deficient the requested rank may exceed the numerical
    // rank; the surplus triples carry zeroed columns (jacobi's null-direction
    // contract) and would poison any consumer assuming orthonormal factors.
    Ok(svd.truncate(cfg.rank).trim_null_triples(NULL_TRIPLE_TOL))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Builds an m×n matrix with prescribed singular values.
    fn matrix_with_spectrum(m: usize, n: usize, sigma: &[f64], seed: u64) -> DenseMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = sigma.len();
        let gu = DenseMatrix::random_gaussian(m, k, &mut rng);
        let gv = DenseMatrix::random_gaussian(n, k, &mut rng);
        let u = orthonormalize(&gu).unwrap();
        let v = orthonormalize(&gv).unwrap();
        let mut us = u;
        us.scale_columns_mut(sigma);
        us.matmul_transpose_b(&v).unwrap()
    }

    #[test]
    fn recovers_exact_low_rank() {
        let a = matrix_with_spectrum(60, 40, &[9.0, 4.0, 1.0], 7);
        let cfg = RandomizedSvdConfig { rank: 3, oversample: 8, power_iterations: 2, seed: 1 };
        let svd = randomized_svd(&a, &cfg).unwrap();
        assert!((svd.sigma[0] - 9.0).abs() < 1e-8, "{:?}", svd.sigma);
        assert!((svd.sigma[1] - 4.0).abs() < 1e-8);
        assert!((svd.sigma[2] - 1.0).abs() < 1e-8);
        assert!(svd.reconstruct().approx_eq(&a, 1e-8));
        assert!(svd.invariant_violation() < 1e-10);
    }

    #[test]
    fn truncation_error_bounded_by_tail() {
        // Full-rank matrix with a decaying spectrum; rank-4 truncation
        // error in spectral norm ≈ σ₅.
        let sig: Vec<f64> = (0..12).map(|i| 0.5f64.powi(i)).collect();
        let a = matrix_with_spectrum(50, 30, &sig, 13);
        let cfg = RandomizedSvdConfig { rank: 4, oversample: 10, power_iterations: 4, seed: 2 };
        let svd = randomized_svd(&a, &cfg).unwrap();
        let err = svd.reconstruct().max_abs_diff(&a);
        // max-norm error can't exceed the spectral tail by much.
        assert!(err < 4.0 * sig[4], "err {err} vs tail {}", sig[4]);
        for (got, want) in svd.sigma.iter().zip(sig.iter()) {
            assert!((got - want).abs() < 0.05 * want, "σ {got} vs {want}");
        }
    }

    #[test]
    fn agrees_with_exact_jacobi_on_small_dense() {
        let mut rng = StdRng::seed_from_u64(99);
        let a = DenseMatrix::random_gaussian(25, 25, &mut rng);
        let exact = jacobi_svd(&a).unwrap();
        let cfg = RandomizedSvdConfig { rank: 5, oversample: 15, power_iterations: 6, seed: 3 };
        let approx = randomized_svd(&a, &cfg).unwrap();
        for j in 0..5 {
            assert!(
                (approx.sigma[j] - exact.sigma[j]).abs() < 1e-6 * exact.sigma[0],
                "σ_{j}: {} vs {}",
                approx.sigma[j],
                exact.sigma[j]
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = matrix_with_spectrum(30, 30, &[5.0, 3.0, 2.0, 1.0], 21);
        let cfg = RandomizedSvdConfig::with_rank(2);
        let s1 = randomized_svd(&a, &cfg).unwrap();
        let s2 = randomized_svd(&a, &cfg).unwrap();
        assert!(s1.u.approx_eq(&s2.u, 0.0));
        assert_eq!(s1.sigma, s2.sigma);
    }

    #[test]
    fn rejects_bad_rank() {
        let a = DenseMatrix::identity(4);
        assert!(randomized_svd(&a, &RandomizedSvdConfig::with_rank(0)).is_err());
        assert!(randomized_svd(&a, &RandomizedSvdConfig::with_rank(5)).is_err());
    }

    #[test]
    fn rank_equal_to_dimension() {
        let a = matrix_with_spectrum(8, 8, &[4.0, 3.0, 2.0, 1.0, 0.5, 0.25, 0.1, 0.05], 5);
        let cfg = RandomizedSvdConfig { rank: 8, oversample: 4, power_iterations: 3, seed: 4 };
        let svd = randomized_svd(&a, &cfg).unwrap();
        assert!(svd.reconstruct().approx_eq(&a, 1e-7));
    }
}
