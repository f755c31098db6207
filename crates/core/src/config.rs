//! CSR+ configuration and iteration-count bounds.

use crate::error::CoSimRankError;
use crate::precision::Precision;
use csrplus_linalg::lanczos::LanczosSvdConfig;
use csrplus_linalg::randomized::RandomizedSvdConfig;

/// Which truncated-SVD algorithm powers line 2 of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SvdBackend {
    /// Randomized subspace iteration (Halko et al.) — the default; best
    /// throughput on decaying spectra (few passes over the graph).
    #[default]
    Randomized,
    /// Golub–Kahan–Lanczos bidiagonalisation (the `svds` family) — more
    /// reliable extreme triples on flat spectra, strictly sequential.
    Lanczos,
}

/// Parameters of Algorithm 1 (plus randomized-SVD knobs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CsrPlusConfig {
    /// Damping factor `c ∈ (0, 1)`; the paper defaults to 0.6.
    pub damping: f64,
    /// Target low rank `r ≪ n`; the paper defaults to 5.
    pub rank: usize,
    /// Desired accuracy `ε` for the subspace fixed point (default 1e-5).
    pub epsilon: f64,
    /// Randomized-SVD oversampling (extra sketch columns).
    pub oversample: usize,
    /// Randomized-SVD power iterations.
    pub power_iterations: usize,
    /// RNG seed for the sketch — runs are deterministic given it.
    pub seed: u64,
    /// Which truncated-SVD algorithm to use.
    pub backend: SvdBackend,
    /// Storage precision of the memoised `U` and `Z` (line 6).  A loaded
    /// model reports the precision its artifact stores.
    pub precision: Precision,
}

impl Default for CsrPlusConfig {
    fn default() -> Self {
        CsrPlusConfig {
            damping: 0.6,
            rank: 5,
            epsilon: 1e-5,
            oversample: 8,
            power_iterations: 2,
            seed: 0xC0_51_31,
            backend: SvdBackend::Randomized,
            precision: Precision::F64,
        }
    }
}

impl CsrPlusConfig {
    /// Convenience: default config at a specific rank.
    pub fn with_rank(rank: usize) -> Self {
        CsrPlusConfig { rank, ..Default::default() }
    }

    /// Validates ranges; `n` is the graph size (bounds the rank).
    pub fn validate(&self, n: usize) -> Result<(), CoSimRankError> {
        if !(self.damping > 0.0 && self.damping < 1.0) {
            return Err(CoSimRankError::InvalidConfig {
                message: format!("damping {} not in (0,1)", self.damping),
            });
        }
        if self.rank == 0 || self.rank > n {
            return Err(CoSimRankError::InvalidConfig {
                message: format!("rank {} not in 1..={n}", self.rank),
            });
        }
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return Err(CoSimRankError::InvalidConfig {
                message: format!("epsilon {} not in (0,1)", self.epsilon),
            });
        }
        Ok(())
    }

    /// Number of repeated-squaring iterations of Algorithm 1 lines 4–5:
    /// `max{0, ⌊log₂ log_c ε⌋} + 1`, which guarantees
    /// `‖P_k − P‖_max < ε` (the doubling covers `c^(2^k − 1)` terms).
    pub fn squaring_iterations(&self) -> usize {
        squaring_iterations(self.damping, self.epsilon)
    }

    /// Number of plain (linear) fixed-point iterations achieving the same
    /// `ε` truncation: the smallest `K` with `c^{K+1}/(1−c) < ε`.  Used by
    /// the exact reference and by iterative baselines.
    pub fn linear_iterations(&self) -> usize {
        linear_iterations(self.damping, self.epsilon)
    }

    /// The `RandomizedSvdConfig` equivalent of this config.
    pub fn svd_config(&self) -> RandomizedSvdConfig {
        RandomizedSvdConfig {
            rank: self.rank,
            oversample: self.oversample,
            power_iterations: self.power_iterations,
            seed: self.seed,
        }
    }

    /// The `LanczosSvdConfig` equivalent of this config (`oversample`
    /// doubles as the extra-step padding).
    pub fn lanczos_config(&self) -> LanczosSvdConfig {
        LanczosSvdConfig { rank: self.rank, extra_steps: self.oversample.max(8), seed: self.seed }
    }
}

/// `max{0, ⌊log₂ log_c ε⌋} + 1` (Algorithm 1 line 4).
pub fn squaring_iterations(c: f64, eps: f64) -> usize {
    debug_assert!(c > 0.0 && c < 1.0 && eps > 0.0 && eps < 1.0);
    let log_c_eps = eps.ln() / c.ln(); // > 0
    let l2 = log_c_eps.log2().floor();
    let bounded = if l2 > 0.0 { l2 as usize } else { 0 };
    bounded + 1
}

/// Smallest `K` such that the geometric tail `c^{K+1}/(1−c) < ε`.
pub fn linear_iterations(c: f64, eps: f64) -> usize {
    debug_assert!(c > 0.0 && c < 1.0 && eps > 0.0 && eps < 1.0);
    // k+1 > log_c(ε(1−c)); start from the analytic estimate and adjust to
    // the exact minimum (floating-point boundary cases).
    let t = (eps * (1.0 - c)).ln() / c.ln(); // > 0
    let mut k = (t - 1.0).max(0.0).floor() as usize;
    while c.powi(k as i32 + 1) / (1.0 - c) >= eps {
        k += 1;
    }
    while k > 0 && c.powi(k as i32) / (1.0 - c) < eps {
        k -= 1;
    }
    k.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = CsrPlusConfig::default();
        assert_eq!(c.damping, 0.6);
        assert_eq!(c.rank, 5);
        assert_eq!(c.epsilon, 1e-5);
        assert_eq!(c.precision, Precision::F64);
        assert!(c.validate(100).is_ok());
    }

    #[test]
    fn squaring_count_for_paper_defaults() {
        // log_0.6(1e-5) ≈ 22.54 → log2 ≈ 4.49 → ⌊·⌋ = 4 → +1 = 5.
        assert_eq!(squaring_iterations(0.6, 1e-5), 5);
        // With c = 0.8: log_0.8(1e-5) ≈ 51.6 → log2 ≈ 5.69 → 5 → 6.
        assert_eq!(squaring_iterations(0.8, 1e-5), 6);
        // Loose ε where log_c ε < 2 → bound 0 → one iteration.
        assert_eq!(squaring_iterations(0.6, 0.5), 1);
    }

    #[test]
    fn squaring_covers_linear_terms() {
        // After k squarings the doubled expansion contains 2^k geometric
        // terms; that must dominate the linear iteration count.
        for &(c, eps) in &[(0.6, 1e-5), (0.8, 1e-8), (0.5, 1e-3)] {
            let k = squaring_iterations(c, eps);
            let lin = linear_iterations(c, eps);
            assert!((1usize << k) >= lin, "c={c} eps={eps}: 2^{k} < {lin} linear terms");
        }
    }

    #[test]
    fn linear_iterations_bound_tail() {
        let c = 0.6;
        let eps = 1e-5;
        let k = linear_iterations(c, eps);
        let tail = c.powi(k as i32 + 1) / (1.0 - c);
        assert!(tail < eps, "tail {tail} >= {eps}");
        // One fewer iteration must NOT satisfy the bound (minimality).
        let tail_prev = c.powi(k as i32) / (1.0 - c);
        assert!(tail_prev >= eps);
    }

    #[test]
    fn validation_rejects_bad_values() {
        let bad = [
            CsrPlusConfig { damping: 1.0, ..Default::default() },
            CsrPlusConfig { rank: 0, ..Default::default() },
            CsrPlusConfig { rank: 11, ..Default::default() },
            CsrPlusConfig { epsilon: 0.0, ..Default::default() },
        ];
        for c in bad {
            assert!(c.validate(10).is_err(), "{c:?} should be invalid");
        }
    }

    #[test]
    fn svd_config_mirrors_fields() {
        let c = CsrPlusConfig {
            rank: 7,
            oversample: 3,
            power_iterations: 4,
            seed: 9,
            ..Default::default()
        };
        let s = c.svd_config();
        assert_eq!(s.rank, 7);
        assert_eq!(s.oversample, 3);
        assert_eq!(s.power_iterations, 4);
        assert_eq!(s.seed, 9);
    }
}
