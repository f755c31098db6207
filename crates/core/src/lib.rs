//! # csrplus-core
//!
//! The CSR+ multi-source CoSimRank algorithm (EDBT 2024), its exact
//! reference implementations, and the paper's accuracy metric.
//!
//! CoSimRank is the fixed point of `S = c·QᵀSQ + Iₙ` (Eq. 1) over the
//! column-normalised adjacency matrix `Q`.  CSR+ answers multi-source
//! queries `[S]_{*,Q}` in `O(r(m + n(r + |Q|)))` time and `O(rn)` memory by
//! combining a rank-`r` truncated SVD with the four optimisation stages of
//! Theorems 3.1–3.5:
//!
//! 1. the mixed-product identity collapses `(V⊗V)ᵀ(U⊗U)` to `Θ⊗Θ`;
//! 2. column-orthonormality of `V` removes `(V⊗V)ᵀ` from the query path;
//! 3. `Λ·vec(I_r)` is obtained as `vec(ΣPΣ)` where `P = cHPHᵀ + I_r` lives
//!    entirely in the `r × r` subspace (solved by repeated squaring);
//! 4. `(U⊗U)·vec(·)` becomes the sandwich `U(·)Uᵀ`, evaluated lazily
//!    against the query columns only.
//!
//! Entry points:
//! * [`CsrPlusConfig`] / [`CsrPlusModel`] — precompute once, query often;
//! * [`exact`] — ground-truth CoSimRank (per-query recursion, dense
//!   all-pairs iteration, and a Kronecker linear solve for tiny graphs);
//! * [`metrics`] — the paper's `AvgDiff` accuracy measure;
//! * [`topk`] — the one top-`k` selection every ranked answer goes through;
//! * [`engine`] — the object-safe trait every algorithm (CSR+ and the
//!   baselines in `csrplus-baselines`) implements for the bench harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod dynamic;
pub mod engine;
pub mod error;
pub mod exact;
pub mod factor;
pub mod metrics;
pub mod model;
pub mod persist;
pub mod precision;
pub mod topk;

pub use config::{CsrPlusConfig, SvdBackend};
// Re-exported because it appears throughout the public API (query blocks,
// `_into` scratch buffers) — dependants need not name csrplus-linalg.
pub use csrplus_linalg::DenseMatrix;
pub use engine::{CoSimRankEngine, EngineOutcome};
pub use error::CoSimRankError;
pub use factor::{DenseMatrixF32, Factor, FactorView, RowRef};
pub use model::{CsrPlusModel, ModelPermutation, Query};
pub use precision::{storage_precision, Precision};
