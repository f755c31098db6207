//! # csrplus-linalg
//!
//! Self-contained dense linear algebra for the `csrplus` workspace.
//!
//! The CSR+ paper (EDBT 2024) is, at its heart, a sequence of matrix
//! identities (Theorems 3.1–3.5) applied to a low-rank SVD of the
//! column-normalised adjacency matrix.  This crate provides every matrix
//! primitive those theorems require, implemented from scratch:
//!
//! * [`DenseMatrix`] — row-major dense matrices with BLAS-like kernels
//!   (blocked multiply, transpose-multiply, rank updates);
//! * [`qr`] — thin QR (CholeskyQR2, with a Householder fallback) used to
//!   orthonormalise subspace bases;
//! * [`jacobi`] — a cyclic Jacobi eigensolver for small symmetric matrices;
//! * [`svd`] — one-sided Jacobi SVD for small dense matrices (exact) and
//!   the [`svd::TruncatedSvd`] result type;
//! * [`randomized`] — randomized subspace-iteration **truncated SVD** over
//!   any [`LinearOperator`], the workhorse used to factor billion-edge
//!   sparse transition matrices as `Q ≈ U Σ Vᵀ`;
//! * [`kron`] — Kronecker (tensor) products, both materialised (used by the
//!   faithful CSR-NI baseline) and streamed row-by-row (used by its
//!   memory-bounded variant);
//! * [`lu`] — LU decomposition with partial pivoting for small solves and
//!   inverses (the `Λ` matrix of Li et al.'s Eq. (6b)).
//!
//! Computation is `f64`; matrices the algorithms keep around are either
//! `O(n·r)` tall-skinny or `O(r²)` small, so a simple row-major layout with
//! cache-blocked kernels is the right trade-off.  Storage may optionally
//! be `f32` ([`MatView`] is generic over the element type): the mixed
//! kernels ([`view::matmul_into_mixed`], [`vector::dot_f32`]) widen every
//! element to `f64` before multiplying, halving factor memory while
//! keeping full-precision accumulation.
//!
//! The dense hot paths dispatch at runtime to explicitly vectorised
//! kernels ([`simd`]) that replay the scalar accumulation order exactly
//! (no FMA), so results stay bitwise identical across the scalar/SIMD
//! switch *and* across thread caps.  `unsafe` is denied crate-wide and
//! allowed only inside [`simd`], whose intrinsic blocks are individually
//! justified and run under `deny(unsafe_op_in_unsafe_fn)`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod error;
pub mod jacobi;
pub mod kron;
pub mod linop;
pub mod lu;
pub mod qr;
pub mod randomized;
#[allow(unsafe_code)]
#[deny(unsafe_op_in_unsafe_fn)]
pub mod simd;
pub mod svd;
pub mod svd_update;
pub mod vector;
pub mod view;

pub use dense::DenseMatrix;
pub use error::LinalgError;
pub use linop::LinearOperator;
pub use svd::TruncatedSvd;
pub use view::{matmul_into, matmul_into_mixed, matvec_into, par_row_bands, MatView, MatViewMut};
