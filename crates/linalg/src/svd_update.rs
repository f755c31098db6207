//! Rank-one updates of a truncated SVD (Brand's algorithm).
//!
//! The CSR+ paper handles static graphs; its related work (Yu & Wang's
//! F-CoSim) motivates *evolving* graphs.  An edge insertion/deletion
//! changes exactly one column of the transition matrix `Q`, i.e. is the
//! rank-one update `Q' = Q + a·bᵀ` with `b = e_y`.  Brand (2006) updates
//! the thin SVD `A ≈ UΣVᵀ` (`U` is `m×r`, `V` is `n×r`) under such a
//! perturbation:
//!
//! 1. project the update into the current subspaces:
//!    `m⃗ = Uᵀa`, `p = a − U·m⃗`, `n⃗ = Vᵀb`, `q = b − V·n⃗`.  The
//!    update vectors are sparse `(index, value)` lists, so `m⃗` and `n⃗`
//!    sum only the rows of `U` and `V` that `a` and `b` touch, and each
//!    residual is one pass of contiguous row dots over its basis;
//! 2. form the `(r+1)×(r+1)` core
//!    `K = [diag(σ) 0; 0 0] + [m⃗; ‖p‖]·[n⃗; ‖q‖]ᵀ`;
//! 3. take the small exact SVD `K = U' Σ' V'ᵀ` and rotate:
//!    `U ← [U p̂]·U'`, `V ← [V q̂]·V'`, truncating back to rank `r`.  Each
//!    rotation is one pooled GEMM of the basis by the top `r×r'` block of
//!    the core factor plus a rank-one row update for `p̂` (or `q̂`), run
//!    band by band, and written into storage the caller hands in.
//!
//! For square `A` the caller may also carry the `r×r` Gram `G = UᵀV`
//! through the update (Brand 2006):
//! `G' = U'ᵀ·[[G, Uᵀq̂], [p̂ᵀV, p̂ᵀq̂]]·V'`.  `p̂ᵀV` is summed in the pass
//! over `V` that forms `q`; `Uᵀq̂ = (Uᵀb − G·n⃗)/‖q‖` costs `O(r²)` for a
//! one-entry `b`; `p̂ᵀq̂` is one dot.  So the `O(nr²)` product `UᵀV` is
//! never recomputed, and the whole update costs two `n×r×r` GEMMs, two
//! `O(nr)` passes and `O(r³)` core work.
//!
//! The result is the *best* rank-`r` factorisation of the updated matrix
//! **restricted to the spanned subspace** — exact when the original SVD
//! was full-rank, and drifting by at most the truncated tail otherwise
//! (which is why `csrplus-core::dynamic` pairs it with a refresh policy).

use crate::dense::DenseMatrix;
use crate::error::LinalgError;
use crate::svd::{jacobi_svd, non_null_len, TruncatedSvd, NULL_TRIPLE_TOL};
use crate::vector;
use crate::view::{matmul_into, matmul_row_chunk, par_row_bands, MatView};
use std::time::{Duration, Instant};

/// A residual below this norm adds no direction to the extended basis.
const RESIDUAL_TOL: f64 = 1e-12;

/// A thin SVD `A ≈ U·diag(σ)·Vᵀ` by borrowed, row-contiguous factors.
#[derive(Clone, Copy)]
pub struct SvdFactors<'a> {
    /// Left singular vectors, `m × r`.
    pub u: MatView<'a>,
    /// Singular values, length `r`, descending.
    pub sigma: &'a [f64],
    /// Right singular vectors, `n × r`.
    pub v: MatView<'a>,
}

impl<'a> From<&'a TruncatedSvd> for SvdFactors<'a> {
    fn from(svd: &'a TruncatedSvd) -> Self {
        SvdFactors { u: svd.u.view(), sigma: &svd.sigma, v: svd.v.view() }
    }
}

/// Wall-clock split of one [`sparse_rank_one_update`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UpdateStats {
    /// `m⃗`, `n⃗`, the residuals `p` and `q`, and the Gram border terms.
    pub projection: Duration,
    /// Assembling `K` and its exact SVD.
    pub core_svd: Duration,
    /// The two basis rotations and the Gram rotation.
    pub rotation: Duration,
}

/// The outcome of [`sparse_rank_one_update`].
#[derive(Debug, Clone)]
pub struct Updated {
    /// The updated truncated SVD.
    pub svd: TruncatedSvd,
    /// `UᵀV` of the updated factors, when a Gram was carried in.
    pub gram: Option<DenseMatrix>,
    /// Where the time went.
    pub stats: UpdateStats,
}

/// Applies the rank-one update `A + a·bᵀ` to a truncated SVD of `A`,
/// returning a truncated SVD of the updated matrix at `target_rank`.
/// The dense form of [`sparse_rank_one_update`]: only the nonzero entries
/// of `a` and `b` are read after the length check.
///
/// # Errors
/// * [`LinalgError::ShapeMismatch`] if `a`/`b` lengths disagree with the
///   factor shapes.
/// * Propagates small-SVD failures (practically unreachable).
pub fn rank_one_update(
    svd: &TruncatedSvd,
    a: &[f64],
    b: &[f64],
    target_rank: usize,
) -> Result<TruncatedSvd, LinalgError> {
    let (m, n) = (svd.u.rows(), svd.v.rows());
    if a.len() != m || b.len() != n {
        return Err(LinalgError::ShapeMismatch {
            context: "rank_one_update",
            lhs: (m, n),
            rhs: (a.len(), b.len()),
        });
    }
    let nonzeros =
        |x: &[f64]| x.iter().copied().enumerate().filter(|&(_, v)| v != 0.0).collect::<Vec<_>>();
    let empty = || DenseMatrix::zeros(0, 0);
    let updated = sparse_rank_one_update(
        svd.into(),
        &nonzeros(a),
        &nonzeros(b),
        None,
        target_rank,
        (empty(), empty()),
    )?;
    Ok(updated.svd)
}

/// Applies `A + a·bᵀ` to the thin SVD `svd` of `A`, with `a` and `b`
/// given as `(index, value)` entries (indices may repeat; their values
/// add).  With `gram = Some(UᵀV)` (square `A` only) the returned
/// [`Updated::gram`] is `UᵀV` of the new factors, rotated from the old
/// one in `O(nr + r³)`.  `into` donates the storage of the rotated `U`
/// and `V`: matrices the caller no longer needs (say, the factors an
/// earlier update replaced), reshaped in place, so a steady stream of
/// updates allocates and zero-fills no `n×r` buffer.  Empty matrices
/// make it allocate.
///
/// # Errors
/// * [`LinalgError::ShapeMismatch`] if an index is out of range, the
///   factors disagree with `σ`, or `gram` is not `r×r` over a square `A`.
/// * [`LinalgError::InvalidParameter`] if a factor view is not
///   row-contiguous.
/// * Propagates small-SVD failures (practically unreachable).
pub fn sparse_rank_one_update(
    svd: SvdFactors<'_>,
    a: &[(usize, f64)],
    b: &[(usize, f64)],
    gram: Option<&DenseMatrix>,
    target_rank: usize,
    into: (DenseMatrix, DenseMatrix),
) -> Result<Updated, LinalgError> {
    let (m, r) = svd.u.shape();
    let n = svd.v.rows();
    let shape_error =
        |lhs, rhs| LinalgError::ShapeMismatch { context: "rank_one_update", lhs, rhs };
    if svd.v.cols() != r || svd.sigma.len() != r {
        return Err(shape_error(svd.u.shape(), svd.v.shape()));
    }
    if !svd.u.is_row_contig() || !svd.v.is_row_contig() {
        return Err(LinalgError::InvalidParameter {
            context: "rank_one_update",
            message: "factor views must be row-contiguous".into(),
        });
    }
    if let Some(&(i, _)) = a.iter().find(|&&(i, _)| i >= m) {
        return Err(shape_error((m, r), (i, 1)));
    }
    if let Some(&(i, _)) = b.iter().find(|&&(i, _)| i >= n) {
        return Err(shape_error((n, r), (i, 1)));
    }
    if let Some(g) = gram {
        if g.shape() != (r, r) || m != n {
            return Err(shape_error((m, n), g.shape()));
        }
    }
    let threads = csrplus_par::threads();

    // 1. Project the update into the current subspaces: one pass over
    // the rows of U for p, one over the rows of V for q (and Vᵀp).
    let t0 = Instant::now();
    let m_vec = sparse_rows_sum(svd.u, a);
    let n_vec = sparse_rows_sum(svd.v, b);
    let (p, _) = residual(svd.u, a, &m_vec, None, threads);
    let (q, vtp) = residual(svd.v, b, &n_vec, gram.map(|_| &p[..]), threads);
    // Only dimensions with a genuine residual gain a row/column of the
    // core; extending with a zero vector would break the orthonormality
    // of the rotated bases.
    let (p, p_norm) = normalised(p);
    let (q, q_norm) = normalised(q);
    let (have_p, have_q) = (p.is_some(), q.is_some());
    let gram_ext = gram.map(|g| {
        let border = Border {
            // Uᵀq = Uᵀb − G·n⃗, since q = b − V·n⃗: O(r²) for the sparse b.
            uq: q.as_ref().map(|_| {
                let mut uq = sparse_rows_sum(svd.u, b);
                for (i, x) in uq.iter_mut().enumerate() {
                    *x = (*x - vector::dot(g.row(i), &n_vec)) / q_norm;
                }
                uq
            }),
            vp: p.as_ref().map(|_| vtp.iter().map(|x| x / p_norm).collect()),
            pq: p.as_deref().zip(q.as_deref()).map(|(p, q)| vector::dot(p, q)),
        };
        extended_gram(g, border)
    });
    let projection = t0.elapsed();

    // 2. The extended core K and its small exact SVD.
    let t1 = Instant::now();
    let ext_u = r + usize::from(have_p);
    let ext_v = r + usize::from(have_q);
    let mut mh = m_vec;
    if have_p {
        mh.push(p_norm);
    }
    let mut nh = n_vec;
    if have_q {
        nh.push(q_norm);
    }
    let mut k = DenseMatrix::from_fn(ext_u, ext_v, |i, j| mh[i] * nh[j]);
    for (i, &s) in svd.sigma.iter().enumerate() {
        k.set(i, i, s + k.get(i, i));
    }
    let core = jacobi_svd(&k)?;
    // A rank-*decreasing* update (e.g. zeroing a matrix column) leaves
    // numerically-null core triples whose rotated columns are zero or
    // garbage; carrying them forward breaks the orthonormality of every
    // column produced by the *next* update's rotation.  Keep only the
    // triples `trim_null_triples` would keep, so the maintained
    // factorisation stays a genuine SVD.
    let rank_out = target_rank.min(core.rank());
    let keep = non_null_len(&core.sigma[..rank_out], NULL_TRIPLE_TOL);
    let core_svd = t1.elapsed();

    // 3. Rotate the extended bases: U_new = [U p̂]·U', V_new = [V q̂]·V'.
    let t2 = Instant::now();
    let (mut u_new, mut v_new) = into;
    rotate(svd.u, p.as_deref(), &core.u, keep, &mut u_new, threads);
    rotate(svd.v, q.as_deref(), &core.v, keep, &mut v_new, threads);
    let gram = match gram_ext {
        Some(g) => {
            let cu = core.u.select_cols(&(0..keep).collect::<Vec<_>>());
            let cv = core.v.select_cols(&(0..keep).collect::<Vec<_>>());
            Some(cu.matmul_transpose_a(&g)?.matmul(&cv)?)
        }
        None => None,
    };
    let rotation = t2.elapsed();

    let sigma = core.sigma[..keep].to_vec();
    Ok(Updated {
        svd: TruncatedSvd { u: u_new, sigma, v: v_new },
        gram,
        stats: UpdateStats { projection, core_svd, rotation },
    })
}

/// `Bᵀx` for a sparse `x`: the sum of the rows of `B` that `x` touches.
fn sparse_rows_sum(basis: MatView<'_>, x: &[(usize, f64)]) -> Vec<f64> {
    let mut out = vec![0.0; basis.cols()];
    for &(i, xi) in x {
        if xi != 0.0 {
            vector::axpy(xi, basis.row_slice(i).expect("row-contiguous"), &mut out);
        }
    }
    out
}

/// The residual `x − B·c` of the sparse `x` against `span(B)` in one
/// pass over the rows of `B` (each entry a contiguous row dot), and,
/// when `w` is given, `Bᵀw` accumulated in the same pass.  Row bands and
/// their partial sums depend only on the shape, and the partials are
/// added in band order, so the result is the same at any thread count.
fn residual(
    basis: MatView<'_>,
    x: &[(usize, f64)],
    c: &[f64],
    w: Option<&[f64]>,
    threads: usize,
) -> (Vec<f64>, Vec<f64>) {
    let (n, r) = basis.shape();
    let mut res = vec![0.0; n];
    let chunk = csrplus_par::chunk_len(n, 4 * r.max(1), 1 << 16);
    let mut bands: Vec<(&mut [f64], Vec<f64>)> =
        res.chunks_mut(chunk).map(|band| (band, vec![0.0; r * usize::from(w.is_some())])).collect();
    csrplus_par::for_each_chunk_mut(&mut bands, 1, threads, |bi, band| {
        let (out, partial) = &mut band[0];
        for (off, slot) in out.iter_mut().enumerate() {
            let i = bi * chunk + off;
            let row = basis.row_slice(i).expect("row-contiguous");
            *slot = -vector::dot(row, c);
            if let Some(w) = w {
                vector::axpy(w[i], row, partial);
            }
        }
    });
    let mut btw = vec![0.0; r * usize::from(w.is_some())];
    for (_, partial) in &bands {
        for (acc, v) in btw.iter_mut().zip(partial) {
            *acc += v;
        }
    }
    drop(bands);
    for &(i, xi) in x {
        res[i] += xi;
    }
    (res, btw)
}

/// `x / ‖x‖` with `‖x‖`, or `None` when the norm is below
/// [`RESIDUAL_TOL`].
fn normalised(mut x: Vec<f64>) -> (Option<Vec<f64>>, f64) {
    let norm = vector::norm2(&x);
    if norm > RESIDUAL_TOL {
        vector::scale(1.0 / norm, &mut x);
        (Some(x), norm)
    } else {
        (None, norm)
    }
}

/// The border of `[U p̂]ᵀ[V q̂]` around `G`, present only for the
/// residuals that extend their basis.
struct Border {
    /// `Uᵀq̂`.
    uq: Option<Vec<f64>>,
    /// `Vᵀp̂`.
    vp: Option<Vec<f64>>,
    /// `p̂ᵀq̂`.
    pq: Option<f64>,
}

/// `[U p̂]ᵀ[V q̂] = [[G, Uᵀq̂], [p̂ᵀV, p̂ᵀq̂]]`.
fn extended_gram(gram: &DenseMatrix, border: Border) -> DenseMatrix {
    let r = gram.rows();
    let ext_u = r + usize::from(border.vp.is_some());
    let ext_v = r + usize::from(border.uq.is_some());
    let mut ext = DenseMatrix::zeros(ext_u, ext_v);
    for i in 0..r {
        ext.row_mut(i)[..r].copy_from_slice(gram.row(i));
    }
    if let Some(uq) = &border.uq {
        for (i, &x) in uq.iter().enumerate() {
            ext.set(i, r, x);
        }
    }
    if let Some(vp) = &border.vp {
        ext.row_mut(r)[..r].copy_from_slice(vp);
    }
    if let Some(pq) = border.pq {
        ext.set(r, r, pq);
    }
    ext
}

/// `out ← [B x]·C[.., ..cols]`: the `n×r` basis `B` times the top
/// `r×cols` block of the core factor `C`, then — when `x` extends the basis — the
/// rank-one row update `x ⊗ C[r, ..cols]`.  Each shape-determined row
/// band runs its GEMM and its rank-one update back to back, so the band
/// is still in cache for the second; the result is the same at any
/// thread count.
fn rotate(
    basis: MatView<'_>,
    extra: Option<&[f64]>,
    core: &DenseMatrix,
    cols: usize,
    out: &mut DenseMatrix,
    threads: usize,
) {
    let (n, r) = basis.shape();
    let top = core.view().block(0, r, 0, cols);
    let extra = extra.map(|x| (x, &core.row(r)[..cols]));
    // Every element is written by the band GEMM below.
    out.resize_for_overwrite(n, cols);
    let chunk = matmul_row_chunk(n, r, cols);
    par_row_bands(out.view_mut(), chunk, threads, |lo, mut band| {
        let rows = band.rows();
        matmul_into(basis.block(lo, lo + rows, 0, r), top, band.reborrow(), 1)
            .expect("band shapes agree");
        if let Some((x, last)) = extra {
            for i in 0..rows {
                vector::axpy(x[lo + i], last, band.row_slice_mut(i).expect("row-contiguous"));
            }
        }
    });
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index loops mirror the matrix math
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random(m: usize, n: usize, seed: u64) -> DenseMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        DenseMatrix::random_gaussian(m, n, &mut rng)
    }

    fn apply_rank_one(a: &DenseMatrix, x: &[f64], y: &[f64]) -> DenseMatrix {
        let mut out = a.clone();
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                let v = out.get(i, j) + x[i] * y[j];
                out.set(i, j, v);
            }
        }
        out
    }

    /// The rotation as the scalar triple loop it replaced.
    fn rotate_reference(
        basis: &DenseMatrix,
        extra: Option<&[f64]>,
        core: &DenseMatrix,
        cols: usize,
    ) -> DenseMatrix {
        let (n, r) = basis.shape();
        let mut out = DenseMatrix::zeros(n, cols);
        for i in 0..n {
            for j in 0..cols {
                let mut acc = 0.0;
                for t in 0..r {
                    acc += basis.get(i, t) * core.get(t, j);
                }
                if let Some(x) = extra {
                    acc += x[i] * core.get(r, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// The dense update as it was before the GEMM rotation: strided
    /// projections, per-entry residuals and [`rotate_reference`].
    fn rank_one_update_reference(
        svd: &TruncatedSvd,
        a: &[f64],
        b: &[f64],
        target_rank: usize,
    ) -> TruncatedSvd {
        let r = svd.rank();
        let residual = |basis: &DenseMatrix, x: &[f64]| {
            let c = basis.matvec_transpose(x);
            let mut res = x.to_vec();
            for (j, &cj) in c.iter().enumerate() {
                for i in 0..res.len() {
                    res[i] -= cj * basis.get(i, j);
                }
            }
            let norm = vector::norm2(&res);
            vector::scale(1.0 / norm, &mut res);
            (c, (norm > RESIDUAL_TOL).then_some(res), norm)
        };
        let (mut mh, p, p_norm) = residual(&svd.u, a);
        let (mut nh, q, q_norm) = residual(&svd.v, b);
        if p.is_some() {
            mh.push(p_norm);
        }
        if q.is_some() {
            nh.push(q_norm);
        }
        let mut k = DenseMatrix::zeros(mh.len(), nh.len());
        for i in 0..mh.len() {
            for j in 0..nh.len() {
                let s = if i == j && i < r { svd.sigma[i] } else { 0.0 };
                k.set(i, j, s + mh[i] * nh[j]);
            }
        }
        let core = jacobi_svd(&k).unwrap();
        let rank_out = target_rank.min(core.rank());
        let u = rotate_reference(&svd.u, p.as_deref(), &core.u, rank_out);
        let v = rotate_reference(&svd.v, q.as_deref(), &core.v, rank_out);
        let sigma = core.sigma[..rank_out].to_vec();
        TruncatedSvd { u, sigma, v }.trim_null_triples(NULL_TRIPLE_TOL)
    }

    /// `max |x − y| / max(max |y|, tiny)`.
    fn relative_diff(x: &DenseMatrix, y: &DenseMatrix) -> f64 {
        x.max_abs_diff(y) / y.max_abs().max(f64::MIN_POSITIVE)
    }

    #[test]
    fn full_rank_update_is_exact() {
        let a = random(8, 6, 1);
        let svd = jacobi_svd(&a).unwrap(); // rank 6 = full
        let x: Vec<f64> = (0..8).map(|i| (i as f64 * 0.3).sin()).collect();
        let y: Vec<f64> = (0..6).map(|i| (i as f64 * 0.7).cos()).collect();
        let updated = rank_one_update(&svd, &x, &y, 7).unwrap();
        let want = apply_rank_one(&a, &x, &y);
        assert!(
            updated.reconstruct().approx_eq(&want, 1e-9),
            "diff {}",
            updated.reconstruct().max_abs_diff(&want)
        );
        assert!(updated.invariant_violation() < 1e-9);
    }

    #[test]
    fn update_within_subspace_stays_exact_at_same_rank() {
        // Build a rank-3 matrix, update it with vectors inside its own
        // row/column spaces: the rank-3 truncated update must stay exact.
        let left = random(10, 3, 2);
        let right = random(7, 3, 3);
        let a = left.matmul_transpose_b(&right).unwrap();
        let svd = jacobi_svd(&a).unwrap().truncate(3);
        // x = first left factor column, y = first right factor column.
        let x = left.col(0);
        let y = right.col(0);
        let updated = rank_one_update(&svd, &x, &y, 3).unwrap();
        let want = apply_rank_one(&a, &x, &y);
        assert!(
            updated.reconstruct().approx_eq(&want, 1e-8),
            "diff {}",
            updated.reconstruct().max_abs_diff(&want)
        );
    }

    #[test]
    fn residual_directions_are_captured_with_extra_rank() {
        // Rank-2 matrix + update orthogonal to both subspaces → rank 3;
        // asking for rank 3 output must capture it exactly.
        let mut a = DenseMatrix::zeros(5, 5);
        a.set(0, 0, 4.0);
        a.set(1, 1, 2.0);
        let svd = jacobi_svd(&a).unwrap().truncate(2);
        let mut x = vec![0.0; 5];
        x[3] = 1.5;
        let mut y = vec![0.0; 5];
        y[4] = 1.0;
        let updated = rank_one_update(&svd, &x, &y, 3).unwrap();
        let want = apply_rank_one(&a, &x, &y);
        assert!(updated.reconstruct().approx_eq(&want, 1e-10));
        assert_eq!(updated.rank(), 3);
    }

    #[test]
    fn truncated_update_degrades_gracefully() {
        // With a decaying spectrum, a truncated update's error stays on
        // the order of the discarded tail.
        let a = random(20, 20, 4);
        let full = jacobi_svd(&a).unwrap();
        let tail = full.sigma[8];
        let trunc = full.truncate(8);
        let x: Vec<f64> = (0..20).map(|i| 0.1 * (i as f64).cos()).collect();
        let y: Vec<f64> = (0..20).map(|i| 0.1 * (i as f64).sin()).collect();
        let updated = rank_one_update(&trunc, &x, &y, 8).unwrap();
        let want = apply_rank_one(&a, &x, &y);
        let err = updated.reconstruct().max_abs_diff(&want);
        assert!(err < 3.0 * tail, "err {err} vs tail {tail}");
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = random(4, 3, 5);
        let svd = jacobi_svd(&a).unwrap();
        assert!(rank_one_update(&svd, &[1.0; 3], &[1.0; 3], 3).is_err());
        assert!(rank_one_update(&svd, &[1.0; 4], &[1.0; 4], 3).is_err());
    }

    #[test]
    fn sparse_indices_and_gram_shapes_are_checked() {
        let empty = || DenseMatrix::zeros(0, 0);
        let a = random(5, 5, 8);
        let svd = jacobi_svd(&a).unwrap().truncate(3);
        let update = |a: &[(usize, f64)], b: &[(usize, f64)], g: Option<&DenseMatrix>| {
            sparse_rank_one_update((&svd).into(), a, b, g, 3, (empty(), empty()))
        };
        assert!(update(&[(5, 1.0)], &[(0, 1.0)], None).is_err());
        assert!(update(&[(0, 1.0)], &[(9, 1.0)], None).is_err());
        assert!(update(&[(0, 1.0)], &[(0, 1.0)], Some(&DenseMatrix::zeros(2, 2))).is_err());
        let gram = svd.u.matmul_transpose_a(&svd.v).unwrap();
        assert!(update(&[(0, 1.0)], &[(4, 1.0)], Some(&gram)).unwrap().gram.is_some());
        let wide = jacobi_svd(&random(5, 4, 9)).unwrap().truncate(3);
        let gram = wide.u.matmul_transpose_a(&wide.u).unwrap();
        let non_square =
            sparse_rank_one_update((&wide).into(), &[], &[], Some(&gram), 3, (empty(), empty()));
        assert!(non_square.is_err(), "a Gram UᵀV needs a square matrix");
    }

    #[test]
    fn sequence_of_updates_tracks_matrix() {
        // Apply five rank-one updates at full rank; factorisation must
        // track the evolving matrix exactly throughout.
        let mut a = random(6, 6, 6);
        let mut svd = jacobi_svd(&a).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..5 {
            let x = DenseMatrix::random_gaussian(6, 1, &mut rng).into_vec();
            let y = DenseMatrix::random_gaussian(6, 1, &mut rng).into_vec();
            a = apply_rank_one(&a, &x, &y);
            svd = rank_one_update(&svd, &x, &y, 6).unwrap();
            assert!(
                svd.reconstruct().approx_eq(&a, 1e-8),
                "drift {}",
                svd.reconstruct().max_abs_diff(&a)
            );
        }
    }

    #[test]
    fn carried_gram_tracks_a_fresh_product() {
        // Sparse column edits on a truncated square SVD, as the dynamic
        // engine makes them: the rotated Gram stays UᵀV of the factors.
        let n = 30;
        let mut svd = jacobi_svd(&random(n, n, 10)).unwrap().truncate(6);
        let mut gram = svd.u.matmul_transpose_a(&svd.v).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut spare = (DenseMatrix::zeros(0, 0), DenseMatrix::zeros(0, 0));
        for step in 0..40 {
            let noise = DenseMatrix::random_gaussian(3, 1, &mut rng).into_vec();
            let a: Vec<(usize, f64)> =
                noise.iter().enumerate().map(|(i, &v)| ((step * 7 + i * 5) % n, v)).collect();
            let b = [(step * 11 % n, 1.0)];
            let updated =
                sparse_rank_one_update((&svd).into(), &a, &b, Some(&gram), 6, spare).unwrap();
            let retired = std::mem::replace(&mut svd, updated.svd);
            // The next update writes over the factors this one replaced.
            spare = (retired.u, retired.v);
            gram = updated.gram.unwrap();
            let fresh = svd.u.matmul_transpose_a(&svd.v).unwrap();
            assert!(
                gram.max_abs_diff(&fresh) <= 1e-12 * fresh.frobenius_norm(),
                "step {step}: carried Gram off by {}",
                gram.max_abs_diff(&fresh)
            );
            assert!(svd.invariant_violation() < 1e-10);
        }
    }

    /// `(basis n×r, extra?, core (r+1)×c or r×c, cols ≤ c)`.
    type Rotation = (DenseMatrix, Option<Vec<f64>>, DenseMatrix, usize);

    fn arb_rotation() -> impl Strategy<Value = Rotation> {
        (1usize..60, 1usize..9, proptest::bool::ANY, 0u64..1 << 20).prop_flat_map(
            |(n, r, extra, seed)| {
                let rows = r + usize::from(extra);
                (1..=rows).prop_map(move |cols| {
                    let basis = random(n, r, seed);
                    let x = extra.then(|| random(n, 1, seed + 1).into_vec());
                    (basis, x, random(rows, rows, seed + 2), cols)
                })
            },
        )
    }

    /// `(A m×n, a, b, rank)`: the four residual cases by construction
    /// (`a` in or out of span(U), `b` in or out of span(V)), and
    /// rank-decreasing edits that zero one column of `A`.
    type Edit = (DenseMatrix, Vec<f64>, Vec<f64>, usize);

    fn arb_edit() -> impl Strategy<Value = Edit> {
        (2usize..12, 2usize..12, 0usize..5, 0u64..1 << 20).prop_flat_map(|(m, n, kind, seed)| {
            let full = m.min(n);
            (1..=full).prop_map(move |rank| {
                let left = random(m, rank, seed);
                let right = random(n, rank, seed + 1);
                let a = left.matmul_transpose_b(&right).unwrap();
                let (x, y) = match kind {
                    // Zero column 0 of A: A + (−A e₀)·e₀ᵀ.
                    0 => {
                        let mut e0 = vec![0.0; n];
                        e0[0] = 1.0;
                        (a.col(0).iter().map(|v| -v).collect(), e0)
                    }
                    _ => {
                        let out_x = random(m, 1, seed + 2).into_vec();
                        let out_y = random(n, 1, seed + 3).into_vec();
                        let in_x = left.matvec(&random(rank, 1, seed + 4).into_vec());
                        let in_y = right.matvec(&random(rank, 1, seed + 5).into_vec());
                        match kind {
                            1 => (out_x, out_y),
                            2 => (in_x, out_y),
                            3 => (out_x, in_y),
                            _ => (in_x, in_y),
                        }
                    }
                };
                (a, x, y, rank)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn gemm_rotation_matches_the_triple_loop((basis, x, core, cols) in arb_rotation()) {
            // A donor of the wrong shape with stale values: every entry
            // must be overwritten.
            let mut got = DenseMatrix::from_fn(basis.rows() + 3, 2, |i, j| (i * 7 + j) as f64);
            rotate(basis.view(), x.as_deref(), &core, cols, &mut got, csrplus_par::threads());
            let want = rotate_reference(&basis, x.as_deref(), &core, cols);
            prop_assert!(relative_diff(&got, &want) <= 1e-12, "off by {}", relative_diff(&got, &want));
        }

        #[test]
        fn update_matches_the_reference_update((a, x, y, rank) in arb_edit()) {
            let svd = jacobi_svd(&a).unwrap().truncate(rank).trim_null_triples(NULL_TRIPLE_TOL);
            let got = rank_one_update(&svd, &x, &y, rank).unwrap();
            let want = rank_one_update_reference(&svd, &x, &y, rank);
            prop_assert_eq!(got.rank(), want.rank());
            let scale = want.sigma[0].max(f64::MIN_POSITIVE);
            for (g, w) in got.sigma.iter().zip(&want.sigma) {
                prop_assert!((g - w).abs() <= 1e-12 * scale, "σ {g} against {w}");
            }
            let (g, w) = (got.reconstruct(), want.reconstruct());
            prop_assert!(relative_diff(&g, &w) <= 1e-12, "off by {}", relative_diff(&g, &w));
            prop_assert!(got.invariant_violation() < 1e-10);
        }
    }
}
