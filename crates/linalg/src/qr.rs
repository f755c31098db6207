//! Thin QR decomposition.
//!
//! Used by the randomized SVD to re-orthonormalise subspace bases between
//! power iterations.  For an `m × n` matrix with `m ≥ n` we return the thin
//! factors: `Q` (`m × n`, orthonormal columns) and `R` (`n × n`, upper
//! triangular) with `A = Q·R`.
//!
//! [`thin_qr`] runs **CholeskyQR2** (Yamamoto, Nakatsukasa, Yanagisawa and
//! Fukaya 2015): `G = AᵀA`, `G = R₁ᵀR₁`, `Q₁ = A·R₁⁻¹`, then the same again
//! on `Q₁`, returning `Q = Q₁·R₂⁻¹` and `R = R₂·R₁`.  Its two heavy steps
//! per pass — the Gram product and the panel times an `n × n` triangle —
//! are the pooled shape-chunked matmul kernels, so the factorisation runs
//! at GEMM speed; the Cholesky and the triangular inverse are serial
//! `O(n³)` work on the small Gram.  One pass alone leaves `Q₁ᵀQ₁ − I` of
//! order `κ(A)²·u`; the second pass brings it down to the order of `u`.
//!
//! CholeskyQR2 only holds while `κ₂(A)²·u` stays well below one.  Outside
//! that range — a rank-deficient, graded or non-finite panel — the Gram
//! check fails before the second `m × n` panel is allocated, and the
//! factorisation falls back to a **Householder** sweep.  That sweep works
//! row-major in place: applying the reflector `H = I − 2vvᵀ` to the
//! trailing block is a two-pass streaming kernel — first
//! `w = vᵀ·A[k.., k+1..]` (a deterministic chunked reduction over rows),
//! then the rank-1 update `A[i, k+1..] −= 2·v[i]·w` (row bands over the
//! shared [`csrplus_par`] pool) — and assembles `Q` in its spent working
//! copy.  Either path keeps peak scratch at two `m × n` panels, and either
//! is bitwise identical at every thread cap and across the scalar/SIMD
//! switch.

use crate::dense::DenseMatrix;
use crate::error::LinalgError;
use crate::vector;
use crate::view;

/// Work floor (flops) below which a reflector application stays on the
/// calling thread; one row update costs `~4·width` flops.
const MIN_PANEL_WORK: usize = 1 << 20;

/// Result of a thin QR decomposition.
#[derive(Debug, Clone)]
pub struct ThinQr {
    /// `m × n` matrix with orthonormal columns.
    pub q: DenseMatrix,
    /// `n × n` upper-triangular factor.
    pub r: DenseMatrix,
}

/// Applies `H = I − 2vvᵀ` (with `v` acting on rows `k..m`) to the column
/// block `jlo..` of `mat`, using `w` (length `cols − jlo`) and `partials`
/// as caller-owned scratch so the sweep allocates nothing per reflector.
///
/// Pass 1 accumulates `w = vᵀ·block` over rows in ascending order with the
/// fixed per-chunk partial scheme; pass 2 applies the rank-1 update in
/// disjoint row bands.  Chunk boundaries depend only on the shape, so the
/// result is bitwise identical at any thread count.
fn apply_reflector(
    mat: &mut DenseMatrix,
    k: usize,
    jlo: usize,
    v: &[f64],
    w: &mut [f64],
    partials: &mut Vec<f64>,
) {
    let (m, n) = mat.shape();
    let width = n - jlo;
    debug_assert_eq!(w.len(), width);
    debug_assert_eq!(v.len(), m - k);
    if width == 0 {
        return;
    }
    let threads = csrplus_par::threads();

    // Pass 1: w[j] = Σ_i v[i]·mat[k+i][jlo+j], ascending i per element.
    w.fill(0.0);
    let depth = m - k;
    let accumulate = |dst: &mut [f64], lo: usize, hi: usize| {
        for i in lo..hi {
            let vi = v[i - k];
            if vi != 0.0 {
                vector::axpy(vi, &mat.row(i)[jlo..], dst);
            }
        }
    };
    let chunk = view::reduction_chunk(depth, 2 * width);
    let n_chunks = csrplus_par::chunk_count(depth, chunk);
    if n_chunks == 1 {
        accumulate(w, k, m);
    } else {
        partials.clear();
        partials.resize(n_chunks * width, 0.0);
        csrplus_par::for_each_chunk_mut(partials, width, threads, |ci, part| {
            let lo = k + ci * chunk;
            accumulate(part, lo, (lo + chunk).min(m));
        });
        for part in partials.chunks(width) {
            vector::axpy(1.0, part, w);
        }
    }

    // Pass 2: mat[k+i][jlo..] −= (2·v[i])·w, disjoint row bands.
    let chunk_rows = csrplus_par::chunk_len(depth, 4 * width, MIN_PANEL_WORK);
    let tail = &mut mat.as_mut_slice()[k * n..];
    csrplus_par::for_each_chunk_mut(tail, chunk_rows * n, threads, |ci, rows| {
        let base = ci * chunk_rows;
        for (off, row) in rows.chunks_mut(n).enumerate() {
            let vi = v[base + off];
            if vi != 0.0 {
                vector::axpy(-2.0 * vi, w, &mut row[jlo..]);
            }
        }
    });
}

/// Relative floor on each Cholesky pivot of a Gram matrix `G = AᵀA`.
///
/// Pivot `d_k` is the squared distance of column `k` from the span of the
/// columns before it, so `d_k ≥ σ_min(A)²`, while every diagonal entry is
/// at most `σ_max(A)²`.  A pivot below `PIVOT_FLOOR · max_j G_jj`
/// therefore certifies `κ₂(A) > PIVOT_FLOOR^(-1/2) = 10⁵`, where `κ₂(A)²·u`
/// (`u ≈ 1.1e-16`) passes 1e-6 and CholeskyQR2's error bound starts to
/// erode; every panel with `κ₂(A) ≤ 10⁵` keeps the fast path.  The floor
/// also sits above the Gram's rounding noise, at most about
/// `(m + n)·u·max_j G_jj` (1.1e-10 relative only at a million rows), so
/// the noise pivot of an exactly rank-deficient panel cannot pass it.
const PIVOT_FLOOR: f64 = 1e-10;

/// Largest entry of `|Q₁ᵀQ₁ − I|` the second pass accepts.  The first
/// pass leaves a deviation of order `κ₂(A)²·u`; at ½ the first factor has
/// lost orthogonality outright, and its Gram is no longer a refinement
/// but a new factorisation problem.
const MAX_FIRST_PASS_DEVIATION: f64 = 0.5;

/// Computes the thin QR factorisation of `a`: CholeskyQR2, or a
/// Householder sweep when the panel is too ill-conditioned for it (see
/// the module docs).
///
/// # Errors
/// Returns [`LinalgError::InvalidParameter`] when `a.rows() < a.cols()`
/// (a wide matrix has no thin QR of this shape).
pub fn thin_qr(a: &DenseMatrix) -> Result<ThinQr, LinalgError> {
    let (m, n) = a.shape();
    if m < n {
        return Err(LinalgError::InvalidParameter {
            context: "thin_qr",
            message: format!("need rows >= cols, got {m}x{n}"),
        });
    }
    Ok(cholesky_qr2(a)?.unwrap_or_else(|| householder_qr(a)))
}

/// CholeskyQR2, or `None` as soon as a Gram shows the panel is outside
/// its range.  Both checks run on an `n × n` Gram before the `m × n`
/// panel of that pass is allocated, and the first pass's panel is dropped
/// before the caller falls back, so at most two panels are ever live.
fn cholesky_qr2(a: &DenseMatrix) -> Result<Option<ThinQr>, LinalgError> {
    let n = a.cols();
    let mut r1 = a.matmul_transpose_a(a)?;
    if !cholesky_in_place(&mut r1) {
        return Ok(None);
    }
    let q1 = a.matmul(&upper_inverse(&r1))?;

    let mut r2 = q1.matmul_transpose_a(&q1)?;
    let delta = |i: usize, j: usize| if i == j { 1.0 } else { 0.0 };
    // Written as `all(<)` so a NaN entry fails the check too.
    let near_identity = (0..n)
        .all(|i| (0..n).all(|j| (r2.get(i, j) - delta(i, j)).abs() < MAX_FIRST_PASS_DEVIATION));
    if !near_identity || !cholesky_in_place(&mut r2) {
        return Ok(None);
    }
    let q = q1.matmul(&upper_inverse(&r2))?;
    drop(q1);

    // R = R₂·R₁ in place over R₂: entry (i, j) reads R₂[i, i..=j] only,
    // so sweeping j downwards consumes each R₂ entry before overwriting
    // it.  Only j ≥ i is written, so the product stays exactly upper
    // triangular.
    for i in 0..n {
        for j in (i..n).rev() {
            let mut s = 0.0;
            for k in i..=j {
                s += r2.get(i, k) * r1.get(k, j);
            }
            r2.set(i, j, s);
        }
    }
    Ok(Some(ThinQr { q, r: r2 }))
}

/// Overwrites the symmetric `g` with its upper Cholesky factor `R`
/// (`g = RᵀR`, lower triangle zeroed), reading only the upper triangle.
/// Returns `false` — leaving `g` half-factored — when a pivot is not
/// finite or falls below [`PIVOT_FLOOR`] relative to the largest diagonal
/// entry.
fn cholesky_in_place(g: &mut DenseMatrix) -> bool {
    let n = g.rows();
    let floor = PIVOT_FLOOR * (0..n).map(|k| g.get(k, k)).fold(0.0, f64::max);
    for k in 0..n {
        let pivot = g.get(k, k);
        // A NaN or infinite pivot fails the finiteness test; the floor
        // comparison needs no NaN care after it.
        if !pivot.is_finite() || pivot <= floor {
            return false;
        }
        let rkk = pivot.sqrt();
        let (head, tail) = g.as_mut_slice().split_at_mut((k + 1) * n);
        let row_k = &mut head[k * n..];
        row_k[k] = rkk;
        vector::scale(1.0 / rkk, &mut row_k[k + 1..]);
        // Right-looking update of the trailing upper triangle, row by row.
        for (off, row_i) in tail.chunks_mut(n).enumerate() {
            let i = k + 1 + off;
            let rki = row_k[i];
            if rki != 0.0 {
                vector::axpy(-rki, &row_k[i..], &mut row_i[i..]);
            }
        }
        row_k[..k].fill(0.0);
    }
    true
}

/// The inverse `X` of an upper-triangular `r` with a nonzero diagonal,
/// itself upper triangular.  Row `i` solves `xᵀ·R = e_iᵀ` by forward
/// substitution, so `X·R − I` — the residual that `A·R⁻¹·R = A` depends
/// on — is small componentwise.
fn upper_inverse(r: &DenseMatrix) -> DenseMatrix {
    let n = r.rows();
    let mut x = DenseMatrix::zeros(n, n);
    for i in 0..n {
        let row = x.row_mut(i);
        row[i] = 1.0;
        for k in i..n {
            let xk = row[k] / r.get(k, k);
            row[k] = xk;
            if xk != 0.0 {
                vector::axpy(-xk, &r.row(k)[k + 1..], &mut row[k + 1..]);
            }
        }
    }
    x
}

/// Thin QR by Householder reflections: the fallback for panels outside
/// CholeskyQR2's range.  Caller guarantees `a.rows() >= a.cols()`.
fn householder_qr(a: &DenseMatrix) -> ThinQr {
    let (m, n) = a.shape();
    let mut work = a.clone();
    // Householder vectors, one per column, stored as rows of `vs`
    // (length m, zero-padded before index k).
    let mut vs = DenseMatrix::zeros(n, m);
    let mut r = DenseMatrix::zeros(n, n);
    // Reflector scratch, reused across every column and the Q assembly.
    let mut w = vec![0.0; n];
    let mut partials: Vec<f64> = Vec::new();

    for k in 0..n {
        // Build the reflector from the k-th column, below the diagonal
        // (a strided gather — O(m) against the O(m·n) update it feeds).
        {
            let vrow = vs.row_mut(k);
            for (i, v) in vrow.iter_mut().enumerate().take(m).skip(k) {
                *v = work.get(i, k);
            }
        }
        let alpha = vector::norm2(&vs.row(k)[k..]);
        if alpha == 0.0 {
            // Column already zero below: reflector is identity, diagonal 0,
            // and the rest of R's row k is the working row as it stands.
            // (`vs` row is already all zero, keeping Q assembly well-defined.)
            r.row_mut(k)[k + 1..].copy_from_slice(&work.row(k)[k + 1..]);
            continue;
        }
        // Choose sign to avoid cancellation.
        let beta = if vs.get(k, k) >= 0.0 { -alpha } else { alpha };
        {
            let v = &mut vs.row_mut(k)[k..];
            v[0] -= beta;
            let vnorm = vector::norm2(v);
            if vnorm > 0.0 {
                vector::scale(1.0 / vnorm, v);
            }
        }
        r.set(k, k, beta);

        if k + 1 < n {
            // The reflector lives in `vs`, the block in `work` — disjoint
            // matrices, so the borrows are independent.
            let v = &vs.row(k)[k..];
            apply_reflector(&mut work, k, k + 1, v, &mut w[..n - k - 1], &mut partials);
            // Record the new k-th row of R from the updated trailing block.
            r.row_mut(k)[k + 1..].copy_from_slice(&work.row(k)[k + 1..]);
        }
    }

    // Assemble thin Q by applying the reflectors in reverse to the first n
    // columns of the identity, directly in row-major order.  Every row of
    // R was extracted during the sweep, so the working copy is dead here:
    // reuse its m×n buffer for Q instead of allocating a second one —
    // this is what keeps peak scratch at two m×n matrices (`work`/Q and
    // the reflector panel `vs`) rather than three.
    let mut q = work;
    q.as_mut_slice().fill(0.0);
    for j in 0..n {
        q.set(j, j, 1.0);
    }
    for k in (0..n).rev() {
        let v = &vs.row(k)[k..];
        if vector::norm2(v) == 0.0 {
            continue;
        }
        apply_reflector(&mut q, k, 0, v, &mut w[..n], &mut partials);
    }
    ThinQr { q, r }
}

/// Orthonormalises the columns of `a` in place of a full QR (returns only
/// the `Q` factor).  Rank-deficient columns come back as valid orthonormal
/// directions picked by the Householder fallback, which is what subspace
/// iteration needs.
pub fn orthonormalize(a: &DenseMatrix) -> Result<DenseMatrix, LinalgError> {
    Ok(thin_qr(a)?.q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_qr(a: &DenseMatrix, tol: f64) {
        let ThinQr { q, r } = thin_qr(a).unwrap();
        let (m, n) = a.shape();
        assert_eq!(q.shape(), (m, n));
        assert_eq!(r.shape(), (n, n));
        // A = QR
        let qr = q.matmul(&r).unwrap();
        assert!(qr.approx_eq(a, tol), "QR reconstruction error {}", qr.max_abs_diff(a));
        // QᵀQ = I
        let qtq = q.matmul_transpose_a(&q).unwrap();
        assert!(qtq.approx_eq(&DenseMatrix::identity(n), tol), "Q not orthonormal");
        // R upper triangular
        for i in 0..n {
            for j in 0..i {
                assert!(r.get(i, j).abs() < tol, "R not triangular at ({i},{j})");
            }
        }
    }

    #[test]
    fn qr_random_tall() {
        let mut rng = StdRng::seed_from_u64(3);
        for &(m, n) in &[(5, 5), (10, 3), (40, 7), (100, 20)] {
            let a = DenseMatrix::random_gaussian(m, n, &mut rng);
            check_qr(&a, 1e-10);
        }
    }

    #[test]
    fn qr_identity() {
        check_qr(&DenseMatrix::identity(6), 1e-14);
    }

    #[test]
    fn qr_rejects_wide() {
        let a = DenseMatrix::zeros(2, 5);
        assert!(thin_qr(&a).is_err());
    }

    #[test]
    fn qr_rank_deficient_still_orthonormal() {
        // Two identical columns: Q must still have orthonormal columns.
        let mut a = DenseMatrix::zeros(6, 2);
        for i in 0..6 {
            a.set(i, 0, (i + 1) as f64);
            a.set(i, 1, (i + 1) as f64);
        }
        let q = orthonormalize(&a).unwrap();
        let qtq = q.matmul_transpose_a(&q).unwrap();
        // First column must be unit; diagonal entries 1 within tolerance.
        assert!((qtq.get(0, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn qr_single_column() {
        let a = DenseMatrix::from_vec(3, 1, vec![3.0, 0.0, 4.0]).unwrap();
        let ThinQr { q, r } = thin_qr(&a).unwrap();
        assert!((r.get(0, 0).abs() - 5.0).abs() < 1e-12);
        let qr = q.matmul(&r).unwrap();
        assert!(qr.approx_eq(&a, 1e-12));
    }

    #[test]
    fn qr_zero_matrix() {
        let a = DenseMatrix::zeros(4, 2);
        let ThinQr { q, r } = thin_qr(&a).unwrap();
        let qr = q.matmul(&r).unwrap();
        assert!(qr.approx_eq(&a, 1e-14));
    }

    /// A Gaussian `m × n` panel with column `j` scaled by `scale(j)`.
    fn scaled_panel(m: usize, n: usize, seed: u64, scale: impl Fn(usize) -> f64) -> DenseMatrix {
        let mut a = DenseMatrix::random_gaussian(m, n, &mut StdRng::seed_from_u64(seed));
        let s: Vec<f64> = (0..n).map(scale).collect();
        a.scale_columns_mut(&s);
        a
    }

    #[test]
    fn qr_graded_panel_takes_the_householder_fallback() {
        // Column scales 1 … 1e-12: κ ≈ 1e12, far outside CholeskyQR2's
        // range, so the first Gram's pivots fall through the floor.
        let n = 13;
        let a = scaled_panel(200, n, 5, |j| 10f64.powi(-(j as i32)));
        check_qr(&a, 1e-10);
        assert!(cholesky_qr2(&a).unwrap().is_none(), "graded panel must fall back");
    }

    #[test]
    fn qr_duplicate_and_zero_columns_take_the_householder_fallback() {
        let mut a = scaled_panel(120, 8, 6, |_| 1.0);
        let c1 = a.col(1);
        a.set_col(3, &c1);
        a.set_col(6, &c1);
        a.set_col(5, &vec![0.0; 120]);
        check_qr(&a, 1e-10);
        assert!(cholesky_qr2(&a).unwrap().is_none(), "singular Gram must fall back");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn qr_random_tall_panels(
            (m, n, seed) in (0usize..4, 1usize..=80, 0u64..1 << 32).prop_flat_map(|(kind, n, seed)| {
                // kind 0: square; kind 1: one column; otherwise any tall shape.
                let (lo, hi, n) = match kind {
                    0 => (n, n, n),
                    1 => (1, 2000, 1),
                    _ => (n, 2000, n),
                };
                (lo..=hi, Just(n), Just(seed))
            })
        ) {
            let a = DenseMatrix::random_gaussian(m, n, &mut StdRng::seed_from_u64(seed));
            check_qr(&a, 1e-10);
        }
    }

    #[test]
    fn qr_bitwise_identical_across_thread_caps() {
        // Every pooled step chunks by shape alone; sweep the cap and
        // demand identical bits on both paths (the pool cap is
        // process-global).  4000 × 24 splits the Gram reduction, the
        // panel products and the reflector passes into several chunks.
        let (m, n) = (4000, 24);
        assert!(csrplus_par::chunk_count(m, view::reduction_chunk(m, 2 * n * n)) > 1);
        let fast = scaled_panel(m, n, 99, |_| 1.0);
        let mut fallback = fast.clone();
        fallback.set_col(7, &fast.col(2));
        assert!(cholesky_qr2(&fast).unwrap().is_some());
        assert!(cholesky_qr2(&fallback).unwrap().is_none());
        let before = csrplus_par::threads();
        for a in [&fast, &fallback] {
            csrplus_par::set_threads(1);
            let base = thin_qr(a).unwrap();
            for cap in [2usize, 8] {
                csrplus_par::set_threads(cap);
                let cur = thin_qr(a).unwrap();
                assert_eq!(cur.q.as_slice(), base.q.as_slice(), "Q diverged at cap {cap}");
                assert_eq!(cur.r.as_slice(), base.r.as_slice(), "R diverged at cap {cap}");
            }
        }
        csrplus_par::set_threads(before);
    }
}
