//! Vector kernels: dot products, AXPY, scaling and norms.
//!
//! All routines operate on `&[f64]` / `&mut [f64]` slices so they compose
//! with rows of [`crate::DenseMatrix`] and with raw buffers owned by the
//! sparse kernels in `csrplus-graph` without copies.

/// Dot product `xᵀy`.
///
/// Dispatches to the runtime-detected SIMD kernel ([`crate::simd`]) when
/// one is active; the vector lanes replay the exact accumulation order of
/// the scalar path below, so the result is bitwise identical either way.
///
/// # Panics
/// Panics if the slices have different lengths (programming error, not a
/// recoverable condition).
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    if let Some(v) = crate::simd::dot(x, y) {
        return v;
    }
    // Four-way unrolled accumulation: keeps independent dependency chains so
    // the compiler can vectorise without `-ffast-math`-style reassociation.
    let mut acc0 = 0.0;
    let mut acc1 = 0.0;
    let mut acc2 = 0.0;
    let mut acc3 = 0.0;
    let chunks = x.len() / 4;
    for i in 0..chunks {
        let b = i * 4;
        acc0 += x[b] * y[b];
        acc1 += x[b + 1] * y[b + 1];
        acc2 += x[b + 2] * y[b + 2];
        acc3 += x[b + 3] * y[b + 3];
    }
    for i in chunks * 4..x.len() {
        acc0 += x[i] * y[i];
    }
    (acc0 + acc1) + (acc2 + acc3)
}

/// Mixed-precision dot product `xᵀy` over `f32` storage with `f64`
/// accumulation — every element is widened *before* the multiply, so the
/// only precision loss is the storage rounding of the inputs themselves.
///
/// Lane structure (and therefore every output bit) matches [`dot`]; the
/// SIMD kernels replay the same order.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot_f32(x: &[f32], y: &[f32]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot_f32: length mismatch");
    if let Some(v) = crate::simd::dot_f32(x, y) {
        return v;
    }
    let mut acc0 = 0.0;
    let mut acc1 = 0.0;
    let mut acc2 = 0.0;
    let mut acc3 = 0.0;
    let chunks = x.len() / 4;
    for i in 0..chunks {
        let b = i * 4;
        acc0 += x[b] as f64 * y[b] as f64;
        acc1 += x[b + 1] as f64 * y[b + 1] as f64;
        acc2 += x[b + 2] as f64 * y[b + 2] as f64;
        acc3 += x[b + 3] as f64 * y[b + 3] as f64;
    }
    for i in chunks * 4..x.len() {
        acc0 += x[i] as f64 * y[i] as f64;
    }
    (acc0 + acc1) + (acc2 + acc3)
}

/// `y ← y + a·x`.
///
/// Element-wise multiply-then-add; the SIMD kernels perform the identical
/// per-element operation (no FMA), so results are bitwise identical
/// across the scalar/SIMD switch.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    if crate::simd::axpy(a, x, y) {
        return;
    }
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += a * *xi;
    }
}

/// `x ← a·x`.
#[inline]
pub fn scale(a: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= a;
    }
}

/// Euclidean (L2) norm, computed with scaling to avoid overflow/underflow.
pub fn norm2(x: &[f64]) -> f64 {
    norm2_iter(x.iter().copied())
}

/// [`norm2`] over any element stream — same scaled accumulation, element
/// order defined by the iterator.  Lets callers take the norm of a strided
/// matrix column (or any [`crate::MatView`] lane) without gathering it into
/// a scratch buffer first.
pub fn norm2_iter(x: impl Iterator<Item = f64>) -> f64 {
    let mut scale_acc = 0.0f64;
    let mut ssq = 1.0f64;
    for v in x {
        if v != 0.0 {
            let a = v.abs();
            if scale_acc < a {
                let r = scale_acc / a;
                ssq = 1.0 + ssq * r * r;
                scale_acc = a;
            } else {
                let r = a / scale_acc;
                ssq += r * r;
            }
        }
    }
    scale_acc * ssq.sqrt()
}

/// L1 norm `Σ|xᵢ|`.
pub fn norm1(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).sum()
}

/// Max-norm `max|xᵢ|` (0 for an empty slice).
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0f64, |m, v| m.max(v.abs()))
}

/// Largest absolute element-wise difference between two equal-length
/// slices; NaN when any difference is NaN (`f64::max` alone would drop
/// it, and a NaN-filled matrix would then pass every tolerance check).
pub fn max_abs_diff(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "max_abs_diff: length mismatch");
    x.iter().zip(y.iter()).fold(0.0f64, |m, (a, b)| {
        let d = (a - b).abs();
        if d > m || d.is_nan() {
            d
        } else {
            m
        }
    })
}

/// Normalises `x` to unit L2 norm in place; returns the original norm.
///
/// Leaves a zero vector untouched and returns 0.
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm2(x);
    if n > 0.0 {
        scale(1.0 / n, x);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive() {
        let x: Vec<f64> = (0..37).map(|i| i as f64 * 0.5 - 3.0).collect();
        let y: Vec<f64> = (0..37).map(|i| (i as f64).sin()).collect();
        let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot(&x, &y) - naive).abs() < 1e-12 * naive.abs().max(1.0));
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn dot_f32_widens_before_multiplying() {
        let x: Vec<f32> = (0..53).map(|i| (i as f32 * 0.3).sin()).collect();
        let y: Vec<f32> = (0..53).map(|i| (i as f32 * 0.7).cos()).collect();
        let naive: f64 = x.iter().zip(&y).map(|(&a, &b)| a as f64 * b as f64).sum();
        assert!((dot_f32(&x, &y) - naive).abs() < 1e-12 * naive.abs().max(1.0));
        assert_eq!(dot_f32(&[], &[]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn norm2_is_scale_safe() {
        // Values whose squares overflow f64 individually.
        let x = [1e200, 1e200];
        let n = norm2(&x);
        assert!((n - 1e200 * std::f64::consts::SQRT_2).abs() / n < 1e-14);
        // And tiny values whose squares underflow.
        let x = [1e-200, 1e-200];
        let n = norm2(&x);
        assert!((n - 1e-200 * std::f64::consts::SQRT_2).abs() / n < 1e-14);
    }

    #[test]
    fn norms_basic() {
        let x = [3.0, -4.0];
        assert!((norm2(&x) - 5.0).abs() < 1e-15);
        assert_eq!(norm1(&x), 7.0);
        assert_eq!(norm_inf(&x), 4.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn normalize_unit_and_zero() {
        let mut x = [3.0, 4.0];
        let n = normalize(&mut x);
        assert_eq!(n, 5.0);
        assert!((norm2(&x) - 1.0).abs() < 1e-15);
        let mut z = [0.0, 0.0];
        assert_eq!(normalize(&mut z), 0.0);
        assert_eq!(z, [0.0, 0.0]);
    }

    #[test]
    fn max_abs_diff_finds_worst() {
        assert_eq!(max_abs_diff(&[1.0, 2.0, 3.0], &[1.0, 5.0, 2.5]), 3.0);
        // A NaN anywhere is the worst difference, wherever it sits.
        assert!(max_abs_diff(&[f64::NAN, 2.0], &[1.0, 5.0]).is_nan());
        assert!(max_abs_diff(&[1.0, 2.0], &[1.0, f64::NAN]).is_nan());
    }
}
