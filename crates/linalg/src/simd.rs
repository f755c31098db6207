//! Runtime-dispatched SIMD kernels behind the dense hot paths.
//!
//! The scalar kernels in [`crate::vector`] and [`crate::view`] fix an
//! exact per-element accumulation order (four lanes strided by 4 for
//! [`crate::vector::dot`], ascending `k` inside each register tile for
//! the matmul micro-kernel).  The vectorised kernels here replay that
//! *same* order with wider registers: one AVX2 `ymm` register holds the
//! four scalar accumulator lanes of `dot`, and the widened micro-kernel
//! panels accumulate every output element in the identical ascending-`k`
//! sequence.  Crucially, **no fused multiply-add is ever issued** — each
//! lane performs the same separate multiply-then-add the scalar code
//! does — so at a given precision results are *bitwise identical* across
//! the scalar/SIMD switch, on top of the existing bitwise identity across
//! thread caps.
//!
//! Dispatch is resolved once per process from runtime feature detection
//! (`is_x86_feature_detected!("avx2")` on x86-64; on AArch64 the 2-lane
//! kernels below compile straight to NEON since NEON is part of that
//! target's baseline feature set, so no `unsafe` is needed there) and is
//! never consulted by chunking or kernel *selection* logic in
//! [`crate::view`] — band boundaries and path choice depend on shapes and
//! strides alone, exactly as before.
//!
//! [`set_enabled`] switches to the scalar kernels in-process (used by
//! the determinism sweep and the kernel benchmarks to measure the scalar
//! floor).

use std::sync::atomic::{AtomicU8, Ordering};

/// Dispatch not yet resolved.
const UNKNOWN: u8 = 0;
/// Portable scalar kernels only.
const SCALAR: u8 = 1;
/// x86-64 AVX2 (256-bit, 4 × f64) kernels.
const AVX2: u8 = 2;
/// AArch64 NEON-shaped (128-bit, 2 × f64) kernels.
const NEON: u8 = 3;

/// Resolved instruction-set choice, cached after first use.
static ACTIVE: AtomicU8 = AtomicU8::new(UNKNOWN);

/// Best instruction set the host supports.
fn detect_isa() -> u8 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return AVX2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return NEON;
        }
    }
    SCALAR
}

/// The active instruction set, resolving and caching it on first call.
#[inline]
fn isa() -> u8 {
    let k = ACTIVE.load(Ordering::Relaxed);
    if k != UNKNOWN {
        return k;
    }
    let k = detect_isa();
    ACTIVE.store(k, Ordering::Relaxed);
    k
}

/// Forces the vectorised kernels on (re-running feature detection) or off
/// (scalar fallback) for this process.
///
/// Results are bitwise identical either way at a given precision; this
/// exists so tests can sweep both implementations in one process and so
/// benchmarks can measure the scalar floor.
pub fn set_enabled(enabled: bool) {
    ACTIVE.store(if enabled { detect_isa() } else { SCALAR }, Ordering::Relaxed);
}

/// Serialises tests that flip the process-global kernel choice so they
/// cannot interleave with each other (results are bitwise identical
/// either way, but assertions about [`active`] itself would race).
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Name of the active kernel set: `"avx2"`, `"neon"` or `"scalar"`.
pub fn active() -> &'static str {
    match isa() {
        AVX2 => "avx2",
        NEON => "neon",
        _ => "scalar",
    }
}

/// Vectorised `xᵀy`, or `None` when the scalar path should run.
///
/// Lane mapping reproduces [`crate::vector::dot`] exactly: lane `l` of
/// the accumulator register sums elements `l, l+4, l+8, …`, the tail
/// joins lane 0, and the final combine is `(l0+l1) + (l2+l3)`.
#[inline]
pub(crate) fn dot(x: &[f64], y: &[f64]) -> Option<f64> {
    match isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa()` returns AVX2 only after runtime detection.
        AVX2 => Some(unsafe { x86::dot_avx2(x, y) }),
        NEON => Some(lanes2::dot(x, y)),
        _ => None,
    }
}

/// Vectorised mixed-precision `xᵀy` (`f32` storage, `f64` accumulation),
/// or `None` when the scalar path should run.  Same lane mapping as
/// [`dot`], each element widened to `f64` before the multiply.
#[inline]
pub(crate) fn dot_f32(x: &[f32], y: &[f32]) -> Option<f64> {
    match isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa()` returns AVX2 only after runtime detection.
        AVX2 => Some(unsafe { x86::dot_f32_avx2(x, y) }),
        NEON => Some(lanes2::dot_f32(x, y)),
        _ => None,
    }
}

/// Vectorised `y ← y + a·x`; returns `false` when the scalar path should
/// run.  The update is element-wise (`yᵢ + a·xᵢ`, one multiply then one
/// add per element), so any lane width produces identical bits.
#[inline]
pub(crate) fn axpy(a: f64, x: &[f64], y: &mut [f64]) -> bool {
    match isa() {
        #[cfg(target_arch = "x86_64")]
        AVX2 => {
            // SAFETY: `isa()` returns AVX2 only after runtime detection.
            unsafe { x86::axpy_avx2(a, x, y) };
            true
        }
        NEON => {
            lanes2::axpy(a, x, y);
            true
        }
        _ => false,
    }
}

/// Vectorised j-sweep of one packed micro-kernel panel over a
/// row-contiguous `b`; returns `false` when the caller's scalar tile loop
/// should run instead.
///
/// `packed_a` holds `kc_len` k-major groups of [`crate::view`]'s
/// `MICRO_MR` row coefficients (rows ≥ `mr` zero-padded); the sweep adds
/// `packed_aᵀ·b[kb..kb+kc_len, *]` into rows `i0..i0+mr` of `out`.  Every
/// output element accumulates its `kc_len` products in ascending `k`
/// from a zeroed register and is flushed once — the exact order of the
/// scalar tile loop — so the strip width (8/4/scalar here vs. 4 there)
/// never changes a bit of the result.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn forward_panel(
    packed_a: &[f64],
    kc_len: usize,
    mr: usize,
    b: &[f64],
    b_rs: usize,
    kb: usize,
    n: usize,
    out: &mut [f64],
    out_rs: usize,
    i0: usize,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if isa() == AVX2 {
        // SAFETY: `isa()` returns AVX2 only after runtime detection.
        unsafe { x86::forward_panel_avx2(packed_a, kc_len, mr, b, b_rs, kb, n, out, out_rs, i0) };
        return true;
    }
    let _ = (packed_a, kc_len, mr, b, b_rs, kb, n, out, out_rs, i0);
    false
}

/// 2-lane-blocked kernels for AArch64.
///
/// NEON is part of the AArch64 baseline target features, so these safe
/// kernels — written with exactly two lanes of independent accumulators,
/// the shape the scalar `dot` already strides — lower to NEON vector ops
/// without any intrinsics or `unsafe`.  They are compiled (and
/// cross-tested for bitwise identity) on every architecture; dispatch
/// only ever selects them on AArch64.
mod lanes2 {
    /// `xᵀy` with the [`crate::vector::dot`] lane mapping: accumulator
    /// pair `a` holds scalar lanes 0/1, pair `b` lanes 2/3.
    pub(super) fn dot(x: &[f64], y: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), y.len());
        let chunks = x.len() / 4;
        let mut a = [0.0f64; 2];
        let mut b = [0.0f64; 2];
        for i in 0..chunks {
            let base = i * 4;
            a[0] += x[base] * y[base];
            a[1] += x[base + 1] * y[base + 1];
            b[0] += x[base + 2] * y[base + 2];
            b[1] += x[base + 3] * y[base + 3];
        }
        let mut acc0 = a[0];
        for i in chunks * 4..x.len() {
            acc0 += x[i] * y[i];
        }
        (acc0 + a[1]) + (b[0] + b[1])
    }

    /// Mixed-precision `xᵀy` (`f32` storage, `f64` accumulation), same
    /// lane mapping as [`dot`].
    pub(super) fn dot_f32(x: &[f32], y: &[f32]) -> f64 {
        debug_assert_eq!(x.len(), y.len());
        let chunks = x.len() / 4;
        let mut a = [0.0f64; 2];
        let mut b = [0.0f64; 2];
        for i in 0..chunks {
            let base = i * 4;
            a[0] += x[base] as f64 * y[base] as f64;
            a[1] += x[base + 1] as f64 * y[base + 1] as f64;
            b[0] += x[base + 2] as f64 * y[base + 2] as f64;
            b[1] += x[base + 3] as f64 * y[base + 3] as f64;
        }
        let mut acc0 = a[0];
        for i in chunks * 4..x.len() {
            acc0 += x[i] as f64 * y[i] as f64;
        }
        (acc0 + a[1]) + (b[0] + b[1])
    }

    /// `y ← y + a·x`, 2-lane blocked; element-wise, so bitwise identical
    /// to the scalar loop.
    pub(super) fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), y.len());
        let pairs = x.len() / 2;
        for i in 0..pairs {
            let b = i * 2;
            y[b] += a * x[b];
            y[b + 1] += a * x[b + 1];
        }
        if x.len() % 2 == 1 {
            let last = x.len() - 1;
            y[last] += a * x[last];
        }
    }
}

/// AVX2 kernels.  Every function carries the same safety contract: the
/// caller must have verified AVX2 support at runtime (the dispatchers
/// above do, via [`isa`]).
#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::view::MICRO_MR;
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_cvtps_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd,
        _mm256_setzero_pd, _mm256_storeu_pd, _mm_loadu_ps,
    };

    /// `xᵀy` with one `ymm` accumulator holding the four scalar lanes.
    ///
    /// # Safety
    /// The host must support AVX2 (checked by the caller at runtime).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_avx2(x: &[f64], y: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), y.len());
        let split = (x.len() / 4) * 4;
        let mut acc = _mm256_setzero_pd();
        for (xs, ys) in x[..split].chunks_exact(4).zip(y[..split].chunks_exact(4)) {
            // SAFETY: `chunks_exact(4)` yields slices of 4 readable f64s.
            let (xv, yv) = unsafe { (_mm256_loadu_pd(xs.as_ptr()), _mm256_loadu_pd(ys.as_ptr())) };
            acc = _mm256_add_pd(acc, _mm256_mul_pd(xv, yv));
        }
        let lanes = store_lanes(acc);
        let mut acc0 = lanes[0];
        for (xi, yi) in x[split..].iter().zip(&y[split..]) {
            acc0 += xi * yi;
        }
        (acc0 + lanes[1]) + (lanes[2] + lanes[3])
    }

    /// Mixed-precision `xᵀy`: four `f32`s widened to one `ymm` of `f64`
    /// per step, same lane mapping as [`dot_avx2`].
    ///
    /// # Safety
    /// The host must support AVX2 (checked by the caller at runtime).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_f32_avx2(x: &[f32], y: &[f32]) -> f64 {
        debug_assert_eq!(x.len(), y.len());
        let split = (x.len() / 4) * 4;
        let mut acc = _mm256_setzero_pd();
        for (xs, ys) in x[..split].chunks_exact(4).zip(y[..split].chunks_exact(4)) {
            // SAFETY: `chunks_exact(4)` yields slices of 4 readable f32s.
            let (xv, yv) = unsafe {
                (
                    _mm256_cvtps_pd(_mm_loadu_ps(xs.as_ptr())),
                    _mm256_cvtps_pd(_mm_loadu_ps(ys.as_ptr())),
                )
            };
            acc = _mm256_add_pd(acc, _mm256_mul_pd(xv, yv));
        }
        let lanes = store_lanes(acc);
        let mut acc0 = lanes[0];
        for (xi, yi) in x[split..].iter().zip(&y[split..]) {
            acc0 += *xi as f64 * *yi as f64;
        }
        (acc0 + lanes[1]) + (lanes[2] + lanes[3])
    }

    /// `y ← y + a·x`, one multiply-then-add per element (no FMA).
    ///
    /// # Safety
    /// The host must support AVX2 (checked by the caller at runtime).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_avx2(a: f64, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), y.len());
        let split = (x.len() / 4) * 4;
        let av = _mm256_set1_pd(a);
        for (ys, xs) in y[..split].chunks_exact_mut(4).zip(x[..split].chunks_exact(4)) {
            // SAFETY: `chunks_exact(_mut)(4)` yields slices of 4 valid f64s.
            unsafe {
                let yv = _mm256_loadu_pd(ys.as_ptr());
                let xv = _mm256_loadu_pd(xs.as_ptr());
                _mm256_storeu_pd(ys.as_mut_ptr(), _mm256_add_pd(yv, _mm256_mul_pd(av, xv)));
            }
        }
        for (yi, xi) in y[split..].iter_mut().zip(&x[split..]) {
            *yi += a * *xi;
        }
    }

    /// The widened micro-kernel j-sweep: 8-wide strips (two `ymm`
    /// accumulators per packed row, 8 accumulator registers total), then
    /// a 4-wide strip, then a scalar tail — all replaying the ascending-`k`
    /// per-element order of the scalar tile loop.
    ///
    /// # Safety
    /// The host must support AVX2 (checked by the caller at runtime).
    /// Slice bounds are enforced with safe indexing throughout.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn forward_panel_avx2(
        packed_a: &[f64],
        kc_len: usize,
        mr: usize,
        b: &[f64],
        b_rs: usize,
        kb: usize,
        n: usize,
        out: &mut [f64],
        out_rs: usize,
        i0: usize,
    ) {
        let mut j = 0;
        while j + 8 <= n {
            let mut acc = [_mm256_setzero_pd(); 2 * MICRO_MR];
            for kk in 0..kc_len {
                let off = (kb + kk) * b_rs + j;
                let bs = &b[off..off + 8];
                // SAFETY: `bs` spans 8 readable f64s.
                let (b0, b1) =
                    unsafe { (_mm256_loadu_pd(bs.as_ptr()), _mm256_loadu_pd(bs[4..].as_ptr())) };
                let ap = &packed_a[kk * MICRO_MR..(kk + 1) * MICRO_MR];
                for (r, &av) in ap.iter().enumerate() {
                    let avv = _mm256_set1_pd(av);
                    acc[2 * r] = _mm256_add_pd(acc[2 * r], _mm256_mul_pd(avv, b0));
                    acc[2 * r + 1] = _mm256_add_pd(acc[2 * r + 1], _mm256_mul_pd(avv, b1));
                }
            }
            for r in 0..mr {
                let off = (i0 + r) * out_rs + j;
                let os = &mut out[off..off + 8];
                // SAFETY: `os` spans 8 writable f64s.
                unsafe {
                    let lo = _mm256_add_pd(_mm256_loadu_pd(os.as_ptr()), acc[2 * r]);
                    let hi = _mm256_add_pd(_mm256_loadu_pd(os[4..].as_ptr()), acc[2 * r + 1]);
                    _mm256_storeu_pd(os.as_mut_ptr(), lo);
                    _mm256_storeu_pd(os[4..].as_mut_ptr(), hi);
                }
            }
            j += 8;
        }
        if j + 4 <= n {
            let mut acc = [_mm256_setzero_pd(); MICRO_MR];
            for kk in 0..kc_len {
                let off = (kb + kk) * b_rs + j;
                let bs = &b[off..off + 4];
                // SAFETY: `bs` spans 4 readable f64s.
                let b0 = unsafe { _mm256_loadu_pd(bs.as_ptr()) };
                let ap = &packed_a[kk * MICRO_MR..(kk + 1) * MICRO_MR];
                for (r, &av) in ap.iter().enumerate() {
                    acc[r] = _mm256_add_pd(acc[r], _mm256_mul_pd(_mm256_set1_pd(av), b0));
                }
            }
            for (r, accr) in acc.iter().enumerate().take(mr) {
                let off = (i0 + r) * out_rs + j;
                let os = &mut out[off..off + 4];
                // SAFETY: `os` spans 4 writable f64s.
                unsafe {
                    _mm256_storeu_pd(
                        os.as_mut_ptr(),
                        _mm256_add_pd(_mm256_loadu_pd(os.as_ptr()), *accr),
                    );
                }
            }
            j += 4;
        }
        if j < n {
            // Scalar tail strip (nr < 4): same zero-init / ascending-k /
            // single-flush structure as the wide strips.
            let nr = n - j;
            let mut acc = [0.0f64; 4 * MICRO_MR];
            for kk in 0..kc_len {
                let ap = &packed_a[kk * MICRO_MR..(kk + 1) * MICRO_MR];
                let off = (kb + kk) * b_rs + j;
                let brow = &b[off..off + nr];
                for (r, &av) in ap.iter().enumerate() {
                    for (cv, &bv) in acc[r * 4..r * 4 + nr].iter_mut().zip(brow) {
                        *cv += av * bv;
                    }
                }
            }
            for r in 0..mr {
                let off = (i0 + r) * out_rs + j;
                for (ov, &av) in out[off..off + nr].iter_mut().zip(&acc[r * 4..r * 4 + nr]) {
                    *ov += av;
                }
            }
        }
    }

    /// Spills a `ymm` accumulator into its four scalar lanes.
    #[target_feature(enable = "avx2")]
    fn store_lanes(acc: __m256d) -> [f64; 4] {
        let mut lanes = [0.0f64; 4];
        // SAFETY: `lanes` provides 4 writable f64s.
        unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), acc) };
        lanes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f` under each kernel set the host supports, restoring the
    /// detected default afterwards.
    fn with_each_isa(f: impl Fn(&'static str)) {
        for forced in [SCALAR, NEON, detect_isa()] {
            ACTIVE.store(forced, Ordering::Relaxed);
            f(active());
        }
        set_enabled(true);
    }

    fn vecs(n: usize) -> (Vec<f64>, Vec<f64>) {
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() * 3.0).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).cos() - 0.4).collect();
        (x, y)
    }

    #[test]
    fn dot_bitwise_identical_across_kernel_sets() {
        let _guard = test_lock();
        for n in [0usize, 1, 3, 4, 7, 8, 31, 64, 257] {
            let (x, y) = vecs(n);
            ACTIVE.store(SCALAR, Ordering::Relaxed);
            let base = crate::vector::dot(&x, &y);
            with_each_isa(|name| {
                let got = crate::vector::dot(&x, &y);
                assert_eq!(got.to_bits(), base.to_bits(), "dot n={n} isa={name}");
            });
        }
    }

    #[test]
    fn dot_f32_bitwise_identical_across_kernel_sets() {
        let _guard = test_lock();
        for n in [0usize, 1, 5, 8, 33, 130] {
            let (x, y) = vecs(n);
            let xf: Vec<f32> = x.iter().map(|&v| v as f32).collect();
            let yf: Vec<f32> = y.iter().map(|&v| v as f32).collect();
            ACTIVE.store(SCALAR, Ordering::Relaxed);
            let base = crate::vector::dot_f32(&xf, &yf);
            with_each_isa(|name| {
                let got = crate::vector::dot_f32(&xf, &yf);
                assert_eq!(got.to_bits(), base.to_bits(), "dot_f32 n={n} isa={name}");
            });
        }
    }

    #[test]
    fn axpy_bitwise_identical_across_kernel_sets() {
        let _guard = test_lock();
        for n in [0usize, 1, 4, 9, 65, 200] {
            let (x, y0) = vecs(n);
            ACTIVE.store(SCALAR, Ordering::Relaxed);
            let mut base = y0.clone();
            crate::vector::axpy(0.37, &x, &mut base);
            with_each_isa(|name| {
                let mut y = y0.clone();
                crate::vector::axpy(0.37, &x, &mut y);
                for (a, b) in y.iter().zip(&base) {
                    assert_eq!(a.to_bits(), b.to_bits(), "axpy n={n} isa={name}");
                }
            });
        }
    }

    #[test]
    fn escape_hatch_toggle_round_trips() {
        let _guard = test_lock();
        set_enabled(false);
        assert_eq!(active(), "scalar");
        set_enabled(true);
        // Whatever detection found must be stable across calls.
        assert_eq!(active(), active());
    }
}
