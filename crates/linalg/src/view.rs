//! Borrowed strided matrix views and the unified pooled kernels over them.
//!
//! A [`MatView`] / [`MatViewMut`] is a `(data, rows, cols, row_stride,
//! col_stride)` window into someone else's buffer: element `(i, j)` lives
//! at `data[i·row_stride + j·col_stride]`.  Transposition is a stride
//! swap ([`MatView::t`]), a sub-block is an offset plus the same strides
//! ([`MatView::block`]) — neither touches the underlying floats.  This is
//! what lets `Aᵀ·B`, column-panel and sub-block products run **zero-copy**
//! where the kernels used to call `transpose()` and materialise a second
//! matrix.
//!
//! All dense products funnel into two entry points, [`matmul_into`] and
//! [`matvec_into`], which dispatch on the operand *strides* (never the
//! thread count) between the historical kernels:
//!
//! - **forward** (`B` row-contiguous): the i-k-j axpy path with zero-skip,
//!   or the 4×4 register-tiled micro-kernel over packed `A` panels once
//!   the shape amortises packing.  A non-contiguous `A` is packed
//!   strided; a non-contiguous `B` is packed tile-by-tile, so every
//!   stride combination reaches the same micro-kernel.
//! - **reduction** (`A` column-contiguous, i.e. a transposed row-major
//!   matrix): rank-1 accumulation over the shared dimension with private
//!   per-chunk partials reduced serially in chunk order.
//! - **dot** (`B` column-contiguous): each output entry is one
//!   contiguous-slice dot product.
//!
//! ## Determinism
//!
//! Kernel dispatch and chunk boundaries are functions of shapes and
//! strides alone, and every per-element accumulation runs in ascending
//! `k` order, so results are bitwise identical at any thread cap — the
//! same contract the owned-matrix kernels had before this layer existed.
//! Output parallelism splits the destination into disjoint
//! [`MatViewMut`] row bands via [`par_row_bands`], which builds directly
//! on [`csrplus_par::for_each_chunk_mut`].  The innermost loops dispatch
//! at runtime to the vectorised kernels in [`crate::simd`], which replay
//! the same per-element order with wider registers (no FMA), so the
//! scalar/SIMD switch never changes a bit of the output either.
//!
//! [`matmul_into_mixed`] is the `f32`-storage / `f64`-accumulation
//! sibling of [`matmul_into`] used by the opt-in reduced-precision factor
//! mode.

use crate::error::LinalgError;
use crate::vector;

/// A borrowed, read-only strided view of a dense matrix.
///
/// Generic over the element type (`f64` by default; `f32` for the
/// storage-halved factor mode, consumed by the mixed-precision kernels
/// that widen each element to `f64` before multiplying).
///
/// `data[0]` is element `(0, 0)`; element `(i, j)` lives at
/// `i·row_stride + j·col_stride`.  Construction validates that the last
/// addressable element is in bounds, so all accessors are panic-free for
/// in-shape indices.
#[derive(Clone, Copy)]
pub struct MatView<'a, E = f64> {
    data: &'a [E],
    rows: usize,
    cols: usize,
    row_stride: usize,
    col_stride: usize,
}

/// A borrowed, mutable strided view of a dense matrix (element type `f64`
/// by default, like [`MatView`]).
///
/// Same addressing rule as [`MatView`].  Used as the *destination* of the
/// view kernels; parallel kernels split it into disjoint row bands with
/// [`par_row_bands`].
pub struct MatViewMut<'a, E = f64> {
    data: &'a mut [E],
    rows: usize,
    cols: usize,
    row_stride: usize,
    col_stride: usize,
}

/// Checks that every element of a `rows × cols` view with the given
/// strides addresses inside `len` (empty views are always valid).
fn check_bounds(
    context: &'static str,
    len: usize,
    rows: usize,
    cols: usize,
    row_stride: usize,
    col_stride: usize,
) -> Result<(), LinalgError> {
    if rows == 0 || cols == 0 {
        return Ok(());
    }
    let last = (rows - 1) * row_stride + (cols - 1) * col_stride;
    if last >= len {
        return Err(LinalgError::InvalidParameter {
            context,
            message: format!(
                "view {rows}x{cols} with strides ({row_stride}, {col_stride}) \
                 exceeds buffer length {len}"
            ),
        });
    }
    Ok(())
}

impl<'a, E: Copy> MatView<'a, E> {
    /// Wraps `data` as a `rows × cols` view with explicit strides.
    ///
    /// # Errors
    /// [`LinalgError::InvalidParameter`] if the last element of the view
    /// falls outside `data`.
    pub fn new(
        data: &'a [E],
        rows: usize,
        cols: usize,
        row_stride: usize,
        col_stride: usize,
    ) -> Result<Self, LinalgError> {
        check_bounds("MatView::new", data.len(), rows, cols, row_stride, col_stride)?;
        Ok(MatView { data, rows, cols, row_stride, col_stride })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Stride between consecutive rows.
    #[inline]
    pub fn row_stride(&self) -> usize {
        self.row_stride
    }

    /// Stride between consecutive columns.
    #[inline]
    pub fn col_stride(&self) -> usize {
        self.col_stride
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> E {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.row_stride + j * self.col_stride]
    }

    /// The transposed view — a stride swap, no data movement.
    #[inline]
    pub fn t(self) -> MatView<'a, E> {
        MatView {
            data: self.data,
            rows: self.cols,
            cols: self.rows,
            row_stride: self.col_stride,
            col_stride: self.row_stride,
        }
    }

    /// The sub-block `[r0, r1) × [c0, c1)` as a view with the same
    /// strides.
    ///
    /// # Panics
    /// Panics if the range is out of shape (`r0 <= r1 <= rows`,
    /// `c0 <= c1 <= cols`).
    pub fn block(self, r0: usize, r1: usize, c0: usize, c1: usize) -> MatView<'a, E> {
        assert!(r0 <= r1 && r1 <= self.rows, "block: row range out of bounds");
        assert!(c0 <= c1 && c1 <= self.cols, "block: col range out of bounds");
        let offset = if r1 > r0 && c1 > c0 {
            r0 * self.row_stride + c0 * self.col_stride
        } else {
            0 // empty block: keep data untouched so slicing cannot overrun
        };
        MatView {
            data: &self.data[offset..],
            rows: r1 - r0,
            cols: c1 - c0,
            row_stride: self.row_stride,
            col_stride: self.col_stride,
        }
    }

    /// The column panel `[c0, c1)` (all rows).
    pub fn col_panel(self, c0: usize, c1: usize) -> MatView<'a, E> {
        self.block(0, self.rows, c0, c1)
    }

    /// The row panel `[r0, r1)` (all columns).
    pub fn row_panel(self, r0: usize, r1: usize) -> MatView<'a, E> {
        self.block(r0, r1, 0, self.cols)
    }

    /// True when rows are contiguous slices (`col_stride == 1`).
    #[inline]
    pub fn is_row_contig(&self) -> bool {
        self.col_stride == 1
    }

    /// True when columns are contiguous slices (`row_stride == 1`) — the
    /// layout of a transposed row-major matrix.
    #[inline]
    pub fn is_col_contig(&self) -> bool {
        self.row_stride == 1
    }

    /// Row `i` as a contiguous slice, when `col_stride == 1`.
    #[inline]
    pub fn row_slice(&self, i: usize) -> Option<&'a [E]> {
        if self.col_stride == 1 {
            if self.cols == 0 {
                // A zero-column view may sit on an empty buffer where even
                // the offset arithmetic would land out of bounds.
                return Some(&[]);
            }
            let off = i * self.row_stride;
            Some(&self.data[off..off + self.cols])
        } else {
            None
        }
    }

    /// Column `j` as a contiguous slice, when `row_stride == 1`.
    #[inline]
    pub fn col_slice(&self, j: usize) -> Option<&'a [E]> {
        if self.row_stride == 1 {
            if self.rows == 0 {
                return Some(&[]);
            }
            let off = j * self.col_stride;
            Some(&self.data[off..off + self.rows])
        } else {
            None
        }
    }
}

impl<'a> MatView<'a, f64> {
    /// Copies the view into a fresh owned [`crate::DenseMatrix`].
    pub fn to_owned(&self) -> crate::DenseMatrix {
        let mut out = crate::DenseMatrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            let row = out.row_mut(i);
            if let Some(src) = self.row_slice(i) {
                row.copy_from_slice(src);
            } else {
                for (j, v) in row.iter_mut().enumerate() {
                    *v = self.get(i, j);
                }
            }
        }
        out
    }
}

impl<'a, E: Copy> MatViewMut<'a, E> {
    /// Wraps `data` as a mutable `rows × cols` view with explicit strides.
    ///
    /// # Errors
    /// [`LinalgError::InvalidParameter`] if the last element of the view
    /// falls outside `data`.
    pub fn new(
        data: &'a mut [E],
        rows: usize,
        cols: usize,
        row_stride: usize,
        col_stride: usize,
    ) -> Result<Self, LinalgError> {
        check_bounds("MatViewMut::new", data.len(), rows, cols, row_stride, col_stride)?;
        Ok(MatViewMut { data, rows, cols, row_stride, col_stride })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Stride between consecutive rows.
    #[inline]
    pub fn row_stride(&self) -> usize {
        self.row_stride
    }

    /// Stride between consecutive columns.
    #[inline]
    pub fn col_stride(&self) -> usize {
        self.col_stride
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> E {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.row_stride + j * self.col_stride]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: E) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.row_stride + j * self.col_stride] = v;
    }

    /// The transposed mutable view — a stride swap, no data movement.
    #[inline]
    pub fn t(self) -> MatViewMut<'a, E> {
        MatViewMut {
            data: self.data,
            rows: self.cols,
            cols: self.rows,
            row_stride: self.col_stride,
            col_stride: self.row_stride,
        }
    }

    /// The sub-block `[r0, r1) × [c0, c1)` as a mutable view.
    ///
    /// # Panics
    /// Panics if the range is out of shape.
    pub fn block(self, r0: usize, r1: usize, c0: usize, c1: usize) -> MatViewMut<'a, E> {
        assert!(r0 <= r1 && r1 <= self.rows, "block: row range out of bounds");
        assert!(c0 <= c1 && c1 <= self.cols, "block: col range out of bounds");
        let offset =
            if r1 > r0 && c1 > c0 { r0 * self.row_stride + c0 * self.col_stride } else { 0 };
        let MatViewMut { data, row_stride, col_stride, .. } = self;
        MatViewMut {
            data: &mut data[offset..],
            rows: r1 - r0,
            cols: c1 - c0,
            row_stride,
            col_stride,
        }
    }

    /// A read-only view of the same window.
    #[inline]
    pub fn as_view(&self) -> MatView<'_, E> {
        MatView {
            data: self.data,
            rows: self.rows,
            cols: self.cols,
            row_stride: self.row_stride,
            col_stride: self.col_stride,
        }
    }

    /// True when rows are contiguous slices (`col_stride == 1`).
    #[inline]
    pub fn is_row_contig(&self) -> bool {
        self.col_stride == 1
    }

    /// A mutable view of the same window for a shorter borrow, so a
    /// consuming call (`matmul_into`) can write it and the caller keep
    /// using `self` afterwards.
    #[inline]
    pub fn reborrow(&mut self) -> MatViewMut<'_, E> {
        MatViewMut {
            data: &mut *self.data,
            rows: self.rows,
            cols: self.cols,
            row_stride: self.row_stride,
            col_stride: self.col_stride,
        }
    }

    /// Row `i` as a contiguous mutable slice, when `col_stride == 1`.
    #[inline]
    pub fn row_slice_mut(&mut self, i: usize) -> Option<&mut [E]> {
        if self.col_stride == 1 {
            if self.cols == 0 {
                // See `MatView::row_slice`: avoid offset arithmetic on a
                // possibly-empty backing buffer.
                return Some(&mut []);
            }
            let off = i * self.row_stride;
            Some(&mut self.data[off..off + self.cols])
        } else {
            None
        }
    }

    /// Sets every element of the view to `v` (gaps between rows are left
    /// untouched).
    pub fn fill(&mut self, v: E) {
        for i in 0..self.rows {
            if let Some(row) = self.row_slice_mut(i) {
                row.fill(v);
            } else {
                for j in 0..self.cols {
                    self.set(i, j, v);
                }
            }
        }
    }
}

impl<'a> MatViewMut<'a, f64> {
    /// `self ← a · self` over the viewed window.
    pub fn scale(&mut self, a: f64) {
        for i in 0..self.rows {
            if let Some(row) = self.row_slice_mut(i) {
                vector::scale(a, row);
            } else {
                for j in 0..self.cols {
                    let v = self.get(i, j);
                    self.set(i, j, a * v);
                }
            }
        }
    }

    /// `self ← self + a · other` over the viewed window.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] if the shapes differ.
    pub fn add_scaled(&mut self, a: f64, other: MatView<'_>) -> Result<(), LinalgError> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                context: "MatViewMut::add_scaled",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        for i in 0..self.rows {
            match (self.col_stride == 1, other.row_slice(i)) {
                (true, Some(src)) => {
                    let off = i * self.row_stride;
                    vector::axpy(a, src, &mut self.data[off..off + self.cols]);
                }
                _ => {
                    for j in 0..self.cols {
                        let v = self.get(i, j) + a * other.get(i, j);
                        self.set(i, j, v);
                    }
                }
            }
        }
        Ok(())
    }

    /// Copies `other` into the viewed window.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] if the shapes differ.
    pub fn copy_from(&mut self, other: MatView<'_>) -> Result<(), LinalgError> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                context: "MatViewMut::copy_from",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        for i in 0..self.rows {
            match (self.col_stride == 1, other.row_slice(i)) {
                (true, Some(src)) => {
                    let off = i * self.row_stride;
                    self.data[off..off + self.cols].copy_from_slice(src);
                }
                _ => {
                    for j in 0..self.cols {
                        self.set(i, j, other.get(i, j));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Splits a row-contiguous destination view into disjoint row bands of
/// `chunk_rows` rows and runs `f(first_row, band)` for each on the shared
/// [`csrplus_par`] pool, capped at `threads` concurrent executors.
///
/// Band boundaries depend only on the view shape and `chunk_rows`, never
/// on `threads`, and the `threads <= 1` path visits the same bands
/// serially in index order — the [`csrplus_par`] determinism contract
/// expressed over views.  Even when `row_stride > cols` (a sub-block of a
/// wider buffer) the bands are disjoint slices of the underlying data;
/// the inter-row gaps ride along untouched.
///
/// # Panics
/// Panics if the view is not row-contiguous (`col_stride != 1`).
pub fn par_row_bands<F>(out: MatViewMut<'_>, chunk_rows: usize, threads: usize, f: F)
where
    F: Fn(usize, MatViewMut<'_>) + Sync,
{
    assert!(out.col_stride == 1, "par_row_bands: destination must be row-contiguous");
    let (rows, cols, rs) = (out.rows, out.cols, out.row_stride);
    if rows == 0 || cols == 0 {
        return;
    }
    let chunk_rows = chunk_rows.max(1);
    // Trim the buffer to the last viewed element so the chunk count is
    // exactly ceil(rows / chunk_rows): band `ci` covers rows
    // [ci·chunk_rows, min((ci+1)·chunk_rows, rows)).
    let limit = (rows - 1) * rs + cols;
    let data: &mut [f64] = &mut out.data[..limit];
    csrplus_par::for_each_chunk_mut(data, chunk_rows * rs, threads, |ci, band| {
        let lo = ci * chunk_rows;
        let band_rows = chunk_rows.min(rows - lo);
        let band_view =
            MatViewMut { data: band, rows: band_rows, cols, row_stride: rs, col_stride: 1 };
        f(lo, band_view);
    });
}

/// Work floor per parallel chunk (scalar flops) shared by the view
/// kernels.  Chunk sizing consults only this constant and the operand
/// shapes — never the thread count.
const MIN_CHUNK_WORK: usize = 1 << 20;

/// Cap on partial buffers for the reduction kernels: bounds the scratch
/// at `MAX_PARTIALS · out_elems` no matter how deep the shared dimension.
const MAX_PARTIALS: usize = 64;

/// Rows per band for kernels whose output rows are independent, sized so
/// one band carries at least [`MIN_CHUNK_WORK`] flops at `2·k·n` flops
/// per output row.
pub(crate) fn matmul_row_chunk(rows: usize, k: usize, n: usize) -> usize {
    csrplus_par::chunk_len(rows, 2 * k.max(1) * n.max(1), MIN_CHUNK_WORK)
}

/// Chunk length for reduction kernels (accumulation over the shared
/// dimension): at least [`MIN_CHUNK_WORK`] flops per chunk and at most
/// [`MAX_PARTIALS`] chunks total.
pub(crate) fn reduction_chunk(depth: usize, work_per_step: usize) -> usize {
    csrplus_par::chunk_len(depth, work_per_step, MIN_CHUNK_WORK)
        .max(depth.div_ceil(MAX_PARTIALS))
        .max(1)
}

/// Register-tile height (output rows) of the micro-kernel.  Shared with
/// the vectorised panel sweep in [`crate::simd`], which consumes the same
/// k-major packed-`A` layout.
pub(crate) const MICRO_MR: usize = 4;
/// Register-tile width (output cols) of the micro-kernel.
const MICRO_NR: usize = 4;
/// Depth of one packed panel (k-block): `4 × 256` doubles = 8 KiB, so a
/// panel stays L1-resident while the j-loop sweeps the full output width.
const MICRO_KC: usize = 256;

/// `out ← a · b` on the shared pool, dispatching on the operand strides.
///
/// This is the single entry point behind `matmul`, `matmul_transpose_a`
/// (`a.t()`), `matmul_transpose_b` (`b.t()`), and every sub-block /
/// column-panel product.  Dispatch (stride-only, so bitwise identical at
/// any `threads`):
///
/// 1. `a` column-contiguous and `b` row-contiguous → **reduction** over
///    the shared dimension with deterministic per-chunk partials (the
///    historical `Aᵀ·B` kernel).
/// 2. `b` row-contiguous → **forward** row-banded kernel: 4×4 micro-kernel
///    over packed `A` panels when the shape amortises packing, i-k-j axpy
///    with zero-skip otherwise.
/// 3. `a` row-contiguous and `b` column-contiguous → **dot** kernel
///    (contiguous row·column dot products; the historical `A·Bᵀ` path).
/// 4. anything else → forward kernel with both operands packed
///    tile-by-tile into the micro-kernel.
///
/// A destination that is column- but not row-contiguous is handled by the
/// identity `C = A·B ⇔ Cᵀ = Bᵀ·Aᵀ`; a fully strided destination falls
/// back to a serial per-element loop.
///
/// # Errors
/// [`LinalgError::ShapeMismatch`] unless `a` is `m×k`, `b` is `k×n` and
/// `out` is `m×n`.
pub fn matmul_into(
    a: MatView<'_>,
    b: MatView<'_>,
    out: MatViewMut<'_>,
    threads: usize,
) -> Result<(), LinalgError> {
    if a.cols != b.rows {
        return Err(LinalgError::ShapeMismatch {
            context: "matmul_into",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    if out.shape() != (a.rows, b.cols) {
        return Err(LinalgError::ShapeMismatch {
            context: "matmul_into (destination)",
            lhs: out.shape(),
            rhs: (a.rows, b.cols),
        });
    }
    if out.rows == 0 || out.cols == 0 {
        return Ok(());
    }
    if !out.is_row_contig() {
        if out.row_stride == 1 {
            // Cᵀ = Bᵀ·Aᵀ with a now row-contiguous destination.
            return matmul_into(b.t(), a.t(), out.t(), threads);
        }
        // Fully strided destination: cold path, serial by construction
        // (stride-dependent, not thread-dependent, so still deterministic).
        let mut out = out;
        for i in 0..a.rows {
            for j in 0..b.cols {
                let mut s = 0.0;
                for k in 0..a.cols {
                    s += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, s);
            }
        }
        return Ok(());
    }

    if a.is_col_contig() && !a.is_row_contig() && b.is_row_contig() {
        matmul_reduction(a, b, out, threads);
    } else if a.is_row_contig() && b.is_col_contig() && !b.is_row_contig() {
        matmul_dot(a, b, out, threads);
    } else {
        matmul_forward(a, b, out, threads);
    }
    Ok(())
}

/// Forward row-banded kernel: micro-kernel over packed panels, or i-k-j
/// axpy for thin shapes.  Handles any `a`/`b` strides (non-contiguous
/// operands are packed); `out` must be row-contiguous.
fn matmul_forward(a: MatView<'_>, b: MatView<'_>, out: MatViewMut<'_>, threads: usize) {
    let (k, n) = (a.cols, b.cols);
    let chunk_rows = matmul_row_chunk(a.rows, k, n);
    let use_micro = k >= MICRO_NR && a.cols >= 8 && n >= MICRO_NR;
    par_row_bands(out, chunk_rows, threads, |lo, mut band| {
        band.fill(0.0);
        if use_micro {
            matmul_band_micro(&a, &b, &mut band, lo);
        } else {
            for off in 0..band.rows() {
                let i = lo + off;
                let crow = band.row_slice_mut(off).expect("band is row-contiguous");
                if let Some(arow) = a.row_slice(i) {
                    for (kk, &aik) in arow.iter().enumerate() {
                        if aik != 0.0 {
                            axpy_b_row(aik, &b, kk, crow);
                        }
                    }
                } else {
                    for kk in 0..k {
                        let aik = a.get(i, kk);
                        if aik != 0.0 {
                            axpy_b_row(aik, &b, kk, crow);
                        }
                    }
                }
            }
        }
    });
}

/// `crow += v · b[k, *]`, streaming a contiguous `b` row when available.
#[inline]
fn axpy_b_row(v: f64, b: &MatView<'_>, k: usize, crow: &mut [f64]) {
    if let Some(brow) = b.row_slice(k) {
        vector::axpy(v, brow, crow);
    } else {
        for (j, cv) in crow.iter_mut().enumerate() {
            *cv += v * b.get(k, j);
        }
    }
}

/// Cache-blocked GEBP-style kernel accumulating the rows
/// `row_lo .. row_lo + band.rows` of `C = A·B` into a zeroed band.
///
/// Packs [`MICRO_MR`]-row panels of `A` k-major regardless of `A`'s
/// strides, and packs `B` tiles k-major when `B` is not row-contiguous,
/// so every stride combination reaches the same register block.  Per
/// output element the additions run in ascending `k` order — within a
/// k-block in the register accumulator, across k-blocks via the flush —
/// so the result depends only on the operand shapes and values.  When a
/// vectorised kernel set is active and `B` is row-contiguous, the j-sweep
/// runs through [`crate::simd::forward_panel`], which replays this exact
/// order with wider registers (bitwise-identical output).
fn matmul_band_micro(a: &MatView<'_>, b: &MatView<'_>, band: &mut MatViewMut<'_>, row_lo: usize) {
    let kdim = a.cols;
    let n = b.cols;
    let band_rows = band.rows;
    let out_rs = band.row_stride;
    let out = &mut *band.data;
    let mut packed_a = [0.0f64; MICRO_MR * MICRO_KC];
    let mut packed_b = [0.0f64; MICRO_KC * MICRO_NR];
    let mut i = 0;
    while i < band_rows {
        let mr = MICRO_MR.min(band_rows - i);
        let mut kb = 0;
        while kb < kdim {
            let kc_len = MICRO_KC.min(kdim - kb);
            for kk in 0..kc_len {
                let dst = &mut packed_a[kk * MICRO_MR..(kk + 1) * MICRO_MR];
                for (r, d) in dst.iter_mut().enumerate() {
                    *d = if r < mr { a.get(row_lo + i + r, kb + kk) } else { 0.0 };
                }
            }
            if b.col_stride == 1 {
                if !crate::simd::forward_panel(
                    &packed_a,
                    kc_len,
                    mr,
                    b.data,
                    b.row_stride,
                    kb,
                    n,
                    out,
                    out_rs,
                    i,
                ) {
                    let mut j = 0;
                    while j < n {
                        let nr = MICRO_NR.min(n - j);
                        let mut acc = [0.0f64; MICRO_MR * MICRO_NR];
                        for kk in 0..kc_len {
                            let ap = &packed_a[kk * MICRO_MR..(kk + 1) * MICRO_MR];
                            let off = (kb + kk) * b.row_stride + j;
                            micro_accumulate(&mut acc, ap, &b.data[off..off + nr]);
                        }
                        micro_flush(out, &acc, i, j, mr, nr, out_rs);
                        j += MICRO_NR;
                    }
                }
            } else {
                let mut j = 0;
                while j < n {
                    let nr = MICRO_NR.min(n - j);
                    let mut acc = [0.0f64; MICRO_MR * MICRO_NR];
                    for kk in 0..kc_len {
                        let dst = &mut packed_b[kk * MICRO_NR..kk * MICRO_NR + nr];
                        for (jj, d) in dst.iter_mut().enumerate() {
                            *d = b.get(kb + kk, j + jj);
                        }
                    }
                    for kk in 0..kc_len {
                        let ap = &packed_a[kk * MICRO_MR..(kk + 1) * MICRO_MR];
                        micro_accumulate(
                            &mut acc,
                            ap,
                            &packed_b[kk * MICRO_NR..kk * MICRO_NR + nr],
                        );
                    }
                    micro_flush(out, &acc, i, j, mr, nr, out_rs);
                    j += MICRO_NR;
                }
            }
            kb += MICRO_KC;
        }
        i += MICRO_MR;
    }
}

/// Adds the register block `acc` (rows `0..mr`, `nr` columns) into the
/// band at tile origin `(i, j)`.
#[inline]
fn micro_flush(
    out: &mut [f64],
    acc: &[f64; MICRO_MR * MICRO_NR],
    i: usize,
    j: usize,
    mr: usize,
    nr: usize,
    out_rs: usize,
) {
    for r in 0..mr {
        let off = (i + r) * out_rs + j;
        let orow = &mut out[off..off + nr];
        for (ov, &av) in orow.iter_mut().zip(&acc[r * MICRO_NR..r * MICRO_NR + nr]) {
            *ov += av;
        }
    }
}

/// One k-step of the register block: `acc[r][*] += ap[r] · brow[*]`.
#[inline]
fn micro_accumulate(acc: &mut [f64; MICRO_MR * MICRO_NR], ap: &[f64], brow: &[f64]) {
    for (r, &av) in ap.iter().enumerate() {
        let accr = &mut acc[r * MICRO_NR..r * MICRO_NR + brow.len()];
        for (cv, &bv) in accr.iter_mut().zip(brow) {
            *cv += av * bv;
        }
    }
}

/// Reduction kernel for `a` column-contiguous (a transposed row-major
/// matrix): rank-1 accumulation over the shared dimension with private
/// per-chunk partials reduced serially in chunk order — the historical
/// `Aᵀ·B` scheme, bitwise identical at any thread count.
fn matmul_reduction(a: MatView<'_>, b: MatView<'_>, mut out: MatViewMut<'_>, threads: usize) {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    let out_elems = m * n;
    // `a[*, kk]` is the contiguous slice at `kk·col_stride` (row_stride
    // is 1), `b[kk, *]` is a contiguous row: one axpy per output row.
    let accumulate = |dst: &mut [f64], dst_rs: usize, k_lo: usize, k_hi: usize| {
        for kk in k_lo..k_hi {
            let acol = &a.data[kk * a.col_stride..kk * a.col_stride + m];
            let brow = b.row_slice(kk).expect("b is row-contiguous");
            for (i, &aik) in acol.iter().enumerate() {
                if aik != 0.0 {
                    vector::axpy(aik, brow, &mut dst[i * dst_rs..i * dst_rs + n]);
                }
            }
        }
    };
    out.fill(0.0);
    let chunk_k = reduction_chunk(k, 2 * out_elems);
    let n_chunks = csrplus_par::chunk_count(k, chunk_k);
    if n_chunks == 1 {
        let rs = out.row_stride;
        accumulate(&mut out.data[..], rs, 0, k);
        return;
    }
    let mut partials = vec![0.0f64; n_chunks * out_elems];
    csrplus_par::for_each_chunk_mut(&mut partials, out_elems, threads, |ci, part| {
        let k_lo = ci * chunk_k;
        accumulate(part, n, k_lo, (k_lo + chunk_k).min(k));
    });
    for part in partials.chunks(out_elems) {
        for i in 0..m {
            let off = i * out.row_stride;
            vector::axpy(1.0, &part[i * n..(i + 1) * n], &mut out.data[off..off + n]);
        }
    }
}

/// Dot kernel for `b` column-contiguous: each output entry is one
/// contiguous row·column dot product (the historical `A·Bᵀ` path).
fn matmul_dot(a: MatView<'_>, b: MatView<'_>, out: MatViewMut<'_>, threads: usize) {
    let (k, n) = (a.cols, b.cols);
    let chunk_rows = matmul_row_chunk(a.rows, k, n);
    par_row_bands(out, chunk_rows, threads, |lo, mut band| {
        for off in 0..band.rows() {
            let arow = a.row_slice(lo + off).expect("a is row-contiguous");
            let crow = band.row_slice_mut(off).expect("band is row-contiguous");
            for (j, cv) in crow.iter_mut().enumerate() {
                let bcol = b.col_slice(j).expect("b is column-contiguous");
                *cv = vector::dot(arow, bcol);
            }
        }
    });
}

/// Mixed-precision `out ← a · b`: `f32` storage, `f64` accumulation and
/// destination.  Every element is widened to `f64` *before* its multiply,
/// so the only deviation from the all-`f64` product is the storage
/// rounding already present in the operands.
///
/// Dispatch is stride-only, like [`matmul_into`]:
///
/// 1. `a` row-contiguous and `b` column-contiguous → parallel **dot**
///    kernel over [`vector::dot_f32`] (the `Z·[U]_{Q,*}ᵀ` multi-source
///    shape, SIMD-dispatched).
/// 2. a column-contiguous destination → the `Cᵀ = Bᵀ·Aᵀ` identity.
/// 3. anything else → strided per-element accumulation in ascending `k`
///    order over parallel row bands.
///
/// Both paths are bitwise deterministic at any thread cap and across the
/// scalar/SIMD switch (per-element accumulation order is fixed).
///
/// # Errors
/// [`LinalgError::ShapeMismatch`] unless `a` is `m×k`, `b` is `k×n` and
/// `out` is `m×n`.
pub fn matmul_into_mixed(
    a: MatView<'_, f32>,
    b: MatView<'_, f32>,
    out: MatViewMut<'_, f64>,
    threads: usize,
) -> Result<(), LinalgError> {
    if a.cols != b.rows {
        return Err(LinalgError::ShapeMismatch {
            context: "matmul_into_mixed",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    if out.shape() != (a.rows, b.cols) {
        return Err(LinalgError::ShapeMismatch {
            context: "matmul_into_mixed (destination)",
            lhs: out.shape(),
            rhs: (a.rows, b.cols),
        });
    }
    if out.rows == 0 || out.cols == 0 {
        return Ok(());
    }
    if !out.is_row_contig() {
        if out.row_stride == 1 {
            return matmul_into_mixed(b.t(), a.t(), out.t(), threads);
        }
        // Fully strided destination: cold path, serial by construction.
        let mut out = out;
        for i in 0..a.rows {
            for j in 0..b.cols {
                let mut s = 0.0f64;
                for k in 0..a.cols {
                    s += a.get(i, k) as f64 * b.get(k, j) as f64;
                }
                out.set(i, j, s);
            }
        }
        return Ok(());
    }
    let (k, n) = (a.cols, b.cols);
    let chunk_rows = matmul_row_chunk(a.rows, k, n);
    if a.is_row_contig() && b.is_col_contig() {
        par_row_bands(out, chunk_rows, threads, |lo, mut band| {
            for off in 0..band.rows() {
                let arow = a.row_slice(lo + off).expect("a is row-contiguous");
                let crow = band.row_slice_mut(off).expect("band is row-contiguous");
                for (j, cv) in crow.iter_mut().enumerate() {
                    let bcol = b.col_slice(j).expect("b is column-contiguous");
                    *cv = vector::dot_f32(arow, bcol);
                }
            }
        });
    } else {
        par_row_bands(out, chunk_rows, threads, |lo, mut band| {
            for off in 0..band.rows() {
                let i = lo + off;
                let crow = band.row_slice_mut(off).expect("band is row-contiguous");
                for (j, cv) in crow.iter_mut().enumerate() {
                    let mut s = 0.0f64;
                    for kk in 0..k {
                        s += a.get(i, kk) as f64 * b.get(kk, j) as f64;
                    }
                    *cv = s;
                }
            }
        });
    }
    Ok(())
}

/// `y ← a · x` on the shared pool, dispatching on `a`'s strides: a
/// row-contiguous `a` uses one dot product per output element, a
/// column-contiguous `a` (a transposed row-major matrix) accumulates over
/// the shared dimension with deterministic per-chunk partials, and a
/// fully strided `a` falls back to strided dots.  Bitwise identical at
/// any `threads`.
///
/// # Errors
/// [`LinalgError::ShapeMismatch`] unless `x.len() == a.cols` and
/// `y.len() == a.rows`.
pub fn matvec_into(
    a: MatView<'_>,
    x: &[f64],
    y: &mut [f64],
    threads: usize,
) -> Result<(), LinalgError> {
    if x.len() != a.cols || y.len() != a.rows {
        return Err(LinalgError::ShapeMismatch {
            context: "matvec_into",
            lhs: a.shape(),
            rhs: (y.len(), x.len()),
        });
    }
    if a.rows == 0 {
        return Ok(());
    }
    if a.cols == 0 {
        y.fill(0.0);
        return Ok(());
    }
    if a.is_col_contig() && !a.is_row_contig() {
        // Accumulate over the shared dimension: y += x[k] · a[*, k].
        let m = a.rows;
        let accumulate = |dst: &mut [f64], k_lo: usize, k_hi: usize| {
            for (kk, &xk) in x.iter().enumerate().take(k_hi).skip(k_lo) {
                if xk != 0.0 {
                    let acol = &a.data[kk * a.col_stride..kk * a.col_stride + m];
                    vector::axpy(xk, acol, dst);
                }
            }
        };
        y.fill(0.0);
        let chunk_k = reduction_chunk(a.cols, 2 * m);
        let n_chunks = csrplus_par::chunk_count(a.cols, chunk_k);
        if n_chunks == 1 {
            accumulate(y, 0, a.cols);
            return Ok(());
        }
        let mut partials = vec![0.0f64; n_chunks * m];
        csrplus_par::for_each_chunk_mut(&mut partials, m, threads, |ci, part| {
            let k_lo = ci * chunk_k;
            accumulate(part, k_lo, (k_lo + chunk_k).min(a.cols));
        });
        for part in partials.chunks(m) {
            vector::axpy(1.0, part, y);
        }
        return Ok(());
    }
    let chunk_rows = matmul_row_chunk(a.rows, a.cols, 1);
    csrplus_par::for_each_chunk_mut(y, chunk_rows, threads, |ci, out| {
        let lo = ci * chunk_rows;
        for (off, yv) in out.iter_mut().enumerate() {
            if let Some(arow) = a.row_slice(lo + off) {
                *yv = vector::dot(arow, x);
            } else {
                let mut s = 0.0;
                for (k, &xk) in x.iter().enumerate() {
                    s += a.get(lo + off, k) * xk;
                }
                *yv = s;
            }
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DenseMatrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Serial three-loop reference on owned matrices.
    fn reference_matmul(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let mut c = DenseMatrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for k in 0..a.cols() {
                    s += a.get(i, k) * b.get(k, j);
                }
                c.set(i, j, s);
            }
        }
        c
    }

    #[test]
    fn transposed_view_reads_match_owned_transpose() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = DenseMatrix::random_gaussian(7, 13, &mut rng);
        let at = a.transpose();
        let v = a.view().t();
        assert_eq!(v.shape(), (13, 7));
        for i in 0..13 {
            for j in 0..7 {
                assert_eq!(v.get(i, j), at.get(i, j));
            }
        }
        assert!(v.to_owned().approx_eq(&at, 0.0));
    }

    #[test]
    fn block_and_panel_views_address_correctly() {
        let a = DenseMatrix::from_fn(6, 5, |i, j| (i * 10 + j) as f64);
        let b = a.view().block(1, 4, 2, 5);
        assert_eq!(b.shape(), (3, 3));
        assert_eq!(b.get(0, 0), 12.0);
        assert_eq!(b.get(2, 2), 34.0);
        let p = a.view().col_panel(3, 5);
        assert_eq!(p.shape(), (6, 2));
        assert_eq!(p.get(5, 1), 54.0);
        let r = a.view().row_panel(4, 6);
        assert_eq!(r.shape(), (2, 5));
        assert_eq!(r.get(0, 0), 40.0);
        // Empty blocks are fine.
        assert_eq!(a.view().block(2, 2, 0, 5).shape(), (0, 5));
    }

    #[test]
    fn view_construction_rejects_out_of_bounds() {
        let buf = vec![0.0; 10];
        assert!(MatView::new(&buf, 3, 4, 4, 1).is_err());
        assert!(MatView::new(&buf, 2, 5, 5, 1).is_ok());
        assert!(MatView::new(&buf, 0, 100, 1, 1).is_ok(), "empty views are unbounded");
    }

    #[test]
    fn matmul_into_all_stride_combinations_match_reference() {
        let mut rng = StdRng::seed_from_u64(17);
        let a = DenseMatrix::random_gaussian(23, 31, &mut rng);
        let b = DenseMatrix::random_gaussian(31, 19, &mut rng);
        let want = reference_matmul(&a, &b);
        let at = a.transpose();
        let bt = b.transpose();
        // (plain, plain), (transposed, plain), (plain, transposed),
        // (transposed, transposed): all four stride combinations.
        let cases: [(MatView<'_>, MatView<'_>); 4] = [
            (a.view(), b.view()),
            (at.view().t(), b.view()),
            (a.view(), bt.view().t()),
            (at.view().t(), bt.view().t()),
        ];
        for (ci, (av, bv)) in cases.into_iter().enumerate() {
            let mut c = DenseMatrix::zeros(23, 19);
            matmul_into(av, bv, c.view_mut(), 4).unwrap();
            assert!(c.approx_eq(&want, 1e-12), "case {ci}");
        }
    }

    #[test]
    fn matmul_into_writes_sub_block_without_touching_rest() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = DenseMatrix::random_gaussian(4, 6, &mut rng);
        let b = DenseMatrix::random_gaussian(6, 3, &mut rng);
        let want = reference_matmul(&a, &b);
        let mut big = DenseMatrix::from_fn(10, 9, |_, _| -7.0);
        matmul_into(a.view(), b.view(), big.view_mut().block(2, 6, 4, 7), 2).unwrap();
        for i in 0..10 {
            for j in 0..9 {
                let inside = (2..6).contains(&i) && (4..7).contains(&j);
                if inside {
                    let d = (big.get(i, j) - want.get(i - 2, j - 4)).abs();
                    assert!(d < 1e-12, "({i},{j})");
                } else {
                    assert_eq!(big.get(i, j), -7.0, "({i},{j}) was trampled");
                }
            }
        }
    }

    #[test]
    fn matmul_into_transposed_destination() {
        let mut rng = StdRng::seed_from_u64(29);
        let a = DenseMatrix::random_gaussian(8, 12, &mut rng);
        let b = DenseMatrix::random_gaussian(12, 5, &mut rng);
        let want = reference_matmul(&a, &b);
        // Destination is a transposed view over a 5×8 buffer.
        let mut ct = DenseMatrix::zeros(5, 8);
        matmul_into(a.view(), b.view(), ct.view_mut().t(), 2).unwrap();
        assert!(ct.transpose().approx_eq(&want, 1e-12));
    }

    #[test]
    fn matvec_into_plain_and_transposed() {
        let mut rng = StdRng::seed_from_u64(41);
        let a = DenseMatrix::random_gaussian(37, 11, &mut rng);
        let x: Vec<f64> = (0..11).map(|i| (i as f64).sin()).collect();
        let z: Vec<f64> = (0..37).map(|i| (i as f64).cos()).collect();
        let mut y = vec![0.0; 37];
        matvec_into(a.view(), &x, &mut y, 4).unwrap();
        for (i, &yv) in y.iter().enumerate() {
            let want: f64 = (0..11).map(|k| a.get(i, k) * x[k]).sum();
            assert!((yv - want).abs() < 1e-12);
        }
        let mut w = vec![0.0; 11];
        matvec_into(a.view().t(), &z, &mut w, 4).unwrap();
        for (j, &wv) in w.iter().enumerate() {
            let want: f64 = (0..37).map(|k| a.get(k, j) * z[k]).sum();
            assert!((wv - want).abs() < 1e-12);
        }
    }

    #[test]
    fn matmul_scalar_and_simd_bitwise_identical() {
        // Shapes chosen to cross the micro-kernel threshold with ragged
        // tails in every dimension (rows % 4, cols % 8, k % 256 nonzero),
        // so the 8-wide, 4-wide and scalar strips all execute.
        let mut rng = StdRng::seed_from_u64(1234);
        let a = DenseMatrix::random_gaussian(37, 300, &mut rng);
        let b = DenseMatrix::random_gaussian(300, 43, &mut rng);
        let _guard = crate::simd::test_lock();
        crate::simd::set_enabled(false);
        let scalar = a.matmul_with_threads(&b, 1).unwrap();
        crate::simd::set_enabled(true);
        let simd = a.matmul_with_threads(&b, 1).unwrap();
        let simd4 = a.matmul_with_threads(&b, 4).unwrap();
        assert_eq!(
            scalar.as_slice(),
            simd.as_slice(),
            "scalar vs simd ({})",
            crate::simd::active()
        );
        assert_eq!(scalar.as_slice(), simd4.as_slice(), "scalar vs simd at 4 threads");
    }

    #[test]
    fn matmul_mixed_matches_f64_within_storage_rounding() {
        let _guard = crate::simd::test_lock();
        let mut rng = StdRng::seed_from_u64(91);
        let a = DenseMatrix::random_gaussian(23, 31, &mut rng);
        let b = DenseMatrix::random_gaussian(31, 19, &mut rng);
        let af: Vec<f32> = a.as_slice().iter().map(|&v| v as f32).collect();
        let bf: Vec<f32> = b.as_slice().iter().map(|&v| v as f32).collect();
        // Reference: exact product of the *rounded* operands in f64.
        let a64 = DenseMatrix::from_vec(23, 31, af.iter().map(|&v| v as f64).collect()).unwrap();
        let b64 = DenseMatrix::from_vec(31, 19, bf.iter().map(|&v| v as f64).collect()).unwrap();
        let want = reference_matmul(&a64, &b64);
        let av = MatView::<f32>::new(&af, 23, 31, 31, 1).unwrap();
        let bv = MatView::<f32>::new(&bf, 31, 19, 19, 1).unwrap();
        // Dot path: b as a transposed (column-contiguous) view.
        let bt: Vec<f32> = (0..19 * 31).map(|i| bf[(i % 31) * 19 + i / 31]).collect();
        let btv = MatView::<f32>::new(&bt, 19, 31, 31, 1).unwrap();
        let mut c = DenseMatrix::zeros(23, 19);
        matmul_into_mixed(av, btv.t(), c.view_mut(), 2).unwrap();
        assert!(c.approx_eq(&want, 1e-12), "dot path");
        // Generic strided path: plain row-major b.
        let mut c2 = DenseMatrix::zeros(23, 19);
        matmul_into_mixed(av, bv, c2.view_mut(), 2).unwrap();
        assert!(c2.approx_eq(&want, 1e-12), "generic path");
        // Transposed destination exercises the Cᵀ identity.
        let mut ct = DenseMatrix::zeros(19, 23);
        matmul_into_mixed(av, bv, ct.view_mut().t(), 2).unwrap();
        assert!(ct.transpose().approx_eq(&want, 1e-12), "transposed destination");
        // Thread caps and the scalar/SIMD switch agree bitwise.
        let mut c3 = DenseMatrix::zeros(23, 19);
        matmul_into_mixed(av, btv.t(), c3.view_mut(), 1).unwrap();
        assert_eq!(c.as_slice(), c3.as_slice());
        crate::simd::set_enabled(false);
        let mut c4 = DenseMatrix::zeros(23, 19);
        matmul_into_mixed(av, btv.t(), c4.view_mut(), 2).unwrap();
        crate::simd::set_enabled(true);
        assert_eq!(c.as_slice(), c4.as_slice());
    }

    #[test]
    fn f32_views_address_like_f64_views() {
        let data: Vec<f32> = (0..30).map(|v| v as f32).collect();
        let v = MatView::<f32>::new(&data, 6, 5, 5, 1).unwrap();
        assert_eq!(v.get(2, 3), 13.0);
        assert_eq!(v.t().get(3, 2), 13.0);
        assert_eq!(v.block(1, 4, 2, 5).get(0, 0), 7.0);
        assert_eq!(v.row_slice(1).unwrap(), &data[5..10]);
        assert!(v.t().col_slice(2).is_some());
    }

    #[test]
    fn par_row_bands_covers_sub_block_disjointly() {
        let mut big = DenseMatrix::from_fn(9, 7, |_, _| -1.0);
        let block = big.view_mut().block(1, 8, 2, 6);
        par_row_bands(block, 2, 4, |lo, mut band| {
            for off in 0..band.rows() {
                for j in 0..band.cols() {
                    band.set(off, j, (lo + off) as f64);
                }
            }
        });
        for i in 0..9 {
            for j in 0..7 {
                let inside = (1..8).contains(&i) && (2..6).contains(&j);
                let want = if inside { (i - 1) as f64 } else { -1.0 };
                assert_eq!(big.get(i, j), want, "({i},{j})");
            }
        }
    }

    #[test]
    fn view_scale_add_fill_respect_window() {
        let mut big = DenseMatrix::from_fn(5, 5, |i, j| (i * 5 + j) as f64);
        let orig = big.clone();
        let mut w = big.view_mut().block(1, 3, 1, 4);
        w.scale(2.0);
        let ones = DenseMatrix::from_fn(2, 3, |_, _| 1.0);
        w.add_scaled(0.5, ones.view()).unwrap();
        for i in 0..5 {
            for j in 0..5 {
                let inside = (1..3).contains(&i) && (1..4).contains(&j);
                let want = if inside { orig.get(i, j) * 2.0 + 0.5 } else { orig.get(i, j) };
                assert_eq!(big.get(i, j), want, "({i},{j})");
            }
        }
    }
}
