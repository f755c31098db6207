//! Dense factor storage that is either owned or memory-mapped, in
//! either storage precision.
//!
//! The model's large factors (`U`, `Z`, both `n × r`) dominate its
//! footprint.  [`Factor`] lets them live in owned heap buffers (computed
//! fresh, or eagerly deserialised) or borrowed zero-copy from a mapped
//! `CSRP` v2 artifact — and, orthogonally, in `f64` or `f32` storage
//! (see [`crate::precision`]).  The query paths only ever consume rows
//! ([`RowRef`]) and views ([`FactorView`]); every kernel accumulates in
//! `f64` regardless of storage, and within a precision the bit patterns
//! are identical across representations.

use csrplus_linalg::{DenseMatrix, LinalgError, MatView};
use csrplus_store::{MappedMatrix, MappedMatrixF32};

/// An owned row-major `f32` matrix — the storage-demoted counterpart of
/// [`DenseMatrix`], carrying no arithmetic of its own: kernels consume
/// its [`MatView<f32>`] and widen per element.
#[derive(Debug, Clone)]
pub struct DenseMatrixF32 {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl DenseMatrixF32 {
    /// Builds from a row-major buffer.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] when `data.len() != rows·cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                context: "DenseMatrixF32::from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(DenseMatrixF32 { rows, cols, data })
    }

    /// Rounds an `f64` matrix to `f32` storage (the demotion step).
    pub fn from_f64(m: &DenseMatrix) -> Self {
        DenseMatrixF32 {
            rows: m.rows(),
            cols: m.cols(),
            data: m.as_slice().iter().map(|&v| v as f32).collect(),
        }
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

    /// The matrix as a flat row-major slice.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// A borrowing view over the storage.
    pub fn view(&self) -> MatView<'_, f32> {
        MatView::new(&self.data, self.rows, self.cols, self.cols.max(1), 1)
            .expect("owned buffer always fits its own shape")
    }

    /// Heap bytes owned by the buffer.
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f32>()
    }
}

/// A borrowed factor row in its storage precision.
///
/// The accessors widen to `f64` with the same fixed accumulation order
/// as the `f64` kernels, so per-precision results are bitwise stable
/// across owned/mapped representations and thread caps.
#[derive(Debug, Clone, Copy)]
pub enum RowRef<'a> {
    /// Double-precision storage.
    F64(&'a [f64]),
    /// Single-precision storage (widened per element on use).
    F32(&'a [f32]),
}

impl<'a> RowRef<'a> {
    /// First element widened, or 0 for an empty row.
    #[inline]
    pub fn first(&self) -> f64 {
        match self {
            RowRef::F64(s) => s.first().copied().unwrap_or(0.0),
            RowRef::F32(s) => s.first().copied().unwrap_or(0.0) as f64,
        }
    }

    /// Dot product against another row of the *same* precision,
    /// accumulated in `f64` with the shared fixed-lane kernels.
    ///
    /// # Panics
    /// Panics on a precision mismatch (the model always keeps `U` and
    /// `Z` in one precision) or a length mismatch.
    #[inline]
    pub fn dot(&self, other: RowRef<'_>) -> f64 {
        match (self, other) {
            (RowRef::F64(a), RowRef::F64(b)) => csrplus_linalg::vector::dot(a, b),
            (RowRef::F32(a), RowRef::F32(b)) => csrplus_linalg::vector::dot_f32(a, b),
            _ => panic!("RowRef::dot: mixed storage precisions"),
        }
    }

    /// Euclidean norm of the row (scaled accumulation, as
    /// [`csrplus_linalg::vector::norm2`]).
    pub fn norm2(&self) -> f64 {
        match self {
            RowRef::F64(s) => csrplus_linalg::vector::norm2(s),
            RowRef::F32(s) => csrplus_linalg::vector::norm2_iter(s.iter().map(|&v| v as f64)),
        }
    }

    /// Euclidean norm of elements `1..` (the split-bound tail).
    pub fn tail_norm2(&self) -> f64 {
        match self {
            RowRef::F64(s) => csrplus_linalg::vector::norm2(s.get(1..).unwrap_or(&[])),
            RowRef::F32(s) => csrplus_linalg::vector::norm2_iter(
                s.get(1..).unwrap_or(&[]).iter().map(|&v| v as f64),
            ),
        }
    }
}

/// A borrowed whole-factor view in its storage precision — the currency
/// of the block kernels (`matmul_into` for `f64`, `matmul_into_mixed`
/// for `f32` storage).
#[derive(Clone, Copy)]
pub enum FactorView<'a> {
    /// Double-precision storage.
    F64(MatView<'a, f64>),
    /// Single-precision storage.
    F32(MatView<'a, f32>),
}

/// An `n × r` dense factor: owned or mapped, `f64` or `f32` storage.
#[derive(Debug, Clone)]
pub enum Factor {
    /// Owned row-major `f64` storage.
    Owned(DenseMatrix),
    /// `f64` storage borrowed from a shared mapped region.
    Mapped(MappedMatrix),
    /// Owned row-major `f32` storage (accumulation stays `f64`).
    OwnedF32(DenseMatrixF32),
    /// `f32` storage borrowed from a shared mapped region.
    MappedF32(MappedMatrixF32),
}

impl Factor {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            Factor::Owned(m) => m.rows(),
            Factor::Mapped(m) => m.rows(),
            Factor::OwnedF32(m) => m.rows(),
            Factor::MappedF32(m) => m.rows(),
        }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        match self {
            Factor::Owned(m) => m.cols(),
            Factor::Mapped(m) => m.cols(),
            Factor::OwnedF32(m) => m.cols(),
            Factor::MappedF32(m) => m.cols(),
        }
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }

    /// The storage precision of this factor.
    pub fn precision(&self) -> crate::precision::Precision {
        match self {
            Factor::Owned(_) | Factor::Mapped(_) => crate::precision::Precision::F64,
            Factor::OwnedF32(_) | Factor::MappedF32(_) => crate::precision::Precision::F32,
        }
    }

    /// The factor as a flat row-major `f64` slice.
    ///
    /// # Panics
    /// Panics on `f32` storage — precision-agnostic callers use
    /// [`Factor::row_ref`] / [`Factor::factor_view`] instead.
    pub fn as_slice(&self) -> &[f64] {
        match self {
            Factor::Owned(m) => m.as_slice(),
            Factor::Mapped(m) => m.as_slice(),
            _ => panic!("Factor::as_slice on f32 storage"),
        }
    }

    /// The factor as a flat row-major `f32` slice.
    ///
    /// # Panics
    /// Panics on `f64` storage.
    pub fn as_f32_slice(&self) -> &[f32] {
        match self {
            Factor::OwnedF32(m) => m.as_slice(),
            Factor::MappedF32(m) => m.as_slice(),
            _ => panic!("Factor::as_f32_slice on f64 storage"),
        }
    }

    /// Row `i` as a contiguous `f64` slice.
    ///
    /// # Panics
    /// Panics on `f32` storage — see [`Factor::row_ref`].
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        match self {
            Factor::Owned(m) => m.row(i),
            Factor::Mapped(m) => m.row(i),
            _ => panic!("Factor::row on f32 storage"),
        }
    }

    /// Row `i` in its storage precision.
    #[inline]
    pub fn row_ref(&self, i: usize) -> RowRef<'_> {
        match self {
            Factor::Owned(m) => RowRef::F64(m.row(i)),
            Factor::Mapped(m) => RowRef::F64(m.row(i)),
            Factor::OwnedF32(m) => RowRef::F32(m.row(i)),
            Factor::MappedF32(m) => RowRef::F32(m.row(i)),
        }
    }

    /// Element `(i, j)`, widened to `f64`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        match self {
            Factor::Owned(m) => m.get(i, j),
            Factor::Mapped(m) => m.get(i, j),
            Factor::OwnedF32(m) => m.row(i)[j] as f64,
            Factor::MappedF32(m) => m.get(i, j) as f64,
        }
    }

    /// A borrowing `f64` view — the common currency of the `f64` compute
    /// kernels, so downstream products are bitwise identical across
    /// representations.
    ///
    /// # Panics
    /// Panics on `f32` storage — see [`Factor::factor_view`].
    pub fn view(&self) -> MatView<'_> {
        match self {
            Factor::Owned(m) => m.view(),
            Factor::Mapped(m) => m.view(),
            _ => panic!("Factor::view on f32 storage"),
        }
    }

    /// A borrowing view in the storage precision.
    pub fn factor_view(&self) -> FactorView<'_> {
        match self {
            Factor::Owned(m) => FactorView::F64(m.view()),
            Factor::Mapped(m) => FactorView::F64(m.view()),
            Factor::OwnedF32(m) => FactorView::F32(m.view()),
            Factor::MappedF32(m) => FactorView::F32(m.view()),
        }
    }

    /// Gathers the given rows into a fresh owned factor of the *same*
    /// storage precision, so the downstream block product can run the
    /// matching kernel.
    pub fn select_rows(&self, rows: &[usize]) -> Factor {
        match self {
            Factor::Owned(m) => Factor::Owned(m.select_rows(rows)),
            Factor::Mapped(m) => {
                let cols = m.cols();
                let mut data = Vec::with_capacity(rows.len() * cols);
                for &i in rows {
                    data.extend_from_slice(m.row(i));
                }
                Factor::Owned(
                    DenseMatrix::from_vec(rows.len(), cols, data).expect("consistent shape"),
                )
            }
            Factor::OwnedF32(m) => {
                let cols = m.cols();
                let mut data = Vec::with_capacity(rows.len() * cols);
                for &i in rows {
                    data.extend_from_slice(m.row(i));
                }
                Factor::OwnedF32(
                    DenseMatrixF32::from_vec(rows.len(), cols, data).expect("consistent shape"),
                )
            }
            Factor::MappedF32(m) => {
                let cols = m.cols();
                let mut data = Vec::with_capacity(rows.len() * cols);
                for &i in rows {
                    data.extend_from_slice(m.row(i));
                }
                Factor::OwnedF32(
                    DenseMatrixF32::from_vec(rows.len(), cols, data).expect("consistent shape"),
                )
            }
        }
    }

    /// An owned `f64` copy (materialises mapped storage, widens `f32`).
    pub fn to_dense(&self) -> DenseMatrix {
        match self {
            Factor::Owned(m) => m.clone(),
            Factor::Mapped(m) => DenseMatrix::from_vec(m.rows(), m.cols(), m.as_slice().to_vec())
                .expect("consistent shape"),
            Factor::OwnedF32(m) => DenseMatrix::from_vec(
                m.rows(),
                m.cols(),
                m.as_slice().iter().map(|&v| v as f64).collect(),
            )
            .expect("consistent shape"),
            Factor::MappedF32(m) => DenseMatrix::from_vec(
                m.rows(),
                m.cols(),
                m.as_slice().iter().map(|&v| v as f64).collect(),
            )
            .expect("consistent shape"),
        }
    }

    /// True when the factor borrows mapped (page-cache) storage.
    pub fn is_mapped(&self) -> bool {
        matches!(self, Factor::Mapped(_) | Factor::MappedF32(_))
    }

    /// Heap bytes owned by this factor — zero for mapped storage, whose
    /// pages belong to the kernel page cache, not this process's heap.
    pub fn heap_bytes(&self) -> usize {
        match self {
            Factor::Owned(m) => m.heap_bytes(),
            Factor::OwnedF32(m) => m.heap_bytes(),
            Factor::Mapped(_) | Factor::MappedF32(_) => 0,
        }
    }
}

impl From<DenseMatrix> for Factor {
    fn from(m: DenseMatrix) -> Self {
        Factor::Owned(m)
    }
}

impl From<DenseMatrixF32> for Factor {
    fn from(m: DenseMatrixF32) -> Self {
        Factor::OwnedF32(m)
    }
}
