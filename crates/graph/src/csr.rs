//! Compressed Sparse Row matrices and their multiplication kernels.
//!
//! `CsrMatrix` is the numeric twin of [`crate::DiGraph`]: the COO triples,
//! sorted and grouped by row, exactly as §4.1 of the paper describes the
//! conversion from COO storage to neighbour lists.  All CoSimRank
//! algorithms reduce to repeated sparse·dense products with `Q` and `Qᵀ`,
//! so those two kernels are the hot path of the whole workspace.
//!
//! Every *dense* inner loop here (the spmm row accumulation, the
//! transpose-scatter partial reduction) goes through
//! [`csrplus_linalg::vector`] — `axpy`/`norm2` — so the SIMD dispatch in
//! `csrplus_linalg::simd` is inherited without any `unsafe` in this
//! crate.  The loops that stay scalar are the indexed sparse
//! gather/scatter ones (`acc += v·x[j]`, `y[j] += v·x_i`): their access
//! pattern is data-dependent, so a fixed-stride vector kernel does not
//! apply.

use crate::error::GraphError;
use csrplus_linalg::{par_row_bands, vector, DenseMatrix, LinearOperator, MatViewMut};

/// Work floor (multiply-adds) per parallel chunk for the sparse kernels.
/// Chunk sizing depends only on the matrix shape and nnz — never on the
/// thread count — so sparse products are bitwise reproducible at any
/// parallelism (each chunk owns a disjoint slice of output rows).
const MIN_CHUNK_WORK: usize = 1 << 18;

/// Cap on partial buffers for the transpose-scatter kernels; bounds
/// scratch at `8 × cols` floats per output column.
const MAX_PARTIALS: usize = 8;

/// Rows×cols sparse matrix in CSR format (`f64` values, `u32` indices).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// `indptr[i]..indptr[i+1]` delimits row `i` in `indices`/`values`.
    indptr: Vec<usize>,
    /// Column indices, sorted within each row.
    indices: Vec<u32>,
    /// Non-zero values, parallel to `indices`.
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds from COO triples. Triples are sorted; duplicates are summed.
    ///
    /// # Errors
    /// [`GraphError::NodeOutOfBounds`] if an index exceeds the shape.
    pub fn from_coo(
        rows: usize,
        cols: usize,
        mut triples: Vec<(u32, u32, f64)>,
    ) -> Result<Self, GraphError> {
        for &(r, c, _) in &triples {
            if r as usize >= rows {
                return Err(GraphError::NodeOutOfBounds { node: r as u64, n: rows });
            }
            if c as usize >= cols {
                return Err(GraphError::NodeOutOfBounds { node: c as u64, n: cols });
            }
        }
        triples.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut indptr = vec![0usize; rows + 1];
        let mut indices: Vec<u32> = Vec::with_capacity(triples.len());
        let mut values: Vec<f64> = Vec::with_capacity(triples.len());
        let mut prev: Option<(u32, u32)> = None;
        for &(r, c, v) in &triples {
            if prev == Some((r, c)) {
                // Duplicate coordinate: sum, matching sparse(…) semantics.
                *values.last_mut().expect("duplicate implies non-empty") += v;
            } else {
                indices.push(c);
                values.push(v);
                indptr[r as usize + 1] += 1;
                prev = Some((r, c));
            }
        }
        for i in 1..=rows {
            indptr[i] += indptr[i - 1];
        }
        Ok(CsrMatrix { rows, cols, indptr, indices, values })
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

    /// Number of stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// `(column indices, values)` of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let lo = self.indptr[i];
        let hi = self.indptr[i + 1];
        (&self.indices[lo..hi], &self.values[lo..hi])
    }

    /// Value at `(i, j)` (binary search within the row; 0 if absent).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (idx, val) = self.row(i);
        match idx.binary_search(&(j as u32)) {
            Ok(p) => val[p],
            Err(_) => 0.0,
        }
    }

    /// Explicit transpose (CSC view of the same data, as a new CSR).
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for i in 1..=self.cols {
            counts[i] += counts[i - 1];
        }
        let indptr = counts.clone();
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        let mut next = counts;
        for r in 0..self.rows {
            let (idx, val) = self.row(r);
            for (&c, &v) in idx.iter().zip(val.iter()) {
                let p = next[c as usize];
                indices[p] = r as u32;
                values[p] = v;
                next[c as usize] += 1;
            }
        }
        CsrMatrix { rows: self.cols, cols: self.rows, indptr, indices, values }
    }

    /// Dense materialisation (test/diagnostic helper; small matrices only).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            let (idx, val) = self.row(i);
            for (&j, &v) in idx.iter().zip(val.iter()) {
                d.set(i, j as usize, d.get(i, j as usize) + v);
            }
        }
        d
    }

    /// Average non-zeros per row — the shape-only per-row work estimate
    /// used when sizing parallel chunks.
    fn mean_row_nnz(&self) -> usize {
        self.nnz().checked_div(self.rows).unwrap_or(1).max(1)
    }

    /// Sparse · vector: `y = A·x`, output rows distributed over the
    /// shared [`csrplus_par`] pool.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec: length mismatch");
        let mut y = vec![0.0; self.rows];
        let chunk_rows = csrplus_par::chunk_len(self.rows, self.mean_row_nnz(), MIN_CHUNK_WORK);
        csrplus_par::for_each_chunk_mut(&mut y, chunk_rows, csrplus_par::threads(), |ci, out| {
            let lo = ci * chunk_rows;
            for (off, yv) in out.iter_mut().enumerate() {
                let (idx, val) = self.row(lo + off);
                let mut acc = 0.0;
                for (&j, &v) in idx.iter().zip(val.iter()) {
                    acc += v * x[j as usize];
                }
                *yv = acc;
            }
        });
        y
    }

    /// Sparseᵀ · vector: `y = Aᵀ·x` (scatter over rows).
    ///
    /// The scatter accumulates into shared output columns, so the pool
    /// version splits the rows into shape-determined chunks, each
    /// scattering into a private partial, reduced serially in chunk
    /// order — the summation order is fixed regardless of thread count.
    pub fn matvec_transpose(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "matvec_transpose: length mismatch");
        let mut y = vec![0.0; self.cols];
        if self.rows == 0 || self.cols == 0 {
            return y;
        }
        let scatter = |y: &mut [f64], lo: usize, hi: usize| {
            for (i, &xi) in x[lo..hi].iter().enumerate() {
                if xi == 0.0 {
                    continue;
                }
                let (idx, val) = self.row(lo + i);
                for (&j, &v) in idx.iter().zip(val.iter()) {
                    y[j as usize] += v * xi;
                }
            }
        };
        let chunk_rows = csrplus_par::chunk_len(self.rows, self.mean_row_nnz(), MIN_CHUNK_WORK)
            .max(self.rows.div_ceil(MAX_PARTIALS));
        let n_chunks = csrplus_par::chunk_count(self.rows, chunk_rows);
        if n_chunks == 1 {
            scatter(&mut y, 0, self.rows);
            return y;
        }
        let (rows, cols) = (self.rows, self.cols);
        let mut partials = vec![0.0f64; n_chunks * cols];
        csrplus_par::for_each_chunk_mut(&mut partials, cols, csrplus_par::threads(), |ci, part| {
            let lo = ci * chunk_rows;
            scatter(part, lo, (lo + chunk_rows).min(rows));
        });
        for part in partials.chunks(cols) {
            vector::axpy(1.0, part, &mut y);
        }
        y
    }

    /// Sparse · dense block: `Y = A·X` (`X: cols×k`), output row chunks
    /// distributed over the shared persistent pool.
    pub fn matmul_dense(&self, x: &DenseMatrix) -> DenseMatrix {
        self.matmul_dense_with_threads(x, csrplus_par::threads())
    }

    /// Sparse · dense with an explicit parallelism cap (the public entry
    /// point uses the global limit; this exists so the pooled path is
    /// testable on single-core CI).  Chunk boundaries depend only on the
    /// matrix shape/nnz, so the product is bitwise identical at any cap.
    pub fn matmul_dense_with_threads(&self, x: &DenseMatrix, threads: usize) -> DenseMatrix {
        let mut y = DenseMatrix::zeros(self.rows, x.cols());
        self.matmul_dense_into(x, y.view_mut(), threads);
        y
    }

    /// Sparse · dense into a caller-provided destination: `Y = A·X`
    /// overwriting `y` (which may be any row-contiguous window, e.g. a
    /// column panel or row band of a larger buffer) without allocating.
    ///
    /// # Panics
    /// Panics on shape mismatch or a destination with `col_stride ≠ 1`.
    pub fn matmul_dense_into(&self, x: &DenseMatrix, y: MatViewMut<'_>, threads: usize) {
        assert_eq!(x.rows(), self.cols, "matmul_dense_into: shape mismatch");
        assert_eq!(y.shape(), (self.rows, x.cols()), "matmul_dense_into: destination shape");
        let k = x.cols();
        if self.rows == 0 || k == 0 {
            return;
        }
        let chunk_rows = csrplus_par::chunk_len(self.rows, self.mean_row_nnz() * k, MIN_CHUNK_WORK);
        par_row_bands(y, chunk_rows, threads, |lo, mut band| {
            for off in 0..band.rows() {
                let orow = band.row_slice_mut(off).expect("par_row_bands is row-contiguous");
                orow.fill(0.0);
                let (idx, val) = self.row(lo + off);
                for (&j, &v) in idx.iter().zip(val.iter()) {
                    vector::axpy(v, x.row(j as usize), orow);
                }
            }
        });
    }

    /// Sparseᵀ · dense block `Y = Aᵀ·X` (`X: rows×k`) into `y`, the block
    /// generalisation of [`Self::matvec_transpose`]: input rows are
    /// scattered into per-chunk partial blocks on the shared pool and
    /// reduced serially in chunk order, so the summation order (and hence
    /// every output bit) is independent of `threads`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    fn transpose_matmul_dense_into(&self, x: &DenseMatrix, y: &mut DenseMatrix, threads: usize) {
        assert_eq!(x.rows(), self.rows, "transpose_matmul_dense_into: shape mismatch");
        assert_eq!(
            y.shape(),
            (self.cols, x.cols()),
            "transpose_matmul_dense_into: destination shape"
        );
        let k = x.cols();
        y.as_mut_slice().fill(0.0);
        if self.rows == 0 || self.cols == 0 || k == 0 {
            return;
        }
        let scatter = |y: &mut [f64], lo: usize, hi: usize| {
            for i in lo..hi {
                let xrow = x.row(i);
                let (idx, val) = self.row(i);
                for (&j, &v) in idx.iter().zip(val.iter()) {
                    let j = j as usize;
                    vector::axpy(v, xrow, &mut y[j * k..(j + 1) * k]);
                }
            }
        };
        let chunk_rows = csrplus_par::chunk_len(self.rows, self.mean_row_nnz() * k, MIN_CHUNK_WORK)
            .max(self.rows.div_ceil(MAX_PARTIALS));
        let n_chunks = csrplus_par::chunk_count(self.rows, chunk_rows);
        if n_chunks == 1 {
            scatter(y.as_mut_slice(), 0, self.rows);
            return;
        }
        let rows = self.rows;
        let block = self.cols * k;
        let mut partials = vec![0.0f64; n_chunks * block];
        csrplus_par::for_each_chunk_mut(&mut partials, block, threads, |ci, part| {
            let lo = ci * chunk_rows;
            scatter(part, lo, (lo + chunk_rows).min(rows));
        });
        for part in partials.chunks(block) {
            vector::axpy(1.0, part, y.as_mut_slice());
        }
    }

    /// Dense · sparse product `Y = X·A` (`X: k×rows`), the row-major way
    /// to express `(Aᵀ·Xᵀ)ᵀ` without materialising either transpose: row
    /// `i` of `Y` is `Σ_j X[i,j]·A.row(j)`, so each output row is an
    /// independent sparse accumulation and the kernel parallelises over
    /// `X`'s rows with shape-only chunking (bitwise reproducible).
    pub fn left_matmul_dense(&self, x: &DenseMatrix) -> DenseMatrix {
        let mut y = DenseMatrix::zeros(x.rows(), self.cols);
        self.left_matmul_dense_into(x, y.view_mut(), csrplus_par::threads());
        y
    }

    /// [`Self::left_matmul_dense`] into a caller-provided destination view.
    ///
    /// # Panics
    /// Panics on shape mismatch or a destination with `col_stride ≠ 1`.
    pub fn left_matmul_dense_into(&self, x: &DenseMatrix, y: MatViewMut<'_>, threads: usize) {
        assert_eq!(x.cols(), self.rows, "left_matmul_dense_into: shape mismatch");
        assert_eq!(y.shape(), (x.rows(), self.cols), "left_matmul_dense_into: destination shape");
        if x.rows() == 0 || self.cols == 0 {
            return;
        }
        // Per output row: nnz scatter over the whole matrix.
        let chunk_rows = csrplus_par::chunk_len(x.rows(), self.nnz().max(1), MIN_CHUNK_WORK);
        par_row_bands(y, chunk_rows, threads, |lo, mut band| {
            for off in 0..band.rows() {
                let orow = band.row_slice_mut(off).expect("par_row_bands is row-contiguous");
                orow.fill(0.0);
                for (j, &xv) in x.row(lo + off).iter().enumerate() {
                    if xv == 0.0 {
                        continue;
                    }
                    let (idx, val) = self.row(j);
                    for (&c, &v) in idx.iter().zip(val.iter()) {
                        orow[c as usize] += xv * v;
                    }
                }
            }
        });
    }

    /// Reference serial kernel kept for the parallel-equivalence tests.
    #[cfg(test)]
    fn spmm_rows(&self, x: &DenseMatrix, y: &mut DenseMatrix, lo: usize, hi: usize) {
        let k = x.cols();
        for i in lo..hi {
            let (idx, val) = self.row(i);
            let orow = &mut y.as_mut_slice()[i * k..(i + 1) * k];
            for (&j, &v) in idx.iter().zip(val.iter()) {
                vector::axpy(v, x.row(j as usize), orow);
            }
        }
    }

    /// Frobenius norm of the stored values.
    pub fn frobenius_norm(&self) -> f64 {
        vector::norm2(&self.values)
    }

    /// Estimated heap footprint in bytes (for the memory model).
    pub fn heap_bytes(&self) -> usize {
        self.indptr.capacity() * std::mem::size_of::<usize>()
            + self.indices.capacity() * std::mem::size_of::<u32>()
            + self.values.capacity() * std::mem::size_of::<f64>()
    }
}

impl LinearOperator for CsrMatrix {
    fn nrows(&self) -> usize {
        self.rows
    }

    fn ncols(&self) -> usize {
        self.cols
    }

    fn apply(&self, x: &DenseMatrix) -> DenseMatrix {
        self.matmul_dense(x)
    }

    fn apply_transpose(&self, x: &DenseMatrix) -> DenseMatrix {
        // Gather via the explicit transpose would cost a rebuild per
        // call; the transpose-scatter kernel parallelises over row chunks
        // with chunk-ordered partial reduction instead.
        let mut y = DenseMatrix::zeros(self.cols, x.cols());
        self.transpose_matmul_dense_into(x, &mut y, csrplus_par::threads());
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small() -> CsrMatrix {
        // [[0, 2, 0], [1, 0, 3]]
        CsrMatrix::from_coo(2, 3, vec![(0, 1, 2.0), (1, 0, 1.0), (1, 2, 3.0)]).unwrap()
    }

    #[test]
    fn from_coo_and_get() {
        let a = small();
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.get(0, 1), 2.0);
        assert_eq!(a.get(0, 0), 0.0);
        assert_eq!(a.get(1, 2), 3.0);
    }

    #[test]
    fn from_coo_sums_duplicates() {
        let a = CsrMatrix::from_coo(2, 2, vec![(0, 0, 1.0), (0, 0, 2.5), (1, 1, 1.0)]).unwrap();
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.get(0, 0), 3.5);
    }

    #[test]
    fn from_coo_rejects_out_of_bounds() {
        assert!(CsrMatrix::from_coo(2, 2, vec![(2, 0, 1.0)]).is_err());
        assert!(CsrMatrix::from_coo(2, 2, vec![(0, 2, 1.0)]).is_err());
    }

    #[test]
    fn empty_rows_handled() {
        let a = CsrMatrix::from_coo(4, 4, vec![(2, 1, 7.0)]).unwrap();
        assert_eq!(a.row(0).0.len(), 0);
        assert_eq!(a.row(2).0, &[1]);
        assert_eq!(a.get(2, 1), 7.0);
        let d = a.to_dense();
        assert_eq!(d.get(2, 1), 7.0);
    }

    #[test]
    fn matvec_matches_dense() {
        let a = small();
        let x = [1.0, 2.0, 3.0];
        let y = a.matvec(&x);
        assert_eq!(y, vec![4.0, 10.0]);
        let yt = a.matvec_transpose(&[1.0, 1.0]);
        assert_eq!(yt, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn transpose_round_trip_and_values() {
        let a = small();
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(1, 0), 2.0);
        assert_eq!(t.get(2, 1), 3.0);
        let tt = t.transpose();
        assert_eq!(tt, a);
    }

    fn random_sparse(rows: usize, cols: usize, nnz: usize, seed: u64) -> CsrMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let triples: Vec<(u32, u32, f64)> = (0..nnz)
            .map(|_| {
                (
                    rng.gen_range(0..rows as u32),
                    rng.gen_range(0..cols as u32),
                    rng.gen_range(-1.0..1.0),
                )
            })
            .collect();
        CsrMatrix::from_coo(rows, cols, triples).unwrap()
    }

    #[test]
    fn spmm_matches_dense_matmul() {
        let a = random_sparse(30, 20, 150, 42);
        let mut rng = StdRng::seed_from_u64(43);
        let x = DenseMatrix::random_gaussian(20, 7, &mut rng);
        let fast = a.matmul_dense(&x);
        let slow = a.to_dense().matmul(&x).unwrap();
        assert!(fast.approx_eq(&slow, 1e-12));
    }

    #[test]
    fn spmm_transpose_matches_dense() {
        let a = random_sparse(30, 20, 150, 44);
        let mut rng = StdRng::seed_from_u64(45);
        let x = DenseMatrix::random_gaussian(30, 5, &mut rng);
        let fast = a.apply_transpose(&x);
        let slow = a.to_dense().transpose().matmul(&x).unwrap();
        assert!(fast.approx_eq(&slow, 1e-12));
    }

    #[test]
    fn left_matmul_matches_dense_reference() {
        let a = random_sparse(30, 20, 150, 52);
        let mut rng = StdRng::seed_from_u64(53);
        let x = DenseMatrix::random_gaussian(9, 30, &mut rng);
        let fast = a.left_matmul_dense(&x);
        let slow = x.matmul(&a.to_dense()).unwrap();
        assert!(fast.approx_eq(&slow, 1e-12));
        // Pooled path bitwise-matches the serial one at every cap.
        let mut serial = DenseMatrix::zeros(9, 20);
        a.left_matmul_dense_into(&x, serial.view_mut(), 1);
        for threads in [2usize, 4, 8] {
            let mut y = DenseMatrix::zeros(9, 20);
            a.left_matmul_dense_into(&x, y.view_mut(), threads);
            assert_eq!(y.as_slice(), serial.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn spmm_into_sub_block_leaves_rest_untouched() {
        let a = random_sparse(6, 5, 18, 54);
        let mut rng = StdRng::seed_from_u64(55);
        let x = DenseMatrix::random_gaussian(5, 3, &mut rng);
        let want = a.matmul_dense(&x);
        // Write into columns 2..5 of a wider 6×8 buffer.
        let mut big = DenseMatrix::from_fn(6, 8, |_, _| -3.0);
        a.matmul_dense_into(&x, big.view_mut().block(0, 6, 2, 5), 4);
        for i in 0..6 {
            for j in 0..8 {
                if (2..5).contains(&j) {
                    assert!((big.get(i, j) - want.get(i, j - 2)).abs() < 1e-14);
                } else {
                    assert_eq!(big.get(i, j), -3.0, "({i},{j}) trampled");
                }
            }
        }
    }

    #[test]
    fn parallel_spmm_matches_serial() {
        // Force the threaded path explicitly — `available_parallelism`
        // may be 1 on CI, which would otherwise leave it untested.
        let a = random_sparse(2000, 2000, 120_000, 46);
        let mut rng = StdRng::seed_from_u64(47);
        let x = DenseMatrix::random_gaussian(2000, 8, &mut rng);
        let mut serial = DenseMatrix::zeros(2000, 8);
        a.spmm_rows(&x, &mut serial, 0, 2000);
        for threads in [2usize, 3, 7, 16] {
            let y = a.matmul_dense_with_threads(&x, threads);
            assert!(y.approx_eq(&serial, 1e-12), "threads={threads}");
        }
        // And the auto-selected path agrees too.
        assert!(a.matmul_dense(&x).approx_eq(&serial, 1e-12));
    }

    #[test]
    fn pooled_spmm_bitwise_identical_across_caps() {
        let a = random_sparse(2000, 2000, 120_000, 49);
        let mut rng = StdRng::seed_from_u64(50);
        let x = DenseMatrix::random_gaussian(2000, 8, &mut rng);
        let serial = a.matmul_dense_with_threads(&x, 1);
        for threads in [2usize, 4, 8] {
            let y = a.matmul_dense_with_threads(&x, threads);
            assert_eq!(y.as_slice(), serial.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn sparse_matvec_kernels_match_reference() {
        // The pooled matvec / partial-reduced matvec_transpose must agree
        // with a plain serial loop (values, not just approximately).
        let a = random_sparse(3000, 1500, 90_000, 51);
        let x: Vec<f64> = (0..1500).map(|i| (i as f64 * 0.37).cos()).collect();
        let y = a.matvec(&x);
        for (i, yv) in y.iter().enumerate() {
            let (idx, val) = a.row(i);
            let want: f64 = idx.iter().zip(val).map(|(&j, &v)| v * x[j as usize]).sum();
            assert!((yv - want).abs() < 1e-12, "row {i}");
        }
        let xt: Vec<f64> = (0..3000).map(|i| (i as f64 * 0.11).sin()).collect();
        let yt = a.matvec_transpose(&xt);
        let mut want = vec![0.0; 1500];
        for (i, &xi) in xt.iter().enumerate() {
            let (idx, val) = a.row(i);
            for (&j, &v) in idx.iter().zip(val.iter()) {
                want[j as usize] += v * xi;
            }
        }
        for (got, w) in yt.iter().zip(want.iter()) {
            assert!((got - w).abs() < 1e-10);
        }
    }

    #[test]
    fn threaded_path_handles_uneven_chunks_and_empty_rows() {
        // Rows not divisible by thread count + empty rows at both ends.
        let a =
            CsrMatrix::from_coo(7, 5, vec![(1, 0, 2.0), (1, 4, -1.0), (3, 2, 0.5), (5, 1, 3.0)])
                .unwrap();
        let mut rng = StdRng::seed_from_u64(48);
        let x = DenseMatrix::random_gaussian(5, 3, &mut rng);
        let mut serial = DenseMatrix::zeros(7, 3);
        a.spmm_rows(&x, &mut serial, 0, 7);
        for threads in [2usize, 3, 4, 7, 9] {
            let y = a.matmul_dense_with_threads(&x, threads);
            assert!(y.approx_eq(&serial, 1e-14), "threads={threads}");
        }
    }

    #[test]
    fn spmm_transpose_matches_dense_reference() {
        let a = random_sparse(60, 45, 500, 21);
        let mut rng = StdRng::seed_from_u64(22);
        let x = DenseMatrix::random_gaussian(60, 5, &mut rng);
        let fast = a.apply_transpose(&x);
        let slow = a.to_dense().transpose().matmul(&x).unwrap();
        assert!(fast.approx_eq(&slow, 1e-12));
    }

    #[test]
    fn spmm_transpose_bitwise_identical_at_caps_1_and_4() {
        let a = random_sparse(1500, 1100, 60_000, 23);
        let mut rng = StdRng::seed_from_u64(24);
        let x = DenseMatrix::random_gaussian(1500, 6, &mut rng);
        let mut serial = DenseMatrix::zeros(1100, 6);
        a.transpose_matmul_dense_into(&x, &mut serial, 1);
        for threads in [1usize, 4] {
            let mut y = DenseMatrix::zeros(1100, 6);
            a.transpose_matmul_dense_into(&x, &mut y, threads);
            assert_eq!(y.as_slice(), serial.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn spmm_bitwise_identical_across_thread_caps() {
        let a = random_sparse(1200, 1200, 40_000, 13);
        let mut rng = StdRng::seed_from_u64(14);
        let x = DenseMatrix::random_gaussian(1200, 8, &mut rng);
        let mut serial = DenseMatrix::zeros(1200, 8);
        a.matmul_dense_into(&x, serial.view_mut(), 1);
        for threads in [2usize, 4, 8] {
            let mut y = DenseMatrix::zeros(1200, 8);
            a.matmul_dense_into(&x, y.view_mut(), threads);
            assert_eq!(y.as_slice(), serial.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn linear_operator_dims() {
        let a = small();
        assert_eq!(LinearOperator::nrows(&a), 2);
        assert_eq!(LinearOperator::ncols(&a), 3);
    }

    #[test]
    fn matvec_agrees_with_transpose_of_transpose() {
        let a = random_sparse(25, 40, 200, 48);
        let x: Vec<f64> = (0..40).map(|i| (i as f64).sin()).collect();
        let y1 = a.matvec(&x);
        let y2 = a.transpose().matvec_transpose(&x);
        for (u, v) in y1.iter().zip(y2.iter()) {
            assert!((u - v).abs() < 1e-12);
        }
    }
}
