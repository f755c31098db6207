//! The CSR+ model: precomputation (Algorithm 1 lines 1–6) and online
//! multi-source queries (line 7).

use crate::config::CsrPlusConfig;
use crate::error::CoSimRankError;
use crate::factor::{DenseMatrixF32, Factor, FactorView};
use crate::precision::Precision;
use crate::topk::top_k_from_column;
use csrplus_graph::partition::Reordering;
use csrplus_graph::TransitionMatrix;
use csrplus_linalg::randomized::randomized_svd;
use csrplus_linalg::DenseMatrix;
use csrplus_memtrack::MemoryBudget;
use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

/// Work floor per parallel chunk for the cheap per-node online sweeps
/// (norm tables, column gathers).  Chunk boundaries depend only on `n`
/// and the per-node work, never on the thread count, so the online layer
/// stays bitwise reproducible at any parallelism.
const MIN_ONLINE_WORK: usize = 1 << 16;

/// Wall-clock breakdown of one precomputation (Algorithm 1 lines 1–6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrecomputeStats {
    /// Line 2: the truncated SVD — the dominant term, `O(mr)`-ish.
    pub svd: Duration,
    /// Lines 3–5: `H₀` and the repeated-squaring fixed point, `O(nr²+r³)`.
    pub subspace: Duration,
    /// Line 6: `Z = U(ΣPΣ)`, `O(nr²)`.
    pub memoise: Duration,
    /// Squaring iterations actually run.
    pub squaring_iterations: usize,
}

impl PrecomputeStats {
    /// Total preprocessing wall-clock.
    pub fn total(&self) -> Duration {
        self.svd + self.subspace + self.memoise
    }
}

/// The node permutation a reordered model carries: the factors' rows
/// live in *internal* (reordered) id space, and every public query entry
/// point translates between original node ids and internal rows through
/// this map, so callers never observe the reordering.
///
/// Persisted as the `perm`/`perm.meta` sections of CSRP v2 artifacts.
#[derive(Debug, Clone)]
pub struct ModelPermutation {
    /// Scatter map `order[internal] = original`.
    order: Vec<u32>,
    /// Gather map `rank[original] = internal`.
    rank: Vec<u32>,
    /// The reordering strategy that produced the map.
    kind: Reordering,
}

impl ModelPermutation {
    /// The scatter map `order[internal] = original`.
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// The reordering strategy that produced the map.
    pub fn kind(&self) -> Reordering {
        self.kind
    }
}

/// One evaluation plan for the online phase (Algorithm 1 line 7),
/// `[S]_{*,Q} = [Iₙ]_{*,Q} + c·Z·[U]_{Q,*}ᵀ`: which source columns, which
/// rows, and how many factor columns.  [`Query::new`] is the plain
/// multi-source query — every row, full rank.
///
/// Evaluated by [`CsrPlusModel::evaluate_into`] (one block) and
/// [`CsrPlusModel::columns_into`] (one owned column per source).
#[derive(Debug, Clone)]
pub struct Query<'a> {
    /// The query set `Q` as original node ids; result column `j` answers
    /// `sources[j]`.
    pub sources: &'a [usize],
    /// `None`: all `n` rows in original-id order.  `Some(lo..hi)`: the
    /// *internal* (reordered) rows `lo..hi` only — the slice a shard
    /// owns.  Each entry is the same independent dot product the full
    /// evaluation computes, so the slices of a partition of `0..n`
    /// concatenate bitwise into the full answer in internal order.
    pub rows: Option<Range<usize>>,
    /// `None`: full rank.  `Some(t)`: only the leading `t.clamp(1, r)`
    /// factor columns, `[S]_{*,Q} ≈ [Iₙ]_{*,Q} + c·[Z]_{*,..t}·[U]_{Q,..t}ᵀ`.
    /// Dropping trailing coordinates drops the smallest-σ directions of
    /// the subspace — the same tolerance the random-projection CoSimRank
    /// line exploits — so a pressured server can serve a cheaper
    /// truncated answer instead of shedding.  At `t ≥ r` the plan routes
    /// through exactly the full-rank views and is bitwise identical to
    /// `None`.
    pub rank: Option<usize>,
}

impl<'a> Query<'a> {
    /// Every row of `[S]_{*,sources}` at full rank.
    pub fn new(sources: &'a [usize]) -> Self {
        Query { sources, rows: None, rank: None }
    }
}

/// The memoised state of Algorithm 1 after precomputation.
///
/// Holds only `O(rn)` data: the left singular block `U` (`n×r`) and
/// `Z = U(ΣPΣ)` (`n×r`), plus the `r×r` diagnostics (`P`, `H₀`, `Σ`).
///
/// A model precomputed over a reordered graph additionally carries a
/// [`ModelPermutation`]; see [`CsrPlusModel::with_permutation`].
#[derive(Debug, Clone)]
pub struct CsrPlusModel {
    config: CsrPlusConfig,
    n: usize,
    /// Left singular vectors of `Q` (`n × r`) — owned or mapped.
    u: Factor,
    /// `Z = U·(Σ P Σ)` (`n × r`), memoised for the query phase —
    /// owned or mapped.
    z: Factor,
    /// Singular values of `Q` (length `r`).
    sigma: Vec<f64>,
    /// Fixed point of `P = cHPHᵀ + I_r` (diagnostic / ablation access).
    p: DenseMatrix,
    /// `H₀ = VᵀUΣ` (diagnostic / ablation access).
    h0: DenseMatrix,
    /// `Some` when the factor rows are a reordering of the original node
    /// ids; `None` is the identity fast path (byte-for-byte the
    /// historical behaviour).
    perm: Option<Arc<ModelPermutation>>,
}

impl CsrPlusModel {
    /// Runs the precomputation phase (Algorithm 1 lines 1–6) over the
    /// column-normalised transition matrix.
    ///
    /// ```
    /// use csrplus_core::{CsrPlusConfig, CsrPlusModel};
    /// use csrplus_graph::{generators::figure1_graph, TransitionMatrix};
    ///
    /// let t = TransitionMatrix::from_graph(&figure1_graph());
    /// let model = CsrPlusModel::precompute(&t, &CsrPlusConfig::with_rank(3))?;
    /// let s = model.multi_source(&[1, 3])?; // queries {b, d}
    /// assert_eq!(s.shape(), (6, 2));
    /// # Ok::<(), csrplus_core::CoSimRankError>(())
    /// ```
    ///
    /// # Errors
    /// Propagates configuration and SVD failures.
    pub fn precompute(
        t: &TransitionMatrix,
        config: &CsrPlusConfig,
    ) -> Result<Self, CoSimRankError> {
        Ok(Self::precompute_with_stats(t, config)?.0)
    }

    /// [`CsrPlusModel::precompute`] with a wall-clock breakdown per phase
    /// (the per-line costs of Theorem 3.7's table, measured).
    pub fn precompute_with_stats(
        t: &TransitionMatrix,
        config: &CsrPlusConfig,
    ) -> Result<(Self, PrecomputeStats), CoSimRankError> {
        let n = t.n();
        config.validate(n)?;

        // Line 2: decompose Q at rank r, then run lines 3–6.
        let t0 = std::time::Instant::now();
        let svd = match config.backend {
            crate::config::SvdBackend::Randomized => randomized_svd(t, &config.svd_config())?,
            crate::config::SvdBackend::Lanczos => {
                csrplus_linalg::lanczos::lanczos_svd(t, &config.lanczos_config())?
            }
        };
        let svd_time = t0.elapsed();
        let (model, mut stats) = Self::from_svd_with_stats(config, &svd)?;
        stats.svd = svd_time;
        Ok((model, stats))
    }

    /// Builds the memoised state (Algorithm 1 lines 3–6) from an existing
    /// truncated SVD of `Q` in the *standard* convention `Q ≈ UΣVᵀ`.
    ///
    /// NB: the paper's Eqs. (6a)/(6b) and its worked example are
    /// consistent only with the convention `Q = VΣUᵀ` (its "U" is the
    /// *right* singular block of `Q`; compare Example 3.6, where the
    /// printed `Vᵀ` has `e_d` as its first row — the left singular vector
    /// of the three identical columns of `Q`).  The factors of the
    /// standard SVD are therefore swapped here.
    ///
    /// This entry point also powers [`crate::dynamic`], which maintains
    /// the SVD incrementally under edge updates.
    pub fn from_svd(
        config: &CsrPlusConfig,
        svd: &csrplus_linalg::TruncatedSvd,
    ) -> Result<Self, CoSimRankError> {
        Ok(Self::from_svd_with_stats(config, svd)?.0)
    }

    /// [`CsrPlusModel::from_svd`] with per-phase timing (SVD time is left
    /// zero — the caller owns that phase).
    pub fn from_svd_with_stats(
        config: &CsrPlusConfig,
        svd: &csrplus_linalg::TruncatedSvd,
    ) -> Result<(Self, PrecomputeStats), CoSimRankError> {
        let n = svd.u.rows();
        let u = svd.v.clone();
        let v = svd.u.clone();
        let sigma = svd.sigma.clone();

        // Line 3: H₀ = Vᵀ U Σ = (VᵀU)·Σ — scaling the r×r product by Σ
        // on the right instead of materialising the n×r `UΣ` intermediate.
        let t1 = std::time::Instant::now();
        let mut h0 = v.matmul_transpose_a(&u)?;
        h0.scale_columns_mut(&sigma);

        // Lines 4–5: repeated squaring for P = c·H P Hᵀ + I_r.
        let iterations = config.squaring_iterations();
        let p = solve_subspace_fixed_point(&h0, config.damping, iterations)?;
        let subspace = t1.elapsed();

        // Line 6: Z = U (Σ P Σ), the diagonal scalings applied in place on
        // a single r×r copy.
        let t2 = std::time::Instant::now();
        let mut sps = p.clone();
        sps.scale_rows_mut(&sigma);
        sps.scale_columns_mut(&sigma);
        let z = u.matmul(&sps)?;
        // Storage demotion happens here, *after* the full-precision
        // computation.
        let (u, z) = match config.precision {
            Precision::F64 => (Factor::from(u), Factor::from(z)),
            Precision::F32 => (
                Factor::from(DenseMatrixF32::from_f64(&u)),
                Factor::from(DenseMatrixF32::from_f64(&z)),
            ),
        };
        let memoise = t2.elapsed();

        let stats = PrecomputeStats {
            svd: Duration::ZERO,
            subspace,
            memoise,
            squaring_iterations: iterations,
        };
        Ok((CsrPlusModel { config: *config, n, u, z, sigma, p, h0, perm: None }, stats))
    }

    /// Reassembles a model from previously memoised parts (used by
    /// [`crate::persist`] when loading from disk).
    ///
    /// # Errors
    /// [`CoSimRankError::InvalidConfig`] when the shapes are inconsistent.
    pub fn from_parts(
        config: CsrPlusConfig,
        n: usize,
        u: DenseMatrix,
        z: DenseMatrix,
        sigma: Vec<f64>,
        p: DenseMatrix,
        h0: DenseMatrix,
    ) -> Result<Self, CoSimRankError> {
        Self::from_factors(config, n, Factor::from(u), Factor::from(z), sigma, p, h0)
    }

    /// [`CsrPlusModel::from_parts`] over [`Factor`] storage (owned or
    /// mapped).  Nothing here reads a row of `U` or `Z`, so a mapped model
    /// (the artifact load path) materialises no factor pages until the
    /// first query.
    ///
    /// # Errors
    /// [`CoSimRankError::InvalidConfig`] when the shapes are inconsistent
    /// or `U`/`Z` are not stored at `config.precision`.
    pub fn from_factors(
        config: CsrPlusConfig,
        n: usize,
        u: Factor,
        z: Factor,
        sigma: Vec<f64>,
        p: DenseMatrix,
        h0: DenseMatrix,
    ) -> Result<Self, CoSimRankError> {
        let r = sigma.len();
        let bad = |what: &str| CoSimRankError::InvalidConfig {
            message: format!("from_parts: inconsistent {what}"),
        };
        if u.shape() != (n, r) || z.shape() != (n, r) {
            return Err(bad("U/Z shapes"));
        }
        if u.precision() != config.precision || z.precision() != config.precision {
            return Err(bad("U/Z precision"));
        }
        if p.shape() != (r, r) || h0.shape() != (r, r) {
            return Err(bad("P/H₀ shapes"));
        }
        config.validate(n.max(1))?;
        Ok(CsrPlusModel { config, n, u, z, sigma, p, h0, perm: None })
    }

    /// Attaches the node permutation under which this model's factors
    /// were precomputed: `order[internal] = original`.  Queries keep
    /// using original node ids and results come back in original ids —
    /// the translation happens inside the model.  An identity `order`
    /// leaves the model permutation-free (the fast path).
    ///
    /// # Errors
    /// [`CoSimRankError::InvalidConfig`] when `order` is not a
    /// permutation of `0..n`.
    pub fn with_permutation(
        mut self,
        order: Vec<u32>,
        kind: Reordering,
    ) -> Result<Self, CoSimRankError> {
        if order.len() != self.n {
            return Err(CoSimRankError::InvalidConfig {
                message: format!(
                    "permutation length {} does not match n = {}",
                    order.len(),
                    self.n
                ),
            });
        }
        let mut rank = vec![u32::MAX; self.n];
        for (new, &old) in order.iter().enumerate() {
            if old as usize >= self.n || rank[old as usize] != u32::MAX {
                return Err(CoSimRankError::InvalidConfig {
                    message: format!("permutation is not a bijection on 0..{}", self.n),
                });
            }
            rank[old as usize] = new as u32;
        }
        let identity = order.iter().enumerate().all(|(new, &old)| new as u32 == old);
        self.perm =
            if identity { None } else { Some(Arc::new(ModelPermutation { order, rank, kind })) };
        Ok(self)
    }

    /// The attached node permutation, if the model is reordered.
    pub fn permutation(&self) -> Option<&ModelPermutation> {
        self.perm.as_deref()
    }

    /// Maps an original node id to its internal factor row.
    #[inline]
    pub fn internal_row(&self, node: usize) -> usize {
        match &self.perm {
            Some(p) => p.rank[node] as usize,
            None => node,
        }
    }

    /// Maps an internal factor row back to its original node id.
    #[inline]
    pub fn original_id(&self, row: usize) -> usize {
        match &self.perm {
            Some(p) => p.order[row] as usize,
            None => row,
        }
    }

    /// True when any factor borrows mapped (page-cache) storage.
    pub fn is_mapped(&self) -> bool {
        self.u.is_mapped() || self.z.is_mapped()
    }

    /// Storage precision of the dense factors (`U` and `Z` always agree).
    pub fn precision(&self) -> Precision {
        self.config.precision
    }

    /// Graph size `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The configuration used to build this model.
    pub fn config(&self) -> &CsrPlusConfig {
        &self.config
    }

    /// Effective rank (may be below the requested rank if the spectrum
    /// truncated earlier).
    pub fn rank(&self) -> usize {
        self.sigma.len()
    }

    /// Singular values of the truncated SVD.
    pub fn sigma(&self) -> &[f64] {
        &self.sigma
    }

    /// The `n×r` left singular block `U` (owned or mapped).
    pub fn u(&self) -> &Factor {
        &self.u
    }

    /// The memoised `n×r` matrix `Z = U(ΣPΣ)` (owned or mapped).
    pub fn z(&self) -> &Factor {
        &self.z
    }

    /// The `r×r` subspace fixed point `P` (diagnostics/ablations).
    pub fn p(&self) -> &DenseMatrix {
        &self.p
    }

    /// `H₀ = VᵀUΣ` (diagnostics/ablations).
    pub fn h0(&self) -> &DenseMatrix {
        &self.h0
    }

    /// Online multi-source query (Algorithm 1 line 7):
    /// `[S]_{*,Q} = [Iₙ]_{*,Q} + c·Z·[U]_{Q,*}ᵀ`.
    ///
    /// Returns an `n × |Q|` matrix whose column `j` is the similarity of
    /// every node to `queries[j]`.
    ///
    /// # Errors
    /// [`CoSimRankError::QueryOutOfBounds`] on an invalid node id.
    pub fn multi_source(&self, queries: &[usize]) -> Result<DenseMatrix, CoSimRankError> {
        let mut s = DenseMatrix::zeros(0, 0);
        self.evaluate_into(&Query::new(queries), &mut s)?;
        Ok(s)
    }

    /// Evaluates `query` as one block written into `out`, which is resized
    /// to `rows × |Q|` reusing its existing allocation when capacity
    /// suffices — the steady-state query path allocates nothing for the
    /// result block.
    ///
    /// With `rows: None` row `i` is original node `i`; with
    /// `Some(lo..hi)` row `i` is internal row `lo + i` (translate with
    /// [`CsrPlusModel::original_id`]).  Concatenating the blocks of a
    /// partition of `0..n` and scattering rows through the permutation
    /// reproduces the full block bitwise.
    ///
    /// # Errors
    /// [`CoSimRankError::QueryOutOfBounds`] on an invalid node id,
    /// [`CoSimRankError::InvalidConfig`] on an invalid row range.
    pub fn evaluate_into(
        &self,
        query: &Query,
        out: &mut DenseMatrix,
    ) -> Result<(), CoSimRankError> {
        let (internal, rows) = self.plan(query)?;
        let Some(p) = self.perm.as_ref().filter(|_| query.rows.is_none()) else {
            return self.evaluate_internal(&internal, rows, query.rank, out);
        };
        // Evaluate in internal row order, then scatter each row to its
        // original id — a pure reordering of bitwise untouched values.
        let mut block = DenseMatrix::zeros(0, 0);
        self.evaluate_internal(&internal, rows, query.rank, &mut block)?;
        let w = query.sources.len();
        out.resize_for_overwrite(self.n, w);
        let dst = out.as_mut_slice();
        for (i, &orig) in p.order.iter().enumerate() {
            dst[orig as usize * w..(orig as usize + 1) * w].copy_from_slice(block.row(i));
        }
        Ok(())
    }

    /// Evaluates `query` through a caller-owned `scratch` block and
    /// returns one owned column per source: column `j` is
    /// `[S]_{*,sources[j]}` over the plan's rows, bitwise equal to column
    /// `j` of [`CsrPlusModel::evaluate_into`].  The block is written into
    /// `scratch` (resized in place, reusing its allocation) and only the
    /// output columns are freshly allocated — they are handed off to
    /// waiting requests, so they cannot be pooled here.  The serving
    /// batcher keeps one scratch per worker and calls this in its steady
    /// state.
    ///
    /// # Errors
    /// [`CoSimRankError::QueryOutOfBounds`] on an invalid node id,
    /// [`CoSimRankError::InvalidConfig`] on an invalid row range.
    pub fn columns_into(
        &self,
        query: &Query,
        scratch: &mut DenseMatrix,
    ) -> Result<Vec<Vec<f64>>, CoSimRankError> {
        let (internal, rows) = self.plan(query)?;
        let len = rows.len();
        self.evaluate_internal(&internal, rows, query.rank, scratch)?;
        let w = query.sources.len();
        match self.perm.as_ref().filter(|_| query.rows.is_none()) {
            // Gather columns scattering each internal row to its original
            // id in one pass (no row-scatter intermediate).
            Some(p) => Self::gather_columns(scratch, len, w, Some(&p.order)),
            // |Q| = 1: the rows × 1 result block already is the column.
            None if w == 1 => Ok(vec![scratch.as_slice().to_vec()]),
            None => Self::gather_columns(scratch, len, w, None),
        }
    }

    /// Validates a plan — the row range, then every source node — and
    /// maps the sources to internal factor rows.  For permutation-free
    /// models the mapping is the identity and the input slice is borrowed
    /// back allocation-free: the steady-state query path must not pay for
    /// a feature it does not use.
    fn plan<'q>(
        &self,
        query: &Query<'q>,
    ) -> Result<(Cow<'q, [usize]>, Range<usize>), CoSimRankError> {
        let rows = query.rows.clone().unwrap_or(0..self.n);
        if rows.start > rows.end || rows.end > self.n {
            return Err(CoSimRankError::InvalidConfig {
                message: format!(
                    "row range {}..{} invalid for n = {}",
                    rows.start, rows.end, self.n
                ),
            });
        }
        if let Some(&node) = query.sources.iter().find(|&&q| q >= self.n) {
            return Err(CoSimRankError::QueryOutOfBounds { node, n: self.n });
        }
        let internal = match &self.perm {
            None => Cow::Borrowed(query.sources),
            Some(_) => query.sources.iter().map(|&q| self.internal_row(q)).collect(),
        };
        Ok((internal, rows))
    }

    /// The shared evaluation core: internal rows `rows` of
    /// `[S]_{*,Q} = [Iₙ]_{*,Q} + c·Z·[U]_{Q,*}ᵀ` for already-translated
    /// internal query rows, written to a `rows.len() × |Q|` block, using
    /// only the leading `rank.clamp(1, r)` factor columns (all of them
    /// for `None`).
    ///
    /// Every output element is an independent row·row dot product in the
    /// dispatched kernel, so a range evaluation is bitwise identical to
    /// the same rows of the full evaluation — the property that lets a
    /// shard coordinator reassemble exactly the single-process answer.
    /// Truncation is a column sub-block of the very same views (`t = r`
    /// is the identity block), so the full-rank path is untouched.
    fn evaluate_internal(
        &self,
        internal: &[usize],
        rows: Range<usize>,
        rank: Option<usize>,
        out: &mut DenseMatrix,
    ) -> Result<(), CoSimRankError> {
        let (lo, hi) = (rows.start, rows.end);
        debug_assert!(lo <= hi && hi <= self.n);
        let uq = self.u.select_rows(internal); // |Q| × r, same precision as U
                                               // The kernels below overwrite every element of the result block,
                                               // so the warm scratch skips the O(n·|Q|) zeroing memset that made
                                               // the view path trail the owned path on wide batches.
        out.resize_for_overwrite(hi - lo, internal.len());
        // S = Z·[U]_Qᵀ expressed by view transposition — the same pooled
        // kernel (and bits) as the owned transpose-b product.  f32-stored
        // factors take the mixed kernel (f64 accumulation).
        let r = self.rank();
        let t = rank.unwrap_or(r).clamp(1, r.max(1)).min(r);
        let q = internal.len();
        match (self.z.factor_view(), uq.factor_view()) {
            (FactorView::F64(z), FactorView::F64(u)) => csrplus_linalg::matmul_into(
                z.block(lo, hi, 0, t),
                u.block(0, q, 0, t).t(),
                out.view_mut(),
                csrplus_par::threads(),
            )?,
            (FactorView::F32(z), FactorView::F32(u)) => csrplus_linalg::matmul_into_mixed(
                z.block(lo, hi, 0, t),
                u.block(0, q, 0, t).t(),
                out.view_mut(),
                csrplus_par::threads(),
            )?,
            _ => unreachable!("U and Z always share one storage precision"),
        }
        out.scale_in_place(self.config.damping);
        for (j, &q) in internal.iter().enumerate() {
            if rows.contains(&q) {
                let v = out.get(q - lo, j) + 1.0;
                out.set(q - lo, j, v);
            }
        }
        Ok(())
    }

    /// Single-source similarity column `[S]_{*,q}`.
    pub fn single_source(&self, q: usize) -> Result<Vec<f64>, CoSimRankError> {
        Ok(self.multi_source(&[q])?.into_vec())
    }

    /// Multi-source query returned as one owned column per query node —
    /// the batch entry point the serving layer scatters back to waiting
    /// requests.  Column `j` is `[S]_{*,queries[j]}`, bitwise equal to
    /// `single_source(queries[j])` (each entry of the batched product is
    /// the same independent dot product the unbatched path computes), so
    /// coalescing concurrent requests never changes their answers.
    ///
    /// # Errors
    /// [`CoSimRankError::QueryOutOfBounds`] on an invalid node id.
    pub fn query_columns(&self, queries: &[usize]) -> Result<Vec<Vec<f64>>, CoSimRankError> {
        let mut scratch = DenseMatrix::zeros(0, 0);
        self.query_columns_into(queries, &mut scratch)
    }

    /// [`CsrPlusModel::query_columns`] evaluating through a caller-owned
    /// scratch block: [`CsrPlusModel::columns_into`] over all rows at full
    /// rank.
    ///
    /// # Errors
    /// [`CoSimRankError::QueryOutOfBounds`] on an invalid node id.
    pub fn query_columns_into(
        &self,
        queries: &[usize],
        scratch: &mut DenseMatrix,
    ) -> Result<Vec<Vec<f64>>, CoSimRankError> {
        self.columns_into(&Query::new(queries), scratch)
    }

    /// Gathers the `w` columns of the `rows × w` block `s` into owned
    /// vectors, optionally scattering row `i` to `order[i]`.  The strided
    /// gather is memory-bound; the query set is split into
    /// shape-determined blocks over the shared pool.
    fn gather_columns(
        s: &DenseMatrix,
        rows: usize,
        w: usize,
        order: Option<&[u32]>,
    ) -> Result<Vec<Vec<f64>>, CoSimRankError> {
        let mut cols: Vec<Vec<f64>> = vec![Vec::new(); w];
        let chunk = csrplus_par::chunk_len(w, rows.max(1), MIN_ONLINE_WORK);
        csrplus_par::for_each_chunk_mut(&mut cols, chunk, csrplus_par::threads(), |ci, block| {
            let j0 = ci * chunk;
            for (off, col) in block.iter_mut().enumerate() {
                let j = j0 + off;
                match order {
                    None => *col = (0..rows).map(|i| s.get(i, j)).collect(),
                    Some(order) => {
                        let mut v = vec![0.0; rows];
                        for (i, &orig) in order.iter().enumerate() {
                            v[orig as usize] = s.get(i, j);
                        }
                        *col = v;
                    }
                }
            }
        });
        Ok(cols)
    }

    /// Single-pair similarity `[S]_{a,b} = [a=b] + c·Z[a,:]·U[b,:]ᵀ`.
    pub fn similarity(&self, a: usize, b: usize) -> Result<f64, CoSimRankError> {
        if a >= self.n {
            return Err(CoSimRankError::QueryOutOfBounds { node: a, n: self.n });
        }
        if b >= self.n {
            return Err(CoSimRankError::QueryOutOfBounds { node: b, n: self.n });
        }
        let base = if a == b { 1.0 } else { 0.0 };
        let (ia, ib) = (self.internal_row(a), self.internal_row(b));
        Ok(base + self.config.damping * self.z.row_ref(ia).dot(self.u.row_ref(ib)))
    }

    /// All-pairs similarity `S = Iₙ + c·Z·Uᵀ` — an `n × n` dense matrix,
    /// so it is guarded by a [`MemoryBudget`].
    pub fn all_pairs(&self, budget: &MemoryBudget) -> Result<DenseMatrix, CoSimRankError> {
        budget.check("all-pairs S (n×n)", csrplus_memtrack::model::dense(self.n, self.n))?;
        let queries: Vec<usize> = (0..self.n).collect();
        self.multi_source(&queries)
    }

    /// Top-`k` most similar nodes to `q` (excluding `q` itself), by
    /// descending similarity with node id as the tie-break: the column
    /// `[S]_{*,q}` through [`crate::topk::select_top_k`], the selection
    /// every served top-k answer uses.
    ///
    /// # Errors
    /// [`CoSimRankError::QueryOutOfBounds`] on an invalid node id.
    pub fn top_k(&self, q: usize, k: usize) -> Result<Vec<(usize, f64)>, CoSimRankError> {
        Ok(top_k_from_column(&self.single_source(q)?, q, k))
    }

    /// Similarity join: every ordered pair `(x, y)`, `x ≠ y`, with
    /// `[S]_{x,y} ≥ threshold`, found without materialising the `n×n`
    /// matrix.  Candidates are enumerated in descending-norm order on
    /// both sides and pruned with `c·‖Z[x]‖·‖U[y]‖ < threshold`, so the
    /// scan cost adapts to the score distribution instead of being
    /// `Θ(n²)`.  Pairs come back sorted by descending similarity.
    ///
    /// `threshold` must be positive: the bound only prunes positive
    /// scores, and CoSimRank joins below 0 are meaningless (exact
    /// similarities are non-negative).
    pub fn similarity_join(
        &self,
        threshold: f64,
        budget: &MemoryBudget,
    ) -> Result<Vec<(usize, usize, f64)>, CoSimRankError> {
        if threshold.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(CoSimRankError::InvalidConfig {
                message: format!("similarity_join threshold {threshold} must be > 0"),
            });
        }
        let c = self.config.damping;
        let z_norms = sorted_row_norms(&self.z);
        let u_norms = sorted_row_norms(&self.u);
        let mut out: Vec<(usize, usize, f64)> = Vec::new();
        for &(zn, x) in &z_norms {
            // The largest possible score for this x is against the
            // largest ‖u‖; once even that dies, every later x (smaller
            // ‖z‖) dies too.
            let best_possible = c * zn * u_norms.first().map_or(0.0, |p| p.0);
            if best_possible < threshold {
                break;
            }
            let x = x as usize;
            for &(un, y) in &u_norms {
                if c * zn * un < threshold {
                    break; // u-norms only shrink from here
                }
                let y = y as usize;
                if x == y {
                    continue;
                }
                let score = c * self.z.row_ref(x).dot(self.u.row_ref(y));
                if score >= threshold {
                    // Norm-table ids are internal rows; report originals.
                    out.push((self.original_id(x), self.original_id(y), score));
                    // Guard unbounded result sets (dense near-clique
                    // graphs at tiny thresholds).
                    budget.check(
                        "similarity-join result set",
                        out.capacity() * std::mem::size_of::<(usize, usize, f64)>(),
                    )?;
                }
            }
        }
        out.sort_by(|a, b| {
            b.2.partial_cmp(&a.2)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
                .then(a.1.cmp(&b.1))
        });
        Ok(out)
    }

    /// Measured heap footprint of the memoised state (bytes).
    pub fn heap_bytes(&self) -> usize {
        let perm_bytes = self
            .perm
            .as_ref()
            .map_or(0, |p| (p.order.capacity() + p.rank.capacity()) * std::mem::size_of::<u32>());
        self.u.heap_bytes()
            + self.z.heap_bytes()
            + self.p.heap_bytes()
            + self.h0.heap_bytes()
            + self.sigma.capacity() * std::mem::size_of::<f64>()
            + perm_bytes
    }
}

/// Row norms of `m` with their row ids, sorted descending.  The norm
/// table fill runs on the shared pool (one slot per row); the sort stays
/// serial and total order is unaffected by chunking.
fn sorted_row_norms(m: &Factor) -> Vec<(f64, u32)> {
    let mut norms: Vec<(f64, u32)> = vec![(0.0, 0); m.rows()];
    let chunk = csrplus_par::chunk_len(m.rows(), 2 * m.cols().max(1), MIN_ONLINE_WORK);
    csrplus_par::for_each_chunk_mut(&mut norms, chunk, csrplus_par::threads(), |ci, out| {
        let lo = ci * chunk;
        for (off, slot) in out.iter_mut().enumerate() {
            let i = lo + off;
            *slot = (m.row_ref(i).norm2(), i as u32);
        }
    });
    norms.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    norms
}

/// Solves `P = c·H·P·Hᵀ + I_r` by repeated squaring (Algorithm 1, line 5):
/// `P_{k+1} = P_k + c^{2^k}·H_k·P_k·H_kᵀ`, `H_{k+1} = H_k²`.
///
/// After `k` iterations `P_k` equals the first `2^k` terms of
/// `Σ_j c^j H^j (Hᵀ)^j`, so the iteration count from
/// [`crate::config::squaring_iterations`] guarantees `‖P_k − P‖ < ε`.
pub fn solve_subspace_fixed_point(
    h0: &DenseMatrix,
    damping: f64,
    iterations: usize,
) -> Result<DenseMatrix, CoSimRankError> {
    let r = h0.rows();
    let mut p = DenseMatrix::identity(r);
    let mut h = h0.clone();
    let mut factor = damping;
    for _ in 0..iterations {
        // P ← P + factor · H·P·Hᵀ
        let hp = h.matmul(&p)?;
        let hpht = hp.matmul_transpose_b(&h)?;
        p.add_scaled(factor, &hpht)?;
        // H ← H², factor ← factor².
        h = h.matmul(&h)?;
        factor *= factor;
    }
    Ok(p)
}

/// Reference linear iteration for the same fixed point (used by the
/// repeated-squaring ablation): `P ← c·H·P·Hᵀ + I_r`, `iterations` times.
pub fn solve_subspace_fixed_point_linear(
    h0: &DenseMatrix,
    damping: f64,
    iterations: usize,
) -> Result<DenseMatrix, CoSimRankError> {
    let r = h0.rows();
    let mut p = DenseMatrix::identity(r);
    for _ in 0..iterations {
        let hp = h0.matmul(&p)?;
        let mut hpht = hp.matmul_transpose_b(h0)?;
        hpht.scale_in_place(damping);
        hpht.add_diag(1.0)?;
        p = hpht;
    }
    Ok(p)
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index loops mirror the matrix math
mod tests {
    use super::*;
    use csrplus_graph::generators::{classic::cycle, figure1_graph};

    fn fig1_model(rank: usize) -> CsrPlusModel {
        let g = figure1_graph();
        let t = TransitionMatrix::from_graph(&g);
        let cfg = CsrPlusConfig { rank, ..Default::default() };
        CsrPlusModel::precompute(&t, &cfg).unwrap()
    }

    #[test]
    fn query_columns_bitwise_matches_single_source() {
        let m = fig1_model(3);
        let queries = [0usize, 2, 4, 5, 2]; // includes a duplicate
        let cols = m.query_columns(&queries).unwrap();
        assert_eq!(cols.len(), queries.len());
        for (&q, col) in queries.iter().zip(&cols) {
            let single = m.single_source(q).unwrap();
            assert_eq!(col, &single, "column for node {q} must be bitwise equal");
        }
        // |Q| = 1 fast path and the empty batch.
        assert_eq!(m.query_columns(&[3]).unwrap()[0], m.single_source(3).unwrap());
        assert!(m.query_columns(&[]).unwrap().is_empty());
    }

    #[test]
    fn rank_truncated_queries_match_the_prefix_dot_product() {
        // Ground truth for a rank-t truncated query, straight from the
        // factors: S_t[i,q] = [i=q] + c·Σ_{j<t} Z[i,j]·U[q,j] — the same
        // sum the kernel computes over the leading-t column prefix.
        let m = fig1_model(3);
        let c = m.config().damping;
        let queries = [1usize, 3, 4];
        for t in 1..=3usize {
            let mut scratch = DenseMatrix::zeros(0, 0);
            let plan = Query { rank: Some(t), ..Query::new(&queries) };
            let cols = m.columns_into(&plan, &mut scratch).unwrap();
            for (&q, col) in queries.iter().zip(&cols) {
                for i in 0..m.n() {
                    let dot: f64 = (0..t).map(|j| m.z().get(i, j) * m.u().get(q, j)).sum();
                    let want = if i == q { 1.0 } else { 0.0 } + c * dot;
                    assert!(
                        (col[i] - want).abs() < 1e-12,
                        "rank {t}, node {q}, row {i}: {} vs {want}",
                        col[i]
                    );
                }
            }
        }
    }

    #[test]
    fn full_rank_truncation_is_bitwise_identity() {
        let m = fig1_model(3);
        let queries = [0usize, 2, 5];
        let mut scratch = DenseMatrix::zeros(0, 0);
        // rank = r and any rank above it route through the same views.
        for rank in [3usize, 10, usize::MAX] {
            let plan = Query { rank: Some(rank), ..Query::new(&queries) };
            let cols = m.columns_into(&plan, &mut scratch).unwrap();
            let reference = m.query_columns(&queries).unwrap();
            assert_eq!(cols, reference, "rank {rank} must be the identity truncation");
        }
        // Range variant too (the shard path).
        let range = Query { rows: Some(1..5), ..Query::new(&queries) };
        let a = m.columns_into(&Query { rank: Some(3), ..range.clone() }, &mut scratch).unwrap();
        let b = m.columns_into(&range, &mut scratch).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn truncated_range_concatenates_into_the_truncated_column() {
        // Shard slices of a degraded evaluation must reassemble into the
        // single-process degraded answer, just like the full-rank ones.
        let m = fig1_model(3);
        let queries = [2usize, 4];
        let mut scratch = DenseMatrix::zeros(0, 0);
        let plan = |rows| Query { sources: &queries, rows, rank: Some(2) };
        let whole = m.columns_into(&plan(None), &mut scratch).unwrap();
        let lo_part = m.columns_into(&plan(Some(0..3)), &mut scratch).unwrap();
        let hi_part = m.columns_into(&plan(Some(3..6)), &mut scratch).unwrap();
        for (j, col) in whole.iter().enumerate() {
            let stitched: Vec<f64> = lo_part[j].iter().chain(hi_part[j].iter()).copied().collect();
            assert_eq!(col, &stitched, "query {j}");
        }
        // The diagonal +1 lands on the truncated diagonal as well.
        let mut diag = DenseMatrix::zeros(0, 0);
        m.evaluate_into(&Query { rank: Some(1), ..Query::new(&[2]) }, &mut diag).unwrap();
        assert!(diag.get(2, 0) > 1.0, "self-similarity keeps its identity term");
    }

    #[test]
    fn query_columns_rejects_out_of_bounds() {
        let m = fig1_model(3);
        assert!(matches!(
            m.query_columns(&[1, 99]),
            Err(CoSimRankError::QueryOutOfBounds { node: 99, .. })
        ));
    }

    #[test]
    fn precompute_stats_cover_all_phases() {
        let g = figure1_graph();
        let t = TransitionMatrix::from_graph(&g);
        let cfg = CsrPlusConfig { rank: 3, ..Default::default() };
        let (model, stats) = CsrPlusModel::precompute_with_stats(&t, &cfg).unwrap();
        assert_eq!(stats.squaring_iterations, cfg.squaring_iterations());
        assert!(stats.svd > std::time::Duration::ZERO);
        assert_eq!(stats.total(), stats.svd + stats.subspace + stats.memoise);
        // And the model is the same as the plain entry point's.
        let plain = CsrPlusModel::precompute(&t, &cfg).unwrap();
        let a = model.multi_source(&[1]).unwrap();
        let b = plain.multi_source(&[1]).unwrap();
        assert!(a.approx_eq(&b, 0.0));
    }

    #[test]
    fn worked_example_3_6_singular_values() {
        // The paper prints Σ = diag(1.73, 0.87, 0.54) for rank 3.
        let m = fig1_model(3);
        assert!((m.sigma()[0] - 1.73).abs() < 0.01, "{:?}", m.sigma());
        assert!((m.sigma()[1] - 0.87).abs() < 0.01);
        assert!((m.sigma()[2] - 0.54).abs() < 0.01);
    }

    #[test]
    fn worked_example_3_6_similarities() {
        // Final output of Example 3.6 for Q = {b, d} (2-dp values).
        let m = fig1_model(3);
        let s = m.multi_source(&[1, 3]).unwrap();
        let expected_b = [0.16, 1.49, 0.16, 0.49, 0.48, 0.16];
        let expected_d = [0.16, 0.49, 0.16, 1.49, 0.48, 0.16];
        for i in 0..6 {
            assert!(
                (s.get(i, 0) - expected_b[i]).abs() < 0.02,
                "S[{i},b] = {} want {}",
                s.get(i, 0),
                expected_b[i]
            );
            assert!(
                (s.get(i, 1) - expected_d[i]).abs() < 0.02,
                "S[{i},d] = {} want {}",
                s.get(i, 1),
                expected_d[i]
            );
        }
    }

    #[test]
    fn lanczos_backend_reproduces_worked_example() {
        let g = figure1_graph();
        let t = TransitionMatrix::from_graph(&g);
        let cfg = CsrPlusConfig {
            rank: 3,
            backend: crate::config::SvdBackend::Lanczos,
            ..Default::default()
        };
        let m = CsrPlusModel::precompute(&t, &cfg).unwrap();
        assert!((m.sigma()[0] - 1.73).abs() < 0.01);
        let s = m.multi_source(&[1, 3]).unwrap();
        assert!((s.get(1, 0) - 1.49).abs() < 0.02);
        assert!((s.get(3, 0) - 0.49).abs() < 0.02);
    }

    #[test]
    fn backends_agree_on_full_rank() {
        let g = figure1_graph();
        let t = TransitionMatrix::from_graph(&g);
        let mk = |backend| {
            let cfg = CsrPlusConfig { rank: 4, epsilon: 1e-12, backend, ..Default::default() };
            CsrPlusModel::precompute(&t, &cfg).unwrap().multi_source(&[0, 1, 2]).unwrap()
        };
        let a = mk(crate::config::SvdBackend::Randomized);
        let b = mk(crate::config::SvdBackend::Lanczos);
        assert!(a.approx_eq(&b, 1e-6), "backend diff {}", a.max_abs_diff(&b));
    }

    #[test]
    fn subspace_fixed_point_matches_linear_iteration() {
        let m = fig1_model(3);
        let sq = solve_subspace_fixed_point(m.h0(), 0.6, 5).unwrap();
        let lin = solve_subspace_fixed_point_linear(m.h0(), 0.6, 64).unwrap();
        assert!(sq.approx_eq(&lin, 1e-6), "diff {}", sq.max_abs_diff(&lin));
    }

    #[test]
    fn fixed_point_satisfies_equation() {
        // P must satisfy P = c·HPHᵀ + I to within ε.
        let m = fig1_model(3);
        let p = m.p();
        let hp = m.h0().matmul(p).unwrap();
        let mut rhs = hp.matmul_transpose_b(m.h0()).unwrap();
        rhs.scale_in_place(0.6);
        rhs.add_diag(1.0).unwrap();
        assert!(p.approx_eq(&rhs, 1e-5), "residual {}", p.max_abs_diff(&rhs));
    }

    #[test]
    fn p_is_symmetric_with_unit_plus_diagonal() {
        let m = fig1_model(3);
        let p = m.p();
        for i in 0..3 {
            assert!(p.get(i, i) >= 1.0 - 1e-9, "P[{i},{i}] = {}", p.get(i, i));
            for j in 0..3 {
                assert!((p.get(i, j) - p.get(j, i)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn multi_source_columns_match_single_source() {
        let m = fig1_model(3);
        let s = m.multi_source(&[0, 2, 5]).unwrap();
        for (j, &q) in [0usize, 2, 5].iter().enumerate() {
            let col = m.single_source(q).unwrap();
            for i in 0..6 {
                assert!((s.get(i, j) - col[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn similarity_matches_matrix_entry() {
        let m = fig1_model(3);
        let s = m.all_pairs(&MemoryBudget::unlimited()).unwrap();
        for a in 0..6 {
            for b in 0..6 {
                let pair = m.similarity(a, b).unwrap();
                assert!((pair - s.get(a, b)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn all_pairs_is_symmetric() {
        let m = fig1_model(3);
        assert_eq!(m.precision(), Precision::F64);
        let s = m.all_pairs(&MemoryBudget::unlimited()).unwrap();
        assert!(s.approx_eq(&s.transpose(), 1e-9));
    }

    #[test]
    fn f32_all_pairs_is_symmetric_within_storage_rounding() {
        // `S = I + c·Z·Uᵀ` is symmetric because `Z = U·(ΣPΣ)` with `ΣPΣ`
        // symmetric.  f32 storage rounds `U` and `Z` *separately*: each
        // stored value is `x(1+δ)` with `|δ| ≤ 2⁻²⁴`, so each product
        // `Z_ak·U_bk` moves by at most `(2⁻²³ + 2⁻⁴⁸)·|Z_ak·U_bk|` and
        // `|S_ab − S_ba| ≤ c·(2⁻²³ + 2⁻⁴⁸)·Σ_k(|Z_ak·U_bk| + |Z_bk·U_ak|)`
        // (`U`, `Z` here are the stored values, which differ from the exact
        // ones by a further relative 2⁻²⁴ — the 1e-6 slack).  The f64
        // accumulation adds ~1e-16, covered by the absolute 1e-15.
        let t = TransitionMatrix::from_graph(&figure1_graph());
        let cfg = CsrPlusConfig { rank: 3, precision: Precision::F32, ..Default::default() };
        let m = CsrPlusModel::precompute(&t, &cfg).unwrap();
        assert_eq!(m.precision(), Precision::F32);
        let s = m.all_pairs(&MemoryBudget::unlimited()).unwrap();
        let (n, r, c) = (m.n(), m.rank(), m.config().damping);
        let (u, z) = (m.u(), m.z());
        for a in 0..n {
            for b in 0..n {
                let mass: f64 = (0..r)
                    .map(|k| (z.get(a, k) * u.get(b, k)).abs() + (z.get(b, k) * u.get(a, k)).abs())
                    .sum();
                let bound = c * (2f64.powi(-23) + 2f64.powi(-48)) * mass * (1.0 + 1e-6) + 1e-15;
                let asym = (s.get(a, b) - s.get(b, a)).abs();
                assert!(asym <= bound, "S[{a},{b}] asymmetric by {asym:e} > {bound:e}");
            }
        }
    }

    #[test]
    fn query_out_of_bounds_rejected() {
        let m = fig1_model(3);
        assert!(matches!(
            m.multi_source(&[6]),
            Err(CoSimRankError::QueryOutOfBounds { node: 6, n: 6 })
        ));
        assert!(m.similarity(0, 99).is_err());
        assert!(m.similarity(99, 0).is_err());
    }

    #[test]
    fn all_pairs_respects_budget() {
        let m = fig1_model(3);
        let tiny = MemoryBudget::new(8);
        let err = m.all_pairs(&tiny).unwrap_err();
        assert!(err.is_memory_crash());
    }

    #[test]
    fn top_k_excludes_query_and_sorts() {
        let m = fig1_model(3);
        let top = m.top_k(1, 3).unwrap(); // node b
        assert_eq!(top.len(), 3);
        assert!(top.iter().all(|&(i, _)| i != 1));
        for w in top.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        // In Example 3.6, d is the most similar node to b (0.49).
        assert_eq!(top[0].0, 3);
        // `k` is caller-controlled: past every candidate it returns them
        // all, and `k = 0` returns nothing.
        assert_eq!(m.top_k(1, usize::MAX).unwrap().len(), 5);
        assert!(m.top_k(1, 0).unwrap().is_empty());
        assert!(m.top_k(9, 3).is_err());
    }

    #[test]
    fn similarity_join_matches_brute_force() {
        let m = fig1_model(3);
        let s = m.all_pairs(&MemoryBudget::unlimited()).unwrap();
        for threshold in [0.1f64, 0.3, 0.5, 1.0] {
            let joined = m.similarity_join(threshold, &MemoryBudget::unlimited()).unwrap();
            // Brute-force reference.
            let mut want: Vec<(usize, usize, f64)> = Vec::new();
            for x in 0..6 {
                for y in 0..6 {
                    if x != y && s.get(x, y) >= threshold {
                        want.push((x, y, s.get(x, y)));
                    }
                }
            }
            assert_eq!(joined.len(), want.len(), "threshold {threshold}");
            let got: std::collections::HashSet<(usize, usize)> =
                joined.iter().map(|&(x, y, _)| (x, y)).collect();
            for (x, y, _) in want {
                assert!(got.contains(&(x, y)), "missing ({x},{y}) at {threshold}");
            }
            // Sorted by descending score.
            for w in joined.windows(2) {
                assert!(w[0].2 >= w[1].2 - 1e-12);
            }
        }
    }

    #[test]
    fn similarity_join_validates_threshold() {
        let m = fig1_model(3);
        assert!(m.similarity_join(0.0, &MemoryBudget::unlimited()).is_err());
        assert!(m.similarity_join(-1.0, &MemoryBudget::unlimited()).is_err());
        // A threshold above every off-diagonal score yields nothing.
        let empty = m.similarity_join(10.0, &MemoryBudget::unlimited()).unwrap();
        assert!(empty.is_empty());
    }

    /// The fig-1 model relabeled under `order[internal] = original`:
    /// factors built by gathering the identity model's rows, so permuted
    /// answers must match the identity model's *bitwise*.
    fn permuted_fig1_model(rank: usize, order: Vec<u32>) -> (CsrPlusModel, CsrPlusModel) {
        let identity = fig1_model(rank);
        let r = identity.rank();
        let gather =
            |f: &Factor| f.select_rows(&order.iter().map(|&o| o as usize).collect::<Vec<_>>());
        let n = identity.n();
        let permuted = CsrPlusModel::from_factors(
            *identity.config(),
            n,
            gather(identity.u()),
            gather(identity.z()),
            identity.sigma().to_vec(),
            identity.p().clone(),
            identity.h0().clone(),
        )
        .unwrap()
        .with_permutation(order, Reordering::Rcm)
        .unwrap();
        assert_eq!(permuted.rank(), r);
        (identity, permuted)
    }

    #[test]
    fn permuted_model_answers_in_original_ids() {
        let (identity, permuted) = permuted_fig1_model(3, vec![5, 3, 0, 1, 4, 2]);
        assert!(identity.permutation().is_none());
        assert_eq!(permuted.permutation().unwrap().kind(), Reordering::Rcm);
        // Whole multi-source block, row-scattered back to original ids.
        let a = identity.multi_source(&[1, 3]).unwrap();
        let b = permuted.multi_source(&[1, 3]).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
        // Batched columns, single columns, pairs.
        assert_eq!(
            identity.query_columns(&[0, 4, 2]).unwrap(),
            permuted.query_columns(&[0, 4, 2]).unwrap()
        );
        assert_eq!(identity.single_source(5).unwrap(), permuted.single_source(5).unwrap());
        for a in 0..6 {
            for b in 0..6 {
                assert_eq!(
                    identity.similarity(a, b).unwrap().to_bits(),
                    permuted.similarity(a, b).unwrap().to_bits()
                );
            }
        }
        // Truncated plans scatter back to original ids too.
        let mut scratch = DenseMatrix::zeros(0, 0);
        let plan = Query { rank: Some(2), ..Query::new(&[0, 3]) };
        let ta = identity.columns_into(&plan, &mut scratch).unwrap();
        assert_eq!(ta, permuted.columns_into(&plan, &mut scratch).unwrap());
        // Top-k and the join report original ids.
        for q in 0..6 {
            assert_eq!(identity.top_k(q, 3).unwrap(), permuted.top_k(q, 3).unwrap());
        }
        assert_eq!(
            identity.similarity_join(0.3, &MemoryBudget::unlimited()).unwrap(),
            permuted.similarity_join(0.3, &MemoryBudget::unlimited()).unwrap()
        );
    }

    #[test]
    fn with_permutation_validates_and_normalises() {
        let m = fig1_model(3);
        assert!(m.clone().with_permutation(vec![0, 1], Reordering::Rcm).is_err());
        assert!(m.clone().with_permutation(vec![0, 0, 1, 2, 3, 4], Reordering::Rcm).is_err());
        assert!(m.clone().with_permutation(vec![0, 1, 2, 3, 4, 9], Reordering::Rcm).is_err());
        // Identity order normalises to the permutation-free fast path.
        let id = m.with_permutation(vec![0, 1, 2, 3, 4, 5], Reordering::Rcm).unwrap();
        assert!(id.permutation().is_none());
    }

    #[test]
    fn range_evaluation_bitwise_matches_full() {
        let (_, permuted) = permuted_fig1_model(3, vec![5, 3, 0, 1, 4, 2]);
        for m in [fig1_model(3), permuted] {
            let queries = [1usize, 4];
            let range = |lo, hi| Query { rows: Some(lo..hi), ..Query::new(&queries) };
            let mut full = DenseMatrix::zeros(0, 0);
            m.evaluate_into(&range(0, 6), &mut full).unwrap();
            for (lo, hi) in [(0usize, 2usize), (2, 5), (5, 6), (3, 3)] {
                let mut part = DenseMatrix::zeros(0, 0);
                m.evaluate_into(&range(lo, hi), &mut part).unwrap();
                assert_eq!(part.shape(), (hi - lo, 2));
                for i in lo..hi {
                    for j in 0..2 {
                        assert_eq!(part.get(i - lo, j).to_bits(), full.get(i, j).to_bits());
                    }
                }
                // Partial columns agree with the full block too.
                let mut scratch = DenseMatrix::zeros(0, 0);
                let cols = m.columns_into(&range(lo, hi), &mut scratch).unwrap();
                for (j, col) in cols.iter().enumerate() {
                    assert_eq!(col.len(), hi - lo);
                    for i in lo..hi {
                        assert_eq!(col[i - lo].to_bits(), full.get(i, j).to_bits());
                    }
                }
            }
            assert!(m.evaluate_into(&range(4, 2), &mut full).is_err());
            assert!(m.evaluate_into(&range(0, 9), &mut full).is_err());
        }
    }

    #[test]
    fn top_k_ties_break_by_original_id_under_permutation() {
        // Hand-built factors with duplicate scores: U identical for all
        // queries, Z rows engineered so nodes {1, 2, 4} tie exactly.
        let n = 6;
        let r = 2;
        let mk = |order: Option<Vec<u32>>| {
            let ident: Vec<u32> = (0..n as u32).collect();
            let ord = order.clone().unwrap_or(ident);
            // Internal row i holds original node ord[i]'s data.
            let score_of = |orig: u32| match orig {
                1 | 2 | 4 => 0.5,
                3 => 0.9,
                _ => 0.1,
            };
            let u = DenseMatrix::from_vec(n, r, [1.0, 0.0].repeat(n)).unwrap();
            let mut zdata = Vec::with_capacity(n * r);
            for &orig in &ord {
                zdata.extend_from_slice(&[score_of(orig), 0.0]);
            }
            let z = DenseMatrix::from_vec(n, r, zdata).unwrap();
            let cfg = CsrPlusConfig { rank: r, ..Default::default() };
            let m = CsrPlusModel::from_parts(
                cfg,
                n,
                u,
                z,
                vec![1.0; r],
                DenseMatrix::identity(r),
                DenseMatrix::identity(r),
            )
            .unwrap();
            match order {
                Some(ord) => m.with_permutation(ord, Reordering::DegreeSort).unwrap(),
                None => m,
            }
        };
        let identity = mk(None);
        let shuffled = mk(Some(vec![4, 0, 2, 5, 1, 3]));
        // k = 2 cuts through the three-way tie at 0.5: the winner set
        // must be {3, 1} (highest score, then smallest original id) for
        // both orderings, for every query node.
        for q in 0..n {
            let a = identity.top_k(q, 2).unwrap();
            let b = shuffled.top_k(q, 2).unwrap();
            assert_eq!(a, b, "q={q}");
            let want: Vec<usize> = [3usize, 1, 2].into_iter().filter(|&x| x != q).take(2).collect();
            let got: Vec<usize> = a.iter().map(|&(x, _)| x).collect();
            assert_eq!(got, want, "q={q}");
        }
    }

    #[test]
    fn cycle_graph_uniform_structure() {
        // On a directed cycle Q is a permutation matrix; all PPR vectors
        // stay unit mass, so S[a,a] = 1/(1-c) at full rank.
        let g = cycle(8);
        let t = TransitionMatrix::from_graph(&g);
        let cfg = CsrPlusConfig { rank: 8, epsilon: 1e-10, ..Default::default() };
        let m = CsrPlusModel::precompute(&t, &cfg).unwrap();
        let expect = 1.0 / (1.0 - 0.6);
        for i in 0..8 {
            let s = m.similarity(i, i).unwrap();
            assert!((s - expect).abs() < 1e-4, "S[{i},{i}] = {s} want {expect}");
        }
    }

    #[test]
    fn heap_bytes_is_order_rn() {
        let m = fig1_model(3);
        let b = m.heap_bytes();
        // 6 nodes, rank 3: a few hundred bytes, far below n² scale.
        assert!(b > 0 && b < 10_000, "bytes {b}");
    }
}
