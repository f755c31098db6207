//! Dynamic CoSimRank on evolving graphs.
//!
//! The paper treats static graphs and cites Yu & Wang's F-CoSim for the
//! evolving case as related work; this module provides that extension on
//! top of the CSR+ machinery.  The observation: inserting or deleting the
//! edge `x → y` changes **one column** of the transition matrix —
//!
//! ```text
//! Q' = Q + a·e_yᵀ,   a = col'_y − col_y
//! ```
//!
//! — a rank-one update, which Brand's algorithm
//! ([`csrplus_linalg::svd_update`]) applies to the truncated SVD.  `a` is
//! nonzero only on y's old and new in-neighbours, so the projections read
//! a handful of factor rows.  The engine carries the `r×r` Gram `UᵀV` of
//! its factors through each update, so `H₀` costs `O(r²)` instead of a
//! fresh `O(nr²)` product.  An edit therefore costs `O(nr² + r³)`: two
//! `n×r×r` rotation GEMMs and the `n×r×r` product `Z = U(ΣPΣ)`
//! (Algorithm 1 line 6), plus `O(nr)` projections and the `O(r³)` core SVD
//! and squaring.  Each update writes into the buffers the previous one
//! retired, so it allocates nothing of size `n×r`.  On the P2P analogue
//! at bench scale (n = 22,687, r = 24, 2 vCPUs) an edit takes about
//! 7 ms, half of it in the two rotations and a quarter in `Z`
//! (`BENCH_dynamic.json`), against about 0.2 s for a full
//! re-factorisation.
//!
//! Truncated rank-one updates drift by the discarded spectral tail, so a
//! configurable **refresh policy** re-factorises from scratch every
//! `refresh_interval` updates (or on demand via
//! [`DynamicCsrPlus::refresh`]).

use crate::config::CsrPlusConfig;
use crate::error::CoSimRankError;
use crate::model::{CsrPlusModel, PrecomputeStats};
use csrplus_graph::{DiGraph, TransitionMatrix};
use csrplus_linalg::svd_update::{sparse_rank_one_update, SvdFactors, Updated};
use csrplus_linalg::{DenseMatrix, TruncatedSvd};
use std::sync::Arc;
use std::time::Duration;

/// Configuration for [`DynamicCsrPlus`].
#[derive(Debug, Clone, Copy)]
pub struct DynamicConfig {
    /// The underlying CSR+ configuration.
    pub base: CsrPlusConfig,
    /// Full re-factorisation after this many incremental updates
    /// (0 = refresh on every update, i.e. no incremental path).
    pub refresh_interval: usize,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        DynamicConfig { base: CsrPlusConfig::default(), refresh_interval: 64 }
    }
}

/// Wall-clock split of the last incremental update
/// ([`DynamicCsrPlus::last_update_stats`]).  The phases are disjoint and
/// together cover the whole update after the edge list changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UpdateStats {
    /// Sparse projections `m⃗`, `n⃗`, the residuals and the Gram border.
    pub projection: Duration,
    /// The `(r+1)²` core SVD.
    pub core_svd: Duration,
    /// The two basis rotations and the Gram rotation.
    pub rotation: Duration,
    /// `H₀` from the carried Gram, and the repeated squaring.
    pub subspace: Duration,
    /// `Z = U(ΣPΣ)`.
    pub memoise: Duration,
}

impl UpdateStats {
    /// The sum of the phases.
    pub fn total(&self) -> Duration {
        self.projection + self.core_svd + self.rotation + self.subspace + self.memoise
    }
}

/// A CSR+ model that stays queryable while the graph evolves.
///
/// ```
/// use csrplus_core::dynamic::{DynamicConfig, DynamicCsrPlus};
/// use csrplus_core::CsrPlusConfig;
/// use csrplus_graph::generators::figure1_graph;
///
/// let cfg = DynamicConfig {
///     base: CsrPlusConfig { rank: 6, ..Default::default() },
///     ..Default::default()
/// };
/// let mut live = DynamicCsrPlus::new(&figure1_graph(), cfg)?;
/// live.insert_edge(1, 4)?;                      // b → e appears
/// let s = live.model().multi_source(&[1])?;     // still queryable
/// assert_eq!(s.rows(), 6);
/// # Ok::<(), csrplus_core::CoSimRankError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DynamicCsrPlus {
    config: DynamicConfig,
    n: usize,
    /// Sorted in-neighbour list per node — the defining data of `Q`'s
    /// columns (`Q[x,y] = 1/indeg(y)` iff `x ∈ in(y)`).
    in_neighbors: Vec<Vec<u32>>,
    state: State,
    /// Storage the next update writes into instead of allocating: the
    /// left factor the last update replaced, and the model it replaced
    /// (reclaimed once no snapshot shares it any more).  So an engine
    /// holds up to twice its model's factors between updates; an update
    /// itself allocates no `n×r` buffer.
    spare_left: DenseMatrix,
    retired: Option<Arc<CsrPlusModel>>,
    updates_since_refresh: usize,
    last_update: UpdateStats,
}

/// The maintained truncated SVD `Q ≈ UΣVᵀ`, its Gram and the query model
/// built from them.
#[derive(Debug, Clone)]
struct State {
    /// Left singular vectors `U`.
    left: DenseMatrix,
    /// The right singular vectors `V` when the model stores a demoted f32
    /// copy of them.  `None` at f64: `V` is the model's own `U` factor
    /// (the paper's convention swaps the two) and is read from there.
    right: Option<DenseMatrix>,
    /// `UᵀV`, carried through every update.
    gram: DenseMatrix,
    /// Query model built from the factors (`Σ` lives here).  Shared, so a
    /// publish is a reference-count bump.
    model: Arc<CsrPlusModel>,
}

impl State {
    /// Factorises `graph` from scratch — the same SVD, Gram product and
    /// memoisation as [`CsrPlusModel::precompute`], so the model is
    /// bitwise the precomputed one.
    fn factorise(config: &CsrPlusConfig, graph: &DiGraph) -> Result<Self, CoSimRankError> {
        let svd = config.factorise(&TransitionMatrix::from_graph(graph))?;
        let gram = svd.u.matmul_transpose_a(&svd.v)?;
        Ok(Self::build(config, svd, gram, DenseMatrix::zeros(0, 0))?.0)
    }

    /// The state for `svd` with its Gram `UᵀV`; `V` moves into the model
    /// instead of being copied, and `Z` is written into `z`.
    fn build(
        config: &CsrPlusConfig,
        svd: TruncatedSvd,
        gram: DenseMatrix,
        z: DenseMatrix,
    ) -> Result<(Self, PrecomputeStats), CoSimRankError> {
        let TruncatedSvd { u, sigma, v } = svd;
        let (model, right, stats) = CsrPlusModel::from_gram(config, v, sigma, &gram, z)?;
        Ok((State { left: u, right, gram, model: Arc::new(model) }, stats))
    }

    /// The maintained SVD's factors, borrowed.
    fn factors(&self) -> SvdFactors<'_> {
        let v = match &self.right {
            Some(v) => v.view(),
            None => self.model.u().view(),
        };
        SvdFactors { u: self.left.view(), sigma: self.model.sigma(), v }
    }
}

impl DynamicCsrPlus {
    /// Builds the initial model from a graph.
    pub fn new(graph: &DiGraph, config: DynamicConfig) -> Result<Self, CoSimRankError> {
        let n = graph.num_nodes();
        config.base.validate(n)?;
        let mut in_neighbors: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(x, y) in graph.edges() {
            in_neighbors[y as usize].push(x);
        }
        for list in &mut in_neighbors {
            list.sort_unstable();
        }
        let state = State::factorise(&config.base, graph)?;
        Ok(DynamicCsrPlus {
            config,
            n,
            in_neighbors,
            state,
            spare_left: DenseMatrix::zeros(0, 0),
            retired: None,
            updates_since_refresh: 0,
            last_update: UpdateStats::default(),
        })
    }

    /// Graph size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The current query model — all of [`CsrPlusModel`]'s query API
    /// (multi-source, single-source, top-k, …) is available on it.
    pub fn model(&self) -> &CsrPlusModel {
        &self.state.model
    }

    /// The current query model as a shared handle: publishing it costs
    /// one reference-count bump, not a copy of its factors.
    pub fn shared_model(&self) -> Arc<CsrPlusModel> {
        Arc::clone(&self.state.model)
    }

    /// Incremental updates applied since the last full refresh.
    pub fn updates_since_refresh(&self) -> usize {
        self.updates_since_refresh
    }

    /// Where the last incremental update spent its time (all zero until
    /// one ran; a refresh leaves it unchanged).
    pub fn last_update_stats(&self) -> UpdateStats {
        self.last_update
    }

    /// True if edge `x → y` currently exists.
    pub fn has_edge(&self, x: u32, y: u32) -> bool {
        (y as usize) < self.n && self.in_neighbors[y as usize].binary_search(&x).is_ok()
    }

    /// Current number of edges.
    pub fn num_edges(&self) -> usize {
        self.in_neighbors.iter().map(Vec::len).sum()
    }

    /// Inserts edge `x → y`; returns `false` (and changes nothing) when
    /// the edge already exists.
    pub fn insert_edge(&mut self, x: u32, y: u32) -> Result<bool, CoSimRankError> {
        self.check_endpoints(x, y)?;
        let list = &self.in_neighbors[y as usize];
        match list.binary_search(&x) {
            Ok(_) => Ok(false),
            Err(pos) => {
                let old = list.clone();
                self.in_neighbors[y as usize].insert(pos, x);
                self.apply_column_change(y, &old)?;
                Ok(true)
            }
        }
    }

    /// Removes edge `x → y`; returns `false` when it was absent.
    pub fn remove_edge(&mut self, x: u32, y: u32) -> Result<bool, CoSimRankError> {
        self.check_endpoints(x, y)?;
        let list = &self.in_neighbors[y as usize];
        match list.binary_search(&x) {
            Err(_) => Ok(false),
            Ok(pos) => {
                let old = list.clone();
                self.in_neighbors[y as usize].remove(pos);
                self.apply_column_change(y, &old)?;
                Ok(true)
            }
        }
    }

    /// Re-factorises from scratch, resetting incremental drift.
    pub fn refresh(&mut self) -> Result<(), CoSimRankError> {
        self.state = State::factorise(&self.config.base, &self.to_graph())?;
        self.updates_since_refresh = 0;
        Ok(())
    }

    /// Materialises the current edge set as a [`DiGraph`].
    pub fn to_graph(&self) -> DiGraph {
        let mut edges = Vec::with_capacity(self.num_edges());
        for (y, list) in self.in_neighbors.iter().enumerate() {
            for &x in list {
                edges.push((x, y as u32));
            }
        }
        DiGraph::from_edges(self.n, edges).expect("maintained edges are in bounds")
    }

    fn check_endpoints(&self, x: u32, y: u32) -> Result<(), CoSimRankError> {
        for node in [x, y] {
            if node as usize >= self.n {
                return Err(CoSimRankError::QueryOutOfBounds { node: node as usize, n: self.n });
            }
        }
        Ok(())
    }

    /// Folds the change of column `y` from the in-neighbour list `old` to
    /// the current one into the model.
    fn apply_column_change(&mut self, y: u32, old: &[u32]) -> Result<(), CoSimRankError> {
        self.updates_since_refresh += 1;
        if self.config.refresh_interval == 0
            || self.updates_since_refresh >= self.config.refresh_interval
        {
            return self.refresh();
        }
        // Rank-one update: Q' = Q + (col'_y − col_y)·e_yᵀ.
        let a = column_change(old, &self.in_neighbors[y as usize]);
        let empty = || DenseMatrix::zeros(0, 0);
        let (spare_right, spare_z) = self
            .retired
            .take()
            .and_then(|model| Arc::try_unwrap(model).ok())
            .and_then(CsrPlusModel::into_f64_factors)
            .unwrap_or_else(|| (empty(), empty()));
        let spare_left = std::mem::replace(&mut self.spare_left, empty());
        let Updated { svd, gram, stats } = sparse_rank_one_update(
            self.state.factors(),
            &a,
            &[(y as usize, 1.0)],
            Some(&self.state.gram),
            self.config.base.rank,
            (spare_left, spare_right),
        )?;
        let gram = gram.expect("a carried Gram comes back rotated");
        let (state, built) = State::build(&self.config.base, svd, gram, spare_z)?;
        let replaced = std::mem::replace(&mut self.state, state);
        self.spare_left = replaced.left;
        self.retired = Some(replaced.model);
        self.last_update = UpdateStats {
            projection: stats.projection,
            core_svd: stats.core_svd,
            rotation: stats.rotation,
            subspace: built.subspace,
            memoise: built.memoise,
        };
        Ok(())
    }
}

/// `col'_y − col_y` as `(row, value)` entries, where a column of `Q` puts
/// `1/len` on each node of its in-neighbour list: `−1/|old|` on the old
/// list and `+1/|new|` on the new one (a row on both appears twice; the
/// update adds the two).
fn column_change(old: &[u32], new: &[u32]) -> Vec<(usize, f64)> {
    let entries = |list: &[u32], sign: f64| {
        let w = sign / list.len() as f64;
        list.iter().map(move |&x| (x as usize, w)).collect::<Vec<_>>()
    };
    [entries(old, -1.0), entries(new, 1.0)].concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact;
    use csrplus_graph::generators::{classic::cycle, figure1_graph};

    fn full_rank_config(n: usize) -> DynamicConfig {
        DynamicConfig {
            base: CsrPlusConfig { rank: n, epsilon: 1e-10, ..Default::default() },
            refresh_interval: 1_000,
        }
    }

    /// Fresh static model over the dynamic engine's current graph.
    fn fresh(dynamic: &DynamicCsrPlus, rank: usize) -> CsrPlusModel {
        let t = TransitionMatrix::from_graph(&dynamic.to_graph());
        let cfg = CsrPlusConfig { rank, epsilon: 1e-10, ..Default::default() };
        CsrPlusModel::precompute(&t, &cfg).unwrap()
    }

    #[test]
    fn insert_matches_fresh_precompute_at_full_rank() {
        let g = figure1_graph();
        let mut dyn_model = DynamicCsrPlus::new(&g, full_rank_config(6)).unwrap();
        assert!(dyn_model.insert_edge(1, 4).unwrap()); // b → e
        assert!(dyn_model.has_edge(1, 4));
        let s_dyn = dyn_model.model().multi_source(&[1, 3]).unwrap();
        let s_fresh = fresh(&dyn_model, 6).multi_source(&[1, 3]).unwrap();
        assert!(
            s_dyn.approx_eq(&s_fresh, 1e-6),
            "dynamic vs fresh diff {}",
            s_dyn.max_abs_diff(&s_fresh)
        );
    }

    #[test]
    fn insert_then_remove_restores_original_scores() {
        let g = figure1_graph();
        let mut dyn_model = DynamicCsrPlus::new(&g, full_rank_config(6)).unwrap();
        let before = dyn_model.model().multi_source(&[0, 5]).unwrap();
        assert!(dyn_model.insert_edge(0, 4).unwrap());
        assert!(dyn_model.remove_edge(0, 4).unwrap());
        let after = dyn_model.model().multi_source(&[0, 5]).unwrap();
        assert!(before.approx_eq(&after, 1e-6), "round-trip drift {}", before.max_abs_diff(&after));
        assert_eq!(dyn_model.num_edges(), g.num_edges());
    }

    #[test]
    fn duplicate_and_missing_edges_are_noops() {
        let g = figure1_graph();
        let mut dyn_model = DynamicCsrPlus::new(&g, full_rank_config(6)).unwrap();
        assert!(!dyn_model.insert_edge(0, 1).unwrap()); // a → b exists
        assert!(!dyn_model.remove_edge(0, 0).unwrap()); // absent
        assert_eq!(dyn_model.updates_since_refresh(), 0);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let g = figure1_graph();
        let mut dyn_model = DynamicCsrPlus::new(&g, full_rank_config(6)).unwrap();
        assert!(dyn_model.insert_edge(0, 99).is_err());
        assert!(dyn_model.remove_edge(99, 0).is_err());
        assert!(!dyn_model.has_edge(0, 99));
    }

    /// Every field of `a` and `b`, compared bit for bit.
    fn assert_bitwise_equal(a: &CsrPlusModel, b: &CsrPlusModel) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(a.config(), b.config());
        assert_eq!(bits(a.sigma()), bits(b.sigma()));
        assert_eq!(bits(a.u().as_slice()), bits(b.u().as_slice()));
        assert_eq!(bits(a.z().as_slice()), bits(b.z().as_slice()));
        assert_eq!(bits(a.p().as_slice()), bits(b.p().as_slice()));
        assert_eq!(bits(a.h0().as_slice()), bits(b.h0().as_slice()));
    }

    #[test]
    fn builds_and_refreshes_are_bitwise_equal_to_precompute() {
        let g = csrplus_graph::generators::erdos_renyi(60, 240, 5).unwrap();
        let base = CsrPlusConfig::with_rank(6);
        let cfg = DynamicConfig { base, refresh_interval: 1_000 };
        let mut live = DynamicCsrPlus::new(&g, cfg).unwrap();
        let precomputed = |graph: &DiGraph| {
            CsrPlusModel::precompute(&TransitionMatrix::from_graph(graph), &base).unwrap()
        };
        assert_bitwise_equal(live.model(), &precomputed(&g));
        let (x, y) = (0..60u32)
            .flat_map(|x| (0..60u32).map(move |y| (x, y)))
            .find(|&(x, y)| x != y && !live.has_edge(x, y))
            .unwrap();
        assert!(live.insert_edge(x, y).unwrap());
        live.refresh().unwrap();
        assert_bitwise_equal(live.model(), &precomputed(&live.to_graph()));
    }

    #[test]
    fn refresh_interval_triggers_exact_refactorisation() {
        let g = cycle(8);
        let cfg = DynamicConfig {
            base: CsrPlusConfig { rank: 8, epsilon: 1e-10, ..Default::default() },
            refresh_interval: 2,
        };
        let mut dyn_model = DynamicCsrPlus::new(&g, cfg).unwrap();
        assert!(dyn_model.insert_edge(0, 2).unwrap());
        assert_eq!(dyn_model.updates_since_refresh(), 1);
        assert!(dyn_model.insert_edge(0, 3).unwrap()); // hits the interval
        assert_eq!(dyn_model.updates_since_refresh(), 0);
    }

    #[test]
    fn dynamic_tracks_exact_cosimrank_through_edit_sequence() {
        let g = figure1_graph();
        let mut dyn_model = DynamicCsrPlus::new(&g, full_rank_config(6)).unwrap();
        let edits: [(u32, u32, bool); 4] =
            [(1, 4, true), (5, 1, true), (3, 0, false), (1, 4, false)];
        for (x, y, insert) in edits {
            if insert {
                dyn_model.insert_edge(x, y).unwrap();
            } else {
                dyn_model.remove_edge(x, y).unwrap();
            }
            let t = TransitionMatrix::from_graph(&dyn_model.to_graph());
            let want = exact::multi_source(&t, &[1, 3], 0.6, 1e-12);
            let got = dyn_model.model().multi_source(&[1, 3]).unwrap();
            assert!(
                got.approx_eq(&want, 1e-5),
                "after edit ({x},{y},{insert}): drift {}",
                got.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn low_rank_incremental_stays_close_to_fresh_low_rank() {
        // Drift at truncated rank must stay small relative to the scores.
        let g = figure1_graph();
        let cfg = DynamicConfig {
            base: CsrPlusConfig { rank: 4, epsilon: 1e-10, ..Default::default() },
            refresh_interval: 1_000,
        };
        let mut dyn_model = DynamicCsrPlus::new(&g, cfg).unwrap();
        dyn_model.insert_edge(1, 4).unwrap();
        let s_dyn = dyn_model.model().multi_source(&[3]).unwrap();
        let s_fresh = fresh(&dyn_model, 4).multi_source(&[3]).unwrap();
        assert!(
            s_dyn.max_abs_diff(&s_fresh) < 0.1,
            "low-rank drift {}",
            s_dyn.max_abs_diff(&s_fresh)
        );
    }

    #[test]
    fn explicit_refresh_resets_drift() {
        let g = figure1_graph();
        let cfg = DynamicConfig {
            base: CsrPlusConfig { rank: 4, epsilon: 1e-10, ..Default::default() },
            refresh_interval: 1_000,
        };
        let mut dyn_model = DynamicCsrPlus::new(&g, cfg).unwrap();
        dyn_model.insert_edge(1, 4).unwrap();
        assert_eq!(dyn_model.updates_since_refresh(), 1);
        dyn_model.refresh().unwrap();
        assert_eq!(dyn_model.updates_since_refresh(), 0);
        let s_dyn = dyn_model.model().multi_source(&[3]).unwrap();
        let s_fresh = fresh(&dyn_model, 4).multi_source(&[3]).unwrap();
        assert!(s_dyn.approx_eq(&s_fresh, 1e-9));
    }

    #[test]
    fn carried_gram_and_factors_hold_over_200_edits() {
        use csrplus_datasets::{DatasetId, Scale};
        use rand::{Rng, SeedableRng};
        let g = csrplus_datasets::generate(DatasetId::P2p, Scale::Test).unwrap();
        let cfg =
            DynamicConfig { base: CsrPlusConfig::with_rank(24), refresh_interval: usize::MAX };
        let mut live = DynamicCsrPlus::new(&g, cfg).unwrap();
        let n = live.n() as u32;
        let mut rng = rand::rngs::StdRng::seed_from_u64(27);
        let mut edits = 0;
        while edits < 200 {
            let (x, y) = (rng.gen_range(0..n), rng.gen_range(0..n));
            let changed = if x == y {
                false
            } else if live.has_edge(x, y) {
                live.remove_edge(x, y).unwrap()
            } else {
                live.insert_edge(x, y).unwrap()
            };
            edits += usize::from(changed);
        }
        assert_eq!(live.updates_since_refresh(), 200);
        let factors = live.state.factors();
        let svd = TruncatedSvd {
            u: factors.u.to_owned(),
            sigma: factors.sigma.to_vec(),
            v: factors.v.to_owned(),
        };
        let fresh = svd.u.matmul_transpose_a(&svd.v).unwrap();
        let drift = live.state.gram.max_abs_diff(&fresh);
        assert!(drift <= 1e-12 * fresh.frobenius_norm(), "carried Gram off by {drift}");
        assert!(svd.invariant_violation() < 1e-10, "{}", svd.invariant_violation());
        let stats = live.last_update_stats();
        assert!(stats.total() > Duration::ZERO && stats.rotation > Duration::ZERO);
    }

    #[test]
    fn column_change_is_new_minus_old() {
        assert_eq!(column_change(&[], &[3]), vec![(3, 1.0)]);
        assert_eq!(column_change(&[3], &[]), vec![(3, -1.0)]);
        assert_eq!(
            column_change(&[1, 4], &[1, 2, 4]),
            vec![(1, -0.5), (4, -0.5), (1, 1.0 / 3.0), (2, 1.0 / 3.0), (4, 1.0 / 3.0)]
        );
    }

    #[test]
    fn f32_engine_keeps_its_own_f64_right_factor() {
        use crate::precision::Precision;
        let g = figure1_graph();
        let base = CsrPlusConfig { rank: 4, precision: Precision::F32, ..Default::default() };
        let mut live =
            DynamicCsrPlus::new(&g, DynamicConfig { base, refresh_interval: 1_000 }).unwrap();
        assert!(live.state.right.is_some());
        assert!(live.insert_edge(1, 4).unwrap());
        assert_eq!(live.model().precision(), Precision::F32);
        let mut f64_live = DynamicCsrPlus::new(
            &g,
            DynamicConfig {
                base: CsrPlusConfig { precision: Precision::F64, ..base },
                refresh_interval: 1_000,
            },
        )
        .unwrap();
        assert!(f64_live.state.right.is_none());
        assert!(f64_live.insert_edge(1, 4).unwrap());
        let (a, b) = (
            live.model().multi_source(&[3]).unwrap(),
            f64_live.model().multi_source(&[3]).unwrap(),
        );
        assert!(a.approx_eq(&b, 1e-6), "f32 against f64 after an edit: {}", a.max_abs_diff(&b));
    }

    #[test]
    fn to_graph_round_trips() {
        let g = figure1_graph();
        let dyn_model = DynamicCsrPlus::new(&g, full_rank_config(6)).unwrap();
        assert_eq!(dyn_model.to_graph(), g);
    }
}
