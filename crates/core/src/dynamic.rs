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
//! ([`csrplus_linalg::svd_update`]) applies to the truncated SVD in
//! `O(nr + r³)` time.  Rebuilding the `r × r` subspace state and `Z`
//! afterwards costs `O(nr²)` (Algorithm 1 lines 3–6), so an edge update
//! is ~one query's worth of work instead of a full re-factorisation.
//!
//! Truncated rank-one updates drift by the discarded spectral tail, so a
//! configurable **refresh policy** re-factorises from scratch every
//! `refresh_interval` updates (or on demand via
//! [`DynamicCsrPlus::refresh`]).

use crate::config::CsrPlusConfig;
use crate::error::CoSimRankError;
use crate::model::CsrPlusModel;
use csrplus_graph::{DiGraph, TransitionMatrix};
use csrplus_linalg::svd_update::rank_one_update;
use csrplus_linalg::TruncatedSvd;

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
    /// Maintained truncated SVD of `Q` (standard convention `Q ≈ UΣVᵀ`).
    svd: TruncatedSvd,
    /// Query model rebuilt from the current factors.
    model: CsrPlusModel,
    updates_since_refresh: usize,
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
        let transition = TransitionMatrix::from_graph(graph);
        let svd = config.base.factorise(&transition)?;
        let model = CsrPlusModel::from_svd(&config.base, &svd)?;
        Ok(DynamicCsrPlus { config, n, in_neighbors, svd, model, updates_since_refresh: 0 })
    }

    /// Graph size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The current query model — all of [`CsrPlusModel`]'s query API
    /// (multi-source, single-source, top-k, …) is available on it.
    pub fn model(&self) -> &CsrPlusModel {
        &self.model
    }

    /// Incremental updates applied since the last full refresh.
    pub fn updates_since_refresh(&self) -> usize {
        self.updates_since_refresh
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
        let list = &mut self.in_neighbors[y as usize];
        match list.binary_search(&x) {
            Ok(_) => Ok(false),
            Err(pos) => {
                let old = self.column(y);
                self.in_neighbors[y as usize].insert(pos, x);
                let new = self.column(y);
                self.apply_column_change(y, &old, &new)?;
                Ok(true)
            }
        }
    }

    /// Removes edge `x → y`; returns `false` when it was absent.
    pub fn remove_edge(&mut self, x: u32, y: u32) -> Result<bool, CoSimRankError> {
        self.check_endpoints(x, y)?;
        let list = &mut self.in_neighbors[y as usize];
        match list.binary_search(&x) {
            Err(_) => Ok(false),
            Ok(pos) => {
                let old = self.column(y);
                self.in_neighbors[y as usize].remove(pos);
                let new = self.column(y);
                self.apply_column_change(y, &old, &new)?;
                Ok(true)
            }
        }
    }

    /// Re-factorises from scratch, resetting incremental drift.
    pub fn refresh(&mut self) -> Result<(), CoSimRankError> {
        let graph = self.to_graph();
        let transition = TransitionMatrix::from_graph(&graph);
        self.svd = self.config.base.factorise(&transition)?;
        self.model = CsrPlusModel::from_svd(&self.config.base, &self.svd)?;
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

    /// Dense column `y` of `Q` under the current in-neighbour lists.
    fn column(&self, y: u32) -> Vec<f64> {
        let mut col = vec![0.0; self.n];
        let list = &self.in_neighbors[y as usize];
        if !list.is_empty() {
            let w = 1.0 / list.len() as f64;
            for &x in list {
                col[x as usize] = w;
            }
        }
        col
    }

    fn apply_column_change(
        &mut self,
        y: u32,
        old: &[f64],
        new: &[f64],
    ) -> Result<(), CoSimRankError> {
        self.updates_since_refresh += 1;
        if self.config.refresh_interval == 0
            || self.updates_since_refresh >= self.config.refresh_interval
        {
            return self.refresh();
        }
        // Rank-one update: Q' = Q + (new − old)·e_yᵀ.
        let a: Vec<f64> = new.iter().zip(old.iter()).map(|(n, o)| n - o).collect();
        let mut b = vec![0.0; self.n];
        b[y as usize] = 1.0;
        self.svd = rank_one_update(&self.svd, &a, &b, self.config.base.rank)?;
        self.model = CsrPlusModel::from_svd(&self.config.base, &self.svd)?;
        Ok(())
    }
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
    fn to_graph_round_trips() {
        let g = figure1_graph();
        let dyn_model = DynamicCsrPlus::new(&g, full_rank_config(6)).unwrap();
        assert_eq!(dyn_model.to_graph(), g);
    }
}
