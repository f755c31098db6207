//! Node reordering and shard assignment for partitioned serving.
//!
//! CSR+'s factors are `O(rn)`, so row-partitioning `Z`/`U` into
//! contiguous internal row ranges is the natural unit of distribution:
//! each shard evaluates its rows of `[S]_{*,Q}` independently and a
//! coordinator merges the partial columns (see `csrplus-serve`).  The
//! [`Partitioner`] produces the node [`Permutation`] that maps original
//! ids to internal rows before precompute, and [`shard_ranges`] splits
//! the internal row space into balanced contiguous ranges.
//!
//! All orderings are deterministic functions of the graph — no RNG —
//! so a reordered precompute is reproducible bit-for-bit.

use crate::digraph::DiGraph;
use crate::error::GraphError;

/// A node reordering strategy.
///
/// Locality-aware orderings place graph neighbours close in internal id
/// space, which narrows the matrix bandwidth (see [`bandwidth`]) and
/// concentrates a query's top-k candidates in few shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reordering {
    /// Keep original ids (the default; permutation-free fast path).
    Identity,
    /// Sort by descending total (in + out) degree, ties by ascending id.
    /// Hubs land in the first rows/shard.
    DegreeSort,
    /// Reverse Cuthill–McKee over the undirected skeleton: per
    /// component, BFS from a minimum-degree seed visiting neighbours in
    /// ascending degree order, then reverse.  Minimises bandwidth, so
    /// each row's neighbours sit in nearby rows.
    Rcm,
    /// Synchronous label propagation (labels seeded with node ids, most
    /// frequent neighbour label wins, smallest label breaks ties), then
    /// sort by `(label, id)`.  Groups communities into runs.
    LabelPropagation,
}

impl Reordering {
    /// Every strategy, in flag order.
    pub const ALL: [Reordering; 4] = [
        Reordering::Identity,
        Reordering::DegreeSort,
        Reordering::Rcm,
        Reordering::LabelPropagation,
    ];

    /// Parses a CLI flag value (`identity`, `degree`, `rcm`, `labelprop`).
    pub fn parse(s: &str) -> Option<Reordering> {
        match s {
            "identity" => Some(Reordering::Identity),
            "degree" => Some(Reordering::DegreeSort),
            "rcm" => Some(Reordering::Rcm),
            "labelprop" => Some(Reordering::LabelPropagation),
            _ => None,
        }
    }

    /// The flag spelling, inverse of [`Reordering::parse`].
    pub fn name(self) -> &'static str {
        match self {
            Reordering::Identity => "identity",
            Reordering::DegreeSort => "degree",
            Reordering::Rcm => "rcm",
            Reordering::LabelPropagation => "labelprop",
        }
    }

    /// Stable numeric tag persisted in CSRP v2 `perm.meta` sections.
    pub fn tag(self) -> u64 {
        match self {
            Reordering::Identity => 0,
            Reordering::DegreeSort => 1,
            Reordering::Rcm => 2,
            Reordering::LabelPropagation => 3,
        }
    }

    /// Inverse of [`Reordering::tag`].
    pub fn from_tag(tag: u64) -> Option<Reordering> {
        Reordering::ALL.into_iter().find(|r| r.tag() == tag)
    }
}

/// A bijection between original node ids and internal row indices.
///
/// Stored as `order[new] = old` (the scatter direction: internal row
/// `new` holds original node `order[new]`).  The inverse map
/// `rank[old] = new` is materialised on demand by [`Permutation::rank`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    order: Vec<u32>,
}

impl Permutation {
    /// The identity permutation on `n` nodes.
    pub fn identity(n: usize) -> Permutation {
        Permutation { order: (0..n as u32).collect() }
    }

    /// Wraps `order[new] = old`, validating it is a bijection on
    /// `0..order.len()`.
    ///
    /// # Errors
    /// [`GraphError::InvalidParameter`] when an id is out of range or
    /// repeated.
    pub fn from_order(order: Vec<u32>) -> Result<Permutation, GraphError> {
        let n = order.len();
        let mut seen = vec![false; n];
        for &old in &order {
            let old = old as usize;
            if old >= n || seen[old] {
                return Err(GraphError::InvalidParameter {
                    message: format!("order is not a permutation of 0..{n}"),
                });
            }
            seen[old] = true;
        }
        Ok(Permutation { order })
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.order.len()
    }

    /// The scatter map `order[new] = old`.
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Consumes the permutation, returning the scatter map.
    pub fn into_order(self) -> Vec<u32> {
        self.order
    }

    /// The gather map `rank[old] = new`.
    pub fn rank(&self) -> Vec<u32> {
        let mut rank = vec![0u32; self.order.len()];
        for (new, &old) in self.order.iter().enumerate() {
            rank[old as usize] = new as u32;
        }
        rank
    }

    /// Whether this is the identity map (no relabeling needed).
    pub fn is_identity(&self) -> bool {
        self.order.iter().enumerate().all(|(new, &old)| new as u32 == old)
    }

    /// Relabels `g` so that original node `old` becomes `rank[old]`.
    pub fn apply(&self, g: &DiGraph) -> DiGraph {
        assert_eq!(g.num_nodes(), self.n(), "permutation size must match graph");
        let rank = self.rank();
        let edges = g.edges().iter().map(|&(x, y)| (rank[x as usize], rank[y as usize])).collect();
        DiGraph::from_edges(g.num_nodes(), edges).expect("relabeled ids stay in bounds")
    }
}

/// Produces node permutations and shard assignments for a graph.
#[derive(Debug, Clone, Copy)]
pub struct Partitioner {
    /// The reordering strategy to apply before splitting into shards.
    pub reordering: Reordering,
}

impl Partitioner {
    /// A partitioner using `reordering`.
    pub fn new(reordering: Reordering) -> Partitioner {
        Partitioner { reordering }
    }

    /// Computes the node permutation for `g` under the configured
    /// strategy.  Deterministic: same graph, same permutation.
    pub fn permutation(&self, g: &DiGraph) -> Permutation {
        let n = g.num_nodes();
        let order = match self.reordering {
            Reordering::Identity => return Permutation::identity(n),
            Reordering::DegreeSort => degree_sort_order(g),
            Reordering::Rcm => rcm_order(g),
            Reordering::LabelPropagation => label_propagation_order(g),
        };
        debug_assert_eq!(order.len(), n);
        Permutation { order }
    }
}

/// Splits `0..n` into `shards` contiguous ranges whose sizes differ by
/// at most one (the first `n % shards` ranges get the extra row).
///
/// # Panics
/// When `shards == 0`.
pub fn shard_ranges(n: usize, shards: usize) -> Vec<(usize, usize)> {
    assert!(shards > 0, "shard count must be positive");
    let base = n / shards;
    let extra = n % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut lo = 0;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        ranges.push((lo, lo + len));
        lo += len;
    }
    ranges
}

/// Undirected adjacency (CSR arrays) of `g`: both edge directions,
/// sorted, deduplicated, self-loops dropped.
fn undirected_adjacency(g: &DiGraph) -> (Vec<usize>, Vec<u32>) {
    let n = g.num_nodes();
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(2 * g.num_edges());
    for &(x, y) in g.edges() {
        if x != y {
            pairs.push((x, y));
            pairs.push((y, x));
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    let mut offsets = vec![0usize; n + 1];
    for &(x, _) in &pairs {
        offsets[x as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let neighbors = pairs.into_iter().map(|(_, y)| y).collect();
    (offsets, neighbors)
}

fn degree_sort_order(g: &DiGraph) -> Vec<u32> {
    let out = g.out_degrees();
    let inn = g.in_degrees();
    let mut order: Vec<u32> = (0..g.num_nodes() as u32).collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(out[v as usize] + inn[v as usize]), v));
    order
}

fn rcm_order(g: &DiGraph) -> Vec<u32> {
    let n = g.num_nodes();
    let (offsets, neighbors) = undirected_adjacency(g);
    let degree = |v: usize| offsets[v + 1] - offsets[v];
    // Seeds in ascending (degree, id): each unvisited one starts a
    // component's BFS (pseudo-peripheral enough for a narrow band).
    let mut seeds: Vec<u32> = (0..n as u32).collect();
    seeds.sort_by_key(|&v| (degree(v as usize), v));
    let mut visited = vec![false; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut frontier: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
    let mut nbrs: Vec<u32> = Vec::new();
    for &seed in &seeds {
        if visited[seed as usize] {
            continue;
        }
        visited[seed as usize] = true;
        frontier.push_back(seed);
        while let Some(v) = frontier.pop_front() {
            order.push(v);
            nbrs.clear();
            nbrs.extend(
                neighbors[offsets[v as usize]..offsets[v as usize + 1]]
                    .iter()
                    .copied()
                    .filter(|&u| !visited[u as usize]),
            );
            nbrs.sort_by_key(|&u| (degree(u as usize), u));
            for &u in &nbrs {
                visited[u as usize] = true;
                frontier.push_back(u);
            }
        }
    }
    order.reverse();
    order
}

/// Synchronous rounds capped so pathological oscillation terminates.
const LABEL_ROUNDS: usize = 8;

fn label_propagation_order(g: &DiGraph) -> Vec<u32> {
    let n = g.num_nodes();
    let (offsets, neighbors) = undirected_adjacency(g);
    let mut labels: Vec<u32> = (0..n as u32).collect();
    let mut next = labels.clone();
    let mut counts: Vec<(u32, u32)> = Vec::new();
    for _ in 0..LABEL_ROUNDS {
        let mut changed = false;
        for v in 0..n {
            let nbrs = &neighbors[offsets[v]..offsets[v + 1]];
            if nbrs.is_empty() {
                next[v] = labels[v];
                continue;
            }
            // Most frequent neighbour label, smallest label on ties.
            counts.clear();
            counts.extend(nbrs.iter().map(|&u| (labels[u as usize], 1u32)));
            counts.sort_unstable_by_key(|&(l, _)| l);
            counts.dedup_by(|a, b| {
                if a.0 == b.0 {
                    b.1 += a.1;
                    true
                } else {
                    false
                }
            });
            let best = counts
                .iter()
                .copied()
                .max_by_key(|&(l, c)| (c, std::cmp::Reverse(l)))
                .expect("non-empty neighbour list");
            next[v] = best.0;
            changed |= next[v] != labels[v];
        }
        std::mem::swap(&mut labels, &mut next);
        if !changed {
            break;
        }
    }
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&v| (labels[v as usize], v));
    order
}

/// Undirected bandwidth of `g` under `perm`: the maximum `|rank[x] -
/// rank[y]|` over edges.  Diagnostic for how well an ordering localises
/// the adjacency structure (used by tests and the shard bench).
pub fn bandwidth(g: &DiGraph, perm: &Permutation) -> usize {
    let rank = perm.rank();
    g.edges()
        .iter()
        .map(|&(x, y)| {
            let (a, b) = (rank[x as usize] as i64, rank[y as usize] as i64);
            (a - b).unsigned_abs() as usize
        })
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_with_chords(n: usize) -> DiGraph {
        // A ring plus long-range chords, under a scrambled labeling so
        // locality-aware orderings have something to recover.
        let scramble = |v: usize| ((v * 48271 + 11) % n) as u32;
        let mut edges = Vec::new();
        for v in 0..n {
            edges.push((scramble(v), scramble((v + 1) % n)));
            if v % 7 == 0 {
                edges.push((scramble(v), scramble((v + n / 2) % n)));
            }
        }
        DiGraph::from_edges(n, edges).unwrap()
    }

    fn banded_ring(n: usize) -> DiGraph {
        // Each node links to its next four neighbours, plus a long chord
        // from every 16th node, under the same scrambled labeling.
        let scramble = |v: usize| ((v * 48271 + 11) % n) as u32;
        let mut edges = Vec::new();
        for v in 0..n {
            for d in 1..=4 {
                edges.push((scramble(v), scramble((v + d) % n)));
            }
            if v % 16 == 0 {
                edges.push((scramble(v), scramble((v + n / 2) % n)));
            }
        }
        DiGraph::from_edges(n, edges).unwrap()
    }

    fn assert_valid_perm(p: &Permutation, n: usize) {
        assert_eq!(p.n(), n);
        let mut seen = vec![false; n];
        for &old in p.order() {
            assert!(!seen[old as usize]);
            seen[old as usize] = true;
        }
        let rank = p.rank();
        for (new, &old) in p.order().iter().enumerate() {
            assert_eq!(rank[old as usize] as usize, new);
        }
    }

    #[test]
    fn every_strategy_yields_a_bijection() {
        let g = ring_with_chords(97);
        for r in Reordering::ALL {
            let p = Partitioner::new(r).permutation(&g);
            assert_valid_perm(&p, 97);
        }
    }

    #[test]
    fn identity_is_identity() {
        let g = ring_with_chords(12);
        let p = Partitioner::new(Reordering::Identity).permutation(&g);
        assert!(p.is_identity());
        assert!(!Partitioner::new(Reordering::Rcm).permutation(&g).is_identity());
    }

    #[test]
    fn degree_sort_puts_hubs_first() {
        // Star: node 3 has degree n-1, everything else degree 1.
        let edges = (0..9u32).filter(|&v| v != 3).map(|v| (3, v)).collect();
        let g = DiGraph::from_edges(9, edges).unwrap();
        let p = Partitioner::new(Reordering::DegreeSort).permutation(&g);
        assert_eq!(p.order()[0], 3);
        // Remaining ties break by ascending id.
        assert_eq!(&p.order()[1..4], &[0, 1, 2]);
    }

    #[test]
    fn rcm_reduces_bandwidth_of_scrambled_ring() {
        for g in [ring_with_chords(256), banded_ring(1024)] {
            let identity = Partitioner::new(Reordering::Identity).permutation(&g);
            let rcm = Partitioner::new(Reordering::Rcm).permutation(&g);
            assert!(bandwidth(&g, &rcm) < bandwidth(&g, &identity) / 2);
        }
    }

    #[test]
    fn label_propagation_groups_disjoint_cliques() {
        // Two 4-cliques: members must land contiguously.
        let mut edges = Vec::new();
        for a in 0..4u32 {
            for b in 0..4u32 {
                if a != b {
                    edges.push((a, b));
                    edges.push((a + 4, b + 4));
                }
            }
        }
        let g = DiGraph::from_edges(8, edges).unwrap();
        let p = Partitioner::new(Reordering::LabelPropagation).permutation(&g);
        let rank = p.rank();
        let first: Vec<u32> = (0..4).map(|v| rank[v]).collect();
        let second: Vec<u32> = (4..8).map(|v| rank[v as usize]).collect();
        assert!(first.iter().all(|&r| r < 4) || first.iter().all(|&r| r >= 4), "{first:?}");
        assert!(second.iter().all(|&r| r < 4) || second.iter().all(|&r| r >= 4), "{second:?}");
    }

    #[test]
    fn apply_relabels_edges() {
        let g = DiGraph::from_edges(4, vec![(0, 1), (2, 3)]).unwrap();
        let p = Permutation::from_order(vec![3, 2, 1, 0]).unwrap();
        let h = p.apply(&g);
        assert_eq!(h.num_edges(), 2);
        assert!(h.has_edge(3, 2) && h.has_edge(1, 0));
    }

    #[test]
    fn from_order_rejects_non_bijections() {
        assert!(Permutation::from_order(vec![0, 0, 1]).is_err());
        assert!(Permutation::from_order(vec![0, 3]).is_err());
        assert!(Permutation::from_order(vec![1, 0]).is_ok());
    }

    #[test]
    fn shard_ranges_cover_and_balance() {
        for (n, shards) in [(10, 3), (7, 7), (5, 8), (0, 2), (100, 4)] {
            let ranges = shard_ranges(n, shards);
            assert_eq!(ranges.len(), shards);
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges[shards - 1].1, n);
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0);
            }
            let (min, max) = ranges
                .iter()
                .map(|&(lo, hi)| hi - lo)
                .fold((usize::MAX, 0), |(a, b), l| (a.min(l), b.max(l)));
            assert!(max - min <= 1, "{ranges:?}");
        }
    }

    #[test]
    fn reordering_flags_round_trip() {
        for r in Reordering::ALL {
            assert_eq!(Reordering::parse(r.name()), Some(r));
            assert_eq!(Reordering::from_tag(r.tag()), Some(r));
        }
        assert_eq!(Reordering::parse("bogus"), None);
        assert_eq!(Reordering::from_tag(99), None);
    }
}
