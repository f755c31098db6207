//! The four workloads, their sizes, and the seeded request streams they
//! send.
//!
//! The graphs are the repository's fixed dataset analogues (YT and P2P),
//! so a model's build cost and accuracy do not vary from seed to seed.
//! Everything a run sends is a pure function of `--seed`: the hot set,
//! each connection's request stream and the edit stream.  The program
//! under test only ever sees the generated inputs.

use csrplus_datasets::{DatasetId, Scale};
use csrplus_graph::DiGraph;
use std::collections::HashSet;
use std::time::Duration;

/// One named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `/topk` over uniformly drawn nodes: the column cache almost never
    /// hits, so every request pays a full column evaluation.
    TopkMiss,
    /// `/topk` over a hot set that fits the column cache: every request
    /// hits, so time goes to HTTP, the cache and top-k selection.
    TopkHot,
    /// The paper's multi-source `/query` with `|Q|` sources: render and
    /// transfer of `|Q|` full columns dominate.
    MultiSrc,
    /// One connection cycling one `POST /edges` and a fixed set of
    /// `/topk` reads on a live-ingesting server.
    IngestMix,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 4] =
        [Workload::TopkMiss, Workload::TopkHot, Workload::MultiSrc, Workload::IngestMix];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TopkMiss => "topk-miss",
            Workload::TopkHot => "topk-hot",
            Workload::MultiSrc => "multi-src",
            Workload::IngestMix => "ingest-mix",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes and run-shape constants.  [`Sizes::full`] is what the
/// benchmark measures; [`Sizes::tiny`] exercises the same code paths in
/// well under a second for the benchmark's own tests.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Size of the dataset analogues.
    pub scale: Scale,
    /// Graph behind the three read-only workloads.
    pub serve_graph: DatasetId,
    /// Model rank for the read-only workloads.
    pub serve_rank: usize,
    /// Graph behind ingest-mix.
    pub ingest_graph: DatasetId,
    /// Model rank for ingest-mix.
    pub ingest_rank: usize,
    /// Set-ups per untraced run of a read-only workload (median reported).
    pub setup_reps: usize,
    /// Set-ups per untraced ingest-mix run.
    pub ingest_setup_reps: usize,
    /// Traffic sent before timing starts.
    pub warmup: Duration,
    /// Client connections of the read-only workloads.
    pub connections: usize,
    /// `k` of every `/topk`.
    pub k: usize,
    /// topk-hot's hot-set size (must fit the column cache).
    pub hot_set: usize,
    /// `|Q|` of multi-src.
    pub sources: usize,
    /// Hot nodes ingest-mix reads each cycle.
    pub ingest_hot: usize,
    /// Reads of each hot node per ingest-mix cycle.
    pub ingest_reads_per_node: usize,
    /// Query nodes in the AvgDiff sample.
    pub avg_diff_sample: usize,
    /// topk-miss replies checked against the reference.
    pub topk_checks: usize,
    /// multi-src replies checked against the reference.
    pub query_checks: usize,
    /// `/topk` requests replayed in-process by a traced run.
    pub replay_requests: usize,
    /// `/query` requests replayed in-process by a traced run.
    pub replay_queries: usize,
    /// Batches of 2 and of 8 evaluated by a traced run.
    pub replay_batches: usize,
}

impl Sizes {
    /// The measured configuration.
    pub fn full() -> Self {
        Sizes {
            // YT at bench scale: 70,930 nodes, 373,450 edges.
            scale: Scale::Bench,
            serve_graph: DatasetId::Yt,
            serve_rank: 64,
            // P2P at paper size: 22,687 nodes, 54,705 edges.  At rank 24
            // one single-edit update takes ~50 ms, so a 10 s run holds
            // well over 100 of them.
            ingest_graph: DatasetId::P2p,
            ingest_rank: 24,
            setup_reps: 3,
            ingest_setup_reps: 7,
            warmup: Duration::from_millis(1000),
            connections: 2,
            k: 10,
            hot_set: 512,
            sources: 8,
            ingest_hot: 8,
            ingest_reads_per_node: 3,
            avg_diff_sample: 8,
            topk_checks: 256,
            query_checks: 4,
            replay_requests: 1000,
            replay_queries: 16,
            replay_batches: 100,
        }
    }

    /// A seconds-scale configuration for smoke tests.
    pub fn tiny() -> Self {
        Sizes {
            scale: Scale::Test,
            serve_graph: DatasetId::Yt,
            serve_rank: 8,
            ingest_graph: DatasetId::P2p,
            ingest_rank: 6,
            setup_reps: 2,
            ingest_setup_reps: 2,
            warmup: Duration::from_millis(100),
            connections: 2,
            k: 5,
            hot_set: 16,
            sources: 3,
            ingest_hot: 4,
            ingest_reads_per_node: 2,
            avg_diff_sample: 2,
            topk_checks: 16,
            query_checks: 2,
            replay_requests: 20,
            replay_queries: 4,
            replay_batches: 4,
        }
    }
}

/// SplitMix64: a small, seedable, portable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on stream `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// `count` distinct values from `0..n`, in draw order.
    pub fn distinct(&mut self, count: usize, n: usize) -> Vec<usize> {
        assert!(count <= n, "cannot draw {count} distinct values from {n}");
        let mut seen = HashSet::with_capacity(count);
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let v = self.below(n);
            if seen.insert(v) {
                out.push(v);
            }
        }
        out
    }
}

/// Derived seeds, so the graph, the streams and the samples draw from
/// independent generators.
pub mod stream {
    /// The hot set (topk-hot and ingest-mix).
    pub const HOT: u64 = 2;
    /// The AvgDiff sample (drawn with seed 0 on every run).
    pub const AVG_DIFF: u64 = 3;
    /// The edit stream.
    pub const EDITS: u64 = 4;
    /// Warm-up traffic of connection `c` is stream `WARMUP + c`.
    pub const WARMUP: u64 = 100;
    /// Timed traffic of connection `c` is stream `TIMED + c`.
    pub const TIMED: u64 = 200;
}

/// What a read asks for, and so what its reference answer is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Read {
    /// `GET /topk?node=q&k=K`.
    TopK(usize),
    /// `GET /query?nodes=…`.
    Query(Vec<usize>),
}

impl Read {
    /// The request target.
    pub fn target(&self, k: usize) -> String {
        match self {
            Read::TopK(q) => format!("/topk?node={q}&k={k}"),
            Read::Query(nodes) => {
                let list: Vec<String> = nodes.iter().map(usize::to_string).collect();
                format!("/query?nodes={}", list.join(","))
            }
        }
    }

    /// The source nodes whose columns answer it.
    pub fn nodes(&self) -> &[usize] {
        match self {
            Read::TopK(q) => std::slice::from_ref(q),
            Read::Query(nodes) => nodes,
        }
    }
}

/// One connection's endless seeded read stream for a read-only workload.
#[derive(Debug, Clone)]
pub struct ReadStream {
    workload: Workload,
    rng: Rng,
    n: usize,
    hot: Vec<usize>,
    sources: usize,
}

impl ReadStream {
    /// The stream for `workload` drawing from `rng`; `hot` is used by
    /// topk-hot only.
    pub fn new(workload: Workload, rng: Rng, n: usize, hot: Vec<usize>, sources: usize) -> Self {
        ReadStream { workload, rng, n, hot, sources }
    }

    /// The next read.
    pub fn next_read(&mut self) -> Read {
        match self.workload {
            Workload::TopkHot => Read::TopK(self.hot[self.rng.below(self.hot.len())]),
            Workload::MultiSrc => Read::Query(self.rng.distinct(self.sources, self.n)),
            Workload::TopkMiss | Workload::IngestMix => Read::TopK(self.rng.below(self.n)),
        }
    }
}

/// One edge edit that is guaranteed to change the graph it is applied to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edit {
    /// Insert (true) or delete (false).
    pub insert: bool,
    /// Source node.
    pub x: u32,
    /// Destination node.
    pub y: u32,
}

impl Edit {
    /// The `POST /edges` body line.
    pub fn body(&self) -> String {
        let op = if self.insert { "insert" } else { "delete" };
        format!("{{\"op\":\"{op}\",\"x\":{},\"y\":{}}}", self.x, self.y)
    }
}

/// A seeded stream of edits, each valid against the graph as left by
/// the ones before it: inserts pick an absent edge, deletes a present
/// one, half and half.
#[derive(Debug, Clone)]
pub struct EditStream {
    rng: Rng,
    n: u32,
    present: HashSet<(u32, u32)>,
    list: Vec<(u32, u32)>,
}

impl EditStream {
    /// A stream starting from `graph`'s edge set.
    pub fn new(graph: &DiGraph, rng: Rng) -> Self {
        let list = graph.edges().to_vec();
        let present = list.iter().copied().collect();
        EditStream { rng, n: graph.num_nodes() as u32, present, list }
    }

    /// The next edit.
    pub fn next_edit(&mut self) -> Edit {
        if self.list.is_empty() || self.rng.next_u64() & 1 == 0 {
            loop {
                let x = self.rng.below(self.n as usize) as u32;
                let y = self.rng.below(self.n as usize) as u32;
                if x != y && self.present.insert((x, y)) {
                    self.list.push((x, y));
                    return Edit { insert: true, x, y };
                }
            }
        }
        let (x, y) = self.list.swap_remove(self.rng.below(self.list.len()));
        self.present.remove(&(x, y));
        Edit { insert: false, x, y }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn streams_are_pure_functions_of_the_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c = Rng::new(7, 2).next_u64();
        assert_eq!(a, b);
        assert_ne!(a[0], c);
        let d = Rng::new(9, 3).distinct(50, 60);
        assert_eq!(d.iter().copied().collect::<HashSet<_>>().len(), 50);
        assert!(d.iter().all(|&v| v < 60));
    }

    #[test]
    fn edits_always_change_the_graph() {
        let g = DiGraph::from_edges(5, vec![(0, 1), (1, 2), (3, 4)]).unwrap();
        let mut edges: HashSet<(u32, u32)> = g.edges().iter().copied().collect();
        let mut s = EditStream::new(&g, Rng::new(1, 4));
        for _ in 0..200 {
            let e = s.next_edit();
            assert_ne!(e.x, e.y);
            if e.insert {
                assert!(edges.insert((e.x, e.y)), "{e:?} already present");
            } else {
                assert!(edges.remove(&(e.x, e.y)), "{e:?} absent");
            }
        }
        assert_eq!(
            Edit { insert: false, x: 3, y: 4 }.body(),
            "{\"op\":\"delete\",\"x\":3,\"y\":4}"
        );
    }
}
