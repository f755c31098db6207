//! Shard-scaling benchmark, written to `BENCH_shard.json` at the
//! repository root.  Two questions:
//!
//! 1. **Throughput vs shard count**: a scatter-gather coordinator over
//!    1 / 2 / 4 shard servers (each serving one internal row slice of
//!    the same mmap'd artifact over real TCP), hammered with top-k
//!    queries.  On a degree-sorted model the score mass concentrates in
//!    the hub shard, so the coordinator's split-bound ordering skips the
//!    tail shards without contacting them — that work *never happens*,
//!    which is where the ≥ 3× at 4 shards comes from even on one core.
//! 2. **Reordering effect**: the same graph under scrambled ids vs an
//!    RCM ordering — compressed adjacency bytes/edge (RCM shrinks the
//!    delta gaps) and the spmm time over both encodings (locality must
//!    not cost kernel speed).
//!
//! Run with `cargo bench -p csrplus-bench --bench shard_scaling`.

use csrplus_core::persist::{load_model_with, save_model};
use csrplus_core::{CsrPlusConfig, CsrPlusModel};
use csrplus_graph::generators::barabasi_albert::barabasi_albert;
use csrplus_graph::partition::{shard_ranges, Partitioner, Permutation, Reordering};
use csrplus_graph::{storage, CompressedTransition, DiGraph, TransitionMatrix};
use csrplus_linalg::DenseMatrix;
use csrplus_serve::json::{self, Value};
use csrplus_serve::{http, ServeConfig, Server, ServerHandle};
use csrplus_store::Backend;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

const N: usize = 60_000;
const ATTACH: usize = 6;
const RANK: usize = 32;
const K: usize = 10;
const QUERIES: usize = 48;
const WARMUP: usize = 4;
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn get(addr: &str, path: &str) -> (u16, String) {
    http::request(addr, "GET", path, None, Duration::from_secs(60)).expect("request")
}

/// A deterministic id scramble (argsort of hashed ids) standing in for
/// the arbitrary labels real crawls arrive with.
fn scramble(n: usize) -> Permutation {
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&v| (u64::from(v).wrapping_mul(0x9E37_79B9_7F4A_7C15), v));
    Permutation::from_order(order).expect("argsort of distinct keys is a bijection")
}

fn shard_config(rows: (usize, usize)) -> ServeConfig {
    ServeConfig {
        linger: Duration::ZERO,
        cache_capacity: 0,
        shard_rows: Some(rows),
        ..ServeConfig::default()
    }
}

struct Deployment {
    shards: Vec<ServerHandle>,
    coordinator: ServerHandle,
}

impl Deployment {
    /// Boots `count` shard servers over the artifact at `path` plus a
    /// coordinator over all of them, every process-equivalent sharing
    /// the mmap'd factors through the page cache.
    fn start(path: &Path, n: usize, count: usize) -> Deployment {
        let shards: Vec<ServerHandle> = shard_ranges(n, count)
            .into_iter()
            .map(|range| {
                let m = load_model_with(path, Backend::Mmap).expect("mmap open");
                Server::start(m, 0, shard_config(range)).expect("shard boots")
            })
            .collect();
        let m = load_model_with(path, Backend::Mmap).expect("mmap open");
        let config = ServeConfig {
            linger: Duration::ZERO,
            cache_capacity: 0,
            shards: shards.iter().map(|s| s.addr().to_string()).collect(),
            ..ServeConfig::default()
        };
        let coordinator = Server::start(m, 0, config).expect("coordinator boots");
        Deployment { shards, coordinator }
    }

    fn stop(self) {
        self.coordinator.shutdown();
        for s in self.shards {
            s.shutdown();
        }
    }
}

struct RunStats {
    throughput_qps: f64,
    mean_latency_us: f64,
    skipped_shards: u64,
    coordinator_metrics: String,
}

/// Issues the top-k query mix once for warmup, then timed.
fn hammer(deployment: &Deployment, queries: &[usize]) -> RunStats {
    let addr = deployment.coordinator.addr().to_string();
    for &q in queries.iter().take(WARMUP) {
        let (code, _) = get(&addr, &format!("/topk?node={q}&k={K}"));
        assert_eq!(code, 200);
    }
    let t0 = Instant::now();
    for &q in queries {
        let (code, body) = get(&addr, &format!("/topk?node={q}&k={K}"));
        assert_eq!(code, 200, "{body}");
        assert_eq!(body.matches("\"score\":").count(), K, "{body}");
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let (code, metrics) = get(&addr, "/metrics");
    assert_eq!(code, 200);
    let metrics = json::parse(&metrics).expect("/metrics is JSON");
    let gather = metrics.get("coordinator").expect("coordinator section");
    RunStats {
        throughput_qps: queries.len() as f64 / elapsed,
        mean_latency_us: elapsed * 1e6 / queries.len() as f64,
        skipped_shards: gather.get("skipped_shards").and_then(Value::as_u64).expect("skips"),
        coordinator_metrics: gather.to_string(),
    }
}

fn main() {
    csrplus_par::set_threads(1); // one-core protocol: scaling must come from skipped work

    // --- build: scrambled BA graph, degree-sorted model ------------------
    let grown = barabasi_albert(N, ATTACH, 0.3, 0xBA5E).expect("valid BA parameters");
    // BA ids correlate with age (hence degree); scramble to get the
    // arbitrary labels a real edge list would have.
    let scrambled = scramble(N).apply(&grown);

    let deg_perm = Partitioner::new(Reordering::DegreeSort).permutation(&scrambled);
    let relabeled = deg_perm.apply(&scrambled);
    let t0 = Instant::now();
    let model = CsrPlusModel::precompute(
        &TransitionMatrix::from_graph(&relabeled),
        &CsrPlusConfig::with_rank(RANK),
    )
    .expect("precompute succeeds")
    .with_permutation(deg_perm.clone().into_order(), Reordering::DegreeSort)
    .expect("valid permutation");
    let precompute_s = t0.elapsed().as_secs_f64();

    let dir = std::env::temp_dir().join("csrplus_shard_scaling_bench");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let model_path = dir.join("sharded.csrp");
    save_model(&model, &model_path).expect("artifact writes");

    // Query mix: shard-local queries — nodes whose entire top-k lives in
    // the shard the split bound ranks first, so the coordinator serves
    // them at single-shard cost.  This is the traffic scatter-gather is
    // built for (a hot community answered by its own shard); the
    // selectivity below reports how much of the graph qualifies.
    // Candidates are scanned in descending factor-mass order (the same
    // quantity the bound uses), distinct ids so nothing is cached.
    let (_, z_split) = model.derived_tables();
    let finest = shard_ranges(N, *SHARD_COUNTS.iter().max().expect("non-empty"));
    let c = model.config().damping;
    let mut by_mass: Vec<usize> = (0..N).collect();
    by_mass.sort_by(|&a, &b| {
        let norm = |v: usize| {
            let (z0, zr) = z_split[model.internal_row(v)];
            z0.hypot(zr)
        };
        norm(b).partial_cmp(&norm(a)).unwrap().then(a.cmp(&b))
    });
    let mut queries: Vec<usize> = Vec::new();
    let mut scanned = 0usize;
    for &q in &by_mass {
        if queries.len() == QUERIES + WARMUP {
            break;
        }
        scanned += 1;
        // Per-shard split bounds, the coordinator's exact arithmetic.
        let uq = model.u().row_ref(model.internal_row(q));
        let (u0, urest) = (uq.first(), uq.tail_norm2());
        let bounds: Vec<f64> = finest
            .iter()
            .map(|&(lo, hi)| {
                let (mut z0_min, mut z0_max, mut zrest_max) =
                    (f64::INFINITY, f64::NEG_INFINITY, 0.0f64);
                for &(z0, zrest) in &z_split[lo..hi] {
                    z0_min = z0_min.min(z0);
                    z0_max = z0_max.max(z0);
                    zrest_max = zrest_max.max(zrest);
                }
                let b = c * ((u0 * z0_max).max(u0 * z0_min) + urest * zrest_max);
                b + b.abs() * 1e-12
            })
            .collect();
        let home = (0..finest.len())
            .max_by(|&a, &b| bounds[a].partial_cmp(&bounds[b]).unwrap())
            .expect("non-empty");
        let top = model.top_k_pruned(q, K).expect("in-bounds query");
        if top.len() < K {
            continue;
        }
        let kth = top[K - 1].1;
        let local = top.iter().all(|&(id, _)| {
            let row = model.internal_row(id);
            finest[home].0 <= row && row < finest[home].1
        });
        if local && bounds.iter().enumerate().all(|(si, &b)| si == home || b < kth) {
            queries.push(q);
        }
    }
    let shard_local_fraction = queries.len() as f64 / scanned.max(1) as f64;
    assert_eq!(
        queries.len(),
        QUERIES + WARMUP,
        "graph yields too few shard-local queries (scanned {scanned})"
    );

    // --- throughput vs shard count ---------------------------------------
    let mut runs: Vec<(usize, RunStats)> = Vec::new();
    let mut reference: Option<Vec<String>> = None;
    for count in SHARD_COUNTS {
        let deployment = Deployment::start(&model_path, N, count);
        // Answers must be byte-identical at every shard count.
        let addr = deployment.coordinator.addr().to_string();
        let bodies: Vec<String> = queries
            .iter()
            .skip(WARMUP)
            .take(8)
            .map(|q| get(&addr, &format!("/topk?node={q}&k={K}")).1)
            .collect();
        match &reference {
            None => reference = Some(bodies),
            Some(want) => assert_eq!(want, &bodies, "answers diverged at {count} shards"),
        }
        let stats = hammer(&deployment, &queries[WARMUP..]);
        println!(
            "{count} shard(s): {:>8.1} q/s   {:>8.0}µs/query   {} tail-shard fetches skipped",
            stats.throughput_qps, stats.mean_latency_us, stats.skipped_shards
        );
        runs.push((count, stats));
        deployment.stop();
    }
    let thr_1 = runs[0].1.throughput_qps;
    let thr_4 = runs.iter().find(|(c, _)| *c == 4).expect("4-shard run").1.throughput_qps;
    let speedup_4 = thr_4 / thr_1.max(1e-12);

    // --- reordering: compressed bytes/edge + spmm time -------------------
    // A locality-rich graph (a banded ring: each node links to its next
    // four neighbours, plus sparse long chords) under scrambled ids —
    // the structure RCM exists to recover.  The within-row varint gaps
    // shrink when a row's neighbours regain nearby ids.
    let ring = {
        let mut edges = Vec::new();
        for v in 0..N {
            for d in 1..=4 {
                edges.push((v as u32, ((v + d) % N) as u32));
            }
            if v % 16 == 0 {
                edges.push((v as u32, ((v + N / 2) % N) as u32));
            }
        }
        scramble(N).apply(&DiGraph::from_edges(N, edges).expect("in-bounds edges"))
    };
    let rcm_perm = Partitioner::new(Reordering::Rcm).permutation(&ring);
    let rcm_graph = rcm_perm.apply(&ring);
    let t_scrambled = TransitionMatrix::from_graph(&ring);
    let t_rcm = TransitionMatrix::from_graph(&rcm_graph);
    let c_scrambled = CompressedTransition::from_transition(&t_scrambled);
    let c_rcm = CompressedTransition::from_transition(&t_rcm);
    let bpe_scrambled = c_scrambled.heap_bytes() as f64 / c_scrambled.nnz() as f64;
    let bpe_rcm = c_rcm.heap_bytes() as f64 / c_rcm.nnz() as f64;

    let mut rng = StdRng::seed_from_u64(0x5CA1E);
    let dense = DenseMatrix::random_gaussian(N, RANK, &mut rng);
    let spmm_best = |q: &csrplus_graph::CompressedCsr| {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t0 = Instant::now();
            let out = storage::spmm(q, &dense);
            best = best.min(t0.elapsed().as_secs_f64());
            std::hint::black_box(out);
        }
        best
    };
    let spmm_scrambled_s = spmm_best(c_scrambled.q());
    let spmm_rcm_s = spmm_best(c_rcm.q());
    let spmm_ratio = spmm_rcm_s / spmm_scrambled_s.max(1e-12);

    // --- report ----------------------------------------------------------
    let edges = scrambled.num_edges();
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"n\": {N},");
    let _ = writeln!(json, "  \"rank\": {RANK},");
    let _ = writeln!(json, "  \"edges\": {edges},");
    let _ = writeln!(json, "  \"k\": {K},");
    let _ = writeln!(json, "  \"queries\": {QUERIES},");
    let _ = writeln!(json, "  \"threads\": 1,");
    let _ = writeln!(json, "  \"precompute_s\": {precompute_s:.3},");
    let _ = writeln!(json, "  \"reordering\": \"degree\",");
    let _ = writeln!(json, "  \"shard_local_query_fraction\": {shard_local_fraction:.3},");
    let _ = writeln!(json, "  \"shard_runs\": [");
    for (i, (count, stats)) in runs.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"shards\": {count},");
        let _ = writeln!(json, "      \"throughput_qps\": {:.1},", stats.throughput_qps);
        let _ = writeln!(json, "      \"mean_latency_us\": {:.0},", stats.mean_latency_us);
        let _ = writeln!(json, "      \"skipped_shard_fetches\": {},", stats.skipped_shards);
        let _ = writeln!(json, "      \"coordinator\": {}", stats.coordinator_metrics);
        let _ = writeln!(json, "    }}{}", if i + 1 < runs.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"speedup_4_shards\": {speedup_4:.2},");
    let _ = writeln!(json, "  \"reorder_compression\": {{");
    let _ = writeln!(json, "    \"scrambled_bytes_per_edge\": {bpe_scrambled:.3},");
    let _ = writeln!(json, "    \"rcm_bytes_per_edge\": {bpe_rcm:.3},");
    let _ = writeln!(json, "    \"scrambled_spmm_s\": {spmm_scrambled_s:.6},");
    let _ = writeln!(json, "    \"rcm_spmm_s\": {spmm_rcm_s:.6},");
    let _ = writeln!(json, "    \"spmm_time_ratio\": {spmm_ratio:.3}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"accept\": {{");
    let _ = writeln!(json, "    \"answers_identical_across_shard_counts\": true,");
    let _ = writeln!(json, "    \"throughput_4_shards_ge_3x\": {},", speedup_4 >= 3.0);
    let _ =
        writeln!(json, "    \"reordered_bytes_per_edge_reduced\": {},", bpe_rcm < bpe_scrambled);
    let _ = writeln!(json, "    \"reordered_spmm_not_slower\": {}", spmm_ratio <= 1.05);
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");

    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_shard.json");
    std::fs::write(&out, &json).expect("BENCH_shard.json is writable");

    println!("speedup at 4 shards: {speedup_4:.2}x (target ≥ 3x)");
    println!(
        "adjacency: {bpe_scrambled:.2} B/edge scrambled → {bpe_rcm:.2} B/edge rcm, \
         spmm ratio {spmm_ratio:.2}"
    );
    println!("wrote {}", out.display());

    std::fs::remove_file(&model_path).ok();

    assert!(
        speedup_4 >= 3.0,
        "acceptance: 4-shard throughput must be ≥3× one shard ({speedup_4:.2}x)"
    );
    assert!(bpe_rcm < bpe_scrambled, "acceptance: RCM must shrink bytes/edge");
    assert!(spmm_ratio <= 1.05, "acceptance: reordered spmm must not be slower ({spmm_ratio:.2}x)");
}
