//! The dynamic (evolving-graph) extension: cost of an incremental edge
//! update (Brand rank-one SVD update + state rebuild) against a full
//! re-precomputation, and where one live edit's time goes.
//!
//! * **FB, test scale** (criterion): incremental edge at r = 5 and 10
//!   against `precompute`.
//! * **P2P, bench scale, r = 24** — perfbench's ingest-mix configuration
//!   (n = 22,687, no automatic refresh): 200 seeded edits, half inserts
//!   of a new edge and half deletes of an existing one, each followed by
//!   a publish of the engine's model through a `SnapshotHandle`, as the
//!   serving update thread does.  Each edit is split into projection,
//!   core SVD, rotation, subspace (`H₀` from the carried Gram plus the
//!   squaring), memoise (`Z`), the rest of the update call (`other`: the
//!   edge-list edit and state hand-over) and publish.  Medians per phase
//!   and the share of the mean total the phases cover go to
//!   `BENCH_dynamic.json` at the repository root, with the environment.
//!   Nothing is gated on wall time.
//!
//! Run with `cargo bench -p csrplus-bench --bench dynamic_updates`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use csrplus_bench::workloads::workload;
use csrplus_core::dynamic::{DynamicConfig, DynamicCsrPlus};
use csrplus_core::{CsrPlusConfig, CsrPlusModel};
use csrplus_datasets::{DatasetId, Scale};
use csrplus_graph::TransitionMatrix;
use csrplus_serve::SnapshotHandle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

fn bench_updates(c: &mut Criterion) {
    let w = workload(DatasetId::Fb, Scale::Test);
    let mut group = c.benchmark_group("dynamic_updates");
    group.sample_size(20);
    for r in [5usize, 10] {
        let cfg = DynamicConfig {
            base: CsrPlusConfig { rank: r, ..Default::default() },
            refresh_interval: usize::MAX, // isolate the incremental path
        };
        group.bench_with_input(BenchmarkId::new("incremental_edge", r), &cfg, |b, cfg| {
            let mut live = DynamicCsrPlus::new(&w.graph, *cfg).unwrap();
            let mut flip = false;
            b.iter(|| {
                // Alternate insert/remove of the same edge so state stays
                // bounded across iterations.
                if flip {
                    live.remove_edge(0, 7).unwrap();
                } else {
                    live.insert_edge(0, 7).unwrap();
                }
                flip = !flip;
            })
        });
        let base = CsrPlusConfig { rank: r, ..Default::default() };
        group.bench_with_input(BenchmarkId::new("full_recompute", r), &base, |b, base| {
            let t = TransitionMatrix::from_graph(&w.graph);
            b.iter(|| std::hint::black_box(CsrPlusModel::precompute(&t, base).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_updates);

/// perfbench's ingest-mix model: P2P at bench scale, rank 24.
const P2P_RANK: usize = 24;
/// Edits timed on the P2P case.
const EDITS: usize = 200;

/// The phases of one timed edit, in report order.
const PHASES: [&str; 7] =
    ["projection", "core_svd", "rotation", "subspace", "memoise", "other", "publish"];

/// A seeded stream of graph-changing edits: a new edge or the deletion
/// of a present one, with equal odds.
struct Edits {
    rng: StdRng,
    n: u32,
    present: HashSet<(u32, u32)>,
    list: Vec<(u32, u32)>,
}

impl Edits {
    fn next(&mut self) -> (u32, u32, bool) {
        if self.list.is_empty() || self.rng.gen_bool(0.5) {
            loop {
                let (x, y) = (self.rng.gen_range(0..self.n), self.rng.gen_range(0..self.n));
                if x != y && self.present.insert((x, y)) {
                    self.list.push((x, y));
                    return (x, y, true);
                }
            }
        }
        let (x, y) = self.list.swap_remove(self.rng.gen_range(0..self.list.len()));
        self.present.remove(&(x, y));
        (x, y, false)
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        0.5 * (xs[mid - 1] + xs[mid])
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn p2p_phase_split() {
    let w = workload(DatasetId::P2p, Scale::Bench);
    let config =
        DynamicConfig { base: CsrPlusConfig::with_rank(P2P_RANK), refresh_interval: usize::MAX };
    let t0 = Instant::now();
    let mut live = DynamicCsrPlus::new(&w.graph, config).expect("P2P builds");
    let build_s = t0.elapsed().as_secs_f64();
    let handle = SnapshotHandle::new(live.shared_model());
    let list = w.graph.edges().to_vec();
    let mut edits = Edits {
        rng: StdRng::seed_from_u64(27),
        n: w.graph.num_nodes() as u32,
        present: list.iter().copied().collect(),
        list,
    };

    // samples[phase][edit] in ms; the last column is the edit's total.
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(EDITS); PHASES.len() + 1];
    for _ in 0..EDITS {
        let (x, y, insert) = edits.next();
        let t0 = Instant::now();
        let changed =
            if insert { live.insert_edge(x, y) } else { live.remove_edge(x, y) }.expect("edit");
        let update = t0.elapsed();
        assert!(changed, "every edit changes the graph");
        let t1 = Instant::now();
        handle.publish(live.shared_model());
        let publish = t1.elapsed();
        let s = live.last_update_stats();
        let phases = [
            s.projection,
            s.core_svd,
            s.rotation,
            s.subspace,
            s.memoise,
            update.saturating_sub(s.total()),
            publish,
        ];
        for (column, d) in samples.iter_mut().zip(phases.iter().chain([&(update + publish)])) {
            column.push(ms(*d));
        }
    }
    let total = samples.pop().expect("total column");
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let named: f64 = samples[..PHASES.len() - 2].iter().map(|c| mean(c)).sum::<f64>()
        + mean(&samples[PHASES.len() - 1]);
    let coverage = named / mean(&total);

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"env\": {},", csrplus_bench::report::env_json());
    let _ = writeln!(
        json,
        "  \"p2p\": {{\"n\": {}, \"edges\": {}, \"rank\": {P2P_RANK}, \"edits\": {EDITS}, \
         \"build_s\": {build_s:.4}}},",
        w.graph.num_nodes(),
        w.graph.num_edges()
    );
    let _ = writeln!(json, "  \"median_ms\": {{");
    for (name, column) in PHASES.iter().zip(&samples) {
        let _ = writeln!(json, "    \"{name}\": {:.4},", median(column.clone()));
    }
    let _ = writeln!(json, "    \"total\": {:.4}", median(total.clone()));
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"mean_total_ms\": {:.4},", mean(&total));
    let _ = writeln!(json, "  \"named_phase_share_of_mean_total\": {coverage:.4}");
    json.push_str("}\n");
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_dynamic.json");
    std::fs::write(&out, &json).expect("BENCH_dynamic.json is writable");

    println!("P2P bench scale, r = {P2P_RANK}, {EDITS} edits (median ms per edit):");
    for (name, column) in PHASES.iter().zip(&samples) {
        println!("  {name:<11} {:>8.3}", median(column.clone()));
    }
    println!("  {:<11} {:>8.3}", "total", median(total));
    println!("  named phases cover {:.1}% of the mean total", 100.0 * coverage);
}

criterion_main!(benches, p2p_phase_split);
