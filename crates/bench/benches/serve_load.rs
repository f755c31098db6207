//! Open-loop serving benchmark: baseline vs adaptive policies, written
//! to `BENCH_serve_load.json` at the repository root.
//!
//! Method (the loadgen crate's open-loop discipline):
//!
//! 1. **Capacity probe** — hammer a baseline server far past saturation
//!    for a few seconds; the achieved goodput is the capacity estimate
//!    `C`.  Probing rather than computing keeps the bench honest on any
//!    box (client and server share cores here).
//! 2. **Three offered loads** — 0.5×C (under), 1×C (near), 2×C
//!    (over), each a seeded Poisson schedule.  The same seed generates
//!    byte-identical request streams for both server configurations, so
//!    every comparison is A/B on identical traffic.
//! 3. **Two configurations per load** — the default server, and the
//!    adaptive one (TinyLFU cache admission + load-scaled linger +
//!    pressure-degraded rank).  Latency is measured from the scheduled
//!    arrival time, so queue build-up is charged to the server.
//!
//! The workload is top-k heavy (the paper's search primitive): top-k
//! answers render only `k` entries, so evaluation dominates and the
//! rank-degradation policy has real work to shed.  90 % of requests opt
//! into degradation (`degraded=allow`); the baseline accepts the
//! parameter but answers exactly, which *is* the ablation.
//!
//! A final **ingestion phase** drives mixed query + update traffic
//! (`POST /edges`) against an epoch-publishing server on a smaller
//! model, reporting sustained updates/sec, then replays the same seeded
//! edit stream locally and compares the incrementally-updated factors
//! against a cold precompute on the final graph (drift vs rebuild).
//!
//! Run with `cargo bench -p csrplus-bench --bench serve_load`.

use csrplus_core::dynamic::{DynamicConfig, DynamicCsrPlus};
use csrplus_core::{CsrPlusConfig, CsrPlusModel};
use csrplus_graph::generators::erdos_renyi;
use csrplus_graph::TransitionMatrix;
use csrplus_loadgen::{run_phase, ArrivalProcess, Mix, PhaseReport, Plan, Workload};
use csrplus_serve::json::{self, Value};
use csrplus_serve::{http, ingest, EdgeOp, IngestConfig, ServeConfig, Server};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

// Sized so that evaluation dominates and the policy gap is wide: at
// n = 60k, rank 64, a top-k query's O(n·r) scan is the cost centre
// (top-k renders only k entries) and rank degradation (64 → 4) sheds
// most of it, so near capacity the baseline saturates while the
// adaptive server stays clear of its own (higher) capacity — a margin
// that survives the probe's run-to-run noise on a shared-core box.  On
// a small cache-resident model the adaptive path *loses* — degraded
// answers bypass the cache by design, and a rank-4 evaluation cannot
// beat a cache hit — so this bench also documents when the policy pays.
const N: usize = 60_000;
const EDGES: usize = 360_000;
const RANK: usize = 64;
const DEGRADE_RANK: usize = 4;
const SEED: u64 = 42;
// The probe needs to saturate the server without drowning the box in
// client-side backlog (client and server share the cores here): a few
// hundred queued requests is deep saturation for this model size, and
// a larger probe only adds scheduler thrash that *underestimates*
// capacity.
const PROBE_RPS: f64 = 100.0;
const PROBE_S: f64 = 4.0;
const PHASE_S: f64 = 12.0;
const CONNECTIONS: usize = 32;
const TIMEOUT: Duration = Duration::from_secs(5);
// "near" sits at the probed capacity itself: the baseline reliably
// saturates there (0.9× can land under the knee when the probe reads a
// few rps low), while the adaptive server — whose degraded capacity is
// well above the baseline's — still has headroom.  That asymmetry is
// the policy's value, and putting the load point on it keeps the
// measured gap out of the probe's noise band.
const LOAD_POINTS: [(&str, f64); 3] = [("under", 0.5), ("near", 1.0), ("over", 2.0)];
// Ingestion phase: a smaller model keeps the two extra precomputes
// (dynamic boot + the cold rebuild the drift audit compares against)
// from dominating the bench, while the rate is modest enough that the
// default admission queue sheds nothing and every planned update lands.
const INGEST_N: usize = 20_000;
const INGEST_EDGES: usize = 120_000;
const INGEST_RANK: usize = 32;
const INGEST_RATE: f64 = 300.0;
const INGEST_UPDATE_FRACTION: f64 = 0.2;
const INGEST_PHASE_S: f64 = 8.0;
const DRIFT_SAMPLES: usize = 200;

fn workload() -> Workload {
    Workload {
        mix: Mix { single: 0.05, multi: 0.05, topk: 0.9, update: 0.0 },
        degraded_fraction: 0.9,
        // Mild skew: with s = 0.9 the 1024-column cache would absorb
        // ~2/3 of a 60k-node universe's query mass and the baseline
        // would answer mostly from cache — hits are cheaper than any
        // evaluation, degraded included.  At s = 0.6 most queries miss,
        // the baseline pays the full O(n·r) scan, and the degradation
        // policy is measured against real work.
        zipf_s: 0.6,
        ..Workload::new(N, SEED)
    }
}

fn baseline_config() -> ServeConfig {
    ServeConfig::default()
}

fn adaptive_config() -> ServeConfig {
    ServeConfig {
        cache_admission: true,
        adaptive_linger: true,
        degrade_rank: Some(DEGRADE_RANK),
        // Degrade as soon as any backlog exists: near capacity the queue
        // hovers at shallow depths, and a deeper watermark would leave
        // most opted-in requests answered at full rank (idle servers
        // still serve full rank — an empty queue never degrades).
        degrade_watermark: 1,
        ..ServeConfig::default()
    }
}

/// Starts a fresh server (cold cache, zeroed metrics), replays `plan`
/// against it, and tears it down.
fn run(model: &CsrPlusModel, config: ServeConfig, plan: &Plan, label: &str) -> PhaseReport {
    let handle = Server::start(model.clone(), 0, config).expect("server start");
    let report = run_phase(&handle.addr().to_string(), plan, label, CONNECTIONS, TIMEOUT);
    handle.shutdown();
    report
}

fn main() {
    let graph = erdos_renyi(N, EDGES, 7).expect("generator");
    let t = TransitionMatrix::from_graph(&graph);
    let t0 = Instant::now();
    let model = CsrPlusModel::precompute(&t, &CsrPlusConfig::with_rank(RANK)).expect("precompute");
    let precompute_s = t0.elapsed().as_secs_f64();

    let workload = workload();

    // Phase 1: capacity probe against the baseline server.
    let probe_plan =
        Plan::generate(&workload, ArrivalProcess::Poisson { rate: PROBE_RPS }, PROBE_S);
    let probe = run(&model, baseline_config(), &probe_plan, "probe");
    let capacity = probe.goodput_rps().max(1.0);
    eprintln!(
        "serve_load: capacity ≈ {capacity:.0} rps (probe shed rate {:.2})",
        probe.shed_rate()
    );

    // Phases 2-4: under / near / over capacity, baseline vs adaptive on
    // identical seeded traffic.
    let mut phases: Vec<(String, f64, PhaseReport, PhaseReport)> = Vec::new();
    for (name, factor) in LOAD_POINTS {
        let rate = capacity * factor;
        let plan = Plan::generate(&workload, ArrivalProcess::Poisson { rate }, PHASE_S);
        let baseline = run(&model, baseline_config(), &plan, &format!("{name}-baseline"));
        let adaptive = run(&model, adaptive_config(), &plan, &format!("{name}-adaptive"));
        eprintln!(
            "serve_load: {name} ({rate:.0} rps): p99 {} → {} µs, goodput {:.0} → {:.0} rps, \
             degraded {}/{}",
            baseline.quantile_us(0.99),
            adaptive.quantile_us(0.99),
            baseline.goodput_rps(),
            adaptive.goodput_rps(),
            adaptive.degraded,
            adaptive.ok,
        );
        phases.push((name.to_string(), factor, baseline, adaptive));
    }

    // Phase 5: live ingestion.  Mixed query + update traffic against an
    // epoch-publishing server; afterwards the same seeded edit stream is
    // replayed locally (plan order) and the incrementally-updated
    // factors are audited against a cold precompute on the final graph.
    let ingest_graph = erdos_renyi(INGEST_N, INGEST_EDGES, 11).expect("generator");
    let ingest_cfg = CsrPlusConfig::with_rank(INGEST_RANK);
    let dyn_cfg = DynamicConfig { base: ingest_cfg, refresh_interval: usize::MAX };
    let dynamic = DynamicCsrPlus::new(&ingest_graph, dyn_cfg).expect("dynamic boot");
    let ingest_workload = Workload {
        mix: Mix { update: INGEST_UPDATE_FRACTION, ..Mix::default() },
        ..Workload::new(INGEST_N, SEED)
    };
    let ingest_plan = Plan::generate(
        &ingest_workload,
        ArrivalProcess::Poisson { rate: INGEST_RATE },
        INGEST_PHASE_S,
    );
    let handle = Server::start_ingesting(dynamic, 0, baseline_config(), IngestConfig::default())
        .expect("server start");
    let addr = handle.addr().to_string();
    let ingest_report = run_phase(&addr, &ingest_plan, "ingest", CONNECTIONS, TIMEOUT);
    let metrics = http::request(&addr, "GET", "/metrics", None, TIMEOUT)
        .ok()
        .and_then(|(_, body)| json::parse(&body).ok());
    let ingest_counter = |key: &str| {
        let section = metrics.as_ref().and_then(|m| m.get("ingest"));
        section.and_then(|s| s.get(key)).and_then(Value::as_u64).unwrap_or(0)
    };
    let server_epoch = ingest_counter("epoch");
    let server_updates = ingest_counter("updates_applied");
    handle.shutdown();

    // Drift audit: the server applies batches in arrival order, which
    // under concurrency may differ from plan order, so this replay is a
    // parallel deterministic measurement at the same edit volume rather
    // than a bitwise mirror of the server's model.
    let mut replay = DynamicCsrPlus::new(&ingest_graph, dyn_cfg).expect("dynamic boot");
    let mut replay_edits = 0usize;
    for request in &ingest_plan.requests {
        let Some(body) = &request.body else { continue };
        for op in ingest::parse_ops(body).expect("plan-generated op") {
            let changed = match op {
                EdgeOp::Insert { x, y } => replay.insert_edge(x, y).expect("insert"),
                EdgeOp::Delete { x, y } => replay.remove_edge(x, y).expect("delete"),
            };
            replay_edits += usize::from(changed);
        }
    }
    let t1 = Instant::now();
    let final_t = TransitionMatrix::from_graph(&replay.to_graph());
    let cold = CsrPlusModel::precompute(&final_t, &ingest_cfg).expect("cold rebuild");
    let rebuild_s = t1.elapsed().as_secs_f64();
    let mut drift: f64 = 0.0;
    for k in 0..DRIFT_SAMPLES {
        let a = (k * 97) % INGEST_N;
        let b = (k * 193 + 1) % INGEST_N;
        let incr = replay.model().similarity(a, b).expect("similarity");
        let exact = cold.similarity(a, b).expect("similarity");
        drift = drift.max((incr - exact).abs());
    }
    eprintln!(
        "serve_load: ingestion sustained {:.1} updates/s alongside {:.0} rps queries \
         (server epoch {server_epoch}, {server_updates} applied); drift vs rebuild {drift:.3e} \
         over {replay_edits} edits (rebuild {rebuild_s:.2}s)",
        ingest_report.updates_per_s(),
        ingest_report.goodput_rps(),
    );

    // Acceptance summary: tail improvement at the near-capacity point,
    // and whether the adaptive server's goodput holds up at 2×C.
    let near = phases.iter().find(|(n, ..)| n == "near").expect("near phase");
    let over = phases.iter().find(|(n, ..)| n == "over").expect("over phase");
    let p99_improvement =
        near.2.quantile_us(0.99) as f64 / (near.3.quantile_us(0.99) as f64).max(1.0);
    let overload_goodput_ratio = over.3.goodput_rps() / near.3.goodput_rps().max(1.0);

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"env\": {},", csrplus_bench::report::env_json());
    let _ = writeln!(json, "  \"n\": {N},");
    let _ = writeln!(json, "  \"edges\": {EDGES},");
    let _ = writeln!(json, "  \"rank\": {RANK},");
    let _ = writeln!(json, "  \"degrade_rank\": {DEGRADE_RANK},");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(json, "  \"zipf_s\": {},", workload.zipf_s);
    let _ = writeln!(
        json,
        "  \"mix\": {{\"single\": {}, \"multi\": {}, \"topk\": {}, \"update\": {}}},",
        workload.mix.single, workload.mix.multi, workload.mix.topk, workload.mix.update
    );
    let _ = writeln!(json, "  \"degraded_fraction\": {},", workload.degraded_fraction);
    let _ = writeln!(json, "  \"connections\": {CONNECTIONS},");
    let _ = writeln!(json, "  \"precompute_s\": {precompute_s:.3},");
    let _ = writeln!(json, "  \"capacity_rps\": {capacity:.1},");
    let _ = writeln!(json, "  \"probe\": {},", probe.render_json());
    let _ = writeln!(json, "  \"phases\": [");
    for (i, (name, factor, baseline, adaptive)) in phases.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"load\": \"{name}\",");
        let _ = writeln!(json, "      \"factor\": {factor},");
        let _ = writeln!(json, "      \"offered_rps\": {:.1},", capacity * factor);
        let _ = writeln!(json, "      \"baseline\": {},", baseline.render_json());
        let _ = writeln!(json, "      \"adaptive\": {}", adaptive.render_json());
        let _ = writeln!(json, "    }}{}", if i + 1 < phases.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"ingestion\": {{");
    let _ = writeln!(json, "    \"n\": {INGEST_N},");
    let _ = writeln!(json, "    \"edges\": {INGEST_EDGES},");
    let _ = writeln!(json, "    \"rank\": {INGEST_RANK},");
    let _ = writeln!(json, "    \"rate_rps\": {INGEST_RATE},");
    let _ = writeln!(json, "    \"update_fraction\": {INGEST_UPDATE_FRACTION},");
    let _ = writeln!(json, "    \"report\": {},", ingest_report.render_json());
    let _ = writeln!(json, "    \"updates_per_s\": {:.1},", ingest_report.updates_per_s());
    let _ = writeln!(json, "    \"server_epoch\": {server_epoch},");
    let _ = writeln!(json, "    \"server_updates_applied\": {server_updates},");
    let _ = writeln!(json, "    \"replay_edits\": {replay_edits},");
    let _ = writeln!(json, "    \"rebuild_s\": {rebuild_s:.3},");
    let _ = writeln!(json, "    \"drift_vs_rebuild\": {drift:e}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"acceptance\": {{");
    let _ = writeln!(json, "    \"near_p99_improvement\": {p99_improvement:.2},");
    let _ = writeln!(json, "    \"overload_goodput_ratio\": {overload_goodput_ratio:.2}");
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");

    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve_load.json");
    std::fs::write(&out, &json).expect("BENCH_serve_load.json is writable");
    eprintln!(
        "serve_load: near-capacity p99 improvement {p99_improvement:.2}×, \
         overload goodput ratio {overload_goodput_ratio:.2} → BENCH_serve_load.json"
    );
}
