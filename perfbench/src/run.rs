//! One benchmark run: set up, warm up, drive the timed phase, check the
//! answers, and assemble the metrics.
//!
//! Read-only workloads (topk-miss, topk-hot, multi-src) serve a model
//! that was generated, factorised, persisted and mmap-loaded inside the
//! run; ingest-mix serves a live-ingesting server booted from a
//! `DynamicCsrPlus`.  Every server is a real in-process
//! `csrplus_serve::Server` on loopback, driven closed-loop: each client
//! connection sends its next request only after the previous reply.
//!
//! With tracing on, the same run also records spans around every call
//! the benchmark makes into the program, scrapes `/metrics` around the
//! timed phase, and replays the timed request sequence in-process
//! through the public calls the server composes, single-threaded.

use crate::client::{body_hash, Client, Reply};
use crate::env::{self, ModelShape};
use crate::json::Json;
use crate::stats;
use crate::trace::{self, Recorder, Span};
use crate::workload::{stream, Edit, EditStream, Read, ReadStream, Rng, Sizes, Workload};
use csrplus_core::dynamic::{DynamicConfig, DynamicCsrPlus};
use csrplus_core::model::PrecomputeStats;
use csrplus_core::{persist, CsrPlusConfig, CsrPlusModel, DenseMatrix};
use csrplus_graph::TransitionMatrix;
use csrplus_serve::cache::{Column, ColumnCache};
use csrplus_serve::{http, render, IngestConfig, Metrics, ServeConfig, Server, ServerHandle};
use csrplus_serve::{Snapshot, SnapshotHandle};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client-side budget for one exchange.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Sizes.
    pub sizes: Sizes,
    /// Root of the checkout (for the environment block).
    pub root: PathBuf,
    /// Scratch directory for the artifact and the span dump.
    pub work_dir: PathBuf,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything a run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase (plus the answer checks'
    /// own requests).
    pub attempted: u64,
    /// Of those, the ones that failed: non-200, transport error, or an
    /// answer different from the in-process reference.
    pub failed: u64,
    /// What went wrong, one line per problem (capped).
    pub problems: Vec<String>,
    /// End-to-end metrics (always computed).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// The environment block, a JSON object.
    pub env: String,
    /// Human-readable lines describing the run.
    pub report: Vec<String>,
    /// Recorded spans (traced runs only).
    pub spans: Vec<Span>,
    /// Every set-up's wall time, seconds.
    pub setup_s: Vec<f64>,
    /// Every set-up's peak heap, MB.
    pub setup_peak_mb: Vec<f64>,
}

impl Outcome {
    /// True when nothing failed and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The share of attempted operations that failed.
    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn problem(&mut self, what: String) {
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }
}

/// The measured timed phase, before it is turned into metrics.
#[derive(Debug, Default)]
struct Phase {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Read latencies, ms.
    read_ms: Vec<f64>,
    /// `POST /edges` latencies, ms.
    update_ms: Vec<f64>,
    /// Every successful read: what it asked, the body's hash, and the
    /// epoch its answer must come from.
    served: Vec<(Read, u64, u64)>,
    response_bytes: u64,
    responses: u64,
    /// When each successful exchange completed.
    done: Vec<Instant>,
    spans: Vec<Span>,
    /// When the phase began.
    start: Option<Instant>,
    wall_s: f64,
    peak_mb: f64,
    /// Edits sent (ingest-mix).
    edits: Vec<Edit>,
}

impl Phase {
    fn merge(&mut self, other: Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.read_ms.extend(other.read_ms);
        self.update_ms.extend(other.update_ms);
        self.served.extend(other.served);
        self.response_bytes += other.response_bytes;
        self.responses += other.responses;
        self.done.extend(other.done);
        self.spans.extend(other.spans);
        self.edits.extend(other.edits);
    }

    /// Sends one request; a non-200 status or transport error counts as
    /// a failure and returns `None`.
    fn exchange(
        &mut self,
        rec: &mut Recorder,
        request: u64,
        send: impl FnOnce() -> std::io::Result<Reply>,
    ) -> Option<Reply> {
        self.attempted += 1;
        match send() {
            Ok(reply) if reply.status == 200 => {
                self.response_bytes += reply.body_len as u64;
                self.responses += 1;
                self.done.push(reply.end);
                let root = rec.next_id();
                rec.leaf("http.connect", root, request, reply.start, reply.connected);
                rec.leaf("http.ttfb", root, request, reply.connected, reply.first_byte);
                rec.leaf("http.body", root, request, reply.first_byte, reply.end);
                rec.record(root, "client.request", 0, request, reply.start, reply.end);
                Some(reply)
            }
            Ok(reply) => {
                self.fail(format!("HTTP {} on request {request}", reply.status));
                None
            }
            Err(e) => {
                self.fail(format!("transport error on request {request}: {e}"));
                None
            }
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }
}

/// Seed of stream `s` of this run.
fn rng(opts: &Options, s: u64) -> Rng {
    Rng::new(opts.seed, s)
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

/// Runs one workload.
///
/// # Errors
/// A set-up step failed (the run measured nothing).
pub fn run(opts: &Options) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.work_dir.display()))?;
    match opts.workload {
        Workload::IngestMix => run_ingest(opts),
        _ => run_serving(opts),
    }
}

// ---------------------------------------------------------------------
// Read-only workloads.

/// A deployed read-only server and what the checks need.
struct Deployment {
    transition: TransitionMatrix,
    /// The precomputed model, owned; the server runs on its mmap'd copy.
    reference: CsrPlusModel,
    stats: PrecomputeStats,
    edges: usize,
    artifact: PathBuf,
    artifact_bytes: u64,
    server: ServerHandle,
}

/// Generate → transition matrix → randomized SVD → memoise → persist →
/// mmap load → `Server::start`, each call spanned.
fn deploy(opts: &Options, rec: &mut Recorder) -> Result<Deployment, String> {
    let sizes = &opts.sizes;
    let setup = rec.next_id();
    let start = Instant::now();
    let build = rec.next_id();
    let graph = rec.time("graph.generate", build, 0, || dataset(sizes.serve_graph, sizes.scale));
    let transition =
        rec.time("graph.transition", build, 0, || TransitionMatrix::from_graph(&graph));
    rec.record(build, "graph.build", setup, 0, start, Instant::now());
    let config = CsrPlusConfig::with_rank(sizes.serve_rank);
    let svd = rec
        .time("linalg.svd", setup, 0, || {
            csrplus_linalg::randomized::randomized_svd(&transition, &config.svd_config())
        })
        .map_err(|e| format!("randomized SVD failed: {e}"))?;
    let (reference, stats) = rec
        .time("core.model.from_svd", setup, 0, || CsrPlusModel::from_svd_with_stats(&config, &svd))
        .map_err(|e| format!("memoisation failed: {e}"))?;
    drop(svd);
    let artifact = opts.work_dir.join(format!("{}-{}.csrp", opts.workload.name(), opts.seed));
    rec.time("store.write", setup, 0, || persist::save_model(&reference, &artifact))
        .map_err(|e| format!("save_model failed: {e}"))?;
    let served = rec
        .time("store.open", setup, 0, || {
            persist::load_model_with(&artifact, csrplus_store::Backend::Mmap)
        })
        .map_err(|e| format!("load_model_with failed: {e}"))?;
    let server = rec
        .time("serve.server.start", setup, 0, || Server::start(served, 0, ServeConfig::default()))
        .map_err(|e| format!("Server::start failed: {e}"))?;
    rec.record(setup, "bench.setup", 0, 0, start, Instant::now());
    let artifact_bytes = std::fs::metadata(&artifact).map_or(0, |m| m.len());
    Ok(Deployment {
        transition,
        reference,
        stats,
        edges: graph.num_edges(),
        artifact,
        artifact_bytes,
        server,
    })
}

fn dataset(
    id: csrplus_datasets::DatasetId,
    scale: csrplus_datasets::Scale,
) -> csrplus_graph::DiGraph {
    csrplus_datasets::generate(id, scale).expect("built-in dataset parameters are valid")
}

/// Sets up `reps` times (keeping the last deployment), recording each
/// set-up's wall time and peak heap.
fn set_up<T>(
    reps: usize,
    out: &mut Outcome,
    mut once: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Tear the previous deployment down before measuring the next.
        drop(last.take());
        csrplus_memtrack::reset_peak();
        let start = Instant::now();
        let deployed = once()?;
        out.setup_s.push(start.elapsed().as_secs_f64());
        out.setup_peak_mb.push(mb(csrplus_memtrack::peak_bytes()));
        last = Some(deployed);
    }
    Ok(last.expect("at least one set-up"))
}

fn run_serving(opts: &Options) -> Result<Outcome, String> {
    let sizes = &opts.sizes;
    let epoch = Instant::now();
    let mut out = Outcome::default();
    let mut rec = Recorder::new(opts.trace, epoch, 0);
    let reps = if opts.trace { 1 } else { sizes.setup_reps };
    let dep = set_up(reps, &mut out, || deploy(opts, &mut rec))?;
    let addr = dep.server.addr();
    let n = dep.reference.n();
    let hot = rng(opts, stream::HOT).distinct(sizes.hot_set.min(n), n);
    let streams = |base: u64| read_streams(opts, n, &hot, base);

    // Warm-up brings the server to its steady state before timing:
    // mmap'd factors faulted in, pools spun up, and the column cache
    // full — of the hot set for topk-hot, so every timed request hits;
    // of random columns otherwise, so the timed phase evicts from its
    // first request on instead of growing the heap for a while.
    let config = ServeConfig::default();
    let fill = match opts.workload {
        Workload::TopkHot => hot.clone(),
        _ => {
            let count = (config.cache_capacity + config.cache_capacity / 4).min(n);
            rng(opts, stream::WARMUP).distinct(count, n)
        }
    };
    let mut warm = prefill(addr, &fill, sizes);
    warm.merge(drive_reads(addr, streams(stream::WARMUP), sizes, sizes.warmup, None));

    let mut scraper = Client::new(addr, CLIENT_TIMEOUT);
    let before = scrape(&mut scraper)?;
    let seconds = Duration::from_secs_f64(opts.seconds);
    let mut phase =
        drive_reads(addr, streams(stream::TIMED), sizes, seconds, opts.trace.then_some(epoch));
    let after = scrape(&mut scraper)?;
    let counters = Counters::delta(&before, &after, route_name(opts.workload));

    // Answer checks and AvgDiff, against the owned reference model.
    out.attempted = warm.attempted + phase.attempted;
    out.failed = warm.failed + phase.failed;
    out.problems.extend(warm.problems.iter().chain(&phase.problems).cloned());
    check_serving(opts, &dep.reference, &hot, &phase, &mut out);
    let avg_diff =
        avg_diff_served(opts, &mut scraper, &dep.reference, &dep.transition, None, &mut out);
    if counters.shed + counters.queue_rejections > 0 {
        out.problem(format!(
            "server shed {} requests and rejected {} at admission",
            counters.shed, counters.queue_rejections
        ));
    }

    let shape = ModelShape {
        n,
        m: dep.edges,
        rank: dep.reference.rank(),
        artifact_bytes: dep.artifact_bytes,
    };
    out.env = env::block(
        &opts.root,
        opts.workload.name(),
        opts.seed,
        opts.trace,
        &ServeConfig::default(),
        shape,
    );
    out.end_to_end = end_to_end(&out, &phase, avg_diff);
    report_phase(opts, &phase, &mut out);

    if opts.trace {
        let mut spans = rec.into_spans();
        spans.extend(std::mem::take(&mut phase.spans));
        let served = persist::load_model_with(&dep.artifact, csrplus_store::Backend::Mmap)
            .map_err(|e| format!("replay load failed: {e}"))?;
        let mut replay = Recorder::new(true, epoch, 1000);
        replay_reads(opts, served, &hot, &mut replay);
        spans.extend(replay.into_spans());
        out.per_layer = per_layer(&spans, &dep.stats, dep.artifact_bytes, &counters, &phase);
        out.spans = spans;
    }
    let Deployment { server, artifact, .. } = dep;
    server.shutdown();
    let _ = std::fs::remove_file(artifact);
    Ok(out)
}

/// One seeded read stream per client connection; `base` picks warm-up
/// or timed traffic.
fn read_streams(opts: &Options, n: usize, hot: &[usize], base: u64) -> Vec<ReadStream> {
    (0..opts.sizes.connections as u64)
        .map(|c| {
            let r = rng(opts, base + c);
            ReadStream::new(opts.workload, r, n, hot.to_vec(), opts.sizes.sources)
        })
        .collect()
}

/// Requests `/topk` for every node of `nodes` once, split across the
/// client connections.
fn prefill(addr: SocketAddr, nodes: &[usize], sizes: &Sizes) -> Phase {
    let lanes = sizes.connections.max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..lanes)
            .map(|c| {
                s.spawn(move || {
                    let mut client = Client::new(addr, CLIENT_TIMEOUT);
                    let mut off = Recorder::new(false, Instant::now(), 0);
                    let mut phase = Phase::default();
                    for &q in nodes.iter().skip(c).step_by(lanes) {
                        let target = Read::TopK(q).target(sizes.k);
                        phase.exchange(&mut off, 0, || client.get(&target));
                    }
                    phase
                })
            })
            .collect();
        let mut all = Phase::default();
        for h in handles {
            all.merge(h.join().expect("prefill thread panicked"));
        }
        all
    })
}

/// The AvgDiff sample: the same node ids on every run, so AvgDiff
/// depends on the model alone, not on which nodes a seed picks.
fn avg_diff_sample(sizes: &Sizes, n: usize) -> Vec<usize> {
    Rng::new(0, stream::AVG_DIFF).distinct(sizes.avg_diff_sample.min(n), n)
}

/// The `/metrics` route name of a workload's reads.
fn route_name(workload: Workload) -> &'static str {
    match workload {
        Workload::MultiSrc => "query",
        _ => "topk",
    }
}

/// Drives every stream closed-loop for `length`, one thread per
/// connection.  With `trace` set, spans are recorded against that epoch.
fn drive_reads(
    addr: SocketAddr,
    streams: Vec<ReadStream>,
    sizes: &Sizes,
    length: Duration,
    trace: Option<Instant>,
) -> Phase {
    let start = Instant::now();
    let until = start + length;
    csrplus_memtrack::reset_peak();
    std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, mut reads)| {
                s.spawn(move || {
                    let lane = c as u64 + 1;
                    let mut rec = Recorder::new(trace.is_some(), trace.unwrap_or(start), lane);
                    let mut client = Client::new(addr, CLIENT_TIMEOUT);
                    let mut phase = Phase::default();
                    let mut i = 0u64;
                    while Instant::now() < until {
                        let read = reads.next_read();
                        let target = read.target(sizes.k);
                        let request = (lane << 40) | i;
                        i += 1;
                        if let Some(reply) =
                            phase.exchange(&mut rec, request, || client.get(&target))
                        {
                            phase.read_ms.push(reply.latency_ms());
                            phase.served.push((read, reply.body_hash, 0));
                        }
                    }
                    phase.spans = rec.into_spans();
                    phase
                })
            })
            .collect();
        let parts: Vec<Phase> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        // Read the clocks before merging, so the merge's own copies count
        // neither as phase time nor as phase memory.
        let wall_s = start.elapsed().as_secs_f64();
        let peak_mb = mb(csrplus_memtrack::peak_bytes());
        let mut all = Phase { start: Some(start), wall_s, peak_mb, ..Phase::default() };
        for part in parts {
            all.merge(part);
        }
        all
    })
}

/// Checks served replies byte for byte against bodies rendered from the
/// reference model: every topk-hot reply, and an evenly spaced sample of
/// topk-miss and multi-src replies.
fn check_serving(
    opts: &Options,
    reference: &CsrPlusModel,
    hot: &[usize],
    phase: &Phase,
    out: &mut Outcome,
) {
    let sizes = &opts.sizes;
    let mut scratch = DenseMatrix::zeros(0, 0);
    let mut expected = |read: &Read| -> u64 {
        body_hash(answer(reference, read, sizes.k, None, &mut scratch).as_bytes())
    };
    let checks = match opts.workload {
        Workload::TopkHot => {
            let hashes: std::collections::HashMap<usize, u64> =
                hot.iter().map(|&q| (q, expected(&Read::TopK(q)))).collect();
            for (read, hash, _) in &phase.served {
                let q = read.nodes()[0];
                if hashes.get(&q) != Some(hash) {
                    out.failed += 1;
                    out.problem(format!("topk-hot reply for node {q} differs from the reference"));
                }
            }
            return;
        }
        Workload::MultiSrc => sizes.query_checks,
        _ => sizes.topk_checks,
    };
    let stride = phase.served.len().div_ceil(checks.max(1)).max(1);
    for (read, hash, _) in phase.served.iter().step_by(stride) {
        if expected(read) != *hash {
            out.failed += 1;
            out.problem(format!("reply to {} differs from the reference", read.target(sizes.k)));
        }
    }
}

/// The body the server must send for `read` against `model`, rendered
/// through the same public calls it composes.
fn answer(
    model: &CsrPlusModel,
    read: &Read,
    k: usize,
    epoch: Option<u64>,
    scratch: &mut DenseMatrix,
) -> String {
    let columns = model.query_columns_into(read.nodes(), scratch).expect("in-range reads");
    let body = match read {
        Read::TopK(q) => render::topk(*q, &render::top_k_from_column(&columns[0], *q, k)),
        Read::Query(nodes) => {
            let views: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
            render::query(nodes, &views)
        }
    };
    match epoch {
        Some(e) => render::with_epoch(body, e),
        None => body,
    }
}

/// Fetches the AvgDiff sample's columns from the server with one
/// `/query`, requires them to equal `model`'s bit for bit, and returns
/// their AvgDiff against `core::exact` on `transition`.
fn avg_diff_served(
    opts: &Options,
    client: &mut Client,
    model: &CsrPlusModel,
    transition: &TransitionMatrix,
    epoch: Option<u64>,
    out: &mut Outcome,
) -> f64 {
    let n = model.n();
    let sample = avg_diff_sample(&opts.sizes, n);
    let read = Read::Query(sample.clone());
    out.attempted += 1;
    let mut scratch = DenseMatrix::zeros(0, 0);
    let expected = body_hash(answer(model, &read, opts.sizes.k, epoch, &mut scratch).as_bytes());
    match client.get(&read.target(opts.sizes.k)) {
        Ok(reply) if reply.status == 200 && reply.body_hash == expected => {}
        Ok(reply) => {
            out.failed += 1;
            out.problem(format!("AvgDiff sample: HTTP {} or columns differ", reply.status));
        }
        Err(e) => {
            out.failed += 1;
            out.problem(format!("AvgDiff sample: {e}"));
        }
    }
    avg_diff_of(model, transition, &sample)
}

// ---------------------------------------------------------------------
// ingest-mix.

/// A live-ingesting server and its graph.
struct IngestDeployment {
    graph: csrplus_graph::DiGraph,
    config: DynamicConfig,
    server: ServerHandle,
}

fn ingest_config(sizes: &Sizes) -> DynamicConfig {
    // No automatic re-factorisation: every update takes the incremental
    // path, so the planned rebuild count is exactly zero.
    DynamicConfig {
        base: CsrPlusConfig::with_rank(sizes.ingest_rank),
        refresh_interval: usize::MAX,
    }
}

fn deploy_ingest(opts: &Options, rec: &mut Recorder) -> Result<IngestDeployment, String> {
    let setup = rec.next_id();
    let start = Instant::now();
    let graph =
        rec.time("graph.generate", setup, 0, || dataset(opts.sizes.ingest_graph, opts.sizes.scale));
    let config = ingest_config(&opts.sizes);
    let dynamic = rec
        .time("core.dynamic.new", setup, 0, || DynamicCsrPlus::new(&graph, config))
        .map_err(|e| format!("DynamicCsrPlus::new failed: {e}"))?;
    let server = rec
        .time("serve.server.start_ingesting", setup, 0, || {
            Server::start_ingesting(dynamic, 0, ServeConfig::default(), IngestConfig::default())
        })
        .map_err(|e| format!("Server::start_ingesting failed: {e}"))?;
    rec.record(setup, "bench.setup", 0, 0, start, Instant::now());
    Ok(IngestDeployment { graph, config, server })
}

fn run_ingest(opts: &Options) -> Result<Outcome, String> {
    let sizes = &opts.sizes;
    let epoch = Instant::now();
    let mut out = Outcome::default();
    let mut rec = Recorder::new(opts.trace, epoch, 0);
    let reps = if opts.trace { 1 } else { sizes.ingest_setup_reps };
    let dep = set_up(reps, &mut out, || deploy_ingest(opts, &mut rec))?;
    let addr = dep.server.addr();
    let n = dep.graph.num_nodes();
    let hot = rng(opts, stream::HOT).distinct(sizes.ingest_hot.min(n), n);

    // Warm-up reads the hot set at epoch 0; nothing is published yet.
    let mut client = Client::new(addr, CLIENT_TIMEOUT);
    let mut warm = Phase::default();
    let mut off = Recorder::new(false, epoch, 0);
    let warm_until = Instant::now() + sizes.warmup;
    while Instant::now() < warm_until {
        for &q in &hot {
            let target = Read::TopK(q).target(sizes.k);
            warm.exchange(&mut off, 0, || client.get(&target));
        }
    }

    let mut scraper = Client::new(addr, CLIENT_TIMEOUT);
    let before = scrape(&mut scraper)?;
    let edits = EditStream::new(&dep.graph, rng(opts, stream::EDITS));
    let seconds = Duration::from_secs_f64(opts.seconds);
    let mut phase =
        drive_ingest(opts, &mut client, &hot, edits, seconds, opts.trace.then_some(epoch));
    let after = scrape(&mut scraper)?;
    let counters = Counters::delta(&before, &after, "topk");
    let cycles = phase.edits.len() as u64;

    out.attempted = warm.attempted + phase.attempted;
    out.failed = warm.failed + phase.failed;
    out.problems.extend(warm.problems.iter().chain(&phase.problems).cloned());
    if (counters.updates_applied, counters.epochs, counters.rebuilds) != (cycles, cycles, 0) {
        out.problem(format!(
            "server applied {} updates over {} epochs with {} rebuilds; planned {cycles}, {cycles}, 0",
            counters.updates_applied, counters.epochs, counters.rebuilds
        ));
    }

    // The twin: an independently built DynamicCsrPlus replaying the same
    // edits must reproduce every served answer bit for bit.
    let mut twin = DynamicCsrPlus::new(&dep.graph, dep.config)
        .map_err(|e| format!("twin DynamicCsrPlus::new failed: {e}"))?;
    let mut replay = Recorder::new(opts.trace, epoch, 1000);
    let stats = if opts.trace {
        // What DynamicCsrPlus::new composes, spanned call by call.
        replay_precompute(&dep.graph, &dep.config.base, &mut replay)?
    } else {
        PrecomputeStats::default()
    };
    replay_ingest(opts, &mut twin, &hot, &phase, &mut replay, &mut out);

    // The server, idle since the timed phase, still holds the final epoch:
    // its answers must equal the twin's, and AvgDiff is taken against the
    // exact scores of the final graph.
    let transition = TransitionMatrix::from_graph(&twin.to_graph());
    let avg_diff =
        avg_diff_served(opts, &mut client, twin.model(), &transition, Some(cycles), &mut out);
    dep.server.shutdown();

    out.env = env::block(
        &opts.root,
        opts.workload.name(),
        opts.seed,
        opts.trace,
        &ServeConfig::default(),
        ModelShape { n, m: dep.graph.num_edges(), rank: twin.model().rank(), artifact_bytes: 0 },
    );
    out.end_to_end = end_to_end(&out, &phase, avg_diff);
    report_phase(opts, &phase, &mut out);
    if opts.trace {
        let mut spans = rec.into_spans();
        spans.extend(std::mem::take(&mut phase.spans));
        spans.extend(replay.into_spans());
        out.per_layer = per_layer(&spans, &stats, 0, &counters, &phase);
        out.spans = spans;
    }
    Ok(out)
}

/// AvgDiff of `model`'s columns for `sample` against `core::exact`.
fn avg_diff_of(model: &CsrPlusModel, transition: &TransitionMatrix, sample: &[usize]) -> f64 {
    let columns = model.query_columns(sample).expect("in-range sample");
    let config = model.config();
    let mut total = 0.0;
    for (&q, column) in sample.iter().zip(&columns) {
        let exact =
            csrplus_core::exact::single_source(transition, q, config.damping, config.epsilon);
        total += column.iter().zip(&exact).map(|(a, b)| (a - b).abs()).sum::<f64>();
    }
    total / (model.n() * sample.len()) as f64
}

/// The ingest-mix cycle, closed-loop on one connection: one `POST
/// /edges` with a single edit that changes the graph, then every hot
/// node read `ingest_reads_per_node` times in a seeded order.  The first
/// read of each node after an update misses the cache (its epoch moved
/// on); the rest hit.
fn drive_ingest(
    opts: &Options,
    client: &mut Client,
    hot: &[usize],
    mut edits: EditStream,
    length: Duration,
    trace: Option<Instant>,
) -> Phase {
    let sizes = &opts.sizes;
    let start = Instant::now();
    let until = start + length;
    let mut order_rng = rng(opts, stream::TIMED);
    let mut rec = Recorder::new(trace.is_some(), trace.unwrap_or(start), 1);
    let mut phase = Phase::default();
    let mut request = 1u64 << 40;
    csrplus_memtrack::reset_peak();
    'cycles: while Instant::now() < until {
        let edit = edits.next_edit();
        let epoch = phase.edits.len() as u64 + 1;
        phase.edits.push(edit);
        request += 1;
        let body = edit.body();
        if let Some(reply) = phase.exchange(&mut rec, request, || client.post("/edges", &body)) {
            phase.update_ms.push(reply.latency_ms());
            let expected = format!("{{\"applied\":1,\"ignored\":0,\"epoch\":{epoch}}}");
            if reply.body_hash != body_hash(expected.as_bytes()) {
                phase.fail(format!("POST /edges #{epoch} was not applied as epoch {epoch}"));
            }
        }
        let mut order = hot.to_vec();
        for i in (1..order.len()).rev() {
            order.swap(i, order_rng.below(i + 1));
        }
        for _ in 0..sizes.ingest_reads_per_node {
            for &q in &order {
                if Instant::now() >= until {
                    break 'cycles;
                }
                let read = Read::TopK(q);
                let target = read.target(sizes.k);
                request += 1;
                if let Some(reply) = phase.exchange(&mut rec, request, || client.get(&target)) {
                    phase.read_ms.push(reply.latency_ms());
                    phase.served.push((read, reply.body_hash, epoch));
                }
            }
        }
    }
    phase.start = Some(start);
    phase.wall_s = start.elapsed().as_secs_f64();
    phase.peak_mb = mb(csrplus_memtrack::peak_bytes());
    phase.spans = rec.into_spans();
    phase
}

/// Replays the sent edits on the twin, publishing each version through a
/// local `SnapshotHandle` as the server's update thread does, and checks
/// every read served in each epoch against the body the twin renders.
fn replay_ingest(
    opts: &Options,
    twin: &mut DynamicCsrPlus,
    hot: &[usize],
    phase: &Phase,
    rec: &mut Recorder,
    out: &mut Outcome,
) {
    let k = opts.sizes.k;
    let handle = SnapshotHandle::new(Arc::new(twin.model().clone()));
    let mut replayer = Replayer::new(true);
    let mut served = phase.served.iter().peekable();
    let mut request = 2000u64 << 40;
    for (i, edit) in phase.edits.iter().enumerate() {
        let epoch = i as u64 + 1;
        let update = rec.next_id();
        let start = Instant::now();
        let changed = rec.time("core.dynamic.update", update, 0, || {
            if edit.insert {
                twin.insert_edge(edit.x, edit.y)
            } else {
                twin.remove_edge(edit.x, edit.y)
            }
        });
        if !matches!(changed, Ok(true)) {
            out.problem(format!("twin could not apply edit {edit:?}: {changed:?}"));
            return;
        }
        let published = rec.time("serve.snapshot.publish", update, 0, || {
            handle.publish(Arc::new(twin.model().clone()))
        });
        rec.record(update, "replay.update", 0, 0, start, Instant::now());
        if published != epoch {
            out.problem(format!("local publish gave epoch {published}, expected {epoch}"));
        }
        let snapshot = handle.load();
        while let Some((read, hash, _)) = served.next_if(|(_, _, e)| *e == epoch) {
            request += 1;
            let body = replayer.read(&snapshot, read, k, rec, request);
            if body_hash(body.as_bytes()) != *hash {
                out.failed += 1;
                out.problem(format!(
                    "epoch {epoch} reply for node {} differs from the twin",
                    read.nodes()[0]
                ));
            }
        }
    }
    if served.next().is_some() {
        out.problem("reads served in an epoch that no edit produced".to_string());
    }
    if rec.enabled() {
        let nodes: Vec<usize> =
            hot.iter().copied().cycle().take(8 * opts.sizes.replay_batches).collect();
        replay_batches(twin.model(), &nodes, opts.sizes.replay_batches, rec);
    }
}

// ---------------------------------------------------------------------
// In-process replay (traced runs).

/// The precompute that `DynamicCsrPlus::new` performs internally,
/// spanned call by call, so ingest-mix reports the same set-up layers as
/// the read-only workloads.
fn replay_precompute(
    graph: &csrplus_graph::DiGraph,
    config: &CsrPlusConfig,
    rec: &mut Recorder,
) -> Result<PrecomputeStats, String> {
    let root = rec.next_id();
    let start = Instant::now();
    let t = rec.time("graph.transition", root, 0, || TransitionMatrix::from_graph(graph));
    let svd = rec
        .time("linalg.svd", root, 0, || {
            csrplus_linalg::randomized::randomized_svd(&t, &config.svd_config())
        })
        .map_err(|e| format!("SVD failed: {e}"))?;
    let (_, stats) = rec
        .time("core.model.from_svd", root, 0, || CsrPlusModel::from_svd_with_stats(config, &svd))
        .map_err(|e| format!("memoisation failed: {e}"))?;
    rec.record(root, "replay.precompute", 0, 0, start, Instant::now());
    Ok(stats)
}

/// The in-process stand-in for one server: the public calls it composes
/// for a read, over a column cache shaped like the default server's.
struct Replayer {
    cache: ColumnCache,
    scratch: DenseMatrix,
    /// Stamp the epoch into bodies, as an ingesting server does.
    stamp_epoch: bool,
}

impl Replayer {
    fn new(stamp_epoch: bool) -> Self {
        let config = ServeConfig::default();
        let cache =
            ColumnCache::new(config.cache_capacity, config.cache_shards, Arc::new(Metrics::new()));
        Replayer { cache, scratch: DenseMatrix::zeros(0, 0), stamp_epoch }
    }

    /// One read against `snapshot`: request-line parse, cache lookup,
    /// evaluation and cache fill on a miss, top-k selection or
    /// multi-column render, epoch stamp, response write into a sink.
    /// Returns the body.
    fn read(
        &mut self,
        snapshot: &Snapshot,
        read: &Read,
        k: usize,
        rec: &mut Recorder,
        request: u64,
    ) -> String {
        let root = rec.next_id();
        let start = Instant::now();
        let line = format!("GET {} HTTP/1.1", read.target(k));
        let parsed = rec.time("serve.http.parse", root, request, || {
            http::parse_request_line_methods(&line, &["GET", "POST"])
        });
        debug_assert!(parsed.is_ok(), "{line}");
        let (model, epoch) = (snapshot.model(), snapshot.epoch());
        let mut columns: Vec<Column> = Vec::with_capacity(read.nodes().len());
        for &q in read.nodes() {
            let cached = rec.time("serve.cache.get", root, request, || self.cache.get(q, epoch));
            let column = match cached {
                Some(column) => column,
                None => {
                    let scratch = &mut self.scratch;
                    let column: Column = rec.time("core.model.eval_b1", root, request, || {
                        model
                            .query_columns_into(&[q], scratch)
                            .expect("in-range read")
                            .remove(0)
                            .into()
                    });
                    rec.time("serve.cache.insert", root, request, || {
                        self.cache.insert(q, epoch, Arc::clone(&column))
                    });
                    column
                }
            };
            columns.push(column);
        }
        let body = match read {
            Read::TopK(q) => {
                let top = rec.time("serve.render.select", root, request, || {
                    render::top_k_from_column(&columns[0], *q, k)
                });
                rec.time("serve.render.topk", root, request, || render::topk(*q, &top))
            }
            Read::Query(nodes) => {
                let views: Vec<&[f64]> = columns.iter().map(|c| &c[..]).collect();
                rec.time("serve.render.query", root, request, || render::query(nodes, &views))
            }
        };
        let body = if self.stamp_epoch {
            rec.time("serve.render.epoch", root, request, || render::with_epoch(body, epoch))
        } else {
            body
        };
        let written = rec.time("serve.http.write", root, request, || {
            http::write_response(std::io::sink(), 200, &body)
        });
        debug_assert!(written.is_ok());
        rec.record(root, "replay.request", 0, request, start, Instant::now());
        body
    }
}

/// Replays the start of a read-only workload's timed sequence, the
/// connections' streams interleaved, then times batched evaluations
/// over the same nodes.
fn replay_reads(opts: &Options, model: CsrPlusModel, hot: &[usize], rec: &mut Recorder) {
    let sizes = &opts.sizes;
    let snapshot = Snapshot::new(0, Arc::new(model));
    let mut replayer = Replayer::new(false);
    if opts.workload == Workload::TopkHot {
        let mut off = Recorder::new(false, Instant::now(), 0);
        for &q in hot {
            replayer.read(&snapshot, &Read::TopK(q), sizes.k, &mut off, 0);
        }
    }
    let mut streams = read_streams(opts, snapshot.model().n(), hot, stream::TIMED);
    let count = match opts.workload {
        Workload::MultiSrc => sizes.replay_queries,
        _ => sizes.replay_requests,
    };
    let mut nodes = Vec::new();
    for i in 0..count {
        let lanes = streams.len();
        let read = streams[i % lanes].next_read();
        nodes.extend_from_slice(read.nodes());
        replayer.read(&snapshot, &read, sizes.k, rec, (3000u64 << 40) + i as u64);
    }
    while !nodes.is_empty() && nodes.len() < 8 * sizes.replay_batches {
        nodes.extend_from_within(..);
    }
    replay_batches(snapshot.model(), &nodes, sizes.replay_batches, rec);
}

/// Evaluates `batches` batches of 1, 2 and 8 consecutive nodes.
fn replay_batches(model: &CsrPlusModel, nodes: &[usize], batches: usize, rec: &mut Recorder) {
    let mut scratch = DenseMatrix::zeros(0, 0);
    for (size, name) in
        [(1, "core.model.eval_b1"), (2, "core.model.eval_b2"), (8, "core.model.eval_b8")]
    {
        for chunk in nodes.chunks_exact(size).take(batches) {
            let _ = rec.time(name, 0, 0, || model.query_columns_into(chunk, &mut scratch));
        }
    }
}

// ---------------------------------------------------------------------
// Server counters and metrics.

/// `/metrics` counters accumulated over the timed phase.
#[derive(Debug, Default, Clone)]
struct Counters {
    route_requests: f64,
    route_latency_sum_us: f64,
    evaluations: f64,
    /// Batch-size histogram: `(bucket upper bound, count)`.
    batch_buckets: Vec<(f64, f64)>,
    hits: f64,
    misses: f64,
    evictions: f64,
    shed: u64,
    queue_rejections: u64,
    epochs: u64,
    updates_applied: u64,
    rebuilds: u64,
}

impl Counters {
    fn delta(before: &Json, after: &Json, route: &str) -> Counters {
        let d = |path: &str| after.num(path) - before.num(path);
        let route_path = |leaf: &str| format!("routes.{route}.{leaf}");
        let before_buckets = before.numbers("batcher.batch_sizes.buckets");
        let mut batch_buckets: Vec<(f64, f64)> = after
            .numbers("batcher.batch_sizes.buckets")
            .into_iter()
            .filter_map(|(name, count)| {
                let bound: f64 = name.strip_prefix("le_")?.parse().ok()?;
                let prior = before_buckets.iter().find(|(b, _)| *b == name).map_or(0.0, |p| p.1);
                Some((bound, count - prior))
            })
            .collect();
        batch_buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        Counters {
            route_requests: d(&route_path("requests")),
            route_latency_sum_us: d(&route_path("latency_us.sum")),
            evaluations: d("batcher.model_evaluations"),
            batch_buckets,
            hits: d("cache.hits"),
            misses: d("cache.misses"),
            evictions: d("cache.evictions"),
            shed: d("shed.total") as u64,
            queue_rejections: d("errors.queue_rejections") as u64,
            epochs: d("ingest.epochs_published") as u64,
            updates_applied: d("ingest.updates_applied") as u64,
            rebuilds: d("ingest.rebuilds") as u64,
        }
    }

    /// Median batch size: the upper bound of the bucket holding the
    /// middle evaluation (exact for sizes 1 and 2).
    fn batch_p50(&self) -> f64 {
        let total: f64 = self.batch_buckets.iter().map(|b| b.1).sum();
        let mut seen = 0.0;
        for &(bound, count) in &self.batch_buckets {
            seen += count;
            if count > 0.0 && seen >= total / 2.0 {
                return bound;
            }
        }
        0.0
    }
}

fn scrape(client: &mut Client) -> Result<Json, String> {
    let reply = client.get("/metrics").map_err(|e| format!("GET /metrics failed: {e}"))?;
    if reply.status != 200 {
        return Err(format!("GET /metrics answered {}", reply.status));
    }
    let body = std::str::from_utf8(client.last_body()).map_err(|e| e.to_string())?;
    Json::parse(body).map_err(|e| format!("unparsable /metrics: {e}"))
}

fn end_to_end(out: &Outcome, phase: &Phase, avg_diff: f64) -> Vec<Metric> {
    let mut reads = phase.read_ms.clone();
    reads.sort_by(f64::total_cmp);
    let completed = phase.responses as f64;
    vec![
        metric("setup_s", stats::median(&out.setup_s).unwrap_or(0.0), "s"),
        metric("setup_peak_mb", stats::median(&out.setup_peak_mb).unwrap_or(0.0), "MB"),
        metric("serve_peak_mb", phase.peak_mb, "MB"),
        metric("throughput_rps", completed / phase.wall_s.max(1e-9), "1/s"),
        metric("p50_ms", stats::percentile_sorted(&reads, 0.5).unwrap_or(0.0), "ms"),
        metric("p90_ms", stats::percentile_sorted(&reads, 0.9).unwrap_or(0.0), "ms"),
        metric("avg_diff", avg_diff, "score"),
    ]
}

/// Human-readable lines about the timed phase beyond the metrics.
fn report_phase(opts: &Options, phase: &Phase, out: &mut Outcome) {
    let mut reads = phase.read_ms.clone();
    reads.sort_by(f64::total_cmp);
    out.report.push(format!(
        "timed phase: {:.3} s, {} reads, {} updates, {} response bytes",
        phase.wall_s,
        reads.len(),
        phase.update_ms.len(),
        phase.response_bytes
    ));
    out.report.push(format!("completions per second: {:?}", window_rates(phase, 1.0)));
    match stats::supported_tail(&reads) {
        Some((q, v)) => out.report.push(format!(
            "read tail (diagnostic): {} = {v:.4} ms over {} samples",
            stats::percentile_name(q),
            reads.len()
        )),
        None => out.report.push(format!("read tail: too few samples ({})", reads.len())),
    }
    if opts.workload == Workload::IngestMix {
        let mut updates = phase.update_ms.clone();
        updates.sort_by(f64::total_cmp);
        out.report.push(format!(
            "updates: p50 {:.4} ms, p90 {:.4} ms over {} POST /edges",
            stats::percentile_sorted(&updates, 0.5).unwrap_or(0.0),
            stats::percentile_sorted(&updates, 0.9).unwrap_or(0.0),
            updates.len()
        ));
    }
    out.report.push(format!("setup reps: {:?} s, peaks {:?} MB", out.setup_s, out.setup_peak_mb));
}

/// Completions per `window`-second slice of the timed phase (whole
/// windows only).
fn window_rates(phase: &Phase, window: f64) -> Vec<f64> {
    let Some(start) = phase.start else { return Vec::new() };
    let windows = (phase.wall_s / window).floor() as usize;
    let mut counts = vec![0u64; windows];
    for t in &phase.done {
        let i = ((*t - start).as_secs_f64() / window) as usize;
        if let Some(c) = counts.get_mut(i) {
            *c += 1;
        }
    }
    counts.into_iter().map(|c| c as f64 / window).collect()
}

fn per_layer(
    spans: &[Span],
    stats: &PrecomputeStats,
    artifact_bytes: u64,
    c: &Counters,
    phase: &Phase,
) -> Vec<Metric> {
    let p50 = |name| trace::p50_us(spans, name);
    let total = |name| trace::total_s(spans, name);
    let mut updates = phase.update_ms.clone();
    updates.sort_by(f64::total_cmp);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    vec![
        metric("graph.build_s", total("graph.generate") + total("graph.transition"), "s"),
        metric("linalg.svd_s", total("linalg.svd"), "s"),
        metric("core.subspace_s", stats.subspace.as_secs_f64(), "s"),
        metric("core.memoise_s", stats.memoise.as_secs_f64(), "s"),
        metric("core.eval_b1_us", p50("core.model.eval_b1"), "us"),
        metric("core.eval_b2_us", p50("core.model.eval_b2"), "us"),
        metric("core.eval_b8_us", p50("core.model.eval_b8"), "us"),
        metric("store.write_s", total("store.write"), "s"),
        metric("store.artifact_mb", artifact_bytes as f64 / 1e6, "MB"),
        metric("store.open_ms", total("store.open") * 1e3, "ms"),
        metric("http.connect_us", p50("http.connect"), "us"),
        metric("http.ttfb_us", p50("http.ttfb"), "us"),
        metric("http.body_us", p50("http.body"), "us"),
        metric("http.parse_us", p50("serve.http.parse"), "us"),
        metric(
            "http.response_bytes",
            ratio(phase.response_bytes as f64, phase.responses as f64),
            "bytes",
        ),
        metric("pool.shed", c.shed as f64, "count"),
        metric("pool.queue_rejections", c.queue_rejections as f64, "count"),
        metric("batcher.evals_per_request", ratio(c.evaluations, c.route_requests), "ratio"),
        metric("batcher.batch_p50", c.batch_p50(), "count"),
        metric("cache.hit_rate", ratio(c.hits, c.hits + c.misses), "ratio"),
        metric("cache.evictions", c.evictions, "count"),
        metric("cache.get_us", p50("serve.cache.get"), "us"),
        metric("render.select_us", p50("serve.render.select"), "us"),
        metric("render.topk_us", p50("serve.render.topk"), "us"),
        metric("render.query_us", p50("serve.render.query"), "us"),
        metric("server.route_mean_us", ratio(c.route_latency_sum_us, c.route_requests), "us"),
        metric("dynamic.update_ms", p50("core.dynamic.update") / 1e3, "ms"),
        metric("snapshot.publish_ms", p50("serve.snapshot.publish") / 1e3, "ms"),
        metric("ingest.epochs", c.epochs as f64, "count"),
        metric("ingest.updates_applied", c.updates_applied as f64, "count"),
        metric("ingest.rebuilds", c.rebuilds as f64, "count"),
        metric(
            "ingest.update_p50_ms",
            stats::percentile_sorted(&updates, 0.5).unwrap_or(0.0),
            "ms",
        ),
        metric(
            "ingest.update_p90_ms",
            stats::percentile_sorted(&updates, 0.9).unwrap_or(0.0),
            "ms",
        ),
    ]
}
