//! The pooled server: accept loop → bounded admission queue → worker
//! pool, with the micro-[`batcher`](crate::batcher) and the answer
//! [`cache`](crate::cache) behind the query routes and [`Metrics`] at
//! `GET /metrics`.
//!
//! Each route computes only what it returns: `/similarity` one `O(r)`
//! dot product; `/topk` and `/shard/topk` a cached ranked list, or on a
//! miss one batched column and a selection; `/query` and
//! `/shard/columns` the batched columns they render.
//!
//! Routes: `/health`, `/similarity`, `/topk`, `/query` and `/metrics`
//! (plus the `/shard/*` routes and `POST /edges` in their roles).  Every
//! query body is byte-identical to rendering [`CsrPlusModel`]'s own
//! answer through [`crate::render`].
//!
//! Every request loads one epoch-versioned snapshot from the
//! [`SnapshotHandle`] up front and answers entirely against it, so a
//! response can never mix two model versions even while the live
//! ingestion thread ([`Server::start_ingesting`], `POST /edges`) is
//! publishing new epochs mid-flight.  With ingestion off the handle
//! stays at epoch 0 forever and bodies are byte-identical to the
//! static-model server.

use crate::batcher::{Batcher, ColumnError};
use crate::cache::{AnswerCache, Column};
use crate::coordinator::Coordinator;
use crate::gauge::LoadGauge;
use crate::http::{self, Target};
use crate::ingest::{self, IngestConfig, Ingestor};
use crate::metrics::{Metrics, Route};
use crate::pool::WorkerPool;
use crate::render;
use crate::snapshot::{Snapshot, SnapshotHandle};
use csrplus_core::dynamic::DynamicCsrPlus;
use csrplus_core::topk::{select_top_k, top_k_from_column};
use csrplus_core::{CsrPlusModel, DenseMatrix, Query};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Most score cells (`|Q| × n`) one `/query` or `/shard/columns`
/// request may ask for.  The head cap bounds the node list's bytes, not
/// the body it expands to: without this bound ~32k ids over a 70k-node
/// model render tens of GB.  At the limit one request holds 32 MiB of
/// `f64` columns and renders about 97 MB of JSON (a `/query` score
/// takes about 23 bytes, a hex `/shard/columns` one 16), and each
/// worker serves one request at a time, so a server's worst case is
/// `workers` times that.  Multi-source batches stay 7× inside it
/// (`8 × 70,930` is 567k cells).
const MAX_QUERY_CELLS: usize = 1 << 22;

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads serving requests.
    pub workers: usize,
    /// Bounded admission queue depth; connections beyond it get `503`.
    pub queue_depth: usize,
    /// Maximum `|Q|` coalesced into one multi-source evaluation.
    pub max_batch: usize,
    /// How long the first request of a batch waits for company.
    pub linger: Duration,
    /// Answer-cache capacity in ranked top-k answers of at most
    /// [`MAX_CACHED_ANSWER`](crate::cache::MAX_CACHED_ANSWER) pairs (`0` disables the cache).
    pub cache_capacity: usize,
    /// Answer-cache shard count.
    pub cache_shards: usize,
    /// Per-request budget: socket reads/writes and column waits.
    pub timeout: Duration,
    /// Serve this many connections then exit (used by tests/benches).
    pub max_requests: Option<usize>,
    /// Shard mode: serve only internal rows `lo..hi` and expose the
    /// `/shard/*` routes (one shard of a scatter-gather deployment).
    pub shard_rows: Option<(usize, usize)>,
    /// Coordinator mode: fan queries out to these shard servers
    /// (`host:port`) instead of evaluating locally.  Empty ⇒ local.
    pub shards: Vec<String>,
    /// Coordinator: per-shard request budget.
    pub shard_timeout: Duration,
    /// Coordinator: delay before hedging a straggling shard request
    /// with a second identical one (zero disables hedging).
    pub hedge: Duration,
    /// TinyLFU admission control in front of the answer cache: an
    /// evicting insert must beat the LRU victim on estimated frequency
    /// or it is rejected.  Off ⇒ plain LRU (today's behaviour).
    pub cache_admission: bool,
    /// Scale the batch linger with admission-queue pressure: zero when
    /// the queue is idle, stretching toward `linger` as it fills.  Off
    /// ⇒ the fixed `linger` always applies.
    pub adaptive_linger: bool,
    /// Pressure-degraded rank: requests that opt in (`degraded=allow`
    /// or `max_rank=T`) are answered from at most this many factor
    /// columns while the queue is at the watermark.  `None` disables
    /// the policy (opt-in parameters are accepted but inert).
    pub degrade_rank: Option<usize>,
    /// Queue depth at or above which opted-in requests degrade.  The
    /// default `0` degrades every opted-in request once the policy is
    /// enabled (deterministic, and what a saturated queue converges to).
    pub degrade_watermark: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        // Size the HTTP worker pool from the shared `csrplus-par` limit
        // (available parallelism unless `set_threads` capped it) instead
        // of an independent hardware read: batch evaluation fans its
        // kernels out on that same pool, so an independent count would
        // oversubscribe the cores the kernels are already using.
        let workers = csrplus_par::threads();
        ServeConfig {
            workers,
            queue_depth: workers * 16,
            max_batch: 32,
            linger: Duration::from_micros(200),
            cache_capacity: 1024,
            cache_shards: 8,
            timeout: Duration::from_secs(5),
            max_requests: None,
            shard_rows: None,
            shards: Vec::new(),
            shard_timeout: Duration::from_secs(2),
            hedge: Duration::from_millis(50),
            cache_admission: false,
            adaptive_linger: false,
            degrade_rank: None,
            degrade_watermark: 0,
        }
    }
}

/// How queries are answered: locally (optionally over one row slice) or
/// by scatter-gathering over shard servers.
enum Engine {
    Local(Batcher),
    Sharded(Box<Coordinator>),
}

/// Everything a worker needs to answer one connection.
struct Ctx {
    /// The epoch-versioned model: workers `load()` it once per request
    /// and answer entirely against that snapshot.
    handle: Arc<SnapshotHandle>,
    engine: Engine,
    metrics: Arc<Metrics>,
    answers: AnswerCache,
    gauge: Arc<LoadGauge>,
    timeout: Duration,
    /// Set in shard mode: the internal row range this server owns.
    shard_rows: Option<(usize, usize)>,
    /// Pressure-degraded rank policy (see [`ServeConfig::degrade_rank`]).
    degrade_rank: Option<usize>,
    degrade_watermark: usize,
    /// The live update thread behind `POST /edges`; `None` means
    /// ingestion is off and responses never carry an epoch tag.
    ingest: Option<Ingestor>,
}

/// The pooled, batching server.  [`Server::start`] binds and returns a
/// [`ServerHandle`]; the accept loop runs on a background thread.
pub struct Server;

impl Server {
    /// Binds `127.0.0.1:port` (0 ⇒ ephemeral), announces the address on
    /// stdout (`listening on http://…`, the line the CLI harness
    /// parses), and starts accepting.
    pub fn start(
        model: CsrPlusModel,
        port: u16,
        config: ServeConfig,
    ) -> std::io::Result<ServerHandle> {
        Self::boot(SnapshotHandle::new(Arc::new(model)), port, config, None)
    }

    /// [`Server::start`] with live edge ingestion: the server boots from
    /// `dynamic`'s current model as epoch 0, accepts `POST /edges`, and
    /// a dedicated update thread publishes each applied batch as a new
    /// epoch.  Every response then carries an `"epoch"` field naming the
    /// snapshot it was answered from.
    pub fn start_ingesting(
        dynamic: DynamicCsrPlus,
        port: u16,
        config: ServeConfig,
        ingest: IngestConfig,
    ) -> std::io::Result<ServerHandle> {
        let handle = SnapshotHandle::new(dynamic.shared_model());
        Self::boot(handle, port, config, Some((dynamic, ingest)))
    }

    fn boot(
        handle: SnapshotHandle,
        port: u16,
        config: ServeConfig,
        ingest: Option<(DynamicCsrPlus, IngestConfig)>,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;

        let metrics = Arc::new(Metrics::new());
        let handle = Arc::new(handle);
        let gauge = Arc::new(LoadGauge::new(config.queue_depth));
        let answers = AnswerCache::with_admission(
            config.cache_capacity,
            config.cache_shards,
            Arc::clone(&metrics),
            config.cache_admission,
        );
        let boot_n = handle.load().model().n();
        if let Some((lo, hi)) = config.shard_rows {
            if lo > hi || hi > boot_n {
                return Err(std::io::Error::other(format!(
                    "shard row range {lo}..{hi} invalid for n = {boot_n}"
                )));
            }
        }
        let engine = if config.shards.is_empty() {
            Engine::Local(Batcher::new(
                Arc::clone(&metrics),
                config.max_batch,
                config.linger,
                config.shard_rows,
                config.adaptive_linger.then(|| Arc::clone(&gauge)),
            ))
        } else {
            Engine::Sharded(Box::new(
                Coordinator::connect(
                    Arc::clone(&handle),
                    &config.shards,
                    config.shard_timeout,
                    config.hedge,
                )
                .map_err(std::io::Error::other)?,
            ))
        };
        let ingest = ingest.map(|(dynamic, icfg)| {
            Ingestor::start(dynamic, Arc::clone(&handle), Arc::clone(&metrics), icfg)
        });
        let ctx = Arc::new(Ctx {
            handle,
            engine,
            metrics: Arc::clone(&metrics),
            answers,
            gauge: Arc::clone(&gauge),
            timeout: config.timeout,
            shard_rows: config.shard_rows,
            degrade_rank: config.degrade_rank,
            degrade_watermark: config.degrade_watermark,
            ingest,
        });
        let pool =
            Arc::new(WorkerPool::with_gauge(config.workers, config.queue_depth, Some(gauge)));
        let stop = Arc::new(AtomicBool::new(false));

        let accept = {
            let ctx = Arc::clone(&ctx);
            let pool = Arc::clone(&pool);
            let stop = Arc::clone(&stop);
            let max_requests = config.max_requests;
            std::thread::Builder::new()
                .name("csrplus-accept".to_string())
                .spawn(move || accept_loop(&listener, &ctx, &pool, &stop, max_requests))?
        };

        println!("listening on http://{addr}");
        use std::io::Write as _;
        std::io::stdout().flush().ok();

        Ok(ServerHandle {
            addr,
            metrics,
            stop,
            accept: Some(accept),
            pool: Some(pool),
            ctx: Some(ctx),
        })
    }
}

/// A running server: address, live metrics, and teardown.
pub struct ServerHandle {
    addr: SocketAddr,
    metrics: Arc<Metrics>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    pool: Option<Arc<WorkerPool>>,
    ctx: Option<Arc<Ctx>>,
}

impl ServerHandle {
    /// The bound address (useful with `port: 0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live metrics for this server.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// Blocks until the accept loop exits on its own (`max_requests`
    /// reached), then drains and tears down gracefully.
    pub fn join(mut self) {
        self.teardown();
    }

    /// Stops accepting, drains admitted connections, answers every
    /// pending batched request, and joins all threads.
    pub fn shutdown(mut self) {
        self.stop_accepting();
        self.teardown();
    }

    fn stop_accepting(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }

    fn teardown(&mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Drop order is the drain order: the pool first (its Drop joins
        // workers after the queue empties — in-flight requests may still
        // use the batcher), then the context (its Drop shuts the batcher
        // down, which answers anything still pending).
        self.pool.take();
        self.ctx.take();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_accepting();
        self.teardown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    ctx: &Arc<Ctx>,
    pool: &Arc<WorkerPool>,
    stop: &AtomicBool,
    max_requests: Option<usize>,
) {
    let served = AtomicUsize::new(0);
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                eprintln!("accept error: {e}");
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            return; // the wake-up connection itself
        }
        // Responses are one small write per request; without NODELAY,
        // Nagle holds the final segment until the peer ACKs (~40 ms
        // delayed-ACK class on loopback), dwarfing the evaluation.
        let _ = stream.set_nodelay(true);
        if !ctx.timeout.is_zero() {
            let _ = stream.set_read_timeout(Some(ctx.timeout));
            let _ = stream.set_write_timeout(Some(ctx.timeout));
        }
        let shed = stream.try_clone();
        let peer = stream.peer_addr();
        let job = {
            let ctx = Arc::clone(ctx);
            Box::new(move || handle_connection(&ctx, stream))
        };
        if let Err(job) = pool.try_submit(job) {
            // Shed load: answer 503 right here instead of queueing, with
            // `Retry-After` backpressure advice scaled to queue pressure
            // (a full queue advises a longer backoff than a closing one).
            ctx.metrics.queue_rejections.fetch_add(1, Ordering::Relaxed);
            ctx.metrics.shed_total.fetch_add(1, Ordering::Relaxed);
            // Fairness: a client that keeps getting shed is advised to
            // back off progressively harder than a first-time arrival —
            // every 4 sheds from the same peer adds a second.  The first
            // few sheds advise exactly what they always did.
            let client = peer.map(|a| a.ip().to_string()).unwrap_or_else(|_| "unknown".into());
            let client_sheds = ctx.metrics.record_shed_for_client(&client);
            let retry_s = 1
                + (ctx.gauge.depth() / ctx.gauge.capacity()) as u64
                + client_sheds.saturating_sub(1) / 4;
            ctx.metrics.shed_last_retry_after_s.store(retry_s, Ordering::Relaxed);
            if let Ok(stream) = shed {
                let _ =
                    http::write_error_retry_after(&stream, 503, "admission queue full", retry_s);
            }
            drop(job);
        }
        // Failed accepts deliberately don't count: a server bombarded
        // with bad connections must not exit before serving anything.
        let served_now = served.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(max) = max_requests {
            if served_now >= max {
                return;
            }
        }
    }
}

fn handle_connection(ctx: &Ctx, stream: TcpStream) {
    let start = Instant::now();
    let raw = match stream.try_clone().and_then(http::read_request_with_body) {
        Ok(raw) => raw,
        Err(_) => {
            ctx.metrics.io_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
    };
    let (route, result) = dispatch(ctx, raw.line.trim(), &raw.body, start);
    let outcome = match &result {
        Ok(body) => http::write_response(&stream, 200, body),
        Err((code, msg)) => {
            let class = if *code >= 500 || *code == 408 {
                &ctx.metrics.server_errors
            } else {
                &ctx.metrics.client_errors
            };
            class.fetch_add(1, Ordering::Relaxed);
            http::write_error(&stream, *code, msg)
        }
    };
    if outcome.is_err() {
        ctx.metrics.io_errors.fetch_add(1, Ordering::Relaxed);
    }
    if let Some(route) = route {
        ctx.metrics.record_request(route, start.elapsed());
    }
}

/// Routes one request.  Returns the [`Route`] (when recognised, for
/// metrics) and the response body or `(code, message)` error.
fn dispatch(
    ctx: &Ctx,
    request_line: &str,
    body: &str,
    start: Instant,
) -> (Option<Route>, Result<String, (u16, String)>) {
    let (method, target) = match http::parse_request_line_methods(request_line, &["GET", "POST"]) {
        Ok(t) => t,
        Err(e) => return (None, Err(e)),
    };
    let route = match target.path.as_str() {
        "/health" => Route::Health,
        "/metrics" => Route::Metrics,
        "/similarity" => Route::Similarity,
        "/topk" => Route::TopK,
        "/query" => Route::Query,
        "/shard/range" => Route::ShardRange,
        "/shard/columns" => Route::ShardColumns,
        "/shard/topk" => Route::ShardTopK,
        "/edges" => Route::Edges,
        other => return (None, Err((404, format!("no route {other:?}")))),
    };
    // `/edges` mutates and is POST-only; everything else is GET-only.
    let edges = matches!(route, Route::Edges);
    if edges != (method == "POST") {
        let err = (400, format!("method {method} not allowed for {}", target.path));
        return (Some(route), Err(err));
    }
    // ONE snapshot per request: every read below — bounds checks, rank
    // caps, column evaluation, rendering — sees the same model version
    // even if the ingest thread publishes mid-request.
    let snapshot = ctx.handle.load();
    let result = answer(ctx, &snapshot, route, &target, body, start);
    // With ingestion live, stamp the snapshot's epoch into every success
    // body except `/metrics` (which reports it in its ingest section)
    // and `/edges` (whose body already names the epoch it published).
    // With ingestion off nothing is stamped and bodies stay byte-
    // identical to the static-model server.
    let result = match result {
        Ok(body) if ctx.ingest.is_some() && !matches!(route, Route::Metrics | Route::Edges) => {
            Ok(render::with_epoch(body, snapshot.epoch()))
        }
        other => other,
    };
    (Some(route), result)
}

/// The HTTP status a failed column wait answers with.
fn status(e: ColumnError) -> (u16, String) {
    match e {
        ColumnError::Timeout => (408, e.to_string()),
        ColumnError::ShuttingDown => (503, e.to_string()),
        ColumnError::Panicked => (500, e.to_string()),
        ColumnError::Failed(msg) => (400, msg),
    }
}

fn answer(
    ctx: &Ctx,
    snapshot: &Arc<Snapshot>,
    route: Route,
    target: &Target,
    body: &str,
    start: Instant,
) -> Result<String, (u16, String)> {
    let model = snapshot.model();
    let parse_usize = |v: &str, key: &str| -> Result<usize, (u16, String)> {
        v.parse().map_err(|_| (400, format!("invalid {key}: {v:?}")))
    };
    // Bounded before any column is evaluated or any shard contacted,
    // so local, coordinator and shard roles share the one check.
    let parse_nodes = |target: &Target| -> Result<Vec<usize>, (u16, String)> {
        let nodes: Vec<usize> = target
            .require("nodes")?
            .split(',')
            .map(|v| v.parse::<usize>())
            .collect::<Result<_, _>>()
            .map_err(|_| (400, "invalid node list".to_string()))?;
        if nodes.len().saturating_mul(model.n()) > MAX_QUERY_CELLS {
            return Err((
                400,
                format!(
                    "{} nodes over {} rows exceeds the limit of {MAX_QUERY_CELLS} score cells",
                    nodes.len(),
                    model.n()
                ),
            ));
        }
        Ok(nodes)
    };
    // The column wait shares the request budget with socket I/O.  In
    // shard mode this hands back the server's partial (lo..hi) column.
    // Evaluation is pinned to *this request's* snapshot, not whatever
    // the handle points at by the time the batch runs.  A multi-node
    // route submits all its nodes as one batch.
    let columns = |nodes: &[usize], rank: Option<usize>| -> Result<Vec<Column>, (u16, String)> {
        let Engine::Local(batcher) = &ctx.engine else {
            unreachable!("columns() is only called on local engines")
        };
        let remaining = ctx.timeout.saturating_sub(start.elapsed());
        batcher.columns(Arc::clone(snapshot), nodes, rank, remaining).map_err(status)
    };
    let column = |node: usize, rank: Option<usize>| -> Result<Column, (u16, String)> {
        Ok(columns(&[node], rank)?.remove(0))
    };
    // Pressure-degraded rank.  Public routes opt in with
    // `degraded=allow` (server-chosen rank) and/or `max_rank=T` (client
    // cap); the policy engages only when enabled server-side and the
    // admission queue is at the watermark, and a request that actually
    // degraded says so with a `"served_rank"` field in its body.
    let opt_in: Option<usize> = match (target.get("degraded"), target.get("max_rank")) {
        (None, None) => None,
        (degraded, max_rank) => {
            if let Some(v) = degraded {
                if v != "allow" {
                    return Err((400, format!("invalid degraded: {v:?} (use \"allow\")")));
                }
            }
            Some(match max_rank {
                Some(v) => parse_usize(v, "max_rank")?.max(1),
                None => usize::MAX,
            })
        }
    };
    let degrade: Option<usize> = match (ctx.degrade_rank, opt_in) {
        (Some(policy), Some(cap)) if ctx.gauge.depth() >= ctx.degrade_watermark => {
            let t = policy.max(1).min(cap);
            (t < model.rank()).then_some(t)
        }
        _ => None,
    };
    let mark = |body: String| -> String {
        match degrade {
            Some(t) => render::served_rank(body, t),
            None => body,
        }
    };
    // Shard routes receive the coordinator's already-made decision as an
    // explicit `rank=t` (normalised: full rank or more means no
    // truncation, so the answer stays cacheable and byte-identical).
    let shard_rank: Option<usize> = match target.get("rank") {
        Some(v) => {
            let t = parse_usize(v, "rank")?.max(1);
            (t < model.rank()).then_some(t)
        }
        None => None,
    };
    // Local degraded columns are counted by the batcher; a coordinator's
    // never runs and local `/similarity` builds none, so count those here.
    let unbatched = matches!(ctx.engine, Engine::Sharded(_)) || matches!(route, Route::Similarity);
    if let (Some(t), true) = (degrade, unbatched) {
        ctx.metrics.degraded_requests.fetch_add(1, Ordering::Relaxed);
        ctx.metrics.served_rank.observe(t as u64);
    }
    // A shard server owns one row slice; its partial columns cannot
    // answer the public query routes, and a coordinator has no slice of
    // its own to publish.
    let public = matches!(route, Route::Similarity | Route::TopK | Route::Query);
    if public && matches!(ctx.engine, Engine::Local(_)) && ctx.shard_rows.is_some() {
        return Err((400, "this is a shard server; query the coordinator".to_string()));
    }
    let shard_route = matches!(route, Route::ShardRange | Route::ShardColumns | Route::ShardTopK);
    if shard_route && matches!(ctx.engine, Engine::Sharded(_)) {
        return Err((400, "this is a coordinator; shard routes live on shard servers".to_string()));
    }
    // A plain local server doubles as the 1-shard degenerate case: its
    // "slice" is all of 0..n.
    let (lo, hi) = ctx.shard_rows.unwrap_or((0, model.n()));

    match route {
        Route::Health => Ok(render::health(model.n(), model.rank())),
        Route::Edges => {
            let Some(ingestor) = &ctx.ingest else {
                return Err((400, "live ingestion is disabled on this server".to_string()));
            };
            let ops = ingest::parse_ops(body).map_err(|e| (400, e))?;
            if ops.is_empty() {
                return Err((400, "empty edge batch".to_string()));
            }
            let remaining = ctx.timeout.saturating_sub(start.elapsed());
            let out = ingestor.submit(ops, remaining).map_err(|e| {
                if e.contains("timed out") {
                    (408, e)
                } else {
                    (400, e)
                }
            })?;
            Ok(render::edges(out.applied, out.ignored, out.epoch))
        }
        Route::Metrics => {
            let coordinator = match &ctx.engine {
                Engine::Sharded(coord) => Some(&coord.metrics),
                Engine::Local(_) => None,
            };
            Ok(render::metrics(&ctx.metrics, &ctx.answers, coordinator))
        }
        Route::Similarity => {
            let a = parse_usize(target.require("a")?, "a")?;
            let b = parse_usize(target.require("b")?, "b")?;
            if let Engine::Sharded(coord) = &ctx.engine {
                let s = coord.similarity(snapshot, a, b, degrade)?;
                return Ok(mark(render::similarity(a, b, s)));
            }
            // `[S]_{a,b}` is one dot product, bitwise equal to row `a` of
            // column `b`; at rank `t` it is the one-row slice of the
            // truncated column.  No column is built.
            let s = match degrade {
                Some(t) if a < model.n() => {
                    let row = model.internal_row(a);
                    let query = Query { sources: &[b], rows: Some(row..row + 1), rank: Some(t) };
                    model.columns_into(&query, &mut DenseMatrix::zeros(0, 0)).map(|c| c[0][0])
                }
                // Full rank, or an `a` out of range: the model's own error.
                _ => model.similarity(a, b),
            };
            Ok(mark(render::similarity(a, b, s.map_err(|e| (400, e.to_string()))?)))
        }
        Route::TopK => {
            let node = parse_usize(target.require("node")?, "node")?;
            let k = target.get("k").map_or(Ok(10), |v| parse_usize(v, "k"))?;
            let rank = || match &ctx.engine {
                Engine::Sharded(coord) => coord.top_k(snapshot, node, k, degrade),
                Engine::Local(_) => Ok(top_k_from_column(&column(node, degrade)?, node, k)),
            };
            // Truncated answers are never cached, never served cached.
            let top = match degrade {
                None => ctx.answers.get_or_rank(node, k, snapshot.epoch(), rank)?,
                Some(_) => rank()?.into(),
            };
            Ok(mark(render::topk(node, &top)))
        }
        Route::Query => {
            let nodes = parse_nodes(target)?;
            if let Engine::Sharded(coord) = &ctx.engine {
                let columns = coord.columns(snapshot, &nodes, degrade)?;
                let views: Vec<&[f64]> = columns.iter().map(|c| &c[..]).collect();
                return Ok(mark(render::query(&nodes, &views)));
            }
            let columns = columns(&nodes, degrade)?;
            let views: Vec<&[f64]> = columns.iter().map(|c| &c[..]).collect();
            Ok(mark(render::query(&nodes, &views)))
        }
        Route::ShardRange => Ok(render::shard_range(lo, hi, model.n())),
        Route::ShardColumns => {
            let nodes = parse_nodes(target)?;
            let columns = columns(&nodes, shard_rank)?;
            // Shard batchers hand back internal-row slices already; a
            // plain server's batcher columns are in original-id space
            // and must be re-gathered into internal order (what the
            // wire protocol speaks) for the 1-shard degenerate case.
            let sliced = ctx.shard_rows.is_some();
            Ok(render::shard_columns(lo, hi, &nodes, &columns, |col, row| {
                if sliced {
                    col[row - lo]
                } else {
                    col[model.original_id(row)]
                }
            }))
        }
        Route::ShardTopK => {
            let node = parse_usize(target.require("node")?, "node")?;
            let k = target.get("k").map_or(Ok(10), |v| parse_usize(v, "k"))?;
            // This slice's top-k candidates in original-id space, ranked
            // by the same selection as the full column, so the
            // coordinator's merge reproduces the single-process answer
            // score-bit for score-bit.  As above, a plain server's column
            // is indexed by original id, a shard batcher's by internal
            // row offset.
            let rank = || -> Result<Vec<(usize, f64)>, (u16, String)> {
                let col = column(node, shard_rank)?;
                let scored = (lo..hi).map(|row| {
                    let id = model.original_id(row);
                    (id, if ctx.shard_rows.is_some() { col[row - lo] } else { col[id] })
                });
                Ok(select_top_k(scored.filter(|&(id, _)| id != node), k))
            };
            let top = match shard_rank {
                None => ctx.answers.get_or_rank(node, k, snapshot.epoch(), rank)?,
                Some(_) => rank()?.into(),
            };
            Ok(render::shard_topk(node, &top))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csrplus_core::CsrPlusConfig;
    use csrplus_graph::{generators::figure1_graph, TransitionMatrix};
    use std::io::{Read as _, Write as _};

    fn model() -> CsrPlusModel {
        let t = TransitionMatrix::from_graph(&figure1_graph());
        CsrPlusModel::precompute(&t, &CsrPlusConfig::with_rank(3)).unwrap()
    }

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        http::request(&addr.to_string(), "GET", path, None, POST_WAIT).unwrap()
    }

    fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
        http::request(&addr.to_string(), "POST", path, Some(body), POST_WAIT).unwrap()
    }

    #[test]
    fn default_workers_follow_the_shared_pool_limit() {
        // Satellite contract: no independent `available_parallelism`
        // read — the HTTP pool sizes itself from the same limit the
        // compute kernels share.
        assert_eq!(ServeConfig::default().workers, csrplus_par::threads());
    }

    #[test]
    fn serves_all_routes_and_metrics() {
        let handle = Server::start(model(), 0, ServeConfig::default()).unwrap();
        let addr = handle.addr();

        let (code, body) = get(addr, "/health");
        assert_eq!(code, 200);
        assert!(body.contains("\"nodes\":6"), "{body}");

        let (code, body) = get(addr, "/similarity?a=1&b=3");
        assert_eq!(code, 200);
        assert!(body.starts_with("{\"a\":1,\"b\":3,"), "{body}");
        // S[b,d] ≈ 0.485 from the worked example.
        let value: f64 =
            body.split("\"similarity\":").nth(1).unwrap().trim_end_matches('}').parse().unwrap();
        assert!((value - 0.485).abs() < 0.02, "{value}");

        let (code, body) = get(addr, "/topk?node=1&k=2");
        assert_eq!(code, 200);
        assert_eq!(body.matches("\"score\":").count(), 2, "{body}");

        let (code, body) = get(addr, "/query?nodes=1%2C3");
        assert_eq!(code, 200);
        assert!(body.contains("\"queries\":[1,3]"), "{body}");

        let (code, _) = get(addr, "/nope");
        assert_eq!(code, 404);
        let (code, body) = get(addr, "/similarity?a=1&a=2&b=3");
        assert_eq!(code, 400);
        assert!(body.contains("duplicate parameter"), "{body}");

        let (code, body) = get(addr, "/metrics");
        assert_eq!(code, 200);
        assert!(body.contains("\"requests_total\":"), "{body}");
        assert!(body.contains("\"cache\":"), "{body}");
        assert!(body.contains("\"batcher\":"), "{body}");

        let metrics = handle.metrics();
        assert_eq!(metrics.requests(Route::Health), 1);
        // The duplicate-parameter request failed before routing, so only
        // the valid similarity request is counted.
        assert_eq!(metrics.requests(Route::Similarity), 1);
        assert!(metrics.total_requests() >= 5);
        assert!(metrics.client_errors.load(Ordering::Relaxed) >= 2, "404 + duplicate param");
        handle.shutdown();
    }

    #[test]
    fn bad_requests_answer_400_and_unknown_paths_404() {
        let handle = Server::start(model(), 0, ServeConfig::default()).unwrap();
        let addr = handle.addr();
        for path in [
            "/similarity?a=1",
            "/similarity?a=1&b=x",
            "/topk?node=99",
            "/query?nodes=1,,3",
            "/similarity?a=1&a=2&b=3",
        ] {
            assert_eq!(get(addr, path).0, 400, "{path}");
        }
        assert_eq!(get(addr, "/nope").0, 404);
        let (code, _) = post(addr, "/health", "");
        assert_eq!(code, 400, "POST /health");
        handle.shutdown();
    }

    /// The `/query` body of the model's own full-rank answer.
    fn query_body(m: &CsrPlusModel, nodes: &[usize]) -> String {
        let columns = m.query_columns(nodes).unwrap();
        render::query(nodes, &columns.iter().map(Vec::as_slice).collect::<Vec<_>>())
    }

    #[test]
    fn pooled_answers_match_the_model_byte_for_byte() {
        let m = model();
        let expected_sim = render::similarity(1, 3, m.similarity(1, 3).unwrap());
        let expected_query = query_body(&m, &[1, 3]);
        let handle = Server::start(m, 0, ServeConfig::default()).unwrap();
        let (_, sim) = get(handle.addr(), "/similarity?a=1&b=3");
        let (_, query) = get(handle.addr(), "/query?nodes=1,3");
        assert_eq!(sim, expected_sim);
        assert_eq!(query, expected_query);
        handle.shutdown();
    }

    #[test]
    fn opt_in_parameters_are_inert_when_policies_are_off() {
        // The tentpole's safety contract: with every adaptive policy at
        // its default (off), responses — including ones that *ask* to be
        // degraded — are byte-identical to the model's exact answer.
        let m = model();
        let expected_topk = render::topk(1, &m.top_k(1, 3).unwrap());
        let expected_query = query_body(&m, &[1, 3]);
        let handle = Server::start(m, 0, ServeConfig::default()).unwrap();
        let addr = handle.addr();
        let (code, topk) = get(addr, "/topk?node=1&k=3&degraded=allow&max_rank=1");
        assert_eq!(code, 200);
        assert_eq!(topk, expected_topk, "opt-in params must not change a byte");
        let (_, query) = get(addr, "/query?nodes=1%2C3&max_rank=1");
        assert_eq!(query, expected_query);
        let (code, body) = get(addr, "/similarity?a=1&b=3&degraded=deny");
        assert_eq!(code, 400, "only degraded=allow is meaningful: {body}");
        handle.shutdown();
    }

    #[test]
    fn degraded_requests_report_served_rank_and_leave_others_untouched() {
        let m = model();
        let expected_query = query_body(&m, &[1]);
        let config =
            ServeConfig { degrade_rank: Some(1), degrade_watermark: 0, ..ServeConfig::default() };
        let handle = Server::start(m, 0, config).unwrap();
        let addr = handle.addr();
        let (code, degraded) = get(addr, "/query?nodes=1&degraded=allow");
        assert_eq!(code, 200);
        assert!(degraded.ends_with(",\"served_rank\":1}"), "{degraded}");
        assert_ne!(degraded.replace(",\"served_rank\":1", ""), expected_query, "scores truncated");
        // Non-opted requests on the same server still get exact answers.
        let (_, plain) = get(addr, "/query?nodes=1");
        assert_eq!(plain, expected_query);
        // max_rank above the policy rank does not un-degrade (min wins);
        // the marker reports the rank actually served.
        let (_, capped) = get(addr, "/topk?node=2&k=2&max_rank=2");
        assert!(capped.ends_with(",\"served_rank\":1}"), "{capped}");
        let (_, metrics_body) = get(addr, "/metrics");
        assert!(metrics_body.contains("\"degraded\":{\"requests\":2,"), "{metrics_body}");
        assert!(metrics_body.contains("\"cache_shards\":[{\"hits\":"), "{metrics_body}");
        handle.shutdown();

        // A policy rank at or above the model's degrades nothing: the
        // opted-in answer is the exact one, unmarked.
        let config =
            ServeConfig { degrade_rank: Some(99), degrade_watermark: 0, ..ServeConfig::default() };
        let handle = Server::start(model(), 0, config).unwrap();
        let (_, body) = get(handle.addr(), "/query?nodes=1&degraded=allow");
        assert_eq!(body, expected_query, "rank ≥ model rank is the full-rank path");
        assert_eq!(handle.metrics().degraded_requests.load(Ordering::Relaxed), 0);
        handle.shutdown();
    }

    #[test]
    fn degraded_answers_are_byte_identical_across_shard_counts() {
        // Rank truncation commutes with sharding: a truncated column is
        // still a concatenation of per-shard truncated slices, so a
        // coordinator forwarding `rank=t` reproduces the single-process
        // degraded bytes exactly.
        let m = model();
        let policy =
            ServeConfig { degrade_rank: Some(2), degrade_watermark: 0, ..ServeConfig::default() };
        let single = Server::start(m.clone(), 0, policy.clone()).unwrap();
        let shards: Vec<ServerHandle> = [(0, 2), (2, 6)]
            .iter()
            .map(|&r| {
                // Shards need no policy of their own: they honour the
                // coordinator's explicit `rank=t`.
                let config = ServeConfig { shard_rows: Some(r), ..ServeConfig::default() };
                Server::start(m.clone(), 0, config).unwrap()
            })
            .collect();
        let config =
            ServeConfig { shards: shards.iter().map(|s| s.addr().to_string()).collect(), ..policy };
        let coordinator = Server::start(m, 0, config).unwrap();
        for path in [
            "/query?nodes=1%2C3&degraded=allow",
            "/topk?node=2&k=3&degraded=allow",
            "/similarity?a=1&b=3&max_rank=2",
            "/query?nodes=0%2C5",
        ] {
            let (code_a, body_a) = get(single.addr(), path);
            let (code_b, body_b) = get(coordinator.addr(), path);
            assert_eq!(code_a, code_b, "{path}");
            assert_eq!(body_a, body_b, "{path}");
            if path.contains("degraded") || path.contains("max_rank") {
                assert!(body_a.contains("\"served_rank\":2"), "{path}: {body_a}");
            }
        }
        coordinator.shutdown();
        single.shutdown();
        for s in shards {
            s.shutdown();
        }
    }

    #[test]
    fn column_errors_map_to_timeout_unavailable_internal_and_bad_request() {
        assert_eq!(status(ColumnError::Timeout).0, 408);
        assert_eq!(status(ColumnError::ShuttingDown).0, 503);
        assert_eq!(status(ColumnError::Panicked).0, 500);
        assert_eq!(status(ColumnError::Failed("node 9".into())), (400, "node 9".to_string()));
    }

    #[test]
    fn a_multi_source_query_is_one_batch_and_a_stalled_one_times_out() {
        let t = TransitionMatrix::from_graph(
            &csrplus_graph::generators::erdos_renyi(40, 160, 7).unwrap(),
        );
        let m = CsrPlusModel::precompute(&t, &CsrPlusConfig::with_rank(4)).unwrap();
        let nodes = [3usize, 9, 14, 20, 27, 31, 35, 39];
        let list: Vec<String> = nodes.iter().map(usize::to_string).collect();
        let path = format!("/query?nodes={}", list.join("%2C"));
        let expected = query_body(&m, &nodes);

        let handle = Server::start(m.clone(), 0, ServeConfig::default()).unwrap();
        let (code, body) = get(handle.addr(), &path);
        assert_eq!((code, body), (200, expected));
        let metrics = handle.metrics();
        assert_eq!(metrics.model_evaluations.load(Ordering::Relaxed), 1, "one pass for all 8");
        assert_eq!(metrics.batch_sizes.count(), 1);
        assert_eq!(metrics.batch_sizes.sum(), 8);
        handle.shutdown();

        // A batch that never fires (endless linger, never full) answers
        // 408 at the request budget rather than hanging the worker.
        let config = ServeConfig {
            linger: Duration::from_secs(3600),
            max_batch: 64,
            timeout: Duration::from_millis(200),
            ..ServeConfig::default()
        };
        let handle = Server::start(m, 0, config).unwrap();
        let (code, body) = get(handle.addr(), &path);
        assert_eq!(code, 408, "{body}");
        handle.shutdown();
    }

    #[test]
    fn max_requests_counts_only_served_connections() {
        let config = ServeConfig { max_requests: Some(3), ..ServeConfig::default() };
        let handle = Server::start(model(), 0, config);
        let handle = handle.unwrap();
        let addr = handle.addr();
        for _ in 0..3 {
            let (code, _) = get(addr, "/health");
            assert_eq!(code, 200);
        }
        // All three served connections counted; join() returns because
        // the accept loop exited on its own.
        handle.join();
    }

    /// Boots `ranges.len()` shard servers plus a coordinator over them
    /// and a plain single-process server on the same model.
    fn sharded_fixture(
        m: CsrPlusModel,
        ranges: &[(usize, usize)],
    ) -> (Vec<ServerHandle>, ServerHandle, ServerHandle) {
        let shards: Vec<ServerHandle> = ranges
            .iter()
            .map(|&r| {
                let config = ServeConfig { shard_rows: Some(r), ..ServeConfig::default() };
                Server::start(m.clone(), 0, config).unwrap()
            })
            .collect();
        let single = Server::start(m.clone(), 0, ServeConfig::default()).unwrap();
        let config = ServeConfig {
            shards: shards.iter().map(|s| s.addr().to_string()).collect(),
            ..ServeConfig::default()
        };
        let coordinator = Server::start(m, 0, config).unwrap();
        (shards, single, coordinator)
    }

    #[test]
    fn coordinator_answers_byte_identical_to_single_process() {
        let (shards, single, coordinator) = sharded_fixture(model(), &[(0, 2), (2, 5), (5, 6)]);
        for path in [
            "/health",
            "/query?nodes=1%2C3",
            "/query?nodes=0%2C2%2C4%2C5",
            "/similarity?a=1&b=3",
            "/similarity?a=5&b=0",
            "/topk?node=2&k=3",
            "/topk?node=0&k=10",
            "/topk?node=4&k=1",
        ] {
            let (code_a, body_a) = get(single.addr(), path);
            let (code_b, body_b) = get(coordinator.addr(), path);
            assert_eq!(code_a, code_b, "{path}");
            assert_eq!(body_a, body_b, "{path}");
        }
        // Role separation: shards serve /shard/*, the coordinator the
        // public routes, and neither answers the other's.
        let (code, _) = get(shards[0].addr(), "/topk?node=1");
        assert_eq!(code, 400);
        let (code, _) = get(coordinator.addr(), "/shard/range");
        assert_eq!(code, 400);
        let (code, body) = get(shards[1].addr(), "/shard/range");
        assert_eq!(code, 200);
        assert_eq!(body, "{\"lo\":2,\"hi\":5,\"n\":6}");
        let (_, metrics) = get(coordinator.addr(), "/metrics");
        assert!(metrics.contains("\"coordinator\":{\"scatter_requests\":"), "{metrics}");
        assert!(metrics.contains("\"shard_latency_us\":["), "{metrics}");
        coordinator.shutdown();
        single.shutdown();
        for s in shards {
            s.shutdown();
        }
    }

    #[test]
    fn coordinator_unwinds_a_reordered_model_and_degenerates_to_one_shard() {
        use csrplus_graph::partition::Reordering;
        // A reordered model: the gather must scatter shard rows back to
        // original ids.  A *plain* server doubles as the single shard
        // (its /shard/range is 0..n), so 1-shard answers are the very
        // bytes the single-process server produces.
        let m = model().with_permutation(vec![5, 3, 0, 1, 4, 2], Reordering::Rcm).unwrap();
        let single = Server::start(m.clone(), 0, ServeConfig::default()).unwrap();
        let config =
            ServeConfig { shards: vec![single.addr().to_string()], ..ServeConfig::default() };
        let coordinator = Server::start(m.clone(), 0, config).unwrap();
        for path in ["/query?nodes=1%2C3", "/topk?node=2&k=4", "/similarity?a=0&b=5"] {
            let (_, body_a) = get(single.addr(), path);
            let (_, body_b) = get(coordinator.addr(), path);
            assert_eq!(body_a, body_b, "{path}");
        }
        coordinator.shutdown();

        // And across a genuine split of the permuted model.
        let (shards, single2, coordinator) = sharded_fixture(m, &[(0, 3), (3, 6)]);
        for path in ["/query?nodes=0%2C5", "/topk?node=1&k=5", "/similarity?a=2&b=4"] {
            let (_, body_a) = get(single2.addr(), path);
            let (_, body_b) = get(coordinator.addr(), path);
            assert_eq!(body_a, body_b, "{path}");
        }
        coordinator.shutdown();
        single.shutdown();
        single2.shutdown();
        for s in shards {
            s.shutdown();
        }
    }

    #[test]
    fn coordinator_rejects_a_bad_partition() {
        let m = model();
        let shard = Server::start(
            m.clone(),
            0,
            ServeConfig { shard_rows: Some((0, 4)), ..ServeConfig::default() },
        )
        .unwrap();
        // 0..4 alone does not tile 0..6.
        let config =
            ServeConfig { shards: vec![shard.addr().to_string()], ..ServeConfig::default() };
        let err = Server::start(m, 0, config).err().expect("partition hole must be rejected");
        assert!(err.to_string().contains("tile") || err.to_string().contains("stop"), "{err}");
        shard.shutdown();
    }

    fn dynamic() -> DynamicCsrPlus {
        let cfg = csrplus_core::dynamic::DynamicConfig {
            base: CsrPlusConfig::with_rank(6),
            // The ingest thread governs rebuild cadence; don't let the
            // dynamic model auto-refresh underneath it.
            refresh_interval: usize::MAX,
        };
        DynamicCsrPlus::new(&figure1_graph(), cfg).unwrap()
    }

    const POST_WAIT: Duration = Duration::from_secs(30);

    #[test]
    fn live_ingestion_publishes_epochs_and_tags_responses() {
        let handle =
            Server::start_ingesting(dynamic(), 0, ServeConfig::default(), IngestConfig::default())
                .unwrap();

        // Boot is epoch 0 and every response says so.
        let (code, body) = get(handle.addr(), "/health");
        assert_eq!(code, 200);
        assert!(body.ends_with(",\"epoch\":0}"), "{body}");
        let (_, before) = get(handle.addr(), "/similarity?a=4&b=1");
        assert!(before.ends_with(",\"epoch\":0}"), "{before}");

        // figure1 has no 1→4 edge: inserting it publishes epoch 1.
        let (code, body) = post(handle.addr(), "/edges", "{\"op\":\"insert\",\"x\":1,\"y\":4}\n");
        assert_eq!(code, 200, "{body}");
        assert_eq!(body, "{\"applied\":1,\"ignored\":0,\"epoch\":1}");

        // Queries now answer from the new snapshot — different scores,
        // and the stale epoch-0 cache entry cannot leak in.
        let (_, after) = get(handle.addr(), "/similarity?a=4&b=1");
        assert!(after.ends_with(",\"epoch\":1}"), "{after}");
        assert_ne!(before, after, "the inserted edge must change the answer");

        let (_, metrics) = get(handle.addr(), "/metrics");
        assert!(metrics.contains("\"ingest\":{\"epoch\":1,\"updates_applied\":1,"), "{metrics}");

        // Method discipline: /edges is POST-only, query routes GET-only.
        let (code, _) = get(handle.addr(), "/edges");
        assert_eq!(code, 400);
        let (code, _) = post(handle.addr(), "/health", "");
        assert_eq!(code, 400);
        // Parse errors name the offending op.
        let (code, body) = post(handle.addr(), "/edges", "{\"op\":\"upsert\",\"x\":0,\"y\":1}");
        assert_eq!(code, 400);
        assert!(body.contains("upsert"), "{body}");
        // Out-of-bounds batches are rejected whole: still epoch 1.
        let (code, _) = post(handle.addr(), "/edges", "{\"op\":\"insert\",\"x\":0,\"y\":99}");
        assert_eq!(code, 400);
        // So are lines that are not one object with integer ids, each
        // named by its line number.
        for bad in [
            "{\"op\":\"insert\",\"x\":1e3,\"y\":4}",
            "{\"op\":\"insert\",\"x\":1.5,\"y\":4}",
            "{\"op\":\"insert\",\"x\":12abc,\"y\":4}",
            "{\"op\":\"insert\",\"x\":2,\"x\":1,\"y\":4}",
            "\"op\":\"insert\",\"x\":2,\"y\":4",
        ] {
            let batch = format!("{{\"op\":\"insert\",\"x\":2,\"y\":4}}\n{bad}\n");
            let (code, body) = post(handle.addr(), "/edges", &batch);
            assert_eq!(code, 400, "{bad}: {body}");
            assert!(body.contains("line 2"), "{bad}: {body}");
        }
        let (_, body) = get(handle.addr(), "/health");
        assert!(body.ends_with(",\"epoch\":1}"), "{body}");
        handle.shutdown();
    }

    #[test]
    fn ingestion_off_servers_reject_edges_and_never_tag_epochs() {
        let handle = Server::start(model(), 0, ServeConfig::default()).unwrap();
        let (code, body) = post(handle.addr(), "/edges", "{\"op\":\"insert\",\"x\":1,\"y\":4}");
        assert_eq!(code, 400);
        assert!(body.contains("disabled"), "{body}");
        // The byte-identity contract: no epoch tag anywhere.
        for path in ["/health", "/similarity?a=1&b=3", "/shard/range"] {
            let (_, body) = get(handle.addr(), path);
            assert!(!body.contains("epoch"), "{path}: {body}");
        }
        handle.shutdown();
    }

    #[test]
    fn heads_past_the_caps_are_refused_and_the_server_carries_on() {
        let handle = Server::start(model(), 0, ServeConfig::default()).unwrap();
        let pad = "a".repeat(http::MAX_HEAD_BYTES);
        for raw in [
            format!("GET /health?pad={pad} HTTP/1.1\r\n\r\n"),
            format!("GET /health HTTP/1.1\r\nX-Pad: {pad}\r\n\r\n"),
            format!("GET /health HTTP/1.1\r\n{}\r\n", "X: y\r\n".repeat(http::MAX_HEADERS + 1)),
        ] {
            let mut stream = TcpStream::connect(handle.addr()).unwrap();
            // The server may close before reading everything: a failed
            // write or a reset read is the refusal, as is plain EOF.
            let _ = stream.write_all(raw.as_bytes());
            let mut response = Vec::new();
            let _ = stream.read_to_end(&mut response);
            assert!(response.is_empty(), "{}", String::from_utf8_lossy(&response));
            assert_eq!(get(handle.addr(), "/health").0, 200);
        }
        assert_eq!(handle.metrics().io_errors.load(Ordering::Relaxed), 3);
        handle.shutdown();
    }

    #[test]
    fn oversized_node_lists_are_refused_before_evaluation() {
        let g = csrplus_graph::generators::erdos_renyi::erdos_renyi(1_000, 4_000, 7).unwrap();
        let t = TransitionMatrix::from_graph(&g);
        let m = CsrPlusModel::precompute(&t, &CsrPlusConfig::with_rank(4)).unwrap();
        let handle = Server::start(m, 0, ServeConfig::default()).unwrap();
        // 20,000 repeated ids fit under the head cap but ask for 2·10⁷
        // score cells, past `MAX_QUERY_CELLS`.
        let nodes = vec!["0"; 20_000].join(",");
        for route in ["/query", "/shard/columns"] {
            let (code, body) = get(handle.addr(), &format!("{route}?nodes={nodes}"));
            assert_eq!(code, 400, "{route}");
            assert!(body.contains(&MAX_QUERY_CELLS.to_string()), "{route}: {body}");
        }
        assert_eq!(get(handle.addr(), "/health").0, 200);
        handle.shutdown();
    }

    #[test]
    fn timeout_zero_times_out_column_requests() {
        let config = ServeConfig {
            timeout: Duration::from_millis(0),
            linger: Duration::from_secs(1),
            cache_capacity: 0,
            ..ServeConfig::default()
        };
        // With a zero budget the column wait expires immediately: 408.
        let handle = Server::start(model(), 0, config).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        write!(stream, "GET /topk?node=1 HTTP/1.1\r\n\r\n").unwrap();
        let mut response = String::new();
        // Read may fail (the server's write timeout is also 0) — accept
        // either a 408 response or a reset connection.
        let _ = stream.read_to_string(&mut response);
        if !response.is_empty() {
            assert!(response.contains("408"), "{response}");
        }
        handle.shutdown();
    }

    /// `(evaluations, cache hits, cache misses)` so far.
    fn counts(handle: &ServerHandle) -> (u64, u64, u64) {
        let m = handle.metrics();
        let load = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
        (load(&m.model_evaluations), load(&m.cache_hits), load(&m.cache_misses))
    }

    #[test]
    fn a_repeat_topk_is_rendered_from_the_answer_cache() {
        let m = model();
        let expected = render::topk(1, &m.top_k(1, 3).unwrap());
        let handle = Server::start(m.clone(), 0, ServeConfig::default()).unwrap();
        let addr = handle.addr();
        assert_eq!(get(addr, "/topk?node=1&k=3"), (200, expected.clone()));
        assert_eq!(counts(&handle), (1, 0, 1));
        // The repeat neither evaluates nor selects: it is a hit.
        assert_eq!(get(addr, "/topk?node=1&k=3"), (200, expected));
        assert_eq!(counts(&handle), (1, 1, 1));
        // The same node with another k is another key.
        let k2 = render::topk(1, &m.top_k(1, 2).unwrap());
        assert_eq!(get(addr, "/topk?node=1&k=2"), (200, k2));
        assert_eq!(counts(&handle), (2, 1, 2));
        // `/similarity` builds no column and never touches the cache.
        let sim = render::similarity(4, 1, m.similarity(4, 1).unwrap());
        assert_eq!(get(addr, "/similarity?a=4&b=1"), (200, sim));
        assert_eq!(counts(&handle), (2, 1, 2));
        handle.shutdown();
    }

    #[test]
    fn answers_longer_than_the_cap_are_served_but_not_cached() {
        let g = csrplus_graph::generators::erdos_renyi::erdos_renyi(1_100, 4_400, 3).unwrap();
        let t = TransitionMatrix::from_graph(&g);
        let m = CsrPlusModel::precompute(&t, &CsrPlusConfig::with_rank(4)).unwrap();
        assert!(m.n() - 1 > crate::cache::MAX_CACHED_ANSWER);
        let expected = render::topk(7, &m.top_k(7, 5_000).unwrap());
        let handle = Server::start(m, 0, ServeConfig::default()).unwrap();
        // k > n: all n − 1 other nodes, answered twice, stored never.
        for _ in 0..2 {
            assert_eq!(get(handle.addr(), "/topk?node=7&k=5000"), (200, expected.clone()));
        }
        assert_eq!(counts(&handle), (2, 0, 2));
        // An answer at the cap is stored.
        let k = crate::cache::MAX_CACHED_ANSWER;
        for _ in 0..2 {
            assert_eq!(get(handle.addr(), &format!("/topk?node=7&k={k}")).0, 200);
        }
        assert_eq!(counts(&handle), (3, 1, 3));
        handle.shutdown();
    }

    #[test]
    fn degraded_topk_neither_reads_nor_fills_the_answer_cache() {
        let m = model();
        let exact = render::topk(2, &m.top_k(2, 3).unwrap());
        let config =
            ServeConfig { degrade_rank: Some(1), degrade_watermark: 0, ..ServeConfig::default() };
        let handle = Server::start(m, 0, config).unwrap();
        let addr = handle.addr();
        assert_eq!(get(addr, "/topk?node=2&k=3"), (200, exact.clone()));
        // Not served the cached exact list...
        let (code, degraded) = get(addr, "/topk?node=2&k=3&degraded=allow");
        assert_eq!(code, 200);
        assert!(degraded.ends_with(",\"served_rank\":1}"), "{degraded}");
        assert_eq!(counts(&handle), (2, 0, 1), "the degraded request skipped the lookup");
        // ...and did not overwrite it.
        assert_eq!(get(addr, "/topk?node=2&k=3"), (200, exact));
        assert_eq!(counts(&handle), (2, 1, 1));
        handle.shutdown();
    }

    #[test]
    fn a_published_epoch_misses_the_previous_epochs_answers() {
        let handle =
            Server::start_ingesting(dynamic(), 0, ServeConfig::default(), IngestConfig::default())
                .unwrap();
        let addr = handle.addr();
        let (_, before) = get(addr, "/topk?node=4&k=3");
        assert_eq!(get(addr, "/topk?node=4&k=3").1, before);
        assert_eq!(counts(&handle), (1, 1, 1));
        let (code, _) = post(addr, "/edges", "{\"op\":\"insert\",\"x\":1,\"y\":4}\n");
        assert_eq!(code, 200);
        let (_, after) = get(addr, "/topk?node=4&k=3");
        assert!(after.ends_with(",\"epoch\":1}"), "{after}");
        assert_ne!(before.replace(",\"epoch\":0}", ""), after.replace(",\"epoch\":1}", ""));
        assert_eq!(counts(&handle), (2, 1, 2), "the epoch-0 answer did not serve epoch 1");
        handle.shutdown();
    }

    #[test]
    fn a_panicking_batch_answers_500_and_the_server_keeps_serving() {
        let m = model();
        let expected = render::topk(1, &m.top_k(1, 3).unwrap());
        let handle = Server::start(m, 0, ServeConfig::default()).unwrap();
        let Some(Engine::Local(batcher)) = handle.ctx.as_ref().map(|ctx| &ctx.engine) else {
            unreachable!("a plain server evaluates locally")
        };
        batcher.panic_next_batch();
        let (code, body) = get(handle.addr(), "/topk?node=1&k=3");
        assert_eq!(code, 500, "{body}");
        assert_eq!(get(handle.addr(), "/topk?node=1&k=3"), (200, expected));
        let (_, metrics) = get(handle.addr(), "/metrics");
        assert!(metrics.contains("\"batched_requests\":1,\"panics\":1,"), "{metrics}");
        let counters = handle.metrics();
        assert_eq!(counters.server_errors.load(Ordering::Relaxed), 1, "{metrics}");
        assert_eq!(counters.client_errors.load(Ordering::Relaxed), 0, "{metrics}");
        handle.shutdown();
    }
}
