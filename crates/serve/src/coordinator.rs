//! The scatter-gather coordinator: fans one query out over shard
//! servers that each own a contiguous internal-row slice of the model,
//! and merges the partial answers back into exactly what a
//! single-process server would have said.
//!
//! Three gather strategies, one per route:
//!
//! * `/query` **scatters** to every shard and reassembles full columns,
//!   scattering each shard's internal-row slice back to original node
//!   ids through the model permutation;
//! * `/topk` walks shards in **descending split-bound order** and merges
//!   per-shard top-k heaps, *skipping* (never contacting) any shard
//!   whose Cauchy–Schwarz bound proves it cannot displace the current
//!   k-th best — on clustered reorderings most shards are never asked.
//!   The server caches the merged answer by `(node, k)` as it caches a
//!   local one, so a repeat is answered without contacting any shard;
//! * `/similarity` always asks the one shard that owns row `a`.
//!
//! Every shard request is budgeted (`shard_timeout`) and **hedged**: if
//! a shard has not answered within the hedge delay a second identical
//! request is launched and the first response wins, so one straggler
//! process does not set the tail latency of the whole gather.
//!
//! Because shard slices concatenate **bitwise** into the single-process
//! evaluation (each column entry is an independent dot product) and
//! scores cross the wire as exact bit patterns, a coordinator over any
//! shard count — including the 1-shard degenerate case — produces
//! byte-identical response bodies.

use crate::cache::Column;
use crate::http;
use crate::json::{self, Json, Value};
use crate::metrics::Histogram;
use crate::snapshot::{Snapshot, SnapshotHandle};
use crate::wire;
use csrplus_core::topk::select_top_k;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// One shard as the coordinator sees it: an address plus the internal
/// row range it announced at discovery.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// `host:port` of the shard server.
    pub addr: String,
    /// First internal row the shard owns.
    pub lo: usize,
    /// One past the last internal row the shard owns.
    pub hi: usize,
}

/// Per-shard upper-bound ingredients, derived from `Z`'s rows once per
/// model epoch: for every internal row `x` in the shard,
/// `score(x, q) = c·Z[x]·U[q] ≤ c·(z0[x]·u0[q] + ‖z[x,1..]‖·‖u[q,1..]‖)`,
/// so `c·(max(u0·z0_max, u0·z0_min) + urest·zrest_max)` bounds every
/// score the shard could contribute.
#[derive(Debug, Clone, Copy)]
struct ShardBound {
    z0_min: f64,
    z0_max: f64,
    zrest_max: f64,
}

/// Counters and histograms specific to the scatter-gather layer,
/// rendered as the `"coordinator"` section of `GET /metrics`.
#[derive(Debug)]
pub struct GatherMetrics {
    /// Gathers executed (one per query that reached the shard layer).
    pub scatter_requests: AtomicU64,
    /// Shards proven irrelevant by the split bound and never contacted.
    pub scatter_skipped_shards: AtomicU64,
    /// Hedge requests launched against straggling shards.
    pub scatter_hedges: AtomicU64,
    /// Shards actually contacted per gather.
    pub scatter_fanout: Histogram,
    /// Time merging partial answers (µs), excluding shard round-trips.
    pub gather_merge_us: Histogram,
    /// Per-shard round-trip latency (µs), indexed like the shard list —
    /// the tail of these is what hedging exists to cut.
    pub shard_latency_us: Vec<Histogram>,
}

impl GatherMetrics {
    pub(crate) fn new(shards: usize) -> Self {
        GatherMetrics {
            scatter_requests: AtomicU64::new(0),
            scatter_skipped_shards: AtomicU64::new(0),
            scatter_hedges: AtomicU64::new(0),
            scatter_fanout: Histogram::new(),
            gather_merge_us: Histogram::new(),
            shard_latency_us: (0..shards).map(|_| Histogram::new()).collect(),
        }
    }

    /// Writes the `"coordinator"` JSON object.
    pub(crate) fn write_json(&self, out: &mut Json) {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        out.open(b'{').key("scatter_requests").value(load(&self.scatter_requests));
        out.key("skipped_shards").value(load(&self.scatter_skipped_shards));
        out.key("hedges").value(load(&self.scatter_hedges)).key("fanout");
        self.scatter_fanout.write_json(out);
        out.key("merge_us");
        self.gather_merge_us.write_json(out);
        out.key("shard_latency_us").open(b'[');
        for h in &self.shard_latency_us {
            h.write_json(out);
        }
        out.close(b']').close(b'}');
    }
}

/// The coordinator engine: shard directory, bound table and gather
/// metrics.
///
/// The coordinator is snapshot-scoped like the local engine: every
/// gather method takes the request's [`Snapshot`] and answers entirely
/// against it.  The per-shard bound table is derived from a snapshot's
/// `Z` rows on the first top-k gather of each epoch and memoised, so a
/// static model pays one `O(n·r)` pass, and a mapped model touches no
/// factor page at boot.
pub struct Coordinator {
    shards: Vec<ShardSpec>,
    bounds: Mutex<Option<EpochBounds>>,
    timeout: Duration,
    hedge: Duration,
    /// Scatter-gather metrics (also rendered under `/metrics`).
    pub metrics: GatherMetrics,
}

/// The bound table plus the epoch whose `Z` rows produced it.
struct EpochBounds {
    epoch: u64,
    bounds: Vec<ShardBound>,
}

/// How long boot-time shard discovery keeps retrying before giving up.
const DISCOVERY_BUDGET: Duration = Duration::from_secs(10);
const DISCOVERY_BACKOFF: Duration = Duration::from_millis(50);

impl Coordinator {
    /// Discovers every shard's row range (retrying while they boot),
    /// validates that together they tile `0..n` exactly and that every
    /// shard reports the same model epoch (shards without an epoch field
    /// are epoch 0).
    pub fn connect(
        handle: Arc<SnapshotHandle>,
        shard_addrs: &[String],
        timeout: Duration,
        hedge: Duration,
    ) -> Result<Coordinator, String> {
        if shard_addrs.is_empty() {
            return Err("coordinator needs at least one shard address".to_string());
        }
        let boot = handle.load();
        let n = boot.model().n();
        let mut shards = Vec::with_capacity(shard_addrs.len());
        let mut epochs: Vec<(String, u64)> = Vec::with_capacity(shard_addrs.len());
        for addr in shard_addrs {
            let deadline = Instant::now() + DISCOVERY_BUDGET;
            let body = loop {
                match http::request(addr, "GET", "/shard/range", None, timeout) {
                    Ok((200, body)) => break body,
                    Ok((code, body)) => {
                        return Err(format!("shard {addr} rejected discovery: {code} {body}"))
                    }
                    Err(e) if Instant::now() < deadline => {
                        let _ = e; // still booting; retry
                        std::thread::sleep(DISCOVERY_BACKOFF);
                    }
                    Err(e) => return Err(format!("shard {addr} unreachable: {e}")),
                }
            };
            let range = json::parse(&body).unwrap_or(Value::Null);
            let field = |key: &str| range.get(key).and_then(Value::as_u64);
            let (Some(lo), Some(hi), Some(shard_n)) = (field("lo"), field("hi"), field("n")) else {
                return Err(format!("shard {addr} announced no row range: {body}"));
            };
            if shard_n != n as u64 {
                return Err(format!(
                    "shard {addr} serves a model with n = {shard_n}, coordinator has n = {n}"
                ));
            }
            // Static shards predate epochs and omit the field: epoch 0.
            let epoch = field("epoch").unwrap_or(0);
            epochs.push((addr.clone(), epoch));
            shards.push(ShardSpec { addr: addr.clone(), lo: lo as usize, hi: hi as usize });
        }
        // A gather that mixes model versions would merge slices of two
        // different similarity matrices; refuse to boot over it.
        if let Some(((a0, e0), (a1, e1))) = epochs.split_first().and_then(|(first, rest)| {
            rest.iter().find(|(_, e)| e != &first.1).map(|bad| (first.clone(), bad.clone()))
        }) {
            return Err(format!(
                "shard epochs disagree: {a0} is at epoch {e0}, {a1} at epoch {e1}"
            ));
        }
        shards.sort_by_key(|s| s.lo);
        let mut next = 0;
        for s in &shards {
            if s.lo != next || s.hi < s.lo {
                return Err(format!(
                    "shard ranges do not tile 0..{n}: {} covers {}..{} but {next} is next",
                    s.addr, s.lo, s.hi
                ));
            }
            next = s.hi;
        }
        if next != n {
            return Err(format!("shard ranges stop at {next}, model has {n} rows"));
        }

        let metrics = GatherMetrics::new(shards.len());
        Ok(Coordinator { shards, bounds: Mutex::new(None), timeout, hedge, metrics })
    }

    /// The bound table for `snapshot`, memoised by epoch: derived on the
    /// first request, then again only when a request arrives under a
    /// newer published model.
    fn bounds_for(&self, snapshot: &Snapshot) -> Vec<ShardBound> {
        let mut cached = self.bounds.lock().expect("bounds lock");
        match &*cached {
            Some(c) if c.epoch == snapshot.epoch() => c.bounds.clone(),
            _ => {
                let bounds = derive_bounds(snapshot, &self.shards);
                *cached = Some(EpochBounds { epoch: snapshot.epoch(), bounds: bounds.clone() });
                bounds
            }
        }
    }

    /// One hedged, budgeted GET against shard `si`.  A second identical
    /// request launches if the first has not answered within the hedge
    /// delay; whichever response lands first wins.
    fn fetch(&self, si: usize, path: &str) -> Result<String, (u16, String)> {
        let start = Instant::now();
        let (tx, rx) = mpsc::channel::<std::io::Result<(u16, String)>>();
        let launch = |tx: mpsc::Sender<std::io::Result<(u16, String)>>| {
            let addr = self.shards[si].addr.clone();
            let path = path.to_string();
            let timeout = self.timeout;
            std::thread::spawn(move || {
                let _ = tx.send(http::request(&addr, "GET", &path, None, timeout));
            });
        };
        launch(tx.clone());
        let hedge = if self.hedge.is_zero() { self.timeout } else { self.hedge.min(self.timeout) };
        let mut result = rx.recv_timeout(hedge);
        if matches!(result, Err(mpsc::RecvTimeoutError::Timeout)) {
            // Straggler: race a second attempt, first answer wins.
            self.metrics.scatter_hedges.fetch_add(1, Ordering::Relaxed);
            launch(tx.clone());
            let remaining = self.timeout.saturating_sub(start.elapsed());
            result = rx.recv_timeout(remaining);
        }
        drop(tx);
        self.metrics.shard_latency_us[si].observe_duration(start.elapsed());
        let addr = &self.shards[si].addr;
        match result {
            Ok(Ok((200, body))) => Ok(body),
            Ok(Ok((code, body))) => Err((code, format!("shard {addr}: {body}"))),
            Ok(Err(e)) => Err((502, format!("shard {addr}: {e}"))),
            Err(_) => Err((504, format!("shard {addr} timed out"))),
        }
    }

    /// Full similarity columns for `nodes`, in original-id space, gathered
    /// from every shard in one scatter and reassembled.  A rank
    /// truncation `Some(t)` forwards `rank=t` to every shard.
    pub fn columns(
        &self,
        snapshot: &Snapshot,
        nodes: &[usize],
        rank: Option<usize>,
    ) -> Result<Vec<Column>, (u16, String)> {
        let model = snapshot.model();
        let n = model.n();
        for &q in nodes {
            if q >= n {
                let e = csrplus_core::CoSimRankError::QueryOutOfBounds { node: q, n };
                return Err((400, e.to_string()));
            }
        }
        let mut distinct: Vec<usize> = Vec::new();
        for &q in nodes {
            if !distinct.contains(&q) {
                distinct.push(q);
            }
        }
        self.metrics.scatter_requests.fetch_add(1, Ordering::Relaxed);
        self.metrics.scatter_fanout.observe(self.shards.len() as u64);
        let list = distinct.iter().map(usize::to_string).collect::<Vec<_>>().join("%2C");
        let path = format!("/shard/columns?nodes={list}{}", rank_suffix(rank));
        let partials = self.scatter_all(&path)?;
        let merge_start = Instant::now();
        let mut full: Vec<Vec<f64>> = distinct.iter().map(|_| vec![0.0; n]).collect();
        for (shard, body) in self.shards.iter().zip(&partials) {
            let cols = strings(body, "cols")?;
            if cols.len() != distinct.len() {
                let (addr, got, want) = (&shard.addr, cols.len(), distinct.len());
                return Err((502, format!("shard {addr} answered {got} columns, wanted {want}")));
            }
            for (dst, hex) in full.iter_mut().zip(&cols) {
                let part = wire::decode_f64s(hex).map_err(|e| (502, e))?;
                if part.len() != shard.hi - shard.lo {
                    return Err((502, format!("shard {} column length mismatch", shard.addr)));
                }
                // Internal row → original node id: the gather is where the
                // reordering permutation unwinds.
                for (row, v) in (shard.lo..shard.hi).zip(part) {
                    dst[model.original_id(row)] = v;
                }
            }
        }
        let full: Vec<Column> = full.into_iter().map(Column::from).collect();
        self.metrics.gather_merge_us.observe_duration(merge_start.elapsed());
        // Repeated nodes share the one gathered column.
        let at = |q: &usize| distinct.iter().position(|d| d == q).expect("every node gathered");
        Ok(nodes.iter().map(|q| Arc::clone(&full[at(q)])).collect())
    }

    /// Fans `path` out to every shard concurrently (each hedged
    /// independently) and returns the bodies in shard order.
    fn scatter_all(&self, path: &str) -> Result<Vec<String>, (u16, String)> {
        let mut results: Vec<Result<String, (u16, String)>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.shards.len())
                .map(|si| scope.spawn(move || self.fetch(si, path)))
                .collect();
            results =
                handles.into_iter().map(|h| h.join().expect("shard fetch panicked")).collect();
        });
        results.into_iter().collect()
    }

    /// `[S]_{a,b}`, from the single shard owning internal row `a` (no
    /// full gather).  A rank truncation `Some(t)` forwards `rank=t`.
    pub fn similarity(
        &self,
        snapshot: &Snapshot,
        a: usize,
        b: usize,
        rank: Option<usize>,
    ) -> Result<f64, (u16, String)> {
        let model = snapshot.model();
        let n = model.n();
        for node in [a, b] {
            if node >= n {
                let e = csrplus_core::CoSimRankError::QueryOutOfBounds { node, n };
                return Err((400, e.to_string()));
            }
        }
        let row = model.internal_row(a);
        let si = self
            .shards
            .iter()
            .position(|s| s.lo <= row && row < s.hi)
            .expect("shard ranges tile 0..n");
        self.metrics.scatter_requests.fetch_add(1, Ordering::Relaxed);
        self.metrics.scatter_fanout.observe(1);
        let body = self.fetch(si, &format!("/shard/columns?nodes={b}{}", rank_suffix(rank)))?;
        let cols = strings(&body, "cols")?;
        let hex = cols.first().ok_or((502, "shard answered no columns".to_string()))?;
        let part = wire::decode_f64s(hex).map_err(|e| (502, e))?;
        part.get(row - self.shards[si].lo)
            .copied()
            .ok_or((502, "shard column too short".to_string()))
    }

    /// Global top-`k` for `q`: shards are visited in descending bound
    /// order and merged; once `k` results are held, any shard whose
    /// bound is strictly below the k-th best score is skipped without a
    /// request (bound < kth ⟹ every score it holds < kth, so not even
    /// the id tie-break can displace the current set).
    ///
    /// A rank truncation `Some(t)` forwards `rank=t` to every shard
    /// contacted, and disables bound-based shard skipping
    /// — the split bounds summarise full-rank scores, so under truncation
    /// they are used only to order shard visits, never to prove one
    /// irrelevant.
    pub fn top_k(
        &self,
        snapshot: &Snapshot,
        q: usize,
        k: usize,
        rank: Option<usize>,
    ) -> Result<Vec<(usize, f64)>, (u16, String)> {
        let model = snapshot.model();
        let n = model.n();
        if q >= n {
            let e = csrplus_core::CoSimRankError::QueryOutOfBounds { node: q, n };
            return Err((400, e.to_string()));
        }
        if k == 0 {
            return Ok(Vec::new());
        }
        self.metrics.scatter_requests.fetch_add(1, Ordering::Relaxed);
        let c = model.config().damping;
        let uq = model.u().row_ref(model.internal_row(q));
        let (u0, urest) = (uq.first(), uq.tail_norm2());
        let bounds = self.bounds_for(snapshot);
        let mut order: Vec<(f64, usize)> = bounds
            .iter()
            .enumerate()
            .map(|(si, b)| {
                let z0_term = (u0 * b.z0_max).max(u0 * b.z0_min);
                let bound = c * (z0_term + urest * b.zrest_max);
                // Mathematically `bound ≥` every shard score, but both
                // sides are computed in floats — pad by a few ulps so
                // rounding can never skip a shard holding a boundary
                // score (skips trade work, never correctness).
                (bound + bound.abs() * 1e-12, si)
            })
            .collect();
        order.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));

        let mut best: Vec<(usize, f64)> = Vec::new();
        let mut kth = f64::NEG_INFINITY;
        let mut contacted = 0u64;
        for (idx, &(bound, si)) in order.iter().enumerate() {
            if rank.is_none() && best.len() == k && bound < kth {
                let skipped = (order.len() - idx) as u64;
                self.metrics.scatter_skipped_shards.fetch_add(skipped, Ordering::Relaxed);
                break;
            }
            contacted += 1;
            let body =
                self.fetch(si, &format!("/shard/topk?node={q}&k={k}{}", rank_suffix(rank)))?;
            let merge_start = Instant::now();
            for pair in strings(&body, "results")? {
                let (id, hex) =
                    pair.split_once(':').ok_or((502, format!("bad top-k pair {pair:?}")))?;
                let id: usize = id.parse().map_err(|_| (502, format!("bad node id {id:?}")))?;
                let score = wire::decode_f64(hex).map_err(|e| (502, e))?;
                best.push((id, score));
            }
            best = select_top_k(best, k);
            kth = if best.len() == k { best[k - 1].1 } else { f64::NEG_INFINITY };
            self.metrics.gather_merge_us.observe_duration(merge_start.elapsed());
        }
        self.metrics.scatter_fanout.observe(contacted);
        Ok(best)
    }
}

/// The items of the string array `key` in a shard's JSON body; a body
/// without one is a bad gateway.
fn strings(body: &str, key: &str) -> Result<Vec<String>, (u16, String)> {
    let body = json::parse(body).map_err(|e| (502, format!("malformed shard body: {e}")))?;
    let items = body.get(key).and_then(Value::as_array);
    let items =
        items.and_then(|items| items.iter().map(|v| v.as_str().map(str::to_string)).collect());
    items.ok_or_else(|| (502, format!("shard body has no string array {key:?}")))
}

/// The `&rank=t` query suffix a truncated gather forwards to shards.
fn rank_suffix(rank: Option<usize>) -> String {
    rank.map(|t| format!("&rank={t}")).unwrap_or_default()
}

/// Builds the per-shard split-bound table from a snapshot's `Z` rows
/// (see [`ShardBound`]): each row contributes its leading coordinate
/// `Z[x,0]` and the norm of the rest, `‖Z[x,1..]‖`.
fn derive_bounds(snapshot: &Snapshot, shards: &[ShardSpec]) -> Vec<ShardBound> {
    let z = snapshot.model().z();
    shards
        .iter()
        .map(|s| {
            let mut b =
                ShardBound { z0_min: f64::INFINITY, z0_max: f64::NEG_INFINITY, zrest_max: 0.0 };
            for x in s.lo..s.hi {
                let row = z.row_ref(x);
                let (z0, zrest) = (row.first(), row.tail_norm2());
                b.z0_min = b.z0_min.min(z0);
                b.z0_max = b.z0_max.max(z0);
                b.zrest_max = b.zrest_max.max(zrest);
            }
            b
        })
        .collect()
}
