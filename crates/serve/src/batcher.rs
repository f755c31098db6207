//! The micro-batcher: coalesces concurrently queued single-node column
//! requests into one multi-source `[S]_{*,Q}` evaluation.
//!
//! This is the serving-side payoff of the paper's multi-source identity
//! (`[S]_{*,Q} = [Iₙ]_{*,Q} + c·Z·[U]_{Q,*}ᵀ`): evaluating `|Q|` queries
//! together costs one pass over `Z`, so requests that arrive within a
//! short linger window are answered by a single model evaluation.  Each
//! entry of the batched result is the same independent dot product the
//! unbatched path computes, so coalesced answers are **bitwise equal**
//! to single-source ones.
//!
//! Flow per request: consult the [`ColumnCache`] for each distinct node;
//! enqueue every miss at once and block on one reply channel until all
//! have answered, so a multi-source request is one batch rather than
//! `|Q|` round trips.  A dedicated batcher thread fires
//! when either `max_batch` nodes are pending or the oldest has
//! lingered for the configured window, deduplicates the node set, runs
//! one [`CsrPlusModel::query_columns`] call, feeds the cache, and
//! scatters `Arc` columns back to every waiter.
//!
//! The batcher holds a [`SnapshotHandle`], not a model: every waiter
//! carries the [`Snapshot`] its request loaded, batches are grouped by
//! `(epoch, rank)`, and each group is evaluated against its own
//! snapshot's model — so even requests coalesced across an epoch swap
//! are each answered by exactly the model version they loaded.

use crate::cache::{Column, ColumnCache};
use crate::gauge::LoadGauge;
use crate::metrics::Metrics;
use crate::snapshot::{Snapshot, SnapshotHandle};
use csrplus_core::CsrPlusModel;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Why a column request failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnError {
    /// The reply did not arrive within the caller's timeout.
    Timeout,
    /// The batcher is shutting down and no longer admits requests.
    ShuttingDown,
    /// The model evaluation itself failed (reported verbatim).
    Failed(String),
}

impl std::fmt::Display for ColumnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColumnError::Timeout => write!(f, "timed out waiting for column"),
            ColumnError::ShuttingDown => write!(f, "server is shutting down"),
            ColumnError::Failed(msg) => write!(f, "{msg}"),
        }
    }
}

struct Waiter {
    node: usize,
    /// Where this node's column goes in the submitting request's reply.
    slot: usize,
    /// `Some(t)`: evaluate at truncated rank `t` (pressure-degraded
    /// request); `None`: the full-rank path.
    rank: Option<usize>,
    /// The snapshot the request loaded — the model this waiter must be
    /// answered against, whatever gets published meanwhile.
    snapshot: Arc<Snapshot>,
    /// Shared by every waiter one request enqueued.
    reply: mpsc::Sender<(usize, Result<Column, ColumnError>)>,
}

struct State {
    pending: Vec<Waiter>,
    /// Fire time of the current linger window (set when the first
    /// request of a batch arrives).
    deadline: Option<Instant>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    wake: Condvar,
    handle: Arc<SnapshotHandle>,
    cache: Arc<ColumnCache>,
    metrics: Arc<Metrics>,
    max_batch: usize,
    linger: Duration,
    /// When set, evaluations are restricted to internal rows `lo..hi`:
    /// columns have `hi - lo` entries (what a shard server publishes)
    /// instead of `n`.
    rows: Option<(usize, usize)>,
    /// Queue-depth gauge for the adaptive linger (None in fixed mode).
    gauge: Option<Arc<LoadGauge>>,
    /// Load-aware linger: stretch toward `linger` as the queue fills,
    /// collapse to zero when it is empty.
    adaptive: bool,
}

/// The load-aware linger window: an idle server answers immediately
/// (zero linger — batching has nobody to wait for), and as queue depth
/// rises toward capacity the window stretches linearly up to
/// `linger_max`, amortising more work per evaluation exactly when
/// amortisation pays.
pub fn adaptive_linger(linger_max: Duration, depth: usize, capacity: usize) -> Duration {
    if depth == 0 {
        return Duration::ZERO;
    }
    let fraction = (depth as f64 / capacity.max(1) as f64).clamp(0.0, 1.0);
    linger_max.mul_f64(fraction)
}

impl Shared {
    /// The linger for the window opening now: fixed, or load-aware when
    /// the adaptive policy is on and a gauge is wired.
    fn effective_linger(&self) -> Duration {
        match (&self.gauge, self.adaptive) {
            (Some(gauge), true) => adaptive_linger(self.linger, gauge.depth(), gauge.capacity()),
            _ => self.linger,
        }
    }
}

/// The batcher: owns the background evaluation thread.
pub struct Batcher {
    shared: Arc<Shared>,
    worker: Option<JoinHandle<()>>,
}

impl Batcher {
    /// Starts the batcher thread.  `max_batch` caps `|Q|` per
    /// evaluation; `linger` is how long the first request of a batch
    /// waits for company before the batch fires anyway.
    pub fn new(
        handle: Arc<SnapshotHandle>,
        cache: Arc<ColumnCache>,
        metrics: Arc<Metrics>,
        max_batch: usize,
        linger: Duration,
    ) -> Self {
        Self::for_rows(handle, cache, metrics, max_batch, linger, None)
    }

    /// [`Batcher::new`] restricted to internal rows `lo..hi` — the
    /// per-shard engine of the scatter-gather server.  `None` serves the
    /// full `0..n` range and is exactly [`Batcher::new`].
    pub fn for_rows(
        handle: Arc<SnapshotHandle>,
        cache: Arc<ColumnCache>,
        metrics: Arc<Metrics>,
        max_batch: usize,
        linger: Duration,
        rows: Option<(usize, usize)>,
    ) -> Self {
        Self::with_policies(handle, cache, metrics, max_batch, linger, rows, None, false)
    }

    /// [`Batcher::for_rows`] with the adaptive serving policies: when
    /// `adaptive` is set (and a `gauge` is supplied) the linger window is
    /// [`adaptive_linger`] of the current queue depth instead of the
    /// fixed `linger`.
    #[allow(clippy::too_many_arguments)] // internal assembly seam, called once
    pub fn with_policies(
        handle: Arc<SnapshotHandle>,
        cache: Arc<ColumnCache>,
        metrics: Arc<Metrics>,
        max_batch: usize,
        linger: Duration,
        rows: Option<(usize, usize)>,
        gauge: Option<Arc<LoadGauge>>,
        adaptive: bool,
    ) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State { pending: Vec::new(), deadline: None, shutdown: false }),
            wake: Condvar::new(),
            handle,
            cache,
            metrics,
            max_batch: max_batch.max(1),
            linger,
            rows,
            gauge,
            adaptive,
        });
        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("csrplus-batcher".to_string())
                .spawn(move || batcher_loop(&shared))
                .expect("failed to spawn batcher thread")
        };
        Batcher { shared, worker: Some(worker) }
    }

    /// The similarity column `[S]_{*,node}`, from cache or a (possibly
    /// coalesced) model evaluation.  Blocks up to `timeout`.
    pub fn column(&self, node: usize, timeout: Duration) -> Result<Column, ColumnError> {
        self.column_rank(node, None, timeout)
    }

    /// [`Batcher::column`] at an optional truncated rank.  `Some(t)`
    /// evaluates only the leading `t` factor columns — the
    /// pressure-degraded path — and deliberately bypasses the cache in
    /// both directions: a truncated column must never be served to (or
    /// pollute) full-rank requests.  A rank at or above the model's is
    /// normalised back to the full-rank path, so over-asking degrades
    /// nothing.
    pub fn column_rank(
        &self,
        node: usize,
        rank: Option<usize>,
        timeout: Duration,
    ) -> Result<Column, ColumnError> {
        self.column_rank_at(self.shared.handle.load(), node, rank, timeout)
    }

    /// [`Batcher::column_rank`] against an explicit, already-loaded
    /// snapshot: the one-node case of [`Batcher::columns_rank_at`].
    pub fn column_rank_at(
        &self,
        snapshot: Arc<Snapshot>,
        node: usize,
        rank: Option<usize>,
        timeout: Duration,
    ) -> Result<Column, ColumnError> {
        let mut columns = self.columns_rank_at(snapshot, &[node], rank, timeout)?;
        Ok(columns.pop().expect("one column per node"))
    }

    /// The columns `[S]_{*,nodes}` (in `nodes` order) against an
    /// explicit, already-loaded snapshot — the request-scoped entry
    /// point: the server loads the handle once per request and passes
    /// the same snapshot here and to the renderer, so the whole response
    /// belongs to one epoch.
    ///
    /// Every node is bounds-checked before anything is enqueued.  Cache
    /// hits are taken first; the distinct misses are enqueued together
    /// under one lock with one wake, so a multi-source request becomes
    /// one deduplicated multi-source evaluation (the paper's one pass
    /// over `Z` for all of `Q`) instead of `|Q|` round trips, and every
    /// reply is awaited against one deadline.
    pub fn columns_rank_at(
        &self,
        snapshot: Arc<Snapshot>,
        nodes: &[usize],
        rank: Option<usize>,
        timeout: Duration,
    ) -> Result<Vec<Column>, ColumnError> {
        // `None`: a budget too large to represent, i.e. wait indefinitely.
        let deadline = Instant::now().checked_add(timeout);
        let model = snapshot.model();
        // Validate before enqueueing: one bad node must not poison a
        // whole coalesced batch.  Same error text as the direct path.
        if let Some(&node) = nodes.iter().find(|&&node| node >= model.n()) {
            let e = csrplus_core::CoSimRankError::QueryOutOfBounds { node, n: model.n() };
            return Err(ColumnError::Failed(e.to_string()));
        }
        let rank = rank.filter(|&t| t < model.rank());
        // `first[i]` is where `nodes[i]` first occurs: duplicates share
        // the column answered at that position.
        let first: Vec<usize> = nodes
            .iter()
            .enumerate()
            .map(|(i, node)| nodes[..i].iter().position(|n| n == node).unwrap_or(i))
            .collect();
        let mut slots: Vec<Option<Column>> = vec![None; nodes.len()];
        let mut misses: Vec<usize> = Vec::new();
        for i in (0..nodes.len()).filter(|&i| first[i] == i) {
            // Truncated-rank columns are never cached, never served cached.
            let hit = match rank {
                None => self.shared.cache.get(nodes[i], snapshot.epoch()),
                Some(_) => None,
            };
            match hit {
                Some(column) => slots[i] = Some(column),
                None => misses.push(i),
            }
        }
        if !misses.is_empty() {
            let (reply, receiver) = mpsc::channel();
            {
                let mut state = self.shared.state.lock().expect("batcher state poisoned");
                if state.shutdown {
                    return Err(ColumnError::ShuttingDown);
                }
                if state.pending.is_empty() {
                    state.deadline = Some(Instant::now() + self.shared.effective_linger());
                }
                state.pending.extend(misses.iter().map(|&slot| Waiter {
                    node: nodes[slot],
                    slot,
                    rank,
                    snapshot: Arc::clone(&snapshot),
                    reply: reply.clone(),
                }));
            }
            self.shared.wake.notify_one();
            drop(reply);
            for _ in &misses {
                let wait =
                    deadline.map_or(Duration::MAX, |d| d.saturating_duration_since(Instant::now()));
                match receiver.recv_timeout(wait) {
                    Ok((slot, result)) => slots[slot] = Some(result?),
                    Err(mpsc::RecvTimeoutError::Timeout) => return Err(ColumnError::Timeout),
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        return Err(ColumnError::ShuttingDown)
                    }
                }
            }
        }
        Ok(first.iter().map(|&j| slots[j].clone().expect("every node answered")).collect())
    }

    /// Stops admitting requests, answers everything already pending, and
    /// joins the batcher thread.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }

    fn begin_shutdown(&self) {
        self.shared.state.lock().expect("batcher state poisoned").shutdown = true;
        self.shared.wake.notify_all();
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.begin_shutdown();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

fn batcher_loop(shared: &Shared) {
    // Worker-owned evaluation scratch: the n×|batch| similarity block is
    // written into this buffer batch after batch, so steady-state serving
    // allocates only the per-query output columns it hands to waiters.
    let mut scratch = csrplus_core::DenseMatrix::zeros(0, 0);
    let mut state = shared.state.lock().expect("batcher state poisoned");
    loop {
        if state.pending.is_empty() {
            if state.shutdown {
                return;
            }
            state = shared.wake.wait(state).expect("batcher state poisoned");
            continue;
        }
        let now = Instant::now();
        let due = state.deadline.is_some_and(|d| d <= now);
        if state.pending.len() >= shared.max_batch || due || state.shutdown {
            let take = state.pending.len().min(shared.max_batch);
            let batch: Vec<Waiter> = state.pending.drain(..take).collect();
            // Anything left over starts a fresh linger window now.
            state.deadline =
                if state.pending.is_empty() { None } else { Some(now + shared.effective_linger()) };
            drop(state);
            evaluate(shared, batch, &mut scratch);
            state = shared.state.lock().expect("batcher state poisoned");
        } else {
            let wait = state.deadline.expect("pending implies deadline") - now;
            state = shared.wake.wait_timeout(state, wait).expect("batcher state poisoned").0;
        }
    }
}

/// Splits the batch into `(epoch, rank)` groups — full-rank waiters and
/// each distinct truncated rank, per snapshot epoch — and runs one
/// deduplicated multi-source evaluation per group against that group's
/// own snapshot.  Almost every batch is a single full-rank group on the
/// current epoch, which takes exactly the pre-policy path; requests
/// coalesced across an epoch swap split into one group per model
/// version, so nobody is answered by a model they did not load.
fn evaluate(shared: &Shared, batch: Vec<Waiter>, scratch: &mut csrplus_core::DenseMatrix) {
    /// One `(epoch, truncated-rank)` evaluation group key.
    type GroupKey = (u64, Option<usize>);
    let mut groups: Vec<(GroupKey, Vec<Waiter>)> = Vec::new();
    for waiter in batch {
        let key = (waiter.snapshot.epoch(), waiter.rank);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, group)) => group.push(waiter),
            None => groups.push((key, vec![waiter])),
        }
    }
    for ((_, rank), group) in groups {
        evaluate_group(shared, rank, group, scratch);
    }
}

/// Runs one deduplicated multi-source evaluation (through the worker's
/// reusable `scratch` block) and scatters the columns back to every
/// waiter in the group.  `rank: Some(t)` evaluates the truncated-rank
/// product and skips the cache (truncated columns are never cached).
/// All waiters share one snapshot (the grouping key includes the
/// epoch), so the first waiter's model is the group's model.
fn evaluate_group(
    shared: &Shared,
    rank: Option<usize>,
    batch: Vec<Waiter>,
    scratch: &mut csrplus_core::DenseMatrix,
) {
    let snapshot = Arc::clone(&batch[0].snapshot);
    let model: &CsrPlusModel = snapshot.model();
    let mut nodes: Vec<usize> = Vec::with_capacity(batch.len());
    let mut slot: Vec<usize> = Vec::with_capacity(batch.len());
    for waiter in &batch {
        match nodes.iter().position(|&n| n == waiter.node) {
            Some(i) => slot.push(i),
            None => {
                slot.push(nodes.len());
                nodes.push(waiter.node);
            }
        }
    }
    shared.metrics.batched_requests.fetch_add(batch.len() as u64, Ordering::Relaxed);
    let eval_rank = rank.unwrap_or_else(|| model.rank());
    let columns = match shared.rows {
        // A shard evaluates (and caches) only its own row slice; each
        // partial entry is the same dot product the full path computes,
        // so slices concatenate bitwise into the single-process column.
        Some((lo, hi)) => model.query_columns_range_rank_into(&nodes, lo, hi, eval_rank, scratch),
        None => model.query_columns_rank_into(&nodes, eval_rank, scratch),
    };
    match columns {
        Ok(columns) => {
            shared.metrics.model_evaluations.fetch_add(1, Ordering::Relaxed);
            shared.metrics.batch_sizes.observe(nodes.len() as u64);
            if let Some(t) = rank {
                shared.metrics.degraded_requests.fetch_add(batch.len() as u64, Ordering::Relaxed);
                shared.metrics.served_rank.observe(t.max(1) as u64);
            }
            let columns: Vec<Column> =
                columns.into_iter().map(|c| Column::from(c.into_boxed_slice())).collect();
            if rank.is_none() {
                for (&node, column) in nodes.iter().zip(&columns) {
                    shared.cache.insert(node, snapshot.epoch(), Arc::clone(column));
                }
            }
            for (waiter, &i) in batch.iter().zip(&slot) {
                // A send fails only if the requester already timed out.
                let _ = waiter.reply.send((waiter.slot, Ok(Arc::clone(&columns[i]))));
            }
        }
        Err(e) => {
            let msg = e.to_string();
            for waiter in batch {
                let _ = waiter.reply.send((waiter.slot, Err(ColumnError::Failed(msg.clone()))));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csrplus_core::CsrPlusConfig;
    use csrplus_graph::{generators::figure1_graph, TransitionMatrix};

    fn model() -> Arc<CsrPlusModel> {
        let t = TransitionMatrix::from_graph(&figure1_graph());
        Arc::new(CsrPlusModel::precompute(&t, &CsrPlusConfig::with_rank(3)).unwrap())
    }

    fn batcher(
        max_batch: usize,
        linger: Duration,
        cache_capacity: usize,
    ) -> (Batcher, Arc<Metrics>, Arc<CsrPlusModel>) {
        let metrics = Arc::new(Metrics::new());
        let m = model();
        let handle = Arc::new(SnapshotHandle::new(Arc::clone(&m)));
        let cache = Arc::new(ColumnCache::new(cache_capacity, 2, Arc::clone(&metrics)));
        (Batcher::new(handle, cache, Arc::clone(&metrics), max_batch, linger), metrics, m)
    }

    const TIMEOUT: Duration = Duration::from_secs(10);

    #[test]
    fn single_request_matches_single_source() {
        let (b, metrics, m) = batcher(4, Duration::from_micros(100), 0);
        let col = b.column(1, TIMEOUT).unwrap();
        let expected = m.single_source(1).unwrap();
        assert_eq!(&col[..], &expected[..], "batched column must be bitwise equal");
        assert_eq!(metrics.model_evaluations.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn concurrent_requests_coalesce_into_one_evaluation() {
        // Long linger + max_batch = K: the batch fires exactly when the
        // K-th request arrives, so the count is deterministic.
        const K: usize = 4;
        let (b, metrics, m) = batcher(K, Duration::from_secs(30), 0);
        let b = Arc::new(b);
        let handles: Vec<_> = (0..K)
            .map(|node| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || b.column(node, TIMEOUT).unwrap())
            })
            .collect();
        let columns: Vec<Column> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(metrics.model_evaluations.load(Ordering::Relaxed), 1, "one coalesced pass");
        assert_eq!(metrics.batched_requests.load(Ordering::Relaxed), K as u64);
        assert_eq!(metrics.batch_sizes.count(), 1);
        assert_eq!(metrics.batch_sizes.sum(), K as u64);
        for (node, col) in columns.iter().enumerate() {
            let expected = m.single_source(node).unwrap();
            assert_eq!(&col[..], &expected[..], "node {node} column must be bitwise equal");
        }
    }

    #[test]
    fn duplicate_nodes_deduplicate_within_a_batch() {
        let (b, metrics, _m) = batcher(3, Duration::from_secs(30), 0);
        let b = Arc::new(b);
        let handles: Vec<_> = [2usize, 2, 2]
            .into_iter()
            .map(|node| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || b.column(node, TIMEOUT).unwrap())
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(metrics.model_evaluations.load(Ordering::Relaxed), 1);
        // Three requests, one deduplicated query node.
        assert_eq!(metrics.batched_requests.load(Ordering::Relaxed), 3);
        assert_eq!(metrics.batch_sizes.sum(), 1);
    }

    #[test]
    fn cache_hit_skips_the_batcher() {
        let (b, metrics, _m) = batcher(4, Duration::from_micros(100), 8);
        b.column(1, TIMEOUT).unwrap();
        b.column(1, TIMEOUT).unwrap();
        assert_eq!(metrics.model_evaluations.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.cache_hits.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.cache_misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn out_of_bounds_node_fails_fast() {
        let (b, _metrics, _m) = batcher(4, Duration::from_micros(100), 0);
        match b.column(99, TIMEOUT) {
            Err(ColumnError::Failed(msg)) => assert!(msg.contains("99"), "{msg}"),
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn linger_deadline_fires_partial_batches() {
        // max_batch 64 never fills; the 5 ms linger must fire the batch.
        let (b, metrics, _m) = batcher(64, Duration::from_millis(5), 0);
        let col = b.column(3, TIMEOUT).unwrap();
        assert_eq!(col.len(), 6);
        assert_eq!(metrics.model_evaluations.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn shutdown_rejects_new_requests() {
        let (b, _metrics, _m) = batcher(4, Duration::from_micros(100), 0);
        b.begin_shutdown();
        assert_eq!(b.column(1, TIMEOUT).unwrap_err(), ColumnError::ShuttingDown);
    }

    /// A 40-node model, so one request can name many distinct nodes.
    fn wide_batcher(cache_capacity: usize) -> (Batcher, Arc<Metrics>, Arc<CsrPlusModel>) {
        let t = TransitionMatrix::from_graph(
            &csrplus_graph::generators::erdos_renyi(40, 160, 7).unwrap(),
        );
        let m = Arc::new(CsrPlusModel::precompute(&t, &CsrPlusConfig::with_rank(4)).unwrap());
        let metrics = Arc::new(Metrics::new());
        let handle = Arc::new(SnapshotHandle::new(Arc::clone(&m)));
        let cache = Arc::new(ColumnCache::new(cache_capacity, 2, Arc::clone(&metrics)));
        let b = Batcher::new(handle, cache, Arc::clone(&metrics), 32, Duration::from_micros(200));
        (b, metrics, m)
    }

    fn many(b: &Batcher, nodes: &[usize]) -> Result<Vec<Column>, ColumnError> {
        b.columns_rank_at(b.shared.handle.load(), nodes, None, TIMEOUT)
    }

    fn evaluations(metrics: &Metrics) -> u64 {
        metrics.model_evaluations.load(Ordering::Relaxed)
    }

    #[test]
    fn duplicate_nodes_in_one_request_are_evaluated_once() {
        let (b, metrics, m) = wide_batcher(0);
        let nodes = [5, 7, 5, 5, 7, 2];
        let columns = many(&b, &nodes).unwrap();
        assert_eq!(evaluations(&metrics), 1);
        assert_eq!(metrics.batch_sizes.sum(), 3, "three distinct nodes");
        assert_eq!(metrics.batched_requests.load(Ordering::Relaxed), 3);
        for (&q, col) in nodes.iter().zip(&columns) {
            assert_eq!(&col[..], &m.single_source(q).unwrap()[..], "node {q}");
        }
        assert!(Arc::ptr_eq(&columns[0], &columns[2]), "duplicates share one column");
    }

    #[test]
    fn a_partly_cached_list_evaluates_only_its_misses() {
        let (b, metrics, m) = wide_batcher(64);
        many(&b, &[1, 2]).unwrap();
        assert_eq!(evaluations(&metrics), 1);
        let nodes = [4, 1, 6, 2];
        let columns = many(&b, &nodes).unwrap();
        assert_eq!(evaluations(&metrics), 2);
        assert_eq!(metrics.batch_sizes.sum(), 2 + 2, "second pass held only 4 and 6");
        assert_eq!(metrics.cache_hits.load(Ordering::Relaxed), 2);
        for (&q, col) in nodes.iter().zip(&columns) {
            assert_eq!(&col[..], &m.single_source(q).unwrap()[..], "node {q}");
        }
        // Fully cached: no evaluation at all.
        many(&b, &[6, 4, 2, 1]).unwrap();
        assert_eq!(evaluations(&metrics), 2);
    }

    #[test]
    fn an_out_of_bounds_node_anywhere_fails_before_enqueueing() {
        let (b, metrics, m) = wide_batcher(64);
        for nodes in [&[40, 1, 2][..], &[1, 2, 99], &[1, usize::MAX, 2]] {
            match many(&b, nodes) {
                Err(ColumnError::Failed(msg)) => assert!(msg.contains("out of"), "{msg}"),
                other => panic!("expected Failed for {nodes:?}, got {other:?}"),
            }
        }
        assert_eq!(evaluations(&metrics), 0, "nothing was enqueued");
        assert_eq!(metrics.batched_requests.load(Ordering::Relaxed), 0);
        assert_eq!(metrics.cache_misses.load(Ordering::Relaxed), 0, "no cache lookups either");
        // The batcher keeps serving.
        let columns = many(&b, &[1, 2]).unwrap();
        assert_eq!(&columns[1][..], &m.single_source(2).unwrap()[..]);
        assert_eq!(evaluations(&metrics), 1);
    }

    #[test]
    fn a_many_node_request_after_shutdown_is_refused() {
        let (b, metrics, _m) = wide_batcher(64);
        b.begin_shutdown();
        assert_eq!(many(&b, &[1, 2]).unwrap_err(), ColumnError::ShuttingDown);
        assert_eq!(metrics.batched_requests.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn adaptive_linger_scales_with_queue_pressure() {
        let max = Duration::from_micros(200);
        assert_eq!(adaptive_linger(max, 0, 16), Duration::ZERO, "idle queue answers immediately");
        assert_eq!(adaptive_linger(max, 4, 16), Duration::from_micros(50));
        assert_eq!(adaptive_linger(max, 8, 16), Duration::from_micros(100));
        assert_eq!(adaptive_linger(max, 16, 16), max);
        assert_eq!(adaptive_linger(max, 64, 16), max, "overfull clamps at the cap");
        assert_eq!(adaptive_linger(max, 3, 0), max, "zero capacity treated as 1");
    }

    #[test]
    fn concurrent_submit_storm_answers_every_waiter_correctly() {
        // Hammer the batcher from many threads at once with tiny batches
        // and a tiny cache so batching, eviction, and dedup all churn
        // concurrently; every reply must still be the exact column.
        const THREADS: usize = 16;
        const REQUESTS: usize = 25;
        let metrics = Arc::new(Metrics::new());
        let m = model();
        let handle = Arc::new(SnapshotHandle::new(Arc::clone(&m)));
        let cache = Arc::new(ColumnCache::new(2, 2, Arc::clone(&metrics)));
        let b = Arc::new(Batcher::new(
            handle,
            cache,
            Arc::clone(&metrics),
            3,
            Duration::from_micros(50),
        ));
        let expected: Vec<Vec<f64>> = (0..m.n()).map(|q| m.single_source(q).unwrap()).collect();
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let b = Arc::clone(&b);
                let expected = expected.clone();
                std::thread::spawn(move || {
                    for i in 0..REQUESTS {
                        let node = (t * 7 + i * 3) % expected.len();
                        let col = b.column(node, TIMEOUT).unwrap();
                        assert_eq!(&col[..], &expected[node][..], "node {node} column corrupted");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let answered = metrics.cache_hits.load(Ordering::Relaxed)
            + metrics.batched_requests.load(Ordering::Relaxed);
        assert_eq!(answered, (THREADS * REQUESTS) as u64, "every request answered exactly once");
    }

    #[test]
    fn degraded_rank_bypasses_the_cache_both_ways() {
        let (b, metrics, m) = batcher(4, Duration::from_micros(100), 8);
        // Warm the cache with the full-rank column.
        let full = b.column(1, TIMEOUT).unwrap();
        assert_eq!(metrics.model_evaluations.load(Ordering::Relaxed), 1);
        // A degraded request must not be served the cached full column…
        let truncated = b.column_rank(1, Some(1), TIMEOUT).unwrap();
        assert_eq!(metrics.model_evaluations.load(Ordering::Relaxed), 2, "cache read bypassed");
        assert_ne!(&full[..], &truncated[..], "rank-1 column differs from rank-3");
        let mut scratch = csrplus_core::DenseMatrix::zeros(0, 0);
        let expected = m.query_columns_rank_into(&[1], 1, &mut scratch).unwrap();
        assert_eq!(&truncated[..], &expected[0][..], "truncated column bitwise exact");
        assert_eq!(metrics.degraded_requests.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.served_rank.count(), 1);
        // …and must not have displaced or overwritten the cached one.
        let again = b.column(1, TIMEOUT).unwrap();
        assert_eq!(
            metrics.model_evaluations.load(Ordering::Relaxed),
            2,
            "full column still cached"
        );
        assert_eq!(&again[..], &full[..]);
    }

    #[test]
    fn rank_at_or_above_the_models_is_the_full_rank_path() {
        let (b, metrics, _m) = batcher(4, Duration::from_micros(100), 8);
        let full = b.column(2, TIMEOUT).unwrap();
        // Over-asking normalises to None: served from cache, not degraded.
        let over = b.column_rank(2, Some(3), TIMEOUT).unwrap();
        let way_over = b.column_rank(2, Some(usize::MAX), TIMEOUT).unwrap();
        assert_eq!(&over[..], &full[..]);
        assert_eq!(&way_over[..], &full[..]);
        assert_eq!(metrics.model_evaluations.load(Ordering::Relaxed), 1, "cache served both");
        assert_eq!(metrics.degraded_requests.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn waiters_coalesced_across_an_epoch_swap_split_into_per_epoch_groups() {
        // Two waiters holding different snapshots land in one linger
        // window; the batcher must answer each against its own model —
        // two groups, two evaluations — even though the node is shared.
        let metrics = Arc::new(Metrics::new());
        let m = model();
        let handle = Arc::new(SnapshotHandle::new(Arc::clone(&m)));
        let old = handle.load();
        handle.publish(Arc::clone(&m));
        let new = handle.load();
        assert_ne!(old.epoch(), new.epoch());
        let cache = Arc::new(ColumnCache::new(8, 2, Arc::clone(&metrics)));
        let b = Arc::new(Batcher::new(
            Arc::clone(&handle),
            cache,
            Arc::clone(&metrics),
            2,
            Duration::from_secs(30),
        ));
        let handles: Vec<_> = [old, new]
            .into_iter()
            .map(|snap| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || b.column_rank_at(snap, 1, None, TIMEOUT).unwrap())
            })
            .collect();
        let cols: Vec<Column> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(metrics.model_evaluations.load(Ordering::Relaxed), 2, "one pass per epoch");
        let expected = m.single_source(1).unwrap();
        for col in cols {
            assert_eq!(&col[..], &expected[..]);
        }
        // Both epochs' columns were cached under their own tags: an
        // epoch-1 read hits without touching the epoch-0 entry.
        assert!(b.shared.cache.get(1, new_epoch(&handle)).is_some());
    }

    fn new_epoch(handle: &SnapshotHandle) -> u64 {
        handle.epoch()
    }

    #[test]
    fn mixed_rank_batches_group_by_rank() {
        // One batch holding full-rank and two distinct truncated ranks:
        // three groups, three evaluations, every waiter answered right.
        let (b, metrics, m) = batcher(6, Duration::from_secs(30), 0);
        let b = Arc::new(b);
        let requests: Vec<(usize, Option<usize>)> =
            vec![(0, None), (1, Some(1)), (2, Some(2)), (3, None), (1, Some(2)), (4, Some(1))];
        let handles: Vec<_> = requests
            .iter()
            .map(|&(node, rank)| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    (node, rank, b.column_rank(node, rank, TIMEOUT).unwrap())
                })
            })
            .collect();
        let mut scratch = csrplus_core::DenseMatrix::zeros(0, 0);
        for h in handles {
            let (node, rank, col) = h.join().unwrap();
            let t = rank.unwrap_or_else(|| m.rank());
            let expected = m.query_columns_rank_into(&[node], t, &mut scratch).unwrap();
            assert_eq!(&col[..], &expected[0][..], "node {node} rank {rank:?}");
        }
        assert_eq!(metrics.model_evaluations.load(Ordering::Relaxed), 3, "one pass per rank group");
        assert_eq!(metrics.degraded_requests.load(Ordering::Relaxed), 4);
    }
}
