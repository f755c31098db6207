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
//! Flow per request: enqueue every distinct node at once and block on
//! one reply channel until all have answered, so a multi-source request
//! is one batch rather than `|Q|` round trips.  A dedicated batcher
//! thread fires when either `max_batch` nodes are pending or the oldest
//! has lingered for the configured window, deduplicates the node set,
//! runs one [`CsrPlusModel::columns_into`] evaluation, and scatters `Arc`
//! columns back to every waiter; it keeps none.  An evaluation that
//! panics fails only its own waiters, with [`ColumnError::Panicked`].
//!
//! The batcher holds no model: every waiter carries the [`Snapshot`]
//! its request loaded, batches are grouped by
//! `(epoch, rank)`, and each group is evaluated against its own
//! snapshot's model — so even requests coalesced across an epoch swap
//! are each answered by exactly the model version they loaded.

use crate::cache::Column;
use crate::gauge::LoadGauge;
use crate::metrics::Metrics;
use crate::snapshot::Snapshot;
use csrplus_core::{CsrPlusModel, Query};
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
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
    /// The evaluation of this request's batch panicked.
    Panicked,
}

impl std::fmt::Display for ColumnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColumnError::Timeout => write!(f, "timed out waiting for column"),
            ColumnError::ShuttingDown => write!(f, "server is shutting down"),
            ColumnError::Failed(msg) => write!(f, "{msg}"),
            ColumnError::Panicked => write!(f, "column evaluation panicked"),
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
    metrics: Arc<Metrics>,
    max_batch: usize,
    linger: Duration,
    /// When set, evaluations are restricted to internal rows `lo..hi`:
    /// columns have `hi - lo` entries (what a shard server publishes)
    /// instead of `n`.
    rows: Option<Range<usize>>,
    /// Load-aware linger: with a queue-depth gauge the window stretches
    /// toward `linger` as the queue fills and collapses to zero when it
    /// is empty; `None` keeps the fixed `linger`.
    adaptive: Option<Arc<LoadGauge>>,
    /// Test seam: the next evaluated group panics.
    #[cfg(test)]
    panic_next: std::sync::atomic::AtomicBool,
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
    /// the adaptive policy is on.
    fn effective_linger(&self) -> Duration {
        match &self.adaptive {
            Some(gauge) => adaptive_linger(self.linger, gauge.depth(), gauge.capacity()),
            None => self.linger,
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
    /// `rows: Some((lo, hi))` restricts every evaluation to internal rows
    /// `lo..hi` — the per-shard engine of the scatter-gather server.
    /// With an `adaptive` gauge the linger window is [`adaptive_linger`]
    /// of its current queue depth instead of the fixed `linger`.
    pub fn new(
        metrics: Arc<Metrics>,
        max_batch: usize,
        linger: Duration,
        rows: Option<(usize, usize)>,
        adaptive: Option<Arc<LoadGauge>>,
    ) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State { pending: Vec::new(), deadline: None, shutdown: false }),
            wake: Condvar::new(),
            metrics,
            max_batch: max_batch.max(1),
            linger,
            rows: rows.map(|(lo, hi)| lo..hi),
            adaptive,
            #[cfg(test)]
            panic_next: std::sync::atomic::AtomicBool::new(false),
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

    /// The columns `[S]_{*,nodes}` (in `nodes` order) against an
    /// explicit, already-loaded snapshot, from one (possibly coalesced)
    /// model evaluation, waiting up to `timeout`.  The server
    /// loads the handle once per request and passes the same snapshot
    /// here and to the renderer, so the whole response belongs to one
    /// epoch.
    ///
    /// `rank: Some(t)` evaluates only the leading `t` factor columns —
    /// the pressure-degraded path, grouped apart from full-rank waiters.
    /// A rank at or above the model's is normalised back to the
    /// full-rank path, so over-asking degrades nothing.
    ///
    /// Every node is bounds-checked before anything is enqueued.  The
    /// distinct nodes are enqueued together under one lock with one wake,
    /// so a multi-source request becomes one deduplicated multi-source
    /// evaluation (the paper's one pass over `Z` for all of `Q`) instead
    /// of `|Q|` round trips, and every reply is awaited against one
    /// deadline.
    pub fn columns(
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
        let distinct: Vec<usize> = (0..nodes.len()).filter(|&i| first[i] == i).collect();
        let mut slots: Vec<Option<Column>> = vec![None; nodes.len()];
        let (reply, receiver) = mpsc::channel();
        {
            let mut state = self.shared.state.lock().expect("batcher state poisoned");
            if state.shutdown {
                return Err(ColumnError::ShuttingDown);
            }
            if state.pending.is_empty() {
                state.deadline = Some(Instant::now() + self.shared.effective_linger());
            }
            state.pending.extend(distinct.iter().map(|&slot| Waiter {
                node: nodes[slot],
                slot,
                rank,
                snapshot: Arc::clone(&snapshot),
                reply: reply.clone(),
            }));
        }
        self.shared.wake.notify_one();
        drop(reply);
        for _ in &distinct {
            let wait =
                deadline.map_or(Duration::MAX, |d| d.saturating_duration_since(Instant::now()));
            match receiver.recv_timeout(wait) {
                Ok((slot, result)) => slots[slot] = Some(result?),
                Err(mpsc::RecvTimeoutError::Timeout) => return Err(ColumnError::Timeout),
                Err(mpsc::RecvTimeoutError::Disconnected) => return Err(ColumnError::ShuttingDown),
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

    /// Makes the next evaluated group panic, to exercise containment.
    #[cfg(test)]
    pub(crate) fn panic_next_batch(&self) {
        self.shared.panic_next.store(true, Ordering::SeqCst);
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
///
/// A group whose evaluation panics answers its own waiters with
/// [`ColumnError::Panicked`] and is counted; the other groups, and the
/// batcher thread, carry on.
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
        let run = AssertUnwindSafe(|| evaluate_group(shared, rank, &group, scratch));
        if panic::catch_unwind(run).is_err() {
            shared.metrics.batch_panics.fetch_add(1, Ordering::Relaxed);
            // The unwound evaluation may have left the scratch block
            // half-resized: start the next one from an empty block.
            *scratch = csrplus_core::DenseMatrix::zeros(0, 0);
            for waiter in &group {
                let _ = waiter.reply.send((waiter.slot, Err(ColumnError::Panicked)));
            }
        }
    }
}

/// Runs one deduplicated multi-source evaluation (through the worker's
/// reusable `scratch` block) and scatters the columns back to every
/// waiter in the group.  `rank: Some(t)` evaluates the truncated-rank
/// product.  All waiters share one snapshot (the grouping key includes
/// the epoch), so the first waiter's model is the group's model.
fn evaluate_group(
    shared: &Shared,
    rank: Option<usize>,
    batch: &[Waiter],
    scratch: &mut csrplus_core::DenseMatrix,
) {
    #[cfg(test)]
    if shared.panic_next.swap(false, Ordering::SeqCst) {
        panic!("injected batch panic");
    }
    let model: &CsrPlusModel = batch[0].snapshot.model();
    let mut nodes: Vec<usize> = Vec::with_capacity(batch.len());
    let mut slot: Vec<usize> = Vec::with_capacity(batch.len());
    for waiter in batch {
        match nodes.iter().position(|&n| n == waiter.node) {
            Some(i) => slot.push(i),
            None => {
                slot.push(nodes.len());
                nodes.push(waiter.node);
            }
        }
    }
    shared.metrics.batched_requests.fetch_add(batch.len() as u64, Ordering::Relaxed);
    // A shard evaluates only its own row slice; each partial entry is the
    // same dot product the full path computes, so slices concatenate
    // bitwise into the single-process column.
    let query = Query { sources: &nodes, rows: shared.rows.clone(), rank };
    // Each column is collected straight into the `Arc` its waiters share.
    match model.collect_columns::<Column>(&query, scratch) {
        Ok(columns) => {
            shared.metrics.model_evaluations.fetch_add(1, Ordering::Relaxed);
            shared.metrics.batch_sizes.observe(nodes.len() as u64);
            if let Some(t) = rank {
                shared.metrics.degraded_requests.fetch_add(batch.len() as u64, Ordering::Relaxed);
                shared.metrics.served_rank.observe(t.max(1) as u64);
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

    const TIMEOUT: Duration = Duration::from_secs(10);

    fn fig1() -> CsrPlusModel {
        let t = TransitionMatrix::from_graph(&figure1_graph());
        CsrPlusModel::precompute(&t, &CsrPlusConfig::with_rank(3)).unwrap()
    }

    /// A 40-node model, so one request can name many distinct nodes.
    fn wide() -> CsrPlusModel {
        let t = TransitionMatrix::from_graph(
            &csrplus_graph::generators::erdos_renyi(40, 160, 7).unwrap(),
        );
        CsrPlusModel::precompute(&t, &CsrPlusConfig::with_rank(4)).unwrap()
    }

    /// A batcher plus the epoch-0 snapshot its requests are pinned to.
    struct Rig {
        b: Batcher,
        metrics: Arc<Metrics>,
        snapshot: Arc<Snapshot>,
    }

    impl Rig {
        fn new(m: CsrPlusModel, max_batch: usize, linger: Duration) -> Rig {
            let metrics = Arc::new(Metrics::new());
            let b = Batcher::new(Arc::clone(&metrics), max_batch, linger, None, None);
            Rig { b, metrics, snapshot: Arc::new(Snapshot::new(0, Arc::new(m))) }
        }

        fn model(&self) -> &CsrPlusModel {
            self.snapshot.model()
        }

        fn many(&self, nodes: &[usize]) -> Result<Vec<Column>, ColumnError> {
            self.b.columns(Arc::clone(&self.snapshot), nodes, None, TIMEOUT)
        }

        /// One node's column at `rank`.
        fn column(&self, node: usize, rank: Option<usize>) -> Result<Column, ColumnError> {
            Ok(self.b.columns(Arc::clone(&self.snapshot), &[node], rank, TIMEOUT)?.remove(0))
        }

        fn evaluations(&self) -> u64 {
            self.metrics.model_evaluations.load(Ordering::Relaxed)
        }
    }

    #[test]
    fn single_request_matches_single_source() {
        let rig = Rig::new(fig1(), 4, Duration::from_micros(100));
        let col = rig.column(1, None).unwrap();
        let expected = rig.model().single_source(1).unwrap();
        assert_eq!(&col[..], &expected[..], "batched column must be bitwise equal");
        assert_eq!(rig.evaluations(), 1);
    }

    #[test]
    fn concurrent_requests_coalesce_into_one_evaluation() {
        // Long linger + max_batch = K: the batch fires exactly when the
        // K-th request arrives, so the count is deterministic.
        const K: usize = 4;
        let rig = Arc::new(Rig::new(fig1(), K, Duration::from_secs(30)));
        let handles: Vec<_> = (0..K)
            .map(|node| {
                let rig = Arc::clone(&rig);
                std::thread::spawn(move || rig.column(node, None).unwrap())
            })
            .collect();
        let columns: Vec<Column> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let metrics = &rig.metrics;
        assert_eq!(rig.evaluations(), 1, "one coalesced pass");
        assert_eq!(metrics.batched_requests.load(Ordering::Relaxed), K as u64);
        assert_eq!(metrics.batch_sizes.count(), 1);
        assert_eq!(metrics.batch_sizes.sum(), K as u64);
        for (node, col) in columns.iter().enumerate() {
            let expected = rig.model().single_source(node).unwrap();
            assert_eq!(&col[..], &expected[..], "node {node} column must be bitwise equal");
        }
    }

    #[test]
    fn duplicate_nodes_deduplicate_within_a_batch() {
        let rig = Arc::new(Rig::new(fig1(), 3, Duration::from_secs(30)));
        let handles: Vec<_> = [2usize, 2, 2]
            .into_iter()
            .map(|node| {
                let rig = Arc::clone(&rig);
                std::thread::spawn(move || rig.column(node, None).unwrap())
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rig.evaluations(), 1);
        // Three requests, one deduplicated query node.
        assert_eq!(rig.metrics.batched_requests.load(Ordering::Relaxed), 3);
        assert_eq!(rig.metrics.batch_sizes.sum(), 1);
    }

    #[test]
    fn out_of_bounds_node_fails_fast() {
        let rig = Rig::new(fig1(), 4, Duration::from_micros(100));
        match rig.column(99, None) {
            Err(ColumnError::Failed(msg)) => assert!(msg.contains("99"), "{msg}"),
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn linger_deadline_fires_partial_batches() {
        // max_batch 64 never fills; the 5 ms linger must fire the batch.
        let rig = Rig::new(fig1(), 64, Duration::from_millis(5));
        let col = rig.column(3, None).unwrap();
        assert_eq!(col.len(), 6);
        assert_eq!(rig.evaluations(), 1);
    }

    #[test]
    fn shutdown_rejects_new_requests() {
        let rig = Rig::new(fig1(), 4, Duration::from_micros(100));
        rig.b.begin_shutdown();
        assert_eq!(rig.column(1, None).unwrap_err(), ColumnError::ShuttingDown);
    }

    fn wide_rig() -> Rig {
        Rig::new(wide(), 32, Duration::from_micros(200))
    }

    #[test]
    fn duplicate_nodes_in_one_request_are_evaluated_once() {
        let rig = wide_rig();
        let nodes = [5, 7, 5, 5, 7, 2];
        let columns = rig.many(&nodes).unwrap();
        assert_eq!(rig.evaluations(), 1);
        assert_eq!(rig.metrics.batch_sizes.sum(), 3, "three distinct nodes");
        assert_eq!(rig.metrics.batched_requests.load(Ordering::Relaxed), 3);
        for (&q, col) in nodes.iter().zip(&columns) {
            assert_eq!(&col[..], &rig.model().single_source(q).unwrap()[..], "node {q}");
        }
        assert!(Arc::ptr_eq(&columns[0], &columns[2]), "duplicates share one column");
    }

    #[test]
    fn an_out_of_bounds_node_anywhere_fails_before_enqueueing() {
        let rig = wide_rig();
        for nodes in [&[40, 1, 2][..], &[1, 2, 99], &[1, usize::MAX, 2]] {
            match rig.many(nodes) {
                Err(ColumnError::Failed(msg)) => assert!(msg.contains("out of"), "{msg}"),
                other => panic!("expected Failed for {nodes:?}, got {other:?}"),
            }
        }
        let metrics = &rig.metrics;
        assert_eq!(rig.evaluations(), 0, "nothing was enqueued");
        assert_eq!(metrics.batched_requests.load(Ordering::Relaxed), 0);
        // The batcher keeps serving.
        let columns = rig.many(&[1, 2]).unwrap();
        assert_eq!(&columns[1][..], &rig.model().single_source(2).unwrap()[..]);
        assert_eq!(rig.evaluations(), 1);
    }

    #[test]
    fn a_many_node_request_after_shutdown_is_refused() {
        let rig = wide_rig();
        rig.b.begin_shutdown();
        assert_eq!(rig.many(&[1, 2]).unwrap_err(), ColumnError::ShuttingDown);
        assert_eq!(rig.metrics.batched_requests.load(Ordering::Relaxed), 0);
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
        // so batching and dedup churn concurrently; every reply must
        // still be the exact column.
        const THREADS: usize = 16;
        const REQUESTS: usize = 25;
        let rig = Arc::new(Rig::new(fig1(), 3, Duration::from_micros(50)));
        let m = rig.model();
        let expected: Vec<Vec<f64>> = (0..m.n()).map(|q| m.single_source(q).unwrap()).collect();
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let rig = Arc::clone(&rig);
                let expected = expected.clone();
                std::thread::spawn(move || {
                    for i in 0..REQUESTS {
                        let node = (t * 7 + i * 3) % expected.len();
                        let col = rig.column(node, None).unwrap();
                        assert_eq!(&col[..], &expected[node][..], "node {node} column corrupted");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let answered = rig.metrics.batched_requests.load(Ordering::Relaxed);
        assert_eq!(answered, (THREADS * REQUESTS) as u64, "every request answered exactly once");
    }

    #[test]
    fn degraded_rank_evaluates_the_truncated_product() {
        let rig = Rig::new(fig1(), 4, Duration::from_micros(100));
        let full = rig.column(1, None).unwrap();
        assert_eq!(rig.evaluations(), 1);
        let truncated = rig.column(1, Some(1)).unwrap();
        assert_eq!(rig.evaluations(), 2);
        assert_ne!(&full[..], &truncated[..], "rank-1 column differs from rank-3");
        let mut scratch = csrplus_core::DenseMatrix::zeros(0, 0);
        let plan = Query { rank: Some(1), ..Query::new(&[1]) };
        let expected = rig.model().columns_into(&plan, &mut scratch).unwrap();
        assert_eq!(&truncated[..], &expected[0][..], "truncated column bitwise exact");
        assert_eq!(rig.metrics.degraded_requests.load(Ordering::Relaxed), 1);
        assert_eq!(rig.metrics.served_rank.count(), 1);
        let again = rig.column(1, None).unwrap();
        assert_eq!(&again[..], &full[..], "the full-rank path is unchanged");
    }

    #[test]
    fn rank_at_or_above_the_models_is_the_full_rank_path() {
        let rig = Rig::new(fig1(), 4, Duration::from_micros(100));
        let full = rig.column(2, None).unwrap();
        // Over-asking normalises to None: the full-rank path, not degraded.
        let over = rig.column(2, Some(3)).unwrap();
        let way_over = rig.column(2, Some(usize::MAX)).unwrap();
        assert_eq!(&over[..], &full[..]);
        assert_eq!(&way_over[..], &full[..]);
        assert_eq!(rig.metrics.degraded_requests.load(Ordering::Relaxed), 0);
        assert_eq!(rig.metrics.served_rank.count(), 0);
    }

    #[test]
    fn waiters_coalesced_across_an_epoch_swap_split_into_per_epoch_groups() {
        // Two waiters holding different snapshots land in one linger
        // window; the batcher must answer each against its own model —
        // two groups, two evaluations — even though the node is shared.
        let rig = Arc::new(Rig::new(fig1(), 2, Duration::from_secs(30)));
        let old = Arc::clone(&rig.snapshot);
        let new = Arc::new(Snapshot::new(1, Arc::clone(old.model_arc())));
        let handles: Vec<_> = [old, new]
            .into_iter()
            .map(|snap| {
                let rig = Arc::clone(&rig);
                std::thread::spawn(move || rig.b.columns(snap, &[1], None, TIMEOUT).unwrap())
            })
            .collect();
        let cols: Vec<Column> = handles.into_iter().map(|h| h.join().unwrap().remove(0)).collect();
        assert_eq!(rig.evaluations(), 2, "one pass per epoch");
        let expected = rig.model().single_source(1).unwrap();
        for col in cols {
            assert_eq!(&col[..], &expected[..]);
        }
    }

    #[test]
    fn mixed_rank_batches_group_by_rank() {
        // One batch holding full-rank and two distinct truncated ranks:
        // three groups, three evaluations, every waiter answered right.
        let rig = Arc::new(Rig::new(fig1(), 6, Duration::from_secs(30)));
        let requests: Vec<(usize, Option<usize>)> =
            vec![(0, None), (1, Some(1)), (2, Some(2)), (3, None), (1, Some(2)), (4, Some(1))];
        let handles: Vec<_> = requests
            .iter()
            .map(|&(node, rank)| {
                let rig = Arc::clone(&rig);
                std::thread::spawn(move || (node, rank, rig.column(node, rank).unwrap()))
            })
            .collect();
        let mut scratch = csrplus_core::DenseMatrix::zeros(0, 0);
        for h in handles {
            let (node, rank, col) = h.join().unwrap();
            let source = [node];
            let expected =
                rig.model().columns_into(&Query { rank, ..Query::new(&source) }, &mut scratch);
            assert_eq!(&col[..], &expected.unwrap()[0][..], "node {node} rank {rank:?}");
        }
        assert_eq!(rig.evaluations(), 3, "one pass per rank group");
        assert_eq!(rig.metrics.degraded_requests.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn a_panicking_batch_fails_only_its_waiters_and_the_batcher_carries_on() {
        let rig = Rig::new(fig1(), 4, Duration::from_micros(100));
        rig.b.panic_next_batch();
        assert_eq!(rig.many(&[1, 3]).unwrap_err(), ColumnError::Panicked);
        assert_eq!(rig.metrics.batch_panics.load(Ordering::Relaxed), 1);
        assert_eq!(rig.evaluations(), 0, "the panicked batch evaluated nothing");
        // The same thread answers the next request, exactly.
        let columns = rig.many(&[3, 1]).unwrap();
        assert_eq!(&columns[0][..], &rig.model().single_source(3).unwrap()[..]);
        assert_eq!(&columns[1][..], &rig.model().single_source(1).unwrap()[..]);
        assert_eq!(rig.evaluations(), 1);
        assert_eq!(rig.metrics.batch_panics.load(Ordering::Relaxed), 1);
    }
}
