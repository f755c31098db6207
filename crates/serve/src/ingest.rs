//! Live edge ingestion: a dedicated update thread owning a
//! [`DynamicCsrPlus`], fed by `POST /edges`, publishing every change as a
//! new epoch through the [`SnapshotHandle`].
//!
//! The split of responsibilities is the whole point:
//!
//! * **Queries never block on updates.**  Readers `load()` an immutable
//!   snapshot and keep it for the whole request; the update thread
//!   builds each new model beside the published one and publishes the
//!   finished version with one pointer swap — the engine's own `Arc`,
//!   so no factor is copied.
//! * **Updates are serialised.**  One thread owns the
//!   [`DynamicCsrPlus`], so rank-one SVD updates, periodic rebuilds and
//!   checkpoint writes need no locking discipline beyond the channel.
//! * **Epochs are the contract.**  Every published model carries a
//!   monotonically increasing epoch; responses echo it, the column cache
//!   keys on it, and checkpoints stamp it into the artifact header so a
//!   restart knows exactly which version it reloaded.
//!
//! The wire format for `POST /edges` is JSON lines, one op per line,
//! each read by the strict [`crate::json`] reader ([`parse_ops`]):
//!
//! ```text
//! {"op":"insert","x":1,"y":4}
//! {"op":"delete","x":0,"y":2}
//! ```

use crate::json::{self, Value};
use crate::metrics::Metrics;
use crate::snapshot::SnapshotHandle;
use csrplus_core::dynamic::DynamicCsrPlus;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

/// One edge edit, as parsed from a `POST /edges` body line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeOp {
    /// Insert the directed edge `x → y` (a no-op if it already exists).
    Insert {
        /// Source node.
        x: u32,
        /// Destination node.
        y: u32,
    },
    /// Delete the directed edge `x → y` (a no-op if it is absent).
    Delete {
        /// Source node.
        x: u32,
        /// Destination node.
        y: u32,
    },
}

impl EdgeOp {
    fn endpoints(&self) -> (u32, u32) {
        match *self {
            EdgeOp::Insert { x, y } | EdgeOp::Delete { x, y } => (x, y),
        }
    }
}

/// Parses a `POST /edges` body: JSON lines like
/// `{"op":"insert","x":1,"y":4}`, blank lines ignored.  Every other line
/// must be one JSON object with `op` ∈ {insert, delete} and integer node
/// ids `x` and `y`; keys beyond those are ignored.  Errors name the
/// offending line so a client batching thousands of edits can find it.
pub fn parse_ops(body: &str) -> Result<Vec<EdgeOp>, String> {
    let mut ops = Vec::new();
    for (idx, line) in body.lines().enumerate() {
        let line = line.trim();
        if !line.is_empty() {
            ops.push(parse_op(line).map_err(|e| format!("line {}: {e}", idx + 1))?);
        }
    }
    Ok(ops)
}

fn parse_op(line: &str) -> Result<EdgeOp, String> {
    let value = json::parse(line)?;
    let op = value.get("op").and_then(Value::as_str).ok_or("missing or non-string \"op\"")?;
    let node = |key: &str| {
        let id = value.get(key).and_then(Value::as_u64).and_then(|v| u32::try_from(v).ok());
        id.ok_or_else(|| format!("missing or invalid {key:?}"))
    };
    let (x, y) = (node("x")?, node("y")?);
    match op {
        "insert" => Ok(EdgeOp::Insert { x, y }),
        "delete" => Ok(EdgeOp::Delete { x, y }),
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Tuning for the update thread.
#[derive(Debug, Clone, Default)]
pub struct IngestConfig {
    /// After this many applied edits, rebuild the model from scratch
    /// (`refresh()`) instead of compounding incremental SVD updates, to
    /// bound numerical drift.  `0` disables explicit rebuilds (the
    /// underlying [`DynamicCsrPlus`] may still auto-refresh on its own
    /// interval).
    pub refresh_budget: usize,
    /// When set, every published epoch is also checkpointed to this path
    /// as a CSRP v2 artifact with the epoch stamped in its header.
    pub checkpoint: Option<PathBuf>,
}

/// What a successfully applied batch reports back to the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Applied {
    /// Edits that changed the graph (and were folded into the model).
    pub applied: usize,
    /// No-op edits (inserting an existing edge, deleting a missing one).
    pub ignored: usize,
    /// The epoch now visible to queries.  Unchanged from before the
    /// batch when every edit was a no-op.
    pub epoch: u64,
}

struct Batch {
    ops: Vec<EdgeOp>,
    reply: mpsc::Sender<Result<Applied, String>>,
}

/// Handle to the live update thread.  Dropping it stops the thread after
/// it drains any in-flight batches.
#[derive(Debug)]
pub struct Ingestor {
    tx: Option<mpsc::Sender<Batch>>,
    thread: Option<thread::JoinHandle<()>>,
}

impl Ingestor {
    /// Spawns the update thread.  It takes sole ownership of `dynamic`
    /// (whose current model should already be the snapshot in `handle`)
    /// and publishes every subsequent change through `handle`.
    pub fn start(
        dynamic: DynamicCsrPlus,
        handle: Arc<SnapshotHandle>,
        metrics: Arc<Metrics>,
        config: IngestConfig,
    ) -> Self {
        let (tx, rx) = mpsc::channel::<Batch>();
        let thread = thread::Builder::new()
            .name("csrplus-ingest".into())
            .spawn(move || run(dynamic, handle, metrics, config, rx))
            .expect("spawn ingest thread");
        Ingestor { tx: Some(tx), thread: Some(thread) }
    }

    /// Queues a batch of edits and waits up to `timeout` for the update
    /// thread to apply and publish them.  A timeout does not cancel the
    /// batch — it still applies in order; the client just doesn't learn
    /// the resulting epoch.
    pub fn submit(&self, ops: Vec<EdgeOp>, timeout: Duration) -> Result<Applied, String> {
        let tx = self.tx.as_ref().expect("sender lives until drop");
        let (reply, done) = mpsc::channel();
        tx.send(Batch { ops, reply }).map_err(|_| "ingestion thread stopped".to_string())?;
        match done.recv_timeout(timeout) {
            Ok(outcome) => outcome,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                Err("timed out waiting for the update thread".to_string())
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Err("ingestion thread stopped".to_string())
            }
        }
    }
}

impl Drop for Ingestor {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn run(
    mut dynamic: DynamicCsrPlus,
    handle: Arc<SnapshotHandle>,
    metrics: Arc<Metrics>,
    config: IngestConfig,
    rx: mpsc::Receiver<Batch>,
) {
    let mut since_rebuild = 0usize;
    while let Ok(batch) = rx.recv() {
        let outcome =
            apply_batch(&mut dynamic, &handle, &metrics, &config, &mut since_rebuild, &batch.ops);
        // The submitter may have timed out and gone away; that's fine.
        let _ = batch.reply.send(outcome);
    }
}

fn apply_batch(
    dynamic: &mut DynamicCsrPlus,
    handle: &SnapshotHandle,
    metrics: &Metrics,
    config: &IngestConfig,
    since_rebuild: &mut usize,
    ops: &[EdgeOp],
) -> Result<Applied, String> {
    // Validate endpoints up front so a bad batch is rejected whole
    // rather than half-applied.
    let n = dynamic.n() as u32;
    for op in ops {
        let (x, y) = op.endpoints();
        if x >= n || y >= n {
            return Err(format!("edge ({x},{y}) out of bounds for {n} nodes"));
        }
    }
    let mut applied = 0usize;
    let mut ignored = 0usize;
    let mut error = None;
    for op in ops {
        let changed = match *op {
            EdgeOp::Insert { x, y } => dynamic.insert_edge(x, y),
            EdgeOp::Delete { x, y } => dynamic.remove_edge(x, y),
        };
        match changed {
            Ok(true) => applied += 1,
            Ok(false) => ignored += 1,
            Err(e) => {
                // Can't happen after validation, but if it ever does we
                // stop the batch and still publish what already applied.
                error = Some(e.to_string());
                break;
            }
        }
    }
    let mut epoch = handle.epoch();
    if applied > 0 {
        *since_rebuild += applied;
        if config.refresh_budget > 0 && *since_rebuild >= config.refresh_budget {
            dynamic.refresh().map_err(|e| format!("rebuild failed: {e}"))?;
            *since_rebuild = 0;
            metrics.ingest_rebuilds.fetch_add(1, Ordering::Relaxed);
        }
        epoch = handle.publish(dynamic.shared_model());
        metrics.ingest_epoch.store(epoch, Ordering::Relaxed);
        metrics.ingest_epochs_published.fetch_add(1, Ordering::Relaxed);
        metrics.ingest_updates_applied.fetch_add(applied as u64, Ordering::Relaxed);
        if let Some(path) = &config.checkpoint {
            match csrplus_core::persist::save_model_with_epoch(dynamic.model(), path, epoch) {
                Ok(()) => {
                    metrics.ingest_checkpoints.fetch_add(1, Ordering::Relaxed);
                }
                // Checkpointing is best-effort durability; serving the
                // published epoch must not die with a full disk.
                Err(e) => eprintln!("checkpoint failed at epoch {epoch}: {e}"),
            }
        }
    }
    match error {
        Some(e) => Err(e),
        None => Ok(Applied { applied, ignored, epoch }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csrplus_core::dynamic::DynamicConfig;
    use csrplus_core::CsrPlusConfig;
    use csrplus_graph::generators::figure1_graph;

    fn dynamic() -> DynamicCsrPlus {
        let cfg = DynamicConfig {
            base: CsrPlusConfig::with_rank(6),
            // Effectively "never auto-refresh" so the ingest-level budget
            // is what the tests observe.
            refresh_interval: usize::MAX,
        };
        DynamicCsrPlus::new(&figure1_graph(), cfg).unwrap()
    }

    fn boot() -> (DynamicCsrPlus, Arc<SnapshotHandle>, Arc<Metrics>) {
        let d = dynamic();
        let handle = Arc::new(SnapshotHandle::new(d.shared_model()));
        (d, handle, Arc::new(Metrics::new()))
    }

    const WAIT: Duration = Duration::from_secs(30);

    #[test]
    fn parses_json_lines() {
        let ops = parse_ops(
            "{\"op\":\"insert\",\"x\":1,\"y\":4}\n\n{\"op\":\"delete\",\"x\":0,\"y\":2}\n",
        )
        .unwrap();
        assert_eq!(ops, vec![EdgeOp::Insert { x: 1, y: 4 }, EdgeOp::Delete { x: 0, y: 2 }]);
        // Whitespace after colons is tolerated.
        let ops = parse_ops("{\"op\": \"insert\", \"x\": 3, \"y\": 5}").unwrap();
        assert_eq!(ops, vec![EdgeOp::Insert { x: 3, y: 5 }]);
    }

    #[test]
    fn parse_errors_name_the_line() {
        let err =
            parse_ops("{\"op\":\"insert\",\"x\":1,\"y\":4}\n{\"op\":\"upsert\",\"x\":1,\"y\":4}")
                .unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("upsert"), "{err}");
        assert!(parse_ops("{\"op\":\"insert\",\"x\":1}").unwrap_err().contains("\"y\""));
        assert!(parse_ops("{\"op\":\"insert\",\"x\":-1,\"y\":2}").unwrap_err().contains("\"x\""));
        assert!(parse_ops("not json").unwrap_err().starts_with("line 1: "));
    }

    #[test]
    fn only_whole_objects_with_integer_ids_parse() {
        let ok = "{\"op\":\"insert\",\"x\":1,\"y\":4}\n";
        for bad in [
            "{\"op\":\"insert\",\"x\":1e3,\"y\":4}",
            "{\"op\":\"insert\",\"x\":1.5,\"y\":4}",
            "{\"op\":\"insert\",\"x\":12abc,\"y\":4}",
            "{\"op\":\"insert\",\"x\":1,\"x\":2,\"y\":4}",
            "\"op\":\"insert\",\"x\":1,\"y\":4",
            "{\"op\":\"insert\",\"x\":\"1\",\"y\":4}",
            "{\"op\":\"insert\",\"x\":4294967296,\"y\":4}",
            "{\"op\":\"insert\",\"x\":1,\"y\":4} {}",
            "[{\"op\":\"insert\",\"x\":1,\"y\":4}]",
        ] {
            let err = parse_ops(&format!("{ok}{bad}")).unwrap_err();
            assert!(err.starts_with("line 2: "), "{bad}: {err}");
        }
        // Extra keys and whitespace are fine.
        let ops = parse_ops("{ \"y\" : 2 , \"op\":\"delete\", \"x\":3, \"note\":[null]}").unwrap();
        assert_eq!(ops, vec![EdgeOp::Delete { x: 3, y: 2 }]);
    }

    #[test]
    fn applied_batches_publish_new_epochs() {
        let (d, handle, metrics) = boot();
        let ingestor =
            Ingestor::start(d, Arc::clone(&handle), Arc::clone(&metrics), IngestConfig::default());

        // figure1 has no 1→4 edge: this applies and bumps the epoch.
        let out = ingestor.submit(vec![EdgeOp::Insert { x: 1, y: 4 }], WAIT).unwrap();
        assert_eq!((out.applied, out.ignored, out.epoch), (1, 0, 1));
        assert_eq!(handle.epoch(), 1);

        // Re-inserting is a pure no-op: no new epoch is published.
        let out = ingestor.submit(vec![EdgeOp::Insert { x: 1, y: 4 }], WAIT).unwrap();
        assert_eq!((out.applied, out.ignored, out.epoch), (0, 1, 1));
        assert_eq!(handle.epoch(), 1);

        // Deleting it applies again.
        let out = ingestor.submit(vec![EdgeOp::Delete { x: 1, y: 4 }], WAIT).unwrap();
        assert_eq!((out.applied, out.ignored, out.epoch), (1, 0, 2));
        assert_eq!(metrics.ingest_epoch.load(Ordering::Relaxed), 2);
        assert_eq!(metrics.ingest_updates_applied.load(Ordering::Relaxed), 2);
        assert_eq!(metrics.ingest_epochs_published.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn out_of_bounds_batches_are_rejected_whole() {
        let (d, handle, metrics) = boot();
        let ingestor = Ingestor::start(d, Arc::clone(&handle), metrics, IngestConfig::default());
        let err = ingestor
            .submit(vec![EdgeOp::Insert { x: 1, y: 4 }, EdgeOp::Insert { x: 1, y: 99 }], WAIT)
            .unwrap_err();
        assert!(err.contains("out of bounds"), "{err}");
        // Nothing applied: the valid first op must not have leaked in.
        assert_eq!(handle.epoch(), 0);
    }

    #[test]
    fn refresh_budget_triggers_rebuilds() {
        let (d, handle, metrics) = boot();
        let config = IngestConfig { refresh_budget: 2, checkpoint: None };
        let ingestor = Ingestor::start(d, Arc::clone(&handle), Arc::clone(&metrics), config);
        ingestor.submit(vec![EdgeOp::Insert { x: 1, y: 4 }], WAIT).unwrap();
        assert_eq!(metrics.ingest_rebuilds.load(Ordering::Relaxed), 0);
        ingestor.submit(vec![EdgeOp::Insert { x: 2, y: 5 }], WAIT).unwrap();
        assert_eq!(metrics.ingest_rebuilds.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn checkpoints_stamp_the_published_epoch() {
        let dir = std::env::temp_dir().join("csrplus_ingest_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("live.csrp");
        let (d, handle, metrics) = boot();
        let config = IngestConfig { refresh_budget: 0, checkpoint: Some(path.clone()) };
        let ingestor = Ingestor::start(d, Arc::clone(&handle), Arc::clone(&metrics), config);
        let out = ingestor.submit(vec![EdgeOp::Insert { x: 1, y: 4 }], WAIT).unwrap();
        assert_eq!(out.epoch, 1);
        assert_eq!(csrplus_core::persist::saved_epoch(&path).unwrap(), 1);
        assert_eq!(metrics.ingest_checkpoints.load(Ordering::Relaxed), 1);
        // The checkpoint is a loadable model with the inserted edge's
        // effect baked in.
        let loaded = csrplus_core::persist::load_model(&path).unwrap();
        assert_eq!(loaded.n(), 6);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn published_models_answer_with_the_new_edge() {
        let (d, handle, _m) = boot();
        let before = handle.load();
        let s_before = before.model().similarity(4, 1).unwrap();
        let metrics = Arc::new(Metrics::new());
        let ingestor = Ingestor::start(d, Arc::clone(&handle), metrics, IngestConfig::default());
        ingestor.submit(vec![EdgeOp::Insert { x: 1, y: 4 }], WAIT).unwrap();
        let after = handle.load();
        let s_after = after.model().similarity(4, 1).unwrap();
        // The old snapshot is untouched; the new one reflects the edit.
        assert_eq!(before.model().similarity(4, 1).unwrap(), s_before);
        assert_ne!(s_before, s_after);
        drop(ingestor);
    }
}
