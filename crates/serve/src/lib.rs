//! # csrplus-serve
//!
//! A production-shaped query-serving subsystem over precomputed
//! [`csrplus_core::CsrPlusModel`]s — std-only, like the rest of the
//! workspace.
//!
//! The paper's headline capability is *multi-source* amortisation:
//! answering `|Q|` queries costs one `Z·[U]_{Q,*}ᵀ` pass (Eq. 10) instead
//! of `|Q|` independent passes.  A sequential accept loop throws that
//! away at the serving layer; this crate recovers it with four pieces:
//!
//! * [`pool`] — a worker thread pool with a **bounded admission queue**
//!   (overload sheds with `503` instead of queueing unboundedly);
//! * [`batcher`] — a **micro-batcher** that coalesces concurrently queued
//!   requests (a multi-node `/query` enqueues all its nodes at once) into
//!   one multi-source `[S]_{*,Q}` evaluation and scatters the columns
//!   back to the waiting responders;
//! * [`cache`] — a **sharded LRU answer cache** of ranked top-k lists
//!   keyed by `(node, k)`: a repeated `/topk` skips the evaluation and
//!   the selection;
//! * [`metrics`] — counters, per-route latency histograms and the batch
//!   size distribution, exposed at `GET /metrics`.
//!
//! [`server`] assembles them behind the query routes (`/health`,
//! `/similarity`, `/topk`, `/query`), with per-request socket timeouts
//! and graceful, queue-draining shutdown.  Every query body is the
//! model's own answer rendered by [`render`]: one way to compute each
//! answer, whatever the batching, caching or sharding.
//!
//! [`http`] frames every HTTP/1.1 message (the bounded server reader and
//! the one client) and [`json`] owns JSON syntax (writer and reader).
//!
//! For horizontal scale-out the same server runs in two more roles:
//! a **shard** (`ServeConfig::shard_rows`) serving one contiguous slice
//! of internal rows off a shared mmap'd artifact (`/shard/topk`,
//! `/shard/columns`, `/shard/range`; scores hex-coded by [`wire`]), and a
//! **coordinator** (`ServeConfig::shards`) that scatters public queries
//! across shards and gathers the partial answers.  The [`coordinator`]
//! keeps per-shard split Cauchy–Schwarz bound summaries so top-k
//! queries contact shards in descending bound order and *skip* shards
//! that cannot beat the current kth score, hedges stragglers, and
//! K-way-merges partial heaps — byte-for-byte identical to the
//! single-process answer at any shard count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batcher;
pub mod cache;
pub mod coordinator;
pub mod gauge;
pub mod http;
pub mod ingest;
pub mod json;
pub mod metrics;
pub mod pool;
pub mod render;
pub mod server;
pub mod snapshot;
pub mod tinylfu;
pub mod wire;

pub use coordinator::{Coordinator, ShardSpec};
pub use ingest::{EdgeOp, IngestConfig};
pub use metrics::Metrics;
pub use server::{ServeConfig, Server, ServerHandle};
pub use snapshot::{Snapshot, SnapshotHandle};
