//! # csrplus-graph
//!
//! Sparse graph storage and kernels for the `csrplus` workspace.
//!
//! The paper stores graphs in COO ("triples `(x, y, 1)`, sorted and grouped
//! by source into neighbour lists") and every algorithm consumes the
//! **column-normalised adjacency matrix** `Q` (`Q[x,y] = 1/indeg(y)` iff
//! edge `x → y`, Section 2).  This crate provides:
//!
//! * [`DiGraph`] — a directed graph as a deduplicated COO edge list;
//! * [`CsrMatrix`] — compressed sparse row storage with dense-block
//!   multiplication kernels (the `spmm` behind every PPR iteration and the
//!   randomized SVD), parallelised over output rows on the shared
//!   `csrplus-par` worker pool with deterministic shape-based chunking;
//! * [`TransitionMatrix`] — `Q` together with its transpose, implementing
//!   [`csrplus_linalg::LinearOperator`] so it can be fed straight into the
//!   truncated SVD;
//! * [`io`] — the SNAP plain-text edge-list format (comments, arbitrary
//!   node ids, relabeling) so the real datasets drop in unchanged;
//! * [`generators`] — deterministic random-graph models used to synthesise
//!   SNAP-like workloads (see `csrplus-datasets`), plus the worked-example
//!   graph of Figure 1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod components;
pub mod csr;
pub mod degree;
pub mod digraph;
pub mod error;
pub mod generators;
pub mod io;
pub mod partition;
pub mod sample;
pub mod transition;

pub use csr::CsrMatrix;
pub use digraph::DiGraph;
pub use error::GraphError;
pub use partition::{shard_ranges, Partitioner, Permutation, Reordering};
pub use transition::TransitionMatrix;
