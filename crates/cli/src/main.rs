//! `csrplus` — command-line CoSimRank search.
//!
//! ```text
//! csrplus generate   --dataset fb [--scale test|bench] --out graph.txt
//! csrplus stats      <graph.txt>
//! csrplus precompute <graph.txt> [--rank R] [--damping C] [--epsilon E]
//!                    [--reorder identity|degree|rcm|labelprop] --out model.csrp
//! csrplus query      <model.csrp> --nodes 1,3,5 [--top K]
//! csrplus topk       <model.csrp> --node N [--k K]
//! csrplus exact      <graph.txt> --nodes 1,3 [--damping C] [--epsilon E]
//! csrplus join       <model.csrp> --threshold T [--limit N]
//! csrplus serve      <model.csrp> [--port P] [--workers N] [--batch B] [--linger-us U]
//!                    [--cache COLS] [--timeout-ms MS] [--max-requests N]
//!                    [--shards host:port,... [--shard-timeout-ms MS] [--hedge-ms MS]]
//! csrplus shard      <model.csrp> --rows LO:HI [serve flags]
//! csrplus pack       <model.csrp> --out <packed.csrp>
//! csrplus inspect    <model.csrp> [--verify]
//! ```
//!
//! Graphs are SNAP plain-text edge lists; models use the binary format of
//! `csrplus_core::persist` (checksummed, versioned).  Serving is
//! delegated to the `csrplus-serve` crate: a worker pool with a bounded
//! admission queue, a micro-batcher coalescing concurrent queries into
//! multi-source evaluations, a sharded LRU column cache, and `/metrics`.
//!
//! Scatter-gather deployments split the internal row space over `shard`
//! processes (each serving one `--rows LO:HI` slice of the same mmap'd
//! artifact) behind a `serve --shards` coordinator that merges partial
//! columns and per-shard top-k heaps; `precompute --reorder` applies a
//! locality-aware node reordering first so each query's top-k candidates
//! concentrate in few shards.
//!
//! The global `--threads N` flag (any position) caps the shared
//! `csrplus-par` worker pool that every compute kernel runs on; it
//! overrides the `CSRPLUS_THREADS` environment variable.  The global
//! `--precision f64|f32` flag selects the storage precision newly built
//! models use (`precompute`); it overrides `CSRPLUS_PRECISION`.  Loading
//! always follows the file's own dtype, whatever the flag says.

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let argv = match args::extract_threads(&argv) {
        Ok((threads, rest)) => {
            if let Some(n) = threads {
                csrplus_par::set_threads(n);
            }
            rest
        }
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", args::USAGE);
            return ExitCode::from(2);
        }
    };
    let argv = match args::extract_precision(&argv) {
        Ok((precision, rest)) => {
            if let Some(p) = precision {
                csrplus_core::set_storage_precision(p);
            }
            rest
        }
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", args::USAGE);
            return ExitCode::from(2);
        }
    };
    match args::parse(&argv) {
        Ok(cmd) => match commands::run(cmd) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", args::USAGE);
            ExitCode::from(2)
        }
    }
}
