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
//! Three settings apply to every subcommand.  Each is a global flag
//! (any position) or an environment variable, and the flag wins:
//!
//! * `--threads N` / `CSRPLUS_THREADS` caps the shared `csrplus-par`
//!   worker pool every compute kernel runs on (default: available
//!   parallelism);
//! * `--precision f64|f32` / `CSRPLUS_PRECISION` selects the storage
//!   precision `precompute` builds with (default `f64`).  Loading always
//!   follows the file's own dtype, and `serve --ingest` rebuilds at it;
//! * `CSRPLUS_STORE=auto|mmap|owned` selects how model files are opened
//!   (default `auto`: mmap on Unix).
//!
//! This file is the only place they are read; the libraries take each as
//! a value.  A bad value exits 2 with a usage error naming its source.

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let threads = std::env::var("CSRPLUS_THREADS").ok();
    let precision = std::env::var("CSRPLUS_PRECISION").ok();
    let store = std::env::var("CSRPLUS_STORE").ok();
    let env = args::Env {
        threads: threads.as_deref(),
        precision: precision.as_deref(),
        store: store.as_deref(),
    };
    let parsed = args::extract_settings(&argv, env)
        .and_then(|(settings, rest)| Ok((settings, args::parse(&rest)?)));
    let (settings, cmd) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", args::USAGE);
            return ExitCode::from(2);
        }
    };
    if let Some(n) = settings.threads {
        csrplus_par::set_threads(n);
    }
    match commands::run(cmd, &settings) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
