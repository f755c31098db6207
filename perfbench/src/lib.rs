//! # csrplus-perfbench
//!
//! The benchmark that defines csrplus's serving performance: four
//! workloads against a real in-process `csrplus_serve::Server` on
//! loopback, driven closed-loop, with every sampled answer checked
//! against an in-process reference.  See `README.md` in this directory
//! for the workloads, the metrics and how to run a traced replay.

pub mod client;
pub mod env;
pub mod json;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;

pub use run::{run, Metric, Options, Outcome};
pub use workload::{Sizes, Workload};

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding `metrics` by name with value and unit.
pub fn result_line(outcome: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::string(m.name),
                json::num(m.value),
                json::string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        body.join(",")
    )
}
