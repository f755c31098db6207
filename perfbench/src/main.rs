//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, last, one JSON line with the run's
//! end-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
//! Lines before it describe the run: environment, every metric with its
//! unit, the failure share, and for traced runs the per-layer table.
//! Exits 1 when any answer check failed, 2 on bad arguments or a failed
//! set-up.

use csrplus_perfbench::{json, result_line, run, trace, Options, Sizes, Workload};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: csrplus_memtrack::TrackingAllocator = csrplus_memtrack::TrackingAllocator;

const USAGE: &str = "usage: perfbench --workload <topk-miss|topk-hot|multi-src|ingest-mix> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        sizes: Sizes::full(),
        work_dir: root.join(".perfbench_work"),
        root,
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let name = opts.workload.name();
    println!("perfbench {name} seed={} seconds={} trace={}", opts.seed, opts.seconds, opts.trace);
    println!("env {}", outcome.env);
    for line in &outcome.report {
        println!("{line}");
    }
    let label = if opts.trace { "traced end-to-end" } else { "end-to-end" };
    for m in &outcome.end_to_end {
        println!("{label} {:<16} {:>14.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "fail_share {} ({} failed of {} attempted)",
        outcome.fail_share(),
        outcome.failed,
        outcome.attempted
    );
    for p in &outcome.problems {
        println!("problem: {p}");
    }
    if opts.trace {
        println!(
            "{:<32} {:>8} {:>12} {:>12} {:>12}",
            "span (layer.operation)", "count", "total_ms", "self_ms", "p50_us"
        );
        for row in trace::summarise(&outcome.spans) {
            println!(
                "{:<32} {:>8} {:>12.3} {:>12.3} {:>12.3}",
                row.name,
                row.count,
                row.total_ns as f64 / 1e6,
                row.self_ns as f64 / 1e6,
                row.p50_ns / 1e3
            );
        }
        for m in &outcome.per_layer {
            println!("per-layer {:<26} {:>14.6} {}", m.name, m.value, m.unit);
        }
        println!("tracing overhead: compare the traced end-to-end lines with an untraced run");
        let path = opts.work_dir.join(format!("spans-{name}-{}.jsonl", opts.seed));
        match std::fs::write(&path, trace::to_json_lines(&outcome.spans)) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    let metrics = if opts.trace { &outcome.per_layer } else { &outcome.end_to_end };
    let record = format!(
        "{{\"env\":{},\"setup_s\":[{}],\"setup_peak_mb\":[{}],\"fail_share\":{},\"result\":{}}}\n",
        outcome.env,
        outcome.setup_s.iter().map(|v| json::num(*v)).collect::<Vec<_>>().join(","),
        outcome.setup_peak_mb.iter().map(|v| json::num(*v)).collect::<Vec<_>>().join(","),
        json::num(outcome.fail_share()),
        result_line(&outcome, metrics)
    );
    let path = opts.work_dir.join(format!(
        "result-{name}-{}-trace{}.json",
        opts.seed,
        u8::from(opts.trace)
    ));
    if let Err(e) = std::fs::write(&path, record) {
        eprintln!("could not write {}: {e}", path.display());
    }
    println!("{}", result_line(&outcome, metrics));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
