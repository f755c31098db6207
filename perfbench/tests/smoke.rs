//! Tiny-size runs of every workload, untraced and traced: every answer
//! must check out, and the reported metric names must be exactly the
//! ones `BENCHMARK.json` declares.

use csrplus_perfbench::json::Json;
use csrplus_perfbench::{result_line, run, Options, Sizes, Workload};
use std::path::PathBuf;

fn declared(section: &str) -> Vec<String> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    match Json::parse(&text).expect("valid BENCHMARK.json").at(section) {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|m| match m.at("name") {
                Some(Json::Str(name)) => name.clone(),
                other => panic!("metric without a name: {other:?}"),
            })
            .collect(),
        other => panic!("{section} is not a list: {other:?}"),
    }
}

fn smoke(workload: Workload, trace: bool) {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smoke-{}-{}",
        workload.name(),
        u8::from(trace)
    ));
    let opts = Options {
        workload,
        seed: 7,
        seconds: 0.3,
        trace,
        sizes: Sizes::tiny(),
        root: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".."),
        work_dir,
    };
    let out = run(&opts).expect("tiny run sets up");
    assert!(out.correct(), "{}: {:?}", workload.name(), out.problems);
    assert_eq!(out.fail_share(), 0.0);
    assert!(out.attempted > 0);
    let metrics = if trace { &out.per_layer } else { &out.end_to_end };
    let names: Vec<String> = metrics.iter().map(|m| m.name.to_string()).collect();
    assert_eq!(names, declared(if trace { "per_layer" } else { "end_to_end" }));
    assert!(metrics.iter().all(|m| m.value.is_finite() && m.value >= 0.0), "{metrics:?}");
    let line = Json::parse(&result_line(&out, metrics)).expect("result line is JSON");
    assert_eq!(line.at("correct"), Some(&Json::Bool(true)));
    assert_eq!(line.num("failed"), 0.0);
    if trace {
        assert!(!out.spans.is_empty());
    } else {
        for m in ["throughput_rps", "p50_ms", "p90_ms", "avg_diff", "setup_s"] {
            assert!(line.num(&format!("metrics.{m}.value")) > 0.0, "{m} is zero");
        }
    }
}

#[test]
fn topk_miss() {
    smoke(Workload::TopkMiss, false);
    smoke(Workload::TopkMiss, true);
}

#[test]
fn topk_hot() {
    smoke(Workload::TopkHot, false);
    smoke(Workload::TopkHot, true);
}

#[test]
fn multi_src() {
    smoke(Workload::MultiSrc, false);
    smoke(Workload::MultiSrc, true);
}

#[test]
fn ingest_mix() {
    smoke(Workload::IngestMix, false);
    smoke(Workload::IngestMix, true);
}
