//! End-to-end smoke: drive a real in-process server with a seeded
//! low-load open-loop phase.  This is the test CI runs as the loadgen
//! gate — fixed seed, a couple of seconds, zero transport errors, and a
//! report that parses as JSON.

use csrplus_core::dynamic::{DynamicConfig, DynamicCsrPlus};
use csrplus_core::{CsrPlusConfig, CsrPlusModel};
use csrplus_graph::generators::erdos_renyi;
use csrplus_graph::TransitionMatrix;
use csrplus_loadgen::{run_phase, ArrivalProcess, Mix, Plan, Workload};
use csrplus_serve::json;
use csrplus_serve::server::{ServeConfig, Server};
use csrplus_serve::IngestConfig;
use std::time::Duration;

fn model(n: usize) -> CsrPlusModel {
    let graph = erdos_renyi(n, n * 6, 7).expect("generator");
    let t = TransitionMatrix::from_graph(&graph);
    CsrPlusModel::precompute(&t, &CsrPlusConfig::with_rank(8)).expect("precompute")
}

fn assert_valid_json(s: &str) {
    if let Err(e) = json::parse(s) {
        panic!("report is not JSON ({e}): {s}");
    }
}

#[test]
fn low_load_phase_completes_with_zero_errors_and_valid_json() {
    let n = 200;
    let handle = Server::start(model(n), 0, ServeConfig::default()).expect("server");
    let addr = handle.addr().to_string();

    let workload = Workload::new(n, 42);
    let plan = Plan::generate(&workload, ArrivalProcess::Poisson { rate: 300.0 }, 2.0);
    assert!(!plan.requests.is_empty());
    let report = run_phase(&addr, &plan, "smoke", 8, Duration::from_secs(5));

    assert_eq!(report.errors, 0, "transport must be clean at low load");
    assert_eq!(report.sent, plan.requests.len() as u64);
    assert_eq!(report.ok + report.shed, report.sent, "every request classified");
    assert_eq!(report.degraded, 0, "no degradation requested or configured");
    assert!(report.ok > 0, "the server answered");
    assert!(report.cache_hit_rate.is_some(), "metrics scrape found the per-shard cache counters");
    assert!(report.quantile_us(0.999) >= report.quantile_us(0.5));
    assert_valid_json(&report.render_json());
    handle.shutdown();
}

#[test]
fn mixed_query_and_update_traffic_drives_an_ingesting_server() {
    let n = 100;
    let graph = erdos_renyi(n, n * 6, 7).expect("generator");
    let dynamic = DynamicCsrPlus::new(
        &graph,
        DynamicConfig { base: CsrPlusConfig::with_rank(8), refresh_interval: usize::MAX },
    )
    .expect("dynamic");
    let handle =
        Server::start_ingesting(dynamic, 0, ServeConfig::default(), IngestConfig::default())
            .expect("server");
    let addr = handle.addr().to_string();

    let workload = Workload { mix: Mix { update: 0.25, ..Mix::default() }, ..Workload::new(n, 42) };
    let plan = Plan::generate(&workload, ArrivalProcess::Poisson { rate: 200.0 }, 2.0);
    assert!(plan.requests.iter().any(|r| r.path == "/edges"), "plan carries update traffic");
    let report = run_phase(&addr, &plan, "ingest", 8, Duration::from_secs(30));

    assert_eq!(report.errors, 0, "transport must be clean at low load");
    assert!(report.updates > 0, "updates acknowledged: {report:?}");
    assert!(report.updates_per_s() > 0.0);
    assert!(report.ok > report.updates, "queries succeeded alongside updates");
    assert_valid_json(&report.render_json());
    let json = report.render_json();
    assert!(json.contains("\"updates\":"), "{json}");
    handle.shutdown();
}

#[test]
fn degraded_traffic_round_trips_through_a_policy_server() {
    let n = 100;
    let config = ServeConfig {
        cache_admission: true,
        adaptive_linger: true,
        degrade_rank: Some(2),
        degrade_watermark: 0,
        ..ServeConfig::default()
    };
    let handle = Server::start(model(n), 0, config).expect("server");
    let addr = handle.addr().to_string();

    let workload = Workload { degraded_fraction: 1.0, ..Workload::new(n, 9) };
    let plan = Plan::generate(&workload, ArrivalProcess::Poisson { rate: 200.0 }, 1.0);
    let report = run_phase(&addr, &plan, "degraded", 4, Duration::from_secs(5));

    assert_eq!(report.errors, 0);
    assert!(report.ok > 0);
    assert_eq!(
        report.degraded, report.ok,
        "every opted-in answer carries served_rank under a watermark of 0"
    );
    assert_valid_json(&report.render_json());
    handle.shutdown();
}
