//! End-to-end proof of the snapshot layer's consistency contract:
//!
//! 1. **No torn reads.**  While a writer storms the server with edge
//!    batches (each publishing a new epoch), concurrent readers hammer
//!    query routes.  Every response must be byte-identical to the body
//!    a quiet server produced *at the epoch the response claims* — a
//!    request that mixed values from two snapshots could not match any
//!    single epoch's reference body.
//! 2. **Convergence.**  A random edit stream pushed through `POST
//!    /edges` leaves the served model within 5e-15 of a cold
//!    `precompute` on the final graph.  The server runs with a refresh
//!    budget of 1 — the production posture for correctness-critical
//!    deployments — so every edit exercises parse → validate → apply →
//!    rebuild → publish, and any lost, reordered, or misapplied edit
//!    shows up as a large score discrepancy.  (A single *unrefreshed*
//!    Brand update already carries ~1e-14 of floating-point noise at
//!    these score magnitudes; that incremental drift is measured and
//!    reported by the `serve_load` bench rather than asserted here.)
//!
//! The storm runs at thread caps 1 and 4 (`csrplus_par::set_threads`,
//! which also sizes the default server's worker pool): snapshot
//! consistency must not depend on the evaluation runtime's width.

use csrplus_core::dynamic::{DynamicConfig, DynamicCsrPlus};
use csrplus_core::{CsrPlusConfig, CsrPlusModel};
use csrplus_graph::{generators::figure1_graph, TransitionMatrix};
use csrplus_serve::json::{self, Value};
use csrplus_serve::{http, IngestConfig, ServeConfig, Server};
use proptest::prelude::*;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A fresh dynamic engine over the paper's 6-node example, at full rank
/// so the factors are exact and every edit visibly moves the scores.
fn dynamic() -> DynamicCsrPlus {
    let config = DynamicConfig {
        base: CsrPlusConfig::with_rank(6),
        // The serving layer owns the rebuild policy in these tests.
        refresh_interval: usize::MAX,
    };
    DynamicCsrPlus::new(&figure1_graph(), config).expect("dynamic boot")
}

/// Issues one `GET` and returns `(status, body)`.
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    http::request(&addr.to_string(), "GET", path, None, WAIT).unwrap()
}

/// Issues one `POST` with a body and returns `(status, body)`.
fn http_post(addr: SocketAddr, path: &str, payload: &str) -> (u16, String) {
    http::request(&addr.to_string(), "POST", path, Some(payload), WAIT).unwrap()
}

/// The client's socket budget: generous, since CI runs these on one core.
const WAIT: Duration = Duration::from_secs(60);

/// The `"epoch"` tag every ingesting-server response carries.
fn epoch_of(body: &str) -> u64 {
    let body_json = json::parse(body).unwrap_or_else(|e| panic!("{e}: {body}"));
    body_json
        .get("epoch")
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("untagged body: {body}"))
}

/// The edit script: every op changes the graph (figure 1 has neither
/// B→E nor F→A), so each `POST` publishes exactly one new epoch.
const OPS: [(&str, u32, u32); 8] = [
    ("insert", 1, 4),
    ("insert", 5, 0),
    ("delete", 1, 4),
    ("delete", 5, 0),
    ("insert", 1, 4),
    ("insert", 5, 0),
    ("delete", 1, 4),
    ("delete", 5, 0),
];

const PROBES: [&str; 3] = ["/similarity?a=4&b=1", "/query?nodes=1", "/topk?node=3&k=6"];

#[test]
fn query_storm_across_epoch_swaps_sees_single_epoch_snapshots() {
    // Pass 1 — reference bodies, one quiet server, edits applied
    // sequentially: expected[e][p] is the body probe `p` renders at
    // epoch `e`.
    let reference =
        Server::start_ingesting(dynamic(), 0, ServeConfig::default(), IngestConfig::default())
            .expect("reference server");
    let addr = reference.addr();
    let mut expected: Vec<Vec<String>> = Vec::with_capacity(OPS.len() + 1);
    let probe_all = |addr: SocketAddr, epoch: u64| -> Vec<String> {
        PROBES
            .iter()
            .map(|p| {
                let (status, body) = http_get(addr, p);
                assert_eq!(status, 200, "{p} at epoch {epoch}");
                assert_eq!(epoch_of(&body), epoch, "{p}: {body}");
                body
            })
            .collect()
    };
    expected.push(probe_all(addr, 0));
    for (i, (op, x, y)) in OPS.iter().enumerate() {
        let epoch = i as u64 + 1;
        let payload = format!("{{\"op\":\"{op}\",\"x\":{x},\"y\":{y}}}");
        let (status, body) = http_post(addr, "/edges", &payload);
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, format!("{{\"applied\":1,\"ignored\":0,\"epoch\":{epoch}}}"));
        expected.push(probe_all(addr, epoch));
    }
    // Distinct graphs must render distinct bodies, or the storm below
    // proves nothing.
    assert_ne!(expected[0][0], expected[1][0], "the edit must move the probed score");
    reference.shutdown();

    // Pass 2 — a fresh server takes the same edits as a storm while
    // readers hammer the probes, once per thread cap.  Precompute and
    // Brand updates are deterministic at any cap, so epoch `e` here
    // holds the same model as epoch `e` above, and every response must
    // match expected[e] exactly.
    let prior = csrplus_par::threads();
    for cap in [1usize, 4] {
        csrplus_par::set_threads(cap);
        storm(&expected);
    }
    csrplus_par::set_threads(prior);
}

/// Storms a fresh ingesting server with [`OPS`] while four readers check
/// every response against the quiet server's `expected[epoch][probe]`.
fn storm(expected: &[Vec<String>]) {
    let storm =
        Server::start_ingesting(dynamic(), 0, ServeConfig::default(), IngestConfig::default())
            .expect("storm server");
    let addr = storm.addr();
    let done = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..4)
            .map(|r| {
                let done = Arc::clone(&done);
                scope.spawn(move || {
                    let mut seen = 0usize;
                    let mut turn = r; // stagger which probe each reader starts on
                    while !done.load(Ordering::Relaxed) || seen == 0 {
                        let probe_idx = turn % PROBES.len();
                        turn += 1;
                        let (status, body) = http_get(addr, PROBES[probe_idx]);
                        assert_eq!(status, 200, "{body}");
                        let epoch = epoch_of(&body) as usize;
                        assert!(epoch < expected.len(), "impossible epoch in {body}");
                        assert_eq!(
                            body, expected[epoch][probe_idx],
                            "torn read: reader {r} got a body inconsistent with epoch {epoch}"
                        );
                        seen += 1;
                    }
                    seen
                })
            })
            .collect();
        for (op, x, y) in OPS {
            let payload = format!("{{\"op\":\"{op}\",\"x\":{x},\"y\":{y}}}");
            let (status, _) = http_post(addr, "/edges", &payload);
            assert_eq!(status, 200);
            // A short beat between publishes gives readers a chance to
            // observe intermediate epochs; correctness needs no timing.
            std::thread::sleep(Duration::from_millis(2));
        }
        done.store(true, Ordering::Relaxed);
        let observed: usize = readers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(observed > 0, "readers ran");
    });
    // The storm landed every epoch.
    let (_, body) = http_get(addr, PROBES[0]);
    assert_eq!(epoch_of(&body), OPS.len() as u64);
    assert_eq!(body, expected[OPS.len()][0]);
    storm.shutdown();
}

/// Parses the `"similarity":V` value out of a response body.  f64's
/// `Display` is the shortest round-trip representation, so the parsed
/// value is bit-exact what the server computed.
fn similarity_of(body: &str) -> f64 {
    let at = body.find("\"similarity\":").expect("similarity body");
    body[at + "\"similarity\":".len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || "+-.eE".contains(*c))
        .collect::<String>()
        .parse()
        .unwrap()
}

proptest! {
    // Each case boots a server and runs a cold precompute; keep the
    // count modest so the suite stays fast.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_edit_streams_converge_to_cold_precompute(
        // (insert?, x, y-offset): y = (x + 1 + off) % 6 sidesteps
        // self-loops, which the edge routes never need to accept.
        ops in proptest::collection::vec((proptest::bool::ANY, 0u32..6, 0u32..5), 1..10),
    ) {
        let server = Server::start_ingesting(
            dynamic(),
            0,
            ServeConfig::default(),
            // Rebuild after every applied edit: the factors served at
            // the final epoch are a fresh precompute of the server's
            // own graph, so the 5e-15 bound pins graph-state fidelity.
            IngestConfig { refresh_budget: 1, checkpoint: None },
        ).expect("server");
        let addr = server.addr();

        // Replay the same stream locally only to *track the graph*; the
        // cold model below is precomputed from scratch on the result.
        let mut shadow = dynamic();
        for &(insert, x, off) in &ops {
            let y = (x + 1 + off) % 6;
            let op = if insert { "insert" } else { "delete" };
            let payload = format!("{{\"op\":\"{op}\",\"x\":{x},\"y\":{y}}}");
            let (status, body) = http_post(addr, "/edges", &payload);
            prop_assert_eq!(status, 200, "{}", body);
            let _ = if insert { shadow.insert_edge(x, y) } else { shadow.remove_edge(x, y) };
        }
        let t = TransitionMatrix::from_graph(&shadow.to_graph());
        let cold = CsrPlusModel::precompute(&t, &CsrPlusConfig::with_rank(6)).expect("precompute");

        for a in 0..6usize {
            for b in 0..6usize {
                let (status, body) = http_get(addr, &format!("/similarity?a={a}&b={b}"));
                prop_assert_eq!(status, 200, "{}", body);
                let served = similarity_of(&body);
                let exact = cold.similarity(a, b).expect("similarity");
                prop_assert!(
                    (served - exact).abs() <= 5e-15,
                    "({a},{b}): served {served} vs cold {exact} after {} edits",
                    ops.len()
                );
            }
        }
        server.shutdown();
    }
}
