//! End-to-end proof of the tentpole property: `K` concurrent HTTP
//! requests for distinct nodes coalesce into **one** multi-source model
//! evaluation (observable via the `/metrics` evaluation counter) while
//! every client receives the byte-identical body of the model's own
//! unbatched answer.

use csrplus_core::{CsrPlusConfig, CsrPlusModel};
use csrplus_graph::{generators::figure1_graph, TransitionMatrix};
use csrplus_serve::json::{self, Value};
use csrplus_serve::{http, render, ServeConfig, Server};
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn model() -> CsrPlusModel {
    let t = TransitionMatrix::from_graph(&figure1_graph());
    CsrPlusModel::precompute(&t, &CsrPlusConfig::with_rank(3)).unwrap()
}

/// Issues one `GET` and returns `(status, body)`.
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    http::request(&addr.to_string(), "GET", path, None, Duration::from_secs(30)).unwrap()
}

/// The integer at the first field named `key` in the `/metrics` JSON,
/// in document order.
fn metric(body: &str, key: &str) -> u64 {
    fn first<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
        match v {
            Value::Object(fields) => {
                fields.iter().find_map(|(k, v)| if k == key { Some(v) } else { first(v, key) })
            }
            Value::Array(items) => items.iter().find_map(|v| first(v, key)),
            _ => None,
        }
    }
    let metrics = json::parse(body).unwrap();
    first(&metrics, key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("{key} missing in {body}"))
}

#[test]
fn concurrent_http_requests_coalesce_into_one_evaluation() {
    const K: usize = 4;
    let m = model();
    let reference = m.clone();
    let config = ServeConfig {
        workers: 2 * K,
        queue_depth: 64,
        max_batch: K,
        // Generous linger: the batch must fire on *fullness* (the K-th
        // arrival), making the single-evaluation assertion deterministic.
        linger: Duration::from_secs(5),
        cache_capacity: 0, // no cache: every request must reach the batcher
        cache_shards: 1,
        timeout: Duration::from_secs(30),
        max_requests: None,
        ..ServeConfig::default()
    };
    let handle = Server::start(m, 0, config).unwrap();
    let addr = handle.addr();

    let barrier = Arc::new(Barrier::new(K));
    let clients: Vec<_> = (0..K)
        .map(|j| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                (j, http_get(addr, &format!("/topk?node={j}&k=3")))
            })
        })
        .collect();
    let answers: Vec<(usize, (u16, String))> =
        clients.into_iter().map(|c| c.join().unwrap()).collect();

    // Every client got the byte-identical body of the unbatched answer.
    for (j, (status, body)) in &answers {
        assert_eq!(*status, 200, "client {j}");
        let unbatched = render::topk(*j, &reference.top_k(*j, 3).unwrap());
        assert_eq!(*body, unbatched, "client {j} answer differs from unbatched");
    }

    // The K column fetches ran as ONE multi-source evaluation.
    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert_eq!(metric(&metrics, "model_evaluations"), 1, "metrics: {metrics}");
    assert_eq!(metric(&metrics, "batched_requests"), K as u64, "metrics: {metrics}");
    // The /metrics request itself is only counted after its body renders,
    // so it sees exactly the K top-k requests.
    assert_eq!(metric(&metrics, "requests_total"), K as u64, "metrics: {metrics}");

    handle.shutdown();
}

#[test]
fn cache_serves_repeat_queries_without_reevaluation() {
    let m = model();
    let config = ServeConfig {
        workers: 2,
        queue_depth: 16,
        linger: Duration::ZERO, // fire immediately: no coalescing, pure cache test
        cache_capacity: 16,
        cache_shards: 2,
        ..ServeConfig::default()
    };
    let handle = Server::start(m, 0, config).unwrap();
    let addr = handle.addr();

    // Ranked answers are what the server caches; `/similarity` is one dot
    // product and evaluates no column at all.
    let (s1, b1) = http_get(addr, "/topk?node=1&k=2");
    let (s2, b2) = http_get(addr, "/topk?node=1&k=2");
    assert_eq!((s1, s2), (200, 200));
    assert_eq!(b1, b2);

    let (_, metrics) = http_get(addr, "/metrics");
    assert_eq!(metric(&metrics, "model_evaluations"), 1, "metrics: {metrics}");
    assert_eq!(metric(&metrics, "hits"), 1, "metrics: {metrics}");
    assert_eq!(metric(&metrics, "misses"), 1, "metrics: {metrics}");

    handle.shutdown();
}
