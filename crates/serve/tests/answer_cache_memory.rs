//! Serving memory stays bounded by what a request is working on, not by
//! how many distinct answers the server has given.
//!
//! The server caches ranked top-k answers of at most `MAX_CACHED_ANSWER`
//! pairs, never whole columns.  This binary installs the tracking
//! allocator, serves twice the cache's capacity of distinct `/topk`
//! requests over a 20,000-node model, and checks that the heap never
//! grew past one column per worker plus the cache's stated worst case.
//! A server that cached columns would hold `cache_capacity` of them
//! (64 × 160 KB here), several times that bound.

#[global_allocator]
static ALLOC: csrplus_memtrack::TrackingAllocator = csrplus_memtrack::TrackingAllocator;

use csrplus_core::{CsrPlusConfig, CsrPlusModel};
use csrplus_graph::{generators::erdos_renyi::erdos_renyi, TransitionMatrix};
use csrplus_serve::cache::MAX_CACHED_ANSWER;
use csrplus_serve::{http, render, ServeConfig, Server};
use std::time::Duration;

#[test]
fn distinct_topk_requests_hold_no_columns() {
    const N: usize = 20_000;
    const CAPACITY: usize = 64;
    const WORKERS: usize = 2;
    let t = TransitionMatrix::from_graph(&erdos_renyi(N, 4 * N, 11).unwrap());
    let model = CsrPlusModel::precompute(&t, &CsrPlusConfig::with_rank(8)).unwrap();
    let reference = model.clone();
    let config = ServeConfig {
        workers: WORKERS,
        cache_capacity: CAPACITY,
        cache_shards: 4,
        ..ServeConfig::default()
    };
    let handle = Server::start(model, 0, config).unwrap();
    let addr = handle.addr().to_string();
    let column_bytes = N * std::mem::size_of::<f64>();
    let bound = WORKERS * column_bytes + CAPACITY * MAX_CACHED_ANSWER * 16;

    let baseline = csrplus_memtrack::reset_peak();
    for i in 0..2 * CAPACITY {
        let node = i * 151 % N;
        let path = format!("/topk?node={node}&k=10");
        let (code, body) =
            http::request(&addr, "GET", &path, None, Duration::from_secs(30)).unwrap();
        assert_eq!(code, 200, "{path}: {body}");
        if i % 16 == 0 {
            assert_eq!(body, render::topk(node, &reference.top_k(node, 10).unwrap()), "{path}");
        }
    }
    let grown = csrplus_memtrack::peak_bytes().saturating_sub(baseline);
    let evictions = handle.metrics().cache_evictions.load(std::sync::atomic::Ordering::Relaxed);
    handle.shutdown();
    assert_eq!(evictions, CAPACITY as u64, "the second half of the requests cycled the cache");
    assert!(
        grown < bound,
        "serving peak grew {grown} B, past {WORKERS} columns + the answer cache's worst case \
         ({bound} B)"
    );
}
