//! Differential oracle for the public query routes: on random small
//! graphs, every `/similarity`, `/topk` and `/query` body a default
//! [`Server`] answers must equal, byte for byte, the model's own answer
//! rendered through [`render`] — `CsrPlusModel::similarity`, `top_k` and
//! `query_columns`, with none of the server's batching, coalescing or
//! caching in between.  Every case also checks a `precompute
//! --reorder`-style model of the same graph (factors built over relabeled
//! rows, the permutation attached), whose answers must still speak
//! original node ids.  The storage precision is drawn per case, so both
//! the f64 and the mixed f32 kernels answer through every route.

use csrplus_core::{CsrPlusConfig, CsrPlusModel, Precision};
use csrplus_graph::generators::erdos_renyi;
use csrplus_graph::partition::{Partitioner, Permutation, Reordering};
use csrplus_graph::{DiGraph, TransitionMatrix};
use csrplus_serve::{http, render, ServeConfig, Server};
use proptest::prelude::*;
use std::net::SocketAddr;
use std::time::Duration;

/// The body a default server must answer for `path`, rendered from the
/// model's own answer.
fn oracle(m: &CsrPlusModel, path: &str) -> String {
    let (_, target) =
        http::parse_request_line_methods(&format!("GET {path} HTTP/1.1"), &["GET"]).unwrap();
    let num = |key: &str| target.require(key).unwrap().parse::<usize>().unwrap();
    match target.path.as_str() {
        "/similarity" => {
            let (a, b) = (num("a"), num("b"));
            render::similarity(a, b, m.similarity(a, b).unwrap())
        }
        "/topk" => {
            let node = num("node");
            let k = target.get("k").map_or(10, |_| num("k"));
            render::topk(node, &m.top_k(node, k).unwrap())
        }
        "/query" => {
            let nodes: Vec<usize> =
                target.require("nodes").unwrap().split(',').map(|v| v.parse().unwrap()).collect();
            let columns = m.query_columns(&nodes).unwrap();
            render::query(&nodes, &columns.iter().map(Vec::as_slice).collect::<Vec<_>>())
        }
        other => panic!("no oracle for {other}"),
    }
}

/// Issues one `GET` and returns `(status, body)`.
fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    http::request(&addr.to_string(), "GET", path, None, Duration::from_secs(30)).unwrap()
}

/// The model `csrplus precompute --reorder <reorder>` builds for `g`:
/// factors over the relabeled graph, the permutation attached.  A small
/// graph may already be in the strategy's order; it is reversed instead,
/// so the model always carries a real permutation.
fn reordered(g: &DiGraph, config: &CsrPlusConfig, reorder: Reordering) -> CsrPlusModel {
    let mut perm = Partitioner::new(reorder).permutation(g);
    if perm.is_identity() {
        perm = Permutation::from_order((0..g.num_nodes() as u32).rev().collect()).unwrap();
    }
    let relabeled = perm.apply(g);
    let model = CsrPlusModel::precompute(&TransitionMatrix::from_graph(&relabeled), config);
    model.unwrap().with_permutation(perm.into_order(), reorder).unwrap()
}

/// Boots a default server over `m` and checks every path against the
/// oracle.
fn check(m: CsrPlusModel, paths: &[String]) {
    let expected: Vec<String> = paths.iter().map(|p| oracle(&m, p)).collect();
    let handle = Server::start(m, 0, ServeConfig::default()).unwrap();
    for (path, want) in paths.iter().zip(&expected) {
        let (code, body) = get(handle.addr(), path);
        assert_eq!(code, 200, "{path}: {body}");
        assert_eq!(&body, want, "{path}");
    }
    handle.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn public_routes_answer_what_the_model_renders(
        n in 4usize..=40,
        density in 1usize..4,
        seed in 0u64..1_000_000,
        rank_seed in 0usize..1000,
        reorder in 1usize..Reordering::ALL.len(),
        picks in proptest::collection::vec(0usize..1000, 12),
        k_seed in 0usize..1000,
        f32_storage in proptest::bool::ANY,
    ) {
        let g = erdos_renyi(n, density * n, seed).unwrap();
        let rank = 1 + rank_seed % n.min(8);
        let node = |i: usize| picks[i] % n;
        let k = k_seed % (n + 3);
        let paths = vec![
            format!("/similarity?a={}&b={}", node(0), node(1)),
            format!("/similarity?a={}&b={}", node(2), node(2)),
            format!("/topk?node={}&k={k}", node(3)),
            format!("/topk?node={}", node(4)),
            format!("/topk?node={}&k={}", node(5), n + 5),
            format!("/query?nodes={}", node(6)),
            format!("/query?nodes={},{},{}", node(7), node(8), node(7)),
            format!("/query?nodes={}%2C{}%2C{}%2C{}", node(9), node(10), node(11), node(0)),
            // Repeats: the second `/topk` answer comes from the answer cache.
            format!("/similarity?a={}&b={}", node(1), node(0)),
            format!("/topk?node={}&k={k}", node(3)),
        ];
        let precision = if f32_storage { Precision::F32 } else { Precision::F64 };
        let config = CsrPlusConfig { precision, ..CsrPlusConfig::with_rank(rank) };
        let model = CsrPlusModel::precompute(&TransitionMatrix::from_graph(&g), &config).unwrap();
        prop_assert_eq!(model.precision(), precision);
        check(model, &paths);
        let permuted = reordered(&g, &config, Reordering::ALL[reorder]);
        prop_assert!(permuted.permutation().is_some());
        check(permuted, &paths);
    }
}
