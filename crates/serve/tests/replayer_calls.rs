//! The serving API the benchmark's traced replayer composes, called the
//! way it calls it (`perfbench/src/run.rs`, `Replayer::read`): a column
//! cache sized from the default `ServeConfig`, epoch-tagged `get` and
//! `insert` of whole columns, one-source evaluation through a reused
//! scratch block, selection with `render::top_k_from_column`, and the
//! top-k, multi-column and epoch-stamped renders written to a sink.  A
//! change that breaks any of these calls fails this test as well as the
//! benchmark's own build.

use csrplus_core::{CsrPlusConfig, CsrPlusModel, DenseMatrix};
use csrplus_graph::{generators::figure1_graph, TransitionMatrix};
use csrplus_serve::cache::{Column, ColumnCache};
use csrplus_serve::{http, render, Metrics, ServeConfig, Snapshot};
use std::sync::Arc;

#[test]
fn the_replayers_calls_answer_what_the_model_renders() {
    let t = TransitionMatrix::from_graph(&figure1_graph());
    let model = CsrPlusModel::precompute(&t, &CsrPlusConfig::with_rank(3)).unwrap();
    let snapshot = Snapshot::new(2, Arc::new(model.clone()));
    let config = ServeConfig::default();
    let cache =
        ColumnCache::new(config.cache_capacity, config.cache_shards, Arc::new(Metrics::new()));
    let mut scratch = DenseMatrix::zeros(0, 0);
    let (model_ref, epoch) = (snapshot.model(), snapshot.epoch());
    let k = 3;
    for pass in 0..2 {
        for q in 0..model.n() {
            let line = format!("GET /topk?node={q}&k={k} HTTP/1.1");
            assert!(http::parse_request_line_methods(&line, &["GET", "POST"]).is_ok());
            let column = match cache.get(q, epoch) {
                Some(column) => column,
                None => {
                    assert_eq!(pass, 0, "node {q} was cached on the first pass");
                    let column: Column =
                        model_ref.query_columns_into(&[q], &mut scratch).unwrap().remove(0).into();
                    cache.insert(q, epoch, Arc::clone(&column));
                    column
                }
            };
            let top = render::top_k_from_column(&column, q, k);
            let body = render::with_epoch(render::topk(q, &top), epoch);
            let expected = render::with_epoch(render::topk(q, &model.top_k(q, k).unwrap()), 2);
            assert_eq!(body, expected, "node {q}");
            assert!(http::write_response(std::io::sink(), 200, &body).is_ok());
        }
    }
    let nodes = [1, 3];
    let columns: Vec<Column> = nodes.iter().map(|&q| cache.get(q, epoch).unwrap()).collect();
    let views: Vec<&[f64]> = columns.iter().map(|c| &c[..]).collect();
    let expected = model.query_columns(&nodes).unwrap();
    let expected: Vec<&[f64]> = expected.iter().map(Vec::as_slice).collect();
    assert_eq!(render::query(&nodes, &views), render::query(&nodes, &expected));
}
