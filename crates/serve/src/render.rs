//! JSON response bodies: every route, in every server role, renders
//! through these functions, so identical scores give byte-identical
//! output.
//!
//! Every body is streamed front to back into one reserved buffer by the
//! [`crate::json`] writer, and a proptest below checks every body
//! against the `format!`/`join` renderers kept as the `#[cfg(test)]`
//! oracle.

use crate::cache::ColumnCache;
use crate::coordinator::GatherMetrics;
use crate::json::Json;
use crate::metrics::Metrics;
use std::cmp::Ordering;
use std::io::Write as _;

/// `GET /health` body.
pub fn health(nodes: usize, rank: usize) -> String {
    let mut out = Json::object(48);
    out.key("status").string("ok").key("nodes").value(nodes).key("rank").value(rank);
    out.finish()
}

/// `GET /similarity` body.
pub fn similarity(a: usize, b: usize, s: f64) -> String {
    let mut out = Json::object(64);
    out.key("a").value(a).key("b").value(b).key("similarity").score(s);
    out.finish()
}

/// `GET /topk` body.
pub fn topk(node: usize, results: &[(usize, f64)]) -> String {
    let mut out = Json::object(32 + results.len() * 48);
    out.key("node").value(node).key("results").open(b'[');
    for &(i, s) in results {
        out.open(b'{').key("node").value(i).key("score").score(s).close(b'}');
    }
    out.close(b']');
    out.finish()
}

/// Bytes reserved per rendered score: the shortest round-trip `Display`
/// of a similarity in `(0, 1)` is at most ~22 characters, plus a comma.
/// Longer values (tiny magnitudes print every leading zero) just grow
/// the buffer.
const SCORE_BYTES: usize = 24;

/// `GET /query` body: one full similarity column per query node.
pub fn query(nodes: &[usize], columns: &[&[f64]]) -> String {
    debug_assert_eq!(nodes.len(), columns.len());
    let values: usize = columns.iter().map(|c| c.len()).sum();
    // The slack keeps an epoch / served-rank tag from reallocating.
    let mut out = Json::object(64 + nodes.len() * 24 + values * SCORE_BYTES);
    out.key("queries").open(b'[');
    for &q in nodes {
        out.value(q);
    }
    out.close(b']').key("columns").open(b'[');
    for col in columns {
        out.open(b'[');
        for &v in *col {
            out.score(v);
        }
        out.close(b']');
    }
    out.close(b']');
    out.finish()
}

/// Tags a rendered JSON object body with the epoch it was computed at:
/// `{"a":1}` → `{"a":1,"epoch":3}`.  Ingestion-enabled servers stamp
/// every query response through this so clients can correlate answers
/// with published model versions; with ingestion off nothing calls it
/// and bodies stay byte-identical to the static-model server.
pub fn with_epoch(body: String, epoch: u64) -> String {
    let mut out = Json::reopen(body);
    out.key("epoch").value(epoch);
    out.finish()
}

/// Marks a rendered JSON object body as answered at truncated rank `t`:
/// `{"a":1}` → `{"a":1,"served_rank":2}` (the pressure-degraded path).
pub fn served_rank(body: String, t: usize) -> String {
    let mut out = Json::reopen(body);
    out.key("served_rank").value(t);
    out.finish()
}

/// `GET /metrics` body: the server's counters with the per-shard cache
/// statistics and (on a coordinator) the gather block appended.
pub fn metrics(
    counters: &Metrics,
    cache: &ColumnCache,
    coordinator: Option<&GatherMetrics>,
) -> String {
    let mut out = Json::object(4096);
    counters.write_fields(&mut out);
    out.key("cache_shards");
    cache.write_stats_json(&mut out);
    if let Some(gather) = coordinator {
        out.key("coordinator");
        gather.write_json(&mut out);
    }
    out.finish()
}

/// The body of every error response: `{"error":"<message>"}`.
pub fn error(msg: &str) -> String {
    let mut out = Json::object(16 + msg.len());
    out.key("error").string(msg);
    out.finish()
}

/// `POST /edges` body: what one ingested batch did.
pub fn edges(applied: usize, ignored: usize, epoch: u64) -> String {
    let mut out = Json::object(64);
    out.key("applied").value(applied).key("ignored").value(ignored).key("epoch").value(epoch);
    out.finish()
}

/// `GET /shard/range` body.
pub fn shard_range(lo: usize, hi: usize, n: usize) -> String {
    let mut out = Json::object(64);
    out.key("lo").value(lo).key("hi").value(hi).key("n").value(n);
    out.finish()
}

/// `GET /shard/columns` body: for each query node, the internal rows
/// `lo..hi` of its column as one hex string, where `value(column, row)`
/// reads internal row `row` out of that column.
pub fn shard_columns<C: AsRef<[f64]>>(
    lo: usize,
    hi: usize,
    nodes: &[usize],
    columns: &[C],
    value: impl Fn(&[f64], usize) -> f64,
) -> String {
    let mut out = Json::object(64 + nodes.len() * 24 + columns.len() * ((hi - lo) * 16 + 3));
    out.key("lo").value(lo).key("hi").value(hi).key("queries").open(b'[');
    for &q in nodes {
        out.value(q);
    }
    out.close(b']').key("cols").open(b'[');
    for col in columns {
        out.string_with(|hex| {
            for row in lo..hi {
                crate::wire::encode_f64_into(value(col.as_ref(), row), hex);
            }
        });
    }
    out.close(b']');
    out.finish()
}

/// `GET /shard/topk` body: `"id:hex"` candidates in ranked order.
pub fn shard_topk(node: usize, results: &[(usize, f64)]) -> String {
    let mut out = Json::object(32 + results.len() * 32);
    out.key("node").value(node).key("results").open(b'[');
    for &(id, s) in results {
        out.string_with(|item| {
            let _ = write!(item, "{id}:");
            crate::wire::encode_f64_into(s, item);
        });
    }
    out.close(b']');
    out.finish()
}

/// The ranking order: `Less` = sorts first = better — descending score,
/// node id as the tie-break (NaN compares equal to everything, so it
/// falls back to the id).
fn better(a: &(usize, f64), b: &(usize, f64)) -> Ordering {
    b.1.partial_cmp(&a.1).unwrap_or(Ordering::Equal).then(a.0.cmp(&b.0))
}

/// A bounded sorted buffer for top-`k` selection.  `k` is
/// request-controlled, so the preallocation is capped and may grow.
fn top_buffer(k: usize) -> Vec<(usize, f64)> {
    Vec::with_capacity(k.saturating_add(1).min(4096))
}

/// Inserts `cand` at its rank and drops whatever falls past `k`.
fn insert_ranked(top: &mut Vec<(usize, f64)>, cand: (usize, f64), k: usize) {
    let at = top.partition_point(|e| better(e, &cand) == Ordering::Less);
    top.insert(at, cand);
    top.truncate(k);
}

/// Top-`k` over a precomputed similarity column, excluding the query
/// node, sorted by descending score with node id as tie-break — the same
/// order [`csrplus_core::CsrPlusModel::top_k`] produces, so serving from
/// a batched/cached column is indistinguishable from the direct path.
///
/// Selection is one `O(n)` scan with a bounded sorted buffer, not a
/// full sort: the node-id tie-break makes the comparator a strict total
/// order, so the top-`k` set (and its sorted order) is unique and
/// identical to sorting everything.  Ids arrive in ascending order, so
/// once the buffer is full a candidate can only enter with a score
/// strictly above the current `k`-th — a tie loses on id, and NaN
/// (either side) fails `>` exactly as it loses the comparator's id
/// fallback.  Almost every element fails that one f64 compare, so the
/// scan is branch-predictable and allocation-free.
pub fn top_k_from_column(column: &[f64], q: usize, k: usize) -> Vec<(usize, f64)> {
    if k == 0 {
        return Vec::new();
    }
    let mut top = top_buffer(k);
    for (i, &v) in column.iter().enumerate() {
        if i != q && (top.len() < k || v > top[k - 1].1) {
            insert_ranked(&mut top, (i, v), k);
        }
    }
    top
}

/// Top-`k` of an arbitrary `(node, score)` stream under the same order
/// as [`top_k_from_column`] — the shard route ranks its slice-local
/// candidates (in permuted id order) through this, so the coordinator's
/// merge sees identically ranked partial lists.
pub fn top_k_from_scored(
    scored: impl Iterator<Item = (usize, f64)>,
    k: usize,
) -> Vec<(usize, f64)> {
    if k == 0 {
        return Vec::new();
    }
    let mut top = top_buffer(k);
    for cand in scored {
        if top.len() == k && better(&cand, top.last().expect("k > 0")) != Ordering::Less {
            continue;
        }
        insert_ranked(&mut top, cand, k);
    }
    top
}

/// The `format!`/`join` renderers the streaming writer replaced, kept
/// verbatim as the byte-identity oracle.
#[cfg(test)]
pub(crate) mod oracle {
    pub fn health(nodes: usize, rank: usize) -> String {
        format!("{{\"status\":\"ok\",\"nodes\":{nodes},\"rank\":{rank}}}")
    }

    pub fn similarity(a: usize, b: usize, s: f64) -> String {
        format!("{{\"a\":{a},\"b\":{b},\"similarity\":{s}}}")
    }

    pub fn topk(node: usize, results: &[(usize, f64)]) -> String {
        let items: Vec<String> =
            results.iter().map(|(i, s)| format!("{{\"node\":{i},\"score\":{s}}}")).collect();
        format!("{{\"node\":{node},\"results\":[{}]}}", items.join(","))
    }

    pub fn query(nodes: &[usize], columns: &[&[f64]]) -> String {
        let cols: Vec<String> = columns
            .iter()
            .map(|col| {
                let vals: Vec<String> = col.iter().map(|v| format!("{v}")).collect();
                format!("[{}]", vals.join(","))
            })
            .collect();
        let q: Vec<String> = nodes.iter().map(|q| q.to_string()).collect();
        format!("{{\"queries\":[{}],\"columns\":[{}]}}", q.join(","), cols.join(","))
    }

    pub fn with_epoch(body: String, epoch: u64) -> String {
        let mut body = body;
        body.pop();
        body.push_str(&format!(",\"epoch\":{epoch}}}"));
        body
    }

    pub fn served_rank(body: String, t: usize) -> String {
        let mut body = body;
        body.pop();
        body.push_str(&format!(",\"served_rank\":{t}}}"));
        body
    }

    pub fn edges(applied: usize, ignored: usize, epoch: u64) -> String {
        format!("{{\"applied\":{applied},\"ignored\":{ignored},\"epoch\":{epoch}}}")
    }

    pub fn shard_range(lo: usize, hi: usize, n: usize) -> String {
        format!("{{\"lo\":{lo},\"hi\":{hi},\"n\":{n}}}")
    }

    pub fn shard_columns(lo: usize, hi: usize, nodes: &[usize], hex_columns: &[String]) -> String {
        let cols: Vec<String> = hex_columns.iter().map(|hex| format!("\"{hex}\"")).collect();
        let q: Vec<String> = nodes.iter().map(usize::to_string).collect();
        format!(
            "{{\"lo\":{lo},\"hi\":{hi},\"queries\":[{}],\"cols\":[{}]}}",
            q.join(","),
            cols.join(",")
        )
    }

    pub fn shard_topk(node: usize, results: &[(usize, f64)]) -> String {
        let results: Vec<String> = results
            .iter()
            .map(|&(id, s)| format!("\"{id}:{}\"", crate::wire::encode_f64s(&[s])))
            .collect();
        format!("{{\"node\":{node},\"results\":[{}]}}", results.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bodies_have_the_pinned_shapes() {
        assert_eq!(health(6, 3), "{\"status\":\"ok\",\"nodes\":6,\"rank\":3}");
        assert_eq!(similarity(1, 3, 0.5), "{\"a\":1,\"b\":3,\"similarity\":0.5}");
        assert_eq!(
            topk(1, &[(3, 0.5), (4, 0.25)]),
            "{\"node\":1,\"results\":[{\"node\":3,\"score\":0.5},{\"node\":4,\"score\":0.25}]}"
        );
        assert_eq!(topk(1, &[]), "{\"node\":1,\"results\":[]}");
        assert_eq!(
            query(&[1, 3], &[&[0.0, 1.0][..], &[0.5, 0.25][..]]),
            "{\"queries\":[1,3],\"columns\":[[0,1],[0.5,0.25]]}"
        );
        assert_eq!(query(&[], &[]), "{\"queries\":[],\"columns\":[]}");
        assert_eq!(query(&[2], &[&[][..]]), "{\"queries\":[2],\"columns\":[[]]}");
    }

    #[test]
    fn epoch_tagging_appends_to_the_object() {
        assert_eq!(
            with_epoch(health(6, 3), 0),
            "{\"status\":\"ok\",\"nodes\":6,\"rank\":3,\"epoch\":0}"
        );
        assert_eq!(
            with_epoch(similarity(1, 3, 0.5), 42),
            "{\"a\":1,\"b\":3,\"similarity\":0.5,\"epoch\":42}"
        );
        assert_eq!(
            with_epoch(served_rank(similarity(1, 3, 0.5), 2), 7),
            "{\"a\":1,\"b\":3,\"similarity\":0.5,\"served_rank\":2,\"epoch\":7}"
        );
        assert_eq!(with_epoch("{}".to_string(), 1), "{\"epoch\":1}");
    }

    #[test]
    fn server_side_bodies_match_their_format_renderings() {
        assert_eq!(edges(2, 1, 9), oracle::edges(2, 1, 9));
        assert_eq!(shard_range(3, 7, 10), oracle::shard_range(3, 7, 10));
        assert_eq!(error("bad \"x\"\t"), "{\"error\":\"bad \\\"x\\\"\\u0009\"}");
    }

    /// `/metrics` for a fixed counter state, byte for byte as the
    /// `format!`/`join` section renderers wrote it.
    #[test]
    fn metrics_bytes_are_pinned() {
        use crate::cache::Column;
        use crate::metrics::Route;
        use std::sync::atomic::Ordering::Relaxed;
        use std::sync::Arc;
        use std::time::Duration;

        let m = Metrics::new();
        m.record_request(Route::TopK, Duration::from_micros(300));
        m.record_request(Route::TopK, Duration::from_micros(5));
        m.record_request(Route::Edges, Duration::from_micros(70_000));
        for (counter, v) in [
            (&m.client_errors, 2),
            (&m.io_errors, 1),
            (&m.queue_rejections, 3),
            (&m.model_evaluations, 4),
            (&m.batched_requests, 9),
            (&m.cache_evictions, 7),
            (&m.shed_total, 3),
            (&m.shed_last_retry_after_s, 2),
            (&m.degraded_requests, 1),
            (&m.ingest_epoch, 3),
            (&m.ingest_updates_applied, 17),
            (&m.ingest_epochs_published, 3),
            (&m.ingest_rebuilds, 1),
            (&m.ingest_checkpoints, 2),
        ] {
            counter.store(v, Relaxed);
        }
        m.batch_sizes.observe(1);
        m.batch_sizes.observe(8);
        for client in ["10.0.0.2", "10.0.0.2", "10.0.0.1", "a\"b\\c\td"] {
            m.record_shed_for_client(client);
        }
        m.served_rank.observe(4);
        m.record_boot(Duration::from_micros(1234), true, true);
        let cache = ColumnCache::with_admission(2, 2, Arc::new(Metrics::new()), true);
        let col = |v: f64| -> Column { Arc::from(vec![v].into_boxed_slice()) };
        cache.insert(0, 0, col(0.0));
        cache.insert(1, 0, col(1.0));
        cache.get(0, 0);
        cache.get(3, 0);
        cache.get(1, 1);
        cache.insert(2, 0, col(2.0));
        cache.get(2, 0);
        cache.insert(4, 0, col(4.0));
        let gather = GatherMetrics::new(2);
        gather.scatter_requests.store(4, Relaxed);
        gather.scatter_skipped_shards.store(1, Relaxed);
        gather.scatter_hedges.store(2, Relaxed);
        gather.scatter_fanout.observe(2);
        gather.gather_merge_us.observe(17);
        gather.shard_latency_us[1].observe(900);

        let expected = [
            "{\"requests_total\":3,\"routes\":{\"health\":{\"requests\":0,\"latency_us\":{\"count\":0",
            ",\"sum\":0,\"p50\":0,\"p99\":0,\"p999\":0,\"buckets\":{}}},\"metrics\":{\"requests\":0,\"",
            "latency_us\":{\"count\":0,\"sum\":0,\"p50\":0,\"p99\":0,\"p999\":0,\"buckets\":{}}},\"si",
            "milarity\":{\"requests\":0,\"latency_us\":{\"count\":0,\"sum\":0,\"p50\":0,\"p99\":0,\"p",
            "999\":0,\"buckets\":{}}},\"topk\":{\"requests\":2,\"latency_us\":{\"count\":2,\"sum\":30",
            "5,\"p50\":8,\"p99\":512,\"p999\":512,\"buckets\":{\"le_8\":1,\"le_512\":1}}},\"query\":{",
            "\"requests\":0,\"latency_us\":{\"count\":0,\"sum\":0,\"p50\":0,\"p99\":0,\"p999\":0,\"bu",
            "ckets\":{}}},\"shard_range\":{\"requests\":0,\"latency_us\":{\"count\":0,\"sum\":0,\"p50",
            "\":0,\"p99\":0,\"p999\":0,\"buckets\":{}}},\"shard_columns\":{\"requests\":0,\"latency_u",
            "s\":{\"count\":0,\"sum\":0,\"p50\":0,\"p99\":0,\"p999\":0,\"buckets\":{}}},\"shard_topk\"",
            ":{\"requests\":0,\"latency_us\":{\"count\":0,\"sum\":0,\"p50\":0,\"p99\":0,\"p999\":0,\"",
            "buckets\":{}}},\"edges\":{\"requests\":1,\"latency_us\":{\"count\":1,\"sum\":70000,\"p50",
            "\":131072,\"p99\":131072,\"p999\":131072,\"buckets\":{\"le_131072\":1}}}},\"errors\":{\"",
            "client\":2,\"io\":1,\"queue_rejections\":3},\"batcher\":{\"model_evaluations\":4,\"batch",
            "ed_requests\":9,\"batch_sizes\":{\"count\":2,\"sum\":9,\"p50\":1,\"p99\":8,\"p999\":8,\"",
            "buckets\":{\"le_1\":1,\"le_8\":1}}},\"cache\":{\"hits\":0,\"misses\":0,\"evictions\":7,\"",
            "admission_rejects\":0},\"shed\":{\"total\":3,\"last_retry_after_s\":2},\"shed_clients\":",
            "{\"10.0.0.1\":1,\"10.0.0.2\":2,\"a\\\"b\\\\c\\u0009d\":1},\"degraded\":{\"requests\":1,\"",
            "served_rank\":{\"count\":1,\"sum\":4,\"p50\":4,\"p99\":4,\"p999\":4,\"buckets\":{\"le_4\"",
            ":1}}},\"ingest\":{\"epoch\":3,\"updates_applied\":17,\"epochs_published\":3,\"rebuilds\"",
            ":1,\"checkpoints\":2},\"boot\":{\"cold_start_us\":1234,\"model_mapped\":1,\"model_precis",
            "ion\":\"f32\"},\"cache_shards\":[{\"hits\":1,\"misses\":1,\"evictions\":0,\"admission_re",
            "jects\":2},{\"hits\":0,\"misses\":2,\"evictions\":0,\"admission_rejects\":0}],\"coordina",
            "tor\":{\"scatter_requests\":4,\"skipped_shards\":1,\"hedges\":2,\"fanout\":{\"count\":1,",
            "\"sum\":2,\"p50\":2,\"p99\":2,\"p999\":2,\"buckets\":{\"le_2\":1}},\"merge_us\":{\"count",
            "\":1,\"sum\":17,\"p50\":32,\"p99\":32,\"p999\":32,\"buckets\":{\"le_32\":1}},\"shard_lat",
            "ency_us\":[{\"count\":0,\"sum\":0,\"p50\":0,\"p99\":0,\"p999\":0,\"buckets\":{}},{\"coun",
            "t\":1,\"sum\":900,\"p50\":1024,\"p99\":1024,\"p999\":1024,\"buckets\":{\"le_1024\":1}}]}",
            "}",
        ]
        .concat();
        assert_eq!(metrics(&m, &cache, Some(&gather)), expected);
        let local = expected.split(",\"coordinator\":").next().unwrap().to_string() + "}";
        assert_eq!(metrics(&m, &cache, None), local);
        assert_eq!(crate::json::parse(&expected).unwrap().to_string(), expected);
    }

    #[test]
    fn top_k_excludes_query_sorts_and_tie_breaks() {
        let col = [0.5, 9.0, 0.25, 0.5, 0.75];
        let top = top_k_from_column(&col, 1, 3);
        assert_eq!(top, vec![(4, 0.75), (0, 0.5), (3, 0.5)]);
        assert_eq!(top_k_from_column(&col, 1, 0), vec![]);
        assert_eq!(top_k_from_column(&col, 1, 10).len(), 4);
    }

    /// Scores that stress `Display` and the comparator: signed zeros,
    /// infinities, NaN, subnormals, extreme magnitudes, integral values
    /// and a few real similarity values.
    const SPECIAL: [f64; 16] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::MIN_POSITIVE,
        5e-324,
        -2.2250738585072e-310,
        1e-300,
        1e300,
        f64::MAX,
        1.0,
        42.0,
        -3.0,
        0.4755002469278563,
        0.0001935017039130681,
    ];

    /// A score: a special value, a random bit pattern, a value on the
    /// unit interval like the ones a real column holds, a power of two, or
    /// a quarter-odd value in `[2^50, 2^51)` — an exact tie between two
    /// shortest decimals, which `Display` rounds up.
    fn score() -> impl Strategy<Value = f64> {
        (0usize..5, 0usize..SPECIAL.len(), 0u64..=u64::MAX, 0.0f64..1.0).prop_map(
            |(pick, i, bits, unit)| match pick {
                0 => SPECIAL[i],
                1 => f64::from_bits(bits),
                2 => unit,
                3 => f64::from_bits(bits & (0xfff << 52)),
                _ => ((1u64 << 50) | (bits >> 14)) as f64 + [0.25, 0.75][i % 2],
            },
        )
    }

    fn bits(top: &[(usize, f64)]) -> Vec<(usize, u64)> {
        top.iter().map(|&(i, s)| (i, s.to_bits())).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn streamed_bodies_are_byte_identical_to_the_format_oracle(
            nodes in proptest::collection::vec(0usize..100_000, 0..6),
            len in 0usize..40,
            values in proptest::collection::vec(score(), 240),
            a in 0usize..100_000,
            b in 0usize..100_000,
            epoch in 0u64..=u64::MAX,
            t in 0usize..=usize::MAX,
        ) {
            // One column per query node, possibly empty, from the pool.
            let columns: Vec<&[f64]> =
                (0..nodes.len()).map(|j| &values[j * len..(j + 1) * len]).collect();
            let body = query(&nodes, &columns);
            prop_assert_eq!(&body, &oracle::query(&nodes, &columns));
            prop_assert_eq!(
                with_epoch(body.clone(), epoch),
                oracle::with_epoch(body.clone(), epoch)
            );
            prop_assert_eq!(served_rank(body.clone(), t), oracle::served_rank(body, t));

            let results: Vec<(usize, f64)> =
                nodes.iter().zip(&values).map(|(&i, &s)| (i, s)).collect();
            prop_assert_eq!(topk(a, &results), oracle::topk(a, &results));
            prop_assert_eq!(shard_topk(a, &results), oracle::shard_topk(a, &results));
            for &s in &values[..8] {
                prop_assert_eq!(similarity(a, b, s), oracle::similarity(a, b, s));
                let tagged = served_rank(similarity(a, b, s), t);
                prop_assert_eq!(
                    with_epoch(tagged.clone(), epoch),
                    oracle::with_epoch(oracle::served_rank(similarity(a, b, s), t), epoch)
                );
            }
            prop_assert_eq!(health(a, b), oracle::health(a, b));

            let (lo, hi) = (len / 3, len);
            let hex: Vec<String> = columns
                .iter()
                .map(|c| crate::wire::encode_f64s(&c[lo..hi]))
                .collect();
            prop_assert_eq!(
                shard_columns(lo, hi, &nodes, &columns, |c, row| c[row]),
                oracle::shard_columns(lo, hi, &nodes, &hex)
            );
        }

        #[test]
        fn compare_first_selection_equals_the_comparator_scan(
            n in 0usize..48,
            pool in proptest::collection::vec(score(), 6),
            picks in proptest::collection::vec(0usize..6, 48),
            extra in 0usize..3,
        ) {
            // Heavy ties: every entry is one of six pooled scores.
            let column: Vec<f64> = picks[..n].iter().map(|&p| pool[p]).collect();
            // `q` at every position, and past the end (nothing excluded).
            for (q, k) in (0..=n).flat_map(|q| {
                [0, 1, n.saturating_sub(1), n, n + 5 + extra].map(move |k| (q, k))
            }) {
                let expected = top_k_from_scored(
                    column.iter().copied().enumerate().filter(|&(i, _)| i != q),
                    k,
                );
                prop_assert_eq!(
                    bits(&top_k_from_column(&column, q, k)),
                    bits(&expected),
                    "column {:?} q {} k {}",
                    column,
                    q,
                    k
                );
            }
        }
    }
}
