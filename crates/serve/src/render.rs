//! JSON response bodies: every route, in every server role, renders
//! through these functions, so identical scores give byte-identical
//! output.
//!
//! Every body is streamed front to back into one reserved buffer by one
//! small private JSON writer.  Integers go through their `Display` impls;
//! scores go through `f64fmt`, a Ryū shortest round-trip writer whose
//! output is byte-identical to `f64`'s `Display` (`format!("{v}")`) at
//! well under half of `core::fmt`'s cost per value — and formatting
//! scores is most of what rendering a `/query` body costs.  Its tests
//! compare it with `format!("{v}")` on random bit patterns, every power
//! of two, exact decimal ties, integers, subnormals and real model
//! columns (and an ignored release-mode sweep of 10⁸ more), and a
//! proptest below checks every body against the `format!`/`join`
//! renderers kept as the `#[cfg(test)]` oracle.

mod f64fmt;

use std::cmp::Ordering;
use std::fmt::Display;
use std::io::Write as _;

/// The integers a body holds: node ids, counts, epochs.
trait Integer: Display {}
impl Integer for usize {}
impl Integer for u64 {}

/// One JSON body written front to back into a single buffer.
///
/// The only structural rule is the separator: before any key, value or
/// container, a comma is written unless the buffer ends in `{`, `[` or
/// `:` — so the same calls write object fields and array items.
///
/// The buffer is bytes, not a `String`, so scores append their ASCII
/// digits with no per-value UTF-8 check; [`Json::finish`] checks the
/// whole body once.
struct Json(Vec<u8>);

impl Json {
    /// Starts an object body with `capacity` bytes reserved.
    fn object(capacity: usize) -> Json {
        let mut out = Vec::with_capacity(capacity);
        out.push(b'{');
        Json(out)
    }

    /// Reopens a finished object body so more fields can follow.
    fn reopen(body: String) -> Json {
        debug_assert!(body.ends_with('}'), "field tagging expects a JSON object body");
        let mut body = body.into_bytes();
        body.pop();
        Json(body)
    }

    fn sep(&mut self) {
        if !matches!(self.0.last(), Some(b'{' | b'[' | b':')) {
            self.0.push(b',');
        }
    }

    /// Writes `"name":`; the next value call fills it.
    fn key(&mut self, name: &str) -> &mut Json {
        self.sep();
        self.0.push(b'"');
        self.0.extend_from_slice(name.as_bytes());
        self.0.extend_from_slice(b"\":");
        self
    }

    /// Writes one integer through its `Display` impl.
    fn value(&mut self, v: impl Integer) -> &mut Json {
        self.sep();
        let _ = write!(self.0, "{v}");
        self
    }

    /// Writes one score exactly as `format!("{v}")` would.
    fn score(&mut self, v: f64) -> &mut Json {
        self.sep();
        f64fmt::write_f64(&mut self.0, v);
        self
    }

    /// Writes an already-rendered JSON fragment as one value.
    fn raw(&mut self, fragment: &str) -> &mut Json {
        self.sep();
        self.0.extend_from_slice(fragment.as_bytes());
        self
    }

    /// Writes `"…"` around whatever `fill` appends (no escaping: callers
    /// write hex digits, ids and colons only).
    fn string_with(&mut self, fill: impl FnOnce(&mut Vec<u8>)) -> &mut Json {
        self.sep();
        self.0.push(b'"');
        fill(&mut self.0);
        self.0.push(b'"');
        self
    }

    /// Opens an array (`[`) or object (`{`).
    fn open(&mut self, bracket: u8) -> &mut Json {
        self.sep();
        self.0.push(bracket);
        self
    }

    /// Closes the innermost container with `]` or `}`.
    fn close(&mut self, bracket: u8) -> &mut Json {
        self.0.push(bracket);
        self
    }

    /// Closes the body's object and hands the buffer back.
    fn finish(mut self) -> String {
        self.0.push(b'}');
        String::from_utf8(self.0).expect("bodies are written from `str`s and ASCII digits")
    }
}

/// `GET /health` body.
pub fn health(nodes: usize, rank: usize) -> String {
    let mut out = Json::object(48);
    out.key("status").raw("\"ok\"").key("nodes").value(nodes).key("rank").value(rank);
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
pub fn metrics(counters: String, cache_shards: &str, coordinator: Option<&str>) -> String {
    let mut out = Json::reopen(counters);
    out.key("cache_shards").raw(cache_shards);
    if let Some(block) = coordinator {
        out.key("coordinator").raw(block);
    }
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

    pub fn metrics(counters: String, cache_shards: &str, coordinator: Option<&str>) -> String {
        let mut body = counters;
        body.pop();
        body.push_str(&format!(",\"cache_shards\":{cache_shards}"));
        if let Some(block) = coordinator {
            body.push_str(&format!(",\"coordinator\":{block}"));
        }
        body.push('}');
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
        let counters = "{\"requests_total\":4,\"boot\":{\"x\":1}}".to_string();
        for coordinator in [None, Some("{\"scatter_requests\":0,\"shard_latency_us\":[]}")] {
            assert_eq!(
                metrics(counters.clone(), "[{\"hits\":1},{\"hits\":0}]", coordinator),
                oracle::metrics(counters.clone(), "[{\"hits\":1},{\"hits\":0}]", coordinator)
            );
        }
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
