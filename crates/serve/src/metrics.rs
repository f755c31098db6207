//! Serving metrics: lock-free counters, log₂ latency histograms per
//! route, and the batch-size distribution — everything `GET /metrics`
//! reports.

use crate::json::Json;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Routes with dedicated counters/latency series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `GET /health`
    Health,
    /// `GET /metrics`
    Metrics,
    /// `GET /similarity`
    Similarity,
    /// `GET /topk`
    TopK,
    /// `GET /query`
    Query,
    /// `GET /shard/range` (shard servers only)
    ShardRange,
    /// `GET /shard/columns` (shard servers only)
    ShardColumns,
    /// `GET /shard/topk` (shard servers only)
    ShardTopK,
    /// `POST /edges` (ingestion-enabled servers only)
    Edges,
}

impl Route {
    /// All instrumented routes, in render order.
    pub const ALL: [Route; 9] = [
        Route::Health,
        Route::Metrics,
        Route::Similarity,
        Route::TopK,
        Route::Query,
        Route::ShardRange,
        Route::ShardColumns,
        Route::ShardTopK,
        Route::Edges,
    ];

    fn index(self) -> usize {
        self as usize // declaration order, as in `ALL`
    }

    fn name(self) -> &'static str {
        match self {
            Route::Health => "health",
            Route::Metrics => "metrics",
            Route::Similarity => "similarity",
            Route::TopK => "topk",
            Route::Query => "query",
            Route::ShardRange => "shard_range",
            Route::ShardColumns => "shard_columns",
            Route::ShardTopK => "shard_topk",
            Route::Edges => "edges",
        }
    }
}

/// Power-of-two bucketed histogram (bucket `i` counts values `v` with
/// `2^(i-1) < v ≤ 2^i`, bucket 0 counts `v ≤ 1`); tracks count and sum
/// for averages.  All atomic — observation never takes a lock.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; Self::BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// 2^31 µs ≈ 36 minutes: far beyond any per-request latency.
    const BUCKETS: usize = 32;

    /// An empty histogram.
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)] // array-init seed
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            buckets: [ZERO; Self::BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one value.
    pub fn observe(&self, value: u64) {
        let bucket = (64 - value.max(1).leading_zeros() as usize - 1)
            + usize::from(!value.is_power_of_two() && value > 1);
        self.buckets[bucket.min(Self::BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records a duration in microseconds.
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0 < q ≤ 1`) estimated from the log₂ buckets:
    /// the bucket holding the target rank is found by cumulative count,
    /// then the value is interpolated linearly between the bucket's
    /// bounds — exact to within one octave, which is what power-of-two
    /// buckets can promise.  Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                let lower = if i == 0 { 0u64 } else { 1u64 << (i - 1) };
                let upper = 1u64 << i;
                let within = (target - seen) as f64 / c as f64;
                return lower + ((upper - lower) as f64 * within).round() as u64;
            }
            seen += c;
        }
        1u64 << (Self::BUCKETS - 1)
    }

    /// Writes `{"count":N,"sum":S,"p50":…,"p99":…,"p999":…,
    /// "buckets":{"le_2^i":c,…}}`, with empty buckets omitted for
    /// compactness.
    pub(crate) fn write_json(&self, out: &mut Json) {
        out.open(b'{').key("count").value(self.count()).key("sum").value(self.sum());
        out.key("p50").value(self.quantile(0.50)).key("p99").value(self.quantile(0.99));
        out.key("p999").value(self.quantile(0.999)).key("buckets").open(b'{');
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                out.key(&["le_", &(1u64 << i).to_string()].concat()).value(c);
            }
        }
        out.close(b'}').close(b'}');
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// All counters and histograms of one running server.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests per route (indexed by [`Route`]).
    requests: [AtomicU64; 9],
    /// Per-route latency, microseconds (indexed by [`Route`]).
    latency_us: [Histogram; 9],
    /// 4xx responses (bad parameters, unknown routes, …).
    pub client_errors: AtomicU64,
    /// I/O failures while reading/answering a request.
    pub io_errors: AtomicU64,
    /// Connections shed with `503` because the admission queue was full.
    pub queue_rejections: AtomicU64,
    /// Multi-source model evaluations run by the batcher (each one call
    /// to `query_columns`, however many requests it served).
    pub model_evaluations: AtomicU64,
    /// Column requests answered by the batcher (including coalesced and
    /// deduplicated ones).
    pub batched_requests: AtomicU64,
    /// Distribution of deduplicated batch sizes (|Q| per evaluation).
    pub batch_sizes: Histogram,
    /// Column-cache hits.
    pub cache_hits: AtomicU64,
    /// Column-cache misses.
    pub cache_misses: AtomicU64,
    /// Column-cache evictions.
    pub cache_evictions: AtomicU64,
    /// Inserts the TinyLFU admission filter refused.
    pub cache_admission_rejects: AtomicU64,
    /// Connections shed at admission, total (the `shed.total` counter;
    /// tracks `queue_rejections` but lives with the `Retry-After`
    /// advice it is reported next to).
    pub shed_total: AtomicU64,
    /// The `Retry-After` seconds advised on the most recent shed.
    pub shed_last_retry_after_s: AtomicU64,
    /// Requests answered at a truncated rank under pressure.
    pub degraded_requests: AtomicU64,
    /// Distribution of the ranks actually served to degraded requests.
    pub served_rank: Histogram,
    /// Model load → ready-to-serve time in microseconds (0 until
    /// recorded).
    pub cold_start_us: AtomicU64,
    /// 1 when the model was memory-mapped from a v2 artifact, 0 when it
    /// was fully deserialised into owned buffers.
    pub model_mapped: AtomicU64,
    /// 1 when the model stores its factors in f32 (mixed-precision
    /// kernels), 0 for full f64 storage.
    pub model_f32: AtomicU64,
    /// Per-client (peer-address keyed) shed counts — the fairness
    /// ledger behind escalating `Retry-After` advice.
    shed_clients: Mutex<HashMap<String, u64>>,
    /// The currently served model epoch (0 = boot model, ingestion off
    /// or no edits published yet).
    pub ingest_epoch: AtomicU64,
    /// Edge edits applied by the update thread (inserts + deletes that
    /// actually changed the graph).
    pub ingest_updates_applied: AtomicU64,
    /// Model snapshots published by the update thread.
    pub ingest_epochs_published: AtomicU64,
    /// Full re-factorisations (`refresh()`) the update thread ran after
    /// exhausting its incremental-update budget.
    pub ingest_rebuilds: AtomicU64,
    /// Epoch checkpoints written through the store's v2 writer.
    pub ingest_checkpoints: AtomicU64,
}

impl Metrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one served request on `route`.
    pub fn record_request(&self, route: Route, latency: Duration) {
        self.requests[route.index()].fetch_add(1, Ordering::Relaxed);
        self.latency_us[route.index()].observe_duration(latency);
    }

    /// Records the cold-start cost: how long loading the model took,
    /// whether it booted zero-copy off a mapped artifact, and whether its
    /// factors are stored in f32.
    pub fn record_boot(&self, load_time: Duration, mapped: bool, f32_storage: bool) {
        let us = load_time.as_micros().min(u64::MAX as u128) as u64;
        self.cold_start_us.store(us, Ordering::Relaxed);
        self.model_mapped.store(mapped as u64, Ordering::Relaxed);
        self.model_f32.store(f32_storage as u64, Ordering::Relaxed);
    }

    /// Records one shed against `client` (a peer address) and returns
    /// that client's total shed count, including this one.  The caller
    /// uses the count to escalate `Retry-After` advice for repeat
    /// offenders so one hot client cannot starve the rest.
    pub fn record_shed_for_client(&self, client: &str) -> u64 {
        let mut clients = self.shed_clients.lock().expect("shed ledger poisoned");
        let count = clients.entry(client.to_string()).or_insert(0);
        *count += 1;
        *count
    }

    /// Requests served on `route` so far.
    pub fn requests(&self, route: Route) -> u64 {
        self.requests[route.index()].load(Ordering::Relaxed)
    }

    /// Requests served across all routes.
    pub fn total_requests(&self) -> u64 {
        Route::ALL.iter().map(|&r| self.requests(r)).sum()
    }

    /// The counters as one JSON object: request counts, cache and batch
    /// statistics, and per-route latency histograms.
    pub fn render_json(&self) -> String {
        let mut out = Json::object(4096);
        self.write_fields(&mut out);
        out.finish()
    }

    /// Writes the counters' fields into the open `/metrics` object.
    pub(crate) fn write_fields(&self, out: &mut Json) {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        out.key("requests_total").value(self.total_requests()).key("routes").open(b'{');
        for route in Route::ALL {
            out.key(route.name()).open(b'{').key("requests").value(self.requests(route));
            out.key("latency_us");
            self.latency_us[route.index()].write_json(out);
            out.close(b'}');
        }
        out.close(b'}').key("errors").counts(&[
            ("client", load(&self.client_errors)),
            ("io", load(&self.io_errors)),
            ("queue_rejections", load(&self.queue_rejections)),
        ]);
        out.key("batcher").open(b'{');
        out.key("model_evaluations").value(load(&self.model_evaluations));
        out.key("batched_requests").value(load(&self.batched_requests)).key("batch_sizes");
        self.batch_sizes.write_json(out);
        out.close(b'}').key("cache").counts(&[
            ("hits", load(&self.cache_hits)),
            ("misses", load(&self.cache_misses)),
            ("evictions", load(&self.cache_evictions)),
            ("admission_rejects", load(&self.cache_admission_rejects)),
        ]);
        out.key("shed").counts(&[
            ("total", load(&self.shed_total)),
            ("last_retry_after_s", load(&self.shed_last_retry_after_s)),
        ]);
        // The per-client ledger, in sorted (deterministic) key order.
        let ledger = self.shed_clients.lock().expect("shed ledger poisoned");
        let mut clients: Vec<(&String, &u64)> = ledger.iter().collect();
        clients.sort();
        out.key("shed_clients").open(b'{');
        for (client, &count) in clients {
            out.key(client).value(count);
        }
        out.close(b'}').key("degraded").open(b'{');
        out.key("requests").value(load(&self.degraded_requests)).key("served_rank");
        self.served_rank.write_json(out);
        out.close(b'}').key("ingest").counts(&[
            ("epoch", load(&self.ingest_epoch)),
            ("updates_applied", load(&self.ingest_updates_applied)),
            ("epochs_published", load(&self.ingest_epochs_published)),
            ("rebuilds", load(&self.ingest_rebuilds)),
            ("checkpoints", load(&self.ingest_checkpoints)),
        ]);
        out.key("boot").open(b'{').key("cold_start_us").value(load(&self.cold_start_us));
        out.key("model_mapped").value(load(&self.model_mapped)).key("model_precision");
        out.string(if load(&self.model_f32) == 1 { "f32" } else { "f64" }).close(b'}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_power_of_two_boundaries() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 5, 8, 9, 1024, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.count(), 10);
        let json = crate::json::render(|out| h.write_json(out));
        // 0 and 1 land in le_1; 2 in le_2; 3 and 4 in le_4; 5 and 8 in
        // le_8; 9 in le_16; 1024 in le_1024.
        assert!(json.contains("\"le_1\":2"), "{json}");
        assert!(json.contains("\"le_2\":1"), "{json}");
        assert!(json.contains("\"le_4\":2"), "{json}");
        assert!(json.contains("\"le_8\":2"), "{json}");
        assert!(json.contains("\"le_16\":1"), "{json}");
        assert!(json.contains("\"le_1024\":1"), "{json}");
    }

    #[test]
    fn metrics_render_contains_all_sections() {
        let m = Metrics::new();
        m.record_request(Route::TopK, Duration::from_micros(42));
        m.record_request(Route::Health, Duration::from_micros(1));
        m.cache_hits.fetch_add(3, Ordering::Relaxed);
        m.model_evaluations.fetch_add(1, Ordering::Relaxed);
        m.batch_sizes.observe(4);
        let json = m.render_json();
        assert!(json.contains("\"requests_total\":2"), "{json}");
        assert!(json.contains("\"topk\":{\"requests\":1"), "{json}");
        assert!(json.contains("\"model_evaluations\":1"), "{json}");
        assert!(json.contains("\"hits\":3"), "{json}");
        assert!(json.contains("\"batch_sizes\":{\"count\":1"), "{json}");
        assert_eq!(m.requests(Route::TopK), 1);
        assert_eq!(m.total_requests(), 2);
    }

    #[test]
    fn quantiles_land_in_the_observed_octave() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        // 99 fast observations and 1 slow one: p50 in the fast octave,
        // p999 in the slow one.
        for _ in 0..99 {
            h.observe(100);
        }
        h.observe(10_000);
        let p50 = h.quantile(0.50);
        assert!((64..=128).contains(&p50), "p50 = {p50} not in 100's octave");
        let p999 = h.quantile(0.999);
        assert!((8192..=16384).contains(&p999), "p999 = {p999} not in 10000's octave");
        // Quantiles are monotone in q.
        assert!(h.quantile(0.99) >= p50);
        assert!(p999 >= h.quantile(0.99));
    }

    #[test]
    fn quantile_of_uniform_observations_is_exactly_that_value_bucket() {
        let h = Histogram::new();
        for _ in 0..10 {
            h.observe(1000);
        }
        for q in [0.5, 0.9, 0.99, 0.999] {
            let v = h.quantile(q);
            assert!((512..=1024).contains(&v), "q={q}: {v}");
        }
        let json = crate::json::render(|out| h.write_json(out));
        assert!(json.contains("\"p50\":"), "{json}");
        assert!(json.contains("\"p99\":"), "{json}");
        assert!(json.contains("\"p999\":"), "{json}");
    }

    #[test]
    fn shed_and_degraded_sections_render() {
        let m = Metrics::new();
        m.shed_total.fetch_add(5, Ordering::Relaxed);
        m.shed_last_retry_after_s.store(2, Ordering::Relaxed);
        m.degraded_requests.fetch_add(3, Ordering::Relaxed);
        m.served_rank.observe(8);
        let json = m.render_json();
        assert!(json.contains("\"shed\":{\"total\":5,\"last_retry_after_s\":2}"), "{json}");
        assert!(
            json.contains("\"degraded\":{\"requests\":3,\"served_rank\":{\"count\":1"),
            "{json}"
        );
        assert!(json.contains("\"admission_rejects\":0"), "{json}");
    }

    #[test]
    fn per_client_shed_ledger_renders_sorted_and_escalates() {
        let m = Metrics::new();
        assert!(m.render_json().contains("\"shed_clients\":{}"), "empty ledger renders as {{}}");
        assert_eq!(m.record_shed_for_client("10.0.0.2"), 1);
        assert_eq!(m.record_shed_for_client("10.0.0.1"), 1);
        assert_eq!(m.record_shed_for_client("10.0.0.2"), 2);
        assert!(m.render_json().contains("\"shed_clients\":{\"10.0.0.1\":1,\"10.0.0.2\":2}"));
    }

    #[test]
    fn ingest_section_renders() {
        let m = Metrics::new();
        assert!(
            m.render_json().contains(
                "\"ingest\":{\"epoch\":0,\"updates_applied\":0,\"epochs_published\":0,\
                 \"rebuilds\":0,\"checkpoints\":0}"
            ),
            "{}",
            m.render_json()
        );
        m.ingest_epoch.store(3, Ordering::Relaxed);
        m.ingest_updates_applied.fetch_add(17, Ordering::Relaxed);
        m.ingest_epochs_published.fetch_add(3, Ordering::Relaxed);
        let json = m.render_json();
        assert!(json.contains("\"ingest\":{\"epoch\":3,\"updates_applied\":17"), "{json}");
        m.record_request(Route::Edges, Duration::from_micros(10));
        assert!(m.render_json().contains("\"edges\":{\"requests\":1"), "{}", m.render_json());
    }

    #[test]
    fn boot_metrics_render() {
        let m = Metrics::new();
        assert!(m.render_json().contains(
            "\"boot\":{\"cold_start_us\":0,\"model_mapped\":0,\"model_precision\":\"f64\"}"
        ));
        m.record_boot(Duration::from_micros(1234), true, true);
        let json = m.render_json();
        assert!(json.contains("\"cold_start_us\":1234"), "{json}");
        assert!(json.contains("\"model_mapped\":1"), "{json}");
        assert!(json.contains("\"model_precision\":\"f32\""), "{json}");
    }
}
