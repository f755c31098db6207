//! The open-loop driver: replays a [`Plan`] against a running server.
//!
//! A pool of worker threads shares one atomic cursor over the
//! pre-generated request list.  Each worker claims the next request,
//! sleeps until its scheduled arrival time, fires it, and records the
//! latency **from the scheduled arrival** — so time a request spent
//! waiting for a free worker or a slow server counts against the
//! server, not silently against nobody (coordinated omission).

use crate::report::PhaseReport;
use crate::workload::Plan;
use csrplus_serve::http;
use csrplus_serve::json::{self, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Aggregated cache counters scraped from the server's `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Cache hits summed over every shard.
    pub hits: u64,
    /// Cache misses summed over every shard.
    pub misses: u64,
}

impl CacheCounters {
    /// Hit rate of the traffic between `before` and `self`, if any
    /// lookups happened in between.
    pub fn hit_rate_since(&self, before: CacheCounters) -> Option<f64> {
        let hits = self.hits.saturating_sub(before.hits);
        let misses = self.misses.saturating_sub(before.misses);
        let total = hits + misses;
        (total > 0).then(|| hits as f64 / total as f64)
    }
}

/// Scrapes `GET /metrics` and sums the per-shard cache counters.
/// Returns `None` when the server is unreachable or exposes no
/// `cache_shards` section.
pub fn scrape_cache_counters(addr: &str) -> Option<CacheCounters> {
    let timeout = Duration::from_secs(2);
    let Ok((200, body)) = http::request(addr, "GET", "/metrics", None, timeout) else {
        return None;
    };
    let metrics = json::parse(&body).ok()?;
    let mut counters = CacheCounters::default();
    for shard in metrics.get("cache_shards")?.as_array()? {
        counters.hits += shard.get("hits").and_then(Value::as_u64)?;
        counters.misses += shard.get("misses").and_then(Value::as_u64)?;
    }
    Some(counters)
}

/// Per-worker tallies, merged after the phase.
#[derive(Default)]
struct WorkerTally {
    ok: u64,
    shed: u64,
    errors: u64,
    degraded: u64,
    updates: u64,
    latencies_us: Vec<u64>,
}

/// Replays `plan` against `addr` with `connections` concurrent workers
/// and a per-request `timeout`, scraping the server's cache counters
/// before and after to report the phase's cache hit rate.
///
/// Open-loop semantics: every request in the plan is sent, at (or as
/// soon as possible after) its scheduled time, regardless of how the
/// server is coping.  Latency is measured from the *scheduled* time.
pub fn run_phase(
    addr: &str,
    plan: &Plan,
    label: &str,
    connections: usize,
    timeout: Duration,
) -> PhaseReport {
    let before = scrape_cache_counters(addr);
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    let connections = connections.max(1);
    let tallies: Vec<WorkerTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|_| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut tally = WorkerTally::default();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(request) = plan.requests.get(i) else { break };
                        let scheduled = start + Duration::from_secs_f64(request.at_s);
                        let now = Instant::now();
                        if scheduled > now {
                            std::thread::sleep(scheduled - now);
                        }
                        let (path, body) = (&request.path, request.body.as_deref());
                        let method = if body.is_some() { "POST" } else { "GET" };
                        match http::request(addr, method, path, body, timeout) {
                            Ok((200, body)) => {
                                tally.ok += 1;
                                if request.body.is_some() {
                                    tally.updates += 1;
                                }
                                if body.contains("\"served_rank\":") {
                                    tally.degraded += 1;
                                }
                                let us =
                                    Instant::now().saturating_duration_since(scheduled).as_micros();
                                tally.latencies_us.push(us.min(u128::from(u64::MAX)) as u64);
                            }
                            Ok((503, _)) => tally.shed += 1,
                            _ => tally.errors += 1,
                        }
                    }
                    tally
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("loadgen worker panicked")).collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let after = scrape_cache_counters(addr);
    let mut merged = WorkerTally::default();
    for tally in tallies {
        merged.ok += tally.ok;
        merged.shed += tally.shed;
        merged.errors += tally.errors;
        merged.degraded += tally.degraded;
        merged.updates += tally.updates;
        merged.latencies_us.extend(tally.latencies_us);
    }
    PhaseReport {
        label: label.to_string(),
        offered_rps: plan.offered_rps,
        duration_s: plan.duration_s,
        elapsed_s,
        sent: plan.requests.len() as u64,
        ok: merged.ok,
        shed: merged.shed,
        errors: merged.errors,
        degraded: merged.degraded,
        updates: merged.updates,
        latencies_us: merged.latencies_us,
        cache_hit_rate: match (before, after) {
            (Some(b), Some(a)) => a.hit_rate_since(b),
            _ => None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Request;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// A canned one-request-per-connection HTTP server for driver tests.
    fn fake_server() -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let handle = std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { break };
                let mut raw = Vec::new();
                let mut buf = [0u8; 1024];
                // Read until the end of the request head; requests may
                // arrive split across segments.
                while !raw.windows(4).any(|w| w == b"\r\n\r\n") {
                    match stream.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => raw.extend_from_slice(&buf[..n]),
                    }
                }
                let request = String::from_utf8_lossy(&raw);
                let path = request.split_whitespace().nth(1).unwrap_or("/").to_string();
                let (status, body) = if path == "/stop" {
                    let _ = stream.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n");
                    break;
                } else if path == "/metrics" {
                    (
                        "200 OK",
                        "{\"cache_shards\":[{\"hits\":3,\"misses\":1,\"evictions\":0,\
                         \"admission_rejects\":0},{\"hits\":2,\"misses\":4,\"evictions\":1,\
                         \"admission_rejects\":0}]}"
                            .to_string(),
                    )
                } else if path == "/edges" {
                    ("200 OK", "{\"applied\":1,\"ignored\":0,\"epoch\":1}".to_string())
                } else if path.contains("degraded=allow") {
                    ("200 OK", "{\"node\":1,\"served_rank\":2}".to_string())
                } else if path.contains("shed") {
                    ("503 Service Unavailable", "{\"error\":\"admission queue full\"}".to_string())
                } else {
                    ("200 OK", "{\"node\":1}".to_string())
                };
                let _ = write!(
                    stream,
                    "HTTP/1.1 {status}\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                );
            }
        });
        (addr, handle)
    }

    #[test]
    fn scrape_sums_counters_across_shards() {
        let (addr, handle) = fake_server();
        let counters = scrape_cache_counters(&addr).expect("scrape");
        assert_eq!(counters, CacheCounters { hits: 5, misses: 5 });
        assert_eq!(
            counters.hit_rate_since(CacheCounters { hits: 1, misses: 1 }),
            Some(0.5),
            "deltas: 4 hits / 8 lookups"
        );
        assert_eq!(counters.hit_rate_since(counters), None, "no traffic, no rate");
        let _ = http::request(&addr, "GET", "/stop", None, Duration::from_secs(1));
        handle.join().expect("server thread");
    }

    #[test]
    fn run_phase_classifies_and_measures_from_schedule() {
        let (addr, handle) = fake_server();
        let requests = vec![
            Request { at_s: 0.0, path: "/query?nodes=1".to_string(), body: None },
            Request { at_s: 0.01, path: "/query?nodes=2&degraded=allow".to_string(), body: None },
            Request { at_s: 0.02, path: "/shed".to_string(), body: None },
            Request { at_s: 0.03, path: "/query?nodes=3".to_string(), body: None },
            Request {
                at_s: 0.04,
                path: "/edges".to_string(),
                body: Some("{\"op\":\"insert\",\"x\":1,\"y\":4}".to_string()),
            },
        ];
        let plan = Plan { requests, offered_rps: 100.0, duration_s: 0.05 };
        let report = run_phase(&addr, &plan, "fake", 2, Duration::from_secs(2));
        assert_eq!(report.sent, 5, "{report:?}");
        assert_eq!(report.ok, 4, "{report:?}");
        assert_eq!(report.shed, 1, "{report:?}");
        assert_eq!(report.errors, 0, "{report:?}");
        assert_eq!(report.degraded, 1, "{report:?}");
        assert_eq!(report.updates, 1, "{report:?}");
        assert_eq!(report.latencies_us.len(), 4, "{report:?}");
        assert_eq!(report.cache_hit_rate, None, "fake counters do not move");
        let _ = http::request(&addr, "GET", "/stop", None, Duration::from_secs(1));
        handle.join().expect("server thread");
    }

    #[test]
    fn unreachable_servers_count_as_errors_not_panics() {
        let plan = Plan {
            requests: vec![Request { at_s: 0.0, path: "/query?nodes=1".to_string(), body: None }],
            offered_rps: 1.0,
            duration_s: 0.01,
        };
        // Reserved port with no listener: connections are refused.
        let report = run_phase("127.0.0.1:1", &plan, "down", 1, Duration::from_millis(200));
        assert_eq!(report.errors, 1);
        assert_eq!(report.ok, 0);
        assert!(report.cache_hit_rate.is_none());
    }
}
