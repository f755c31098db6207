//! End-to-end test of `csrplus serve`: spawn the binary on an ephemeral
//! port, issue real HTTP requests over TCP, check the JSON bodies.

use csrplus_serve::http;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("csrplus_serve_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name)
}

struct Server {
    child: Child,
    addr: String,
}

impl Drop for Server {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

fn start_server() -> Server {
    // Build a tiny model file first.  Tests run in parallel: each server
    // gets its own files, or one test rewrites the model another loads.
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let id = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let graph = tmp(&format!("serve{id}.txt"));
    let model = tmp(&format!("serve{id}.csrp"));
    std::fs::write(&graph, "0 1\n2 1\n4 1\n0 3\n4 3\n5 3\n3 0\n3 2\n3 5\n2 4\n5 4\n").unwrap();
    let st = Command::new(env!("CARGO_BIN_EXE_csrplus"))
        .args(["precompute", graph.to_str().unwrap(), "--rank", "3", "--out"])
        .arg(&model)
        .status()
        .expect("precompute");
    assert!(st.success());

    let mut child = Command::new(env!("CARGO_BIN_EXE_csrplus"))
        .args(["serve", model.to_str().unwrap(), "--port", "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    // The server prints "listening on http://127.0.0.1:PORT".
    let stdout = child.stdout.take().expect("stdout");
    let mut lines = BufReader::new(stdout).lines();
    let line = lines.next().expect("banner line").expect("read banner");
    let addr = line.trim_start_matches("listening on http://").to_string();
    Server { child, addr }
}

fn get(addr: &str, path: &str) -> (u16, String) {
    http::request(addr, "GET", path, None, Duration::from_secs(30)).expect("request")
}

#[test]
fn serves_all_routes() {
    let server = start_server();

    let (code, body) = get(&server.addr, "/health");
    assert_eq!(code, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(body.contains("\"nodes\":6"));

    let (code, body) = get(&server.addr, "/similarity?a=1&b=3");
    assert_eq!(code, 200);
    assert!(body.contains("\"similarity\":"), "{body}");

    let (code, body) = get(&server.addr, "/topk?node=1&k=3");
    assert_eq!(code, 200);
    assert_eq!(body.matches("\"score\":").count(), 3, "{body}");

    let (code, body) = get(&server.addr, "/query?nodes=1,3");
    assert_eq!(code, 200);
    assert!(body.contains("\"queries\":[1,3]"), "{body}");

    let (code, body) = get(&server.addr, "/similarity?a=99&b=0");
    assert_eq!(code, 400);
    assert!(body.contains("error"), "{body}");

    let (code, _) = get(&server.addr, "/nope");
    assert_eq!(code, 404);
}

#[test]
fn percent_encoding_and_duplicate_params() {
    let server = start_server();

    // `1%2C3` decodes to `1,3`.
    let (code, body) = get(&server.addr, "/query?nodes=1%2C3");
    assert_eq!(code, 200);
    assert!(body.contains("\"queries\":[1,3]"), "{body}");

    // Repeating a parameter is ambiguous → 400, not silently last-wins.
    let (code, body) = get(&server.addr, "/similarity?a=1&a=2&b=3");
    assert_eq!(code, 400);
    assert!(body.contains("duplicate"), "{body}");
}

#[test]
fn metrics_route_reports_counts() {
    let server = start_server();

    let (code, _) = get(&server.addr, "/similarity?a=0&b=1");
    assert_eq!(code, 200);
    let (code, _) = get(&server.addr, "/similarity?a=0&b=1");
    assert_eq!(code, 200);

    let (code, body) = get(&server.addr, "/metrics");
    assert_eq!(code, 200);
    assert!(body.contains("\"requests_total\":2"), "{body}");
    assert!(body.contains("\"similarity\":{\"requests\":2"), "{body}");
    // The repeat of the same query hits the column cache.
    assert!(body.contains("\"hits\":1"), "{body}");
    assert!(body.contains("\"model_evaluations\":1"), "{body}");
    assert!(body.contains("\"latency_us\""), "{body}");
}
