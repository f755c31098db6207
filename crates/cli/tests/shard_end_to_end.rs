//! End-to-end test of the scatter-gather deployment: `csrplus shard`
//! processes serving row slices of one reordered artifact behind a
//! `csrplus serve --shards` coordinator, answering byte-for-byte what a
//! single-process server answers.  Also pins down that `--reorder` is
//! deterministic across runs and thread counts (bit-identical artifacts).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("csrplus_shard_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name)
}

/// Builds a reordered model file and returns its path.
fn build_model(reorder: &str, model_name: &str, threads: &str) -> PathBuf {
    // One graph file per model: tests run in parallel, and a shared one
    // can be read while another test rewrites it.
    let graph = tmp(&format!("{model_name}.txt"));
    let model = tmp(model_name);
    std::fs::write(&graph, "0 1\n2 1\n4 1\n0 3\n4 3\n5 3\n3 0\n3 2\n3 5\n2 4\n5 4\n").unwrap();
    let st = Command::new(env!("CARGO_BIN_EXE_csrplus"))
        .args([
            "precompute",
            graph.to_str().unwrap(),
            "--rank",
            "3",
            "--reorder",
            reorder,
            "--threads",
            threads,
            "--out",
        ])
        .arg(&model)
        .status()
        .expect("precompute");
    assert!(st.success());
    model
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

/// Spawns `csrplus <args…> --port 0` and parses the banner for the
/// bound address.
fn spawn(args: &[&str]) -> Server {
    let mut child = Command::new(env!("CARGO_BIN_EXE_csrplus"))
        .args(args)
        .args(["--port", "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn csrplus");
    let stdout = child.stdout.take().expect("stdout");
    let mut lines = BufReader::new(stdout).lines();
    let line = lines.next().expect("banner line").expect("read banner");
    let addr = line.trim_start_matches("listening on http://").to_string();
    Server { child, addr }
}

fn get(addr: &str, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let status: u16 =
        response.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status code");
    let body = response.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
    (status, body)
}

#[test]
fn two_shard_deployment_matches_single_process() {
    let model = build_model("rcm", "shard.csrp", "2");
    let model = model.to_str().unwrap();

    // Two shards over the 6-row internal space, a coordinator over both,
    // and a plain single-process server as the reference answer.
    let shard_a = spawn(&["shard", model, "--rows", "0:3"]);
    let shard_b = spawn(&["shard", model, "--rows", "3:6"]);
    let shards = format!("{},{}", shard_a.addr, shard_b.addr);
    let coordinator = spawn(&["serve", model, "--shards", &shards]);
    let single = spawn(&["serve", model]);

    // Every public route answers byte-for-byte what one process answers,
    // multi-source queries included.
    for path in [
        "/health",
        "/similarity?a=1&b=3",
        "/similarity?a=0&b=5",
        "/topk?node=1&k=3",
        "/topk?node=4&k=100",
        "/query?nodes=1,3,5",
        "/query?nodes=0",
        "/similarity?a=99&b=0",
    ] {
        let (code_c, body_c) = get(&coordinator.addr, path);
        let (code_s, body_s) = get(&single.addr, path);
        assert_eq!(code_c, code_s, "{path}");
        assert_eq!(body_c, body_s, "{path}");
    }

    // Role separation: shards refuse public queries, the coordinator
    // refuses shard internals.
    let (code, body) = get(&shard_a.addr, "/topk?node=1&k=3");
    assert_eq!(code, 400);
    assert!(body.contains("coordinator"), "{body}");
    let (code, _) = get(&coordinator.addr, "/shard/range");
    assert_eq!(code, 400);

    // The coordinator's metrics expose the scatter-gather counters.
    let (code, body) = get(&coordinator.addr, "/metrics");
    assert_eq!(code, 200);
    assert!(body.contains("\"coordinator\":"), "{body}");
    assert!(body.contains("\"scatter_requests\":"), "{body}");
    assert!(body.contains("\"shard_latency_us\":"), "{body}");
}

#[test]
fn shard_rejects_rows_outside_the_model() {
    let model = build_model("identity", "bounds.csrp", "1");
    let out = Command::new(env!("CARGO_BIN_EXE_csrplus"))
        .args(["shard", model.to_str().unwrap(), "--rows", "0:7", "--port", "0"])
        .output()
        .expect("run shard");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("exceeds"), "{stderr}");
}

#[test]
fn reordered_precompute_is_deterministic_across_thread_counts() {
    // Same graph, same --reorder rcm, different thread caps and runs:
    // the artifacts must be bit-identical (orderings are deterministic
    // functions of the graph, and precompute is reduction-order stable).
    let a = build_model("rcm", "det_t1_run1.csrp", "1");
    let b = build_model("rcm", "det_t1_run2.csrp", "1");
    let c = build_model("rcm", "det_t4.csrp", "4");
    let bytes_a = std::fs::read(&a).unwrap();
    assert_eq!(bytes_a, std::fs::read(&b).unwrap(), "same-thread reruns must be bit-identical");
    assert_eq!(bytes_a, std::fs::read(&c).unwrap(), "thread count must not change the artifact");

    // And the inspector reports the persisted ordering.
    let out = Command::new(env!("CARGO_BIN_EXE_csrplus"))
        .args(["inspect", a.to_str().unwrap(), "--verify"])
        .output()
        .expect("inspect");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("perm"), "{stdout}");
    assert!(stdout.contains("rcm ordering"), "{stdout}");
    assert!(stdout.contains("checksums OK"), "{stdout}");
}
