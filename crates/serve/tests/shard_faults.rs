//! Faults at shards: a coordinator whose shard truncates a body, sends
//! an unparsable `Content-Length`, closes mid-head or sends malformed hex
//! must answer every public query route with a `502` and an error body —
//! never a merge of whatever bytes did arrive.

use csrplus_core::{CsrPlusConfig, CsrPlusModel};
use csrplus_graph::{generators::figure1_graph, TransitionMatrix};
use csrplus_serve::json::{self, Value};
use csrplus_serve::{http, ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::time::Duration;

fn model() -> CsrPlusModel {
    let t = TransitionMatrix::from_graph(&figure1_graph());
    CsrPlusModel::precompute(&t, &CsrPlusConfig::with_rank(3)).unwrap()
}

#[derive(Debug, Clone, Copy)]
enum Fault {
    /// Declares ten bytes more than it sends, then closes.
    Truncate,
    /// Sends a `Content-Length` that is not a number.
    BadLength,
    /// Closes in the middle of the header block.
    CloseMidHead,
    /// A well-framed body whose scores are not hex.
    BadHex,
}

/// A one-shard stand-in that announces rows `0..n` correctly at
/// discovery and answers every other request with `fault`.  Its answer
/// carries both `"cols"` and `"results"`, so it fits `/shard/columns`
/// and `/shard/topk` alike.
fn faulty_shard(fault: Fault, n: usize) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            let mut reader = BufReader::new(&stream);
            let mut request_line = String::new();
            let _ = reader.read_line(&mut request_line);
            let mut line = String::new();
            while reader.read_line(&mut line).is_ok_and(|read| read > 0) && line != "\r\n" {
                line.clear();
            }
            let bad = "z".repeat(16);
            let response = if request_line.starts_with("GET /shard/range") {
                let body = format!("{{\"lo\":0,\"hi\":{n},\"n\":{n}}}");
                format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}", body.len())
            } else {
                let body = format!(
                    "{{\"lo\":0,\"hi\":{n},\"queries\":[1],\"cols\":[\"{}\"],\"node\":1,\
                     \"results\":[\"3:{bad}\"]}}",
                    bad.repeat(n)
                );
                match fault {
                    Fault::Truncate => format!(
                        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}",
                        body.len() + 10
                    ),
                    Fault::BadLength => {
                        format!("HTTP/1.1 200 OK\r\nContent-Length: 12abc\r\n\r\n{body}")
                    }
                    Fault::CloseMidHead => "HTTP/1.1 200 OK\r\nContent-Le".to_string(),
                    Fault::BadHex => {
                        format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}", body.len())
                    }
                }
            };
            let _ = stream.write_all(response.as_bytes());
        }
    });
    addr
}

#[test]
fn every_fault_is_a_502_with_no_merged_body() {
    let n = model().n();
    for fault in [Fault::Truncate, Fault::BadLength, Fault::CloseMidHead, Fault::BadHex] {
        let config = ServeConfig {
            shards: vec![faulty_shard(fault, n)],
            cache_capacity: 0,
            hedge: Duration::ZERO,
            ..ServeConfig::default()
        };
        let coordinator = Server::start(model(), 0, config).unwrap();
        let addr = coordinator.addr().to_string();
        for path in ["/topk?node=1&k=3", "/query?nodes=1%2C3", "/similarity?a=1&b=3"] {
            let (code, body) = http::request(&addr, "GET", path, None, Duration::from_secs(30))
                .unwrap_or_else(|e| panic!("{fault:?} {path}: {e}"));
            assert_eq!(code, 502, "{fault:?} {path}: {body}");
            let body = json::parse(&body).unwrap();
            let Value::Object(fields) = &body else { panic!("{fault:?} {path}: {body}") };
            assert_eq!(fields.len(), 1, "{fault:?} {path}: {body}");
            assert!(body.get("error").and_then(Value::as_str).is_some(), "{fault:?} {path}");
        }
        coordinator.shutdown();
    }
}
