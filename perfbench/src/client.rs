//! A closed-loop HTTP/1.1 client that times each request's phases.
//!
//! The server answers every request with `Connection: close`, so one
//! request is one connection: connect, write the request, read to EOF.
//! The client timestamps the connect, the first response byte and the
//! last one, and keeps only the status, the body length and a hash of
//! the body — enough to compare a reply byte for byte with a reference
//! without holding multi-megabyte bodies.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A 64-bit hash of `bytes` that mixes eight bytes per step, so hashing
/// a 12 MB `/query` body takes a few milliseconds of the client's core,
/// not tens.  It detects differences; it is not meant to resist them.
pub fn body_hash(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mix = |h: u64, word: u64| {
        let h = (h ^ word).wrapping_mul(K);
        h ^ (h >> 29)
    };
    let mut chunks = bytes.chunks_exact(8);
    let mut h = mix(0x243f_6a88_85a3_08d3, bytes.len() as u64);
    for chunk in &mut chunks {
        h = mix(h, u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    mix(mix(h, u64::from_le_bytes(tail)), K)
}

/// One completed exchange.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    /// HTTP status code (0 when the status line was unreadable).
    pub status: u16,
    /// Body bytes received.
    pub body_len: usize,
    /// [`body_hash`] of the body.
    pub body_hash: u64,
    /// When the request began (before connect).
    pub start: Instant,
    /// When the connection was established.
    pub connected: Instant,
    /// When the first response byte arrived.
    pub first_byte: Instant,
    /// When the last response byte arrived.
    pub end: Instant,
}

impl Reply {
    /// Client-observed latency, connect to last byte, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// A client with a reusable receive buffer.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    buf: Vec<u8>,
}

impl Client {
    /// A client for the server at `addr`.
    pub fn new(addr: SocketAddr, timeout: Duration) -> Self {
        Client { addr, timeout, buf: Vec::new() }
    }

    /// `GET target`.
    pub fn get(&mut self, target: &str) -> std::io::Result<Reply> {
        let request = format!("GET {target} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n");
        self.exchange(request.as_bytes())
    }

    /// `POST target` with a body.
    pub fn post(&mut self, target: &str, body: &str) -> std::io::Result<Reply> {
        let request = format!(
            "POST {target} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.exchange(request.as_bytes())
    }

    /// The body of the last reply.
    pub fn last_body(&self) -> &[u8] {
        let split = header_end(&self.buf).unwrap_or(self.buf.len());
        &self.buf[split..]
    }

    fn exchange(&mut self, request: &[u8]) -> std::io::Result<Reply> {
        let start = Instant::now();
        let mut stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
        let connected = Instant::now();
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        stream.write_all(request)?;
        self.buf.clear();
        let mut chunk = [0u8; 64 * 1024];
        let mut first_byte = None;
        loop {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                break;
            }
            first_byte.get_or_insert_with(Instant::now);
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let end = Instant::now();
        let first_byte = first_byte.unwrap_or(end);
        let status = parse_status(&self.buf);
        let body = self.last_body();
        Ok(Reply {
            status,
            body_len: body.len(),
            body_hash: body_hash(body),
            start,
            connected,
            first_byte,
            end,
        })
    }
}

fn header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

fn parse_status(buf: &[u8]) -> u16 {
    let line_end = buf.iter().position(|&b| b == b'\r').unwrap_or(buf.len());
    std::str::from_utf8(&buf[..line_end])
        .ok()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_and_body_split() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}";
        assert_eq!(parse_status(raw), 200);
        assert_eq!(&raw[header_end(raw).unwrap()..], b"{}");
        assert_eq!(parse_status(b"garbage"), 0);
        assert_ne!(body_hash(b"a"), body_hash(b"b"));
        assert_ne!(body_hash(b""), body_hash(b"\0"));
        assert_ne!(body_hash(b"12345678a"), body_hash(b"12345678b"));
        assert_eq!(body_hash(b"same bytes"), body_hash(b"same bytes"));
    }
}
