//! The shard wire protocol: lossless f64 encoding and a minimal
//! blocking HTTP client, shared by the coordinator and the shard-mode
//! server.
//!
//! Scores cross the wire as **bit-exact hex** (16 lowercase hex digits
//! of `f64::to_bits` per value, concatenated) rather than decimal: the
//! coordinator's merged answers must be byte-identical to a
//! single-process server's, and decimal round-trips are where that
//! guarantee would quietly die.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Encodes a slice of f64 as concatenated 16-digit hex bit patterns.
pub fn encode_f64s(values: &[f64]) -> String {
    let mut out = Vec::with_capacity(values.len() * 16);
    for &v in values {
        encode_f64_into(v, &mut out);
    }
    String::from_utf8(out).expect("hex digits are ASCII")
}

/// Appends one f64 as 16 hex digits.
pub fn encode_f64_into(v: f64, out: &mut Vec<u8>) {
    let _ = write!(out, "{:016x}", v.to_bits());
}

/// Decodes a string produced by [`encode_f64s`].
pub fn decode_f64s(hex: &str) -> Result<Vec<f64>, String> {
    if !hex.len().is_multiple_of(16) {
        return Err(format!("hex payload length {} is not a multiple of 16", hex.len()));
    }
    hex.as_bytes()
        .chunks(16)
        .map(|c| {
            let s = std::str::from_utf8(c).map_err(|_| "non-ASCII hex payload".to_string())?;
            u64::from_str_radix(s, 16)
                .map(f64::from_bits)
                .map_err(|_| format!("invalid hex value {s:?}"))
        })
        .collect()
}

/// Decodes a single 16-digit hex f64.
pub fn decode_f64(hex: &str) -> Result<f64, String> {
    let values = decode_f64s(hex)?;
    match values.as_slice() {
        &[v] => Ok(v),
        _ => Err(format!("expected one value, got {}", values.len())),
    }
}

/// One blocking `GET` against `addr` (a `host:port` string), honouring
/// `timeout` for connect, the socket reads/writes, and nothing else.
/// Returns `(status, body)`.
pub fn get(addr: &str, path: &str, timeout: Duration) -> Result<(u16, String), String> {
    let sock = addr
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve shard address {addr:?}: {e}"))?
        .next()
        .ok_or_else(|| format!("shard address {addr:?} resolves to nothing"))?;
    let mut stream = TcpStream::connect_timeout(&sock, timeout)
        .map_err(|e| format!("connect to {addr}: {e}"))?;
    let _ = stream.set_nodelay(true); // scatter legs are latency-critical
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    // One write_all of a prebuilt request: `write!` issues one syscall
    // per fragment, and Nagle-free segments would hit the shard split.
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes()).map_err(|e| format!("write to {addr}: {e}"))?;
    let mut response = String::new();
    stream.read_to_string(&mut response).map_err(|e| format!("read from {addr}: {e}"))?;
    let code: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("malformed response from {addr}"))?;
    let body = response.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
    Ok((code, body))
}

/// One blocking `POST` with a body — how clients (and the load
/// generator) feed `POST /edges`.  Same socket discipline as [`get`];
/// returns `(status, body)`.
pub fn post(
    addr: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> Result<(u16, String), String> {
    let sock = addr
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve address {addr:?}: {e}"))?
        .next()
        .ok_or_else(|| format!("address {addr:?} resolves to nothing"))?;
    let mut stream = TcpStream::connect_timeout(&sock, timeout)
        .map_err(|e| format!("connect to {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).map_err(|e| format!("write to {addr}: {e}"))?;
    let mut response = String::new();
    stream.read_to_string(&mut response).map_err(|e| format!("read from {addr}: {e}"))?;
    let code: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("malformed response from {addr}"))?;
    let body = response.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
    Ok((code, body))
}

/// Pulls the integer value of `"key":<digits>` out of a flat JSON body
/// (the coordinator's parsing needs exactly this much JSON and no more).
pub fn json_usize(body: &str, key: &str) -> Result<usize, String> {
    let pat = format!("\"{key}\":");
    let at = body.find(&pat).ok_or_else(|| format!("missing {key:?} in {body:?}"))?;
    let rest = &body[at + pat.len()..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().map_err(|_| format!("bad {key:?} in {body:?}"))
}

/// Pulls every `"<hex>"` string out of the JSON array following
/// `"key":[`.
pub fn json_string_array(body: &str, key: &str) -> Result<Vec<String>, String> {
    let pat = format!("\"{key}\":[");
    let at = body.find(&pat).ok_or_else(|| format!("missing {key:?} in {body:?}"))?;
    let rest = &body[at + pat.len()..];
    let end = rest.find(']').ok_or_else(|| format!("unterminated {key:?} array"))?;
    Ok(rest[..end]
        .split(',')
        .filter_map(|s| s.trim().strip_prefix('"').and_then(|s| s.strip_suffix('"')))
        .map(str::to_string)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip_is_bit_exact() {
        let values =
            [0.0, -0.0, 1.0, -1.5, f64::MIN_POSITIVE, 1e308, f64::INFINITY, 0.1 + 0.2, f64::NAN];
        let decoded = decode_f64s(&encode_f64s(&values)).unwrap();
        for (a, b) in values.iter().zip(&decoded) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(decode_f64(&encode_f64s(&[0.25])).unwrap(), 0.25);
    }

    #[test]
    fn malformed_hex_rejected() {
        assert!(decode_f64s("abc").is_err());
        assert!(decode_f64s("zzzzzzzzzzzzzzzz").is_err());
        assert!(decode_f64("3ff00000000000003ff0000000000000").is_err());
    }

    #[test]
    fn json_scalar_and_array_extraction() {
        let body = "{\"lo\":5,\"hi\":12,\"cols\":[\"aa\",\"bb\"]}";
        assert_eq!(json_usize(body, "lo").unwrap(), 5);
        assert_eq!(json_usize(body, "hi").unwrap(), 12);
        assert_eq!(json_string_array(body, "cols").unwrap(), vec!["aa", "bb"]);
        assert!(json_usize(body, "absent").is_err());
        assert_eq!(json_string_array("{\"cols\":[]}", "cols").unwrap(), Vec::<String>::new());
    }
}
