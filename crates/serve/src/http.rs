//! Minimal std-only HTTP/1.1 plumbing for the server, its shard wire
//! protocol and its tests: request-line reading, query-string parsing
//! with percent-decoding and duplicate-parameter rejection, and response
//! writing.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};

/// A parsed `GET` request target: path plus decoded query parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Target {
    /// The path component (before `?`).
    pub path: String,
    /// Decoded `key=value` pairs, in order of appearance.
    pub params: Vec<(String, String)>,
}

impl Target {
    /// The value of parameter `key`, or a `400` error if absent.
    pub fn require(&self, key: &str) -> Result<&str, (u16, String)> {
        self.get(key).ok_or_else(|| (400, format!("missing parameter {key:?}")))
    }

    /// The value of parameter `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.params.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// Parses a request line like `GET /topk?node=1&k=5 HTTP/1.1` into a
/// [`Target`], enforcing `GET`, decoding `%XX` escapes (and `+` as
/// space), and rejecting duplicate parameters with a clear message.
pub fn parse_request_line(request_line: &str) -> Result<Target, (u16, String)> {
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    if method != "GET" {
        return Err((400, format!("unsupported method {method:?}")));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let params = parse_query(query)?;
    Ok(Target { path: path.to_string(), params })
}

/// Parses and percent-decodes a query string.  Pairs without `=` are
/// ignored (matching the original server); duplicate keys are a `400`
/// (silently taking the first is how inconsistent clients hide bugs).
pub fn parse_query(query: &str) -> Result<Vec<(String, String)>, (u16, String)> {
    let mut params: Vec<(String, String)> = Vec::new();
    for pair in query.split('&') {
        let Some((k, v)) = pair.split_once('=') else { continue };
        let k = percent_decode(k).map_err(|e| (400, format!("bad parameter name: {e}")))?;
        let v = percent_decode(v).map_err(|e| (400, format!("bad value for {k:?}: {e}")))?;
        if params.iter().any(|(seen, _)| *seen == k) {
            return Err((400, format!("duplicate parameter {k:?}")));
        }
        params.push((k, v));
    }
    Ok(params)
}

/// Decodes `%XX` escapes and `+`-as-space.  Errors on truncated or
/// non-hex escapes and on non-UTF-8 decoded bytes.
pub fn percent_decode(s: &str) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex =
                    bytes.get(i + 1..i + 3).ok_or_else(|| format!("truncated escape in {s:?}"))?;
                let hi = hex_value(hex[0]).ok_or_else(|| format!("invalid escape in {s:?}"))?;
                let lo = hex_value(hex[1]).ok_or_else(|| format!("invalid escape in {s:?}"))?;
                out.push(hi * 16 + lo);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| format!("escape decodes to invalid UTF-8 in {s:?}"))
}

fn hex_value(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Reads the request line and drains the headers (GET only, no bodies).
pub fn read_request<R: Read>(stream: R) -> std::io::Result<String> {
    Ok(read_request_with_body(stream)?.line)
}

/// A raw request as read off the wire: the request line plus the body
/// (empty unless the client sent `Content-Length`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawRequest {
    /// The request line, e.g. `POST /edges HTTP/1.1\r\n`.
    pub line: String,
    /// The request body (bounded by [`MAX_BODY_BYTES`]).
    pub body: String,
}

/// Bodies past this size are refused at the read layer (ingestion
/// batches are expected to be a few thousand small JSON lines, not
/// bulk uploads).
pub const MAX_BODY_BYTES: usize = 4 << 20;

/// Reads the request line, the headers (capturing `Content-Length`) and
/// the body.  GET requests without a body return an empty body — this
/// is a strict superset of [`read_request`].
pub fn read_request_with_body<R: Read>(stream: R) -> std::io::Result<RawRequest> {
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    let mut content_length = 0usize;
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line)?;
        if n == 0 || line == "\r\n" || line == "\n" {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                // A length we cannot read would leave the body unread and
                // frame it as the next request: refuse, like an oversize one.
                content_length = value.trim().parse().map_err(|_| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("unparsable Content-Length {:?}", value.trim()),
                    )
                })?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("request body of {content_length} bytes exceeds {MAX_BODY_BYTES}"),
        ));
    }
    let mut body_bytes = vec![0u8; content_length];
    if content_length > 0 {
        reader.read_exact(&mut body_bytes)?;
    }
    let body = String::from_utf8(body_bytes).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "request body is not UTF-8")
    })?;
    Ok(RawRequest { line: request_line, body })
}

/// Parses a request line like [`parse_request_line`] but accepts the
/// listed methods, returning `(method, target)`.  The server uses this
/// to admit `POST /edges`; all query routes stay strictly `GET`.
pub fn parse_request_line_methods(
    request_line: &str,
    methods: &[&str],
) -> Result<(String, Target), (u16, String)> {
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    if !methods.contains(&method) {
        return Err((400, format!("unsupported method {method:?}")));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let params = parse_query(query)?;
    Ok((method.to_string(), Target { path: path.to_string(), params }))
}

/// The standard reason phrase for the status codes this crate emits.
pub fn reason(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Bodies up to this size are sent in the same `write_all` as the
/// header, so a small reply (every `/topk`) is one segment under
/// `TCP_NODELAY`; larger ones go out as header then body, uncopied.
const COALESCE_BODY_BYTES: usize = 16 << 10;

/// Writes a complete `Connection: close` HTTP/1.1 response.
pub fn write_response<W: Write>(stream: W, code: u16, body: &str) -> std::io::Result<()> {
    write_with_header(stream, code, "", body)
}

/// Writes the status line, the fixed headers plus `extra` (complete
/// `Name: value\r\n` lines), and `body`.  The header is prebuilt:
/// `write!` would issue a syscall per format fragment, scattering one
/// response across many segments.
fn write_with_header<W: Write>(
    mut stream: W,
    code: u16,
    extra: &str,
    body: &str,
) -> std::io::Result<()> {
    let coalesce = body.len() <= COALESCE_BODY_BYTES;
    let mut head = String::with_capacity(128 + extra.len() + if coalesce { body.len() } else { 0 });
    let _ = write!(
        head,
        "HTTP/1.1 {code} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{extra}Connection: close\r\n\r\n",
        reason(code),
        body.len()
    );
    if coalesce {
        head.push_str(body);
        stream.write_all(head.as_bytes())?;
    } else {
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
    }
    stream.flush()
}

/// Writes the JSON error body for a `(code, message)` routing error.
pub fn write_error<W: Write>(stream: W, code: u16, msg: &str) -> std::io::Result<()> {
    let body = format!("{{\"error\":{}}}", json_string(msg));
    write_response(stream, code, &body)
}

/// [`write_error`] with a `Retry-After: <seconds>` header — the shed
/// path's backpressure advice to well-behaved clients.
pub fn write_error_retry_after<W: Write>(
    stream: W,
    code: u16,
    msg: &str,
    retry_after_s: u64,
) -> std::io::Result<()> {
    let body = format!("{{\"error\":{}}}", json_string(msg));
    write_with_header(stream, code, &format!("Retry-After: {retry_after_s}\r\n"), &body)
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_path_and_params() {
        let t = parse_request_line("GET /topk?node=1&k=5 HTTP/1.1").unwrap();
        assert_eq!(t.path, "/topk");
        assert_eq!(t.require("node").unwrap(), "1");
        assert_eq!(t.get("k"), Some("5"));
        assert_eq!(t.get("absent"), None);
        assert_eq!(t.require("absent").unwrap_err().0, 400);
    }

    #[test]
    fn rejects_non_get() {
        assert_eq!(parse_request_line("POST /health HTTP/1.1").unwrap_err().0, 400);
    }

    #[test]
    fn percent_decoding_round_trips() {
        assert_eq!(percent_decode("1%2C3").unwrap(), "1,3");
        assert_eq!(percent_decode("a+b%20c").unwrap(), "a b c");
        assert_eq!(percent_decode("plain").unwrap(), "plain");
        assert!(percent_decode("%2").unwrap_err().contains("truncated"));
        assert!(percent_decode("%zz").unwrap_err().contains("invalid"));
        assert!(percent_decode("%ff").unwrap_err().contains("UTF-8"));
    }

    #[test]
    fn encoded_query_decodes_in_place() {
        let t = parse_request_line("GET /query?nodes=1%2C3 HTTP/1.1").unwrap();
        assert_eq!(t.get("nodes"), Some("1,3"));
    }

    #[test]
    fn duplicate_parameters_rejected() {
        let err = parse_query("a=1&a=2").unwrap_err();
        assert_eq!(err.0, 400);
        assert!(err.1.contains("duplicate parameter"), "{}", err.1);
        // Distinct keys are fine; pairs without `=` are skipped.
        assert_eq!(
            parse_query("a=1&novalue&b=2").unwrap(),
            vec![("a".into(), "1".into()), ("b".into(), "2".into())]
        );
        assert_eq!(parse_query("").unwrap(), Vec::<(String, String)>::new());
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_string("back\\slash"), "\"back\\\\slash\"");
        assert_eq!(json_string("tab\there"), "\"tab\\u0009here\"");
    }

    #[test]
    fn responses_have_content_length() {
        let mut buf = Vec::new();
        write_response(&mut buf, 200, "{\"x\":1}").unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(s.contains("Content-Length: 7\r\n"));
        assert!(s.ends_with("{\"x\":1}"));
        let mut buf = Vec::new();
        write_error(&mut buf, 503, "queue full").unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(s.contains("{\"error\":\"queue full\"}"));
    }

    #[test]
    fn body_reading_honours_content_length() {
        let raw =
            b"POST /edges HTTP/1.1\r\nContent-Length: 11\r\n\r\n{\"op\":\"i\"}\ntrailing junk";
        let req = read_request_with_body(&raw[..]).unwrap();
        assert_eq!(req.line, "POST /edges HTTP/1.1\r\n");
        assert_eq!(req.body, "{\"op\":\"i\"}\n");
        let raw = b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n";
        let req = read_request_with_body(&raw[..]).unwrap();
        assert_eq!(req.line, "GET /health HTTP/1.1\r\n");
        assert_eq!(req.body, "");
    }

    #[test]
    fn unparsable_content_length_is_refused() {
        for value in ["abc", "-1"] {
            let raw = format!("POST /edges HTTP/1.1\r\nContent-Length: {value}\r\n\r\nbody");
            let err = read_request_with_body(raw.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{value}");
            assert!(err.to_string().contains(value), "{err}");
        }
    }

    #[test]
    fn large_bodies_are_written_whole_after_the_header() {
        for len in [0, COALESCE_BODY_BYTES, COALESCE_BODY_BYTES + 1, 3 << 20] {
            let body = "7".repeat(len);
            let mut buf = Vec::new();
            write_response(&mut buf, 200, &body).unwrap();
            let expected = format!(
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {len}\r\nConnection: close\r\n\r\n{body}"
            );
            assert!(buf == expected.as_bytes(), "len {len}");
        }
    }

    #[test]
    fn oversized_bodies_are_refused() {
        let raw = format!("POST /edges HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert!(read_request_with_body(raw.as_bytes()).is_err());
    }

    #[test]
    fn method_aware_parsing_admits_post_for_listed_methods() {
        let (m, t) = parse_request_line_methods("POST /edges HTTP/1.1", &["GET", "POST"]).unwrap();
        assert_eq!(m, "POST");
        assert_eq!(t.path, "/edges");
        let (m, t) = parse_request_line_methods("GET /health HTTP/1.1", &["GET", "POST"]).unwrap();
        assert_eq!(m, "GET");
        assert_eq!(t.path, "/health");
        assert_eq!(
            parse_request_line_methods("PUT /edges HTTP/1.1", &["GET", "POST"]).unwrap_err().0,
            400
        );
    }

    #[test]
    fn shed_responses_carry_retry_after() {
        let mut buf = Vec::new();
        write_error_retry_after(&mut buf, 503, "admission queue full", 3).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{s}");
        assert!(s.contains("Retry-After: 3\r\n"), "{s}");
        assert!(s.contains("Content-Length: 32\r\n"), "{s}");
        assert!(s.ends_with("{\"error\":\"admission queue full\"}"), "{s}");
    }
}
