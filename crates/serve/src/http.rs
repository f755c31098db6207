//! HTTP/1.1 framing for every hop, in both directions: the server's
//! request reader and response writer, [`request`] — the one client
//! every caller uses — and query-string parsing.  Every message head is
//! read under [`MAX_HEAD_BYTES`] and [`MAX_HEADERS`]; bodies are framed
//! by `Content-Length` alone and read through `take`, so memory follows
//! the bytes a peer sends, never the length it declares.

use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

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

/// The most bytes a message head (start line plus headers) may hold.
pub const MAX_HEAD_BYTES: usize = 64 << 10;

/// A message head may carry at most this many header lines.
pub const MAX_HEADERS: usize = 100;

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Reads one head up to and including its blank line, holding at most
/// [`MAX_HEAD_BYTES`] of it and at most [`MAX_HEADERS`] header lines.
/// Returns the start line, as read, and the declared body length.
fn read_head<R: BufRead>(reader: &mut R) -> io::Result<(String, Option<usize>)> {
    let mut budget = MAX_HEAD_BYTES as u64;
    let mut read_line = |line: &mut String| -> io::Result<()> {
        line.clear();
        budget -= reader.by_ref().take(budget).read_line(line)? as u64;
        if line.ends_with('\n') {
            Ok(())
        } else if budget == 0 {
            Err(invalid(format!("message head exceeds {MAX_HEAD_BYTES} bytes")))
        } else {
            Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed mid-head"))
        }
    };
    let (mut start, mut content_length) = (String::new(), None);
    read_line(&mut start)?;
    let mut line = String::new();
    // Up to MAX_HEADERS header lines, then the blank line.
    for _ in 0..=MAX_HEADERS {
        read_line(&mut line)?;
        if line == "\r\n" || line == "\n" {
            return Ok((start, content_length));
        }
        let Some((name, value)) = line.split_once(':') else { continue };
        if name.eq_ignore_ascii_case("content-length") {
            // A length we cannot read would leave the body unread and
            // frame it as the next message: refuse, like an oversize one.
            let value = value.trim();
            let len = value
                .parse()
                .map_err(|_| invalid(format!("unparsable Content-Length {value:?}")))?;
            if content_length.replace(len).is_some() {
                return Err(invalid("repeated Content-Length"));
            }
        }
    }
    Err(invalid(format!("message head has more than {MAX_HEADERS} header lines")))
}

/// Reads exactly `len` body bytes as UTF-8.
fn read_body<R: Read>(reader: R, len: usize) -> io::Result<String> {
    let mut body = Vec::new();
    reader.take(len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        let msg = format!("body ended after {} of {len} bytes", body.len());
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, msg));
    }
    String::from_utf8(body).map_err(|_| invalid("body is not UTF-8"))
}

/// Reads the request line, the headers and the body the request's
/// `Content-Length` declares (none without one).
pub fn read_request_with_body<R: Read>(stream: R) -> io::Result<RawRequest> {
    let mut reader = BufReader::new(stream);
    let (line, len) = read_head(&mut reader)?;
    let len = len.unwrap_or(0);
    if len > MAX_BODY_BYTES {
        return Err(invalid(format!("request body of {len} bytes exceeds {MAX_BODY_BYTES}")));
    }
    Ok(RawRequest { line, body: read_body(reader, len)? })
}

/// One blocking request over a fresh `Connection: close` connection.
/// `timeout` bounds the connect and every socket read and write.
/// `body`, when given, is sent with its `Content-Length`.  The response
/// must frame its body with `Content-Length` too, and end there with the
/// peer closing the connection.  Returns `(status, body)`.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> io::Result<(u16, String)> {
    let sock = addr.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, format!("{addr:?} resolves to nothing"))
    })?;
    let mut stream = TcpStream::connect_timeout(&sock, timeout)?;
    stream.set_nodelay(true)?; // scatter legs are latency-critical
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    // One write_all of a prebuilt request: `write!` on the socket would
    // issue one syscall per fragment, and Nagle-free segments would hit
    // the peer split.
    let mut message = String::with_capacity(96 + addr.len() + path.len());
    let _ = write!(message, "{method} {path} HTTP/1.1\r\nHost: {addr}\r\n");
    if let Some(body) = body {
        let _ = write!(message, "Content-Length: {}\r\n", body.len());
    }
    message.push_str("Connection: close\r\n\r\n");
    message.push_str(body.unwrap_or(""));
    stream.write_all(message.as_bytes())?;

    let mut reader = BufReader::new(stream);
    let (status, len) = read_head(&mut reader)?;
    let code = status.strip_prefix("HTTP/1.").and_then(|rest| rest.split_whitespace().nth(1));
    let code = code.filter(|code| code.len() == 3).and_then(|code| code.parse().ok());
    let code = code.ok_or_else(|| invalid(format!("malformed status line {status:?}")))?;
    let len = len.ok_or_else(|| invalid("response without Content-Length"))?;
    let body = read_body(&mut reader, len)?;
    // `Connection: close`: the peer's close ends the exchange, and only
    // then is the server done with the request (its metrics included).
    if reader.read(&mut [0u8; 1])? != 0 {
        return Err(invalid("response runs past its Content-Length"));
    }
    Ok((code, body))
}

/// Parses a request line like `GET /topk?node=1&k=5 HTTP/1.1` into the
/// method and a [`Target`], accepting only the listed methods, decoding
/// `%XX` escapes (and `+` as space), and rejecting duplicate parameters
/// with a clear message.  The server admits `GET` and `POST` (for
/// `POST /edges`); all query routes stay strictly `GET`.
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
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
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
pub fn write_response<W: Write>(stream: W, code: u16, body: &str) -> io::Result<()> {
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
) -> io::Result<()> {
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
pub fn write_error<W: Write>(stream: W, code: u16, msg: &str) -> io::Result<()> {
    write_response(stream, code, &crate::render::error(msg))
}

/// [`write_error`] with a `Retry-After: <seconds>` header — the shed
/// path's backpressure advice to well-behaved clients.
pub fn write_error_retry_after<W: Write>(
    stream: W,
    code: u16,
    msg: &str,
    retry_after_s: u64,
) -> io::Result<()> {
    let extra = format!("Retry-After: {retry_after_s}\r\n");
    write_with_header(stream, code, &extra, &crate::render::error(msg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::net::TcpListener;

    /// Parses a request line that must be a `GET`.
    fn parse_get(line: &str) -> Result<Target, (u16, String)> {
        parse_request_line_methods(line, &["GET"]).map(|(_, target)| target)
    }

    #[test]
    fn parses_path_and_params() {
        let t = parse_get("GET /topk?node=1&k=5 HTTP/1.1").unwrap();
        assert_eq!(t.path, "/topk");
        assert_eq!(t.require("node").unwrap(), "1");
        assert_eq!(t.get("k"), Some("5"));
        assert_eq!(t.get("absent"), None);
        assert_eq!(t.require("absent").unwrap_err().0, 400);
    }

    #[test]
    fn rejects_non_get() {
        assert_eq!(parse_get("POST /health HTTP/1.1").unwrap_err().0, 400);
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
        let t = parse_get("GET /query?nodes=1%2C3 HTTP/1.1").unwrap();
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
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{value}");
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
    fn heads_past_the_caps_are_refused() {
        let pad = "a".repeat(MAX_HEAD_BYTES);
        let long_line = format!("GET /health?pad={pad} HTTP/1.1\r\n\r\n");
        let long_header = format!("GET /health HTTP/1.1\r\nX-Pad: {pad}\r\n\r\n");
        let many = format!("GET /health HTTP/1.1\r\n{}\r\n", "X: y\r\n".repeat(MAX_HEADERS + 1));
        for raw in [long_line, long_header, many] {
            let err = read_request_with_body(raw.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
        // Right at the caps is fine.
        let fits = format!("GET /health HTTP/1.1\r\n{}\r\n", "X: y\r\n".repeat(MAX_HEADERS));
        assert_eq!(
            read_request_with_body(fits.as_bytes()).unwrap().line,
            "GET /health HTTP/1.1\r\n"
        );
        let line = format!("GET /{} HTTP/1.1\r\n", "a".repeat(MAX_HEAD_BYTES - 18));
        let fits = format!("{line}\r\n");
        assert_eq!(fits.len(), MAX_HEAD_BYTES);
        assert_eq!(read_request_with_body(fits.as_bytes()).unwrap().line, line);
    }

    #[test]
    fn truncated_requests_are_errors() {
        for raw in [
            "",
            "GET /health HTTP/1.1",
            "GET /health HTTP/1.1\r\nHost: x\r\n",
            "POST /edges HTTP/1.1\r\nContent-Length: 9\r\n\r\nabc",
        ] {
            let err = read_request_with_body(raw.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{raw:?}: {err}");
        }
        let raw = "POST /edges HTTP/1.1\r\nContent-Length: 1\r\ncontent-length: 1\r\n\r\nab";
        assert!(read_request_with_body(raw.as_bytes()).is_err(), "repeated Content-Length");
    }

    /// Serves one connection: reads the request head, answers `response`
    /// verbatim and closes.
    fn peer(response: &'static [u8]) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let _ = read_head(&mut BufReader::new(&stream));
            let _ = stream.write_all(response);
        });
        addr
    }

    #[test]
    fn the_client_reads_exactly_the_declared_body() {
        let wait = Duration::from_secs(10);
        let addr = peer(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello");
        assert_eq!(request(&addr, "GET", "/", None, wait).unwrap(), (200, "hello".to_string()));
        let addr = peer(b"HTTP/1.1 404 Not Found\r\ncontent-length: 0\r\n\r\n");
        assert_eq!(request(&addr, "POST", "/x", Some("{}"), wait).unwrap(), (404, String::new()));
    }

    #[test]
    fn the_client_refuses_truncated_and_unframed_responses() {
        let wait = Duration::from_secs(10);
        for response in [
            // 14 of the 23 declared bytes: never a 200 with half a body.
            &b"HTTP/1.1 200 OK\r\nContent-Length: 23\r\n\r\n{\"lo\":0,\"hi\":1"[..],
            b"HTTP/1.1 200 OK\r\nContent-Length: 2x\r\n\r\n{}",
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}{}",
            b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n{}",
            b"HTTP/1.1 200 OK\r\nContent-Le",
            b"",
            b"{\"lo\":0}\r\nContent-Length: 0\r\n\r\n",
            b"HTTP/1.1 2000 OK\r\nContent-Length: 0\r\n\r\n",
        ] {
            let got = request(&peer(response), "GET", "/shard/range", None, wait);
            assert!(got.is_err(), "{:?} → {got:?}", String::from_utf8_lossy(response));
        }
    }

    /// A source of bytes that counts how many were taken from it.
    struct Counted<'a> {
        bytes: &'a [u8],
        taken: usize,
    }

    impl Read for Counted<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.bytes[self.taken..].len().min(buf.len());
            buf[..n].copy_from_slice(&self.bytes[self.taken..self.taken + n]);
            self.taken += n;
            Ok(n)
        }
    }

    /// Pieces a head is made of, so random streams are near-misses of
    /// real heads rather than pure noise.
    const PIECES: [&[u8]; 9] = [
        b"GET /topk?node=1 HTTP/1.1",
        b"\r\n",
        b"\n",
        b"Content-Length: ",
        b"42",
        b":",
        b"x",
        b"\xff\xfe",
        b"\r",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn arbitrary_streams_never_panic_or_buffer_past_the_cap(
            picks in proptest::collection::vec((0usize..PIECES.len(), 0usize..4), 0..64),
            bulk in 0usize..(3 * MAX_HEAD_BYTES),
            bulk_piece in 0usize..PIECES.len(),
        ) {
            let mut bytes = Vec::new();
            for &(piece, times) in &picks {
                for _ in 0..times {
                    bytes.extend_from_slice(PIECES[piece]);
                }
            }
            // A long run of one piece: past the byte cap or the header
            // count, or neither.
            while bytes.len() < bulk {
                bytes.extend_from_slice(PIECES[bulk_piece]);
            }
            let mut source = Counted { bytes: &bytes, taken: 0 };
            let mut reader = BufReader::new(&mut source);
            let head = read_head(&mut reader);
            let buffered = reader.capacity();
            drop(reader);
            // Whatever happened, the reader held at most the cap plus one
            // `BufReader` fill.
            prop_assert!(source.taken <= MAX_HEAD_BYTES + buffered, "took {}", source.taken);
            if let Ok((line, _)) = head {
                prop_assert!(line.len() <= MAX_HEAD_BYTES);
                prop_assert!(line.ends_with('\n'));
            }
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
