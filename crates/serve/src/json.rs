//! JSON syntax, both directions: `Json`, the writer every body is
//! rendered with, and [`parse`], the one strict reader every JSON input
//! goes through.
//!
//! The writer streams a body into one reserved buffer.  Scores go
//! through `f64fmt`, a Ryū writer byte-identical to `f64`'s `Display` at
//! under half its cost; its tests compare the two on random bit
//! patterns, powers of two, decimal ties, subnormals and model columns.
//!
//! The reader is strict RFC 8259, rejects duplicate keys, and caps
//! nesting at [`MAX_DEPTH`] because request bodies are untrusted.
//! Numbers keep their source text, so [`Value::as_u64`] can accept plain
//! digit strings only: `1e3`, `1.5` and `-0` are numbers, not node ids.

mod f64fmt;

use std::fmt::{self, Display};
use std::io::Write as _;

/// The integers a body holds: node ids, counts, epochs.
pub(crate) trait Integer: Display {}
impl Integer for usize {}
impl Integer for u64 {}

/// One JSON body written front to back into a single buffer.
///
/// The only structural rule is the separator: before any key, value or
/// container, a comma is written unless the buffer ends in `{`, `[` or
/// `:` or is empty — so the same calls write object fields and array
/// items.
///
/// The buffer is bytes, not a `String`, so scores append their ASCII
/// digits with no per-value UTF-8 check; [`Json::finish`] checks the
/// whole body once.
pub(crate) struct Json(Vec<u8>);

impl Json {
    /// Starts an object body with `capacity` bytes reserved.
    pub(crate) fn object(capacity: usize) -> Json {
        let mut out = Vec::with_capacity(capacity);
        out.push(b'{');
        Json(out)
    }

    /// Reopens a finished object body so more fields can follow.
    pub(crate) fn reopen(body: String) -> Json {
        debug_assert!(body.ends_with('}'), "field tagging expects a JSON object body");
        let mut body = body.into_bytes();
        body.pop();
        Json(body)
    }

    fn sep(&mut self) {
        if !matches!(self.0.last(), None | Some(b'{' | b'[' | b':')) {
            self.0.push(b',');
        }
    }

    /// Writes `"name":` (escaped); the next value call fills it.
    pub(crate) fn key(&mut self, name: &str) -> &mut Json {
        self.string(name);
        self.0.push(b':');
        self
    }

    /// Writes one integer through its `Display` impl.
    pub(crate) fn value(&mut self, v: impl Integer) -> &mut Json {
        self.sep();
        let _ = write!(self.0, "{v}");
        self
    }

    /// Writes one score exactly as `format!("{v}")` would.
    pub(crate) fn score(&mut self, v: f64) -> &mut Json {
        self.sep();
        f64fmt::write_f64(&mut self.0, v);
        self
    }

    /// Writes one string value, escaping quotes, backslashes and control
    /// characters (as `\u00XX`).
    pub(crate) fn string(&mut self, s: &str) -> &mut Json {
        self.string_with(|out| {
            for &b in s.as_bytes() {
                match b {
                    b'"' | b'\\' => out.extend_from_slice(&[b'\\', b]),
                    0..=0x1f => drop(write!(out, "\\u{b:04x}")),
                    _ => out.push(b),
                }
            }
        })
    }

    /// Writes `"…"` around whatever `fill` appends (no escaping: callers
    /// write hex digits, ids and colons only).
    pub(crate) fn string_with(&mut self, fill: impl FnOnce(&mut Vec<u8>)) -> &mut Json {
        self.sep();
        self.0.push(b'"');
        fill(&mut self.0);
        self.0.push(b'"');
        self
    }

    /// Writes an already-valid JSON token (a literal or a number's text).
    fn raw(&mut self, token: &str) -> &mut Json {
        self.sep();
        self.0.extend_from_slice(token.as_bytes());
        self
    }

    /// Writes a flat object of integer fields: `{"a":1,"b":2}`.
    pub(crate) fn counts(&mut self, fields: &[(&str, u64)]) -> &mut Json {
        self.open(b'{');
        for &(name, v) in fields {
            self.key(name).value(v);
        }
        self.close(b'}')
    }

    /// Opens an array (`[`) or object (`{`).
    pub(crate) fn open(&mut self, bracket: u8) -> &mut Json {
        self.sep();
        self.0.push(bracket);
        self
    }

    /// Closes the innermost container with `]` or `}`.
    pub(crate) fn close(&mut self, bracket: u8) -> &mut Json {
        self.0.push(bracket);
        self
    }

    /// Closes the body's object and hands the buffer back.
    pub(crate) fn finish(mut self) -> String {
        self.0.push(b'}');
        String::from_utf8(self.0).expect("bodies are written from `str`s and ASCII digits")
    }
}

/// Renders one standalone value (of any kind) that `write` writes.
pub(crate) fn render(write: impl FnOnce(&mut Json)) -> String {
    let mut out = Json(Vec::new());
    write(&mut out);
    String::from_utf8(out.0).expect("bodies are written from `str`s and ASCII digits")
}

/// Objects and arrays nest at most this deep in parsed input.
pub const MAX_DEPTH: usize = 128;

/// One parsed JSON value.  Objects keep their (unique) keys in source
/// order; numbers keep their source text.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum Value {
    Null,
    Bool(bool),
    Number(String),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The value of field `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        let Value::Object(fields) = self else { return None };
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A number written as plain decimal digits (no sign, fraction or
    /// exponent) that fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        let Value::Number(text) = self else { return None };
        text.bytes().all(|b| b.is_ascii_digit()).then(|| text.parse().ok())?
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        let Value::String(s) = self else { return None };
        Some(s)
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        let Value::Array(items) = self else { return None };
        Some(items)
    }

    fn write(&self, out: &mut Json) {
        match self {
            Value::Null => out.raw("null"),
            Value::Bool(b) => out.raw(if *b { "true" } else { "false" }),
            Value::Number(text) => out.raw(text),
            Value::String(s) => out.string(s),
            Value::Array(items) => {
                out.open(b'[');
                items.iter().for_each(|v| v.write(out));
                out.close(b']')
            }
            Value::Object(fields) => {
                out.open(b'{');
                for (k, v) in fields {
                    out.key(k);
                    v.write(out);
                }
                out.close(b'}')
            }
        };
    }
}

/// Compact JSON, written as the body writer writes it: a body the writer
/// produced parses and displays back to the same bytes.
impl Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&render(|out| self.write(out)))
    }
}

/// Parses `text` as exactly one JSON value.  Errors name the byte
/// offset where the input stopped being JSON.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, at: 0, why: "invalid JSON" };
    match p.value(0) {
        Some(value) if p.skip_ws() == text.len() => Ok(value),
        _ => Err(format!("{} at byte {}", p.why, p.at)),
    }
}

/// A recursive-descent cursor: each method consumes one production and
/// answers `None` where the input stops matching it.
struct Parser<'a> {
    text: &'a str,
    at: usize,
    /// What went wrong, when it is more than a syntax error.
    why: &'static str,
}

impl Parser<'_> {
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.text.as_bytes().get(self.at) == Some(&b);
        self.at += usize::from(hit);
        hit
    }

    /// Skips whitespace and returns the new offset.
    fn skip_ws(&mut self) -> usize {
        while matches!(self.text.as_bytes().get(self.at), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
        self.at
    }

    fn value(&mut self, depth: usize) -> Option<Value> {
        let next = *self.text.as_bytes().get(self.skip_ws())?;
        if matches!(next, b'[' | b'{') && depth == MAX_DEPTH {
            self.why = "nesting too deep";
            return None;
        }
        Some(match next {
            b'[' => Value::Array(self.items(b']', |p| p.value(depth + 1))?),
            b'{' => {
                let fields = self.items(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    p.eat(b':').then_some(())?;
                    Some((key, p.value(depth + 1)?))
                })?;
                // Sorting keeps a many-key object from costing quadratic time.
                let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                keys.sort_unstable();
                if keys.windows(2).any(|pair| pair[0] == pair[1]) {
                    self.why = "duplicate key";
                    return None;
                }
                Value::Object(fields)
            }
            b'"' => Value::String(self.string()?),
            b'-' | b'0'..=b'9' => self.number()?,
            _ => {
                let literals = [
                    ("true", Value::Bool(true)),
                    ("false", Value::Bool(false)),
                    ("null", Value::Null),
                ];
                let (word, value) = literals
                    .into_iter()
                    .find(|(word, _)| self.text[self.at..].starts_with(word))?;
                self.at += word.len();
                value
            }
        })
    }

    /// The comma-separated items, each read by `f`, of the container
    /// opening at the cursor, through its `close` bracket.
    fn items<T>(&mut self, close: u8, mut f: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        self.at += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(close) {
            return Some(items);
        }
        loop {
            items.push(f(self)?);
            self.skip_ws();
            if self.eat(close) {
                return Some(items);
            }
            self.eat(b',').then_some(())?;
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"').then_some(())?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte: all ASCII, so the run ends on a char boundary.
            let rest = &self.text[self.at..];
            let run = rest.bytes().position(|b| b == b'"' || b == b'\\' || b < 0x20)?;
            out.push_str(&rest[..run]);
            self.at += run + 1;
            match rest.as_bytes()[run] {
                b'"' => return Some(out),
                b'\\' => out.push(self.escape()?),
                _ => return None,
            }
        }
    }

    fn escape(&mut self) -> Option<char> {
        const SHORT: [char; 8] = ['"', '\\', '/', '\u{8}', '\u{c}', '\n', '\r', '\t'];
        if let Some(i) = b"\"\\/bfnrt".iter().position(|&e| self.eat(e)) {
            return Some(SHORT[i]);
        }
        self.eat(b'u').then_some(())?;
        let unit = self.hex4()?;
        // A high surrogate must be followed by an escaped low one; a lone
        // surrogate of either kind is no `char`.
        let code = if (0xd800..0xdc00).contains(&unit) && self.eat(b'\\') && self.eat(b'u') {
            let low = self.hex4().filter(|low| (0xdc00..0xe000).contains(low))?;
            0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00)
        } else {
            unit
        };
        char::from_u32(code)
    }

    fn hex4(&mut self) -> Option<u32> {
        let digits = self.text.get(self.at..self.at + 4)?;
        self.at += 4;
        let hex = digits.bytes().all(|b| b.is_ascii_hexdigit());
        hex.then(|| u32::from_str_radix(digits, 16).expect("four hex digits"))
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Option<Value> {
        let start = self.at;
        self.eat(b'-');
        let well_formed = (self.eat(b'0') || self.digits())
            && (!self.eat(b'.') || self.digits())
            && (!(self.eat(b'e') || self.eat(b'E')) || {
                let _ = self.eat(b'+') || self.eat(b'-');
                self.digits()
            });
        well_formed.then(|| Value::Number(self.text[start..self.at].to_string()))
    }

    fn digits(&mut self) -> bool {
        let start = self.at;
        while self.text.as_bytes().get(self.at).is_some_and(u8::is_ascii_digit) {
            self.at += 1;
        }
        self.at > start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn string(s: &str) -> String {
        render(|out| {
            out.string(s);
        })
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("a\"b"), "\"a\\\"b\"");
        assert_eq!(string("back\\slash"), "\"back\\\\slash\"");
        assert_eq!(string("tab\there"), "\"tab\\u0009here\"");
        assert_eq!(string("\u{1f}é"), "\"\\u001fé\"");
    }

    #[test]
    fn parses_every_value_kind() {
        let v = parse(
            " {\"a\":[1,-2.5e+3,true,false,null],\"b\":{\"c\":\"\\u00e9\\n\\ud83d\\ude00\"}} ",
        )
        .unwrap();
        let a = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1], Value::Number("-2.5e+3".to_string()));
        assert_eq!(&a[2..], &[Value::Bool(true), Value::Bool(false), Value::Null]);
        let c = v.get("b").and_then(|b| b.get("c")).and_then(Value::as_str);
        assert_eq!(c, Some("é\n😀"));
        assert_eq!(v.get("zzz"), None);
        assert_eq!(a[0].get("a"), None, "only objects have fields");
    }

    #[test]
    fn only_plain_digit_numbers_are_u64() {
        for (text, want) in [
            ("0", Some(0)),
            ("18446744073709551615", Some(u64::MAX)),
            ("18446744073709551616", None),
            ("1e3", None),
            ("1.5", None),
            ("-0", None),
            ("\"7\"", None),
        ] {
            assert_eq!(parse(text).unwrap().as_u64(), want, "{text}");
        }
    }

    #[test]
    fn rejects_what_rfc_8259_rejects() {
        for bad in [
            "",
            "   ",
            "{",
            "{\"a\":1,}",
            "[1,]",
            "[1 2]",
            "{\"a\" 1}",
            "{a:1}",
            "{\"x\":1,\"x\":2}",
            "{\"x\":12abc}",
            "01",
            "-",
            "1.",
            ".5",
            "1e",
            "+1",
            "\"tab\there\"",
            "\"\\x\"",
            "\"\\u12g4\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"open",
            "nul",
            "truex",
            "{} {}",
            "1 2",
            "NaN",
            "inf",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        let err = parse("{\"x\":1,\"x\":2}").unwrap_err();
        assert_eq!(err, "duplicate key at byte 13");
        assert_eq!(parse("[1,]").unwrap_err(), "invalid JSON at byte 3");
    }

    #[test]
    fn nesting_is_capped() {
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(parse(&deep).unwrap_err().starts_with("nesting too deep"));
        // Far past the cap fails fast instead of recursing.
        assert!(parse(&"{\"a\":".repeat(1 << 20)).is_err());
    }

    /// A string of arbitrary chars, control characters, quotes and
    /// backslashes included.
    fn text() -> impl Strategy<Value = String> {
        proptest::collection::vec(
            (0u32..4, 0u32..0x11_0000).prop_map(|(pick, c)| match pick {
                0 => char::from_u32(c % 0x20).unwrap(),
                1 => ['"', '\\', '/', 'é'][(c % 4) as usize],
                _ => char::from_u32(c).unwrap_or('\u{fffd}'),
            }),
            0..12,
        )
        .prop_map(|chars| chars.into_iter().collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_input_never_panics(bytes in proptest::collection::vec(0u8..128, 0..64)) {
            // ASCII soup, biased toward JSON's own punctuation.
            const SOUP: &[u8] = b"{}[]\":,-.0123456789eE\\ntrufalsu x";
            let text: String =
                bytes.iter().map(|&b| char::from(SOUP[usize::from(b) % SOUP.len()])).collect();
            if let Ok(value) = parse(&text) {
                prop_assert_eq!(parse(&value.to_string()), Ok(value));
            }
        }

        #[test]
        fn writer_output_round_trips(
            key in text(),
            s in text(),
            n in 0u64..=u64::MAX,
            score in -1e300f64..1e300,
            unit in 0.0f64..1.0,
        ) {
            let mut out = Json::object(64);
            out.key(&key).string(&s);
            out.key("n").value(n);
            out.key("scores").open(b'[').score(score).score(unit).score(-0.0).close(b']');
            let body = out.finish();
            let value = parse(&body).unwrap_or_else(|e| panic!("{e}: {body}"));
            prop_assert_eq!(value.to_string(), body.clone());
            if key != "n" && key != "scores" {
                prop_assert_eq!(value.get(&key).and_then(Value::as_str), Some(s.as_str()));
                prop_assert_eq!(value.get("n").and_then(Value::as_u64), Some(n));
            }
        }
    }
}
