//! Just enough JSON: a parser for the server's `/metrics` body and
//! helpers for writing the benchmark's own result lines.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`, `true` or `false` (`null` reads as false).
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string (escapes other than `\"` and `\\` are kept verbatim).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (keys sorted; duplicate keys keep the last value).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { s: text.as_bytes(), i: 0 };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing bytes at {}", p.i));
        }
        Ok(v)
    }

    /// The value at a dotted path of object keys, e.g. `"cache.hits"`.
    pub fn at(&self, path: &str) -> Option<&Json> {
        path.split('.').try_fold(self, |v, key| match v {
            Json::Obj(map) => map.get(key),
            _ => None,
        })
    }

    /// The number at `path`, or 0 when absent or not a number.
    pub fn num(&self, path: &str) -> f64 {
        match self.at(path) {
            Some(Json::Num(x)) => *x,
            _ => 0.0,
        }
    }

    /// The object at `path` as `(key, number)` pairs.
    pub fn numbers(&self, path: &str) -> Vec<(String, f64)> {
        match self.at(path) {
            Some(Json::Obj(map)) => map
                .iter()
                .filter_map(|(k, v)| match v {
                    Json::Num(x) => Some((k.clone(), *x)),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at {}", b as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut map = BTreeMap::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(map));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    map.insert(key, self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(map));
                        }
                        _ => return Err(format!("bad object at {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("bad array at {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'n') => self.word("null", Json::Bool(false)),
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(self.s[self.i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ASCII digits");
                text.parse().map(Json::Num).map_err(|_| format!("bad number at {start}"))
            }
            None => Err("unexpected end".to_string()),
        }
    }

    fn word(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected string at {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        while let Some(&b) = self.s.get(self.i) {
            self.i += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let esc = *self.s.get(self.i).ok_or("unexpected end")?;
                    self.i += 1;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc),
                        other => out.extend_from_slice(&[b'\\', other]),
                    }
                }
                _ => out.push(b),
            }
        }
        Err("unterminated string".to_string())
    }
}

/// A finite number as JSON (non-finite values, which a measurement
/// never produces, become 0 so the line stays parseable).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
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
    fn parses_nested_metrics_shapes() {
        let v = Json::parse(
            r#"{"a":{"b":3,"c":[1,2,{"d":-4.5e1}]},"s":"x\"y","t":true,"n":null,"e":{}}"#,
        )
        .unwrap();
        assert_eq!(v.num("a.b"), 3.0);
        assert_eq!(v.num("a.missing"), 0.0);
        assert_eq!(v.at("s"), Some(&Json::Str("x\"y".to_string())));
        assert_eq!(v.at("t"), Some(&Json::Bool(true)));
        assert_eq!(v.numbers("a"), vec![("b".to_string(), 3.0)]);
        match v.at("a.c") {
            Some(Json::Arr(items)) => assert_eq!(items[2].num("d"), -45.0),
            other => panic!("{other:?}"),
        }
        assert!(Json::parse("{\"a\":1} x").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
    }

    #[test]
    fn writes_numbers_and_strings() {
        assert_eq!(num(1.25), "1.25");
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(string("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
