//! Minimal JSON reading/writing shared by every machine-readable
//! artifact in the workspace: `bench/v1` in `nhpp_bench::perf`,
//! `conformance/v1` in `nhpp-conformance`, and `nhpp-calibration/v1`
//! in `nhpp_vb::calibration`.
//!
//! It lives in the data crate — the lowest layer every consumer
//! already depends on — so both the report pipelines at the top of the
//! stack and the calibration dictionary loaded by `nhpp-serve` parse
//! with one implementation.
//!
//! No serde in the tree (offline build), so this module carries a tiny
//! JSON writer surface and a strict recursive-descent parser. Malformed
//! input is a hard error — a corrupt report must never pass a
//! regression or conformance gate by being unreadable.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes and quotes a string for JSON output.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a finite number in the shortest round-trippable decimal form
/// (always with a decimal point or exponent, so it reads back as float).
///
/// # Panics
///
/// JSON has no Infinity/NaN, and no report metric should ever produce
/// one — fail loudly at write time.
pub fn json_number(x: f64) -> String {
    assert!(x.is_finite(), "non-finite value {x} in report");
    let mut s = format!("{x}");
    if !s.contains('.') && !s.contains('e') && !s.contains('E') {
        s.push_str(".0");
    }
    s
}

/// A parsed JSON value. The bool/array payloads are parsed for syntax
/// completeness even where a schema never reads them back.
#[derive(Debug, Clone)]
pub enum Value {
    /// `{...}` with string keys.
    Object(BTreeMap<String, Value>),
    /// A string literal.
    String(String),
    /// Any JSON number.
    Number(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
    /// `[...]`.
    Array(Vec<Value>),
}

impl Value {
    /// The object's map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(map) => Some(map),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses a complete JSON document, rejecting trailing garbage.
///
/// # Errors
///
/// A description of the first syntax violation with a byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    Parser::new(text).parse_document()
}

/// Strict recursive-descent JSON parser over the byte stream. Rejects
/// trailing garbage, unterminated literals, and bad escapes with a
/// byte-offset diagnostic.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn parse_document(&mut self) -> Result<Value, String> {
        let value = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing garbage at byte {}", self.pos));
        }
        Ok(value)
    }

    fn err(&self, message: &str) -> String {
        format!("{message} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Value::Bool(true)),
            Some(b'f') => self.parse_literal("false", Value::Bool(false)),
            Some(b'n') => self.parse_literal("null", Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn parse_literal(&mut self, lit: &str, value: Value) -> Result<Value, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {lit:?}")))
        }
    }

    fn parse_object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // The report schemas never emit surrogate
                            // pairs; reject rather than mis-decode.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.err("non-scalar \\u escape"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Re-decode multi-byte UTF-8 starting at b.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    let end = start + width;
                    let s = self
                        .bytes
                        .get(start..end)
                        .and_then(|raw| std::str::from_utf8(raw).ok())
                        .ok_or_else(|| self.err("invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, String> {
        self.skip_ws();
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_helpers() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(2.0), "2.0");
        // Shortest representation may use either style; it must always
        // read back as the same float.
        assert_eq!(json_number(1e-12).parse::<f64>().unwrap(), 1e-12);
    }

    #[test]
    fn parses_all_value_shapes() {
        let doc = r#"{"s": "x", "n": -1.5e3, "b": true, "nul": null, "arr": [1, "two", false]}"#;
        let v = parse(doc).expect("valid document");
        let obj = v.as_object().unwrap();
        assert_eq!(obj.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(obj.get("n").unwrap().as_f64(), Some(-1500.0));
        assert_eq!(obj.get("b").unwrap().as_bool(), Some(true));
        assert!(matches!(obj.get("nul"), Some(Value::Null)));
        assert_eq!(obj.get("arr").unwrap().as_array().unwrap().len(), 3);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("{} garbage").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{\"a\": 1e}").is_err());
    }
}
