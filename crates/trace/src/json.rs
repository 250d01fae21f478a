//! A minimal JSON writer and reader.
//!
//! The workspace has no third-party dependencies (DESIGN.md §5), so the
//! trace layer carries its own JSON support: [`escape`] for the writers
//! and a small recursive-descent [`parse`] used by the NDJSON stream
//! checker and the tests. The parser accepts standard JSON (RFC 8259)
//! minus the corners the trace formats never produce: numbers are read
//! as `i64`/`f64`, `\uXXXX` escapes outside the BMP are kept as
//! replacement characters rather than paired surrogates, and arrays and
//! objects nest at most [`MAX_DEPTH`] levels deep.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How deeply [`parse`] lets arrays and objects nest. The parser
/// recurses once per level, so without a cap one long line of `[` could
/// overflow the stack of whatever thread parses it (`sbif-serve` parses
/// every request line). The deepest document the workspace writes,
/// `--analysis-out`, nests 4 levels.
pub const MAX_DEPTH: usize = 128;

/// Escapes `s` as the *contents* of a JSON string (no surrounding
/// quotes).
///
/// # Examples
///
/// ```
/// assert_eq!(sbif_trace::json::escape("a\"b\n"), "a\\\"b\\n");
/// ```
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fraction or exponent, in `i64` range.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object. `BTreeMap` — duplicate keys keep the last value.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The object map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is a non-negative `Int`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// Renders the value as canonical single-line JSON: object keys
    /// sorted (the `BTreeMap` order), no insignificant whitespace
    /// beyond one space after `:` and `,`. Two structurally equal
    /// values render to identical bytes, which is what the bench
    /// baseline diffs (`scripts/bench_check.sh`) rely on.
    ///
    /// # Examples
    ///
    /// ```
    /// use sbif_trace::json::parse;
    ///
    /// let v = parse("{\"b\":2,  \"a\": 1}").unwrap();
    /// assert_eq!(v.to_canonical(), "{\"a\": 1, \"b\": 2}");
    /// ```
    pub fn to_canonical(&self) -> String {
        let mut out = String::new();
        self.write_canonical(&mut out);
        out
    }

    fn write_canonical(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Float(f) => {
                // `{}` prints shortest-round-trip floats; keep an
                // explicit fraction so the value re-parses as a float.
                if f.fract() == 0.0 && f.is_finite() {
                    let _ = write!(out, "{f:.1}");
                } else {
                    let _ = write!(out, "{f}");
                }
            }
            Value::Str(s) => {
                let _ = write!(out, "\"{}\"", escape(s));
            }
            Value::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.write_canonical(out);
                }
                out.push(']');
            }
            Value::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "\"{}\": ", escape(k));
                    v.write_canonical(out);
                }
                out.push('}');
            }
        }
    }
}

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// A human-readable description with the byte offset of the problem.
///
/// # Examples
///
/// ```
/// use sbif_trace::json::{parse, Value};
///
/// let v = parse("{\"a\": [1, true]}").unwrap();
/// assert!(v.as_object().unwrap().contains_key("a"));
/// assert!(parse("{broken").is_err());
/// ```
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut p = Parser {
        bytes,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected {:?} at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// Parses one array or object (`container`) one level deeper,
    /// refusing to go past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, String>,
    ) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nested deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        if !fractional {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        c => return Err(format!("bad escape \\{}", c as char)),
                    }
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (multi-byte sequences pass
                    // through unchanged).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| format!("invalid UTF-8 at byte {}", self.pos))?;
                    let c = s.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips_through_parse() {
        for s in ["plain", "with \"quotes\"", "tabs\tand\nnewlines", "uni: Ω", "ctl:\u{1}"] {
            let json = format!("\"{}\"", escape(s));
            assert_eq!(parse(&json).unwrap(), Value::Str(s.to_string()), "{s:?}");
        }
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, -2, 3.5], "b": {"c": null, "d": false}}"#).unwrap();
        let o = v.as_object().unwrap();
        assert_eq!(
            o["a"],
            Value::Array(vec![Value::Int(1), Value::Int(-2), Value::Float(3.5)])
        );
        assert_eq!(o["b"].as_object().unwrap()["c"], Value::Null);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,]", "tru", "\"open", "{\"a\" 1}", "1 2", "{\"a\":}"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest = |depth: usize, open: &str, close: &str| {
            format!("{}1{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(parse(&nest(MAX_DEPTH, "[", "]")).is_ok());
        assert!(parse(&nest(MAX_DEPTH, "{\"a\": ", "}")).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1, "[", "]")).unwrap_err();
        assert_eq!(
            err,
            format!("nested deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}")
        );
        let err = parse(&nest(MAX_DEPTH + 1, "{\"a\": ", "}")).unwrap_err();
        assert!(err.contains(&format!("at byte {}", MAX_DEPTH * 6)), "{err}");
        // Far past the cap the answer is the same error, not a stack
        // overflow.
        assert!(parse(&nest(100_000, "[", "]")).is_err());
    }

    #[test]
    fn canonical_rendering_round_trips_and_sorts() {
        let v = parse(r#"{"z": [1, "two", null], "a": {"y": true, "x": 2.5}}"#).unwrap();
        let canon = v.to_canonical();
        assert_eq!(
            canon,
            r#"{"a": {"x": 2.5, "y": true}, "z": [1, "two", null]}"#
        );
        // Canonical output is a fixed point.
        assert_eq!(parse(&canon).unwrap().to_canonical(), canon);
        // Integral floats keep a fraction so the type survives.
        assert_eq!(parse("[1e3]").unwrap().to_canonical(), "[1000.0]");
    }

    #[test]
    fn integers_and_floats_are_distinguished() {
        assert_eq!(parse("42").unwrap(), Value::Int(42));
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert!(matches!(parse("1e3").unwrap(), Value::Float(_)));
    }
}
