//! A minimal, dependency-free JSON tree: build, serialize, and parse.
//!
//! The offline build environment resolves no external crates, so the
//! observability layer cannot use `serde`; this module provides the
//! small subset the exporters and their tests need. Serialization is
//! deterministic (object keys keep insertion order) so golden tests can
//! pin exact output.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-integer number. Non-finite values serialize as `null`
    /// (JSON has no NaN/Infinity), matching what `JSON.stringify` does.
    Num(f64),
    /// An integer, preserved exactly. Routing counters through `f64`
    /// silently corrupts values above 2^53 (cycle/committed counters in
    /// long runs, `min_ns` in bench output); `i128` covers the full
    /// `u64` and `i64` ranges losslessly.
    Int(i128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds (or replaces) `key` in an object, returning `self` for
    /// chaining.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        let Json::Obj(pairs) = &mut self else { panic!("Json::set on a non-object") };
        let value = value.into();
        match pairs.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => pairs.push((key.to_string(), value)),
        }
        self
    }

    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one. Integers are
    /// converted (lossily above 2^53 — use [`Json::as_u64`] or
    /// [`Json::as_i64`] where exactness matters).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as an exact `u64`, if it is an integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as an exact `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => i64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object's keys in order, if it is an object.
    pub fn keys(&self) -> Option<Vec<&str>> {
        match self {
            Json::Obj(pairs) => Some(pairs.iter().map(|(k, _)| k.as_str()).collect()),
            _ => None,
        }
    }

    /// Serializes to a compact string.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self);
        out
    }

    /// Serializes with two-space indentation, for human-inspected files.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        write_pretty(&mut out, self, 0);
        out
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v as i128)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as i128)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v as i128)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

/// Writes `s` with JSON escaping, including the surrounding quotes.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Formats a float: non-finite values as `null`, and integral values
/// with a trailing `.0` so the float/integer distinction survives a
/// serialize → [`parse`](crate::json::parse) round trip (whole numbers
/// without a fraction are [`Json::Int`]'s job).
fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() {
        out.push_str(&format!("{n:.1}"));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_value(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => write_num(out, *n),
        Json::Int(i) => out.push_str(&i.to_string()),
        Json::Str(s) => write_escaped(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

fn write_pretty(out: &mut String, v: &Json, indent: usize) {
    let pad = "  ".repeat(indent + 1);
    match v {
        Json::Arr(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&pad);
                write_pretty(out, item, indent + 1);
            }
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
            out.push(']');
        }
        Json::Obj(pairs) if !pairs.is_empty() => {
            out.push_str("{\n");
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&pad);
                write_escaped(out, k);
                out.push_str(": ");
                write_pretty(out, item, indent + 1);
            }
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
            out.push('}');
        }
        other => write_value(out, other),
    }
}

/// A JSON parse failure: what went wrong and the byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Description of the problem.
    pub message: String,
    /// Byte offset in the input where it was detected.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// The deepest nesting of arrays and objects [`parse`] accepts.
///
/// The parser recurses once per level, so without a cap a file of
/// 50 000 `[` overflows the stack and aborts the process. The deepest
/// document the repository writes nests about five levels (envelope,
/// data, a point, its stats, a histogram); 128 leaves a wide margin
/// and matches the default recursion limit of common JSON libraries,
/// while keeping the recursion far inside a 2 MiB thread stack.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document (used by the golden/round-trip tests; the
/// exporters only serialize).
///
/// # Errors
///
/// Returns a [`JsonError`] naming the first offending byte offset,
/// including the `[` or `{` that opens a level past [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { message: message.to_string(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if self.peek() == Some(b'[') { self.array() } else { self.object() };
                self.depth -= 1;
                v
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed by our own
                            // output; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        // Integer-looking numbers parse as Json::Int so u64-sized
        // counters round-trip exactly; anything with a fraction or
        // exponent (or beyond i128) falls back to f64.
        if !text.bytes().any(|b| matches!(b, b'.' | b'e' | b'E')) {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError { message: format!("bad number `{text}`"), offset: start })
    }
}

/// Sorted-key view of an object, for key-set golden tests.
pub fn key_set(v: &Json) -> BTreeMap<String, &Json> {
    match v {
        Json::Obj(pairs) => pairs.iter().map(|(k, v)| (k.clone(), v)).collect(),
        _ => BTreeMap::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_serializes_objects_in_order() {
        let j = Json::object()
            .set("b", 1u64)
            .set("a", "x")
            .set("nested", Json::object().set("k", true));
        assert_eq!(j.to_string_compact(), r#"{"b":1,"a":"x","nested":{"k":true}}"#);
    }

    #[test]
    fn numbers_format_like_json() {
        assert_eq!(Json::Num(3.0).to_string_compact(), "3.0");
        assert_eq!(Json::Num(3.25).to_string_compact(), "3.25");
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string_compact(), "null");
    }

    #[test]
    fn strings_escape() {
        let j = Json::from("a\"b\\c\nd\u{1}");
        assert_eq!(j.to_string_compact(), r#""a\"b\\c\nd\u0001""#);
    }

    #[test]
    fn round_trips_through_parse() {
        let j = Json::object()
            .set("ipc", 2.5)
            .set("name", "gzip \"fast\" \\ mode")
            .set("counts", vec![1u64, 2, 3])
            .set("flag", false)
            .set("nothing", Json::Null);
        let parsed = parse(&j.to_string_compact()).expect("own output parses");
        assert_eq!(parsed, j);
        let parsed_pretty = parse(&j.to_string_pretty()).expect("pretty output parses");
        assert_eq!(parsed_pretty, j);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "{", "[1,", "tru", "{\"a\" 1}", "1 2", "\"unterminated"] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    /// Nesting up to the cap parses; one level more is an error, not
    /// a stack overflow, for arrays and objects alike.
    #[test]
    fn parse_caps_nesting_depth() {
        for (open, inner, close) in [("[", "", "]"), ("{\"k\":", "1", "}")] {
            let nested = |depth| format!("{}{inner}{}", open.repeat(depth), close.repeat(depth));
            assert!(parse(&nested(MAX_DEPTH)).is_ok(), "{open}: {MAX_DEPTH} levels parse");
            let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
            assert!(err.message.contains("nesting deeper than 128"), "{err}");
        }
        let err = parse(&"[".repeat(50_000)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH, "rejected at the first level past the cap");
    }

    #[test]
    fn parse_accepts_whitespace_and_nesting() {
        let v = parse(" { \"a\" : [ 1 , { \"b\" : null } ] } ").expect("valid");
        assert_eq!(v.get("a").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
    }

    #[test]
    fn set_replaces_existing_keys() {
        let j = Json::object().set("a", 1u64).set("a", 2u64);
        assert_eq!(j.to_string_compact(), r#"{"a":2}"#);
    }

    #[test]
    fn u64_counters_print_as_integer_literals() {
        assert_eq!(Json::from(1u64 << 40).to_string_compact(), "1099511627776");
        assert_eq!(Json::from(-3i64).to_string_compact(), "-3");
    }

    /// Integers above 2^53 (where f64 loses exactness) must survive a
    /// serialize → parse round trip bit-for-bit.
    #[test]
    fn u64_counters_above_2_pow_53_are_lossless() {
        let exact = (1u64 << 53) + 1; // first value an f64 cannot hold
        let j = Json::from(exact);
        assert_eq!(j.to_string_compact(), "9007199254740993");
        assert_eq!(parse(&j.to_string_compact()).unwrap(), j);
        assert_eq!(j.as_u64(), Some(exact));

        let max = Json::from(u64::MAX);
        assert_eq!(max.to_string_compact(), "18446744073709551615");
        let parsed = parse(&max.to_string_compact()).unwrap();
        assert_eq!(parsed.as_u64(), Some(u64::MAX));

        assert_eq!(Json::from(i64::MIN).as_i64(), Some(i64::MIN));
        // Conversion queries are range-checked, not wrapping.
        assert_eq!(Json::from(-1i64).as_u64(), None);
        assert_eq!(Json::from(u64::MAX).as_i64(), None);
    }

    /// Fractional and exponent-bearing numbers still parse as floats.
    #[test]
    fn parser_distinguishes_ints_from_floats() {
        assert_eq!(parse("3").unwrap(), Json::Int(3));
        assert_eq!(parse("-3").unwrap(), Json::Int(-3));
        assert_eq!(parse("3.0").unwrap(), Json::Num(3.0));
        assert_eq!(parse("3e2").unwrap(), Json::Num(300.0));
        // Beyond i128: falls back to f64 rather than failing.
        assert!(matches!(parse("1e40").unwrap(), Json::Num(_)));
    }
}
