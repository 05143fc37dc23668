//! A minimal JSON value model, parser and writer.
//!
//! Repro artifacts (see [`crate::repro`]) must serialize without external
//! dependencies, so this module hand-rolls the tiny subset of JSON the
//! workspace needs: objects, arrays, strings, integers, booleans and
//! `null`. Numbers are kept as raw tokens so 64-bit integers round-trip
//! exactly (no `f64` detour).
//!
//! ```
//! use wfd_sim::json::Json;
//! let v = Json::parse("{\"n\": 3, \"ok\": true, \"xs\": [1, 2]}").unwrap();
//! assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
//! assert_eq!(v.get("xs").and_then(Json::as_array).map(|a| a.len()), Some(2));
//! let back = Json::parse(&v.to_string()).unwrap();
//! assert_eq!(back.get("ok").and_then(Json::as_bool), Some(true));
//! ```

use std::fmt;

/// How deeply arrays and objects may nest in parsed input. The parser
/// recurses once per level, so input nested past this is rejected rather
/// than allowed to overflow the stack. Every artifact the workspace
/// writes nests fewer than 10 levels.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token (integers round-trip exactly).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (duplicate keys keep the last value
    /// on lookup-by-first semantics of [`Json::get`]; we never emit
    /// duplicates).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A number value from a `u64`.
    pub fn u64(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// A number value from a `usize`.
    pub fn usize(v: usize) -> Json {
        Json::Num(v.to_string())
    }

    /// A string value.
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// A boolean value.
    pub fn bool(v: bool) -> Json {
        Json::Bool(v)
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an unsigned integer token.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a `usize`, if it is an unsigned integer token.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Parse a JSON document (must be a single value, optionally
    /// surrounded by whitespace). Arrays and objects nested more than 128
    /// levels deep are an error.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }
}

/// Render a JSON value and self-validate it: the rendered text is parsed
/// back with [`Json::parse`] before being returned, so a malformed
/// artifact panics at the source instead of corrupting a metrics block
/// or lint report downstream. This is the one emit path every artifact
/// writer in the workspace shares (`wfd_bench::MetricsFlag::emit`,
/// `wfd-lint --json`).
///
/// # Panics
///
/// Panics if the rendered text does not parse back — which would mean
/// the writer in this module is broken, a programmer error.
pub fn render_validated(value: &Json) -> String {
    let rendered = value.to_string();
    Json::parse(&rendered).expect("emitted JSON must round-trip through the parser");
    rendered
}

/// Escape a string into a JSON string literal (with quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(raw) => f.write_str(raw),
            Json::Str(s) => f.write_str(&escape(s)),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}: {v}", escape(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// A parse error: what went wrong and the byte offset it happened at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parse one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
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
                _ => return Err(self.err("expected ',' or ']' in array")),
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
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are out of scope for repro
                            // artifacts; reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape character")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so slicing
                    // at char boundaries is safe via chars()).
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
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a number"));
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("digits are ASCII")
            .to_string();
        Ok(Json::Num(raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let src = r#"{"a": [1, 2, {"b": "x\ny"}], "c": null, "d": false}"#;
        let v = Json::parse(src).unwrap();
        let v2 = Json::parse(&v.to_string()).unwrap();
        assert_eq!(v, v2);
    }

    #[test]
    fn u64_round_trips_exactly() {
        let big = u64::MAX;
        let v = Json::parse(&format!("{{\"x\": {big}}}")).unwrap();
        assert_eq!(v.get("x").and_then(Json::as_u64), Some(big));
        assert_eq!(Json::u64(big).as_u64(), Some(big));
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"s": "hi", "b": true, "xs": [], "z": null}"#).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("hi"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("xs").and_then(Json::as_array), Some(&[][..]));
        assert!(v.get("z").unwrap().is_null());
        assert!(v.get("missing").is_none());
        assert!(v.as_u64().is_none());
    }

    #[test]
    fn string_escapes_round_trip() {
        for s in [
            "plain",
            "a\"b\\c",
            "tab\there\nnl",
            "\u{1}control",
            "uni→code",
        ] {
            let v = Json::Str(s.to_string());
            let parsed = Json::parse(&v.to_string()).unwrap();
            assert_eq!(parsed.as_str(), Some(s), "failed for {s:?}");
        }
    }

    #[test]
    fn unicode_escape_parses() {
        let v = Json::parse(r#""Aé""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé"));
    }

    #[test]
    fn errors_carry_offsets() {
        let e = Json::parse("{\"a\" 1}").unwrap_err();
        assert!(e.offset > 0);
        assert!(e.to_string().contains("byte"));
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("tru").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    fn nested(open: &str, inner: &str, close: &str, depth: usize) -> String {
        format!("{}{inner}{}", open.repeat(depth), close.repeat(depth))
    }

    #[test]
    fn nesting_is_limited_to_max_depth() {
        for (open, inner, close) in [("[", "", "]"), ("{\"a\": ", "1", "}")] {
            assert!(Json::parse(&nested(open, inner, close, MAX_DEPTH)).is_ok());
            let err = Json::parse(&nested(open, inner, close, MAX_DEPTH + 1)).unwrap_err();
            assert_eq!(err.offset, MAX_DEPTH * open.len(), "{err}");
            assert!(err.message.contains("nesting"), "{err}");
        }
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        for (open, inner, close) in [
            ("[", "", "]"),
            ("{\"a\": ", "1", "}"),
            ("[{\"a\": ", "1", "}]"),
        ] {
            assert!(Json::parse(&nested(open, inner, close, 100_000)).is_err());
        }
        let err = crate::repro::Repro::from_json(&nested("[", "", "]", 100_000)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Json::parse(" \n\t{ \"a\" : [ 1 , 2 ] } \r\n").unwrap();
        assert_eq!(
            v.get("a").and_then(Json::as_array).map(|a| a.len()),
            Some(2)
        );
    }
}
