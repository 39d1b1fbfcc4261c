//! A small hand-rolled JSON value and writer.
//!
//! Replaces `serde_json` for the workspace's artifact files (experiment
//! tables, bench results). Deliberately minimal: build a [`Json`] tree,
//! render it with [`Json::to_string_pretty`]. Object key order is preserved
//! as inserted, so output is byte-for-byte deterministic — which is what the
//! CI determinism gate diffs.
//!
//! ```
//! use vc_testkit::json::Json;
//! let doc = Json::object([
//!     ("id", Json::from("E1")),
//!     ("rows", Json::array([Json::from(1u64), Json::from(2u64)])),
//! ]);
//! assert_eq!(doc["id"], "E1");
//! assert_eq!(doc["rows"][1], Json::from(2u64));
//! ```

use std::fmt::Write;
use std::ops::Index;

/// A JSON document tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (serialized without a trailing `.0` when integral).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved as inserted.
    Obj(Vec<(String, Json)>),
}

static NULL: Json = Json::Null;

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    pub fn array(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric content, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Renders compact single-line JSON.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders human-readable JSON with two-space indentation and a trailing
    /// newline-free final line (callers append their own newline).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    /// Parses a JSON document (the inverse of [`Json::to_string_compact`]).
    ///
    /// Supports the full value grammar this writer emits: objects, arrays,
    /// strings with `\uXXXX` escapes, numbers, booleans, and `null`. Returns
    /// a human-readable error with a byte offset on malformed input,
    /// trailing garbage, or arrays/objects nested more than 256 deep.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(value)
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

/// How deeply [`Json::parse`] lets arrays and objects nest. The parser
/// recurses once per level, so without a cap a line of `[`s overflows the
/// stack. The deepest documents written here are profile trees, two levels
/// per frame (the frame object and its `children` array), a few dozen in
/// all.
const MAX_DEPTH: usize = 256;

/// Parses one value whose enclosing arrays and objects number `depth`.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}", pos = *pos));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte {c:#04x} at byte {pos}", pos = *pos)),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_owned())?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let mut code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape digits")?;
                        *pos += 4;
                        // This writer never emits surrogates, but external
                        // writers encode non-BMP characters as \u pairs:
                        // combine a valid high+low pair, and map any lone
                        // surrogate to the replacement character rather
                        // than erroring.
                        if (0xD800..0xDC00).contains(&code) {
                            let low = bytes
                                .get(*pos + 1..*pos + 7)
                                .filter(|rest| rest.starts_with(b"\\u"))
                                .and_then(|rest| std::str::from_utf8(&rest[2..]).ok())
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .filter(|low| (0xDC00..0xE000).contains(low));
                            match low {
                                Some(low) => {
                                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    *pos += 6;
                                }
                                None => code = 0xFFFD,
                            }
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Advance over one UTF-8 scalar (bytes is valid UTF-8 since
                // it came from &str).
                let rest = std::str::from_utf8(&bytes[*pos..]).expect("input was a &str");
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && (bytes[*pos].is_ascii_digit() || matches!(bytes[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii");
    text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number `{text}` at byte {start}"))
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

/// Appends `n` the way every number in a [`Json`] tree is rendered:
/// integral values below 2⁵³ without a fraction, anything else through
/// `f64`'s `Display`, and `null` for NaN and ±∞ (JSON has neither). Public
/// so that a writer with no tree to build — `vc_obs`'s JSONL export —
/// produces the same bytes as [`Json::to_string_compact`].
pub fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Infinity; degrade to null like serde_json's
        // arbitrary-precision-off behaviour degrades to error.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        write!(out, "{}", n as i64).expect("writing to a String cannot fail");
    } else {
        write!(out, "{n}").expect("writing to a String cannot fail");
    }
}

/// Appends `s` as a quoted JSON string: `"` and `\` backslash-escaped,
/// `\n` `\r` `\t` by name, other control characters as `\u00XX`, everything
/// else (non-ASCII included) verbatim. Public for the same reason as
/// [`write_number`].
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    // Every byte that needs an escape is ASCII, so cutting the string
    // around those bytes never splits a multi-byte character.
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[clean..i]);
        clean = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => write!(out, "\\u{b:04x}").expect("writing to a String cannot fail"),
        }
    }
    out.push_str(&s[clean..]);
    out.push('"');
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

macro_rules! json_from_number {
    ($($ty:ty),+) => {$(
        impl From<$ty> for Json {
            fn from(n: $ty) -> Json {
                Json::Num(n as f64)
            }
        }
    )+};
}

json_from_number!(f64, f32, u64, u32, u16, u8, i64, i32, usize);

/// Object field access; yields `Json::Null` for missing keys.
impl Index<&str> for Json {
    type Output = Json;

    fn index(&self, key: &str) -> &Json {
        self.get(key).unwrap_or(&NULL)
    }
}

/// Array element access; yields `Json::Null` out of bounds.
impl Index<usize> for Json {
    type Output = Json;

    fn index(&self, idx: usize) -> &Json {
        match self {
            Json::Arr(items) => items.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl PartialEq<str> for Json {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<&str> for Json {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<String> for Json {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_pretty_and_compact() {
        let doc = Json::object([
            ("id", Json::from("E1")),
            ("n", Json::from(3u64)),
            ("frac", Json::from(0.5)),
            ("ok", Json::from(true)),
            ("rows", Json::array([Json::array([Json::from("a")]), Json::Arr(vec![])])),
            ("none", Json::Null),
        ]);
        let compact = doc.to_string_compact();
        assert_eq!(
            compact,
            r#"{"id":"E1","n":3,"frac":0.5,"ok":true,"rows":[["a"],[]],"none":null}"#
        );
        let pretty = doc.to_string_pretty();
        assert!(pretty.contains("\n  \"id\": \"E1\""));
        assert!(pretty.ends_with('}'));
    }

    #[test]
    fn escapes_strings() {
        let j = Json::from("a\"b\\c\nd\te\u{1}");
        assert_eq!(j.to_string_compact(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn indexing_and_equality() {
        let doc = Json::object([("xs", Json::array([Json::from(1u64), Json::from("two")]))]);
        assert_eq!(doc["xs"][1], "two");
        assert_eq!(doc["xs"][0].as_f64(), Some(1.0));
        assert_eq!(doc["missing"], Json::Null);
        assert_eq!(doc["xs"][9], Json::Null);
        assert_eq!(doc["xs"][1], "two".to_string());
    }

    #[test]
    fn numbers_render_integrally_when_integral() {
        assert_eq!(Json::from(-3i64).to_string_compact(), "-3");
        assert_eq!(Json::from(2.25).to_string_compact(), "2.25");
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let doc = Json::object([
            ("id", Json::from("E1")),
            ("n", Json::from(3u64)),
            ("frac", Json::from(-0.5)),
            ("ok", Json::from(true)),
            ("text", Json::from("a\"b\\c\nd\u{1}é")),
            ("rows", Json::array([Json::array([Json::from("a")]), Json::Arr(vec![])])),
            ("none", Json::Null),
            ("empty", Json::object::<&str>([])),
        ]);
        let compact = Json::parse(&doc.to_string_compact()).expect("compact parses");
        assert_eq!(compact, doc);
        let pretty = Json::parse(&doc.to_string_pretty()).expect("pretty parses");
        assert_eq!(pretty, doc);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("1 2").is_err(), "trailing garbage");
        assert!(Json::parse("nulL").is_err());
        // Nesting is capped before the recursion can exhaust the stack.
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 256"), "{err}");
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn key_order_is_preserved() {
        let doc = Json::object([("z", Json::Null), ("a", Json::Null)]);
        let s = doc.to_string_compact();
        assert!(s.find("\"z\"").unwrap() < s.find("\"a\"").unwrap());
    }

    #[test]
    fn parse_decodes_escaped_strings() {
        let doc = Json::parse(r#""a\"b\\c\/d\b\f\n\r\t""#).expect("escapes parse");
        assert_eq!(doc.as_str(), Some("a\"b\\c/d\u{8}\u{c}\n\r\t"));
        // \uXXXX escapes, including a surrogate pair and a lone surrogate
        // (which decodes to the replacement character rather than erroring).
        assert_eq!(Json::parse("\"\\u00e9\\u0001\"").unwrap().as_str(), Some("\u{e9}\u{1}"));
        assert_eq!(Json::parse("\"\\ud83d\\ude00\"").unwrap().as_str(), Some("\u{1f600}"));
        assert_eq!(Json::parse(r#""\ud83d x""#).unwrap().as_str(), Some("\u{fffd} x"));
        assert!(Json::parse(r#""\uZZZZ""#).is_err(), "non-hex escape digits");
        assert!(Json::parse(r#""\q""#).is_err(), "unknown escape");
    }

    #[test]
    fn parse_handles_nested_empty_containers() {
        let doc = Json::parse(r#"{"a":{},"b":[[],{}],"c":[{"d":[]}]}"#).expect("parses");
        assert_eq!(doc["a"], Json::object::<&str>([]));
        assert_eq!(doc["b"][0], Json::Arr(vec![]));
        assert_eq!(doc["b"][1], Json::object::<&str>([]));
        assert_eq!(doc["c"][0]["d"], Json::Arr(vec![]));
        assert_eq!(Json::parse(&doc.to_string_compact()).expect("round trip"), doc);
    }

    #[test]
    fn parse_handles_boundary_numbers() {
        // Integers survive up to the f64 exact-integer limit (2^53).
        let max_exact = (1i64 << 53) - 1;
        let doc = Json::parse(&max_exact.to_string()).expect("2^53-1 parses");
        assert_eq!(doc.as_f64(), Some(max_exact as f64));
        assert_eq!(doc.to_string_compact(), max_exact.to_string());
        let min_exact = -max_exact;
        assert_eq!(
            Json::parse(&min_exact.to_string()).unwrap().to_string_compact(),
            min_exact.to_string()
        );
        // i64::MAX is beyond 2^53: the value parses (as the nearest f64)
        // even though it can no longer render digit-identically.
        assert_eq!(
            Json::parse("9223372036854775807").unwrap().as_f64(),
            Some(9.223372036854776e18)
        );
        // f64 extremes and exponent forms.
        assert_eq!(Json::parse("1.7976931348623157e308").unwrap().as_f64(), Some(f64::MAX));
        assert_eq!(Json::parse("-1.7976931348623157E308").unwrap().as_f64(), Some(f64::MIN));
        assert_eq!(
            Json::parse("5e-324").unwrap().as_f64(),
            Some(f64::MIN_POSITIVE * 2f64.powi(-52))
        );
        assert_eq!(Json::parse("-0.0").unwrap().as_f64(), Some(0.0));
        assert_eq!(Json::parse("2.5e2").unwrap().as_f64(), Some(250.0));
    }

    #[test]
    fn parse_rejects_trailing_garbage() {
        assert!(Json::parse("{} {}").is_err());
        assert!(Json::parse("[1,2] x").is_err());
        assert!(Json::parse("true false").is_err());
        assert!(Json::parse("\"a\"b").is_err());
        assert!(Json::parse("1,").is_err());
        // Trailing whitespace (including the newline a JSONL reader might
        // leave attached) is not garbage.
        assert!(Json::parse("{\"a\":1} \n").is_ok());
        assert!(Json::parse(" \t[1] ").is_ok());
    }
}
