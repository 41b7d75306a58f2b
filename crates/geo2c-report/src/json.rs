//! A minimal, dependency-free JSON value type with a hand-rolled parser
//! and a *stable* renderer.
//!
//! The build environment is offline (no `serde`), and the vendor-shim
//! policy of this workspace prefers small in-tree implementations with
//! upstream-compatible semantics. Two properties matter more here than
//! feature coverage:
//!
//! 1. **Stable output** — `EXPERIMENTS.md` and the committed files under
//!    `results/` must regenerate byte-identically from the committed
//!    seeds, so object keys keep insertion order and numbers render via
//!    Rust's shortest-round-trip `Display`.
//! 2. **Lossless round-trips** — `parse(render(v)) == v` for every value
//!    the harness produces (integers up to 2^53, finite floats, strings
//!    with escapes, nested arrays/objects).

use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order (rendering is stable).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; integers are exact up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered list of `(key, value)` pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds a string value.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds a number from anything convertible to `f64` losslessly
    /// enough for the harness (`u32`, `u64` counts ≤ 2^53, `f64`).
    #[must_use]
    pub fn num(x: impl Into<f64>) -> Json {
        Json::Num(x.into())
    }

    /// Builds a number from a `usize` (exact up to 2^53).
    #[must_use]
    pub fn from_usize(x: usize) -> Json {
        Json::Num(x as f64)
    }

    /// Builds a number from a `u64` (exact up to 2^53).
    #[must_use]
    pub fn from_u64(x: u64) -> Json {
        Json::Num(x as f64)
    }

    /// Object field lookup (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integral number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => Some(*x as u64),
            _ => None,
        }
    }

    /// The value as `usize`, if it is a non-negative integral number.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|x| x as usize)
    }

    /// The value as `&str`, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice, if it is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as ordered fields, if it is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Renders compactly (no whitespace). Stable: key order is preserved
    /// and numbers use shortest-round-trip formatting.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders with newlines and two-space indentation — the format of
    /// the committed files under `results/`.
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_number(out, *x),
            Json::Str(s) => write_string(out, s),
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
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (rejects trailing garbage).
    ///
    /// # Errors
    /// Returns a [`JsonError`] with a byte offset on malformed input.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError::at(pos, "trailing characters after value"));
        }
        Ok(value)
    }
}

/// Writes `x` as a JSON number: integers without a fraction, everything
/// else via `f64`'s shortest-round-trip `Display`.
fn write_number(out: &mut String, x: f64) {
    assert!(x.is_finite(), "JSON cannot represent non-finite number {x}");
    if x.fract() == 0.0 && x.abs() <= 2f64.powi(53) {
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x}");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// A parse error with the byte offset where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl JsonError {
    fn at(offset: usize, message: impl Into<String>) -> Self {
        Self {
            offset,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonError::at(*pos, format!("expected '{}'", byte as char)))
    }
}

/// How deep arrays and objects may nest. The committed results files
/// nest about 6 levels; the cap keeps a hostile file from overflowing the
/// parser's stack, since every `[` or `{` recurses once.
const MAX_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    if depth >= MAX_DEPTH && matches!(bytes.get(*pos), Some(b'{' | b'[')) {
        return Err(JsonError::at(
            *pos,
            format!("nesting deeper than {MAX_DEPTH} levels"),
        ));
    }
    match bytes.get(*pos) {
        None => Err(JsonError::at(*pos, "unexpected end of input")),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(JsonError::at(*pos, format!("expected '{word}'")))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| JsonError::at(start, "invalid number bytes"))?;
    match text.parse::<f64>() {
        // Overflowing literals (1e999) parse to ±inf in Rust; JSON has no
        // non-finite numbers and the renderer asserts finiteness, so
        // reject them here instead of panicking at re-render time.
        Ok(x) if x.is_finite() => Ok(Json::Num(x)),
        _ => Err(JsonError::at(start, format!("invalid number '{text}'"))),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err(JsonError::at(*pos, "unterminated string"));
        };
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let Some(&esc) = bytes.get(*pos) else {
                    return Err(JsonError::at(*pos, "unterminated escape"));
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000C}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let code = parse_hex4(bytes, pos)?;
                        // Surrogate pairs: a leading surrogate must be
                        // followed by \uXXXX carrying a trailing
                        // surrogate; anything else is an error (lone
                        // surrogates fail the char::from_u32 below).
                        let c = if (0xD800..0xDC00).contains(&code) {
                            if bytes.get(*pos) == Some(&b'\\') && bytes.get(*pos + 1) == Some(&b'u')
                            {
                                *pos += 2;
                                let low = parse_hex4(bytes, pos)?;
                                if (0xDC00..0xE000).contains(&low) {
                                    char::from_u32(
                                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00),
                                    )
                                } else {
                                    None
                                }
                            } else {
                                None
                            }
                        } else {
                            char::from_u32(code)
                        };
                        out.push(c.ok_or_else(|| JsonError::at(*pos, "invalid \\u escape"))?);
                    }
                    other => {
                        return Err(JsonError::at(
                            *pos - 1,
                            format!("invalid escape '\\{}'", other as char),
                        ));
                    }
                }
            }
            _ => {
                // Copy one UTF-8 scalar (input is &str, so boundaries are valid).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| JsonError::at(*pos, "invalid UTF-8"))?;
                let c = rest.chars().next().unwrap();
                if (c as u32) < 0x20 {
                    return Err(JsonError::at(*pos, "unescaped control character"));
                }
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, JsonError> {
    if *pos + 4 > bytes.len() {
        return Err(JsonError::at(*pos, "truncated \\u escape"));
    }
    let hex = std::str::from_utf8(&bytes[*pos..*pos + 4])
        .map_err(|_| JsonError::at(*pos, "invalid \\u escape"))?;
    let code =
        u32::from_str_radix(hex, 16).map_err(|_| JsonError::at(*pos, "invalid \\u escape"))?;
    *pos += 4;
    Ok(code)
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(JsonError::at(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(JsonError::at(*pos, "expected ',' or '}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) {
        assert_eq!(&Json::parse(&v.render()).unwrap(), v);
        assert_eq!(&Json::parse(&v.render_pretty()).unwrap(), v);
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Num(0.0),
            Json::Num(-17.0),
            Json::Num(0.1),
            Json::Num(1e-9),
            Json::Num(9_007_199_254_740_992.0), // 2^53
            Json::Str(String::new()),
            Json::str("plain"),
            Json::str("esc \" \\ \n \t \u{1}"),
            Json::str("unicode: φ δ ∈ 🎲"),
        ] {
            roundtrip(&v);
        }
    }

    #[test]
    fn nested_roundtrip() {
        let v = Json::Obj(vec![
            ("id".into(), Json::str("table1")),
            (
                "ns".into(),
                Json::Arr(vec![Json::Num(256.0), Json::Num(4096.0)]),
            ),
            (
                "cells".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("d".into(), Json::Num(2.0)),
                    (
                        "dist".into(),
                        Json::Arr(vec![Json::Arr(vec![Json::Num(4.0), Json::Num(881.0)])]),
                    ),
                    ("note".into(), Json::Null),
                ])]),
            ),
            ("empty_obj".into(), Json::Obj(vec![])),
            ("empty_arr".into(), Json::Arr(vec![])),
        ]);
        roundtrip(&v);
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for text in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
            let err = Json::parse(&text).expect_err("100,000 levels must be refused");
            assert!(err.message.contains("nesting"), "{err}");
        }
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_cap).is_ok());
        let past_cap = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&past_cap).is_err());
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(42.0).render(), "42");
        assert_eq!(Json::Num(-3.0).render(), "-3");
        assert_eq!(Json::Num(2.5).render(), "2.5");
    }

    #[test]
    fn object_key_order_is_preserved() {
        let text = r#"{"z": 1, "a": 2, "m": 3}"#;
        let v = Json::parse(text).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a", "m"]);
        assert_eq!(v.render(), r#"{"z":1,"a":2,"m":3}"#);
    }

    #[test]
    fn pretty_rendering_is_stable() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Num(1.0)),
            ("b".into(), Json::Arr(vec![Json::Num(2.0), Json::Num(3.0)])),
        ]);
        let expected = "{\n  \"a\": 1,\n  \"b\": [\n    2,\n    3\n  ]\n}\n";
        assert_eq!(v.render_pretty(), expected);
        // Stability: re-rendering a parse of the output reproduces it.
        assert_eq!(Json::parse(expected).unwrap().render_pretty(), expected);
    }

    #[test]
    fn surrogate_pair_parses() {
        let v = Json::parse(r#""🎲""#).unwrap();
        assert_eq!(v.as_str(), Some("🎲"));
        // The escaped surrogate pair decodes to the same scalar (U+1F3B2).
        let v = Json::parse("\"\\uD83C\\uDFB2\"").unwrap();
        assert_eq!(v.as_str(), Some("🎲"));
    }

    #[test]
    fn malformed_surrogates_are_errors_not_garbage() {
        // A high surrogate must be followed by a valid low surrogate;
        // these are errors (never panics, never mojibake).
        for text in [
            "\"\\uD800\\u0041\"", // trailing escape is not a low surrogate
            r#""\uD800x""#,       // no trailing escape at all
            r#""\uD800""#,        // string ends after the high surrogate
            r#""\uDC00""#,        // lone low surrogate
        ] {
            assert!(Json::parse(text).is_err(), "should reject: {text}");
        }
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"n": 256, "x": 1.5, "s": "hi", "a": [1]}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(256));
        assert_eq!(v.get("n").and_then(Json::as_usize), Some(256));
        assert_eq!(v.get("x").and_then(Json::as_f64), Some(1.5));
        assert_eq!(v.get("x").and_then(Json::as_u64), None);
        assert_eq!(v.get("s").and_then(Json::as_str), Some("hi"));
        assert_eq!(
            v.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn malformed_inputs_error() {
        for text in [
            "",
            "{",
            "[1,",
            "tru",
            r#"{"a" 1}"#,
            r#""unterminated"#,
            "1 2",
            r#""bad \q escape""#,
            "nan",
            "1e999",  // overflows f64 to inf — not representable
            "-1e999", // likewise
        ] {
            assert!(Json::parse(text).is_err(), "should reject: {text}");
        }
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_numbers_panic_on_render() {
        let _ = Json::Num(f64::NAN).render();
    }
}
