//! Minimal JSON support for run reports and flight-recorder dumps.
//!
//! The workspace is fully offline (every dependency is a vendored shim),
//! so there is no serde. This module provides the two halves the
//! observability layer needs:
//!
//! * a tiny writer ([`JsonObj`]/[`escape`]) used by
//!   [`crate::telemetry::TrainReport::to_json`] and the flight recorder,
//! * a strict recursive-descent parser ([`parse`]) used by tests and
//!   tooling to prove the emitted documents round-trip ("parses back" is
//!   part of the flight-recorder contract).
//!
//! The parser is deliberately conservative: bounded nesting depth, no
//! trailing garbage, numbers via `f64`. It exists to validate our own
//! output, not to accept arbitrary hostile documents.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Maximum nesting depth [`parse`] accepts before bailing out.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are sorted (BTreeMap); our writer never emits
    /// duplicate keys, and the parser rejects them.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a.as_slice()),
            _ => None,
        }
    }
}

/// Escapes a string for inclusion inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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

/// Incremental writer for a JSON object: collects `"key": value` pairs
/// and renders them with the caller's indentation.
#[derive(Debug, Default)]
pub struct JsonObj {
    fields: Vec<(String, String)>,
}

impl JsonObj {
    /// An empty object.
    pub fn new() -> JsonObj {
        JsonObj::default()
    }

    /// Adds a pre-rendered JSON value under `key`.
    pub fn raw(&mut self, key: &str, value: impl Into<String>) -> &mut Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Adds a string field (escaped).
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.raw(key, format!("\"{}\"", escape(value)))
    }

    /// Adds an integer field.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.raw(key, value.to_string())
    }

    /// Adds a float field with enough precision for durations in seconds.
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        if value.is_finite() {
            self.raw(key, format!("{value:.6}"))
        } else {
            // JSON has no Inf/NaN; null is the conventional stand-in.
            self.raw(key, "null")
        }
    }

    /// Renders `{...}` with `indent` leading spaces on nested lines.
    pub fn render(&self, indent: usize) -> String {
        if self.fields.is_empty() {
            return "{}".to_string();
        }
        let pad = " ".repeat(indent + 2);
        let close = " ".repeat(indent);
        let body: Vec<String> =
            self.fields.iter().map(|(k, v)| format!("{pad}\"{}\": {v}", escape(k))).collect();
        format!("{{\n{}\n{close}}}", body.join(",\n"))
    }
}

/// Renders a JSON array from pre-rendered element strings.
pub fn render_array(elems: &[String], indent: usize) -> String {
    if elems.is_empty() {
        return "[]".to_string();
    }
    let pad = " ".repeat(indent + 2);
    let close = " ".repeat(indent);
    let body: Vec<String> = elems.iter().map(|e| format!("{pad}{e}")).collect();
    format!("[\n{}\n{close}]", body.join(",\n"))
}

/// Parses a complete JSON document. Trailing non-whitespace, duplicate
/// object keys, and nesting deeper than 64 levels (`MAX_DEPTH`) are
/// errors.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b) = bytes.get(*pos) {
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => *pos += 1,
            _ => break,
        }
    }
}

fn expect_byte(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    match bytes.get(*pos) {
        Some(&b) if b == want => {
            *pos += 1;
            Ok(())
        }
        Some(&b) => {
            Err(format!("expected '{}' at byte {}, found '{}'", want as char, pos, b as char))
        }
        None => Err(format!("expected '{}' at end of input", want as char)),
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err("nesting too deep".to_string());
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9' => *pos += 1,
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| format!("invalid number at byte {start}"))?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect_byte(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
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
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| "invalid \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "invalid \\u escape".to_string())?;
                        // Surrogates are not produced by our writer; map
                        // them to the replacement character rather than
                        // failing the whole parse.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("invalid escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x80 => {
                out.push(b as char);
                *pos += 1;
            }
            Some(_) => {
                // Multi-byte UTF-8: find the char boundary via str.
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| format!("invalid utf-8 at byte {pos}"))?;
                let c = rest.chars().next().ok_or_else(|| "empty char".to_string())?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect_byte(bytes, pos, b'[')?;
    let mut out = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(out));
    }
    loop {
        out.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(out));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect_byte(bytes, pos, b'{')?;
    let mut out = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(out));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect_byte(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth + 1)?;
        if out.insert(key.clone(), value).is_some() {
            return Err(format!("duplicate key '{key}'"));
        }
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(out));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_output_parses_back() {
        let mut inner = JsonObj::new();
        inner.f64("x", 1.5).u64("n", 7);
        let mut obj = JsonObj::new();
        obj.str("name", "guest \"quoted\"\n")
            .raw("inner", inner.render(2))
            .raw("list", render_array(&["1".into(), "2".into()], 2));
        let text = obj.render(0);
        let parsed = parse(&text).expect("parses");
        assert_eq!(parsed.get("name").and_then(Json::as_str), Some("guest \"quoted\"\n"));
        assert_eq!(parsed.get("inner").and_then(|i| i.get("x")).and_then(Json::as_f64), Some(1.5));
        assert_eq!(parsed.get("list").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
    }

    #[test]
    fn parser_accepts_core_forms() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-2.5e1").unwrap(), Json::Num(-25.0));
        assert_eq!(parse("\"a\\u0041\"").unwrap(), Json::Str("aA".into()));
        assert_eq!(parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Json::Obj(BTreeMap::new()));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":1,\"a\":2}", "1 2", "\"unterminated", "{\"a\"}"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
        // Nesting bomb.
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn escape_handles_control_characters() {
        assert_eq!(escape("a\u{1}b"), "a\\u0001b");
        assert_eq!(
            parse(&format!("\"{}\"", escape("a\u{1}b"))).unwrap(),
            Json::Str("a\u{1}b".into())
        );
    }

    #[test]
    fn nonfinite_floats_render_as_null() {
        let mut o = JsonObj::new();
        o.f64("bad", f64::NAN);
        assert_eq!(parse(&o.render(0)).unwrap().get("bad"), Some(&Json::Null));
    }
}
