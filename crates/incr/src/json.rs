//! A minimal JSON value, emitter, and parser shared by the metrics
//! documents (`BENCH_eval.json`), the certificate store, and the `canvas
//! serve` newline-delimited protocol (the workspace builds offline, so no
//! serde).
//!
//! The schemas need only unsigned 64-bit integers (counters, nanosecond
//! totals), strings, booleans, arrays, and objects; object keys keep
//! insertion order so the emitted documents are byte-stable run-to-run.

use std::fmt::Write as _;

/// A JSON document node.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An unsigned integer (the schema has no floats or negatives).
    Int(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

/// Builds an object from `(key, value)` pairs (insertion order preserved).
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The one tag every benchmark document carries: the `eval` experiments'
/// documents and the `canvas fleet` report alike.
pub const BENCH_SCHEMA: &str = "canvas-bench-eval/2";

/// Builds a benchmark document, `{"schema", "deterministic", "measured"}`.
/// Everything under `deterministic` must be byte-identical run to run (it
/// is what baselines gate); `measured` holds timings and scheduling- or
/// machine-dependent values, recorded but never gated.
pub fn bench_document(deterministic: Json, measured: Json) -> Json {
    obj(vec![
        ("schema", Json::Str(BENCH_SCHEMA.to_string())),
        ("deterministic", deterministic),
        ("measured", measured),
    ])
}

impl Json {
    /// The value under `key`, if `self` is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders on a single line with no whitespace — the form required by
    /// newline-delimited protocols (`canvas serve`) and the line-oriented
    /// certificate store, where one value must be one line.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.render_compact_into(&mut out);
        out
    }

    fn render_compact_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_compact_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.render_compact_into(out);
                }
                out.push('}');
            }
        }
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&"  ".repeat(indent + 1));
                    item.render_into(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&"  ".repeat(indent + 1));
                    escape_into(k, out);
                    out.push_str(": ");
                    v.render_into(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }

    /// Parses a document.
    ///
    /// # Errors
    ///
    /// Returns a message with a byte offset on malformed input (including
    /// floats and negative numbers, which the schema never produces).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn escape_into(s: &str, out: &mut String) {
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

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("expected {word:?} at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.bytes.get(self.pos) {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.bytes.get(self.pos), Some(b'.' | b'e' | b'E')) {
            return Err(format!("unsupported non-integer number at byte {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .map(Json::Int)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // copy the run of unescaped bytes up to the next delimiter as one
            // slice: both delimiters are ASCII, so the run ends on a char
            // boundary of the input
            let rest = self.bytes.get(self.pos..).unwrap_or_default();
            let run = rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
            let unescaped = self
                .text
                .get(self.pos..self.pos + run)
                .ok_or_else(|| format!("bad utf-8 at byte {}", self.pos))?;
            out.push_str(unescaped);
            self.pos += run;
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // the run stopped at a backslash
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            out.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| format!("bad codepoint at byte {}", self.pos))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            pairs.push((k, v));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// Structural differences between two documents, as `path: a != b` lines
/// (empty when identical). Object keys are matched by name, arrays by index.
pub fn diff(a: &Json, b: &Json) -> Vec<String> {
    let mut out = Vec::new();
    diff_into(a, b, "$", &mut out);
    out
}

fn diff_into(a: &Json, b: &Json, path: &str, out: &mut Vec<String>) {
    match (a, b) {
        (Json::Obj(pa), Json::Obj(pb)) => {
            for (k, va) in pa {
                match b.get(k) {
                    Some(vb) => diff_into(va, vb, &format!("{path}.{k}"), out),
                    None => out.push(format!("{path}.{k}: present vs missing")),
                }
            }
            for (k, _) in pb {
                if a.get(k).is_none() {
                    out.push(format!("{path}.{k}: missing vs present"));
                }
            }
        }
        (Json::Arr(xa), Json::Arr(xb)) => {
            if xa.len() != xb.len() {
                out.push(format!("{path}: length {} vs {}", xa.len(), xb.len()));
            }
            for (i, (va, vb)) in xa.iter().zip(xb).enumerate() {
                diff_into(va, vb, &format!("{path}[{i}]"), out);
            }
        }
        _ if a == b => {}
        _ => out.push(format!("{path}: {} vs {}", scalar(a), scalar(b))),
    }
}

fn scalar(v: &Json) -> String {
    match v {
        Json::Arr(_) | Json::Obj(_) => "<composite>".to_string(),
        other => {
            let mut s = String::new();
            other.render_into(&mut s, 0);
            s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Json {
        obj(vec![
            ("schema", Json::Str("canvas-bench-eval/2".to_string())),
            (
                "cells",
                Json::Arr(vec![
                    obj(vec![
                        ("name", Json::Str("fig3 \"quoted\"\n".to_string())),
                        ("work", Json::Int(u64::MAX)),
                        ("failed", Json::Bool(false)),
                    ]),
                    Json::Null,
                ]),
            ),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ])
    }

    #[test]
    fn roundtrip_is_identity() {
        let d = doc();
        let text = d.render();
        let back = Json::parse(&text).expect("own output parses");
        assert_eq!(back, d);
        // and re-rendering is byte-stable
        assert_eq!(back.render(), text);
    }

    #[test]
    fn compact_rendering_is_one_line_and_round_trips() {
        let d = doc();
        let line = d.render_compact();
        assert!(!line.contains('\n'), "{line:?}");
        assert!(!line.contains(": "), "no pretty separators: {line:?}");
        assert_eq!(Json::parse(&line), Ok(d));
        assert_eq!(Json::Obj(vec![]).render_compact(), "{}");
        assert_eq!(Json::Arr(vec![]).render_compact(), "[]");
    }

    #[test]
    fn strings_with_multibyte_text_and_escapes_round_trip() {
        let parsed = Json::parse(r#""é\"ü\\→\u00e9x\u0041\n✓""#).expect("parses");
        assert_eq!(parsed, Json::Str("é\"ü\\→éxA\n✓".to_string()));
        let big: String = (0..80_000).map(|k| ["é", "\"", "a", "→", "\\", "\n"][k % 6]).collect();
        assert!(big.len() > 100_000);
        let text = Json::Str(big.clone()).render_compact();
        assert_eq!(Json::parse(&text), Ok(Json::Str(big)));
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "1.5", "-3", "nul", "\"abc", "1 2"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parse_rejects_trailing_garbage_after_the_top_level_value() {
        // a valid prefix must not parse prefix-only; the error names the
        // byte offset of the first trailing character
        for (input, at) in
            [("{} {}", 3), ("[1] 2", 4), ("true false", 5), ("null,", 4), ("\"s\"x", 3)]
        {
            let err = Json::parse(input).expect_err(input);
            assert!(
                err.contains(&format!("trailing input at byte {at}")),
                "{input:?}: error {err:?} should point at byte {at}"
            );
        }
        // trailing *whitespace* is not garbage
        assert_eq!(Json::parse("42 \n"), Ok(Json::Int(42)));
    }

    #[test]
    fn parse_error_paths_report_offsets() {
        for (bad, needle) in [
            ("{\"k\" 1}", "expected ':'"),
            ("[1 2]", "expected ',' or ']'"),
            ("{\"a\":1 \"b\":2}", "expected ',' or '}'"),
            ("\"\\q\"", "bad escape"),
            ("\"\\u12\"", "bad \\u escape"),
            ("\"\\ud800\"", "bad codepoint"),
            ("1e3", "non-integer"),
            ("99999999999999999999", "bad number"),
            ("tru", "expected \"true\""),
            ("\"open", "unterminated string"),
        ] {
            let err = Json::parse(bad).expect_err(bad);
            assert!(err.contains(needle), "{bad:?}: error {err:?} should mention {needle:?}");
        }
    }

    #[test]
    fn diff_reports_paths() {
        let a = obj(vec![("x", Json::Int(1)), ("y", Json::Arr(vec![Json::Int(2)]))]);
        let b = obj(vec![("x", Json::Int(3)), ("y", Json::Arr(vec![Json::Int(2)]))]);
        let d = diff(&a, &b);
        assert_eq!(d, vec!["$.x: 1 vs 3".to_string()]);
        assert!(diff(&a, &a).is_empty());
        let c = obj(vec![("x", Json::Int(1))]);
        let d = diff(&a, &c);
        assert_eq!(d, vec!["$.y: present vs missing".to_string()]);
    }

    #[test]
    fn get_looks_up_object_keys() {
        let d = doc();
        assert_eq!(d.get("schema"), Some(&Json::Str("canvas-bench-eval/2".to_string())));
        assert_eq!(d.get("nope"), None);
        assert_eq!(Json::Int(3).get("x"), None);
    }
}
