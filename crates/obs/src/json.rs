//! Hand-rolled JSON: a value type, a writer, and a parser.
//!
//! The workspace builds without crates.io access, so it cannot use
//! `serde_json`. This module supplies the JSON needed in-tree: the
//! trace sink ([`crate::JsonLinesSink`]) writes events through
//! [`Value::write_compact`], and `rascad-spec` builds its interchange
//! format on [`parse`] / [`Value::to_string_pretty`].
//!
//! Dialect notes:
//!
//! * Writing: strings are escaped per RFC 8259 (`"`, `\`, control
//!   characters as `\n`, `\t`, … or `\u00XX`); non-finite floats have
//!   no JSON representation and are written as `null`.
//! * Parsing: strict JSON with two deliberate liberalities — any
//!   numeric token parseable as `f64` is accepted, and object keys must
//!   be strings but may repeat (later entries are kept alongside
//!   earlier ones; [`Value::get`] returns the first).

use std::fmt::Write as _;

/// Maximum nesting depth accepted by [`parse`], guarding recursive
/// descent against stack overflow on adversarial inputs.
const MAX_DEPTH: usize = 128;

/// A JSON document value.
///
/// Integers and floats are kept distinct so that values such as block
/// quantities round-trip as integers while rates keep their full `f64`
/// precision (written via Rust's shortest-roundtrip formatting).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without fraction or exponent, within `i64`.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved when writing.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Numeric accessor: accepts [`Value::Int`] and [`Value::Num`].
    #[must_use]
    #[allow(clippy::cast_precision_loss)] // JSON numbers tolerate i64 -> f64 rounding
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Integer accessor ([`Value::Int`] only).
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String accessor.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean accessor.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array accessor.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Object accessor.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Looks up the first entry named `key` in an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(o) => o.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Whether this is `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Serializes on one line with no extra whitespace.
    #[must_use]
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Serializes with two-space indentation.
    #[must_use]
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    /// Appends the compact serialization to `out`.
    pub fn write_compact(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Num(x) => write_f64(out, *x),
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_compact(out);
                }
                out.push(']');
            }
            Value::Obj(o) => {
                out.push('{');
                for (i, (k, v)) in o.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Value::Arr(a) if !a.is_empty() => {
                out.push_str("[\n");
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Value::Obj(o) if !o.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in o.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl From<u64> for Value {
    #[allow(clippy::cast_precision_loss)] // values beyond i64 round like any JSON number
    fn from(u: u64) -> Value {
        i64::try_from(u).map_or(Value::Num(u as f64), Value::Int)
    }
}

impl From<u32> for Value {
    fn from(u: u32) -> Value {
        Value::Int(i64::from(u))
    }
}

impl From<usize> for Value {
    fn from(u: usize) -> Value {
        Value::from(u as u64)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::Num(x)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Writes an `f64`; non-finite values become `null` (JSON has no
/// representation for them).
fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        // `{:?}` is Rust's shortest representation that parses back to
        // the identical bit pattern, and always contains a `.` or `e`.
        let _ = write!(out, "{x:?}");
    } else {
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse error: byte offset into the input plus a description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
///
/// # Errors
///
/// Returns [`JsonError`] with the byte offset of the first problem.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser { text: input, bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { offset: self.pos, message: message.into() }
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
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(entries));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"').map_err(|_| self.err("expected string"))?;
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
                            self.pos += 1;
                            let cp = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&cp) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                                    char::from_u32(c)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("unescaped control character in string"));
                }
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control byte in one go. Those bytes are ASCII, so
                    // the run ends on a char boundary of the input.
                    let start = self.pos;
                    let run = self.bytes[start..]
                        .iter()
                        .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                        .unwrap_or(self.bytes.len() - start);
                    self.pos += run;
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(digits, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut saw_fraction = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    saw_fraction = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number token");
        if !saw_fraction {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Num(x)),
            _ => {
                self.pos = start;
                Err(self.err(format!("invalid number `{text}`")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        for (text, v) in [
            ("null", Value::Null),
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
            ("42", Value::Int(42)),
            ("-7", Value::Int(-7)),
            ("1.5", Value::Num(1.5)),
            ("\"hi\"", Value::Str("hi".into())),
        ] {
            assert_eq!(parse(text).unwrap(), v, "{text}");
            assert_eq!(parse(&v.to_string_compact()).unwrap(), v);
        }
    }

    #[test]
    fn float_precision_roundtrips() {
        for x in [0.1, 1e-300, 12345.6789, 2.2250738585072014e-308, 1.7976931348623157e308] {
            let v = Value::Num(x);
            let back = parse(&v.to_string_compact()).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Value::Num(f64::NAN).to_string_compact(), "null");
        assert_eq!(Value::Num(f64::INFINITY).to_string_compact(), "null");
        assert_eq!(Value::Num(f64::NEG_INFINITY).to_string_compact(), "null");
    }

    #[test]
    fn string_escaping_roundtrips() {
        let nasty = "a\"b\\c\nd\te\r\u{8}\u{c}\u{1}é✓\u{10348}";
        let v = Value::Str(nasty.into());
        let text = v.to_string_compact();
        assert!(text.contains("\\\""));
        assert!(text.contains("\\n"));
        assert!(text.contains("\\u0001"));
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn surrogate_pairs_parse() {
        assert_eq!(parse("\"\\ud800\\udf48\"").unwrap(), Value::Str("\u{10348}".into()));
        assert!(parse("\"\\ud800\"").is_err());
        assert!(parse("\"\\ud800x\"").is_err());
    }

    #[test]
    fn multibyte_runs_next_to_escapes_and_surrogates() {
        let text = "\"é✓\\n日本\\ud83d\\ude00€\\\"x\\u00e9ü\\t\u{1F600}\"";
        let want = "é✓\n日本\u{1F600}€\"xéü\t\u{1F600}";
        assert_eq!(parse(text).unwrap(), Value::Str(want.into()));
        let doc = format!("{{\"k✓\":[{text},\"\",\"a\"]}}");
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k✓").unwrap().as_array().unwrap()[0].as_str(), Some(want));
    }

    #[test]
    fn control_byte_rejected_at_its_offset() {
        // Quote at 0, `ab` at 1-2, `✓` at 3-5, the control byte at 6.
        let e = parse("\"ab✓\u{1}c\"").unwrap_err();
        assert_eq!((e.offset, e.message.as_str()), (6, "unescaped control character in string"));
        let e = parse("[\"é\\n\u{1f}\"]").unwrap_err();
        assert_eq!((e.offset, e.message.as_str()), (6, "unescaped control character in string"));
        let e = parse("\"abc✓").unwrap_err();
        assert_eq!((e.offset, e.message.as_str()), (7, "unterminated string"));
    }

    #[test]
    fn mebibyte_mixed_body_roundtrips() {
        let piece = "diagram \"Shop\" {\n\tblock \"Wéb ✓\" { mtbf = 5e4 h }\u{1}\u{1F600}\\ }\r";
        let mut s = String::new();
        while s.len() < 1 << 20 {
            s.push_str(piece);
        }
        let v = Value::Obj(vec![
            ("tenant".into(), Value::Str("t✓".into())),
            ("spec".into(), Value::Str(s)),
        ]);
        let text = v.to_string_compact();
        assert!(text.len() > 1 << 20);
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn nested_structures() {
        let text = r#"{"a": [1, 2.5, {"b": null}], "c": "d", "a": true}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap().as_str(), Some("d"));
        let back = parse(&v.to_string_pretty()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn malformed_inputs_rejected() {
        for text in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "nul",
            "tru",
            "01x",
            "\"\\q\"",
            "[1] garbage",
            "{1: 2}",
            "\"abc",
            "1e",
            "--3",
        ] {
            assert!(parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn depth_limit_enforced() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(50) + &"]".repeat(50);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn error_reports_offset() {
        let e = parse("[1, x]").unwrap_err();
        assert_eq!(e.offset, 4);
        assert!(e.to_string().contains("byte 4"));
    }

    #[test]
    fn big_u64_falls_back_to_float() {
        let v = Value::from(u64::MAX);
        assert!(matches!(v, Value::Num(_)));
        let v = Value::from(u64::from(u32::MAX));
        assert_eq!(v, Value::Int(4294967295));
    }
}
