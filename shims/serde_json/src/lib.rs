//! Offline stand-in for `serde_json`, reduced to the JSON value type.
//!
//! Provides the subset this workspace uses: [`Value`], an insertion-ordered
//! [`Map`], the [`json!`] macro, [`to_string`] / [`to_string_pretty`]
//! (matching serde_json's 2-space pretty format) and [`from_str`], which
//! parses into a [`Value`]. There is no trait framework: `json!` converts its
//! expressions with the `From` impls below, as real serde_json's `Value`
//! also offers, and callers that write a format of their own encode it by
//! hand.

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object (insertion-ordered).
    Object(Map),
}

/// A JSON number (integer or float).
#[derive(Clone, Debug, PartialEq)]
pub enum Number {
    /// Any integer.
    Int(i128),
    /// A float.
    Float(f64),
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Number::Int(v) => write!(f, "{v}"),
            // JSON has no NaN or infinity: they are written as `null`, as
            // serde_json writes them.
            Number::Float(v) if !v.is_finite() => f.write_str("null"),
            Number::Float(v) if v.fract() == 0.0 && v.abs() < 1e15 => write!(f, "{v:.1}"),
            // Integer-valued past `i128`: bare digits would not parse back,
            // the exponent form reads back as a float.
            Number::Float(v) if v.abs() >= i128::MAX as f64 => write!(f, "{v:e}"),
            Number::Float(v) => write!(f, "{v}"),
        }
    }
}

/// An insertion-ordered string-keyed map.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// Creates an empty map.
    pub fn new() -> Self {
        Map {
            entries: Vec::new(),
        }
    }

    /// Inserts a key/value pair, replacing an existing entry with the same key.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            Some(std::mem::replace(&mut slot.1, value))
        } else {
            self.entries.push((key, value));
            None
        }
    }

    /// Looks up a key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// True if the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Iterates over `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

static NULL: Value = Value::Null;

impl Value {
    /// True if the value is a string.
    pub fn is_string(&self) -> bool {
        matches!(self, Value::String(_))
    }

    /// The string payload, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The array payload, if any.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The object payload, if any.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The integer payload, if any.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(Number::Int(v)) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The integer payload, if any.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(Number::Int(v)) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The boolean payload, if any.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Member lookup; returns `Null` for missing keys (like serde_json).
    pub fn get_key(&self, key: &str) -> &Value {
        match self {
            Value::Object(map) => map.get(key).unwrap_or(&NULL),
            _ => &NULL,
        }
    }

    /// Index lookup; returns `Null` out of bounds (like serde_json).
    pub fn get_index(&self, index: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(index).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        self.get_key(key)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;

    fn index(&self, index: usize) -> &Value {
        self.get_index(index)
    }
}

macro_rules! value_eq {
    ($($ty:ty),*) => {$(
        impl PartialEq<$ty> for Value {
            fn eq(&self, other: &$ty) -> bool {
                matches!(self, Value::Number(Number::Int(v)) if *v == *other as i128)
            }
        }
        impl PartialEq<Value> for $ty {
            fn eq(&self, other: &Value) -> bool {
                other == self
            }
        }
    )*};
}

value_eq!(i32, i64, u32, u64, usize);

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        matches!(self, Value::String(s) if s == other)
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        matches!(self, Value::Bool(b) if b == other)
    }
}

// ---------------------------------------------------------------------------
// Conversions (what `json!` calls for an expression)
// ---------------------------------------------------------------------------

macro_rules! from_int {
    ($($ty:ty),*) => {$(
        impl From<$ty> for Value {
            fn from(v: $ty) -> Value {
                Value::Number(Number::Int(v as i128))
            }
        }
    )*};
}

from_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, i128);

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Number(Number::Float(v))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::String(s)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_string())
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(elems: Vec<T>) -> Value {
        Value::Array(elems.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

/// Error produced by [`from_str`] on malformed input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error(pub String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

// ---------------------------------------------------------------------------
// Printing
// ---------------------------------------------------------------------------

/// Appends `s` as a JSON string literal, copying the runs between bytes that
/// need an escape in one piece (every such byte is ASCII, so the run
/// boundaries are character boundaries).
fn escape_into(out: &mut String, s: &str) {
    use fmt::Write as _;
    out.push('"');
    let mut clean = 0;
    for (i, byte) in s.bytes().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0x00..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[clean..i]);
        if escape.is_empty() {
            write!(out, "\\u{byte:04x}").expect("writing to a String cannot fail");
        } else {
            out.push_str(escape);
        }
        clean = i + 1;
    }
    out.push_str(&s[clean..]);
    out.push('"');
}

fn write_compact(out: &mut String, value: &Value) {
    use fmt::Write as _;
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => write!(out, "{n}").expect("writing to a String cannot fail"),
        Value::String(s) => escape_into(out, s),
        Value::Array(elems) => {
            out.push('[');
            for (i, v) in elems.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(out, v);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(out, k);
                out.push(':');
                write_compact(out, v);
            }
            out.push('}');
        }
    }
}

/// Appends a line break and `levels` levels of 2-space indentation.
fn newline(out: &mut String, levels: usize) {
    const SPACES: &str = "                                                                ";
    out.push('\n');
    let mut left = 2 * levels;
    while left > 0 {
        let n = left.min(SPACES.len());
        out.push_str(&SPACES[..n]);
        left -= n;
    }
}

fn write_pretty(out: &mut String, value: &Value, indent: usize) {
    match value {
        Value::Array(elems) if !elems.is_empty() => {
            out.push('[');
            for (i, v) in elems.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent + 1);
                write_pretty(out, v, indent + 1);
            }
            newline(out, indent);
            out.push(']');
        }
        Value::Object(map) if !map.is_empty() => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent + 1);
                escape_into(out, k);
                out.push_str(": ");
                write_pretty(out, v, indent + 1);
            }
            newline(out, indent);
            out.push('}');
        }
        other => write_compact(out, other),
    }
}

/// Renders a value as compact JSON. Never fails; the `Result` is serde_json's
/// signature.
pub fn to_string(value: &Value) -> Result<String, Error> {
    let mut out = String::new();
    write_compact(&mut out, value);
    Ok(out)
}

/// Renders a value as pretty JSON (2-space indent, like serde_json). Never
/// fails; the `Result` is serde_json's signature.
pub fn to_string_pretty(value: &Value) -> Result<String, Error> {
    let mut out = String::new();
    write_pretty(&mut out, value, 0);
    Ok(out)
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Parses into a [`Value`]. The input is a `&str`, so every slice cut at an
/// ASCII delimiter is valid UTF-8.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn byte(&self, at: usize) -> Option<u8> {
        self.text.as_bytes().get(at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.byte(self.pos)
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            None => Err(Error("unexpected end of input".into())),
            Some(b'n') => self.keyword("null", Value::Null),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut elems = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(elems));
                }
                loop {
                    elems.push(self.parse_value()?);
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(elems));
                        }
                        _ => return Err(Error(format!("expected ',' or ']' at {}", self.pos))),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                // A repeated key replaces the earlier entry, as in `Map`.
                let mut map = Map::new();
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
                        _ => return Err(Error(format!("expected ',' or '}}' at {}", self.pos))),
                    }
                }
            }
            Some(_) => self.parse_number(),
        }
    }

    fn keyword(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        self.skip_ws();
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error(format!("invalid literal at {}", self.pos)))
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.skip_ws();
        if self.byte(self.pos) != Some(b'"') {
            return Err(Error(format!("expected string at {}", self.pos)));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy everything up to the next quote or backslash in one piece.
            let rest = &self.text[self.pos..];
            let run = rest
                .bytes()
                .position(|b| b == b'"' || b == b'\\')
                .ok_or_else(|| Error("unterminated string".into()))?;
            out.push_str(&rest[..run]);
            self.pos += run + 1;
            if rest.as_bytes()[run] == b'"' {
                return Ok(out);
            }
            match self.byte(self.pos) {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{08}'),
                Some(b'f') => out.push('\u{0c}'),
                Some(b'u') => {
                    let hex = self
                        .text
                        .get(self.pos + 1..self.pos + 5)
                        .ok_or_else(|| Error("truncated \\u escape".into()))?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| Error("invalid \\u escape".into()))?;
                    out.push(
                        char::from_u32(code).ok_or_else(|| Error("invalid \\u escape".into()))?,
                    );
                    self.pos += 4;
                }
                _ => return Err(Error("invalid escape".into())),
            }
            self.pos += 1;
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        let start = self.pos;
        while matches!(
            self.byte(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if text.contains(['.', 'e', 'E']) {
            text.parse::<f64>()
                .map(Value::from)
                .map_err(|_| Error(format!("invalid number `{text}`")))
        } else {
            text.parse::<i128>()
                .map(Value::from)
                .map_err(|_| Error(format!("invalid number `{text}`")))
        }
    }
}

/// Parses JSON text into a [`Value`].
pub fn from_str(text: &str) -> Result<Value, Error> {
    let mut parser = Parser { text, pos: 0 };
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != text.len() {
        return Err(Error(format!("trailing input at byte {}", parser.pos)));
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// json! macro
// ---------------------------------------------------------------------------

/// Builds a [`Value`] from a JSON-like literal (subset of serde_json's
/// `json!`: object/array literals, `null`, booleans and any expression with a
/// `From` conversion into [`Value`]; object keys must be string literals).
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    (true) => { $crate::Value::Bool(true) };
    (false) => { $crate::Value::Bool(false) };
    ([]) => { $crate::Value::Array(::std::vec::Vec::new()) };
    ([ $($tt:tt)+ ]) => {
        $crate::Value::Array($crate::json_array_internal!(@acc [] [] $($tt)+))
    };
    ({}) => { $crate::Value::Object($crate::Map::new()) };
    ({ $($tt:tt)+ }) => {{
        let mut object = $crate::Map::new();
        $crate::json_object_internal!(object () $($tt)+);
        $crate::Value::Object(object)
    }};
    ($other:expr) => { $crate::Value::from($other) };
}

/// Internal muncher for `json!` object bodies. Not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! json_object_internal {
    // End of input.
    ($object:ident ()) => {};
    // Start of an entry: grab the key, then accumulate value tokens.
    ($object:ident () $key:literal : $($rest:tt)*) => {
        $crate::json_object_value!($object $key [] $($rest)*)
    };
}

/// Internal muncher accumulating one object value. Not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! json_object_value {
    // A top-level comma ends the value.
    ($object:ident $key:literal [$($val:tt)+] , $($rest:tt)*) => {
        $object.insert($key.to_string(), $crate::json!($($val)+));
        $crate::json_object_internal!($object () $($rest)*);
    };
    // End of input ends the value.
    ($object:ident $key:literal [$($val:tt)+]) => {
        $object.insert($key.to_string(), $crate::json!($($val)+));
    };
    // Otherwise munch one token.
    ($object:ident $key:literal [$($val:tt)*] $next:tt $($rest:tt)*) => {
        $crate::json_object_value!($object $key [$($val)* $next] $($rest)*)
    };
}

/// Internal muncher for `json!` array bodies: accumulates completed elements
/// (each as a bracketed token group) and expands to a single `vec![...]`.
/// Not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! json_array_internal {
    // End of input with no element in progress (covers trailing commas).
    (@acc [$([$($done:tt)*])*] []) => {
        ::std::vec![ $( $crate::json!($($done)*) ),* ]
    };
    // End of input: flush the in-progress element.
    (@acc [$([$($done:tt)*])*] [$($cur:tt)+]) => {
        ::std::vec![ $( $crate::json!($($done)*), )* $crate::json!($($cur)+) ]
    };
    // A top-level comma completes the in-progress element.
    (@acc [$($done:tt)*] [$($cur:tt)+] , $($rest:tt)*) => {
        $crate::json_array_internal!(@acc [$($done)* [$($cur)+]] [] $($rest)*)
    };
    // Otherwise munch one token into the in-progress element.
    (@acc [$($done:tt)*] [$($cur:tt)*] $next:tt $($rest:tt)*) => {
        $crate::json_array_internal!(@acc [$($done)*] [$($cur)* $next] $($rest)*)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_macro_builds_nested_values() {
        let count = 2usize;
        let v = json!({
            "a": 1,
            "b": { "c": "text", "d": [1, 2, 3] },
            "count": count,
            "flag": true,
            "nothing": null,
            "absent": None::<u64>,
            "list": vec![4u64, 5],
            "ratio": 0.25f64,
            "byte": 7u8,
            "wide": i128::MIN,
        });
        assert_eq!(v["a"], 1);
        assert_eq!(v["b"]["c"], "text");
        assert_eq!(v["b"]["d"].as_array().unwrap().len(), 3);
        assert_eq!(v["count"], 2usize);
        assert_eq!(v["flag"], true);
        assert_eq!(v["nothing"], Value::Null);
        assert_eq!(v["missing"], Value::Null);
        assert_eq!(v["absent"], Value::Null);
        assert_eq!(v["list"], json!([4, 5]));
        assert_eq!(v["ratio"], Value::Number(Number::Float(0.25)));
        assert_eq!(v["byte"], 7u32);
        assert_eq!(v["wide"], Value::Number(Number::Int(i128::MIN)));
    }

    #[test]
    fn pretty_printing_matches_serde_json_layout() {
        let v = json!({ "a": 1, "b": [true, "x"] });
        let text = to_string_pretty(&v).unwrap();
        assert_eq!(
            text,
            "{\n  \"a\": 1,\n  \"b\": [\n    true,\n    \"x\"\n  ]\n}"
        );
        let compact = to_string(&v).unwrap();
        assert_eq!(compact, "{\"a\":1,\"b\":[true,\"x\"]}");

        // Shaped like the repository benchmark's `results.json`.
        let (seed, nproc) = (1u64, 2usize);
        let results = json!({
            "commit": "abc123".to_string(),
            "nproc": nproc,
            "seed": seed,
            "workloads": {
                "router_lpm_cold": {
                    "attempted": 12u64,
                    "failed": 0u64,
                    "end_to_end": {
                        "verdict_ms": { "value": 0.13236162299999998, "unit": "ms" },
                        "peak_rss_mb": { "value": 40.5, "unit": "MB" },
                        "setup_s": { "value": 12.0, "unit": "s" },
                        "report_bytes": { "value": 1e20, "unit": "bytes" },
                    },
                    "per_layer": {},
                },
            },
            "notes": [],
        });
        let expected = r#"{
  "commit": "abc123",
  "nproc": 2,
  "seed": 1,
  "workloads": {
    "router_lpm_cold": {
      "attempted": 12,
      "failed": 0,
      "end_to_end": {
        "verdict_ms": {
          "value": 0.13236162299999998,
          "unit": "ms"
        },
        "peak_rss_mb": {
          "value": 40.5,
          "unit": "MB"
        },
        "setup_s": {
          "value": 12.0,
          "unit": "s"
        },
        "report_bytes": {
          "value": 100000000000000000000,
          "unit": "bytes"
        }
      },
      "per_layer": {}
    }
  },
  "notes": []
}"#;
        assert_eq!(to_string_pretty(&results).unwrap(), expected);
    }

    #[test]
    fn escaping_and_parsing_roundtrip() {
        let v = json!({ "weird": "a\"b\\c\nd" });
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn escapes_are_the_short_forms_then_u00xx_and_multibyte_text_is_copied() {
        let s = "a\"b\\c\n\r\t\u{08}\u{0c}\u{00}\u{1f}\u{7f}δ→你好";
        let text = to_string(&Value::String(s.into())).unwrap();
        assert_eq!(
            text,
            "\"a\\\"b\\\\c\\n\\r\\t\\b\\f\\u0000\\u001f\u{7f}δ→你好\""
        );
        let back = from_str(&text).unwrap();
        assert_eq!(back.as_str(), Some(s));
        // `\uXXXX` and `\/` are read back even though never written.
        let read = from_str("\"\\u00e9\\/\\u4f60\"").unwrap();
        assert_eq!(read.as_str(), Some("é/你"));
        assert!(from_str("\"open").is_err());
        assert!(from_str("\"bad \\x\"").is_err());
        assert!(from_str("\"cut \\u12").is_err());
    }

    #[test]
    fn parsing_long_strings_is_linear() {
        // Re-validating the rest of the input at every character made this
        // quadratic: these 6 MB would not finish.
        let long = "δx".repeat(1 << 20);
        let text = to_string(&json!({ "k": [long.as_str(), long.as_str()] })).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back["k"][1].as_str().unwrap().len(), long.len());
    }

    #[test]
    fn a_repeated_key_keeps_its_place_and_takes_the_last_value() {
        let v: Value = from_str("{\"a\": 1, \"b\": 2, \"a\": 3}").unwrap();
        assert_eq!(to_string(&v).unwrap(), "{\"a\":3,\"b\":2}");
    }

    #[test]
    fn parser_handles_numbers_and_nesting() {
        let v: Value = from_str("{\"x\": [1, -2, 3.5], \"y\": null}").unwrap();
        assert_eq!(v["x"][0], 1);
        assert_eq!(v["x"][1], -2i64);
        assert!(matches!(v["x"][2], Value::Number(Number::Float(_))));
        assert_eq!(v["y"], Value::Null);

        assert_eq!(from_str(&u64::MAX.to_string()).unwrap(), u64::MAX);
        assert_eq!(
            from_str(&i128::MIN.to_string()).unwrap(),
            Value::Number(Number::Int(i128::MIN))
        );
        // Every float reads back as written, or as `null` where JSON has no
        // text for it.
        for (float, text, back) in [
            (1e40, "1e40", Value::from(1e40)),
            (-1e300, "-1e300", Value::from(-1e300)),
            (f64::NAN, "null", Value::Null),
            (f64::INFINITY, "null", Value::Null),
        ] {
            let written = to_string(&json!(float)).unwrap();
            assert_eq!(written, text);
            assert_eq!(from_str(&written).unwrap(), back, "{text}");
        }

        for bad in [
            "340282366920938463463374607431768211456", // past i128::MAX
            "1 2",
            "[1,",
            "{\"a\" 1}",
        ] {
            assert!(from_str(bad).is_err(), "{bad} parsed");
        }
    }
}
