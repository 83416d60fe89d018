//! A small hand-rolled JSON document model, writer, and reader.
//!
//! The build sandbox has no crates.io access, so the workspace cannot use
//! `serde_json`; experiments instead build [`Json`] values directly and
//! render them with [`Json::render`] / [`Json::render_pretty`]. Object
//! member order is preserved exactly as inserted, which keeps exports
//! byte-stable for golden-file tests. [`Json::parse`] reads documents
//! back (the `inspect` CLI loads sidecar files with it).

use std::fmt::Write as _;

/// A JSON value.
///
/// Numbers are split into unsigned / signed / float variants so counters
/// up to `u64::MAX` render exactly (no `f64` precision loss).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A float; non-finite values render as `null` (JSON has no NaN).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; member order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj(pairs: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Renders compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders human-readable JSON with two-space indentation and a
    /// trailing newline, the layout the experiment sidecar files use.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    /// Parses a JSON document. Accepts exactly what the writer emits
    /// (plus standard numeric and escape forms); trailing non-whitespace
    /// is an error. Integers without sign or fraction become
    /// [`Json::UInt`], negative integers [`Json::Int`], everything else
    /// numeric [`Json::Float`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object member lookup; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The member at `path` — object keys joined by `.`; `""` is the value
    /// itself — read as a `T`. Panics naming the path when a member is
    /// missing or holds another type, so a reader never mistakes an absent
    /// number for zero.
    pub fn at<'a, T: FromJson<'a>>(&'a self, path: &str) -> T {
        self.try_at(path).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Json::at`] with the error returned instead of raised.
    pub fn try_at<'a, T: FromJson<'a>>(&'a self, path: &str) -> Result<T, String> {
        let mut node = self;
        for key in path.split('.').filter(|k| !k.is_empty()) {
            node = node
                .get(key)
                .ok_or_else(|| format!("`{path}`: no member `{key}`"))?;
        }
        T::from_json(node).ok_or_else(|| format!("`{path}` is not {}: {}", T::WHAT, node.render()))
    }

    /// The value as an unsigned integer, when it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            Json::Int(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a float, when it is any number. The writer renders an
    /// integral float without a fraction (`2.0` as `2`), and the reader
    /// reads that back as [`Json::UInt`]: compare numbers by value.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::UInt(n) => Some(n as f64),
            Json::Int(n) => Some(n as f64),
            Json::Float(f) => Some(f),
            _ => None,
        }
    }

    /// The value as a string slice, when it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value's array items, when it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(f) => {
                if f.is_finite() {
                    let _ = write!(out, "{f}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, level, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, level + 1);
            }),
            Json::Obj(members) => {
                write_seq(out, indent, level, '{', '}', members.len(), |out, i| {
                    let (k, v) = &members[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, level + 1);
                })
            }
        }
    }
}

/// Shared layout for arrays and objects: one element per line when pretty.
fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    level: usize,
    open: char,
    close: char,
    len: usize,
    mut write_item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            for _ in 0..(width * (level + 1)) {
                out.push(' ');
            }
        }
        write_item(out, i);
    }
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..(width * level) {
            out.push(' ');
        }
    }
    out.push(close);
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Recursive-descent reader over the document bytes.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
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
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid utf-8 in string".to_string())?,
            );
            match self.peek() {
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
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            // The writer only emits \u00xx for control
                            // bytes; surrogate pairs are out of scope.
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| "invalid \\u codepoint".to_string())?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while let Some(b'0'..=b'9') = self.peek() {
                self.pos += 1;
            }
        }
        if let Some(b'e' | b'E') = self.peek() {
            float = true;
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            while let Some(b'0'..=b'9') = self.peek() {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ascii digits are valid utf-8");
        if !float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

/// A type [`Json::at`] can read a member as.
pub trait FromJson<'a>: Sized {
    /// What the member must be, for the error message.
    const WHAT: &'static str;
    /// The value as `Self`, when it is one.
    fn from_json(j: &'a Json) -> Option<Self>;
}

impl<'a> FromJson<'a> for &'a Json {
    const WHAT: &'static str = "a value";
    fn from_json(j: &'a Json) -> Option<Self> {
        Some(j)
    }
}
impl<'a> FromJson<'a> for u64 {
    const WHAT: &'static str = "an unsigned integer";
    fn from_json(j: &'a Json) -> Option<Self> {
        j.as_u64()
    }
}
impl<'a> FromJson<'a> for f64 {
    const WHAT: &'static str = "a number";
    fn from_json(j: &'a Json) -> Option<Self> {
        j.as_f64()
    }
}
impl<'a> FromJson<'a> for bool {
    const WHAT: &'static str = "a boolean";
    fn from_json(j: &'a Json) -> Option<Self> {
        match j {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}
impl<'a> FromJson<'a> for &'a str {
    const WHAT: &'static str = "a string";
    fn from_json(j: &'a Json) -> Option<Self> {
        j.as_str()
    }
}
impl<'a> FromJson<'a> for &'a [Json] {
    const WHAT: &'static str = "an array";
    fn from_json(j: &'a Json) -> Option<Self> {
        j.as_arr()
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::UInt(v as u64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}
impl From<i32> for Json {
    fn from(v: i32) -> Json {
        Json::Int(v as i64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering() {
        let j = Json::obj([
            ("name", Json::from("fig7")),
            ("count", Json::from(3u64)),
            ("neg", Json::from(-2i64)),
            ("mean", Json::from(2.5f64)),
            ("tags", Json::arr([Json::from("a"), Json::Null])),
        ]);
        assert_eq!(
            j.render(),
            r#"{"name":"fig7","count":3,"neg":-2,"mean":2.5,"tags":["a",null]}"#
        );
    }

    #[test]
    fn pretty_rendering_is_stable() {
        let j = Json::obj([
            ("a", Json::from(1u64)),
            ("b", Json::arr([Json::from(2u64)])),
        ]);
        assert_eq!(
            j.render_pretty(),
            "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}\n"
        );
    }

    #[test]
    fn empty_containers_render_inline() {
        assert_eq!(Json::arr([]).render_pretty(), "[]\n");
        assert_eq!(Json::Obj(vec![]).render(), "{}");
    }

    #[test]
    fn strings_are_escaped() {
        let j = Json::from("a\"b\\c\nd\u{1}");
        assert_eq!(j.render(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn u64_precision_is_exact() {
        assert_eq!(Json::from(u64::MAX).render(), "18446744073709551615");
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::Float(f64::INFINITY).render(), "null");
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let j = Json::obj([
            ("name", Json::from("c5 \"quoted\"\n")),
            ("count", Json::from(u64::MAX)),
            ("neg", Json::from(-7i64)),
            ("mean", Json::from(2.5f64)),
            ("flag", Json::from(true)),
            ("nil", Json::Null),
            ("tags", Json::arr([Json::from("a"), Json::from(1u64)])),
            ("empty", Json::Obj(vec![])),
        ]);
        assert_eq!(Json::parse(&j.render()).expect("compact"), j);
        assert_eq!(Json::parse(&j.render_pretty()).expect("pretty"), j);

        // An integral float renders without a fraction and reads back as
        // an integer variant: equal by value, not by variant.
        let integral = Json::obj([("mean", Json::from(2.0f64))]);
        let back = Json::parse(&integral.render()).expect("integral float");
        assert_eq!(back.get("mean"), Some(&Json::UInt(2)));
        assert_eq!(back.at::<f64>("mean"), 2.0);
        assert_eq!(back.at::<f64>("mean"), integral.at::<f64>("mean"));
    }

    #[test]
    fn strict_paths_name_what_is_missing_or_mistyped() {
        let j = Json::parse(r#"{"a":{"b":[1,2],"n":3,"f":true},"s":"x"}"#).expect("parse");
        assert_eq!(j.at::<u64>("a.n"), 3);
        assert!(j.at::<bool>("a.f"));
        assert_eq!(j.at::<&str>("s"), "x");
        assert_eq!(j.at::<&[Json]>("a.b").len(), 2);
        assert_eq!(
            j.try_at::<u64>("a.gone"),
            Err("`a.gone`: no member `gone`".into())
        );
        assert_eq!(
            j.try_at::<u64>("s"),
            Err("`s` is not an unsigned integer: \"x\"".into())
        );
    }

    #[test]
    #[should_panic(expected = "`a.missing`: no member `missing`")]
    fn a_missing_member_panics_instead_of_reading_zero() {
        Json::obj([("a", Json::obj([("n", Json::from(1u64))]))]).at::<u64>("a.missing");
    }

    #[test]
    fn parse_handles_escapes_and_numbers() {
        let j = Json::parse(r#"{"s":"aA\t","x":1e2,"y":-3}"#).expect("parse");
        assert_eq!(j.get("s").and_then(Json::as_str), Some("aA\t"));
        assert_eq!(j.get("x"), Some(&Json::Float(100.0)));
        assert_eq!(j.get("y"), Some(&Json::Int(-3)));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn accessors_navigate_documents() {
        let j = Json::parse(r#"{"a":{"b":[1,2]},"s":"x"}"#).expect("parse");
        let arr = j.get("a").and_then(|a| a.get("b")).and_then(Json::as_arr);
        assert_eq!(arr.map(|a| a.len()), Some(2));
        assert_eq!(arr.and_then(|a| a[0].as_u64()), Some(1));
        assert_eq!(j.get("s").and_then(Json::as_str), Some("x"));
        assert!(j.get("missing").is_none());
    }
}
