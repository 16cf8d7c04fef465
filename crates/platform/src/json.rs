//! The workspace's one JSON codec: a value tree, a compact emitter and a
//! parser.
//!
//! The build environment is fully offline (no serde), yet every artifact
//! that crosses a crate boundary is JSON: run profiles, blame reports,
//! postmortems and Chrome traces, deployment specs, analyzer reports,
//! delta scripts and the bench bins' timing files. All of them are written
//! and read through this module, so there is one escaper, one number
//! format and one set of typed readers. It lives here because this is the
//! lowest crate that writes JSON (the Chrome export); `streamgate-analysis`
//! re-exports it as `streamgate_analysis::json`.
//!
//! Objects keep their keys in insertion order, and a parsed object keeps
//! document order, so a writer fixes its schema's key order by the order
//! it lists the keys, and a parsed document re-emits byte-identically. A
//! key repeated in a document reads as its last value.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A parsed or constructed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (JSON numbers without fraction/exponent parse to this).
    Int(i128),
    /// A non-integer number.
    Float(f64),
    /// A string. A writer's literal strings cost no allocation.
    Str(Cow<'static, str>),
    /// An array.
    Array(Vec<Json>),
    /// An object, keys in insertion (or document) order. A writer's keys
    /// are string literals and cost no allocation.
    Object(Vec<(Cow<'static, str>, Json)>),
}

impl Json {
    /// Build an object from key/value pairs, in the order given.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(
            pairs
                .into_iter()
                .map(|(k, v)| (Cow::Borrowed(k), v))
                .collect(),
        )
    }

    /// Build an object from the pairs whose value is present, in the order
    /// given: an absent optional field is omitted, not written as `null`.
    pub fn obj_some(pairs: impl IntoIterator<Item = (&'static str, Option<Json>)>) -> Json {
        let pairs = pairs.into_iter();
        // Sized for every pair up front: one allocation, not a regrowth.
        let mut kept = Vec::with_capacity(pairs.size_hint().0);
        kept.extend(pairs.filter_map(|(k, v)| Some((Cow::Borrowed(k), v?))));
        Json::Object(kept)
    }

    /// The value at `key`, if this is an object containing it (the last
    /// one, if a parsed document repeats the key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(m) => m.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The field `key` as a `T`. The error names the key and says whether
    /// it is missing or holds another type (or an out-of-range integer).
    pub fn req<'a, T: FromJson<'a>>(&'a self, key: &str) -> Result<T, String> {
        let v = self.get(key).ok_or_else(|| format!("missing `{key}`"))?;
        T::from_json(v).ok_or_else(|| format!("`{key}` is not {}", T::EXPECTED))
    }

    /// The field `key` as a `T`, or `None` when it is missing or holds
    /// another type.
    pub fn at<'a, T: FromJson<'a>>(&'a self, key: &str) -> Option<T> {
        self.get(key).and_then(T::from_json)
    }

    /// Each item of the array field `key`, read by `item`. The error names
    /// the key, or the item and what is wrong with it.
    pub fn items<'a, T>(
        &'a self,
        key: &str,
        item: impl Fn(&'a Json) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.req::<&[Json]>(key)?
            .iter()
            .enumerate()
            .map(|(i, x)| item(x).map_err(|e| format!("{key}[{i}]: {e}")))
            .collect()
    }

    /// The integer value, if this is an integer.
    pub fn as_int(&self) -> Option<i128> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The unsigned integer value, if this is a non-negative integer that
    /// fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_int().and_then(|v| u64::try_from(v).ok())
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Serialise to compact JSON text.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        self.write_to(&mut s);
        s
    }

    /// Append the compact JSON text of this value to `out` (for writers
    /// that stream many values into one buffer).
    pub fn write_to(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => match u64::try_from(*v) {
                Ok(u) => push_u64(u, out),
                Err(_) => {
                    let _ = write!(out, "{v}");
                }
            },
            Json::Float(v) => {
                // Emit floats so they re-parse as floats (keep a dot).
                let start = out.len();
                let _ = write!(out, "{v}");
                if !out[start..].contains(['.', 'e', 'i', 'N']) {
                    out.push_str(".0");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_to(out);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write_to(out);
                }
                out.push('}');
            }
        }
    }
}

/// The decimal digits of `u`, without the `fmt` machinery: artifacts are
/// mostly small integers, and a trace export writes a million of them.
fn push_u64(mut u: u64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (u % 10) as u8;
        u /= 10;
        if u == 0 {
            break;
        }
    }
    digits[i..].iter().for_each(|&d| out.push(d as char));
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(s);
        out.push('"');
        return;
    }
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

macro_rules! into_json {
    ($($t:ty => $make:expr;)*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                ($make)(v)
            }
        }
    )*};
}

into_json! {
    bool => Json::Bool;
    f64 => Json::Float;
    u32 => |v| Json::Int(i128::from(v));
    u64 => |v| Json::Int(i128::from(v));
    usize => |v| Json::Int(v as i128);
    &'static str => |s| Json::Str(Cow::Borrowed(s));
    String => |s| Json::Str(Cow::Owned(s));
    &[u64] => |v: &[u64]| v.iter().copied().collect();
}

/// Collecting values builds an array.
impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Json {
        Json::Array(items.into_iter().map(Into::into).collect())
    }
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// A Rust value one JSON value reads as (see [`Json::req`] and
/// [`Json::at`]).
pub trait FromJson<'a>: Sized {
    /// What the JSON value has to be, for error messages.
    const EXPECTED: &'static str;
    /// The value, or `None` when `v` holds another type or is out of range.
    fn from_json(v: &'a Json) -> Option<Self>;
}

macro_rules! from_json {
    ($($t:ty, $expected:literal, $read:expr;)*) => {$(
        impl<'a> FromJson<'a> for $t {
            const EXPECTED: &'static str = $expected;
            fn from_json(v: &'a Json) -> Option<$t> {
                ($read)(v)
            }
        }
    )*};
}

from_json! {
    u64, "an unsigned integer", Json::as_u64;
    u32, "an unsigned 32-bit integer", |v: &Json| v.as_int()?.try_into().ok();
    usize, "an unsigned integer", |v: &Json| v.as_int()?.try_into().ok();
    bool, "a boolean", Json::as_bool;
    &'a str, "a string", Json::as_str;
    String, "a string", |v: &Json| v.as_str().map(str::to_string);
    &'a Json, "a value", Some;
    &'a [Json], "an array", Json::as_array;
    Vec<u64>, "an array of unsigned integers", |v: &Json| {
        v.as_array()?.iter().map(Json::as_u64).collect()
    };
}

/// Parse JSON text into a [`Json`] tree.
///
/// Accepts the standard grammar (with `\uXXXX` escapes, including surrogate
/// pairs); returns a message with a byte offset on malformed input.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

/// Deepest array/object nesting `parse` accepts. Artifacts nest a few
/// levels; the parser recurses per level, so unbounded nesting in hostile
/// input would overflow the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
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

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(open @ (b'{' | b'[')) => {
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(Cow::Owned(self.string()?))),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((Cow::Owned(key), self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self
                .peek()
                .ok_or_else(|| format!("unterminated string at byte {}", self.pos))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = self
                        .peek()
                        .ok_or_else(|| format!("bad escape at byte {}", self.pos))?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(format!("bad surrogate pair at byte {}", self.pos));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| format!("bad codepoint at {}", self.pos))?,
                            );
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Multi-byte UTF-8: copy the full sequence.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    let s = std::str::from_utf8(
                        self.bytes
                            .get(start..end)
                            .ok_or_else(|| format!("bad utf-8 at byte {start}"))?,
                    )
                    .map_err(|_| format!("bad utf-8 at byte {start}"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let s = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        let s = std::str::from_utf8(s).map_err(|_| "bad \\u escape".to_string())?;
        let v = u32::from_str_radix(s, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| format!("bad number {text:?}"))
        } else {
            text.parse::<i128>()
                .map(Json::Int)
                .map_err(|_| format!("bad number {text:?}"))
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_basics() {
        let v = Json::obj(vec![
            ("a", Json::Int(-3)),
            ("b", Json::Array(vec![Json::Bool(true), Json::Null])),
            ("c", Json::Str("x\"y\\z\n".into())),
            ("d", Json::Float(1.5)),
        ]);
        let text = v.to_text();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn objects_keep_insertion_and_document_order() {
        let v = Json::obj([("b", Json::Int(1)), ("a", Json::Int(2))]);
        assert_eq!(v.to_text(), r#"{"b":1,"a":2}"#);
        let back = parse(r#"{ "z": 0, "b": 1, "a": 2 }"#).unwrap();
        assert_eq!(back.to_text(), r#"{"z":0,"b":1,"a":2}"#);
        // A repeated key reads as its last value; the text re-emits as is.
        let dup = parse(r#"{"k":1,"j":2,"k":3}"#).unwrap();
        assert_eq!(dup.to_text(), r#"{"k":1,"j":2,"k":3}"#);
        assert_eq!(dup.get("k"), Some(&Json::Int(3)));
    }

    #[test]
    fn optional_fields_are_omitted() {
        let v = Json::obj_some([
            ("a", Some(Json::Int(1))),
            ("b", None),
            ("c", Some(true.into())),
        ]);
        assert_eq!(v.to_text(), r#"{"a":1,"c":true}"#);
        assert_eq!(Json::from(None::<u64>), Json::Null);
    }

    #[test]
    fn typed_readers_name_the_key() {
        let v = parse(r#"{"n": 4294967298, "s": "x", "l": [1, 2], "neg": -1}"#).unwrap();
        assert_eq!(v.req::<u64>("n"), Ok(4294967298));
        assert_eq!(
            v.req::<u32>("n"),
            Err("`n` is not an unsigned 32-bit integer".to_string())
        );
        assert_eq!(v.req::<&str>("s"), Ok("x"));
        assert_eq!(v.req::<Vec<u64>>("l"), Ok(vec![1, 2]));
        assert_eq!(
            v.req::<u64>("missing"),
            Err("missing `missing`".to_string())
        );
        assert_eq!(
            v.req::<u64>("neg"),
            Err("`neg` is not an unsigned integer".to_string())
        );
        assert_eq!(v.at::<u64>("s"), None);
        assert_eq!(v.at::<&[Json]>("l").map(<[Json]>::len), Some(2));
    }

    #[test]
    fn escapes_every_control_character() {
        let s: String = (0u8..0x20)
            .map(char::from)
            .chain("\"\\é€𝄞".chars())
            .collect();
        let text = Json::from(s.clone()).to_text();
        assert!(text.bytes().all(|b| b >= 0x20), "{text:?}");
        assert_eq!(parse(&text).unwrap(), Json::from(s));
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = parse(" { \"k\" : [ 1 , 2.25 , \"\\u00e9\\n\" ] } ").unwrap();
        assert_eq!(
            v.get("k").unwrap().as_array().unwrap(),
            &[Json::Int(1), Json::Float(2.25), Json::Str("é\n".into())]
        );
    }

    #[test]
    fn floats_reparse_as_floats() {
        for v in [2.0, 0.1, 1e300, -3.5] {
            let v = Json::Float(v);
            assert_eq!(parse(&v.to_text()).unwrap(), v);
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"abc").is_err());
        assert!(parse("\"\\ud800\\u0041\"").is_err());
        // Nesting is bounded instead of overflowing the stack.
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        assert!(parse(&deep(MAX_DEPTH + 1)).unwrap_err().contains("nesting"));
        assert!(parse(&deep(1_000_000)).is_err());
    }
}
