//! The repo's one JSON dialect: every record stream it writes or reads
//! goes through this module.
//!
//! * [`escape_into`] is the only string escaper.
//! * [`Scalar::write_json`] is the only number policy: integers and
//!   finite floats print with Rust's round-tripping `Display`, and a
//!   non-finite float prints as `null` (JSON has no `NaN` or `inf`).
//! * [`Writer`] appends a compact object, nested objects included,
//!   straight into one `String`: no allocation per member.
//! * The strict parser behind [`read`], [`parse_scalars`] and
//!   [`parse_json_object`] rejects trailing bytes, and [`read_jsonl`]
//!   is the only torn-tail reader of an append-only stream.
//!
//! A record lists its members once, as a function generic over
//! [`Visit`] that takes a record and returns one. Under a [`Writer`]
//! the function renders the record it is given; under a [`Reader`] it
//! ignores that record's values and returns the members it parsed.
//! Rendering and parsing therefore cannot drift apart, and building the
//! result with a struct literal makes the compiler reject a table that
//! misses a field:
//!
//! ```
//! use hbat_obs::record::{read, write_object, Visit};
//!
//! #[derive(Debug, Default, PartialEq)]
//! struct Walk {
//!     count: u64,
//!     cycles: u64,
//! }
//!
//! fn walk_fields<V: Visit>(v: &mut V, w: &Walk) -> Walk {
//!     Walk {
//!         count: v.u64("count", w.count),
//!         cycles: v.u64("cycles", w.cycles),
//!     }
//! }
//!
//! let w = Walk { count: 3, cycles: 90 };
//! let mut line = String::new();
//! write_object(&mut line, |v| walk_fields(v, &w));
//! assert_eq!(line, r#"{"count":3,"cycles":90}"#);
//! assert_eq!(read(&line, |v| walk_fields(v, &Walk::default())), Ok(w));
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Appends `s` to `out` as a JSON string literal, quotes included.
/// `"`, `\`, newline and tab get their short escapes, every other
/// control character a `\u00XX` escape; all else, non-ASCII included,
/// is copied as is.
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    let mut copied = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // hbat-lint: allow(panic) copied <= i < len, and both sit next to an ASCII byte, so on char boundaries
        out.push_str(&s[copied..i]);
        if short.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(short);
        }
        copied = i + 1;
    }
    // hbat-lint: allow(panic) copied <= len and follows an ASCII byte (or is 0), so on a char boundary
    out.push_str(&s[copied..]);
    out.push('"');
}

/// One JSON scalar: what a flat report or perf-database line holds.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// A JSON string.
    Str(String),
    /// A non-negative integer (JSON numbers that fit `u64`).
    Int(u64),
    /// Any other JSON number.
    Num(f64),
    /// A JSON boolean.
    Bool(bool),
    /// JSON `null`.
    Null,
}

impl Scalar {
    /// The value as `f64` when it is numeric (`Int` or `Num`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Scalar::Int(v) => Some(*v as f64),
            Scalar::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Appends the value as JSON. A non-finite float becomes `null`, so
    /// every consumer must read `null` as "measurement unavailable",
    /// never as zero.
    pub fn write_json(&self, out: &mut String) {
        match self {
            Scalar::Str(s) => escape_into(out, s),
            Scalar::Int(v) => {
                let _ = write!(out, "{v}");
            }
            // `{}` on f64 round-trips; a fractionless float prints as an
            // integer literal, still a valid JSON number.
            Scalar::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Scalar::Num(_) | Scalar::Null => out.push_str("null"),
            Scalar::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
}

/// One pass over a record's members, in wire order; see the module
/// docs. Each method returns the member's value: the parsed one under a
/// [`Reader`], a placeholder under a [`Writer`] (the given integer, an
/// empty string), so a walk's result means something only when
/// reading.
pub trait Visit {
    /// An unsigned integer member.
    fn u64(&mut self, name: &str, value: u64) -> u64;
    /// A string member.
    fn str(&mut self, name: &str, value: &str) -> String;
    /// A nested object member whose own members `members` visits.
    fn obj<T>(&mut self, name: &str, members: impl FnOnce(&mut Self) -> T) -> T;
}

/// Writes the members of one compact JSON object into a `String`.
#[derive(Debug)]
pub struct Writer<'a> {
    out: &'a mut String,
    first: bool,
}

/// Appends one compact JSON object to `out`, its members written by
/// `members`, and returns what `members` returns.
pub fn write_object<T>(out: &mut String, members: impl FnOnce(&mut Writer) -> T) -> T {
    out.push('{');
    let mut w = Writer { out, first: true };
    let t = members(&mut w);
    w.out.push('}');
    t
}

impl Writer<'_> {
    /// Writes the separator and `"name":`, returning the buffer for the
    /// value.
    fn key(&mut self, name: &str) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        escape_into(self.out, name);
        self.out.push(':');
        self.out
    }

    /// A scalar member.
    pub fn scalar(&mut self, name: &str, value: &Scalar) {
        value.write_json(self.key(name));
    }
}

impl Visit for Writer<'_> {
    fn u64(&mut self, name: &str, value: u64) -> u64 {
        let _ = write!(self.key(name), "{value}");
        value
    }

    fn str(&mut self, name: &str, value: &str) -> String {
        escape_into(self.key(name), value);
        String::new()
    }

    fn obj<T>(&mut self, name: &str, members: impl FnOnce(&mut Self) -> T) -> T {
        self.key(name).push('{');
        self.first = true;
        let t = members(self);
        self.out.push('}');
        self.first = false;
        t
    }
}

/// The JSON subset the repo's records and reports use.
#[derive(Debug, Clone, PartialEq)]
enum Val {
    Str(String),
    Int(u64),
    Num(f64),
    Bool(bool),
    Null,
    Obj(BTreeMap<String, Val>),
}

type Map = BTreeMap<String, Val>;

/// Reads a record's members out of a parsed object. A missing or
/// mistyped member reads as zero or empty and is reported by [`read`];
/// members the walk does not name are ignored.
#[derive(Debug)]
pub struct Reader<'m> {
    obj: &'m Map,
    err: Option<String>,
}

impl Reader<'_> {
    fn fail<T>(&mut self, kind: &str, name: &str, placeholder: T) -> T {
        self.err
            .get_or_insert_with(|| format!("missing {kind} field {name:?}"));
        placeholder
    }
}

impl Visit for Reader<'_> {
    fn u64(&mut self, name: &str, _: u64) -> u64 {
        match self.obj.get(name) {
            Some(Val::Int(v)) => *v,
            _ => self.fail("integer", name, 0),
        }
    }

    fn str(&mut self, name: &str, _: &str) -> String {
        match self.obj.get(name) {
            Some(Val::Str(s)) => s.clone(),
            _ => self.fail("string", name, String::new()),
        }
    }

    fn obj<T>(&mut self, name: &str, members: impl FnOnce(&mut Self) -> T) -> T {
        static EMPTY: Map = BTreeMap::new();
        let outer = self.obj;
        self.obj = match outer.get(name) {
            Some(Val::Obj(m)) => m,
            _ => self.fail("object", name, &EMPTY),
        };
        let t = members(self);
        self.obj = outer;
        t
    }
}

/// Strictly parses one JSON object and reads a record out of it with
/// `walk`.
///
/// # Errors
///
/// Malformed JSON, trailing bytes, or the first member `walk` found
/// missing or mistyped.
pub fn read<T>(text: &str, walk: impl FnOnce(&mut Reader) -> T) -> Result<T, String> {
    let obj = parse_object(text)?;
    let mut r = Reader {
        obj: &obj,
        err: None,
    };
    let t = walk(&mut r);
    match r.err {
        Some(e) => Err(e),
        None => Ok(t),
    }
}

/// Strictly parses a standalone JSON object and returns its top-level
/// keys in sorted order. Rejects trailing bytes. Tests use this to check
/// that rendered output really is valid JSON.
///
/// # Errors
///
/// Malformed JSON or trailing bytes.
pub fn parse_json_object(s: &str) -> Result<Vec<String>, String> {
    Ok(parse_object(s)?.into_keys().collect())
}

/// Strictly parses a standalone *flat* JSON object: string, number,
/// boolean or null values only. The perf database stores one flat record
/// per line so a baseline check never has to address into substructure.
///
/// # Errors
///
/// Malformed JSON, trailing bytes, or a nested object.
pub fn parse_scalars(s: &str) -> Result<BTreeMap<String, Scalar>, String> {
    parse_object(s)?
        .into_iter()
        .map(|(k, v)| {
            let scalar = match v {
                Val::Str(s) => Scalar::Str(s),
                Val::Int(i) => Scalar::Int(i),
                Val::Num(n) => Scalar::Num(n),
                Val::Bool(b) => Scalar::Bool(b),
                Val::Null => Scalar::Null,
                Val::Obj(_) => return Err(format!("field {k:?} is nested, not a scalar")),
            };
            Ok((k, scalar))
        })
        .collect()
}

/// Reads every complete line of an append-only JSONL stream through
/// `parse`. Blank lines are skipped. A torn *final* line, the signature
/// of a killed run, is dropped silently; an unparseable interior line is
/// real corruption and errors. A missing file reads as empty.
///
/// # Errors
///
/// I/O errors, or corruption anywhere but the final line.
pub fn read_jsonl<T>(
    path: &Path,
    mut parse: impl FnMut(&str) -> Result<T, String>,
) -> io::Result<Vec<T>> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let lines: Vec<&str> = text.lines().collect();
    let last = lines.len().saturating_sub(1);
    let mut records = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse(line) {
            Ok(rec) => records.push(rec),
            Err(_) if i == last => break,
            Err(e) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}:{}: {e}", path.display(), i + 1),
                ))
            }
        }
    }
    Ok(records)
}

fn parse_object(s: &str) -> Result<Map, String> {
    let mut cur = Cursor {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let Val::Obj(top) = cur.parse_object()? else {
        return Err("not a JSON object".to_owned());
    };
    cur.skip_ws();
    if cur.pos != cur.bytes.len() {
        return Err("trailing bytes after JSON object".to_owned());
    }
    Ok(top)
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("short \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        }
                        other => return Err(format!("bad escape \\{}", char::from(other))),
                    }
                }
                b if b < 0x80 => out.push(char::from(b)),
                _ => {
                    // Multi-byte UTF-8: copy the full sequence.
                    let start = self.pos - 1;
                    while self.peek().is_some_and(|b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|e| e.to_string())?;
                    out.push_str(s);
                }
            }
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Val) -> Result<Val, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn parse_value(&mut self) -> Result<Val, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(Val::Str(self.parse_string()?)),
            Some(b'{') => self.parse_object(),
            Some(b'n') => self.parse_keyword("null", Val::Null),
            Some(b't') => self.parse_keyword("true", Val::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Val::Bool(false)),
            Some(b'0'..=b'9' | b'-') => {
                let start = self.pos;
                self.pos += 1;
                while self.peek().is_some_and(|b| {
                    b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-')
                }) {
                    self.pos += 1;
                }
                let s =
                    std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
                if let Ok(v) = s.parse::<u64>() {
                    Ok(Val::Int(v))
                } else {
                    s.parse::<f64>().map(Val::Num).map_err(|e| e.to_string())
                }
            }
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn parse_object(&mut self) -> Result<Val, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Val::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.eat(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Val::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default, PartialEq)]
    struct Rec {
        name: String,
        n: u64,
        inner: [u64; 2],
    }

    fn rec_fields<V: Visit>(v: &mut V, r: &Rec) -> Rec {
        Rec {
            name: v.str("name", &r.name),
            n: v.u64("n", r.n),
            inner: v.obj("inner", |v| {
                [v.u64("a", r.inner[0]), v.u64("b", r.inner[1])]
            }),
        }
    }

    #[test]
    fn reader_reports_the_first_missing_or_mistyped_member() {
        let parse = |s: &str| read(s, |v| rec_fields(v, &Rec::default()));
        assert_eq!(
            parse(r#"{"n":1,"inner":{"a":1,"b":2}}"#),
            Err("missing string field \"name\"".to_owned())
        );
        assert_eq!(
            parse(r#"{"name":"x","n":1.5,"inner":{"a":1,"b":2}}"#),
            Err("missing integer field \"n\"".to_owned())
        );
        assert_eq!(
            parse(r#"{"name":"x","n":1,"inner":3}"#),
            Err("missing object field \"inner\"".to_owned())
        );
        assert_eq!(
            parse(r#"{"name":"x","n":1,"inner":{"a":1}}"#),
            Err("missing integer field \"b\"".to_owned())
        );
        let extra =
            parse(r#"{"extra":true,"name":"x","n":18446744073709551615,"inner":{"a":1,"b":2}}"#);
        assert_eq!(
            extra.map(|r| r.n),
            Ok(u64::MAX),
            "unknown members are ignored"
        );
        assert!(parse(r#"{"name":"x","n":1,"inner":{"a":1,"b":2}} x"#).is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn parse_scalars_accepts_flat_objects_and_rejects_nesting() {
        let m =
            parse_scalars(r#"{"bench":"obs","ok":true,"ratio":0.125,"n":7,"gap":null}"#).unwrap();
        assert_eq!(m.get("bench"), Some(&Scalar::Str("obs".into())));
        assert_eq!(m.get("ok"), Some(&Scalar::Bool(true)));
        assert_eq!(m.get("ratio"), Some(&Scalar::Num(0.125)));
        assert_eq!(m.get("n"), Some(&Scalar::Int(7)));
        assert_eq!(m.get("gap"), Some(&Scalar::Null));
        assert_eq!(m["ratio"].as_f64(), Some(0.125));
        assert_eq!(m["n"].as_f64(), Some(7.0));
        assert_eq!(m["bench"].as_f64(), None);

        let nested = parse_scalars(r#"{"a":{"b":1}}"#);
        assert!(nested.unwrap_err().contains("nested"));
        assert!(parse_scalars("{\"a\":1} \n").is_ok(), "trailing whitespace");
        assert!(parse_scalars(r#"{"a":1}x"#).is_err(), "trailing bytes");
        assert!(parse_scalars("[1,2]").is_err(), "not an object");
        assert!(
            parse_json_object(r#"{"b":{},"a":[]}"#).is_err(),
            "no arrays"
        );
        assert_eq!(parse_json_object("{\"b\":{},\"a\":1}").unwrap(), ["a", "b"]);
    }
}
