//! The workspace's one JSON reader/writer.
//!
//! Manifests, bench reports, trace lines and `fabric`'s topology and
//! routes artifacts all go through this module, so it treats its input
//! as untrusted: no `unsafe`, no panicking accessor on the input path,
//! a nesting cap, and syntax errors that carry the line and column of
//! the offending byte. This is a strict-enough subset parser: objects,
//! arrays, strings (with escapes), integers, floats, bools, null.
//! Duplicate object keys keep the last value.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (integers survive exactly up to 2⁶⁴; see
    /// [`Value::as_u64`]).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, key-ordered.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The value as `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an object, if it is one.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Member `key` of an object (`None` for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj().and_then(|m| m.get(key))
    }
}

/// Containers may nest at most this deep; beyond it [`parse`] errors
/// instead of overflowing the stack on hostile input like `[[[[…`.
pub const MAX_DEPTH: usize = 128;

/// A syntax error, located at the offending byte.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error {
    /// 1-based line.
    pub line: usize,
    /// 1-based column, counted in characters.
    pub column: usize,
    /// What the parser expected or found.
    pub detail: String,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "line {}, col {}: {}",
            self.line, self.column, self.detail
        )
    }
}

impl std::error::Error for Error {}

/// Report validators return `Result<_, String>` and reach [`parse`]
/// through `?`.
impl From<Error> for String {
    fn from(e: Error) -> String {
        e.to_string()
    }
}

/// Parse a JSON document. Trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, Error> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    /// A positioned syntax error at the current byte. Counts over bytes:
    /// a rejected escape can leave `pos` inside a multi-byte scalar,
    /// where slicing the `&str` would panic.
    fn err(&self, detail: impl Into<String>) -> Error {
        let upto = self.bytes.get(..self.pos).unwrap_or(self.bytes);
        let line = upto.iter().filter(|&&b| b == b'\n').count() + 1;
        // Characters since the last newline: every byte but UTF-8
        // continuation bytes starts one.
        let column = upto
            .rsplit(|&b| b == b'\n')
            .next()
            .unwrap_or_default()
            .iter()
            .filter(|&&b| b & 0xC0 != 0x80)
            .count()
            + 1;
        Error {
            line,
            column,
            detail: detail.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        if rest.starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected byte `{}`", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn nested(&mut self, container: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(out));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
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
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Lone surrogates map to U+FFFD; our writer
                            // never produces surrogate pairs.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(self.err(format!("bad escape \\{}", other as char))),
                    }
                }
                Some(0..=0x1F) => return Err(self.err("unescaped control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar; `input` is a &str, so the
                    // current position sits on a boundary whenever we get
                    // here (escapes and quotes are single bytes).
                    let Some(c) = self.input.get(self.pos..).and_then(|s| s.chars().next()) else {
                        return Err(self.err("malformed UTF-8 sequence"));
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
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
        let text = self.input.get(start..self.pos).unwrap_or_default();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err(format!("bad number `{text}`")))
    }
}

/// Append a JSON string literal (with escaping) to `out`.
pub fn write_str(out: &mut String, s: &str) {
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

/// A JSON float literal: finite values as shortest round-trip decimal,
/// non-finite as `null` (JSON has no NaN/Inf).
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// The workspace's one report writer: a streaming pretty-printer that
/// owns every comma, colon and indent, so no report spells them by hand.
/// Members appear in the order written — an object's one per line, an
/// array's scalars on one line. A value goes where the last
/// [`Writer::key`] or open array put the cursor; closing more
/// containers than were opened is ignored.
#[derive(Default)]
pub struct Writer {
    out: String,
    /// Per open container: its closer, and whether it broke onto lines.
    open: Vec<(char, bool)>,
}

impl Writer {
    /// The cursor, after whatever separates the next value (or key) from
    /// what came before it. `breaks` puts it on a line of its own. The
    /// text says where it stands: right after a key it ends in `": "`,
    /// in a container still empty it ends in the opener, and no value
    /// ends in either.
    fn next(&mut self, breaks: bool) -> &mut String {
        if self.out.ends_with(": ") {
            return &mut self.out;
        }
        let more = !self.out.ends_with(['{', '[']);
        let depth = self.open.len();
        if let Some((_, lines)) = self.open.last_mut() {
            if breaks {
                *lines = true;
                self.out.push_str(if more { ",\n" } else { "\n" });
                self.out.push_str(&"  ".repeat(depth));
            } else if more {
                self.out.push_str(", ");
            }
        }
        &mut self.out
    }

    fn begin(&mut self, opener: char, closer: char) -> &mut Self {
        self.next(true).push(opener);
        self.open.push((closer, false));
        self
    }

    /// Open an object.
    pub fn obj(&mut self) -> &mut Self {
        self.begin('{', '}')
    }

    /// Open an array.
    pub fn arr(&mut self) -> &mut Self {
        self.begin('[', ']')
    }

    /// Close the innermost open object or array.
    pub fn end(&mut self) -> &mut Self {
        if let Some((closer, lines)) = self.open.pop() {
            if lines {
                self.out.push('\n');
                self.out.push_str(&"  ".repeat(self.open.len()));
            }
            self.out.push(closer);
        }
        self
    }

    /// The next member's key, inside an object.
    pub fn key(&mut self, key: &str) -> &mut Self {
        write_str(self.next(true), key);
        self.out.push_str(": ");
        self
    }

    /// A string value ([`write_str`]).
    pub fn str(&mut self, s: &str) -> &mut Self {
        write_str(self.next(false), s);
        self
    }

    /// An integer, exactly: seeds and nanosecond sums do not fit `f64`.
    pub fn u64(&mut self, n: u64) -> &mut Self {
        let _ = write!(self.next(false), "{n}");
        self
    }

    /// A float value ([`write_f64`]).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        write_f64(self.next(false), v);
        self
    }

    /// `true` / `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        let _ = write!(self.next(false), "{b}");
        self
    }

    /// `null`.
    pub fn null(&mut self) -> &mut Self {
        self.next(false).push_str("null");
        self
    }

    /// An array of integers on one line.
    pub fn u64s(&mut self, items: impl IntoIterator<Item = u64>) -> &mut Self {
        self.arr();
        for n in items {
            self.u64(n);
        }
        self.end()
    }

    /// The document so far.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_lays_out_objects_by_line_and_scalar_arrays_inline() {
        let mut w = Writer::default();
        w.obj().key("label").str("a\tb\u{1}\"c\\");
        w.key("seed").u64(u64::MAX).key("nan").f64(f64::NAN);
        w.key("half")
            .f64(0.5)
            .key("ok")
            .bool(true)
            .key("none")
            .null();
        w.key("buckets").u64s([0, 0, 1]).key("empty").obj().end();
        w.key("rows")
            .arr()
            .obj()
            .key("n")
            .u64(1)
            .end()
            .u64s([2, 3])
            .end();
        w.end().end(); // one close too many is ignored
        let text = w.finish();
        let expected = r#"{
  "label": "a\tb\u0001\"c\\",
  "seed": 18446744073709551615,
  "nan": null,
  "half": 0.5,
  "ok": true,
  "none": null,
  "buckets": [0, 0, 1],
  "empty": {},
  "rows": [
    {
      "n": 1
    },
    [2, 3]
  ]
}"#;
        assert_eq!(text, expected);
        let doc = parse(&text).unwrap();
        assert_eq!(doc.get("label").unwrap().as_str(), Some("a\tb\u{1}\"c\\"));
        assert_eq!(doc.get("seed").unwrap().as_u64(), Some(u64::MAX));
        // A bare scalar is a document too.
        let mut w = Writer::default();
        w.str("x");
        assert_eq!(w.finish(), "\"x\"");
    }

    #[test]
    fn parses_the_usual_shapes() {
        let v = parse(r#"{"a": 1, "b": [true, null, "x\n"], "c": {"d": -2.5}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        let arr = v.get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_bool(), Some(true));
        assert_eq!(arr[1], Value::Null);
        assert_eq!(arr[2].as_str(), Some("x\n"));
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_f64(), Some(-2.5));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        // Hostile strings: every one is a positioned error, never a panic.
        for (doc, line, column, detail) in [
            (r#""\u12"#, 1, 4, "truncated \\u escape"),
            // The 4-byte window splits the two-byte `é`.
            (r#""\u123é""#, 1, 4, "truncated \\u escape"),
            (r#""\uzzzz""#, 1, 4, "bad \\u escape"),
            (r#""\"#, 1, 3, "unterminated escape"),
            // A multi-byte scalar right after the backslash: the error
            // position lands inside it.
            ("\"é\\é\"", 1, 5, "bad escape"),
            ("[\n \"é\\q\"]", 2, 6, "bad escape \\q"),
            ("{not json", 1, 2, "expected `\"`"),
            ("{\"label\": \"x\",\n  ?}", 2, 3, "expected `\"`"),
            // RFC 8259: U+0000–U+001F appear in a string only escaped.
            ("[\"a\tb\"]", 1, 4, "unescaped control character"),
            ("\"\u{0}\"", 1, 2, "unescaped control character"),
            ("\"line\nbreak\"", 1, 6, "unescaped control character"),
        ] {
            let e = parse(doc).unwrap_err();
            assert_eq!((e.line, e.column), (line, column), "{doc:?} -> {e}");
            assert!(e.detail.contains(detail), "{doc:?} -> {e}");
        }
    }

    #[test]
    fn u64_precision_guard() {
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\u{1}");
        let v = parse(&out).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\u{1}"));
    }

    #[test]
    fn hostile_nesting_is_rejected_not_a_stack_overflow() {
        for deep in ["[".repeat(10_000), "{\"a\":".repeat(100_000)] {
            let err = parse(&deep).unwrap_err();
            assert!(err.detail.contains("nesting"), "got {err}");
            assert_eq!(err.line, 1);
        }
        // The cap itself is usable: depth exactly MAX_DEPTH parses.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let over = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&over).is_err());
    }

    #[test]
    fn unicode_passes_through() {
        let v = parse(r#""café ✓""#).unwrap();
        assert_eq!(v.as_str(), Some("café ✓"));
    }
}
