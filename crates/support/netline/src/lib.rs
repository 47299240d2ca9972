//! Minimal std-only JSON codec and JSONL-over-TCP plumbing.
//!
//! The workspace builds hermetically without crates.io access, so this crate
//! provides the one JSON reader and writer every crate uses — the serving
//! daemon's line protocol, the trace and fault-plan dumps, and the
//! observability exports — plus the small networking slice the daemon needs:
//!
//! * [`Json`] — a JSON value model with a strict parser ([`Json::parse`],
//!   structured [`JsonError`]s carrying a byte offset and, inside an object
//!   member, its key) and a deterministic renderer ([`Json::render`]; object
//!   keys keep insertion order, floats use Rust's shortest round-trip
//!   formatting so re-rendering a parsed line is byte-stable),
//! * [`JsonLines`] — a JSON Lines reader yielding one [`JsonLine`] object per
//!   non-blank line with typed field getters; every failure is a
//!   [`LineError`] naming the line and the field,
//! * [`LineServer`] — a thread-per-connection TCP accept loop with
//!   non-blocking polling and a [`Stopper`] for graceful shutdown (stops
//!   accepting, then joins every live connection thread),
//! * [`LineConn`] — one newline-delimited text connection, used by both the
//!   server handler and clients ([`LineConn::connect`]).
//!
//! Numbers distinguish [`Json::Int`] (i64, no fractional part written) and
//! [`Json::UInt`] (integers above `i64::MAX`) from [`Json::Num`] (f64), so
//! integer fields such as seeds, ids and counts round-trip exactly across the
//! whole `i64` and `u64` ranges without a float detour.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::collections::VecDeque;
use std::fmt::{self, Write as _};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A JSON value. Objects preserve insertion order so rendering is
/// deterministic; duplicate keys are rejected by the parser.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with no fractional/exponent part that fits an `i64`.
    Int(i64),
    /// An integer above `i64::MAX` that fits a `u64`. Build integers with
    /// [`Json::uint`], which picks [`Json::Int`] whenever the value fits, so
    /// equal integers always compare equal.
    UInt(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// A structured JSON parse error: what went wrong, the byte offset where,
/// and the object member it happened in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where the error was detected.
    pub pos: usize,
    /// Key of the outermost object member whose value holds the error
    /// (`None` when the error is not inside a member's value) — what lets a
    /// line reader name the field of a malformed line.
    pub key: Option<String>,
    /// Human-readable description of the problem.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.pos)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds an object from `(key, value)` pairs (insertion order kept).
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// Builds an unsigned integer: [`Json::Int`] when it fits an `i64`,
    /// [`Json::UInt`] above that.
    pub fn uint(n: u64) -> Json {
        i64::try_from(n).map_or(Json::UInt(n), Json::Int)
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer payload ([`Json::Int`] only — floats do not coerce).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The unsigned integer payload (a non-negative [`Json::Int`] or a
    /// [`Json::UInt`] — floats do not coerce).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => u64::try_from(*n).ok(),
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as `f64` (accepts [`Json::Int`], [`Json::UInt`]
    /// and [`Json::Num`]).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::UInt(n) => Some(*n as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs in document order, if this is an object — for
    /// callers that need to *enumerate* keys (schema validation, diffing)
    /// rather than look one up with [`Json::get`].
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Parses one complete JSON document; trailing non-whitespace is an
    /// error.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Renders to compact JSON (no whitespace). Deterministic: object keys in
    /// insertion order, floats in Rust's shortest round-trip form (`{}`),
    /// non-finite floats as `null` (JSON has no NaN/Inf).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// [`Json::render`] appending to `out` — lets a JSON Lines writer render
    /// many values into one buffer.
    pub fn render_into(&self, out: &mut String) {
        // Writing into a `String` cannot fail.
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    let start = out.len();
                    let _ = write!(out, "{x}");
                    // Keep the int/float distinction visible in the text so a
                    // parse→render round trip is stable.
                    if !out[start..].contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_string(s: &str, out: &mut String) {
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
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            key: None,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, expected: u8) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", expected as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
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
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key_pos = self.pos;
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(JsonError {
                    pos: key_pos,
                    key: None,
                    message: format!("duplicate object key '{key}'"),
                });
            }
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = match self.value() {
                Ok(value) => value,
                Err(mut e) => {
                    // Outer members overwrite inner ones: a line reader names
                    // the top-level field.
                    e.key = Some(key);
                    return Err(e);
                }
            };
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: require the paired low one.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.eat(b'u')?;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.error("invalid low surrogate"));
                                    }
                                    let cp = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(cp)
                                        .ok_or_else(|| self.error("invalid surrogate pair"))?
                                } else {
                                    return Err(self.error("unpaired high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&unit) {
                                return Err(self.error("unpaired low surrogate"));
                            } else {
                                char::from_u32(unit)
                                    .ok_or_else(|| self.error("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.error("unescaped control character in string"));
                }
                Some(_) => {
                    // Copy the whole run up to the next quote, backslash or
                    // control byte. Those are ASCII, so the run ends on a char
                    // boundary of the `&str` input and slices cleanly.
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'"' || b == b'\\' || b < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    /// Reads exactly four hex digits starting at `pos`, advancing past them.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        if !digits.iter().all(u8::is_ascii_hexdigit) {
            return Err(self.error("invalid \\u escape digits"));
        }
        let unit = digits.iter().fold(0, |acc, &d| {
            (acc << 4) | (d as char).to_digit(16).unwrap_or(0)
        });
        self.pos += 4;
        Ok(unit)
    }

    /// Advances past a run of ASCII digits; `false` when there is none.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// One number in RFC 8259 grammar,
    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, which must not run
    /// straight into another number character (`01`, `1.2.3`). Errors point
    /// at the number's first byte.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut valid = match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                true
            }
            Some(b'1'..=b'9') => self.digits(),
            _ => false,
        };
        let mut is_float = false;
        if valid && self.peek() == Some(b'.') {
            self.pos += 1;
            is_float = true;
            valid = self.digits();
        }
        if valid && matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            is_float = true;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            valid = self.digits();
        }
        if !valid
            || matches!(
                self.peek(),
                Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            )
        {
            self.pos = start;
            return Err(self.error("invalid number"));
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            _ => {
                self.pos = start;
                Err(self.error("invalid number"))
            }
        }
    }
}

/// A malformed line of a JSON Lines document: which line, where in it, which
/// field, and what is wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineError {
    /// What the document is (`"trace"`, `"fault plan"`, ...); prefixes the
    /// `Display` form.
    pub doc: &'static str,
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Byte offset within the line where a syntax error was detected; `0`
    /// for a well-formed line whose fields are wrong.
    pub pos: usize,
    /// Top-level key of the offending field; empty when the error is not
    /// inside one (e.g. a line that is not an object at all).
    pub field: String,
    /// What is wrong, naming the field when there is one.
    pub message: String,
}

impl LineError {
    /// An error about `field` of line `line` (at offset 0). The message is
    /// prefixed with the field name unless `field` is empty.
    pub fn new(doc: &'static str, line: usize, field: &str, what: impl fmt::Display) -> Self {
        let message = if field.is_empty() {
            what.to_string()
        } else {
            format!("field `{field}`: {what}")
        };
        Self {
            doc,
            line,
            pos: 0,
            field: field.to_string(),
            message,
        }
    }
}

impl fmt::Display for LineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} line {}: {}", self.doc, self.line, self.message)
    }
}

impl std::error::Error for LineError {}

/// A JSON Lines reader: yields every non-blank line of `text`, parsed as a
/// JSON object, or the [`LineError`] that stops it.
#[derive(Debug)]
pub struct JsonLines<'a> {
    doc: &'static str,
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
}

impl<'a> JsonLines<'a> {
    /// Reads `text`; `doc` names the document in every error.
    pub fn new(doc: &'static str, text: &'a str) -> Self {
        Self {
            doc,
            lines: text.lines().enumerate(),
        }
    }
}

impl Iterator for JsonLines<'_> {
    type Item = Result<JsonLine, LineError>;

    fn next(&mut self) -> Option<Self::Item> {
        let (index, text) = self.lines.find(|(_, text)| !text.trim().is_empty())?;
        let line = index + 1;
        Some(match Json::parse(text) {
            Ok(Json::Obj(fields)) => Ok(JsonLine {
                doc: self.doc,
                line,
                fields,
            }),
            Ok(_) => Err(LineError::new(
                self.doc,
                line,
                "",
                "expected one JSON object per line",
            )),
            Err(e) => Err(LineError {
                pos: e.pos,
                ..LineError::new(
                    self.doc,
                    line,
                    e.key.as_deref().unwrap_or(""),
                    format_args!("{} at byte {}", e.message, e.pos),
                )
            }),
        })
    }
}

/// A JSON value a [`JsonLine`] field getter converts to.
pub trait FromJson: Sized {
    /// What a field of this type must hold, for error messages.
    const EXPECTED: &'static str;

    /// The converted value, or `None` when `value` does not fit.
    fn from_json(value: &Json) -> Option<Self>;
}

impl FromJson for f64 {
    const EXPECTED: &'static str = "expected a number";

    fn from_json(value: &Json) -> Option<Self> {
        value.as_f64()
    }
}

impl FromJson for String {
    const EXPECTED: &'static str = "expected a string";

    fn from_json(value: &Json) -> Option<Self> {
        value.as_str().map(str::to_string)
    }
}

macro_rules! from_json_uint {
    ($($ty:ty),*) => {$(
        impl FromJson for $ty {
            const EXPECTED: &'static str =
                concat!("expected an integer in the range of `", stringify!($ty), "`");

            fn from_json(value: &Json) -> Option<Self> {
                value.as_u64().and_then(|n| Self::try_from(n).ok())
            }
        }
    )*};
}

from_json_uint!(u8, u32, u64, usize);

/// One object line of a [`JsonLines`] document, with typed field getters
/// whose errors name the line and the field.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonLine {
    doc: &'static str,
    line: usize,
    fields: Vec<(String, Json)>,
}

impl JsonLine {
    /// The raw value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// An error about `field` of this line.
    pub fn error(&self, field: &str, what: impl fmt::Display) -> LineError {
        LineError::new(self.doc, self.line, field, what)
    }

    /// Rejects the first field whose key is not in `known`.
    pub fn check_keys(&self, known: &[&str]) -> Result<(), LineError> {
        match self
            .fields
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()))
        {
            Some((key, _)) => Err(self.error(key, "unknown field")),
            None => Ok(()),
        }
    }

    /// The value of `key` converted to `T`; absent or ill-typed is an error.
    pub fn req<T: FromJson>(&self, key: &str) -> Result<T, LineError> {
        self.opt(key)?.ok_or_else(|| self.error(key, "missing"))
    }

    /// The value of `key` converted to `T`, `None` when absent; ill-typed is
    /// an error.
    pub fn opt<T: FromJson>(&self, key: &str) -> Result<Option<T>, LineError> {
        self.get(key)
            .map(|value| T::from_json(value).ok_or_else(|| self.error(key, T::EXPECTED)))
            .transpose()
    }
}

/// A shared stop flag: cloned into whatever needs to request or observe
/// shutdown (signal handlers, tests, the daemon's `shutdown` command).
#[derive(Debug, Clone, Default)]
pub struct Stopper(Arc<AtomicBool>);

impl Stopper {
    /// A fresh, un-tripped stopper.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests shutdown (idempotent).
    pub fn stop(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested.
    pub fn is_stopped(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// One newline-delimited text connection. Lines are UTF-8, framed by `\n`
/// (a trailing `\r` is stripped, so `\r\n` clients work too).
#[derive(Debug)]
pub struct LineConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Outgoing bytes, reused across writes so that a line, or a batch of
    /// lines, goes out in one `write_all`.
    out: Vec<u8>,
    /// The bytes of a line whose newline has not arrived yet: a read that
    /// times out keeps them here for the next [`LineConn::read_line`].
    partial: Vec<u8>,
}

impl LineConn {
    /// Connects to a line server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        Self::from_stream(TcpStream::connect(addr)?)
    }

    fn from_stream(stream: TcpStream) -> io::Result<Self> {
        // The protocol is many small request/reply lines; without TCP_NODELAY,
        // Nagle's algorithm batches them against delayed ACKs and adds ~40 ms
        // stalls to every warm (sub-millisecond) exchange.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
            out: Vec::new(),
            partial: Vec::new(),
        })
    }

    /// Reads the next line (without its terminator). `Ok(None)` on clean EOF.
    ///
    /// A read that times out (see [`LineConn::set_read_timeout`]) keeps the
    /// bytes of the line received so far, so a line split across a pause is
    /// returned whole once its newline arrives. A line that is not UTF-8 is
    /// consumed whole and reported as an [`io::ErrorKind::InvalidData`] error
    /// reading `invalid UTF-8 at byte N` (`N` counted from the line's start);
    /// the connection stays usable.
    pub fn read_line(&mut self) -> io::Result<Option<String>> {
        let n = self.reader.read_until(b'\n', &mut self.partial)?;
        if n == 0 && self.partial.is_empty() {
            return Ok(None);
        }
        let mut line = std::mem::take(&mut self.partial);
        while matches!(line.last(), Some(b'\n' | b'\r')) {
            line.pop();
        }
        String::from_utf8(line).map(Some).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("invalid UTF-8 at byte {}", e.utf8_error().valid_up_to()),
            )
        })
    }

    /// Writes one line, appending `\n`. The line must not itself contain a
    /// newline — that would desynchronize the framing.
    pub fn write_line(&mut self, line: &str) -> io::Result<()> {
        self.write_lines([line])
    }

    /// Writes several lines, each with `\n` appended, in one `write_all`. A
    /// reader gets the same bytes as from one [`LineConn::write_line`] per
    /// line, possibly several per read. No line may itself contain a newline.
    pub fn write_lines<I>(&mut self, lines: I) -> io::Result<()>
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        self.out.clear();
        for line in lines {
            let line = line.as_ref();
            debug_assert!(!line.contains('\n'), "line payloads must be newline-free");
            self.out.extend_from_slice(line.as_bytes());
            self.out.push(b'\n');
        }
        self.writer.write_all(&self.out)
    }

    /// Bounds how long a [`LineConn::read_line`] may block (`None` = forever).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }
}

/// A thread-per-connection TCP accept loop over [`LineConn`]s.
///
/// The listener polls non-blockingly so the loop can observe its [`Stopper`]
/// promptly; once stopped it closes the accept path and joins every live
/// connection thread before [`LineServer::run`] returns — connections in
/// flight finish, new ones are refused by virtue of nobody accepting.
#[derive(Debug)]
pub struct LineServer {
    listener: TcpListener,
    stopper: Stopper,
}

impl LineServer {
    /// Binds (port 0 picks an ephemeral port — read it back with
    /// [`LineServer::local_addr`]).
    pub fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Self {
            listener,
            stopper: Stopper::new(),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that makes [`LineServer::run`] return.
    pub fn stopper(&self) -> Stopper {
        self.stopper.clone()
    }

    /// Accepts connections until stopped, running `handler` on a dedicated
    /// thread per connection; joins all of them before returning.
    pub fn run<H>(&self, handler: H)
    where
        H: Fn(LineConn) + Send + Sync + 'static,
    {
        let handler = Arc::new(handler);
        let workers: Mutex<VecDeque<JoinHandle<()>>> = Mutex::new(VecDeque::new());
        while !self.stopper.is_stopped() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    // Connection I/O is blocking; only the accept path polls.
                    if stream.set_nonblocking(false).is_err() {
                        continue;
                    }
                    let Ok(conn) = LineConn::from_stream(stream) else {
                        continue;
                    };
                    let handler = Arc::clone(&handler);
                    let handle = std::thread::spawn(move || handler(conn));
                    let mut workers = workers.lock().unwrap();
                    workers.push_back(handle);
                    // Reap finished threads so long-lived servers don't
                    // accumulate handles.
                    while workers.front().is_some_and(JoinHandle::is_finished) {
                        let _ = workers.pop_front().unwrap().join();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        for handle in workers.into_inner().unwrap() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrips_and_preserves_int_float_distinction() {
        let line = r#"{"cmd":"submit","priority":2,"rate":12.5,"tags":["a","b"],"deep":{"x":null,"ok":true}}"#;
        let value = Json::parse(line).unwrap();
        assert_eq!(value.get("priority").unwrap().as_i64(), Some(2));
        assert_eq!(value.get("rate").unwrap().as_f64(), Some(12.5));
        assert!(matches!(value.get("rate"), Some(Json::Num(_))));
        assert_eq!(value.render(), line);
        // Shortest round-trip float form is parse-stable.
        let reparsed = Json::parse(&value.render()).unwrap();
        assert_eq!(reparsed, value);
    }

    #[test]
    fn json_renders_whole_floats_with_a_fractional_part() {
        assert_eq!(Json::Num(3.0).render(), "3.0");
        assert_eq!(Json::Int(3).render(), "3");
        assert_eq!(Json::parse("3.0").unwrap(), Json::Num(3.0));
        assert_eq!(Json::parse("3").unwrap(), Json::Int(3));
    }

    #[test]
    fn json_errors_carry_positions() {
        let err = Json::parse(r#"{"a":1,"a":2}"#).unwrap_err();
        assert!(err.message.contains("duplicate"), "{err}");
        let err = Json::parse("[1, 2,]").unwrap_err();
        assert_eq!(err.pos, 6);
        let err = Json::parse("").unwrap_err();
        assert!(err.message.contains("end of input"));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = Json::Str("tab\tquote\"slash\\newline\nünïcode\u{1}".into());
        let rendered = original.render();
        assert_eq!(Json::parse(&rendered).unwrap(), original);
        // Surrogate-pair escape decodes to one astral char.
        assert_eq!(
            Json::parse(r#""😀""#).unwrap(),
            Json::Str("\u{1F600}".into())
        );
    }

    #[test]
    fn integers_cover_the_whole_i64_and_u64_ranges() {
        for n in [0, 1, i64::MAX as u64, i64::MAX as u64 + 1, u64::MAX] {
            let value = Json::uint(n);
            assert_eq!(value.as_u64(), Some(n));
            assert_eq!(value.render(), n.to_string());
            assert_eq!(Json::parse(&n.to_string()).unwrap(), value);
        }
        assert_eq!(Json::uint(7), Json::Int(7));
        assert_eq!(Json::uint(u64::MAX), Json::UInt(u64::MAX));
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::Num(1.0).as_u64(), None);
        assert_eq!(Json::UInt(u64::MAX).as_i64(), None);
        assert_eq!(Json::UInt(u64::MAX).as_f64(), Some(u64::MAX as f64));
        assert_eq!(
            Json::parse(&i64::MIN.to_string()).unwrap(),
            Json::Int(i64::MIN)
        );
        // Past u64::MAX an integer literal falls back to a float.
        assert_eq!(
            Json::parse("18446744073709551616").unwrap(),
            Json::Num(18446744073709551616.0)
        );
    }

    #[test]
    fn numbers_follow_the_rfc_8259_grammar() {
        for (text, value) in [
            ("0", Json::Int(0)),
            ("-0", Json::Int(0)),
            ("10", Json::Int(10)),
            ("-10", Json::Int(-10)),
            ("0.5", Json::Num(0.5)),
            ("-0.5", Json::Num(-0.5)),
            ("1e5", Json::Num(1e5)),
            ("1E+5", Json::Num(1e5)),
            ("2.5e-3", Json::Num(2.5e-3)),
            ("0e0", Json::Num(0.0)),
        ] {
            assert_eq!(Json::parse(text), Ok(value), "{text}");
        }
        // Each rejected form fails at the number's first byte, also when the
        // number is a member value.
        for bad in [
            "01", "-01", "00.5", "1.", "1.e5", "-.5", "-", "1e", "1e+", "1.2.3", "1e5.3", "1-2",
            "1E5e1",
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert_eq!(
                (err.pos, err.message.as_str()),
                (0, "invalid number"),
                "{bad}: {err}"
            );
            let doc = format!("{{\"n\":{bad}}}");
            let err = Json::parse(&doc).unwrap_err();
            assert_eq!(err.pos, 5, "{doc}: {err}");
            assert_eq!(err.key.as_deref(), Some("n"), "{doc}");
        }
    }

    #[test]
    fn errors_name_the_outermost_member() {
        let err = Json::parse(r#"{"a":1,"b":oops}"#).unwrap_err();
        assert_eq!(err.key.as_deref(), Some("b"));
        assert_eq!(err.pos, 11);
        let err = Json::parse(r#"{"a":{"inner":[1,}}"#).unwrap_err();
        assert_eq!(err.key.as_deref(), Some("a"));
        // Errors outside a member's value carry no key.
        assert_eq!(Json::parse(r#"{"a":1 "b":2}"#).unwrap_err().key, None);
        assert_eq!(Json::parse(r#"{"a":1,"a":2}"#).unwrap_err().key, None);
        assert_eq!(Json::parse("[oops]").unwrap_err().key, None);
    }

    /// The string scan is linear: an ~800 KB string value (the size of a
    /// traced grid's embedded trace) parses in well under a second even in
    /// the debug profile.
    #[test]
    fn long_strings_parse_in_linear_time() {
        let chunk = "{\"track\":\"replica 3\",\"name\":\"admit\",\"t\":1.5e9}\nünï\t";
        let long: String = chunk.repeat(800_000 / chunk.len());
        let line = Json::obj(vec![("data", Json::Str(long.clone()))]).render();
        let start = std::time::Instant::now();
        let parsed = Json::parse(&line).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(
            parsed.get("data").and_then(Json::as_str),
            Some(long.as_str())
        );
        assert!(
            elapsed < Duration::from_secs(1),
            "800 KB string took {elapsed:?}"
        );
    }

    #[test]
    fn unicode_escapes_are_strict() {
        assert_eq!(Json::parse(r#""é""#).unwrap(), Json::Str("é".into()));
        assert!(Json::parse(r#""\u+0e9""#).is_err());
        assert!(Json::parse(r#""\u00""#).is_err());
        assert!(Json::parse("\"a\u{1}b\"").is_err());
    }

    #[test]
    fn json_lines_read_objects_with_typed_fields() {
        let text =
            "{\"a\":1.5,\"n\":3,\"s\":\"x\"}\n\n  \n{\"a\":2,\"big\":18446744073709551615}\n";
        let lines: Vec<JsonLine> = JsonLines::new("doc", text)
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(lines.len(), 2);
        // Blank lines are skipped but still counted.
        assert_eq!(lines[1].error("a", "bad").line, 4);
        assert_eq!(lines[0].req::<f64>("a"), Ok(1.5));
        assert_eq!(lines[0].req::<u8>("n"), Ok(3));
        assert_eq!(lines[0].req::<String>("s").as_deref(), Ok("x"));
        assert_eq!(lines[1].req::<f64>("a"), Ok(2.0));
        assert_eq!(lines[1].req::<u64>("big"), Ok(u64::MAX));
        assert_eq!(lines[1].opt::<u64>("n"), Ok(None));

        let err = lines[1].req::<u32>("big").unwrap_err();
        assert_eq!((err.line, err.field.as_str()), (4, "big"));
        assert!(err.message.contains("big"), "{err}");
        let err = lines[0].req::<f64>("s").unwrap_err();
        assert_eq!(err.to_string(), "doc line 1: field `s`: expected a number");
        let err = lines[0].req::<f64>("gone").unwrap_err();
        assert_eq!(err.to_string(), "doc line 1: field `gone`: missing");
        let err = lines[0].check_keys(&["a", "n"]).unwrap_err();
        assert_eq!(err.field, "s");
        assert!(lines[0].check_keys(&["a", "n", "s"]).is_ok());
    }

    #[test]
    fn json_lines_name_the_line_field_and_offset_of_syntax_errors() {
        let text = "{\"a\":1}\n{\"a\":2,\"b\":oops}\n";
        let err = JsonLines::new("doc", text)
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert_eq!((err.line, err.pos, err.field.as_str()), (2, 11, "b"));
        assert!(err.message.contains("`b`"), "{err}");
        assert!(err.to_string().starts_with("doc line 2: "), "{err}");

        let err = JsonLines::new("doc", "[1,2]").next().unwrap().unwrap_err();
        assert_eq!((err.line, err.field.as_str()), (1, ""));
        let err = JsonLines::new("doc", "{\"a\":1,\"tr")
            .next()
            .unwrap()
            .unwrap_err();
        assert_eq!((err.line, err.pos, err.field.as_str()), (1, 10, ""));
        assert!(JsonLines::new("doc", "\n \n").next().is_none());
    }

    #[test]
    fn line_server_echoes_and_stops_cleanly() {
        let server = LineServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let stopper = server.stopper();
        let server_thread = std::thread::spawn(move || {
            server.run(|mut conn| {
                while let Ok(Some(line)) = conn.read_line() {
                    if conn.write_line(&format!("echo:{line}")).is_err() {
                        break;
                    }
                }
            });
        });

        let mut client = LineConn::connect(addr).unwrap();
        client.write_line("hello").unwrap();
        assert_eq!(client.read_line().unwrap().as_deref(), Some("echo:hello"));
        client.write_line("world").unwrap();
        assert_eq!(client.read_line().unwrap().as_deref(), Some("echo:world"));
        drop(client);

        stopper.stop();
        server_thread.join().unwrap();
    }

    /// A connected pair: a client [`LineConn`] and the raw accepted stream.
    fn conn_pair() -> (LineConn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let conn = LineConn::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        (conn, stream)
    }

    #[test]
    fn write_lines_sends_every_line_whole_and_in_order() {
        // A 4 MiB line: more than a socket usually takes in one `write`, so
        // `write_all` is likely to send it in pieces.
        let long = "ü".repeat(2 << 20);
        let batch = ["first", "", "grüße, 世界 🚀", long.as_str(), "last"];
        let (mut sender, stream) = conn_pair();
        let mut receiver = LineConn::from_stream(stream).unwrap();
        // Write from a second thread: the batch can outgrow the socket
        // buffers before anything reads it.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                sender.write_lines(batch).unwrap();
            });
            for line in batch {
                assert_eq!(receiver.read_line().unwrap().as_deref(), Some(line));
            }
        });

        // A one-line batch and `write_line` put the same bytes on the wire;
        // an empty batch puts none.
        let (mut sender, mut stream) = conn_pair();
        sender.write_lines(["grüße"]).unwrap();
        sender.write_lines(Vec::<String>::new()).unwrap();
        sender.write_line("grüße").unwrap();
        drop(sender);
        let mut wire = Vec::new();
        std::io::Read::read_to_end(&mut stream, &mut wire).unwrap();
        assert_eq!(wire, "grüße\ngrüße\n".as_bytes());
    }
}
