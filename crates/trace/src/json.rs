//! A minimal in-repo JSON parser and a structural validator for the Chrome
//! trace-event format.
//!
//! The workspace is dependency-free, so the CI tier that checks exporter
//! output cannot reach for `serde`; this module implements just enough of
//! RFC 8259 to round-trip what [`crate::export`] emits and to assert the
//! structural invariants a trace viewer relies on.

#![expect(
    clippy::indexing_slicing,
    reason = "pos <= bytes.len() is the parser's invariant: it advances only past a byte it has peeked, and start is an earlier pos"
)]

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object (sorted keys; duplicate keys keep the last value).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The object entry at `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts. The parser
/// recurses once per level, so without a limit a document of a million `[`
/// overflows the stack. A Chrome trace, the deepest document the repo
/// writes, nests four.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("json error at byte {}: {msg}", self.pos)
    }

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

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nested deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in number"))?;
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Num(n)),
            Ok(_) => Err(self.err("number out of range")),
            Err(_) => Err(self.err("malformed number")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            // Checked here: `from_str_radix` would take a sign.
                            let hex = std::str::from_utf8(hex)
                                .ok()
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed for our exports.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(lead) => {
                    // Consume one UTF-8 scalar. Its length is in the lead
                    // byte, so only those bytes are validated and a long
                    // string costs time linear in its length.
                    let len = match lead {
                        ..=0x7f => 1,
                        ..=0xdf => 2,
                        ..=0xef => 3,
                        _ => 4,
                    };
                    let c = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .and_then(|s| std::str::from_utf8(s).ok())
                        .and_then(|s| s.chars().next())
                        .ok_or_else(|| self.err("invalid utf-8"))?;
                    out.push(c);
                    self.pos += len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect_byte(b'{')?;
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
            self.expect_byte(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses a complete JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

/// Structural facts extracted by [`validate_chrome_trace`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChromeTraceSummary {
    /// `"X"` (complete/duration) events.
    pub span_events: usize,
    /// `"i"` (instant) events.
    pub instant_events: usize,
    /// `"M"` (metadata) records.
    pub metadata_events: usize,
    /// Distinct `tid`s across non-metadata events.
    pub distinct_tids: usize,
}

/// Validates that `text` is well-formed Chrome trace-event JSON: a top-level
/// `traceEvents` array whose entries all have a string `name`, a known `ph`,
/// integer `pid`/`tid`, and (for `"X"`/`"i"`) a numeric `ts` — with `"X"`
/// additionally carrying a non-negative `dur`.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeTraceSummary, String> {
    let doc = parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut summary = ChromeTraceSummary::default();
    let mut tids: Vec<i64> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let at = |msg: &str| format!("traceEvents[{i}]: {msg}");
        ev.get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| at("missing string name"))?;
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| at("missing ph"))?;
        let tid = ev
            .get("tid")
            .and_then(Value::as_num)
            .ok_or_else(|| at("missing tid"))?;
        if tid.fract() != 0.0 {
            return Err(at("tid must be an integer"));
        }
        ev.get("pid")
            .and_then(Value::as_num)
            .ok_or_else(|| at("missing pid"))?;
        match ph {
            "M" => summary.metadata_events += 1,
            "X" | "i" => {
                ev.get("ts")
                    .and_then(Value::as_num)
                    .ok_or_else(|| at("missing numeric ts"))?;
                if ph == "X" {
                    let dur = ev
                        .get("dur")
                        .and_then(Value::as_num)
                        .ok_or_else(|| at("X event missing dur"))?;
                    if dur < 0.0 {
                        return Err(at("negative dur"));
                    }
                    summary.span_events += 1;
                } else {
                    summary.instant_events += 1;
                }
                tids.push(tid as i64);
            }
            other => return Err(at(&format!("unknown ph {other:?}"))),
        }
    }
    tids.sort_unstable();
    tids.dedup();
    summary.distinct_tids = tids.len();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use crate::export::chrome_trace;
    use crate::names::{events, spans};
    use crate::span::{Trace, NO_BATCH};

    #[test]
    fn parses_scalars_arrays_and_objects() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("-1.5e2").unwrap(), Value::Num(-150.0));
        assert_eq!(
            parse("\"a\\n\\u0041\"").unwrap(),
            Value::Str("a\nA".to_string())
        );
        let v = parse("{\"a\": [1, 2], \"b\": {\"c\": \"d\"}}").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("d"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_limited_instead_of_overflowing_the_stack() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nested deeper"), "{err}");
        // A million unclosed brackets used to abort the process.
        assert!(parse(&"[".repeat(1 << 20)).is_err());
        assert!(parse(&"{\"a\":".repeat(1 << 16)).is_err());
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(parse("\"\\u00e9\"").unwrap(), Value::Str("\u{e9}".to_string()));
        assert!(parse("\"\\u+123\"").is_err());
        assert!(parse("\"\\u12\"").is_err());
        // Unescaped scalars of two, three and four bytes pass through.
        assert_eq!(parse("\"é→😀\"").unwrap(), Value::Str("é→😀".to_string()));
    }

    #[test]
    fn numbers_that_overflow_f64_are_rejected() {
        assert!(parse("1e999").is_err());
        assert!(parse("[-1e999]").is_err());
        assert_eq!(parse("1e308").unwrap(), Value::Num(1e308));
    }

    #[test]
    fn validates_real_exporter_output() {
        let t = Trace::new(Clock::virtual_with_tick(100));
        {
            let _s = t.span_batch(spans::STAGE_TRAIN, 0);
        }
        t.instant(events::RETRY, NO_BATCH);
        let json = chrome_trace(&t.snapshot());
        let summary = validate_chrome_trace(&json).unwrap();
        assert_eq!(summary.span_events, 1);
        assert_eq!(summary.instant_events, 1);
        assert_eq!(summary.metadata_events, 1);
        assert_eq!(summary.distinct_tids, 1);
        // The exporter writes no counter track, so the validator knows none.
        assert!(!json.contains("\"ph\":\"C\""), "{json}");
    }

    #[test]
    fn rejects_structurally_broken_traces() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace(
            "{\"traceEvents\":[{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":0,\"dur\":1}]}"
        )
        .is_err()); // missing name
        assert!(validate_chrome_trace(
            "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":0}]}"
        )
        .is_err()); // X without dur
        assert!(validate_chrome_trace(
            "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"?\",\"pid\":0,\"tid\":0}]}"
        )
        .is_err()); // unknown phase
        let counter = validate_chrome_trace(
            "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":0,\"args\":{}}]}",
        )
        .unwrap_err();
        assert!(counter.contains("unknown ph \"C\""), "{counter}");
    }
}
