//! Chrome `trace_event` export and shape validation.
//!
//! The emitter writes the JSON by hand with a fixed field order and integer
//! timestamps, so equal span lists serialize to byte-identical files — the
//! property the determinism checks (`exp fault_sweep`, the CI trace-smoke
//! job) diff on. The output is the documented "JSON Object Format":
//! `{"traceEvents":[...]}` with `ph:"X"` complete events, which both
//! `chrome://tracing` and Perfetto load directly.
//!
//! The validator is a self-contained minimal JSON parser (the vendored
//! `serde_json` has no dynamic `Value` type) that checks each event carries
//! the fields the Chrome trace-event format requires.

use crate::span::{AttrValue, SpanEvent};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Escapes a string for inclusion in a JSON document.
fn escape_json(out: &mut String, s: &str) {
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
}

fn write_event(out: &mut String, e: &SpanEvent) {
    out.push_str("{\"name\":\"");
    escape_json(out, e.name);
    let cat = e.name.split('.').next().unwrap_or(e.name);
    out.push_str("\",\"cat\":\"");
    escape_json(out, cat);
    let _ = write!(
        out,
        "\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}",
        e.start, e.dur, e.track
    );
    if !e.args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in e.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_json(out, k);
            out.push_str("\":");
            match v {
                AttrValue::U64(n) => {
                    let _ = write!(out, "{n}");
                }
                AttrValue::Str(s) => {
                    out.push('"');
                    escape_json(out, s);
                    out.push('"');
                }
            }
        }
        out.push('}');
    }
    out.push('}');
}

/// Serializes spans as a Chrome trace-event JSON document (byte-deterministic
/// for equal inputs). Events appear in input order; viewers sort by `ts`.
pub fn chrome_trace_json(events: &[SpanEvent]) -> String {
    chrome_trace_json_named(events, &[])
}

/// Like [`chrome_trace_json`], with `thread_name` metadata naming the given
/// tracks (e.g. `(0, "line 0")`) so Perfetto labels the rows.
pub fn chrome_trace_json_named(events: &[SpanEvent], track_names: &[(u32, &str)]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for (track, name) in track_names {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{track},\"args\":{{\"name\":\""
        );
        escape_json(&mut out, name);
        out.push_str("\"}}");
    }
    for e in events {
        if !first {
            out.push(',');
        }
        first = false;
        write_event(&mut out, e);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Summary returned by [`validate_chrome_trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStats {
    /// Total events, metadata included.
    pub events: usize,
    /// `ph:"X"` complete events.
    pub complete_events: usize,
    /// Distinct complete-event names.
    pub span_kinds: BTreeSet<String>,
    /// Distinct `tid` values among complete events.
    pub tracks: BTreeSet<u64>,
}

/// Parses `json` and checks it against the Chrome trace-event shape: a root
/// object with a `traceEvents` array whose elements are objects carrying
/// `name`/`ph`/`pid`/`tid`, with numeric `ts` and `dur` on every `ph:"X"`
/// event. Returns per-kind counts on success.
pub fn validate_chrome_trace(json: &str) -> Result<TraceStats, String> {
    let value = json::parse(json)?;
    let root = value.as_object().ok_or("root is not an object")?;
    let events = root
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .ok_or("missing traceEvents")?
        .as_array()
        .ok_or("traceEvents is not an array")?;
    let mut stats = TraceStats {
        events: events.len(),
        complete_events: 0,
        span_kinds: BTreeSet::new(),
        tracks: BTreeSet::new(),
    };
    for (i, event) in events.iter().enumerate() {
        let obj = event
            .as_object()
            .ok_or_else(|| format!("event {i} is not an object"))?;
        let field = |key: &str| obj.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let name = field("name")
            .and_then(json::Value::as_str)
            .ok_or_else(|| format!("event {i}: missing string name"))?;
        let ph = field("ph")
            .and_then(json::Value::as_str)
            .ok_or_else(|| format!("event {i}: missing string ph"))?;
        let tid = field("tid")
            .and_then(json::Value::as_u64)
            .ok_or_else(|| format!("event {i}: missing numeric tid"))?;
        field("pid")
            .and_then(json::Value::as_u64)
            .ok_or_else(|| format!("event {i}: missing numeric pid"))?;
        match ph {
            "X" => {
                field("ts")
                    .and_then(json::Value::as_u64)
                    .ok_or_else(|| format!("event {i}: complete event missing numeric ts"))?;
                field("dur")
                    .and_then(json::Value::as_u64)
                    .ok_or_else(|| format!("event {i}: complete event missing numeric dur"))?;
                stats.complete_events += 1;
                stats.span_kinds.insert(name.to_string());
                stats.tracks.insert(tid);
            }
            "M" => {}
            other => return Err(format!("event {i}: unexpected ph {other:?}")),
        }
    }
    Ok(stats)
}

/// A minimal JSON parser, just enough to validate trace files offline.
mod json {
    pub enum Value {
        Null,
        #[allow(dead_code)] // parsed but never inspected by the validator
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(fields) => Some(fields),
                _ => None,
            }
        }
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(items) => Some(items),
                _ => None,
            }
        }
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
                _ => None,
            }
        }
    }

    pub fn parse(input: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
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
                Err(format!("expected {:?} at byte {}", b as char, self.pos))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'n') => self.literal("null", Value::Null),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                _ => Err(format!("unexpected byte at {}", self.pos)),
            }
        }

        fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(v)
            } else {
                Err(format!("bad literal at byte {}", self.pos))
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
            {
                self.pos += 1;
            }
            std::str::from_utf8(&self.bytes[start..self.pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(Value::Num)
                .ok_or_else(|| format!("bad number at byte {start}"))
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err("unterminated string".to_string()),
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
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .ok_or("bad \\u escape")?;
                                // Surrogate pairs are not needed for our own
                                // escapes (only control chars use \u).
                                out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                                self.pos += 4;
                            }
                            _ => return Err(format!("bad escape at byte {}", self.pos)),
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar.
                        let rest = std::str::from_utf8(&self.bytes[self.pos..])
                            .map_err(|_| "invalid utf-8".to_string())?;
                        let c = rest.chars().next().unwrap();
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected , or ] at byte {}", self.pos)),
                }
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let value = self.value()?;
                fields.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(format!("expected , or }} at byte {}", self.pos)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Recorder;

    fn sample_spans() -> Vec<SpanEvent> {
        let mut r = Recorder::enabled();
        r.push(
            "crawl.page",
            0,
            100,
            vec![("url", AttrValue::str("http://x/?a=\"1\""))],
        );
        r.set_track(3);
        r.push("xhr.fetch", 10, 40, vec![("status", AttrValue::U64(200))]);
        r.take()
    }

    #[test]
    fn emitted_trace_validates() {
        let json = chrome_trace_json_named(&sample_spans(), &[(0, "line 0"), (3, "line 3")]);
        let stats = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(stats.events, 4, "2 metadata + 2 spans");
        assert_eq!(stats.complete_events, 2);
        assert!(stats.span_kinds.contains("crawl.page"));
        assert_eq!(stats.tracks.iter().copied().collect::<Vec<_>>(), vec![0, 3]);
    }

    #[test]
    fn equal_spans_serialize_byte_identically() {
        let a = chrome_trace_json(&sample_spans());
        let b = chrome_trace_json(&sample_spans());
        assert_eq!(a, b);
    }

    #[test]
    fn strings_are_escaped() {
        let json = chrome_trace_json(&sample_spans());
        assert!(json.contains("a=\\\"1\\\""));
        validate_chrome_trace(&json).expect("escaped quotes still parse");
    }

    #[test]
    fn empty_trace_is_valid() {
        let json = chrome_trace_json(&[]);
        let stats = validate_chrome_trace(&json).expect("valid");
        assert_eq!(stats.events, 0);
    }

    #[test]
    fn malformed_traces_are_rejected() {
        assert!(validate_chrome_trace("[]").is_err(), "root must be object");
        assert!(validate_chrome_trace("{\"traceEvents\":{}}").is_err());
        assert!(
            validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err(),
            "events need name/ts/dur/pid/tid"
        );
        assert!(
            validate_chrome_trace("{\"traceEvents\":[]").is_err(),
            "truncated"
        );
    }
}
