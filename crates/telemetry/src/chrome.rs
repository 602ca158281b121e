//! Chrome Trace Format export and validation.
//!
//! [`chrome_trace_json`] serialises recorded events into the JSON object
//! format (`{"traceEvents":[…]}`) that `chrome://tracing` and Perfetto
//! load directly: each replica becomes a process (`pid`), each module lane
//! a named thread (`tid`), spans become `B`/`E` pairs, request-lifecycle
//! intervals become async `b`/`e` pairs keyed by request id, and counters
//! become `C` events. Timestamps are microseconds, as the format requires.
//!
//! [`validate_chrome_trace`] re-parses an exported document with a
//! self-contained JSON reader and checks the structural invariants CI
//! relies on: every event carries a known `ph`, `B`/`E` pairs are balanced
//! per track with matching names and non-overlapping, monotonically
//! ordered intervals, and async `b`/`e` pairs are balanced per
//! `(id, name)`.

use std::collections::BTreeSet;

use crate::{Event, EventKind, TrackId};

/// Seconds → Chrome trace microseconds.
fn us(t_s: f64) -> f64 {
    t_s * 1e6
}

/// Appends one JSON-escaped string literal.
fn push_str_lit(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends the common `"ts":…,"pid":…,"tid":…` tail of one event object.
fn push_tail(out: &mut String, t_us: f64, track: TrackId) {
    out.push_str(&format!(
        "\"ts\":{:?},\"pid\":{},\"tid\":{}",
        t_us,
        track.replica,
        track.module.lane_index()
    ));
}

/// Serialises events to a Chrome Trace Format JSON document.
///
/// Events are emitted in recording order; span and async intervals expand
/// to begin/end pairs, so the output is balanced by construction. Metadata
/// events naming every process (replica) and thread (module lane) come
/// first so Perfetto labels the tracks.
pub fn chrome_trace_json(events: &[Event]) -> String {
    let mut out = String::with_capacity(128 + events.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut emit = |out: &mut String, body: &str| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push('{');
        out.push_str(body);
        out.push('}');
    };

    // Track-naming metadata, deterministically ordered.
    let tracks: BTreeSet<TrackId> = events.iter().map(|e| e.track).collect();
    let replicas: BTreeSet<u32> = tracks.iter().map(|t| t.replica).collect();
    for r in &replicas {
        emit(
            &mut out,
            &format!(
                "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{r},\"tid\":0,\
                 \"args\":{{\"name\":\"replica {r}\"}}"
            ),
        );
    }
    for t in &tracks {
        emit(
            &mut out,
            &format!(
                "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}",
                t.replica,
                t.module.lane_index(),
                t.module.label()
            ),
        );
        emit(
            &mut out,
            &format!(
                "\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\
                 \"args\":{{\"sort_index\":{}}}",
                t.replica,
                t.module.lane_index(),
                t.module.lane_index()
            ),
        );
    }

    for e in events {
        let mut body = String::new();
        push_str_lit(&mut body, e.name);
        let name = std::mem::take(&mut body);
        match e.kind {
            EventKind::Span { end_s, class, bubble } => {
                let mut b = format!("\"name\":{name},\"cat\":\"{}\",\"ph\":\"B\",", class.label());
                push_tail(&mut b, us(e.t_s), e.track);
                b.push_str(&format!(",\"args\":{{\"bubble\":{bubble}}}"));
                emit(&mut out, &b);
                let mut x = format!("\"name\":{name},\"cat\":\"{}\",\"ph\":\"E\",", class.label());
                push_tail(&mut x, us(end_s), e.track);
                emit(&mut out, &x);
            }
            EventKind::Async { id, end_s } => {
                let mut b =
                    format!("\"name\":{name},\"cat\":\"request\",\"ph\":\"b\",\"id\":{id},");
                push_tail(&mut b, us(e.t_s), e.track);
                emit(&mut out, &b);
                let mut x =
                    format!("\"name\":{name},\"cat\":\"request\",\"ph\":\"e\",\"id\":{id},");
                push_tail(&mut x, us(end_s), e.track);
                emit(&mut out, &x);
            }
            EventKind::Instant => {
                let mut b = format!("\"name\":{name},\"ph\":\"i\",\"s\":\"t\",");
                push_tail(&mut b, us(e.t_s), e.track);
                emit(&mut out, &b);
            }
            EventKind::Counter { value } => {
                let mut b = format!("\"name\":{name},\"ph\":\"C\",");
                push_tail(&mut b, us(e.t_s), e.track);
                b.push_str(&format!(",\"args\":{{{name}:{value:?}}}",));
                emit(&mut out, &b);
            }
        }
    }
    out.push_str("]}");
    out
}

// --- validation ---------------------------------------------------------

/// Summary statistics of a validated trace document.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total `traceEvents` entries, metadata included.
    pub events: usize,
    /// Thread-scoped span begin events (`ph == "B"`).
    pub begins: usize,
    /// Thread-scoped span end events (`ph == "E"`).
    pub ends: usize,
    /// Async begin events (`ph == "b"`).
    pub async_begins: usize,
    /// Async end events (`ph == "e"`).
    pub async_ends: usize,
    /// Instant events (`ph == "i"`).
    pub instants: usize,
    /// Counter samples (`ph == "C"`).
    pub counters: usize,
    /// Metadata events (`ph == "M"`).
    pub metadata: usize,
    /// Distinct `(pid, tid)` tracks carrying non-metadata events.
    pub tracks: usize,
}

/// A parsed JSON value (just enough of the grammar for trace documents).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Deepest array/object nesting the validator accepts, the same cap as
/// `cta_bench::parse_json`: far above any trace the exporter writes, far
/// below what would overflow the stack of the recursive parser.
const MAX_JSON_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects enclosing the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self { bytes: text.as_bytes(), pos: 0, depth: 0 }
    }

    fn error(&self, message: &str) -> String {
        format!("JSON parse error at byte {}: {message}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", c as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        let c = self.peek().ok_or_else(|| self.error("unexpected end of input"))?;
        if matches!(c, b'{' | b'[') {
            if self.depth >= MAX_JSON_DEPTH {
                return Err(self.error(&format!("nesting deeper than {MAX_JSON_DEPTH}")));
            }
            self.depth += 1;
            let value = if c == b'{' { self.parse_object() } else { self.parse_array() };
            self.depth -= 1;
            return value;
        }
        match c {
            b'"' => Ok(Json::Str(self.parse_string()?)),
            b't' => self.parse_keyword("true", Json::Bool(true)),
            b'f' => self.parse_keyword("false", Json::Bool(false)),
            b'n' => self.parse_keyword("null", Json::Null),
            _ => self.parse_number(),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
        text.parse::<f64>().map(Json::Num).map_err(|_| self.error("malformed number"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos).copied() {
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
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.error("bad \\u"))?,
                                16,
                            )
                            .map_err(|_| self.error("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                    self.pos += 1;
                }
                Some(byte) if byte < 0x80 => {
                    out.push(byte as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: copy the full scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            pairs.push((key, self.parse_value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }
}

/// Per-track validation state for `B`/`E` pairing.
#[derive(Default)]
struct TrackState {
    open: Vec<(String, f64)>,
    last_end_us: f64,
}

/// Checks that `json` is a well-formed Chrome Trace Format document.
///
/// Validated invariants: the document is a JSON object with a
/// `traceEvents` array; every event has a known single-character `ph` and,
/// for span/async/instant/counter events, numeric `ts`/`pid`/`tid`;
/// `B`/`E` pairs balance per `(pid, tid)` track with matching names,
/// non-negative durations and non-overlapping, monotonically ordered
/// intervals; async `b`/`e` pairs balance per `(id, name)`.
///
/// # Errors
///
/// Returns a description of the first malformed construct found.
pub fn validate_chrome_trace(json: &str) -> Result<TraceStats, String> {
    let mut parser = Parser::new(json);
    let doc = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing content after document"));
    }

    let events = match doc.get("traceEvents") {
        Some(Json::Arr(items)) => items,
        Some(_) => return Err("`traceEvents` is not an array".into()),
        None => return Err("document has no `traceEvents` array".into()),
    };

    let mut stats = TraceStats { events: events.len(), ..TraceStats::default() };
    let mut tracks: std::collections::HashMap<(u64, u64), TrackState> = Default::default();
    let mut open_async: std::collections::HashMap<(u64, String), usize> = Default::default();

    for (i, e) in events.iter().enumerate() {
        let ph =
            e.get("ph").and_then(Json::as_str).ok_or_else(|| format!("event {i}: missing `ph`"))?;
        if ph == "M" {
            stats.metadata += 1;
            continue;
        }
        let ts = e
            .get("ts")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("event {i}: missing numeric `ts`"))?;
        let pid = e
            .get("pid")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("event {i}: missing numeric `pid`"))?;
        let tid = e
            .get("tid")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("event {i}: missing numeric `tid`"))?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(format!("event {i}: non-finite or negative ts {ts}"));
        }
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing `name`"))?
            .to_string();
        let track = tracks.entry((pid as u64, tid as u64)).or_default();

        match ph {
            "B" => {
                stats.begins += 1;
                if !track.open.is_empty() {
                    return Err(format!(
                        "event {i}: span `{name}` opens while `{}` is still open on pid {pid} \
                         tid {tid} (spans per track must not overlap)",
                        track.open.last().expect("non-empty").0
                    ));
                }
                if ts < track.last_end_us {
                    return Err(format!(
                        "event {i}: span `{name}` at ts {ts} starts before the previous span on \
                         pid {pid} tid {tid} ended at {} (out of order)",
                        track.last_end_us
                    ));
                }
                track.open.push((name, ts));
            }
            "E" => {
                stats.ends += 1;
                let (open_name, begin_ts) = track
                    .open
                    .pop()
                    .ok_or_else(|| format!("event {i}: `E` without matching `B` ({name})"))?;
                if open_name != name {
                    return Err(format!(
                        "event {i}: `E` name `{name}` does not match open span `{open_name}`"
                    ));
                }
                if ts < begin_ts {
                    return Err(format!("event {i}: span `{name}` ends before it begins"));
                }
                track.last_end_us = ts;
            }
            "b" => {
                stats.async_begins += 1;
                let id = e
                    .get("id")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("event {i}: async begin without `id`"))?;
                *open_async.entry((id as u64, name)).or_insert(0) += 1;
            }
            "e" => {
                stats.async_ends += 1;
                let id = e
                    .get("id")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("event {i}: async end without `id`"))?;
                let open =
                    open_async.get_mut(&(id as u64, name.clone())).filter(|n| **n > 0).ok_or_else(
                        || format!("event {i}: async `e` for `{name}` id {id} without `b`"),
                    )?;
                *open -= 1;
            }
            "i" => stats.instants += 1,
            "C" => {
                stats.counters += 1;
                if e.get("args").is_none() {
                    return Err(format!("event {i}: counter without `args`"));
                }
            }
            other => return Err(format!("event {i}: unknown phase `{other}`")),
        }
    }

    for ((pid, tid), state) in &tracks {
        if let Some((name, _)) = state.open.last() {
            return Err(format!("span `{name}` on pid {pid} tid {tid} never closed"));
        }
    }
    if let Some(((id, name), _)) = open_async.iter().find(|(_, n)| **n > 0) {
        return Err(format!("async span `{name}` id {id} never closed"));
    }
    stats.tracks = tracks.len();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Module, SpanClass, TraceSink as _};
    use proptest::prelude::*;

    fn sample_events() -> Vec<Event> {
        let sa = TrackId::new(0, Module::Sa);
        let run = TrackId::new(1, Module::Runtime);
        let mut sink = crate::RingBufferSink::with_capacity(16);
        sink.span(sa, "compression", 0.0, 1e-6, SpanClass::Compression, false);
        sink.span(sa, "linear", 1e-6, 3e-6, SpanClass::Linear, false);
        sink.span(sa, "pag-stall", 3e-6, 4e-6, SpanClass::Attention, true);
        sink.async_span(run, "queued", 42, 0.0, 2e-6);
        sink.instant(run, "admit", 0.0);
        sink.counter(run, "queue_depth", 0.0, 3.0);
        sink.events()
    }

    #[test]
    fn export_validates_round_trip() {
        let json = chrome_trace_json(&sample_events());
        let stats = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(stats.begins, 3);
        assert_eq!(stats.ends, 3);
        assert_eq!(stats.async_begins, 1);
        assert_eq!(stats.async_ends, 1);
        assert_eq!(stats.instants, 1);
        assert_eq!(stats.counters, 1);
        assert_eq!(stats.tracks, 2);
        assert!(stats.metadata >= 2, "process + thread names present");
    }

    #[test]
    fn export_is_deterministic() {
        let events = sample_events();
        assert_eq!(chrome_trace_json(&events), chrome_trace_json(&events));
    }

    #[test]
    fn empty_event_list_is_still_a_valid_document() {
        let json = chrome_trace_json(&[]);
        let stats = validate_chrome_trace(&json).expect("valid empty trace");
        assert_eq!(stats.events, 0);
    }

    #[test]
    fn validator_rejects_unbalanced_spans() {
        let json = r#"{"traceEvents":[
            {"name":"x","cat":"linear","ph":"B","ts":0.0,"pid":0,"tid":0}
        ]}"#;
        let err = validate_chrome_trace(json).expect_err("unbalanced");
        assert!(err.contains("never closed"), "{err}");
    }

    #[test]
    fn validator_rejects_overlapping_spans_on_one_track() {
        let json = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":0.0,"pid":0,"tid":0},
            {"name":"b","ph":"B","ts":1.0,"pid":0,"tid":0},
            {"name":"b","ph":"E","ts":2.0,"pid":0,"tid":0},
            {"name":"a","ph":"E","ts":3.0,"pid":0,"tid":0}
        ]}"#;
        let err = validate_chrome_trace(json).expect_err("overlap");
        assert!(err.contains("must not overlap"), "{err}");
    }

    #[test]
    fn validator_rejects_out_of_order_spans() {
        let json = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":5.0,"pid":0,"tid":0},
            {"name":"a","ph":"E","ts":6.0,"pid":0,"tid":0},
            {"name":"b","ph":"B","ts":2.0,"pid":0,"tid":0},
            {"name":"b","ph":"E","ts":3.0,"pid":0,"tid":0}
        ]}"#;
        let err = validate_chrome_trace(json).expect_err("ordering");
        assert!(err.contains("out of order"), "{err}");
    }

    #[test]
    fn validator_rejects_name_mismatch() {
        let json = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":0.0,"pid":0,"tid":0},
            {"name":"z","ph":"E","ts":1.0,"pid":0,"tid":0}
        ]}"#;
        let err = validate_chrome_trace(json).expect_err("mismatch");
        assert!(err.contains("does not match"), "{err}");
    }

    #[test]
    fn validator_rejects_malformed_json() {
        assert!(validate_chrome_trace("{not json").is_err());
        assert!(validate_chrome_trace("[]").is_err(), "array has no traceEvents key");
        assert!(validate_chrome_trace(r#"{"traceEvents":3}"#).is_err());
    }

    #[test]
    fn validator_caps_nesting_depth_with_an_error() {
        // `levels` nested arrays and objects, the document object included.
        let nested = |levels: usize| {
            let inner = levels - 1;
            format!(r#"{{"traceEvents":[],"x":{}{}}}"#, "[".repeat(inner), "]".repeat(inner))
        };
        assert!(validate_chrome_trace(&nested(MAX_JSON_DEPTH)).is_ok());
        let err = validate_chrome_trace(&nested(MAX_JSON_DEPTH + 1)).expect_err("too deep");
        assert!(err.contains("nesting deeper than 128"), "{err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Truncated, byte-flipped and deeply nested mutations of an
        /// exported trace: the validator returns `Ok` or `Err` and never
        /// panics.
        fn mutated_exports_never_panic(
            kind in 0u8..3,
            at in 0usize..1 << 20,
            flip in 1u8..=255,
            depth in 0usize..1_000,
        ) {
            let mut bytes = chrome_trace_json(&sample_events()).into_bytes();
            let at = at % bytes.len();
            match kind {
                0 => bytes.truncate(at),
                1 => {
                    for k in 0..3 {
                        let i = (at + k * 7_919) % bytes.len();
                        bytes[i] ^= flip;
                    }
                }
                _ => {
                    let opener: &[u8] = if depth % 2 == 0 { b"[" } else { br#"{"k":"# };
                    bytes.splice(at..at, opener.repeat(depth));
                }
            }
            let _ = validate_chrome_trace(&String::from_utf8_lossy(&bytes));
        }
    }

    #[test]
    fn validator_accepts_dense_fleet_export() {
        // A wider shape: several replicas, interleaved tracks.
        let mut sink = crate::RingBufferSink::with_capacity(256);
        for r in 0..3u32 {
            let sa = TrackId::new(r, Module::Sa);
            let pag = TrackId::new(r, Module::Pag);
            for k in 0..10 {
                let t0 = k as f64 * 1e-5 + r as f64 * 1e-7;
                sink.span(sa, "layer", t0, t0 + 4e-6, SpanClass::Attention, false);
                sink.span(pag, "pag", t0, t0 + 2e-6, SpanClass::Attention, false);
                sink.counter(TrackId::new(r, Module::Runtime), "queue_depth", t0, k as f64);
            }
        }
        let stats = validate_chrome_trace(&chrome_trace_json(&sink.events())).expect("valid");
        assert_eq!(stats.begins, 60);
        assert_eq!(stats.counters, 30);
    }
}
