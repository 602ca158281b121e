//! Chrome Trace Format export and validation.
//!
//! [`chrome_trace_json`] serialises recorded events into the JSON object
//! format (`{"traceEvents":[…]}`) that `chrome://tracing` and Perfetto
//! load directly: each replica becomes a process (`pid`), each module lane
//! a named thread (`tid`), spans become `B`/`E` pairs, request-lifecycle
//! intervals become async `b`/`e` pairs keyed by request id, and counters
//! become `C` events. Timestamps are microseconds, as the format requires.
//!
//! [`validate_chrome_trace`] re-parses an exported document with the
//! workspace's one JSON reader, [`crate::parse_json`], and checks the
//! structural invariants CI relies on: every event carries a known `ph`
//! and integer track ids, `B`/`E` pairs are balanced per track with
//! matching names and non-overlapping, monotonically ordered intervals,
//! and async `b`/`e` pairs are balanced per `(id, name)`.

use std::collections::BTreeSet;

use crate::json::push_str_lit;
use crate::{parse_json, Event, EventKind, TrackId};

/// Seconds → Chrome trace microseconds.
fn us(t_s: f64) -> f64 {
    t_s * 1e6
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
/// for span/async/instant/counter events, a non-negative numeric `ts` and
/// non-negative integer `pid`/`tid` (and `id` for async events);
/// `B`/`E` pairs balance per `(pid, tid)` track with matching names,
/// non-negative durations and non-overlapping, monotonically ordered
/// intervals; async `b`/`e` pairs balance per `(id, name)`.
///
/// # Errors
///
/// Returns a description of the first malformed construct found.
pub fn validate_chrome_trace(json: &str) -> Result<TraceStats, String> {
    let doc = parse_json(json)?;
    let events = doc.arr("traceEvents")?;

    let mut stats = TraceStats { events: events.len(), ..TraceStats::default() };
    let mut tracks: std::collections::HashMap<(u64, u64), TrackState> = Default::default();
    let mut open_async: std::collections::HashMap<(u64, String), usize> = Default::default();

    for (i, e) in events.iter().enumerate() {
        let at = |message: String| format!("event {i}: {message}");
        let ph = e.str("ph").map_err(at)?;
        if ph == "M" {
            stats.metadata += 1;
            continue;
        }
        let ts = e.num("ts").map_err(at)?;
        let pid: u64 = e.uint("pid").map_err(at)?;
        let tid: u64 = e.uint("tid").map_err(at)?;
        if ts < 0.0 {
            return Err(at(format!("negative ts {ts}")));
        }
        let name = e.str("name").map_err(at)?.to_string();
        let track = tracks.entry((pid, tid)).or_default();

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
                let id: u64 = e.uint("id").map_err(at)?;
                *open_async.entry((id, name)).or_insert(0) += 1;
            }
            "e" => {
                stats.async_ends += 1;
                let id: u64 = e.uint("id").map_err(at)?;
                let open = open_async.get_mut(&(id, name.clone())).filter(|n| **n > 0).ok_or_else(
                    || format!("event {i}: async `e` for `{name}` id {id} without `b`"),
                )?;
                *open -= 1;
            }
            "i" => stats.instants += 1,
            "C" => {
                stats.counters += 1;
                e.field("args").map_err(at)?;
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
    use crate::{JsonValue, Module, SpanClass, TraceSink as _, MAX_JSON_DEPTH};
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
    fn validator_rejects_fractional_and_negative_track_and_async_ids() {
        // Read as floats and cast, each pair would close on track 0.
        let cases = [
            (
                r#"{"traceEvents":[
                    {"name":"a","ph":"B","ts":0.0,"pid":0.5,"tid":0},
                    {"name":"a","ph":"E","ts":1.0,"pid":0,"tid":0}
                ]}"#,
                "event 0: field \"pid\" must be an integer",
            ),
            (
                r#"{"traceEvents":[
                    {"name":"a","ph":"B","ts":0.0,"pid":-3,"tid":0},
                    {"name":"a","ph":"E","ts":1.0,"pid":0,"tid":0}
                ]}"#,
                "event 0: field \"pid\" must be non-negative",
            ),
            (
                r#"{"traceEvents":[
                    {"name":"q","ph":"b","id":-1,"ts":0.0,"pid":0,"tid":0},
                    {"name":"q","ph":"e","id":0.25,"ts":1.0,"pid":0,"tid":0}
                ]}"#,
                "event 0: field \"id\" must be non-negative",
            ),
        ];
        for (doc, expected) in cases {
            assert_eq!(validate_chrome_trace(doc).expect_err(doc), expected);
        }
    }

    #[test]
    fn validator_rejects_malformed_json() {
        assert!(validate_chrome_trace("{not json").is_err());
        assert!(validate_chrome_trace("[]").is_err(), "array has no traceEvents key");
        assert!(validate_chrome_trace(r#"{"traceEvents":3}"#).is_err());
    }

    /// Parses one JSON string literal the way the validator does. The
    /// reader's own cases are in `json.rs`; these pin the guarantees the
    /// validator relies on.
    fn parse_string(literal: &str) -> Result<String, String> {
        match parse_json(literal)? {
            JsonValue::Str(s) => Ok(s),
            other => panic!("{literal} is not a string literal: {other:?}"),
        }
    }

    #[test]
    fn long_multibyte_strings_parse_in_linear_time() {
        // One scalar decoded per step: a megabyte-scale run of 2-byte
        // scalars parses as fast as ASCII would, not in quadratic time.
        let text = "é".repeat(1_000_000);
        assert_eq!(parse_string(&format!("\"{text}\"")).expect("parse"), text);
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(parse_string(r#""\u00e9\u0041""#).expect("parse"), "éA");
        let err = parse_string(r#""\u+041""#).expect_err("a sign is not a hex digit");
        assert_eq!(err, "bad \\u escape at byte 3");
        let err = parse_string(r#""\u00g0""#).expect_err("g is not a hex digit");
        assert!(err.contains("at byte 5"), "{err}");
        assert!(parse_string(r#""\u12""#).is_err(), "too few digits");
        assert!(parse_string(r#""\u12"#).is_err(), "truncated");
    }

    #[test]
    fn mixed_escapes_and_multibyte_text_round_trip() {
        let literal = r#""a\"é\\b\/ü\né😀\t→→z""#;
        assert_eq!(parse_string(literal).expect("parse"), "a\"é\\b/ü\né😀\t→→z");
        // A document carrying the same text as an event name validates.
        let doc = format!(r#"{{"traceEvents":[{{"ph":"M","name":{literal}}}]}}"#);
        assert_eq!(validate_chrome_trace(&doc).expect("valid").metadata, 1);
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

    /// One truncated, byte-flipped, deeply nested or multibyte-spliced
    /// mutation of an exported trace, fed to the reader and the
    /// validator: each returns `Ok` or `Err`, never panics, and the
    /// validator accepts nothing the reader rejects.
    fn mutated_export_never_panics(kind: u8, at: usize, flip: u8, depth: usize) {
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
            2 => {
                let opener: &[u8] = if depth.is_multiple_of(2) { b"[" } else { br#"{"k":"# };
                bytes.splice(at..at, opener.repeat(depth));
            }
            _ => {
                // The export is ASCII, so every offset is a char boundary.
                let text = ["é", "😀", "\\u00e9", "日\\n"][depth % 4].repeat(1 + depth / 4);
                bytes.splice(at..at, text.into_bytes());
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        let parsed = parse_json(&text);
        assert!(validate_chrome_trace(&text).is_err() || parsed.is_ok(), "{text}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// [`mutated_export_never_panics`] at the tier-1 case count.
        #[test]
        fn mutated_exports_never_panic(
            kind in 0u8..4,
            at in 0usize..1 << 20,
            flip in 1u8..=255,
            depth in 0usize..1_000,
        ) {
            mutated_export_never_panics(kind, at, flip, depth);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        /// [`mutated_exports_never_panic`] at many more cases, for release
        /// builds (CI runs it with `--ignored`).
        #[test]
        #[ignore = "release-only: cargo test --release -p cta-telemetry --lib -- --ignored mutated_exports"]
        fn mutated_exports_never_panic_at_many_cases(
            kind in 0u8..4,
            at in 0usize..1 << 20,
            flip in 1u8..=255,
            depth in 0usize..1_000,
        ) {
            mutated_export_never_panics(kind, at, flip, depth);
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
