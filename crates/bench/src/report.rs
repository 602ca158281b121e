//! Structured result export: the harness binaries print human-readable
//! tables *and* write machine-readable CSV ([`CsvTable`]) and JSON
//! ([`JsonReport`]) under `results/` so runs can be diffed and plotted.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Version of the machine-readable result layout. Bump when a report's
/// field set or meaning changes incompatibly; downstream tooling keys off
/// this. Every [`JsonReport`] carries it as its first field, and harness
/// CSVs that embed it (e.g. `serve_sweep.csv`) repeat it per row.
///
/// History: 1 = pre-versioned reports; 2 = `schema_version` stamped into
/// every JSON report and the serving-sweep CSV.
pub const SCHEMA_VERSION: u32 = 2;

/// A CSV table under construction.
///
/// ```
/// use cta_bench::CsvTable;
/// let mut t = CsvTable::new("demo", &["n", "speedup"]);
/// t.push(&["512".into(), "23.0".into()]);
/// assert_eq!(t.to_csv(), "n,speedup\n512,23.0\n");
/// ```
#[derive(Debug, Clone)]
pub struct CsvTable {
    name: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl CsvTable {
    /// Starts a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty.
    pub fn new(name: &str, columns: &[&str]) -> Self {
        assert!(!columns.is_empty(), "a table needs at least one column");
        Self {
            name: name.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the column count.
    pub fn push(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width {} != {} columns",
            cells.len(),
            self.columns.len()
        );
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders RFC-4180-style CSV (quoting cells containing commas,
    /// quotes or newlines).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let write_row = |cells: &[String], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if c.contains(',') || c.contains('"') || c.contains('\n') {
                    out.push('"');
                    out.push_str(&c.replace('"', "\"\""));
                    out.push('"');
                } else {
                    out.push_str(c);
                }
            }
            out.push('\n');
        };
        write_row(&self.columns, &mut out);
        for r in &self.rows {
            write_row(r, &mut out);
        }
        out
    }

    /// Writes `results/<name>.csv` under `dir`, creating the directory.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or writing.
    pub fn write_under(&self, dir: &Path) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.name));
        let mut f = fs::File::create(&path)?;
        f.write_all(self.to_csv().as_bytes())?;
        Ok(path)
    }

    /// Writes to the workspace-level `results/` directory, logging the
    /// destination; I/O failures are reported, not fatal (the printed
    /// table is the primary output).
    pub fn save(&self) {
        match self.write_under(Path::new("results")) {
            Ok(path) => println!("[saved {}]", path.display()),
            Err(e) => eprintln!("[could not save results/{}.csv: {e}]", self.name),
        }
    }
}

/// A JSON value as the report writer understands it: enough of the format
/// for flat-to-moderately-nested experiment reports, with deterministic
/// (insertion-order) object keys so reports diff cleanly across runs.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (kept apart from [`JsonValue::Num`] so counts never
    /// print a decimal point).
    Int(i64),
    /// A float; non-finite values serialise as `null` (JSON has no NaN).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Convenience constructor for an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, JsonValue)>) -> Self {
        JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Serialises to compact JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => out.push_str(&i.to_string()),
            JsonValue::Num(x) => {
                if x.is_finite() {
                    // `{:?}` keeps round-trip precision and always marks
                    // the value as a float.
                    out.push_str(&format!("{x:?}"));
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    JsonValue::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Deepest array/object nesting [`parse_json`] accepts: far above any
/// report this crate writes, far below what would overflow the stack.
const MAX_JSON_DEPTH: usize = 128;

/// Parses compact or pretty JSON into a [`JsonValue`]. Supports exactly
/// the constructs [`JsonValue::to_json`] emits (strict RFC-8259 subset:
/// no comments, no trailing commas) — enough to read back any report
/// this crate has written.
///
/// # Errors
///
/// Returns a byte-offset-tagged message on malformed input, and
/// `nesting deeper than 128 …` past 128 levels of arrays and objects.
pub fn parse_json(s: &str) -> Result<JsonValue, String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

/// One value at nesting `depth` (the number of enclosing arrays and
/// objects).
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth >= MAX_JSON_DEPTH {
        return Err(format!("nesting deeper than {MAX_JSON_DEPTH} at byte {}", *pos));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => parse_keyword(bytes, pos, "null", JsonValue::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(JsonValue::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        let code = hex.iter().fold(0u32, |acc, &h| {
                            acc * 16 + char::from(h).to_digit(16).expect("hex digit")
                        });
                        // Surrogates never appear in our own output; map
                        // them to the replacement character on read.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash. Both
                // are ASCII, so the run starts and ends on char
                // boundaries of the `&str` input.
                let end = bytes[*pos..]
                    .iter()
                    .position(|b| matches!(b, b'"' | b'\\'))
                    .map_or(bytes.len(), |i| *pos + i);
                let run = std::str::from_utf8(&bytes[*pos..end]).map_err(|e| e.to_string())?;
                out.push_str(run);
                *pos = end;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii");
    if text.is_empty() {
        return Err(format!("expected a value at byte {start}"));
    }
    if text.bytes().all(|b| b.is_ascii_digit() || b == b'-') {
        if let Ok(i) = text.parse::<i64>() {
            return Ok(JsonValue::Int(i));
        }
    }
    text.parse::<f64>().map(JsonValue::Num).map_err(|_| format!("bad number {text:?}"))
}

/// A named JSON report under construction: a top-level object written to
/// `results/<name>.json`, mirroring [`CsvTable`]'s conventions.
#[derive(Debug, Clone)]
pub struct JsonReport {
    name: String,
    fields: Vec<(String, JsonValue)>,
}

impl JsonReport {
    /// Starts a report pre-stamped with [`SCHEMA_VERSION`] as its first
    /// field, so every exported JSON identifies its layout generation.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            fields: vec![("schema_version".to_string(), JsonValue::Int(SCHEMA_VERSION as i64))],
        }
    }

    /// Appends one top-level field (keys keep insertion order; duplicate
    /// keys are the caller's bug and serialise as given).
    pub fn set(&mut self, key: &str, value: JsonValue) -> &mut Self {
        self.fields.push((key.to_string(), value));
        self
    }

    /// Serialises the report to compact JSON.
    pub fn to_json(&self) -> String {
        JsonValue::Obj(self.fields.clone()).to_json()
    }

    /// Writes `<name>.json` under `dir`, creating the directory.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or writing.
    pub fn write_under(&self, dir: &Path) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.name));
        let mut f = fs::File::create(&path)?;
        f.write_all(self.to_json().as_bytes())?;
        f.write_all(b"\n")?;
        Ok(path)
    }

    /// Writes to the workspace-level `results/` directory, logging the
    /// destination; I/O failures are reported, not fatal.
    pub fn save(&self) {
        match self.write_under(Path::new("results")) {
            Ok(path) => println!("[saved {}]", path.display()),
            Err(e) => eprintln!("[could not save results/{}.json: {e}]", self.name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_json_round_trips_report_output() {
        let v = JsonValue::obj(vec![
            ("n", JsonValue::Int(3)),
            ("x", JsonValue::Num(0.25)),
            ("neg", JsonValue::Num(-1.5e-3)),
            ("ok", JsonValue::Bool(true)),
            ("none", JsonValue::Null),
            ("name", JsonValue::Str("a \"b\"\n\ttail\\ ünï".into())),
            ("xs", JsonValue::Arr(vec![JsonValue::Int(-7), JsonValue::Num(2.0)])),
            ("o", JsonValue::obj(vec![("k", JsonValue::Str("v".into()))])),
        ]);
        let parsed = parse_json(&v.to_json()).expect("parse");
        assert_eq!(parsed, v);
        // And the serialisation itself round-trips byte-for-byte.
        assert_eq!(parsed.to_json(), v.to_json());
    }

    #[test]
    fn parse_json_accepts_whitespace_and_rejects_garbage() {
        assert_eq!(
            parse_json(" { \"a\" : [ 1 , 2 ] } \n").expect("parse"),
            JsonValue::obj(vec![("a", JsonValue::Arr(vec![JsonValue::Int(1), JsonValue::Int(2)]))])
        );
        assert_eq!(parse_json(r#""\u00e9\u0041""#).expect("parse"), JsonValue::Str("éA".into()));
        assert!(parse_json("").is_err());
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{\"a\":1}tail").is_err());
        assert!(parse_json("nil").is_err());
        assert!(parse_json(r#""\u+041""#).is_err(), "a sign is not a hex digit");
        assert!(parse_json(r#""\u12""#).is_err());
    }

    #[test]
    fn parse_json_caps_nesting_instead_of_overflowing_the_stack() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse_json(&nested(MAX_JSON_DEPTH)).is_ok());
        let err = parse_json(&nested(MAX_JSON_DEPTH + 1)).unwrap_err();
        assert!(err.starts_with("nesting deeper than 128"), "{err}");
        // Unbalanced and far deeper than any stack could recurse.
        let err = parse_json(&"[".repeat(10_000)).unwrap_err();
        assert!(err.starts_with("nesting deeper than"), "{err}");
        let err = parse_json(&"{\"k\":".repeat(10_000)).unwrap_err();
        assert!(err.starts_with("nesting deeper than"), "{err}");
    }

    #[test]
    fn parse_json_depth_counts_arrays_and_objects_alike_per_branch() {
        // 64 objects interleaved with 64 arrays is exactly the cap.
        let mixed =
            |pairs: usize, extra: &str| "{\"a\":[".repeat(pairs) + extra + &"]}".repeat(pairs);
        assert!(parse_json(&mixed(64, "")).is_ok());
        let err = parse_json(&mixed(64, "[]")).unwrap_err();
        assert!(err.starts_with("nesting deeper than 128"), "{err}");
        // Depth is per branch: siblings at the cap do not add up.
        let deep = "[".repeat(127) + &"]".repeat(127);
        let wide = format!("[{}]", vec![deep; 3].join(","));
        assert!(parse_json(&wide).is_ok());
    }

    #[test]
    fn parse_json_copies_multibyte_runs_between_escapes() {
        let text = r#"{"κλειδί":"日本\"語\n🎉 tail\\ü","":"üé"}"#;
        assert_eq!(
            parse_json(text).expect("parse"),
            JsonValue::obj(vec![
                ("κλειδί", JsonValue::Str("日本\"語\n🎉 tail\\ü".into())),
                ("", JsonValue::Str("üé".into())),
            ])
        );
    }

    #[test]
    fn parse_json_maps_surrogate_escapes_to_the_replacement_character() {
        assert_eq!(parse_json(r#""\ud800""#).expect("parse"), JsonValue::Str("\u{fffd}".into()));
        // A pair is not combined: each half is replaced on its own.
        assert_eq!(
            parse_json(r#""a\ud83d\ude00b""#).expect("parse"),
            JsonValue::Str("a\u{fffd}\u{fffd}b".into())
        );
    }

    #[test]
    fn parse_json_keeps_integers_and_floats_apart() {
        let parse = |s: &str| parse_json(s).expect(s);
        assert_eq!(parse("42"), JsonValue::Int(42));
        assert_eq!(parse("-7"), JsonValue::Int(-7));
        assert_eq!(parse("-0"), JsonValue::Int(0));
        assert_eq!(parse("3.0"), JsonValue::Num(3.0));
        assert_eq!(parse("1e3"), JsonValue::Num(1000.0));
        assert_eq!(parse("-2.5E-1"), JsonValue::Num(-0.25));
        // Past i64 an all-digit literal still reads, as a float.
        assert_eq!(parse("9223372036854775808"), JsonValue::Num(9_223_372_036_854_775_808.0));
        assert_eq!(parse(&i64::MIN.to_string()), JsonValue::Int(i64::MIN));
        assert_eq!(parse_json("--1").unwrap_err(), "bad number \"--1\"");
        assert_eq!(parse_json("1.2.3").unwrap_err(), "bad number \"1.2.3\"");
    }

    #[test]
    fn parse_json_errors_name_the_byte_offset() {
        let err = |s: &str| parse_json(s).unwrap_err();
        assert_eq!(err("[1 2]"), "expected ',' or ']' at byte 3");
        assert_eq!(err("{\"a\":1 \"b\":2}"), "expected ',' or '}' at byte 7");
        assert_eq!(err("{\"a\" 1}"), "expected ':' at byte 5");
        assert_eq!(err("{1:2}"), "expected '\"' at byte 1");
        assert_eq!(err("[1] x"), "trailing data at byte 4");
        assert_eq!(err("[,]"), "expected a value at byte 1");
        assert_eq!(err("[tru]"), "invalid literal at byte 1");
        assert_eq!(err(r#""\q""#), "bad escape at byte 2");
        assert_eq!(err(r#""\u00g0""#), "bad \\u escape at byte 2");
        assert_eq!(err("[\"abc"), "unterminated string");
        assert_eq!(err("["), "unexpected end of input");
    }

    #[test]
    fn csv_round_trip_simple() {
        let mut t = CsvTable::new("t", &["a", "b"]);
        t.push(&["1".into(), "2".into()]);
        t.push(&["3".into(), "4".into()]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n3,4\n");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn csv_quotes_special_cells() {
        let mut t = CsvTable::new("t", &["x"]);
        t.push(&["a,b".into()]);
        t.push(&["say \"hi\"".into()]);
        assert_eq!(t.to_csv(), "x\n\"a,b\"\n\"say \"\"hi\"\"\"\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_rejected() {
        let mut t = CsvTable::new("t", &["a", "b"]);
        t.push(&["only-one".into()]);
    }

    #[test]
    fn json_serialises_all_value_kinds() {
        let v = JsonValue::obj(vec![
            ("n", JsonValue::Int(3)),
            ("x", JsonValue::Num(0.25)),
            ("nan", JsonValue::Num(f64::NAN)),
            ("ok", JsonValue::Bool(true)),
            ("name", JsonValue::Str("a \"b\"\n".into())),
            ("xs", JsonValue::Arr(vec![JsonValue::Int(1), JsonValue::Null])),
        ]);
        assert_eq!(
            v.to_json(),
            r#"{"n":3,"x":0.25,"nan":null,"ok":true,"name":"a \"b\"\n","xs":[1,null]}"#
        );
    }

    #[test]
    fn json_report_keeps_insertion_order() {
        let mut r = JsonReport::new("t");
        r.set("z", JsonValue::Int(1)).set("a", JsonValue::Int(2));
        assert_eq!(r.to_json(), r#"{"schema_version":2,"z":1,"a":2}"#);
    }

    #[test]
    fn json_report_stamps_schema_version_first() {
        let r = JsonReport::new("t");
        assert_eq!(r.to_json(), format!(r#"{{"schema_version":{SCHEMA_VERSION}}}"#));
    }

    #[test]
    fn json_report_write_under_creates_file() {
        let dir = std::env::temp_dir().join(format!("cta-bench-json-{}", std::process::id()));
        let mut r = JsonReport::new("unit");
        r.set("k", JsonValue::Num(1.5));
        let path = r.write_under(&dir).expect("write");
        let content = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(content, "{\"schema_version\":2,\"k\":1.5}\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_under_creates_file() {
        let dir = std::env::temp_dir().join(format!("cta-bench-test-{}", std::process::id()));
        let mut t = CsvTable::new("unit", &["k"]);
        t.push(&["7".into()]);
        let path = t.write_under(&dir).expect("write");
        let content = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(content, "k\n7\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
