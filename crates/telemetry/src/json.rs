//! The workspace's one JSON value type, reader and string escaper.
//!
//! [`JsonValue`] is what the `cta-bench` report writer emits, what
//! [`crate::validate_chrome_trace`] reads every exported trace into and
//! what `chaos_sweep --replay` loads repro files through; the Chrome
//! exporter escapes its event names with the same `push_str_lit`.
//! [`parse_json`] returns an error carrying a byte offset on malformed
//! input, never panics, and runs in time linear in the input.

/// A JSON value: enough of the format for experiment reports, traces and
/// repro files, with deterministic (insertion-order) object keys so
/// reports diff cleanly across runs.
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
            JsonValue::Str(s) => push_str_lit(out, s),
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
                    push_str_lit(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// The value under `key` of an object (the first, if keys repeat).
    /// Errors are `missing field "key"`, or `expected an object around
    /// "key"` when `self` is not an object; the typed accessors below add
    /// `field "key" must be …` for a value of another type.
    pub fn field(&self, key: &str) -> Result<&JsonValue, String> {
        match self {
            JsonValue::Obj(pairs) => pairs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field {key:?}")),
            _ => Err(format!("expected an object around {key:?}")),
        }
    }

    /// The number under `key`, an integer or a float.
    pub fn num(&self, key: &str) -> Result<f64, String> {
        match self.field(key)? {
            JsonValue::Num(x) => Ok(*x),
            JsonValue::Int(x) => Ok(*x as f64),
            _ => Err(format!("field {key:?} must be a number")),
        }
    }

    /// The integer under `key`.
    pub fn int(&self, key: &str) -> Result<i64, String> {
        match self.field(key)? {
            JsonValue::Int(x) => Ok(*x),
            _ => Err(format!("field {key:?} must be an integer")),
        }
    }

    /// The non-negative integer under `key`, as an index, count or id;
    /// `field "key" is out of range` past `T`'s maximum.
    pub fn uint<T: TryFrom<i64>>(&self, key: &str) -> Result<T, String> {
        let x = self.int(key)?;
        if x < 0 {
            return Err(format!("field {key:?} must be non-negative"));
        }
        T::try_from(x).map_err(|_| format!("field {key:?} is out of range"))
    }

    /// The bool under `key`.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        match self.field(key)? {
            JsonValue::Bool(b) => Ok(*b),
            _ => Err(format!("field {key:?} must be a bool")),
        }
    }

    /// The string under `key`.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        match self.field(key)? {
            JsonValue::Str(s) => Ok(s),
            _ => Err(format!("field {key:?} must be a string")),
        }
    }

    /// The array under `key`.
    pub fn arr(&self, key: &str) -> Result<&[JsonValue], String> {
        match self.field(key)? {
            JsonValue::Arr(items) => Ok(items),
            _ => Err(format!("field {key:?} must be an array")),
        }
    }
}

/// Appends `s` as one JSON string literal: quote, backslash and the
/// control characters escaped (`\n`, `\r`, `\t` by name, the rest as
/// `\u00XX`), everything else copied.
pub(crate) fn push_str_lit(out: &mut String, s: &str) {
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

/// Deepest array/object nesting [`parse_json`] accepts: far above any
/// report, trace or repro the workspace writes, far below what would
/// overflow the stack of the recursive reader.
pub const MAX_JSON_DEPTH: usize = 128;

/// Parses compact or pretty JSON into a [`JsonValue`].
///
/// RFC 8259 structure (no comments, no trailing commas, nothing after
/// the document, whitespace of space, tab, CR and LF only) and every
/// escape, with two readings: an integer literal that fits an
/// `i64` is a [`JsonValue::Int`], any other number a
/// [`JsonValue::Num`]; a `\u` escape of a surrogate half reads as
/// U+FFFD (a pair is not combined).
///
/// # Errors
///
/// Every error names a byte offset (`… at byte N`): malformed input, a
/// `\u` escape whose first non-hex digit is at byte N, a number that
/// overflows to infinity (which [`JsonValue::to_json`] could not write
/// back), and `nesting deeper than 128 …` past [`MAX_JSON_DEPTH`] levels
/// of arrays and objects.
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
        None => Err(format!("unexpected end of input at byte {}", *pos)),
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
    let start = *pos;
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(format!("unterminated string at byte {start}")),
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
                        // Exactly four hex digits: no sign, no shorter
                        // run (`from_str_radix` would take `+041`).
                        let mut code = 0u32;
                        for k in 1..=4 {
                            let digit =
                                bytes.get(*pos + k).and_then(|&h| char::from(h).to_digit(16));
                            let digit = digit
                                .ok_or_else(|| format!("bad \\u escape at byte {}", *pos + k))?;
                            code = code * 16 + digit;
                        }
                        // Surrogates never appear in our own output; map
                        // each half to the replacement character on read.
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
                // boundaries of the `&str` input and each byte is
                // visited once.
                let end = bytes[*pos..]
                    .iter()
                    .position(|b| matches!(b, b'"' | b'\\'))
                    .map_or(bytes.len(), |i| *pos + i);
                let run = std::str::from_utf8(&bytes[*pos..end]).expect("runs end at ASCII bytes");
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
    match text.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(JsonValue::Num(x)),
        Ok(_) => Err(format!("number {text:?} overflows at byte {start}")),
        Err(_) => Err(format!("bad number {text:?} at byte {start}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_serialises_all_value_kinds() {
        let v = JsonValue::obj(vec![
            ("n", JsonValue::Int(3)),
            ("x", JsonValue::Num(0.25)),
            ("nan", JsonValue::Num(f64::NAN)),
            ("ok", JsonValue::Bool(true)),
            ("name", JsonValue::Str("a \"b\"\n\r\t\u{1}\\".into())),
            ("xs", JsonValue::Arr(vec![JsonValue::Int(1), JsonValue::Null])),
        ]);
        assert_eq!(
            v.to_json(),
            r#"{"n":3,"x":0.25,"nan":null,"ok":true,"name":"a \"b\"\n\r\t\u0001\\","xs":[1,null]}"#
        );
    }

    #[test]
    fn parse_json_round_trips_report_output() {
        let v = JsonValue::obj(vec![
            ("n", JsonValue::Int(3)),
            ("x", JsonValue::Num(0.25)),
            ("neg", JsonValue::Num(-1.5e-3)),
            ("ok", JsonValue::Bool(true)),
            ("none", JsonValue::Null),
            ("name", JsonValue::Str("a \"b\"\n\ttail\\ ünï\u{8}\u{c}\r".into())),
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
            parse_json(" {\t\"a\" :\r\n[ 1 , 2 ] } \n").expect("parse"),
            JsonValue::obj(vec![("a", JsonValue::Arr(vec![JsonValue::Int(1), JsonValue::Int(2)]))])
        );
        assert_eq!(parse_json(r#""\b\f\/""#).expect("parse"), JsonValue::Str("\u{8}\u{c}/".into()));
        // RFC 8259 whitespace only: a form feed or a vertical tab is not.
        assert_eq!(parse_json("\u{c}1").unwrap_err(), "expected a value at byte 0");
        assert_eq!(parse_json("[1]\u{b}").unwrap_err(), "trailing data at byte 3");
        assert!(parse_json("").is_err());
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{\"a\":1}tail").is_err());
        assert!(parse_json("nil").is_err());
    }

    #[test]
    fn parse_json_caps_nesting_instead_of_overflowing_the_stack() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse_json(&nested(MAX_JSON_DEPTH)).is_ok());
        let err = parse_json(&nested(MAX_JSON_DEPTH + 1)).unwrap_err();
        assert_eq!(err, "nesting deeper than 128 at byte 128");
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
        assert_eq!(parse("1.7976931348623157e308"), JsonValue::Num(f64::MAX));
        assert_eq!(parse_json("--1").unwrap_err(), "bad number \"--1\" at byte 0");
        assert_eq!(parse_json("[0,1.2.3]").unwrap_err(), "bad number \"1.2.3\" at byte 3");
    }

    #[test]
    fn parse_json_rejects_numbers_the_writer_could_not_write_back() {
        // `Num(inf)` would serialise as `null`: refuse it on read.
        assert_eq!(parse_json("1e400").unwrap_err(), "number \"1e400\" overflows at byte 0");
        assert_eq!(parse_json("[1, -1e400]").unwrap_err(), "number \"-1e400\" overflows at byte 4");
        let digits = "9".repeat(400);
        let err = parse_json(&format!("{{\"x\":{digits}}}")).unwrap_err();
        assert!(err.ends_with("overflows at byte 5"), "{err}");
        // Underflow to zero is a finite value the writer round-trips.
        assert_eq!(parse_json("1e-400").expect("parse"), JsonValue::Num(0.0));
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
        assert_eq!(err(r#"["\u12"#), "bad \\u escape at byte 6");
        assert_eq!(err("[\"abc"), "unterminated string at byte 1");
        assert_eq!(err("["), "unexpected end of input at byte 1");
    }

    #[test]
    fn accessors_name_the_field_in_every_error() {
        let v =
            parse_json(r#"{"i":-2,"f":1.5,"s":"x","b":true,"a":[1],"big":4294967296,"n":null}"#)
                .expect("parse");
        assert_eq!(v.num("i"), Ok(-2.0));
        assert_eq!(v.num("f"), Ok(1.5));
        assert_eq!(v.int("i"), Ok(-2));
        assert_eq!(v.uint::<u64>("big"), Ok(1 << 32));
        assert_eq!(v.bool("b"), Ok(true));
        assert_eq!(v.str("s"), Ok("x"));
        assert_eq!(v.arr("a"), Ok(&[JsonValue::Int(1)][..]));
        assert_eq!(v.field("n"), Ok(&JsonValue::Null));
        assert_eq!(v.num("x").unwrap_err(), "missing field \"x\"");
        assert_eq!(v.num("s").unwrap_err(), "field \"s\" must be a number");
        assert_eq!(v.int("f").unwrap_err(), "field \"f\" must be an integer");
        assert_eq!(v.uint::<usize>("i").unwrap_err(), "field \"i\" must be non-negative");
        assert_eq!(v.uint::<u32>("big").unwrap_err(), "field \"big\" is out of range");
        assert_eq!(v.bool("n").unwrap_err(), "field \"n\" must be a bool");
        assert_eq!(v.str("a").unwrap_err(), "field \"a\" must be a string");
        assert_eq!(v.arr("b").unwrap_err(), "field \"b\" must be an array");
        assert_eq!(JsonValue::Int(1).field("k").unwrap_err(), "expected an object around \"k\"");
    }
}
