//! A minimal JSON parser, just enough to validate emitted profiles.
//!
//! The telemetry crate emits JSON by string building (profiles, reports);
//! this parser closes the loop so integration tests and `xtask
//! validate-profile` can check well-formedness and schema without external
//! dependencies. Strict on structure, permissive on numbers (anything Rust's
//! `f64::parse` accepts after the JSON grammar's first pass).

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (held as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (`None` for non-objects / missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number inside, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string inside, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// The numeric field `key` of `v`, or an error naming `ctx`.
pub fn expect_num(v: &Value, key: &str, ctx: &str) -> Result<f64, String> {
    let inner = v.get(key).ok_or_else(|| format!("{ctx} is missing `{key}`"))?;
    inner.as_f64().ok_or_else(|| format!("{ctx}.{key} is not a number"))
}

/// The object-valued field `key` of `v`, or an error naming `ctx`.
pub fn expect_obj<'a>(v: &'a Value, key: &str, ctx: &str) -> Result<&'a Value, String> {
    let inner = v.get(key).ok_or_else(|| format!("{ctx} is missing `{key}`"))?;
    match inner {
        Value::Obj(_) => Ok(inner),
        _ => Err(format!("{ctx}.{key} is not an object")),
    }
}

/// Check the document's `"schema"` tag — the first test every versioned
/// document (`hibd-profile-v2`, `hibd-serve-v2`, `hibd-job-v1`) must pass.
pub fn expect_schema(v: &Value, schema: &str) -> Result<(), String> {
    match v.get("schema").and_then(Value::as_str) {
        Some(s) if s == schema => Ok(()),
        Some(s) => Err(format!("schema {s:?}, expected {schema:?}")),
        None => Err(format!("missing \"schema\" tag, expected {schema:?}")),
    }
}

/// Escape a string for embedding in emitted JSON.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(src: &str) -> Result<Value, String> {
    let bytes = src.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", ch as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        // Surrogate pairs are not needed for our profiles;
                        // map unpaired surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy a maximal run of unescaped bytes in one go.
                let run = *pos;
                while *pos < b.len() && b[*pos] != b'"' && b[*pos] != b'\\' {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[run..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let val = parse_value(b, pos)?;
        fields.push((key, val));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_basic_document() {
        let doc = r#"{"a": 1.5e3, "b": [true, false, null], "s": "x\"y\n", "o": {}}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_f64(), Some(1500.0));
        assert_eq!(v.get("b").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\"y\n"));
        assert_eq!(v.get("o"), Some(&Value::Obj(vec![])));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "{\"a\":1} x", "\"abc", "nul", "1.2.3"] {
            assert!(parse(bad).is_err(), "accepted malformed input {bad:?}");
        }
    }

    #[test]
    fn typed_accessors_name_what_is_wrong() {
        let v = parse(r#"{"schema": "s-v1", "o": {"n": 2}, "a": []}"#).unwrap();
        expect_schema(&v, "s-v1").unwrap();
        assert!(expect_schema(&v, "s-v2").unwrap_err().contains("s-v1"));
        assert!(expect_schema(&Value::Null, "s-v1").unwrap_err().contains("missing"));
        let o = expect_obj(&v, "o", "doc").unwrap();
        assert_eq!(expect_num(o, "n", "doc.o"), Ok(2.0));
        assert!(expect_obj(&v, "a", "doc").unwrap_err().contains("doc.a is not an object"));
        assert!(expect_obj(&v, "zz", "doc").unwrap_err().contains("missing `zz`"));
        assert!(expect_num(&v, "o", "doc").unwrap_err().contains("doc.o is not a number"));
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "quote\" slash\\ newline\n tab\t ctrl\u{1} unicode é";
        let doc = format!("{{\"k\":\"{}\"}}", escape(nasty));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(nasty));
    }
}
