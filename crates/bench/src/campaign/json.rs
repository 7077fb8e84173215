//! Minimal JSON emitter/parser for `BENCH_scaling.json`.
//!
//! The workspace is offline and serde was pruned in PR 1, so the campaign
//! report hand-rolls its document: a tiny recursive-descent parser over
//! the JSON subset we emit (objects, arrays, strings without escapes,
//! numbers, and the bare words true/false/null). Good enough to read our
//! own output back for the regression gate; not a general JSON library.

use std::collections::BTreeMap;

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

// -- lookup helpers ---------------------------------------------------------

pub fn get<'a>(obj: &'a BTreeMap<String, Json>, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing key {key:?}"))
}

pub fn get_str(obj: &BTreeMap<String, Json>, key: &str) -> Result<String, String> {
    get(obj, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{key:?} is not a string"))
}

pub fn get_f64(obj: &BTreeMap<String, Json>, key: &str) -> Result<f64, String> {
    get(obj, key)?
        .as_f64()
        .ok_or_else(|| format!("{key:?} is not a number"))
}

pub(crate) fn get_f64_array(obj: &BTreeMap<String, Json>, key: &str) -> Result<Vec<f64>, String> {
    get(obj, key)?
        .as_array()
        .ok_or_else(|| format!("{key:?} is not an array"))?
        .iter()
        .map(|v| v.as_f64().ok_or_else(|| format!("{key:?} has a non-number element")))
        .collect()
}

pub(crate) fn get_usize_array(obj: &BTreeMap<String, Json>, key: &str) -> Result<Vec<usize>, String> {
    Ok(get_f64_array(obj, key)?.into_iter().map(|f| f as usize).collect())
}

// -- emission helpers -------------------------------------------------------

/// Format a float so it parses back bit-identically (shortest via `{}`,
/// which Rust guarantees round-trips f64).
pub(crate) fn fmt_f64(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{x:.1}") // keep "1.0" a JSON float, not an int
    } else {
        format!("{x}")
    }
}

pub(crate) fn fmt_f64_array(xs: &[f64]) -> String {
    let body: Vec<String> = xs.iter().map(|&x| fmt_f64(x)).collect();
    format!("[{}]", body.join(", "))
}

pub(crate) fn fmt_usize_array(xs: &[usize]) -> String {
    let body: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
    format!("[{}]", body.join(", "))
}

// -- parser -----------------------------------------------------------------

pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", ch as char, *pos))
    }
}

fn peek(b: &[u8], pos: &mut usize) -> Option<u8> {
    skip_ws(b, pos);
    b.get(*pos).copied()
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    match peek(b, pos).ok_or("unexpected end of input")? {
        b'{' => parse_object(b, pos),
        b'[' => parse_array(b, pos),
        b'"' => parse_string(b, pos).map(Json::Str),
        b't' => parse_word(b, pos, "true", Json::Bool(true)),
        b'f' => parse_word(b, pos, "false", Json::Bool(false)),
        b'n' => parse_word(b, pos, "null", Json::Null),
        _ => parse_number(b, pos),
    }
}

fn parse_word(b: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    if peek(b, pos) == Some(b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        map.insert(key, value);
        match peek(b, pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    if peek(b, pos) == Some(b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        match peek(b, pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let start = *pos;
    while *pos < b.len() && b[*pos] != b'"' {
        if b[*pos] == b'\\' {
            return Err("string escapes are not supported".into());
        }
        *pos += 1;
    }
    if *pos >= b.len() {
        return Err("unterminated string".into());
    }
    let s = std::str::from_utf8(&b[start..*pos])
        .map_err(|_| "invalid utf-8 in string".to_string())?
        .to_string();
    *pos += 1;
    Ok(s)
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len()
        && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let s = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number".to_string())?;
    s.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number {s:?} at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_our_subset() {
        let doc = r#"{ "a": [1, 2.5, -3e2], "b": {"c": "hi", "d": true}, "e": null }"#;
        let v = parse(doc).unwrap();
        let root = v.as_object().unwrap();
        assert_eq!(get_f64_array(root, "a").unwrap(), vec![1.0, 2.5, -300.0]);
        let b = get(root, "b").unwrap().as_object().unwrap();
        assert_eq!(get_str(b, "c").unwrap(), "hi");
        assert_eq!(get(root, "e").unwrap(), &Json::Null);
    }

    #[test]
    fn f64_formatting_round_trips() {
        for x in [0.0, 1.0, 0.9634, 1.0 / 3.0, 123456.789, 1e-12] {
            let s = fmt_f64(x);
            let back = parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {s}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{}{}").is_err());
    }
}
