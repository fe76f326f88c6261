//! Minimal JSON support: string escaping, number formatting, the one
//! JSONL record writer ([`write_record`]) and a recursive-descent parser,
//! with no external dependencies (the build environment is offline).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escape `s` as the *contents* of a JSON string (no surrounding
/// quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
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
    out
}

/// Format `v` as a JSON number. Non-finite values become `null` (JSON
/// has no NaN/Infinity).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// One value of a [`record`], borrowed from the caller.
#[derive(Debug, Clone, Copy)]
pub enum Field<'a> {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A whole number, written as is.
    Int(u64),
    /// A number, written through [`num`] (non-finite becomes `null`).
    Num(f64),
    /// A string, written through [`escape`].
    Str(&'a str),
    /// An array of whole numbers.
    Ints(&'a [u64]),
    /// An array of numbers, each written through [`num`].
    Nums(&'a [f64]),
    /// A nested object, keys in the given order.
    Obj(&'a [(&'a str, Field<'a>)]),
}

/// Append `fields` to `out` as one JSON object, keys in the given order:
/// the one writer behind every JSONL record — the recorder's export,
/// post-mortem bundles and the CLIs' `--json` lines — so each line is
/// valid JSON whatever values it carries.
pub fn write_record(out: &mut String, fields: &[(&str, Field<'_>)]) {
    fn list<T>(out: &mut String, items: &[T], item: impl Fn(&mut String, &T)) {
        out.push('[');
        for (i, v) in items.iter().enumerate() {
            out.push_str(if i == 0 { "" } else { "," });
            item(out, v);
        }
        out.push(']');
    }
    out.push('{');
    for (i, (key, value)) in fields.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\"{}\":", escape(key));
        match *value {
            Field::Null => out.push_str("null"),
            Field::Bool(v) => out.push_str(if v { "true" } else { "false" }),
            Field::Int(v) => out.push_str(&v.to_string()),
            Field::Num(v) => out.push_str(&num(v)),
            Field::Str(s) => out.push_str(&format!("\"{}\"", escape(s))),
            Field::Ints(vs) => list(out, vs, |out, v| out.push_str(&v.to_string())),
            Field::Nums(vs) => list(out, vs, |out, &v| out.push_str(&num(v))),
            Field::Obj(fields) => write_record(out, fields),
        }
    }
    out.push('}');
}

/// [`write_record`] into a new string: one `--json` line.
pub fn record(fields: &[(&str, Field<'_>)]) -> String {
    let mut out = String::new();
    write_record(&mut out, fields);
    out
}

/// A parsed JSON value. Object keys keep only the last duplicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Numeric view.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts. The parser
/// recurses once per level and its input comes from files, so the depth
/// must be bounded before the stack is; every format this repository
/// writes nests four deep at most.
const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document. Errors carry a byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut p = Parser {
        text,
        bytes,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
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
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn nested(&mut self, body: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            let at = self.pos;
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {at}"));
        }
        self.depth += 1;
        let v = body(self);
        self.depth -= 1;
        v
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
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
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // Surrogates are replaced, not paired — the
                            // validator never emits them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(format!(
                                "bad escape '\\{}' at byte {}",
                                other as char, start
                            ));
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar: `pos` only ever advances
                    // over whole scalars, so it is on a boundary.
                    let Some(ch) = self.text[self.pos..].chars().next() else {
                        return Err("unterminated string".to_string());
                    };
                    if (ch as u32) < 0x20 {
                        return Err(format!("raw control char at byte {}", self.pos));
                    }
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // Only ASCII bytes were consumed, so both ends are boundaries.
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
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
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn num_handles_nonfinite() {
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
    }

    #[test]
    fn record_keeps_key_order_and_stays_valid_json() {
        use Field::*;
        let wall = [("n", Ints(&[1, 2])), ("x", Nums(&[0.5, f64::NAN]))];
        let line = record(&[
            ("kind", Str("run")),
            ("machine", Str("a \"b\"")),
            ("threshold", Num(f64::INFINITY)),
            ("steps", Int(7)),
            ("win", Bool(false)),
            ("parent", Null),
            ("wall", Obj(&wall)),
        ]);
        let want = r#"{"kind":"run","machine":"a \"b\"","threshold":null,"steps":7,"#;
        let want = format!(
            "{want}\"win\":false,\"parent\":null,\"wall\":{{\"n\":[1,2],\"x\":[0.5,null]}}}}"
        );
        assert_eq!(line, want);
        assert_eq!(parse(&line).unwrap().get("win"), Some(&Value::Bool(false)));
        assert_eq!(record(&[]), "{}");
    }

    #[test]
    fn parse_roundtrip() {
        let v = parse(r#"{"a": [1, 2.5, -3e2], "b": "x\ny", "c": null, "d": true}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("c"), Some(&Value::Null));
        assert_eq!(v.get("d"), Some(&Value::Bool(true)));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("[1] junk").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn escaped_strings_roundtrip_through_parser() {
        let original = "quote\" slash\\ nl\n ctl\u{2}";
        let doc = format!("\"{}\"", escape(original));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(original));
    }
}
