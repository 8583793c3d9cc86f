//! A minimal JSON reader for the files the gates read.
//!
//! The hermetic workspace has no serde; the gate binary needs to read the
//! benchmark's result files *structurally* (the grep/awk gates it replaced
//! broke silently whenever a key was renamed). This is a small recursive-descent
//! parser for the JSON subset the harness emits — objects, arrays,
//! strings with escapes, numbers, booleans, null — that reports parse
//! errors with a byte offset instead of guessing.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
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

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Walk a path of member lookups.
    pub fn path(&self, keys: &[&str]) -> Option<&Json> {
        let mut cur = self;
        for k in keys {
            cur = cur.get(k)?;
        }
        Some(cur)
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_word(&mut self, w: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(w.as_bytes()) {
            self.pos += w.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{w}'")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_word("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat_word("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.eat_word("null").map(|()| Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            m.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            self.skip_ws();
            v.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u escape"))?;
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // boundaries are valid by construction).
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xc0 == 0x80) {
                        self.pos += 1;
                    }
                    s.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_result_file_shapes() {
        let doc = Json::parse(
            r#"{"workload": "seq_light", "trace": 0, "result": {"correct": true,
                "failed": 0, "metrics": {"setup_s": {"value": 1.5, "unit": "s"}}},
                "samples": [123], "tags": null}"#,
        )
        .unwrap();
        assert_eq!(
            doc.get("workload").and_then(Json::as_str),
            Some("seq_light")
        );
        assert!(doc.get("tags").unwrap().is_null());
        let samples = doc.get("samples").and_then(Json::as_arr).unwrap();
        assert_eq!(samples[0].as_u64(), Some(123));
        let setup = doc.path(&["result", "metrics", "setup_s", "value"]);
        assert_eq!(setup.and_then(Json::as_f64), Some(1.5));
        assert_eq!(doc.path(&["result", "correct"]), Some(&Json::Bool(true)));
    }

    #[test]
    fn escapes_and_unicode() {
        let doc = Json::parse(r#"{"k": "a\"b\\c\ndéé"}"#).unwrap();
        assert_eq!(doc.get("k").and_then(Json::as_str), Some("a\"b\\c\ndéé"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("{}x").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
        assert!(Json::parse("[1,]").is_err());
    }

    #[test]
    fn negative_and_float_numbers() {
        let doc = Json::parse("[-3, 2.5, 1e3]").unwrap();
        let v = doc.as_arr().unwrap();
        assert_eq!(v[0].as_f64(), Some(-3.0));
        assert_eq!(v[0].as_u64(), None);
        assert_eq!(v[1].as_f64(), Some(2.5));
        assert_eq!(v[2].as_f64(), Some(1000.0));
    }
}
