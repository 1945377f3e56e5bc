//! Hand-rolled JSON decoding for the wire protocol.
//!
//! The workspace deliberately has no external dependencies, and
//! [`fgc_views::Json`] is an *output*-oriented value (citations are
//! rendered, never read back). The server needs the other direction:
//! request bodies arrive as JSON text and must become [`Json`] values
//! before [`crate::wire`] maps them onto `CiteRequest` fields. This
//! is a small recursive-descent parser over the full JSON grammar
//! (objects, arrays, strings with escapes, numbers, literals) with a
//! nesting-depth bound so hostile bodies cannot blow the stack.

use fgc_views::Json;

/// Maximum nesting depth accepted from the wire.
pub const MAX_DEPTH: usize = 64;

/// A JSON decode failure: message plus byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset where it went wrong.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parse a complete JSON document; trailing non-whitespace is an
/// error (a request body is exactly one value).
pub fn parse_json(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("invalid literal (expected `{word}`)")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
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
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let first = self.hex4()?;
                            // surrogate pairs: a high surrogate must
                            // be followed by `\uDC00..=\uDFFF`
                            let code = if (0xD800..0xDC00).contains(&first) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')
                                        .map_err(|_| self.err("lone high surrogate"))?;
                                    let second = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&second) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                first
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy the whole run of plain bytes at once. The
                    // run starts after and stops at an ASCII byte (or
                    // the end of input), so both ends are char
                    // boundaries of the `&str` this parser was given.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(self.bytes.len() - self.pos);
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("bad unicode escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad unicode escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse_json("null").unwrap(), Json::Null);
        assert_eq!(parse_json("true").unwrap(), Json::Bool(true));
        assert_eq!(parse_json("false").unwrap(), Json::Bool(false));
        assert_eq!(parse_json("42").unwrap(), Json::Int(42));
        assert_eq!(parse_json("-7").unwrap(), Json::Int(-7));
        assert_eq!(parse_json("2.5").unwrap(), Json::Float(2.5));
        assert_eq!(parse_json("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(parse_json("\"hi\"").unwrap(), Json::str("hi"));
    }

    #[test]
    fn parses_structures_preserving_order() {
        let v = parse_json(r#"{"b": [1, 2, {"c": null}], "a": "x"}"#).unwrap();
        match &v {
            Json::Object(fields) => {
                assert_eq!(fields[0].0, "b");
                assert_eq!(fields[1].0, "a");
            }
            other => panic!("expected object, got {other:?}"),
        }
        assert_eq!(v.get("a"), Some(&Json::str("x")));
    }

    #[test]
    fn round_trips_compact_rendering() {
        for text in [
            r#"{"query":"Q(N) :- Family(F, N, Ty)","policy":"union"}"#,
            r#"[1,-2,"a\nb",true,null]"#,
            r#"{"nested":{"deep":[{"x":1.5}]}}"#,
        ] {
            let v = parse_json(text).unwrap();
            assert_eq!(parse_json(&v.to_compact()).unwrap(), v);
        }
    }

    #[test]
    fn decodes_escapes() {
        assert_eq!(
            parse_json(r#""a\"b\\c\n\t\u0041\u00e9""#).unwrap(),
            Json::str("a\"b\\c\n\tAé")
        );
        // surrogate pair: U+1F600
        assert_eq!(
            parse_json(r#""\ud83d\ude00""#).unwrap(),
            Json::str("\u{1F600}")
        );
    }

    #[test]
    fn multibyte_text_survives_next_to_escapes_and_the_closing_quote() {
        // 2-, 3- and 4-byte scalars directly before an escape,
        // directly after one, and directly before the closing quote
        let text = "\"é\\n€\\\"\u{1F600}\\\\é€\u{1F600}\"";
        let expected = "é\n€\"\u{1F600}\\é€\u{1F600}";
        let parsed = parse_json(text).unwrap();
        assert_eq!(parsed, Json::str(expected));
        assert_eq!(parse_json(&parsed.to_compact()).unwrap(), parsed);
        // as an object key too (keys go through the same path)
        let object = parse_json("{\"clé€\": \"\\u00e9é\"}").unwrap();
        assert_eq!(object.get("clé€"), Some(&Json::str("éé")));
    }

    #[test]
    fn a_body_limit_sized_string_parses_in_linear_time() {
        // 1 MiB is `MAX_BODY_BYTES`: any client may send it. Validating
        // the whole remaining input once per character was quadratic
        // (12.8 s per MB in a release build, benchmark README); one
        // pass takes milliseconds.
        let payload = "citation é".repeat((1 << 20) / "citation é".len());
        let text = format!("{{\"query\": \"{payload}\"}}");
        let started = std::time::Instant::now();
        let parsed = parse_json(&text).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(parsed.get("query"), Some(&Json::str(payload)));
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "1 MiB string took {elapsed:?}"
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "\"unterminated",
            "tru",
            "01x",
            "{\"a\":1} trailing",
            "\"\\u12\"",
            "\"\\ud800\"",
            "{\"a\":}",
            "nan",
        ] {
            assert!(parse_json(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn rejects_excessive_nesting() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        let err = parse_json(&deep).unwrap_err();
        assert!(err.message.contains("deep"), "{err}");
    }
}
