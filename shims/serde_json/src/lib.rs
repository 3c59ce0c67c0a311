//! Offline stand-in for `serde_json`: renders the shim `serde`'s
//! [`Value`] tree to JSON text and parses it back.
//!
//! Formatting conventions match real `serde_json` where the workspace
//! can observe them: non-finite floats serialize as `null`, object
//! order is preserved, `to_string_pretty` indents with two spaces.

use serde::{DeError, Deserialize, Serialize, Value};

/// Serialization / deserialization error.
#[derive(Debug)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error::new(e.to_string())
    }
}

/// Serializes `value` to compact JSON.
///
/// # Errors
///
/// Infallible for the shim's value model; the `Result` mirrors the real
/// `serde_json` signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes `value` to two-space-indented JSON.
///
/// # Errors
///
/// Infallible for the shim's value model; the `Result` mirrors the real
/// `serde_json` signature.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some("  "), 0);
    Ok(out)
}

/// Parses JSON text into `T`.
///
/// # Errors
///
/// Returns a parse error on malformed JSON or a shape mismatch.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    Ok(T::from_owned_value(parse_value(s)?)?)
}

// --- writer -------------------------------------------------------------

fn write_value(out: &mut String, v: &Value, indent: Option<&str>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::F64(n) => write_f64(out, *n),
        Value::Str(s) => write_escaped(out, s),
        Value::Array(items) => write_seq(
            out,
            items.iter(),
            indent,
            depth,
            '[',
            ']',
            |o, it, ind, d| {
                write_value(o, it, ind, d);
            },
        ),
        Value::Object(pairs) => {
            write_seq(
                out,
                pairs.iter(),
                indent,
                depth,
                '{',
                '}',
                |o, (k, val), ind, d| {
                    write_escaped(o, k);
                    o.push(':');
                    if ind.is_some() {
                        o.push(' ');
                    }
                    write_value(o, val, ind, d);
                },
            );
        }
    }
}

fn write_seq<I, T>(
    out: &mut String,
    items: I,
    indent: Option<&str>,
    depth: usize,
    open: char,
    close: char,
    mut write_item: impl FnMut(&mut String, T, Option<&str>, usize),
) where
    I: ExactSizeIterator<Item = T>,
{
    out.push(open);
    let len = items.len();
    for (i, item) in items.enumerate() {
        if let Some(pad) = indent {
            out.push('\n');
            for _ in 0..=depth {
                out.push_str(pad);
            }
        }
        write_item(out, item, indent, depth + 1);
        if i + 1 < len {
            out.push(',');
        }
    }
    if len > 0 {
        if let Some(pad) = indent {
            out.push('\n');
            for _ in 0..depth {
                out.push_str(pad);
            }
        }
    }
    out.push(close);
}

fn write_f64(out: &mut String, n: f64) {
    if n.is_finite() {
        let s = n.to_string();
        out.push_str(&s);
        // Keep floats recognizable as floats, like serde_json does.
        if !s.contains('.') && !s.contains('e') && !s.contains('E') {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// --- parser -------------------------------------------------------------

struct Parser<'a> {
    /// The input text; string runs are copied out of it whole.
    src: &'a str,
    /// The same input as bytes, for scanning.
    bytes: &'a [u8],
    pos: usize,
}

/// Parses one JSON document (with nothing but whitespace after it).
fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        src: s,
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at offset {}",
            p.pos
        )));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::new("unexpected end of JSON"))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            b'n' => {
                if self.eat_keyword("null") {
                    Ok(Value::Null)
                } else {
                    Err(Error::new(format!(
                        "invalid literal at offset {}",
                        self.pos
                    )))
                }
            }
            b't' => {
                if self.eat_keyword("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(Error::new(format!(
                        "invalid literal at offset {}",
                        self.pos
                    )))
                }
            }
            b'f' => {
                if self.eat_keyword("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(Error::new(format!(
                        "invalid literal at offset {}",
                        self.pos
                    )))
                }
            }
            b'"' => self.string().map(Value::Str),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.peek()? == b']' {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b']' => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => {
                            return Err(Error::new(format!(
                                "expected `,` or `]` at offset {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            b'{' => {
                self.pos += 1;
                let mut pairs = Vec::new();
                if self.peek()? == b'}' {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    pairs.push((key, self.value()?));
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b'}' => {
                            self.pos += 1;
                            return Ok(Value::Object(pairs));
                        }
                        _ => {
                            return Err(Error::new(format!(
                                "expected `,` or `}}` at offset {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(Error::new(format!(
                "unexpected character `{}` at offset {}",
                other as char, self.pos
            ))),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash whole: both
            // are ASCII, so the run ends on a char boundary of input that
            // is already valid UTF-8 and needs no re-validation.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| Error::new("unterminated string"))?;
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let esc = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| Error::new("unterminated escape"))?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{0008}'),
                b'f' => out.push('\u{000C}'),
                b'u' => {
                    let code = self.hex4()?;
                    // A high surrogate followed by a low one is one
                    // astral char; a lone surrogate maps to the
                    // replacement character rather than erroring.
                    let c = match code {
                        0xD800..=0xDBFF => self.low_surrogate().and_then(|low| {
                            char::from_u32(0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00))
                        }),
                        _ => char::from_u32(code),
                    };
                    out.push(c.unwrap_or('\u{FFFD}'));
                }
                other => return Err(Error::new(format!("invalid escape `\\{}`", other as char))),
            }
        }
    }

    /// The four hex digits after a `\u`, which is already consumed.
    fn hex4(&mut self) -> Result<u32, Error> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::new("truncated \\u escape"))?;
        self.pos += 4;
        u32::from_str_radix(
            std::str::from_utf8(hex).map_err(|_| Error::new("invalid \\u escape"))?,
            16,
        )
        .map_err(|_| Error::new("invalid \\u escape"))
    }

    /// Consumes a `\uDC00`–`\uDFFF` escape if one comes next; leaves
    /// anything else for the string loop.
    fn low_surrogate(&mut self) -> Option<u32> {
        if !self.bytes[self.pos..].starts_with(b"\\u") {
            return None;
        }
        let start = self.pos;
        self.pos += 2;
        match self.hex4() {
            Ok(low @ 0xDC00..=0xDFFF) => Some(low),
            _ => {
                self.pos = start;
                None
            }
        }
    }

    /// Parses a number as RFC 8259 writes it:
    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`. One with
    /// neither fraction nor exponent is an integer when it fits `i64` or
    /// `u64`.
    fn number(&mut self) -> Result<Value, Error> {
        let bytes = self.bytes;
        let start = self.pos;
        let mut pos = start;
        // Consumes a run of digits; whether there was at least one.
        let digits = |pos: &mut usize| {
            let from = *pos;
            while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
                *pos += 1;
            }
            *pos > from
        };
        if bytes.get(pos) == Some(&b'-') {
            pos += 1;
        }
        // A leading zero is the whole integer part.
        let mut ok = if bytes.get(pos) == Some(&b'0') {
            pos += 1;
            true
        } else {
            digits(&mut pos)
        };
        let mut is_float = false;
        if ok && bytes.get(pos) == Some(&b'.') {
            pos += 1;
            is_float = true;
            ok = digits(&mut pos);
        }
        if ok && matches!(bytes.get(pos), Some(b'e' | b'E')) {
            pos += 1;
            if matches!(bytes.get(pos), Some(b'+' | b'-')) {
                pos += 1;
            }
            is_float = true;
            ok = digits(&mut pos);
        }
        self.pos = pos;
        let text = &self.src[start..pos];
        if !ok {
            return Err(Error::new(format!("invalid number `{text}`")));
        }
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_render() {
        let v = Value::Object(vec![
            ("a".into(), Value::I64(1)),
            (
                "b".into(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
        ]);
        assert_eq!(to_string(&v).unwrap(), r#"{"a":1,"b":[true,null]}"#);
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains("\n  \"a\": 1"), "{pretty}");
    }

    #[test]
    fn parse_round_trips() {
        let text = r#"{"x": -3.5, "y": [1, 2e3], "s": "a\"b\\c\nd", "t": true}"#;
        let v = parse_value(text).unwrap();
        let back = parse_value(&to_string(&v).unwrap()).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        assert_eq!(to_string(&100.0f64).unwrap(), "100.0");
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(from_str::<f64>("{").is_err());
        assert!(from_str::<f64>("1 trailing").is_err());
        assert!(from_str::<bool>("truthy").is_err());
        assert!(from_str::<Vec<i64>>("[1,]").is_err());
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        let accepted = [
            ("0", Value::I64(0)),
            ("-0", Value::I64(0)),
            ("0.5", Value::F64(0.5)),
            ("1e-7", Value::F64(1e-7)),
            ("1E+300", Value::F64(1e300)),
            ("-9223372036854775808", Value::I64(i64::MIN)),
            ("18446744073709551615", Value::U64(u64::MAX)),
        ];
        for (text, want) in accepted {
            assert_eq!(parse_value(text).ok(), Some(want), "{text}");
        }
        let rejected = [
            "075", "00", "-01", "01.5", "1.", "-.5", "1.e5", "-", "1e", "1e+",
        ];
        for text in rejected {
            assert!(parse_value(text).is_err(), "{text} accepted");
            assert!(
                parse_value(&format!("[{text}]")).is_err(),
                "[{text}] accepted"
            );
        }
    }

    #[test]
    fn escapes_anywhere_in_a_string() {
        let cases = [
            (r#""\nabc""#, "\nabc"),
            (r#""ab\tcd""#, "ab\tcd"),
            (r#""abc\"""#, "abc\""),
            (r#""\\\"\/\b\f\r""#, "\\\"/\u{8}\u{c}\r"),
            (r#""x\u0041\u00e9y""#, "xAéy"),
            (r#""""#, ""),
        ];
        for (json, want) in cases {
            assert_eq!(from_str::<String>(json).unwrap(), want, "{json}");
        }
    }

    #[test]
    fn multibyte_utf8_inside_a_run() {
        for s in ["é→😀", "a\"é\\→\n😀z", "😀"] {
            let json = to_string(&s).unwrap();
            assert_eq!(from_str::<String>(&json).unwrap(), s, "{json}");
        }
        assert_eq!(from_str::<String>("\"ü\\u00fc→\"").unwrap(), "üü→");
    }

    #[test]
    fn broken_strings_still_error() {
        let err = |json: &str| from_str::<String>(json).unwrap_err().to_string();
        assert_eq!(err(r#""abc"#), "unterminated string");
        assert_eq!(err(r#""ab\"#), "unterminated escape");
        assert_eq!(err(r#""ab\""#), "unterminated string");
        assert_eq!(err(r#""a\qb""#), "invalid escape `\\q`");
        assert_eq!(err(r#""\u12x""#), "invalid \\u escape");
        assert_eq!(err(r#""\u1"#), "truncated \\u escape");
        assert_eq!(err(r#""\uzzzz""#), "invalid \\u escape");
        assert_eq!(err(r#""ab" x"#), "trailing characters at offset 5");
    }

    #[test]
    fn surrogate_pairs_combine_and_lone_surrogates_are_replaced() {
        let s = |json: &str| from_str::<String>(json).unwrap();
        assert_eq!(s(r#""\ud83d\ude00""#), "😀");
        assert_eq!(s(r#""a\uD83D\uDE00b""#), "a😀b");
        assert_eq!(s(r#""\ud83d""#), "\u{FFFD}");
        assert_eq!(s(r#""\ud83dx""#), "\u{FFFD}x");
        assert_eq!(s(r#""\ude00""#), "\u{FFFD}");
        assert_eq!(s(r#""\ud83d\u0041""#), "\u{FFFD}A");
        assert_eq!(s(r#""\ud83d\ud83d\ude00""#), "\u{FFFD}😀");
        assert_eq!(s(r#""\ud83d\n""#), "\u{FFFD}\n");
        // A broken escape after a high surrogate is still an error.
        assert!(from_str::<String>(r#""\ud83d\uzz""#).is_err());
    }

    #[test]
    fn unicode_survives() {
        let s = "héllo → wörld ✓".to_owned();
        let json = to_string(&s).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), s);
    }
}
