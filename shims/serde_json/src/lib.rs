//! Offline stand-in for `serde_json`: renders the shim `serde`'s
//! [`Value`] tree to JSON text, and parses text straight into any
//! [`Deserialize`] type through a streaming [`serde::Deserializer`].
//!
//! Formatting conventions match real `serde_json` where the workspace
//! can observe them: non-finite floats serialize as `null`, object
//! order is preserved, `to_string_pretty` indents with two spaces.

use serde::{DeError, Deserialize, Deserializer, Kind, Number, Serialize, Value};

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

/// Parses JSON text into `T`, reading it straight off the text (see
/// [`serde::Deserializer`]).
///
/// # Errors
///
/// Returns a parse error on malformed JSON or a shape mismatch, or
/// when anything but whitespace follows the value.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut parser = Parser::new(s);
    let value = T::deserialize(&mut parser)?;
    parser.finish()?;
    Ok(value)
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

/// The JSON text reader behind [`from_str`]: a [`Deserializer`] that
/// walks the input once, lending strings out of it without a copy when
/// they hold no escape.
struct Parser<'a> {
    /// The input text; string runs are copied out of it whole.
    src: &'a str,
    /// The same input as bytes, for scanning.
    bytes: &'a [u8],
    pos: usize,
    /// The unescaped text of the last string that held an escape.
    scratch: String,
    /// Whether the innermost open container has not yet been asked for
    /// an item, so no `,` may come before it. A nested container opens
    /// only after its parent's first item has started, and reading past
    /// a close leaves the parent past its first item, so one flag
    /// serves every depth.
    first: bool,
}

/// Where [`Parser::string`] left a string's text.
enum Text {
    /// Unescaped, at this byte range of the input.
    Input(usize, usize),
    /// In `scratch`.
    Scratch,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            scratch: String::new(),
            first: false,
        }
    }

    /// Fails unless only whitespace is left.
    fn finish(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(Error::new(format!(
                "trailing characters at offset {}",
                self.pos
            )))
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek_byte(&mut self) -> Result<u8, DeError> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| DeError::new("unexpected end of JSON"))
    }

    fn expect(&mut self, b: u8) -> Result<(), DeError> {
        if self.peek_byte()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(DeError::new(format!(
                "expected `{}` at offset {}",
                b as char, self.pos
            )))
        }
    }

    /// Consumes `kw` at the next value.
    fn keyword(&mut self, kw: &str) -> Result<(), DeError> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(DeError::new(format!(
                "invalid literal at offset {}",
                self.pos
            )))
        }
    }

    /// Consumes the separator before an item of the open container:
    /// whether an item follows (`false` consumes `close`).
    fn next_item(&mut self, close: u8) -> Result<bool, DeError> {
        let b = self.peek_byte()?;
        if b == close {
            self.pos += 1;
            self.first = false;
            return Ok(false);
        }
        if std::mem::replace(&mut self.first, false) {
            return Ok(true);
        }
        if b == b',' {
            self.pos += 1;
            Ok(true)
        } else {
            Err(DeError::new(format!(
                "expected `,` or `{}` at offset {}",
                close as char, self.pos
            )))
        }
    }

    fn text(&self, t: Text) -> &str {
        match t {
            Text::Input(start, end) => &self.src[start..end],
            Text::Scratch => &self.scratch,
        }
    }

    /// Consumes a string. Its text stays in the input when it holds no
    /// escape, and is unescaped into `scratch` otherwise.
    fn string(&mut self) -> Result<Text, DeError> {
        self.expect(b'"')?;
        let start = self.pos;
        // Runs end at the next quote or backslash: both are ASCII, so a
        // run ends on a char boundary of input that is already valid
        // UTF-8 and needs no re-validation.
        let run = |p: &Self| {
            p.bytes[p.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| DeError::new("unterminated string"))
        };
        let len = run(self)?;
        self.pos += len + 1;
        if self.bytes[self.pos - 1] == b'"' {
            return Ok(Text::Input(start, start + len));
        }
        let mut out = std::mem::take(&mut self.scratch);
        out.clear();
        out.push_str(&self.src[start..start + len]);
        loop {
            // `pos` is just past a backslash.
            let esc = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| DeError::new("unterminated escape"))?;
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
                other => {
                    return Err(DeError::new(format!(
                        "invalid escape `\\{}`",
                        other as char
                    )))
                }
            }
            let len = run(self)?;
            out.push_str(&self.src[self.pos..self.pos + len]);
            self.pos += len + 1;
            if self.bytes[self.pos - 1] == b'"' {
                self.scratch = out;
                return Ok(Text::Scratch);
            }
        }
    }

    /// The four hex digits after a `\u`, which is already consumed.
    fn hex4(&mut self) -> Result<u32, DeError> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| DeError::new("truncated \\u escape"))?;
        self.pos += 4;
        u32::from_str_radix(
            std::str::from_utf8(hex).map_err(|_| DeError::new("invalid \\u escape"))?,
            16,
        )
        .map_err(|_| DeError::new("invalid \\u escape"))
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
}

impl Deserializer for Parser<'_> {
    fn peek(&mut self) -> Result<Kind, DeError> {
        Ok(match self.peek_byte()? {
            b'n' => Kind::Null,
            b't' | b'f' => Kind::Bool,
            b'"' => Kind::Str,
            b'[' => Kind::Array,
            b'{' => Kind::Object,
            b'-' | b'0'..=b'9' => Kind::Number,
            other => {
                return Err(DeError::new(format!(
                    "unexpected character `{}` at offset {}",
                    other as char, self.pos
                )))
            }
        })
    }

    fn parse_null(&mut self) -> Result<(), DeError> {
        self.keyword("null")
    }

    fn parse_bool(&mut self) -> Result<bool, DeError> {
        let value = self.peek_byte()? == b't';
        self.keyword(if value { "true" } else { "false" })?;
        Ok(value)
    }

    /// Parses a number as RFC 8259 writes it:
    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`. One with
    /// neither fraction nor exponent is an integer when it fits `i64` or
    /// `u64`.
    fn parse_number(&mut self) -> Result<Number, DeError> {
        self.skip_ws();
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
            return Err(DeError::new(format!("invalid number `{text}`")));
        }
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Number::I64(n));
            }
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Number::U64(n));
            }
        }
        text.parse::<f64>()
            .map(Number::F64)
            .map_err(|_| DeError::new(format!("invalid number `{text}`")))
    }

    fn parse_str(&mut self) -> Result<&str, DeError> {
        let t = self.string()?;
        Ok(self.text(t))
    }

    fn begin_array(&mut self) -> Result<(), DeError> {
        self.expect(b'[')?;
        self.first = true;
        Ok(())
    }

    fn next_element(&mut self) -> Result<bool, DeError> {
        self.next_item(b']')
    }

    fn begin_object(&mut self) -> Result<(), DeError> {
        self.expect(b'{')?;
        self.first = true;
        Ok(())
    }

    fn next_key(&mut self) -> Result<Option<&str>, DeError> {
        if !self.next_item(b'}')? {
            return Ok(None);
        }
        let key = self.string()?;
        self.expect(b':')?;
        Ok(Some(self.text(key)))
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
        let v = from_str::<Value>(text).unwrap();
        let back = from_str::<Value>(&to_string(&v).unwrap()).unwrap();
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
            assert_eq!(from_str::<Value>(text).ok(), Some(want), "{text}");
        }
        let rejected = [
            "075", "00", "-01", "01.5", "1.", "-.5", "1.e5", "-", "1e", "1e+",
        ];
        for text in rejected {
            assert!(from_str::<Value>(text).is_err(), "{text} accepted");
            assert!(
                from_str::<Value>(&format!("[{text}]")).is_err(),
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
    fn primitives_round_trip() {
        assert_eq!(from_str::<i64>(&to_string(&42i64).unwrap()).unwrap(), 42);
        assert_eq!(
            from_str::<u64>(&to_string(&u64::MAX).unwrap()).unwrap(),
            u64::MAX
        );
        assert_eq!(from_str::<f64>(&to_string(&1.5f64).unwrap()).unwrap(), 1.5);
        assert!(from_str::<bool>(&to_string(&true).unwrap()).unwrap());
        assert_eq!(
            from_str::<String>(&to_string("hi").unwrap()).unwrap(),
            "hi".to_owned()
        );
    }

    #[test]
    fn integral_floats_convert_only_in_range() {
        assert_eq!(from_str::<u64>("4096.0").unwrap(), 4096);
        assert_eq!(from_str::<i8>("-128.0").unwrap(), -128);
        assert_eq!(from_str::<u8>("1e2").unwrap(), 100);
        assert!(from_str::<i8>("300.0").is_err());
        assert!(from_str::<u64>("-1.0").is_err());
        assert!(from_str::<u64>("1e48").is_err());
        assert!(from_str::<i64>("9223372036854775808.0").is_err());
        assert!(from_str::<i64>("9223372036854775808").is_err());
        assert_eq!(from_str::<u64>("9223372036854775808").unwrap(), 1 << 63);
        assert_eq!(
            from_str::<i64>("1.5").unwrap_err().to_string(),
            "expected integer for i64, found number"
        );
        assert_eq!(
            from_str::<u8>("256").unwrap_err().to_string(),
            "integer out of range for u8"
        );
        assert_eq!(from_str::<f64>("7").unwrap().to_bits(), 7f64.to_bits());
        assert!(from_str::<f64>("null").unwrap().is_nan());
    }

    #[test]
    fn options_use_null() {
        assert_eq!(to_string(&Option::<i64>::None).unwrap(), "null");
        assert_eq!(from_str::<Option<i64>>("null").unwrap(), None);
        assert_eq!(from_str::<Option<i64>>(" 3 ").unwrap(), Some(3));
    }

    #[test]
    fn collections_round_trip() {
        let v = vec![1i64, 2, 3];
        assert_eq!(from_str::<Vec<i64>>(&to_string(&v).unwrap()).unwrap(), v);
        let mut m = std::collections::BTreeMap::new();
        m.insert("a".to_owned(), 1.5f64);
        m.insert("b\"".to_owned(), -2.0);
        let json = to_string(&m).unwrap();
        assert_eq!(
            from_str::<std::collections::BTreeMap<String, f64>>(&json).unwrap(),
            m
        );
        let h: std::collections::HashMap<String, f64> = from_str(&json).unwrap();
        assert_eq!(h.len(), 2);
        let t: (u8, String, Vec<bool>) = from_str(r#"[1, "x", [true]]"#).unwrap();
        assert_eq!(t, (1, "x".to_owned(), vec![true]));
        assert_eq!(
            from_str::<(u8, u8)>("[1]").unwrap_err().to_string(),
            "expected 2-tuple, found array of 1"
        );
        assert_eq!(
            from_str::<(u8, u8)>("[1,2,[3],4]").unwrap_err().to_string(),
            "expected 2-tuple, found array of 4"
        );
    }

    #[test]
    fn repeated_map_keys_keep_the_last_value() {
        let m: std::collections::BTreeMap<String, u8> = from_str(r#"{"b":1,"a":2,"b":3}"#).unwrap();
        assert_eq!(
            m.into_iter().collect::<Vec<_>>(),
            [("a".into(), 2), ("b".into(), 3)]
        );
        let h: std::collections::HashMap<String, u8> = from_str(r#"{"b":1,"b":3}"#).unwrap();
        assert_eq!(h["b"], 3);
        // A value tree keeps every pair; lookups find the first.
        let v: Value = from_str(r#"{"b":1,"b":3}"#).unwrap();
        assert_eq!(v.get("b"), Some(&Value::I64(1)));
        assert_eq!(to_string(&v).unwrap(), r#"{"b":1,"b":3}"#);
    }

    #[test]
    fn mismatched_shapes_error() {
        let err = |r: Result<(), Error>| r.unwrap_err().to_string();
        assert_eq!(
            err(from_str::<bool>("1").map(drop)),
            "expected bool, found number"
        );
        assert_eq!(
            err(from_str::<Vec<i64>>(r#""x""#).map(drop)),
            "expected array, found string"
        );
        assert_eq!(
            err(from_str::<String>("[]").map(drop)),
            "expected string, found array"
        );
        assert_eq!(
            err(from_str::<f64>("{}").map(drop)),
            "expected number, found object"
        );
        assert!(from_str::<i64>("1.5").is_err());
    }

    #[test]
    fn containers_need_their_separators() {
        for text in [
            "[1 2]",
            "[,1]",
            "[1,]",
            "[1,,2]",
            "[",
            "[1",
            "{",
            r#"{"a" 1}"#,
            r#"{"a":1 "b":2}"#,
            r#"{,"a":1}"#,
            r#"{"a":1,}"#,
            "{1:2}",
            r#"{"a":}"#,
            r#"{"a":1"#,
            "[[1],[2]",
            "]",
            "}",
        ] {
            assert!(from_str::<Value>(text).is_err(), "{text} accepted");
            assert!(
                from_str::<Vec<Value>>(text).is_err(),
                "{text} accepted as an array"
            );
        }
        let nested: Value =
            from_str(r#" { "a" : [ [] , {} , [ { } ] ] , "b" : { "c" : [ 1 ] } } "#).unwrap();
        assert_eq!(
            to_string(&nested).unwrap(),
            r#"{"a":[[],{},[{}]],"b":{"c":[1]}}"#
        );
    }

    #[test]
    fn unicode_survives() {
        let s = "héllo → wörld ✓".to_owned();
        let json = to_string(&s).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), s);
    }
}
