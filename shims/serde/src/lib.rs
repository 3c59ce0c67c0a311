//! Offline stand-in for `serde`.
//!
//! The build environment cannot fetch crates.io, so the workspace ships
//! a self-contained replacement for the `serde` surface it uses:
//! `#[derive(Serialize, Deserialize)]` on plain structs and enums, and
//! `serde_json::{to_string, to_string_pretty, from_str}`.
//!
//! The two directions are built differently:
//!
//! * [`Serialize`] renders into a [`Value`] tree (the JSON data model),
//!   which `serde_json` writes out as text.
//! * [`Deserialize`] streams. A [`Deserializer`] (`serde_json`'s
//!   parser) hands out one JSON token at a time, and each type reads
//!   its own tokens straight off it, so a typed read builds no
//!   intermediate tree and copies a string without escapes once,
//!   straight out of the input. [`Value`] is one more `Deserialize`
//!   type, for callers that want the tree itself.
//!
//! The derive macro (in the sibling `serde_derive` shim) generates both
//! impls with serde-compatible conventions: structs as objects, unit
//! enum variants as strings, data-carrying variants as
//! externally-tagged single-key objects. A struct field whose key is
//! absent reads as if it held `null`; an unknown key is skipped (its
//! value must still be well-formed JSON); a repeated key keeps its
//! first value.

use std::collections::{BTreeMap, HashMap};

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// The intermediate JSON data model.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Signed integer.
    I64(i64),
    /// Unsigned integer above `i64::MAX`.
    U64(u64),
    /// Floating-point number.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object value (the first, if repeated).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric payload as `f64`, when this is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::I64(v) => Some(*v as f64),
            Value::U64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The number as `u64`, when it is a non-negative integer, or an
    /// integral float in range — what reading a `u64` accepts.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::I64(v) => integer(Number::I64(*v)),
            Value::U64(v) => integer(Number::U64(*v)),
            Value::F64(v) => integer(Number::F64(*v)),
            _ => None,
        }
    }

    /// One-word description used in error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::I64(_) | Value::U64(_) | Value::F64(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError {
    msg: String,
}

impl DeError {
    /// Creates an error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        DeError { msg: msg.into() }
    }

    /// "expected `what`, found `found`": the next value is of the wrong
    /// kind.
    pub fn expected(what: &str, found: Kind) -> Self {
        DeError::new(format!("expected {what}, found {}", found.name()))
    }

    /// Prefixes location context (e.g. a field path) onto the message.
    pub fn ctx(self, location: &str) -> Self {
        DeError {
            msg: format!("{location}: {}", self.msg),
        }
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for DeError {}

/// Renders `self` into the [`Value`] data model.
pub trait Serialize {
    /// The value-tree representation of `self`.
    fn to_value(&self) -> Value;
}

/// The kind of the next JSON value, as its first byte tells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`
    Null,
    /// `true` or `false`
    Bool,
    /// A number.
    Number,
    /// A string.
    Str,
    /// An array.
    Array,
    /// An object.
    Object,
}

impl Kind {
    /// One-word description used in error messages (as [`Value::kind`]).
    pub fn name(self) -> &'static str {
        match self {
            Kind::Null => "null",
            Kind::Bool => "bool",
            Kind::Number => "number",
            Kind::Str => "string",
            Kind::Array => "array",
            Kind::Object => "object",
        }
    }
}

/// A JSON number as written: an integer literal that fits `i64` or
/// `u64`, or else a float.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// An integer literal within `i64`.
    I64(i64),
    /// An integer literal above `i64::MAX` within `u64`.
    U64(u64),
    /// Any other number.
    F64(f64),
}

/// A pull parser over one JSON document: it yields the document's
/// values one token at a time, and a [`Deserialize`] impl reads exactly
/// the tokens of one value.
///
/// Each `parse_*`/`begin_*` method consumes the next value, or opens
/// it, and fails if the value is malformed or of another [`Kind`];
/// impls call [`peek`](Deserializer::peek) first to report a mismatch
/// in their own terms. A container is read by its `begin_*` call, then
/// one `next_element`/`next_key` call before each item and a last one
/// that consumes the close. Every method fails at the end of input and
/// on malformed JSON.
pub trait Deserializer {
    /// The kind of the next value, without consuming it.
    fn peek(&mut self) -> Result<Kind, DeError>;

    /// Consumes a `null`.
    fn parse_null(&mut self) -> Result<(), DeError>;

    /// Consumes a `true` or `false`.
    fn parse_bool(&mut self) -> Result<bool, DeError>;

    /// Consumes a number.
    fn parse_number(&mut self) -> Result<Number, DeError>;

    /// Consumes a string and lends out its unescaped text.
    fn parse_str(&mut self) -> Result<&str, DeError>;

    /// Opens an array.
    fn begin_array(&mut self) -> Result<(), DeError>;

    /// Whether another element of the open array follows; `false`
    /// consumes the closing `]`.
    fn next_element(&mut self) -> Result<bool, DeError>;

    /// Opens an object.
    fn begin_object(&mut self) -> Result<(), DeError>;

    /// The next key of the open object, with its `:` consumed so its
    /// value comes next; `None` consumes the closing `}`.
    fn next_key(&mut self) -> Result<Option<&str>, DeError>;

    /// Consumes the next value whatever it is, still checking that it
    /// is well-formed.
    fn skip_value(&mut self) -> Result<(), DeError> {
        match self.peek()? {
            Kind::Null => self.parse_null(),
            Kind::Bool => self.parse_bool().map(drop),
            Kind::Number => self.parse_number().map(drop),
            Kind::Str => self.parse_str().map(drop),
            Kind::Array => {
                self.begin_array()?;
                while self.next_element()? {
                    self.skip_value()?;
                }
                Ok(())
            }
            Kind::Object => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
        }
    }
}

/// The [`Deserializer`] of an absent struct field: it holds a single
/// `null`, so a missing key reads as `null` does (`None` for an option,
/// NaN for a float, an error for a string).
#[derive(Debug)]
pub struct Absent;

impl Absent {
    fn mismatch(what: &str) -> DeError {
        DeError::expected(what, Kind::Null)
    }
}

impl Deserializer for Absent {
    fn peek(&mut self) -> Result<Kind, DeError> {
        Ok(Kind::Null)
    }

    fn parse_null(&mut self) -> Result<(), DeError> {
        Ok(())
    }

    fn parse_bool(&mut self) -> Result<bool, DeError> {
        Err(Absent::mismatch("bool"))
    }

    fn parse_number(&mut self) -> Result<Number, DeError> {
        Err(Absent::mismatch("number"))
    }

    fn parse_str(&mut self) -> Result<&str, DeError> {
        Err(Absent::mismatch("string"))
    }

    fn begin_array(&mut self) -> Result<(), DeError> {
        Err(Absent::mismatch("array"))
    }

    fn next_element(&mut self) -> Result<bool, DeError> {
        Err(Absent::mismatch("array"))
    }

    fn begin_object(&mut self) -> Result<(), DeError> {
        Err(Absent::mismatch("object"))
    }

    fn next_key(&mut self) -> Result<Option<&str>, DeError> {
        Err(Absent::mismatch("object"))
    }
}

/// Reads `Self` off a [`Deserializer`].
pub trait Deserialize: Sized {
    /// Reads one value, consuming exactly its tokens.
    ///
    /// # Errors
    ///
    /// Returns a [`DeError`] when the input is malformed or its shape
    /// does not match `Self`.
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError>;
}

// --- primitives ---------------------------------------------------------

/// The integer a number denotes in `T`: an integer literal, or an
/// integral float, within `T`'s range. `as i128` is exact for any
/// integral float a 64-bit integer can hold and saturates beyond, so
/// the range check cannot pass a clipped value.
fn integer<T>(n: Number) -> Option<T>
where
    T: TryFrom<i64> + TryFrom<u64> + TryFrom<i128>,
{
    match n {
        Number::I64(n) => T::try_from(n).ok(),
        Number::U64(n) => T::try_from(n).ok(),
        Number::F64(n) if n.fract() == 0.0 => T::try_from(n as i128).ok(),
        Number::F64(_) => None,
    }
}

macro_rules! impl_deserialize_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError> {
                match d.peek()? {
                    Kind::Number => match d.parse_number()? {
                        Number::F64(n) if n.fract() != 0.0 => Err(DeError::expected(
                            concat!("integer for ", stringify!($t)),
                            Kind::Number,
                        )),
                        n => integer(n).ok_or_else(|| {
                            DeError::new(concat!("integer out of range for ", stringify!($t)))
                        }),
                    },
                    other => Err(DeError::expected(concat!("integer for ", stringify!($t)), other)),
                }
            }
        }
    )*};
}
impl_deserialize_int!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

macro_rules! impl_serialize_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::I64(*self as i64)
            }
        }
    )*};
}
impl_serialize_int!(i8, i16, i32, i64, isize, u8, u16, u32);

macro_rules! impl_serialize_uint_wide {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                if let Ok(n) = i64::try_from(*self) {
                    Value::I64(n)
                } else {
                    Value::U64(*self as u64)
                }
            }
        }
    )*};
}
impl_serialize_uint_wide!(u64, usize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError> {
        // JSON has no NaN/Infinity literal; serde_json writes them as
        // null, so accept null back as NaN for round-trips.
        match d.peek()? {
            Kind::Null => d.parse_null().map(|()| f64::NAN),
            Kind::Number => Ok(match d.parse_number()? {
                Number::I64(n) => n as f64,
                Number::U64(n) => n as f64,
                Number::F64(n) => n,
            }),
            other => Err(DeError::expected("number", other)),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError> {
        f64::deserialize(d).map(|x| x as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError> {
        match d.peek()? {
            Kind::Bool => d.parse_bool(),
            other => Err(DeError::expected("bool", other)),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError> {
        match d.peek()? {
            Kind::Str => d.parse_str().map(str::to_owned),
            other => Err(DeError::expected("string", other)),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

// --- containers ---------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError> {
        T::deserialize(d).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError> {
        match d.peek()? {
            Kind::Null => d.parse_null().map(|()| None),
            _ => T::deserialize(d).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError> {
        match d.peek()? {
            Kind::Array => {
                d.begin_array()?;
                let mut items = Vec::new();
                while d.next_element()? {
                    items.push(T::deserialize(d)?);
                }
                Ok(items)
            }
            other => Err(DeError::expected("array", other)),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

/// Reads an object's entries in input order, repeats included.
fn entries<D: Deserializer, V: Deserialize>(d: &mut D) -> Result<Vec<(String, V)>, DeError> {
    match d.peek()? {
        Kind::Object => {
            d.begin_object()?;
            let mut pairs = Vec::new();
            while let Some(key) = d.next_key()? {
                let key = key.to_owned();
                pairs.push((key, V::deserialize(d)?));
            }
            Ok(pairs)
        }
        other => Err(DeError::expected("object", other)),
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    /// Builds the map in one bulk pass; a repeated key keeps its last
    /// value.
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError> {
        entries(d).map(BTreeMap::from_iter)
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_value(&self) -> Value {
        // Sort keys for deterministic output, matching BTreeMap.
        let mut pairs: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.clone(), v.to_value()))
            .collect();
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(pairs)
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    /// A repeated key keeps its last value.
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError> {
        entries(d).map(HashMap::from_iter)
    }
}

macro_rules! impl_serde_tuple {
    ($(($($t:ident . $idx:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize<Src: Deserializer>(d: &mut Src) -> Result<Self, DeError> {
                let expected = [$(stringify!($idx)),+].len();
                let wrong_length = |found: usize| DeError::new(format!(
                    "expected {expected}-tuple, found array of {found}"
                ));
                match d.peek()? {
                    Kind::Array => {
                        d.begin_array()?;
                        let tuple = ($(
                            if d.next_element()? {
                                $t::deserialize(d)?
                            } else {
                                return Err(wrong_length($idx));
                            },
                        )+);
                        let mut found = expected;
                        while d.next_element()? {
                            d.skip_value()?;
                            found += 1;
                        }
                        if found == expected {
                            Ok(tuple)
                        } else {
                            Err(wrong_length(found))
                        }
                    }
                    other => Err(DeError::expected("array", other)),
                }
            }
        }
    )*};
}
impl_serde_tuple! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl Deserialize for () {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError> {
        match d.peek()? {
            Kind::Null => d.parse_null(),
            other => Err(DeError::expected("null", other)),
        }
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError> {
        Ok(match d.peek()? {
            Kind::Null => {
                d.parse_null()?;
                Value::Null
            }
            Kind::Bool => Value::Bool(d.parse_bool()?),
            Kind::Number => match d.parse_number()? {
                Number::I64(n) => Value::I64(n),
                Number::U64(n) => Value::U64(n),
                Number::F64(n) => Value::F64(n),
            },
            Kind::Str => Value::Str(d.parse_str()?.to_owned()),
            Kind::Array => Value::Array(Vec::deserialize(d)?),
            Kind::Object => Value::Object(entries(d)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads `T` out of [`Absent`]: what a missing struct field gives.
    fn absent<T: Deserialize>() -> Result<T, DeError> {
        T::deserialize(&mut Absent)
    }

    #[test]
    fn primitives_render_as_json_values() {
        assert_eq!(42i64.to_value(), Value::I64(42));
        assert_eq!(u64::MAX.to_value(), Value::U64(u64::MAX));
        assert_eq!(1.5f64.to_value(), Value::F64(1.5));
        assert_eq!(true.to_value(), Value::Bool(true));
        assert_eq!("hi".to_value(), Value::Str("hi".to_owned()));
        assert_eq!(Option::<i64>::None.to_value(), Value::Null);
        assert_eq!(Some(3i64).to_value(), Value::I64(3));
    }

    #[test]
    fn absent_fields_read_as_null() {
        assert_eq!(absent::<Option<i64>>(), Ok(None));
        assert!(absent::<f64>().expect("NaN").is_nan());
        assert_eq!(absent::<()>(), Ok(()));
        assert_eq!(absent::<Value>(), Ok(Value::Null));
        let err = |r: Result<(), DeError>| r.unwrap_err().to_string();
        assert_eq!(
            err(absent::<String>().map(drop)),
            "expected string, found null"
        );
        assert_eq!(
            err(absent::<u8>().map(drop)),
            "expected integer for u8, found null"
        );
        assert_eq!(
            err(absent::<Vec<bool>>().map(drop)),
            "expected array, found null"
        );
        assert_eq!(
            err(absent::<BTreeMap<String, f64>>().map(drop)),
            "expected object, found null"
        );
        assert_eq!(Absent.skip_value(), Ok(()));
    }

    #[test]
    fn as_u64_accepts_what_a_u64_read_accepts() {
        assert_eq!(Value::I64(7).as_u64(), Some(7));
        assert_eq!(Value::U64(u64::MAX).as_u64(), Some(u64::MAX));
        assert_eq!(Value::F64(4096.0).as_u64(), Some(4096));
        for rejected in [
            Value::I64(-1),
            Value::F64(-1.0),
            Value::F64(1.5),
            Value::F64(1e48),
            Value::Null,
            Value::Str("7".to_owned()),
        ] {
            assert_eq!(rejected.as_u64(), None, "{rejected:?}");
        }
    }
}
