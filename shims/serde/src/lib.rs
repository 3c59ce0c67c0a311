//! Offline stand-in for `serde`.
//!
//! The build environment cannot fetch crates.io, so the workspace ships
//! a self-contained replacement for the `serde` surface it uses:
//! `#[derive(Serialize, Deserialize)]` on plain structs and enums, and
//! `serde_json::{to_string, to_string_pretty, from_str}`.
//!
//! Instead of real serde's visitor architecture, this shim routes
//! everything through one intermediate [`Value`] tree (the JSON data
//! model). [`Serialize`] renders into a `Value`; [`Deserialize`] reads
//! back out of one. The derive macro (in the sibling `serde_derive`
//! shim) generates those two impls with serde-compatible conventions:
//! structs as objects, unit enum variants as strings, data-carrying
//! variants as externally-tagged single-key objects.

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
    /// Looks up a key in an object value.
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

/// Reconstructs `Self` from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Parses out of a value tree.
    ///
    /// # Errors
    ///
    /// Returns a [`DeError`] when the value's shape does not match.
    fn from_value(v: &Value) -> Result<Self, DeError>;

    /// Parses out of a value tree the caller gives up, as
    /// `serde_json::from_str` does. [`Value`] moves the tree instead of
    /// copying it; everything else reads it by reference.
    ///
    /// # Errors
    ///
    /// As [`Deserialize::from_value`].
    fn from_owned_value(v: Value) -> Result<Self, DeError> {
        Self::from_value(&v)
    }
}

// --- primitives ---------------------------------------------------------

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::I64(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::I64(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError::new(concat!("integer out of range for ", stringify!($t)))),
                    Value::U64(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError::new(concat!("integer out of range for ", stringify!($t)))),
                    // `as i128` is exact for any integral float a
                    // 64-bit integer can hold and saturates beyond, so
                    // the range check cannot pass a clipped value.
                    Value::F64(n) if n.fract() == 0.0 => <$t>::try_from(*n as i128)
                        .map_err(|_| DeError::new(concat!("integer out of range for ", stringify!($t)))),
                    other => Err(DeError::new(format!(
                        concat!("expected integer for ", stringify!($t), ", found {}"),
                        other.kind()
                    ))),
                }
            }
        }
    )*};
}
impl_serde_int!(i8, i16, i32, i64, isize, u8, u16, u32);

macro_rules! impl_serde_uint_wide {
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
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::I64(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError::new(concat!("integer out of range for ", stringify!($t)))),
                    Value::U64(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError::new(concat!("integer out of range for ", stringify!($t)))),
                    // `as i128` is exact for any integral float a
                    // 64-bit integer can hold and saturates beyond, so
                    // the range check cannot pass a clipped value.
                    Value::F64(n) if n.fract() == 0.0 => <$t>::try_from(*n as i128)
                        .map_err(|_| DeError::new(concat!("integer out of range for ", stringify!($t)))),
                    other => Err(DeError::new(format!(
                        concat!("expected integer for ", stringify!($t), ", found {}"),
                        other.kind()
                    ))),
                }
            }
        }
    )*};
}
impl_serde_uint_wide!(u64, usize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        // JSON has no NaN/Infinity literal; serde_json writes them as
        // null, so accept null back as NaN for round-trips.
        match v {
            Value::Null => Ok(f64::NAN),
            _ => v
                .as_f64()
                .ok_or_else(|| DeError::new(format!("expected number, found {}", v.kind()))),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        f64::from_value(v).map(|x| x as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::new(format!(
                "expected bool, found {}",
                other.kind()
            ))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::new(format!(
                "expected string, found {}",
                other.kind()
            ))),
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
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(Box::new)
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
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::new(format!(
                "expected array, found {}",
                other.kind()
            ))),
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
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Object(pairs) => pairs
                .iter()
                .map(|(k, v)| V::from_value(v).map(|v| (k.clone(), v)))
                .collect(),
            other => Err(DeError::new(format!(
                "expected object, found {}",
                other.kind()
            ))),
        }
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
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Object(pairs) => pairs
                .iter()
                .map(|(k, v)| V::from_value(v).map(|v| (k.clone(), v)))
                .collect(),
            other => Err(DeError::new(format!(
                "expected object, found {}",
                other.kind()
            ))),
        }
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
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Array(items) => {
                        let expected = [$(stringify!($idx)),+].len();
                        if items.len() != expected {
                            return Err(DeError::new(format!(
                                "expected {}-tuple, found array of {}", expected, items.len()
                            )));
                        }
                        Ok(($($t::from_value(&items[$idx])?,)+))
                    }
                    other => Err(DeError::new(format!("expected array, found {}", other.kind()))),
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
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(()),
            other => Err(DeError::new(format!(
                "expected null, found {}",
                other.kind()
            ))),
        }
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }

    fn from_owned_value(v: Value) -> Result<Self, DeError> {
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(i64::from_value(&42i64.to_value()).unwrap(), 42);
        assert_eq!(u64::from_value(&u64::MAX.to_value()).unwrap(), u64::MAX);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(
            String::from_value(&"hi".to_value()).unwrap(),
            "hi".to_owned()
        );
    }

    #[test]
    fn integral_floats_convert_only_in_range() {
        assert_eq!(u64::from_value(&Value::F64(4096.0)).unwrap(), 4096);
        assert_eq!(i8::from_value(&Value::F64(-128.0)).unwrap(), -128);
        assert!(i8::from_value(&Value::F64(300.0)).is_err());
        assert!(u64::from_value(&Value::F64(-1.0)).is_err());
        assert!(u64::from_value(&Value::F64(1e48)).is_err());
        assert!(i64::from_value(&Value::F64(2f64.powi(63))).is_err());
    }

    #[test]
    fn options_use_null() {
        assert_eq!(Option::<i64>::None.to_value(), Value::Null);
        assert_eq!(Option::<i64>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(Some(3i64).to_value(), Value::I64(3));
    }

    #[test]
    fn collections_round_trip() {
        let v = vec![1i64, 2, 3];
        assert_eq!(Vec::<i64>::from_value(&v.to_value()).unwrap(), v);
        let mut m = BTreeMap::new();
        m.insert("a".to_owned(), 1.5f64);
        assert_eq!(
            BTreeMap::<String, f64>::from_value(&m.to_value()).unwrap(),
            m
        );
    }

    #[test]
    fn mismatched_shapes_error() {
        assert!(bool::from_value(&Value::I64(1)).is_err());
        assert!(Vec::<i64>::from_value(&Value::Str("x".into())).is_err());
        assert!(i64::from_value(&Value::F64(1.5)).is_err());
    }
}
