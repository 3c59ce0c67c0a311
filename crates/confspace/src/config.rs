//! Concrete configurations: assignments of values to named parameters.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::param::ParamValue;

/// A concrete assignment of values to parameters.
///
/// Values are stored in a sorted map so that equal configurations have a
/// canonical representation (useful for hashing/deduplication and for
/// stable test output).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Configuration {
    values: BTreeMap<String, ParamValue>,
}

impl Configuration {
    /// Creates an empty configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `name` to `value`, replacing any previous assignment.
    pub fn set(&mut self, name: &str, value: impl Into<ParamValue>) -> &mut Self {
        self.values.insert(name.to_owned(), value.into());
        self
    }

    /// Builder-style [`set`](Self::set).
    #[must_use]
    pub fn with(mut self, name: &str, value: impl Into<ParamValue>) -> Self {
        self.set(name, value);
        self
    }

    /// Returns the value assigned to `name`, if any.
    pub fn get(&self, name: &str) -> Option<&ParamValue> {
        self.values.get(name)
    }

    /// Integer value of `name`; the panic message names the parameter.
    ///
    /// # Panics
    ///
    /// Panics if the parameter is absent or not an integer. Use
    /// [`get`](Self::get) for fallible access.
    pub fn int(&self, name: &str) -> i64 {
        self.get(name)
            .and_then(ParamValue::as_int)
            .unwrap_or_else(|| panic!("configuration missing int parameter `{name}`"))
    }

    /// Float value of `name` (integers widen to `f64`).
    ///
    /// # Panics
    ///
    /// Panics if the parameter is absent or not numeric.
    pub fn float(&self, name: &str) -> f64 {
        self.get(name)
            .and_then(ParamValue::as_float)
            .unwrap_or_else(|| panic!("configuration missing float parameter `{name}`"))
    }

    /// Boolean value of `name`.
    ///
    /// # Panics
    ///
    /// Panics if the parameter is absent or not a boolean.
    pub fn bool(&self, name: &str) -> bool {
        self.get(name)
            .and_then(ParamValue::as_bool)
            .unwrap_or_else(|| panic!("configuration missing bool parameter `{name}`"))
    }

    /// Categorical value of `name`.
    ///
    /// # Panics
    ///
    /// Panics if the parameter is absent or not categorical.
    pub fn str(&self, name: &str) -> &str {
        self.get(name)
            .and_then(ParamValue::as_str)
            .unwrap_or_else(|| panic!("configuration missing categorical parameter `{name}`"))
    }

    /// Whether the configuration assigns a value to `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// Number of assigned parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no parameters are assigned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ParamValue)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v))
    }
}

impl fmt::Display for Configuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        write!(f, "{{")?;
        for (k, v) in &self.values {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(String, ParamValue)> for Configuration {
    fn from_iter<I: IntoIterator<Item = (String, ParamValue)>>(iter: I) -> Self {
        Configuration {
            values: iter.into_iter().collect(),
        }
    }
}

impl Extend<(String, ParamValue)> for Configuration {
    fn extend<I: IntoIterator<Item = (String, ParamValue)>>(&mut self, iter: I) {
        self.values.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let cfg = Configuration::new()
            .with("a", 3i64)
            .with("b", 0.5)
            .with("c", true)
            .with("d", "kryo");
        assert_eq!(cfg.int("a"), 3);
        assert_eq!(cfg.float("b"), 0.5);
        assert!(cfg.bool("c"));
        assert_eq!(cfg.str("d"), "kryo");
        assert_eq!(cfg.len(), 4);
    }

    #[test]
    fn int_widens_to_float() {
        let cfg = Configuration::new().with("n", 4i64);
        assert_eq!(cfg.float("n"), 4.0);
    }

    #[test]
    #[should_panic(expected = "missing int parameter")]
    fn missing_param_panics_with_name() {
        Configuration::new().int("nope");
    }

    #[test]
    fn display_is_canonical() {
        let cfg = Configuration::new().with("b", 2i64).with("a", 1i64);
        assert_eq!(cfg.to_string(), "{a=1, b=2}");
    }

    #[test]
    fn equality_is_order_independent() {
        let a = Configuration::new().with("x", 1i64).with("y", 2i64);
        let b = Configuration::new().with("y", 2i64).with("x", 1i64);
        assert_eq!(a, b);
    }
}
