//! Typed definitions of individual tunable parameters.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::ConfigError;

/// A concrete value assigned to a parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ParamValue {
    /// Integer-valued parameter (e.g. executor count).
    Int(i64),
    /// Continuous parameter (e.g. memory fraction).
    Float(f64),
    /// Boolean switch (e.g. shuffle compression).
    Bool(bool),
    /// Categorical choice (e.g. serializer name).
    Str(String),
}

impl ParamValue {
    /// Returns the integer payload, if this is an [`ParamValue::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            ParamValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the float payload; integers are widened to `f64`.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            ParamValue::Float(v) => Some(*v),
            ParamValue::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Returns the boolean payload, if this is a [`ParamValue::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            ParamValue::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a [`ParamValue::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ParamValue::Str(v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Int(v) => write!(f, "{v}"),
            ParamValue::Float(v) => write!(f, "{v}"),
            ParamValue::Bool(v) => write!(f, "{v}"),
            ParamValue::Str(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for ParamValue {
    fn from(v: i64) -> Self {
        ParamValue::Int(v)
    }
}

impl From<f64> for ParamValue {
    fn from(v: f64) -> Self {
        ParamValue::Float(v)
    }
}

impl From<bool> for ParamValue {
    fn from(v: bool) -> Self {
        ParamValue::Bool(v)
    }
}

impl From<&str> for ParamValue {
    fn from(v: &str) -> Self {
        ParamValue::Str(v.to_owned())
    }
}

impl From<String> for ParamValue {
    fn from(v: String) -> Self {
        ParamValue::Str(v)
    }
}

/// The domain of a parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ParamKind {
    /// Inclusive integer range with an optional step (`step >= 1`).
    Int {
        /// Lower bound (inclusive).
        lo: i64,
        /// Upper bound (inclusive).
        hi: i64,
        /// Step between admissible values; 1 admits every integer.
        step: i64,
    },
    /// Continuous range. When `log` is set, sampling and encoding are
    /// performed in log-space (suitable for scale-like parameters).
    Float {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (inclusive).
        hi: f64,
        /// Sample/encode in log-space.
        log: bool,
    },
    /// Boolean switch.
    Bool,
    /// A finite set of named choices.
    Categorical {
        /// Admissible choices, in canonical order.
        choices: Vec<String>,
    },
}

impl ParamKind {
    /// Number of admissible values for discrete kinds; `None` for floats.
    pub fn cardinality(&self) -> Option<u64> {
        match self {
            ParamKind::Int { lo, hi, step } => Some(((hi - lo) / step) as u64 + 1),
            ParamKind::Float { .. } => None,
            ParamKind::Bool => Some(2),
            ParamKind::Categorical { choices } => Some(choices.len() as u64),
        }
    }
}

/// The definition of a single tunable parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParamDef {
    /// Unique name within a [`crate::ParamSpace`] (dotted Spark-style names).
    pub name: String,
    /// The parameter's domain.
    pub kind: ParamKind,
    /// Default value (what an untuned deployment would use).
    pub default: ParamValue,
    /// One-line human description.
    pub description: String,
}

impl ParamDef {
    /// Asserts that the default is admissible ([`ParamDef::check`]), so
    /// a space's default configuration always validates.
    fn with_admissible_default(self) -> Self {
        if let Err(e) = self.check(&self.default) {
            panic!("param `{}`: default is not admissible: {e}", self.name);
        }
        self
    }

    /// Creates an integer-range parameter.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `default` is outside `[lo, hi]`.
    pub fn int(name: &str, lo: i64, hi: i64, default: i64, description: &str) -> Self {
        assert!(lo <= hi, "int param `{name}`: lo > hi");
        ParamDef {
            name: name.to_owned(),
            kind: ParamKind::Int { lo, hi, step: 1 },
            default: ParamValue::Int(default),
            description: description.to_owned(),
        }
        .with_admissible_default()
    }

    /// Creates an integer-range parameter with a step.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`, `step < 1`, or `default` is outside
    /// `[lo, hi]` or off the grid `lo + k·step`.
    pub fn int_step(
        name: &str,
        lo: i64,
        hi: i64,
        step: i64,
        default: i64,
        description: &str,
    ) -> Self {
        assert!(lo <= hi && step >= 1, "bad int-step param `{name}`");
        ParamDef {
            name: name.to_owned(),
            kind: ParamKind::Int { lo, hi, step },
            default: ParamValue::Int(default),
            description: description.to_owned(),
        }
        .with_admissible_default()
    }

    /// Creates a continuous parameter.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `default` is not a finite value in
    /// `[lo, hi]`.
    pub fn float(name: &str, lo: f64, hi: f64, default: f64, description: &str) -> Self {
        assert!(lo <= hi, "float param `{name}`: lo > hi");
        ParamDef {
            name: name.to_owned(),
            kind: ParamKind::Float { lo, hi, log: false },
            default: ParamValue::Float(default),
            description: description.to_owned(),
        }
        .with_admissible_default()
    }

    /// Creates a continuous parameter sampled in log-space.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < lo <= hi` and `default` is a finite value in
    /// `[lo, hi]`.
    pub fn log_float(name: &str, lo: f64, hi: f64, default: f64, description: &str) -> Self {
        assert!(0.0 < lo && lo <= hi, "log-float param `{name}`: bad range");
        ParamDef {
            name: name.to_owned(),
            kind: ParamKind::Float { lo, hi, log: true },
            default: ParamValue::Float(default),
            description: description.to_owned(),
        }
        .with_admissible_default()
    }

    /// Creates a boolean parameter.
    pub fn boolean(name: &str, default: bool, description: &str) -> Self {
        ParamDef {
            name: name.to_owned(),
            kind: ParamKind::Bool,
            default: ParamValue::Bool(default),
            description: description.to_owned(),
        }
    }

    /// Creates a categorical parameter. The default must be one of the
    /// choices.
    ///
    /// # Panics
    ///
    /// Panics if `default` is not a choice or a choice is listed twice
    /// (encoding maps a value to its first match, so a duplicate could
    /// not round-trip).
    pub fn categorical(name: &str, choices: &[&str], default: &str, description: &str) -> Self {
        assert!(
            choices.contains(&default),
            "categorical param `{name}`: default not in choices"
        );
        for (i, c) in choices.iter().enumerate() {
            assert!(
                !choices[..i].contains(c),
                "categorical param `{name}`: duplicate choice `{c}`"
            );
        }
        ParamDef {
            name: name.to_owned(),
            kind: ParamKind::Categorical {
                choices: choices.iter().map(|c| (*c).to_owned()).collect(),
            },
            default: ParamValue::Str(default.to_owned()),
            description: description.to_owned(),
        }
    }

    /// Checks that `value` is admissible for this parameter.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::TypeMismatch`] when the value has the wrong
    /// kind and [`ConfigError::OutOfRange`] when it is outside the domain.
    pub fn check(&self, value: &ParamValue) -> Result<(), ConfigError> {
        match (&self.kind, value) {
            (ParamKind::Int { lo, hi, step }, ParamValue::Int(v)) => {
                if v < lo || v > hi || (v - lo) % step != 0 {
                    Err(ConfigError::OutOfRange {
                        param: self.name.clone(),
                        value: v.to_string(),
                    })
                } else {
                    Ok(())
                }
            }
            (ParamKind::Float { lo, hi, .. }, ParamValue::Float(v)) => {
                if !v.is_finite() || v < lo || v > hi {
                    Err(ConfigError::OutOfRange {
                        param: self.name.clone(),
                        value: v.to_string(),
                    })
                } else {
                    Ok(())
                }
            }
            (ParamKind::Bool, ParamValue::Bool(_)) => Ok(()),
            (ParamKind::Categorical { choices }, ParamValue::Str(v)) => {
                if choices.iter().any(|c| c == v) {
                    Ok(())
                } else {
                    Err(ConfigError::OutOfRange {
                        param: self.name.clone(),
                        value: v.clone(),
                    })
                }
            }
            (kind, _) => Err(ConfigError::TypeMismatch {
                param: self.name.clone(),
                expected: match kind {
                    ParamKind::Int { .. } => "int",
                    ParamKind::Float { .. } => "float",
                    ParamKind::Bool => "bool",
                    ParamKind::Categorical { .. } => "categorical",
                },
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_check_accepts_in_range() {
        let p = ParamDef::int("x", 1, 10, 5, "test");
        assert!(p.check(&ParamValue::Int(1)).is_ok());
        assert!(p.check(&ParamValue::Int(10)).is_ok());
        assert!(p.check(&ParamValue::Int(0)).is_err());
        assert!(p.check(&ParamValue::Int(11)).is_err());
    }

    #[test]
    fn int_step_respects_step() {
        let p = ParamDef::int_step("x", 0, 100, 10, 0, "test");
        assert!(p.check(&ParamValue::Int(30)).is_ok());
        assert!(p.check(&ParamValue::Int(35)).is_err());
    }

    #[test]
    fn float_check_rejects_nan() {
        let p = ParamDef::float("f", 0.0, 1.0, 0.5, "test");
        assert!(p.check(&ParamValue::Float(f64::NAN)).is_err());
        assert!(p.check(&ParamValue::Float(0.5)).is_ok());
    }

    #[test]
    fn categorical_check() {
        let p = ParamDef::categorical("c", &["a", "b"], "a", "test");
        assert!(p.check(&ParamValue::Str("b".into())).is_ok());
        assert!(p.check(&ParamValue::Str("z".into())).is_err());
    }

    #[test]
    fn type_mismatch_is_reported() {
        let p = ParamDef::boolean("b", true, "test");
        let err = p.check(&ParamValue::Int(1)).unwrap_err();
        assert!(matches!(err, ConfigError::TypeMismatch { .. }));
    }

    #[test]
    fn cardinality() {
        assert_eq!(
            ParamKind::Int {
                lo: 1,
                hi: 10,
                step: 1
            }
            .cardinality(),
            Some(10)
        );
        assert_eq!(
            ParamKind::Int {
                lo: 0,
                hi: 100,
                step: 10
            }
            .cardinality(),
            Some(11)
        );
        assert_eq!(ParamKind::Bool.cardinality(), Some(2));
        assert_eq!(
            ParamKind::Float {
                lo: 0.0,
                hi: 1.0,
                log: false
            }
            .cardinality(),
            None
        );
    }

    #[test]
    fn value_accessors() {
        assert_eq!(ParamValue::Int(3).as_int(), Some(3));
        assert_eq!(ParamValue::Int(3).as_float(), Some(3.0));
        assert_eq!(ParamValue::Float(0.5).as_float(), Some(0.5));
        assert_eq!(ParamValue::Bool(true).as_bool(), Some(true));
        assert_eq!(ParamValue::Str("x".into()).as_str(), Some("x"));
        assert_eq!(ParamValue::Bool(true).as_int(), None);
    }

    #[test]
    #[should_panic(expected = "default is not admissible")]
    fn int_default_below_range_panics() {
        let _ = ParamDef::int("x", 1, 10, 0, "");
    }

    #[test]
    #[should_panic(expected = "default is not admissible")]
    fn int_default_above_range_panics() {
        let _ = ParamDef::int("x", 1, 10, 11, "");
    }

    #[test]
    #[should_panic(expected = "default is not admissible")]
    fn int_step_default_off_grid_panics() {
        let _ = ParamDef::int_step("x", 0, 100, 10, 35, "");
    }

    #[test]
    #[should_panic(expected = "default is not admissible")]
    fn float_default_outside_range_panics() {
        let _ = ParamDef::float("f", 0.0, 1.0, 1.5, "");
    }

    #[test]
    #[should_panic(expected = "default is not admissible")]
    fn float_nan_default_panics() {
        let _ = ParamDef::float("f", 0.0, 1.0, f64::NAN, "");
    }

    #[test]
    #[should_panic(expected = "default is not admissible")]
    fn log_float_default_outside_range_panics() {
        let _ = ParamDef::log_float("g", 1.0, 100.0, 0.5, "");
    }

    #[test]
    #[should_panic(expected = "duplicate choice `a`")]
    fn duplicate_categorical_choice_panics() {
        let _ = ParamDef::categorical("c", &["a", "b", "a"], "b", "");
    }

    #[test]
    fn defaults_on_the_bounds_and_grid_are_accepted() {
        let _ = ParamDef::int("x", 1, 10, 10, "");
        let _ = ParamDef::int_step("x", 0, 100, 25, 75, "");
        let _ = ParamDef::float("f", 0.0, 1.0, 0.0, "");
        let _ = ParamDef::log_float("g", 1.0, 100.0, 100.0, "");
    }

    #[test]
    fn display_is_nonempty() {
        for v in [
            ParamValue::Int(1),
            ParamValue::Float(1.5),
            ParamValue::Bool(false),
            ParamValue::Str("kryo".into()),
        ] {
            assert!(!v.to_string().is_empty());
        }
    }
}
