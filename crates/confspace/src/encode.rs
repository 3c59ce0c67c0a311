//! Encoding configurations as normalized feature vectors.
//!
//! Every parameter maps to exactly one dimension in `[0, 1]`:
//!
//! * integer/float ranges scale linearly (or logarithmically when the
//!   parameter was declared with [`ParamDef::log_float`]);
//! * booleans map to `{0, 1}`;
//! * categoricals map to their choice index scaled to `[0, 1]` (ordinal
//!   encoding — adequate for tree models and for Matérn-kernel GPs over
//!   the small categorical domains used here).
//!
//! Decoding rounds to the nearest admissible value, so
//! `decode(encode(cfg)) == clamp(cfg)` for any valid `cfg`.
//!
//! [`ParamDef::log_float`]: crate::param::ParamDef::log_float

use crate::config::Configuration;
use crate::param::{ParamKind, ParamValue};
use crate::space::ParamSpace;

impl ParamSpace {
    /// Encodes `cfg` into a `len()`-dimensional vector in `[0, 1]^d`.
    ///
    /// Missing parameters encode as their default; out-of-range values
    /// are clamped.
    pub fn encode(&self, cfg: &Configuration) -> Vec<f64> {
        self.params()
            .iter()
            .map(|p| {
                let v = cfg.get(&p.name).unwrap_or(&p.default);
                encode_value(&p.kind, v)
            })
            .collect()
    }

    /// The row form of [`encode`](Self::encode): bit-equal to
    /// `encode(&config_of_row(row))`.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from [`ParamSpace::len`].
    pub fn encode_row(&self, row: &[ParamValue]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len());
        self.encode_row_into(row, &mut out);
        out
    }

    /// [`encode_row`](Self::encode_row) into a caller-owned buffer,
    /// replacing its contents: scans that encode a pool of candidates
    /// every round keep one buffer per row instead of allocating.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from [`ParamSpace::len`].
    pub fn encode_row_into(&self, row: &[ParamValue], out: &mut Vec<f64>) {
        assert_eq!(
            row.len(),
            self.len(),
            "row has wrong dimension: {} != {}",
            row.len(),
            self.len()
        );
        out.clear();
        out.extend(
            self.params()
                .iter()
                .zip(row)
                .map(|(p, v)| encode_value(&p.kind, v)),
        );
    }

    /// Decodes a feature vector into a valid configuration, rounding each
    /// coordinate to the nearest admissible value. Coordinates outside
    /// `[0, 1]` are clamped.
    ///
    /// # Panics
    ///
    /// Panics if `v.len()` differs from [`ParamSpace::len`].
    pub fn decode(&self, v: &[f64]) -> Configuration {
        self.config_of_row(self.decode_row(v))
    }

    /// The row form of [`decode`](Self::decode).
    ///
    /// # Panics
    ///
    /// Panics if `v.len()` differs from [`ParamSpace::len`].
    pub fn decode_row(&self, v: &[f64]) -> Vec<ParamValue> {
        assert_eq!(
            v.len(),
            self.len(),
            "feature vector has wrong dimension: {} != {}",
            v.len(),
            self.len()
        );
        self.params()
            .iter()
            .zip(v)
            .map(|(p, &x)| decode_value(&p.kind, x.clamp(0.0, 1.0)))
            .collect()
    }
}

fn encode_value(kind: &ParamKind, v: &ParamValue) -> f64 {
    match kind {
        ParamKind::Int { lo, hi, .. } => {
            if hi == lo {
                return 0.0;
            }
            let x = v.as_int().unwrap_or(*lo).clamp(*lo, *hi);
            (x - lo) as f64 / (hi - lo) as f64
        }
        ParamKind::Float { lo, hi, log } => {
            let x = v.as_float().unwrap_or(*lo).clamp(*lo, *hi);
            if *log {
                let (llo, lhi) = (lo.ln(), hi.ln());
                if lhi == llo {
                    0.0
                } else {
                    (x.ln() - llo) / (lhi - llo)
                }
            } else if hi == lo {
                0.0
            } else {
                (x - lo) / (hi - lo)
            }
        }
        ParamKind::Bool => {
            if v.as_bool().unwrap_or(false) {
                1.0
            } else {
                0.0
            }
        }
        ParamKind::Categorical { choices } => {
            if choices.len() <= 1 {
                return 0.0;
            }
            let idx = v
                .as_str()
                .and_then(|s| choices.iter().position(|c| c == s))
                .unwrap_or(0);
            idx as f64 / (choices.len() - 1) as f64
        }
    }
}

fn decode_value(kind: &ParamKind, x: f64) -> ParamValue {
    match kind {
        ParamKind::Int { lo, hi, step } => {
            let raw = *lo as f64 + x * (hi - lo) as f64;
            let steps = ((raw - *lo as f64) / *step as f64).round() as i64;
            let v = (lo + steps * step).clamp(*lo, *hi);
            ParamValue::Int(v)
        }
        ParamKind::Float { lo, hi, log } => {
            let v = if *log {
                (lo.ln() + x * (hi.ln() - lo.ln())).exp()
            } else {
                lo + x * (hi - lo)
            };
            ParamValue::Float(v.clamp(*lo, *hi))
        }
        ParamKind::Bool => ParamValue::Bool(x >= 0.5),
        ParamKind::Categorical { choices } => {
            let idx = if choices.len() <= 1 {
                0
            } else {
                (x * (choices.len() - 1) as f64).round() as usize
            };
            ParamValue::Str(choices[idx.min(choices.len() - 1)].clone())
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::param::ParamDef;
    use crate::space::ParamSpace;
    use crate::Configuration;

    fn space() -> ParamSpace {
        ParamSpace::new()
            .with(ParamDef::int("n", 1, 9, 5, ""))
            .with(ParamDef::float("f", 0.0, 2.0, 1.0, ""))
            .with(ParamDef::log_float("g", 1.0, 100.0, 10.0, ""))
            .with(ParamDef::boolean("b", false, ""))
            .with(ParamDef::categorical("c", &["a", "b", "c"], "a", ""))
    }

    #[test]
    fn roundtrip_exact_for_valid_config() {
        let s = space();
        let cfg = Configuration::new()
            .with("n", 7i64)
            .with("f", 1.5)
            .with("g", 10.0)
            .with("b", true)
            .with("c", "b");
        let v = s.encode(&cfg);
        let back = s.decode(&v);
        assert_eq!(back.int("n"), 7);
        assert!((back.float("f") - 1.5).abs() < 1e-9);
        assert!((back.float("g") - 10.0).abs() < 1e-6);
        assert!(back.bool("b"));
        assert_eq!(back.str("c"), "b");
    }

    #[test]
    fn encode_is_unit_interval() {
        let s = space();
        let v = s.encode(&s.default_configuration());
        assert!(v.iter().all(|x| (0.0..=1.0).contains(x)));
        assert_eq!(v.len(), s.len());
    }

    #[test]
    fn endpoints_encode_to_0_and_1() {
        let s = ParamSpace::new().with(ParamDef::int("n", 2, 10, 2, ""));
        assert_eq!(s.encode(&Configuration::new().with("n", 2i64))[0], 0.0);
        assert_eq!(s.encode(&Configuration::new().with("n", 10i64))[0], 1.0);
    }

    #[test]
    fn decode_clamps_outside_unit() {
        let s = ParamSpace::new().with(ParamDef::float("f", 0.0, 1.0, 0.5, ""));
        let cfg = s.decode(&[7.5]);
        assert_eq!(cfg.float("f"), 1.0);
        let cfg = s.decode(&[-2.0]);
        assert_eq!(cfg.float("f"), 0.0);
    }

    #[test]
    fn log_param_decodes_geometrically() {
        let s = ParamSpace::new().with(ParamDef::log_float("g", 1.0, 100.0, 1.0, ""));
        let mid = s.decode(&[0.5]).float("g");
        assert!(
            (mid - 10.0).abs() < 1e-6,
            "log midpoint should be 10, got {mid}"
        );
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn decode_rejects_wrong_dim() {
        let s = space();
        let _ = s.decode(&[0.0]);
    }

    #[test]
    fn missing_param_encodes_default() {
        let s = space();
        let v = s.encode(&Configuration::new());
        let d = s.encode(&s.default_configuration());
        assert_eq!(v, d);
    }
}
