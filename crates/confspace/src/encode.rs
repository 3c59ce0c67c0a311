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

use std::cmp::Ordering;

use crate::config::Configuration;
use crate::space::ParamSpace;

impl ParamSpace {
    /// Encodes `cfg` into a `len()`-dimensional vector in `[0, 1]^d`.
    ///
    /// Missing parameters encode as their default; out-of-range values
    /// are clamped, and a value of the wrong kind encodes as the bottom
    /// of its range. Entries the space lacks are ignored. The
    /// configuration is read in one merge pass: its entries and the
    /// space's parameters are both walked in name order.
    pub fn encode(&self, cfg: &Configuration) -> Vec<f64> {
        let (params, dims) = (self.params(), self.dims());
        let mut out = vec![0.0; self.len()];
        let mut entries = cfg.iter().peekable();
        for &i in self.by_name() {
            let p = &params[i];
            let mut value = &p.default;
            while let Some(&(name, v)) = entries.peek() {
                match name.cmp(p.name.as_str()) {
                    Ordering::Less => {
                        entries.next();
                    }
                    Ordering::Equal => {
                        value = v;
                        entries.next();
                        break;
                    }
                    Ordering::Greater => break,
                }
            }
            out[i] = dims[i].encode(p, value);
        }
        out
    }

    /// Decodes a feature vector into a valid configuration, rounding each
    /// coordinate to the nearest admissible value. Coordinates outside
    /// `[0, 1]` are clamped.
    ///
    /// # Panics
    ///
    /// Panics if `v.len()` differs from [`ParamSpace::len`].
    pub fn decode(&self, v: &[f64]) -> Configuration {
        assert_eq!(
            v.len(),
            self.len(),
            "feature vector has wrong dimension: {} != {}",
            v.len(),
            self.len()
        );
        let row: Vec<_> = self
            .dims()
            .iter()
            .zip(v)
            .map(|(dim, &x)| dim.decode(x).0)
            .collect();
        self.config_of_typed(&row)
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

    #[test]
    fn decode_snaps_to_the_top_grid_point_below_an_off_grid_hi() {
        let s = ParamSpace::new().with(ParamDef::int_step("off_grid", 0, 11, 3, 0, ""));
        let top = s.decode(&[1.0]);
        assert_eq!(top.int("off_grid"), 9);
        assert!(s.validate(&top).is_ok());
        assert_eq!(top, s.clamp(&Configuration::new().with("off_grid", 11i64)));
        for x in [0.0, 0.1, 0.5, 0.8, 0.9, 0.95] {
            assert!(s.validate(&s.decode(&[x])).is_ok(), "decode({x})");
        }
    }

    #[test]
    fn encode_reads_entries_by_name_whatever_the_space_order() {
        let s = ParamSpace::new()
            .with(ParamDef::int("z", 0, 10, 0, ""))
            .with(ParamDef::int("a", 0, 10, 0, ""))
            .with(ParamDef::int("m", 0, 10, 0, ""));
        let cfg = Configuration::new()
            .with("", 3i64)
            .with("a", 5i64)
            .with("b", 7i64)
            .with("z", 10i64)
            .with("zz", 1i64);
        assert_eq!(s.encode(&cfg), vec![1.0, 0.5, 0.0]);
    }
}
