//! The dense per-dimension plan a [`ParamSpace`] compiles as parameters
//! are added.
//!
//! Each [`Dim`] carries what its parameter's draw, decode, admission
//! check and encoding read — kind tag, bounds, step count, `ln` bounds,
//! choice count — so a candidate row is drawn (or decoded), admitted and
//! encoded in one pass, without matching on [`ParamKind`] or searching a
//! choice list. These are the only draw, decode and encode formulas in
//! the crate.
//!
//! [`ParamSpace`]: crate::ParamSpace

use rand::Rng;

use crate::param::{ParamDef, ParamKind, ParamValue};

/// One dimension of a space's plan.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Dim {
    /// Integers `lo + k·step` for `k` in `0..=steps`.
    Int {
        lo: i64,
        hi: i64,
        step: i64,
        steps: i64,
    },
    /// A linear float range.
    Float {
        lo: f64,
        hi: f64,
    },
    /// A log-scale float range.
    LogFloat {
        lo: f64,
        hi: f64,
        ln_lo: f64,
        ln_hi: f64,
    },
    Bool,
    /// A categorical with `n` choices.
    Choice {
        n: usize,
    },
}

impl Dim {
    pub(crate) fn of(kind: &ParamKind) -> Dim {
        match *kind {
            ParamKind::Int { lo, hi, step } => Dim::Int {
                lo,
                hi,
                step,
                steps: (hi - lo) / step,
            },
            ParamKind::Float { lo, hi, log: false } => Dim::Float { lo, hi },
            ParamKind::Float { lo, hi, log: true } => Dim::LogFloat {
                lo,
                hi,
                ln_lo: lo.ln(),
                ln_hi: hi.ln(),
            },
            ParamKind::Bool => Dim::Bool,
            ParamKind::Categorical { ref choices } => Dim::Choice { n: choices.len() },
        }
    }

    /// The unit coordinate of `v`, clamped into range. A value of the
    /// wrong kind, or an unknown choice, encodes as the bottom of the
    /// range.
    pub(crate) fn encode(self, p: &ParamDef, v: &ParamValue) -> f64 {
        match self {
            Dim::Int { lo, hi, .. } => int_unit(lo, hi, v.as_int().unwrap_or(lo)),
            Dim::Float { lo, hi } => linear_unit(lo, hi, v.as_float().unwrap_or(lo)),
            Dim::LogFloat {
                lo,
                hi,
                ln_lo,
                ln_hi,
            } => log_unit(lo, hi, ln_lo, ln_hi, v.as_float().unwrap_or(lo)),
            Dim::Bool => bool_unit(v.as_bool().unwrap_or(false)),
            Dim::Choice { n } => {
                let i = v
                    .as_str()
                    .and_then(|s| choices(p).iter().position(|c| c == s))
                    .unwrap_or(0);
                choice_unit(n, i)
            }
        }
    }

    /// Draws a uniform value into `slot`. Returns its unit coordinate and
    /// whether [`ParamDef::check`] admits it. Only floats are checked: a
    /// drawn int lies on its grid, and a drawn choice or bool is
    /// admissible by construction.
    pub(crate) fn draw<R: Rng + ?Sized>(
        self,
        p: &ParamDef,
        rng: &mut R,
        slot: &mut ParamValue,
    ) -> (f64, bool) {
        match self {
            Dim::Int {
                lo,
                hi,
                step,
                steps,
            } => {
                let x = lo + rng.gen_range(0..=steps) * step;
                *slot = ParamValue::Int(x);
                (int_unit(lo, hi, x), true)
            }
            Dim::Float { lo, hi } => {
                let x = rng.gen_range(lo..=hi);
                *slot = ParamValue::Float(x);
                (linear_unit(lo, hi, x), admits(lo, hi, x))
            }
            Dim::LogFloat {
                lo,
                hi,
                ln_lo,
                ln_hi,
            } => {
                let x = rng.gen_range(ln_lo..=ln_hi).exp();
                *slot = ParamValue::Float(x);
                (log_unit(lo, hi, ln_lo, ln_hi, x), admits(lo, hi, x))
            }
            Dim::Bool => {
                let b = rng.gen();
                *slot = ParamValue::Bool(b);
                (bool_unit(b), true)
            }
            Dim::Choice { n } => put_choice(p, n, rng.gen_range(0..n), slot),
        }
    }

    /// Decodes unit coordinate `x` (clamped to `[0, 1]`) into `slot` as
    /// the nearest value in range. Returns the decoded value's unit
    /// coordinate and whether [`ParamDef::check`] admits it.
    pub(crate) fn decode(self, p: &ParamDef, x: f64, slot: &mut ParamValue) -> (f64, bool) {
        let x = x.clamp(0.0, 1.0);
        match self {
            Dim::Int { lo, hi, step, .. } => {
                let raw = lo as f64 + x * (hi - lo) as f64;
                let k = ((raw - lo as f64) / step as f64).round() as i64;
                let v = (lo + k * step).clamp(lo, hi);
                *slot = ParamValue::Int(v);
                // Rounding up past a `hi` that is off the grid clamps to
                // `hi`, which is off the grid too.
                (int_unit(lo, hi, v), (v - lo) % step == 0)
            }
            Dim::Float { lo, hi } => {
                let v = (lo + x * (hi - lo)).clamp(lo, hi);
                *slot = ParamValue::Float(v);
                (linear_unit(lo, hi, v), admits(lo, hi, v))
            }
            Dim::LogFloat {
                lo,
                hi,
                ln_lo,
                ln_hi,
            } => {
                let v = (ln_lo + x * (ln_hi - ln_lo)).exp().clamp(lo, hi);
                *slot = ParamValue::Float(v);
                (log_unit(lo, hi, ln_lo, ln_hi, v), admits(lo, hi, v))
            }
            Dim::Bool => {
                let b = x >= 0.5;
                *slot = ParamValue::Bool(b);
                (bool_unit(b), true)
            }
            Dim::Choice { n } => {
                let i = if n <= 1 {
                    0
                } else {
                    (x * (n - 1) as f64).round() as usize
                };
                put_choice(p, n, i.min(n - 1), slot)
            }
        }
    }
}

/// [`ParamDef::check`]'s test for a float: finite and within `[lo, hi]`.
fn admits(lo: f64, hi: f64, x: f64) -> bool {
    x.is_finite() && lo <= x && x <= hi
}

fn int_unit(lo: i64, hi: i64, x: i64) -> f64 {
    if hi == lo {
        return 0.0;
    }
    (x.clamp(lo, hi) - lo) as f64 / (hi - lo) as f64
}

fn linear_unit(lo: f64, hi: f64, x: f64) -> f64 {
    if hi == lo {
        0.0
    } else {
        (x.clamp(lo, hi) - lo) / (hi - lo)
    }
}

fn log_unit(lo: f64, hi: f64, ln_lo: f64, ln_hi: f64, x: f64) -> f64 {
    if ln_hi == ln_lo {
        0.0
    } else {
        (x.clamp(lo, hi).ln() - ln_lo) / (ln_hi - ln_lo)
    }
}

fn bool_unit(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

fn choice_unit(n: usize, i: usize) -> f64 {
    if n <= 1 {
        0.0
    } else {
        i as f64 / (n - 1) as f64
    }
}

/// Writes choice `i` into `slot`, reusing the string a categorical slot
/// already holds.
fn put_choice(p: &ParamDef, n: usize, i: usize, slot: &mut ParamValue) -> (f64, bool) {
    let choice = &choices(p)[i];
    match slot {
        ParamValue::Str(s) => s.clone_from(choice),
        _ => *slot = ParamValue::Str(choice.clone()),
    }
    (choice_unit(n, i), true)
}

fn choices(p: &ParamDef) -> &[String] {
    match &p.kind {
        ParamKind::Categorical { choices } => choices,
        _ => unreachable!("a choice dimension is compiled from a categorical"),
    }
}
