//! The dense per-dimension plan a [`ParamSpace`] compiles as parameters
//! are added, and the typed values of a candidate row.
//!
//! Each [`Dim`] carries what its parameter's draw, decode, admission
//! check and encoding read — kind tag, bounds, step count, `ln` bounds,
//! choice count — so a candidate row is drawn (or decoded), admitted and
//! encoded in one pass, without matching on [`ParamKind`], searching a
//! choice list or cloning a choice's string. These are the only draw,
//! decode and encode formulas in the crate.
//!
//! [`ParamSpace`]: crate::ParamSpace

use rand::Rng;

use crate::param::{ParamDef, ParamKind, ParamValue};

/// One value of a typed row: a parameter's value in its own kind, with
/// a categorical held as its choice index. A [`ParamValue`] (and a
/// choice's `String`) is built from it only when the row becomes a
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum TypedValue {
    Int(i64),
    Float(f64),
    Bool(bool),
    Choice(usize),
}

/// A value a draw or decode wrote: the typed value, its unit coordinate
/// and whether [`ParamDef::check`] admits it.
pub(crate) type Drawn = (TypedValue, f64, bool);

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

    /// The typed form of `v`. A value of the wrong kind, or an unknown
    /// choice, becomes the bottom of the range (an int widens to a
    /// float); an admissible value maps exactly.
    pub(crate) fn typed(self, p: &ParamDef, v: &ParamValue) -> TypedValue {
        match self {
            Dim::Int { lo, .. } => TypedValue::Int(v.as_int().unwrap_or(lo)),
            Dim::Float { lo, .. } | Dim::LogFloat { lo, .. } => {
                TypedValue::Float(v.as_float().unwrap_or(lo))
            }
            Dim::Bool => TypedValue::Bool(v.as_bool().unwrap_or(false)),
            Dim::Choice { .. } => TypedValue::Choice(
                v.as_str()
                    .and_then(|s| choices(p).iter().position(|c| c == s))
                    .unwrap_or(0),
            ),
        }
    }

    /// The unit coordinate of a typed value of this dimension, clamped
    /// into range.
    pub(crate) fn unit(self, t: TypedValue) -> f64 {
        match (self, t) {
            (Dim::Int { lo, hi, .. }, TypedValue::Int(x)) => int_unit(lo, hi, x),
            (Dim::Float { lo, hi }, TypedValue::Float(x)) => linear_unit(lo, hi, x),
            (
                Dim::LogFloat {
                    lo,
                    hi,
                    ln_lo,
                    ln_hi,
                },
                TypedValue::Float(x),
            ) => log_unit(lo, hi, ln_lo, ln_hi, x),
            (Dim::Bool, TypedValue::Bool(b)) => bool_unit(b),
            (Dim::Choice { n }, TypedValue::Choice(i)) => choice_unit(n, i),
            _ => unreachable!("a typed row holds each dimension's own kind"),
        }
    }

    /// The unit coordinate of `v`, clamped into range. A value of the
    /// wrong kind, or an unknown choice, encodes as the bottom of the
    /// range.
    pub(crate) fn encode(self, p: &ParamDef, v: &ParamValue) -> f64 {
        self.unit(self.typed(p, v))
    }

    /// Draws a uniform value. Only floats are checked: a drawn int lies
    /// on its grid, and a drawn choice or bool is admissible by
    /// construction.
    // Inlined into the row loop: as a call returning its value through
    // memory, it made uniform Spark rows ~1.6x slower to draw.
    #[inline(always)]
    pub(crate) fn draw<R: Rng + ?Sized>(self, rng: &mut R) -> Drawn {
        match self {
            Dim::Int {
                lo,
                hi,
                step,
                steps,
            } => {
                let x = lo + rng.gen_range(0..=steps) * step;
                (TypedValue::Int(x), int_unit(lo, hi, x), true)
            }
            Dim::Float { lo, hi } => {
                let x = rng.gen_range(lo..=hi);
                (
                    TypedValue::Float(x),
                    linear_unit(lo, hi, x),
                    admits(lo, hi, x),
                )
            }
            Dim::LogFloat {
                lo,
                hi,
                ln_lo,
                ln_hi,
            } => {
                let x = rng.gen_range(ln_lo..=ln_hi).exp();
                let unit = log_unit(lo, hi, ln_lo, ln_hi, x);
                (TypedValue::Float(x), unit, admits(lo, hi, x))
            }
            Dim::Bool => {
                let b = rng.gen();
                (TypedValue::Bool(b), bool_unit(b), true)
            }
            Dim::Choice { n } => {
                let i = rng.gen_range(0..n);
                (TypedValue::Choice(i), choice_unit(n, i), true)
            }
        }
    }

    /// Decodes unit coordinate `x` (clamped to `[0, 1]`) as the nearest
    /// admissible value. Only floats are checked: a decoded int is
    /// snapped onto its grid (at most the top grid point
    /// `lo + steps·step`, as [`ParamSpace::clamp`] snaps), and a decoded
    /// choice or bool is admissible by construction.
    ///
    /// [`ParamSpace::clamp`]: crate::ParamSpace::clamp
    pub(crate) fn decode(self, x: f64) -> Drawn {
        let x = x.clamp(0.0, 1.0);
        match self {
            Dim::Int {
                lo,
                hi,
                step,
                steps,
            } => {
                let raw = lo as f64 + x * (hi - lo) as f64;
                let k = ((raw - lo as f64) / step as f64).round() as i64;
                let v = lo + k.clamp(0, steps) * step;
                (TypedValue::Int(v), int_unit(lo, hi, v), true)
            }
            Dim::Float { lo, hi } => {
                let v = (lo + x * (hi - lo)).clamp(lo, hi);
                (
                    TypedValue::Float(v),
                    linear_unit(lo, hi, v),
                    admits(lo, hi, v),
                )
            }
            Dim::LogFloat {
                lo,
                hi,
                ln_lo,
                ln_hi,
            } => {
                let v = (ln_lo + x * (ln_hi - ln_lo)).exp().clamp(lo, hi);
                let unit = log_unit(lo, hi, ln_lo, ln_hi, v);
                (TypedValue::Float(v), unit, admits(lo, hi, v))
            }
            Dim::Bool => {
                let b = x >= 0.5;
                (TypedValue::Bool(b), bool_unit(b), true)
            }
            Dim::Choice { n } => {
                let i = if n <= 1 {
                    0
                } else {
                    (x * (n - 1) as f64).round() as usize
                };
                let i = i.min(n - 1);
                (TypedValue::Choice(i), choice_unit(n, i), true)
            }
        }
    }
}

/// The [`ParamValue`] of a typed value of parameter `p`: the one place a
/// choice's string is cloned.
pub(crate) fn value_of(p: &ParamDef, t: TypedValue) -> ParamValue {
    match t {
        TypedValue::Int(x) => ParamValue::Int(x),
        TypedValue::Float(x) => ParamValue::Float(x),
        TypedValue::Bool(b) => ParamValue::Bool(b),
        TypedValue::Choice(i) => ParamValue::Str(choices(p)[i].clone()),
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

/// A categorical parameter's choices.
pub(crate) fn choices(p: &ParamDef) -> &[String] {
    match &p.kind {
        ParamKind::Categorical { choices } => choices,
        _ => unreachable!("a choice dimension is compiled from a categorical"),
    }
}
