//! Parameter spaces: ordered parameter definitions plus constraints.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::config::Configuration;
use crate::error::ConfigError;
use crate::param::{ParamDef, ParamValue};
use crate::plan::{choices, value_of, Dim, TypedValue};

type ConstraintFn = dyn Fn(&ConstraintArgs<'_>) -> bool + Send + Sync;

/// A named cross-parameter constraint.
///
/// Constraints express relationships a single [`ParamDef`] cannot, e.g.
/// "speculation quantile only matters when speculation is on" or
/// "executors × cores must not exceed the cluster's virtual CPUs".
/// A constraint names the parameters it reads; adding it to a space
/// resolves those names to row positions once, and the predicate reads
/// its arguments by their place in that list (see [`ConstraintArgs`]).
///
/// # Example
///
/// ```
/// use confspace::{Constraint, ParamDef, ParamSpace};
///
/// let space = ParamSpace::new()
///     .with(ParamDef::boolean("spill", false, "spill to disk"))
///     .with(ParamDef::int("buffers", 1, 64, 8, "spill buffers"))
///     .with_constraint(Constraint::new("few buffers when spilling", &["spill", "buffers"], |v| {
///         !v.bool(0) || v.int(1) <= 16
///     }));
/// let cfg = space.default_configuration().with("spill", true).with("buffers", 32i64);
/// assert!(space.validate(&cfg).is_err());
/// ```
#[derive(Clone)]
pub struct Constraint {
    name: String,
    params: Vec<String>,
    /// Row positions of `params`, resolved by [`ParamSpace::add_constraint`].
    at: Vec<usize>,
    check: Arc<ConstraintFn>,
}

impl Constraint {
    /// Creates a constraint from a name, the parameters its predicate
    /// reads, and the predicate, which reads `params[k]` as argument `k`.
    pub fn new(
        name: &str,
        params: &[&str],
        check: impl Fn(&ConstraintArgs<'_>) -> bool + Send + Sync + 'static,
    ) -> Self {
        Constraint {
            name: name.to_owned(),
            params: params.iter().map(|&p| p.to_owned()).collect(),
            at: Vec::new(),
            check: Arc::new(check),
        }
    }

    /// The constraint's name (used in error messages).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether a typed row of the space this constraint was added to
    /// (whose parameters are `defs`) satisfies it.
    fn holds(&self, defs: &[ParamDef], row: &[TypedValue]) -> bool {
        (self.check)(&ConstraintArgs {
            row,
            at: &self.at,
            defs,
        })
    }
}

impl fmt::Debug for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Constraint")
            .field("name", &self.name)
            .field("params", &self.params)
            .finish()
    }
}

/// The arguments of a [`Constraint`]'s predicate: argument `k` is the
/// value of the `k`-th parameter the constraint names.
pub struct ConstraintArgs<'a> {
    row: &'a [TypedValue],
    at: &'a [usize],
    defs: &'a [ParamDef],
}

impl ConstraintArgs<'_> {
    fn typed(&self, k: usize) -> TypedValue {
        self.row[self.at[k]]
    }

    /// Integer argument `k`.
    ///
    /// # Panics
    ///
    /// Panics if the constraint names fewer than `k + 1` parameters, or
    /// argument `k` is not an integer.
    pub fn int(&self, k: usize) -> i64 {
        match self.typed(k) {
            TypedValue::Int(x) => x,
            _ => self.mismatch(k, "an int"),
        }
    }

    /// Float argument `k` (integers widen to `f64`).
    ///
    /// # Panics
    ///
    /// Panics if the constraint names fewer than `k + 1` parameters, or
    /// argument `k` is not numeric.
    pub fn float(&self, k: usize) -> f64 {
        match self.typed(k) {
            TypedValue::Float(x) => x,
            TypedValue::Int(x) => x as f64,
            _ => self.mismatch(k, "numeric"),
        }
    }

    /// Boolean argument `k`.
    ///
    /// # Panics
    ///
    /// Panics if the constraint names fewer than `k + 1` parameters, or
    /// argument `k` is not a boolean.
    pub fn bool(&self, k: usize) -> bool {
        match self.typed(k) {
            TypedValue::Bool(b) => b,
            _ => self.mismatch(k, "a bool"),
        }
    }

    /// Categorical argument `k`.
    ///
    /// # Panics
    ///
    /// Panics if the constraint names fewer than `k + 1` parameters, or
    /// argument `k` is not categorical.
    pub fn str(&self, k: usize) -> &str {
        match self.typed(k) {
            TypedValue::Choice(i) => &choices(&self.defs[self.at[k]])[i],
            _ => self.mismatch(k, "categorical"),
        }
    }

    fn mismatch(&self, k: usize, kind: &str) -> ! {
        let name = &self.defs[self.at[k]].name;
        panic!("constraint argument `{name}` is not {kind}")
    }
}

/// An ordered collection of parameter definitions with constraints.
///
/// The order of parameters is significant: it fixes the dimension order
/// of the feature-vector encoding (see [`crate::encode`]) and of the
/// *row* form of a configuration — one value per parameter in space
/// order. Search strategies that score many candidates and keep few
/// draw typed rows (categoricals as choice indices) and their encodings
/// into a [`CandidatePool`] they keep across rounds, and build a
/// configuration only for the picks.
///
/// As parameters are added the space compiles a dense per-dimension
/// plan (bounds, step counts, `ln` bounds, choice counts) that those
/// draws read, and constraints are resolved to row positions when they
/// are added.
///
/// [`CandidatePool`]: crate::CandidatePool
///
/// # Example
///
/// ```
/// use confspace::{ParamDef, ParamSpace};
///
/// let space = ParamSpace::new()
///     .with(ParamDef::int("workers", 1, 16, 2, "executor count"))
///     .with(ParamDef::boolean("compress", true, "shuffle compression"));
/// let defaults = space.default_configuration();
/// assert_eq!(defaults.int("workers"), 2);
/// assert!(space.validate(&defaults).is_ok());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ParamSpace {
    params: Vec<ParamDef>,
    /// The compiled plan, one dimension per parameter.
    dims: Vec<Dim>,
    index: HashMap<String, usize>,
    /// Parameter positions in name order: the order of a
    /// [`Configuration`]'s entries, which [`ParamSpace::encode`] merges
    /// against.
    by_name: Vec<usize>,
    constraints: Vec<Constraint>,
}

impl ParamSpace {
    /// Creates an empty space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a parameter definition.
    ///
    /// # Panics
    ///
    /// Panics if a parameter with the same name already exists.
    pub fn add(&mut self, def: ParamDef) -> &mut Self {
        assert!(
            !self.index.contains_key(&def.name),
            "duplicate parameter `{}`",
            def.name
        );
        let at = self
            .by_name
            .partition_point(|&i| self.params[i].name < def.name);
        self.by_name.insert(at, self.params.len());
        self.index.insert(def.name.clone(), self.params.len());
        self.dims.push(Dim::of(&def.kind));
        self.params.push(def);
        self
    }

    /// Builder-style [`add`](Self::add).
    #[must_use]
    pub fn with(mut self, def: ParamDef) -> Self {
        self.add(def);
        self
    }

    /// Adds a cross-parameter constraint, resolving the parameters it
    /// names to their positions in this space.
    ///
    /// # Panics
    ///
    /// Panics if the constraint names a parameter the space lacks.
    #[must_use]
    pub fn with_constraint(mut self, c: Constraint) -> Self {
        self.add_constraint(c);
        self
    }

    /// [`with_constraint`](Self::with_constraint) in place.
    fn add_constraint(&mut self, mut c: Constraint) {
        c.at = c
            .params
            .iter()
            .map(|name| {
                self.index_of(name).unwrap_or_else(|| {
                    panic!("constraint `{}` reads unknown parameter `{name}`", c.name)
                })
            })
            .collect();
        self.constraints.push(c);
    }

    /// Number of parameters (also the encoded dimension count).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the space has no parameters.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// The parameter definitions, in encoding order.
    pub fn params(&self) -> &[ParamDef] {
        &self.params
    }

    /// The compiled plan, in encoding order.
    pub(crate) fn dims(&self) -> &[Dim] {
        &self.dims
    }

    /// Parameter positions in name order.
    pub(crate) fn by_name(&self) -> &[usize] {
        &self.by_name
    }

    /// The constraints on the space.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Looks up a parameter definition by name.
    pub fn param(&self, name: &str) -> Option<&ParamDef> {
        self.index.get(name).map(|&i| &self.params[i])
    }

    /// Index of a parameter in encoding order.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// The configuration assigning every parameter its default value.
    pub fn default_configuration(&self) -> Configuration {
        self.params
            .iter()
            .map(|p| (p.name.clone(), p.default.clone()))
            .collect()
    }

    /// The typed row of default values, in space order.
    pub(crate) fn default_typed(&self) -> impl Iterator<Item = TypedValue> + '_ {
        self.params
            .iter()
            .zip(&self.dims)
            .map(|(p, dim)| dim.typed(p, &p.default))
    }

    /// Names a typed row's values, building each choice's string.
    pub(crate) fn config_of_typed(&self, row: &[TypedValue]) -> Configuration {
        debug_assert_eq!(row.len(), self.len());
        self.params
            .iter()
            .zip(row)
            .map(|(p, &t)| (p.name.clone(), value_of(p, t)))
            .collect()
    }

    /// Validates that `cfg` assigns an admissible value to every
    /// parameter and satisfies all constraints.
    ///
    /// # Errors
    ///
    /// Returns the first violation found: [`ConfigError::MissingParam`],
    /// a per-parameter range/type error, [`ConfigError::UnknownParam`]
    /// for extraneous assignments, or
    /// [`ConfigError::ConstraintViolated`].
    pub fn validate(&self, cfg: &Configuration) -> Result<(), ConfigError> {
        let row = self.typed_checked(self.params.iter().map(|p| cfg.get(&p.name)))?;
        for (name, _) in cfg.iter() {
            if !self.index.contains_key(name) {
                return Err(ConfigError::UnknownParam(name.to_owned()));
            }
        }
        self.check_constraints(&row)
    }

    /// Checks one value per parameter, in space order, and types them.
    fn typed_checked<'v>(
        &self,
        values: impl Iterator<Item = Option<&'v ParamValue>>,
    ) -> Result<Vec<TypedValue>, ConfigError> {
        let defs = self.params.iter().zip(&self.dims);
        defs.zip(values)
            .map(|((p, dim), v)| {
                let v = v.ok_or_else(|| ConfigError::MissingParam(p.name.clone()))?;
                p.check(v)?;
                Ok(dim.typed(p, v))
            })
            .collect()
    }

    fn check_constraints(&self, row: &[TypedValue]) -> Result<(), ConfigError> {
        match self
            .constraints
            .iter()
            .find(|c| !c.holds(&self.params, row))
        {
            Some(c) => Err(ConfigError::ConstraintViolated(c.name.clone())),
            None => Ok(()),
        }
    }

    /// Whether a typed row of admissible values satisfies every
    /// constraint: the last step of [`validate`](Self::validate).
    pub(crate) fn constraints_hold(&self, row: &[TypedValue]) -> bool {
        self.constraints.iter().all(|c| c.holds(&self.params, row))
    }

    /// Clamps every out-of-range value in `cfg` to the nearest admissible
    /// value, leaving valid values untouched. Unknown parameters are
    /// dropped; missing ones are filled with defaults. Constraints are
    /// *not* repaired (callers resample instead).
    #[must_use]
    pub fn clamp(&self, cfg: &Configuration) -> Configuration {
        let row: Vec<TypedValue> = self.clamp_typed(cfg).collect();
        self.config_of_typed(&row)
    }

    /// The typed row of [`clamp`](Self::clamp).
    pub(crate) fn clamp_typed<'a>(
        &'a self,
        cfg: &'a Configuration,
    ) -> impl Iterator<Item = TypedValue> + 'a {
        self.params.iter().zip(&self.dims).map(|(p, &dim)| {
            let clamped = match (dim, cfg.get(&p.name)) {
                (Dim::Int { lo, hi, step, .. }, Some(&ParamValue::Int(x))) => {
                    let x = x.clamp(lo, hi);
                    Some(TypedValue::Int(lo + ((x - lo) / step) * step))
                }
                (
                    Dim::Float { lo, hi } | Dim::LogFloat { lo, hi, .. },
                    Some(&ParamValue::Float(x)),
                ) if x.is_finite() => Some(TypedValue::Float(x.clamp(lo, hi))),
                (Dim::Bool, Some(&ParamValue::Bool(b))) => Some(TypedValue::Bool(b)),
                (Dim::Choice { .. }, Some(ParamValue::Str(s))) => choices(p)
                    .iter()
                    .position(|c| c == s)
                    .map(TypedValue::Choice),
                _ => None,
            };
            clamped.unwrap_or_else(|| dim.typed(p, &p.default))
        })
    }

    /// Merges another space's parameters and constraints into this one.
    /// Used to form the *joint* cloud + DISC space (§I of the paper).
    ///
    /// # Panics
    ///
    /// Panics on duplicate parameter names.
    #[must_use]
    pub fn union(mut self, other: &ParamSpace) -> ParamSpace {
        for p in &other.params {
            self.add(p.clone());
        }
        for c in &other.constraints {
            self.add_constraint(c.clone());
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_space() -> ParamSpace {
        ParamSpace::new()
            .with(ParamDef::int("n", 1, 8, 2, "count"))
            .with(ParamDef::float("f", 0.0, 1.0, 0.5, "fraction"))
            .with(ParamDef::boolean("b", false, "switch"))
            .with(ParamDef::categorical("c", &["x", "y"], "x", "choice"))
    }

    #[test]
    fn default_configuration_is_valid() {
        let s = small_space();
        let cfg = s.default_configuration();
        assert!(s.validate(&cfg).is_ok());
        assert_eq!(cfg.len(), 4);
    }

    #[test]
    fn validate_detects_missing_and_unknown() {
        let s = small_space();
        let mut cfg = s.default_configuration();
        let partial: Configuration = cfg
            .iter()
            .filter(|(k, _)| *k != "n")
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        assert!(matches!(
            s.validate(&partial),
            Err(ConfigError::MissingParam(p)) if p == "n"
        ));
        cfg.set("zzz", 1i64);
        assert!(matches!(
            s.validate(&cfg),
            Err(ConfigError::UnknownParam(p)) if p == "zzz"
        ));
    }

    #[test]
    fn constraint_is_enforced() {
        let s = small_space().with_constraint(Constraint::new("n<=4 when b", &["b", "n"], |v| {
            !v.bool(0) || v.int(1) <= 4
        }));
        let cfg = s.default_configuration().with("b", true).with("n", 8i64);
        assert!(matches!(
            s.validate(&cfg),
            Err(ConfigError::ConstraintViolated(_))
        ));
        let ok = s.default_configuration().with("b", true).with("n", 3i64);
        assert!(s.validate(&ok).is_ok());
    }

    #[test]
    fn clamp_snaps_to_range() {
        let s = small_space();
        let cfg = Configuration::new()
            .with("n", 99i64)
            .with("f", -3.0)
            .with("b", true)
            .with("c", "nope")
            .with("junk", 1i64);
        let fixed = s.clamp(&cfg);
        assert!(s.validate(&fixed).is_ok());
        assert_eq!(fixed.int("n"), 8);
        assert_eq!(fixed.float("f"), 0.0);
        assert_eq!(fixed.str("c"), "x");
        assert!(!fixed.contains("junk"));
    }

    #[test]
    fn clamp_respects_step() {
        let s = ParamSpace::new().with(ParamDef::int_step("m", 0, 100, 25, 0, "stepped"));
        let fixed = s.clamp(&Configuration::new().with("m", 60i64));
        assert_eq!(fixed.int("m"), 50);
    }

    #[test]
    fn union_concatenates() {
        let a = ParamSpace::new().with(ParamDef::int("a", 0, 1, 0, ""));
        let b = ParamSpace::new().with(ParamDef::int("b", 0, 1, 0, ""));
        let u = a.union(&b);
        assert_eq!(u.len(), 2);
        assert_eq!(u.index_of("a"), Some(0));
        assert_eq!(u.index_of("b"), Some(1));
    }

    #[test]
    fn union_resolves_constraints_to_the_joint_positions() {
        let a = ParamSpace::new().with(ParamDef::int("a", 0, 4, 0, ""));
        let b = small_space().with_constraint(Constraint::new("n<=4 when b", &["b", "n"], |v| {
            !v.bool(0) || v.int(1) <= 4
        }));
        let u = a.union(&b);
        let bad = u.default_configuration().with("b", true).with("n", 8i64);
        assert!(matches!(
            u.validate(&bad),
            Err(ConfigError::ConstraintViolated(_))
        ));
        assert!(u.validate(&bad.with("n", 4i64)).is_ok());
    }

    #[test]
    #[should_panic(expected = "reads unknown parameter `nope`")]
    fn constraint_on_an_unknown_parameter_panics() {
        let _ = small_space().with_constraint(Constraint::new("bad", &["n", "nope"], |_| true));
    }

    #[test]
    #[should_panic(expected = "duplicate parameter")]
    fn duplicate_param_panics() {
        let _ = ParamSpace::new()
            .with(ParamDef::int("a", 0, 1, 0, ""))
            .with(ParamDef::int("a", 0, 1, 0, ""));
    }
}
