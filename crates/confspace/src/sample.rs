//! Sampling strategies and search operators over parameter spaces.
//!
//! All samplers respect the space's constraints by rejection: a sample
//! violating a constraint is re-drawn (up to a bounded number of tries,
//! after which the space's default configuration is returned — spaces in
//! this workspace have mild constraints, so this is unreachable in
//! practice).

use rand::seq::SliceRandom;
use rand::Rng;

use crate::config::Configuration;
use crate::param::ParamValue;
use crate::space::ParamSpace;

/// Maximum rejection-sampling attempts before falling back to defaults.
const MAX_REJECTS: usize = 256;

/// A strategy producing configurations from a space.
pub trait Sampler {
    /// Draws one configuration.
    fn sample<R: Rng + ?Sized>(&self, space: &ParamSpace, rng: &mut R) -> Configuration;

    /// Draws `n` configurations. Implementations may coordinate the draws
    /// (e.g. Latin-hypercube stratification).
    fn sample_n<R: Rng + ?Sized>(
        &self,
        space: &ParamSpace,
        n: usize,
        rng: &mut R,
    ) -> Vec<Configuration> {
        (0..n).map(|_| self.sample(space, rng)).collect()
    }
}

/// Independent uniform sampling of every parameter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UniformSampler;

impl UniformSampler {
    /// Draws one configuration as a dense row (values in space order)
    /// into `row`, and its encoding into `encoded`, in one pass: draw for
    /// draw the configuration [`Sampler::sample`] returns, and bit for
    /// bit the encoding [`ParamSpace::encode`] gives it. Both buffers are
    /// overwritten whatever they held (length and value kinds included);
    /// a categorical slot that already holds a string takes the choice
    /// with `clone_from`, keeping its capacity, so a scan that redraws a
    /// pool every round stops allocating once its buffers have grown.
    ///
    /// A draw is rejected and redrawn exactly when
    /// [`ParamSpace::validate_row`] would reject it; after 256 rejected
    /// draws the row is the space's defaults.
    pub fn sample_row_into<R: Rng + ?Sized>(
        &self,
        space: &ParamSpace,
        rng: &mut R,
        row: &mut Vec<ParamValue>,
        encoded: &mut Vec<f64>,
    ) {
        reset_row(space, row);
        encoded.clear();
        encoded.resize(space.len(), 0.0);
        for _ in 0..MAX_REJECTS {
            let mut admitted = true;
            let dims = space.params().iter().zip(space.dims());
            for ((p, dim), (slot, x)) in dims.zip(row.iter_mut().zip(encoded.iter_mut())) {
                let (unit, ok) = dim.draw(p, rng, slot);
                *x = unit;
                admitted &= ok;
            }
            if admitted && space.constraints_hold(row) {
                debug_assert!(space.validate_row(row).is_ok());
                return;
            }
        }
        *row = space.default_row();
        *encoded = space.encode(&space.default_configuration());
    }
}

/// Sizes a caller's row to the space, keeping the slots already there.
fn reset_row(space: &ParamSpace, row: &mut Vec<ParamValue>) {
    row.truncate(space.len());
    row.resize(space.len(), ParamValue::Bool(false));
}

impl Sampler for UniformSampler {
    fn sample<R: Rng + ?Sized>(&self, space: &ParamSpace, rng: &mut R) -> Configuration {
        let (mut row, mut encoded) = (Vec::new(), Vec::new());
        self.sample_row_into(space, rng, &mut row, &mut encoded);
        space.config_of_row(row)
    }
}

/// Latin-hypercube sampling: for a batch of `n` draws, each dimension is
/// divided into `n` strata and each stratum is used exactly once, giving
/// much better space coverage than i.i.d. uniform draws for the same
/// budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatinHypercube;

impl Sampler for LatinHypercube {
    fn sample<R: Rng + ?Sized>(&self, space: &ParamSpace, rng: &mut R) -> Configuration {
        UniformSampler.sample(space, rng)
    }

    fn sample_n<R: Rng + ?Sized>(
        &self,
        space: &ParamSpace,
        n: usize,
        rng: &mut R,
    ) -> Vec<Configuration> {
        if n == 0 {
            return Vec::new();
        }
        let d = space.len();
        // One stratum permutation per dimension.
        let mut perms: Vec<Vec<usize>> = Vec::with_capacity(d);
        for _ in 0..d {
            let mut p: Vec<usize> = (0..n).collect();
            p.shuffle(rng);
            perms.push(p);
        }
        let mut out = Vec::with_capacity(n);
        #[allow(clippy::needless_range_loop)] // `i` indexes every perm column
        for i in 0..n {
            let v: Vec<f64> = (0..d)
                .map(|j| {
                    let stratum = perms[j][i] as f64;
                    (stratum + rng.gen::<f64>()) / n as f64
                })
                .collect();
            let cfg = space.decode(&v);
            if space.validate(&cfg).is_ok() {
                out.push(cfg);
            } else {
                out.push(UniformSampler.sample(space, rng));
            }
        }
        out
    }
}

/// Produces a neighbour of `cfg`: each parameter is perturbed with
/// probability `rate`; numeric parameters move by a Gaussian step of
/// relative size `scale` (fraction of the range), discrete parameters
/// re-sample among nearby values.
///
/// The result is clamped to the space; constraint violations fall back
/// to re-clamping the original configuration.
pub fn neighbor<R: Rng + ?Sized>(
    space: &ParamSpace,
    cfg: &Configuration,
    scale: f64,
    rate: f64,
    rng: &mut R,
) -> Configuration {
    let (mut row, mut encoded) = (Vec::new(), Vec::new());
    if neighbor_row_into(
        space,
        &space.encode(cfg),
        scale,
        rate,
        rng,
        &mut row,
        &mut encoded,
    ) {
        space.config_of_row(row)
    } else {
        space.clamp(cfg)
    }
}

/// The row form of [`neighbor`], from the base configuration's encoding
/// (callers drawing many neighbours of one base encode it once): moves
/// the encoding, decodes it into `row` and re-encodes each decoded value
/// into `encoded`, in one pass, reusing both buffers as
/// [`UniformSampler::sample_row_into`] does. Returns whether the move is
/// admitted, exactly when [`ParamSpace::validate_row`] accepts the row.
/// On `false` the buffers hold the rejected move; [`neighbor`] then
/// falls back to the clamped base ([`ParamSpace::clamp_row`] in row
/// form).
///
/// # Panics
///
/// Panics if `encoded_base.len()` differs from [`ParamSpace::len`].
pub fn neighbor_row_into<R: Rng + ?Sized>(
    space: &ParamSpace,
    encoded_base: &[f64],
    scale: f64,
    rate: f64,
    rng: &mut R,
    row: &mut Vec<ParamValue>,
    encoded: &mut Vec<f64>,
) -> bool {
    encoded.clear();
    encoded.extend_from_slice(encoded_base);
    for x in encoded.iter_mut() {
        if rng.gen::<f64>() < rate {
            // Box-Muller-free Gaussian-ish step: sum of 4 uniforms.
            let g: f64 = (0..4).map(|_| rng.gen::<f64>() - 0.5).sum::<f64>() / 2.0;
            *x = (*x + g * scale * 2.0).clamp(0.0, 1.0);
        }
    }
    assert_eq!(
        encoded.len(),
        space.len(),
        "feature vector has wrong dimension: {} != {}",
        encoded.len(),
        space.len()
    );
    reset_row(space, row);
    let mut admitted = true;
    let dims = space.params().iter().zip(space.dims());
    for ((p, dim), (slot, x)) in dims.zip(row.iter_mut().zip(encoded.iter_mut())) {
        let (unit, ok) = dim.decode(p, *x, slot);
        *x = unit;
        admitted &= ok;
    }
    let admitted = admitted && space.constraints_hold(row);
    debug_assert_eq!(admitted, space.validate_row(row).is_ok());
    admitted
}

/// Uniform crossover of two parent configurations (genetic search).
pub fn crossover<R: Rng + ?Sized>(
    space: &ParamSpace,
    a: &Configuration,
    b: &Configuration,
    rng: &mut R,
) -> Configuration {
    let cand: Configuration = space
        .params()
        .iter()
        .map(|p| {
            let src = if rng.gen::<bool>() { a } else { b };
            let v = src.get(&p.name).unwrap_or(&p.default).clone();
            (p.name.clone(), v)
        })
        .collect();
    let cand = space.clamp(&cand);
    if space.validate(&cand).is_ok() {
        cand
    } else {
        space.clamp(a)
    }
}

/// Mutates a configuration: each parameter is re-sampled uniformly with
/// probability `rate` (genetic search).
pub fn mutate<R: Rng + ?Sized>(
    space: &ParamSpace,
    cfg: &Configuration,
    rate: f64,
    rng: &mut R,
) -> Configuration {
    let cand: Configuration = space
        .params()
        .iter()
        .zip(space.dims())
        .map(|(p, dim)| {
            let v = if rng.gen::<f64>() < rate {
                let mut v = ParamValue::Bool(false);
                dim.draw(p, rng, &mut v);
                v
            } else {
                cfg.get(&p.name).unwrap_or(&p.default).clone()
            };
            (p.name.clone(), v)
        })
        .collect();
    if space.validate(&cand).is_ok() {
        cand
    } else {
        space.clamp(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamDef;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> ParamSpace {
        ParamSpace::new()
            .with(ParamDef::int("n", 1, 32, 4, ""))
            .with(ParamDef::float("f", 0.0, 1.0, 0.5, ""))
            .with(ParamDef::boolean("b", false, ""))
            .with(ParamDef::categorical("c", &["a", "b", "c"], "a", ""))
    }

    #[test]
    fn uniform_samples_are_valid() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let cfg = UniformSampler.sample(&s, &mut rng);
            assert!(s.validate(&cfg).is_ok());
        }
    }

    #[test]
    fn uniform_is_deterministic_under_seed() {
        let s = space();
        let a = UniformSampler.sample_n(&s, 5, &mut StdRng::seed_from_u64(42));
        let b = UniformSampler.sample_n(&s, 5, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }

    #[test]
    fn lhs_stratifies_each_dimension() {
        let s = ParamSpace::new().with(ParamDef::float("f", 0.0, 1.0, 0.5, ""));
        let mut rng = StdRng::seed_from_u64(3);
        let n = 10;
        let samples = LatinHypercube.sample_n(&s, n, &mut rng);
        let mut strata: Vec<usize> = samples
            .iter()
            .map(|c| ((c.float("f") * n as f64).floor() as usize).min(n - 1))
            .collect();
        strata.sort_unstable();
        assert_eq!(strata, (0..n).collect::<Vec<_>>(), "each stratum hit once");
    }

    #[test]
    fn neighbor_stays_valid_and_moves_little() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(9);
        let base = s.default_configuration();
        for _ in 0..50 {
            let n = neighbor(&s, &base, 0.05, 1.0, &mut rng);
            assert!(s.validate(&n).is_ok());
            // Small-scale moves keep the integer parameter near its default.
            assert!((n.int("n") - base.int("n")).abs() <= 8);
        }
    }

    #[test]
    fn crossover_mixes_parents() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(11);
        let a = s.default_configuration().with("n", 1i64);
        let b = s.default_configuration().with("n", 32i64);
        let mut seen_a = false;
        let mut seen_b = false;
        for _ in 0..50 {
            let c = crossover(&s, &a, &b, &mut rng);
            assert!(s.validate(&c).is_ok());
            seen_a |= c.int("n") == 1;
            seen_b |= c.int("n") == 32;
        }
        assert!(
            seen_a && seen_b,
            "crossover should draw genes from both parents"
        );
    }

    #[test]
    fn mutate_zero_rate_is_identity() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(13);
        let base = UniformSampler.sample(&s, &mut rng);
        let m = mutate(&s, &base, 0.0, &mut rng);
        assert_eq!(m, base);
    }

    #[test]
    fn mutate_full_rate_changes_something() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(17);
        let base = s.default_configuration();
        let mut changed = false;
        for _ in 0..20 {
            if mutate(&s, &base, 1.0, &mut rng) != base {
                changed = true;
                break;
            }
        }
        assert!(changed);
    }

    #[test]
    fn constrained_space_samples_satisfy_constraint() {
        use crate::space::Constraint;
        let s = space().with_constraint(Constraint::new("n even-ish", &["n"], |v| v.int(0) != 13));
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..200 {
            let cfg = UniformSampler.sample(&s, &mut rng);
            assert_ne!(cfg.int("n"), 13);
        }
    }
}
