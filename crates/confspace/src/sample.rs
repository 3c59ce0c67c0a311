//! Sampling and search operators over parameter spaces.
//!
//! [`uniform`] and [`latin_hypercube`] respect the space's constraints
//! by rejection: a sample violating a constraint is re-drawn (up to a
//! bounded number of tries, after which the space's default
//! configuration is returned — spaces in this workspace have mild
//! constraints, so this is unreachable in practice). Uniform draws and
//! neighbourhood moves are the [`CandidatePool`] draws.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::config::Configuration;
use crate::plan::value_of;
use crate::pool::CandidatePool;
use crate::space::ParamSpace;

/// Draws one configuration, every parameter independently uniform: the
/// configuration of one [`CandidatePool::push_uniform`] row.
pub fn uniform<R: Rng + ?Sized>(space: &ParamSpace, rng: &mut R) -> Configuration {
    let mut pool = CandidatePool::new(space);
    pool.push_uniform(space, rng);
    pool.config(space, 0)
}

/// Draws a Latin-hypercube block of `n` configurations: each dimension
/// is divided into `n` strata and each stratum is used exactly once,
/// giving much better space coverage than `n` i.i.d. uniform draws. A
/// point the space rejects is replaced by a [`uniform`] draw; a block of
/// one is one uniform point.
pub fn latin_hypercube<R: Rng + ?Sized>(
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
            out.push(uniform(space, rng));
        }
    }
    out
}

/// Produces a neighbour of `cfg`: each parameter is perturbed with
/// probability `rate`; numeric parameters move by a Gaussian step of
/// relative size `scale` (fraction of the range), discrete parameters
/// re-sample among nearby values. This is one
/// [`CandidatePool::push_neighbor`] draw around `cfg`.
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
    let mut pool = CandidatePool::new(space);
    pool.set_base(space, cfg);
    if !pool.push_neighbor(space, scale, rate, rng) {
        pool.fall_back();
    }
    pool.config(space, 0)
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
                value_of(p, dim.draw(rng).0)
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
            let cfg = uniform(&s, &mut rng);
            assert!(s.validate(&cfg).is_ok());
        }
    }

    #[test]
    fn uniform_is_deterministic_under_seed() {
        let s = space();
        let draw = |seed| -> Vec<Configuration> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..5).map(|_| uniform(&s, &mut rng)).collect()
        };
        assert_eq!(draw(42), draw(42));
    }

    #[test]
    fn lhs_stratifies_each_dimension() {
        let s = ParamSpace::new().with(ParamDef::float("f", 0.0, 1.0, 0.5, ""));
        let mut rng = StdRng::seed_from_u64(3);
        let n = 10;
        let samples = latin_hypercube(&s, n, &mut rng);
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
        let base = uniform(&s, &mut rng);
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
            let cfg = uniform(&s, &mut rng);
            assert_ne!(cfg.int("n"), 13);
        }
    }
}
