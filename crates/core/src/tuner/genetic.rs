//! DAC-style surrogate-assisted genetic search (Yu et al. \[31\]):
//! a learned performance model (here a random forest standing in for
//! DAC's hierarchical regression-tree ensemble) is searched with a
//! genetic algorithm, and only the GA's winner is actually executed.

use confspace::{crossover, mutate, sample, CandidatePool, Configuration, ParamSpace};
use models::{ForestParams, RandomForest};
use rand::{Rng, RngCore};

use crate::objective::Observation;
use crate::tuner::{best_observation, encode_history, next_lhs_point, Tuner};

/// GA population size.
const POPULATION: usize = 40;

/// GA generations per proposal.
const GENERATIONS: usize = 8;

/// Per-parameter mutation probability.
const MUTATION_RATE: f64 = 0.08;

/// Scale of the incumbent nudge's neighbour move: the pool's step has
/// standard deviation `scale / √3`, so this is a step of 0.06 of each
/// parameter's range.
const NUDGE_SCALE: f64 = 0.06 * 1.732_050_807_568_877_2;

/// Surrogate-assisted genetic configuration search.
#[derive(Debug, Clone)]
pub struct Genetic {
    /// Warm-up design size before the surrogate takes over.
    pub init_samples: usize,
    pending_init: Vec<Configuration>,
}

impl Default for Genetic {
    fn default() -> Self {
        Self::new()
    }
}

impl Genetic {
    /// Creates the strategy with DAC-like defaults.
    pub fn new() -> Self {
        Genetic {
            init_samples: 10,
            pending_init: Vec::new(),
        }
    }

    /// Fits the forest surrogate and runs one full GA, returning the
    /// final population sorted by predicted runtime (best first).
    fn evolve(
        &self,
        space: &ParamSpace,
        history: &[Observation],
        rng: &mut dyn RngCore,
    ) -> Vec<(f64, Configuration)> {
        let mut ranked: Vec<&Observation> = history.iter().filter(|o| o.is_ok()).collect();
        ranked.sort_by(|a, b| a.runtime_s.total_cmp(&b.runtime_s));

        // Fit the surrogate on everything observed so far.
        let (x, y) = encode_history(space, history);
        let forest = RandomForest::fit(&x, &y, ForestParams::default(), rng);
        let score = |c: &Configuration| forest.predict(&space.encode(c));

        // Seed the population with the best observed configs + randoms.
        let mut pop: Vec<Configuration> = ranked
            .iter()
            .take(POPULATION / 4)
            .map(|o| o.config.clone())
            .collect();
        while pop.len() < POPULATION {
            pop.push(sample::uniform(space, rng));
        }

        for _ in 0..GENERATIONS {
            let mut scored: Vec<(f64, Configuration)> =
                pop.into_iter().map(|c| (score(&c), c)).collect();
            scored.sort_by(|a, b| a.0.total_cmp(&b.0));
            let elite = POPULATION / 4;
            let mut next: Vec<Configuration> =
                scored.iter().take(elite).map(|s| s.1.clone()).collect();
            while next.len() < POPULATION {
                // Tournament selection from the top half.
                let half = (POPULATION / 2).max(2);
                let a = &scored[rng.gen_range(0..half.min(scored.len()))].1;
                let b = &scored[rng.gen_range(0..half.min(scored.len()))].1;
                let child = crossover(space, a, b, rng);
                next.push(mutate(space, &child, MUTATION_RATE, rng));
            }
            pop = next;
        }

        let mut final_scored: Vec<(f64, Configuration)> =
            pop.into_iter().map(|c| (score(&c), c)).collect();
        final_scored.sort_by(|a, b| a.0.total_cmp(&b.0));
        final_scored
    }

    /// A neighbour move of every parameter of the incumbent, when one
    /// exists and the space admits the move.
    fn nudge(
        space: &ParamSpace,
        history: &[Observation],
        rng: &mut dyn RngCore,
    ) -> Option<Configuration> {
        let best = best_observation(history)?;
        let mut pool = CandidatePool::new(space);
        pool.set_base(space, &best.config);
        pool.push_neighbor(space, NUDGE_SCALE, 1.0, rng)
            .then(|| pool.config(space, 0))
    }
}

impl Tuner for Genetic {
    fn name(&self) -> &str {
        "genetic"
    }

    /// Native batch: one GA run supplies the generation — the top
    /// distinct, not-yet-evaluated individuals of the final population,
    /// topped up with uniform samples when the population cannot fill
    /// the round. Every third round opens with a nudge of the
    /// incumbent instead of one GA pick.
    fn propose(
        &mut self,
        space: &ParamSpace,
        history: &[Observation],
        q: usize,
        rng: &mut dyn RngCore,
    ) -> Vec<Configuration> {
        if history.len() < self.init_samples {
            return (0..q)
                .map(|_| next_lhs_point(&mut self.pending_init, space, self.init_samples, rng))
                .collect();
        }

        // The forest surrogate is piecewise-constant, so within its
        // best leaf it cannot rank candidates; every third round opens
        // with a direct nudge of the incumbent, refining below the
        // surrogate's resolution.
        let mut out: Vec<Configuration> = Vec::with_capacity(q);
        if history.len() % 3 == 2 {
            out.extend(Self::nudge(space, history, rng));
        }
        if out.len() < q {
            for (_, c) in self.evolve(space, history, rng) {
                if out.len() >= q {
                    break;
                }
                if history.iter().any(|o| o.config == c) || out.contains(&c) {
                    continue;
                }
                out.push(c);
            }
        }
        while out.len() < q {
            out.push(sample::uniform(space, rng));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn genetic_improves_on_a_synthetic_surface() {
        let space = ParamSpace::new()
            .with(confspace::ParamDef::int("a", 0, 100, 50, ""))
            .with(confspace::ParamDef::int("b", 0, 100, 50, ""));
        let eval = |c: &Configuration| {
            let a = c.int("a") as f64;
            let b = c.int("b") as f64;
            5.0 + ((a - 20.0) / 15.0).powi(2) + ((b - 80.0) / 15.0).powi(2)
        };
        let mut t = Genetic::new();
        let mut rng = StdRng::seed_from_u64(4);
        let mut history = Vec::new();
        for _ in 0..30 {
            let cfg = t.propose(&space, &history, 1, &mut rng).remove(0);
            assert!(space.validate(&cfg).is_ok());
            history.push(Observation {
                runtime_s: eval(&cfg),
                config: cfg,
                cost_usd: 0.0,
                metrics: None,
                failure: None,
            });
        }
        let best = crate::tuner::best_observation(&history).unwrap().runtime_s;
        let init_best = crate::tuner::best_so_far(&history)[t.init_samples - 1];
        assert!(
            best <= init_best,
            "GA should not regress: {best} vs {init_best}"
        );
        assert!(best < 9.0, "best {best}");
    }

    #[test]
    fn avoids_re_proposing_evaluated_configs() {
        let space = ParamSpace::new().with(confspace::ParamDef::int("a", 0, 3, 0, ""));
        let mut t = Genetic::new();
        t.init_samples = 2;
        let mut rng = StdRng::seed_from_u64(5);
        let mut history = Vec::new();
        for _ in 0..4 {
            let cfg = t.propose(&space, &history, 1, &mut rng).remove(0);
            history.push(Observation {
                runtime_s: cfg.int("a") as f64 + 1.0,
                config: cfg,
                cost_usd: 0.0,
                metrics: None,
                failure: None,
            });
        }
        // With only 4 configs in the space, all 4 should be covered.
        let mut seen: Vec<i64> = history.iter().map(|o| o.config.int("a")).collect();
        seen.sort_unstable();
        seen.dedup();
        assert!(seen.len() >= 3, "explored {seen:?}");
    }
}
