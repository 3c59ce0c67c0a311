//! PARIS-style random-forest surrogate search (Yadwadkar et al. \[30\]):
//! a bagged forest models the configuration→runtime surface and
//! candidates are ranked by a lower confidence bound over the
//! ensemble's mean and spread.

use confspace::{CandidatePool, Configuration, ParamSpace};
use models::{lower_confidence_bound, ForestParams, RandomForest};
use rand::RngCore;

use crate::objective::{Observation, FAILURE_PENALTY_S};
use crate::tuner::{
    constant_liar, encode_censored, encode_history, next_lhs_point, proximity, Tuner,
};

/// Warm-up design size.
const INIT_SAMPLES: usize = 10;

/// Candidates scored per proposal.
const CANDIDATES: usize = 256;

/// Exploration weight on the ensemble spread.
const BETA: f64 = 1.0;

/// Random-forest surrogate search with LCB acquisition.
#[derive(Debug, Clone, Default)]
pub struct ForestTuner {
    pending_init: Vec<Configuration>,
    /// Typed candidate rows, redrawn every proposal.
    pool: CandidatePool,
}

impl ForestTuner {
    /// Creates the strategy.
    pub fn new() -> Self {
        Self::default()
    }

    fn propose_one(
        &mut self,
        space: &ParamSpace,
        history: &[Observation],
        rng: &mut dyn RngCore,
    ) -> Configuration {
        // Censored observations don't count towards warm-up: the
        // forest needs real measurements to fit.
        let survivors = history.iter().filter(|o| !o.is_censored()).count();
        if survivors < INIT_SAMPLES {
            return next_lhs_point(&mut self.pending_init, space, INIT_SAMPLES, rng);
        }
        let (x, y) = encode_history(space, history);
        let forest = RandomForest::fit(&x, &y, ForestParams::default(), rng);
        let censored = encode_censored(space, history);
        // Score typed candidate rows; only the winner becomes a
        // configuration.
        self.pool.reset(space);
        for _ in 0..CANDIDATES {
            self.pool.push_uniform(space, rng);
        }
        (0..self.pool.len())
            .map(|i| {
                let point = self.pool.encoding(i);
                let (m, s) = forest.predict_with_std(point);
                let mut score = lower_confidence_bound(m, s, BETA);
                if !censored.is_empty() {
                    // LCB minimizes, so censored regions add a penalty
                    // proportional to proximity — the forest has no data
                    // there and must not look optimistic.
                    let near = censored
                        .iter()
                        .map(|bad| proximity(point, bad))
                        .fold(0.0, f64::max);
                    score += FAILURE_PENALTY_S.ln() * near;
                }
                (i, score)
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(i, _)| self.pool.config(space, i))
            .unwrap_or_else(|| space.default_configuration())
    }
}

impl Tuner for ForestTuner {
    fn name(&self) -> &str {
        "forest"
    }

    fn propose(
        &mut self,
        space: &ParamSpace,
        history: &[Observation],
        q: usize,
        rng: &mut dyn RngCore,
    ) -> Vec<Configuration> {
        constant_liar(history, q, |h| self.propose_one(space, h, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forest_tuner_improves_over_warmup() {
        let space = ParamSpace::new()
            .with(confspace::ParamDef::int("a", 0, 100, 50, ""))
            .with(confspace::ParamDef::int("b", 0, 100, 50, ""));
        let eval = |c: &Configuration| {
            let a = c.int("a") as f64;
            let b = c.int("b") as f64;
            3.0 + ((a - 90.0) / 20.0).powi(2) + ((b - 10.0) / 20.0).powi(2)
        };
        let mut t = ForestTuner::new();
        let mut rng = StdRng::seed_from_u64(2);
        let mut history = Vec::new();
        for _ in 0..35 {
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
        let curve = crate::tuner::best_so_far(&history);
        assert!(
            curve.last().unwrap() < &curve[INIT_SAMPLES - 1],
            "model phase should beat warm-up"
        );
    }
}
