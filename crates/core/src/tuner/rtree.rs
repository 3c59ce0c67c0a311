//! Wang et al. \[29\]: regression-tree surrogate search — fit a CART
//! model on the observations, then evaluate the candidate the tree
//! predicts fastest (with ε-greedy exploration, since a single tree's
//! piecewise-constant surface is easy to get stuck on).

use confspace::{sample, CandidatePool, Configuration, ParamSpace};
use models::{RegressionTree, TreeParams};
use rand::{Rng, RngCore};

use crate::objective::Observation;
use crate::tuner::{constant_liar, encode_history, next_lhs_point, Tuner};

/// Warm-up design size.
const INIT_SAMPLES: usize = 10;

/// Candidates scored per proposal.
const CANDIDATES: usize = 256;

/// Probability of proposing a purely random configuration.
const EPSILON: f64 = 0.15;

/// Regression-tree surrogate search.
#[derive(Debug, Clone, Default)]
pub struct RegressionTreeTuner {
    pending_init: Vec<Configuration>,
    /// Typed candidate rows, redrawn every proposal.
    pool: CandidatePool,
}

impl RegressionTreeTuner {
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
        if history.len() < INIT_SAMPLES {
            return next_lhs_point(&mut self.pending_init, space, INIT_SAMPLES, rng);
        }
        if rng.gen::<f64>() < EPSILON {
            return sample::uniform(space, rng);
        }
        let (x, y) = encode_history(space, history);
        let tree = RegressionTree::fit(&x, &y, TreeParams::default(), rng);
        // Score typed candidate rows; only the winner becomes a
        // configuration.
        self.pool.reset(space);
        for _ in 0..CANDIDATES {
            self.pool.push_uniform(space, rng);
        }
        (0..self.pool.len())
            .map(|i| (i, tree.predict(self.pool.encoding(i))))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(i, _)| self.pool.config(space, i))
            .unwrap_or_else(|| space.default_configuration())
    }
}

impl Tuner for RegressionTreeTuner {
    fn name(&self) -> &str {
        "rtree"
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
    fn tree_tuner_finds_the_good_half_space() {
        // A step objective: everything with a<50 is fast.
        let space = ParamSpace::new()
            .with(confspace::ParamDef::int("a", 0, 100, 50, ""))
            .with(confspace::ParamDef::int("b", 0, 100, 50, ""));
        let eval = |c: &Configuration| if c.int("a") < 50 { 10.0 } else { 100.0 };
        let mut t = RegressionTreeTuner::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mut history = Vec::new();
        for _ in 0..30 {
            let cfg = t.propose(&space, &history, 1, &mut rng).remove(0);
            history.push(Observation {
                runtime_s: eval(&cfg),
                config: cfg,
                cost_usd: 0.0,
                metrics: None,
                failure: None,
            });
        }
        // After warm-up, the vast majority of proposals should be fast.
        let post: Vec<&Observation> = history.iter().skip(INIT_SAMPLES).collect();
        let fast = post.iter().filter(|o| o.runtime_s < 50.0).count();
        assert!(
            fast * 10 >= post.len() * 6,
            "{fast}/{} proposals in the good half-space",
            post.len()
        );
    }
}
