//! Wang et al. \[29\]: regression-tree surrogate search — fit a CART
//! model on the observations, then evaluate the candidate the tree
//! predicts fastest (with ε-greedy exploration, since a single tree's
//! piecewise-constant surface is easy to get stuck on).

use confspace::{
    CandidatePool, Configuration, LatinHypercube, ParamSpace, Sampler, UniformSampler,
};
use models::{RegressionTree, TreeParams};
use rand::{Rng, RngCore};

use crate::objective::Observation;
use crate::tuner::{encode_history, Tuner};

/// Regression-tree surrogate search.
#[derive(Debug, Clone)]
pub struct RegressionTreeTuner {
    /// Warm-up design size.
    pub init_samples: usize,
    /// Candidates scored per proposal.
    pub candidates: usize,
    /// Probability of proposing a purely random configuration.
    pub epsilon: f64,
    pending_init: Vec<Configuration>,
    /// Typed candidate rows, redrawn every proposal.
    pool: CandidatePool,
}

impl Default for RegressionTreeTuner {
    fn default() -> Self {
        Self::new()
    }
}

impl RegressionTreeTuner {
    /// Creates the strategy.
    pub fn new() -> Self {
        RegressionTreeTuner {
            init_samples: 10,
            candidates: 256,
            epsilon: 0.15,
            pending_init: Vec::new(),
            pool: CandidatePool::default(),
        }
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
        rng: &mut dyn RngCore,
    ) -> Configuration {
        if history.len() < self.init_samples {
            if self.pending_init.is_empty() {
                self.pending_init = LatinHypercube.sample_n(space, self.init_samples, rng);
            }
            if let Some(c) = self.pending_init.pop() {
                return c;
            }
        }
        if rng.gen::<f64>() < self.epsilon {
            return UniformSampler.sample(space, rng);
        }
        let (x, y) = encode_history(space, history);
        let tree = RegressionTree::fit(&x, &y, TreeParams::default(), rng);
        // Score typed candidate rows; only the winner becomes a
        // configuration.
        self.pool.reset(space);
        for _ in 0..self.candidates {
            self.pool.push_uniform(space, rng);
        }
        (0..self.pool.len())
            .map(|i| (i, tree.predict(self.pool.encoding(i))))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(i, _)| self.pool.config(space, i))
            .unwrap_or_else(|| space.default_configuration())
    }

    fn reset(&mut self) {
        self.pending_init.clear();
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
            let cfg = t.propose(&space, &history, &mut rng);
            history.push(Observation {
                runtime_s: eval(&cfg),
                config: cfg,
                cost_usd: 0.0,
                metrics: None,
                failure: None,
            });
        }
        // After warm-up, the vast majority of proposals should be fast.
        let post: Vec<&Observation> = history.iter().skip(t.init_samples).collect();
        let fast = post.iter().filter(|o| o.runtime_s < 50.0).count();
        assert!(
            fast * 10 >= post.len() * 6,
            "{fast}/{} proposals in the good half-space",
            post.len()
        );
    }
}
