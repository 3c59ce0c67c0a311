//! Uniform random search — the methodology behind the paper's own
//! Table I experiment ("we ran the workload using 100 random
//! configurations to find the best configuration").

use confspace::{sample, Configuration, ParamSpace};
use rand::RngCore;

use crate::objective::Observation;
use crate::tuner::Tuner;

/// Uniform random search over the space.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomSearch;

impl Tuner for RandomSearch {
    fn name(&self) -> &str {
        "random"
    }

    /// One Latin-hypercube block per round, which is one uniform draw
    /// in a round of one: a batch of i.i.d. draws wastes budget on
    /// clustered samples, an LHS block of the same size guarantees
    /// per-dimension coverage for free.
    fn propose(
        &mut self,
        space: &ParamSpace,
        _history: &[Observation],
        q: usize,
        rng: &mut dyn RngCore,
    ) -> Vec<Configuration> {
        sample::latin_hypercube(space, q, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn proposals_are_valid_and_varied() {
        let space = confspace::spark::spark_space();
        let mut t = RandomSearch;
        let mut rng = StdRng::seed_from_u64(1);
        let a = t.propose(&space, &[], 1, &mut rng).remove(0);
        let b = t.propose(&space, &[], 1, &mut rng).remove(0);
        assert!(space.validate(&a).is_ok());
        assert!(space.validate(&b).is_ok());
        assert_ne!(a, b);
    }
}
