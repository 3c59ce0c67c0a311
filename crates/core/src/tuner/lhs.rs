//! Latin-hypercube search: stratified batches instead of i.i.d. draws.

use confspace::{Configuration, ParamSpace};
use rand::RngCore;

use crate::objective::Observation;
use crate::tuner::{next_lhs_point, Tuner};

/// Latin-hypercube search: draws configurations in stratified batches
/// of `batch` samples, guaranteeing per-dimension coverage within each
/// batch.
#[derive(Debug, Clone, Default)]
pub struct LhsSearch {
    batch: usize,
    pending: Vec<Configuration>,
}

impl LhsSearch {
    /// Creates the strategy with the given batch size.
    ///
    /// # Panics
    ///
    /// Panics when `batch == 0`.
    pub fn new(batch: usize) -> Self {
        assert!(batch > 0, "batch must be positive");
        LhsSearch {
            batch,
            pending: Vec::new(),
        }
    }
}

impl Tuner for LhsSearch {
    fn name(&self) -> &str {
        "lhs"
    }

    /// Native batch: drains the pending stratified design (refilling at
    /// block boundaries), so a batch keeps the per-dimension coverage
    /// guarantee of its enclosing LHS block.
    fn propose(
        &mut self,
        space: &ParamSpace,
        _history: &[Observation],
        q: usize,
        rng: &mut dyn RngCore,
    ) -> Vec<Configuration> {
        (0..q)
            .map(|_| next_lhs_point(&mut self.pending, space, self.batch, rng))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn batches_are_stratified() {
        let space = ParamSpace::new().with(confspace::ParamDef::float("f", 0.0, 1.0, 0.5, ""));
        let mut t = LhsSearch::new(8);
        let mut rng = StdRng::seed_from_u64(2);
        let mut strata: Vec<usize> = (0..8)
            .map(|_| {
                let c = t.propose(&space, &[], 1, &mut rng).remove(0);
                ((c.float("f") * 8.0).floor() as usize).min(7)
            })
            .collect();
        strata.sort_unstable();
        assert_eq!(strata, (0..8).collect::<Vec<_>>());
    }
}
