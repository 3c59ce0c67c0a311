//! Bagged random forests — PARIS's model family for VM-type selection
//! (§II-A): bootstrap resampling + random-subspace CART trees, with an
//! ensemble-spread uncertainty estimate.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::par;
use crate::stats::{mean, std_dev};
use crate::tree::{RegressionTree, TreeParams};

/// Hyperparameters for forest induction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree parameters (feature subsampling defaults to √d).
    pub tree: TreeParams,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_trees: 30,
            tree: TreeParams::default(),
        }
    }
}

/// Candidate features per split: the configured subsample, or √d.
fn feature_subsample(d: usize, params: &ForestParams) -> usize {
    params
        .tree
        .feature_subsample
        .unwrap_or_else(|| ((d as f64).sqrt().ceil() as usize).max(1))
}

/// Estimated work of growing the forest on `x`, in the units of
/// [`par::PAR_WORK_CUTOFF`]: every tree scans each candidate feature's
/// thresholds over the node's points at each of ~log₂ n levels. A
/// threshold scan reads its points through an index, which measures
/// at about 8 multiply-adds per point.
fn fit_work(x: &[Vec<f64>], params: &ForestParams) -> u64 {
    let n = x.len().max(1);
    let subsample = feature_subsample(x.first().map_or(0, Vec::len), params);
    let levels = n.next_power_of_two().trailing_zeros() as usize;
    (params.n_trees * n * levels * subsample * params.tree.max_thresholds * 8) as u64
}

/// A fitted random forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<RegressionTree>,
}

impl RandomForest {
    /// Fits a forest on `(x, y)` with bootstrap resampling.
    ///
    /// Trees are induced in parallel over [`par::threads_for`] the
    /// fit's estimated work, so forests on fewer than ~20 points are
    /// grown inline. Each tree gets its own seed split off the master
    /// RNG up front, so the fitted forest depends only on the seed —
    /// not on the thread count or interleaving.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or lengths mismatch.
    pub fn fit<R: Rng + ?Sized>(
        x: &[Vec<f64>],
        y: &[f64],
        params: ForestParams,
        rng: &mut R,
    ) -> Self {
        let threads = par::threads_for(fit_work(x, &params));
        Self::fit_threads(x, y, params, rng, threads)
    }

    /// [`RandomForest::fit`] with an explicit worker count
    /// (equivalence tests pin this; `1` is a fully sequential fit).
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or lengths mismatch.
    pub fn fit_threads<R: Rng + ?Sized>(
        x: &[Vec<f64>],
        y: &[f64],
        params: ForestParams,
        rng: &mut R,
        threads: usize,
    ) -> Self {
        assert!(!x.is_empty(), "forest needs at least one sample");
        assert_eq!(x.len(), y.len(), "X and y length mismatch");
        let subsample = feature_subsample(x[0].len(), &params);
        let tree_params = TreeParams {
            feature_subsample: Some(subsample),
            ..params.tree
        };
        let n = x.len();
        let seeds: Vec<u64> = (0..params.n_trees.max(1)).map(|_| rng.next_u64()).collect();
        let trees = par::par_map_threads(&seeds, threads, |&seed| {
            let mut tree_rng = StdRng::seed_from_u64(seed);
            let (bx, by): (Vec<Vec<f64>>, Vec<f64>) = (0..n)
                .map(|_| {
                    let i = tree_rng.gen_range(0..n);
                    (x[i].clone(), y[i])
                })
                .unzip();
            RegressionTree::fit(&bx, &by, tree_params, &mut tree_rng)
        });
        RandomForest { trees }
    }

    /// Ensemble-mean prediction at `q`.
    pub fn predict(&self, q: &[f64]) -> f64 {
        mean(&self.tree_predictions(q))
    }

    /// Ensemble mean and spread (standard deviation across trees) —
    /// a cheap uncertainty proxy for acquisition functions.
    pub fn predict_with_std(&self, q: &[f64]) -> (f64, f64) {
        let preds = self.tree_predictions(q);
        (mean(&preds), std_dev(&preds))
    }

    /// Number of trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the forest has no trees (never true after `fit`).
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    fn tree_predictions(&self, q: &[f64]) -> Vec<f64> {
        self.trees.iter().map(|t| t.predict(q)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quadratic_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![i as f64 / (n - 1) as f64, (i % 5) as f64 / 4.0])
            .collect();
        let y: Vec<f64> = x.iter().map(|v| (v[0] - 0.5).powi(2) * 10.0).collect();
        (x, y)
    }

    #[test]
    fn forest_fits_a_smooth_function_roughly() {
        let (x, y) = quadratic_data(80);
        let mut rng = StdRng::seed_from_u64(1);
        let f = RandomForest::fit(&x, &y, ForestParams::default(), &mut rng);
        assert!((f.predict(&[0.5, 0.0]) - 0.0).abs() < 0.5);
        assert!((f.predict(&[0.0, 0.0]) - 2.5).abs() < 1.0);
    }

    #[test]
    fn spread_is_larger_off_distribution() {
        let (x, y) = quadratic_data(60);
        let mut rng = StdRng::seed_from_u64(2);
        let f = RandomForest::fit(&x, &y, ForestParams::default(), &mut rng);
        let (_, s_on) = f.predict_with_std(&[0.5, 0.5]);
        let (_, s_edge) = f.predict_with_std(&[0.98, 0.98]);
        // Not guaranteed pointwise, but edges extrapolate across trees.
        assert!(s_edge >= 0.0 && s_on >= 0.0);
        assert_eq!(f.len(), 30);
    }

    #[test]
    fn deterministic_under_seed() {
        let (x, y) = quadratic_data(40);
        let fa = RandomForest::fit(
            &x,
            &y,
            ForestParams::default(),
            &mut StdRng::seed_from_u64(7),
        );
        let fb = RandomForest::fit(
            &x,
            &y,
            ForestParams::default(),
            &mut StdRng::seed_from_u64(7),
        );
        assert_eq!(fa.predict(&[0.3, 0.3]), fb.predict(&[0.3, 0.3]));
    }
}
