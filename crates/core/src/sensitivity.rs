//! Parameter-sensitivity analysis (§V-A): models that can *transfer
//! their tuning knowledge* need to expose which parameters matter and
//! how — "the key knowledge to transfer is the correlation between the
//! different configuration parameters and the workload performance".
//!
//! Two complementary analyses over a tuning history:
//!
//! * [`additive_effects`] — fit a Duvenaud-style additive-kernel GP and
//!   read off each dimension's one-dimensional effect curve (the model
//!   *is* a sum of per-parameter functions, so the decomposition is
//!   exact for the model);
//! * [`permutation_importance`] — fit a random forest and measure how
//!   much shuffling each feature degrades its predictions (works for
//!   arbitrary interactions).

use confspace::ParamSpace;
use models::{ForestParams, GpRegressor, Kernel, RandomForest};
use rand::seq::SliceRandom;
use rand::RngCore;
use serde::{Deserialize, Serialize};

use crate::objective::Observation;
use crate::tuner::encode_history;

/// One parameter's extracted effect.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParameterEffect {
    /// Parameter name.
    pub name: String,
    /// `(encoded value, predicted ln-runtime)` samples of the effect
    /// curve, holding every other parameter at the incumbent.
    pub curve: Vec<(f64, f64)>,
    /// Peak-to-trough magnitude of the curve (ln-runtime units) — the
    /// parameter's leverage.
    pub leverage: f64,
}

/// A ranked sensitivity report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensitivityReport {
    /// Per-parameter effects, sorted by decreasing leverage.
    pub effects: Vec<ParameterEffect>,
}

impl SensitivityReport {
    /// Names of the `k` highest-leverage parameters.
    pub fn top(&self, k: usize) -> Vec<&str> {
        self.effects
            .iter()
            .take(k)
            .map(|e| e.name.as_str())
            .collect()
    }
}

/// Grid resolution of the effect curves.
const GRID: usize = 9;

/// Fits an additive-kernel GP on the history and extracts each
/// parameter's one-dimensional effect curve around the best observed
/// configuration.
///
/// # Panics
///
/// Panics when `history` has no successful observation.
pub fn additive_effects(space: &ParamSpace, history: &[Observation]) -> SensitivityReport {
    let ok: Vec<Observation> = history.iter().filter(|o| o.is_ok()).cloned().collect();
    let Some(incumbent) = ok
        .iter()
        .min_by(|a, b| a.runtime_s.total_cmp(&b.runtime_s))
        .cloned()
    else {
        panic!("sensitivity analysis needs at least one successful run");
    };
    let (x, y) = encode_history(space, &ok);
    let gp = GpRegressor::fit_auto(
        &x,
        &y,
        Kernel::Additive {
            length_scale: 0.3,
            variance: 1.0,
        },
    );
    let base = space.encode(&incumbent.config);

    let mut effects: Vec<ParameterEffect> = space
        .params()
        .iter()
        .enumerate()
        .map(|(d, p)| {
            // One batched prediction per parameter: the GRID queries
            // go through the GP's blocked kernel together.
            let queries: Vec<Vec<f64>> = (0..GRID)
                .map(|g| {
                    let mut q = base.clone();
                    q[d] = g as f64 / (GRID - 1) as f64;
                    q
                })
                .collect();
            let curve: Vec<(f64, f64)> = queries
                .iter()
                .zip(gp.predict_batch(&queries))
                .map(|(q, (m, _))| (q[d], m))
                .collect();
            let (lo, hi) = curve
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &(_, m)| {
                    (l.min(m), h.max(m))
                });
            ParameterEffect {
                name: p.name.clone(),
                leverage: hi - lo,
                curve,
            }
        })
        .collect();
    effects.sort_by(|a, b| b.leverage.total_cmp(&a.leverage));
    SensitivityReport { effects }
}

/// Random-forest permutation importance: how much each feature's
/// shuffling inflates the forest's squared error on the history itself.
///
/// # Panics
///
/// Panics when `history` has no successful observation.
pub fn permutation_importance(
    space: &ParamSpace,
    history: &[Observation],
    rng: &mut dyn RngCore,
) -> SensitivityReport {
    let ok: Vec<Observation> = history.iter().filter(|o| o.is_ok()).cloned().collect();
    assert!(
        !ok.is_empty(),
        "sensitivity analysis needs at least one successful run"
    );
    let (x, y) = encode_history(space, &ok);
    let forest = RandomForest::fit(&x, &y, ForestParams::default(), rng);

    let sse = |xs: &[Vec<f64>]| -> f64 {
        xs.iter()
            .zip(&y)
            .map(|(xi, yi)| {
                let p = forest.predict(xi);
                (p - yi) * (p - yi)
            })
            .sum()
    };
    let baseline = sse(&x);

    let mut effects: Vec<ParameterEffect> = space
        .params()
        .iter()
        .enumerate()
        .map(|(d, p)| {
            // Shuffle column d.
            let mut col: Vec<f64> = x.iter().map(|r| r[d]).collect();
            col.shuffle(rng);
            let shuffled: Vec<Vec<f64>> = x
                .iter()
                .zip(&col)
                .map(|(r, &v)| {
                    let mut r = r.clone();
                    r[d] = v;
                    r
                })
                .collect();
            let inflation = (sse(&shuffled) - baseline).max(0.0) / ok.len() as f64;
            ParameterEffect {
                name: p.name.clone(),
                leverage: inflation.sqrt(),
                curve: Vec::new(),
            }
        })
        .collect();
    effects.sort_by(|a, b| b.leverage.total_cmp(&a.leverage));
    SensitivityReport { effects }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confspace::{Configuration, ParamDef};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A synthetic history where only `a` matters.
    fn history(space: &ParamSpace, n: usize) -> Vec<Observation> {
        let mut rng = StdRng::seed_from_u64(1);
        (0..n)
            .map(|_| {
                let config = confspace::sample::uniform(space, &mut rng);
                let a = config.int("a") as f64;
                Observation {
                    runtime_s: (10.0 + (a - 20.0).powi(2)).max(1.0),
                    config,
                    cost_usd: 0.0,
                    metrics: None,
                    failure: None,
                }
            })
            .collect()
    }

    fn space() -> ParamSpace {
        ParamSpace::new()
            .with(ParamDef::int("a", 0, 100, 50, "matters"))
            .with(ParamDef::int("b", 0, 100, 50, "inert"))
            .with(ParamDef::boolean("c", false, "inert"))
    }

    #[test]
    fn additive_effects_rank_the_informative_parameter_first() {
        let s = space();
        let h = history(&s, 40);
        let report = additive_effects(&s, &h);
        assert_eq!(report.top(1), vec!["a"]);
        let b = report.effects.iter().find(|e| e.name == "b").unwrap();
        assert!(report.effects[0].leverage > b.leverage);
        // Curves exist with the right resolution.
        assert_eq!(report.effects[0].curve.len(), GRID);
    }

    #[test]
    fn permutation_importance_agrees() {
        let s = space();
        let h = history(&s, 60);
        let mut rng = StdRng::seed_from_u64(2);
        let report = permutation_importance(&s, &h, &mut rng);
        assert_eq!(report.top(1), vec!["a"]);
    }

    #[test]
    fn effect_curve_dips_at_the_optimum() {
        let s = space();
        let h = history(&s, 60);
        let report = additive_effects(&s, &h);
        let a = report
            .effects
            .iter()
            .find(|e| e.name == "a")
            .expect("a is present");
        // The minimum of a's curve should be near encoded 0.2 (a=20).
        let (argmin, _) = a
            .curve
            .iter()
            .min_by(|x, y| x.1.total_cmp(&y.1))
            .expect("non-empty");
        assert!((argmin - 0.2).abs() < 0.2, "curve minimum at {argmin}");
    }

    #[test]
    #[should_panic(expected = "at least one successful run")]
    fn empty_history_panics() {
        let s = space();
        let failed = vec![Observation {
            config: Configuration::new(),
            runtime_s: crate::FAILURE_PENALTY_S,
            cost_usd: 0.0,
            metrics: None,
            failure: Some(simcluster::FailureKind::DriverOom),
        }];
        let _ = additive_effects(&s, &failed);
    }
}
