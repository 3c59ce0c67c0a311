//! Configuration-tuning strategies.
//!
//! One sub-module per strategy from the paper's survey (§II), all
//! implementing the [`Tuner`] trait:
//!
//! | module | strategy | system in the paper |
//! |--------|----------|---------------------|
//! | [`random`] | uniform random search | the Table I methodology |
//! | [`lhs`] | Latin-hypercube search | stratified baseline |
//! | [`hillclimb`] | restart hill climbing | MROnline \[25\] |
//! | [`bo`] | GP Bayesian optimization (Matérn 5/2 + EI) | CherryPick \[10\] |
//! | [`bo`] ([`BayesOpt::additive`]) | BO with additive GP kernel | Duvenaud et al. (§V-A) |
//! | [`genetic`] | surrogate-assisted genetic search | DAC \[31\] |
//! | [`bestconfig`] | divide-&-diverge + recursive bound-&-search | BestConfig \[35\] |
//! | [`rtree`] | regression-tree surrogate search | Wang et al. \[29\] |
//! | [`forest`] | random-forest surrogate search | PARIS \[30\] |
//! | [`ernest`] | analytic machine-scaling model | Ernest \[28\] |
//! | [`rl`] | ε-greedy Q-learning over parameter nudges | Bu et al. \[11\] |

pub mod bestconfig;
pub mod bo;
pub mod ernest;
pub mod forest;
pub mod genetic;
pub mod hillclimb;
pub mod lhs;
pub mod random;
pub mod rl;
pub mod rtree;

use confspace::{Configuration, ParamSpace};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::executor::{DegradationReport, RetryPolicy, TrialExecutor, TrialOutcome};
use crate::faults::FaultInjector;
use crate::objective::{Objective, Observation};

pub use bestconfig::BestConfig;
pub use bo::BayesOpt;
pub use ernest::Ernest;
pub use forest::ForestTuner;
pub use genetic::Genetic;
pub use hillclimb::HillClimb;
pub use lhs::LhsSearch;
pub use random::RandomSearch;
pub use rl::RlTuner;
pub use rtree::RegressionTreeTuner;

/// A configuration-tuning strategy.
///
/// The tuning loop alternates `propose_batch` → evaluation; the full
/// history (in evaluation order) is passed back on each call, so
/// strategies may be implemented statelessly or keep internal state.
pub trait Tuner {
    /// The strategy's display name.
    fn name(&self) -> &str;

    /// Proposes the next configuration to evaluate.
    fn propose(
        &mut self,
        space: &ParamSpace,
        history: &[Observation],
        rng: &mut dyn RngCore,
    ) -> Configuration;

    /// Proposes `q` configurations to evaluate concurrently.
    ///
    /// With `q == 1` every implementation (including every override)
    /// must emit exactly what [`Tuner::propose`] would, bit for bit.
    /// The default implementation for `q > 1` is the *constant liar*:
    /// each proposal is committed to the visible history as a fake
    /// observation at the incumbent runtime, so model-based strategies
    /// spread the batch instead of proposing the same point `q` times.
    /// Strategies with a natural batch (stratified designs, GA
    /// generations, q-EI) override this.
    fn propose_batch(
        &mut self,
        space: &ParamSpace,
        history: &[Observation],
        q: usize,
        rng: &mut dyn RngCore,
    ) -> Vec<Configuration> {
        if q <= 1 {
            return vec![self.propose(space, history, rng)];
        }
        let lie = constant_lie_runtime(history);
        let mut augmented = history.to_vec();
        let mut batch = Vec::with_capacity(q);
        for _ in 0..q {
            let cfg = self.propose(space, &augmented, rng);
            augmented.push(Observation {
                config: cfg.clone(),
                runtime_s: lie,
                cost_usd: 0.0,
                metrics: None,
                failure: None,
            });
            batch.push(cfg);
        }
        batch
    }

    /// Clears internal state for a fresh session.
    fn reset(&mut self) {}
}

/// The runtime a constant-liar batch pretends its pending trials
/// observed: the incumbent's runtime (CL-min) when one exists, else the
/// mean of successful runs, else a neutral 1s placeholder (harmless —
/// with no history every strategy is still in its warm-up design).
pub fn constant_lie_runtime(history: &[Observation]) -> f64 {
    if let Some(best) = best_observation(history) {
        return best.runtime_s;
    }
    if history.is_empty() {
        1.0
    } else {
        // Every run so far failed: lie at the (penalty) mean so the
        // surrogate keeps steering away from the batch's region.
        history.iter().map(|o| o.runtime_s).sum::<f64>() / history.len() as f64
    }
}

/// The catalog of built-in strategies (factory enum).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TunerKind {
    /// Uniform random search.
    Random,
    /// Latin-hypercube search.
    Lhs,
    /// MROnline-style hill climbing.
    HillClimb,
    /// CherryPick-style Bayesian optimization.
    BayesOpt,
    /// Bayesian optimization with an additive GP kernel.
    AdditiveBayesOpt,
    /// DAC-style surrogate-assisted genetic search.
    Genetic,
    /// BestConfig's divide-and-diverge + recursive bound-and-search.
    BestConfig,
    /// Wang-style regression-tree surrogate search.
    RegressionTree,
    /// PARIS-style random-forest surrogate search.
    RandomForest,
    /// Ernest's analytic machine-scaling model.
    Ernest,
    /// Bu-et-al-style reinforcement-learning nudges.
    Rl,
}

impl TunerKind {
    /// Every built-in strategy.
    pub fn all() -> Vec<TunerKind> {
        vec![
            TunerKind::Random,
            TunerKind::Lhs,
            TunerKind::HillClimb,
            TunerKind::BayesOpt,
            TunerKind::AdditiveBayesOpt,
            TunerKind::Genetic,
            TunerKind::BestConfig,
            TunerKind::RegressionTree,
            TunerKind::RandomForest,
            TunerKind::Ernest,
            TunerKind::Rl,
        ]
    }

    /// Instantiates the strategy with default hyperparameters.
    pub fn build(self) -> Box<dyn Tuner> {
        match self {
            TunerKind::Random => Box::new(RandomSearch),
            TunerKind::Lhs => Box::new(LhsSearch::new(16)),
            TunerKind::HillClimb => Box::new(HillClimb::new()),
            TunerKind::BayesOpt => Box::new(BayesOpt::new()),
            TunerKind::AdditiveBayesOpt => Box::new(BayesOpt::additive()),
            TunerKind::Genetic => Box::new(Genetic::new()),
            TunerKind::BestConfig => Box::new(BestConfig::new(12)),
            TunerKind::RegressionTree => Box::new(RegressionTreeTuner::new()),
            TunerKind::RandomForest => Box::new(ForestTuner::new()),
            TunerKind::Ernest => Box::new(Ernest::new()),
            TunerKind::Rl => Box::new(RlTuner::new()),
        }
    }

    /// The strategy's display name.
    pub fn label(self) -> &'static str {
        match self {
            TunerKind::Random => "random",
            TunerKind::Lhs => "lhs",
            TunerKind::HillClimb => "hillclimb",
            TunerKind::BayesOpt => "bayesopt",
            TunerKind::AdditiveBayesOpt => "additive-bo",
            TunerKind::Genetic => "genetic",
            TunerKind::BestConfig => "bestconfig",
            TunerKind::RegressionTree => "rtree",
            TunerKind::RandomForest => "forest",
            TunerKind::Ernest => "ernest",
            TunerKind::Rl => "rl",
        }
    }
}

impl std::fmt::Display for TunerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The result of one tuning session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TuningOutcome {
    /// Every observation, in evaluation order.
    pub history: Vec<Observation>,
    /// The best successful observation, if any run succeeded.
    pub best: Option<Observation>,
    /// Resilience statistics. Every session reports one; it is empty
    /// ([`DegradationReport::degraded`] is false) when the session ran
    /// clean. A session that blew its round failure budget still returns
    /// here — partial history, `budget_exhausted == true` — instead of
    /// erroring.
    pub degradation: Option<DegradationReport>,
}

impl TuningOutcome {
    /// Best runtime found (∞ when every run failed).
    pub fn best_runtime_s(&self) -> f64 {
        self.best.as_ref().map_or(f64::INFINITY, |o| o.runtime_s)
    }

    /// The best configuration found, when any run succeeded.
    pub fn best_config(&self) -> Option<&Configuration> {
        self.best.as_ref().map(|o| &o.config)
    }

    /// Best-so-far runtime curve (index = evaluations used − 1).
    pub fn best_so_far(&self) -> Vec<f64> {
        best_so_far(&self.history)
    }

    /// Total tuning cost in dollars (sum of all evaluation costs).
    pub fn total_cost_usd(&self) -> f64 {
        self.history.iter().map(|o| o.cost_usd).sum()
    }

    /// Total machine time consumed by tuning (s).
    pub fn total_machine_time_s(&self) -> f64 {
        self.history.iter().map(|o| o.runtime_s).sum()
    }

    /// Whether the session degraded: any trial failed or timed out, or
    /// the failure budget ended it early.
    pub fn is_degraded(&self) -> bool {
        self.degradation.as_ref().is_some_and(|d| d.degraded())
    }

    /// Number of evaluations needed to get within `pct` (e.g. 0.10) of
    /// the session's final best runtime; `None` when no run succeeded.
    pub fn evals_to_within(&self, pct: f64) -> Option<usize> {
        let target = self.best_runtime_s() * (1.0 + pct);
        self.best_so_far()
            .iter()
            .position(|&b| b <= target)
            .map(|i| i + 1)
    }
}

/// Best-so-far runtime curve over a raw history.
pub fn best_so_far(history: &[Observation]) -> Vec<f64> {
    let mut best = f64::INFINITY;
    history
        .iter()
        .map(|o| {
            if o.is_ok() {
                best = best.min(o.runtime_s);
            }
            best
        })
        .collect()
}

/// The best successful observation in a history.
pub fn best_observation(history: &[Observation]) -> Option<&Observation> {
    history
        .iter()
        .filter(|o| o.is_ok())
        .min_by(|a, b| a.runtime_s.total_cmp(&b.runtime_s))
}

/// Encodes a history for surrogate models: features in `[0,1]^d`,
/// targets as `ln(runtime)` (the log tames the failure penalty and the
/// heavy right tail of runtime distributions).
///
/// Censored observations ([`Observation::is_censored`]) are dropped:
/// their penalty runtime is a ranking artifact of the execution
/// harness, not a measurement, so surrogates fit on survivors only.
/// (Objective-level failures — OOM, fetch timeout — stay in: their
/// penalty *is* the signal that a region misconfigures the job.)
pub fn encode_history(space: &ParamSpace, history: &[Observation]) -> (Vec<Vec<f64>>, Vec<f64>) {
    let survivors: Vec<&Observation> = history.iter().filter(|o| !o.is_censored()).collect();
    let x = survivors.iter().map(|o| space.encode(&o.config)).collect();
    let y = survivors
        .iter()
        .map(|o| o.runtime_s.max(1e-3).ln())
        .collect();
    (x, y)
}

/// Encoded positions of a history's censored observations — the points
/// acquisition functions penalize instead of modelling.
pub fn encode_censored(space: &ParamSpace, history: &[Observation]) -> Vec<Vec<f64>> {
    history
        .iter()
        .filter(|o| o.is_censored())
        .map(|o| space.encode(&o.config))
        .collect()
}

/// A tuning session: a strategy plus a seeded RNG, driven against an
/// objective for a fixed evaluation budget on a [`TrialExecutor`].
pub struct TuningSession {
    tuner: Box<dyn Tuner>,
    rng: StdRng,
    seed: u64,
    batch: usize,
    policy: RetryPolicy,
    injector: FaultInjector,
}

impl TuningSession {
    /// Creates a session for the given strategy and seed.
    pub fn new(kind: TunerKind, seed: u64) -> Self {
        Self::with_tuner(kind.build(), seed)
    }

    /// Creates a session around an existing tuner instance: batch 1,
    /// the default [`RetryPolicy`] and no fault injection.
    pub fn with_tuner(tuner: Box<dyn Tuner>, seed: u64) -> Self {
        TuningSession {
            tuner,
            rng: StdRng::seed_from_u64(seed),
            seed,
            batch: 1,
            policy: RetryPolicy::default(),
            injector: FaultInjector::none(),
        }
    }

    /// Sets the trials proposed and evaluated per round. Larger rounds
    /// amortize one surrogate fit over the whole round and evaluate it
    /// concurrently; a trial's seed depends only on its global index, so
    /// the batch size never changes what an individual trial observes.
    pub fn with_batch(&mut self, batch: usize) -> &mut Self {
        self.batch = batch.max(1);
        self
    }

    /// Sets the executor's retry policy and fault injector. The injector
    /// exists for chaos tests; production passes [`FaultInjector::none`].
    pub fn with_resilience(&mut self, policy: RetryPolicy, injector: FaultInjector) -> &mut Self {
        self.policy = policy;
        self.injector = injector;
        self
    }

    /// Runs `budget` evaluations against `objective`, proposing a round
    /// of trials with [`Tuner::propose_batch`] and evaluating it on a
    /// [`TrialExecutor`] with deterministic per-trial seeding.
    ///
    /// Failed and timed-out trials enter the history as censored
    /// observations, quarantined configurations stop burning budget, and
    /// a round whose failures exceed the policy's `round_failure_budget`
    /// ends the session early with a partial outcome whose
    /// [`DegradationReport`] says so.
    pub fn run<O: Objective + ?Sized>(&mut self, objective: &O, budget: usize) -> TuningOutcome {
        let _session = obs::span("tuning_session")
            .with("tuner", self.tuner.name())
            .with("budget", budget)
            .with("batch", self.batch);
        let reg = obs::registry();
        let mut executor =
            TrialExecutor::new(self.seed ^ 0xE0E0_7A17).with_resilience(self.policy, self.injector);
        let mut report = DegradationReport::default();
        let mut history: Vec<Observation> = Vec::with_capacity(budget);
        while history.len() < budget {
            let q = self.batch.min(budget - history.len());
            let mut round = obs::span("proposal")
                .with("idx", history.len())
                .with("q", q);
            let cfgs = {
                let _propose = obs::span("propose");
                reg.histogram("tuner.propose_s").time(|| {
                    self.tuner
                        .propose_batch(objective.space(), &history, q, &mut self.rng)
                })
            };
            if cfgs.is_empty() {
                break; // defensive: a strategy with nothing left to propose
            }
            let outcomes = {
                let _evaluate = obs::span("evaluate");
                executor.run_trials(objective, &cfgs)
            };
            let round_failures = report.absorb_round(&outcomes);
            let observed: Vec<Observation> = outcomes
                .into_iter()
                .map(TrialOutcome::into_observation)
                .collect();
            reg.counter("tuner.evaluations").add(observed.len() as u64);
            let failed = observed.iter().filter(|o| !o.is_ok()).count();
            if failed > 0 {
                reg.counter("tuner.failed_evaluations").add(failed as u64);
            }
            round.record("ok", failed == 0);
            history.extend(observed);
            if round_failures > self.policy.round_failure_budget {
                report.budget_exhausted = true;
                reg.counter("session.budget_exhausted").inc();
                // The session is about to return a partial outcome;
                // dump the flight recorder while the failing round's
                // events are still buffered.
                obs::flightrec::trigger_dump("budget_exhausted");
                break;
            }
        }
        report.quarantined = executor.quarantined_count();
        let best = best_observation(&history).cloned();
        if let Some(b) = &best {
            obs::instant(
                "session_best",
                obs::fields![("tuner", self.tuner.name()), ("runtime_s", b.runtime_s)],
            );
        }
        TuningOutcome {
            history,
            best,
            degradation: Some(report),
        }
    }

    /// The underlying strategy's name.
    pub fn tuner_name(&self) -> &str {
        self.tuner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::FAILURE_PENALTY_S;

    fn obs(runtime: f64, ok: bool) -> Observation {
        Observation {
            config: Configuration::new(),
            runtime_s: if ok { runtime } else { FAILURE_PENALTY_S },
            cost_usd: 1.0,
            metrics: None,
            failure: if ok {
                None
            } else {
                Some(simcluster::FailureKind::DriverOom)
            },
        }
    }

    #[test]
    fn best_so_far_is_monotone_and_skips_failures() {
        let h = vec![
            obs(10.0, true),
            obs(50.0, false),
            obs(5.0, true),
            obs(7.0, true),
        ];
        let curve = best_so_far(&h);
        assert_eq!(curve, vec![10.0, 10.0, 5.0, 5.0]);
    }

    #[test]
    fn best_observation_ignores_failures() {
        let h = vec![obs(10.0, false), obs(20.0, true)];
        assert_eq!(best_observation(&h).unwrap().runtime_s, 20.0);
        assert!(best_observation(&[obs(1.0, false)]).is_none());
    }

    #[test]
    fn outcome_accessors() {
        let o = TuningOutcome {
            history: vec![obs(10.0, true), obs(4.0, true), obs(6.0, true)],
            best: Some(obs(4.0, true)),
            degradation: None,
        };
        assert_eq!(o.best_runtime_s(), 4.0);
        assert_eq!(o.total_cost_usd(), 3.0);
        assert_eq!(o.evals_to_within(0.0), Some(2));
        assert_eq!(o.evals_to_within(2.0), Some(1)); // within 3x of 4.0 is 12 >= 10
    }

    #[test]
    fn all_kinds_build_and_have_unique_labels() {
        let kinds = TunerKind::all();
        assert_eq!(kinds.len(), 11);
        let mut labels: Vec<&str> = kinds.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 11);
        for k in kinds {
            let t = k.build();
            assert!(!t.name().is_empty());
        }
    }

    #[test]
    fn encode_history_log_transforms() {
        let space = ParamSpace::new().with(confspace::ParamDef::int("a", 0, 10, 5, ""));
        let h = vec![obs(std::f64::consts::E, true)];
        let (x, y) = encode_history(&space, &h);
        assert_eq!(x.len(), 1);
        assert!((y[0] - 1.0).abs() < 1e-12);
    }
}
