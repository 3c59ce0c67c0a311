//! High-level tuning goals (§IV-D): "the tuning service could let users
//! make trade-off decisions which impact things like cost: do I need
//! the results quickly no matter the cost, or am I willing to wait a
//! long time for the results?"
//!
//! [`GoalObjective`] wraps any [`Objective`] and rewrites the scalar the
//! tuner minimizes, while keeping the true runtime/cost in the
//! observation for reporting.

use confspace::{Configuration, ParamSpace};
use serde::{Deserialize, Serialize};

use crate::objective::{Objective, Observation, FAILURE_PENALTY_S};

/// What the end-user asked the service to optimize.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TuningGoal {
    /// Results as fast as possible, cost be damned.
    MinRuntime,
    /// Cheapest execution, however long it takes.
    MinCost,
    /// Cheapest execution that finishes within the deadline; runs over
    /// the deadline are penalized in proportion to the overshoot.
    Deadline {
        /// The runtime budget in seconds.
        seconds: f64,
    },
    /// A weighted blend: `alpha · normalized runtime + (1−alpha) ·
    /// normalized cost`, with `alpha` in `[0, 1]`.
    Weighted {
        /// Weight on runtime (1 = pure runtime, 0 = pure cost).
        alpha: f64,
    },
}

impl TuningGoal {
    /// Scores an observation (lower is better). Scores are expressed in
    /// "equivalent seconds" so the tuners' log-transform stays
    /// meaningful.
    pub fn score(self, obs: &Observation) -> f64 {
        if !obs.is_ok() {
            return FAILURE_PENALTY_S;
        }
        match self {
            TuningGoal::MinRuntime => obs.runtime_s,
            // 1 dollar == 1000 equivalent seconds keeps costs in the
            // same numeric regime as runtimes for the surrogates.
            TuningGoal::MinCost => obs.cost_usd * 1000.0,
            TuningGoal::Deadline { seconds } => {
                let overshoot = (obs.runtime_s - seconds).max(0.0);
                obs.cost_usd * 1000.0 + overshoot * 50.0
            }
            TuningGoal::Weighted { alpha } => {
                let a = alpha.clamp(0.0, 1.0);
                a * obs.runtime_s + (1.0 - a) * obs.cost_usd * 1000.0
            }
        }
    }

    /// Display label.
    pub fn label(self) -> String {
        match self {
            TuningGoal::MinRuntime => "min-runtime".to_owned(),
            TuningGoal::MinCost => "min-cost".to_owned(),
            TuningGoal::Deadline { seconds } => format!("deadline<{seconds:.0}s"),
            TuningGoal::Weighted { alpha } => format!("weighted(a={alpha:.2})"),
        }
    }
}

/// An objective wrapper that makes tuners optimize a [`TuningGoal`].
///
/// The wrapped observation's `runtime_s` carries the goal score (what
/// the tuner minimizes); the *true* runtime remains available in
/// `metrics.runtime_s` and the true dollar cost in `cost_usd`.
pub struct GoalObjective<O> {
    inner: O,
    goal: TuningGoal,
}

impl<O: Objective> GoalObjective<O> {
    /// Wraps `inner` with `goal`.
    pub fn new(inner: O, goal: TuningGoal) -> Self {
        GoalObjective { inner, goal }
    }

    /// The wrapped objective.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// The active goal.
    pub fn goal(&self) -> TuningGoal {
        self.goal
    }
}

impl<O: Objective> Objective for GoalObjective<O> {
    fn space(&self) -> &ParamSpace {
        self.inner.space()
    }

    fn evaluate(&self, config: &Configuration, trial_seed: u64) -> Observation {
        let mut obs = self.inner.evaluate(config, trial_seed);
        obs.runtime_s = self.goal.score(&obs);
        obs
    }

    fn describe(&self) -> String {
        format!("{} [{}]", self.inner.describe(), self.goal.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{CloudObjective, SimEnvironment};
    use crate::tuner::{TunerKind, TuningSession};
    use crate::SeamlessTuner;
    use simcluster::ClusterSpec;
    use workloads::{DataScale, Terasort, Workload};

    fn obs(runtime: f64, cost: f64) -> Observation {
        Observation {
            config: Configuration::new(),
            runtime_s: runtime,
            cost_usd: cost,
            metrics: None,
            failure: None,
        }
    }

    #[test]
    fn scores_reflect_the_goal() {
        let fast_pricey = obs(10.0, 1.0);
        let slow_cheap = obs(100.0, 0.1);
        assert!(
            TuningGoal::MinRuntime.score(&fast_pricey) < TuningGoal::MinRuntime.score(&slow_cheap)
        );
        assert!(TuningGoal::MinCost.score(&slow_cheap) < TuningGoal::MinCost.score(&fast_pricey));
    }

    #[test]
    fn deadline_penalizes_overshoot() {
        let within = obs(50.0, 0.5);
        let over = obs(120.0, 0.2);
        let goal = TuningGoal::Deadline { seconds: 60.0 };
        assert!(goal.score(&within) < goal.score(&over));
    }

    #[test]
    fn weighted_interpolates() {
        let a = obs(10.0, 1.0);
        let runtime_like = TuningGoal::Weighted { alpha: 1.0 }.score(&a);
        let cost_like = TuningGoal::Weighted { alpha: 0.0 }.score(&a);
        assert!((runtime_like - 10.0).abs() < 1e-9);
        assert!((cost_like - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn failures_are_always_worst() {
        let failed = Observation {
            failure: Some(simcluster::FailureKind::DriverOom),
            ..obs(1.0, 0.0)
        };
        for goal in [
            TuningGoal::MinRuntime,
            TuningGoal::MinCost,
            TuningGoal::Deadline { seconds: 60.0 },
        ] {
            assert_eq!(goal.score(&failed), FAILURE_PENALTY_S);
        }
    }

    #[test]
    fn cost_goal_prefers_smaller_clusters_than_runtime_goal() {
        let job = Terasort::new().job(DataScale::Tiny);
        let disc = SeamlessTuner::house_default();
        let tune = |goal: TuningGoal| -> ClusterSpec {
            let inner =
                CloudObjective::new(job.clone(), disc.clone(), &SimEnvironment::dedicated(9));
            let obj = GoalObjective::new(inner, goal);
            let session = TuningSession::new(TunerKind::BayesOpt, 21);
            let outcome = session.run(&obj, 18);
            ClusterSpec::from_config(outcome.best_config().expect("found a config"))
                .expect("valid cloud config")
        };
        let fast = tune(TuningGoal::MinRuntime);
        let cheap = tune(TuningGoal::MinCost);
        assert!(
            cheap.price_per_hour() <= fast.price_per_hour(),
            "cheap {} (${}/h) vs fast {} (${}/h)",
            cheap,
            cheap.price_per_hour(),
            fast,
            fast.price_per_hour()
        );
    }
}
