//! MROnline-style hill climbing (Li et al. \[25\]): greedy neighbourhood
//! moves from the incumbent with step-size decay and random restarts.
//!
//! MROnline bounds the search with rule-of-thumb starting points; we
//! start from the space's defaults (Spark's shipped configuration), the
//! analogous "sensible prior".

use confspace::{neighbor, sample, Configuration, ParamSpace};
use rand::RngCore;

use crate::objective::Observation;
use crate::tuner::{best_observation, Tuner};

/// Restart hill climbing over configuration neighbourhoods.
#[derive(Debug, Clone)]
pub struct HillClimb {
    /// Relative step size (fraction of each parameter's range).
    scale: f64,
    /// Consecutive non-improving proposals since the last improvement.
    stall: usize,
    /// Proposals between random restarts when stalled.
    restart_after: usize,
}

impl Default for HillClimb {
    fn default() -> Self {
        Self::new()
    }
}

impl HillClimb {
    /// Creates the strategy with default step size (8% of range) and
    /// restart patience (20 stalled proposals).
    pub fn new() -> Self {
        HillClimb {
            scale: 0.08,
            stall: 0,
            restart_after: 20,
        }
    }

    /// One sequential step: the stall/anneal bookkeeping for the
    /// latest observation, then a neighbourhood move or a restart.
    fn step(
        &mut self,
        space: &ParamSpace,
        history: &[Observation],
        rng: &mut dyn RngCore,
    ) -> Configuration {
        // First proposal: the defaults (MROnline's rule-based start).
        let Some(best) = best_observation(history) else {
            return if history.is_empty() {
                space.default_configuration()
            } else {
                // Defaults failed outright; explore randomly.
                sample::uniform(space, rng)
            };
        };

        // Track stalling: did the last observation improve on the best
        // before it?
        if let Some(last) = history.last() {
            let prior_best = best_observation(&history[..history.len() - 1]);
            let improved = last.is_ok() && prior_best.is_none_or(|p| last.runtime_s < p.runtime_s);
            if improved {
                self.stall = 0;
                self.scale = 0.08;
            } else {
                self.stall += 1;
                // Gentle annealing towards finer moves.
                self.scale = (self.scale * 0.98).max(0.02);
            }
        }

        if self.stall >= self.restart_after {
            self.stall = 0;
            self.scale = 0.08;
            return sample::uniform(space, rng);
        }

        neighbor(space, &best.config, self.scale, 0.4, rng)
    }
}

impl Tuner for HillClimb {
    fn name(&self) -> &str {
        "hillclimb"
    }

    /// Native batch: parallel restarts around the incumbent. The first
    /// member runs the normal stall/anneal bookkeeping (exactly one
    /// update per observed history, as in the sequential loop); the
    /// rest fan out at progressively coarser step scales, with every
    /// fourth member a uniform restart.
    fn propose(
        &mut self,
        space: &ParamSpace,
        history: &[Observation],
        q: usize,
        rng: &mut dyn RngCore,
    ) -> Vec<Configuration> {
        let mut out = Vec::with_capacity(q);
        out.push(self.step(space, history, rng));
        let incumbent = best_observation(history).map(|o| &o.config);
        for i in 1..q {
            match incumbent {
                Some(best) if i % 4 != 3 => {
                    let scale = (self.scale * (1.0 + i as f64 * 0.5)).min(0.5);
                    out.push(neighbor(space, best, scale, 0.4, rng));
                }
                _ => out.push(sample::uniform(space, rng)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::FAILURE_PENALTY_S;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn obs(space: &ParamSpace, cfg: Configuration, runtime: f64) -> Observation {
        let _ = space;
        Observation {
            config: cfg,
            runtime_s: runtime,
            cost_usd: 0.0,
            metrics: None,
            failure: if runtime >= FAILURE_PENALTY_S {
                Some(simcluster::FailureKind::DriverOom)
            } else {
                None
            },
        }
    }

    #[test]
    fn first_proposal_is_the_default() {
        let space = confspace::spark::spark_space();
        let mut t = HillClimb::new();
        let mut rng = StdRng::seed_from_u64(1);
        let c = t.propose(&space, &[], 1, &mut rng).remove(0);
        assert_eq!(c, space.default_configuration());
    }

    #[test]
    fn proposals_stay_near_the_incumbent() {
        let space = confspace::spark::spark_space();
        let mut t = HillClimb::new();
        let mut rng = StdRng::seed_from_u64(2);
        let best_cfg = space.default_configuration();
        let history = vec![obs(&space, best_cfg.clone(), 100.0)];
        let c = t.propose(&space, &history, 1, &mut rng).remove(0);
        assert!(space.validate(&c).is_ok());
        // Encoded distance should be small for a neighbourhood move.
        let a = space.encode(&best_cfg);
        let b = space.encode(&c);
        let dist: f64 = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt();
        assert!(dist < 1.0, "moved too far: {dist}");
    }

    #[test]
    fn restarts_after_prolonged_stall() {
        let space = confspace::spark::spark_space();
        let mut t = HillClimb::new();
        let mut rng = StdRng::seed_from_u64(3);
        let base = space.default_configuration();
        let mut history = vec![obs(&space, base.clone(), 100.0)];
        // Feed non-improving observations past the patience threshold.
        let mut restarted = false;
        for _ in 0..40 {
            let c = t.propose(&space, &history, 1, &mut rng).remove(0);
            let a = space.encode(&base);
            let b = space.encode(&c);
            let dist: f64 = a
                .iter()
                .zip(&b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt();
            if dist > 1.2 {
                restarted = true;
                break;
            }
            history.push(obs(&space, c, 150.0));
        }
        assert!(restarted, "expected a random restart");
    }
}
