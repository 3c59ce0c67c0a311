//! Bu et al. \[11\]: online reinforcement-learning configuration tuning
//! (they tuned 8 web-server parameters in ~25 executions).
//!
//! A faithful-in-spirit adaptation: the agent holds a current
//! configuration and a Q-value per *action* (nudge one parameter up,
//! down, or cycle a discrete choice). Each step it ε-greedily picks an
//! action, proposes the nudged configuration, observes the runtime, and
//! updates the action's Q-value with the relative improvement —
//! hill-climbing with learned step preferences. Works well in small
//! spaces (the paper's 6–12-parameter regime §II-B describes) and,
//! like MROnline, struggles as dimensionality grows — both visible in
//! E5.

use confspace::{Configuration, ParamKind, ParamSpace};
use rand::{Rng, RngCore};

use crate::objective::Observation;
use crate::tuner::{best_observation, constant_liar, Tuner};

/// One nudge action on one parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Move {
    /// Increase a numeric parameter by one step.
    Up,
    /// Decrease a numeric parameter by one step.
    Down,
    /// Cycle a boolean/categorical to its next value.
    Cycle,
}

/// Exploration probability.
const EPSILON: f64 = 0.25;

/// Q-value learning rate.
const ALPHA: f64 = 0.4;

/// Relative step for numeric nudges (fraction of the range).
const STEP: f64 = 0.15;

/// Q-learning over per-parameter nudge actions.
#[derive(Debug, Clone)]
pub struct RlTuner {
    q: Vec<f64>,
    actions: Vec<(usize, Move)>,
    current: Option<Configuration>,
    current_runtime: f64,
    last_action: Option<usize>,
}

impl Default for RlTuner {
    fn default() -> Self {
        Self::new()
    }
}

impl RlTuner {
    /// Creates the agent with Bu-et-al-like settings.
    pub fn new() -> Self {
        RlTuner {
            q: Vec::new(),
            actions: Vec::new(),
            current: None,
            current_runtime: f64::INFINITY,
            last_action: None,
        }
    }

    fn build_actions(&mut self, space: &ParamSpace) {
        if !self.actions.is_empty() {
            return;
        }
        for (i, p) in space.params().iter().enumerate() {
            match p.kind {
                ParamKind::Int { .. } | ParamKind::Float { .. } => {
                    self.actions.push((i, Move::Up));
                    self.actions.push((i, Move::Down));
                }
                ParamKind::Bool | ParamKind::Categorical { .. } => {
                    self.actions.push((i, Move::Cycle));
                }
            }
        }
        self.q = vec![0.0; self.actions.len()];
    }

    fn apply(
        &self,
        space: &ParamSpace,
        cfg: &Configuration,
        action: (usize, Move),
    ) -> Configuration {
        let (dim, mv) = action;
        let p = &space.params()[dim];
        let mut v = space.encode(cfg);
        match (&p.kind, mv) {
            (ParamKind::Bool, _) => {
                v[dim] = 1.0 - v[dim].round();
            }
            (ParamKind::Categorical { choices }, _) => {
                let n = choices.len().max(1) as f64;
                let idx = (v[dim] * (n - 1.0)).round();
                let next = (idx + 1.0) % n;
                v[dim] = if n > 1.0 { next / (n - 1.0) } else { 0.0 };
            }
            (_, Move::Up) => v[dim] = (v[dim] + STEP).min(1.0),
            (_, Move::Down) => v[dim] = (v[dim] - STEP).max(0.0),
            (_, Move::Cycle) => {}
        }
        let cand = space.decode(&v);
        if space.validate(&cand).is_ok() {
            cand
        } else {
            space.clamp(cfg)
        }
    }

    fn propose_one(
        &mut self,
        space: &ParamSpace,
        history: &[Observation],
        rng: &mut dyn RngCore,
    ) -> Configuration {
        self.build_actions(space);

        // Learn from the outcome of the previous proposal.
        if let (Some(a), Some(last)) = (self.last_action, history.last()) {
            let reward = if last.is_ok() && last.runtime_s.is_finite() {
                (self.current_runtime - last.runtime_s) / self.current_runtime.max(1e-9)
            } else {
                -1.0
            };
            self.q[a] += ALPHA * (reward.clamp(-1.0, 1.0) - self.q[a]);
            if last.is_ok() && last.runtime_s < self.current_runtime {
                self.current = Some(last.config.clone());
                self.current_runtime = last.runtime_s;
            }
        } else if let Some(best) = best_observation(history) {
            // Adopt any pre-existing (e.g. donated) incumbent.
            self.current = Some(best.config.clone());
            self.current_runtime = best.runtime_s;
        }

        // First proposal: the defaults (their web-server baseline).
        let Some(current) = self.current.clone() else {
            self.last_action = None;
            self.current = Some(space.default_configuration());
            return space.default_configuration();
        };

        // ε-greedy action selection.
        let a = if rng.gen::<f64>() < EPSILON {
            rng.gen_range(0..self.actions.len())
        } else {
            self.q
                .iter()
                .enumerate()
                .max_by(|x, y| x.1.total_cmp(y.1))
                .map_or(0, |(i, _)| i)
        };
        self.last_action = Some(a);
        self.apply(space, &current, self.actions[a])
    }
}

impl Tuner for RlTuner {
    fn name(&self) -> &str {
        "rl"
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
    use confspace::ParamDef;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> ParamSpace {
        ParamSpace::new()
            .with(ParamDef::int("a", 0, 100, 50, ""))
            .with(ParamDef::boolean("b", false, ""))
            .with(ParamDef::categorical("c", &["x", "y", "z"], "x", ""))
    }

    fn drive(eval: impl Fn(&Configuration) -> f64, budget: usize, seed: u64) -> Vec<Observation> {
        let s = space();
        let mut t = RlTuner::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut history = Vec::new();
        for _ in 0..budget {
            let cfg = t.propose(&s, &history, 1, &mut rng).remove(0);
            assert!(s.validate(&cfg).is_ok());
            history.push(Observation {
                runtime_s: eval(&cfg),
                config: cfg,
                cost_usd: 0.0,
                metrics: None,
                failure: None,
            });
        }
        history
    }

    #[test]
    fn learns_to_walk_downhill() {
        // Runtime decreases with `a`: the Up action on `a` should be
        // learned and the agent should climb most of the way.
        let history = drive(|c| 200.0 - c.int("a") as f64, 30, 1);
        let best = best_observation(&history).unwrap();
        assert!(
            best.config.int("a") >= 80,
            "agent should push a upward: {}",
            best.config
        );
    }

    #[test]
    fn learns_a_beneficial_toggle() {
        let history = drive(|c| if c.bool("b") { 50.0 } else { 100.0 }, 25, 3);
        assert!(best_observation(&history).unwrap().config.bool("b"));
    }

    #[test]
    fn first_proposal_is_the_default() {
        let s = space();
        let mut t = RlTuner::new();
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(t.propose(&s, &[], 1, &mut rng), [s.default_configuration()]);
    }
}
