//! BestConfig (Zhu et al. \[35\]): divide-and-diverge sampling plus
//! recursive bound-and-search.
//!
//! Each round draws a stratified batch of `k` samples inside the
//! current bounds. If the round improved on the incumbent, the bounds
//! *contract* around the new best (recursive bound-and-search); if it
//! did not, the search *diverges*: bounds reset to the full space and a
//! fresh stratified cover is drawn. The paper cites its ~500-sample
//! budget as the canonical example of costs end-users cannot amortize
//! (§IV-C) — which experiment E5/E6 reproduce.

use confspace::{Configuration, ParamSpace};
use rand::{Rng, RngCore};

use crate::objective::Observation;
use crate::tuner::{best_observation, Tuner};

/// Bound-contraction factor per improving round.
const CONTRACTION: f64 = 0.5;

/// BestConfig's DDS + RBS strategy.
#[derive(Debug, Clone)]
pub struct BestConfig {
    /// Samples per round (the "divide" factor).
    pub k: usize,
    lo: Vec<f64>,
    hi: Vec<f64>,
    pending: Vec<Configuration>,
    round_start: usize,
    best_at_round_start: f64,
}

impl BestConfig {
    /// Creates the strategy with `k` samples per round.
    ///
    /// # Panics
    ///
    /// Panics when `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        BestConfig {
            k,
            lo: Vec::new(),
            hi: Vec::new(),
            pending: Vec::new(),
            round_start: 0,
            best_at_round_start: f64::INFINITY,
        }
    }

    fn ensure_bounds(&mut self, dims: usize) {
        if self.lo.len() != dims {
            self.lo = vec![0.0; dims];
            self.hi = vec![1.0; dims];
        }
    }

    /// Stratified batch of `k` points inside the current bounds.
    fn sample_round(&self, space: &ParamSpace, rng: &mut dyn RngCore) -> Vec<Configuration> {
        let d = space.len();
        let n = self.k;
        // Per-dimension stratum permutations (LHS inside the box).
        let mut perms: Vec<Vec<usize>> = Vec::with_capacity(d);
        for _ in 0..d {
            let mut p: Vec<usize> = (0..n).collect();
            // Fisher-Yates with the dyn rng.
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                p.swap(i, j);
            }
            perms.push(p);
        }
        (0..n)
            .map(|i| {
                let v: Vec<f64> = (0..d)
                    .map(|j| {
                        let u = (perms[j][i] as f64 + rng.gen::<f64>()) / n as f64;
                        self.lo[j] + u * (self.hi[j] - self.lo[j])
                    })
                    .collect();
                space.decode(&v)
            })
            .collect()
    }

    fn contract_around(&mut self, center: &[f64]) {
        for (j, &c) in center.iter().enumerate() {
            let radius = (self.hi[j] - self.lo[j]) * CONTRACTION / 2.0;
            self.lo[j] = (c - radius).max(0.0);
            self.hi[j] = (c + radius).min(1.0);
        }
    }

    fn diverge(&mut self) {
        for j in 0..self.lo.len() {
            self.lo[j] = 0.0;
            self.hi[j] = 1.0;
        }
    }

    /// The next point of the current round, deciding bound or diverge
    /// when a round completes.
    fn step(
        &mut self,
        space: &ParamSpace,
        history: &[Observation],
        rng: &mut dyn RngCore,
    ) -> Configuration {
        self.ensure_bounds(space.len());

        if self.pending.is_empty() {
            // A round just completed (or this is the first). Decide
            // whether to bound or diverge.
            let best_now = best_observation(history)
                .map(|o| o.runtime_s)
                .unwrap_or(f64::INFINITY);
            if history.len() > self.round_start {
                match best_observation(history) {
                    Some(best) if best_now < self.best_at_round_start => {
                        let center = space.encode(&best.config);
                        self.contract_around(&center);
                    }
                    _ => self.diverge(),
                }
            }
            self.round_start = history.len();
            self.best_at_round_start = best_now;
            self.pending = self.sample_round(space, rng);
        }

        // `k > 0` means the round is never empty, but an exhausted
        // round must not abort a multi-tenant service: fall back to the
        // space defaults.
        let cand = self
            .pending
            .pop()
            .unwrap_or_else(|| space.default_configuration());
        if space.validate(&cand).is_ok() {
            cand
        } else {
            space.clamp(&cand)
        }
    }
}

impl Tuner for BestConfig {
    fn name(&self) -> &str {
        "bestconfig"
    }

    /// Native batch: the divide-and-diverge round *is* the batch —
    /// draining `q` proposals against the same (real) history pops the
    /// current stratified round, re-deciding bound/diverge only at
    /// round boundaries. No constant-liar augmentation, which would
    /// feed fake improvements into the contraction logic.
    fn propose(
        &mut self,
        space: &ParamSpace,
        history: &[Observation],
        q: usize,
        rng: &mut dyn RngCore,
    ) -> Vec<Configuration> {
        (0..q).map(|_| self.step(space, history, rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> ParamSpace {
        ParamSpace::new()
            .with(confspace::ParamDef::float("x", 0.0, 1.0, 0.5, ""))
            .with(confspace::ParamDef::float("y", 0.0, 1.0, 0.5, ""))
    }

    fn eval(c: &Configuration) -> f64 {
        let x = c.float("x");
        let y = c.float("y");
        (x - 0.8).powi(2) + (y - 0.2).powi(2) + 1.0
    }

    #[test]
    fn bounds_contract_after_improvement() {
        let s = space();
        let mut t = BestConfig::new(6);
        let mut rng = StdRng::seed_from_u64(1);
        let mut history = Vec::new();
        // Run two full rounds.
        for _ in 0..12 {
            let cfg = t.propose(&s, &history, 1, &mut rng).remove(0);
            history.push(Observation {
                runtime_s: eval(&cfg),
                config: cfg,
                cost_usd: 0.0,
                metrics: None,
                failure: None,
            });
        }
        // Trigger round-boundary logic.
        let _ = t.propose(&s, &history, 1, &mut rng);
        let width: f64 = t.hi.iter().zip(&t.lo).map(|(h, l)| h - l).sum();
        assert!(width < 2.0, "bounds should have contracted: {width}");
    }

    #[test]
    fn converges_near_optimum() {
        let s = space();
        let mut t = BestConfig::new(8);
        let mut rng = StdRng::seed_from_u64(2);
        let mut history = Vec::new();
        for _ in 0..64 {
            let cfg = t.propose(&s, &history, 1, &mut rng).remove(0);
            history.push(Observation {
                runtime_s: eval(&cfg),
                config: cfg,
                cost_usd: 0.0,
                metrics: None,
                failure: None,
            });
        }
        let best = best_observation(&history).unwrap().runtime_s;
        assert!(best < 1.02, "best {best} (optimum 1.0)");
    }

    #[test]
    fn diverges_when_stuck() {
        let s = space();
        let mut t = BestConfig::new(4);
        let mut rng = StdRng::seed_from_u64(3);
        // Feed a history where nothing ever improves: constant runtimes.
        let mut history = Vec::new();
        for _ in 0..16 {
            let cfg = t.propose(&s, &history, 1, &mut rng).remove(0);
            history.push(Observation {
                runtime_s: 100.0,
                config: cfg,
                cost_usd: 0.0,
                metrics: None,
                failure: None,
            });
        }
        let _ = t.propose(&s, &history, 1, &mut rng);
        // After diverging, bounds must span the full space again.
        let width: f64 = t.hi.iter().zip(&t.lo).map(|(h, l)| h - l).sum();
        assert!(
            (width - 2.0).abs() < 1e-9,
            "expected full bounds, got {width}"
        );
    }

    #[test]
    fn proposals_are_always_valid() {
        let s = confspace::spark::spark_space();
        let mut t = BestConfig::new(10);
        let mut rng = StdRng::seed_from_u64(4);
        let mut history = Vec::new();
        for i in 0..30 {
            let cfg = t.propose(&s, &history, 1, &mut rng).remove(0);
            assert!(s.validate(&cfg).is_ok(), "proposal {i} invalid");
            history.push(Observation {
                runtime_s: 50.0 + (i % 7) as f64,
                config: cfg,
                cost_usd: 0.0,
                metrics: None,
                failure: None,
            });
        }
    }
}
