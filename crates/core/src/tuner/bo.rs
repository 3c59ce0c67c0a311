//! CherryPick-style Bayesian optimization (Alipourfard et al. \[10\]):
//! a Gaussian-process surrogate with a Matérn-5/2 kernel and
//! Expected-Improvement acquisition, warmed up with a small
//! Latin-hypercube design — the data-efficient strategy the paper
//! contrasts with 500-sample search (§IV-C).

use confspace::{neighbor, Configuration, LatinHypercube, ParamSpace, Sampler, UniformSampler};
use models::{expected_improvement, FitKind, GpFitCache, Kernel};
use rand::RngCore;

use crate::objective::Observation;
use crate::tuner::{best_observation, encode_censored, encode_history, Tuner};

/// Maximum observations kept for the GP fit (most recent + the best are
/// retained): bounds the O(n³) Cholesky cost for long sessions.
const MAX_GP_POINTS: usize = 120;

/// Candidates scored per parallel chunk in the acquisition loop: large
/// enough to amortize scratch-buffer reuse and thread hand-off.
const EI_CHUNK: usize = 64;

/// Squared bandwidth of the local EI penalty used by batch proposals
/// (h = 0.2 in the unit-normalized encoded space).
const PENALTY_BANDWIDTH_SQ: f64 = 0.04;

/// Damps EI scores near censored observations (trials the execution
/// harness aborted or quarantined): the surrogate has no data there by
/// design, so optimism from the prior must not keep re-proposing the
/// same failing region. No-op when nothing is censored — the scores of
/// a healthy session are untouched, bit for bit.
fn penalize_censored(scores: &mut [f64], encoded: &[Vec<f64>], censored: &[Vec<f64>]) {
    if censored.is_empty() {
        return;
    }
    for (score, point) in scores.iter_mut().zip(encoded) {
        let mut damp = 1.0;
        for bad in censored {
            let d2: f64 = point.iter().zip(bad).map(|(a, b)| (a - b) * (a - b)).sum();
            damp *= 1.0 - (-d2 / (2.0 * PENALTY_BANDWIDTH_SQ)).exp();
        }
        *score *= damp;
    }
}

/// GP Bayesian optimization with EI acquisition.
#[derive(Debug, Clone)]
pub struct BayesOpt {
    /// Warm-up design size before the GP takes over.
    pub init_samples: usize,
    /// Random candidates scored per proposal.
    pub candidates: usize,
    /// Extra neighbourhood candidates around the incumbent.
    pub local_candidates: usize,
    /// Whether consecutive proposals reuse cached Cholesky factors
    /// (incremental O(n²) updates while history only grows). The
    /// proposals are identical either way; disabling only exists for
    /// benchmarks and equivalence tests.
    pub use_fit_cache: bool,
    kernel: Kernel,
    pending_init: Vec<Configuration>,
    fit_cache: GpFitCache,
}

impl Default for BayesOpt {
    fn default() -> Self {
        Self::new()
    }
}

impl BayesOpt {
    /// Creates the strategy with CherryPick-like defaults.
    pub fn new() -> Self {
        Self::with_kernel(Kernel::Matern52 {
            length_scale: 0.4,
            variance: 1.0,
        })
    }

    /// BO with a first-order *additive* kernel (Duvenaud et al.), the
    /// paper's §V-A candidate for interpretable, transferable tuning
    /// models: each configuration dimension contributes an independent
    /// 1-D effect, which is decomposable per parameter and more
    /// data-efficient in high dimensions when interactions are weak.
    /// Reports itself as `additive-bo`.
    pub fn additive() -> Self {
        Self::with_kernel(Kernel::Additive {
            length_scale: 0.3,
            variance: 1.0,
        })
    }

    /// Creates the strategy with a custom base kernel.
    pub fn with_kernel(kernel: Kernel) -> Self {
        BayesOpt {
            init_samples: 8,
            candidates: 256,
            local_candidates: 64,
            use_fit_cache: true,
            kernel,
            pending_init: Vec::new(),
            fit_cache: GpFitCache::new(),
        }
    }

    /// Fits the GP surrogate on the (subsampled) history, with its obs
    /// wiring.
    fn fit_surrogate(
        &mut self,
        space: &ParamSpace,
        history: &[Observation],
    ) -> models::GpRegressor {
        let kept = self.subsample(history);
        let owned: Vec<Observation> = kept.into_iter().cloned().collect();
        let (x, y) = encode_history(space, &owned);
        let reg = obs::registry();
        reg.gauge("par.threads")
            .set(models::par::num_threads() as f64);
        let _fit = obs::span("surrogate_fit").with("points", y.len());
        let start = std::time::Instant::now();
        let (gp, kind) = if self.use_fit_cache {
            self.fit_cache.fit_auto(&x, &y, self.kernel)
        } else {
            self.fit_cache.clear();
            self.fit_cache.fit_auto(&x, &y, self.kernel)
        };
        let secs = start.elapsed().as_secs_f64();
        reg.histogram("bo.surrogate_fit_s").record_secs(secs);
        match kind {
            FitKind::Incremental => {
                reg.counter("bo.fit_cache.hit").inc();
                reg.histogram("bo.surrogate_fit_incremental_s")
                    .record_secs(secs);
            }
            FitKind::Full => {
                reg.counter("bo.fit_cache.miss").inc();
                reg.histogram("bo.surrogate_fit_full_s").record_secs(secs);
            }
        }
        gp
    }

    /// The candidate pool for one acquisition round: global uniform
    /// samples plus local refinements around the incumbent.
    fn candidate_pool(
        &self,
        space: &ParamSpace,
        history: &[Observation],
        rng: &mut dyn RngCore,
    ) -> Vec<Configuration> {
        let mut cands = UniformSampler.sample_n(space, self.candidates, rng);
        if let Some(best) = best_observation(history) {
            for _ in 0..self.local_candidates {
                cands.push(neighbor(space, &best.config, 0.05, 0.4, rng));
            }
        }
        cands
    }

    fn subsample<'a>(&self, history: &'a [Observation]) -> Vec<&'a Observation> {
        if history.len() <= MAX_GP_POINTS {
            return history.iter().collect();
        }
        // Keep the best third and the most recent two-thirds, tracking
        // membership by index so dedup is O(n) instead of rescanning
        // the kept vector per element.
        let keep_best = MAX_GP_POINTS / 3;
        let mut by_runtime: Vec<usize> = (0..history.len()).collect();
        by_runtime.sort_by(|&a, &b| history[a].runtime_s.total_cmp(&history[b].runtime_s));
        by_runtime.truncate(keep_best);
        let mut is_kept = vec![false; history.len()];
        for &i in &by_runtime {
            is_kept[i] = true;
        }
        let mut kept: Vec<&Observation> = by_runtime.iter().map(|&i| &history[i]).collect();
        for i in (0..history.len()).rev() {
            if kept.len() >= MAX_GP_POINTS {
                break;
            }
            if !is_kept[i] {
                is_kept[i] = true;
                kept.push(&history[i]);
            }
        }
        kept
    }
}

impl Tuner for BayesOpt {
    fn name(&self) -> &str {
        match self.kernel {
            Kernel::Additive { .. } => "additive-bo",
            _ => "bayesopt",
        }
    }

    fn propose(
        &mut self,
        space: &ParamSpace,
        history: &[Observation],
        rng: &mut dyn RngCore,
    ) -> Configuration {
        self.propose_batch(space, history, 1, rng)
            .pop()
            .unwrap_or_else(|| UniformSampler.sample(space, rng))
    }

    /// Native q-EI via local penalization (González et al.): one GP
    /// fit and one acquisition scan yield the whole batch — EI around
    /// each chosen point is damped so the batch spreads out instead of
    /// clustering on the same optimum. At `q = 1` this is plain EI.
    fn propose_batch(
        &mut self,
        space: &ParamSpace,
        history: &[Observation],
        q: usize,
        rng: &mut dyn RngCore,
    ) -> Vec<Configuration> {
        let q = q.max(1);
        // Warm-up: a stratified initial design. Censored observations
        // don't count — the surrogate needs real measurements to fit.
        let survivors = history.iter().filter(|o| !o.is_censored()).count();
        if survivors < self.init_samples {
            let mut out = Vec::with_capacity(q);
            for _ in 0..q {
                if self.pending_init.is_empty() {
                    self.pending_init = LatinHypercube.sample_n(space, self.init_samples, rng);
                }
                out.push(
                    self.pending_init
                        .pop()
                        .unwrap_or_else(|| UniformSampler.sample(space, rng)),
                );
            }
            return out;
        }

        let gp = self.fit_surrogate(space, history);
        let reg = obs::registry();
        let best_ln = best_observation(history)
            .map(|o| o.runtime_s.max(1e-3).ln())
            .unwrap_or(f64::INFINITY);
        let cands = self.candidate_pool(space, history, rng);
        let censored = encode_censored(space, history);

        let _acq = obs::span("acquisition")
            .with("candidates", cands.len())
            .with("q", q);
        reg.histogram("bo.acquisition_s").time(|| {
            // Score candidates in parallel chunks; each chunk's batched
            // prediction reuses one set of scratch buffers. Scores come
            // back in candidate order, so each arg-max (last maximum on
            // ties) is thread-count independent.
            let encoded: Vec<Vec<f64>> = cands.iter().map(|c| space.encode(c)).collect();
            let mut scores = models::par::par_chunks(&encoded, EI_CHUNK, |chunk| {
                gp.predict_batch(chunk)
                    .into_iter()
                    .map(|(m, s)| expected_improvement(m, s, best_ln))
                    .collect()
            });
            penalize_censored(&mut scores, &encoded, &censored);
            let mut taken = vec![false; scores.len()];
            let mut out: Vec<Configuration> = Vec::with_capacity(q);
            while out.len() < q {
                let Some(i) = (0..scores.len())
                    .filter(|&i| !taken[i])
                    .max_by(|&a, &b| scores[a].total_cmp(&scores[b]))
                else {
                    break;
                };
                taken[i] = true;
                out.push(cands[i].clone());
                if out.len() == q {
                    break;
                }
                for j in 0..scores.len() {
                    if taken[j] {
                        continue;
                    }
                    let d2: f64 = encoded[i]
                        .iter()
                        .zip(&encoded[j])
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum();
                    scores[j] *= 1.0 - (-d2 / (2.0 * PENALTY_BANDWIDTH_SQ)).exp();
                }
            }
            // Degenerate pools (q > candidates) top up with uniform
            // exploration rather than duplicating picks.
            while out.len() < q {
                out.push(UniformSampler.sample(space, rng));
            }
            out
        })
    }

    fn reset(&mut self) {
        self.pending_init.clear();
        self.fit_cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A cheap synthetic objective: quadratic bowl over two int params.
    fn synth_space() -> ParamSpace {
        ParamSpace::new()
            .with(confspace::ParamDef::int("a", 0, 100, 50, ""))
            .with(confspace::ParamDef::int("b", 0, 100, 50, ""))
    }

    fn synth_eval(cfg: &Configuration) -> f64 {
        let a = cfg.int("a") as f64;
        let b = cfg.int("b") as f64;
        10.0 + ((a - 70.0) / 10.0).powi(2) + ((b - 30.0) / 10.0).powi(2)
    }

    fn run(tuner: &mut dyn Tuner, budget: usize, seed: u64) -> f64 {
        let space = synth_space();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut history = Vec::new();
        for _ in 0..budget {
            let cfg = tuner.propose(&space, &history, &mut rng);
            let runtime_s = synth_eval(&cfg);
            history.push(Observation {
                config: cfg,
                runtime_s,
                cost_usd: 0.0,
                metrics: None,
                failure: None,
            });
        }
        crate::tuner::best_observation(&history).unwrap().runtime_s
    }

    #[test]
    fn bo_beats_random_on_a_smooth_bowl() {
        let mut bo_total = 0.0;
        let mut rnd_total = 0.0;
        for seed in 0..5u64 {
            bo_total += run(&mut BayesOpt::new(), 30, seed);
            rnd_total += run(&mut crate::tuner::RandomSearch, 30, seed);
        }
        assert!(
            bo_total < rnd_total,
            "BO {bo_total} should beat random {rnd_total}"
        );
    }

    #[test]
    fn bo_approaches_the_optimum() {
        let best = run(&mut BayesOpt::new(), 40, 7);
        assert!(best < 12.0, "best {best} (optimum 10.0)");
    }

    #[test]
    fn warmup_uses_init_design() {
        let space = synth_space();
        let mut t = BayesOpt::new();
        let mut rng = StdRng::seed_from_u64(9);
        let c = t.propose(&space, &[], &mut rng);
        assert!(space.validate(&c).is_ok());
        assert_eq!(t.pending_init.len(), t.init_samples - 1);
    }

    #[test]
    fn additive_proposals_are_valid() {
        let space = confspace::spark::spark_space();
        let mut t = BayesOpt::additive();
        assert_eq!(t.name(), "additive-bo");
        let mut rng = StdRng::seed_from_u64(1);
        let mut history = Vec::new();
        for _ in 0..12 {
            let cfg = t.propose(&space, &history, &mut rng);
            assert!(space.validate(&cfg).is_ok());
            history.push(Observation {
                runtime_s: 100.0 + history.len() as f64,
                config: cfg,
                cost_usd: 0.0,
                metrics: None,
                failure: None,
            });
        }
    }

    #[test]
    fn additive_bo_excels_on_separable_objectives() {
        // Fully separable 6-D objective: the additive kernel's home turf.
        let space = {
            let mut s = ParamSpace::new();
            for d in 0..6 {
                s.add(confspace::ParamDef::int(&format!("p{d}"), 0, 100, 50, ""));
            }
            s
        };
        let eval = |c: &Configuration| -> f64 {
            (0..6)
                .map(|d| {
                    let v = c.int(&format!("p{d}")) as f64;
                    ((v - 10.0 * d as f64) / 20.0).powi(2)
                })
                .sum::<f64>()
                + 5.0
        };
        let mut t = BayesOpt::additive();
        let mut rng = StdRng::seed_from_u64(3);
        let mut history = Vec::new();
        for _ in 0..35 {
            let cfg = t.propose(&space, &history, &mut rng);
            history.push(Observation {
                runtime_s: eval(&cfg),
                config: cfg,
                cost_usd: 0.0,
                metrics: None,
                failure: None,
            });
        }
        let best = crate::tuner::best_observation(&history).unwrap().runtime_s;
        assert!(best < 8.5, "best {best} (optimum 5.0)");
    }
}
