//! CherryPick-style Bayesian optimization (Alipourfard et al. \[10\]):
//! a Gaussian-process surrogate with a Matérn-5/2 kernel and
//! Expected-Improvement acquisition, warmed up with a small
//! Latin-hypercube design — the data-efficient strategy the paper
//! contrasts with 500-sample search (§IV-C).

use confspace::{sample, CandidatePool, Configuration, ParamSpace};
use models::{expected_improvement, FitKind, GpFitCache, GpPredictCache, Kernel};
use rand::RngCore;

use crate::objective::Observation;
use crate::tuner::{
    best_observation, encode_censored, encode_history, next_lhs_point, proximity, Tuner,
};

/// Maximum observations kept for the GP fit (most recent + the best are
/// retained): bounds the O(n³) Cholesky cost for long sessions.
const MAX_GP_POINTS: usize = 120;

/// Uniform candidates drawn for a session (and again whenever the
/// session has proposed them all).
const CANDIDATES: usize = 256;

/// Neighbourhood candidates around the incumbent, redrawn every round.
const LOCAL_CANDIDATES: usize = 64;

/// Damps EI scores near censored observations (trials the execution
/// harness aborted or quarantined): the surrogate has no data there by
/// design, so optimism from the prior must not keep re-proposing the
/// same failing region. No-op when nothing is censored — the scores of
/// a healthy session are untouched, bit for bit.
fn penalize_censored(scores: &mut [f64], encoded: &[&[f64]], censored: &[Vec<f64>]) {
    if censored.is_empty() {
        return;
    }
    for (score, point) in scores.iter_mut().zip(encoded) {
        let mut damp = 1.0;
        for bad in censored {
            damp *= 1.0 - proximity(point, bad);
        }
        *score *= damp;
    }
}

/// GP Bayesian optimization with EI acquisition.
#[derive(Debug, Clone)]
pub struct BayesOpt {
    /// Warm-up design size before the GP takes over.
    pub init_samples: usize,
    kernel: Kernel,
    pending_init: Vec<Configuration>,
    fit_cache: GpFitCache,
    /// The session's uniform candidates, typed rows and encodings:
    /// drawn at the first model-guided proposal and kept, less each row
    /// once it is proposed. Only the picks become configurations. A
    /// tuner serves one session, so the rows all belong to one space.
    uniform: CandidatePool,
    /// The uniform candidates' predictions, carried from fit to fit.
    scores: GpPredictCache,
    /// The neighbour candidates of the current round.
    local: CandidatePool,
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
            kernel,
            pending_init: Vec::new(),
            fit_cache: GpFitCache::new(),
            uniform: CandidatePool::default(),
            scores: GpPredictCache::default(),
            local: CandidatePool::default(),
        }
    }

    /// Fits the GP surrogate on the (subsampled) history, with its obs
    /// wiring.
    fn fit_surrogate(
        &mut self,
        space: &ParamSpace,
        history: &[Observation],
    ) -> models::GpRegressor {
        let reg = obs::registry();
        let kept = self.subsample(history);
        let (x, y) = reg
            .histogram("bo.encode_history_s")
            .time(|| encode_history(space, kept));
        // The worker count this fit actually runs on: one for service
        // -sized fits and for fits nested under a tenant or trial worker.
        let threads = self.fit_cache.fit_threads(&x, self.kernel);
        reg.gauge("par.threads").set(threads as f64);
        let _fit = obs::span("surrogate_fit").with("points", y.len());
        let start = std::time::Instant::now();
        let (gp, kind) = self
            .fit_cache
            .fit_auto_threads(&x, &y, self.kernel, threads);
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

    /// Readies the candidates of one acquisition round: the session's
    /// uniform rows, drawn and encoded only when the session has none
    /// left (its first model-guided round, or once all are proposed),
    /// and local refinements around the incumbent, redrawn every round,
    /// a rejected refinement standing in as the clamped incumbent. Draw
    /// for draw the rows `sample::uniform` and `neighbor` would
    /// build, without naming the values.
    fn candidate_pool(
        &mut self,
        space: &ParamSpace,
        history: &[Observation],
        rng: &mut dyn RngCore,
    ) {
        let uniform = &mut self.uniform;
        if uniform.is_empty() {
            uniform.reset(space);
            for _ in 0..CANDIDATES {
                uniform.push_uniform(space, rng);
            }
            let rows: Vec<&[f64]> = (0..uniform.len()).map(|i| uniform.encoding(i)).collect();
            self.scores = GpPredictCache::new(&rows);
        }
        let local = &mut self.local;
        local.reset(space);
        if let Some(best) = best_observation(history) {
            local.set_base(space, &best.config);
            for _ in 0..LOCAL_CANDIDATES {
                if !local.push_neighbor(space, 0.05, 0.4, rng) {
                    local.fall_back();
                }
            }
        }
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

    /// Native q-EI via local penalization (González et al.): one GP
    /// fit and one acquisition scan yield the whole batch — EI around
    /// each chosen point is damped so the batch spreads out instead of
    /// clustering on the same optimum. At `q = 1` this is plain EI.
    fn propose(
        &mut self,
        space: &ParamSpace,
        history: &[Observation],
        q: usize,
        rng: &mut dyn RngCore,
    ) -> Vec<Configuration> {
        // Warm-up: a stratified initial design. Censored observations
        // don't count — the surrogate needs real measurements to fit.
        let survivors = history.iter().filter(|o| !o.is_censored()).count();
        if survivors < self.init_samples {
            return (0..q)
                .map(|_| next_lhs_point(&mut self.pending_init, space, self.init_samples, rng))
                .collect();
        }

        let gp = self.fit_surrogate(space, history);
        let reg = obs::registry();
        let best_ln = best_observation(history)
            .map(|o| o.runtime_s.max(1e-3).ln())
            .unwrap_or(f64::INFINITY);
        reg.histogram("bo.candidate_pool_s")
            .time(|| self.candidate_pool(space, history, rng));
        let censored = encode_censored(space, history);
        let (uniform, local) = (&self.uniform, &self.local);
        let m = uniform.len();
        let encoded: Vec<&[f64]> = (0..m)
            .map(|i| uniform.encoding(i))
            .chain((0..local.len()).map(|i| local.encoding(i)))
            .collect();

        let _acq = obs::span("acquisition")
            .with("candidates", encoded.len())
            .with("q", q);
        let cache = &mut self.scores;
        let (mut out, taken) = reg.histogram("bo.acquisition_s").time(|| {
            // The uniform rows' predictions carry over from the last
            // fit; the fresh neighbour rows are scored from scratch by
            // the same kernel. Scores come back in candidate order, so
            // each arg-max (last maximum on ties) is deterministic.
            let path = cache.update(&gp);
            reg.counter(&obs::labeled("bo.pool.rescore", &[("path", path.label())]))
                .inc();
            let fresh = gp.predict_batch(&encoded[m..]);
            let mut scores: Vec<f64> = cache
                .predictions()
                .iter()
                .chain(&fresh)
                .map(|&(mean, std)| expected_improvement(mean, std, best_ln))
                .collect();
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
                let (pick, source) = if i < m {
                    (uniform.config(space, i), "uniform")
                } else {
                    (local.config(space, i - m), "neighbour")
                };
                reg.counter(&obs::labeled("bo.pick", &[("source", source)]))
                    .inc();
                out.push(pick);
                if out.len() == q {
                    break;
                }
                for j in 0..scores.len() {
                    if !taken[j] {
                        scores[j] *= 1.0 - proximity(encoded[i], encoded[j]);
                    }
                }
            }
            (out, taken)
        });
        // A proposed uniform row leaves the session's pool.
        if taken[..m].contains(&true) {
            let keep: Vec<bool> = taken[..m].iter().map(|&t| !t).collect();
            self.uniform.retain(&keep);
            self.scores.retain(&keep);
        }
        // Degenerate pools (q > candidates) top up with uniform
        // exploration rather than duplicating picks.
        while out.len() < q {
            out.push(sample::uniform(space, rng));
        }
        out
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
            let cfg = tuner.propose(&space, &history, 1, &mut rng).remove(0);
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
        let c = t.propose(&space, &[], 1, &mut rng).remove(0);
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
            let cfg = t.propose(&space, &history, 1, &mut rng).remove(0);
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

    /// A smooth synthetic runtime over any space, through the encoding.
    fn smooth_runtime(space: &ParamSpace, cfg: &Configuration) -> f64 {
        let x = space.encode(cfg);
        let bowl: f64 = x
            .iter()
            .enumerate()
            .map(|(k, v)| (v - 0.2 - 0.6 * (k % 3) as f64 / 2.0).powi(2))
            .sum();
        20.0 + 40.0 * bowl
    }

    fn observed(config: Configuration, runtime_s: f64) -> Observation {
        Observation {
            config,
            runtime_s,
            cost_usd: 0.0,
            metrics: None,
            failure: None,
        }
    }

    /// A rugged synthetic runtime: no smooth bowl for neighbours to
    /// descend, so uniform rows win picks too.
    fn rugged_runtime(space: &ParamSpace, cfg: &Configuration) -> f64 {
        let x = space.encode(cfg);
        let waves: f64 = x
            .iter()
            .enumerate()
            .map(|(k, v)| (17.0 * k as f64 + 40.0 * v).sin())
            .sum();
        20.0 + 10.0 * waves.abs()
    }

    fn bits(p: &[(f64, f64)]) -> Vec<(u64, u64)> {
        p.iter().map(|(m, s)| (m.to_bits(), s.to_bits())).collect()
    }

    /// After a model-guided proposal over `history`, the pool's cached
    /// scores equal a from-scratch fit's `predict_batch` over the same
    /// rows, bit for bit. Returns the path the cache took, replayed on
    /// its state from before the proposal (`before`).
    fn check_cached_scores(
        bo: &BayesOpt,
        before: &GpPredictCache,
        space: &ParamSpace,
        history: &[Observation],
    ) -> models::Rescore {
        let (x, y) = encode_history(space, bo.subsample(history));
        let gp = models::GpRegressor::fit_auto(&x, &y, bo.kernel);
        let rows: Vec<&[f64]> = (0..bo.uniform.len())
            .map(|i| bo.uniform.encoding(i))
            .collect();
        assert_eq!(bo.scores.len(), rows.len());
        assert_eq!(
            bits(bo.scores.predictions()),
            bits(&gp.predict_batch(&rows)),
            "cached scores differ from a fresh predict_batch at n = {}",
            x.len()
        );
        before.clone().update(&gp)
    }

    fn guided(bo: &BayesOpt, history: &[Observation]) -> bool {
        history.iter().filter(|o| !o.is_censored()).count() >= bo.init_samples
    }

    /// A [`BayesOpt`] shared with the test, recording the history it was
    /// last shown, so it can sit inside a [`TransferTuner`].
    ///
    /// [`TransferTuner`]: crate::transfer::TransferTuner
    struct Shared {
        bo: std::rc::Rc<std::cell::RefCell<BayesOpt>>,
        seen: std::rc::Rc<std::cell::RefCell<Vec<Observation>>>,
    }

    impl Tuner for Shared {
        fn name(&self) -> &str {
            "shared"
        }

        fn propose(
            &mut self,
            space: &ParamSpace,
            history: &[Observation],
            q: usize,
            rng: &mut dyn RngCore,
        ) -> Vec<Configuration> {
            *self.seen.borrow_mut() = history.to_vec();
            self.bo.borrow_mut().propose(space, history, q, rng)
        }
    }

    #[test]
    fn cached_scores_match_a_fresh_predict_batch_on_every_path() {
        use models::Rescore;
        let space = confspace::spark::spark_space();
        let mut paths = Vec::new();

        // A plain session: the cache appends, and follows the grid.
        let mut bo = BayesOpt::new();
        let mut rng = StdRng::seed_from_u64(4);
        let mut history: Vec<Observation> = Vec::new();
        for _ in 0..40 {
            let before = bo.scores.clone();
            let cfg = bo.propose(&space, &history, 1, &mut rng).remove(0);
            if guided(&bo, &history) {
                paths.push(check_cached_scores(&bo, &before, &space, &history));
            }
            let runtime = smooth_runtime(&space, &cfg);
            history.push(observed(cfg, runtime));
        }
        assert_eq!(paths[0], Rescore::Rebuild, "the first fit fills the cache");

        // A donation that misleads is dropped mid-session: the training
        // set stops extending the cached one.
        let shared = Shared {
            bo: Default::default(),
            seen: Default::default(),
        };
        let (bo, seen) = (shared.bo.clone(), shared.seen.clone());
        let mut lhs = StdRng::seed_from_u64(8);
        let trap = sample::uniform(&space, &mut lhs);
        let mut donated = vec![observed(trap.clone(), 1.0)];
        donated
            .extend((0..5).map(|i| observed(sample::uniform(&space, &mut lhs), 30.0 + i as f64)));
        let mut transfer = crate::transfer::TransferTuner::new(Box::new(shared), donated);
        let mut rng = StdRng::seed_from_u64(5);
        let mut history: Vec<Observation> = Vec::new();
        let mut transfer_paths = Vec::new();
        for _ in 0..16 {
            let before = bo.borrow().scores.clone();
            seen.borrow_mut().clear();
            let cfg = transfer.propose(&space, &history, 1, &mut rng).remove(0);
            let shown = seen.borrow().clone();
            if !shown.is_empty() && guided(&bo.borrow(), &shown) {
                transfer_paths.push(check_cached_scores(&bo.borrow(), &before, &space, &shown));
            }
            let runtime = if cfg == trap {
                10_000.0
            } else {
                smooth_runtime(&space, &cfg)
            };
            history.push(observed(cfg, runtime));
        }
        assert!(
            !transfer.donation_active(),
            "the donation should be dropped"
        );
        assert!(
            transfer_paths[1..].contains(&Rescore::Rebuild),
            "dropping the donation rebuilds: {transfer_paths:?}"
        );
        paths.extend(&transfer_paths[1..]);

        // Past MAX_GP_POINTS the fit subsamples, so its training set
        // is no longer an extension of the last one.
        let mut bo = BayesOpt::new();
        let mut rng = StdRng::seed_from_u64(6);
        let long: Vec<Observation> = (0..MAX_GP_POINTS + 3)
            .map(|_| {
                let cfg = sample::uniform(&space, &mut rng);
                let runtime = smooth_runtime(&space, &cfg);
                observed(cfg, runtime)
            })
            .collect();
        for n in MAX_GP_POINTS + 1..=MAX_GP_POINTS + 3 {
            let before = bo.scores.clone();
            let _ = bo.propose(&space, &long[..n], 1, &mut rng);
            let path = check_cached_scores(&bo, &before, &space, &long[..n]);
            if n > MAX_GP_POINTS + 1 {
                assert_eq!(path, Rescore::Rebuild, "a subsampled fit at n = {n}");
            }
        }

        for want in [
            Rescore::Append,
            Rescore::Noise,
            Rescore::LengthScale,
            Rescore::Rebuild,
        ] {
            assert!(paths[1..].contains(&want), "no {want:?} in {paths:?}");
        }
    }

    #[test]
    fn proposed_rows_leave_the_pool_and_batch_picks_are_distinct() {
        let space = confspace::spark::spark_space();
        for q in [1, 4] {
            let mut bo = BayesOpt::new();
            let mut rng = StdRng::seed_from_u64(12);
            let mut history: Vec<Observation> = Vec::new();
            while history.len() < 40 {
                let rows_before: Vec<Vec<f64>> = (0..bo.uniform.len())
                    .map(|i| bo.uniform.encoding(i).to_vec())
                    .collect();
                let was_guided = guided(&bo, &history);
                let batch = bo.propose(&space, &history, q, &mut rng);
                assert_eq!(batch.len(), q);
                for (i, a) in batch.iter().enumerate() {
                    assert!(!batch[..i].contains(a), "q = {q}: a repeated pick");
                }
                if was_guided && !rows_before.is_empty() {
                    let rows_after: Vec<Vec<f64>> = (0..bo.uniform.len())
                        .map(|i| bo.uniform.encoding(i).to_vec())
                        .collect();
                    let from_pool = batch
                        .iter()
                        .filter(|c| rows_before.contains(&space.encode(c)))
                        .count();
                    assert_eq!(rows_after.len() + from_pool, rows_before.len());
                    for c in &batch {
                        assert!(!rows_after.contains(&space.encode(c)), "a pick stayed");
                    }
                }
                for cfg in batch {
                    let runtime = rugged_runtime(&space, &cfg);
                    history.push(observed(cfg, runtime));
                }
            }
            assert!(
                bo.uniform.len() < CANDIDATES,
                "q = {q}: no pick came from the pool"
            );
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
            let cfg = t.propose(&space, &history, 1, &mut rng).remove(0);
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
