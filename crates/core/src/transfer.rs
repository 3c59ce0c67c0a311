//! Transfer learning across workloads (§V-B): warm-start a tuner with
//! observations donated from similar workloads in the provider's
//! history, guarded against *negative transfer* (Ge et al. \[17\]).
//!
//! The donated observations are rescaled to the target's runtime
//! magnitude (the correlation between configuration and performance is
//! what transfers, not absolute runtimes) and are revalidated once real
//! observations accumulate: if the donated ranking disagrees with the
//! observed ranking, the donation is dropped.

use confspace::{Configuration, ParamSpace};
use rand::RngCore;

use crate::history::HistoryStore;
use crate::objective::Observation;
use crate::tuner::Tuner;
use crate::WorkloadSignature;

/// Builds warm-start observations for a target workload: among the
/// `3k` most similar records of other tenants, donate the `k`
/// *fastest* (similarity routes to the right neighbourhood; quality
/// decides what is worth imitating), rescaled so their median runtime
/// matches `target_scale_s`.
pub fn donated_observations(
    store: &HistoryStore,
    query: &WorkloadSignature,
    k: usize,
    exclude_client: Option<&str>,
    target_scale_s: f64,
) -> Vec<Observation> {
    let _span = obs::span("donor_search").with("k", k);
    let mut records = store.most_similar(query, 3 * k, exclude_client);
    records.sort_by(|a, b| a.runtime_s.total_cmp(&b.runtime_s));
    records.truncate(k);
    obs::registry()
        .counter("transfer.donations")
        .add(records.len() as u64);
    if records.is_empty() {
        return Vec::new();
    }
    let mut runtimes: Vec<f64> = records.iter().map(|r| r.runtime_s).collect();
    runtimes.sort_by(f64::total_cmp);
    let median = runtimes[runtimes.len() / 2].max(1e-9);
    let scale = target_scale_s / median;
    records
        .into_iter()
        .map(|r| Observation {
            config: r.config,
            runtime_s: r.runtime_s * scale,
            cost_usd: 0.0,
            metrics: None,
            failure: None,
        })
        .collect()
}

/// A tuner wrapper injecting donated observations into the history its
/// inner strategy sees — with a rank-agreement guard that drops the
/// donation if it turns out to mislead (negative transfer).
///
/// Batch-native: a round of `q` is the unprobed donated incumbent (if
/// any) followed by one inner `propose` over the donated prefix and the
/// real history, so nothing but real outcomes and donations ever
/// reaches the inner strategy.
pub struct TransferTuner {
    inner: Box<dyn Tuner>,
    donated: Vec<Observation>,
    /// Real observations required before validating the donation.
    validate_after: usize,
    validated: bool,
    /// The history the inner strategy sees: `donated` (runtimes
    /// rescaled in place every round), then the session history,
    /// appended as it grows instead of re-cloned per round.
    visible: Vec<Observation>,
}

impl TransferTuner {
    /// Wraps `inner`, donating `donated` observations.
    pub fn new(inner: Box<dyn Tuner>, donated: Vec<Observation>) -> Self {
        TransferTuner {
            inner,
            visible: donated.clone(),
            donated,
            validate_after: 5,
            validated: false,
        }
    }

    /// The session history mirrored in `visible`.
    fn seen(&self) -> &[Observation] {
        &self.visible[self.donated.len()..]
    }

    /// Brings `visible` up to date with `history`. A tuner serves one
    /// session, whose history only grows (the [`Tuner`] contract), so
    /// only new entries are cloned.
    fn sync(&mut self, history: &[Observation]) {
        let seen = self.seen().len();
        debug_assert!(
            seen == 0 || self.seen()[seen - 1] == history[seen - 1],
            "history was rewritten, not appended to"
        );
        self.visible.extend_from_slice(&history[seen..]);
    }

    /// Whether the donation is still active.
    pub fn donation_active(&self) -> bool {
        !self.donated.is_empty()
    }

    /// Kendall-style rank agreement between donated predictions and
    /// real observations over configs present in both… donated configs
    /// are rarely re-evaluated exactly, so the guard instead checks that
    /// the donated *best* region is not observed to be bad: if the real
    /// runs nearest (in config space) to the donated best are slower
    /// than the real median, the donation is judged misleading.
    fn donation_misleads(&self, space: &ParamSpace, real: &[Observation]) -> bool {
        let Some(donated_best) = self
            .donated
            .iter()
            .min_by(|a, b| a.runtime_s.total_cmp(&b.runtime_s))
        else {
            return false;
        };
        let ok: Vec<&Observation> = real.iter().filter(|o| o.is_ok()).collect();
        if ok.len() < 3 {
            return false;
        }
        let q = space.encode(&donated_best.config);
        let mut by_dist: Vec<&&Observation> = ok.iter().collect();
        by_dist.sort_by(|a, b| {
            models::stats::dist(&space.encode(&a.config), &q)
                .total_cmp(&models::stats::dist(&space.encode(&b.config), &q))
        });
        let near_mean = models::stats::mean(
            &by_dist
                .iter()
                .take(3)
                .map(|o| o.runtime_s)
                .collect::<Vec<_>>(),
        );
        let Some(observed_best) = ok.iter().map(|o| o.runtime_s).min_by(f64::total_cmp) else {
            return false;
        };
        // The donation claimed its best region; if the real runs nearest
        // to that region are far slower than the best we've actually
        // seen, the donated surface points the wrong way.
        near_mean > observed_best * 2.0
    }

    /// Readies `visible` for one round: syncs it with `history`, runs
    /// the misleading-donor guard once enough real runs exist, and
    /// rescales the donated runtimes to the observed scale. Returns the
    /// donated incumbent if no trial has run it yet.
    fn prepare_round(
        &mut self,
        space: &ParamSpace,
        history: &[Observation],
    ) -> Option<Configuration> {
        self.sync(history);
        if !self.validated && self.seen().len() >= self.validate_after {
            if self.donation_misleads(space, self.seen()) {
                self.visible.drain(..self.donated.len());
                self.donated.clear();
            }
            self.validated = true;
        }

        // Align the donated runtimes to the target's observed scale so
        // the inner surrogate is not fitting two offset populations.
        let real_ok: Vec<f64> = history
            .iter()
            .filter(|o| o.is_ok())
            .map(|o| o.runtime_s)
            .collect();
        let donated_ok: Vec<f64> = self
            .donated
            .iter()
            .filter(|o| o.is_ok())
            .map(|o| o.runtime_s)
            .collect();
        let scale = if real_ok.len() >= 2 && !donated_ok.is_empty() {
            models::stats::median(&real_ok) / models::stats::median(&donated_ok).max(1e-9)
        } else {
            1.0
        };
        for (shown, donor) in self.visible.iter_mut().zip(&self.donated) {
            if donor.is_ok() {
                shown.runtime_s = donor.runtime_s * scale;
            }
        }

        // Probe the donated incumbent first: the single cheapest way to
        // cash in a similar workload's tuning knowledge.
        let donated_best = self
            .donated
            .iter()
            .filter(|o| o.is_ok())
            .min_by(|a, b| a.runtime_s.total_cmp(&b.runtime_s))?;
        (!history.iter().any(|o| o.config == donated_best.config))
            .then(|| donated_best.config.clone())
    }
}

impl Tuner for TransferTuner {
    fn name(&self) -> &str {
        "transfer"
    }

    /// One round: the unprobed donated incumbent (if any) first, then
    /// one inner `propose` call over `visible` for the rest, so a
    /// batch-native inner strategy (BayesOpt's q-EI) fits its surrogate
    /// once per round.
    fn propose(
        &mut self,
        space: &ParamSpace,
        history: &[Observation],
        q: usize,
        rng: &mut dyn RngCore,
    ) -> Vec<Configuration> {
        let mut batch: Vec<Configuration> =
            self.prepare_round(space, history).into_iter().collect();
        if batch.len() < q {
            let rest = q - batch.len();
            batch.extend(self.inner.propose(space, &self.visible, rest, rng));
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuner::BayesOpt;
    use confspace::sample;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn space() -> ParamSpace {
        ParamSpace::new().with(confspace::ParamDef::int("a", 0, 100, 50, ""))
    }

    fn obs(space: &ParamSpace, a: i64, runtime: f64) -> Observation {
        Observation {
            config: space.default_configuration().with("a", a),
            runtime_s: runtime,
            cost_usd: 0.0,
            metrics: None,
            failure: None,
        }
    }

    #[test]
    fn good_donation_steers_early_proposals() {
        let s = space();
        // Donor says: small `a` is fast.
        let donated: Vec<Observation> = (0..8)
            .map(|i| obs(&s, i * 12, 10.0 + (i * 12) as f64))
            .collect();
        let mut t = TransferTuner::new(Box::new(BayesOpt::new()), donated);
        let mut rng = StdRng::seed_from_u64(1);
        // With 8 donated points the BO warm-up is already satisfied, so
        // the first proposal is model-guided.
        let c = t.propose(&s, &[], 1, &mut rng).remove(0);
        assert!(c.int("a") <= 40, "should exploit the donated trend: {c}");
    }

    /// Each inner `propose` call's `q` and the history it was shown.
    type Calls = Rc<RefCell<Vec<(usize, Vec<Observation>)>>>;

    /// Records every `propose` call; proposes `a = 0, 1, 2, …`
    /// in call order.
    struct Spy {
        calls: Calls,
        next: i64,
    }

    impl Tuner for Spy {
        fn name(&self) -> &str {
            "spy"
        }

        fn propose(
            &mut self,
            space: &ParamSpace,
            history: &[Observation],
            q: usize,
            _rng: &mut dyn RngCore,
        ) -> Vec<Configuration> {
            self.calls.borrow_mut().push((q, history.to_vec()));
            (0..q)
                .map(|_| {
                    self.next += 1;
                    space.default_configuration().with("a", self.next - 1)
                })
                .collect()
        }
    }

    #[test]
    fn a_round_is_the_donated_probe_then_one_inner_batch_without_lies() {
        let s = space();
        let donated = vec![obs(&s, 90, 5.0), obs(&s, 80, 7.0), obs(&s, 70, 9.0)];
        let calls = Calls::default();
        let spy = Spy {
            calls: Rc::clone(&calls),
            next: 0,
        };
        let mut t = TransferTuner::new(Box::new(spy), donated.clone());
        let mut rng = StdRng::seed_from_u64(4);
        let mut history = Vec::new();
        for round in 0..3 {
            let batch = t.propose(&s, &history, 8, &mut rng);
            assert_eq!(batch.len(), 8, "round {round}");
            let calls = calls.borrow();
            assert_eq!(calls.len(), round + 1, "one inner call per round");
            let (q, shown) = calls.last().unwrap();
            if round == 0 {
                assert_eq!(batch[0], donated[0].config, "donated best first");
                assert_eq!(*q, 7);
            } else {
                assert_eq!(*q, 8);
            }
            // The donated prefix, then exactly the real history.
            assert_eq!(shown.len(), donated.len() + history.len());
            for (seen, donor) in shown.iter().zip(&donated) {
                assert_eq!(seen.config, donor.config);
            }
            assert_eq!(&shown[donated.len()..], &history[..]);
            drop(calls);
            for (i, cfg) in batch.into_iter().enumerate() {
                history.push(Observation {
                    config: cfg,
                    runtime_s: 10.0 + i as f64,
                    cost_usd: 0.0,
                    metrics: None,
                    failure: None,
                });
            }
        }
    }

    #[test]
    fn a_q8_round_over_bayesopt_is_eight_distinct_valid_configs() {
        let s = confspace::spark::spark_space();
        let mut rng = StdRng::seed_from_u64(6);
        let observe = |config: Configuration, runtime_s: f64| Observation {
            config,
            runtime_s,
            cost_usd: 0.0,
            metrics: None,
            failure: None,
        };
        let donated: Vec<Observation> = (0..4)
            .map(|i| observe(sample::uniform(&s, &mut rng), 50.0 + i as f64))
            .collect();
        // Ten real runs: past BayesOpt's 8-point warm-up.
        let history: Vec<Observation> = (0..10)
            .map(|i| observe(sample::uniform(&s, &mut rng), 40.0 + 3.0 * i as f64))
            .collect();
        let mut t = TransferTuner::new(Box::new(BayesOpt::new()), donated);
        let batch = t.propose(&s, &history, 8, &mut rng);
        assert_eq!(batch.len(), 8);
        for (i, cfg) in batch.iter().enumerate() {
            assert!(s.validate(cfg).is_ok(), "invalid proposal {cfg}");
            assert!(!batch[..i].contains(cfg), "duplicate proposal {cfg}");
        }
    }

    #[test]
    fn misleading_donation_is_dropped() {
        let s = space();
        // Donor claims a=0 is best…
        let donated = vec![obs(&s, 0, 1.0), obs(&s, 100, 100.0)];
        let mut t = TransferTuner::new(Box::new(crate::tuner::RandomSearch), donated);
        let mut rng = StdRng::seed_from_u64(2);
        // …but real observations near a=0 are slow, far ones fast.
        let real = vec![
            obs(&s, 2, 500.0),
            obs(&s, 5, 480.0),
            obs(&s, 10, 470.0),
            obs(&s, 90, 10.0),
            obs(&s, 95, 12.0),
        ];
        assert!(t.donation_active());
        let _ = t.propose(&s, &real, 1, &mut rng);
        assert!(!t.donation_active(), "negative transfer should be dropped");
    }

    #[test]
    fn consistent_donation_is_kept() {
        let s = space();
        let donated = vec![obs(&s, 0, 1.0), obs(&s, 100, 100.0)];
        let mut t = TransferTuner::new(Box::new(crate::tuner::RandomSearch), donated);
        let mut rng = StdRng::seed_from_u64(3);
        let real = vec![
            obs(&s, 2, 11.0),
            obs(&s, 5, 12.0),
            obs(&s, 10, 15.0),
            obs(&s, 90, 80.0),
            obs(&s, 95, 90.0),
        ];
        let _ = t.propose(&s, &real, 1, &mut rng);
        assert!(t.donation_active());
    }

    #[test]
    fn donated_observations_rescale_to_target() {
        use crate::history::ExecutionRecord;
        use simcluster::ExecMetrics;
        let store = HistoryStore::new();
        let sig = WorkloadSignature::from_metrics(&ExecMetrics::default());
        for runtime in [100.0, 200.0, 300.0] {
            store.insert(ExecutionRecord {
                client: "donor".into(),
                workload: "w".into(),
                signature: sig.clone(),
                config: Configuration::new().with("a", 1i64),
                runtime_s: runtime,
                cost_usd: 0.0,
                seq: 0,
                outcome: crate::history::RecordOutcome::Ok,
            });
        }
        let donated = donated_observations(&store, &sig, 3, None, 20.0);
        assert_eq!(donated.len(), 3);
        // Median (200) maps to 20.
        let mut rts: Vec<f64> = donated.iter().map(|o| o.runtime_s).collect();
        rts.sort_by(f64::total_cmp);
        assert!((rts[1] - 20.0).abs() < 1e-9);
    }
}
