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
use crate::tuner::{constant_lie_runtime, Tuner};
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
pub struct TransferTuner {
    inner: Box<dyn Tuner>,
    donated: Vec<Observation>,
    /// Real observations required before validating the donation.
    validate_after: usize,
    validated: bool,
    /// The history the inner strategy sees: `donated` (runtimes
    /// rescaled in place on every proposal), then the session history,
    /// appended as it grows instead of re-cloned per proposal.
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

    /// Brings `visible` up to date with `history`. Within a session the
    /// history only grows (the [`Tuner`] contract), so only new entries
    /// are cloned; a shorter history means a new session and a rebuild.
    fn sync(&mut self, history: &[Observation]) {
        if history.len() < self.seen().len() {
            self.visible.truncate(self.donated.len());
        }
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

    /// One proposal against the history mirrored in `visible`.
    fn propose_visible(&mut self, space: &ParamSpace, rng: &mut dyn RngCore) -> Configuration {
        if !self.validated && self.seen().len() >= self.validate_after {
            if self.donation_misleads(space, self.seen()) {
                self.visible.drain(..self.donated.len());
                self.donated.clear();
            }
            self.validated = true;
        }
        let history = self.seen();

        // Probe the donated incumbent first: the single cheapest way to
        // cash in a similar workload's tuning knowledge.
        if let Some(donated_best) = self
            .donated
            .iter()
            .filter(|o| o.is_ok())
            .min_by(|a, b| a.runtime_s.total_cmp(&b.runtime_s))
        {
            if !history.iter().any(|o| o.config == donated_best.config) {
                return donated_best.config.clone();
            }
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
        self.inner.propose(space, &self.visible, rng)
    }
}

impl Tuner for TransferTuner {
    fn name(&self) -> &str {
        "transfer"
    }

    fn propose(
        &mut self,
        space: &ParamSpace,
        history: &[Observation],
        rng: &mut dyn RngCore,
    ) -> Configuration {
        self.sync(history);
        self.propose_visible(space, rng)
    }

    /// The default constant liar, run on `visible` so the lies never
    /// outlive the batch: each proposal is committed as a fake
    /// observation at the incumbent runtime, and the lies are dropped
    /// before the next round appends the real outcomes.
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
        self.sync(history);
        let lie = constant_lie_runtime(history);
        let mut batch = Vec::with_capacity(q);
        for _ in 0..q {
            let cfg = self.propose_visible(space, rng);
            self.visible.push(Observation {
                config: cfg.clone(),
                runtime_s: lie,
                cost_usd: 0.0,
                metrics: None,
                failure: None,
            });
            batch.push(cfg);
        }
        self.visible.truncate(self.donated.len() + history.len());
        batch
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.validated = false;
        self.visible.truncate(self.donated.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuner::BayesOpt;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
        let c = t.propose(&s, &[], &mut rng);
        assert!(c.int("a") <= 40, "should exploit the donated trend: {c}");
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
        let _ = t.propose(&s, &real, &mut rng);
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
        let _ = t.propose(&s, &real, &mut rng);
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
