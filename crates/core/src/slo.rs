//! Tuning-effectiveness metrics and cost accounting.
//!
//! §IV-D proposes SLOs of the form "jobs run within X% of the optimal
//! runtime" (with "optimal" approximated by the best runtime of similar
//! workloads ever seen); §V-C enumerates candidate effectiveness
//! metrics; §IV-C demands that tuning cost not outweigh the runtime
//! savings before re-tuning is needed. This module implements all
//! three.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

/// Effectiveness metrics for one tuned workload (§V-C's candidate
/// metric menu, computed side by side).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloReport {
    /// The tuned configuration's runtime (s).
    pub tuned_runtime_s: f64,
    /// Best-known runtime for this workload (the session's optimum
    /// proxy), if any.
    pub optimal_runtime_s: Option<f64>,
    /// Best runtime of *similar* workloads in the provider's history.
    pub best_similar_runtime_s: Option<f64>,
    /// Runtime under the default configuration, if measured.
    pub default_runtime_s: Option<f64>,
}

impl SloReport {
    /// Distance from optimal as a fraction: `runtime/optimal − 1`
    /// (0 = optimal). `None` when no optimum proxy is known.
    pub fn distance_from_optimal(&self) -> Option<f64> {
        self.optimal_runtime_s
            .map(|opt| self.tuned_runtime_s / opt.max(1e-9) - 1.0)
    }

    /// Whether the tuned runtime is within `x` (e.g. 0.10) of optimal —
    /// the §IV-D SLO predicate.
    pub fn within_of_optimal(&self, x: f64) -> Option<bool> {
        self.distance_from_optimal().map(|d| d <= x)
    }
}

/// The §IV-C amortization ledger: does the cost sunk into tuning pay
/// for itself before re-tuning is needed?
///
/// # Example
///
/// ```
/// use seamless_core::AmortizationLedger;
///
/// let ledger = AmortizationLedger {
///     tuning_cost_usd: 10.0,
///     baseline_run_cost_usd: 1.0,
///     tuned_run_cost_usd: 0.5,
/// };
/// assert_eq!(ledger.runs_to_break_even(), Some(20.0));
/// assert!(ledger.amortizes_within(90.0)); // the paper's 3-month lifetime
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct AmortizationLedger {
    /// Dollars spent on tuning executions.
    pub tuning_cost_usd: f64,
    /// Cost per production run under the baseline configuration.
    pub baseline_run_cost_usd: f64,
    /// Cost per production run under the tuned configuration.
    pub tuned_run_cost_usd: f64,
}

impl AmortizationLedger {
    /// Dollars saved per production run.
    pub fn saving_per_run_usd(&self) -> f64 {
        self.baseline_run_cost_usd - self.tuned_run_cost_usd
    }

    /// Number of production runs needed to recoup the tuning spend;
    /// `None` when the tuned configuration saves nothing (tuning never
    /// pays off — the paper's "tuning makes no sense" regime).
    pub fn runs_to_break_even(&self) -> Option<f64> {
        let saving = self.saving_per_run_usd();
        if saving <= 0.0 {
            None
        } else {
            Some(self.tuning_cost_usd / saving)
        }
    }

    /// Whether the tuning investment amortizes within `runs` production
    /// executions (e.g. the paper's 90 runs / 3 months exemplar).
    pub fn amortizes_within(&self, runs: f64) -> bool {
        self.runs_to_break_even().is_some_and(|r| r <= runs)
    }

    /// Net dollars after `runs` production executions (positive =
    /// tuning won).
    pub fn net_saving_after(&self, runs: f64) -> f64 {
        self.saving_per_run_usd() * runs - self.tuning_cost_usd
    }
}

/// Aggregates per-job SLO outcomes into an attainment curve: the
/// fraction of jobs whose tuned runtime is within `x` of their optimum,
/// for each `x` in `thresholds`.
pub fn attainment_curve(reports: &[SloReport], thresholds: &[f64]) -> Vec<(f64, f64)> {
    thresholds
        .iter()
        .map(|&x| {
            let evaluable: Vec<bool> = reports
                .iter()
                .filter_map(|r| r.within_of_optimal(x))
                .collect();
            let frac = if evaluable.is_empty() {
                0.0
            } else {
                evaluable.iter().filter(|&&b| b).count() as f64 / evaluable.len() as f64
            };
            (x, frac)
        })
        .collect()
}

/// Rolling per-tenant SLO/cost statistics, as published to the
/// metrics registry (and therefore the scrape endpoint).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TenantSloStats {
    /// Tunes folded in so far (all time).
    pub tunes: u64,
    /// Tunes in the current window with an evaluable SLO verdict.
    pub evaluable: u64,
    /// Fraction of evaluable window tunes within the threshold of
    /// optimal (1.0 while nothing is evaluable — no evidence of a
    /// violation yet).
    pub within_ratio: f64,
    /// Fraction of the error budget left: `1 − burn_rate`. Negative
    /// once the tenant has missed more than the target allows.
    pub error_budget_remaining: f64,
    /// Miss rate over the allowed miss rate (`1 − target`); 1.0 means
    /// the budget is being consumed exactly as fast as it accrues.
    pub burn_rate: f64,
    /// Cumulative tuning spend (cents, all time).
    pub cost_cents: f64,
    /// Mean runs-to-break-even over the window's ledgers; `None` when
    /// no window ledger ever pays off.
    pub mean_runs_to_break_even: Option<f64>,
}

#[derive(Debug, Default)]
struct TenantWindow {
    /// Recent within-threshold verdicts (None = not evaluable).
    verdicts: VecDeque<Option<bool>>,
    /// Recent runs-to-break-even (None = never pays off).
    break_even: VecDeque<Option<f64>>,
    tunes: u64,
    cost_usd_total: f64,
    /// Whole cents already pushed to each registry's counter, by
    /// [`obs::Registry::id`], so repeated publishes add only the delta
    /// (counters are monotonic) and a registry published into for the
    /// first time gets the full spend.
    cents_published: BTreeMap<u64, u64>,
}

/// Continuous per-tenant SLO and cost accounting for the tuning
/// service (§IV-D as a *live* objective, not a post-hoc report).
///
/// Each completed tune folds its [`SloReport`] + [`AmortizationLedger`]
/// into a rolling window per tenant; [`SloTracker::publish`] pushes the
/// derived gauges/counters into a metrics registry under
/// [`obs::labeled`] keys, so an OpenMetrics scrape shows
/// `slo_within_10pct_ratio{tenant=...}`,
/// `slo_tuning_cost_cents_total{tenant=...}`,
/// `slo_retune_amortization{tenant=...}`, the error budget, and the
/// burn rate for every tenant.
#[derive(Debug)]
pub struct SloTracker {
    window: usize,
    /// The SLO threshold `x` in "within `x` of optimal" (§IV-D).
    threshold: f64,
    /// Target attainment (e.g. 0.9 = 90% of tunes within threshold).
    target: f64,
    tenants: Mutex<BTreeMap<String, TenantWindow>>,
}

impl Default for SloTracker {
    /// 32-tune windows on the paper's "within 10% of optimal" SLO with
    /// a 90% attainment target.
    fn default() -> Self {
        SloTracker::new(32, 0.10, 0.9)
    }
}

impl SloTracker {
    /// A tracker over `window`-tune rolling windows, judging each tune
    /// as within `threshold` of optimal, against an attainment
    /// `target` in `(0, 1)`.
    pub fn new(window: usize, threshold: f64, target: f64) -> Self {
        SloTracker {
            window: window.max(1),
            threshold,
            target: target.clamp(0.0, 1.0 - 1e-9),
            tenants: Mutex::new(BTreeMap::new()),
        }
    }

    /// The SLO threshold this tracker judges against.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Folds one completed tune into `tenant`'s window and returns the
    /// updated statistics.
    pub fn observe(
        &self,
        tenant: &str,
        report: &SloReport,
        ledger: &AmortizationLedger,
    ) -> TenantSloStats {
        let mut tenants = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
        let w = tenants.entry(tenant.to_string()).or_default();
        w.tunes += 1;
        w.cost_usd_total += ledger.tuning_cost_usd;
        w.verdicts
            .push_back(report.within_of_optimal(self.threshold));
        w.break_even.push_back(ledger.runs_to_break_even());
        while w.verdicts.len() > self.window {
            w.verdicts.pop_front();
        }
        while w.break_even.len() > self.window {
            w.break_even.pop_front();
        }
        self.stats_of(w)
    }

    /// Current statistics for `tenant`, if it has been observed.
    pub fn stats(&self, tenant: &str) -> Option<TenantSloStats> {
        let tenants = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
        tenants.get(tenant).map(|w| self.stats_of(w))
    }

    /// Tenants observed so far, sorted.
    pub fn tenants(&self) -> Vec<String> {
        let tenants = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
        tenants.keys().cloned().collect()
    }

    fn stats_of(&self, w: &TenantWindow) -> TenantSloStats {
        let evaluable: Vec<bool> = w.verdicts.iter().filter_map(|v| *v).collect();
        let within_ratio = if evaluable.is_empty() {
            1.0
        } else {
            evaluable.iter().filter(|&&b| b).count() as f64 / evaluable.len() as f64
        };
        let allowed_miss = 1.0 - self.target;
        let burn_rate = (1.0 - within_ratio) / allowed_miss;
        let paying: Vec<f64> = w.break_even.iter().filter_map(|b| *b).collect();
        let mean_runs_to_break_even = if paying.is_empty() {
            None
        } else {
            Some(paying.iter().sum::<f64>() / paying.len() as f64)
        };
        TenantSloStats {
            tunes: w.tunes,
            evaluable: evaluable.len() as u64,
            within_ratio,
            error_budget_remaining: 1.0 - burn_rate,
            burn_rate,
            cost_cents: w.cost_usd_total * 100.0,
            mean_runs_to_break_even,
        }
    }

    /// Publishes every tenant's statistics into `registry` under
    /// per-tenant labeled keys. Gauges are overwritten; the cost
    /// counter advances by the spend since the last publish into the
    /// same registry.
    pub fn publish(&self, registry: &obs::Registry) {
        let mut tenants = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
        for (tenant, w) in tenants.iter_mut() {
            self.publish_window(registry, tenant, w);
        }
    }

    /// [`publish`](Self::publish) for one tenant, if it has been
    /// observed. A tenant's statistics change only when it is observed,
    /// so publishing just the observed tenant after each
    /// [`observe`](Self::observe) keeps `registry` as the full publish
    /// would, at a cost independent of the tenant count.
    pub fn publish_tenant(&self, registry: &obs::Registry, tenant: &str) {
        let mut tenants = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(w) = tenants.get_mut(tenant) {
            self.publish_window(registry, tenant, w);
        }
    }

    fn publish_window(&self, registry: &obs::Registry, tenant: &str, w: &mut TenantWindow) {
        let stats = self.stats_of(w);
        let labels: &[(&str, &str)] = &[("tenant", tenant)];
        registry
            .gauge(&obs::labeled("slo.within_10pct_ratio", labels))
            .set(stats.within_ratio);
        registry
            .gauge(&obs::labeled("slo.error_budget_remaining", labels))
            .set(stats.error_budget_remaining);
        registry
            .gauge(&obs::labeled("slo.burn_rate", labels))
            .set(stats.burn_rate);
        registry
            .gauge(&obs::labeled("slo.retune_amortization", labels))
            .set(stats.mean_runs_to_break_even.unwrap_or(f64::INFINITY));
        let cents_total = stats.cost_cents.max(0.0).round() as u64;
        let published = w.cents_published.entry(registry.id()).or_default();
        let delta = cents_total.saturating_sub(*published);
        if delta > 0 {
            registry
                .counter(&obs::labeled("slo.tuning_cost_cents", labels))
                .add(delta);
            *published = cents_total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(tuned: f64, optimal: f64) -> SloReport {
        SloReport {
            tuned_runtime_s: tuned,
            optimal_runtime_s: Some(optimal),
            best_similar_runtime_s: Some(optimal * 1.1),
            default_runtime_s: Some(optimal * 20.0),
        }
    }

    #[test]
    fn distance_and_within() {
        let r = report(110.0, 100.0);
        assert!((r.distance_from_optimal().unwrap() - 0.1).abs() < 1e-9);
        assert_eq!(r.within_of_optimal(0.15), Some(true));
        assert_eq!(r.within_of_optimal(0.05), Some(false));
    }

    #[test]
    fn ledger_break_even() {
        let l = AmortizationLedger {
            tuning_cost_usd: 100.0,
            baseline_run_cost_usd: 12.0,
            tuned_run_cost_usd: 10.0,
        };
        assert!((l.runs_to_break_even().unwrap() - 50.0).abs() < 1e-9);
        assert!(l.amortizes_within(90.0));
        assert!(!l.amortizes_within(40.0));
        assert!((l.net_saving_after(100.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn ledger_never_pays_off_without_savings() {
        let l = AmortizationLedger {
            tuning_cost_usd: 100.0,
            baseline_run_cost_usd: 10.0,
            tuned_run_cost_usd: 10.5,
        };
        assert_eq!(l.runs_to_break_even(), None);
        assert!(!l.amortizes_within(1e9));
    }

    #[test]
    fn attainment_curve_fractions() {
        let reports = vec![
            report(101.0, 100.0),
            report(120.0, 100.0),
            report(200.0, 100.0),
        ];
        let curve = attainment_curve(&reports, &[0.05, 0.25, 1.5]);
        assert_eq!(curve[0], (0.05, 1.0 / 3.0));
        assert!((curve[1].1 - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(curve[2].1, 1.0);
    }

    fn ledger(tuning: f64, baseline: f64, tuned: f64) -> AmortizationLedger {
        AmortizationLedger {
            tuning_cost_usd: tuning,
            baseline_run_cost_usd: baseline,
            tuned_run_cost_usd: tuned,
        }
    }

    #[test]
    fn tracker_rolls_windows_and_accumulates_cost() {
        let tracker = SloTracker::new(4, 0.10, 0.9);
        // Three hits, one miss → 75% within, all in one 4-tune window.
        for tuned in [100.0, 105.0, 109.0, 150.0] {
            tracker.observe("alice", &report(tuned, 100.0), &ledger(2.0, 1.0, 0.5));
        }
        let stats = tracker.stats("alice").unwrap();
        assert_eq!(stats.tunes, 4);
        assert_eq!(stats.evaluable, 4);
        assert!((stats.within_ratio - 0.75).abs() < 1e-9);
        // Miss rate 0.25 against an allowed 0.10 → burn rate 2.5.
        assert!((stats.burn_rate - 2.5).abs() < 1e-9);
        assert!((stats.error_budget_remaining - (1.0 - 2.5)).abs() < 1e-9);
        assert!((stats.cost_cents - 800.0).abs() < 1e-9);
        assert!((stats.mean_runs_to_break_even.unwrap() - 4.0).abs() < 1e-9);

        // Four more hits push the miss out of the window entirely.
        for _ in 0..4 {
            tracker.observe("alice", &report(100.0, 100.0), &ledger(2.0, 1.0, 0.5));
        }
        let stats = tracker.stats("alice").unwrap();
        assert_eq!(stats.tunes, 8);
        assert_eq!(stats.within_ratio, 1.0);
        assert_eq!(stats.burn_rate, 0.0);
        assert!((stats.cost_cents - 1600.0).abs() < 1e-9, "cost is all-time");
    }

    #[test]
    fn tracker_with_no_evaluable_verdicts_reports_clean() {
        let tracker = SloTracker::default();
        let blind = SloReport {
            tuned_runtime_s: 50.0,
            optimal_runtime_s: None,
            best_similar_runtime_s: None,
            default_runtime_s: None,
        };
        let stats = tracker.observe("bob", &blind, &ledger(1.0, 1.0, 2.0));
        assert_eq!(stats.evaluable, 0);
        assert_eq!(stats.within_ratio, 1.0);
        assert_eq!(stats.burn_rate, 0.0);
        assert_eq!(stats.mean_runs_to_break_even, None);
    }

    #[test]
    fn tracker_publishes_labeled_series() {
        let reg = obs::Registry::new();
        let tracker = SloTracker::new(8, 0.10, 0.9);
        tracker.observe("alice", &report(100.0, 100.0), &ledger(2.0, 1.0, 0.5));
        tracker.observe("bob", &report(150.0, 100.0), &ledger(3.0, 1.0, 2.0));
        tracker.publish(&reg);
        tracker.publish(&reg); // idempotent for counters (no new spend)

        let snap = reg.snapshot();
        let gauge = |key: &str| {
            snap.gauges
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing gauge {key}"))
        };
        assert_eq!(gauge("slo.within_10pct_ratio{tenant=\"alice\"}"), 1.0);
        assert_eq!(gauge("slo.within_10pct_ratio{tenant=\"bob\"}"), 0.0);
        assert_eq!(
            gauge("slo.retune_amortization{tenant=\"bob\"}"),
            f64::INFINITY,
            "a ledger that never pays off publishes +Inf"
        );
        let cents: Vec<_> = snap
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("slo.tuning_cost_cents"))
            .collect();
        assert_eq!(cents.len(), 2);
        assert!(cents.iter().any(|(k, v)| k.contains("alice") && *v == 200));
        assert!(cents.iter().any(|(k, v)| k.contains("bob") && *v == 300));

        // And the OpenMetrics rendering carries the tenant labels.
        let text = obs::openmetrics::render(&snap);
        assert!(
            text.contains("slo_within_10pct_ratio{tenant=\"alice\"} 1"),
            "{text}"
        );
        assert!(text.contains("slo_tuning_cost_cents_total{tenant=\"bob\"} 300"));
    }

    #[test]
    fn publishing_the_observed_tenant_keeps_the_full_publish() {
        // One tracker feeds both registries: it remembers the spend it
        // has published into each.
        let tracker = SloTracker::new(3, 0.10, 0.9);
        let (each, full) = (obs::Registry::new(), obs::Registry::new());
        let tunes = [
            ("alice", 100.0, 2.0),
            ("bob", 150.0, 3.0),
            ("alice", 104.0, 0.004),
            ("carol", 120.0, 1.0),
            ("bob", 100.0, 0.0),
            ("alice", 300.0, 5.0),
            ("alice", 100.0, 1.5),
            ("carol", 101.0, 2.25),
        ];
        for (tenant, tuned, cost) in tunes {
            tracker.observe(tenant, &report(tuned, 100.0), &ledger(cost, 1.0, 0.5));
            tracker.publish_tenant(&each, tenant);
            tracker.publish(&full);
        }
        tracker.publish_tenant(&each, "nobody");
        let (each, full) = (each.snapshot(), full.snapshot());
        assert_eq!(each.counters, full.counters);
        assert_eq!(each.counters.len(), 3);
        let bits = |gauges: &[(String, f64)]| -> Vec<(String, u64)> {
            gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.to_bits()))
                .collect()
        };
        assert_eq!(bits(&each.gauges), bits(&full.gauges));
        assert_eq!(each.gauges.len(), 3 * 4);
        assert!(each.histograms.is_empty() && full.histograms.is_empty());
    }
    #[test]
    fn spend_watermarks_are_kept_per_registry() {
        let tracker = SloTracker::new(3, 0.10, 0.9);
        let (first, second) = (obs::Registry::new(), obs::Registry::new());
        assert_ne!(first.id(), second.id());
        let cents = |r: &obs::Registry, tenant: &str| {
            r.counter(&obs::labeled(
                "slo.tuning_cost_cents",
                &[("tenant", tenant)],
            ))
            .get()
        };
        tracker.observe("alice", &report(100.0, 100.0), &ledger(2.0, 1.0, 0.5));
        tracker.observe("bob", &report(100.0, 100.0), &ledger(0.5, 1.0, 0.5));
        tracker.publish(&first);
        tracker.publish(&first);
        tracker.publish_tenant(&first, "alice");
        assert_eq!((cents(&first, "alice"), cents(&first, "bob")), (200, 50));

        tracker.observe("alice", &report(100.0, 100.0), &ledger(1.5, 1.0, 0.5));
        tracker.publish_tenant(&first, "alice");
        // A registry published into for the first time gets the full
        // spend, not the spend since the other registry's publish.
        tracker.publish(&second);
        for r in [&first, &second] {
            assert_eq!((cents(r, "alice"), cents(r, "bob")), (350, 50));
        }
        // Repeated publishes into either registry never double-count.
        for _ in 0..3 {
            tracker.publish(&first);
            tracker.publish(&second);
            tracker.publish_tenant(&second, "alice");
        }
        for r in [&first, &second] {
            assert_eq!((cents(r, "alice"), cents(r, "bob")), (350, 50));
        }
    }
}
