//! Re-tuning detection (§V-D): deciding *when* a workload's tuned
//! configuration has gone stale.
//!
//! The monitor watches the stream of managed-run observations and
//! signals re-tuning on (a) statistical drift in runtimes (via a
//! pluggable change detector) or (b) an input-size regime change read
//! from the workload signature — the "simple trigger" the paper
//! sketches ("detecting relative performance degradation over time
//! while running the same workload type on the same cluster
//! configuration").

use models::{ChangeDetector, Cusum, FixedThreshold, PageHinkley};
use serde::{Deserialize, Serialize};

use crate::characterize::WorkloadSignature;
use crate::objective::Observation;

/// Which detection rule drives re-tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RetunePolicy {
    /// The fixed-percentage rule the paper criticizes; the payload is
    /// the relative threshold (e.g. 20 ⇒ +20%).
    FixedThresholdPct(u32),
    /// Page–Hinkley drift detection on runtimes.
    PageHinkley,
    /// Two-sided CUSUM on runtimes.
    Cusum,
}

impl RetunePolicy {
    fn build(self, expected_runtime_s: f64) -> Box<dyn ChangeDetector + Send> {
        match self {
            RetunePolicy::FixedThresholdPct(pct) => {
                Box::new(FixedThreshold::new(f64::from(pct) / 100.0, 5))
            }
            RetunePolicy::PageHinkley => {
                // Tolerate drift of 5% of the expected runtime per run;
                // alarm only after more than a full runtime's worth of
                // cumulative excess — sized so straggler-level noise
                // (~10% sigma) stays below the bar over long windows.
                Box::new(PageHinkley::new(
                    0.05 * expected_runtime_s,
                    1.2 * expected_runtime_s,
                ))
            }
            RetunePolicy::Cusum => Box::new(Cusum::new(0.10, 1.5, 5)),
        }
    }

    /// The policy's display name.
    pub fn label(self) -> String {
        match self {
            RetunePolicy::FixedThresholdPct(p) => format!("fixed+{p}%"),
            RetunePolicy::PageHinkley => "page-hinkley".to_owned(),
            RetunePolicy::Cusum => "cusum".to_owned(),
        }
    }
}

/// Why re-tuning was signalled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RetuneReason {
    /// Runtime drift detected by the statistical rule.
    RuntimeDrift,
    /// The workload's input-size regime changed.
    InputRegimeChange,
}

/// A per-workload re-tuning monitor.
pub struct RetuneMonitor {
    policy: RetunePolicy,
    detector: Option<Box<dyn ChangeDetector + Send>>,
    baseline_signature: Option<WorkloadSignature>,
    runs_since_reset: usize,
}

impl std::fmt::Debug for RetuneMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RetuneMonitor")
            .field("policy", &self.policy)
            .field("runs_since_reset", &self.runs_since_reset)
            .finish()
    }
}

impl RetuneMonitor {
    /// Creates a monitor with the given policy.
    pub fn new(policy: RetunePolicy) -> Self {
        RetuneMonitor {
            policy,
            detector: None,
            baseline_signature: None,
            runs_since_reset: 0,
        }
    }

    /// Feeds one managed-run observation; returns a reason when
    /// re-tuning should be triggered.
    pub fn observe(&mut self, obs: &Observation) -> Option<RetuneReason> {
        self.runs_since_reset += 1;

        // Input-regime change beats statistics: the signature tells us
        // the workload itself changed (§IV-B's evolving input sizes).
        if let Some(metrics) = &obs.metrics {
            let sig = WorkloadSignature::from_metrics(metrics);
            match &self.baseline_signature {
                None => self.baseline_signature = Some(sig),
                Some(base) => {
                    if !base.same_size_regime(&sig) {
                        self.emit_trigger(RetuneReason::InputRegimeChange);
                        return Some(RetuneReason::InputRegimeChange);
                    }
                }
            }
        }

        if self.detector.is_none() {
            self.detector = Some(self.policy.build(obs.runtime_s));
        }
        if let Some(detector) = self.detector.as_mut() {
            if detector.update(obs.runtime_s) {
                self.emit_trigger(RetuneReason::RuntimeDrift);
                return Some(RetuneReason::RuntimeDrift);
            }
        }
        None
    }

    fn emit_trigger(&self, reason: RetuneReason) {
        obs::registry().counter("retune.triggers").inc();
        obs::instant(
            "retune.trigger",
            obs::fields![
                ("policy", self.policy.label()),
                ("reason", format!("{reason:?}")),
                ("runs_since_reset", self.runs_since_reset)
            ],
        );
    }

    /// Resets after a re-tuning completes (the new configuration's
    /// behaviour becomes the new baseline).
    pub fn reset(&mut self) {
        self.detector = None;
        self.baseline_signature = None;
        self.runs_since_reset = 0;
    }

    /// The active policy.
    pub fn policy(&self) -> RetunePolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confspace::Configuration;

    fn obs(runtime: f64) -> Observation {
        Observation {
            config: Configuration::new(),
            runtime_s: runtime,
            cost_usd: 0.0,
            metrics: None,
            failure: None,
        }
    }

    #[test]
    fn stationary_stream_triggers_nothing() {
        let mut m = RetuneMonitor::new(RetunePolicy::PageHinkley);
        for i in 0..50 {
            let jitter = 1.0 + 0.01 * ((i % 5) as f64 - 2.0);
            assert_eq!(m.observe(&obs(100.0 * jitter)), None, "run {i}");
        }
        assert_eq!(m.runs_since_reset, 50);
    }

    #[test]
    fn sustained_degradation_triggers_drift() {
        let mut m = RetuneMonitor::new(RetunePolicy::PageHinkley);
        for _ in 0..10 {
            assert_eq!(m.observe(&obs(100.0)), None);
        }
        let mut fired = false;
        for _ in 0..30 {
            if m.observe(&obs(140.0)) == Some(RetuneReason::RuntimeDrift) {
                fired = true;
                break;
            }
        }
        assert!(fired);
    }

    #[test]
    fn fixed_threshold_false_positives_on_a_spike() {
        let mut fixed = RetuneMonitor::new(RetunePolicy::FixedThresholdPct(20));
        let mut ph = RetuneMonitor::new(RetunePolicy::PageHinkley);
        for _ in 0..10 {
            assert_eq!(fixed.observe(&obs(100.0)), None);
            assert_eq!(ph.observe(&obs(100.0)), None);
        }
        // One noisy spike.
        let f = fixed.observe(&obs(128.0));
        let p = ph.observe(&obs(128.0));
        assert_eq!(f, Some(RetuneReason::RuntimeDrift), "fixed rule misfires");
        assert_eq!(p, None, "page-hinkley absorbs the spike");
    }

    #[test]
    fn reset_clears_state() {
        let mut m = RetuneMonitor::new(RetunePolicy::Cusum);
        for _ in 0..10 {
            let _ = m.observe(&obs(100.0));
        }
        m.reset();
        assert_eq!(m.runs_since_reset, 0);
        // New regime after reset is the new normal.
        for _ in 0..10 {
            assert_eq!(m.observe(&obs(150.0)), None);
        }
    }

    #[test]
    fn labels_are_informative() {
        assert_eq!(RetunePolicy::FixedThresholdPct(25).label(), "fixed+25%");
        assert_eq!(RetunePolicy::PageHinkley.label(), "page-hinkley");
    }

    /// Feeds the monitor a synthetic drifting workload — 15 stationary
    /// runs at 100 s, then a persistent +40% degradation — and collects
    /// every emitted reason.
    fn reasons_on_drift(policy: RetunePolicy) -> Vec<RetuneReason> {
        let mut m = RetuneMonitor::new(policy);
        let mut reasons = Vec::new();
        for i in 0..45 {
            let runtime = if i < 15 { 100.0 } else { 140.0 };
            if let Some(r) = m.observe(&obs(runtime)) {
                reasons.push(r);
                m.reset();
            }
        }
        reasons
    }

    #[test]
    fn every_policy_reports_runtime_drift_on_sustained_degradation() {
        for policy in [
            RetunePolicy::FixedThresholdPct(20),
            RetunePolicy::PageHinkley,
            RetunePolicy::Cusum,
        ] {
            let reasons = reasons_on_drift(policy);
            assert!(
                !reasons.is_empty(),
                "{} never fired on a +40% sustained drift",
                policy.label()
            );
            assert_eq!(
                reasons[0],
                RetuneReason::RuntimeDrift,
                "{} first reason",
                policy.label()
            );
            assert!(
                reasons.iter().all(|r| *r == RetuneReason::RuntimeDrift),
                "{} emitted a non-drift reason without metrics: {reasons:?}",
                policy.label()
            );
        }
    }

    fn obs_with_input(runtime: f64, input_mb: f64) -> Observation {
        use simcluster::ExecMetrics;
        Observation {
            config: Configuration::new(),
            runtime_s: runtime,
            cost_usd: 0.0,
            metrics: Some(ExecMetrics {
                runtime_s: runtime,
                input_mb,
                ..Default::default()
            }),
            failure: None,
        }
    }

    #[test]
    fn input_regime_change_preempts_runtime_drift_for_every_policy() {
        for policy in [
            RetunePolicy::FixedThresholdPct(20),
            RetunePolicy::PageHinkley,
            RetunePolicy::Cusum,
        ] {
            let mut m = RetuneMonitor::new(policy);
            let mut reasons = Vec::new();
            for i in 0..20 {
                // The input grows 100x at run 10 (runtime grows with it:
                // both signals are present; the signature must win).
                let (rt, mb) = if i < 10 {
                    (100.0, 100.0)
                } else {
                    (400.0, 10_000.0)
                };
                if let Some(r) = m.observe(&obs_with_input(rt, mb)) {
                    reasons.push(r);
                    m.reset();
                }
            }
            assert_eq!(
                reasons.first(),
                Some(&RetuneReason::InputRegimeChange),
                "{} must attribute the change to input growth: {reasons:?}",
                policy.label()
            );
        }
    }
}
