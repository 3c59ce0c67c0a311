//! Deterministic fault injection for trial execution.
//!
//! A tuning service that only ever sees healthy trials is a tuning
//! service that has never been deployed: real Spark runs OOM, get
//! preempted, straggle behind a slow node, or report garbage metrics.
//! This module provides the *test-first* half of the resilience story —
//! a [`FaultInjector`] that perturbs trial execution with a seeded,
//! reproducible fault stream, so every retry/timeout/quarantine path in
//! [`crate::executor`] can be driven deterministically in tests, chaos
//! suites, and benchmarks.
//!
//! Determinism contract: the fault (if any) affecting a trial attempt is
//! a pure function of `(injector seed, global trial index, attempt)`.
//! Like the per-trial seeds of [`crate::executor::trial_seed`], the
//! decision is keyed by the *global* trial index — never by batch size,
//! batch boundary, or worker thread — so a chaos run is invariant to
//! batch partitioning and `SEAMLESS_THREADS`, and re-running the same
//! seed replays the exact same faults.

use serde::{Deserialize, Serialize};

/// One injected fault, as decided for a single trial attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The trial crashes before producing an observation (container
    /// kill, preemption, lost driver).
    Error,
    /// The trial completes but its wall-clock latency is multiplied by
    /// the factor (slow node, noisy neighbour).
    Straggler(f64),
    /// The trial never completes: infinite latency, caught only by the
    /// executor's per-trial deadline.
    Hang,
    /// The trial reports a NaN runtime — poisoned telemetry.
    PoisonNan,
    /// The trial reports a negative duration — clock-skewed telemetry.
    PoisonNegative,
}

/// Fault rates for an injector. All rates are probabilities in `[0, 1]`
/// applied per attempt, in the order `error → hang → straggler →
/// poison` over one uniform draw (so the rates partition the unit
/// interval and never compound).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Probability of a hard trial error.
    pub error_rate: f64,
    /// Probability of a hang (infinite latency).
    pub hang_rate: f64,
    /// Probability of a straggler.
    pub straggler_rate: f64,
    /// Latency multiplier for stragglers.
    pub straggler_factor: f64,
    /// Probability of poisoned metrics (NaN or negative durations,
    /// alternating by a second deterministic draw).
    pub poison_rate: f64,
    /// A global trial index that hangs on *every* attempt — a permanent
    /// straggler that no retry can save, exercising the deadline +
    /// quarantine path.
    pub permanent_straggler: Option<u64>,
}

impl FaultPlan {
    /// The empty plan: no faults, ever.
    pub fn none() -> Self {
        FaultPlan {
            error_rate: 0.0,
            hang_rate: 0.0,
            straggler_rate: 0.0,
            straggler_factor: 1.0,
            poison_rate: 0.0,
            permanent_straggler: None,
        }
    }

    /// Hard trial errors only, at the given rate.
    pub fn errors(rate: f64) -> Self {
        FaultPlan {
            error_rate: rate,
            ..Self::none()
        }
    }

    /// Poisoned metrics only, at the given rate.
    pub fn poison(rate: f64) -> Self {
        FaultPlan {
            poison_rate: rate,
            ..Self::none()
        }
    }

    /// The default chaos mix used by `stune --chaos`: 10% errors, 2%
    /// hangs, 5% 8× stragglers, 3% poisoned metrics.
    pub fn chaos() -> Self {
        FaultPlan {
            error_rate: 0.10,
            hang_rate: 0.02,
            straggler_rate: 0.05,
            straggler_factor: 8.0,
            poison_rate: 0.03,
            permanent_straggler: None,
        }
    }

    /// Whether this plan can never fire.
    pub fn is_none(&self) -> bool {
        self.error_rate <= 0.0
            && self.hang_rate <= 0.0
            && (self.straggler_rate <= 0.0 || self.straggler_factor == 1.0)
            && self.poison_rate <= 0.0
            && self.permanent_straggler.is_none()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// SplitMix64 finalizer — the same mixing used by
/// [`crate::executor::trial_seed`], applied to the injector's stream.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from 53 mixed bits — shared with the
/// executor's deterministic backoff jitter.
pub(crate) fn unit_draw(z: u64) -> f64 {
    (mix(z) >> 11) as f64 / (1u64 << 53) as f64
}

/// A deterministic, seeded fault source for trial execution.
///
/// Stateless by design: every decision derives from the seed and the
/// `(trial_index, attempt)` coordinates, so the injector can be shared
/// across worker threads and replayed across processes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultInjector {
    seed: u64,
    plan: FaultPlan,
}

impl FaultInjector {
    /// Creates an injector with the given seed and plan.
    pub fn new(seed: u64, plan: FaultPlan) -> Self {
        FaultInjector { seed, plan }
    }

    /// The no-op injector: [`FaultInjector::fault_for`] always returns
    /// `None`, and execution through it is bitwise identical to
    /// execution without any injector.
    pub fn none() -> Self {
        FaultInjector::new(0, FaultPlan::none())
    }

    /// Whether this injector can never fire.
    fn is_noop(&self) -> bool {
        self.plan.is_none()
    }

    /// The injector's plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Derives an injector whose seed is XOR-mixed with `salt` — used to
    /// give each tuning stage (and each tenant) its own fault stream
    /// while keeping the whole run reproducible from one chaos seed.
    /// A no-op injector stays bitwise identical under reseeding.
    pub fn reseed(self, salt: u64) -> Self {
        if self.is_noop() {
            return self;
        }
        FaultInjector::new(self.seed ^ salt, self.plan)
    }

    /// The fault (if any) affecting `attempt` of the trial at the given
    /// *global* index. Pure: same `(seed, trial_index, attempt)`, same
    /// answer, on any thread, in any batch partition.
    pub fn fault_for(&self, trial_index: u64, attempt: u32) -> Option<FaultKind> {
        if self.plan.permanent_straggler == Some(trial_index) {
            return Some(FaultKind::Hang);
        }
        if self.is_noop() {
            return None;
        }
        let stream = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(trial_index.wrapping_mul(0xD134_2543_DE82_EF95))
            .wrapping_add(u64::from(attempt));
        let u = unit_draw(stream);
        let p = &self.plan;
        let mut edge = p.error_rate;
        if u < edge {
            return Some(FaultKind::Error);
        }
        edge += p.hang_rate;
        if u < edge {
            return Some(FaultKind::Hang);
        }
        edge += p.straggler_rate;
        if u < edge {
            return Some(FaultKind::Straggler(p.straggler_factor.max(1.0)));
        }
        edge += p.poison_rate;
        if u < edge {
            // A second independent draw picks the poison flavour.
            return Some(if unit_draw(stream ^ 0x5EED_F00D) < 0.5 {
                FaultKind::PoisonNan
            } else {
                FaultKind::PoisonNegative
            });
        }
        None
    }
}

impl Default for FaultInjector {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_injector_never_fires() {
        let inj = FaultInjector::none();
        assert!(inj.is_noop());
        for idx in 0..500 {
            for attempt in 0..3 {
                assert_eq!(inj.fault_for(idx, attempt), None);
            }
        }
    }

    #[test]
    fn decisions_are_deterministic_and_index_keyed() {
        let a = FaultInjector::new(42, FaultPlan::chaos());
        let b = FaultInjector::new(42, FaultPlan::chaos());
        for idx in 0..200 {
            assert_eq!(a.fault_for(idx, 0), b.fault_for(idx, 0));
            assert_eq!(a.fault_for(idx, 1), b.fault_for(idx, 1));
        }
        // A different seed produces a different fault stream.
        let c = FaultInjector::new(43, FaultPlan::chaos());
        let differs = (0..200).any(|i| a.fault_for(i, 0) != c.fault_for(i, 0));
        assert!(differs, "seed must drive the fault stream");
    }

    #[test]
    fn rates_are_approximately_respected() {
        let inj = FaultInjector::new(7, FaultPlan::errors(0.2));
        let fired = (0..5000).filter(|&i| inj.fault_for(i, 0).is_some()).count();
        let rate = fired as f64 / 5000.0;
        assert!((rate - 0.2).abs() < 0.03, "observed error rate {rate}");
    }

    #[test]
    fn attempts_resample_transient_faults() {
        // A fault on attempt 0 usually clears by some later attempt, so
        // retries can succeed.
        let inj = FaultInjector::new(11, FaultPlan::errors(0.5));
        let recovered = (0..200)
            .filter(|&i| {
                inj.fault_for(i, 0).is_some() && (1..4).any(|a| inj.fault_for(i, a).is_none())
            })
            .count();
        assert!(recovered > 0, "transient faults must be retryable");
    }

    #[test]
    fn permanent_straggler_hangs_on_every_attempt() {
        let plan = FaultPlan {
            permanent_straggler: Some(5),
            ..FaultPlan::none()
        };
        let inj = FaultInjector::new(3, plan);
        for attempt in 0..8 {
            assert_eq!(inj.fault_for(5, attempt), Some(FaultKind::Hang));
        }
        assert_eq!(inj.fault_for(4, 0), None);
    }
}
