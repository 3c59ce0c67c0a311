//! Concurrent, fault-tolerant trial execution for batched tuning rounds.
//!
//! The paper frames tuning as a provider-side service (§IV): the
//! provider amortizes tuning across tenants, and production tuners
//! overlap trial evaluations instead of running them strictly one at a
//! time. [`TrialExecutor`] evaluates a batch of proposed configurations
//! over the `models::par` fork/join pool against an [`Objective`], whose
//! `evaluate(&self, config, trial_seed)` is safe to call from any
//! worker. Every tuning session runs on it; a batch of one is simply the
//! smallest round.
//!
//! Determinism contract: each trial's outcome is a pure function of
//! `(config, trial_seed)`, and the trial seed depends only on the
//! executor's base seed and the *global* trial index — never on the
//! batch size or thread count. Evaluating 8 trials as one batch of 8,
//! two batches of 4, or eight batches of 1 yields bitwise-identical
//! observations in the same order.
//!
//! Resilience contract (this layer's second job): a trial that errors,
//! hangs past its deadline, panics, or reports poisoned telemetry does
//! not take the round down. [`RetryPolicy`] retries it with capped
//! exponential backoff and deterministic jitter, [`TrialOutcome`]
//! reports `Ok`/`Failed`/`TimedOut` instead of panic-or-value, and
//! configurations that keep failing land on a quarantine list so later
//! rounds stop burning budget on them. Without injected faults a
//! healthy objective never retries, and attempt 0 uses exactly
//! [`trial_seed`].

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

use confspace::Configuration;
use serde::{Deserialize, Serialize};
use simcluster::FailureKind;

use crate::faults::{unit_draw, FaultInjector, FaultKind};
use crate::objective::{Objective, Observation, FAILURE_PENALTY_S};

/// Derives a well-mixed per-trial seed from the executor base seed and
/// the global trial index (SplitMix64 finalizer — consecutive indices
/// land in uncorrelated RNG streams).
pub fn trial_seed(base_seed: u64, trial_index: u64) -> u64 {
    let mut z = base_seed ^ trial_index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed for retry `attempt` of the trial at `trial_index`. Attempt 0 is
/// exactly [`trial_seed`] — so a trial that never needs a retry sees the
/// same randomness whatever the retry policy — while later attempts
/// re-mix through the same finalizer so a retried trial sees a fresh,
/// reproducible randomness stream.
fn attempt_seed(base_seed: u64, trial_index: u64, attempt: u32) -> u64 {
    let first = trial_seed(base_seed, trial_index);
    if attempt == 0 {
        first
    } else {
        trial_seed(first, u64::from(attempt))
    }
}

/// Retry/backoff/deadline policy for resilient trial execution.
///
/// All fields are finite (serde-friendly); the defaults retry twice
/// with 0.5s → 1s backoff, a generous one-day per-trial deadline, and
/// quarantine after two strikes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum evaluation attempts per trial (≥ 1; 1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry (s).
    pub base_backoff_s: f64,
    /// Multiplier applied per retry (clamped to ≥ 1 so the schedule is
    /// monotone non-decreasing).
    pub backoff_multiplier: f64,
    /// Cap on any single backoff (s).
    pub max_backoff_s: f64,
    /// Multiplicative jitter in `[0, jitter_frac]`, drawn
    /// deterministically from the trial seed.
    pub jitter_frac: f64,
    /// Per-trial deadline (s): an attempt whose wall-clock latency
    /// exceeds this is killed as timed out, and cumulative backoff
    /// never exceeds it.
    pub trial_deadline_s: f64,
    /// Strikes (failed/timed-out rounds) before a configuration is
    /// quarantined.
    pub quarantine_after: u32,
    /// Maximum failed trials tolerated in one round before the session
    /// stops early and returns a partial, degraded outcome.
    pub round_failure_budget: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_s: 0.5,
            backoff_multiplier: 2.0,
            max_backoff_s: 8.0,
            jitter_frac: 0.25,
            trial_deadline_s: 86_400.0,
            quarantine_after: 2,
            round_failure_budget: usize::MAX,
        }
    }
}

impl RetryPolicy {
    /// Un-jittered backoff before retry `attempt` (0-based): capped
    /// exponential, monotone non-decreasing in `attempt`.
    pub fn backoff_s(&self, attempt: u32) -> f64 {
        let base = self.base_backoff_s.max(0.0);
        let mult = self.backoff_multiplier.max(1.0);
        let cap = self.max_backoff_s.max(0.0);
        (base * mult.powi(attempt.min(1024) as i32)).min(cap)
    }

    /// Backoff with deterministic jitter: multiplies [`backoff_s`] by
    /// `1 + jitter_frac · u` where `u ∈ [0, 1)` derives from `(seed,
    /// attempt)` alone — the same seed replays the same jitter.
    ///
    /// [`backoff_s`]: RetryPolicy::backoff_s
    pub fn jittered_backoff_s(&self, attempt: u32, seed: u64) -> f64 {
        let u = unit_draw(seed ^ u64::from(attempt).wrapping_mul(0xA5A5_1234_5678_9ABD));
        self.backoff_s(attempt) * (1.0 + self.jitter_frac.clamp(0.0, 1.0) * u)
    }

    /// The full backoff schedule for one trial: up to `max_attempts−1`
    /// jittered waits, truncated so the cumulative backoff never
    /// exceeds `trial_deadline_s`. An empty schedule means no retries.
    pub fn schedule(&self, seed: u64) -> Vec<f64> {
        let mut out = Vec::new();
        let mut total = 0.0;
        for attempt in 0..self.max_attempts.saturating_sub(1) {
            let b = self.jittered_backoff_s(attempt, seed);
            if total + b > self.trial_deadline_s {
                break;
            }
            total += b;
            out.push(b);
        }
        out
    }
}

/// Why a trial attempt (or the whole trial) failed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TrialError {
    /// The execution substrate reported a hard error (injected fault,
    /// preemption, lost container).
    Injected(String),
    /// The objective panicked while evaluating.
    Panicked(String),
    /// The observation carried poisoned telemetry (NaN/negative
    /// durations or costs) and was rejected.
    Poisoned(String),
    /// The configuration is quarantined; the trial was never run.
    Quarantined,
}

impl std::fmt::Display for TrialError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrialError::Injected(why) => write!(f, "trial error: {why}"),
            TrialError::Panicked(why) => write!(f, "objective panicked: {why}"),
            TrialError::Poisoned(why) => write!(f, "poisoned telemetry: {why}"),
            TrialError::Quarantined => write!(f, "configuration quarantined"),
        }
    }
}

/// The result of one resilient trial: success, terminal failure after
/// retries, or deadline kill.
#[derive(Debug, Clone, PartialEq)]
pub enum TrialOutcome {
    /// The trial produced a valid observation.
    Ok {
        /// The observation (may still be an objective-level failure,
        /// e.g. an OOM penalty — that is signal, not a trial error).
        observation: Observation,
        /// Attempts consumed (1 = first try succeeded).
        attempts: u32,
    },
    /// Every allowed attempt failed.
    Failed {
        /// The configuration that was (or would have been) run.
        config: Configuration,
        /// The last attempt's error.
        error: TrialError,
        /// Attempts consumed (0 for quarantined configs).
        attempts: u32,
    },
    /// The trial hung or straggled past its deadline on its final
    /// attempt and was killed.
    TimedOut {
        /// The configuration that was run.
        config: Configuration,
        /// Attempts consumed.
        attempts: u32,
    },
}

impl TrialOutcome {
    /// Whether the trial produced a valid observation.
    pub fn is_ok(&self) -> bool {
        matches!(self, TrialOutcome::Ok { .. })
    }

    /// Attempts consumed by the trial.
    pub fn attempts(&self) -> u32 {
        match self {
            TrialOutcome::Ok { attempts, .. }
            | TrialOutcome::Failed { attempts, .. }
            | TrialOutcome::TimedOut { attempts, .. } => *attempts,
        }
    }

    /// The configuration the trial ran (or would have run).
    pub fn config(&self) -> &Configuration {
        match self {
            TrialOutcome::Ok { observation, .. } => &observation.config,
            TrialOutcome::Failed { config, .. } | TrialOutcome::TimedOut { config, .. } => config,
        }
    }

    /// The observation, if the trial succeeded.
    pub fn observation(&self) -> Option<&Observation> {
        match self {
            TrialOutcome::Ok { observation, .. } => Some(observation),
            _ => None,
        }
    }

    /// Collapses the outcome into an [`Observation`]: successes pass
    /// through; failures and timeouts become *censored* observations
    /// ([`Observation::is_censored`]) carrying the ranking penalty but
    /// no metrics, which surrogates skip.
    pub fn into_observation(self) -> Observation {
        match self {
            TrialOutcome::Ok { observation, .. } => observation,
            TrialOutcome::Failed { config, error, .. } => Observation {
                config,
                runtime_s: FAILURE_PENALTY_S,
                cost_usd: 0.0,
                metrics: None,
                failure: Some(FailureKind::TrialAborted {
                    reason: error.to_string(),
                }),
            },
            TrialOutcome::TimedOut { config, .. } => Observation {
                config,
                runtime_s: FAILURE_PENALTY_S,
                cost_usd: 0.0,
                metrics: None,
                failure: Some(FailureKind::TrialTimeout),
            },
        }
    }
}

/// Aggregate resilience statistics for one tuning session — the
/// "degradation report" a partial [`crate::TuningOutcome`] carries so a
/// caller can see how much of the budget survived.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DegradationReport {
    /// Trials that produced a valid observation.
    pub completed: usize,
    /// Trials that exhausted their retry budget.
    pub failed: usize,
    /// Trials killed at the per-trial deadline.
    pub timed_out: usize,
    /// Total retry attempts across all trials.
    pub retries: u64,
    /// Configurations on the quarantine list at session end.
    pub quarantined: usize,
    /// Whether a round blew the failure budget and ended the session
    /// early with a partial outcome.
    pub budget_exhausted: bool,
}

impl DegradationReport {
    /// Folds one round of trial outcomes in; returns the number of
    /// failed-or-timed-out trials in the round (for budget checks).
    pub fn absorb_round(&mut self, outcomes: &[TrialOutcome]) -> usize {
        let mut round_failures = 0;
        for o in outcomes {
            self.retries += u64::from(o.attempts().saturating_sub(1));
            match o {
                TrialOutcome::Ok { .. } => self.completed += 1,
                TrialOutcome::Failed { .. } => {
                    self.failed += 1;
                    round_failures += 1;
                }
                TrialOutcome::TimedOut { .. } => {
                    self.timed_out += 1;
                    round_failures += 1;
                }
            }
        }
        round_failures
    }

    /// Whether anything actually went wrong.
    pub fn degraded(&self) -> bool {
        self.failed > 0 || self.timed_out > 0 || self.budget_exhausted
    }
}

/// Stable quarantine key for a configuration (`Configuration` has no
/// `Hash`; its `Display` renders parameters in canonical order).
fn quarantine_key(config: &Configuration) -> String {
    format!("{config}")
}

/// Runs one resilient trial: retries through the policy's backoff
/// schedule, injecting faults from `injector`, catching panics and
/// rejecting poisoned observations. Pure in `(config, base_seed,
/// trial_index, policy, injector)` — safe to run on any worker thread.
fn execute_trial<O: Objective + ?Sized>(
    objective: &O,
    policy: &RetryPolicy,
    injector: &FaultInjector,
    base_seed: u64,
    trial_index: u64,
    config: &Configuration,
) -> TrialOutcome {
    let reg = obs::registry();
    let schedule = policy.schedule(trial_seed(base_seed, trial_index) ^ 0xBACC_0FF5);
    let allowed = ((schedule.len() + 1) as u32).min(policy.max_attempts.max(1));
    let mut last_error = TrialError::Injected("no attempts allowed".to_owned());
    let mut timed_out = false;
    for attempt in 0..allowed {
        if attempt > 0 {
            reg.counter("executor.retries").inc();
            reg.histogram("executor.backoff_s")
                .record_secs(schedule[(attempt - 1) as usize]);
        }
        let fault = injector.fault_for(trial_index, attempt);
        if fault == Some(FaultKind::Error) {
            last_error = TrialError::Injected(format!("injected fault at attempt {attempt}"));
            timed_out = false;
            continue;
        }
        if fault == Some(FaultKind::Hang) {
            // Infinite latency: only the deadline reaps it.
            timed_out = true;
            continue;
        }
        let seed = attempt_seed(base_seed, trial_index, attempt);
        let mut observation =
            match catch_unwind(AssertUnwindSafe(|| objective.evaluate(config, seed))) {
                Ok(obs) => obs,
                Err(payload) => {
                    let why = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_owned())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "opaque panic payload".to_owned());
                    last_error = TrialError::Panicked(why);
                    timed_out = false;
                    continue;
                }
            };
        match fault {
            Some(FaultKind::PoisonNan) => observation.runtime_s = f64::NAN,
            Some(FaultKind::PoisonNegative) => {
                observation.runtime_s = -observation.runtime_s.abs() - 1.0
            }
            _ => {}
        }
        if let Err(why) = observation.validate() {
            last_error = TrialError::Poisoned(why);
            timed_out = false;
            continue;
        }
        let factor = match fault {
            Some(FaultKind::Straggler(f)) => f,
            _ => 1.0,
        };
        if observation.trial_latency_s() * factor > policy.trial_deadline_s {
            timed_out = true;
            continue;
        }
        return TrialOutcome::Ok {
            observation,
            attempts: attempt + 1,
        };
    }
    if timed_out {
        TrialOutcome::TimedOut {
            config: config.clone(),
            attempts: allowed,
        }
    } else {
        TrialOutcome::Failed {
            config: config.clone(),
            error: last_error,
            attempts: allowed,
        }
    }
}

/// Evaluates batches of configurations concurrently with deterministic
/// per-trial seeding (outcomes are invariant to batch partitioning) and
/// fault-resilience (retry, deadline, quarantine).
#[derive(Debug, Clone)]
pub struct TrialExecutor {
    base_seed: u64,
    issued: u64,
    policy: RetryPolicy,
    injector: FaultInjector,
    strikes: HashMap<String, u32>,
    quarantined: HashSet<String>,
}

impl TrialExecutor {
    /// Creates an executor whose trial seeds derive from `base_seed`,
    /// with the default retry policy and no fault injection.
    pub fn new(base_seed: u64) -> Self {
        TrialExecutor {
            base_seed,
            issued: 0,
            policy: RetryPolicy::default(),
            injector: FaultInjector::none(),
            strikes: HashMap::new(),
            quarantined: HashSet::new(),
        }
    }

    /// Sets the retry policy and fault injector (builder style). Pass
    /// [`FaultInjector::none`] for production execution — the injector
    /// only exists so chaos tests can drive every failure path
    /// deterministically.
    pub fn with_resilience(mut self, policy: RetryPolicy, injector: FaultInjector) -> Self {
        self.policy = policy;
        self.injector = injector;
        self
    }

    /// The active retry policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Number of quarantined configurations.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.len()
    }

    /// Whether `config` is quarantined (fails without evaluation).
    fn is_quarantined(&self, config: &Configuration) -> bool {
        // The key formats every value: skip it while nothing is
        // quarantined, as on every healthy session.
        !self.quarantined.is_empty() && self.quarantined.contains(&quarantine_key(config))
    }

    /// Evaluates `configs` concurrently, returning a [`TrialOutcome`]
    /// per configuration in input order. Quarantined configurations
    /// fail immediately without touching the objective (but still
    /// advance the global trial index, preserving the seeds of their
    /// neighbours). Strike counts update once per round — quarantine is
    /// round-granular, so outcomes for *distinct* configurations remain
    /// invariant to batch partitioning.
    pub fn run_trials<O: Objective + ?Sized>(
        &mut self,
        objective: &O,
        configs: &[Configuration],
    ) -> Vec<TrialOutcome> {
        if configs.is_empty() {
            return Vec::new();
        }
        let reg = obs::registry();
        reg.gauge("executor.queue_depth").set(configs.len() as f64);
        let first = self.issued;
        self.issued += configs.len() as u64;
        let indexed: Vec<(u64, &Configuration, bool)> = configs
            .iter()
            .enumerate()
            .map(|(i, c)| (first + i as u64, c, self.is_quarantined(c)))
            .collect();
        let base = self.base_seed;
        let policy = self.policy;
        let injector = self.injector;
        let start = std::time::Instant::now();
        let out = models::par::par_map(&indexed, |(idx, cfg, quarantined)| {
            if *quarantined {
                TrialOutcome::Failed {
                    config: (*cfg).clone(),
                    error: TrialError::Quarantined,
                    attempts: 0,
                }
            } else {
                execute_trial(objective, &policy, &injector, base, *idx, cfg)
            }
        });
        reg.histogram("executor.batch_s")
            .record_secs(start.elapsed().as_secs_f64());
        reg.gauge("executor.queue_depth").set(0.0);
        for outcome in &out {
            match outcome {
                TrialOutcome::Ok { observation, .. } => {
                    // A success clears the configuration's strikes (if
                    // any trial has struck out at all).
                    if !self.strikes.is_empty() {
                        self.strikes.remove(&quarantine_key(&observation.config));
                    }
                }
                TrialOutcome::Failed {
                    error: TrialError::Quarantined,
                    ..
                } => {
                    reg.counter("executor.quarantine_hits").inc();
                }
                TrialOutcome::Failed { config, .. } | TrialOutcome::TimedOut { config, .. } => {
                    if matches!(outcome, TrialOutcome::TimedOut { .. }) {
                        reg.counter("executor.trial_timeouts").inc();
                    } else {
                        reg.counter("executor.trial_failures").inc();
                    }
                    let key = quarantine_key(config);
                    let strikes = self.strikes.entry(key.clone()).or_insert(0);
                    *strikes += 1;
                    if *strikes >= self.policy.quarantine_after.max(1)
                        && self.quarantined.insert(key)
                    {
                        reg.counter("executor.quarantined").inc();
                        // A config just crossed the strike threshold —
                        // capture the events leading up to it while
                        // they are still in the rings.
                        obs::flightrec::trigger_dump("quarantine");
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::objective::{DiscObjective, Objective, SimEnvironment};
    use confspace::sample;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use simcluster::ClusterSpec;
    use workloads::{DataScale, Wordcount, Workload};

    fn disc_objective(seed: u64) -> DiscObjective {
        DiscObjective::new(
            ClusterSpec::table1_testbed(),
            Wordcount::new().job(DataScale::Tiny),
            &SimEnvironment::dedicated(seed),
        )
    }

    fn sample_configs(obj: &DiscObjective, n: usize, seed: u64) -> Vec<Configuration> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| sample::uniform(obj.space(), &mut rng))
            .collect()
    }

    #[test]
    fn trial_seed_mixes_indices() {
        let a = trial_seed(42, 0);
        let b = trial_seed(42, 1);
        let c = trial_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Stable across calls.
        assert_eq!(a, trial_seed(42, 0));
    }

    #[test]
    fn attempt_zero_is_trial_seed() {
        for idx in 0..32 {
            assert_eq!(attempt_seed(9, idx, 0), trial_seed(9, idx));
            assert_ne!(attempt_seed(9, idx, 1), trial_seed(9, idx));
        }
    }

    #[test]
    fn batch_split_is_invariant() {
        let obj = disc_objective(7);
        let configs = sample_configs(&obj, 8, 11);

        let mut whole = TrialExecutor::new(99);
        let all = whole.run_trials(&obj, &configs);

        let mut split = TrialExecutor::new(99);
        let mut halves = split.run_trials(&obj, &configs[..4]);
        halves.extend(split.run_trials(&obj, &configs[4..]));

        assert_eq!(all.len(), 8);
        assert_eq!(all, halves);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let obj = disc_objective(3);
        let mut ex = TrialExecutor::new(1);
        assert!(ex.run_trials(&obj, &[]).is_empty());
        assert_eq!(ex.issued, 0);
    }

    #[test]
    fn backoff_schedule_is_monotone_and_capped() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_backoff_s: 0.5,
            backoff_multiplier: 2.0,
            max_backoff_s: 3.0,
            jitter_frac: 0.0,
            ..RetryPolicy::default()
        };
        let mut prev = 0.0;
        for k in 0..8 {
            let b = policy.backoff_s(k);
            assert!(b >= prev, "backoff must be non-decreasing");
            assert!(b <= 3.0, "backoff must respect the cap");
            prev = b;
        }
        assert_eq!(policy.backoff_s(7), 3.0);
    }

    #[test]
    fn injected_errors_are_retried_to_success() {
        let obj = disc_objective(5);
        let configs = sample_configs(&obj, 16, 21);
        // 30% error rate, 4 attempts: virtually every trial recovers.
        let policy = RetryPolicy {
            max_attempts: 4,
            ..RetryPolicy::default()
        };
        let mut ex = TrialExecutor::new(77)
            .with_resilience(policy, FaultInjector::new(123, FaultPlan::errors(0.3)));
        let outcomes = ex.run_trials(&obj, &configs);
        let retried = outcomes.iter().any(|o| o.attempts() > 1);
        assert!(retried, "some trial must have needed a retry");
        let ok = outcomes.iter().filter(|o| o.is_ok()).count();
        assert!(ok >= 14, "retries should recover most trials: {ok}/16");
    }

    #[test]
    fn permanent_hang_times_out_and_quarantines() {
        let obj = disc_objective(6);
        let configs = sample_configs(&obj, 4, 31);
        let plan = FaultPlan {
            permanent_straggler: Some(2),
            ..FaultPlan::none()
        };
        let policy = RetryPolicy {
            quarantine_after: 1,
            ..RetryPolicy::default()
        };
        let mut ex = TrialExecutor::new(55).with_resilience(policy, FaultInjector::new(9, plan));
        let outcomes = ex.run_trials(&obj, &configs);
        assert!(matches!(outcomes[2], TrialOutcome::TimedOut { .. }));
        assert!(ex.is_quarantined(&configs[2]));
        assert_eq!(ex.quarantined_count(), 1);
        // The same config in a later round fails without evaluation.
        let evals_before = obj.evaluations();
        let again = ex.run_trials(&obj, &configs[2..3]);
        assert!(matches!(
            again[0],
            TrialOutcome::Failed {
                error: TrialError::Quarantined,
                attempts: 0,
                ..
            }
        ));
        assert_eq!(obj.evaluations(), evals_before);
    }

    #[test]
    fn poisoned_observations_are_rejected_not_propagated() {
        let obj = disc_objective(8);
        let configs = sample_configs(&obj, 12, 41);
        // Poison every attempt: every trial must end Failed(Poisoned),
        // and the censored observations must be finite.
        let policy = RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        };
        let mut ex = TrialExecutor::new(3)
            .with_resilience(policy, FaultInjector::new(17, FaultPlan::poison(1.0)));
        for outcome in ex.run_trials(&obj, &configs) {
            let o = outcome.into_observation();
            assert!(o.runtime_s.is_finite());
            assert!(o.is_censored(), "poisoned trials must be censored");
            assert!(o.metrics.is_none());
        }
    }
}
