//! Objectives: what tuners optimize.
//!
//! A tuner never sees the simulator directly — it sees an [`Objective`]:
//! "here is a configuration, give me an observation". This is exactly
//! the interface a tuning service has against a real cluster, which is
//! what lets every strategy in [`crate::tuner`] be substrate-agnostic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use confspace::{Configuration, ParamSpace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use simcluster::{
    ClusterSpec, ExecMetrics, FailureKind, InterferenceModel, JobSpec, Simulator, SparkEnv,
};

/// Runtime assigned to crashed/unlaunchable runs so that failures rank
/// strictly worse than any successful run while staying finite for the
/// surrogate models (1 day, in seconds).
pub const FAILURE_PENALTY_S: f64 = 86_400.0;

/// Wall-clock time a launch failure wastes before the submission is
/// rejected (s) — cluster spin-up plus the failed allocation.
pub const LAUNCH_FAILURE_COST_S: f64 = 60.0;

/// Wall-clock time a runtime crash (OOM loop, fetch-timeout abort)
/// wastes before the job dies (s) — the paper's "expensive failed test
/// execution" is minutes of burn, not the scheduling penalty used for
/// ranking.
pub const RUNTIME_FAILURE_COST_S: f64 = 600.0;

/// The Spark space, built once per process and shared by every
/// [`DiscObjective`] (a space is immutable once built).
pub(crate) fn spark_space() -> &'static ParamSpace {
    static SPACE: OnceLock<ParamSpace> = OnceLock::new();
    SPACE.get_or_init(confspace::spark::spark_space)
}

/// The cloud space, built once per process and shared by every
/// [`CloudObjective`].
fn cloud_space() -> &'static ParamSpace {
    static SPACE: OnceLock<ParamSpace> = OnceLock::new();
    SPACE.get_or_init(confspace::cloud::cloud_space)
}

/// One observed execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// The configuration that was run.
    pub config: Configuration,
    /// Observed runtime in seconds ([`FAILURE_PENALTY_S`] on failure).
    pub runtime_s: f64,
    /// Dollar cost of the run: cluster price × runtime. A run that
    /// never launched is charged [`LAUNCH_FAILURE_COST_S`] of cluster
    /// time and one that crashed [`RUNTIME_FAILURE_COST_S`]; a censored
    /// trial ([`Observation::is_censored`]) is charged nothing.
    pub cost_usd: f64,
    /// Detailed metrics, absent for failed runs.
    pub metrics: Option<ExecMetrics>,
    /// How the run failed, if it did.
    pub failure: Option<FailureKind>,
}

impl Observation {
    /// Whether the run completed successfully.
    pub fn is_ok(&self) -> bool {
        self.failure.is_none()
    }

    /// Whether the observation is *censored*: the execution harness
    /// aborted the trial (retry budget exhausted, panic, poisoned
    /// telemetry) or killed it at the deadline. The penalty runtime
    /// still ranks a censored point worst, but it carries no signal
    /// about the true objective — surrogates must fit on survivors only
    /// and penalize, not model, these regions.
    pub fn is_censored(&self) -> bool {
        matches!(
            self.failure,
            Some(FailureKind::TrialAborted { .. }) | Some(FailureKind::TrialTimeout)
        )
    }

    /// Wall-clock seconds the trial occupied the cluster: successful
    /// runs take their runtime, launch failures burn the spin-up time,
    /// runtime crashes burn minutes before dying. Distinct from
    /// `runtime_s`, which for failures is the *ranking* penalty
    /// ([`FAILURE_PENALTY_S`]) rather than elapsed time — deadlines
    /// compare against latency, never against the penalty.
    pub fn trial_latency_s(&self) -> f64 {
        match &self.failure {
            None => self.runtime_s,
            Some(FailureKind::LaunchFailure { .. }) => LAUNCH_FAILURE_COST_S,
            Some(_) => RUNTIME_FAILURE_COST_S,
        }
    }

    /// Checks the observation's telemetry for poisoned values (NaN,
    /// infinite or negative durations/costs) that must never reach the
    /// history store or the surrogates.
    pub fn validate(&self) -> Result<(), String> {
        if !self.runtime_s.is_finite() || self.runtime_s < 0.0 {
            return Err(format!("poisoned runtime {}", self.runtime_s));
        }
        if !self.cost_usd.is_finite() || self.cost_usd < 0.0 {
            return Err(format!("poisoned cost {}", self.cost_usd));
        }
        if let Some(m) = &self.metrics {
            if !m.is_wellformed() {
                return Err("poisoned execution metrics".to_owned());
            }
        }
        Ok(())
    }
}

/// A black-box tuning objective.
///
/// `evaluate` derives all of a trial's randomness from the explicit
/// `trial_seed` (see [`crate::executor::trial_seed`]), so a trial's
/// outcome is a pure function of `(configuration, trial_seed)`: neither
/// the batch size, the worker count, nor the completion order of its
/// neighbours can change what it observes, and any trial replays
/// exactly.
pub trait Objective: Sync {
    /// The configuration space being tuned.
    fn space(&self) -> &ParamSpace;

    /// Runs one execution under `config`, seeded by `trial_seed` alone.
    fn evaluate(&self, config: &Configuration, trial_seed: u64) -> Observation;

    /// A short description for reports.
    fn describe(&self) -> String {
        "objective".to_owned()
    }
}

/// The simulated environment shared by the concrete objectives.
#[derive(Debug, Clone)]
pub struct SimEnvironment {
    /// Co-location interference model.
    pub interference: InterferenceModel,
    /// Base seed callers derive trial seeds from. Objectives ignore
    /// it: each evaluation is seeded explicitly.
    pub seed: u64,
}

impl SimEnvironment {
    /// Dedicated (interference-free) hardware with the given seed.
    pub fn dedicated(seed: u64) -> Self {
        SimEnvironment {
            interference: InterferenceModel::none(),
            seed,
        }
    }

    /// A lightly-shared cloud.
    pub fn shared(seed: u64) -> Self {
        SimEnvironment {
            interference: InterferenceModel::light(),
            seed,
        }
    }
}

/// Stage-2 objective: tune DISC (Spark) parameters for a fixed job on a
/// fixed cluster.
#[derive(Debug)]
pub struct DiscObjective {
    cluster: ClusterSpec,
    job: JobSpec,
    space: &'static ParamSpace,
    sim: Simulator,
    evaluations: AtomicU64,
}

impl DiscObjective {
    /// Creates the objective for `job` on `cluster`.
    pub fn new(cluster: ClusterSpec, job: JobSpec, env: &SimEnvironment) -> Self {
        DiscObjective {
            cluster,
            job,
            space: spark_space(),
            sim: Simulator::with_interference(env.interference),
            evaluations: AtomicU64::new(0),
        }
    }

    /// Number of evaluations performed so far.
    pub fn evaluations(&self) -> u64 {
        self.evaluations.load(Ordering::Relaxed)
    }

    /// The cluster this objective runs on.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// Replaces the job (e.g. when input size evolves).
    pub fn set_job(&mut self, job: JobSpec) {
        self.job = job;
    }

    /// The current job.
    pub fn job(&self) -> &JobSpec {
        &self.job
    }
}

/// Runs one simulation, translating failures into penalty observations.
fn observe(
    sim: &Simulator,
    cluster: &ClusterSpec,
    config: &Configuration,
    disc_config: &Configuration,
    job: &JobSpec,
    trial_seed: u64,
) -> Observation {
    let env = match SparkEnv::resolve(cluster, disc_config) {
        Ok(env) => env,
        Err(failure) => {
            return Observation {
                config: config.clone(),
                runtime_s: FAILURE_PENALTY_S,
                cost_usd: cluster.cost_for(LAUNCH_FAILURE_COST_S),
                metrics: None,
                failure: Some(failure),
            }
        }
    };
    match sim.run(&env, job, &mut StdRng::seed_from_u64(trial_seed)) {
        Ok(result) => Observation {
            config: config.clone(),
            runtime_s: result.runtime_s,
            cost_usd: result.cost_usd,
            metrics: Some(result.metrics),
            failure: None,
        },
        Err(failure) => Observation {
            config: config.clone(),
            runtime_s: FAILURE_PENALTY_S,
            cost_usd: cluster.cost_for(RUNTIME_FAILURE_COST_S),
            metrics: None,
            failure: Some(failure),
        },
    }
}

/// Provisions the cluster a cloud-layer `config` denotes and runs
/// [`observe`] on it; an unknown instance type is a launch failure.
fn observe_provisioned(
    sim: &Simulator,
    config: &Configuration,
    disc_config: &Configuration,
    job: &JobSpec,
    trial_seed: u64,
) -> Observation {
    match ClusterSpec::from_config(config) {
        Ok(cluster) => observe(sim, &cluster, config, disc_config, job, trial_seed),
        Err(_) => Observation {
            config: config.clone(),
            runtime_s: FAILURE_PENALTY_S,
            cost_usd: 0.0,
            metrics: None,
            failure: Some(FailureKind::LaunchFailure {
                reason: "unknown instance type".to_owned(),
            }),
        },
    }
}

impl Objective for DiscObjective {
    fn space(&self) -> &ParamSpace {
        self.space
    }

    fn evaluate(&self, config: &Configuration, trial_seed: u64) -> Observation {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        observe(
            &self.sim,
            &self.cluster,
            config,
            config,
            &self.job,
            trial_seed,
        )
    }

    fn describe(&self) -> String {
        format!("DISC tuning of {} on {}", self.job.name, self.cluster)
    }
}

/// Stage-1 objective: tune the cloud layer (instance family/size/node
/// count) for a fixed job, running with a fixed DISC configuration.
#[derive(Debug)]
pub struct CloudObjective {
    job: JobSpec,
    disc_config: Configuration,
    space: &'static ParamSpace,
    sim: Simulator,
}

impl CloudObjective {
    /// Creates the objective with the given fixed DISC configuration.
    pub fn new(job: JobSpec, disc_config: Configuration, env: &SimEnvironment) -> Self {
        CloudObjective {
            job,
            disc_config,
            space: cloud_space(),
            sim: Simulator::with_interference(env.interference),
        }
    }
}

impl Objective for CloudObjective {
    fn space(&self) -> &ParamSpace {
        self.space
    }

    fn evaluate(&self, config: &Configuration, trial_seed: u64) -> Observation {
        observe_provisioned(&self.sim, config, &self.disc_config, &self.job, trial_seed)
    }

    fn describe(&self) -> String {
        format!("cloud tuning of {}", self.job.name)
    }
}

/// Joint objective over cloud **and** DISC parameters at once (§I: the
/// two layers' optima are interdependent, e.g. vCPUs ↔ executor cores).
#[derive(Debug)]
pub struct JointObjective {
    job: JobSpec,
    space: ParamSpace,
    sim: Simulator,
}

impl JointObjective {
    /// Creates the joint objective for `job`.
    pub fn new(job: JobSpec, env: &SimEnvironment) -> Self {
        JointObjective {
            job,
            space: confspace::cloud::joint_space(),
            sim: Simulator::with_interference(env.interference),
        }
    }
}

impl Objective for JointObjective {
    fn space(&self) -> &ParamSpace {
        &self.space
    }

    fn evaluate(&self, config: &Configuration, trial_seed: u64) -> Observation {
        observe_provisioned(&self.sim, config, config, &self.job, trial_seed)
    }

    fn describe(&self) -> String {
        format!("joint cloud+DISC tuning of {}", self.job.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{DataScale, Wordcount, Workload};

    fn tiny_job() -> JobSpec {
        Wordcount::new().job(DataScale::Tiny)
    }

    #[test]
    fn disc_objective_evaluates_default_config() {
        let obj = DiscObjective::new(
            ClusterSpec::table1_testbed(),
            tiny_job(),
            &SimEnvironment::dedicated(1),
        );
        let cfg = obj.space().default_configuration();
        let obs = obj.evaluate(&cfg, 0);
        assert!(obs.is_ok(), "{:?}", obs.failure);
        assert!(obs.runtime_s > 0.0 && obs.runtime_s < FAILURE_PENALTY_S);
        assert_eq!(obj.evaluations(), 1);
    }

    #[test]
    fn repeated_evaluations_are_noisy_but_close() {
        let obj = DiscObjective::new(
            ClusterSpec::table1_testbed(),
            tiny_job(),
            &SimEnvironment::dedicated(2),
        );
        let cfg = obj.space().default_configuration();
        let a = obj.evaluate(&cfg, 1).runtime_s;
        let b = obj.evaluate(&cfg, 2).runtime_s;
        assert_ne!(a, b, "objective should be stochastic across seeds");
        assert_eq!(
            a,
            obj.evaluate(&cfg, 1).runtime_s,
            "and replayable per seed"
        );
        assert!(
            (a - b).abs() / a < 0.5,
            "noise should be bounded: {a} vs {b}"
        );
    }

    #[test]
    fn launch_failures_are_penalized() {
        let obj = DiscObjective::new(
            ClusterSpec::new(simcluster::catalog::lookup("m5", "large").unwrap(), 2),
            tiny_job(),
            &SimEnvironment::dedicated(3),
        );
        // 32 GB executor on an 8 GB node cannot launch.
        let cfg = obj
            .space()
            .default_configuration()
            .with(confspace::spark::names::EXECUTOR_MEMORY_MB, 32768i64);
        let obs = obj.evaluate(&cfg, 0);
        assert!(!obs.is_ok());
        assert_eq!(obs.runtime_s, FAILURE_PENALTY_S);
    }

    #[test]
    fn cloud_objective_explores_instances() {
        let obj = CloudObjective::new(
            tiny_job(),
            confspace::spark::spark_space().default_configuration(),
            &SimEnvironment::dedicated(4),
        );
        let small = obj
            .space()
            .default_configuration()
            .with(confspace::cloud::names::INSTANCE_FAMILY, "m5")
            .with(confspace::cloud::names::INSTANCE_SIZE, "large")
            .with(confspace::cloud::names::NODE_COUNT, 2i64);
        let obs = obj.evaluate(&small, 0);
        assert!(obs.is_ok());
        assert!(obs.cost_usd > 0.0);
    }

    #[test]
    fn joint_objective_uses_both_layers() {
        let obj = JointObjective::new(tiny_job(), &SimEnvironment::dedicated(5));
        assert_eq!(obj.space().len(), 29);
        let cfg = obj.space().default_configuration();
        let obs = obj.evaluate(&cfg, 0);
        assert!(obs.is_ok());
    }
}
