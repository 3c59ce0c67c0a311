//! The seamless tuning service: Fig. 1's two-stage pipeline plus
//! managed execution with automatic re-tuning.
//!
//! [`SeamlessTuner`] is what the paper argues the *cloud provider*
//! should operate (§IV): given a submitted job it (1) characterizes the
//! workload with one probe run, (2) tunes the cloud layer (instance
//! family/size/count), (3) tunes the DISC layer on the chosen cluster —
//! warm-started from similar tenants' history (§V-B) — and records
//! every execution in the provider-side history store. [`ManagedWorkload`]
//! then runs the tuned workload on behalf of the tenant, watching for
//! drift and re-tuning automatically (§V-D).

use std::sync::Arc;

use confspace::spark::names as sp;
use confspace::Configuration;
use serde::{Deserialize, Serialize};

use simcluster::{ClusterSpec, JobSpec};

use crate::characterize::WorkloadSignature;
use crate::executor::{trial_seed, RetryPolicy};
use crate::faults::FaultInjector;
use crate::history::{ExecutionRecord, HistoryStore, RecordOutcome};
use crate::objective::{CloudObjective, DiscObjective, Objective, Observation, SimEnvironment};
use crate::retune::{RetuneMonitor, RetunePolicy, RetuneReason};
use crate::slo::{AmortizationLedger, SloReport, SloTracker};
use crate::transfer::{donated_observations, TransferTuner};
use crate::tuner::{TunerKind, TuningOutcome, TuningSession};

/// Service-level tuning settings.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Strategy used in both stages.
    pub tuner: TunerKind,
    /// Evaluation budget for stage 1 (cloud configuration).
    pub stage1_budget: usize,
    /// Evaluation budget for stage 2 (DISC configuration).
    pub stage2_budget: usize,
    /// Donated observations pulled from similar tenants (0 disables
    /// transfer). Keep small: a handful of high-quality donations adds
    /// a strong incumbent probe without suppressing the strategy's own
    /// exploration — large donations are where negative transfer
    /// (§V-B) creeps in.
    pub transfer_k: usize,
    /// Re-tuning trigger for managed execution.
    pub retune_policy: RetunePolicy,
    /// Budget for each automatic re-tuning session.
    pub retune_budget: usize,
    /// Trials proposed and evaluated per round in each tuning stage
    /// (default 1). Larger values amortize one surrogate fit across the
    /// whole round and let the [`crate::executor::TrialExecutor`]
    /// evaluate the round concurrently.
    pub batch: usize,
    /// Retry/backoff policy of the trial executor (retries, per-trial
    /// deadlines, quarantine). `None` means [`RetryPolicy::default`].
    pub retry: Option<RetryPolicy>,
    /// Deterministic fault injection for chaos testing: perturbs trials
    /// with the injector's seeded fault stream (reseeded per stage and
    /// per tenant). `None` injects nothing.
    pub chaos: Option<FaultInjector>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            tuner: TunerKind::BayesOpt,
            stage1_budget: 10,
            stage2_budget: 20,
            transfer_k: 3,
            retune_policy: RetunePolicy::PageHinkley,
            retune_budget: 10,
            batch: 1,
            retry: None,
            chaos: None,
        }
    }
}

impl ServiceConfig {
    /// Whether a retry policy or fault injection was configured
    /// explicitly. Sessions run on the same executor path either way.
    pub fn is_resilient(&self) -> bool {
        self.retry.is_some() || self.chaos.is_some()
    }

    /// The effective retry policy (defaults apply when only chaos is
    /// configured).
    pub fn effective_retry(&self) -> RetryPolicy {
        self.retry.unwrap_or_default()
    }

    /// The stage injector: the configured chaos injector reseeded with
    /// `salt`, or the no-op injector.
    fn injector(&self, salt: u64) -> FaultInjector {
        self.chaos
            .map(|inj| inj.reseed(salt))
            .unwrap_or_else(FaultInjector::none)
    }

    /// `session` with this configuration's retry policy and fault
    /// injector (reseeded with `salt`).
    fn apply_resilience(&self, mut session: TuningSession, salt: u64) -> TuningSession {
        session.with_resilience(self.effective_retry(), self.injector(salt));
        session
    }
}

/// The outcome of one end-to-end service tuning.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceOutcome {
    /// Chosen cloud configuration (stage 1).
    pub cloud_config: Configuration,
    /// The provisioned cluster it denotes.
    pub cluster: ClusterSpec,
    /// Chosen DISC configuration (stage 2).
    pub disc_config: Configuration,
    /// Best observed runtime under the final configuration (s).
    pub best_runtime_s: f64,
    /// Stage-1 tuning trace.
    pub stage1: TuningOutcome,
    /// Stage-2 tuning trace.
    pub stage2: TuningOutcome,
    /// Whether cross-tenant transfer seeded stage 2.
    pub used_transfer: bool,
    /// The workload's signature from the probe run.
    pub signature: WorkloadSignature,
    /// Effectiveness of this tune (§IV-D/§V-C): tuned runtime against
    /// the optimum proxy, the best similar tenant's runtime, and the
    /// probe's house-default runtime.
    pub slo: SloReport,
}

impl ServiceOutcome {
    /// Total dollars spent tuning (both stages).
    pub fn tuning_cost_usd(&self) -> f64 {
        self.stage1.total_cost_usd() + self.stage2.total_cost_usd()
    }

    /// Builds the §IV-C amortization ledger against a baseline run cost.
    pub fn ledger(&self, baseline_run_cost_usd: f64) -> AmortizationLedger {
        let tuned_run_cost = self
            .stage2
            .best
            .as_ref()
            .map_or(baseline_run_cost_usd, |o| o.cost_usd);
        AmortizationLedger {
            tuning_cost_usd: self.tuning_cost_usd(),
            baseline_run_cost_usd,
            tuned_run_cost_usd: tuned_run_cost,
        }
    }
}

/// One tenant's request for [`SeamlessTuner::tune_many`].
#[derive(Debug, Clone)]
pub struct TenantRequest {
    /// Opaque tenant identifier.
    pub client: String,
    /// The tenant's workload label.
    pub workload: String,
    /// The job to tune.
    pub job: JobSpec,
    /// Per-tenant tuning seed.
    pub seed: u64,
}

/// The provider-operated tuning service.
pub struct SeamlessTuner {
    store: Arc<HistoryStore>,
    env: SimEnvironment,
    config: ServiceConfig,
    slo: SloTracker,
}

impl SeamlessTuner {
    /// Creates the service around a shared history store.
    pub fn new(store: Arc<HistoryStore>, env: SimEnvironment, config: ServiceConfig) -> Self {
        SeamlessTuner {
            store,
            env,
            config,
            slo: SloTracker::default(),
        }
    }

    /// The service's continuous per-tenant SLO/cost accounting.
    pub fn slo(&self) -> &SloTracker {
        &self.slo
    }

    /// The provider's conservative "house default" DISC configuration —
    /// what the probe run and stage 1 execute with. Unlike Spark's
    /// shipped defaults (which crash memory-hungry workloads), a
    /// provider would deploy a layout sized to the cluster.
    pub fn house_default() -> Configuration {
        confspace::spark::spark_space()
            .default_configuration()
            .with(sp::EXECUTOR_INSTANCES, 8i64)
            .with(sp::EXECUTOR_CORES, 2i64)
            .with(sp::EXECUTOR_MEMORY_MB, 6144i64)
            .with(sp::DEFAULT_PARALLELISM, 64i64)
            .with(sp::SHUFFLE_PARTITIONS, 64i64)
    }

    /// Shared access to the history store.
    pub fn store(&self) -> &Arc<HistoryStore> {
        &self.store
    }

    /// End-to-end tuning of `job` for tenant `client` (Fig. 1).
    pub fn tune(&self, client: &str, workload: &str, job: &JobSpec, seed: u64) -> ServiceOutcome {
        let _tune = obs::span("tune")
            .with("client", client)
            .with("workload", workload);
        obs::registry().counter("service.tunings").inc();

        // --- Probe: one run on the house defaults to characterize. ---
        let probe_span = obs::span("probe");
        let probe_obj = DiscObjective::new(ClusterSpec::table1_testbed(), job.clone(), &self.env);
        let probe = probe_obj.evaluate(&Self::house_default(), self.env.seed ^ seed ^ 0x9e37);
        let signature = probe
            .metrics
            .as_ref()
            .map(WorkloadSignature::from_metrics)
            .unwrap_or_else(|| WorkloadSignature::from_metrics(&Default::default()));
        drop(probe_span);

        // --- Stage 1: cloud configuration. ---
        let stage1_span = obs::span("stage1").with("budget", self.config.stage1_budget);
        let cloud_obj = CloudObjective::new(job.clone(), Self::house_default(), &self.env);
        let s1 = self
            .config
            .apply_resilience(
                TuningSession::new(self.config.tuner, self.env.seed ^ seed ^ 0xA1),
                seed ^ 0xFA51,
            )
            .with_batch(self.config.batch)
            .run(&cloud_obj, self.config.stage1_budget);
        let cloud_config = s1
            .best_config()
            .cloned()
            .unwrap_or_else(|| confspace::cloud::cloud_space().default_configuration());
        let cluster = ClusterSpec::from_config(&cloud_config)
            .unwrap_or_else(|_| ClusterSpec::table1_testbed());
        drop(stage1_span);

        // --- Stage 2: DISC configuration on the chosen cluster, ---
        // --- warm-started from similar tenants.                 ---
        let transfer_span = obs::span("transfer").with("k", self.config.transfer_k);
        let disc_space = confspace::spark::spark_space();
        let raw_donations: Vec<Observation> = if self.config.transfer_k == 0 {
            Vec::new()
        } else {
            donated_observations(
                &self.store,
                &signature,
                self.config.transfer_k * 2,
                Some(client),
                probe.runtime_s,
            )
        };
        let donated: Vec<Observation> = raw_donations
            .into_iter()
            // The provider's history mixes cloud-layer and DISC-layer
            // records; only DISC configurations transfer into stage 2.
            .filter(|o| disc_space.validate(&o.config).is_ok())
            .take(self.config.transfer_k)
            .collect();
        let used_transfer = !donated.is_empty();
        drop(
            transfer_span
                .with("donated", donated.len())
                .with("used", used_transfer),
        );
        if used_transfer {
            obs::registry().counter("service.transfers").inc();
        }
        let stage2_span = obs::span("stage2")
            .with("budget", self.config.stage2_budget)
            .with("transfer", used_transfer);
        let disc_obj = DiscObjective::new(cluster.clone(), job.clone(), &self.env);
        let stage2 = if used_transfer {
            TuningSession::with_tuner(
                Box::new(TransferTuner::new(self.config.tuner.build(), donated)),
                self.env.seed ^ seed ^ 0xB2,
            )
        } else {
            TuningSession::new(self.config.tuner, seed ^ 0xB2)
        };
        let mut s2 = self
            .config
            .apply_resilience(stage2, seed ^ 0xFA52)
            .with_batch(self.config.batch)
            .run(&disc_obj, self.config.stage2_budget.saturating_sub(1));
        // The provider's house default is always a candidate: the
        // service never deploys a configuration worse than its own
        // baseline (one evaluation charged to the stage-2 budget).
        let incumbent = {
            let _incumbent = obs::span("incumbent");
            disc_obj.evaluate(&Self::house_default(), self.env.seed ^ seed ^ 0x52)
        };
        s2.history.push(incumbent);
        s2.best = crate::tuner::best_observation(&s2.history).cloned();
        let disc_config = s2
            .best_config()
            .cloned()
            .unwrap_or_else(Self::house_default);
        drop(stage2_span);

        if s1.is_degraded() || s2.is_degraded() {
            obs::registry().counter("service.degraded_sessions").inc();
            // Post-mortem for the on-call: whatever the flight
            // recorder still holds from this degraded session.
            obs::flightrec::trigger_dump("degraded_session");
        }

        // The §IV-D reference point must predate this tune's records:
        // "the best runtime of similar workloads ever seen" means
        // *other* tenants and earlier sessions, not the history we are
        // about to insert.
        let best_similar = self.store.best_similar_runtime(&signature, 5);

        // --- Record everything the provider witnessed. ---
        self.record(client, workload, &probe, &signature);
        for o in s1.history.iter().chain(s2.history.iter()) {
            self.record(client, workload, o, &signature);
        }

        let best_runtime_s = s2.best_runtime_s();
        let slo = SloReport {
            tuned_runtime_s: best_runtime_s,
            optimal_runtime_s: Some(match best_similar {
                Some(b) => b.min(best_runtime_s),
                None => best_runtime_s,
            }),
            best_similar_runtime_s: best_similar,
            default_runtime_s: Some(probe.runtime_s),
        };
        let outcome = ServiceOutcome {
            cloud_config,
            cluster,
            disc_config,
            best_runtime_s,
            stage1: s1,
            stage2: s2,
            used_transfer,
            signature,
            slo,
        };

        // Continuous accounting: fold this tune into the tenant's
        // rolling SLO window and refresh the scrape-visible series.
        // Read-only with respect to tuning decisions, so session
        // results are bitwise-unchanged by its presence.
        self.slo
            .observe(client, &slo, &outcome.ledger(probe.cost_usd));
        self.slo.publish(obs::registry());

        outcome
    }

    /// Tunes many tenants concurrently over the shared (sharded)
    /// history store — the provider-side multi-tenant service of §IV.
    /// Outcomes are returned in request order. Each tenant's session is
    /// driven entirely by its own seed, so results match running the
    /// same requests sequentially whenever tenants do not read each
    /// other's history mid-flight (`transfer_k == 0`, or disjoint
    /// signatures).
    pub fn tune_many(&self, requests: &[TenantRequest]) -> Vec<ServiceOutcome> {
        let _span = obs::span("tune_many").with("tenants", requests.len());
        let reg = obs::registry();
        reg.gauge("service.tenants_inflight")
            .set(requests.len() as f64);
        let outcomes = models::par::par_map(requests, |r| {
            reg.histogram(&obs::labeled(
                "service.tenant_tune_s",
                &[("tenant", r.client.as_str())],
            ))
            .time(|| self.tune(&r.client, &r.workload, &r.job, r.seed))
        });
        reg.gauge("service.tenants_inflight").set(0.0);
        outcomes
    }

    fn record(
        &self,
        client: &str,
        workload: &str,
        obs: &Observation,
        fallback: &WorkloadSignature,
    ) {
        let outcome = match &obs.failure {
            Some(simcluster::FailureKind::TrialTimeout) => RecordOutcome::TimedOut,
            Some(simcluster::FailureKind::TrialAborted { .. }) => RecordOutcome::Failed,
            _ => RecordOutcome::Ok,
        };
        let signature = match &obs.metrics {
            Some(metrics) => WorkloadSignature::from_metrics(metrics),
            // Censored runs still enter the history — tagged so
            // similarity search and transfer skip them — under the
            // tenant's probe signature (the run itself produced none).
            None if outcome != RecordOutcome::Ok => fallback.clone(),
            None => return, // crashed runs carry no characterization signal
        };
        // Poisoned observations are rejected at the store boundary
        // (counted by `history.rejects`) instead of contaminating
        // transfer; nothing to do here beyond not inserting.
        let _ = self.store.try_insert(ExecutionRecord {
            client: client.to_owned(),
            workload: workload.to_owned(),
            signature,
            config: obs.config.clone(),
            runtime_s: obs.runtime_s,
            cost_usd: obs.cost_usd,
            seq: 0,
            outcome,
        });
    }
}

/// A workload under managed execution: the provider runs it with the
/// tuned configuration, watches for drift, and re-tunes automatically.
pub struct ManagedWorkload {
    objective: DiscObjective,
    config: Configuration,
    monitor: RetuneMonitor,
    service: ServiceConfig,
    env_seed: u64,
    seed: u64,
    /// Completed automatic re-tunings (reason, at-run-index).
    pub retunings: Vec<(RetuneReason, usize)>,
    runs: usize,
}

impl ManagedWorkload {
    /// Starts managed execution of `job` on `cluster` with `config`.
    pub fn new(
        cluster: ClusterSpec,
        job: JobSpec,
        config: Configuration,
        service: ServiceConfig,
        env: &SimEnvironment,
        seed: u64,
    ) -> Self {
        ManagedWorkload {
            objective: DiscObjective::new(cluster, job, env),
            config,
            monitor: RetuneMonitor::new(service.retune_policy),
            service,
            env_seed: env.seed,
            seed,
            retunings: Vec::new(),
            runs: 0,
        }
    }

    /// Updates the job (e.g. the tenant's input grew).
    pub fn set_job(&mut self, job: JobSpec) {
        self.objective.set_job(job);
    }

    /// The currently-deployed configuration.
    pub fn config(&self) -> &Configuration {
        &self.config
    }

    /// Executes one production run; re-tunes first when the monitor
    /// fired on the *previous* run. Returns the production observation
    /// and the number of tuning executions spent before it (0 normally).
    pub fn run_once(&mut self) -> (Observation, usize) {
        self.runs += 1;
        let _run = obs::span("managed_run").with("run", self.runs);
        let observed = self
            .objective
            .evaluate(&self.config, trial_seed(self.env_seed, self.runs as u64));
        let mut tuning_spent = 0;
        if let Some(reason) = self.monitor.observe(&observed) {
            self.retunings.push((reason, self.runs));
            let _retune = obs::span("retune")
                .with("reason", format!("{reason:?}"))
                .with("run", self.runs);
            obs::registry().counter("service.retunes").inc();
            let outcome = self
                .service
                .apply_resilience(
                    TuningSession::new(self.service.tuner, self.seed ^ (self.runs as u64) << 8),
                    self.seed ^ 0x4E7,
                )
                .run(&self.objective, self.service.retune_budget);
            tuning_spent = outcome.history.len();
            if let Some(best) = outcome.best_config() {
                // Only adopt the re-tuned configuration if it beats the
                // incumbent's latest observation.
                if outcome.best_runtime_s() < observed.runtime_s {
                    self.config = best.clone();
                }
            }
            self.monitor.reset();
        }
        (observed, tuning_spent)
    }

    /// Total production runs so far.
    pub fn runs(&self) -> usize {
        self.runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{DataScale, Pagerank, Wordcount, Workload};

    fn service() -> SeamlessTuner {
        SeamlessTuner::new(
            Arc::new(HistoryStore::new()),
            SimEnvironment::dedicated(11),
            ServiceConfig {
                stage1_budget: 4,
                stage2_budget: 6,
                ..ServiceConfig::default()
            },
        )
    }

    #[test]
    fn end_to_end_tuning_produces_a_working_config() {
        let svc = service();
        let job = Wordcount::new().job(DataScale::Tiny);
        let out = svc.tune("alice", "wc", &job, 1);
        assert!(out.best_runtime_s.is_finite());
        assert!(out.best_runtime_s > 0.0);
        assert_eq!(out.stage1.history.len(), 4);
        assert_eq!(out.stage2.history.len(), 6);
        assert!(!svc.store().is_empty(), "provider recorded the executions");
    }

    #[test]
    fn second_tenant_benefits_from_transfer() {
        let svc = service();
        let job = Wordcount::new().job(DataScale::Tiny);
        let first = svc.tune("alice", "wc", &job, 1);
        assert!(!first.used_transfer, "empty store: no donors");
        let second = svc.tune("bob", "wc2", &job, 2);
        assert!(second.used_transfer, "alice's runs should donate");
    }

    #[test]
    fn tuned_beats_house_default_on_pagerank() {
        let svc = SeamlessTuner::new(
            Arc::new(HistoryStore::new()),
            SimEnvironment::dedicated(13),
            ServiceConfig {
                stage1_budget: 6,
                stage2_budget: 15,
                ..ServiceConfig::default()
            },
        );
        let job = Pagerank::new().job(DataScale::Tiny);
        let out = svc.tune("carol", "pr", &job, 3);
        // Compare to the house default on the *same* cluster.
        let base_obj = DiscObjective::new(out.cluster.clone(), job, &SimEnvironment::dedicated(99));
        let base = base_obj.evaluate(&SeamlessTuner::house_default(), 99);
        assert!(
            out.best_runtime_s <= base.runtime_s * 1.1,
            "tuned {} vs default {}",
            out.best_runtime_s,
            base.runtime_s
        );
    }

    #[test]
    fn managed_workload_retunes_on_input_growth() {
        let cfg = ServiceConfig {
            retune_budget: 5,
            ..ServiceConfig::default()
        };
        let mut managed = ManagedWorkload::new(
            ClusterSpec::table1_testbed(),
            Pagerank::new().job(DataScale::Tiny),
            SeamlessTuner::house_default(),
            cfg,
            &SimEnvironment::dedicated(17),
            5,
        );
        for _ in 0..6 {
            let (obs, spent) = managed.run_once();
            assert!(obs.is_ok());
            assert_eq!(spent, 0, "no drift yet");
        }
        // The tenant's data grows 16x: the monitor must notice.
        managed.set_job(Pagerank::new().job(DataScale::Ds1));
        let mut retuned = false;
        for _ in 0..8 {
            let (_, spent) = managed.run_once();
            if spent > 0 {
                retuned = true;
                break;
            }
        }
        assert!(
            retuned,
            "managed execution should re-tune after input growth"
        );
        assert!(!managed.retunings.is_empty());
    }

    #[test]
    fn ledger_reflects_tuning_spend() {
        let svc = service();
        let job = Wordcount::new().job(DataScale::Tiny);
        let out = svc.tune("dave", "wc", &job, 7);
        let ledger = out.ledger(1.0);
        assert!(ledger.tuning_cost_usd > 0.0);
        assert_eq!(ledger.baseline_run_cost_usd, 1.0);
    }
}
