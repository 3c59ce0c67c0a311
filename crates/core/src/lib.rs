//! The seamless tuning service — the paper's primary contribution made
//! concrete.
//!
//! This crate layers the tuning stack of *"Towards Seamless
//! Configuration Tuning of Big Data Analytics"* (ICDCS'19):
//!
//! * [`objective`] — the black-box interface tuners optimize
//!   (configuration → observed runtime/cost), implemented against the
//!   `simcluster` substrate for the DISC layer, the cloud layer, and
//!   the joint space;
//! * [`tuner`] — eleven strategies spanning the paper's survey (§II):
//!   random / LHS search, MROnline hill climbing, CherryPick Bayesian
//!   optimization (plus an additive-kernel variant, §V-A), DAC's
//!   surrogate-assisted genetic search, BestConfig's
//!   divide-and-diverge + bound-and-search, Wang's regression trees,
//!   PARIS's random forests, Ernest's analytic scaling model and Bu et
//!   al.'s reinforcement-learning nudges;
//! * [`executor`] + [`faults`] — concurrent trial execution with
//!   deterministic seeding, plus the resilience layer: seeded fault
//!   injection, retry/backoff policies, deadlines and quarantine;
//! * [`characterize`] — workload signatures from execution metrics
//!   (§V-B: "accurate characterization of analytic workloads");
//! * [`history`] — the provider-side multi-tenant execution-history
//!   store (§IV-C: "the cloud is a centralized place … able to keep a
//!   record of the different workloads' execution history");
//! * [`transfer`] — warm-starting tuners from similar workloads with a
//!   negative-transfer guard (§V-B);
//! * [`retune`] — drift detection triggering re-tuning (§V-D);
//! * [`slo`] — tuning-effectiveness metrics (§IV-D, §V-C) and the
//!   cost-amortization ledger (§IV-C);
//! * [`service`] — [`service::SeamlessTuner`], the two-stage Fig. 1
//!   pipeline (cloud configuration, then DISC configuration) with
//!   history-driven transfer and managed re-tuning.

pub mod characterize;
pub mod executor;
pub mod faults;
pub mod goal;
pub mod history;
pub mod objective;
pub mod retune;
pub mod sensitivity;
pub mod service;
pub mod slo;
pub mod transfer;
pub mod tuner;
pub mod whatif;

pub use characterize::WorkloadSignature;
pub use executor::{
    trial_seed, DegradationReport, RetryPolicy, TrialError, TrialExecutor, TrialOutcome,
};
pub use faults::{FaultInjector, FaultKind, FaultPlan};
pub use goal::{GoalObjective, TuningGoal};
pub use history::{ExecutionRecord, HistoryStore, RecordOutcome};
pub use objective::{
    CloudObjective, DiscObjective, JointObjective, Objective, Observation, SimEnvironment,
    FAILURE_PENALTY_S,
};
pub use retune::{RetuneMonitor, RetunePolicy};
pub use sensitivity::{additive_effects, permutation_importance, SensitivityReport};
pub use service::{ManagedWorkload, SeamlessTuner, ServiceConfig, ServiceOutcome, TenantRequest};
pub use slo::{AmortizationLedger, SloReport, SloTracker, TenantSloStats};
pub use transfer::TransferTuner;
pub use tuner::{Tuner, TunerKind, TuningOutcome, TuningSession};
pub use whatif::JobProfile;
