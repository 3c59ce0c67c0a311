//! # seamless-tuning
//!
//! A reproduction of *"Towards Seamless Configuration Tuning of Big Data
//! Analytics"* (Fekry et al., ICDCS 2019): a configuration-tuning
//! framework for DISC (Data Intensive Scalable Computing) workloads,
//! driven against a discrete-event Spark/cloud simulator.
//!
//! This facade crate re-exports the workspace's crates under one roof:
//!
//! * [`confspace`] — typed parameter spaces, the Spark/cloud catalogs,
//!   samplers and feature encoding;
//! * [`simcluster`] — the Spark + cloud discrete-event simulator;
//! * [`workloads`] — the HiBench-like workload suite (Wordcount,
//!   Terasort, PageRank, Bayes, K-means, SQL join);
//! * [`models`] — surrogate models (GP, CART, random forest, Ernest),
//!   clustering and change-point detection;
//! * `core` (crate `seamless_core`) — the tuner strategies and the seamless
//!   tuning *service* (characterization, transfer, re-tuning detection,
//!   SLO metrics, the two-stage Fig. 1 pipeline).
//!
//! # Quickstart
//!
//! Tune PageRank on the paper's Table I testbed with CherryPick-style
//! Bayesian optimization:
//!
//! ```
//! use seamless_tuning::prelude::*;
//!
//! let job = Pagerank::new().job(DataScale::Tiny);
//! let objective = DiscObjective::new(
//!     ClusterSpec::table1_testbed(),
//!     job,
//!     &SimEnvironment::dedicated(42),
//! );
//! // One session loop: batch 1, default retries, no fault injection.
//! let outcome = TuningSession::new(TunerKind::BayesOpt, 7).run(&objective, 15);
//! assert!(outcome.best_runtime_s() > 0.0);
//! assert!(outcome.best_config().is_some());
//! assert!(!outcome.is_degraded());
//!
//! // Any trial replays exactly from its seed.
//! let cfg = outcome.best_config().unwrap();
//! assert_eq!(
//!     objective.evaluate(cfg, trial_seed(42, 0)),
//!     objective.evaluate(cfg, trial_seed(42, 0)),
//! );
//! ```

pub use confspace;
pub use models;
pub use obs;
pub use seamless_core as core;
pub use simcluster;
pub use workloads;

/// Convenience re-exports for examples and quick experiments.
pub mod prelude {
    pub use confspace::{
        cloud::cloud_space, sample, spark::spark_space, Configuration, ParamSpace,
    };
    pub use seamless_core::service::ServiceConfig;
    pub use seamless_core::{
        trial_seed, CloudObjective, DiscObjective, FaultInjector, FaultPlan, GoalObjective,
        HistoryStore, JointObjective, ManagedWorkload, Objective, Observation, RetryPolicy,
        RetuneMonitor, RetunePolicy, SeamlessTuner, SimEnvironment, Tuner, TunerKind, TuningGoal,
        TuningOutcome, TuningSession, WorkloadSignature,
    };
    pub use simcluster::catalog::InstanceType;
    pub use simcluster::cluster::ClusterSpec;
    pub use simcluster::{InterferenceModel, JobSpec, Simulator, SparkEnv};
    pub use workloads::{
        all_workloads, table1_workloads, BayesClassifier, DataScale, KMeans, LogisticRegression,
        Pagerank, SqlJoin, Terasort, Wordcount, Workload,
    };
}
