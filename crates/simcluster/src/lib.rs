//! A discrete-event simulator of a Spark-like DISC engine running on an
//! EC2-like cloud — Fig. 2 of *"Towards Seamless Configuration Tuning of
//! Big Data Analytics"* (ICDCS'19) made executable.
//!
//! The simulator is the substrate substituting for the paper's real
//! Spark-on-EMR testbed (see DESIGN.md §1): tuners interact with it
//! through exactly the interface they would have against a real cluster
//! — submit a configuration, observe a (noisy) runtime — while the
//! engine models the mechanisms that make the configuration→runtime
//! surface hard: executor layout feasibility, slot scheduling in waves,
//! shuffle volume vs. compression/serialization CPU trade-offs, unified
//! memory with spill/OOM cliffs, RDD caching with eviction, GC pressure,
//! data locality, stragglers/speculation, and co-location interference.
//!
//! # Example
//!
//! ```
//! use simcluster::cluster::ClusterSpec;
//! use simcluster::dag::{JobSpec, StageSpec};
//! use simcluster::engine::Simulator;
//! use simcluster::sparkenv::SparkEnv;
//! use rand::SeedableRng;
//!
//! let cluster = ClusterSpec::table1_testbed();
//! let config = confspace::spark::spark_space().default_configuration();
//! let env = SparkEnv::resolve(&cluster, &config).expect("layout fits");
//! let job = JobSpec::new(
//!     "wordcount",
//!     vec![
//!         StageSpec::input("map", 1024.0, 0.01).writes_shuffle(64.0),
//!         StageSpec::reduce("reduce", vec![0], 64.0, 0.005).writes_output(8.0),
//!     ],
//! );
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let result = Simulator::dedicated().run(&env, &job, &mut rng).expect("no crash");
//! assert!(result.runtime_s > 0.0);
//! ```

pub mod catalog;
pub mod cluster;
pub mod constants;
pub mod dag;
pub mod engine;
pub mod error;
pub mod interference;
pub mod metrics;
pub mod shared;
pub mod sparkenv;
mod ziggurat;

pub use catalog::InstanceType;
pub use cluster::ClusterSpec;
pub use dag::{JobSpec, Partitioning, StageSpec};
pub use engine::Simulator;
pub use error::{FailureKind, SimError};
pub use interference::InterferenceModel;
pub use metrics::{ExecMetrics, SimResult, StageMetrics};
pub use shared::{run_shared, SharedOutcome, SharingPolicy, Submission};
pub use sparkenv::SparkEnv;
