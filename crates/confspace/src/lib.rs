//! Typed configuration parameter spaces for DISC-system and cloud tuning.
//!
//! This crate provides the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`ParamDef`] / [`ParamKind`] — typed definitions of a single tunable
//!   parameter (integer range, continuous range, boolean, categorical);
//! * [`ParamSpace`] — an ordered collection of parameter definitions with
//!   optional cross-parameter constraints;
//! * [`Configuration`] — a concrete assignment of values to parameters;
//! * [`CandidatePool`] — typed candidate rows (values in space order,
//!   categoricals as choice indices) drawn together with their
//!   encodings, for search loops that score many candidates and keep
//!   few;
//! * [`spark::spark_space`] and [`cloud::cloud_space`] — the parameter
//!   catalogs used throughout the paper reproduction (≈26 Spark parameters
//!   mirroring `spark.*` knobs, and the cloud-layer instance
//!   family/size/count choice);
//! * samplers ([`sample`]) — uniform and Latin hypercube sampling,
//!   neighbourhood moves, and genetic operators over configurations;
//! * an encoder ([`encode`]) mapping configurations to normalized
//!   `Vec<f64>` feature vectors (and back) for the surrogate models.
//!
//! # Example
//!
//! ```
//! use confspace::{sample, spark::spark_space};
//! use rand::SeedableRng;
//!
//! let space = spark_space();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let cfg = sample::uniform(&space, &mut rng);
//! assert!(space.validate(&cfg).is_ok());
//! let v = space.encode(&cfg);
//! let cfg2 = space.decode(&v);
//! assert_eq!(cfg, cfg2);
//! ```

pub mod cloud;
pub mod config;
pub mod encode;
pub mod error;
pub mod param;
mod plan;
mod pool;
pub mod sample;
pub mod space;
pub mod spark;

pub use config::Configuration;
pub use error::ConfigError;
pub use param::{ParamDef, ParamKind, ParamValue};
pub use pool::CandidatePool;
pub use sample::{crossover, mutate, neighbor};
pub use space::{Constraint, ConstraintArgs, ParamSpace};
