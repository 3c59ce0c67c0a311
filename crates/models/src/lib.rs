//! Surrogate models and statistics for configuration tuning.
//!
//! Implements, from scratch, every model family the paper's surveyed
//! tuning systems rely on:
//!
//! * [`gp`] — Gaussian-process regression with squared-exponential /
//!   Matérn-5/2 kernels (CherryPick's Bayesian optimization, §II-A) and
//!   Duvenaud-style additive kernels (§V-A), plus Expected-Improvement
//!   and confidence-bound acquisition;
//! * [`tree`] / [`forest`] — CART regression trees (Wang et al.) and
//!   bagged random forests (PARIS);
//! * [`linear`] — ridge regression and the Ernest machine-scaling model;
//! * [`cluster`] — k-medoids workload clustering (AROMA) and k-NN
//!   similarity retrieval;
//! * [`changepoint`] — Page–Hinkley / CUSUM drift detectors and the
//!   fixed-threshold baseline (§V-D re-tuning detection);
//! * [`linalg`] — the small dense linear algebra (Cholesky, ridge
//!   solves) the above need;
//! * [`par`] — one-level scoped-thread fork/join: the outermost call
//!   (tenants, trials) fans out with dynamic item claiming, nested calls
//!   run inline on their worker, and model kernels fan out only above a
//!   work cutoff (`SEAMLESS_THREADS` overrides the worker count);
//! * [`stats`] — shared statistics helpers.

pub mod changepoint;
pub mod cluster;
pub mod forest;
pub mod gp;
pub mod linalg;
pub mod linear;
pub mod par;
pub mod stats;
pub mod tree;

pub use changepoint::{ChangeDetector, Cusum, FixedThreshold, PageHinkley};
pub use cluster::{k_medoids, k_nearest, Clustering};
pub use forest::{ForestParams, RandomForest};
pub use gp::{
    expected_improvement, lower_confidence_bound, FitKind, GpFitCache, GpPredictCache, GpRegressor,
    Kernel, Rescore,
};
pub use linalg::{ridge_solve, LinalgError, Matrix};
pub use linear::{ErnestModel, RidgeRegression};
pub use tree::{RegressionTree, TreeParams};
