//! Machine-readable latency benchmark for the surrogate hot path,
//! written to `BENCH_models.json` at the repo root.
//!
//! Measures, at history sizes n = 32 / 120 / 512 (d = 26, the Spark
//! space dimensionality):
//!
//! * `fit_sequential_baseline_s` — the pre-optimization `fit_auto`
//!   shape: 15 independent full `GpRegressor::fit` calls, one per
//!   hyperparameter grid point, each rebuilding its own kernel matrix;
//! * `fit_auto_s` — the shipped `fit_auto` (shared Gram per length
//!   scale; the grid fans out over [`models::par`] only above its work
//!   cutoff, so n = 32 runs inline and n = 120 / 512 in parallel);
//! * `fit_cached_incremental_s` — `GpFitCache` warm path: cache holds
//!   n−1 points, one new row arrives (the steady state of a BO loop);
//! * `predict_s` / `predict_batch_s` — per query, 256 queries scored
//!   one `predict` call each (one-row blocks) vs one `predict_batch`
//!   call (64-row blocks of the same kernel);
//! * `propose_s` — a full `BayesOpt::propose` step at that history
//!   size (n ≤ 120 only: the tuner subsamples above `MAX_GP_POINTS`).
//!
//! Run with: `cargo run --release -p bench --bin bench_models_json`

use std::time::Instant;

use models::{GpFitCache, GpRegressor, Kernel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seamless_core::tuner::{BayesOpt, Tuner};
use seamless_core::Observation;
use serde::Serialize;

const D: usize = 26;
const MATERN: Kernel = Kernel::Matern52 {
    length_scale: 0.4,
    variance: 1.0,
};
const LS_GRID: [f64; 5] = [0.1, 0.2, 0.4, 0.8, 1.6];
const NOISE_GRID: [f64; 3] = [1e-4, 1e-2, 5e-2];

#[derive(Debug, Serialize)]
struct SizeReport {
    n: usize,
    fit_sequential_baseline_s: f64,
    fit_auto_s: f64,
    fit_cached_incremental_s: f64,
    fit_auto_speedup: f64,
    fit_cached_speedup: f64,
    predict_s: f64,
    predict_batch_s: f64,
    propose_s: Option<f64>,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    threads: usize,
    dim: usize,
    /// Headline: the steady-state BO fit (cached incremental, the path
    /// `BayesOpt::propose` actually takes) vs the pre-optimization
    /// sequential baseline, at n = 120.
    fit_n120_hot_path_speedup: f64,
    sizes: Vec<SizeReport>,
}

fn synthetic(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..D).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let y: Vec<f64> = x
        .iter()
        .map(|v| {
            2.0 + v
                .iter()
                .enumerate()
                .map(|(i, u)| (u - 0.1 * (i % 7) as f64).powi(2))
                .sum::<f64>()
        })
        .collect();
    (x, y)
}

/// Median wall-clock seconds of `f` over `reps` runs (after one warm-up).
fn time_median<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The pre-optimization fit shape: every grid point refits from
/// scratch, rebuilding its own kernel matrix (15 Gram builds + 15 full
/// Cholesky factorizations).
fn fit_sequential_baseline(x: &[Vec<f64>], y: &[f64]) -> GpRegressor {
    let mut best: Option<GpRegressor> = None;
    for ls in LS_GRID {
        for noise in NOISE_GRID {
            if let Ok(gp) = GpRegressor::fit(x, y, MATERN.with_length_scale(ls), noise) {
                let better = best
                    .as_ref()
                    .map(|b| gp.log_marginal_likelihood() > b.log_marginal_likelihood())
                    .unwrap_or(true);
                if better {
                    best = Some(gp);
                }
            }
        }
    }
    best.expect("at least one grid point fits")
}

fn propose_latency(n: usize) -> f64 {
    let space = confspace::spark::spark_space();
    let mut rng = StdRng::seed_from_u64(17);
    let pool = bench::random_pool(&space, n, 23);
    let history: Vec<Observation> = pool
        .into_iter()
        .enumerate()
        .map(|(i, config)| Observation {
            config,
            runtime_s: 60.0 + (i % 11) as f64 * 7.0,
            cost_usd: 0.0,
            metrics: None,
            failure: None,
        })
        .collect();
    let mut bo = BayesOpt::new();
    time_median(5, || {
        let _ = bo.propose(&space, &history, 1, &mut rng);
    })
}

fn main() {
    let threads = models::par::num_threads();
    println!("bench_models_json: d={D}, threads={threads}");

    let mut sizes = Vec::new();
    for n in [32usize, 120, 512] {
        let reps = if n >= 512 { 3 } else { 7 };
        let (x, y) = synthetic(n, 0xBE + n as u64);

        let baseline = time_median(reps, || {
            let _ = fit_sequential_baseline(&x, &y);
        });
        let auto = time_median(reps, || {
            let _ = GpRegressor::fit_auto(&x, &y, MATERN);
        });
        // Warm the cache with n−1 points once, then time only the
        // incremental one-row step a BO iteration pays (cloning the
        // warm cache per sample so each run appends exactly one row).
        let mut cache = GpFitCache::new();
        cache.fit_auto(&x[..n - 1], &y[..n - 1], MATERN);
        let incremental = {
            let mut samples = Vec::new();
            for _ in 0..reps {
                let mut c = cache.clone();
                let t = Instant::now();
                let _ = c.fit_auto(&x, &y, MATERN);
                samples.push(t.elapsed().as_secs_f64());
            }
            samples.sort_by(f64::total_cmp);
            samples[samples.len() / 2]
        };

        let gp = GpRegressor::fit_auto(&x, &y, MATERN);
        let qs: Vec<Vec<f64>> = synthetic(256, 0xF0 + n as u64).0;
        let predict = time_median(reps, || {
            for q in &qs {
                let _ = gp.predict(q);
            }
        }) / qs.len() as f64;
        let predict_batch = time_median(reps, || {
            let _ = gp.predict_batch(&qs);
        }) / qs.len() as f64;

        let propose = (n <= 120).then(|| propose_latency(n));

        println!(
            "n={n:4}  baseline {:8.1}ms  fit_auto {:8.1}ms ({:.1}x)  incremental {:8.1}ms ({:.1}x)",
            baseline * 1e3,
            auto * 1e3,
            baseline / auto,
            incremental * 1e3,
            baseline / incremental,
        );
        sizes.push(SizeReport {
            n,
            fit_sequential_baseline_s: baseline,
            fit_auto_s: auto,
            fit_cached_incremental_s: incremental,
            fit_auto_speedup: baseline / auto,
            fit_cached_speedup: baseline / incremental,
            predict_s: predict,
            predict_batch_s: predict_batch,
            propose_s: propose,
        });
    }

    let hot = sizes
        .iter()
        .find(|s| s.n == 120)
        .map(|s| s.fit_cached_speedup)
        .unwrap_or(f64::NAN);
    let report = BenchReport {
        threads,
        dim: D,
        fit_n120_hot_path_speedup: hot,
        sizes,
    };
    let json = serde_json::to_string_pretty(&report).expect("serializable");
    std::fs::write("BENCH_models.json", &json).expect("write BENCH_models.json");
    println!("\n[written to BENCH_models.json]");
}
