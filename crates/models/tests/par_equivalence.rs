//! Equivalence tests for the parallel and cached model-fitting paths.
//!
//! The parallel layer (`models::par`) and the incremental fit cache
//! (`models::GpFitCache`) are pure performance features: every result
//! they produce must be bit-for-bit identical to the sequential,
//! from-scratch computation. These tests pin that contract across
//! thread counts 1, 2 and 8, inside a `par` worker, and across
//! warm/cold cache states.

use models::{FitKind, ForestParams, GpFitCache, GpRegressor, Kernel, RandomForest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn dataset(n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let y: Vec<f64> = x
        .iter()
        .map(|v| 2.0 + v.iter().map(|&u| (u - 0.4) * (u - 0.4)).sum::<f64>())
        .collect();
    (x, y)
}

fn queries(k: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..k)
        .map(|_| (0..d).map(|_| rng.gen::<f64>()).collect())
        .collect()
}

const BASE: Kernel = Kernel::Matern52 {
    length_scale: 0.4,
    variance: 1.0,
};

#[test]
fn fit_auto_is_identical_across_thread_counts() {
    let (x, y) = dataset(40, 5, 11);
    let qs = queries(16, 5, 12);
    let seq = GpRegressor::fit_auto_threads(&x, &y, BASE, 1);
    for threads in [2usize, 8] {
        let par = GpRegressor::fit_auto_threads(&x, &y, BASE, threads);
        assert_eq!(
            seq.log_marginal_likelihood(),
            par.log_marginal_likelihood(),
            "lml differs at {threads} threads"
        );
        for q in &qs {
            assert_eq!(
                seq.predict(q),
                par.predict(q),
                "prediction differs at {threads} threads"
            );
        }
    }
}

#[test]
fn forest_fit_is_identical_across_thread_counts() {
    let (x, y) = dataset(60, 4, 21);
    let qs = queries(10, 4, 22);
    let seq = RandomForest::fit_threads(
        &x,
        &y,
        ForestParams::default(),
        &mut StdRng::seed_from_u64(3),
        1,
    );
    for threads in [2usize, 8] {
        let par = RandomForest::fit_threads(
            &x,
            &y,
            ForestParams::default(),
            &mut StdRng::seed_from_u64(3),
            threads,
        );
        assert_eq!(seq.len(), par.len());
        for q in &qs {
            assert_eq!(
                seq.predict(q),
                par.predict(q),
                "forest prediction differs at {threads} threads"
            );
            assert_eq!(seq.predict_with_std(q), par.predict_with_std(q));
        }
    }
}

#[test]
fn predict_batch_matches_predict_loop() {
    let (x, y) = dataset(32, 6, 31);
    let gp = GpRegressor::fit_auto(&x, &y, BASE);
    let qs = queries(50, 6, 32);
    let batched = gp.predict_batch(&qs);
    assert_eq!(batched.len(), qs.len());
    for (q, b) in qs.iter().zip(&batched) {
        assert_eq!(gp.predict(q), *b);
    }
}

#[test]
fn incremental_cache_matches_full_refit_exactly() {
    // Grow a history one point at a time; after the first fit every
    // step should be an incremental cache hit whose fitted GP is
    // bit-for-bit identical to an uncached from-scratch fit_auto.
    let (x, y) = dataset(30, 5, 41);
    let qs = queries(12, 5, 42);
    let mut cache = GpFitCache::new();
    for n in 10..=x.len() {
        let (xs, ys) = (&x[..n], &y[..n]);
        let (cached, kind) = cache.fit_auto(xs, ys, BASE);
        if n > 10 {
            assert_eq!(kind, FitKind::Incremental, "n={n} should hit the cache");
        }
        let fresh = GpRegressor::fit_auto(xs, ys, BASE);
        assert_eq!(
            cached.log_marginal_likelihood(),
            fresh.log_marginal_likelihood(),
            "lml diverges at n={n}"
        );
        for q in &qs {
            assert_eq!(cached.predict(q), fresh.predict(q), "diverges at n={n}");
        }
    }
    assert_eq!(cache.cached_points(), x.len());
}

#[test]
fn cache_invalidates_on_kernel_change_and_shrunk_history() {
    let (x, y) = dataset(20, 4, 51);
    let mut cache = GpFitCache::new();
    let (_, k0) = cache.fit_auto(&x, &y, BASE);
    assert_eq!(k0, FitKind::Full);

    // Different base kernel: must refit from scratch.
    let other = Kernel::SquaredExp {
        length_scale: 0.4,
        variance: 1.0,
    };
    let (_, k1) = cache.fit_auto(&x, &y, other);
    assert_eq!(k1, FitKind::Full);

    // Shrunk history: must refit from scratch.
    let (_, k2) = cache.fit_auto(&x[..10], &y[..10], other);
    assert_eq!(k2, FitKind::Full);

    // Diverged prefix: must refit from scratch.
    let mut x2 = x[..10].to_vec();
    x2[0][0] += 0.5;
    let (_, k3) = cache.fit_auto(&x2, &y[..10], other);
    assert_eq!(k3, FitKind::Full);
}

#[test]
fn incremental_cache_appends_many_points_at_once() {
    // A hit does not require growth by exactly one point: the session
    // batches observations, so several rows may append per fit.
    let (x, y) = dataset(24, 5, 61);
    let mut cache = GpFitCache::new();
    cache.fit_auto(&x[..8], &y[..8], BASE);
    let (cached, kind) = cache.fit_auto(&x, &y, BASE);
    assert_eq!(kind, FitKind::Incremental);
    let fresh = GpRegressor::fit_auto(&x, &y, BASE);
    assert_eq!(
        cached.log_marginal_likelihood(),
        fresh.log_marginal_likelihood()
    );
    for q in &queries(8, 5, 62) {
        assert_eq!(cached.predict(q), fresh.predict(q));
    }
}

#[test]
fn par_equivalence_holds_for_additive_kernel() {
    // The sensitivity analysis fits additive-kernel GPs through the
    // same grid path; pin that family too.
    let (x, y) = dataset(26, 4, 71);
    let base = Kernel::Additive {
        length_scale: 0.3,
        variance: 1.0,
    };
    let seq = GpRegressor::fit_auto_threads(&x, &y, base, 1);
    let par = GpRegressor::fit_auto_threads(&x, &y, base, 8);
    for q in &queries(10, 4, 72) {
        assert_eq!(seq.predict(q), par.predict(q));
    }
}

#[test]
fn fit_nested_in_a_worker_matches_sequential_fit() {
    // Under `tune_many` every surrogate fit runs inside a tenant or
    // trial worker, where the fit's own fan-out runs inline; the model
    // must still be the sequential one bit for bit.
    let (x, y) = dataset(40, 5, 81);
    let qs = queries(12, 5, 82);
    let seq = GpRegressor::fit_auto_threads(&x, &y, BASE, 1);
    let nested = models::par::par_map_threads(&[0u8, 1], 2, |_| {
        GpRegressor::fit_auto_threads(&x, &y, BASE, 8)
    });
    for gp in &nested {
        assert_eq!(seq.log_marginal_likelihood(), gp.log_marginal_likelihood());
        for q in &qs {
            assert_eq!(seq.predict(q), gp.predict(q));
        }
    }
}
