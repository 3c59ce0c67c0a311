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

/// FNV-1a over the bit patterns of every `(mean, std)` in order.
fn prediction_fingerprint(preds: &[(f64, f64)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(m, s) in preds {
        for bits in [m.to_bits(), s.to_bits()] {
            for byte in bits.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// `predict_batch` fingerprints for every (kernel, n, d) case, one per
/// query count in `PIN_QUERY_COUNTS`, in kernel-major, then n, then d
/// order.
fn prediction_fingerprints() -> Vec<[u64; 5]> {
    let kernels = [
        BASE,
        Kernel::SquaredExp {
            length_scale: 0.4,
            variance: 1.0,
        },
        Kernel::Additive {
            length_scale: 0.3,
            variance: 1.0,
        },
    ];
    let mut out = Vec::new();
    for (k, &kernel) in kernels.iter().enumerate() {
        for n in [1usize, 13, 65] {
            for d in [3usize, 26] {
                let seed = 1000 * k as u64 + 10 * n as u64 + d as u64;
                let (x, y) = dataset(n, d, seed);
                let gp = GpRegressor::fit_auto(&x, &y, kernel);
                out.push(PIN_QUERY_COUNTS.map(|count| {
                    let qs = queries(count, d, seed ^ count as u64);
                    prediction_fingerprint(&gp.predict_batch(&qs))
                }));
            }
        }
    }
    out
}

const PIN_QUERY_COUNTS: [usize; 5] = [1, 63, 64, 65, 320];

#[test]
fn predict_batch_matches_its_pinned_fingerprints() {
    // Captured from the per-query prediction loop. Every (training
    // point, query) pair must keep its operation order whatever the
    // block shape, so block edges (63/64/65 queries) change no bit.
    assert_eq!(prediction_fingerprints(), PINNED_PREDICTIONS);
}

const PINNED_PREDICTIONS: [[u64; 5]; 18] = [
    // Matérn, n = 1, d = 3
    [
        0xb31fc46dc7af134a,
        0x65620904f8a8d392,
        0xf61e347abf58fac0,
        0x0ff394802dfa598d,
        0x269a21df4756c0ec,
    ],
    // Matérn, n = 1, d = 26
    [
        0xa2f8a77e121beaa6,
        0xcca1f38f294d3c7a,
        0xd061610aeb3c49a5,
        0x753266d697ed7226,
        0x0f2ba63118802fa5,
    ],
    // Matérn, n = 13, d = 3
    [
        0xd330eaf35e3c8180,
        0x77cbb9f880aaa642,
        0x63f9e412e97ec2e0,
        0xfdd009b0a0eb3a23,
        0x2ff917bf1dbe8ffc,
    ],
    // Matérn, n = 13, d = 26
    [
        0xdeb0ef2e60fcb1c8,
        0x6411660e41ae38ba,
        0x3899559c41f870e2,
        0xf7d27d839c2a12ad,
        0xcd190975360d4110,
    ],
    // Matérn, n = 65, d = 3
    [
        0x67d362c9d7416f0a,
        0x6296ed599e58bc29,
        0x89a5302231413b76,
        0x821d41116b0ec5c1,
        0xf7444a326e98952c,
    ],
    // Matérn, n = 65, d = 26
    [
        0xb0bb5cbd9332a326,
        0x20961c9d5766c098,
        0xc03d34a0bc7836f3,
        0xd62a97eced986356,
        0xb39fcc3cedee3ea2,
    ],
    // SE, n = 1, d = 3
    [
        0x30ddfc058c59f0f1,
        0xef9964ffa667c993,
        0x8f435d75040e68a8,
        0x07f8ae0d6a55dd4e,
        0x24f1eb06ae48d2b3,
    ],
    // SE, n = 1, d = 26
    [
        0x05404935b84eab35,
        0x2f4c4402ff650075,
        0xb58d59f170d1bb25,
        0x6f8ab25dbf244335,
        0xdf1ea5fea2901b25,
    ],
    // SE, n = 13, d = 3
    [
        0x53c41bf9b9b35e73,
        0x8a0c1245df73ba9c,
        0xbb782ba14bf849af,
        0x223eee10d576b1d8,
        0x543b0b135cbfa33a,
    ],
    // SE, n = 13, d = 26
    [
        0xc6d90075a2349415,
        0x4745d9e09b477dc7,
        0x1a50d18e56ae9229,
        0xa84408930877e2a9,
        0x7e75600afb5311dd,
    ],
    // SE, n = 65, d = 3
    [
        0x00d824a909045411,
        0x236c517dd7a3979b,
        0x6ea26537afb645a2,
        0x436ab1dee36f0e63,
        0x10785174726808a4,
    ],
    // SE, n = 65, d = 26
    [
        0x11a1ad9ca59f5f71,
        0x3157d16d9280e2ff,
        0x9a34fe77e0cb447e,
        0x20227d96aced6682,
        0xc5226660dada33b4,
    ],
    // additive, n = 1, d = 3
    [
        0x3c1094b3fe621d5d,
        0x993919e529f582f2,
        0xf7c2f2d3ce35b537,
        0x8c3214975c7124d2,
        0x57c44e55af2c0a0e,
    ],
    // additive, n = 1, d = 26
    [
        0x8ddeb37298a41304,
        0x299f527769acb4e3,
        0x40e9144faa8dcfd0,
        0x0112e86e13517143,
        0xac3a4d75f1949816,
    ],
    // additive, n = 13, d = 3
    [
        0xbf5e3fac9bfc0675,
        0xddb98d359e8ee0c5,
        0x1b9a4c4a497d6bc6,
        0xaa8b083ef65f8aa4,
        0x531de9d7625b2cc2,
    ],
    // additive, n = 13, d = 26
    [
        0xb58ea4ec7880edf8,
        0x748cfdcefd396954,
        0x837c1fd099de1f29,
        0x92d4e6d9c0cb9552,
        0x3566ee59c41a1cf9,
    ],
    // additive, n = 65, d = 3
    [
        0xa8e4cb95ae7948bc,
        0xd7b682d74e382b2a,
        0x34c08bc1b62a1f76,
        0xd39fbb901633f52d,
        0xf76f1d68ad9fd8d9,
    ],
    // additive, n = 65, d = 26
    [
        0x3bf730829b7779ff,
        0xb2a042c181657fa3,
        0x995c298e4f169ef0,
        0x9ef880ba563bd499,
        0xae00b6ac9a5ede84,
    ],
];
