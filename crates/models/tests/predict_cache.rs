//! `GpPredictCache` against `GpRegressor::predict_batch`: every rescore
//! path, with queries dropped between fits, must give the same bits.

use models::{GpPredictCache, GpRegressor, Kernel, Rescore};

#[test]
fn predict_cache_matches_predict_batch_on_every_path() {
    let point = |i: usize, d: usize| -> Vec<f64> {
        (0..d)
            .map(|k| ((i * 37 + k * 11) % 23) as f64 / 22.0)
            .collect()
    };
    let d = 4;
    let x: Vec<Vec<f64>> = (0..14).map(|i| point(i, d)).collect();
    let y: Vec<f64> = x.iter().map(|r| r.iter().sum::<f64>().cos()).collect();
    let qs: Vec<Vec<f64>> = (0..70).map(|i| point(100 + 3 * i, d)).collect();
    let bits = |p: &[(f64, f64)]| -> Vec<(u64, u64)> {
        p.iter().map(|(m, s)| (m.to_bits(), s.to_bits())).collect()
    };
    for base in [
        Kernel::Matern52 {
            length_scale: 0.4,
            variance: 1.0,
        },
        Kernel::Additive {
            length_scale: 0.3,
            variance: 1.0,
        },
    ] {
        let mut cache = GpPredictCache::new(&qs);
        let mut rows: Vec<&Vec<f64>> = qs.iter().collect();
        // (training points, length scale, noise, expected path).
        let steps = [
            (5, 0.4, 1e-2, Rescore::Rebuild),
            (6, 0.4, 1e-2, Rescore::Append),
            (8, 0.4, 1e-2, Rescore::Append),
            (8, 0.4, 1e-2, Rescore::Append),
            (9, 0.4, 5e-2, Rescore::Noise),
            (10, 0.8, 5e-2, Rescore::LengthScale),
            (11, 0.8, 5e-2, Rescore::Append),
        ];
        for (step, &(n, ls, noise, want)) in steps.iter().enumerate() {
            let gp = GpRegressor::fit(&x[..n], &y[..n], base.with_length_scale(ls), noise).unwrap();
            assert_eq!(cache.update(&gp), want, "{base:?} step {step}");
            assert_eq!(bits(cache.predictions()), bits(&gp.predict_batch(&rows)));
            // Drop every seventh query, as a proposal would.
            let keep: Vec<bool> = (0..rows.len()).map(|c| (c + step) % 7 != 0).collect();
            cache.retain(&keep);
            let mut flags = keep.iter();
            rows.retain(|_| *flags.next().unwrap());
            assert_eq!(cache.len(), rows.len());
        }
        // A training set that is not an extension rebuilds.
        let gp = GpRegressor::fit(&x[1..12], &y[1..12], base.with_length_scale(0.8), 5e-2).unwrap();
        assert_eq!(cache.update(&gp), Rescore::Rebuild);
        assert_eq!(bits(cache.predictions()), bits(&gp.predict_batch(&rows)));
    }
}
