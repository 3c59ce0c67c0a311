//! Integration test: managed execution detects workload change and the
//! re-tuned deployment beats the stale one (§IV-B + §V-D end-to-end).

use seamless_tuning::prelude::*;

#[test]
fn managed_execution_retunes_and_improves_after_growth() {
    let env = SimEnvironment::dedicated(77);
    let cluster = ClusterSpec::table1_testbed();

    // Tune at the small size first.
    let obj = DiscObjective::new(cluster.clone(), Pagerank::new().job(DataScale::Tiny), &env);
    let session = TuningSession::new(TunerKind::BayesOpt, 5);
    let tuned_small = session
        .run(&obj, 15)
        .best_config()
        .cloned()
        .expect("found a configuration");

    let mut managed = ManagedWorkload::new(
        cluster.clone(),
        Pagerank::new().job(DataScale::Tiny),
        tuned_small.clone(),
        ServiceConfig {
            retune_budget: 10,
            ..ServiceConfig::default()
        },
        &env,
        6,
    );
    for _ in 0..5 {
        let (obs, spent) = managed.run_once();
        assert!(obs.is_ok());
        assert_eq!(spent, 0);
    }

    // Input grows 16x.
    managed.set_job(Pagerank::new().job(DataScale::Custom(8192.0)));
    let mut retune_seen = false;
    let mut post_retune_runtimes = Vec::new();
    let stale = DiscObjective::new(
        cluster,
        Pagerank::new().job(DataScale::Custom(8192.0)),
        &SimEnvironment::dedicated(78),
    );
    let mut stale_runtimes = Vec::new();
    for i in 0..8 {
        let (obs, spent) = managed.run_once();
        retune_seen |= spent > 0;
        if retune_seen && obs.is_ok() {
            post_retune_runtimes.push(obs.runtime_s);
        }
        stale_runtimes.push(stale.evaluate(&tuned_small, trial_seed(78, i)).runtime_s);
    }
    assert!(retune_seen, "the monitor must fire after 16x input growth");
    assert!(!managed.retunings.is_empty());

    // After re-tuning, managed runs should not be slower than the stale
    // configuration on the grown input (allowing noise).
    if !post_retune_runtimes.is_empty() {
        let managed_mean: f64 =
            post_retune_runtimes.iter().sum::<f64>() / post_retune_runtimes.len() as f64;
        let stale_mean: f64 = stale_runtimes.iter().sum::<f64>() / stale_runtimes.len() as f64;
        assert!(
            managed_mean <= stale_mean * 1.15,
            "managed {managed_mean:.1} vs stale {stale_mean:.1}"
        );
    }
}

#[test]
fn fixed_threshold_is_jumpier_than_drift_detection() {
    // Feed both policies the same noisy-but-stationary stream.
    let env = SimEnvironment::dedicated(80);
    let cfg = seamless_tuning::core::SeamlessTuner::house_default();
    let obj = DiscObjective::new(
        ClusterSpec::table1_testbed(),
        SqlJoin::new().job(DataScale::Tiny),
        &env,
    );
    let stream: Vec<_> = (0..40)
        .map(|i| obj.evaluate(&cfg, trial_seed(env.seed, i)))
        .collect();

    let fires = |policy: RetunePolicy| -> usize {
        let mut m = RetuneMonitor::new(policy);
        let mut count = 0;
        for obs in &stream {
            if m.observe(obs).is_some() {
                count += 1;
                m.reset();
            }
        }
        count
    };

    let tight_fixed = fires(RetunePolicy::FixedThresholdPct(10));
    let drift = fires(RetunePolicy::PageHinkley);
    assert!(
        tight_fixed >= drift,
        "fixed+10% fired {tight_fixed}, page-hinkley {drift}"
    );
}
