//! Integration test: every tuning strategy drives the real simulator
//! and behaves sanely; model-guided search beats blind search.

use seamless_tuning::core::TransferTuner;
use seamless_tuning::prelude::*;

fn tune(kind: TunerKind, budget: usize, seed: u64) -> TuningOutcome {
    let obj = DiscObjective::new(
        ClusterSpec::table1_testbed(),
        Pagerank::new().job(DataScale::Tiny),
        &SimEnvironment::dedicated(seed),
    );
    let session = TuningSession::new(kind, seed ^ 0xAB);
    session.run(&obj, budget)
}

#[test]
fn every_strategy_finds_a_working_configuration() {
    for kind in TunerKind::all() {
        let outcome = tune(kind, 15, 7);
        assert!(
            outcome.best().is_some(),
            "{kind} found no successful configuration in 15 executions"
        );
        let best = outcome.best_runtime_s();
        assert!(best.is_finite() && best > 0.0, "{kind}: best {best}");
        assert_eq!(outcome.history.len(), 15);
    }
}

#[test]
fn best_so_far_curves_are_monotone() {
    for kind in [
        TunerKind::BayesOpt,
        TunerKind::Genetic,
        TunerKind::BestConfig,
    ] {
        let outcome = tune(kind, 20, 11);
        let curve = outcome.best_so_far();
        for w in curve.windows(2) {
            assert!(w[1] <= w[0], "{kind}: best-so-far must not regress");
        }
    }
}

#[test]
fn model_guided_search_beats_random_on_average() {
    let mut bo = 0.0;
    let mut rnd = 0.0;
    for seed in 0..4u64 {
        bo += tune(TunerKind::BayesOpt, 25, seed).best_runtime_s();
        rnd += tune(TunerKind::Random, 25, seed).best_runtime_s();
    }
    assert!(
        bo <= rnd * 1.05,
        "BO total {bo:.1} should not lose to random {rnd:.1} by >5%"
    );
}

#[test]
fn tuning_beats_spark_defaults_by_an_order_of_magnitude() {
    // §I's 89x claim in miniature: pagerank under the shipped defaults
    // vs 25 executions of BO.
    let obj = DiscObjective::new(
        ClusterSpec::table1_testbed(),
        Pagerank::new().job(DataScale::Tiny),
        &SimEnvironment::dedicated(3),
    );
    let default = obj.evaluate(&spark_space().default_configuration(), 3);
    let tuned = tune(TunerKind::BayesOpt, 25, 3).best_runtime_s();
    // The default either crashes (penalty) or is dramatically slower.
    assert!(
        default.runtime_s / tuned > 5.0,
        "default {} vs tuned {}",
        default.runtime_s,
        tuned
    );
}

#[test]
fn warm_start_is_visible_to_the_strategy_but_not_charged() {
    let obj = DiscObjective::new(
        ClusterSpec::table1_testbed(),
        Pagerank::new().job(DataScale::Tiny),
        &SimEnvironment::dedicated(5),
    );
    let donor = tune(TunerKind::Random, 10, 21);
    let donated_best = donor.best_config().expect("a donor run succeeded").clone();
    let tuner = TransferTuner::new(TunerKind::BayesOpt.build(), donor.history);
    let session = TuningSession::with_tuner(Box::new(tuner), 99);
    let outcome = session.run(&obj, 8);
    assert_eq!(
        outcome.history[0].config, donated_best,
        "the donated incumbent is probed first"
    );
    assert_eq!(
        outcome.history.len(),
        8,
        "donated observations are not charged to the budget"
    );
}
