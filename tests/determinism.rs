//! Integration test: the full stack is reproducible under fixed seeds —
//! a requirement for every experiment in EXPERIMENTS.md.

use seamless_tuning::prelude::*;

fn full_session(seed: u64) -> (f64, Vec<f64>) {
    let obj = DiscObjective::new(
        ClusterSpec::table1_testbed(),
        Terasort::new().job(DataScale::Tiny),
        &SimEnvironment::dedicated(seed),
    );
    let session = TuningSession::new(TunerKind::Genetic, seed);
    let outcome = session.run(&obj, 12);
    (
        outcome.best_runtime_s(),
        outcome.history.iter().map(|o| o.runtime_s).collect(),
    )
}

#[test]
fn identical_seeds_give_identical_sessions() {
    let (best_a, hist_a) = full_session(42);
    let (best_b, hist_b) = full_session(42);
    assert_eq!(best_a, best_b);
    assert_eq!(hist_a, hist_b);
}

#[test]
fn different_seeds_give_different_trajectories() {
    let (_, hist_a) = full_session(1);
    let (_, hist_b) = full_session(2);
    assert_ne!(hist_a, hist_b);
}

#[test]
fn simulator_is_deterministic_across_workloads() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let cluster = ClusterSpec::table1_testbed();
    let cfg = seamless_tuning::core::SeamlessTuner::house_default();
    let env = SparkEnv::resolve(&cluster, &cfg).expect("fits");
    for w in all_workloads() {
        let job = w.job(DataScale::Tiny);
        let sim = Simulator::dedicated();
        let a = sim
            .run(&env, &job, &mut StdRng::seed_from_u64(9))
            .expect("ok")
            .runtime_s;
        let b = sim
            .run(&env, &job, &mut StdRng::seed_from_u64(9))
            .expect("ok")
            .runtime_s;
        assert_eq!(a, b, "{} is nondeterministic", w.name());
    }
}
