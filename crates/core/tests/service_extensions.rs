//! Crate-level tests for goal-aware tuning (§IV-D).

use seamless_core::goal::{GoalObjective, TuningGoal};
use seamless_core::tuner::{TunerKind, TuningSession};
use seamless_core::{CloudObjective, Objective, SeamlessTuner, SimEnvironment};
use workloads::{DataScale, Wordcount, Workload};

#[test]
fn goal_objective_preserves_true_cost_for_reporting() {
    let job = Wordcount::new().job(DataScale::Tiny);
    let inner = CloudObjective::new(
        job,
        SeamlessTuner::house_default(),
        &SimEnvironment::dedicated(43),
    );
    let obj = GoalObjective::new(inner, TuningGoal::MinCost);
    let cfg = obj.space().default_configuration();
    let obs = obj.evaluate(&cfg, 43);
    // The score lives in runtime_s; the true runtime stays in metrics.
    let metrics = obs.metrics.expect("successful run");
    assert!(metrics.runtime_s > 0.0);
    assert!((obs.runtime_s - obs.cost_usd * 1000.0).abs() < 1e-9);
}

#[test]
fn deadline_goal_finds_a_cluster_meeting_the_deadline() {
    let job = Wordcount::new().job(DataScale::Small);
    let deadline = 30.0;
    let inner = CloudObjective::new(
        job,
        SeamlessTuner::house_default(),
        &SimEnvironment::dedicated(44),
    );
    let obj = GoalObjective::new(inner, TuningGoal::Deadline { seconds: deadline });
    let session = TuningSession::new(TunerKind::BayesOpt, 45);
    let outcome = session.run(&obj, 18);
    let best = outcome.best().expect("a feasible cluster exists");
    let true_runtime = best.metrics.as_ref().expect("successful run").runtime_s;
    assert!(
        true_runtime <= deadline * 1.25,
        "chosen cluster runs in {true_runtime:.1}s against a {deadline:.0}s deadline"
    );
}
