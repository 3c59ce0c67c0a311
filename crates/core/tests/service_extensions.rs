//! Crate-level tests for the service's optional features: clustered
//! donor selection (§II-B/AROMA) and goal-aware tuning (§IV-D).

use std::sync::Arc;

use seamless_core::goal::{GoalObjective, TuningGoal};
use seamless_core::service::ServiceConfig;
use seamless_core::tuner::{TunerKind, TuningSession};
use seamless_core::{CloudObjective, HistoryStore, Objective, SeamlessTuner, SimEnvironment};
use workloads::{DataScale, KMeans, Pagerank, Wordcount, Workload};

#[test]
fn clustered_donor_service_tunes_after_history_builds_up() {
    let store = Arc::new(HistoryStore::new());
    let svc = SeamlessTuner::new(
        Arc::clone(&store),
        SimEnvironment::dedicated(41),
        ServiceConfig {
            stage1_budget: 3,
            stage2_budget: 6,
            clustered_donors: true,
            ..ServiceConfig::default()
        },
    );
    // Populate the history with three distinct workload families.
    for (i, w) in [
        Box::new(Wordcount::new()) as Box<dyn Workload>,
        Box::new(Pagerank::new()),
        Box::new(KMeans::new()),
    ]
    .into_iter()
    .enumerate()
    {
        let job = w.job(DataScale::Tiny);
        let out = svc.tune(&format!("seed-{i}"), w.name(), &job, 900 + i as u64);
        assert!(out.best_runtime_s.is_finite());
    }
    assert!(store.len() >= 12, "history should have built up");

    // A new tenant running a pagerank variant gets clustered donors.
    let job = Pagerank::with_iterations(4).job(DataScale::Tiny);
    let out = svc.tune("newbie", "pr-variant", &job, 990);
    assert!(out.used_transfer, "clustered donors should be available");
    assert!(out.best_runtime_s.is_finite() && out.best_runtime_s > 0.0);
}

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
    let mut session = TuningSession::new(TunerKind::BayesOpt, 45);
    let outcome = session.run(&obj, 18);
    let best = outcome.best.expect("a feasible cluster exists");
    let true_runtime = best.metrics.expect("successful run").runtime_s;
    assert!(
        true_runtime <= deadline * 1.25,
        "chosen cluster runs in {true_runtime:.1}s against a {deadline:.0}s deadline"
    );
}
