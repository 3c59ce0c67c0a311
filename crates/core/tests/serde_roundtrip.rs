//! Serialization round-trips for the service-level outcome types: a
//! provider persists tuning outcomes (dashboards, audit, replay), so
//! `TuningOutcome` and `ServiceOutcome` must survive JSON.

use std::sync::Arc;

use seamless_core::{
    DiscObjective, FaultInjector, FaultPlan, HistoryStore, RetryPolicy, SeamlessTuner,
    ServiceConfig, ServiceOutcome, SimEnvironment, TunerKind, TuningOutcome, TuningSession,
};
use simcluster::ClusterSpec;
use workloads::{DataScale, Wordcount, Workload};

fn small_outcome() -> TuningOutcome {
    let obj = DiscObjective::new(
        ClusterSpec::table1_testbed(),
        Wordcount::new().job(DataScale::Tiny),
        &SimEnvironment::dedicated(3),
    );
    TuningSession::new(TunerKind::Random, 5).run(&obj, 3)
}

#[test]
fn tuning_outcome_round_trips_through_json() {
    let out = small_outcome();
    let json = serde_json::to_string(&out).expect("serializes");
    let back: TuningOutcome = serde_json::from_str(&json).expect("parses");
    assert_eq!(back.history.len(), out.history.len());
    assert_eq!(
        back.best.as_ref().map(|o| o.runtime_s),
        out.best.as_ref().map(|o| o.runtime_s)
    );
    assert_eq!(
        back.best_config().map(|c| format!("{c:?}")),
        out.best_config().map(|c| format!("{c:?}"))
    );
}

#[test]
fn service_outcome_round_trips_through_json() {
    let svc = SeamlessTuner::new(
        Arc::new(HistoryStore::new()),
        SimEnvironment::dedicated(11),
        ServiceConfig {
            stage1_budget: 2,
            stage2_budget: 3,
            ..ServiceConfig::default()
        },
    );
    let job = Wordcount::new().job(DataScale::Tiny);
    let out = svc.tune("roundtrip", "wc", &job, 1);

    let json = serde_json::to_string(&out).expect("serializes");
    let back: ServiceOutcome = serde_json::from_str(&json).expect("parses");
    assert_eq!(back.best_runtime_s, out.best_runtime_s);
    assert_eq!(back.used_transfer, out.used_transfer);
    assert_eq!(back.stage1.history.len(), out.stage1.history.len());
    assert_eq!(back.stage2.history.len(), out.stage2.history.len());
    assert_eq!(back.cluster, out.cluster);
    assert_eq!(
        format!("{:?}", back.disc_config),
        format!("{:?}", out.disc_config)
    );
    // The restored outcome still computes derived quantities.
    assert!((back.tuning_cost_usd() - out.tuning_cost_usd()).abs() < 1e-12);
}

#[test]
fn service_config_with_resilience_round_trips_through_json() {
    let config = ServiceConfig {
        retry: Some(RetryPolicy {
            max_attempts: 5,
            trial_deadline_s: 120.0,
            ..RetryPolicy::default()
        }),
        chaos: Some(FaultInjector::new(42, FaultPlan::chaos())),
        ..ServiceConfig::default()
    };
    let json = serde_json::to_string(&config).expect("serializes");
    let back: ServiceConfig = serde_json::from_str(&json).expect("parses");
    assert_eq!(back, config);
    assert!(back.is_resilient());
    assert_eq!(back.effective_retry().max_attempts, 5);
}

#[test]
fn legacy_service_config_without_resilience_fields_still_parses() {
    // A config serialized before the resilience fields existed: strip
    // `retry` and `chaos` from a current dump and reload — the missing
    // fields must come back as `None` (non-resilient), not an error.
    let json = serde_json::to_string(&ServiceConfig::default()).expect("serializes");
    let v: serde::Value = serde_json::from_str(&json).expect("parses as value");
    let serde::Value::Object(pairs) = v else {
        panic!("config serializes as an object");
    };
    let legacy: Vec<(String, serde::Value)> = pairs
        .into_iter()
        .filter(|(k, _)| k != "retry" && k != "chaos")
        .collect();
    let legacy_json = serde_json::to_string(&serde::Value::Object(legacy)).expect("serializes");
    let back: ServiceConfig = serde_json::from_str(&legacy_json).expect("legacy config parses");
    assert_eq!(back, ServiceConfig::default());
    assert!(!back.is_resilient());
}

#[test]
fn service_config_with_a_removed_key_still_parses() {
    // Configs stored while the service had a clustered-donor option
    // still carry its key; it is ignored on load.
    let json = serde_json::to_string(&ServiceConfig::default()).expect("serializes");
    let v: serde::Value = serde_json::from_str(&json).expect("parses as value");
    let serde::Value::Object(mut pairs) = v else {
        panic!("config serializes as an object");
    };
    pairs.push(("clustered_donors".to_owned(), serde::Value::Bool(true)));
    let stored = serde_json::to_string(&serde::Value::Object(pairs)).expect("serializes");
    let back: ServiceConfig = serde_json::from_str(&stored).expect("stored config parses");
    assert_eq!(back, ServiceConfig::default());
}

#[test]
fn degraded_tuning_outcome_round_trips_through_json() {
    let obj = DiscObjective::new(
        ClusterSpec::table1_testbed(),
        Wordcount::new().job(DataScale::Tiny),
        &SimEnvironment::dedicated(3),
    );
    let session = TuningSession::new(TunerKind::Random, 5)
        .with_batch(4)
        .with_resilience(
            RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            },
            FaultInjector::new(7, FaultPlan::errors(0.4)),
        );
    let out = session.run(&obj, 8);
    assert!(out.is_degraded());

    let json = serde_json::to_string(&out).expect("serializes");
    let back: TuningOutcome = serde_json::from_str(&json).expect("parses");
    assert_eq!(back.degradation, out.degradation);
    assert_eq!(back.is_degraded(), out.is_degraded());
    assert_eq!(back.history.len(), out.history.len());
    for (a, b) in out.history.iter().zip(&back.history) {
        assert_eq!(a.is_censored(), b.is_censored());
    }
}
