//! Serialization round-trips for the service-level outcome types: a
//! provider persists tuning outcomes (dashboards, audit, replay), so
//! `TuningOutcome` and `ServiceOutcome` must survive JSON. Every other
//! type the workspace derives on, and every derive shape (unit,
//! newtype, tuple and struct variants; tuple, newtype and unit
//! structs), round-trips too.

use std::collections::BTreeMap;
use std::sync::Arc;

use confspace::{ParamKind, ParamValue};
use seamless_core::{
    AmortizationLedger, DegradationReport, DiscObjective, ExecutionRecord, FaultInjector,
    FaultPlan, HistoryStore, JobProfile, RecordOutcome, RetryPolicy, RetunePolicy, SeamlessTuner,
    ServiceConfig, ServiceOutcome, SimEnvironment, SloReport, TenantSloStats, TrialError,
    TunerKind, TuningGoal, TuningOutcome, TuningSession, WorkloadSignature,
};
use serde::{Deserialize, Serialize};
use simcluster::{
    ClusterSpec, FailureKind, InterferenceModel, Partitioning, SharedOutcome, SharingPolicy,
    SparkEnv,
};
use workloads::{DataScale, InputSpec, Wordcount, Workload};

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
        back.best().map(|o| o.runtime_s),
        out.best().map(|o| o.runtime_s)
    );
    assert_eq!(
        back.best_config().map(|c| format!("{c:?}")),
        out.best_config().map(|c| format!("{c:?}"))
    );
}

/// Outcomes written while `TuningOutcome` still stored a copy of its
/// best observation under `best` load unchanged: the key is skipped and
/// the best is read off the history.
#[test]
fn outcomes_with_a_stored_best_still_load() {
    let out = small_outcome();
    let json = serde_json::to_string(&out).expect("serializes");
    let best = serde_json::to_string(&out.best()).expect("serializes");
    let old = format!("{{\"best\":{best},{}", &json[1..]);
    let back: TuningOutcome = serde_json::from_str(&old).expect("parses");
    assert_eq!(serde_json::to_string(&back).expect("serializes"), json);
    assert_eq!(back.best(), out.best());
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

/// Serializes `value`, parses it back, and checks the copy equals the
/// original and re-serializes to the same text.
fn assert_round_trips<T>(value: &T)
where
    T: serde::Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
{
    let json = serde_json::to_string(value).expect("serializes");
    let back: T = serde_json::from_str(&json).expect("parses");
    assert_eq!(&back, value, "{json}");
    assert_eq!(serde_json::to_string(&back).expect("serializes"), json);
    let pretty = serde_json::to_string_pretty(value).expect("serializes");
    let back: T = serde_json::from_str(&pretty).expect("pretty parses");
    assert_eq!(&back, value, "{pretty}");
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    Unit,
    Newtype(f64),
    Tuple(i64, String),
    Struct { a: u32, b: Option<bool> },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Pair(u8, Vec<Shape>);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Wrapper(String);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Marker;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Holder {
    shapes: Vec<Shape>,
    pair: Pair,
    wrapper: Wrapper,
    marker: Marker,
    by_name: BTreeMap<String, Shape>,
    curve: Vec<(f64, u64)>,
}

#[test]
fn every_derive_shape_round_trips_in_serde_form() {
    let shapes = vec![
        Shape::Unit,
        Shape::Newtype(1.5),
        Shape::Tuple(-3, "x\"y".to_owned()),
        Shape::Struct { a: 7, b: None },
        Shape::Struct {
            a: 0,
            b: Some(true),
        },
    ];
    let holder = Holder {
        shapes: shapes.clone(),
        pair: Pair(2, vec![Shape::Unit]),
        wrapper: Wrapper("w".to_owned()),
        marker: Marker,
        by_name: shapes
            .iter()
            .enumerate()
            .map(|(i, s)| (format!("k{i}"), s.clone()))
            .collect(),
        curve: vec![(0.5, 1), (2.0, u64::MAX)],
    };
    assert_round_trips(&holder);
    assert_eq!(
        serde_json::to_string(&shapes).expect("serializes"),
        r#"["Unit",{"Newtype":1.5},{"Tuple":[-3,"x\"y"]},{"Struct":{"a":7,"b":null}},{"Struct":{"a":0,"b":true}}]"#
    );
    assert_eq!(
        serde_json::to_string(&holder.pair).expect("serializes"),
        r#"[2,["Unit"]]"#
    );
    assert_eq!(
        serde_json::to_string(&holder.wrapper).expect("serializes"),
        r#""w""#
    );
    assert_eq!(serde_json::to_string(&Marker).expect("serializes"), "null");
    // Malformed shapes are errors, not defaults.
    for bad in [
        r#""Newtype""#,
        r#"{"Unit":null}"#,
        r#"{"Tuple":[1]}"#,
        r#"{"Tuple":[1,"a",2]}"#,
        r#"{"Struct":[7,null]}"#,
        r#"{"Newtype":1.0,"Unit":null}"#,
        r#"{}"#,
        r#""Other""#,
        "7",
    ] {
        assert!(
            serde_json::from_str::<Shape>(bad).is_err(),
            "{bad} accepted"
        );
    }
    assert!(serde_json::from_str::<Pair>("[1]").is_err());
    assert!(serde_json::from_str::<Pair>("[1,[],2]").is_err());
    assert!(serde_json::from_str::<Wrapper>("1").is_err());
}

#[test]
fn every_workspace_serde_type_round_trips() {
    use seamless_core::retune::RetuneReason;
    use simcluster::shared::SharedJobOutcome;

    for space in [
        confspace::spark::spark_space(),
        confspace::cloud::cloud_space(),
    ] {
        for def in space.params() {
            assert_round_trips(def);
        }
        assert_round_trips(&space.default_configuration());
    }
    assert_round_trips(&ParamKind::Bool);
    assert_round_trips(&ParamValue::Str("kryo".to_owned()));

    let cluster = ClusterSpec::table1_testbed();
    assert_round_trips(&cluster);
    assert_round_trips(&cluster.instance);
    let spark = confspace::spark::spark_space().default_configuration();
    let env = SparkEnv::resolve(&cluster, &spark).expect("default resolves");
    assert_round_trips(&env);
    for w in workloads::all_workloads() {
        assert_round_trips(&w.job(DataScale::Tiny));
    }
    for scale in [
        DataScale::Tiny,
        DataScale::Small,
        DataScale::Ds1,
        DataScale::Ds2,
        DataScale::Ds3,
        DataScale::Custom(2.5),
    ] {
        assert_round_trips(&scale);
    }
    for p in [
        Partitioning::InputBlocks { block_mb: 128.0 },
        Partitioning::DefaultParallelism,
        Partitioning::ShufflePartitions,
    ] {
        assert_round_trips(&p);
    }
    assert_round_trips(&InputSpec {
        records: 1_000,
        bytes_per_record: 100,
        skew: 0.3,
    });
    assert_round_trips(&InterferenceModel {
        burst_slowdown: 1.5,
        p_enter: 0.1,
        p_exit: 0.4,
    });
    for f in [
        FailureKind::LaunchFailure {
            reason: "quota".to_owned(),
        },
        FailureKind::DriverOom,
        FailureKind::ExecutorOomLoop {
            stage: "s1".to_owned(),
        },
        FailureKind::FetchTimeout {
            stage: "s2".to_owned(),
        },
        FailureKind::TrialAborted {
            reason: "r".to_owned(),
        },
        FailureKind::TrialTimeout,
    ] {
        assert_round_trips(&f);
    }
    for policy in [SharingPolicy::Fifo, SharingPolicy::Fair] {
        assert_round_trips(&policy);
    }
    assert_round_trips(&SharedOutcome {
        jobs: vec![SharedJobOutcome {
            tenant: "t".to_owned(),
            demand_s: 3.0,
            completion_s: 4.5,
            failure: Some(FailureKind::DriverOom),
        }],
        makespan_s: 4.5,
    });

    // Observations, metrics and the profiles and reports built on them.
    let out = small_outcome();
    for o in &out.history {
        assert_round_trips(o);
        if let Some(m) = &o.metrics {
            assert_round_trips(m);
            assert_round_trips(&m.stages[0]);
            assert_round_trips(&WorkloadSignature::from_metrics(m));
            assert_round_trips(&JobProfile::from_run(&env, m));
        }
    }
    let report = seamless_core::additive_effects(&confspace::spark::spark_space(), &out.history);
    assert_round_trips(&report);

    for kind in TunerKind::all() {
        assert_round_trips(&kind);
    }
    for goal in [
        TuningGoal::MinRuntime,
        TuningGoal::MinCost,
        TuningGoal::Deadline { seconds: 90.5 },
        TuningGoal::Weighted { alpha: 0.25 },
    ] {
        assert_round_trips(&goal);
    }
    for policy in [
        RetunePolicy::FixedThresholdPct(20),
        RetunePolicy::PageHinkley,
        RetunePolicy::Cusum,
    ] {
        assert_round_trips(&policy);
    }
    for reason in [RetuneReason::RuntimeDrift, RetuneReason::InputRegimeChange] {
        assert_round_trips(&reason);
    }
    for e in [
        TrialError::Injected("i".to_owned()),
        TrialError::Panicked("p".to_owned()),
        TrialError::Poisoned("x".to_owned()),
        TrialError::Quarantined,
    ] {
        assert_round_trips(&e);
    }
    assert_round_trips(&RetryPolicy::default());
    assert_round_trips(&DegradationReport {
        completed: 3,
        failed: 1,
        timed_out: 2,
        retries: 4,
        quarantined: 1,
        budget_exhausted: true,
    });
    assert_round_trips(&FaultPlan::chaos());
    assert_round_trips(&FaultInjector::new(9, FaultPlan::errors(0.5)));
    assert_round_trips(&ServiceConfig::default());
    assert_round_trips(&SloReport {
        tuned_runtime_s: 10.0,
        optimal_runtime_s: Some(9.0),
        best_similar_runtime_s: None,
        default_runtime_s: Some(20.0),
    });
    assert_round_trips(&AmortizationLedger {
        tuning_cost_usd: 10.0,
        baseline_run_cost_usd: 1.0,
        tuned_run_cost_usd: 0.5,
    });
    assert_round_trips(&TenantSloStats {
        tunes: 4,
        evaluable: 3,
        within_ratio: 2.0 / 3.0,
        error_budget_remaining: -2.25,
        burn_rate: 3.25,
        cost_cents: 120.0,
        mean_runs_to_break_even: None,
    });
    for outcome in [
        RecordOutcome::Ok,
        RecordOutcome::Failed,
        RecordOutcome::TimedOut,
    ] {
        assert_round_trips(&ExecutionRecord {
            client: "c".to_owned(),
            workload: "w".to_owned(),
            signature: out.history[0]
                .metrics
                .as_ref()
                .map(WorkloadSignature::from_metrics)
                .expect("metrics"),
            config: out.history[0].config.clone(),
            runtime_s: 12.5,
            cost_usd: 0.25,
            seq: 3,
            outcome,
        });
    }
}
