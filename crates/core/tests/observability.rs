//! End-to-end observability: a default [`SeamlessTuner::tune`] run with
//! a memory sink attached must produce a well-formed span tree (stage
//! spans enclosing proposal spans), populate the latency histograms,
//! and export a valid Chrome trace document.
//!
//! Sinks and the metrics registry are process-global, so every test
//! here serializes on one mutex and tears its sinks down before
//! releasing it.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use obs::{Event, EventKind};
use seamless_core::{HistoryStore, SeamlessTuner, ServiceConfig, SimEnvironment};
use serde::Value;
use workloads::{DataScale, Wordcount, Workload};

fn global_obs_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Runs one small default-config tune with a memory sink installed and
/// returns the captured events.
fn traced_tune() -> Vec<Event> {
    let sink = obs::MemorySink::new(100_000);
    obs::install(sink.clone());
    obs::registry().clear();

    let svc = SeamlessTuner::new(
        Arc::new(HistoryStore::new()),
        SimEnvironment::dedicated(21),
        ServiceConfig {
            stage1_budget: 3,
            // Must exceed BayesOpt's 8-sample warm-up so stage 2
            // actually fits the surrogate (and records its histogram).
            stage2_budget: 12,
            ..ServiceConfig::default()
        },
    );
    let job = Wordcount::new().job(DataScale::Tiny);
    let out = svc.tune("obs-test", "wc", &job, 1);
    assert!(out.best_runtime_s.is_finite());

    obs::uninstall_all();
    sink.snapshot()
}

/// Walks `parent_id` links from `id` to the root, returning the chain
/// of enclosing span names (innermost first).
fn ancestor_names(events: &[Event], mut id: u64) -> Vec<String> {
    let parents: HashMap<u64, (u64, String)> = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanStart)
        .map(|e| (e.span_id, (e.parent_id, e.name.clone())))
        .collect();
    let mut chain = Vec::new();
    while id != 0 {
        let Some((parent, name)) = parents.get(&id) else {
            break;
        };
        chain.push(name.clone());
        id = *parent;
    }
    chain
}

#[test]
fn stage_spans_contain_proposal_spans() {
    let _guard = global_obs_lock().lock().unwrap_or_else(|e| e.into_inner());
    let events = traced_tune();
    assert!(!events.is_empty(), "the tune run must emit events");

    let proposal_starts: Vec<&Event> = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanStart && e.name == "proposal")
        .collect();
    // stage1_budget=3 + stage2_budget-1=3 proposals.
    assert!(
        proposal_starts.len() >= 6,
        "expected >=6 proposal spans, got {}",
        proposal_starts.len()
    );

    let mut inside_stage1 = 0;
    let mut inside_stage2 = 0;
    for p in &proposal_starts {
        let chain = ancestor_names(&events, p.span_id);
        assert_eq!(chain.first().map(String::as_str), Some("proposal"));
        assert!(
            chain.iter().any(|n| n == "tuning_session"),
            "proposal not inside a tuning_session: {chain:?}"
        );
        assert!(
            chain.last().map(String::as_str) == Some("tune"),
            "span tree must be rooted at the tune span: {chain:?}"
        );
        if chain.iter().any(|n| n == "stage1") {
            inside_stage1 += 1;
        }
        if chain.iter().any(|n| n == "stage2") {
            inside_stage2 += 1;
        }
    }
    assert!(inside_stage1 >= 3, "stage1 proposals: {inside_stage1}");
    assert!(inside_stage2 >= 3, "stage2 proposals: {inside_stage2}");

    // Every SpanStart has a matching SpanEnd carrying a duration.
    let starts = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanStart)
        .count();
    let ends: Vec<&Event> = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanEnd)
        .collect();
    assert_eq!(starts, ends.len(), "unbalanced span events");
    assert!(ends
        .iter()
        .all(|e| e.field("dur_ns").and_then(|f| f.as_u64()).is_some()));
}

#[test]
fn latency_histograms_are_populated() {
    let _guard = global_obs_lock().lock().unwrap_or_else(|e| e.into_inner());
    let _ = traced_tune();
    let snap = obs::registry().snapshot();

    for name in [
        "bo.surrogate_fit_s",
        "bo.acquisition_s",
        "bo.candidate_pool_s",
        "bo.encode_history_s",
        "sim.step_s",
    ] {
        let h = snap
            .histograms
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("histogram {name} missing"));
        assert!(h.1.count > 0, "{name} recorded no samples");
        assert!(h.1.sum_ns > 0, "{name} recorded zero total time");
        assert!(h.1.p50_ns > 0.0, "{name} p50 is zero");
    }
}

#[test]
fn chrome_trace_export_is_valid() {
    let _guard = global_obs_lock().lock().unwrap_or_else(|e| e.into_inner());
    let events = traced_tune();
    let doc = obs::chrome_trace(&events);

    let parsed: Value = serde_json::from_str(&doc).expect("chrome trace must be valid JSON");
    let Some(Value::Array(trace_events)) = parsed.get("traceEvents") else {
        panic!("traceEvents array");
    };
    assert_eq!(trace_events.len(), events.len());
    let str_of = |te: &Value, key: &str| match te.get(key) {
        Some(Value::Str(s)) => Some(s.clone()),
        _ => None,
    };
    let u64_of = |te: &Value, key: &str| te.get(key).and_then(Value::as_u64);

    let mut phases = std::collections::BTreeSet::new();
    for te in trace_events {
        phases.insert(str_of(te, "ph").expect("ph"));
        assert!(te.get("ts").and_then(Value::as_f64).is_some(), "ts");
        assert!(str_of(te, "name").is_some(), "name");
        assert!(u64_of(te, "pid").is_some(), "pid");
    }
    assert!(phases.contains("B") && phases.contains("E"), "{phases:?}");

    // B/E balance per (tid, name): a Perfetto-loadable nesting.
    let mut depth: HashMap<(u64, String), i64> = HashMap::new();
    for te in trace_events {
        let tid = u64_of(te, "tid").unwrap_or(0);
        let name = str_of(te, "name").unwrap();
        match str_of(te, "ph").unwrap().as_str() {
            "B" => *depth.entry((tid, name)).or_default() += 1,
            "E" => *depth.entry((tid, name)).or_default() -= 1,
            _ => {}
        }
    }
    assert!(
        depth.values().all(|d| *d == 0),
        "unbalanced B/E pairs: {depth:?}"
    );
}
