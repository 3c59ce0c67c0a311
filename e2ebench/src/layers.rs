//! Per-layer attribution for traced runs.
//!
//! [`LayerSink`] folds the program's own spans into self time (a span's
//! duration minus that of its direct children on the same thread) per
//! layer; [`Counters`] sums deltas of the registry's work counters and
//! history latency over the serving part of each pass, leaving out the
//! set-up's own history inserts.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use obs::{Event, EventKind, Sink};

/// The layer each program span belongs to. `tune_many` is left out: its
/// self time is the calling thread waiting for the tenant workers,
/// whose own spans already carry that time.
fn layer_of(span: &str) -> Option<&'static str> {
    Some(match span {
        "sim.run" => "sim",
        "surrogate_fit" => "surrogate_fit",
        "acquisition" => "acquisition",
        "propose" | "propose_batch" => "propose",
        "transfer" | "donor_search" => "transfer",
        "tuning_session" | "proposal" | "proposal_batch" | "evaluate" => "executor",
        "tune_many" => return None,
        _ => "service",
    })
}

/// The span-derived layers and their metric names, in report order.
const LAYERS: [(&str, &str); 7] = [
    ("sim", "sim_ms"),
    ("surrogate_fit", "surrogate_fit_ms"),
    ("acquisition", "acquisition_ms"),
    ("propose", "propose_ms"),
    ("transfer", "transfer_ms"),
    ("executor", "executor_ms"),
    ("service", "service_ms"),
];

#[derive(Default)]
struct State {
    /// Summed durations of each open span's finished children.
    child_ns: HashMap<u64, u64>,
    /// Self time per layer.
    self_ns: HashMap<&'static str, u64>,
}

/// An event sink that keeps only per-layer self-time totals.
#[derive(Default)]
pub struct LayerSink {
    state: Mutex<State>,
}

impl LayerSink {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    fn self_ms(&self, layer: &str) -> f64 {
        let state = self.state.lock().expect("layer sink lock poisoned");
        state.self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6
    }
}

impl Sink for LayerSink {
    fn accept(&self, event: &Event) {
        if event.kind != EventKind::SpanEnd {
            return;
        }
        let dur = event.field("dur_ns").and_then(|v| v.as_u64()).unwrap_or(0);
        let mut state = self.state.lock().expect("layer sink lock poisoned");
        let children = state.child_ns.remove(&event.span_id).unwrap_or(0);
        if event.parent_id != 0 {
            *state.child_ns.entry(event.parent_id).or_insert(0) += dur;
        }
        if let Some(layer) = layer_of(&event.name) {
            *state.self_ns.entry(layer).or_insert(0) += dur.saturating_sub(children);
        }
    }
}

/// Registry readings whose deltas give per-layer work counts.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    sim_runs: u64,
    surrogate_fits: u64,
    fit_cache_hits: u64,
    fit_cache_misses: u64,
    donations: u64,
    retries: u64,
    failed_trials: u64,
    history_ns: u64,
}

impl Counters {
    pub fn read() -> Self {
        let reg = obs::registry();
        let c = |name: &str| reg.counter(name).get();
        let h = |name: &str| reg.histogram(name).snapshot();
        Counters {
            sim_runs: c("sim.runs") + c("sim.failures"),
            surrogate_fits: h("bo.surrogate_fit_s").count,
            fit_cache_hits: c("bo.fit_cache.hit"),
            fit_cache_misses: c("bo.fit_cache.miss"),
            donations: c("transfer.donations"),
            retries: c("executor.retries"),
            failed_trials: c("executor.trial_failures") + c("executor.trial_timeouts"),
            history_ns: h("history.insert_s").sum_ns + h("history.query_s").sum_ns,
        }
    }

    /// Adds to `self` what the registry counted since `before` was read.
    pub fn add_since(&mut self, before: &Counters) {
        let now = Self::read();
        self.sim_runs += now.sim_runs - before.sim_runs;
        self.surrogate_fits += now.surrogate_fits - before.surrogate_fits;
        self.fit_cache_hits += now.fit_cache_hits - before.fit_cache_hits;
        self.fit_cache_misses += now.fit_cache_misses - before.fit_cache_misses;
        self.donations += now.donations - before.donations;
        self.retries += now.retries - before.retries;
        self.failed_trials += now.failed_trials - before.failed_trials;
        self.history_ns += now.history_ns - before.history_ns;
    }
}

/// The per-layer metrics of a traced run: `(name, value, unit)`.
///
/// Times are per tune, summed over threads and rescaled to the nominal
/// machine speed by the run's median `reference_ms`. Summed over
/// threads, they add up to more than the wall time on `batch_wave`;
/// `layer_time_over_wall` gives the ratio (close to 1 for the
/// sequential workloads). `history_ms` is busy time inside the store,
/// already contained in the `service` and `transfer` layers that call
/// it.
pub fn report(
    sink: &LayerSink,
    counts: &Counters,
    tunes: u64,
    wall_s: f64,
    reference_ms: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let scale = crate::calib::NOMINAL_MS / reference_ms;
    let per_tune = |ms: f64| ms * scale / tunes as f64;
    let mut out = Vec::new();
    let mut layer_sum_ms = 0.0;
    for (layer, metric) in LAYERS {
        let ms = sink.self_ms(layer);
        layer_sum_ms += ms;
        out.push((metric, per_tune(ms), "ms"));
    }
    let sim_s = sink.self_ms("sim") * scale / 1e3;
    let fit_lookups = (counts.fit_cache_hits + counts.fit_cache_misses).max(1);
    let per_tune = |n: u64| n as f64 / tunes as f64;
    out.extend([
        (
            "history_ms",
            per_tune(counts.history_ns) * scale / 1e6,
            "ms",
        ),
        (
            "layer_time_over_wall",
            layer_sum_ms / (wall_s * 1e3),
            "ratio",
        ),
        ("reference_ms", reference_ms, "ms"),
        ("sim_runs_per_tune", per_tune(counts.sim_runs), "count"),
        (
            "sim_trials_per_s",
            counts.sim_runs as f64 / sim_s.max(1e-9),
            "1/s",
        ),
        (
            "surrogate_fits_per_tune",
            per_tune(counts.surrogate_fits),
            "count",
        ),
        (
            "fit_cache_hit_ratio",
            counts.fit_cache_hits as f64 / fit_lookups as f64,
            "ratio",
        ),
        ("donations_per_tune", per_tune(counts.donations), "count"),
        ("retries_per_tune", per_tune(counts.retries), "count"),
        (
            "failed_trials_per_tune",
            per_tune(counts.failed_trials),
            "count",
        ),
    ]);
    out
}
