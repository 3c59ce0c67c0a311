//! **trace_summary** — replays a structured trace into a human-readable
//! latency/cost breakdown.
//!
//! Accepts either a JSONL trace (written by an [`obs::JsonlSink`]) or a
//! Chrome trace-event JSON file (written by [`obs::write_chrome_trace`]
//! or the flight recorder's `flight_NNN_<reason>.json` dumps) — the
//! format is sniffed from the document head. For every span name it
//! reports call count, total/mean/min/max/p95 wall time, *self* time
//! (exclusive of child spans), and the share of the trace's wall
//! clock; a second table ranks spans by self time, so the hot leaf is
//! visible even when a parent span dominates the totals. Counter
//! samples and instant events are listed after the latency tables.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p bench --bin trace_summary -- trace.jsonl
//! cargo run --release -p bench --bin trace_summary -- flight_000_quarantine.json
//! cargo run --release -p bench --bin trace_summary -- --demo
//! ```
//!
//! `--demo` runs one default [`seamless_core::SeamlessTuner::tune`]
//! session with a JSONL sink attached to `results/demo_trace.jsonl`
//! (and a Chrome trace next to it, loadable in `chrome://tracing` /
//! Perfetto), then summarizes the file it just wrote.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;

use obs::{outln, Event, EventKind};

/// Rows shown per latency table; deeper traces are truncated (and say
/// so) — the point of the summary is the head, not the tail.
const TOP_K: usize = 15;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path = match args.first().map(String::as_str) {
        Some("--demo") => match write_demo_trace() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("demo trace failed: {e}");
                return ExitCode::FAILURE;
            }
        },
        Some(p) => p.to_owned(),
        None => {
            eprintln!("usage: trace_summary <trace.jsonl|chrome_trace.json> | --demo");
            return ExitCode::FAILURE;
        }
    };

    let events = match read_trace(&path) {
        Ok(ev) => ev,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if events.is_empty() {
        eprintln!("{path}: no events");
        return ExitCode::FAILURE;
    }
    outln!("# Trace summary: {path} ({} events)", events.len());
    print_span_table(&events);
    print_self_time_table(&events);
    print_counters(&events);
    print_instants(&events);
    ExitCode::SUCCESS
}

/// Reads a trace file in either supported format. Both start with
/// `{`, so the sniff keys on the Chrome trace document's mandatory
/// top-level `"traceEvents"` key; everything else is treated as JSONL
/// (one event object per line).
fn read_trace(path: &str) -> Result<Vec<Event>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let head: String = text
        .trim_start()
        .chars()
        .take(64)
        .filter(|c| c != &' ')
        .collect();
    if head.starts_with("{\"traceEvents\"") {
        obs::parse_chrome_trace(&text)
    } else {
        obs::parse_jsonl(&text)
    }
}

/// Per-span-name latency aggregate over `SpanEnd` durations.
#[derive(Default)]
struct SpanAgg {
    durs_ns: Vec<u64>,
    self_ns: u64,
}

impl SpanAgg {
    fn total(&self) -> u64 {
        self.durs_ns.iter().sum()
    }

    fn quantile(&mut self, q: f64) -> u64 {
        self.durs_ns.sort_unstable();
        if self.durs_ns.is_empty() {
            return 0;
        }
        let idx = ((self.durs_ns.len() - 1) as f64 * q).round() as usize;
        self.durs_ns[idx]
    }
}

/// Aggregates `SpanEnd` events by name, attributing to each span its
/// *self* time: its duration minus the summed durations of its direct
/// children (clamped at 0 — concurrent children can overlap a parent).
fn span_durations(events: &[Event]) -> BTreeMap<String, SpanAgg> {
    // First pass: each completed span instance and its duration.
    let mut instances: BTreeMap<u64, (&str, u64)> = BTreeMap::new();
    // Sum of direct children's durations per parent span id.
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for e in events {
        if e.kind != EventKind::SpanEnd {
            continue;
        }
        let Some(dur) = e.field("dur_ns").and_then(|f| f.as_u64()) else {
            continue;
        };
        if e.span_id != 0 {
            instances.insert(e.span_id, (e.name.as_str(), dur));
        }
        if e.parent_id != 0 {
            *child_ns.entry(e.parent_id).or_default() += dur;
        }
    }
    let mut by_name: BTreeMap<String, SpanAgg> = BTreeMap::new();
    for (span_id, (name, dur)) in &instances {
        let agg = by_name.entry((*name).to_string()).or_default();
        agg.durs_ns.push(*dur);
        let children = child_ns.get(span_id).copied().unwrap_or(0);
        agg.self_ns += dur.saturating_sub(children);
    }
    by_name
}

fn trace_wall_ns(events: &[Event]) -> u64 {
    let first = events.iter().map(|e| e.ts_ns).min().unwrap_or(0);
    let last = events.iter().map(|e| e.ts_ns).max().unwrap_or(0);
    (last - first).max(1)
}

fn print_span_table(events: &[Event]) {
    let mut by_name = span_durations(events);
    if by_name.is_empty() {
        outln!("\n(no completed spans)");
        return;
    }
    let wall = trace_wall_ns(events);
    let total_names = by_name.len();

    struct Row {
        name: String,
        n: usize,
        total: u64,
        self_ns: u64,
        mean: u64,
        min: u64,
        max: u64,
        p95: u64,
    }
    let mut rows: Vec<Row> = by_name
        .iter_mut()
        .map(|(name, agg)| {
            let n = agg.durs_ns.len();
            let total = agg.total();
            Row {
                name: name.clone(),
                n,
                total,
                self_ns: agg.self_ns,
                mean: total / n as u64,
                min: *agg.durs_ns.iter().min().unwrap_or(&0),
                max: *agg.durs_ns.iter().max().unwrap_or(&0),
                p95: agg.quantile(0.95),
            }
        })
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.total)); // heaviest total first
    rows.truncate(TOP_K);

    outln!(
        "\n## Span latency by total time ({}; wall = {})",
        if total_names > TOP_K {
            format!("top {TOP_K} of {total_names}")
        } else {
            "heaviest first".to_string()
        },
        fmt_ns(wall)
    );
    outln!(
        "| {:<18} | {:>6} | {:>10} | {:>10} | {:>10} | {:>10} | {:>10} | {:>10} | {:>6} |",
        "span",
        "count",
        "total",
        "self",
        "mean",
        "min",
        "max",
        "p95",
        "%wall"
    );
    outln!(
        "|{}|{}|{}|{}|{}|{}|{}|{}|{}|",
        "-".repeat(20),
        "-".repeat(8),
        "-".repeat(12),
        "-".repeat(12),
        "-".repeat(12),
        "-".repeat(12),
        "-".repeat(12),
        "-".repeat(12),
        "-".repeat(8)
    );
    for r in rows {
        outln!(
            "| {:<18} | {:>6} | {:>10} | {:>10} | {:>10} | {:>10} | {:>10} | {:>10} | {:>5.1}% |",
            r.name,
            r.n,
            fmt_ns(r.total),
            fmt_ns(r.self_ns),
            fmt_ns(r.mean),
            fmt_ns(r.min),
            fmt_ns(r.max),
            fmt_ns(r.p95),
            100.0 * r.total as f64 / wall as f64
        );
    }
}

fn print_self_time_table(events: &[Event]) {
    let by_name = span_durations(events);
    if by_name.is_empty() {
        return;
    }
    let wall = trace_wall_ns(events);
    let total_names = by_name.len();
    let mut rows: Vec<(String, usize, u64)> = by_name
        .into_iter()
        .map(|(name, agg)| (name, agg.durs_ns.len(), agg.self_ns))
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.2));
    rows.truncate(TOP_K);

    outln!(
        "\n## Span self time (exclusive of children; {})",
        if total_names > TOP_K {
            format!("top {TOP_K} of {total_names}")
        } else {
            "hottest first".to_string()
        }
    );
    outln!(
        "| {:<18} | {:>6} | {:>10} | {:>6} |",
        "span",
        "count",
        "self",
        "%wall"
    );
    outln!(
        "|{}|{}|{}|{}|",
        "-".repeat(20),
        "-".repeat(8),
        "-".repeat(12),
        "-".repeat(8)
    );
    for (name, n, self_ns) in rows {
        outln!(
            "| {:<18} | {:>6} | {:>10} | {:>5.1}% |",
            name,
            n,
            fmt_ns(self_ns),
            100.0 * self_ns as f64 / wall as f64
        );
    }
}

fn print_counters(events: &[Event]) {
    // Counter samples carry the running value; report the last one seen.
    let mut last: BTreeMap<String, f64> = BTreeMap::new();
    for e in events {
        if e.kind != EventKind::Counter {
            continue;
        }
        if let Some(v) = e.field("value").and_then(|f| f.as_f64()) {
            last.insert(e.name.clone(), v);
        }
    }
    if last.is_empty() {
        return;
    }
    outln!("\n## Counters (final value)");
    for (name, v) in last {
        outln!("  {name:<30} {v}");
    }
}

fn print_instants(events: &[Event]) {
    let instants: Vec<&Event> = events
        .iter()
        .filter(|e| e.kind == EventKind::Instant)
        .collect();
    if instants.is_empty() {
        return;
    }
    outln!("\n## Instant events ({})", instants.len());
    let mut by_name: BTreeMap<&str, usize> = BTreeMap::new();
    for e in &instants {
        *by_name.entry(e.name.as_str()).or_default() += 1;
    }
    for (name, n) in by_name {
        outln!("  {name:<30} ×{n}");
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Runs one default end-to-end tuning with a JSONL sink attached and
/// returns the trace path.
fn write_demo_trace() -> std::io::Result<String> {
    use seamless_core::{HistoryStore, SeamlessTuner, ServiceConfig, SimEnvironment};
    use workloads::{DataScale, Wordcount, Workload};

    std::fs::create_dir_all("results")?;
    let jsonl_path = "results/demo_trace.jsonl".to_owned();
    let sink = obs::JsonlSink::create(&jsonl_path)?;
    obs::install(sink);

    let svc = SeamlessTuner::new(
        Arc::new(HistoryStore::new()),
        SimEnvironment::dedicated(42),
        ServiceConfig::default(),
    );
    let job = Wordcount::new().job(DataScale::Tiny);
    let out = svc.tune("demo", "wordcount", &job, 1);
    eprintln!(
        "demo tune finished: best runtime {:.1}s, tuning cost ${:.2}",
        out.best_runtime_s,
        out.tuning_cost_usd()
    );
    obs::registry().publish();
    obs::uninstall_all();

    // A Chrome trace next to the JSONL, for chrome://tracing / Perfetto.
    let events = obs::read_jsonl_file(&jsonl_path)?;
    obs::write_chrome_trace("results/demo_trace.json", &events)?;
    eprintln!("wrote results/demo_trace.jsonl and results/demo_trace.json");

    // The in-process metrics the same run populated.
    eprintln!("\n{}", obs::registry().snapshot());
    Ok(jsonl_path)
}
