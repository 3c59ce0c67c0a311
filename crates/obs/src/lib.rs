//! Structured tracing and metrics for the seamless-tuning service.
//!
//! Built on std plus the in-repo serde shims: instrumented crates
//! (`seamless-core`, `simcluster`, `bench`) emit spans and metric
//! samples through this crate, and pay a single relaxed atomic load per
//! call site when no sink is installed.
//!
//! Three pieces:
//!
//! * **Event bus** ([`span`], [`instant`], [`counter_sample`]) —
//!   structured [`Event`]s with monotonic timestamps and span
//!   nesting, fanned out to pluggable [`Sink`]s ([`MemorySink`] ring
//!   buffer, [`JsonlSink`] streaming writer).
//! * **Metrics registry** ([`registry`]) — counters, gauges, and
//!   fixed-bucket histograms with p50/p95/p99 snapshots behind cheap
//!   atomic handles.
//! * **Trace export** ([`chrome_trace`], [`read_jsonl_file`]) —
//!   Chrome trace-event JSON for `chrome://tracing` / Perfetto, and
//!   JSONL replay for offline analysis (`trace_summary`).
//!
//! Live telemetry on top (PR 5):
//!
//! * **OpenMetrics exposition** ([`openmetrics`]) rendered from the
//!   registry and served by [`MetricsServer`], a std-TCP
//!   scrape endpoint (`stune --metrics-addr`).
//! * **Flight recorder** ([`flightrec`]) — per-thread rings of recent
//!   events dumped as a Chrome trace on degradation / quarantine /
//!   budget exhaustion ([`flightrec::trigger_dump`]).
//!
//! # Example
//!
//! ```
//! let sink = obs::MemorySink::new(1024);
//! obs::install(sink.clone());
//! {
//!     let _outer = obs::span("stage");
//!     let _inner = obs::span("proposal").with("idx", 0i64);
//! }
//! obs::uninstall_all();
//! let events = sink.drain();
//! assert_eq!(events.len(), 4); // two starts, two ends
//! ```

pub mod event;
pub mod flightrec;
pub mod metrics;
pub mod openmetrics;
pub mod serve;
pub mod sink;
pub mod stdout;
pub mod trace;

pub use event::{
    counter_sample, current_span_id, current_tid, instant, now_ns, span, Event, EventKind,
    FieldValue, SpanGuard,
};
pub use flightrec::FlightRecorder;
pub use metrics::{
    registry, Counter, Gauge, Histogram, HistogramSnapshot, Registry, RegistrySnapshot,
};
pub use openmetrics::labeled;
pub use serve::MetricsServer;
pub use sink::{install, is_enabled, uninstall_all, JsonlSink, MemorySink, Sink};
pub use trace::{
    chrome_trace, parse_chrome_trace, parse_jsonl, read_jsonl_file, write_chrome_trace,
};
