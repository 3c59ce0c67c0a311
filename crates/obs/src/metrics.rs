//! Process-wide metrics registry: counters, gauges, and fixed-bucket
//! histograms behind cheap atomic handles.
//!
//! Handles are `Arc`-backed: look a metric up once (a mutex-guarded
//! map access), then record on the hot path with plain atomic ops.
//! Histograms use 64 power-of-two buckets over nanoseconds, giving
//! factor-2 resolution from 1ns to ~584 years — enough for latency
//! quantiles without per-record allocation.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Monotonically increasing event count.
#[derive(Clone)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    fn new() -> Self {
        Counter {
            value: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-write-wins float value.
#[derive(Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    fn new() -> Self {
        Gauge {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }

    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

const BUCKETS: usize = 64;

struct HistogramInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

/// Fixed-bucket latency/size histogram over nanosecond-scaled values.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            inner: Arc::new(HistogramInner {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum_ns: AtomicU64::new(0),
                min_ns: AtomicU64::new(u64::MAX),
                max_ns: AtomicU64::new(0),
            }),
        }
    }

    /// Bucket index for a raw value: floor(log2(v)) clamped to range.
    fn bucket_of(ns: u64) -> usize {
        if ns == 0 {
            0
        } else {
            (63 - ns.leading_zeros() as usize).min(BUCKETS - 1)
        }
    }

    /// Representative value (geometric midpoint) for a bucket.
    fn bucket_mid(idx: usize) -> f64 {
        let lo = (1u64 << idx) as f64;
        lo * 1.5
    }

    /// Records a raw nanosecond (or unitless) value.
    pub fn record_ns(&self, ns: u64) {
        let inner = &self.inner;
        inner.buckets[Self::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum_ns.fetch_add(ns, Ordering::Relaxed);
        inner.min_ns.fetch_min(ns, Ordering::Relaxed);
        inner.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Records a duration in seconds.
    pub fn record_secs(&self, secs: f64) {
        let ns = if secs.is_finite() && secs > 0.0 {
            (secs * 1e9).min(u64::MAX as f64) as u64
        } else {
            0
        };
        self.record_ns(ns);
    }

    /// Times `f`, records the elapsed wall-clock, and returns its result.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record_ns(start.elapsed().as_nanos() as u64);
        out
    }

    /// Exclusive upper bound (ns) of bucket `idx`: values in bucket
    /// `idx` satisfy `2^idx <= v < 2^(idx+1)` (the last bucket is
    /// unbounded).
    pub fn bucket_upper_ns(idx: usize) -> u64 {
        if idx >= BUCKETS - 1 {
            u64::MAX
        } else {
            1u64 << (idx + 1)
        }
    }

    /// A consistent point-in-time summary.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &self.inner;
        let counts: Vec<u64> = inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        let sum_ns = inner.sum_ns.load(Ordering::Relaxed);
        let min_ns = inner.min_ns.load(Ordering::Relaxed);
        let quantile = |q: f64| -> f64 {
            if count == 0 {
                return 0.0;
            }
            let target = (q * count as f64).ceil().max(1.0) as u64;
            let mut seen = 0u64;
            for (idx, c) in counts.iter().enumerate() {
                seen += c;
                if seen >= target {
                    return Self::bucket_mid(idx);
                }
            }
            Self::bucket_mid(BUCKETS - 1)
        };
        HistogramSnapshot {
            count,
            sum_ns,
            min_ns: if count == 0 { 0 } else { min_ns },
            max_ns: inner.max_ns.load(Ordering::Relaxed),
            p50_ns: quantile(0.50),
            p95_ns: quantile(0.95),
            p99_ns: quantile(0.99),
            buckets: counts,
        }
    }
}

/// Point-in-time histogram summary; quantiles are bucket-midpoint
/// estimates (factor-2 resolution).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Recorded samples.
    pub count: u64,
    /// Sum of all samples (ns).
    pub sum_ns: u64,
    /// Smallest sample (ns).
    pub min_ns: u64,
    /// Largest sample (ns).
    pub max_ns: u64,
    /// Estimated median (ns).
    pub p50_ns: f64,
    /// Estimated 95th percentile (ns).
    pub p95_ns: f64,
    /// Estimated 99th percentile (ns).
    pub p99_ns: f64,
    /// Raw per-bucket counts (power-of-two bounds; bucket `i` covers
    /// `[2^i, 2^(i+1))` ns — see [`Histogram::bucket_upper_ns`]).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }
}

/// A named family of metrics. Obtain the process-global one with
/// [`registry`], or create isolated instances for tests.
pub struct Registry {
    id: u64,
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl Default for Registry {
    fn default() -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        Registry {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            counters: Mutex::default(),
            gauges: Mutex::default(),
            histograms: Mutex::default(),
        }
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// An identity no other registry in this process shares, so a
    /// publisher can remember what it has pushed into each registry.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Gets or creates the counter `name`; the handle is cheap to
    /// clone and use from any thread.
    pub fn counter(&self, name: &str) -> Counter {
        get_or_create(&self.counters, name, Counter::new)
    }

    /// Gets or creates the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        get_or_create(&self.gauges, name, Gauge::new)
    }

    /// Gets or creates the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        get_or_create(&self.histograms, name, Histogram::new)
    }

    /// Snapshots every metric, names sorted.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let counters = {
            let map = self.counters.lock().unwrap_or_else(|e| e.into_inner());
            map.iter().map(|(k, v)| (k.clone(), v.get())).collect()
        };
        let gauges = {
            let map = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
            map.iter().map(|(k, v)| (k.clone(), v.get())).collect()
        };
        let histograms = {
            let map = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
            map.iter().map(|(k, v)| (k.clone(), v.snapshot())).collect()
        };
        RegistrySnapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Emits the current value of every counter and gauge as
    /// [`crate::counter_sample`] events, so a trace file carries the
    /// final metric state alongside its spans. No-op while tracing is
    /// disabled.
    pub fn publish(&self) {
        if !crate::sink::is_enabled() {
            return;
        }
        let snap = self.snapshot();
        for (name, v) in &snap.counters {
            crate::event::counter_sample(name.clone(), *v as f64);
        }
        for (name, v) in &snap.gauges {
            crate::event::counter_sample(name.clone(), *v);
        }
    }

    /// Drops every registered metric (handles already held keep
    /// recording into detached storage).
    pub fn clear(&self) {
        self.counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        self.gauges
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        self.histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }
}

/// The handle registered under `name`, created by `new` on first use.
/// A lookup of an existing metric allocates nothing: the key is only
/// copied into the map on a miss.
fn get_or_create<M: Clone>(map: &Mutex<BTreeMap<String, M>>, name: &str, new: fn() -> M) -> M {
    let mut map = map.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(metric) = map.get(name) {
        return metric.clone();
    }
    map.entry(name.to_owned()).or_insert_with(new).clone()
}

/// The process-global registry used by instrumented crates.
pub fn registry() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// All metric values at one instant.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

impl fmt::Display for RegistrySnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.counters.is_empty() {
            writeln!(f, "counters:")?;
            for (name, v) in &self.counters {
                writeln!(f, "  {name:<44} {v}")?;
            }
        }
        if !self.gauges.is_empty() {
            writeln!(f, "gauges:")?;
            for (name, v) in &self.gauges {
                writeln!(f, "  {name:<44} {v:.4}")?;
            }
        }
        if !self.histograms.is_empty() {
            writeln!(f, "histograms:")?;
            for (name, h) in &self.histograms {
                writeln!(
                    f,
                    "  {name:<44} n={:<7} mean={:<10} p50={:<10} p95={:<10} p99={:<10} total={}",
                    h.count,
                    fmt_ns(h.mean_ns()),
                    fmt_ns(h.p50_ns),
                    fmt_ns(h.p95_ns),
                    fmt_ns(h.p99_ns),
                    fmt_ns(h.sum_ns as f64),
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let reg = Registry::new();
        let c = reg.counter("runs");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("runs").get(), 5);
        let g = reg.gauge("temp");
        g.set(1.25);
        assert_eq!(reg.gauge("temp").get(), 1.25);
    }

    #[test]
    fn repeated_lookups_reach_the_same_metric() {
        let reg = Registry::new();
        let first = reg.counter("hits");
        reg.gauge("level");
        reg.histogram("lat");
        let count = |reg: &Registry| {
            let s = reg.snapshot();
            s.counters.len() + s.gauges.len() + s.histograms.len()
        };
        assert_eq!(count(&reg), 3);
        let second = reg.counter("hits");
        first.inc();
        assert_eq!(second.get(), 1);
        second.add(2);
        assert_eq!(first.get(), 3);
        reg.gauge("level").set(0.5);
        assert_eq!(reg.gauge("level").get(), 0.5);
        reg.histogram("lat").record_ns(10);
        assert_eq!(reg.histogram("lat").snapshot().count, 1);
        assert_eq!(
            count(&reg),
            3,
            "lookups of existing metrics must not register new ones"
        );
    }

    #[test]
    fn histogram_quantiles_are_order_of_magnitude_right() {
        let reg = Registry::new();
        let h = reg.histogram("lat");
        // 90 fast samples at ~1us, 10 slow at ~1ms.
        for _ in 0..90 {
            h.record_ns(1_000);
        }
        for _ in 0..10 {
            h.record_ns(1_000_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.min_ns, 1_000);
        assert_eq!(s.max_ns, 1_000_000);
        // p50 within factor-2 of 1us; p95/p99 within factor-2 of 1ms.
        assert!(s.p50_ns >= 500.0 && s.p50_ns <= 2_100.0, "p50={}", s.p50_ns);
        assert!(
            s.p95_ns >= 500_000.0 && s.p95_ns <= 2_100_000.0,
            "p95={}",
            s.p95_ns
        );
        assert!(s.p99_ns >= 500_000.0, "p99={}", s.p99_ns);
    }

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        let reg = Registry::new();
        let s = reg.histogram("empty").snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min_ns, 0);
        assert_eq!(s.mean_ns(), 0.0);
        assert_eq!(s.p99_ns, 0.0);
    }

    #[test]
    fn time_records_a_sample() {
        let reg = Registry::new();
        let h = reg.histogram("timed");
        let out = h.time(|| 7u32);
        assert_eq!(out, 7);
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn snapshot_renders() {
        let reg = Registry::new();
        reg.counter("a").inc();
        reg.gauge("b").set(2.0);
        reg.histogram("c").record_ns(10);
        let text = reg.snapshot().to_string();
        assert!(text.contains("counters:"));
        assert!(text.contains("histograms:"));
    }
}
