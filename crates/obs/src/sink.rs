//! Event sinks and the global dispatcher.
//!
//! Instrumented code calls [`crate::span`] / [`crate::instant`]
//! unconditionally; the cost when no sink is installed is one relaxed
//! atomic load. Installing a sink flips the global enable flag, and
//! every event is then fanned out to all installed sinks.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::event::Event;

/// Receives every dispatched event.
pub trait Sink: Send + Sync {
    /// Called once per event, possibly from multiple threads.
    fn accept(&self, event: &Event);

    /// Flushes buffered output, if any.
    fn flush(&self) {}
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn sinks() -> &'static RwLock<Vec<Arc<dyn Sink>>> {
    static SINKS: std::sync::OnceLock<RwLock<Vec<Arc<dyn Sink>>>> = std::sync::OnceLock::new();
    SINKS.get_or_init(|| RwLock::new(Vec::new()))
}

/// Whether any sink is installed (the emit fast-path check).
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs a sink; events flow to it until [`uninstall_all`].
pub fn install(sink: Arc<dyn Sink>) {
    let mut guard = sinks().write().unwrap_or_else(|e| e.into_inner());
    guard.push(sink);
    ENABLED.store(true, Ordering::Release);
}

/// Removes every installed sink (flushing each) and disables tracing.
pub fn uninstall_all() {
    let drained: Vec<Arc<dyn Sink>> = {
        let mut guard = sinks().write().unwrap_or_else(|e| e.into_inner());
        ENABLED.store(false, Ordering::Release);
        std::mem::take(&mut *guard)
    };
    for sink in &drained {
        sink.flush();
    }
}

/// Fans an event out to all installed sinks.
pub(crate) fn dispatch(event: Event) {
    let guard = sinks().read().unwrap_or_else(|e| e.into_inner());
    for sink in guard.iter() {
        sink.accept(&event);
    }
}

/// Bounded in-memory ring buffer of recent events.
pub struct MemorySink {
    capacity: usize,
    buf: Mutex<VecDeque<Event>>,
    dropped: AtomicU64,
}

impl MemorySink {
    /// A ring buffer keeping at most `capacity` most-recent events.
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(MemorySink {
            capacity: capacity.max(1),
            buf: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        })
    }

    /// Copies out the buffered events, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        let guard = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        guard.iter().cloned().collect()
    }

    /// Removes and returns the buffered events, oldest first.
    pub fn drain(&self) -> Vec<Event> {
        let mut guard = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        guard.drain(..).collect()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl Sink for MemorySink {
    fn accept(&self, event: &Event) {
        let mut guard = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        if guard.len() == self.capacity {
            guard.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
            // Overwrites of unread events are data loss a live operator
            // should see: surface them in the metrics registry (and
            // therefore every scrape/snapshot), not just on this sink.
            crate::metrics::registry()
                .counter("obs.events.dropped")
                .inc();
        }
        guard.push_back(event.clone());
    }
}

/// Streams events as JSON Lines to a writer (typically a file), one
/// event per line — the format [`crate::trace::parse_jsonl`] and the
/// `trace_summary` tool consume.
pub struct JsonlSink<W: Write + Send> {
    writer: Mutex<W>,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) `path` and streams events into it.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Arc<Self>> {
        let file = File::create(path)?;
        Ok(Arc::new(JsonlSink {
            writer: Mutex::new(BufWriter::new(file)),
        }))
    }
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(writer: W) -> Arc<Self> {
        Arc::new(JsonlSink {
            writer: Mutex::new(writer),
        })
    }
}

impl<W: Write + Send> Sink for JsonlSink<W> {
    fn accept(&self, event: &Event) {
        let line = event.to_json();
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        // Tracing must never take the service down: I/O errors drop
        // the event rather than panic.
        let _ = writeln!(w, "{line}");
    }

    fn flush(&self) {
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let _ = w.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, FieldValue};

    fn test_event(name: &str) -> Event {
        Event {
            ts_ns: 1,
            tid: 1,
            kind: EventKind::Instant,
            name: name.to_string(),
            span_id: 0,
            parent_id: 0,
            fields: vec![("k".to_string(), FieldValue::I64(1))],
        }
    }

    #[test]
    fn memory_sink_is_a_ring() {
        let sink = MemorySink::new(2);
        sink.accept(&test_event("a"));
        sink.accept(&test_event("b"));
        sink.accept(&test_event("c"));
        let events = sink.snapshot();
        assert_eq!(
            events.iter().map(|e| e.name.as_str()).collect::<Vec<_>>(),
            vec!["b", "c"]
        );
        assert_eq!(sink.dropped(), 1);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let sink = JsonlSink::new(Vec::new());
        sink.accept(&test_event("x"));
        sink.accept(&test_event("y"));
        let bytes = {
            let w = sink.writer.lock().unwrap();
            w.clone()
        };
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let back = Event::from_json(lines[0]).unwrap();
        assert_eq!(back.name, "x");
    }
}
