//! Failure flight recorder: bounded per-thread ring buffers of recent
//! events, dumped as a Chrome trace when something goes wrong.
//!
//! A JSONL sink records everything forever; a flight recorder records
//! the *last few thousand events per thread* all the time, cheaply,
//! and only writes them out when a degradation report, quarantine, or
//! budget exhaustion fires (or an operator asks via
//! `stune --flight-dump`). The result is a post-mortem
//! `flight_NNN_<reason>.json` loadable in `chrome://tracing` /
//! Perfetto, or summarized by `trace_summary`.
//!
//! Writer-side guarantees: each thread appends to its own ring, and a
//! write never blocks — if the ring's lock is momentarily held by a
//! dump snapshot, the event is counted as dropped instead of making
//! the instrumented thread wait. The disabled fast path of
//! [`crate::span`] is untouched: the recorder is just another
//! [`Sink`].
//!
//! ```no_run
//! let recorder = obs::flightrec::install(4096, "/tmp/flight");
//! // ... tuning work; on failure some component calls ...
//! let path = obs::flightrec::trigger_dump("quarantine");
//! # let _ = (recorder, path);
//! ```

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, TryLockError};

use crate::event::Event;
use crate::sink::{self, Sink};
use crate::trace;

static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's ring within the recorder it last wrote to,
    /// keyed by recorder id so a reinstalled recorder gets fresh
    /// registrations.
    static LOCAL_RING: RefCell<Option<(u64, Arc<ThreadRing>)>> = const { RefCell::new(None) };
}

/// One thread's bounded buffer of recent events.
struct ThreadRing {
    capacity: usize,
    buf: Mutex<VecDeque<Event>>,
    dropped: AtomicU64,
}

impl ThreadRing {
    fn new(capacity: usize) -> Arc<Self> {
        Arc::new(ThreadRing {
            capacity: capacity.max(1),
            buf: Mutex::new(VecDeque::with_capacity(capacity.clamp(1, 4096))),
            dropped: AtomicU64::new(0),
        })
    }

    /// Non-blocking append: contention (only ever from a concurrent
    /// dump snapshot) drops the event rather than stalling the
    /// instrumented thread.
    fn push(&self, event: &Event) {
        let mut guard = match self.buf.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        if guard.len() == self.capacity {
            guard.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        guard.push_back(event.clone());
    }

    fn snapshot(&self) -> Vec<Event> {
        let guard = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        guard.iter().cloned().collect()
    }
}

/// The flight recorder: a [`Sink`] keeping per-thread rings and
/// writing Chrome-trace dumps on demand.
pub struct FlightRecorder {
    id: u64,
    capacity_per_thread: usize,
    dump_dir: PathBuf,
    rings: Mutex<Vec<Arc<ThreadRing>>>,
    dump_seq: AtomicU64,
}

impl FlightRecorder {
    /// A recorder keeping `capacity_per_thread` recent events per
    /// writer thread, dumping into `dump_dir` (created on first dump).
    pub fn new(capacity_per_thread: usize, dump_dir: impl Into<PathBuf>) -> Arc<Self> {
        Arc::new(FlightRecorder {
            id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
            capacity_per_thread,
            dump_dir: dump_dir.into(),
            rings: Mutex::new(Vec::new()),
            dump_seq: AtomicU64::new(0),
        })
    }

    /// Where dumps are written.
    pub fn dump_dir(&self) -> &Path {
        &self.dump_dir
    }

    /// Events dropped across all rings (overwrites + contention).
    pub fn dropped(&self) -> u64 {
        let rings = self.rings.lock().unwrap_or_else(|e| e.into_inner());
        rings
            .iter()
            .map(|r| r.dropped.load(Ordering::Relaxed))
            .sum()
    }

    /// Dumps written so far.
    pub fn dumps(&self) -> u64 {
        self.dump_seq.load(Ordering::Relaxed)
    }

    fn ring_for_this_thread(&self) -> Arc<ThreadRing> {
        LOCAL_RING.with(|cell| {
            let mut slot = cell.borrow_mut();
            if let Some((id, ring)) = slot.as_ref() {
                if *id == self.id {
                    return Arc::clone(ring);
                }
            }
            let ring = ThreadRing::new(self.capacity_per_thread);
            self.rings
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(Arc::clone(&ring));
            *slot = Some((self.id, Arc::clone(&ring)));
            ring
        })
    }

    /// Merged snapshot of every thread's ring, in timestamp order.
    pub fn snapshot(&self) -> Vec<Event> {
        let rings: Vec<Arc<ThreadRing>> = {
            let guard = self.rings.lock().unwrap_or_else(|e| e.into_inner());
            guard.clone()
        };
        let mut events: Vec<Event> = rings.iter().flat_map(|r| r.snapshot()).collect();
        events.sort_by_key(|e| e.ts_ns);
        events
    }

    /// Writes the current snapshot as `flight_NNN_<reason>.json`
    /// (Chrome trace format) into the dump directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file I/O errors.
    pub fn dump(&self, reason: &str) -> io::Result<PathBuf> {
        let events = self.snapshot();
        std::fs::create_dir_all(&self.dump_dir)?;
        let seq = self.dump_seq.fetch_add(1, Ordering::Relaxed);
        let path = self
            .dump_dir
            .join(format!("flight_{seq:03}_{}.json", sanitize_reason(reason)));
        trace::write_chrome_trace(&path, &events)?;
        crate::metrics::registry().counter("obs.flight.dumps").inc();
        Ok(path)
    }
}

impl Sink for FlightRecorder {
    fn accept(&self, event: &Event) {
        self.ring_for_this_thread().push(event);
    }
}

/// Keeps dump reasons filename-safe.
fn sanitize_reason(reason: &str) -> String {
    let cleaned: String = reason
        .chars()
        .take(48)
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if cleaned.is_empty() {
        "manual".to_string()
    } else {
        cleaned
    }
}

fn current() -> &'static Mutex<Option<Arc<FlightRecorder>>> {
    static CURRENT: OnceLock<Mutex<Option<Arc<FlightRecorder>>>> = OnceLock::new();
    CURRENT.get_or_init(|| Mutex::new(None))
}

/// Creates a recorder, installs it as an event sink, and registers it
/// as the process's dump target for [`trigger_dump`].
pub fn install(capacity_per_thread: usize, dump_dir: impl Into<PathBuf>) -> Arc<FlightRecorder> {
    let recorder = FlightRecorder::new(capacity_per_thread, dump_dir);
    sink::install(Arc::clone(&recorder) as Arc<dyn Sink>);
    set_dump_target(Arc::clone(&recorder));
    recorder
}

/// Registers `recorder` as the process's [`trigger_dump`] target.
fn set_dump_target(recorder: Arc<FlightRecorder>) {
    *current().lock().unwrap_or_else(|e| e.into_inner()) = Some(recorder);
}

/// The process's current dump target, if a recorder is installed.
pub fn installed() -> Option<Arc<FlightRecorder>> {
    current().lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Detaches the dump target (pair with [`crate::uninstall_all`],
/// which removes it from the sink fan-out).
pub fn uninstall() {
    *current().lock().unwrap_or_else(|e| e.into_inner()) = None;
}

/// Dumps the current recorder, if any, returning the dump path.
/// Failure-path instrumentation calls this unconditionally; with no
/// recorder installed (or on I/O error) it is a silent no-op — the
/// flight recorder must never take the service down.
pub fn trigger_dump(reason: &str) -> Option<PathBuf> {
    installed().and_then(|recorder| recorder.dump(reason).ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, FieldValue};

    fn test_event(ts_ns: u64, name: &str) -> Event {
        Event {
            ts_ns,
            tid: 1,
            kind: EventKind::Instant,
            name: name.to_string(),
            span_id: 0,
            parent_id: 0,
            fields: vec![("i".to_string(), FieldValue::U64(ts_ns))],
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "obs_flightrec_{tag}_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let dir = temp_dir("ring");
        let recorder = FlightRecorder::new(3, &dir);
        for i in 0..10 {
            recorder.accept(&test_event(i, "e"));
        }
        let events = recorder.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].ts_ns, 7);
        assert_eq!(recorder.dropped(), 7);
    }

    #[test]
    fn dump_writes_parseable_chrome_trace() {
        let dir = temp_dir("dump");
        let recorder = FlightRecorder::new(64, &dir);
        recorder.accept(&test_event(5, "alpha"));
        recorder.accept(&test_event(9, "beta"));
        let path = recorder.dump("unit test!").expect("dump");
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            "flight_000_unit_test_.json"
        );
        let text = std::fs::read_to_string(&path).unwrap();
        let doc: serde::Value = serde_json::from_str(&text).expect("valid JSON");
        let Some(serde::Value::Array(items)) = doc.get("traceEvents") else {
            panic!("expected traceEvents array, got {doc:?}");
        };
        assert_eq!(items.len(), 2);
        assert_eq!(
            items[0].get("name"),
            Some(&serde::Value::Str("alpha".to_string()))
        );
        assert_eq!(recorder.dumps(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn threads_get_their_own_rings_and_merge_in_order() {
        let dir = temp_dir("threads");
        let recorder = FlightRecorder::new(16, &dir);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let recorder = &recorder;
                scope.spawn(move || {
                    for i in 0..8 {
                        recorder.accept(&test_event(t * 100 + i, "work"));
                    }
                });
            }
        });
        let events = recorder.snapshot();
        assert_eq!(events.len(), 32);
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        assert_eq!(
            recorder.rings.lock().unwrap().len(),
            4,
            "one ring per writer thread"
        );
    }

    #[test]
    fn trigger_dump_without_recorder_is_none() {
        // No install() in obs unit tests, so the process-global slot
        // is empty here.
        assert!(trigger_dump("nothing").is_none());
    }
}
