//! Structured events and spans.
//!
//! Every emission is an [`Event`]: span begin/end pairs carrying a
//! span id and parent id (so consumers can rebuild the nesting tree),
//! instants, and counter samples. Timestamps are monotonic nanoseconds
//! since the first observation in the process; thread ids are small
//! sequential integers assigned on first use per thread, so exported
//! traces stay readable.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use serde::Value;

use crate::sink;

/// A typed field value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Signed integer.
    I64(i64),
    /// Unsigned integer.
    U64(u64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl FieldValue {
    /// Numeric view of the value, if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            FieldValue::I64(v) => Some(*v as f64),
            FieldValue::U64(v) => Some(*v as f64),
            FieldValue::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// Non-negative integer view of the value (note that JSONL parsing
    /// round-trips unsigned fields like `dur_ns` as [`FieldValue::I64`]).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            FieldValue::I64(v) if *v >= 0 => Some(*v as u64),
            FieldValue::U64(v) => Some(*v),
            FieldValue::F64(v) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    /// String view of the value, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            FieldValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view of the value, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            FieldValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<i32> for FieldValue {
    fn from(v: i32) -> Self {
        FieldValue::I64(i64::from(v))
    }
}
impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// What an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (`span_id` identifies it; `parent_id` its parent).
    SpanStart,
    /// The matching span closed; carries a `dur_ns` field.
    SpanEnd,
    /// A point-in-time marker.
    Instant,
    /// A numeric sample for a named counter series.
    Counter,
}

impl EventKind {
    fn as_str(self) -> &'static str {
        match self {
            EventKind::SpanStart => "span_start",
            EventKind::SpanEnd => "span_end",
            EventKind::Instant => "instant",
            EventKind::Counter => "counter",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "span_start" => Some(EventKind::SpanStart),
            "span_end" => Some(EventKind::SpanEnd),
            "instant" => Some(EventKind::Instant),
            "counter" => Some(EventKind::Counter),
            _ => None,
        }
    }
}

/// One structured observation.
#[derive(Debug, Clone)]
pub struct Event {
    /// Monotonic nanoseconds since process trace epoch.
    pub ts_ns: u64,
    /// Sequential thread id (first thread to emit is 1).
    pub tid: u64,
    /// Event kind.
    pub kind: EventKind,
    /// Span or marker name.
    pub name: String,
    /// Span id for start/end events, 0 otherwise.
    pub span_id: u64,
    /// Enclosing span id, 0 at top level.
    pub parent_id: u64,
    /// Attached key-value fields.
    pub fields: Vec<(String, FieldValue)>,
}

impl Event {
    /// Field lookup by key.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Serializes to a single JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"ts_ns\":");
        let _ = write!(out, "{}", self.ts_ns);
        out.push_str(",\"tid\":");
        let _ = write!(out, "{}", self.tid);
        out.push_str(",\"kind\":\"");
        out.push_str(self.kind.as_str());
        out.push_str("\",\"name\":");
        write_escaped(&mut out, &self.name);
        if self.span_id != 0 {
            let _ = write!(out, ",\"span\":{}", self.span_id);
        }
        if self.parent_id != 0 {
            let _ = write!(out, ",\"parent\":{}", self.parent_id);
        }
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":");
            write_fields(&mut out, &self.fields);
        }
        out.push('}');
        out
    }

    /// Parses one JSONL line produced by [`Event::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed line.
    pub fn from_json(line: &str) -> Result<Event, String> {
        let v: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        let kind_str = str_member(&v, "kind").ok_or_else(|| "missing kind".to_string())?;
        let kind =
            EventKind::parse(kind_str).ok_or_else(|| format!("unknown kind {kind_str:?}"))?;
        Ok(Event {
            ts_ns: u64_member(&v, "ts_ns").ok_or_else(|| "missing ts_ns".to_string())?,
            tid: u64_member(&v, "tid").unwrap_or(0),
            kind,
            name: str_member(&v, "name")
                .ok_or_else(|| "missing name".to_string())?
                .to_string(),
            span_id: u64_member(&v, "span").unwrap_or(0),
            parent_id: u64_member(&v, "parent").unwrap_or(0),
            fields: read_fields(v.get("fields"))?,
        })
    }
}

/// Appends `s` to `out` as a JSON string literal.
pub(crate) fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` to `out` in JSON number syntax (non-finite → `null`).
pub(crate) fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 1e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Appends `fields` to `out` as a JSON object: the JSONL `"fields"`
/// member and the Chrome trace `"args"` member.
pub(crate) fn write_fields(out: &mut String, fields: &[(String, FieldValue)]) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(out, k);
        out.push(':');
        match v {
            FieldValue::I64(n) => {
                let _ = write!(out, "{n}");
            }
            FieldValue::U64(n) => {
                let _ = write!(out, "{n}");
            }
            FieldValue::F64(n) => write_f64(out, *n),
            FieldValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            FieldValue::Str(s) => write_escaped(out, s),
        }
    }
    out.push('}');
}

/// Reads a [`write_fields`] object back, sorted by key (a repeated key
/// keeps its last value). Anything but an object reads as no fields.
/// An integral float below 9e15 is exact in `f64` and reads back as
/// [`FieldValue::I64`], since the writer prints it without a fraction.
pub(crate) fn read_fields(v: Option<&Value>) -> Result<Vec<(String, FieldValue)>, String> {
    let Some(Value::Object(pairs)) = v else {
        return Ok(Vec::new());
    };
    let mut fields = BTreeMap::new();
    for (k, v) in pairs {
        let fv = match v {
            Value::Bool(b) => FieldValue::Bool(*b),
            Value::I64(n) => FieldValue::I64(*n),
            Value::U64(n) => FieldValue::U64(*n),
            Value::F64(n) if n.fract() == 0.0 && n.abs() < 9e15 => FieldValue::I64(*n as i64),
            Value::F64(n) => FieldValue::F64(*n),
            Value::Str(s) => FieldValue::Str(s.clone()),
            Value::Null => FieldValue::F64(f64::NAN),
            other => return Err(format!("unsupported field value {other:?}")),
        };
        fields.insert(k.clone(), fv);
    }
    Ok(fields.into_iter().collect())
}

/// Object member `key` as a string.
pub(crate) fn str_member<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match v.get(key) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

/// Object member `key` as a non-negative integer.
pub(crate) fn u64_member(v: &Value, key: &str) -> Option<u64> {
    v.get(key).and_then(Value::as_u64)
}

fn trace_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the process trace epoch.
pub fn now_ns() -> u64 {
    trace_epoch().elapsed().as_nanos() as u64
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// This thread's sequential trace id.
pub fn current_tid() -> u64 {
    TID.with(|t| *t)
}

/// The innermost open span's id on this thread (0 at top level).
pub fn current_span_id() -> u64 {
    SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// RAII guard for an open span. Emits `SpanEnd` (with a `dur_ns`
/// field) on drop. When tracing is disabled this is inert: creating
/// and dropping it touches a single relaxed atomic load.
#[must_use = "a span closes when its guard drops; binding to _ closes it immediately"]
pub struct SpanGuard {
    id: u64,
    start_ns: u64,
    fields: Vec<(String, FieldValue)>,
    name: &'static str,
}

impl SpanGuard {
    /// Whether this guard refers to a live (recorded) span.
    pub fn is_recording(&self) -> bool {
        self.id != 0
    }

    /// Attaches a field, reported on the span's end event.
    pub fn with(mut self, key: &str, value: impl Into<FieldValue>) -> Self {
        if self.id != 0 {
            self.fields.push((key.to_string(), value.into()));
        }
        self
    }

    /// Attaches a field in place (for fields known only mid-span).
    pub fn record(&mut self, key: &str, value: impl Into<FieldValue>) {
        if self.id != 0 {
            self.fields.push((key.to_string(), value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = now_ns();
        let parent = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Pop through any spans leaked by sibling guards dropped
            // out of order; normally this pops exactly our own id.
            while let Some(top) = stack.pop() {
                if top == self.id {
                    break;
                }
            }
            stack.last().copied().unwrap_or(0)
        });
        let mut fields = std::mem::take(&mut self.fields);
        fields.push((
            "dur_ns".to_string(),
            FieldValue::U64(end_ns - self.start_ns),
        ));
        sink::dispatch(Event {
            ts_ns: end_ns,
            tid: current_tid(),
            kind: EventKind::SpanEnd,
            name: self.name.to_string(),
            span_id: self.id,
            parent_id: parent,
            fields,
        });
    }
}

/// Opens a named span nested under the current thread's innermost
/// open span. Returns an inert guard when tracing is disabled.
pub fn span(name: &'static str) -> SpanGuard {
    if !sink::is_enabled() {
        return SpanGuard {
            id: 0,
            start_ns: 0,
            fields: Vec::new(),
            name,
        };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let start_ns = now_ns();
    let parent = SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let parent = stack.last().copied().unwrap_or(0);
        stack.push(id);
        parent
    });
    sink::dispatch(Event {
        ts_ns: start_ns,
        tid: current_tid(),
        kind: EventKind::SpanStart,
        name: name.to_string(),
        span_id: id,
        parent_id: parent,
        fields: Vec::new(),
    });
    SpanGuard {
        id,
        start_ns,
        fields: Vec::new(),
        name,
    }
}

/// Emits a point-in-time marker with fields, attached to the current
/// span. No-op when tracing is disabled.
pub fn instant(name: impl Into<String>, fields: Vec<(String, FieldValue)>) {
    if !sink::is_enabled() {
        return;
    }
    sink::dispatch(Event {
        ts_ns: now_ns(),
        tid: current_tid(),
        kind: EventKind::Instant,
        name: name.into(),
        span_id: 0,
        parent_id: current_span_id(),
        fields,
    });
}

/// Emits a counter sample (`value` under key `"value"`). No-op when
/// tracing is disabled.
pub fn counter_sample(name: impl Into<String>, value: f64) {
    if !sink::is_enabled() {
        return;
    }
    sink::dispatch(Event {
        ts_ns: now_ns(),
        tid: current_tid(),
        kind: EventKind::Counter,
        name: name.into(),
        span_id: 0,
        parent_id: current_span_id(),
        fields: vec![("value".to_string(), FieldValue::F64(value))],
    });
}

/// Convenience for building a field list:
/// `fields![("k", 1i64), ("s", "text")]` — see [`instant`].
#[macro_export]
macro_rules! fields {
    ($(($k:expr, $v:expr)),* $(,)?) => {
        vec![$(($k.to_string(), $crate::event::FieldValue::from($v))),*]
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_json_round_trip() {
        let e = Event {
            ts_ns: 12345,
            tid: 2,
            kind: EventKind::SpanEnd,
            name: "stage-1 \"cloud\"".to_string(),
            span_id: 7,
            parent_id: 3,
            fields: vec![
                ("dur_ns".to_string(), FieldValue::U64(999)),
                ("runtime_s".to_string(), FieldValue::F64(1.5)),
                ("ok".to_string(), FieldValue::Bool(true)),
                ("label".to_string(), FieldValue::Str("a\nb".to_string())),
            ],
        };
        let line = e.to_json();
        let back = Event::from_json(&line).unwrap();
        assert_eq!(back.ts_ns, 12345);
        assert_eq!(back.tid, 2);
        assert_eq!(back.kind, EventKind::SpanEnd);
        assert_eq!(back.name, e.name);
        assert_eq!(back.span_id, 7);
        assert_eq!(back.parent_id, 3);
        assert_eq!(back.field("dur_ns"), Some(&FieldValue::I64(999)));
        assert_eq!(back.field("runtime_s"), Some(&FieldValue::F64(1.5)));
        assert_eq!(back.field("ok"), Some(&FieldValue::Bool(true)));
        assert_eq!(
            back.field("label"),
            Some(&FieldValue::Str("a\nb".to_string()))
        );
    }

    #[test]
    fn wide_integers_replay_exactly() {
        let e = Event::from_json(concat!(
            r#"{"ts_ns":1,"kind":"instant","name":"n","fields":"#,
            r#"{"max":18446744073709551615,"neg":-9007199254740993,"whole":2.0,"big":1e16}}"#
        ))
        .unwrap();
        assert_eq!(e.field("max"), Some(&FieldValue::U64(u64::MAX)));
        assert_eq!(
            e.field("neg"),
            Some(&FieldValue::I64(-9_007_199_254_740_993))
        );
        assert_eq!(e.field("whole"), Some(&FieldValue::I64(2)));
        assert_eq!(e.field("big"), Some(&FieldValue::F64(1e16)));
        // An out-of-range timestamp is an error, not a clipped value.
        assert!(Event::from_json(r#"{"ts_ns":1e48,"kind":"instant","name":"n"}"#).is_err());
    }

    #[test]
    fn surrogate_pair_escapes_decode() {
        let e = Event::from_json(
            r#"{"ts_ns":1,"kind":"instant","name":"\ud83d\ude00","fields":{"s":"a\ud83d\ude00"}}"#,
        )
        .unwrap();
        assert_eq!(e.name, "\u{1F600}");
        assert_eq!(
            e.field("s"),
            Some(&FieldValue::Str("a\u{1F600}".to_string()))
        );
    }

    #[test]
    fn disabled_span_is_inert() {
        // No sink installed in this test process path → disabled.
        let g = span("noop");
        assert!(!g.is_recording() || crate::sink::is_enabled());
    }

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
