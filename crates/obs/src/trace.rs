//! Trace export: JSON Lines persistence and a Chrome trace-event
//! (`chrome://tracing` / Perfetto) converter.

use std::io::{self, Write};
use std::path::Path;

use serde::Value;

use crate::event::{
    read_fields, str_member, u64_member, write_escaped, write_f64, write_fields, Event, EventKind,
};

/// Reads events from JSONL text (one event per line; blank lines
/// skipped).
///
/// # Errors
///
/// Returns the first malformed line's error with its line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let e = Event::from_json(line).map_err(|err| format!("line {}: {err}", i + 1))?;
        events.push(e);
    }
    Ok(events)
}

/// Reads events from a JSONL file.
///
/// # Errors
///
/// Propagates I/O errors; a malformed line becomes `InvalidData`.
pub fn read_jsonl_file(path: impl AsRef<Path>) -> io::Result<Vec<Event>> {
    let text = std::fs::read_to_string(path)?;
    parse_jsonl(&text).map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err))
}

/// Converts events to a Chrome trace-event JSON document (the
/// `{"traceEvents": [...]}` object form), loadable in
/// `chrome://tracing` or Perfetto.
///
/// Span start/end become `B`/`E` duration events, instants become `i`,
/// and counter samples become `C` series.
pub fn chrome_trace(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ph = match e.kind {
            EventKind::SpanStart => "B",
            EventKind::SpanEnd => "E",
            EventKind::Instant => "i",
            EventKind::Counter => "C",
        };
        out.push_str("{\"name\":");
        write_escaped(&mut out, &e.name);
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!(
                ",\"ph\":\"{ph}\",\"pid\":1,\"tid\":{},\"ts\":",
                e.tid.max(1)
            ),
        );
        write_f64(&mut out, e.ts_ns as f64 / 1e3);
        if e.kind == EventKind::Instant {
            out.push_str(",\"s\":\"t\"");
        }
        if !e.fields.is_empty() {
            out.push_str(",\"args\":");
            write_fields(&mut out, &e.fields);
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Writes [`chrome_trace`] output to `path`.
///
/// # Errors
///
/// Propagates file I/O errors.
pub fn write_chrome_trace(path: impl AsRef<Path>, events: &[Event]) -> io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(chrome_trace(events).as_bytes())?;
    file.flush()
}

/// Parses a Chrome trace-event document (as written by
/// [`chrome_trace`] / the flight recorder) back into [`Event`]s, so
/// `trace_summary` can analyze flight-recorder dumps.
///
/// The Chrome format drops span ids, so nesting is reconstructed from
/// the `B`/`E` bracketing per thread with fresh synthetic ids; an `E`
/// without a matching `B` (the ring may have evicted the start) gets a
/// synthetic id with no start partner. Timestamps convert back from
/// microseconds to nanoseconds.
///
/// # Errors
///
/// Returns a message describing the first malformed entry.
pub fn parse_chrome_trace(text: &str) -> Result<Vec<Event>, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let Some(Value::Array(items)) = doc.get("traceEvents") else {
        return Err("missing traceEvents array".to_string());
    };

    let mut next_id: u64 = 1;
    // Per-tid stack of open synthetic span ids.
    let mut stacks: std::collections::BTreeMap<u64, Vec<u64>> = std::collections::BTreeMap::new();
    let mut events = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let ph = str_member(item, "ph").ok_or_else(|| format!("entry {i}: missing ph"))?;
        let kind = match ph {
            "B" => EventKind::SpanStart,
            "E" => EventKind::SpanEnd,
            "i" | "I" => EventKind::Instant,
            "C" => EventKind::Counter,
            // Metadata/flow/other phases aren't events we model.
            _ => continue,
        };
        let name = str_member(item, "name")
            .ok_or_else(|| format!("entry {i}: missing name"))?
            .to_string();
        let ts_us = item
            .get("ts")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("entry {i}: missing ts"))?;
        let tid = u64_member(item, "tid").unwrap_or(1);
        let fields = read_fields(item.get("args")).map_err(|err| format!("entry {i}: {err}"))?;
        let stack = stacks.entry(tid).or_default();
        let (span_id, parent_id) = match kind {
            EventKind::SpanStart => {
                let parent = stack.last().copied().unwrap_or(0);
                let id = next_id;
                next_id += 1;
                stack.push(id);
                (id, parent)
            }
            EventKind::SpanEnd => {
                let id = stack.pop().unwrap_or_else(|| {
                    let id = next_id;
                    next_id += 1;
                    id
                });
                (id, stack.last().copied().unwrap_or(0))
            }
            EventKind::Instant | EventKind::Counter => (0, stack.last().copied().unwrap_or(0)),
        };
        events.push(Event {
            ts_ns: (ts_us * 1e3).round().max(0.0) as u64,
            tid,
            kind,
            name,
            span_id,
            parent_id,
            fields,
        });
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FieldValue;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                ts_ns: 1_000,
                tid: 1,
                kind: EventKind::SpanStart,
                name: "outer".to_string(),
                span_id: 1,
                parent_id: 0,
                fields: vec![],
            },
            Event {
                ts_ns: 2_000,
                tid: 1,
                kind: EventKind::Instant,
                name: "tick".to_string(),
                span_id: 0,
                parent_id: 1,
                fields: vec![("i".to_string(), FieldValue::I64(3))],
            },
            Event {
                ts_ns: 9_000,
                tid: 1,
                kind: EventKind::SpanEnd,
                name: "outer".to_string(),
                span_id: 1,
                parent_id: 0,
                fields: vec![("dur_ns".to_string(), FieldValue::U64(8_000))],
            },
        ]
    }

    #[test]
    fn jsonl_round_trips_through_text() {
        let events = sample_events();
        let text: String = events.iter().map(|e| e.to_json() + "\n").collect();
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[0].name, "outer");
        assert_eq!(back[2].field("dur_ns"), Some(&FieldValue::I64(8_000)));
    }

    #[test]
    fn chrome_trace_round_trips_through_parse() {
        let events = sample_events();
        let back = parse_chrome_trace(&chrome_trace(&events)).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[0].kind, EventKind::SpanStart);
        assert_eq!(back[0].name, "outer");
        assert_eq!(back[0].ts_ns, 1_000);
        // Synthetic ids still pair the start with its end and parent
        // the instant under the open span.
        assert_eq!(back[2].kind, EventKind::SpanEnd);
        assert_eq!(back[2].span_id, back[0].span_id);
        assert_eq!(back[1].parent_id, back[0].span_id);
        assert_eq!(back[2].field("dur_ns"), Some(&FieldValue::I64(8_000)));
    }

    #[test]
    fn chrome_wide_integers_replay_exactly() {
        let doc = concat!(
            r#"{"traceEvents":[{"name":"n","ph":"i","tid":1,"ts":1,"args":"#,
            r#"{"max":18446744073709551615,"neg":-9007199254740993,"whole":2.0,"big":1e16}}]}"#
        );
        let back = parse_chrome_trace(doc).unwrap();
        assert_eq!(back[0].field("max"), Some(&FieldValue::U64(u64::MAX)));
        assert_eq!(
            back[0].field("neg"),
            Some(&FieldValue::I64(-9_007_199_254_740_993))
        );
        assert_eq!(back[0].field("whole"), Some(&FieldValue::I64(2)));
        assert_eq!(back[0].field("big"), Some(&FieldValue::F64(1e16)));
    }

    #[test]
    fn chrome_surrogate_pair_escapes_decode() {
        let doc = concat!(
            r#"{"traceEvents":[{"name":"\ud83d\ude00","ph":"i","tid":1,"ts":1,"#,
            r#""args":{"s":"a\ud83d\ude00"}}]}"#
        );
        let back = parse_chrome_trace(doc).unwrap();
        assert_eq!(back[0].name, "\u{1F600}");
        assert_eq!(
            back[0].field("s"),
            Some(&FieldValue::Str("a\u{1F600}".to_string()))
        );
    }

    #[test]
    fn parse_chrome_trace_tolerates_unmatched_end() {
        // A ring-evicted start: E arrives with an empty stack.
        let doc = r#"{"traceEvents":[
            {"name":"orphan","ph":"E","pid":1,"tid":4,"ts":2.0},
            {"name":"next","ph":"B","pid":1,"tid":4,"ts":3.0},
            {"name":"next","ph":"E","pid":1,"tid":4,"ts":4.0}
        ]}"#;
        let back = parse_chrome_trace(doc).unwrap();
        assert_eq!(back.len(), 3);
        assert_ne!(back[0].span_id, 0);
        assert_eq!(back[1].span_id, back[2].span_id);
        assert_ne!(back[0].span_id, back[1].span_id);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_phases() {
        let doc = chrome_trace(&sample_events());
        let v: Value = serde_json::from_str(&doc).unwrap();
        let Some(Value::Array(items)) = v.get("traceEvents") else {
            panic!("expected traceEvents array, got {v:?}");
        };
        assert_eq!(items.len(), 3);
        let phases: Vec<_> = items
            .iter()
            .map(|e| str_member(e, "ph").unwrap().to_string())
            .collect();
        assert_eq!(phases, vec!["B", "i", "E"]);
        // ts is microseconds.
        assert_eq!(items[0].get("ts").unwrap().as_f64(), Some(1.0));
    }
}
