//! Golden pins for the trace codec: the committed demo traces must
//! re-convert byte for byte, and one event's JSONL line is pinned
//! exactly.

use obs::{chrome_trace, parse_chrome_trace, parse_jsonl, Event, EventKind, FieldValue};

fn committed(name: &str) -> String {
    let path = format!("{}/../../results/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn demo_traces_reconvert_byte_for_byte() {
    let jsonl = committed("demo_trace.jsonl");
    let json = committed("demo_trace.json");
    let from_jsonl = chrome_trace(&parse_jsonl(&jsonl).expect("demo JSONL parses"));
    assert!(
        from_jsonl == json,
        "JSONL → Chrome differs from demo_trace.json"
    );
    let from_chrome = chrome_trace(&parse_chrome_trace(&json).expect("demo trace parses"));
    assert!(
        from_chrome == json,
        "Chrome → Chrome differs from demo_trace.json"
    );
}

#[test]
fn event_json_line_is_pinned() {
    let e = Event {
        ts_ns: 42,
        tid: 3,
        kind: EventKind::SpanEnd,
        name: "probe \"é\"".to_string(),
        span_id: 9,
        parent_id: 4,
        fields: vec![
            ("i".to_string(), FieldValue::I64(-7)),
            ("u".to_string(), FieldValue::U64(u64::MAX)),
            ("f".to_string(), FieldValue::F64(2.5)),
            ("whole".to_string(), FieldValue::F64(3.0)),
            ("nan".to_string(), FieldValue::F64(f64::NAN)),
            ("negz".to_string(), FieldValue::F64(-0.0)),
            ("b".to_string(), FieldValue::Bool(false)),
            ("s".to_string(), FieldValue::Str("a\u{1}\tb→ü".to_string())),
        ],
    };
    assert_eq!(
        e.to_json(),
        concat!(
            r#"{"ts_ns":42,"tid":3,"kind":"span_end","name":"probe \"é\"","span":9,"parent":4,"#,
            r#""fields":{"i":-7,"u":18446744073709551615,"f":2.5,"whole":3,"nan":null,"#,
            r#""negz":0,"b":false,"s":"a\u0001\tb→ü"}}"#
        )
    );
}
