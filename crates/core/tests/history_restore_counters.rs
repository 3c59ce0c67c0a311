//! The registry series a history restore leaves behind: after any load,
//! `history.inserts`, `history.rejects`, `history.load_skipped` and the
//! `history.records` gauge read as if every line had been inserted one
//! at a time, in line order, stopping at a strict load's first failure.
//!
//! One test in its own binary, so nothing else in the process touches
//! the process-wide registry while it counts.

use confspace::Configuration;
use seamless_core::{ExecutionRecord, HistoryStore, RecordOutcome, WorkloadSignature};
use simcluster::ExecMetrics;

fn line(i: usize) -> String {
    let record = ExecutionRecord {
        client: format!("c{i}"),
        workload: "job".to_owned(),
        signature: WorkloadSignature::from_metrics(&ExecMetrics {
            runtime_s: 10.0,
            input_mb: 100.0,
            ..Default::default()
        }),
        config: Configuration::new().with("p", i as i64),
        runtime_s: 10.0 + i as f64,
        cost_usd: 0.5,
        seq: 0,
        outcome: RecordOutcome::Ok,
    };
    serde_json::to_string(&record).expect("serializes")
}

fn poisoned(i: usize) -> String {
    line(i).replacen("\"cost_usd\":0.5", "\"cost_usd\":-1.0", 1)
}

const MALFORMED: &str = "{\"client\":\"c9\",";

fn dump(lines: &[String]) -> String {
    lines.iter().map(|l| format!("{l}\n")).collect()
}

/// `(inserts, rejects, load_skipped, records)`, `None` for a series the
/// registry has never created.
fn series() -> (Option<u64>, Option<u64>, Option<u64>, Option<f64>) {
    let snap = obs::registry().snapshot();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    };
    let gauge = snap
        .gauges
        .iter()
        .find(|(k, _)| k == "history.records")
        .map(|(_, v)| *v);
    (
        counter("history.inserts"),
        counter("history.rejects"),
        counter("history.load_skipped"),
        gauge,
    )
}

#[test]
fn loads_count_like_one_insert_per_line() {
    assert_eq!(series(), (None, None, None, None));

    // Nothing to insert creates no series.
    assert!(HistoryStore::from_jsonl("\n  \n")
        .expect("loads")
        .is_empty());
    assert_eq!(HistoryStore::from_jsonl_lossy("").1, 0);
    assert_eq!(series(), (None, None, None, None));

    let store = HistoryStore::from_jsonl(&dump(&[line(0), line(1), line(2)])).expect("loads");
    assert_eq!(store.len(), 3);
    assert_eq!(series(), (Some(3), None, None, Some(3.0)));

    let (store, skipped) = HistoryStore::from_jsonl_lossy(&dump(&[
        line(0),
        poisoned(1),
        MALFORMED.to_owned(),
        line(3),
    ]));
    assert_eq!((store.len(), skipped), (2, 2));
    assert_eq!(series(), (Some(5), Some(1), Some(2), Some(2.0)));

    // A strict load stops at its first failure: the lines before it
    // count as inserted, a poisoned line as rejected.
    let lines = [line(0), line(1), poisoned(2), line(3), MALFORMED.to_owned()];
    assert!(HistoryStore::from_jsonl(&dump(&lines)).is_err());
    assert_eq!(series(), (Some(7), Some(2), Some(2), Some(2.0)));

    let lines = [line(0), MALFORMED.to_owned(), poisoned(2), line(3)];
    assert!(HistoryStore::from_jsonl(&dump(&lines)).is_err());
    assert_eq!(series(), (Some(8), Some(2), Some(2), Some(1.0)));

    assert!(HistoryStore::from_jsonl(&dump(&[MALFORMED.to_owned(), line(1)])).is_err());
    assert_eq!(series(), (Some(8), Some(2), Some(2), Some(1.0)));

    // A lossy load that keeps nothing leaves the gauge alone.
    let (store, skipped) =
        HistoryStore::from_jsonl_lossy(&dump(&[MALFORMED.to_owned(), poisoned(1), poisoned(2)]));
    assert_eq!((store.len(), skipped), (0, 3));
    assert_eq!(series(), (Some(8), Some(4), Some(5), Some(1.0)));
}
