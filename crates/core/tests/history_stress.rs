//! Concurrency stress tests for the [`HistoryStore`] log: many tenants
//! inserting and querying at once must never lose a record, duplicate
//! or skip a sequence number, or deadlock — the store is the one piece
//! of shared state behind `tune_many`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use confspace::Configuration;
use seamless_core::{ExecutionRecord, HistoryStore, RecordOutcome, WorkloadSignature};
use simcluster::{ExecMetrics, StageMetrics};

const WRITERS: usize = 8;
const PER_WRITER: usize = 50;

fn sig(cpu: f64) -> WorkloadSignature {
    WorkloadSignature::from_metrics(&ExecMetrics {
        runtime_s: 100.0,
        stages: vec![StageMetrics {
            name: "s".into(),
            cpu_s: cpu,
            io_s: 100.0 - cpu,
            ..Default::default()
        }],
        input_mb: 1000.0,
        shuffle_mb: 100.0,
        ..Default::default()
    })
}

fn record(client: &str, i: usize) -> ExecutionRecord {
    ExecutionRecord {
        client: client.to_owned(),
        workload: "job".to_owned(),
        signature: sig((i % 100) as f64),
        config: Configuration::new().with("p", i as i64),
        runtime_s: 10.0 + i as f64,
        cost_usd: 0.25,
        seq: 0,
        outcome: RecordOutcome::Ok,
    }
}

/// Writers and similarity readers all hammer one store; afterwards
/// every record must be present exactly once with a unique sequence
/// number.
#[test]
fn concurrent_inserts_and_queries_keep_every_record_once() {
    let store = Arc::new(HistoryStore::new());
    let total = WRITERS * PER_WRITER;

    let mut handles = Vec::new();
    for w in 0..WRITERS {
        let store = Arc::clone(&store);
        handles.push(thread::spawn(move || {
            let client = format!("tenant-{w}");
            for i in 0..PER_WRITER {
                store.insert(record(&client, i));
                // Interleave reads with writes: queries must not block
                // or observe torn state.
                if i % 7 == 0 {
                    let near = store.most_similar(&sig(50.0), 3, Some(&client));
                    for r in &near {
                        assert_ne!(r.client, client, "exclusion filter violated");
                    }
                }
                if i % 11 == 0 {
                    let mine = store.for_workload(&client, "job");
                    assert!(mine.len() <= PER_WRITER);
                    assert!(mine.windows(2).all(|p| p[0].seq < p[1].seq));
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("writer panicked");
    }

    assert_eq!(store.len(), total);

    // Every sequence number 0..total exactly once, snapshot ordered.
    let snapshot = store.snapshot();
    assert_eq!(snapshot.len(), total);
    let seqs: Vec<u64> = snapshot.iter().map(|r| r.seq).collect();
    assert_eq!(seqs, (0..total as u64).collect::<Vec<_>>());
}

/// A snapshot taken while writers insert is a history that existed: a
/// gap-free prefix with `snapshot[i].seq == i`, never a set of records
/// with holes where a concurrent insert had its number but not its slot.
/// The writers keep inserting until the reader has seen the store grow
/// `SNAPSHOTS` times, so the counted snapshots overlap live inserts.
#[test]
fn snapshots_during_inserts_are_gap_free_prefixes() {
    const SNAPSHOTS: usize = 20;
    const MAX_PER_WRITER: usize = 40 * PER_WRITER;
    let store = Arc::new(HistoryStore::new());
    let start = Arc::new(Barrier::new(WRITERS + 1));
    let enough = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let (store, start, enough) =
                (Arc::clone(&store), Arc::clone(&start), Arc::clone(&enough));
            thread::spawn(move || {
                start.wait();
                for i in 0..MAX_PER_WRITER {
                    if enough.load(Ordering::Relaxed) {
                        break;
                    }
                    // A fresh client per insert, so a store partitioned
                    // by client could not hide a hole behind one
                    // writer's own ordering.
                    store.insert(record(&format!("w{w}-{i}"), i));
                }
            })
        })
        .collect();
    start.wait();
    let (mut taken, mut seen) = (0, 0);
    while taken < SNAPSHOTS && seen < WRITERS * MAX_PER_WRITER {
        let snap = store.snapshot();
        for (i, r) in snap.iter().enumerate() {
            assert_eq!(r.seq, i as u64, "hole in a {}-record snapshot", snap.len());
        }
        // Only a snapshot that saw new records counts: one taken while
        // every writer was descheduled proves nothing.
        if snap.len() > seen {
            (taken, seen) = (taken + 1, snap.len());
        }
    }
    enough.store(true, Ordering::Relaxed);
    for h in writers {
        h.join().expect("writer panicked");
    }
}

/// The JSONL round-trip must survive a store populated concurrently:
/// the dump replays the same records in the same sequence order.
#[test]
fn jsonl_roundtrip_after_concurrent_population() {
    let store = Arc::new(HistoryStore::new());
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let store = Arc::clone(&store);
            thread::spawn(move || {
                for i in 0..PER_WRITER {
                    store.insert(record(&format!("c{w}"), i));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("writer panicked");
    }

    let dump = store.to_jsonl().expect("serializes");
    assert_eq!(dump.lines().count(), WRITERS * PER_WRITER);
    let restored = HistoryStore::from_jsonl(&dump).expect("parses");
    assert_eq!(restored.len(), store.len());
    // Same records in the same global order.
    let a = store.snapshot();
    let b = restored.snapshot();
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.seq, y.seq);
        assert_eq!(x.client, y.client);
        assert_eq!(x.runtime_s.to_bits(), y.runtime_s.to_bits());
    }
}
