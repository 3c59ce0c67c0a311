//! The provider-side multi-tenant execution-history store.
//!
//! §IV-C: "The cloud is a centralized place that is able to keep a
//! record of the different workloads' execution history under different
//! cloud and DISC system configurations, across users. This data can
//! only be leveraged by the cloud provider." This module is that
//! record: a concurrent, append-only store of execution records with
//! signature-based similarity queries.
//!
//! Concurrency layout: records are sharded by tenant hash across
//! [`SHARD_COUNT`] independently locked vectors, so concurrent tenants
//! insert without contending on one global lock. A global atomic hands
//! out sequence numbers; [`HistoryStore::snapshot`] merges the shards
//! back into that global order for persistence and tests.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

use confspace::Configuration;

use crate::characterize::WorkloadSignature;

/// Number of tenant-hash shards in the store.
pub const SHARD_COUNT: usize = 16;

/// How the execution behind a record ended. Non-`Ok` records exist for
/// bookkeeping (degradation audits, quarantine forensics) but are
/// excluded from similarity queries and transfer — a censored penalty
/// runtime must never masquerade as a measured one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub enum RecordOutcome {
    /// The run completed and its runtime is a measurement.
    #[default]
    Ok,
    /// The trial was aborted by the execution harness after retries.
    Failed,
    /// The trial exceeded its deadline and was killed.
    TimedOut,
}

// Manual impl (the offline serde shim has no `#[serde(default)]`):
// records persisted before outcomes existed carry no `outcome` key,
// which the derive surfaces as `Null` — treat that as `Ok`.
impl serde::Deserialize for RecordOutcome {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v {
            serde::Value::Null => Ok(RecordOutcome::Ok),
            serde::Value::Str(s) => match s.as_str() {
                "Ok" => Ok(RecordOutcome::Ok),
                "Failed" => Ok(RecordOutcome::Failed),
                "TimedOut" => Ok(RecordOutcome::TimedOut),
                other => Err(serde::DeError::new(format!(
                    "unknown variant `{other}` for RecordOutcome"
                ))),
            },
            other => Err(serde::DeError::new(format!(
                "expected RecordOutcome variant, found {}",
                other.kind()
            ))),
        }
    }
}

/// One execution record as the provider sees it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionRecord {
    /// Opaque tenant identifier.
    pub client: String,
    /// Opaque workload label (the provider does not know the "name" of
    /// a tenant's job; this stands in for a stable job identity such as
    /// a jar hash — used only for bookkeeping, never for similarity).
    pub workload: String,
    /// Characterization signature of the run.
    pub signature: WorkloadSignature,
    /// The configuration used (cloud and/or DISC parameters).
    pub config: Configuration,
    /// Observed runtime (s).
    pub runtime_s: f64,
    /// Dollar cost of the run.
    pub cost_usd: f64,
    /// Monotonic record sequence number (assigned by the store).
    pub seq: u64,
    /// How the execution ended (pre-outcome records load as `Ok`).
    pub outcome: RecordOutcome,
}

impl ExecutionRecord {
    /// Rejects poisoned numeric fields (NaN, infinite or negative
    /// runtime/cost) so corrupt telemetry never enters the store.
    pub fn validate(&self) -> Result<(), String> {
        if !self.runtime_s.is_finite() || self.runtime_s < 0.0 {
            return Err(format!(
                "rejecting record: poisoned runtime {}",
                self.runtime_s
            ));
        }
        if !self.cost_usd.is_finite() || self.cost_usd < 0.0 {
            return Err(format!("rejecting record: poisoned cost {}", self.cost_usd));
        }
        Ok(())
    }
}

/// A concurrent multi-tenant history store.
#[derive(Debug)]
pub struct HistoryStore {
    shards: [RwLock<Vec<ExecutionRecord>>; SHARD_COUNT],
    next_seq: AtomicU64,
}

impl Default for HistoryStore {
    fn default() -> Self {
        HistoryStore {
            shards: std::array::from_fn(|_| RwLock::new(Vec::new())),
            next_seq: AtomicU64::new(0),
        }
    }
}

/// FNV-1a over the tenant id — stable across runs so a tenant's records
/// always land in the same shard.
fn shard_of(client: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in client.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    (h as usize) % SHARD_COUNT
}

impl HistoryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record, assigning its sequence number.
    ///
    /// # Panics
    ///
    /// Panics if the record fails [`ExecutionRecord::validate`] —
    /// callers ingesting untrusted telemetry must use
    /// [`HistoryStore::try_insert`] instead.
    pub fn insert(&self, record: ExecutionRecord) -> u64 {
        self.try_insert(record)
            .expect("caller must validate records before insert")
    }

    /// Appends a record after validating it, assigning its sequence
    /// number. Poisoned records (NaN/negative runtime or cost) are
    /// rejected with a reason and counted under `history.rejects`.
    ///
    /// # Errors
    ///
    /// Returns the validation failure without mutating the store.
    pub fn try_insert(&self, mut record: ExecutionRecord) -> Result<u64, String> {
        let reg = obs::registry();
        if let Err(why) = record.validate() {
            reg.counter("history.rejects").inc();
            return Err(why);
        }
        reg.counter("history.inserts").inc();
        Ok(reg.histogram("history.insert_s").time(|| {
            let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
            record.seq = seq;
            self.shards[shard_of(&record.client)].write().push(record);
            reg.gauge("history.records").set((seq + 1) as f64);
            seq
        }))
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.next_seq.load(Ordering::Relaxed) as usize
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All records, cloned and ordered by sequence number. This is the
    /// cold path (persistence, offline analysis); the tuning hot path
    /// reads through [`HistoryStore::most_similar`].
    pub fn snapshot(&self) -> Vec<ExecutionRecord> {
        let mut all: Vec<ExecutionRecord> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            all.extend(shard.read().iter().cloned());
        }
        all.sort_by_key(|r| r.seq);
        all
    }

    /// The `k` records most similar to `query` (by signature distance),
    /// optionally excluding one tenant (so a client's own runs don't
    /// masquerade as transfer).
    ///
    /// Two-pass: score every record under short per-shard read locks,
    /// then clone only the winning `k` (ties broken by sequence number,
    /// matching the old insertion-order stable sort).
    pub fn most_similar(
        &self,
        query: &WorkloadSignature,
        k: usize,
        exclude_client: Option<&str>,
    ) -> Vec<ExecutionRecord> {
        let reg = obs::registry();
        reg.counter("history.queries").inc();
        reg.histogram("history.query_s").time(|| {
            // Pass 1: score (distance, seq, shard, position) without
            // cloning any record.
            let mut scored: Vec<(f64, u64, usize, usize)> = Vec::new();
            for (si, shard) in self.shards.iter().enumerate() {
                let records = shard.read();
                for (pi, r) in records.iter().enumerate() {
                    if exclude_client.is_some_and(|c| r.client == c) {
                        continue;
                    }
                    // Censored runs never transfer: their penalty
                    // runtime is an artifact, not a measurement.
                    if r.outcome != RecordOutcome::Ok {
                        continue;
                    }
                    scored.push((query.distance(&r.signature), r.seq, si, pi));
                }
            }
            scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            scored.truncate(k);
            // Pass 2: clone the winners. Shards are append-only, so the
            // (shard, position) coordinates remain valid.
            scored
                .into_iter()
                .map(|(_, _, si, pi)| self.shards[si].read()[pi].clone())
                .collect()
        })
    }

    /// Best known runtime among similar records — the reference point
    /// for "within X% of the runtime of similar workloads ever run in
    /// the cloud" (§IV-D).
    pub fn best_similar_runtime(&self, query: &WorkloadSignature, k: usize) -> Option<f64> {
        self.most_similar(query, k, None)
            .into_iter()
            .map(|r| r.runtime_s)
            .min_by(f64::total_cmp)
    }

    /// All records for one tenant's workload label, in sequence order.
    /// Touches only the tenant's shard.
    pub fn for_workload(&self, client: &str, workload: &str) -> Vec<ExecutionRecord> {
        let mut out: Vec<ExecutionRecord> = self.shards[shard_of(client)]
            .read()
            .iter()
            .filter(|r| r.client == client && r.workload == workload)
            .cloned()
            .collect();
        out.sort_by_key(|r| r.seq);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcluster::{ExecMetrics, StageMetrics};

    fn sig(cpu: f64, io: f64) -> WorkloadSignature {
        let m = ExecMetrics {
            runtime_s: 100.0,
            stages: vec![StageMetrics {
                name: "s".into(),
                cpu_s: cpu,
                io_s: io,
                ..Default::default()
            }],
            input_mb: 1000.0,
            shuffle_mb: 100.0,
            ..Default::default()
        };
        WorkloadSignature::from_metrics(&m)
    }

    fn record(client: &str, cpu: f64, runtime: f64) -> ExecutionRecord {
        ExecutionRecord {
            client: client.to_owned(),
            workload: "job".to_owned(),
            signature: sig(cpu, 100.0 - cpu),
            config: Configuration::new().with("p", 1i64),
            runtime_s: runtime,
            cost_usd: 1.0,
            seq: 0,
            outcome: RecordOutcome::Ok,
        }
    }

    #[test]
    fn insert_assigns_sequence_numbers() {
        let store = HistoryStore::new();
        assert_eq!(store.insert(record("a", 50.0, 10.0)), 0);
        assert_eq!(store.insert(record("a", 50.0, 11.0)), 1);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn most_similar_ranks_by_signature_distance() {
        let store = HistoryStore::new();
        store.insert(record("a", 90.0, 10.0)); // cpu-heavy
        store.insert(record("b", 10.0, 10.0)); // io-heavy
        let near_cpu = store.most_similar(&sig(85.0, 15.0), 1, None);
        assert_eq!(near_cpu.len(), 1);
        assert_eq!(near_cpu[0].client, "a");
    }

    #[test]
    fn most_similar_breaks_distance_ties_by_seq() {
        let store = HistoryStore::new();
        // Identical signatures from clients in different shards: the
        // earlier insertion must win, as with the old stable sort.
        store.insert(record("first", 50.0, 1.0));
        store.insert(record("second", 50.0, 2.0));
        let top = store.most_similar(&sig(50.0, 50.0), 1, None);
        assert_eq!(top[0].client, "first");
    }

    #[test]
    fn exclusion_filters_a_tenant() {
        let store = HistoryStore::new();
        store.insert(record("a", 90.0, 10.0));
        store.insert(record("b", 89.0, 20.0));
        let r = store.most_similar(&sig(90.0, 10.0), 5, Some("a"));
        assert!(r.iter().all(|x| x.client == "b"));
    }

    #[test]
    fn best_similar_runtime_minimizes_runtime() {
        let store = HistoryStore::new();
        store.insert(record("a", 90.0, 30.0));
        store.insert(record("b", 88.0, 12.0));
        store.insert(record("c", 87.0, 25.0));
        assert_eq!(store.best_similar_runtime(&sig(89.0, 11.0), 3), Some(12.0));
    }

    #[test]
    fn for_workload_scopes_by_client_and_label() {
        let store = HistoryStore::new();
        store.insert(record("a", 50.0, 10.0));
        let mut other = record("a", 50.0, 10.0);
        other.workload = "other".to_owned();
        store.insert(other);
        store.insert(record("b", 50.0, 10.0));
        assert_eq!(store.for_workload("a", "job").len(), 1);
    }

    #[test]
    fn snapshot_is_seq_ordered_across_shards() {
        let store = HistoryStore::new();
        for i in 0..20 {
            store.insert(record(&format!("client-{i}"), 50.0, i as f64));
        }
        let snap = store.snapshot();
        assert_eq!(snap.len(), 20);
        for (i, r) in snap.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
        }
    }

    #[test]
    fn try_insert_rejects_poisoned_durations() {
        let store = HistoryStore::new();
        let mut nan = record("a", 50.0, 10.0);
        nan.runtime_s = f64::NAN;
        assert!(store.try_insert(nan).is_err());
        let mut neg = record("a", 50.0, 10.0);
        neg.runtime_s = -3.0;
        assert!(store.try_insert(neg).is_err());
        let mut bad_cost = record("a", 50.0, 10.0);
        bad_cost.cost_usd = f64::NEG_INFINITY;
        assert!(store.try_insert(bad_cost).is_err());
        assert!(store.is_empty(), "rejected records must not enter");
        assert!(store.try_insert(record("a", 50.0, 10.0)).is_ok());
        assert_eq!(store.len(), 1);
    }

    #[test]
    #[should_panic(expected = "caller must validate")]
    fn insert_panics_on_poisoned_record() {
        let store = HistoryStore::new();
        let mut bad = record("a", 50.0, 10.0);
        bad.runtime_s = f64::NAN;
        store.insert(bad);
    }

    #[test]
    fn similarity_skips_censored_records() {
        let store = HistoryStore::new();
        let mut aborted = record("a", 90.0, 86_400.0);
        aborted.outcome = RecordOutcome::Failed;
        store.insert(aborted);
        let mut reaped = record("b", 90.0, 86_400.0);
        reaped.outcome = RecordOutcome::TimedOut;
        store.insert(reaped);
        store.insert(record("c", 10.0, 20.0)); // far but healthy
        let top = store.most_similar(&sig(90.0, 10.0), 3, None);
        assert_eq!(top.len(), 1, "censored records must not transfer");
        assert_eq!(top[0].client, "c");
        assert_eq!(store.best_similar_runtime(&sig(90.0, 10.0), 3), Some(20.0));
    }

    #[test]
    fn store_is_shareable_across_threads() {
        use std::sync::Arc;
        let store = Arc::new(HistoryStore::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let s = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..25 {
                    s.insert(record(&format!("t{t}"), 50.0, i as f64));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 100);
        let snap = store.snapshot();
        let mut seqs: Vec<u64> = snap.iter().map(|r| r.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), 100, "sequence numbers must be unique");
    }
}

/// JSON-lines persistence: the provider's execution history must
/// outlive any single process (§IV-C: "a centralized place that is
/// able to keep a record … across users").
impl HistoryStore {
    /// Serializes every record as one JSON object per line, in
    /// sequence order.
    ///
    /// # Errors
    ///
    /// Returns any serialization error (I/O is the caller's: write the
    /// returned string wherever the deployment keeps state).
    pub fn to_jsonl(&self) -> Result<String, serde_json::Error> {
        let mut out = String::new();
        for r in self.snapshot() {
            out.push_str(&serde_json::to_string(&r)?);
            out.push('\n');
        }
        Ok(out)
    }

    /// Rebuilds a store from [`HistoryStore::to_jsonl`] output.
    /// Sequence numbers are reassigned in line order.
    ///
    /// # Errors
    ///
    /// Returns the first malformed line's parse error.
    pub fn from_jsonl(data: &str) -> Result<Self, serde_json::Error> {
        let store = HistoryStore::new();
        for line in data.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let record: ExecutionRecord = serde_json::from_str(line)?;
            store
                .try_insert(record)
                .map_err(|why| serde::DeError::new(why).into())
                .map_err(|e: serde_json::Error| e)?;
        }
        Ok(store)
    }

    /// Like [`HistoryStore::from_jsonl`], but skips malformed lines
    /// instead of failing the whole load — one poisoned record must not
    /// take the multi-tenant store down. Returns the store and the
    /// number of lines skipped.
    pub fn from_jsonl_lossy(data: &str) -> (Self, usize) {
        let store = HistoryStore::new();
        let mut skipped = 0usize;
        for line in data.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<ExecutionRecord>(line) {
                // Validation failures (poisoned runtime/cost) count as
                // skipped too — a NaN smuggled into a stored line must
                // not re-enter the live store.
                Ok(record) => match store.try_insert(record) {
                    Ok(_) => {}
                    Err(_) => skipped += 1,
                },
                Err(_) => skipped += 1,
            }
        }
        if skipped > 0 {
            obs::registry()
                .counter("history.load_skipped")
                .add(skipped as u64);
        }
        (store, skipped)
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;
    use crate::characterize::WorkloadSignature;
    use simcluster::ExecMetrics;

    fn record(i: usize) -> ExecutionRecord {
        ExecutionRecord {
            client: format!("c{i}"),
            workload: "job".to_owned(),
            signature: WorkloadSignature::from_metrics(&ExecMetrics {
                runtime_s: 10.0 + i as f64,
                input_mb: 100.0,
                ..Default::default()
            }),
            config: Configuration::new().with("p", i as i64),
            runtime_s: 10.0 + i as f64,
            cost_usd: 0.5,
            seq: 0,
            outcome: RecordOutcome::Ok,
        }
    }

    #[test]
    fn jsonl_roundtrip_preserves_records() {
        let store = HistoryStore::new();
        for i in 0..5 {
            store.insert(record(i));
        }
        let dump = store.to_jsonl().expect("serializes");
        assert_eq!(dump.lines().count(), 5);
        let restored = HistoryStore::from_jsonl(&dump).expect("parses");
        assert_eq!(restored.len(), 5);
        assert_eq!(restored.snapshot()[3].client, "c3");
        assert_eq!(restored.snapshot()[3].seq, 3);
    }

    #[test]
    fn blank_lines_are_ignored_and_garbage_rejected() {
        let store = HistoryStore::from_jsonl("\n\n").expect("empty ok");
        assert!(store.is_empty());
        assert!(HistoryStore::from_jsonl("not json\n").is_err());
    }

    #[test]
    fn lossy_load_skips_poisoned_lines() {
        let store = HistoryStore::new();
        for i in 0..3 {
            store.insert(record(i));
        }
        let mut dump = store.to_jsonl().expect("serializes");
        dump.push_str("{\"this is\": \"not a record\"}\n");
        dump.push_str("not even json\n");
        let (restored, skipped) = HistoryStore::from_jsonl_lossy(&dump);
        assert_eq!(restored.len(), 3);
        assert_eq!(skipped, 2);
    }

    #[test]
    fn lossy_load_skips_poisoned_runtimes() {
        let store = HistoryStore::new();
        store.insert(record(0));
        let mut dump = store.to_jsonl().expect("serializes");
        // A line that parses but carries a poisoned runtime must be
        // dropped at ingestion, not stored.
        let line = dump.lines().next().expect("one line");
        let v: serde::Value = serde_json::from_str(line).expect("parses as value");
        let serde::Value::Object(pairs) = v else {
            panic!("record must serialize as an object");
        };
        let poisoned: Vec<(String, serde::Value)> = pairs
            .into_iter()
            .map(|(k, val)| {
                if k == "runtime_s" {
                    (k, serde::Value::F64(-10.0))
                } else {
                    (k, val)
                }
            })
            .collect();
        dump.push_str(&serde_json::to_string(&serde::Value::Object(poisoned)).expect("serializes"));
        dump.push('\n');
        let (restored, skipped) = HistoryStore::from_jsonl_lossy(&dump);
        assert_eq!(restored.len(), 1);
        assert_eq!(skipped, 1);
        // The strict loader refuses the whole file instead.
        assert!(HistoryStore::from_jsonl(&dump).is_err());
    }

    #[test]
    fn records_without_outcome_field_load_as_ok() {
        let store = HistoryStore::new();
        store.insert(record(0));
        let dump = store.to_jsonl().expect("serializes");
        // Strip the outcome key to simulate a pre-outcome JSONL file.
        let line = dump.lines().next().expect("one line");
        let v: serde::Value = serde_json::from_str(line).expect("parses as value");
        let serde::Value::Object(pairs) = v else {
            panic!("record must serialize as an object");
        };
        let stripped: Vec<(String, serde::Value)> =
            pairs.into_iter().filter(|(k, _)| k != "outcome").collect();
        let legacy = serde_json::to_string(&serde::Value::Object(stripped)).expect("serializes");
        assert!(!legacy.contains("outcome"));
        let restored = HistoryStore::from_jsonl(&legacy).expect("legacy line loads");
        assert_eq!(restored.snapshot()[0].outcome, RecordOutcome::Ok);
    }

    #[test]
    fn outcome_tags_roundtrip() {
        let store = HistoryStore::new();
        let mut r = record(0);
        r.outcome = RecordOutcome::TimedOut;
        store.insert(r);
        let dump = store.to_jsonl().expect("serializes");
        let restored = HistoryStore::from_jsonl(&dump).expect("parses");
        assert_eq!(restored.snapshot()[0].outcome, RecordOutcome::TimedOut);
    }

    #[test]
    fn restored_store_answers_similarity_queries() {
        let store = HistoryStore::new();
        for i in 0..4 {
            store.insert(record(i));
        }
        let dump = store.to_jsonl().expect("serializes");
        let restored = HistoryStore::from_jsonl(&dump).expect("parses");
        let q = record(0).signature;
        assert_eq!(restored.most_similar(&q, 2, None).len(), 2);
    }
}
