//! Execution metrics — the telemetry a cloud provider "witnesses" for
//! every run (§IV: the raw material for characterization, similarity
//! and re-tuning detection).

use serde::{Deserialize, Serialize};

/// Per-stage timing/volume breakdown.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct StageMetrics {
    /// Stage name.
    pub name: String,
    /// Number of tasks run (including retries).
    pub tasks: u32,
    /// Wall-clock duration of the stage (s).
    pub duration_s: f64,
    /// Sum of task CPU time (s).
    pub cpu_s: f64,
    /// Sum of task disk-IO time (s).
    pub io_s: f64,
    /// Sum of task shuffle-network time (s).
    pub net_s: f64,
    /// Sum of GC time (s).
    pub gc_s: f64,
    /// Sum of (de)serialization + (de)compression time (s).
    pub ser_s: f64,
    /// Bytes spilled to disk (MB).
    pub spill_mb: f64,
    /// Fraction of cached reads served from memory (0 when no cache use).
    pub cache_hit_frac: f64,
}

/// Whole-job execution metrics.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ExecMetrics {
    /// End-to-end wall-clock runtime (s).
    pub runtime_s: f64,
    /// Per-stage breakdown.
    pub stages: Vec<StageMetrics>,
    /// Total tasks across stages.
    pub total_tasks: u32,
    /// Total bytes read from stable storage (MB).
    pub input_mb: f64,
    /// Total logical shuffle volume (MB).
    pub shuffle_mb: f64,
    /// Total spilled (MB).
    pub spill_mb: f64,
    /// Peak fraction of aggregate storage memory used by cached RDDs.
    pub peak_storage_frac: f64,
}

impl ExecMetrics {
    /// Sum of all task-time components (s): the denominator for the
    /// fraction accessors below.
    fn total_task_time_s(&self) -> f64 {
        self.stages
            .iter()
            .map(|s| s.cpu_s + s.io_s + s.net_s + s.gc_s + s.ser_s)
            .sum()
    }

    /// Fraction of task time spent on CPU work.
    pub fn cpu_frac(&self) -> f64 {
        self.frac(|s| s.cpu_s)
    }

    /// Fraction of task time spent on disk IO.
    pub fn io_frac(&self) -> f64 {
        self.frac(|s| s.io_s)
    }

    /// Fraction of task time spent fetching shuffle data.
    pub fn net_frac(&self) -> f64 {
        self.frac(|s| s.net_s)
    }

    /// Fraction of task time spent in GC.
    pub fn gc_frac(&self) -> f64 {
        self.frac(|s| s.gc_s)
    }

    /// Fraction of task time spent (de)serializing / (de)compressing.
    pub fn ser_frac(&self) -> f64 {
        self.frac(|s| s.ser_s)
    }

    // Negated comparison so a NaN total (corrupt stage timings) also
    // takes the guard: `total <= 0.0` is false for NaN and would fall
    // through to a NaN division.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn frac(&self, f: impl Fn(&StageMetrics) -> f64) -> f64 {
        let total = self.total_task_time_s();
        if !(total > 0.0) {
            return 0.0;
        }
        self.stages.iter().map(f).sum::<f64>() / total
    }

    /// Whether every duration in the metrics is finite and
    /// non-negative. Poisoned telemetry (NaN from a crashed agent,
    /// negative durations from clock skew) must be rejected at
    /// ingestion time, not merely tolerated by the frac helpers.
    pub fn is_wellformed(&self) -> bool {
        let ok = |v: f64| v.is_finite() && v >= 0.0;
        ok(self.runtime_s)
            && ok(self.input_mb)
            && ok(self.shuffle_mb)
            && ok(self.spill_mb)
            && self.stages.iter().all(|s| {
                ok(s.duration_s)
                    && ok(s.cpu_s)
                    && ok(s.io_s)
                    && ok(s.net_s)
                    && ok(s.gc_s)
                    && ok(s.ser_s)
                    && ok(s.spill_mb)
            })
    }

    /// Mean cache hit fraction over stages that read cached data.
    pub fn cache_hit_frac(&self) -> f64 {
        let readers: Vec<&StageMetrics> = self
            .stages
            .iter()
            .filter(|s| s.cache_hit_frac > 0.0 || s.name.contains("iter"))
            .collect();
        if readers.is_empty() {
            return 1.0;
        }
        readers.iter().map(|s| s.cache_hit_frac).sum::<f64>() / readers.len() as f64
    }
}

/// The outcome of one simulated execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// End-to-end runtime (s).
    pub runtime_s: f64,
    /// Dollar cost of the run (cluster price × runtime).
    pub cost_usd: f64,
    /// Detailed metrics.
    pub metrics: ExecMetrics,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> ExecMetrics {
        ExecMetrics {
            runtime_s: 100.0,
            stages: vec![
                StageMetrics {
                    name: "map".into(),
                    cpu_s: 60.0,
                    io_s: 30.0,
                    net_s: 0.0,
                    gc_s: 5.0,
                    ser_s: 5.0,
                    ..Default::default()
                },
                StageMetrics {
                    name: "reduce".into(),
                    cpu_s: 40.0,
                    io_s: 10.0,
                    net_s: 40.0,
                    gc_s: 5.0,
                    ser_s: 5.0,
                    ..Default::default()
                },
            ],
            ..Default::default()
        }
    }

    #[test]
    fn fractions_sum_to_one() {
        let m = metrics();
        let sum = m.cpu_frac() + m.io_frac() + m.net_frac() + m.gc_frac() + m.ser_frac();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fractions_reflect_components() {
        let m = metrics();
        assert!((m.cpu_frac() - 100.0 / 200.0).abs() < 1e-9);
        assert!((m.net_frac() - 40.0 / 200.0).abs() < 1e-9);
    }

    #[test]
    fn empty_metrics_are_safe() {
        let m = ExecMetrics::default();
        assert_eq!(m.cpu_frac(), 0.0);
        assert_eq!(m.cache_hit_frac(), 1.0);
    }

    #[test]
    fn nan_task_times_yield_zero_fractions() {
        let m = ExecMetrics {
            stages: vec![StageMetrics {
                name: "corrupt".into(),
                cpu_s: f64::NAN,
                ..Default::default()
            }],
            ..Default::default()
        };
        assert!(m.total_task_time_s().is_nan());
        assert_eq!(m.cpu_frac(), 0.0, "NaN total must take the guard");
        assert_eq!(m.io_frac(), 0.0);
        assert_eq!(m.ser_frac(), 0.0);
    }

    #[test]
    fn wellformed_detects_poisoned_durations() {
        assert!(metrics().is_wellformed());
        let nan = ExecMetrics {
            runtime_s: f64::NAN,
            ..Default::default()
        };
        assert!(!nan.is_wellformed());
        let neg_stage = ExecMetrics {
            stages: vec![StageMetrics {
                name: "skew".into(),
                duration_s: -1.0,
                ..Default::default()
            }],
            ..Default::default()
        };
        assert!(!neg_stage.is_wellformed());
        let inf = ExecMetrics {
            shuffle_mb: f64::INFINITY,
            ..Default::default()
        };
        assert!(!inf.is_wellformed());
    }

    #[test]
    fn negative_task_times_yield_zero_fractions() {
        let m = ExecMetrics {
            stages: vec![StageMetrics {
                name: "clock-skew".into(),
                cpu_s: -5.0,
                io_s: 2.0,
                ..Default::default()
            }],
            ..Default::default()
        };
        assert_eq!(m.cpu_frac(), 0.0);
        assert_eq!(m.net_frac(), 0.0);
    }
}
