//! Calibration constants for the simulator, collected in one place
//! (DESIGN.md §7). Values are chosen so the *shape* of published results
//! holds: order-of-magnitude degradation for pathological configurations
//! (DAC's 89×, CherryPick's 12×), a few-percent noise floor, and
//! realistic CPU/IO/shuffle balances for the HiBench workloads.

/// Per-task launch/scheduling overhead added by the driver (seconds).
pub const TASK_OVERHEAD_S: f64 = 0.004;

/// Fixed per-stage scheduling overhead (DAG planning, task-set dispatch).
pub const STAGE_OVERHEAD_S: f64 = 0.08;

/// Fixed job submission overhead (driver startup amortized per job).
pub const JOB_OVERHEAD_S: f64 = 1.0;

/// JVM/executor memory overhead beyond the configured heap (fraction).
pub const EXECUTOR_MEM_OVERHEAD: f64 = 0.10;

/// CPU cost of serializing/deserializing one MB with the Java serializer
/// (seconds per MB on an m5 core).
pub const JAVA_SER_S_PER_MB: f64 = 0.011;

/// CPU cost of serializing/deserializing one MB with Kryo.
pub const KRYO_SER_S_PER_MB: f64 = 0.004;

/// Java serialization inflates on-wire/cached bytes by this factor
/// relative to Kryo (Kryo = 1.0).
pub const JAVA_SIZE_FACTOR: f64 = 1.6;

/// Compression ratios (compressed size / raw size) per codec.
pub fn codec_ratio(codec: &str) -> f64 {
    match codec {
        "zstd" => 0.33,
        "snappy" => 0.48,
        _ => 0.42, // lz4
    }
}

/// Compression CPU cost per raw MB (seconds, m5 core).
pub fn codec_cpu_s_per_mb(codec: &str) -> f64 {
    match codec {
        "zstd" => 0.0055,
        "snappy" => 0.0016,
        _ => 0.0019, // lz4
    }
}

/// Base GC overhead coefficient: fraction of CPU time lost to GC at
/// full heap pressure (scales quadratically with pressure).
pub const GC_COEFF: f64 = 0.9;

/// Multiplicative lognormal noise sigma on each task's duration.
pub const TASK_NOISE_SIGMA: f64 = 0.06;

/// Per-stage correlated noise sigma (JIT warmup, OS jitter).
pub const STAGE_NOISE_SIGMA: f64 = 0.025;

/// Spill amplification: every spilled MB costs a write + later re-read.
pub const SPILL_RW_FACTOR: f64 = 2.0;

/// Working set beyond this multiple of a task's execution memory
/// triggers an OOM instead of a spill.
pub const OOM_WORKING_SET_FACTOR: f64 = 8.0;

/// Driver memory needed per task for bookkeeping (MB).
pub const DRIVER_MB_PER_TASK: f64 = 0.35;

/// Driver memory needed per stage for DAG/lineage state (MB).
pub const DRIVER_MB_PER_STAGE: f64 = 6.0;

/// Fraction of driver heap usable before the driver OOMs.
pub const DRIVER_USABLE_FRAC: f64 = 0.75;

/// Cached-partition recomputation cost factor: recomputing an evicted
/// MEMORY_ONLY partition costs this multiple of reading it from disk
/// (lineage re-execution re-runs upstream CPU work).
pub const RECOMPUTE_FACTOR: f64 = 3.0;

/// Reading a memory-cached partition costs this fraction of reading the
/// same bytes from local disk (memory bandwidth >> disk).
pub const MEM_READ_FACTOR: f64 = 0.04;

/// Probability scale for non-local task placement when executors cover
/// few nodes relative to data spread.
pub const REMOTE_READ_NET_FACTOR: f64 = 1.0;

/// Straggler model: probability a task is a straggler.
pub const STRAGGLER_PROB: f64 = 0.02;

/// Straggler slowdown multiplier range (uniform in [lo, hi]).
pub const STRAGGLER_SLOWDOWN: (f64, f64) = (2.0, 6.0);

/// Overhead of running a speculative copy (extra slot-seconds counted
/// toward contention, as a fraction of the original duration).
pub const SPECULATION_COPY_COST: f64 = 0.35;

/// Shuffle fetch round-trip latency per wave (seconds).
pub const FETCH_WAVE_LATENCY_S: f64 = 0.05;

/// Small-buffer shuffle write penalty coefficient (per halving of the
/// buffer below the 256 KiB knee).
pub const BUFFER_FLUSH_PENALTY: f64 = 0.10;

/// Sort/merge CPU cost per MB shuffled when the bypass-merge path is
/// NOT taken (seconds per MB).
pub const SORT_CPU_S_PER_MB: f64 = 0.0035;

/// Per-partition file overhead on the bypass path (seconds per reduce
/// partition per map task, amortized).
pub const BYPASS_FILE_OVERHEAD_S: f64 = 0.00002;

/// Network timeout below which bursty interference causes fetch
/// failures (seconds).
pub const FRAGILE_TIMEOUT_S: f64 = 60.0;

/// Probability a fetch wave fails when the timeout is fragile and
/// interference is active.
pub const FRAGILE_FETCH_FAIL_PROB: f64 = 0.25;

/// FAIR scheduler bookkeeping overhead multiplier on task overhead.
pub const FAIR_SCHED_OVERHEAD: f64 = 1.15;

/// Deserialized Java objects occupy this multiple of their raw on-disk
/// bytes when cached MEMORY_ONLY (object headers, pointers, boxing).
pub const CACHE_OBJ_FACTOR: f64 = 2.2;

/// Dynamic allocation executor spin-up penalty per stage (seconds) and
/// its idle-resource saving are modelled in the engine.
pub const DYN_ALLOC_SPINUP_S: f64 = 0.5;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_tables_cover_all_codecs() {
        for c in ["lz4", "snappy", "zstd"] {
            assert!(codec_ratio(c) > 0.0 && codec_ratio(c) < 1.0);
            assert!(codec_cpu_s_per_mb(c) > 0.0);
        }
    }

    #[test]
    fn zstd_is_smaller_but_costlier_than_lz4() {
        assert!(codec_ratio("zstd") < codec_ratio("lz4"));
        assert!(codec_cpu_s_per_mb("zstd") > codec_cpu_s_per_mb("lz4"));
    }

    #[test]
    fn kryo_beats_java() {
        const { assert!(KRYO_SER_S_PER_MB < JAVA_SER_S_PER_MB) };
        const { assert!(JAVA_SIZE_FACTOR > 1.0) };
    }
}
