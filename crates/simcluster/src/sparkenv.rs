//! Deriving a concrete executor/runtime layout from a Spark
//! configuration — including the crash semantics of infeasible layouts
//! (the "plausible but wrong" configurations behind the paper's 12×/89×
//! misconfiguration numbers).

use confspace::spark::names as sp;
use confspace::Configuration;
use serde::{Deserialize, Serialize};

use crate::cluster::ClusterSpec;
use crate::constants;
use crate::error::FailureKind;

/// The resolved execution environment for one job run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparkEnv {
    /// The cluster the job runs on.
    pub cluster: ClusterSpec,
    /// Executors actually launched (possibly fewer than requested).
    pub executors: u32,
    /// Executors per node (ceil distribution).
    pub executors_per_node: u32,
    /// Task slots per executor.
    pub cores_per_executor: u32,
    /// Executor heap in MB.
    pub executor_mem_mb: f64,
    /// Driver heap in MB.
    pub driver_mem_mb: f64,
    /// Unified memory region per executor (MB): heap × memory.fraction.
    pub unified_mem_mb: f64,
    /// Storage sub-region per executor (MB), immune to eviction.
    pub storage_mem_mb: f64,
    /// The raw configuration (shuffle/serializer/… knobs read on demand).
    pub config: Configuration,
}

impl SparkEnv {
    /// Resolves a Spark configuration against a cluster.
    ///
    /// Mirrors YARN-style allocation: the requested executor count is
    /// capped by what fits (memory *and* cores per node); a layout where
    /// even a single executor cannot fit on a node is a launch failure —
    /// the crash mode an end-user debugging a "plausible but
    /// under-provisioned" setup hits (§IV).
    ///
    /// # Errors
    ///
    /// Returns [`FailureKind::LaunchFailure`] when no executor fits.
    pub fn resolve(cluster: &ClusterSpec, config: &Configuration) -> Result<Self, FailureKind> {
        let requested = config.int(sp::EXECUTOR_INSTANCES).max(1) as u32;
        let cores = config.int(sp::EXECUTOR_CORES).max(1) as u32;
        let exec_mem = config.int(sp::EXECUTOR_MEMORY_MB).max(256) as f64;
        let driver_mem = config.int(sp::DRIVER_MEMORY_MB).max(256) as f64;

        let node_mem = cluster.instance.mem_mb as f64;
        let node_cores = cluster.instance.vcpus;

        // Container footprint = heap + JVM overhead.
        let container_mb = exec_mem * (1.0 + constants::EXECUTOR_MEM_OVERHEAD);
        if container_mb > node_mem {
            return Err(FailureKind::LaunchFailure {
                reason: format!(
                    "executor container ({container_mb:.0} MB) exceeds node memory ({node_mem:.0} MB)"
                ),
            });
        }
        // YARN's DefaultResourceCalculator allocates containers by
        // memory only: vcores are *not* enforced, so requesting more
        // slots than physical vCPUs launches fine and runs with CPU
        // contention — one of the classic "plausible but slow" traps.
        let _ = node_cores;
        let by_mem = (node_mem / container_mb).floor() as u32;
        let fit_per_node = by_mem;
        if fit_per_node == 0 {
            return Err(FailureKind::LaunchFailure {
                reason: "no executor fits on any node".to_owned(),
            });
        }

        let max_executors = fit_per_node * cluster.nodes;
        let executors = requested.min(max_executors);
        let executors_per_node = executors.div_ceil(cluster.nodes);

        let mem_fraction = config.float(sp::MEMORY_FRACTION);
        let storage_fraction = config.float(sp::MEMORY_STORAGE_FRACTION);
        let unified = exec_mem * mem_fraction;

        Ok(SparkEnv {
            cluster: cluster.clone(),
            executors,
            executors_per_node,
            cores_per_executor: cores,
            executor_mem_mb: exec_mem,
            driver_mem_mb: driver_mem,
            unified_mem_mb: unified,
            storage_mem_mb: unified * storage_fraction,
            config: config.clone(),
        })
    }

    /// Total task slots across the cluster.
    pub fn total_slots(&self) -> u32 {
        self.executors * self.cores_per_executor
    }

    /// Aggregate storage memory (MB) available for cached RDDs.
    pub fn total_storage_mem_mb(&self) -> f64 {
        self.storage_mem_mb * f64::from(self.executors)
    }

    /// Execution memory available to one concurrently-running task (MB).
    ///
    /// Spark's unified model lets execution borrow from storage down to
    /// the storage-fraction floor when nothing is cached; we approximate
    /// with the execution share plus half the unprotected storage share.
    pub fn exec_mem_per_task_mb(&self, storage_in_use_frac: f64) -> f64 {
        let storage_frac = self.config.float(sp::MEMORY_STORAGE_FRACTION);
        let exec_share = self.unified_mem_mb * (1.0 - storage_frac);
        let borrowable =
            self.unified_mem_mb * storage_frac * (1.0 - storage_in_use_frac.clamp(0.0, 1.0));
        (exec_share + borrowable) / f64::from(self.cores_per_executor)
    }

    /// Effective CPU contention multiplier: >1 when executor slots
    /// oversubscribe the node's vCPUs.
    pub fn cpu_contention(&self) -> f64 {
        let slots_per_node = f64::from(self.executors_per_node * self.cores_per_executor);
        let vcpus = f64::from(self.cluster.instance.vcpus);
        (slots_per_node / vcpus).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confspace::spark::spark_space;

    fn testbed() -> ClusterSpec {
        ClusterSpec::table1_testbed()
    }

    fn cfg() -> Configuration {
        spark_space().default_configuration()
    }

    #[test]
    fn default_layout_resolves() {
        let env = SparkEnv::resolve(&testbed(), &cfg()).unwrap();
        assert_eq!(env.executors, 2);
        assert_eq!(env.total_slots(), 2);
        assert!(env.unified_mem_mb > 0.0);
    }

    #[test]
    fn oversized_executor_memory_fails_launch() {
        let c = cfg().with(sp::EXECUTOR_MEMORY_MB, 32768i64); // > 64GB node after overhead? 32768*1.1=36GB < 64GB ok
        assert!(SparkEnv::resolve(&testbed(), &c).is_ok());
        // Shrink the node instead: m5.large has 8 GB.
        let small = ClusterSpec::new(crate::catalog::lookup("m5", "large").unwrap(), 4);
        let err = SparkEnv::resolve(&small, &c).unwrap_err();
        assert!(matches!(err, FailureKind::LaunchFailure { .. }));
    }

    #[test]
    fn oversized_cores_launch_with_contention() {
        // YARN does not enforce vcores: 8 cores on a 2-vCPU node
        // launches but runs 4x oversubscribed.
        let small = ClusterSpec::new(crate::catalog::lookup("m5", "large").unwrap(), 4);
        let c = cfg().with(sp::EXECUTOR_CORES, 8i64);
        let env = SparkEnv::resolve(&small, &c).unwrap();
        assert!(env.cpu_contention() >= 4.0);
    }

    #[test]
    fn executor_count_is_capped_by_node_memory() {
        let c = cfg()
            .with(sp::EXECUTOR_INSTANCES, 48i64)
            .with(sp::EXECUTOR_CORES, 4i64)
            .with(sp::EXECUTOR_MEMORY_MB, 8192i64);
        let env = SparkEnv::resolve(&testbed(), &c).unwrap();
        // h1.4xlarge: 64G/(8G*1.1) = 7 executors fit per node.
        assert_eq!(env.executors, 28);
        assert_eq!(env.executors_per_node, 7);
        assert_eq!(env.total_slots(), 112);
    }

    #[test]
    fn contention_kicks_in_when_oversubscribed() {
        // 7 executors/node by memory × 4 cores = 28 slots on 16 vCPUs.
        let c = cfg()
            .with(sp::EXECUTOR_INSTANCES, 28i64)
            .with(sp::EXECUTOR_CORES, 4i64)
            .with(sp::EXECUTOR_MEMORY_MB, 7168i64);
        let env = SparkEnv::resolve(&testbed(), &c).unwrap();
        assert!(env.cpu_contention() > 1.0);
    }

    #[test]
    fn exec_mem_per_task_shrinks_with_cached_data() {
        let env = SparkEnv::resolve(&testbed(), &cfg()).unwrap();
        let free = env.exec_mem_per_task_mb(0.0);
        let full = env.exec_mem_per_task_mb(1.0);
        assert!(free > full);
        assert!(full > 0.0);
    }

    #[test]
    fn storage_memory_scales_with_executors() {
        let c = cfg().with(sp::EXECUTOR_INSTANCES, 8i64);
        let env = SparkEnv::resolve(&testbed(), &c).unwrap();
        assert!((env.total_storage_mem_mb() - env.storage_mem_mb * 8.0).abs() < 1e-9);
    }
}
