//! The discrete-event execution engine.
//!
//! Simulates one job run: stages execute in dependency order; within a
//! stage, tasks are list-scheduled onto executor slots (a classic
//! earliest-free-slot event simulation). Each task's duration is built
//! from first-principles components — CPU, disk IO, shuffle fetch,
//! (de)serialization/(de)compression, GC, spill — each shaped by the
//! Spark configuration and the cluster's resources, so that the
//! configuration→runtime response surface has the structure real tuning
//! systems face: multimodal, constrained, input-size dependent and
//! noisy, with cliff-edge failure regions.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::Rng;

use confspace::spark::names as sp;

use crate::constants as k;
use crate::dag::{JobSpec, Partitioning, StageSpec};
use crate::error::FailureKind;
use crate::interference::{InterferenceModel, InterferenceState};
use crate::metrics::{ExecMetrics, SimResult, StageMetrics};
use crate::sparkenv::SparkEnv;
use crate::ziggurat;

/// Time unit used inside the event loop (microseconds).
type Micros = u64;

fn to_micros(s: f64) -> Micros {
    (s.max(0.0) * 1e6) as Micros
}

fn to_secs(us: Micros) -> f64 {
    us as f64 / 1e6
}

/// What a cached RDD looks like after a caching stage completes.
#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    /// Fraction of partitions resident in storage memory.
    mem_frac: f64,
    /// Fraction on local disk (MEMORY_AND_DISK overflow or DISK_ONLY).
    disk_frac: f64,
    /// Remaining fraction must be recomputed from lineage.
    lost_frac: f64,
}

/// The simulator: interference model + the run entry point.
#[derive(Debug, Clone, Default)]
pub struct Simulator {
    /// Co-location interference applied to this run.
    pub interference: InterferenceModel,
}

impl Simulator {
    /// A simulator on dedicated (interference-free) hardware.
    pub fn dedicated() -> Self {
        Simulator {
            interference: InterferenceModel::none(),
        }
    }

    /// A simulator with the given interference model.
    pub fn with_interference(interference: InterferenceModel) -> Self {
        Simulator { interference }
    }

    /// Runs `job` under `env`, consuming randomness from `rng`.
    ///
    /// The same `(env, job, rng seed)` triple always produces the same
    /// result.
    ///
    /// # Errors
    ///
    /// Returns a [`FailureKind`] when the run crashes (driver OOM,
    /// un-spillable executor OOM loops, repeated shuffle-fetch
    /// timeouts). Launch failures are returned by
    /// [`SparkEnv::resolve`], before this method is reached.
    ///
    /// # Panics
    ///
    /// Panics when the job's DAG is malformed (see
    /// [`JobSpec::validate`]); job construction is a programming step,
    /// not a tunable input.
    pub fn run<R: Rng + ?Sized>(
        &self,
        env: &SparkEnv,
        job: &JobSpec,
        rng: &mut R,
    ) -> Result<SimResult, FailureKind> {
        let _span = obs::span("sim.run").with("job", job.name.as_str());
        let reg = obs::registry();
        let result = reg
            .histogram("sim.step_s")
            .time(|| self.run_inner(env, job, rng));
        match &result {
            Ok(r) => {
                reg.counter("sim.runs").inc();
                reg.counter("sim.tasks")
                    .add(u64::from(r.metrics.total_tasks));
                reg.histogram("sim.sim_runtime_s").record_secs(r.runtime_s);
                reg.gauge("sim.cpu_frac").set(r.metrics.cpu_frac());
                reg.gauge("sim.io_frac").set(r.metrics.io_frac());
                reg.gauge("sim.net_frac").set(r.metrics.net_frac());
                reg.gauge("sim.gc_frac").set(r.metrics.gc_frac());
            }
            Err(kind) => {
                reg.counter("sim.failures").inc();
                obs::instant(
                    "sim.failure",
                    obs::fields![("job", job.name.as_str()), ("kind", format!("{kind:?}"))],
                );
            }
        }
        result
    }

    fn run_inner<R: Rng + ?Sized>(
        &self,
        env: &SparkEnv,
        job: &JobSpec,
        rng: &mut R,
    ) -> Result<SimResult, FailureKind> {
        job.validate().expect("job DAG must be well-formed");

        let cfg = &env.config;
        let inst = &env.cluster.instance;
        let nodes = f64::from(env.cluster.nodes);

        // ---- Driver feasibility -------------------------------------
        let planned_tasks: f64 = job
            .stages
            .iter()
            .map(|s| self.task_count(env, s) as f64)
            .sum();
        let driver_need = planned_tasks * k::DRIVER_MB_PER_TASK
            + job.stages.len() as f64 * k::DRIVER_MB_PER_STAGE;
        if driver_need > env.driver_mem_mb * k::DRIVER_USABLE_FRAC {
            return Err(FailureKind::DriverOom);
        }

        // ---- Config-derived factors ---------------------------------
        let serializer = cfg.str(sp::SERIALIZER);
        let (ser_s_per_mb, ser_size) = if serializer == "kryo" {
            let buf = cfg.int(sp::KRYO_BUFFER_MAX_MB) as f64;
            // Tiny kryo buffers force chunked serialization.
            let pen = if buf < 16.0 {
                1.0 + 0.15 * (16.0 - buf) / 16.0
            } else {
                1.0
            };
            (k::KRYO_SER_S_PER_MB * pen, 1.0)
        } else {
            (k::JAVA_SER_S_PER_MB, k::JAVA_SIZE_FACTOR)
        };
        let codec = cfg.str(sp::IO_COMPRESSION_CODEC);
        let codec_ratio = k::codec_ratio(codec);
        let codec_cpu = k::codec_cpu_s_per_mb(codec);
        let shuffle_compress = cfg.bool(sp::SHUFFLE_COMPRESS);
        let spill_compress = cfg.bool(sp::SHUFFLE_SPILL_COMPRESS);
        let rdd_compress = cfg.bool(sp::RDD_COMPRESS);
        let storage_level = cfg.str(sp::STORAGE_LEVEL).to_owned();
        let buffer_kb = cfg.int(sp::SHUFFLE_FILE_BUFFER_KB) as f64;
        let buffer_penalty = 1.0 + k::BUFFER_FLUSH_PENALTY * ((256.0 / buffer_kb).log2()).max(0.0);
        let max_in_flight = cfg.int(sp::REDUCER_MAX_SIZE_IN_FLIGHT_MB) as f64;
        let bypass_threshold = cfg.int(sp::SHUFFLE_SORT_BYPASS_MERGE_THRESHOLD);
        let reduce_parallelism = cfg.int(sp::DEFAULT_PARALLELISM).max(1);
        let locality_wait_s = cfg.int(sp::LOCALITY_WAIT_MS) as f64 / 1000.0;
        let speculation = cfg.bool(sp::SPECULATION);
        let spec_mult = cfg.float(sp::SPECULATION_MULTIPLIER);
        let net_timeout_s = cfg.int(sp::NETWORK_TIMEOUT_S) as f64;
        let dyn_alloc = cfg.bool(sp::DYNAMIC_ALLOCATION);
        let task_overhead = if cfg.str(sp::SCHEDULER_MODE) == "FAIR" {
            k::TASK_OVERHEAD_S * k::FAIR_SCHED_OVERHEAD
        } else {
            k::TASK_OVERHEAD_S
        };

        // ---- Run stages in DAG order --------------------------------
        let mut interference = InterferenceState::new(self.interference);
        let mut stage_end: Vec<Micros> = Vec::with_capacity(job.stages.len());
        let mut cache: Vec<Option<CacheEntry>> = vec![None; job.stages.len()];
        let mut storage_used_mb = 0.0f64;
        let mut peak_storage_frac = 0.0f64;
        let mut stage_metrics: Vec<StageMetrics> = Vec::with_capacity(job.stages.len());
        let mut total_tasks: u32 = 0;
        let mut total_spill = 0.0f64;

        let storage_total = env.total_storage_mem_mb().max(1.0);
        // Per-stage task buffers, reused across the run's stages.
        let mut weights: Vec<f64> = Vec::new();
        let mut durations: Vec<f64> = Vec::new();

        for (i, stage) in job.stages.iter().enumerate() {
            let start: Micros = stage.deps.iter().map(|&d| stage_end[d]).max().unwrap_or(0);

            let contention = interference.step(rng);
            let bursting = interference.is_bursting();

            let ntasks = self.task_count(env, stage).max(1);

            // Dynamic allocation: idle executors are released for small
            // stages, easing per-node contention, at a spin-up cost.
            let (executors, spinup) = if dyn_alloc {
                let needed = (ntasks as u32).div_ceil(env.cores_per_executor).max(1);
                (needed.min(env.executors), k::DYN_ALLOC_SPINUP_S)
            } else {
                (env.executors, 0.0)
            };
            let slots = (executors * env.cores_per_executor).max(1) as usize;
            let execs_per_node = (f64::from(executors) / nodes).ceil().max(1.0);
            let conc_per_node = (execs_per_node * f64::from(env.cores_per_executor))
                .min((ntasks as f64 / nodes).ceil().max(1.0));

            // Bandwidth shares, degraded by co-location bursts.
            let disk_bw = (inst.disk_mbps / conc_per_node / contention).max(1.0);
            let net_bw = (inst.net_mbps / conc_per_node / contention).max(1.0);
            let cpu_speed = inst.cpu_speed / env.cpu_contention() / contention.sqrt();

            // Locality: executors covering few nodes leave data remote.
            let covered = (f64::from(executors)).min(nodes);
            let p_remote_base = 1.0 - covered / nodes;
            let wait_effect = 1.0 - (-locality_wait_s / 3.0).exp();
            let p_remote = p_remote_base * (1.0 - wait_effect);
            // Waiting for a local slot only costs time when data would
            // otherwise be remote, and a local slot usually frees well
            // before the full wait elapses.
            let wait_delay = if ntasks as u32 > slots as u32 {
                p_remote_base * wait_effect * locality_wait_s.min(1.0) * 0.1
            } else {
                0.0
            };

            // Memory budget per concurrent task.
            let storage_in_use = (storage_used_mb / storage_total).clamp(0.0, 1.0);
            let avail_mb = env.exec_mem_per_task_mb(storage_in_use).max(8.0);

            // Cached-read servicing plan.
            let cached_plan = stage.cached_read.map(|cr| {
                let entry = cache[cr.source].unwrap_or(CacheEntry {
                    mem_frac: 0.0,
                    disk_frac: 0.0,
                    lost_frac: 1.0,
                });
                (cr.mb, entry)
            });

            // ---- Per-task durations ---------------------------------
            // Skewed task weights, normalized to sum = ntasks.
            weights.clear();
            weights.extend((0..ntasks).map(|_| {
                if stage.skew <= 0.0 {
                    1.0
                } else {
                    let z: f64 = -(1.0 - rng.gen::<f64>()).ln(); // Exp(1)
                    (1.0 - stage.skew) + stage.skew * z
                }
            }));
            let wsum: f64 = weights.iter().sum();
            for w in weights.iter_mut() {
                *w *= ntasks as f64 / wsum.max(1e-12);
            }

            let input_pt = stage.input_mb / ntasks as f64;
            let sread_pt = stage.shuffle_read_mb / ntasks as f64;
            let swrite_pt = stage.shuffle_write_mb / ntasks as f64;
            let out_pt = stage.output_mb / ntasks as f64;
            let cread_pt = cached_plan.map_or(0.0, |(mb, _)| mb / ntasks as f64);

            let mut sm = StageMetrics {
                name: stage.name.clone(),
                ..Default::default()
            };

            durations.clear();
            let mut median_est = 0.0f64;

            for (t, &w) in weights.iter().enumerate() {
                let data_pt = (input_pt + sread_pt + cread_pt) * w;

                // CPU work.
                let mut cpu = data_pt * stage.cpu_s_per_mb / cpu_speed;

                // Serialization / compression CPU.
                let mut ser = (sread_pt + swrite_pt) * w * ser_s_per_mb / cpu_speed;
                if shuffle_compress {
                    ser += (sread_pt + swrite_pt) * w * ser_size * codec_cpu / cpu_speed;
                }

                // Disk IO: input reads (possibly remote), output +
                // shuffle writes.
                let remote = rng.gen::<f64>() < p_remote;
                let read_bw = if remote {
                    disk_bw.min(net_bw) * k::REMOTE_READ_NET_FACTOR
                } else {
                    disk_bw
                };
                let mut io = input_pt * w / read_bw;
                let phys_write =
                    swrite_pt * w * ser_size * if shuffle_compress { codec_ratio } else { 1.0 };
                io += phys_write / disk_bw * buffer_penalty;
                io += out_pt * w / disk_bw;

                // Shuffle write path: sort vs bypass.
                if swrite_pt > 0.0 {
                    if reduce_parallelism <= bypass_threshold {
                        io += reduce_parallelism as f64 * k::BYPASS_FILE_OVERHEAD_S;
                    } else {
                        cpu += swrite_pt * w * k::SORT_CPU_S_PER_MB / cpu_speed
                            * (reduce_parallelism as f64).log2().max(1.0)
                            / 8.0;
                    }
                }

                // Shuffle fetch over the network.
                let phys_read =
                    sread_pt * w * ser_size * if shuffle_compress { codec_ratio } else { 1.0 };
                let mut net = phys_read / net_bw;
                if phys_read > 0.0 {
                    let waves = (phys_read / max_in_flight).ceil().max(1.0);
                    net += waves * k::FETCH_WAVE_LATENCY_S;
                }

                // Cached reads.
                if let Some((_, entry)) = cached_plan {
                    let bytes = cread_pt * w;
                    let mem_bytes = bytes * entry.mem_frac;
                    let disk_bytes = bytes * entry.disk_frac;
                    let lost_bytes = bytes * entry.lost_frac;
                    io += mem_bytes * k::MEM_READ_FACTOR / disk_bw;
                    let disk_phys = if rdd_compress {
                        ser += disk_bytes * codec_cpu / cpu_speed;
                        disk_bytes * codec_ratio
                    } else {
                        disk_bytes
                    };
                    io += disk_phys / disk_bw * ser_size;
                    ser += disk_bytes * ser_s_per_mb / cpu_speed;
                    // Lost partitions: recompute from lineage.
                    io += lost_bytes * k::RECOMPUTE_FACTOR / disk_bw;
                    cpu += lost_bytes * stage.cpu_s_per_mb * k::RECOMPUTE_FACTOR / cpu_speed;
                }

                // Memory pressure: spill, or an OOM loop that fails the
                // stage (and so the run) at the first such task.
                let ws = data_pt * stage.mem_expansion;
                if ws > avail_mb * k::OOM_WORKING_SET_FACTOR {
                    return Err(FailureKind::ExecutorOomLoop {
                        stage: stage.name.clone(),
                    });
                } else if ws > avail_mb {
                    let spill = ws - avail_mb;
                    let phys_spill = if spill_compress {
                        ser += spill * codec_cpu / cpu_speed;
                        spill * codec_ratio
                    } else {
                        spill
                    };
                    io += phys_spill * k::SPILL_RW_FACTOR / disk_bw;
                    sm.spill_mb += spill;
                }

                // GC pressure grows with working-set-to-heap ratio.
                let pressure = (ws / avail_mb).min(1.0);
                let gc_mult = if serializer == "java" { 1.25 } else { 1.0 };
                let gc = k::GC_COEFF * pressure * pressure * (cpu + ser) * gc_mult;

                let mut dur = cpu + ser + io + net + gc + task_overhead + wait_delay;

                // Stragglers and speculation.
                if rng.gen::<f64>() < k::STRAGGLER_PROB {
                    let (lo, hi) = k::STRAGGLER_SLOWDOWN;
                    let slow = lo + (hi - lo) * rng.gen::<f64>();
                    let straggled = dur * slow;
                    if speculation && t > 0 && median_est > 0.0 {
                        let cap = median_est * spec_mult + median_est;
                        dur = straggled.min(cap.max(dur)) + dur * k::SPECULATION_COPY_COST;
                    } else {
                        dur = straggled;
                    }
                }

                // Task-level noise.
                let noise = lognormal(rng, k::TASK_NOISE_SIGMA);
                dur *= noise;

                // Running median estimate for speculation capping.
                median_est = if t == 0 {
                    dur
                } else {
                    0.9 * median_est + 0.1 * dur
                };

                sm.cpu_s += cpu;
                sm.io_s += io;
                sm.net_s += net;
                sm.gc_s += gc;
                sm.ser_s += ser;
                durations.push(dur);
            }

            // Fragile network timeouts under interference bursts.
            let mut fetch_penalty = 1.0;
            if stage.shuffle_read_mb > 0.0
                && net_timeout_s < k::FRAGILE_TIMEOUT_S
                && bursting
                && rng.gen::<f64>() < k::FRAGILE_FETCH_FAIL_PROB
            {
                fetch_penalty = 2.0;
                if rng.gen::<f64>() < 0.3 * k::FRAGILE_FETCH_FAIL_PROB {
                    return Err(FailureKind::FetchTimeout {
                        stage: stage.name.clone(),
                    });
                }
            }

            // ---- List-schedule tasks onto slots ----------------------
            let duration_s = schedule(&durations, slots);
            let stage_noise = lognormal(rng, k::STAGE_NOISE_SIGMA);
            let wall = (duration_s * fetch_penalty + k::STAGE_OVERHEAD_S + spinup) * stage_noise;

            sm.tasks = ntasks as u32;
            sm.duration_s = wall;
            total_tasks += ntasks as u32;
            total_spill += sm.spill_mb;

            // ---- Cache this stage's output ---------------------------
            if stage.cache_output {
                let entry =
                    self.cache_insert(&storage_level, stage, storage_total, &mut storage_used_mb);
                cache[i] = Some(entry);
                peak_storage_frac = peak_storage_frac.max(storage_used_mb / storage_total);
            }

            if let Some((_, entry)) = cached_plan {
                sm.cache_hit_frac = entry.mem_frac;
            }

            stage_metrics.push(sm);
            stage_end.push(start + to_micros(wall));
        }

        let runtime_s = to_secs(stage_end.iter().copied().max().unwrap_or(0)) + k::JOB_OVERHEAD_S;
        let cost_usd = env.cluster.cost_for(runtime_s);

        Ok(SimResult {
            runtime_s,
            cost_usd,
            metrics: ExecMetrics {
                runtime_s,
                stages: stage_metrics,
                total_tasks,
                input_mb: job.total_input_mb(),
                shuffle_mb: job.total_shuffle_mb(),
                spill_mb: total_spill,
                peak_storage_frac,
            },
        })
    }

    /// Number of tasks a stage runs under `env`'s configuration.
    fn task_count(&self, env: &SparkEnv, stage: &StageSpec) -> usize {
        match stage.partitioning {
            Partitioning::InputBlocks { block_mb } => {
                ((stage.input_mb / block_mb).ceil() as usize).max(1)
            }
            Partitioning::DefaultParallelism => {
                env.config.int(sp::DEFAULT_PARALLELISM).max(1) as usize
            }
            Partitioning::ShufflePartitions => {
                env.config.int(sp::SHUFFLE_PARTITIONS).max(1) as usize
            }
        }
    }

    fn cache_insert(
        &self,
        storage_level: &str,
        stage: &StageSpec,
        storage_total: f64,
        storage_used_mb: &mut f64,
    ) -> CacheEntry {
        let raw = stage.output_mb.max(stage.data_mb() * 0.5);
        match storage_level {
            "DISK_ONLY" => CacheEntry {
                mem_frac: 0.0,
                disk_frac: 1.0,
                lost_frac: 0.0,
            },
            level => {
                let mem_size = raw * k::CACHE_OBJ_FACTOR;
                let free = (storage_total - *storage_used_mb).max(0.0);
                let mem_frac = (free / mem_size).clamp(0.0, 1.0);
                *storage_used_mb += mem_size * mem_frac;
                let overflow = 1.0 - mem_frac;
                if level == "MEMORY_AND_DISK" {
                    CacheEntry {
                        mem_frac,
                        disk_frac: overflow,
                        lost_frac: 0.0,
                    }
                } else {
                    // MEMORY_ONLY: evicted partitions are recomputed.
                    CacheEntry {
                        mem_frac,
                        disk_frac: 0.0,
                        lost_frac: overflow,
                    }
                }
            }
        }
    }
}

/// List-schedules task `durations` (seconds) onto `slots` identical
/// slots, returning the makespan in seconds. Earliest-free-slot
/// assignment — the event-driven core of the simulator.
///
/// The heap holds only the slots' free times, so each task moves the
/// earliest one forward in place (one sift-down, where a pop and a push
/// would sift twice); the multiset of free times, and so the makespan,
/// evolves exactly as with a pop and a push.
fn schedule(durations: &[f64], slots: usize) -> f64 {
    let slots = slots.max(1);
    if durations.is_empty() {
        return 0.0;
    }
    let mut heap: BinaryHeap<Reverse<Micros>> = (0..slots).map(|_| Reverse(0)).collect();
    let mut makespan: Micros = 0;
    for &d in durations {
        let mut earliest = heap.peek_mut().expect("heap is never empty");
        let end = earliest.0 + to_micros(d);
        makespan = makespan.max(end);
        earliest.0 = end;
    }
    to_secs(makespan)
}

/// Multiplicative lognormal noise with unit median: `exp(sigma·z)` for a
/// ziggurat-drawn standard normal `z`.
fn lognormal<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> f64 {
    (sigma * ziggurat::standard_normal(rng)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use crate::dag::StageSpec;
    use confspace::spark::spark_space;
    use confspace::Configuration;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn env(cfg: Configuration) -> SparkEnv {
        SparkEnv::resolve(&ClusterSpec::table1_testbed(), &cfg).unwrap()
    }

    fn decent_cfg() -> Configuration {
        spark_space()
            .default_configuration()
            .with(sp::EXECUTOR_INSTANCES, 8i64)
            .with(sp::EXECUTOR_CORES, 4i64)
            .with(sp::EXECUTOR_MEMORY_MB, 8192i64)
            .with(sp::DEFAULT_PARALLELISM, 64i64)
    }

    fn simple_job(input_mb: f64) -> JobSpec {
        JobSpec::new(
            "wc",
            vec![
                StageSpec::input("map", input_mb, 0.012).writes_shuffle(input_mb * 0.05),
                StageSpec::reduce("reduce", vec![0], input_mb * 0.05, 0.006)
                    .writes_output(input_mb * 0.01),
            ],
        )
    }

    #[test]
    fn schedule_is_makespan() {
        // 4 tasks of 1s on 2 slots -> 2s.
        assert!((schedule(&[1.0, 1.0, 1.0, 1.0], 2) - 2.0).abs() < 1e-6);
        // Long pole dominates.
        assert!((schedule(&[5.0, 1.0, 1.0], 4) - 5.0).abs() < 1e-6);
        assert_eq!(schedule(&[], 4), 0.0);
    }

    /// [`schedule`] as a pop of the earliest free slot and a push of its
    /// new free time per task.
    fn schedule_pop_push(durations: &[f64], slots: usize) -> f64 {
        let slots = slots.max(1);
        if durations.is_empty() {
            return 0.0;
        }
        let mut heap: BinaryHeap<Reverse<Micros>> = (0..slots).map(|_| Reverse(0)).collect();
        let mut makespan: Micros = 0;
        for &d in durations {
            let Reverse(free) = heap.pop().expect("heap is never empty");
            let end = free + to_micros(d);
            makespan = makespan.max(end);
            heap.push(Reverse(end));
        }
        to_secs(makespan)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(400))]

        /// The in-place update schedules like a pop and a push, bit for
        /// bit: random durations drawn from a few values (ties), zeros,
        /// and slot counts up to past the task count.
        #[test]
        fn schedule_matches_pop_push(seed in proptest::prelude::any::<u64>(), tasks in 0usize..200, slots in 0usize..260) {
            let mut rng = StdRng::seed_from_u64(seed);
            let durations: Vec<f64> = (0..tasks)
                .map(|_| match rng.gen_range(0..4u32) {
                    0 => 0.0,
                    1 => [0.5, 1.0, 2.25][rng.gen_range(0..3usize)],
                    _ => rng.gen::<f64>() * 30.0,
                })
                .collect();
            let (fast, slow) = (schedule(&durations, slots), schedule_pop_push(&durations, slots));
            proptest::prop_assert_eq!(fast.to_bits(), slow.to_bits(), "{} tasks on {} slots", tasks, slots);
        }
    }

    #[test]
    fn lognormal_factors_have_unit_median_and_sigma_log_sd() {
        const N: usize = 200_000;
        for sigma in [k::TASK_NOISE_SIGMA, k::STAGE_NOISE_SIGMA] {
            let mut rng = StdRng::seed_from_u64(17);
            let mut logs: Vec<f64> = (0..N).map(|_| lognormal(&mut rng, sigma).ln()).collect();
            logs.sort_by(f64::total_cmp);
            let median = logs[N / 2].exp();
            let mean = logs.iter().sum::<f64>() / N as f64;
            let sd = (logs.iter().map(|l| (l - mean).powi(2)).sum::<f64>() / N as f64).sqrt();
            let n = N as f64;
            // 5 standard errors: 1.2533·σ/√n for the median, σ/√(2n)
            // for the sd.
            assert!(
                (median - 1.0).abs() < 5.0 * 1.2533 * sigma / n.sqrt(),
                "median {median}"
            );
            assert!(
                (sd - sigma).abs() < 5.0 * sigma / (2.0 * n).sqrt(),
                "log-sd {sd} vs {sigma}"
            );
        }
    }

    #[test]
    fn run_is_deterministic_under_seed() {
        let e = env(decent_cfg());
        let j = simple_job(4096.0);
        let sim = Simulator::dedicated();
        let a = sim.run(&e, &j, &mut StdRng::seed_from_u64(7)).unwrap();
        let b = sim.run(&e, &j, &mut StdRng::seed_from_u64(7)).unwrap();
        assert_eq!(a.runtime_s, b.runtime_s);
    }

    #[test]
    fn more_input_takes_longer() {
        let e = env(decent_cfg());
        let sim = Simulator::dedicated();
        let small = sim
            .run(&e, &simple_job(1024.0), &mut StdRng::seed_from_u64(1))
            .unwrap();
        let big = sim
            .run(&e, &simple_job(16384.0), &mut StdRng::seed_from_u64(1))
            .unwrap();
        assert!(big.runtime_s > small.runtime_s * 2.0);
    }

    #[test]
    fn more_slots_is_faster_for_parallel_work() {
        let sim = Simulator::dedicated();
        let j = simple_job(8192.0);
        let slow_cfg = decent_cfg()
            .with(sp::EXECUTOR_INSTANCES, 1i64)
            .with(sp::EXECUTOR_CORES, 1i64);
        let slow = sim
            .run(&env(slow_cfg), &j, &mut StdRng::seed_from_u64(2))
            .unwrap();
        let fast = sim
            .run(&env(decent_cfg()), &j, &mut StdRng::seed_from_u64(2))
            .unwrap();
        assert!(
            slow.runtime_s > fast.runtime_s * 3.0,
            "slow {} vs fast {}",
            slow.runtime_s,
            fast.runtime_s
        );
    }

    #[test]
    fn tiny_memory_with_huge_working_set_ooms() {
        let sim = Simulator::dedicated();
        let j = JobSpec::new(
            "sortish",
            vec![StageSpec::input("m", 2048.0, 0.01)
                .with_mem_expansion(4.0)
                .with_partitioning(Partitioning::DefaultParallelism)],
        );
        let cfg = decent_cfg()
            .with(sp::EXECUTOR_MEMORY_MB, 512i64)
            .with(sp::DEFAULT_PARALLELISM, 4i64)
            .with(sp::MEMORY_FRACTION, 0.3);
        let res = sim.run(&env(cfg), &j, &mut StdRng::seed_from_u64(3));
        assert!(
            matches!(res, Err(FailureKind::ExecutorOomLoop { .. })),
            "expected OOM, got {res:?}"
        );
    }

    #[test]
    fn moderate_pressure_spills_instead_of_oom() {
        let sim = Simulator::dedicated();
        let j = JobSpec::new(
            "sortish",
            vec![StageSpec::input("m", 2048.0, 0.01)
                .with_mem_expansion(2.0)
                .with_partitioning(Partitioning::DefaultParallelism)],
        );
        let cfg = decent_cfg()
            .with(sp::EXECUTOR_MEMORY_MB, 2048i64)
            .with(sp::DEFAULT_PARALLELISM, 8i64);
        let res = sim
            .run(&env(cfg), &j, &mut StdRng::seed_from_u64(4))
            .unwrap();
        assert!(res.metrics.spill_mb > 0.0);
    }

    #[test]
    fn driver_oom_with_huge_parallelism_small_driver() {
        let sim = Simulator::dedicated();
        let j = simple_job(1024.0);
        let cfg = decent_cfg()
            .with(sp::DEFAULT_PARALLELISM, 1024i64)
            .with(sp::DRIVER_MEMORY_MB, 512i64);
        // 1024 tasks * 0.35MB = 358MB < 512*0.75=384 -> survives; crank stages.
        let mut stages = vec![StageSpec::input("m", 1024.0, 0.01).writes_shuffle(50.0)];
        for i in 1..40 {
            stages.push(
                StageSpec::reduce(&format!("r{i}"), vec![i - 1], 50.0, 0.005).writes_shuffle(50.0),
            );
        }
        let big = JobSpec::new("deep", stages);
        let res = sim.run(&env(cfg), &big, &mut StdRng::seed_from_u64(5));
        assert!(matches!(res, Err(FailureKind::DriverOom)), "{res:?}");
        let _ = j;
    }

    #[test]
    fn compression_reduces_network_time_for_shuffle_heavy() {
        let sim = Simulator::dedicated();
        let j = JobSpec::new(
            "shuffleheavy",
            vec![
                StageSpec::input("m", 2048.0, 0.002).writes_shuffle(2048.0),
                StageSpec::reduce("r", vec![0], 2048.0, 0.002),
            ],
        );
        let on = decent_cfg().with(sp::SHUFFLE_COMPRESS, true);
        let off = decent_cfg().with(sp::SHUFFLE_COMPRESS, false);
        let ron = sim
            .run(&env(on), &j, &mut StdRng::seed_from_u64(6))
            .unwrap();
        let roff = sim
            .run(&env(off), &j, &mut StdRng::seed_from_u64(6))
            .unwrap();
        let net_on: f64 = ron.metrics.stages.iter().map(|s| s.net_s).sum();
        let net_off: f64 = roff.metrics.stages.iter().map(|s| s.net_s).sum();
        assert!(net_on < net_off, "net {net_on} !< {net_off}");
    }

    #[test]
    fn kryo_beats_java_on_ser_time() {
        let sim = Simulator::dedicated();
        let j = JobSpec::new(
            "shuffleheavy",
            vec![
                StageSpec::input("m", 2048.0, 0.002).writes_shuffle(1024.0),
                StageSpec::reduce("r", vec![0], 1024.0, 0.002),
            ],
        );
        let kryo = decent_cfg().with(sp::SERIALIZER, "kryo");
        let java = decent_cfg().with(sp::SERIALIZER, "java");
        let rk = sim
            .run(&env(kryo), &j, &mut StdRng::seed_from_u64(8))
            .unwrap();
        let rj = sim
            .run(&env(java), &j, &mut StdRng::seed_from_u64(8))
            .unwrap();
        let ser_k: f64 = rk.metrics.stages.iter().map(|s| s.ser_s).sum();
        let ser_j: f64 = rj.metrics.stages.iter().map(|s| s.ser_s).sum();
        assert!(ser_k < ser_j);
    }

    #[test]
    fn cached_reads_hit_memory_when_it_fits() {
        let sim = Simulator::dedicated();
        let j = JobSpec::new(
            "iter",
            vec![
                StageSpec::input("load", 512.0, 0.01)
                    .cached()
                    .writes_output(512.0),
                StageSpec::reduce("iter-1", vec![0], 0.0, 0.01).reads_cached(0, 512.0),
            ],
        );
        let cfg = decent_cfg()
            .with(sp::EXECUTOR_MEMORY_MB, 16384i64)
            .with(sp::MEMORY_STORAGE_FRACTION, 0.6);
        let res = sim
            .run(&env(cfg), &j, &mut StdRng::seed_from_u64(9))
            .unwrap();
        assert!(
            res.metrics.stages[1].cache_hit_frac > 0.99,
            "hit {}",
            res.metrics.stages[1].cache_hit_frac
        );
    }

    #[test]
    fn cache_eviction_hurts_memory_only() {
        let sim = Simulator::dedicated();
        let big = 20000.0; // 20 GB cached >> storage memory
        let mk = |level: &str| {
            let j = JobSpec::new(
                "iter",
                vec![
                    StageSpec::input("load", big, 0.005)
                        .cached()
                        .writes_output(big),
                    StageSpec::reduce("iter-1", vec![0], 0.0, 0.005).reads_cached(0, big),
                ],
            );
            let cfg = decent_cfg()
                .with(sp::EXECUTOR_MEMORY_MB, 4096i64)
                .with(sp::STORAGE_LEVEL, level);
            sim.run(&env(cfg), &j, &mut StdRng::seed_from_u64(10))
                .unwrap()
        };
        let mem_only = mk("MEMORY_ONLY");
        let mem_disk = mk("MEMORY_AND_DISK");
        assert!(
            mem_only.runtime_s > mem_disk.runtime_s,
            "recompute ({}) should cost more than disk overflow ({})",
            mem_only.runtime_s,
            mem_disk.runtime_s
        );
    }

    #[test]
    fn interference_slows_runs_down() {
        let e = env(decent_cfg());
        let j = simple_job(8192.0);
        let calm = Simulator::dedicated();
        let noisy = Simulator::with_interference(crate::interference::InterferenceModel::heavy());
        let mut tot_calm = 0.0;
        let mut tot_noisy = 0.0;
        for s in 0..10u64 {
            tot_calm += calm
                .run(&e, &j, &mut StdRng::seed_from_u64(s))
                .unwrap()
                .runtime_s;
            tot_noisy += noisy
                .run(&e, &j, &mut StdRng::seed_from_u64(s))
                .map(|r| r.runtime_s)
                .unwrap_or(1e4);
        }
        assert!(tot_noisy > tot_calm);
    }

    #[test]
    fn cost_tracks_price_and_runtime() {
        let e = env(decent_cfg());
        let j = simple_job(2048.0);
        let r = Simulator::dedicated()
            .run(&e, &j, &mut StdRng::seed_from_u64(11))
            .unwrap();
        let expected = e.cluster.cost_for(r.runtime_s);
        assert!((r.cost_usd - expected).abs() < 1e-12);
    }

    #[test]
    fn metrics_components_are_positive() {
        let e = env(decent_cfg());
        let j = simple_job(4096.0);
        let r = Simulator::dedicated()
            .run(&e, &j, &mut StdRng::seed_from_u64(12))
            .unwrap();
        assert_eq!(r.metrics.stages.len(), 2);
        assert!(r.metrics.cpu_frac() > 0.0);
        assert!(r.metrics.io_frac() > 0.0);
        assert!(r.metrics.total_tasks > 0);
    }
}
