//! Shared harness for the experiment binaries (`src/bin/exp_*.rs`).
//!
//! Each binary regenerates one table/figure/claim from the paper (see
//! DESIGN.md §3 for the index and EXPERIMENTS.md for recorded results).
//! The helpers here keep the binaries small: replicated configuration
//! evaluation, deterministic random-configuration pools, markdown table
//! printing, and JSON result dumps under `results/`.

use std::fs;
use std::path::Path;

use confspace::{sample, Configuration, ParamSpace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use seamless_core::FAILURE_PENALTY_S;
use simcluster::{ClusterSpec, InterferenceModel, JobSpec, Simulator, SparkEnv};

/// Outcome of a replicated evaluation of one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct EvalSummary {
    /// Mean runtime over successful replicas (penalty if all failed).
    pub mean_runtime_s: f64,
    /// Fraction of replicas that crashed.
    pub crash_frac: f64,
    /// Mean dollar cost over successful replicas.
    pub mean_cost_usd: f64,
}

/// Evaluates `config` on `cluster` for `job`, replicated over `seeds`,
/// averaging successful runs. A configuration that crashes every
/// replica gets the failure penalty.
pub fn eval_config(
    cluster: &ClusterSpec,
    job: &JobSpec,
    config: &Configuration,
    interference: InterferenceModel,
    seeds: &[u64],
) -> EvalSummary {
    let sim = Simulator::with_interference(interference);
    let mut runtimes = Vec::new();
    let mut costs = Vec::new();
    let mut crashes = 0usize;
    for &seed in seeds {
        match SparkEnv::resolve(cluster, config) {
            Err(_) => crashes += 1,
            Ok(env) => {
                let mut rng = StdRng::seed_from_u64(seed);
                match sim.run(&env, job, &mut rng) {
                    Ok(r) => {
                        runtimes.push(r.runtime_s);
                        costs.push(r.cost_usd);
                    }
                    Err(_) => crashes += 1,
                }
            }
        }
    }
    EvalSummary {
        mean_runtime_s: if runtimes.is_empty() {
            FAILURE_PENALTY_S
        } else {
            models::stats::mean(&runtimes)
        },
        crash_frac: crashes as f64 / seeds.len().max(1) as f64,
        mean_cost_usd: if costs.is_empty() {
            0.0
        } else {
            models::stats::mean(&costs)
        },
    }
}

/// A deterministic pool of `n` random configurations.
pub fn random_pool(space: &ParamSpace, n: usize, seed: u64) -> Vec<Configuration> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| sample::uniform(space, &mut rng)).collect()
}

/// Replication seeds for an experiment (derived from a base).
pub fn seeds(base: u64, n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| base.wrapping_mul(1000) + i).collect()
}

/// Prints a markdown table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<w$}", w = widths.get(i).copied().unwrap_or(4)))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(&headers.iter().map(|h| (*h).to_owned()).collect::<Vec<_>>());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row);
    }
}

/// Writes a JSON result file under `results/`.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = Path::new("results");
    if fs::create_dir_all(dir).is_err() {
        eprintln!("warning: could not create results/ directory");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = fs::write(&path, json) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("\n[results written to {}]", path.display());
            }
        }
        Err(e) => eprintln!("warning: serialization failed: {e}"),
    }
}

/// Formats a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.0}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{DataScale, Wordcount, Workload};

    #[test]
    fn eval_config_replicates_and_averages() {
        let cluster = ClusterSpec::table1_testbed();
        let job = Wordcount::new().job(DataScale::Tiny);
        let cfg = seamless_core::SeamlessTuner::house_default();
        let s = eval_config(
            &cluster,
            &job,
            &cfg,
            InterferenceModel::none(),
            &seeds(1, 3),
        );
        assert!(s.mean_runtime_s > 0.0 && s.mean_runtime_s < 1000.0);
        assert_eq!(s.crash_frac, 0.0);
        assert!(s.mean_cost_usd > 0.0);
    }

    #[test]
    fn crashing_config_is_penalized() {
        let cluster = ClusterSpec::new(simcluster::catalog::lookup("m5", "large").unwrap(), 2);
        let job = Wordcount::new().job(DataScale::Tiny);
        let cfg = confspace::spark::spark_space()
            .default_configuration()
            .with(confspace::spark::names::EXECUTOR_MEMORY_MB, 32768i64);
        let s = eval_config(
            &cluster,
            &job,
            &cfg,
            InterferenceModel::none(),
            &seeds(2, 2),
        );
        assert_eq!(s.crash_frac, 1.0);
        assert_eq!(s.mean_runtime_s, FAILURE_PENALTY_S);
    }

    #[test]
    fn random_pool_is_deterministic() {
        let space = confspace::spark::spark_space();
        assert_eq!(random_pool(&space, 5, 9), random_pool(&space, 5, 9));
    }

    #[test]
    fn seeds_are_distinct() {
        let s = seeds(7, 5);
        let unique: std::collections::HashSet<u64> = s.iter().copied().collect();
        assert_eq!(unique.len(), 5);
    }
}

/// Evaluates every configuration in `pool` (same job, same replicas) in
/// parallel using scoped threads — the experiment harness's hot loop.
/// Built on [`models::par`], the same fork-join layer the surrogate
/// models use, so worker count follows `SEAMLESS_THREADS`.
pub fn eval_pool(
    cluster: &ClusterSpec,
    job: &JobSpec,
    pool: &[Configuration],
    interference: InterferenceModel,
    seeds: &[u64],
) -> Vec<EvalSummary> {
    models::par::par_map(pool, |cfg| {
        eval_config(cluster, job, cfg, interference, seeds)
    })
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use workloads::{DataScale, Wordcount, Workload};

    #[test]
    fn parallel_matches_sequential() {
        let cluster = ClusterSpec::table1_testbed();
        let job = Wordcount::new().job(DataScale::Tiny);
        let space = confspace::spark::spark_space();
        let pool = random_pool(&space, 12, 3);
        let s = seeds(1, 2);
        let par = eval_pool(&cluster, &job, &pool, InterferenceModel::none(), &s);
        let seq: Vec<EvalSummary> = pool
            .iter()
            .map(|c| eval_config(&cluster, &job, c, InterferenceModel::none(), &s))
            .collect();
        assert_eq!(par, seq);
    }
}
