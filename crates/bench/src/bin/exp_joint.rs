//! **E10 — §I's joint-optimization claim**: "real-world scenarios imply
//! that such optimisations need to be done jointly … a basic example
//! would be the relationship between the number of virtual CPUs
//! allocated and the number of Spark executor cores."
//!
//! Three searches with the SAME total execution budget:
//!
//! * `disc-only` — tune Spark parameters on a fixed default cluster;
//! * `staged` — stage 1 picks the cluster, stage 2 tunes Spark on it
//!   (Fig. 1's pipeline, budget split between stages);
//! * `joint` — one search over the combined 29-parameter space.
//!
//! We also quantify the vCPU ↔ executor-cores interaction directly.
//!
//! Run with: `cargo run --release -p bench --bin exp_joint`

use bench::{eval_config, print_table, seeds, write_json};
use confspace::cloud::names as cn;
use confspace::spark::names as sp;
use seamless_core::tuner::{TunerKind, TuningSession};
use seamless_core::{CloudObjective, DiscObjective, JointObjective, SeamlessTuner, SimEnvironment};
use serde::Serialize;
use simcluster::{ClusterSpec, InterferenceModel};
use workloads::{DataScale, Terasort, Workload};

const TOTAL_BUDGET: usize = 40;
const REPEATS: u64 = 3;

#[derive(Debug, Serialize)]
struct JointRow {
    mode: String,
    mean_best_runtime_s: f64,
    mean_best_cost_usd: f64,
}

fn main() {
    println!("E10: joint cloud+DISC tuning vs staged vs DISC-only (budget {TOTAL_BUDGET})\n");
    let job = Terasort::new().job(DataScale::Small);

    let mut json = Vec::new();
    let mut rows = Vec::new();
    for mode in ["disc-only", "staged", "joint"] {
        let mut runtimes = Vec::new();
        let mut costs = Vec::new();
        for rep in 0..REPEATS {
            let env = SimEnvironment::dedicated(70 + rep);
            let (best_runtime, best_cost) = match mode {
                "disc-only" => {
                    let obj = DiscObjective::new(ClusterSpec::table1_testbed(), job.clone(), &env);
                    let s = TuningSession::new(TunerKind::BayesOpt, 71 + rep);
                    let o = s.run(&obj, TOTAL_BUDGET);
                    (o.best_runtime_s(), o.best().map_or(0.0, |b| b.cost_usd))
                }
                "staged" => {
                    let cloud =
                        CloudObjective::new(job.clone(), SeamlessTuner::house_default(), &env);
                    let s1 = TuningSession::new(TunerKind::BayesOpt, 72 + rep);
                    let o1 = s1.run(&cloud, TOTAL_BUDGET / 3);
                    let cluster = o1
                        .best_config()
                        .and_then(|c| ClusterSpec::from_config(c).ok())
                        .unwrap_or_else(ClusterSpec::table1_testbed);
                    let disc = DiscObjective::new(cluster, job.clone(), &env);
                    let s2 = TuningSession::new(TunerKind::BayesOpt, 73 + rep);
                    let o2 = s2.run(&disc, TOTAL_BUDGET - TOTAL_BUDGET / 3);
                    (o2.best_runtime_s(), o2.best().map_or(0.0, |b| b.cost_usd))
                }
                _ => {
                    let obj = JointObjective::new(job.clone(), &env);
                    let s = TuningSession::new(TunerKind::BayesOpt, 74 + rep);
                    let o = s.run(&obj, TOTAL_BUDGET);
                    (o.best_runtime_s(), o.best().map_or(0.0, |b| b.cost_usd))
                }
            };
            runtimes.push(best_runtime);
            costs.push(best_cost);
        }
        let row = JointRow {
            mode: mode.to_owned(),
            mean_best_runtime_s: models::stats::mean(&runtimes),
            mean_best_cost_usd: models::stats::mean(&costs),
        };
        rows.push(vec![
            row.mode.clone(),
            format!("{:.1}", row.mean_best_runtime_s),
            format!("{:.3}", row.mean_best_cost_usd),
        ]);
        json.push(row);
    }
    print_table(&["mode", "mean best runtime(s)", "mean run cost($)"], &rows);

    // --- The vCPU <-> executor-cores interaction, measured directly ---
    println!("\nvCPU <-> executor-cores coupling (runtime in s; h1 sizes x executor cores):");
    let replicas = seeds(8, 3);
    let mut coupling_rows = Vec::new();
    let mut coupling = Vec::new();
    for size in ["xlarge", "2xlarge", "4xlarge"] {
        let vcpus = simcluster::catalog::lookup("h1", size)
            .expect("h1 size")
            .vcpus;
        let mut row = vec![format!("h1.{size} ({vcpus} vCPU)")];
        for cores in [2i64, 4, 8, 16] {
            let cloud = confspace::cloud::cloud_space()
                .default_configuration()
                .with(cn::INSTANCE_SIZE, size);
            let cluster = ClusterSpec::from_config(&cloud).expect("valid cluster");
            let cfg = SeamlessTuner::house_default()
                .with(sp::EXECUTOR_INSTANCES, 8i64)
                .with(sp::EXECUTOR_CORES, cores)
                .with(sp::EXECUTOR_MEMORY_MB, 6144i64);
            let r = eval_config(&cluster, &job, &cfg, InterferenceModel::none(), &replicas);
            row.push(format!("{:.1}", r.mean_runtime_s));
            coupling.push((size.to_owned(), cores, r.mean_runtime_s));
        }
        coupling_rows.push(row);
    }
    print_table(
        &["cluster", "cores=2", "cores=4", "cores=8", "cores=16"],
        &coupling_rows,
    );

    // Shape: the penalty of a high core count shrinks as node vCPUs
    // grow — the vCPU <-> executor-cores interaction §I points to.
    let runtime_at = |size: &str, cores: i64| {
        coupling
            .iter()
            .find(|(s, c, _)| s == size && *c == cores)
            .map(|(_, _, r)| *r)
            .expect("measured")
    };
    let penalty = |size: &str| {
        let best = [2i64, 4, 8, 16]
            .iter()
            .map(|&c| runtime_at(size, c))
            .fold(f64::INFINITY, f64::min);
        runtime_at(size, 8) / best
    };
    println!(
        "\nshape check: the cores=8 penalty shrinks with node vCPUs (xlarge {:.1}x vs 4xlarge {:.1}x): {}",
        penalty("xlarge"),
        penalty("4xlarge"),
        penalty("xlarge") > penalty("4xlarge") * 1.3
    );

    write_json("exp_joint", &json);
}
