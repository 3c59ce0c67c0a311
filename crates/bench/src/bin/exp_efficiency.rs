//! **E5 — §II/§IV-C's sample-efficiency claims**: how many executions
//! does each strategy need?
//!
//! The paper contrasts BestConfig's ~500-execution budget with
//! CherryPick's small-sample Bayesian optimization and notes
//! model-based approaches need large training sets. For every built-in
//! strategy we tune Pagerank/Terasort/Bayes on the testbed with a
//! 120-execution budget (3 repetitions) and report (a) the best runtime
//! found and (b) the executions needed to get within 10% of the best
//! runtime any strategy ever found for that workload.
//!
//! Run with: `cargo run --release -p bench --bin exp_efficiency`

use bench::{print_table, write_json};
use seamless_core::tuner::{best_so_far, TunerKind, TuningSession};
use seamless_core::{DiscObjective, Objective, SimEnvironment};
use serde::Serialize;
use simcluster::ClusterSpec;
use workloads::{BayesClassifier, DataScale, Pagerank, Terasort, Workload};

const BUDGET: usize = 120;
const REPEATS: u64 = 3;

#[derive(Debug, Serialize)]
struct EfficiencyRow {
    workload: String,
    tuner: String,
    best_runtime_s: f64,
    evals_to_within_10pct: Option<usize>,
    evals_to_2x_default: Option<usize>,
}

fn main() {
    println!(
        "E5: sample efficiency of tuning strategies ({BUDGET} executions, {REPEATS} repeats)\n"
    );
    let cluster = ClusterSpec::table1_testbed();
    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(Pagerank::new()),
        Box::new(Terasort::new()),
        Box::new(BayesClassifier::new()),
    ];

    let mut json = Vec::new();
    for w in &workloads {
        let job = w.job(DataScale::Small);
        println!("== {} ==", job.name);

        // Collect mean best-so-far curves per tuner.
        let mut curves: Vec<(TunerKind, Vec<f64>)> = Vec::new();
        for kind in TunerKind::all() {
            let mut mean_curve = vec![0.0f64; BUDGET];
            for rep in 0..REPEATS {
                let obj = DiscObjective::new(
                    cluster.clone(),
                    job.clone(),
                    &SimEnvironment::dedicated(1000 + rep),
                );
                let session = TuningSession::new(kind, 777 + rep);
                let outcome = session.run(&obj, BUDGET);
                for (i, b) in best_so_far(&outcome.history).iter().enumerate() {
                    mean_curve[i] += b / REPEATS as f64;
                }
            }
            curves.push((kind, mean_curve));
        }

        // Global best across strategies = the optimum proxy.
        let global_best = curves
            .iter()
            .map(|(_, c)| *c.last().expect("non-empty curve"))
            .fold(f64::INFINITY, f64::min);
        let target = global_best * 1.10;

        // Reference: default-configuration runtime (for "2x default").
        let obj = DiscObjective::new(cluster.clone(), job.clone(), &SimEnvironment::dedicated(5));
        let dflt = obj
            .evaluate(&confspace::spark::spark_space().default_configuration(), 5)
            .runtime_s;

        let mut rows = Vec::new();
        for (kind, curve) in &curves {
            let within = curve.iter().position(|&b| b <= target).map(|i| i + 1);
            let twox = curve.iter().position(|&b| b <= dflt / 2.0).map(|i| i + 1);
            rows.push(vec![
                kind.label().to_owned(),
                format!("{:.1}", curve.last().expect("non-empty")),
                within.map_or(">120".to_owned(), |n| n.to_string()),
                twox.map_or(">120".to_owned(), |n| n.to_string()),
            ]);
            json.push(EfficiencyRow {
                workload: w.name().to_owned(),
                tuner: kind.label().to_owned(),
                best_runtime_s: *curve.last().expect("non-empty"),
                evals_to_within_10pct: within,
                evals_to_2x_default: twox,
            });
        }
        rows.sort_by(|a, b| {
            a[1].parse::<f64>()
                .unwrap_or(1e9)
                .total_cmp(&b[1].parse::<f64>().unwrap_or(1e9))
        });
        print_table(
            &[
                "tuner",
                "best(s)",
                "execs to within 10% of overall best",
                "execs to beat 2x default",
            ],
            &rows,
        );
        println!();
    }

    // Shape check: the model-guided strategies should reach the target
    // in far fewer executions than exhaustive-style search.
    let mean_evals = |label: &str| {
        let v: Vec<f64> = json
            .iter()
            .filter(|r| r.tuner == label)
            .map(|r| {
                r.evals_to_within_10pct
                    .map_or(BUDGET as f64 * 1.5, |n| n as f64)
            })
            .collect();
        models::stats::mean(&v)
    };
    println!("shape checks:");
    println!(
        "  bayesopt needs fewer executions than random (CherryPick's data-efficiency): {:.0} vs {:.0} -> {}",
        mean_evals("bayesopt"),
        mean_evals("random"),
        mean_evals("bayesopt") < mean_evals("random")
    );
    println!(
        "  greedy local search (MROnline-style hill climbing) is the slowest to halve the default runtime: {}",
        {
            let hc: f64 = json.iter().filter(|r| r.tuner == "hillclimb")
                .map(|r| r.evals_to_2x_default.map_or(BUDGET as f64 * 1.5, |n| n as f64))
                .sum::<f64>();
            let bo: f64 = json.iter().filter(|r| r.tuner == "bayesopt")
                .map(|r| r.evals_to_2x_default.map_or(BUDGET as f64 * 1.5, |n| n as f64))
                .sum::<f64>();
            hc > bo
        }
    );
    println!(
        "  every strategy reached its final best well inside BestConfig's published 500-execution budget (E6 prices that budget out)"
    );

    write_json("exp_efficiency", &json);
}
