//! **E13 — §IV-D's trade-off question**: "do I need the results quickly
//! no matter the cost, or am I willing to wait a long time for the
//! results? … Who can tell me if scaling vertically, horizontally or
//! both gives me the best benefit vs cost ratio?"
//!
//! Part 1 answers the scaling question directly: the runtime-vs-cost
//! frontier of scaling the Table I workload vertically (bigger nodes),
//! horizontally (more nodes) and both.
//!
//! Part 2 runs goal-aware tuning: the same tuner under `min-runtime`,
//! `min-cost` and `deadline` goals picks different clusters.
//!
//! Run with: `cargo run --release -p bench --bin exp_tradeoff`

use bench::{eval_config, print_table, seeds, write_json};
use confspace::cloud::names as cn;
use seamless_core::goal::{GoalObjective, TuningGoal};
use seamless_core::tuner::{TunerKind, TuningSession};
use seamless_core::{CloudObjective, SeamlessTuner, SimEnvironment};
use serde::Serialize;
use simcluster::{ClusterSpec, InterferenceModel};
use workloads::{DataScale, Pagerank, Workload};

#[derive(Debug, Serialize)]
struct FrontierPoint {
    cluster: String,
    scaling: String,
    runtime_s: f64,
    cost_usd: f64,
}

#[derive(Debug, Serialize)]
struct GoalRow {
    goal: String,
    cluster: String,
    runtime_s: f64,
    cost_usd: f64,
}

fn main() {
    let job = Pagerank::new().job(DataScale::Small);
    let disc = SeamlessTuner::house_default();
    let replicas = seeds(4, 3);

    // ---- Part 1: vertical vs horizontal scaling frontier ----
    println!(
        "E13 part 1: vertical vs horizontal scaling of {}\n",
        job.name
    );
    let plans: Vec<(&str, &str, i64)> = vec![
        ("vertical", "xlarge", 4),
        ("vertical", "2xlarge", 4),
        ("vertical", "4xlarge", 4),
        ("horizontal", "xlarge", 4),
        ("horizontal", "xlarge", 8),
        ("horizontal", "xlarge", 16),
        ("both", "2xlarge", 8),
        ("both", "4xlarge", 8),
    ];
    let mut frontier = Vec::new();
    for (scaling, size, nodes) in plans {
        let cloud = confspace::cloud::cloud_space()
            .default_configuration()
            .with(cn::INSTANCE_FAMILY, "m5")
            .with(cn::INSTANCE_SIZE, size)
            .with(cn::NODE_COUNT, nodes);
        let cluster = ClusterSpec::from_config(&cloud).expect("valid plan");
        let r = eval_config(&cluster, &job, &disc, InterferenceModel::none(), &replicas);
        frontier.push(FrontierPoint {
            cluster: cluster.to_string(),
            scaling: scaling.to_owned(),
            runtime_s: r.mean_runtime_s,
            cost_usd: r.mean_cost_usd,
        });
    }
    print_table(
        &["scaling", "cluster", "runtime(s)", "run cost($)"],
        &frontier
            .iter()
            .map(|p| {
                vec![
                    p.scaling.clone(),
                    p.cluster.clone(),
                    format!("{:.1}", p.runtime_s),
                    format!("{:.4}", p.cost_usd),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // ---- Part 2: goal-aware tuning picks different clusters ----
    println!("\nE13 part 2: the same tuner under different user goals\n");
    let goals = [
        TuningGoal::MinRuntime,
        TuningGoal::MinCost,
        TuningGoal::Deadline { seconds: 60.0 },
        TuningGoal::Weighted { alpha: 0.5 },
    ];
    let mut rows = Vec::new();
    let mut json_goals = Vec::new();
    for goal in goals {
        let inner = CloudObjective::new(job.clone(), disc.clone(), &SimEnvironment::dedicated(9));
        let obj = GoalObjective::new(inner, goal);
        let session = TuningSession::new(TunerKind::BayesOpt, 33);
        let outcome = session.run(&obj, 20);
        let best_cfg = outcome.best_config().cloned();
        let (cluster_name, runtime, cost) = match best_cfg {
            Some(cfg) => {
                let cluster = ClusterSpec::from_config(&cfg).expect("valid cloud config");
                let r = eval_config(&cluster, &job, &disc, InterferenceModel::none(), &replicas);
                (cluster.to_string(), r.mean_runtime_s, r.mean_cost_usd)
            }
            None => ("-".to_owned(), f64::NAN, f64::NAN),
        };
        rows.push(vec![
            goal.label(),
            cluster_name.clone(),
            format!("{runtime:.1}"),
            format!("{cost:.4}"),
        ]);
        json_goals.push(GoalRow {
            goal: goal.label(),
            cluster: cluster_name,
            runtime_s: runtime,
            cost_usd: cost,
        });
    }
    print_table(
        &["goal", "chosen cluster", "runtime(s)", "run cost($)"],
        &rows,
    );

    let fast = json_goals
        .iter()
        .find(|g| g.goal == "min-runtime")
        .expect("row");
    let cheap = json_goals
        .iter()
        .find(|g| g.goal == "min-cost")
        .expect("row");
    println!("\nshape checks:");
    println!(
        "  min-cost picks a cheaper run than min-runtime (${:.4} vs ${:.4}): {}",
        cheap.cost_usd,
        fast.cost_usd,
        cheap.cost_usd <= fast.cost_usd
    );
    println!(
        "  min-runtime picks a faster run than min-cost ({:.1}s vs {:.1}s): {}",
        fast.runtime_s,
        cheap.runtime_s,
        fast.runtime_s <= cheap.runtime_s
    );

    #[derive(Serialize)]
    struct Out {
        frontier: Vec<FrontierPoint>,
        goals: Vec<GoalRow>,
    }
    write_json(
        "exp_tradeoff",
        &Out {
            frontier,
            goals: json_goals,
        },
    );
}
