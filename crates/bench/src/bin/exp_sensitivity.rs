//! **E12 — §V-A**: "develop models that can transfer their tuning
//! knowledge" — the knowledge being "the correlation between the
//! different configuration parameters and the workload performance".
//!
//! For each workload we collect a 60-execution LHS history, extract
//! parameter-importance rankings with the additive-GP decomposition
//! (Duvenaud et al., the paper's cited interpretability route) and with
//! random-forest permutation importance, and report the top parameters.
//! The shape to reproduce: *different workloads are sensitive to
//! different parameters* (the reason one global model cannot serve all
//! workloads, §V-B), while the two analysis methods agree with each
//! other on the same workload.
//!
//! Run with: `cargo run --release -p bench --bin exp_sensitivity`

use bench::{print_table, write_json};
use rand::rngs::StdRng;
use rand::SeedableRng;
use seamless_core::tuner::{TunerKind, TuningSession};
use seamless_core::{additive_effects, permutation_importance, DiscObjective, SimEnvironment};
use serde::Serialize;
use simcluster::ClusterSpec;
use workloads::{all_workloads, DataScale};

#[derive(Debug, Serialize)]
struct SensitivityRow {
    workload: String,
    additive_top3: Vec<String>,
    forest_top3: Vec<String>,
    methods_overlap_in_top5: usize,
}

fn main() {
    println!("E12: which parameters matter, per workload (60 LHS executions each)\n");
    let space = confspace::spark::spark_space();
    let cluster = ClusterSpec::table1_testbed();

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for w in all_workloads() {
        let objective = DiscObjective::new(
            cluster.clone(),
            w.job(DataScale::Small),
            &SimEnvironment::dedicated(7),
        );
        let session = TuningSession::new(TunerKind::Lhs, 7);
        let history = session.run(&objective, 60).history;

        let additive = additive_effects(&space, &history);
        let mut rng = StdRng::seed_from_u64(11);
        let forest = permutation_importance(&space, &history, &mut rng);

        let short = |s: &str| s.trim_start_matches("spark.").to_owned();
        let a3: Vec<String> = additive.top(3).iter().map(|s| short(s)).collect();
        let f3: Vec<String> = forest.top(3).iter().map(|s| short(s)).collect();
        let a5: Vec<&str> = additive.top(5);
        let overlap = forest.top(5).iter().filter(|p| a5.contains(p)).count();

        rows.push(vec![
            w.name().to_owned(),
            a3.join(", "),
            f3.join(", "),
            format!("{overlap}/5"),
        ]);
        json.push(SensitivityRow {
            workload: w.name().to_owned(),
            additive_top3: a3,
            forest_top3: f3,
            methods_overlap_in_top5: overlap,
        });
    }

    print_table(
        &[
            "workload",
            "additive-GP top-3",
            "forest top-3",
            "method overlap",
        ],
        &rows,
    );

    // Shape checks.
    let top1: Vec<&String> = json.iter().map(|r| &r.additive_top3[0]).collect();
    let distinct: std::collections::HashSet<&&String> = top1.iter().collect();
    println!("\nshape checks:");
    println!(
        "  workloads differ in their most-important parameter ({} distinct among {}): {}",
        distinct.len(),
        top1.len(),
        distinct.len() >= 3
    );
    let mean_overlap: f64 = json
        .iter()
        .map(|r| r.methods_overlap_in_top5 as f64)
        .sum::<f64>()
        / json.len() as f64;
    println!(
        "  the two analyses broadly agree on the same workload (mean top-5 overlap {mean_overlap:.1}/5): {}",
        mean_overlap >= 2.0
    );

    write_json("exp_sensitivity", &json);
}
