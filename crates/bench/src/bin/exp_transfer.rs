//! **E8 — §V-B**: leveraging tuning knowledge across workloads.
//!
//! A donor tenant tunes a workload; a second tenant then tunes a
//! *similar* workload cold vs. warm-started from the donor's history.
//! The warm start should converge in fewer executions. A third case
//! warm-starts from a *dissimilar* workload to exercise the
//! negative-transfer guard (Ge et al. \[17\]): the guard must keep the
//! dissimilar donation from making things worse than cold start.
//!
//! Run with: `cargo run --release -p bench --bin exp_transfer`

use bench::{print_table, write_json};
use seamless_core::transfer::TransferTuner;
use seamless_core::tuner::{best_so_far, TunerKind, TuningSession};
use seamless_core::{DiscObjective, Observation, SimEnvironment};
use serde::Serialize;
use simcluster::ClusterSpec;
use workloads::{DataScale, Pagerank, Terasort, Wordcount, Workload};

const BUDGET: usize = 25;
const REPEATS: u64 = 10;

#[derive(Debug, Serialize)]
struct TransferRow {
    setting: String,
    best_runtime_s: f64,
    best_at_8_evals: f64,
    evals_to_within_15pct: Option<usize>,
}

/// Tunes the donor and returns its history as donated observations.
fn donor_history(seed: u64) -> Vec<Observation> {
    let obj = DiscObjective::new(
        ClusterSpec::table1_testbed(),
        Pagerank::with_iterations(4).job(DataScale::Small),
        &SimEnvironment::dedicated(seed),
    );
    let session = TuningSession::new(TunerKind::BayesOpt, seed);
    session.run(&obj, 30).history
}

/// A "donation" from a totally different workload (scan-bound, whose
/// optimum prefers small memory / high parallelism trade-offs that
/// mislead a cache-bound iterative job).
fn dissimilar_history(seed: u64) -> Vec<Observation> {
    let obj = DiscObjective::new(
        ClusterSpec::table1_testbed(),
        Wordcount::new().job(DataScale::Tiny),
        &SimEnvironment::dedicated(seed),
    );
    let session = TuningSession::new(TunerKind::BayesOpt, seed);
    session.run(&obj, 30).history
}

fn mean_curve(settings: &str, donor: Option<Vec<Observation>>) -> Vec<f64> {
    let _ = settings;
    let mut mean = vec![0.0f64; BUDGET];
    for rep in 0..REPEATS {
        let obj = DiscObjective::new(
            ClusterSpec::table1_testbed(),
            Pagerank::new().job(DataScale::Small),
            &SimEnvironment::dedicated(900 + rep),
        );
        let session = match &donor {
            None => TuningSession::new(TunerKind::BayesOpt, 40 + rep),
            Some(d) => TuningSession::with_tuner(
                Box::new(TransferTuner::new(TunerKind::BayesOpt.build(), d.clone())),
                40 + rep,
            ),
        };
        let outcome = session.run(&obj, BUDGET);
        for (i, b) in best_so_far(&outcome.history).iter().enumerate() {
            mean[i] += b / REPEATS as f64;
        }
    }
    mean
}

fn main() {
    println!("E8: transfer learning across workloads ({REPEATS} repeats, budget {BUDGET})\n");

    // Target: Pagerank (5 iters). Donor: Pagerank (4 iters) — similar.
    // Dissimilar donor: tiny Wordcount.
    let similar = donor_history(70);
    let dissimilar = dissimilar_history(71);
    let _ = Terasort::new(); // (kept for symmetry with DESIGN.md's workload table)

    let settings: Vec<(&str, Option<Vec<Observation>>)> = vec![
        ("cold-start", None),
        ("warm (similar donor)", Some(similar)),
        ("warm (dissimilar donor, guarded)", Some(dissimilar)),
    ];

    let mut curves = Vec::new();
    for (name, donor) in settings {
        curves.push((name, mean_curve(name, donor)));
    }

    let global_best = curves
        .iter()
        .map(|(_, c)| *c.last().expect("non-empty"))
        .fold(f64::INFINITY, f64::min);
    let target = global_best * 1.15;

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (name, curve) in &curves {
        let within = curve.iter().position(|&b| b <= target).map(|i| i + 1);
        rows.push(vec![
            (*name).to_owned(),
            format!("{:.1}", curve.last().expect("non-empty")),
            format!("{:.1}", curve[7]),
            within.map_or(format!(">{BUDGET}"), |n| n.to_string()),
        ]);
        json.push(TransferRow {
            setting: (*name).to_owned(),
            best_runtime_s: *curve.last().expect("non-empty"),
            best_at_8_evals: curve[7],
            evals_to_within_15pct: within,
        });
    }
    print_table(
        &[
            "setting",
            "best(s)",
            "best after 8 execs(s)",
            "execs to within 15%",
        ],
        &rows,
    );

    let cold = &json[0];
    let warm = &json[1];
    let guarded = &json[2];
    println!("\nshape checks:");
    println!(
        "  similar-donor warm start is ahead early (after 8 execs): {:.1}s vs {:.1}s -> {}",
        warm.best_at_8_evals,
        cold.best_at_8_evals,
        warm.best_at_8_evals <= cold.best_at_8_evals
    );
    println!(
        "  guard keeps dissimilar donation from ending worse than cold start: {:.1}s vs {:.1}s -> {}",
        guarded.best_runtime_s,
        cold.best_runtime_s,
        guarded.best_runtime_s <= cold.best_runtime_s * 1.25
    );

    write_json("exp_transfer", &json);
}
