//! **E6 — §IV-C's amortization argument**: "the BestConfig system
//! requires 500 execution samples to identify a good Spark
//! configuration, and this would consume more resources than the 90
//! 'normal' runs of our exemplar workload during a 3 months period."
//!
//! For each strategy we tune the exemplar (Pagerank @ DS1) and build
//! the amortization ledger: tuning spend, per-run saving vs. the
//! house-default baseline, runs to break even, and whether the spend
//! amortizes within the paper's 90-run lifetime. BestConfig is run at
//! its published 500-execution budget; the others at 30.
//!
//! Run with: `cargo run --release -p bench --bin exp_amortization`

use bench::{print_table, write_json};
use seamless_core::slo::AmortizationLedger;
use seamless_core::tuner::{TunerKind, TuningSession};
use seamless_core::{DiscObjective, Objective, SeamlessTuner, SimEnvironment};
use serde::Serialize;
use simcluster::ClusterSpec;
use workloads::{DataScale, Pagerank, Workload};

const LIFETIME_RUNS: f64 = 90.0; // the paper's 3-month exemplar

#[derive(Debug, Serialize)]
struct AmortRow {
    tuner: String,
    budget: usize,
    tuning_cost_usd: f64,
    tuned_run_cost_usd: f64,
    baseline_run_cost_usd: f64,
    runs_to_break_even: Option<f64>,
    amortizes_in_90_runs: bool,
    net_after_90_runs_usd: f64,
}

fn main() {
    println!("E6: does tuning pay for itself within 90 production runs?\n");
    let cluster = ClusterSpec::table1_testbed();
    let job = Pagerank::new().job(DataScale::Ds1);

    // Baseline: the provider's house default.
    let base_obj = DiscObjective::new(cluster.clone(), job.clone(), &SimEnvironment::dedicated(50));
    let baseline = base_obj.evaluate(&SeamlessTuner::house_default(), 50);
    println!(
        "baseline (house default): {:.1}s, ${:.3} per run\n",
        baseline.runtime_s, baseline.cost_usd
    );

    let plans: Vec<(TunerKind, usize)> = vec![
        (TunerKind::BayesOpt, 30),
        (TunerKind::AdditiveBayesOpt, 30),
        (TunerKind::Genetic, 30),
        (TunerKind::HillClimb, 30),
        (TunerKind::Random, 30),
        (TunerKind::BestConfig, 500), // the paper's cited budget
    ];

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (kind, budget) in plans {
        let obj = DiscObjective::new(cluster.clone(), job.clone(), &SimEnvironment::dedicated(51));
        let session = TuningSession::new(kind, 4321);
        let outcome = session.run(&obj, budget);
        let tuned_cost = outcome.best().map_or(baseline.cost_usd, |o| o.cost_usd);
        let ledger = AmortizationLedger {
            tuning_cost_usd: outcome.total_cost_usd(),
            baseline_run_cost_usd: baseline.cost_usd,
            tuned_run_cost_usd: tuned_cost,
        };
        rows.push(vec![
            format!("{kind}"),
            budget.to_string(),
            format!("{:.2}", ledger.tuning_cost_usd),
            format!("{:.3}", ledger.tuned_run_cost_usd),
            ledger
                .runs_to_break_even()
                .map_or("never".to_owned(), |r| format!("{r:.0}")),
            if ledger.amortizes_within(LIFETIME_RUNS) {
                "yes"
            } else {
                "NO"
            }
            .to_owned(),
            format!("{:+.2}", ledger.net_saving_after(LIFETIME_RUNS)),
        ]);
        json.push(AmortRow {
            tuner: kind.label().to_owned(),
            budget,
            tuning_cost_usd: ledger.tuning_cost_usd,
            tuned_run_cost_usd: ledger.tuned_run_cost_usd,
            baseline_run_cost_usd: ledger.baseline_run_cost_usd,
            runs_to_break_even: ledger.runs_to_break_even(),
            amortizes_in_90_runs: ledger.amortizes_within(LIFETIME_RUNS),
            net_after_90_runs_usd: ledger.net_saving_after(LIFETIME_RUNS),
        });
    }

    print_table(
        &[
            "tuner",
            "budget",
            "tuning cost($)",
            "run cost($)",
            "break-even runs",
            "amortizes in 90?",
            "net after 90 ($)",
        ],
        &rows,
    );

    let bo = json.iter().find(|r| r.tuner == "bayesopt").expect("bo row");
    let bc = json
        .iter()
        .find(|r| r.tuner == "bestconfig")
        .expect("bc row");
    println!("\nshape checks:");
    println!(
        "  bestconfig@500 spends far more on tuning than bayesopt@30: ${:.2} vs ${:.2} -> {}",
        bc.tuning_cost_usd,
        bo.tuning_cost_usd,
        bc.tuning_cost_usd > 5.0 * bo.tuning_cost_usd
    );
    println!(
        "  bayesopt amortizes within the 90-run lifetime: {}",
        bo.amortizes_in_90_runs
    );

    write_json("exp_amortization", &json);
}
