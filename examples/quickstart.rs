//! Quickstart: tune a Spark workload on the paper's testbed with three
//! strategies and compare them against the default configuration.
//!
//! Run with: `cargo run --release --example quickstart`

use seamless_tuning::prelude::*;

fn main() {
    let cluster = ClusterSpec::table1_testbed();
    let job = Pagerank::new().job(DataScale::Small);
    println!("Tuning {} on {cluster}\n", job.name);

    // What an untuned deployment gets (Spark's shipped defaults).
    let probe = DiscObjective::new(cluster.clone(), job.clone(), &SimEnvironment::dedicated(1));
    let default_cfg = spark_space().default_configuration();
    let default_obs = probe.evaluate(&default_cfg, 1);
    match &default_obs.failure {
        None => println!("default configuration: {:.1}s", default_obs.runtime_s),
        Some(f) => println!("default configuration: CRASHED ({f})"),
    }

    // Three tuning strategies, 25 executions each.
    for kind in [TunerKind::Random, TunerKind::HillClimb, TunerKind::BayesOpt] {
        let objective =
            DiscObjective::new(cluster.clone(), job.clone(), &SimEnvironment::dedicated(2));
        let session = TuningSession::new(kind, 42);
        let outcome = session.run(&objective, 25);
        println!(
            "{kind:<12} best {:>8.1}s after {} executions (tuning spent ${:.2})",
            outcome.best_runtime_s(),
            outcome.history.len(),
            outcome.total_cost_usd(),
        );
    }

    // Inspect the winning configuration.
    let objective = DiscObjective::new(cluster, job, &SimEnvironment::dedicated(2));
    let session = TuningSession::new(TunerKind::BayesOpt, 42);
    let outcome = session.run(&objective, 25);
    if let Some(best) = outcome.best_config() {
        println!("\nbest configuration found:");
        for (name, value) in best.iter() {
            println!("  {name} = {value}");
        }
    }
}
