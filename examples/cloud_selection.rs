//! Stage 1 of Fig. 1 in isolation: pick the instance family, size and
//! node count for a workload, comparing CherryPick-style BO, a
//! PARIS-style random forest, Ernest's analytic model, and random
//! search — then show the runtime-vs-cost trade-off of the winners.
//!
//! Run with: `cargo run --release --example cloud_selection`

use seamless_tuning::prelude::*;

fn main() {
    let job = Terasort::new().job(DataScale::Small);
    let disc = SeamlessTuner::house_default();
    println!("Selecting a cloud configuration for {}\n", job.name);

    let budget = 15;
    println!(
        "{:<12} {:>14} {:>9} {:>12}",
        "strategy", "cluster", "best(s)", "run cost($)"
    );
    for kind in [
        TunerKind::Random,
        TunerKind::BayesOpt,
        TunerKind::RandomForest,
        TunerKind::Ernest,
    ] {
        let objective =
            CloudObjective::new(job.clone(), disc.clone(), &SimEnvironment::dedicated(3));
        let session = TuningSession::new(kind, 11);
        let outcome = session.run(&objective, budget);
        let (cluster, cost) = outcome
            .best()
            .map(|o| {
                let c = ClusterSpec::from_config(&o.config).expect("valid cloud config");
                (c.to_string(), o.cost_usd)
            })
            .unwrap_or_else(|| ("-".to_owned(), f64::NAN));
        println!(
            "{:<12} {:>14} {:>9.1} {:>12.3}",
            kind.label(),
            cluster,
            outcome.best_runtime_s(),
            cost
        );
    }

    // The §IV-D trade-off the user should be able to express: "results
    // fast no matter the cost" vs "cheap, I can wait".
    println!("\nruntime vs cost across the catalog (4 nodes, house-default Spark config):");
    println!(
        "{:<14} {:>10} {:>12}",
        "instance", "runtime(s)", "run cost($)"
    );
    let mut rows = Vec::new();
    for inst in simcluster::catalog::all_instances() {
        let cfg = cloud_space()
            .default_configuration()
            .with("cloud.instance.family", inst.family.as_str())
            .with("cloud.instance.size", inst.size.as_str())
            .with("cloud.node.count", 4i64);
        if cloud_space().validate(&cfg).is_err() {
            continue;
        }
        let objective =
            CloudObjective::new(job.clone(), disc.clone(), &SimEnvironment::dedicated(4));
        let obs = objective.evaluate(&cfg, 4);
        if obs.is_ok() {
            rows.push((inst.name(), obs.runtime_s, obs.cost_usd));
        }
    }
    rows.sort_by(|a, b| a.2.total_cmp(&b.2));
    for (name, runtime, cost) in rows {
        println!("{name:<14} {runtime:>10.1} {cost:>12.3}");
    }
}
