//! The paper's §IV-B scenario: a recurring workload whose input keeps
//! growing (DS1 → DS2 → DS3). A managed execution detects the change
//! and re-tunes automatically; a static deployment keeps the stale
//! configuration.
//!
//! Run with: `cargo run --release --example evolving_input`

use seamless_tuning::prelude::*;

fn main() {
    let cluster = ClusterSpec::table1_testbed();
    let scales = [DataScale::Ds1, DataScale::Ds2, DataScale::Ds3];
    let env = SimEnvironment::dedicated(5);

    // Tune once at DS1.
    let obj = DiscObjective::new(cluster.clone(), Pagerank::new().job(DataScale::Ds1), &env);
    let session = TuningSession::new(TunerKind::BayesOpt, 9);
    let tuned_at_ds1 = session
        .run(&obj, 20)
        .best_config()
        .cloned()
        .expect("DS1 tuning found a working configuration");

    // Managed execution: starts from the DS1-tuned config and watches
    // for drift while the input evolves.
    let mut managed = ManagedWorkload::new(
        cluster.clone(),
        Pagerank::new().job(DataScale::Ds1),
        tuned_at_ds1.clone(),
        ServiceConfig {
            retune_budget: 12,
            ..ServiceConfig::default()
        },
        &env,
        77,
    );

    // Static deployment: same starting config, never re-tuned.
    let mut static_obj = DiscObjective::new(cluster, Pagerank::new().job(DataScale::Ds1), &env);

    println!(
        "{:<8} {:>12} {:>12} {:>10}",
        "scale", "managed(s)", "static(s)", "retuned?"
    );
    for scale in scales {
        managed.set_job(Pagerank::new().job(scale));
        static_obj.set_job(Pagerank::new().job(scale));
        let mut managed_total = 0.0;
        let mut static_total = 0.0;
        let mut retuned = false;
        let runs = 6;
        for _ in 0..runs {
            let (obs, spent) = managed.run_once();
            managed_total += obs.runtime_s;
            retuned |= spent > 0;
            let seed = trial_seed(env.seed, managed.runs() as u64);
            static_total += static_obj.evaluate(&tuned_at_ds1, seed).runtime_s;
        }
        println!(
            "{:<8} {:>12.1} {:>12.1} {:>10}",
            scale.label(),
            managed_total / runs as f64,
            static_total / runs as f64,
            if retuned { "yes" } else { "no" }
        );
    }
    println!(
        "\nre-tunings triggered: {:?}",
        managed
            .retunings
            .iter()
            .map(|(reason, at)| format!("{reason:?}@run{at}"))
            .collect::<Vec<_>>()
    );
}
