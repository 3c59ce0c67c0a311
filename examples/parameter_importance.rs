//! §V-A: models that can transfer their tuning knowledge must expose
//! *which* parameters matter. This example tunes two workloads with
//! different bottlenecks, then extracts parameter-importance rankings
//! with the additive-GP decomposition (Duvenaud et al.) and
//! random-forest permutation importance — showing the rankings differ
//! between workloads, which is exactly the knowledge worth
//! transferring.
//!
//! Run with: `cargo run --release --example parameter_importance`

use rand::rngs::StdRng;
use rand::SeedableRng;

use seamless_tuning::core::{additive_effects, permutation_importance};
use seamless_tuning::prelude::*;

fn history_for(workload: &dyn Workload, seed: u64) -> Vec<Observation> {
    let objective = DiscObjective::new(
        ClusterSpec::table1_testbed(),
        workload.job(DataScale::Small),
        &SimEnvironment::dedicated(seed),
    );
    let session = TuningSession::new(TunerKind::Lhs, seed);
    session.run(&objective, 60).history
}

fn main() {
    let space = spark_space();
    for w in [
        Box::new(Pagerank::new()) as Box<dyn Workload>,
        Box::new(Wordcount::new()),
    ] {
        println!("== {} ==", w.name());
        let history = history_for(w.as_ref(), 7);

        let additive = additive_effects(&space, &history);
        println!("  additive-GP top-5 parameters:");
        for e in additive.effects.iter().take(5) {
            println!("    {:<42} leverage {:.3}", e.name, e.leverage);
        }

        let mut rng = StdRng::seed_from_u64(11);
        let forest = permutation_importance(&space, &history, &mut rng);
        println!("  forest permutation-importance top-5:");
        for e in forest.effects.iter().take(5) {
            println!("    {:<42} importance {:.3}", e.name, e.leverage);
        }

        // Show one effect curve: how the top parameter shapes runtime.
        let top = &additive.effects[0];
        println!(
            "  effect curve of `{}` (encoded value -> ln runtime):",
            top.name
        );
        for (x, m) in &top.curve {
            let bar = "#".repeat(
                ((m - top.curve.iter().map(|c| c.1).fold(f64::INFINITY, f64::min)) * 30.0
                    / top.leverage.max(1e-9)) as usize,
            );
            println!("    {x:.2}  {m:7.3}  {bar}");
        }
        println!();
    }
}
