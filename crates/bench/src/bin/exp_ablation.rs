//! **E14 — ablations** of the design choices DESIGN.md calls out for
//! the tuning service's default strategy (CherryPick-style BO):
//!
//! * kernel family (Matérn-5/2 vs squared-exponential vs additive);
//! * warm-up design size (4 / 8 / 16 Latin-hypercube samples);
//! * the Ernest analytic model's adaptivity gap: excellent on its
//!   ML-style niche (logistic regression over cluster sizes), poor on
//!   a shuffle-bound workload (§II-A's "poor adaptivity" citation).
//!
//! Run with: `cargo run --release -p bench --bin exp_ablation`

use bench::{print_table, write_json};
use models::Kernel;
use seamless_core::tuner::{bo::BayesOpt, TunerKind, TuningSession};
use seamless_core::{CloudObjective, DiscObjective, SeamlessTuner, SimEnvironment};
use serde::Serialize;
use simcluster::ClusterSpec;
use workloads::{DataScale, LogisticRegression, Pagerank, Terasort, Workload};

const BUDGET: usize = 30;
const REPEATS: u64 = 4;

#[derive(Debug, Serialize)]
struct AblationRow {
    ablation: String,
    variant: String,
    mean_best_runtime_s: f64,
}

fn bo_variant(kernel: Kernel, init: usize) -> Box<BayesOpt> {
    let mut t = BayesOpt::with_kernel(kernel);
    t.init_samples = init;
    Box::new(t)
}

fn mean_best(make: impl Fn() -> Box<BayesOpt>, job_seed: u64) -> f64 {
    let job = Pagerank::new().job(DataScale::Small);
    let mut total = 0.0;
    for rep in 0..REPEATS {
        let obj = DiscObjective::new(
            ClusterSpec::table1_testbed(),
            job.clone(),
            &SimEnvironment::dedicated(job_seed + rep),
        );
        let session = TuningSession::with_tuner(make(), 100 + rep);
        total += session.run(&obj, BUDGET).best_runtime_s();
    }
    total / REPEATS as f64
}

fn main() {
    println!("E14: ablations of the default strategy ({BUDGET} executions, {REPEATS} repeats)\n");
    let mut json = Vec::new();

    // --- Kernel family ---
    let kernels = [
        (
            "matern52",
            Kernel::Matern52 {
                length_scale: 0.4,
                variance: 1.0,
            },
        ),
        (
            "squared-exp",
            Kernel::SquaredExp {
                length_scale: 0.4,
                variance: 1.0,
            },
        ),
        (
            "additive",
            Kernel::Additive {
                length_scale: 0.3,
                variance: 1.0,
            },
        ),
    ];
    let mut rows = Vec::new();
    for (name, kernel) in kernels {
        let m = mean_best(|| bo_variant(kernel, 8), 50);
        rows.push(vec![
            "kernel".to_owned(),
            name.to_owned(),
            format!("{m:.1}"),
        ]);
        json.push(AblationRow {
            ablation: "kernel".to_owned(),
            variant: name.to_owned(),
            mean_best_runtime_s: m,
        });
    }

    // --- Warm-up design size ---
    for init in [4usize, 8, 16] {
        let m = mean_best(
            || {
                bo_variant(
                    Kernel::Matern52 {
                        length_scale: 0.4,
                        variance: 1.0,
                    },
                    init,
                )
            },
            60,
        );
        rows.push(vec![
            "init-design".to_owned(),
            format!("{init} samples"),
            format!("{m:.1}"),
        ]);
        json.push(AblationRow {
            ablation: "init-design".to_owned(),
            variant: format!("{init}"),
            mean_best_runtime_s: m,
        });
    }
    print_table(
        &[
            "ablation",
            "variant",
            "mean best runtime(s) on pagerank@small",
        ],
        &rows,
    );

    // --- Ernest's adaptivity gap (§II-A) ---
    println!("\nErnest vs BO on cloud selection, per workload class:");
    let mut rows = Vec::new();
    for (class, job) in [
        (
            "ML (its niche)",
            LogisticRegression::new().job(DataScale::Small),
        ),
        ("shuffle-bound", Terasort::new().job(DataScale::Small)),
    ] {
        let mut per_kind = Vec::new();
        for kind in [TunerKind::Ernest, TunerKind::BayesOpt] {
            let mut total = 0.0;
            for rep in 0..REPEATS {
                let obj = CloudObjective::new(
                    job.clone(),
                    SeamlessTuner::house_default(),
                    &SimEnvironment::dedicated(70 + rep),
                );
                let session = TuningSession::new(kind, 200 + rep);
                total += session.run(&obj, 14).best_runtime_s();
            }
            per_kind.push(total / REPEATS as f64);
            json.push(AblationRow {
                ablation: format!("ernest-adaptivity/{class}"),
                variant: kind.label().to_owned(),
                mean_best_runtime_s: total / REPEATS as f64,
            });
        }
        rows.push(vec![
            class.to_owned(),
            format!("{:.1}", per_kind[0]),
            format!("{:.1}", per_kind[1]),
            format!("{:.2}x", per_kind[0] / per_kind[1]),
        ]);
    }
    print_table(
        &[
            "workload class",
            "ernest best(s)",
            "bayesopt best(s)",
            "ernest/bo",
        ],
        &rows,
    );

    let ml_ratio: f64 = rows[0][3].trim_end_matches('x').parse().expect("ratio");
    let shuffle_ratio: f64 = rows[1][3].trim_end_matches('x').parse().expect("ratio");
    println!("\nshape check (Ernest's poor adaptivity outside its niche):");
    println!(
        "  ernest is relatively stronger on ML than on shuffle-bound work ({ml_ratio:.2}x vs {shuffle_ratio:.2}x): {}",
        ml_ratio <= shuffle_ratio
    );

    write_json("exp_ablation", &json);
}
