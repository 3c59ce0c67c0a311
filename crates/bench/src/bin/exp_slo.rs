//! **E9 — §IV-D**: "jobs should run within X% of the optimal runtime".
//!
//! For six tenant workloads (variants of the suite's six types) we
//! approximate each optimum with a large offline search, then measure
//! three deployment modes — provider house default, isolated
//! small-budget tuning, and the seamless service whose history has
//! already seen the *base* version of each workload from earlier
//! tenants — and report the SLO attainment curve: the fraction of
//! workloads within X% of optimal, the candidate SLO metric the paper
//! proposes. Every mode's chosen configuration is re-measured with the
//! same replica seeds, so no mode benefits from its own in-session
//! winner's-curse minimum.
//!
//! Run with: `cargo run --release -p bench --bin exp_slo`

use std::sync::Arc;

use bench::{eval_config, eval_pool, print_table, random_pool, seeds, write_json};
use confspace::spark::spark_space;
use confspace::Configuration;
use seamless_core::service::ServiceConfig;
use seamless_core::slo::{attainment_curve, SloReport};
use seamless_core::tuner::{TunerKind, TuningSession};
use seamless_core::{DiscObjective, HistoryStore, SeamlessTuner, SimEnvironment};
use serde::Serialize;
use simcluster::{ClusterSpec, InterferenceModel, JobSpec};
use workloads::DataScale;
use workloads::{BayesClassifier, KMeans, Pagerank, SqlJoin, Terasort, Wordcount, Workload};

const ISOLATED_BUDGET: usize = 12;
const MODE_SEEDS: u64 = 3;

#[derive(Debug, Serialize)]
struct SloJson {
    mode: String,
    curve: Vec<(f64, f64)>,
}

/// The earlier tenants' workloads (what the provider's history holds).
fn base_suite() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Wordcount::new()),
        Box::new(Terasort::new()),
        Box::new(Pagerank::new()),
        Box::new(BayesClassifier::new()),
        Box::new(KMeans::new()),
        Box::new(SqlJoin::new()),
    ]
}

/// The new tenants' workloads: similar-but-not-identical variants.
fn variant_suite() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Wordcount::with_combine_ratio(0.08)),
        Box::new(Terasort::new()),
        Box::new(Pagerank::with_iterations(4)),
        Box::new(BayesClassifier {
            shuffle_ratio: 0.25,
        }),
        Box::new(KMeans::with_iterations(6)),
        Box::new(SqlJoin {
            fact_fraction: 0.75,
            skew: 0.4,
        }),
    ]
}

fn main() {
    println!("E9: SLO attainment — fraction of workloads within X% of optimal\n");
    let cluster = ClusterSpec::table1_testbed();
    let space = spark_space();
    let screen = seeds(3, 2);
    let refine = seeds(0x5E, 6);

    let refined = |job: &JobSpec, cfg: &Configuration| {
        eval_config(&cluster, job, cfg, InterferenceModel::none(), &refine).mean_runtime_s
    };

    // Optimum proxy per variant workload: 150 random (screened, top-10
    // refined) plus a 60-execution BO session, all re-measured with the
    // shared refine seeds.
    let mut optima = Vec::new();
    for w in variant_suite() {
        let job = w.job(DataScale::Small);
        let pool = random_pool(&space, 150, 0x0517 + w.name().len() as u64);
        let mut screened: Vec<(f64, &Configuration)> =
            eval_pool(&cluster, &job, &pool, InterferenceModel::none(), &screen)
                .iter()
                .zip(&pool)
                .map(|(s, c)| (s.mean_runtime_s, c))
                .collect();
        screened.sort_by(|a, b| a.0.total_cmp(&b.0));
        let best_random = screened
            .iter()
            .take(10)
            .map(|(_, c)| refined(&job, c))
            .fold(f64::INFINITY, f64::min);
        let obj = DiscObjective::new(cluster.clone(), job.clone(), &SimEnvironment::dedicated(61));
        let session = TuningSession::new(TunerKind::BayesOpt, 616);
        let bo_best = session
            .run(&obj, 60)
            .best_config()
            .map(|c| refined(&job, c))
            .unwrap_or(f64::INFINITY);
        optima.push(best_random.min(bo_best));
    }

    let thresholds = [0.10, 0.25, 0.50, 1.0, 2.0];
    let mut json = Vec::new();
    let mut rows = Vec::new();

    // --- Mode A: provider house default (no tuning). ---
    let mut reports = Vec::new();
    for (w, &opt) in variant_suite().iter().zip(&optima) {
        let job = w.job(DataScale::Small);
        reports.push(SloReport {
            tuned_runtime_s: refined(&job, &SeamlessTuner::house_default()),
            optimal_runtime_s: Some(opt),
            best_similar_runtime_s: None,
            default_runtime_s: None,
        });
    }
    push_mode("house-default", &reports, &thresholds, &mut rows, &mut json);

    // --- Mode B: isolated small-budget tuning per tenant. ---
    let mut reports = Vec::new();
    for rep in 0..MODE_SEEDS {
        for (w, &opt) in variant_suite().iter().zip(&optima) {
            let job = w.job(DataScale::Small);
            let obj = DiscObjective::new(
                cluster.clone(),
                job.clone(),
                &SimEnvironment::dedicated(620 + rep),
            );
            let session = TuningSession::new(TunerKind::BayesOpt, 6260 + rep);
            let best = session
                .run(&obj, ISOLATED_BUDGET)
                .best_config()
                .map(|c| refined(&job, c))
                .unwrap_or(f64::INFINITY);
            reports.push(SloReport {
                tuned_runtime_s: best,
                optimal_runtime_s: Some(opt),
                best_similar_runtime_s: None,
                default_runtime_s: None,
            });
        }
    }
    push_mode(
        &format!("isolated BO ({ISOLATED_BUDGET} execs)"),
        &reports,
        &thresholds,
        &mut rows,
        &mut json,
    );

    // --- Mode C: the seamless service. The provider's history already
    // holds the base version of each workload (earlier tenants); the
    // new tenants tune their variants with the same budget. Stage 1 is
    // pinned to the testbed so the comparison isolates history/transfer.
    let mut reports = Vec::new();
    for rep in 0..MODE_SEEDS {
        let store = Arc::new(HistoryStore::new());
        let service = SeamlessTuner::new(
            Arc::clone(&store),
            SimEnvironment::dedicated(630 + rep),
            ServiceConfig {
                stage1_budget: 0,
                stage2_budget: ISOLATED_BUDGET,
                ..ServiceConfig::default()
            },
        );
        for (i, w) in base_suite().into_iter().enumerate() {
            let job = w.job(DataScale::Small);
            let _ = service.tune(&format!("earlier-{i}"), w.name(), &job, 700 + i as u64);
        }
        for ((i, w), &opt) in variant_suite().into_iter().enumerate().zip(&optima) {
            let job = w.job(DataScale::Small);
            let out = service.tune(&format!("tenant-{i}"), w.name(), &job, 800 + i as u64);
            reports.push(SloReport {
                tuned_runtime_s: refined(&job, &out.disc_config),
                optimal_runtime_s: Some(opt),
                best_similar_runtime_s: store.best_similar_runtime(&out.signature, 10),
                default_runtime_s: None,
            });
        }
    }
    push_mode(
        "seamless service (1st submission)",
        &reports,
        &thresholds,
        &mut rows,
        &mut json,
    );

    // --- Mode D: returning workloads (§IV: "40% of the analytics jobs
    // are recurring"). The tenant re-submits the same workload later:
    // the provider already holds its tuned configuration, so deployment
    // costs ONE validation run instead of a tuning session.
    let mut reports = Vec::new();
    for rep in 0..MODE_SEEDS {
        let store = Arc::new(HistoryStore::new());
        let service = SeamlessTuner::new(
            Arc::clone(&store),
            SimEnvironment::dedicated(630 + rep),
            ServiceConfig {
                stage1_budget: 0,
                stage2_budget: ISOLATED_BUDGET,
                ..ServiceConfig::default()
            },
        );
        for ((i, w), &opt) in variant_suite().into_iter().enumerate().zip(&optima) {
            let job = w.job(DataScale::Small);
            // First submission: full tuning, recorded in the history.
            let _ = service.tune(&format!("tenant-{i}"), w.name(), &job, 800 + i as u64);
            // Re-submission: the provider replays its best recorded
            // configuration for this tenant's workload (1 validation).
            let best = store
                .for_workload(&format!("tenant-{i}"), w.name())
                .into_iter()
                .min_by(|a, b| a.runtime_s.total_cmp(&b.runtime_s))
                .expect("history holds the first submission");
            reports.push(SloReport {
                tuned_runtime_s: refined(&job, &best.config),
                optimal_runtime_s: Some(opt),
                best_similar_runtime_s: None,
                default_runtime_s: None,
            });
        }
    }
    push_mode(
        "seamless service (recurring, 1 run)",
        &reports,
        &thresholds,
        &mut rows,
        &mut json,
    );

    let headers: Vec<String> = std::iter::once("mode".to_owned())
        .chain(
            thresholds
                .iter()
                .map(|t| format!("within {:.0}%", t * 100.0)),
        )
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(&header_refs, &rows);

    println!("\nshape checks:");
    let dflt = &json[0].curve;
    let iso = &json[1].curve;
    let svc = &json[2].curve;
    let recurring = &json[3].curve;
    println!(
        "  the service dominates house defaults at every threshold: {}",
        dflt.iter().zip(svc).all(|(d, s)| s.1 >= d.1)
    );
    let mean = |c: &Vec<(f64, f64)>| c.iter().map(|p| p.1).sum::<f64>() / c.len() as f64;
    println!(
        "  at equal budget the service is in the same league as isolated tuning (mean attainment {:.2} vs {:.2}; §V-B transfer across *different* workloads is an open challenge): {}",
        mean(svc),
        mean(iso),
        mean(svc) >= mean(iso) - 0.20
    );
    println!(
        "  recurring workloads reach tuned-level SLO attainment for ONE validation run (mean {:.2} vs isolated {:.2} at {}x the executions): {}",
        mean(recurring),
        mean(iso),
        ISOLATED_BUDGET,
        mean(recurring) >= mean(iso) - 0.05
    );

    write_json("exp_slo", &json);
}

fn push_mode(
    name: &str,
    reports: &[SloReport],
    thresholds: &[f64],
    rows: &mut Vec<Vec<String>>,
    json: &mut Vec<SloJson>,
) {
    let curve = attainment_curve(reports, thresholds);
    rows.push(
        std::iter::once(name.to_owned())
            .chain(curve.iter().map(|(_, f)| format!("{:.0}%", 100.0 * f)))
            .collect(),
    );
    json.push(SloJson {
        mode: name.to_owned(),
        curve,
    });
}
