//! Paired quality sweep of the tuning service across seeds.
//!
//! For each seed in `1..=N` it builds a population shaped like the
//! end-to-end benchmark's: one tenant per workload at each of the Small,
//! DS1 and DS2 scales, input sizes jittered ±20%, in a seed-shuffled
//! order. It warms a history store with an earlier tune of a second
//! such population (transfer off), then tunes the measured population
//! through [`SeamlessTuner::tune`] (BayesOpt, budgets 10 + 20, batch 1)
//! once per arm: transfer from `k = 3` similar tenants, and transfer
//! off. Every arm of a seed starts from the same warm history.
//!
//! Each seed and arm prints one JSON line:
//! - `tuned_vs_default`: geomean of tuned over house-default runtime;
//! - `tuning_cost_usd`: geomean tuning dollars per tune;
//! - `crashed_stage2_per_tune`: stage-2 trials whose job crashed (or
//!   could not launch), per tune.
//!
//! Two builds of the service compare pair by pair: the same seed tunes
//! the same tenants on both. A last line per arm sums BayesOpt's
//! rescore paths and pick sources over the sweep.
//!
//! Run with: `cargo run --release -p bench --bin service_sweep -- --seeds 10`

use std::process::ExitCode;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seamless_core::{
    HistoryStore, SeamlessTuner, ServiceConfig, SimEnvironment, TenantRequest, TunerKind,
};
use workloads::{all_workloads, DataScale};

/// Input sizes of a population: every workload at each.
const SCALES: [DataScale; 3] = [DataScale::Small, DataScale::Ds1, DataScale::Ds2];
/// The transfer arms: donations per tune.
const ARMS: [usize; 2] = [3, 0];

/// One tenant per (workload, scale), each input size jittered ±20%,
/// shuffled within each scale.
fn tenants(rng: &mut StdRng, tag: &str) -> Vec<TenantRequest> {
    let workloads = all_workloads();
    let mut out = Vec::with_capacity(workloads.len() * SCALES.len());
    for (g, scale) in SCALES.iter().enumerate() {
        let mut group: Vec<TenantRequest> = workloads
            .iter()
            .map(|w| TenantRequest {
                client: format!("{tag}-{}-{g}", w.name()),
                workload: w.name().to_owned(),
                job: w.job(DataScale::Custom(
                    scale.input_mb() * (0.8 + 0.4 * rng.gen::<f64>()),
                )),
                seed: rng.gen::<u64>() >> 16,
            })
            .collect();
        for i in (1..group.len()).rev() {
            group.swap(i, rng.gen_range(0..=i));
        }
        out.extend(group);
    }
    out
}

fn config(transfer_k: usize) -> ServiceConfig {
    ServiceConfig {
        tuner: TunerKind::BayesOpt,
        stage1_budget: 10,
        stage2_budget: 20,
        transfer_k,
        batch: 1,
        ..ServiceConfig::default()
    }
}

fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The registry counters the sweep sums per arm: (output field prefix,
/// counter, label key, label value).
const COUNTERS: [(&str, &str, &str, &str); 6] = [
    ("rescore", "bo.pool.rescore", "path", "append"),
    ("rescore", "bo.pool.rescore", "path", "noise"),
    ("rescore", "bo.pool.rescore", "path", "length_scale"),
    ("rescore", "bo.pool.rescore", "path", "rebuild"),
    ("pick", "bo.pick", "source", "uniform"),
    ("pick", "bo.pick", "source", "neighbour"),
];

fn counter_values() -> Vec<u64> {
    let reg = obs::registry();
    COUNTERS
        .iter()
        .map(|&(_, name, key, value)| reg.counter(&obs::labeled(name, &[(key, value)])).get())
        .collect()
}

fn parse_seeds() -> Result<u64, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => Ok(10),
        [flag, n] if flag == "--seeds" => match n.parse::<u64>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!("bad --seeds {n} (a positive count)")),
        },
        _ => Err("usage: service_sweep [--seeds <n>]".to_owned()),
    }
}

fn main() -> ExitCode {
    let seeds = match parse_seeds() {
        Ok(n) => n,
        Err(why) => {
            eprintln!("service_sweep: {why}");
            return ExitCode::FAILURE;
        }
    };
    let mut per_arm = vec![vec![0u64; COUNTERS.len()]; ARMS.len()];
    for seed in 1..=seeds {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_5EE9);
        let env_seed = rng.gen::<u64>() >> 32;
        let corpus = tenants(&mut rng, "prior");
        let measured = tenants(&mut rng, "tenant");
        let warm = SeamlessTuner::new(
            Arc::new(HistoryStore::new()),
            SimEnvironment::dedicated(env_seed),
            config(0),
        );
        for r in &corpus {
            warm.tune(&r.client, &r.workload, &r.job, r.seed);
        }
        let history = warm.store().to_jsonl().expect("history serializes");
        for (arm, &transfer_k) in ARMS.iter().enumerate() {
            let store = HistoryStore::from_jsonl(&history).expect("warm history loads");
            let svc = SeamlessTuner::new(
                Arc::new(store),
                SimEnvironment::dedicated(env_seed),
                config(transfer_k),
            );
            let before = counter_values();
            let (mut ratio, mut cost, mut crashed) = (Vec::new(), Vec::new(), 0usize);
            for r in &measured {
                let out = svc.tune(&r.client, &r.workload, &r.job, r.seed);
                let default_s = out.slo.default_runtime_s.unwrap_or(f64::NAN);
                ratio.push(out.best_runtime_s / default_s);
                cost.push(out.tuning_cost_usd());
                crashed += out
                    .stage2
                    .history
                    .iter()
                    .filter(|o| o.failure.is_some())
                    .count();
            }
            for ((sum, now), was) in per_arm[arm].iter_mut().zip(counter_values()).zip(before) {
                *sum += now - was;
            }
            println!(
                "{{\"seed\": {seed}, \"transfer_k\": {transfer_k}, \"tenants\": {}, \
                 \"tuned_vs_default\": {:.6}, \"tuning_cost_usd\": {:.6}, \
                 \"crashed_stage2_per_tune\": {:.4}}}",
                measured.len(),
                geomean(&ratio),
                geomean(&cost),
                crashed as f64 / measured.len() as f64,
            );
        }
    }
    for (arm, &transfer_k) in ARMS.iter().enumerate() {
        let fields: Vec<String> = COUNTERS
            .iter()
            .zip(&per_arm[arm])
            .map(|(&(prefix, _, _, value), n)| format!("\"{prefix}.{value}\": {n}"))
            .collect();
        println!(
            "{{\"transfer_k\": {transfer_k}, \"seeds\": {seeds}, {}}}",
            fields.join(", ")
        );
    }
    ExitCode::SUCCESS
}
