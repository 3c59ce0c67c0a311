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
//! `--compare <parent.jsonl> <change.jsonl>` reads two such sweeps,
//! pairs their lines by seed within each arm, and prints one JSON line
//! per arm: the mean, sd and standard error of the paired differences
//! (change minus parent) of `ln tuned_vs_default`, `ln tuning_cost_usd`
//! and `crashed_stage2_per_tune`.
//!
//! Run with: `cargo run --release -p bench --bin service_sweep -- --seeds 10`,
//! or `... -- --compare parent.jsonl change.jsonl`.

use std::collections::BTreeMap;
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

/// What the command line asks for.
enum Mode {
    /// Sweep seeds `1..=n`.
    Sweep(u64),
    /// Pair two sweeps' lines: (parent file, change file).
    Compare(String, String),
}

fn parse_args() -> Result<Mode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => Ok(Mode::Sweep(10)),
        [flag, n] if flag == "--seeds" => match n.parse::<u64>() {
            Ok(n) if n > 0 => Ok(Mode::Sweep(n)),
            _ => Err(format!("bad --seeds {n} (a positive count)")),
        },
        [flag, parent, change] if flag == "--compare" => {
            Ok(Mode::Compare(parent.clone(), change.clone()))
        }
        _ => Err(
            "usage: service_sweep [--seeds <n>] | --compare <parent.jsonl> <change.jsonl>"
                .to_owned(),
        ),
    }
}

fn main() -> ExitCode {
    let result = match parse_args() {
        Ok(Mode::Sweep(seeds)) => {
            sweep(seeds);
            Ok(())
        }
        Ok(Mode::Compare(parent, change)) => compare(&parent, &change),
        Err(why) => Err(why),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("service_sweep: {why}");
            ExitCode::FAILURE
        }
    }
}

fn sweep(seeds: u64) {
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
}

/// The per-seed fields `--compare` pairs, and whether each is compared
/// as a log-ratio (`true`) or a plain difference.
const COMPARED: [(&str, bool); 3] = [
    ("tuned_vs_default", true),
    ("tuning_cost_usd", true),
    ("crashed_stage2_per_tune", false),
];

/// A sweep's per-seed lines: (seed, transfer_k) → the [`COMPARED`]
/// fields. Arm summary lines carry no seed and are skipped.
fn read_sweep(path: &str) -> Result<BTreeMap<(u64, u64), [f64; 3]>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut lines = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = format!("{path}:{}", n + 1);
        let v: serde::Value = serde_json::from_str(line).map_err(|e| format!("{at}: {e}"))?;
        if v.get("seed").is_none() {
            continue;
        }
        let num = |key: &str| {
            v.get(key)
                .and_then(serde::Value::as_f64)
                .ok_or_else(|| format!("{at}: no number `{key}`"))
        };
        let key = (num("seed")? as u64, num("transfer_k")? as u64);
        let fields = [
            num(COMPARED[0].0)?,
            num(COMPARED[1].0)?,
            num(COMPARED[2].0)?,
        ];
        if lines.insert(key, fields).is_some() {
            return Err(format!("{at}: seed {} arm {} appears twice", key.0, key.1));
        }
    }
    Ok(lines)
}

/// Mean, sample sd and standard error of `xs`; the sd and se are NaN
/// below two values.
fn paired_stats(xs: &[f64]) -> [f64; 3] {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let sd = (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)).sqrt();
    [mean, sd, sd / n.sqrt()]
}

/// A JSON number, or `null` when it is not finite.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_owned()
    }
}

fn compare(parent: &str, change: &str) -> Result<(), String> {
    let (before, after) = (read_sweep(parent)?, read_sweep(change)?);
    for &transfer_k in &ARMS {
        let pairs: Vec<(&[f64; 3], &[f64; 3])> = before
            .iter()
            .filter(|((_, arm), _)| *arm == transfer_k as u64)
            .filter_map(|(key, b)| after.get(key).map(|a| (b, a)))
            .collect();
        if pairs.is_empty() {
            return Err(format!(
                "no seed of arm transfer_k={transfer_k} is in both files"
            ));
        }
        let fields: Vec<String> = COMPARED
            .iter()
            .enumerate()
            .map(|(f, &(name, log))| {
                let diffs: Vec<f64> = pairs
                    .iter()
                    .map(|(b, a)| if log { (a[f] / b[f]).ln() } else { a[f] - b[f] })
                    .collect();
                let [mean, sd, se] = paired_stats(&diffs);
                format!(
                    "\"{}{name}\": {{\"mean\": {}, \"sd\": {}, \"se\": {}}}",
                    if log { "log_ratio_" } else { "diff_" },
                    json_num(mean),
                    json_num(sd),
                    json_num(se)
                )
            })
            .collect();
        println!(
            "{{\"transfer_k\": {transfer_k}, \"pairs\": {}, {}}}",
            pairs.len(),
            fields.join(", ")
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_stats_are_mean_sample_sd_and_se() {
        let [mean, sd, se] = paired_stats(&[1.0, 2.0, 3.0, 6.0]);
        assert_eq!(mean, 3.0);
        assert!((sd - (14.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert!((se - sd / 2.0).abs() < 1e-12);
        let [mean, sd, _] = paired_stats(&[0.25]);
        assert_eq!(mean, 0.25);
        assert!(sd.is_nan());
    }
}
