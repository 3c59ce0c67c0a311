//! Layer-attributed end-to-end benchmark of the seamless tuning service.
//!
//! Each run restores the provider's service from a warm execution
//! history (the set-up), then serves a population of tenant tuning
//! requests, pass after pass, until `--seconds` have elapsed and every
//! population has been served at least once. Every tune runs the
//! paper's full pipeline: probe, stage-1 cloud tuning (budget 10),
//! transfer from similar tenants (k = 3) and stage-2 Spark tuning
//! (budget 20), with BayesOpt in both stages.
//!
//! Workloads (all closed loop: one client submits the next request when
//! the previous one returns):
//!
//! * `tenant_stream` — one tenant at a time at batch 1: a surrogate fit
//!   per proposal, so the model layer, the strategy and the simulator
//!   dominate.
//! * `batch_wave` — the same tenants in waves of seven through
//!   `tune_many` at batch 8 on every core: the executor, the thread
//!   fan-out and the sharded history under concurrent inserts carry the
//!   load.
//! * `chaos_stream` — `tenant_stream` with the default chaos fault mix
//!   injected and a one-hour trial deadline: the resilient executor
//!   (retries, censoring, quarantine) is on every trial's path.
//!
//! With `--trace 0` it reports the end-to-end metrics; with
//! `--trace 1` it installs an event sink and reports per-layer self
//! time (from the program's own spans), per-layer work counts (from
//! registry counter deltas) and the traced tune latency. Every time it
//! reports is rescaled to a nominal machine speed (see [`calib`]); the
//! traced run also reports the reference time it rescaled by. The last
//! line of standard output is one JSON object.
//!
//! Run: `cargo run --release --manifest-path e2ebench/Cargo.toml --
//! --workload tenant_stream --seed 1 --seconds 20 --trace 0`

mod calib;
mod layers;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use seamless_core::objective::SimEnvironment;
use seamless_core::{
    FaultInjector, FaultPlan, HistoryStore, RetryPolicy, SeamlessTuner, ServiceConfig,
    ServiceOutcome, TenantRequest, TunerKind,
};
use workloads::{all_workloads, DataScale};

/// Input sizes of a tenant population: every workload at each.
const SCALES: [DataScale; 3] = [DataScale::Small, DataScale::Ds1, DataScale::Ds2];
/// Distinct tenant populations a run cycles through, one per pass. The
/// tuning-quality metrics cover the first pass of each, so that a
/// handful of unlucky tunes moves them little.
const VARIANTS: usize = 8;
/// Tenants per `tune_many` wave in `batch_wave`.
const WAVE: usize = 7;

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    TenantStream,
    BatchWave,
    ChaosStream,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "tenant_stream" => Some(Workload::TenantStream),
            "batch_wave" => Some(Workload::BatchWave),
            "chaos_stream" => Some(Workload::ChaosStream),
            _ => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// SplitMix64: the benchmark's own input generator, independent of the
/// program's RNGs.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One tenant per (workload, scale), each input size jittered ±20%, in
/// a seed-shuffled order that keeps one tenant of every workload in
/// each consecutive group of seven. `tag` keeps client names of the
/// warm corpus apart from those of the measured tenants, so transfer
/// may draw on the whole corpus.
fn tenants(rng: &mut Mix, tag: &str) -> Vec<TenantRequest> {
    let workloads = all_workloads();
    let mut out = Vec::with_capacity(workloads.len() * SCALES.len());
    for (g, scale) in SCALES.iter().enumerate() {
        let mut group: Vec<TenantRequest> = workloads
            .iter()
            .map(|w| {
                let mb = scale.input_mb() * (0.8 + 0.4 * rng.unit());
                TenantRequest {
                    client: format!("{tag}-{}-{g}", w.name()),
                    workload: w.name().to_owned(),
                    job: w.job(DataScale::Custom(mb)),
                    seed: rng.next() >> 16,
                }
            })
            .collect();
        for i in (1..group.len()).rev() {
            group.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        out.extend(group);
    }
    out
}

fn service_config(workload: Workload, chaos_seed: u64) -> ServiceConfig {
    let base = ServiceConfig {
        tuner: TunerKind::BayesOpt,
        stage1_budget: 10,
        stage2_budget: 20,
        transfer_k: 3,
        batch: 1,
        ..ServiceConfig::default()
    };
    match workload {
        Workload::TenantStream => base,
        Workload::BatchWave => ServiceConfig { batch: 8, ..base },
        Workload::ChaosStream => ServiceConfig {
            retry: Some(RetryPolicy {
                trial_deadline_s: 3600.0,
                ..RetryPolicy::default()
            }),
            chaos: Some(FaultInjector::new(chaos_seed, FaultPlan::chaos())),
            ..base
        },
    }
}

/// The warm history every pass restores: one earlier tune of every
/// corpus tenant, run one after another (so record order is
/// deterministic) with transfer off.
fn warm_corpus(corpus: &[TenantRequest], env_seed: u64) -> String {
    let svc = SeamlessTuner::new(
        Arc::new(HistoryStore::new()),
        SimEnvironment::dedicated(env_seed),
        ServiceConfig {
            transfer_k: 0,
            batch: 8,
            ..service_config(Workload::TenantStream, 0)
        },
    );
    for r in corpus {
        svc.tune(&r.client, &r.workload, &r.job, r.seed);
    }
    svc.store().to_jsonl().expect("history serializes")
}

/// Checks the invariants every service outcome must hold; returns the
/// first one violated.
fn check(out: &ServiceOutcome, cfg: &ServiceConfig) -> Result<(), String> {
    let best = out.best_runtime_s;
    if !(best.is_finite() && best > 0.0) {
        return Err(format!("best runtime {best} is not a positive number"));
    }
    confspace::cloud::cloud_space()
        .validate(&out.cloud_config)
        .map_err(|e| format!("cloud config invalid: {e}"))?;
    confspace::spark::spark_space()
        .validate(&out.disc_config)
        .map_err(|e| format!("spark config invalid: {e}"))?;
    let (n1, n2) = (out.stage1.history.len(), out.stage2.history.len());
    let resilient = cfg.is_resilient();
    if n1 > cfg.stage1_budget || (!resilient && n1 != cfg.stage1_budget) {
        return Err(format!(
            "stage 1 ran {n1} trials on budget {}",
            cfg.stage1_budget
        ));
    }
    if n2 == 0 || n2 > cfg.stage2_budget || (!resilient && n2 != cfg.stage2_budget) {
        return Err(format!(
            "stage 2 ran {n2} trials on budget {}",
            cfg.stage2_budget
        ));
    }
    let min_ok = out
        .stage2
        .history
        .iter()
        .filter(|o| o.is_ok())
        .map(|o| o.runtime_s)
        .fold(f64::INFINITY, f64::min);
    if min_ok.to_bits() != best.to_bits() {
        return Err(format!(
            "best runtime {best} is not the stage-2 minimum {min_ok}"
        ));
    }
    if resilient {
        // Stage 2's last entry is the house-default incumbent, which
        // runs outside the executor.
        for (stage, n) in [(&out.stage1, n1), (&out.stage2, n2 - 1)] {
            let d = stage
                .degradation
                .as_ref()
                .ok_or("resilient stage without a degradation report")?;
            let covered = d.completed + d.failed + d.timed_out;
            if covered != n {
                return Err(format!("degradation report covers {covered} of {n} trials"));
            }
        }
    }
    match out.slo.default_runtime_s {
        Some(d) if d.is_finite() && d > 0.0 => Ok(()),
        other => Err(format!("probe default runtime {other:?}")),
    }
}

/// What must repeat exactly when the same request is tuned again on a
/// freshly restored service.
fn fingerprint(out: &ServiceOutcome) -> (u64, String, String) {
    (
        out.best_runtime_s.to_bits(),
        out.cloud_config.to_string(),
        out.disc_config.to_string(),
    )
}

/// CPU time used by this process so far, user plus system over all its
/// threads (exited ones included), in Linux's fixed 10 ms clock ticks.
/// Time a hypervisor steals from the machine is not charged to it.
fn cpu_ticks() -> Result<u64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // utime and stime are fields 14 and 15; counting starts again after
    // the parenthesised command name, which may hold spaces.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let field = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_owned())
    };
    Ok(field(11)? + field(12)?)
}

/// Linear-interpolated quantile of `v` (sorted in place).
fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The reference workload's time right now on one thread and on
/// `threads` threads (one measurement when `threads` is 1).
fn reference(threads: usize) -> (f64, f64) {
    let core_ms = calib::reference_ms(1);
    let all_ms = if threads > 1 {
        calib::reference_ms(threads)
    } else {
        core_ms
    };
    (core_ms, all_ms)
}

fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

#[derive(Default)]
struct Run {
    /// Set-up times, request latencies and the CPU time spent serving
    /// requests, each rescaled to the nominal machine speed of
    /// [`calib::NOMINAL_MS`].
    setup_s: Vec<f64>,
    latency_ms: Vec<f64>,
    cpu_ms: f64,
    /// Wall time spent serving requests, as measured.
    busy_s: f64,
    /// The one-thread reference workload's time around each pass.
    reference_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Per tune of the first pass over each variant: tuned runtime over
    /// the house default's, and dollars spent tuning.
    tuned_vs_default: Vec<f64>,
    cost_usd: Vec<f64>,
    passes: usize,
    layers: Metrics,
}

fn run(args: &Args) -> Result<Run, String> {
    let mut rng = Mix(args.seed ^ 0x5EED_BE4C);
    let env_seed = rng.next() >> 32;
    let corpus = tenants(&mut rng, "prior");
    let variants: Vec<Vec<TenantRequest>> =
        (0..VARIANTS).map(|_| tenants(&mut rng, "tenant")).collect();
    let cfg = service_config(args.workload, rng.next());
    let history = warm_corpus(&corpus, env_seed);

    let sink = args.trace.then(|| {
        let sink = layers::LayerSink::new();
        obs::install(Arc::clone(&sink) as Arc<dyn obs::Sink>);
        sink
    });
    let mut counts = layers::Counters::default();
    let threads = match args.workload {
        Workload::BatchWave => models::par::num_threads(),
        Workload::TenantStream | Workload::ChaosStream => 1,
    };

    let mut r = Run::default();
    let mut fingerprints: Vec<Vec<(u64, String, String)>> = vec![Vec::new(); VARIANTS];
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    loop {
        let variant = r.passes % VARIANTS;
        let requests = &variants[variant];

        let reference_before = reference(threads);
        // Set-up: restore the service from its durable history.
        let t = Instant::now();
        let store = HistoryStore::from_jsonl(std::hint::black_box(&history))
            .map_err(|e| format!("warm history does not load: {e}"))?;
        let svc = SeamlessTuner::new(Arc::new(store), SimEnvironment::dedicated(env_seed), cfg);
        let setup_s = t.elapsed().as_secs_f64();

        let mut outcomes = Vec::with_capacity(requests.len());
        let mut latency_ms = Vec::with_capacity(requests.len());
        let counts_before = layers::Counters::read();
        let cpu_before = cpu_ticks()?;
        let pass_start = Instant::now();
        match args.workload {
            Workload::TenantStream | Workload::ChaosStream => {
                for req in requests {
                    let t = Instant::now();
                    outcomes.push(svc.tune(&req.client, &req.workload, &req.job, req.seed));
                    latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
            }
            Workload::BatchWave => {
                for wave in requests.chunks(WAVE) {
                    let t = Instant::now();
                    let outs = svc.tune_many(wave);
                    // Every tenant of a wave waits for the whole wave.
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    latency_ms.extend(std::iter::repeat_n(ms, outs.len()));
                    outcomes.extend(outs);
                }
            }
        }
        r.busy_s += pass_start.elapsed().as_secs_f64();
        let cpu_ms = (cpu_ticks()? - cpu_before) as f64 * 10.0;
        counts.add_since(&counts_before);

        // Rescale this pass's timings by how fast the machine ran it:
        // work on one core by the one-thread reference, latencies by
        // the reference on as many threads as the workload uses.
        let reference_after = reference(threads);
        let core_ms = (reference_before.0 + reference_after.0) / 2.0;
        let all_ms = (reference_before.1 + reference_after.1) / 2.0;
        r.reference_ms.push(core_ms);
        r.setup_s.push(setup_s * calib::NOMINAL_MS / core_ms);
        r.cpu_ms += cpu_ms * calib::NOMINAL_MS / core_ms;
        let scale = calib::NOMINAL_MS / all_ms;
        r.latency_ms.extend(latency_ms.iter().map(|ms| ms * scale));

        for (i, out) in outcomes.iter().enumerate() {
            r.attempted += 1;
            let mut verdict = check(out, &cfg);
            // Sequential passes over a restored service must replay
            // bit for bit; concurrent waves with transfer on need not.
            if verdict.is_ok() && args.workload != Workload::BatchWave {
                let seen = &mut fingerprints[variant];
                if seen.len() == i {
                    seen.push(fingerprint(out));
                } else if seen[i] != fingerprint(out) {
                    verdict = Err("diverged from an earlier pass over the same tenants".into());
                }
            }
            if let Err(why) = verdict {
                r.failed += 1;
                eprintln!("e2ebench: pass {} request {i}: {why}", r.passes);
            }
            if r.passes < VARIANTS {
                let default_s = out.slo.default_runtime_s.unwrap_or(f64::NAN);
                r.tuned_vs_default.push(out.best_runtime_s / default_s);
                r.cost_usd.push(out.tuning_cost_usd());
            }
        }
        r.passes += 1;
        if r.passes >= VARIANTS && Instant::now() >= deadline {
            break;
        }
    }

    if let Some(sink) = sink {
        obs::uninstall_all();
        r.layers = layers::report(
            &sink,
            &counts,
            r.attempted,
            r.busy_s,
            median(&mut r.reference_ms),
        );
        r.layers.extend([
            ("traced_tune_ms", median(&mut r.latency_ms), "ms"),
            ("traced_tune_p90_ms", quantile(&mut r.latency_ms, 0.9), "ms"),
        ]);
    }
    Ok(r)
}

/// The end-to-end metrics of an untraced run. The latency tail is
/// reported by traced runs only: time taken from the machine in bursts
/// shorter than a pass escapes the rescaling and spreads it across runs
/// by more than any bound that would still catch a regression.
fn end_to_end(r: &mut Run) -> Metrics {
    vec![
        ("tune_ms", median(&mut r.latency_ms), "ms"),
        ("cpu_ms_per_tune", r.cpu_ms / r.attempted as f64, "ms"),
        ("tuned_vs_default", geomean(&r.tuned_vs_default), "ratio"),
        ("tuning_cost_usd", geomean(&r.cost_usd), "usd"),
        ("setup_s", median(&mut r.setup_s), "s"),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(why) => {
            eprintln!("e2ebench: {why}");
            eprintln!(
                "usage: e2ebench --workload <tenant_stream|batch_wave|chaos_stream> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut r = match run(&args) {
        Ok(r) => r,
        Err(why) => {
            eprintln!("e2ebench: {why}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = if args.trace {
        std::mem::take(&mut r.layers)
    } else {
        end_to_end(&mut r)
    };
    println!(
        "e2ebench: {} passes, {} tunes, {:.1} s serving, threads={}, cores={}",
        r.passes,
        r.attempted,
        r.busy_s,
        models::par::num_threads(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let correct = r.failed == 0 && metrics.iter().all(|(_, v, _)| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN; a non-finite value already made the run
            // incorrect.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted,
        r.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
