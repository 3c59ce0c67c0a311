//! `stune` — a small CLI over the seamless-tuning library.
//!
//! ```text
//! stune workloads                       list workloads
//! stune tuners                          list tuning strategies
//! stune catalog                         list the instance catalog
//! stune tune [OPTIONS]                  tune a workload
//!   --workload <name>     (default pagerank)
//!   --scale <tiny|small|ds1|ds2|ds3|<MB>>   (default small)
//!   --tuner <name>        (default bayesopt)
//!   --budget <n>          executions, >= 1 (default 20)
//!   --batch <n>           trials proposed+evaluated per round (default 1)
//!   --seed <n>            (default 42)
//!   --cluster <family.size:nodes>   (default h1.4xlarge:4)
//!   --goal <min-runtime|min-cost|deadline:<s>>  deadline finite and > 0
//!                         (default min-runtime)
//!   --chaos <seed>        inject the default chaos fault mix (10% errors,
//!                         2% hangs, 5% stragglers, 3% poisoned metrics)
//!                         with the given seed; the executor retries,
//!                         reaps and quarantines the faulty trials
//!   --metrics-addr <ip:port>   serve the metrics registry as OpenMetrics
//!                         text over HTTP for the duration of the run
//!                         (e.g. 127.0.0.1:9464; scrape with
//!                         `curl http://127.0.0.1:9464/metrics`)
//!   --flight-dump <dir>   arm the flight recorder: recent events are
//!                         kept in per-thread rings and dumped into
//!                         <dir> as Chrome-trace JSON on quarantine /
//!                         budget exhaustion, plus once at exit
//! ```

use std::collections::HashMap;
use std::process::ExitCode;

use seamless_tuning::core::goal::{GoalObjective, TuningGoal};
use seamless_tuning::obs::outln;
use seamless_tuning::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("workloads") => {
            for w in all_workloads() {
                outln!("{}", w.name());
            }
            ExitCode::SUCCESS
        }
        Some("tuners") => {
            for k in TunerKind::all() {
                outln!("{}", k.label());
            }
            ExitCode::SUCCESS
        }
        Some("catalog") => {
            outln!(
                "{:<14} {:>5} {:>8} {:>10} {:>9} {:>8}",
                "instance",
                "vcpus",
                "mem(GB)",
                "disk(MB/s)",
                "net(MB/s)",
                "$/hr"
            );
            for i in seamless_tuning::simcluster::catalog::all_instances() {
                outln!(
                    "{:<14} {:>5} {:>8} {:>10.0} {:>9.0} {:>8.3}",
                    i.name(),
                    i.vcpus,
                    i.mem_mb / 1024,
                    i.disk_mbps,
                    i.net_mbps,
                    i.price_per_hour
                );
            }
            ExitCode::SUCCESS
        }
        Some("tune") => tune(&args[1..]),
        _ => {
            eprintln!("usage: stune <workloads|tuners|catalog|tune> [options]");
            eprintln!("run `stune tune --workload pagerank --tuner bayesopt --budget 20`");
            ExitCode::FAILURE
        }
    }
}

/// The flags `stune tune` understands; any other is an error, so a
/// mistyped or retired flag cannot be silently ignored.
const TUNE_FLAGS: &[&str] = &[
    "workload",
    "scale",
    "tuner",
    "budget",
    "batch",
    "seed",
    "cluster",
    "goal",
    "chaos",
    "metrics-addr",
    "flight-dump",
];

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument `{a}`"));
        };
        if !TUNE_FLAGS.contains(&key) {
            return Err(format!("unknown flag --{key}"));
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag --{key} needs a value"))?;
        flags.insert(key.to_owned(), value.clone());
    }
    Ok(flags)
}

fn parse_scale(s: &str) -> Result<DataScale, String> {
    Ok(match s {
        "tiny" => DataScale::Tiny,
        "small" => DataScale::Small,
        "ds1" => DataScale::Ds1,
        "ds2" => DataScale::Ds2,
        "ds3" => DataScale::Ds3,
        other => {
            let mb = other
                .parse::<f64>()
                .map_err(|_| format!("unknown scale `{other}`"))?;
            if !(mb.is_finite() && mb > 0.0) {
                return Err(format!("bad scale `{other}` (must be finite and > 0 MB)"));
            }
            DataScale::Custom(mb)
        }
    })
}

fn parse_tuner(s: &str) -> Result<TunerKind, String> {
    TunerKind::all()
        .into_iter()
        .find(|k| k.label() == s)
        .ok_or_else(|| format!("unknown tuner `{s}` (see `stune tuners`)"))
}

fn parse_cluster(s: &str) -> Result<ClusterSpec, String> {
    let (inst, nodes) = s
        .split_once(':')
        .ok_or_else(|| format!("cluster must look like h1.4xlarge:4, got `{s}`"))?;
    let (family, size) = inst
        .split_once('.')
        .ok_or_else(|| format!("instance must look like h1.4xlarge, got `{inst}`"))?;
    let instance = seamless_tuning::simcluster::catalog::lookup(family, size)
        .ok_or_else(|| format!("unknown instance `{inst}` (see `stune catalog`)"))?;
    let nodes: u32 = nodes
        .parse()
        .map_err(|_| format!("bad node count `{nodes}`"))?;
    if nodes == 0 {
        return Err("node count must be positive".to_owned());
    }
    Ok(ClusterSpec::new(instance, nodes))
}

/// A positive execution count: a zero budget would run nothing and
/// report it as if every execution had crashed.
fn parse_budget(s: &str) -> Result<usize, String> {
    s.parse()
        .ok()
        .filter(|&b| b >= 1)
        .ok_or_else(|| "bad --budget (must be >= 1)".to_owned())
}

fn parse_goal(s: &str) -> Result<TuningGoal, String> {
    if let Some(deadline) = s.strip_prefix("deadline:") {
        let seconds = deadline
            .parse::<f64>()
            .ok()
            .filter(|d| d.is_finite() && *d > 0.0)
            .ok_or_else(|| format!("bad deadline `{deadline}` (must be finite and > 0)"))?;
        return Ok(TuningGoal::Deadline { seconds });
    }
    match s {
        "min-runtime" => Ok(TuningGoal::MinRuntime),
        "min-cost" => Ok(TuningGoal::MinCost),
        other => Err(format!("unknown goal `{other}`")),
    }
}

fn tune(args: &[String]) -> ExitCode {
    let run = || -> Result<(), String> {
        let flags = parse_flags(args)?;
        let get = |key: &str, default: &str| -> String {
            flags
                .get(key)
                .cloned()
                .unwrap_or_else(|| default.to_owned())
        };
        let workload_name = get("workload", "pagerank");
        let workload = workload_by_name_or_err(&workload_name)?;
        let scale = parse_scale(&get("scale", "small"))?;
        let tuner = parse_tuner(&get("tuner", "bayesopt"))?;
        let budget = parse_budget(&get("budget", "20"))?;
        let batch: usize = get("batch", "1")
            .parse()
            .ok()
            .filter(|&b| b >= 1)
            .ok_or_else(|| "bad --batch (must be >= 1)".to_owned())?;
        let seed: u64 = get("seed", "42")
            .parse()
            .map_err(|_| "bad --seed".to_owned())?;
        let cluster = parse_cluster(&get("cluster", "h1.4xlarge:4"))?;
        let goal = parse_goal(&get("goal", "min-runtime"))?;
        let chaos: Option<u64> = match flags.get("chaos") {
            None => None,
            Some(s) => Some(s.parse().map_err(|_| "bad --chaos (seed)".to_owned())?),
        };

        // Live telemetry: the scrape endpoint stays up for the whole
        // run (it is dropped — and therefore shut down — on return).
        let _metrics_server = match flags.get("metrics-addr") {
            None => None,
            Some(addr) => {
                let server = seamless_tuning::obs::MetricsServer::start(addr.as_str())
                    .map_err(|e| format!("--metrics-addr {addr}: {e}"))?;
                outln!(
                    "serving OpenMetrics on http://{}/metrics",
                    server.local_addr()
                );
                Some(server)
            }
        };
        let recorder = flags.get("flight-dump").map(|dir| {
            let recorder = seamless_tuning::obs::flightrec::install(4096, dir);
            outln!("flight recorder armed: dumps in {dir}/");
            recorder
        });

        let job = workload.job(scale);
        outln!(
            "tuning {} on {} with {} ({} executions, goal {})",
            job.name,
            cluster,
            tuner.label(),
            budget,
            goal.label()
        );

        let inner = DiscObjective::new(cluster, job, &SimEnvironment::dedicated(seed));
        let objective = GoalObjective::new(inner, goal);
        let mut session = TuningSession::new(tuner, seed ^ 0x5EED).with_batch(batch);
        if let Some(chaos_seed) = chaos {
            outln!("chaos: injecting faults with seed {chaos_seed}");
            session = session.with_resilience(
                RetryPolicy::default(),
                FaultInjector::new(chaos_seed, FaultPlan::chaos()),
            );
        }
        let outcome = session.run(&objective, budget);

        if let Some(line) = resilience_line(&outcome) {
            outln!("{line}");
        }

        match outcome.best() {
            None => outln!("no configuration survived — every execution crashed"),
            Some(best) => {
                let true_runtime = best
                    .metrics
                    .as_ref()
                    .map_or(best.runtime_s, |m| m.runtime_s);
                outln!(
                    "\nbest after {} executions: {:.1}s (${:.4}/run), tuning spend ${:.2}",
                    outcome.history.len(),
                    true_runtime,
                    best.cost_usd,
                    outcome.total_cost_usd()
                );
                outln!("configuration:");
                for (name, value) in best.config.iter() {
                    outln!("  {name} = {value}");
                }
            }
        }

        if let Some(recorder) = recorder {
            // Failure-path dumps (quarantine / budget exhaustion) have
            // already been written; leave one final on-demand dump so
            // every armed run ends with a trace to inspect.
            match recorder.dump("on_demand") {
                Ok(path) => outln!(
                    "flight dump: {} ({} dump(s) this run)",
                    path.display(),
                    recorder.dumps()
                ),
                Err(e) => eprintln!("flight dump failed: {e}"),
            }
            seamless_tuning::obs::flightrec::uninstall();
            seamless_tuning::obs::uninstall_all();
        }
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The resilience summary of a session run under the resilient
/// executor, `None` otherwise. A job crash (an OOM, a launch failure)
/// completes as a trial, so the executor counts it as completed; the
/// line counts it apart, as crashed, from the clean runs.
fn resilience_line(outcome: &TuningOutcome) -> Option<String> {
    let d = outcome.degradation.as_ref()?;
    let crashed = outcome
        .history
        .iter()
        .filter(|o| !o.is_ok() && !o.is_censored())
        .count();
    Some(format!(
        "resilience: {} ok, {crashed} crashed, {} failed, {} timed out, {} retries, {} quarantined{}",
        d.completed.saturating_sub(crashed),
        d.failed,
        d.timed_out,
        d.retries,
        d.quarantined,
        if d.budget_exhausted {
            " (failure budget exhausted — partial result)"
        } else {
            ""
        }
    ))
}

fn workload_by_name_or_err(name: &str) -> Result<Box<dyn Workload>, String> {
    seamless_tuning::workloads::workload_by_name(name)
        .ok_or_else(|| format!("unknown workload `{name}` (see `stune workloads`)"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn flags_outside_the_tune_set_are_rejected() {
        let flags = parse_flags(&args(&["--budget", "5", "--goal", "min-cost"])).unwrap();
        assert_eq!(flags["budget"], "5");
        assert_eq!(flags["goal"], "min-cost");
        assert!(parse_flags(&args(&["--sample", "2"])).is_err());
        assert!(parse_flags(&args(&["--budget"])).is_err());
        assert!(parse_flags(&args(&["budget", "5"])).is_err());
    }

    #[test]
    fn budget_must_be_a_positive_count() {
        assert_eq!(parse_budget("1"), Ok(1));
        assert_eq!(parse_budget("20"), Ok(20));
        for bad in ["0", "-3", "ten", ""] {
            assert!(parse_budget(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn goal_parses_named_goals_and_positive_deadlines() {
        assert_eq!(parse_goal("min-runtime"), Ok(TuningGoal::MinRuntime));
        assert_eq!(parse_goal("min-cost"), Ok(TuningGoal::MinCost));
        assert_eq!(
            parse_goal("deadline:90.5"),
            Ok(TuningGoal::Deadline { seconds: 90.5 })
        );
        assert!(parse_goal("fastest").is_err());
    }

    #[test]
    fn goal_rejects_non_finite_and_non_positive_deadlines() {
        for bad in [
            "deadline:nan",
            "deadline:NaN",
            "deadline:inf",
            "deadline:-inf",
            "deadline:-5",
            "deadline:0",
            "deadline:",
            "deadline:soon",
        ] {
            assert!(parse_goal(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn scale_rejects_non_finite_and_non_positive_sizes() {
        for bad in ["nan", "inf", "-inf", "-1", "0"] {
            let err = parse_scale(bad).expect_err(bad);
            assert!(err.contains(bad), "`{err}` names `{bad}`");
        }
        assert!(matches!(parse_scale("0.5"), Ok(DataScale::Custom(mb)) if mb == 0.5));
        assert!(matches!(parse_scale("2048"), Ok(DataScale::Custom(mb)) if mb == 2048.0));
        assert!(matches!(parse_scale("ds2"), Ok(DataScale::Ds2)));
    }

    #[test]
    fn resilience_line_counts_job_crashes_apart_from_clean_runs() {
        use seamless_tuning::core::DegradationReport;
        use seamless_tuning::simcluster::FailureKind;

        let run = |failure: Option<FailureKind>| Observation {
            config: Configuration::new(),
            runtime_s: 10.0,
            cost_usd: 0.1,
            metrics: None,
            failure,
        };
        let mut outcome = TuningOutcome {
            history: vec![
                run(None),
                run(Some(FailureKind::DriverOom)),
                run(Some(FailureKind::TrialAborted {
                    reason: "retries exhausted".to_owned(),
                })),
                run(None),
                run(Some(FailureKind::LaunchFailure {
                    reason: "quota".to_owned(),
                })),
                run(Some(FailureKind::TrialTimeout)),
            ],
            degradation: None,
        };
        assert_eq!(resilience_line(&outcome), None);
        outcome.degradation = Some(DegradationReport {
            completed: 4,
            failed: 1,
            timed_out: 1,
            retries: 3,
            quarantined: 1,
            budget_exhausted: false,
        });
        assert_eq!(
            resilience_line(&outcome).as_deref(),
            Some("resilience: 2 ok, 2 crashed, 1 failed, 1 timed out, 3 retries, 1 quarantined")
        );
        // Every execution crashed: none of them is reported ok.
        outcome.history.retain(|o| !o.is_censored());
        outcome.history.remove(0);
        outcome.history.remove(1);
        outcome.degradation = Some(DegradationReport {
            completed: 2,
            budget_exhausted: true,
            ..DegradationReport::default()
        });
        assert_eq!(
            resilience_line(&outcome).as_deref(),
            Some(
                "resilience: 0 ok, 2 crashed, 0 failed, 0 timed out, 0 retries, 0 quarantined \
                 (failure budget exhausted — partial result)"
            )
        );
    }
}
