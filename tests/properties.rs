//! Cross-crate property tests: invariants that must hold for *any*
//! configuration the samplers can produce.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use seamless_tuning::prelude::*;

/// Draws a valid random Spark configuration from a proptest seed.
fn arb_spark_config() -> impl Strategy<Value = Configuration> {
    any::<u64>().prop_map(|seed| {
        let space = spark_space();
        let mut rng = StdRng::seed_from_u64(seed);
        UniformSampler.sample(&space, &mut rng)
    })
}

fn arb_cloud_config() -> impl Strategy<Value = Configuration> {
    any::<u64>().prop_map(|seed| {
        let space = cloud_space();
        let mut rng = StdRng::seed_from_u64(seed);
        UniformSampler.sample(&space, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every sampled configuration round-trips the feature encoding:
    /// exactly for discrete parameters, to 1e-9 relative error for
    /// continuous ones (one decode multiplication of rounding).
    #[test]
    fn encode_decode_roundtrip(cfg in arb_spark_config()) {
        let space = spark_space();
        let decoded = space.decode(&space.encode(&cfg));
        for (name, original) in cfg.iter() {
            let back = decoded.get(name).expect("decoded keeps every parameter");
            match (original, back) {
                (
                    seamless_tuning::confspace::ParamValue::Float(a),
                    seamless_tuning::confspace::ParamValue::Float(b),
                ) => {
                    prop_assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0),
                        "{name}: {a} vs {b}");
                }
                (a, b) => prop_assert_eq!(a, b, "{} differs", name),
            }
        }
    }

    /// Every sampled configuration either resolves to an executor
    /// layout or fails with a launch error — never panics.
    #[test]
    fn resolve_never_panics(cfg in arb_spark_config()) {
        let cluster = ClusterSpec::table1_testbed();
        let _ = SparkEnv::resolve(&cluster, &cfg);
    }

    /// Successful simulations produce positive, finite runtimes and
    /// costs, and metrics whose time fractions sum to ~1.
    #[test]
    fn simulation_outputs_are_sane(cfg in arb_spark_config(), seed in any::<u64>()) {
        let cluster = ClusterSpec::table1_testbed();
        if let Ok(env) = SparkEnv::resolve(&cluster, &cfg) {
            let job = Wordcount::new().job(DataScale::Tiny);
            let mut rng = StdRng::seed_from_u64(seed);
            if let Ok(r) = Simulator::dedicated().run(&env, &job, &mut rng) {
                prop_assert!(r.runtime_s.is_finite() && r.runtime_s > 0.0);
                prop_assert!(r.cost_usd > 0.0);
                let m = &r.metrics;
                let frac_sum = m.cpu_frac() + m.io_frac() + m.net_frac()
                    + m.gc_frac() + m.ser_frac();
                prop_assert!((frac_sum - 1.0).abs() < 1e-6, "fractions sum to {frac_sum}");
            }
        }
    }

    /// More input never makes the same configuration meaningfully
    /// faster: 16x the data must cost at least 1.2x the *expected*
    /// runtime (averaged over seeds, so straggler tails on tiny jobs
    /// cannot flip the comparison).
    #[test]
    fn runtime_is_monotone_in_input(cfg in arb_spark_config(), seed in any::<u64>()) {
        let cluster = ClusterSpec::table1_testbed();
        if let Ok(env) = SparkEnv::resolve(&cluster, &cfg) {
            let sim = Simulator::dedicated();
            let small = Wordcount::new().job(DataScale::Custom(512.0));
            let big = Wordcount::new().job(DataScale::Custom(8192.0));
            let mean = |job: &simcluster::JobSpec| -> Option<f64> {
                let mut total = 0.0;
                for i in 0..5u64 {
                    total += sim
                        .run(&env, job, &mut StdRng::seed_from_u64(seed ^ (i * 77)))
                        .ok()?
                        .runtime_s;
                }
                Some(total / 5.0)
            };
            if let (Some(a), Some(b)) = (mean(&small), mean(&big)) {
                prop_assert!(b > a * 1.2, "16x input: {a} -> {b}");
            }
        }
    }

    /// Cloud configurations always denote a purchasable cluster with a
    /// positive price, and cost scales linearly with time.
    #[test]
    fn cloud_configs_denote_real_clusters(cfg in arb_cloud_config()) {
        let cluster = ClusterSpec::from_config(&cfg).expect("catalog covers the space");
        prop_assert!(cluster.price_per_hour() > 0.0);
        let one_hour = cluster.cost_for(3600.0);
        let two_hours = cluster.cost_for(7200.0);
        prop_assert!((two_hours - 2.0 * one_hour).abs() < 1e-9);
    }

    /// The workload signature is always a bounded vector.
    #[test]
    fn signatures_are_bounded(cfg in arb_spark_config(), seed in any::<u64>()) {
        let cluster = ClusterSpec::table1_testbed();
        if let Ok(env) = SparkEnv::resolve(&cluster, &cfg) {
            let job = BayesClassifier::new().job(DataScale::Tiny);
            let mut rng = StdRng::seed_from_u64(seed);
            if let Ok(r) = Simulator::dedicated().run(&env, &job, &mut rng) {
                let sig = WorkloadSignature::from_metrics(&r.metrics);
                prop_assert!(sig.features().iter().all(|f| (0.0..=1.0).contains(f)));
            }
        }
    }

    /// The un-jittered backoff schedule is monotone non-decreasing and
    /// never exceeds its cap, for any (finite, sane) policy parameters.
    #[test]
    fn retry_backoff_is_monotone_and_capped(
        base in 0.0f64..10.0,
        mult in 0.5f64..8.0,
        cap in 0.0f64..60.0,
        attempts in 1u32..12,
    ) {
        let policy = RetryPolicy {
            max_attempts: attempts,
            base_backoff_s: base,
            backoff_multiplier: mult,
            max_backoff_s: cap,
            jitter_frac: 0.0,
            ..RetryPolicy::default()
        };
        let mut prev = 0.0;
        for k in 0..attempts {
            let b = policy.backoff_s(k);
            prop_assert!(b.is_finite());
            prop_assert!(b >= prev, "backoff decreased: {prev} -> {b} at attempt {k}");
            prop_assert!(b <= cap + 1e-12, "backoff {b} exceeds cap {cap}");
            prev = b;
        }
    }

    /// Cumulative backoff across a trial's whole retry schedule never
    /// exceeds the per-trial deadline, whatever the policy and seed.
    #[test]
    fn retry_schedule_respects_the_deadline(
        base in 0.0f64..10.0,
        mult in 1.0f64..4.0,
        cap in 0.0f64..60.0,
        jitter in 0.0f64..1.0,
        deadline in 0.0f64..120.0,
        attempts in 1u32..16,
        seed in any::<u64>(),
    ) {
        let policy = RetryPolicy {
            max_attempts: attempts,
            base_backoff_s: base,
            backoff_multiplier: mult,
            max_backoff_s: cap,
            jitter_frac: jitter,
            trial_deadline_s: deadline,
            ..RetryPolicy::default()
        };
        let schedule = policy.schedule(seed);
        prop_assert!(schedule.len() < attempts as usize || attempts == 0);
        let total: f64 = schedule.iter().sum();
        prop_assert!(
            total <= deadline,
            "cumulative backoff {total} exceeds deadline {deadline}"
        );
        for b in &schedule {
            prop_assert!(b.is_finite() && *b >= 0.0);
        }
    }

    /// Jittered backoff is deterministic in `(policy, attempt, seed)` —
    /// the same seed replays the same waits — bounded by the configured
    /// jitter fraction, and different seeds actually perturb it.
    #[test]
    fn retry_jitter_is_reproducible_from_the_seed(
        jitter in 0.01f64..1.0,
        attempt in 0u32..8,
        seed in any::<u64>(),
    ) {
        let policy = RetryPolicy {
            base_backoff_s: 1.0,
            backoff_multiplier: 1.0,
            max_backoff_s: 1.0,
            jitter_frac: jitter,
            ..RetryPolicy::default()
        };
        let a = policy.jittered_backoff_s(attempt, seed);
        let b = policy.jittered_backoff_s(attempt, seed);
        prop_assert_eq!(a.to_bits(), b.to_bits(), "same seed, same jitter");
        let bare = policy.backoff_s(attempt);
        prop_assert!(a >= bare && a <= bare * (1.0 + jitter) + 1e-12,
            "jittered {a} outside [{bare}, {}]", bare * (1.0 + jitter));
        // Some other seed must land elsewhere (jitter is not a constant).
        let moved = (0..16u64).any(|d| {
            policy.jittered_backoff_s(attempt, seed ^ (d + 1)).to_bits() != a.to_bits()
        });
        prop_assert!(moved, "jitter ignores the seed");
    }

    /// Observations fed to a tuner never produce an invalid proposal.
    #[test]
    fn tuner_proposals_are_always_valid(seed in any::<u64>(), kind_idx in 0usize..11) {
        let space = spark_space();
        let kind = TunerKind::all()[kind_idx];
        let mut tuner = kind.build();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut history = Vec::new();
        for i in 0..6 {
            let cfg = tuner.propose(&space, &history, &mut rng);
            prop_assert!(space.validate(&cfg).is_ok(), "{kind} proposal {i} invalid");
            history.push(seamless_tuning::core::Observation {
                config: cfg,
                runtime_s: 10.0 + i as f64,
                cost_usd: 0.0,
                metrics: None,
                failure: None,
            });
        }
    }
}

/// One persisted execution record drawn from a proptest seed: a real
/// Spark configuration, a bottleneck mix, a runtime and an outcome tag.
fn arb_record() -> impl Strategy<Value = seamless_tuning::core::ExecutionRecord> {
    (arb_spark_config(), 0.0f64..100.0, 0.1f64..1e4, 0u8..3).prop_map(
        |(config, cpu, runtime_s, tag)| {
            use seamless_tuning::core::{ExecutionRecord, RecordOutcome};
            use seamless_tuning::simcluster::{ExecMetrics, StageMetrics};
            let metrics = ExecMetrics {
                runtime_s,
                stages: vec![StageMetrics {
                    name: "stage".into(),
                    cpu_s: cpu,
                    io_s: 100.0 - cpu,
                    ..Default::default()
                }],
                input_mb: 1000.0,
                shuffle_mb: 10.0 * cpu,
                ..Default::default()
            };
            ExecutionRecord {
                client: format!("tenant-{tag}"),
                workload: "job".to_owned(),
                signature: WorkloadSignature::from_metrics(&metrics),
                config,
                runtime_s,
                cost_usd: runtime_s / 3600.0,
                seq: 0,
                outcome: match tag {
                    0 => RecordOutcome::Ok,
                    1 => RecordOutcome::Failed,
                    _ => RecordOutcome::TimedOut,
                },
            }
        },
    )
}

/// A history dump of 1–7 records.
fn arb_dump() -> impl Strategy<Value = String> {
    (1usize..8).prop_flat_map(|n| {
        (0..n)
            .map(|_| arb_record())
            .collect::<Vec<_>>()
            .prop_map(|records| {
                let store = HistoryStore::new();
                for r in records {
                    store.insert(r);
                }
                store.to_jsonl().expect("records serialize")
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The history store is the only durable state: a dump cut at any
    /// byte, or with any one byte overwritten by printable ASCII, still
    /// loads. Every line the damage did not reach comes back, in order,
    /// and each remaining line is either loaded or counted as skipped.
    #[test]
    fn damaged_history_dumps_load_every_intact_line(
        dump in arb_dump(),
        cut in any::<bool>(),
        at in any::<u64>(),
        on_boundary in any::<bool>(),
        byte in 0x20u8..0x7f,
    ) {
        let mut bytes = dump.clone().into_bytes();
        // Byte range [start, end) of every line, newline excluded.
        let mut spans = Vec::new();
        let mut start = 0;
        for line in dump.split_inclusive('\n') {
            spans.push((start, start + line.trim_end_matches('\n').len()));
            start += line.len();
        }
        // Half the cases land exactly on a line's newline, where an
        // off-by-one in the loader would show.
        let pos = if on_boundary {
            spans[(at % spans.len() as u64) as usize].1
        } else {
            (at % (bytes.len() as u64 + u64::from(cut))) as usize
        };
        // A cut keeps the lines that end at or before it; an overwrite
        // damages the line it lands in (both neighbours when it lands
        // on a newline).
        let intact: Vec<bool> = if cut {
            bytes.truncate(pos);
            spans.iter().map(|&(_, end)| end <= pos).collect()
        } else {
            bytes[pos] = byte;
            spans.iter().map(|&(s, end)| pos + 1 < s || pos > end).collect()
        };
        let damaged = String::from_utf8(bytes).expect("printable ASCII keeps UTF-8");

        let (restored, skipped) = HistoryStore::from_jsonl_lossy(&damaged);

        let unseq = |mut r: seamless_tuning::core::ExecutionRecord| {
            r.seq = 0;
            r
        };
        let originals: Vec<_> = HistoryStore::from_jsonl(&dump)
            .expect("undamaged dump loads")
            .snapshot()
            .into_iter()
            .map(unseq)
            .collect();
        prop_assert_eq!(originals.len(), spans.len());
        let loaded: Vec<_> = restored.snapshot().into_iter().map(unseq).collect();
        let mut next = loaded.iter();
        for (i, original) in originals.iter().enumerate().filter(|(i, _)| intact[*i]) {
            prop_assert!(
                next.any(|r| r == original),
                "intact line {i} missing or out of order after damage at byte {pos} (cut: {cut})"
            );
        }
        let non_blank = damaged.lines().filter(|l| !l.trim().is_empty()).count();
        prop_assert_eq!(restored.len() + skipped, non_blank);
    }
}
