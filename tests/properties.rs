//! Cross-crate property tests: invariants that must hold for *any*
//! configuration the samplers can produce.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use seamless_tuning::confspace::ParamValue;
use seamless_tuning::prelude::*;

/// Draws a valid random Spark configuration from a proptest seed.
fn arb_spark_config() -> impl Strategy<Value = Configuration> {
    any::<u64>().prop_map(|seed| {
        let space = spark_space();
        let mut rng = StdRng::seed_from_u64(seed);
        sample::uniform(&space, &mut rng)
    })
}

fn arb_cloud_config() -> impl Strategy<Value = Configuration> {
    any::<u64>().prop_map(|seed| {
        let space = cloud_space();
        let mut rng = StdRng::seed_from_u64(seed);
        sample::uniform(&space, &mut rng)
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
            let cfg = tuner.propose(&space, &history, 1, &mut rng).remove(0);
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

/// The spaces the typed candidate pool must agree on: Spark, cloud,
/// the joint space, a small space with the kinds those catalogs lack (a
/// log-scale float, a float-reading constraint), and a space of
/// degenerate dimensions (an int, a float and a log-float with
/// `lo == hi`, a single-choice categorical, and a stepped int whose
/// `hi` is off its grid, so decoded moves must snap to the top grid
/// point).
fn row_spaces() -> [ParamSpace; 5] {
    use seamless_tuning::confspace::{Constraint, ParamDef};
    let log_space = ParamSpace::new()
        .with(ParamDef::log_float("scale", 1.0, 100.0, 10.0, ""))
        .with(ParamDef::int_step("n", 0, 64, 4, 8, ""))
        .with(ParamDef::categorical("c", &["x", "y", "z"], "x", ""))
        .with_constraint(Constraint::new(
            "n <= 32 when scale > 50",
            &["scale", "n"],
            |v| v.float(0) <= 50.0 || v.int(1) <= 32,
        ));
    let degenerate = ParamSpace::new()
        .with(ParamDef::int("fixed_n", 3, 3, 3, ""))
        .with(ParamDef::float("fixed_f", 0.25, 0.25, 0.25, ""))
        .with(ParamDef::log_float("fixed_g", 2.0, 2.0, 2.0, ""))
        .with(ParamDef::categorical("only", &["one"], "one", ""))
        .with(ParamDef::int_step("off_grid", 0, 11, 3, 0, ""))
        .with(ParamDef::boolean("b", false, ""));
    [
        spark_space(),
        cloud_space(),
        seamless_tuning::confspace::cloud::joint_space(),
        log_space,
        degenerate,
    ]
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Deliberately bad variants of a valid configuration, one defect each:
/// its first parameter missing, an unknown parameter, its first
/// parameter given a value of the wrong kind, speculation on with an
/// inadmissible quantile, the constraint-violating `h1` / `large`
/// instance, an out-of-range int and a log-float just past `hi` (each
/// where the space has such a parameter).
fn bad_configs(space: &ParamSpace, cfg: &Configuration) -> Vec<Configuration> {
    use seamless_tuning::confspace::cloud::names as cl;
    use seamless_tuning::confspace::spark::names as sp;
    use seamless_tuning::confspace::ParamKind;
    let first = &space.params()[0].name;
    let wrong_kind = match cfg.get(first) {
        Some(ParamValue::Str(_)) => ParamValue::Bool(true),
        _ => ParamValue::Str("wrong kind".into()),
    };
    let mut out = vec![
        cfg.iter()
            .filter(|(name, _)| name != first)
            .map(|(name, v)| (name.to_owned(), v.clone()))
            .collect(),
        cfg.clone().with("no.such.param", 1i64),
        cfg.clone().with(first, wrong_kind),
    ];
    if space.index_of(sp::SPECULATION).is_some() {
        out.push(
            cfg.clone()
                .with(sp::SPECULATION, true)
                .with(sp::SPECULATION_QUANTILE, 0.3),
        );
    }
    if space.index_of(cl::INSTANCE_FAMILY).is_some() {
        out.push(
            cfg.clone()
                .with(cl::INSTANCE_FAMILY, "h1")
                .with(cl::INSTANCE_SIZE, "large"),
        );
    }
    for p in space.params() {
        if let ParamKind::Int { hi, .. } = p.kind {
            out.push(cfg.clone().with(&p.name, hi + 1));
            break;
        }
    }
    for p in space.params() {
        if let ParamKind::Float { hi, log: true, .. } = p.kind {
            out.push(cfg.clone().with(&p.name, f64::from_bits(hi.to_bits() + 1)));
            break;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The typed candidate pool and the `Configuration` path agree draw
    /// for draw and bit for bit: a uniform row's pick is
    /// `sample::uniform`'s configuration, a neighbour row's pick (after
    /// `fall_back` on rejection) is `neighbor`'s and a full decode of
    /// the moved encoding's, every row's encoding is the encoder's, and
    /// a move is admitted exactly when `validate` accepts its
    /// configuration.
    #[test]
    fn row_path_agrees_with_configuration_path(which in 0usize..5, seed in any::<u64>()) {
        use rand::Rng;
        use seamless_tuning::confspace::{neighbor, CandidatePool};
        let space = &row_spaces()[which];

        let mut cfg_rng = StdRng::seed_from_u64(seed);
        let mut pool_rng = StdRng::seed_from_u64(seed);
        let mut pool = CandidatePool::new(space);
        let mut cfgs = Vec::new();
        for i in 0..3 {
            let cfg = sample::uniform(space, &mut cfg_rng);
            pool.push_uniform(space, &mut pool_rng);
            prop_assert_eq!(&pool.config(space, i), &cfg);
            prop_assert_eq!(bits(pool.encoding(i)), bits(&space.encode(&cfg)));
            cfgs.push(cfg);
        }
        let cfg = &cfgs[0];

        // Wide, frequent moves, so some are rejected and fall back. The
        // reference moves the whole encoding and decodes all of it.
        let mut ref_rng = cfg_rng.clone();
        pool.set_base(space, cfg);
        for i in 3..11 {
            let moved = neighbor(space, cfg, 0.5, 0.8, &mut cfg_rng);
            let mut x = space.encode(cfg);
            for xk in x.iter_mut() {
                if ref_rng.gen::<f64>() < 0.8 {
                    let g: f64 = (0..4).map(|_| ref_rng.gen::<f64>() - 0.5).sum::<f64>() / 2.0;
                    *xk = (*xk + g * 0.5 * 2.0).clamp(0.0, 1.0);
                }
            }
            let decoded = space.decode(&x);
            let reference = if space.validate(&decoded).is_ok() {
                decoded
            } else {
                space.clamp(cfg)
            };
            prop_assert_eq!(&moved, &reference);
            let admitted = pool.push_neighbor(space, 0.5, 0.8, &mut pool_rng);
            let move_cfg = pool.config(space, i);
            prop_assert_eq!(bits(pool.encoding(i)), bits(&space.encode(&move_cfg)));
            prop_assert_eq!(admitted, space.validate(&move_cfg).is_ok());
            if !admitted {
                pool.fall_back();
            }
            prop_assert_eq!(&pool.config(space, i), &moved);
            prop_assert_eq!(bits(pool.encoding(i)), bits(&space.encode(&moved)));
        }
        prop_assert_eq!(pool.len(), 11);
        let next = cfg_rng.gen::<u64>();
        prop_assert_eq!(next, pool_rng.gen::<u64>(), "draw counts differ");
        prop_assert_eq!(next, ref_rng.gen::<u64>(), "draw counts differ");

        prop_assert!(space.validate(cfg).is_ok());
        for bad in bad_configs(space, cfg) {
            prop_assert!(space.validate(&bad).is_err(), "bad configuration accepted: {}", bad);
        }
    }
}

/// A pool left dirty by earlier use: never reset, holding rows of the
/// same space, rows and a neighbour base of the cloud space, rows of
/// the joint space (longer rows), or rows of the degenerate space with
/// rejected neighbours left in place.
fn dirty_pool(
    space: &ParamSpace,
    which: usize,
    seed: u64,
) -> seamless_tuning::confspace::CandidatePool {
    use seamless_tuning::confspace::CandidatePool;
    let mut rng = StdRng::seed_from_u64(seed);
    let other = match which {
        0 => return CandidatePool::default(),
        1 => space.clone(),
        2 => cloud_space(),
        3 => seamless_tuning::confspace::cloud::joint_space(),
        _ => row_spaces()[4].clone(),
    };
    let mut pool = CandidatePool::new(&other);
    for _ in 0..5 {
        pool.push_uniform(&other, &mut rng);
    }
    pool.set_base(&other, &sample::uniform(&other, &mut rng));
    for _ in 0..5 {
        pool.push_neighbor(&other, 0.5, 0.8, &mut rng);
    }
    pool
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A reset pool, whatever it held before (another space's rows,
    /// another base, rejected moves), fills exactly as a fresh pool from
    /// the same RNG state and consumes the same draws: the picks, the
    /// encodings and the next raw draw agree.
    #[test]
    fn candidate_pool_reuses_its_buffers(
        which in 0usize..5,
        dirt in 0usize..5,
        seed in any::<u64>(),
    ) {
        use rand::Rng;
        use seamless_tuning::confspace::CandidatePool;
        let space = &row_spaces()[which];
        let mut fresh_rng = StdRng::seed_from_u64(seed);
        let mut reuse_rng = StdRng::seed_from_u64(seed);
        let mut reused = dirty_pool(space, dirt, seed ^ 0x5eed);
        for _ in 0..2 {
            let mut fresh = CandidatePool::new(space);
            reused.reset(space);
            for pool_rng in [(&mut fresh, &mut fresh_rng), (&mut reused, &mut reuse_rng)] {
                let (pool, rng) = pool_rng;
                for _ in 0..3 {
                    pool.push_uniform(space, rng);
                }
                let base = pool.config(space, 1);
                pool.set_base(space, &base);
                for _ in 0..3 {
                    if !pool.push_neighbor(space, 0.5, 0.8, rng) {
                        pool.fall_back();
                    }
                }
            }
            prop_assert_eq!(reused.len(), fresh.len());
            for i in 0..fresh.len() {
                prop_assert_eq!(reused.config(space, i), fresh.config(space, i));
                prop_assert_eq!(bits(reused.encoding(i)), bits(fresh.encoding(i)));
            }
        }
        prop_assert_eq!(fresh_rng.gen::<u64>(), reuse_rng.gen::<u64>(), "draw counts differ");
    }
}

/// The unit coordinate of one parameter's value by the encoding's
/// definition, written out per kind: a missing value reads the
/// default, a value of the wrong kind (or an unknown choice) the bottom
/// of the range, and ints widen to floats.
fn reference_unit(p: &seamless_tuning::confspace::ParamDef, v: Option<&ParamValue>) -> f64 {
    use seamless_tuning::confspace::ParamKind;
    let v = v.unwrap_or(&p.default);
    match &p.kind {
        ParamKind::Int { lo, hi, .. } => {
            let x = v.as_int().unwrap_or(*lo);
            if hi == lo {
                0.0
            } else {
                (x.clamp(*lo, *hi) - lo) as f64 / (hi - lo) as f64
            }
        }
        ParamKind::Float { lo, hi, log } => {
            let x = v.as_float().unwrap_or(*lo).clamp(*lo, *hi);
            match (log, hi == lo) {
                (_, true) => 0.0,
                (false, false) => (x - lo) / (hi - lo),
                (true, false) => (x.ln() - lo.ln()) / (hi.ln() - lo.ln()),
            }
        }
        ParamKind::Bool => {
            if v.as_bool().unwrap_or(false) {
                1.0
            } else {
                0.0
            }
        }
        ParamKind::Categorical { choices } => {
            let i = v
                .as_str()
                .and_then(|s| choices.iter().position(|c| c == s))
                .unwrap_or(0);
            if choices.len() <= 1 {
                0.0
            } else {
                i as f64 / (choices.len() - 1) as f64
            }
        }
    }
}

/// A configuration of `space` damaged from a sample: some entries
/// dropped, some replaced by a value of another kind (an int where a
/// float belongs widens), an unknown choice, NaN or an out-of-range
/// number, and unknown names added before, between and after the
/// space's own.
fn damaged_config(space: &ParamSpace, seed: u64) -> Configuration {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let sample = sample::uniform(space, &mut rng);
    let mut cfg = Configuration::new();
    for (name, v) in sample.iter() {
        let v = match rng.gen_range(0..12) {
            0 | 1 => continue,
            2 => ParamValue::Str("not a choice".into()),
            3 => ParamValue::Int(rng.gen_range(-5i64..5000)),
            4 => ParamValue::Float(f64::NAN),
            5 => ParamValue::Float(rng.gen_range(-1e4..1e4)),
            6 => ParamValue::Bool(rng.gen()),
            _ => v.clone(),
        };
        cfg.set(name, v);
    }
    for name in ["", "a", "spark.", "spark.zzz", "zzz", "\u{10ffff}"] {
        if rng.gen() {
            cfg.set(name, 1i64);
        }
    }
    if let Some(first) = space.params().first() {
        if rng.gen() {
            cfg.set(&format!("{}.suffix", first.name), true);
        }
    }
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `encode`'s one merge pass over a configuration's sorted entries
    /// gives, bit for bit, what one name lookup per parameter gives, on
    /// configurations with missing, unknown and wrong-kind entries.
    #[test]
    fn encode_agrees_with_a_name_lookup_reference(which in 0usize..5, seed in any::<u64>()) {
        let space = &row_spaces()[which];
        let cfg = damaged_config(space, seed);
        let reference: Vec<f64> = space
            .params()
            .iter()
            .map(|p| reference_unit(p, cfg.get(&p.name)))
            .collect();
        prop_assert_eq!(bits(&space.encode(&cfg)), bits(&reference));
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
    dump_of(arb_record)
}

/// A history dump of 1–7 records whose tenant ids are [`arb_text`]
/// strings: quotes, backslashes, control characters and multi-byte
/// UTF-8 in the persisted `client` field.
fn arb_named_dump() -> impl Strategy<Value = String> {
    dump_of(|| {
        (arb_record(), arb_text()).prop_map(|(mut record, client)| {
            record.client = client;
            record
        })
    })
}

/// A history dump of 1–7 records drawn from `record()`.
fn dump_of<S>(record: impl Fn() -> S) -> impl Strategy<Value = String>
where
    S: Strategy<Value = seamless_tuning::core::ExecutionRecord>,
{
    (1usize..8).prop_flat_map(move |n| {
        (0..n)
            .map(|_| record())
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

/// The characters that stress the JSON string reader: both run
/// delimiters, escaped control characters, and two- to four-byte UTF-8.
const TEXT_ALPHABET: [char; 7] = ['"', '\\', '\n', '\u{1}', 'é', '→', '😀'];

/// A string of up to 24 characters drawn from a proptest seed, each
/// from [`TEXT_ALPHABET`] or printable ASCII with equal odds.
fn arb_text() -> impl Strategy<Value = String> {
    any::<u64>().prop_map(|seed| {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.gen_range(0usize..25);
        (0..len)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    TEXT_ALPHABET[rng.gen_range(0..TEXT_ALPHABET.len())]
                } else {
                    char::from(rng.gen_range(0x20u8..0x7f))
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any string survives JSON text unchanged, as a value and as an
    /// object key.
    #[test]
    fn json_strings_roundtrip(text in arb_text()) {
        let json = serde_json::to_string(&text).expect("serializes");
        prop_assert_eq!(serde_json::from_str::<String>(&json).expect("parses"), text.clone());

        let mut object = std::collections::BTreeMap::new();
        object.insert(text, 7u32);
        let json = serde_json::to_string(&object).expect("serializes");
        let back: std::collections::BTreeMap<String, u32> =
            serde_json::from_str(&json).expect("parses");
        prop_assert_eq!(back, object);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Restoring a history dump and persisting it again gives back the
    /// same bytes, whatever characters the tenant ids carry.
    #[test]
    fn history_dumps_repersist_byte_for_byte(dump in arb_dump(), named in arb_named_dump()) {
        for d in [dump, named] {
            let restored = HistoryStore::from_jsonl(&d).expect("dump loads");
            prop_assert_eq!(restored.to_jsonl().expect("serializes"), d);
        }
    }
}
