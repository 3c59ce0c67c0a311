//! The batch-execution equivalence contract: trial outcomes must not
//! depend on how rounds are partitioned or on the worker count, larger
//! batches must stay valid and deterministic, and the multi-tenant
//! `tune_many` must match sequential `tune` calls whenever tenants
//! cannot observe each other (transfer disabled). Pinned service
//! fingerprints guard the executor path against unplanned bitwise
//! changes.

use std::sync::Arc;

use confspace::{Configuration, ParamDef, ParamSpace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use seamless_core::objective::{DiscObjective, Objective, SimEnvironment};
use seamless_core::service::TenantRequest;
use seamless_core::tuner::{TunerKind, TuningSession};
use seamless_core::{
    FaultInjector, FaultPlan, HistoryStore, Observation, SeamlessTuner, ServiceConfig,
    TrialExecutor, TrialOutcome,
};
use simcluster::ClusterSpec;
use workloads::{DataScale, Pagerank, Wordcount, Workload};

fn synth_space() -> ParamSpace {
    ParamSpace::new()
        .with(ParamDef::int("a", 0, 100, 50, ""))
        .with(ParamDef::int("b", 0, 100, 50, ""))
}

fn synth_eval(cfg: &Configuration) -> f64 {
    let a = cfg.int("a") as f64;
    let b = cfg.int("b") as f64;
    10.0 + ((a - 70.0) / 10.0).powi(2) + ((b - 30.0) / 10.0).powi(2)
}

fn push(history: &mut Vec<Observation>, cfg: Configuration) {
    history.push(Observation {
        runtime_s: synth_eval(&cfg),
        config: cfg,
        cost_usd: 0.0,
        metrics: None,
        failure: None,
    });
}

#[test]
fn q4_proposals_are_valid_and_deterministic() {
    let space = synth_space();
    for kind in TunerKind::all() {
        let run = || {
            let mut tuner = kind.build();
            let mut rng = StdRng::seed_from_u64(23);
            let mut history = Vec::new();
            let mut all = Vec::new();
            for _ in 0..4 {
                let batch = tuner.propose(&space, &history, 4, &mut rng);
                assert_eq!(batch.len(), 4, "{}: q=4 batch length", kind.label());
                for cfg in &batch {
                    assert!(
                        space.validate(cfg).is_ok(),
                        "{}: invalid batch proposal {cfg}",
                        kind.label()
                    );
                }
                for cfg in batch {
                    all.push(cfg.clone());
                    push(&mut history, cfg);
                }
            }
            all
        };
        assert_eq!(run(), run(), "{}: q=4 not deterministic", kind.label());
    }
}

fn disc_objective(seed: u64) -> DiscObjective {
    DiscObjective::new(
        ClusterSpec::table1_testbed(),
        Wordcount::new().job(DataScale::Tiny),
        &SimEnvironment::dedicated(seed),
    )
}

#[test]
fn clean_batch_1_session_reports_an_empty_degradation_report() {
    let obj = disc_objective(7);
    let out = TuningSession::new(TunerKind::BayesOpt, 31).run(&obj, 10);
    let report = out.degradation.expect("every session reports");
    assert_eq!(report.completed, out.history.len());
    assert_eq!(out.history.len(), 10);
    assert!(!report.degraded(), "{report:?}");
    assert_eq!(report.retries, 0);
}

#[test]
fn larger_batches_are_deterministic_and_fill_the_budget() {
    for batch in [2usize, 4, 8] {
        let run = || {
            let obj = disc_objective(11);
            TuningSession::new(TunerKind::BayesOpt, 43)
                .with_batch(batch)
                .run(&obj, 12)
        };
        let a = run();
        let b = run();
        assert_eq!(a.history.len(), 12, "batch {batch}: budget not honoured");
        for (x, y) in a.history.iter().zip(&b.history) {
            assert_eq!(x.config, y.config, "batch {batch}: configs diverge");
            assert_eq!(
                x.runtime_s.to_bits(),
                y.runtime_s.to_bits(),
                "batch {batch}: runtimes diverge"
            );
        }
        assert!(a.best().is_some(), "batch {batch}: no best found");
    }
}

/// A synthetic objective that *panics* on part of its space — the
/// hostile version of a faulty execution substrate.
struct FaultyObjective {
    space: ParamSpace,
}

impl Objective for FaultyObjective {
    fn space(&self) -> &ParamSpace {
        &self.space
    }

    fn evaluate(&self, config: &Configuration, trial_seed: u64) -> Observation {
        let a = config.int("a");
        assert!(a <= 90, "substrate crash on a > 90");
        Observation {
            runtime_s: synth_eval(config) + (trial_seed % 7) as f64 * 1e-3,
            config: config.clone(),
            cost_usd: 0.0,
            metrics: None,
            failure: None,
        }
    }
}

/// The partition-invariance contract must survive a faulty objective:
/// panicking trials become `Failed` outcomes (never a torn round), and
/// splitting the same configs across differently sized batches yields
/// identical outcomes — including which trials failed.
#[test]
fn faulty_objective_outcomes_are_invariant_to_batch_partitioning() {
    let obj = FaultyObjective {
        space: synth_space(),
    };
    // A fixed mix of healthy and crashing configurations.
    let configs: Vec<Configuration> = (0..12)
        .map(|i| {
            Configuration::new()
                .with("a", (i * 9) as i64) // i = 11 → a = 99 crashes
                .with("b", 30i64)
        })
        .collect();

    let run_split = |chunk: usize| -> Vec<TrialOutcome> {
        let mut ex = TrialExecutor::new(7);
        configs
            .chunks(chunk)
            .flat_map(|c| ex.run_trials(&obj, c))
            .collect()
    };
    let whole = run_split(12);
    assert_eq!(whole, run_split(4));
    assert_eq!(whole, run_split(1));

    let failed: Vec<usize> = whole
        .iter()
        .enumerate()
        .filter(|(_, o)| !o.is_ok())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(failed, vec![11], "exactly the a>90 trial crashes");
    assert!(matches!(
        &whole[11],
        TrialOutcome::Failed { .. } | TrialOutcome::TimedOut { .. }
    ));
    // The healthy trials' observations are untouched by the crash.
    for (i, o) in whole.iter().enumerate() {
        if i != 11 {
            let observation = o.observation().expect("healthy trial");
            assert!(observation.runtime_s.is_finite());
            assert!(observation.failure.is_none());
        }
    }
}

#[test]
fn tune_many_matches_sequential_tunes_when_tenants_are_isolated() {
    // With transfer disabled the store is write-only during tuning, so
    // concurrent tenants cannot influence each other: tune_many must
    // produce exactly the outcomes of sequential tune calls.
    let config = ServiceConfig {
        stage1_budget: 3,
        stage2_budget: 4,
        transfer_k: 0,
        ..ServiceConfig::default()
    };
    let requests: Vec<TenantRequest> = (0..4)
        .map(|i| TenantRequest {
            client: format!("tenant-{i}"),
            workload: "wc".to_owned(),
            job: Wordcount::new().job(DataScale::Tiny),
            seed: 100 + i as u64,
        })
        .collect();

    let seq_svc = SeamlessTuner::new(
        Arc::new(HistoryStore::new()),
        SimEnvironment::dedicated(3),
        config,
    );
    let seq: Vec<_> = requests
        .iter()
        .map(|r| seq_svc.tune(&r.client, &r.workload, &r.job, r.seed))
        .collect();

    let par_svc = SeamlessTuner::new(
        Arc::new(HistoryStore::new()),
        SimEnvironment::dedicated(3),
        config,
    );
    let par = par_svc.tune_many(&requests);

    assert_eq!(seq.len(), par.len());
    for (i, (s, p)) in seq.iter().zip(&par).enumerate() {
        assert_eq!(s.cloud_config, p.cloud_config, "tenant {i}: cloud config");
        assert_eq!(s.disc_config, p.disc_config, "tenant {i}: disc config");
        assert_eq!(
            s.best_runtime_s.to_bits(),
            p.best_runtime_s.to_bits(),
            "tenant {i}: best runtime not bitwise equal"
        );
    }
    // Both services witnessed the same number of executions.
    assert_eq!(seq_svc.store().len(), par_svc.store().len());
}

#[test]
fn batched_service_tuning_still_finds_a_working_config() {
    let svc = SeamlessTuner::new(
        Arc::new(HistoryStore::new()),
        SimEnvironment::dedicated(19),
        ServiceConfig {
            stage1_budget: 4,
            stage2_budget: 8,
            batch: 4,
            ..ServiceConfig::default()
        },
    );
    let out = svc.tune("batched", "wc", &Wordcount::new().job(DataScale::Tiny), 2);
    assert!(out.best_runtime_s.is_finite() && out.best_runtime_s > 0.0);
    assert_eq!(out.stage1.history.len(), 4);
    assert_eq!(out.stage2.history.len(), 8);
}

/// Best-runtime bits plus the chosen cloud and DISC configurations of
/// two PageRank tenants (the second warm-started from the first) on one
/// service.
fn service_fingerprints(config: ServiceConfig) -> Vec<(u64, String, String)> {
    let svc = SeamlessTuner::new(
        Arc::new(HistoryStore::new()),
        SimEnvironment::dedicated(41),
        config,
    );
    [DataScale::Tiny, DataScale::Small]
        .iter()
        .enumerate()
        .map(|(i, scale)| {
            let job = Pagerank::new().job(*scale);
            let out = svc.tune(&format!("t{i}"), "pr", &job, 5 + i as u64);
            assert_eq!(out.used_transfer, i == 1);
            (
                out.best_runtime_s.to_bits(),
                out.cloud_config.to_string(),
                out.disc_config.to_string(),
            )
        })
        .collect()
}

/// The default service path — batch 1, no faults, transfer on —
/// replays the pinned outcome bit for bit.
#[test]
fn batch_1_service_tune_matches_its_pinned_fingerprint() {
    let got = service_fingerprints(ServiceConfig {
        stage1_budget: 10,
        stage2_budget: 14,
        ..ServiceConfig::default()
    });
    let want = [
        (
            4620873179271438808,
            "{cloud.instance.family=i3, cloud.instance.size=2xlarge, cloud.node.count=9}",
            "{spark.broadcast.blockSize.mb=95, spark.default.parallelism=635, spark.driver.memory.mb=2048, spark.dynamicAllocation.enabled=false, spark.executor.cores=5, spark.executor.instances=42, spark.executor.memory.mb=26112, spark.io.compression.codec=zstd, spark.kryoserializer.buffer.max.mb=116, spark.locality.wait.ms=5000, spark.memory.fraction=0.5539144365935974, spark.memory.storageFraction=0.1860992037369613, spark.network.timeout.s=273, spark.rdd.compress=false, spark.reducer.maxSizeInFlight.mb=184, spark.scheduler.mode=FAIR, spark.serializer=java, spark.shuffle.compress=false, spark.shuffle.file.buffer.kb=416, spark.shuffle.sort.bypassMergeThreshold=301, spark.shuffle.spill.compress=true, spark.speculation=true, spark.speculation.multiplier=2.7070193608898268, spark.speculation.quantile=0.9098073301553598, spark.sql.shuffle.partitions=767, spark.storage.level=MEMORY_ONLY}",
        ),
        (
            4627014565539123229,
            "{cloud.instance.family=c5, cloud.instance.size=4xlarge, cloud.node.count=9}",
            "{spark.broadcast.blockSize.mb=50, spark.default.parallelism=198, spark.driver.memory.mb=6656, spark.dynamicAllocation.enabled=false, spark.executor.cores=14, spark.executor.instances=39, spark.executor.memory.mb=23552, spark.io.compression.codec=snappy, spark.kryoserializer.buffer.max.mb=93, spark.locality.wait.ms=10000, spark.memory.fraction=0.6264720896649636, spark.memory.storageFraction=0.29496555262235546, spark.network.timeout.s=468, spark.rdd.compress=false, spark.reducer.maxSizeInFlight.mb=160, spark.scheduler.mode=FAIR, spark.serializer=kryo, spark.shuffle.compress=true, spark.shuffle.file.buffer.kb=992, spark.shuffle.sort.bypassMergeThreshold=860, spark.shuffle.spill.compress=true, spark.speculation=true, spark.speculation.multiplier=1.1327747441873681, spark.speculation.quantile=0.6304126919184099, spark.sql.shuffle.partitions=609, spark.storage.level=MEMORY_AND_DISK}",
        ),
    ];
    assert_fingerprints(&got, &want);
}

/// The same default path with the additive-kernel BayesOpt replays its
/// pinned outcome bit for bit.
#[test]
fn additive_batch_1_service_tune_matches_its_pinned_fingerprint() {
    let got = service_fingerprints(ServiceConfig {
        tuner: TunerKind::AdditiveBayesOpt,
        stage1_budget: 10,
        stage2_budget: 14,
        ..ServiceConfig::default()
    });
    let want = [
        (
            4620900052813365280,
            "{cloud.instance.family=i3, cloud.instance.size=2xlarge, cloud.node.count=15}",
            "{spark.broadcast.blockSize.mb=64, spark.default.parallelism=692, spark.driver.memory.mb=6400, spark.dynamicAllocation.enabled=false, spark.executor.cores=5, spark.executor.instances=31, spark.executor.memory.mb=23808, spark.io.compression.codec=snappy, spark.kryoserializer.buffer.max.mb=30, spark.locality.wait.ms=5000, spark.memory.fraction=0.7918813253470127, spark.memory.storageFraction=0.4286907962123083, spark.network.timeout.s=232, spark.rdd.compress=true, spark.reducer.maxSizeInFlight.mb=101, spark.scheduler.mode=FIFO, spark.serializer=kryo, spark.shuffle.compress=false, spark.shuffle.file.buffer.kb=128, spark.shuffle.sort.bypassMergeThreshold=200, spark.shuffle.spill.compress=false, spark.speculation=false, spark.speculation.multiplier=1.4912121696182208, spark.speculation.quantile=0.8866917755722734, spark.sql.shuffle.partitions=743, spark.storage.level=MEMORY_AND_DISK}",
        ),
        (
            4628106399936909446,
            "{cloud.instance.family=c5, cloud.instance.size=4xlarge, cloud.node.count=9}",
            "{spark.broadcast.blockSize.mb=50, spark.default.parallelism=219, spark.driver.memory.mb=6912, spark.dynamicAllocation.enabled=false, spark.executor.cores=13, spark.executor.instances=39, spark.executor.memory.mb=23552, spark.io.compression.codec=snappy, spark.kryoserializer.buffer.max.mb=93, spark.locality.wait.ms=9500, spark.memory.fraction=0.6264720896649636, spark.memory.storageFraction=0.2909815478974599, spark.network.timeout.s=493, spark.rdd.compress=false, spark.reducer.maxSizeInFlight.mb=160, spark.scheduler.mode=FAIR, spark.serializer=kryo, spark.shuffle.compress=true, spark.shuffle.file.buffer.kb=928, spark.shuffle.sort.bypassMergeThreshold=823, spark.shuffle.spill.compress=true, spark.speculation=true, spark.speculation.multiplier=1.2097860410866292, spark.speculation.quantile=0.6304126919184099, spark.sql.shuffle.partitions=609, spark.storage.level=MEMORY_AND_DISK}",
        ),
    ];
    assert_fingerprints(&got, &want);
}

/// A batch-4 service tune replays the pinned outcome bit for bit. In
/// stage 2 each round is the donated probe (first round only) plus one
/// q-EI batch from the inner BayesOpt over the donations and the real
/// history.
#[test]
fn batch_4_service_tune_matches_its_pinned_fingerprint() {
    let got = service_fingerprints(ServiceConfig {
        stage1_budget: 10,
        stage2_budget: 14,
        batch: 4,
        ..ServiceConfig::default()
    });
    let want = [
        (
            4620410805956695747,
            "{cloud.instance.family=i3, cloud.instance.size=4xlarge, cloud.node.count=7}",
            "{spark.broadcast.blockSize.mb=64, spark.default.parallelism=692, spark.driver.memory.mb=6400, spark.dynamicAllocation.enabled=false, spark.executor.cores=5, spark.executor.instances=31, spark.executor.memory.mb=23808, spark.io.compression.codec=snappy, spark.kryoserializer.buffer.max.mb=34, spark.locality.wait.ms=5000, spark.memory.fraction=0.7918813253470127, spark.memory.storageFraction=0.4286907962123083, spark.network.timeout.s=232, spark.rdd.compress=true, spark.reducer.maxSizeInFlight.mb=101, spark.scheduler.mode=FIFO, spark.serializer=kryo, spark.shuffle.compress=false, spark.shuffle.file.buffer.kb=192, spark.shuffle.sort.bypassMergeThreshold=251, spark.shuffle.spill.compress=false, spark.speculation=false, spark.speculation.multiplier=1.42491893036668, spark.speculation.quantile=0.8866917755722734, spark.sql.shuffle.partitions=743, spark.storage.level=MEMORY_AND_DISK}",
        ),
        (
            4627014565539123229,
            "{cloud.instance.family=c5, cloud.instance.size=4xlarge, cloud.node.count=9}",
            "{spark.broadcast.blockSize.mb=50, spark.default.parallelism=198, spark.driver.memory.mb=6656, spark.dynamicAllocation.enabled=false, spark.executor.cores=14, spark.executor.instances=39, spark.executor.memory.mb=23552, spark.io.compression.codec=snappy, spark.kryoserializer.buffer.max.mb=93, spark.locality.wait.ms=10000, spark.memory.fraction=0.6264720896649636, spark.memory.storageFraction=0.29496555262235546, spark.network.timeout.s=468, spark.rdd.compress=false, spark.reducer.maxSizeInFlight.mb=160, spark.scheduler.mode=FAIR, spark.serializer=kryo, spark.shuffle.compress=true, spark.shuffle.file.buffer.kb=992, spark.shuffle.sort.bypassMergeThreshold=860, spark.shuffle.spill.compress=true, spark.speculation=true, spark.speculation.multiplier=1.1327747441873681, spark.speculation.quantile=0.6304126919184099, spark.sql.shuffle.partitions=609, spark.storage.level=MEMORY_AND_DISK}",
        ),
    ];
    assert_fingerprints(&got, &want);
}

/// A batch-1 service tune under the chaos fault mix (retries land in
/// both stages) replays the pinned outcome bit for bit.
#[test]
fn chaos_service_tune_matches_its_pinned_fingerprint() {
    let got = service_fingerprints(ServiceConfig {
        stage1_budget: 10,
        stage2_budget: 14,
        chaos: Some(FaultInjector::new(7, FaultPlan::chaos())),
        ..ServiceConfig::default()
    });
    let want = [
        (
            4620873179271438808,
            "{cloud.instance.family=i3, cloud.instance.size=2xlarge, cloud.node.count=9}",
            "{spark.broadcast.blockSize.mb=95, spark.default.parallelism=635, spark.driver.memory.mb=2048, spark.dynamicAllocation.enabled=false, spark.executor.cores=5, spark.executor.instances=42, spark.executor.memory.mb=26112, spark.io.compression.codec=zstd, spark.kryoserializer.buffer.max.mb=116, spark.locality.wait.ms=5000, spark.memory.fraction=0.5539144365935974, spark.memory.storageFraction=0.1860992037369613, spark.network.timeout.s=273, spark.rdd.compress=false, spark.reducer.maxSizeInFlight.mb=184, spark.scheduler.mode=FAIR, spark.serializer=java, spark.shuffle.compress=false, spark.shuffle.file.buffer.kb=416, spark.shuffle.sort.bypassMergeThreshold=301, spark.shuffle.spill.compress=true, spark.speculation=true, spark.speculation.multiplier=2.7070193608898268, spark.speculation.quantile=0.9098073301553598, spark.sql.shuffle.partitions=767, spark.storage.level=MEMORY_ONLY}",
        ),
        (
            4627014565539123229,
            "{cloud.instance.family=c5, cloud.instance.size=4xlarge, cloud.node.count=9}",
            "{spark.broadcast.blockSize.mb=50, spark.default.parallelism=198, spark.driver.memory.mb=6656, spark.dynamicAllocation.enabled=false, spark.executor.cores=14, spark.executor.instances=39, spark.executor.memory.mb=23552, spark.io.compression.codec=snappy, spark.kryoserializer.buffer.max.mb=93, spark.locality.wait.ms=10000, spark.memory.fraction=0.6264720896649636, spark.memory.storageFraction=0.29496555262235546, spark.network.timeout.s=468, spark.rdd.compress=false, spark.reducer.maxSizeInFlight.mb=160, spark.scheduler.mode=FAIR, spark.serializer=kryo, spark.shuffle.compress=true, spark.shuffle.file.buffer.kb=992, spark.shuffle.sort.bypassMergeThreshold=860, spark.shuffle.spill.compress=true, spark.speculation=true, spark.speculation.multiplier=1.1327747441873681, spark.speculation.quantile=0.6304126919184099, spark.sql.shuffle.partitions=609, spark.storage.level=MEMORY_AND_DISK}",
        ),
    ];
    assert_fingerprints(&got, &want);
}

fn assert_fingerprints(got: &[(u64, String, String)], want: &[(u64, &str, &str)]) {
    let house = SeamlessTuner::house_default().to_string();
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.0, w.0, "tenant {i}: best runtime bits");
        assert_eq!(g.1, w.1, "tenant {i}: cloud config");
        let disc = if w.2 == "house default" { &house } else { w.2 };
        assert_eq!(g.2, disc, "tenant {i}: DISC config");
    }
}
