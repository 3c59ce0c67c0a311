//! Pinned proposal sequences of every strategy. The candidate-scoring
//! tuners (GP BayesOpt, random forest, regression tree) are pinned with
//! their last proposal on the 26-parameter Spark space, and BayesOpt
//! also on the stage-1 cloud space and on a small space whose
//! constraint rejects a share of the uniform draws. Their acquisition
//! scans score hundreds of sampled candidates per proposal; how the
//! candidates are drawn, admitted and represented is a performance
//! detail, so the proposals themselves must replay bit for bit. Every
//! [`TunerKind`], Ernest on the cloud space and the transfer wrapper
//! over BayesOpt are pinned by hash at one proposal per round and at
//! rounds of four, which covers both the native batches and the
//! constant liar.

use confspace::cloud::{cloud_space, names as cloud};
use confspace::spark::{names, spark_space};
use confspace::{Configuration, Constraint, ParamDef, ParamSpace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use seamless_core::tuner::{
    BayesOpt, Ernest, ForestTuner, Genetic, RegressionTreeTuner, Tuner, TunerKind,
};
use seamless_core::{Observation, TransferTuner, FAILURE_PENALTY_S};
use simcluster::FailureKind;

/// A smooth synthetic runtime over a few Spark knobs. Very wide
/// executor fleets "time out" as censored trials, so the censored-region
/// penalties of the acquisition scans are exercised too.
fn observe(cfg: Configuration) -> Observation {
    let instances = cfg.int(names::EXECUTOR_INSTANCES) as f64;
    let fraction = cfg.float(names::MEMORY_FRACTION);
    let partitions = cfg.int(names::SHUFFLE_PARTITIONS) as f64;
    let kryo = cfg.str(names::SERIALIZER) == "kryo";
    let censored = instances > 45.0;
    let runtime_s = if censored {
        FAILURE_PENALTY_S
    } else {
        20.0 + ((instances - 24.0) / 6.0).powi(2)
            + 40.0 * (fraction - 0.7).powi(2)
            + ((partitions - 400.0) / 150.0).powi(2)
            + if kryo { 0.0 } else { 3.0 }
    };
    Observation {
        config: cfg,
        runtime_s,
        cost_usd: 0.0,
        metrics: None,
        failure: censored.then_some(FailureKind::TrialTimeout),
    }
}

/// A synthetic stage-1 runtime: a fleet of about 24 vCPU-sized nodes
/// of the memory family is best.
fn observe_cloud(cfg: Configuration) -> Observation {
    let nodes = cfg.int(cloud::NODE_COUNT) as f64;
    let size = match cfg.str(cloud::INSTANCE_SIZE) {
        "large" => 1.0,
        "xlarge" => 2.0,
        "2xlarge" => 4.0,
        _ => 8.0,
    };
    let family = if cfg.str(cloud::INSTANCE_FAMILY) == "r5" {
        0.0
    } else {
        5.0
    };
    observation(cfg, 30.0 + ((nodes * size - 24.0) / 4.0).powi(2) + family)
}

/// A small space with the kinds the catalogs lack (a log-scale float,
/// a stepped int) and a constraint that rejects about one uniform draw
/// in fourteen, so the reject-and-redraw path runs inside every pool.
fn constrained_space() -> ParamSpace {
    ParamSpace::new()
        .with(ParamDef::log_float("scale", 1.0, 100.0, 10.0, ""))
        .with(ParamDef::int_step("n", 0, 64, 4, 8, ""))
        .with(ParamDef::categorical("c", &["x", "y", "z"], "x", ""))
        .with_constraint(Constraint::new(
            "n <= 32 when scale > 50",
            &["scale", "n"],
            |v| v.float(0) <= 50.0 || v.int(1) <= 32,
        ))
}

/// A synthetic runtime on [`constrained_space`] whose optimum sits near
/// the constraint's edge.
fn observe_constrained(cfg: Configuration) -> Observation {
    let scale = cfg.float("scale");
    let n = cfg.int("n") as f64;
    let c = if cfg.str("c") == "y" { 0.0 } else { 2.0 };
    observation(
        cfg,
        10.0 + (scale.ln() - 4.2).powi(2) + ((n - 30.0) / 8.0).powi(2) + c,
    )
}

fn observation(config: Configuration, runtime_s: f64) -> Observation {
    Observation {
        config,
        runtime_s,
        cost_usd: 0.0,
        metrics: None,
        failure: None,
    }
}

/// FNV-1a over the display form of every proposal of `rounds` rounds
/// of `q`: `Display` prints floats in shortest round-trip form, so the
/// hash pins every bit.
fn proposal_hash(
    space: &ParamSpace,
    observe: fn(Configuration) -> Observation,
    tuner: &mut dyn Tuner,
    q: usize,
    rounds: usize,
) -> (u64, String) {
    let mut rng = StdRng::seed_from_u64(5);
    let mut history = Vec::new();
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut last = String::new();
    for _ in 0..rounds {
        let batch = tuner.propose(space, &history, q, &mut rng);
        assert_eq!(batch.len(), q, "{}: batch size", tuner.name());
        for cfg in batch {
            assert!(space.validate(&cfg).is_ok(), "invalid proposal {cfg}");
            last = cfg.to_string();
            for b in last.bytes().chain([b'\n']) {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            history.push(observe(cfg));
        }
    }
    (hash, last)
}

fn assert_pinned(tuner: &mut dyn Tuner, want_hash: u64, want_last: &str) {
    assert_pinned_on(&spark_space(), observe, tuner, want_hash, want_last);
}

fn assert_pinned_on(
    space: &ParamSpace,
    observe: fn(Configuration) -> Observation,
    tuner: &mut dyn Tuner,
    want_hash: u64,
    want_last: &str,
) {
    let name = tuner.name().to_owned();
    let (hash, last) = proposal_hash(space, observe, tuner, 1, 16);
    assert_eq!(last, want_last, "{name}: last proposal");
    assert_eq!(hash, want_hash, "{name}: proposal sequence hash");
}

#[test]
fn bayesopt_replays_its_pinned_proposals() {
    assert_pinned(
        &mut BayesOpt::new(),
        7103996086746789392,
        "{spark.broadcast.blockSize.mb=115, spark.default.parallelism=175, spark.driver.memory.mb=5120, spark.dynamicAllocation.enabled=false, spark.executor.cores=13, spark.executor.instances=45, spark.executor.memory.mb=18176, spark.io.compression.codec=lz4, spark.kryoserializer.buffer.max.mb=8, spark.locality.wait.ms=5500, spark.memory.fraction=0.580735650231521, spark.memory.storageFraction=0.5871582166486154, spark.network.timeout.s=509, spark.rdd.compress=true, spark.reducer.maxSizeInFlight.mb=233, spark.scheduler.mode=FAIR, spark.serializer=kryo, spark.shuffle.compress=true, spark.shuffle.file.buffer.kb=928, spark.shuffle.sort.bypassMergeThreshold=700, spark.shuffle.spill.compress=false, spark.speculation=false, spark.speculation.multiplier=1.7938045082102194, spark.speculation.quantile=0.6371824342025456, spark.sql.shuffle.partitions=33, spark.storage.level=DISK_ONLY}",
    );
}

#[test]
fn forest_tuner_replays_its_pinned_proposals() {
    assert_pinned(
        &mut ForestTuner::new(),
        18166972666835003630,
        "{spark.broadcast.blockSize.mb=31, spark.default.parallelism=871, spark.driver.memory.mb=6144, spark.dynamicAllocation.enabled=true, spark.executor.cores=3, spark.executor.instances=29, spark.executor.memory.mb=9984, spark.io.compression.codec=snappy, spark.kryoserializer.buffer.max.mb=112, spark.locality.wait.ms=5500, spark.memory.fraction=0.7071926605333143, spark.memory.storageFraction=0.8599016387637393, spark.network.timeout.s=411, spark.rdd.compress=false, spark.reducer.maxSizeInFlight.mb=72, spark.scheduler.mode=FAIR, spark.serializer=kryo, spark.shuffle.compress=true, spark.shuffle.file.buffer.kb=240, spark.shuffle.sort.bypassMergeThreshold=142, spark.shuffle.spill.compress=false, spark.speculation=false, spark.speculation.multiplier=1.7947333899464926, spark.speculation.quantile=0.7105043835325415, spark.sql.shuffle.partitions=299, spark.storage.level=MEMORY_AND_DISK}",
    );
}

#[test]
fn regression_tree_tuner_replays_its_pinned_proposals() {
    assert_pinned(
        &mut RegressionTreeTuner::new(),
        15621466438666151240,
        "{spark.broadcast.blockSize.mb=7, spark.default.parallelism=936, spark.driver.memory.mb=3840, spark.dynamicAllocation.enabled=true, spark.executor.cores=8, spark.executor.instances=46, spark.executor.memory.mb=2816, spark.io.compression.codec=zstd, spark.kryoserializer.buffer.max.mb=118, spark.locality.wait.ms=1000, spark.memory.fraction=0.8183377720595648, spark.memory.storageFraction=0.23068437704348732, spark.network.timeout.s=118, spark.rdd.compress=true, spark.reducer.maxSizeInFlight.mb=58, spark.scheduler.mode=FIFO, spark.serializer=java, spark.shuffle.compress=false, spark.shuffle.file.buffer.kb=272, spark.shuffle.sort.bypassMergeThreshold=813, spark.shuffle.spill.compress=false, spark.speculation=true, spark.speculation.multiplier=1.9340924090477936, spark.speculation.quantile=0.6104759822479093, spark.sql.shuffle.partitions=769, spark.storage.level=MEMORY_ONLY}",
    );
}

#[test]
fn bayesopt_replays_its_pinned_cloud_proposals() {
    assert_pinned_on(
        &cloud_space(),
        observe_cloud,
        &mut BayesOpt::new(),
        5776847067537276088,
        "{cloud.instance.family=m5, cloud.instance.size=2xlarge, cloud.node.count=2}",
    );
}

#[test]
fn bayesopt_replays_its_pinned_constrained_proposals() {
    assert_pinned_on(
        &constrained_space(),
        observe_constrained,
        &mut BayesOpt::new(),
        11950795614027733459,
        "{c=z, n=0, scale=94.92851092622874}",
    );
}

/// Asserts the hashes of 16 single proposals (`want_q1`) and of four
/// rounds of four (`want_q4`), each from a fresh tuner.
fn assert_hashes_on(
    space: &ParamSpace,
    observe: fn(Configuration) -> Observation,
    build: impl Fn() -> Box<dyn Tuner>,
    want_q1: u64,
    want_q4: u64,
) {
    let name = build().name().to_owned();
    let (q1, _) = proposal_hash(space, observe, build().as_mut(), 1, 16);
    let (q4, _) = proposal_hash(space, observe, build().as_mut(), 4, 4);
    assert_eq!(
        (q1, q4),
        (want_q1, want_q4),
        "{name}: (q = 1, q = 4) hashes"
    );
}

#[test]
fn every_tuner_kind_replays_its_pinned_proposals() {
    let want: [(TunerKind, u64, u64); 11] = [
        (TunerKind::Random, 4834754937967484450, 5709501892167208709),
        (TunerKind::Lhs, 15172370375139623597, 15172370375139623597),
        (
            TunerKind::HillClimb,
            4116229102572299317,
            10264704531004537625,
        ),
        (TunerKind::BayesOpt, 7103996086746789392, 75981926025821980),
        (
            TunerKind::AdditiveBayesOpt,
            9887797358222380776,
            4150103649716072646,
        ),
        (
            TunerKind::Genetic,
            17975323654052474846,
            5816387912159543180,
        ),
        (
            TunerKind::BestConfig,
            16098503485780922893,
            16098503485780922893,
        ),
        (
            TunerKind::RegressionTree,
            15621466438666151240,
            2563259057515186080,
        ),
        (
            TunerKind::RandomForest,
            18166972666835003630,
            5255116421689147486,
        ),
        (TunerKind::Ernest, 5707959982600262088, 5707959982600262088),
        (TunerKind::Rl, 2163023304624619596, 1124275366097342288),
    ];
    assert_eq!(want.len(), TunerKind::all().len());
    for (kind, q1, q4) in want {
        assert_hashes_on(&spark_space(), observe, || kind.build(), q1, q4);
    }
}

/// Genetic in eight rounds of four from an empty history, long enough
/// to reach the round that starts at history 20: the first past the
/// warm-up to open at `history.len() % 3 == 2`, with a nudge of the
/// incumbent.
#[test]
fn genetic_replays_its_pinned_long_batches() {
    let (hash, _) = proposal_hash(&spark_space(), observe, &mut Genetic::new(), 4, 8);
    assert_eq!(hash, 10781167981160208298, "genetic: 8 rounds of 4");
}

#[test]
fn ernest_replays_its_pinned_cloud_proposals() {
    assert_hashes_on(
        &cloud_space(),
        observe_cloud,
        || Box::new(Ernest::new()),
        16940472814376890465,
        16940472814376890465,
    );
}

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

fn observe_synth(cfg: Configuration) -> Observation {
    let runtime_s = synth_eval(&cfg);
    observation(cfg, runtime_s)
}

/// The transfer wrapper over BayesOpt, donated five points on a 3x
/// runtime scale: covers the donated probe, the warm-up, the rescale
/// and the donation guard.
#[test]
fn transfer_over_bayesopt_replays_its_pinned_proposals() {
    let donated: Vec<Observation> = [(60i64, 40i64), (75, 25), (20, 80), (90, 10), (50, 50)]
        .iter()
        .map(|&(a, b)| {
            let config = Configuration::new().with("a", a).with("b", b);
            let runtime_s = 3.0 * synth_eval(&config);
            observation(config, runtime_s)
        })
        .collect();
    assert_hashes_on(
        &synth_space(),
        observe_synth,
        || {
            Box::new(TransferTuner::new(
                Box::new(BayesOpt::new()),
                donated.clone(),
            ))
        },
        10833321689812052077,
        16424174581159603947,
    );
}
