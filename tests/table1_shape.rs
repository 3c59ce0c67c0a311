//! Integration test: the Table I shape must hold end-to-end.
//!
//! A scaled-down version of experiment E1 (40-configuration pools,
//! smaller sizes, savings averaged over three pools like the full
//! experiment) asserting the paper's qualitative result: re-tuning over
//! growing inputs saves substantially for Pagerank and nearly nothing
//! for Wordcount.

use seamless_tuning::prelude::*;

use rand::rngs::StdRng;
use rand::SeedableRng;

fn run(cluster: &ClusterSpec, job: &simcluster::JobSpec, cfg: &Configuration) -> f64 {
    let Ok(env) = SparkEnv::resolve(cluster, cfg) else {
        return f64::INFINITY;
    };
    let sim = Simulator::dedicated();
    let mut total = 0.0;
    for seed in [11u64, 12] {
        let mut rng = StdRng::seed_from_u64(seed);
        match sim.run(&env, job, &mut rng) {
            Ok(r) => total += r.runtime_s,
            Err(_) => return f64::INFINITY,
        }
    }
    total / 2.0
}

/// Best-of-pool runtime and config for one (workload, size).
fn best_of_pool(
    cluster: &ClusterSpec,
    job: &simcluster::JobSpec,
    pool: &[Configuration],
) -> (Configuration, f64) {
    pool.iter()
        .map(|c| (c.clone(), run(cluster, job, c)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("pool non-empty")
}

/// Mean re-tuning saving over three independent pools; crashed reuse
/// counts as a full saving (re-tuning rescued the job).
fn saving(workload: &dyn Workload, small: DataScale, big: DataScale) -> f64 {
    let cluster = ClusterSpec::table1_testbed();
    let space = spark_space();
    let mut savings = Vec::new();
    for pool_seed in [99u64, 100, 101] {
        let mut rng = StdRng::seed_from_u64(pool_seed);
        let pool: Vec<Configuration> = (0..40).map(|_| sample::uniform(&space, &mut rng)).collect();
        let (cfg_small, _) = best_of_pool(&cluster, &workload.job(small), &pool);
        let (_, best_big) = best_of_pool(&cluster, &workload.job(big), &pool);
        let reused = run(&cluster, &workload.job(big), &cfg_small);
        savings.push(if reused.is_finite() {
            ((reused - best_big) / reused).max(0.0)
        } else {
            1.0
        });
    }
    savings.iter().sum::<f64>() / savings.len() as f64
}

#[test]
fn pagerank_retuning_saves_much_more_than_wordcount() {
    let small = DataScale::Custom(2048.0);
    let big = DataScale::Custom(49_152.0);
    let pr = saving(&Pagerank::new(), small, big);
    let wc = saving(&Wordcount::new(), small, big);
    assert!(
        pr > wc + 0.08,
        "pagerank saving {pr:.2} should exceed wordcount saving {wc:.2} by >8pts"
    );
    assert!(
        wc < 0.15,
        "wordcount re-tuning saving should be marginal, got {wc:.2}"
    );
    assert!(
        pr > 0.10,
        "24x growth must create a real re-tuning opportunity, got {pr:.2}"
    );
}
