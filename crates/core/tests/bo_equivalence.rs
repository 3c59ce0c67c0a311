//! The BO fit cache must not leak across sessions: after `reset` a
//! tuner emits *exactly* the proposal sequence a fresh one does. That
//! cached and full refits agree is pinned in the models crate
//! (`par_equivalence.rs`) and by `proposal_pins.rs`.

use confspace::{Configuration, ParamDef, ParamSpace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use seamless_core::tuner::{BayesOpt, Tuner};
use seamless_core::Observation;

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

fn proposal_sequence(tuner: &mut BayesOpt, budget: usize, seed: u64) -> Vec<Configuration> {
    let space = synth_space();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut history = Vec::new();
    let mut proposals = Vec::new();
    for _ in 0..budget {
        let cfg = tuner.propose(&space, &history, &mut rng);
        let runtime_s = synth_eval(&cfg);
        proposals.push(cfg.clone());
        history.push(Observation {
            config: cfg,
            runtime_s,
            cost_usd: 0.0,
            metrics: None,
            failure: None,
        });
    }
    proposals
}

#[test]
fn reset_clears_the_fit_cache() {
    // After a reset the tuner must behave exactly like a fresh one —
    // no stale factors leaking across sessions.
    let mut reused = BayesOpt::new();
    let _ = proposal_sequence(&mut reused, 15, 5);
    reused.reset();
    let again = proposal_sequence(&mut reused, 15, 5);

    let mut fresh = BayesOpt::new();
    let first = proposal_sequence(&mut fresh, 15, 5);
    assert_eq!(again, first, "reset tuner diverges from a fresh tuner");
}
