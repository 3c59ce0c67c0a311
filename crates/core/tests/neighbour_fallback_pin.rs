//! A pinned BayesOpt proposal sequence whose neighbour draws are often
//! rejected. The synthetic optimum lies outside a constraint, so the
//! incumbent sits on the constraint's edge and many local moves around
//! it break the constraint; each rejected move is replaced by the
//! clamped incumbent. The proposal pins of the catalog spaces never
//! reach that fallback (instrumenting it when these pins were captured
//! counted no rejected move there, and 566 across the two sessions
//! here), so these pins hold it to the bit.

use confspace::{Configuration, Constraint, ParamDef, ParamSpace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use seamless_core::tuner::{BayesOpt, Tuner};
use seamless_core::Observation;

/// Two floats that may not sum past 1, a stepped int and a categorical.
fn edge_space() -> ParamSpace {
    ParamSpace::new()
        .with(ParamDef::float("x", 0.0, 1.0, 0.2, ""))
        .with(ParamDef::float("y", 0.0, 1.0, 0.2, ""))
        .with(ParamDef::int_step("k", 0, 20, 4, 8, ""))
        .with(ParamDef::categorical("c", &["p", "q", "r"], "p", ""))
        .with_constraint(Constraint::new("x + y <= 1", &["x", "y"], |v| {
            v.float(0) + v.float(1) <= 1.0
        }))
}

/// A bowl centred at x = y = 0.7, outside the feasible triangle.
fn observe(config: Configuration) -> Observation {
    let (x, y) = (config.float("x"), config.float("y"));
    let k = config.int("k") as f64;
    let c = if config.str("c") == "q" { 0.0 } else { 1.0 };
    let runtime_s =
        10.0 + 40.0 * ((x - 0.7).powi(2) + (y - 0.7).powi(2)) + ((k - 12.0) / 4.0).powi(2) + c;
    Observation {
        config,
        runtime_s,
        cost_usd: 0.0,
        metrics: None,
        failure: None,
    }
}

/// FNV-1a over the display form of every proposal, and the last one.
fn proposal_hash(tuner: &mut dyn Tuner, budget: usize, seed: u64) -> (u64, String) {
    let space = edge_space();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut history = Vec::new();
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut last = String::new();
    for _ in 0..budget {
        let cfg = tuner.propose(&space, &history, 1, &mut rng).remove(0);
        assert!(space.validate(&cfg).is_ok(), "invalid proposal {cfg}");
        last = cfg.to_string();
        for b in last.bytes().chain([b'\n']) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        history.push(observe(cfg));
    }
    (hash, last)
}

#[test]
fn bayesopt_with_rejected_neighbours_matches_its_pin() {
    let (hash, last) = proposal_hash(&mut BayesOpt::new(), 20, 5);
    assert_eq!(
        last,
        "{c=r, k=8, x=0.5121220063210995, y=0.4857280373714237}"
    );
    assert_eq!(hash, 0x0fbe_2287_1b3a_81a4);
}

#[test]
fn additive_bayesopt_with_rejected_neighbours_matches_its_pin() {
    let (hash, last) = proposal_hash(&mut BayesOpt::additive(), 20, 11);
    assert_eq!(
        last,
        "{c=q, k=8, x=0.4991747273864767, y=0.5005743190428151}"
    );
    assert_eq!(hash, 0xa0d1_0055_9813_b91c);
}
