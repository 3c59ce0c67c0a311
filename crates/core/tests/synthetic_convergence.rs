//! Convergence tests for every strategy on closed-form objectives —
//! cheap, simulator-free checks that each algorithm actually optimizes.

use confspace::{Configuration, ParamDef, ParamSpace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use seamless_core::tuner::{best_so_far, TunerKind};
use seamless_core::Observation;

/// A 4-D continuous space.
fn space() -> ParamSpace {
    let mut s = ParamSpace::new();
    for d in 0..4 {
        s.add(ParamDef::float(&format!("x{d}"), 0.0, 1.0, 0.5, ""));
    }
    s
}

/// Shifted sphere: smooth, unimodal.
fn sphere(c: &Configuration) -> f64 {
    (0..4)
        .map(|d| {
            let x = c.float(&format!("x{d}"));
            let target = 0.2 + 0.15 * d as f64;
            (x - target).powi(2)
        })
        .sum::<f64>()
        * 100.0
        + 1.0
}

/// Step surface: piecewise-constant, tests tree/forest strategies.
fn steps(c: &Configuration) -> f64 {
    let mut v = 10.0;
    if c.float("x0") < 0.5 {
        v -= 4.0;
    }
    if c.float("x1") > 0.3 {
        v -= 3.0;
    }
    if c.float("x2") < 0.7 {
        v -= 2.0;
    }
    v
}

fn run(kind: TunerKind, f: fn(&Configuration) -> f64, budget: usize, seed: u64) -> Vec<f64> {
    let s = space();
    let mut tuner = kind.build();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut history: Vec<Observation> = Vec::new();
    for _ in 0..budget {
        let cfg = tuner.propose(&s, &history, 1, &mut rng).remove(0);
        assert!(s.validate(&cfg).is_ok(), "{kind} proposed invalid config");
        history.push(Observation {
            runtime_s: f(&cfg),
            config: cfg,
            cost_usd: 0.0,
            metrics: None,
            failure: None,
        });
    }
    best_so_far(&history)
}

#[test]
fn every_strategy_improves_on_the_sphere() {
    for kind in TunerKind::all() {
        let mut improved = false;
        for seed in 0..3u64 {
            let curve = run(kind, sphere, 40, seed);
            // Final best must improve on the first evaluation.
            if curve.last().unwrap() < &(curve[0] * 0.8) {
                improved = true;
                break;
            }
        }
        assert!(
            improved,
            "{kind} never improved ≥20% on a smooth bowl in 3 tries"
        );
    }
}

#[test]
fn model_strategies_land_near_the_sphere_optimum() {
    for kind in [
        TunerKind::BayesOpt,
        TunerKind::AdditiveBayesOpt,
        TunerKind::Genetic,
    ] {
        let mut total = 0.0;
        for seed in 0..3u64 {
            total += run(kind, sphere, 50, seed).last().unwrap();
        }
        let mean = total / 3.0;
        // The sphere's evaluation range spans ~1 (optimum) to ~180
        // (worst corner); landing under 3.5 means the strategy closed
        // >98% of that gap.
        assert!(mean < 3.5, "{kind}: mean final best {mean} (optimum 1.0)");
    }
}

#[test]
fn tree_strategies_solve_the_step_surface() {
    for kind in [
        TunerKind::RegressionTree,
        TunerKind::RandomForest,
        TunerKind::Genetic,
    ] {
        let mut total = 0.0;
        for seed in 0..3u64 {
            total += run(kind, steps, 40, seed).last().unwrap();
        }
        let mean = total / 3.0;
        assert!(mean <= 1.5, "{kind}: mean final best {mean} (optimum 1.0)");
    }
}

#[test]
fn bestconfig_contracts_to_the_optimum_region() {
    let curve = run(TunerKind::BestConfig, sphere, 60, 7);
    assert!(
        curve.last().unwrap() < &3.0,
        "bound-and-search should home in: {curve:?}"
    );
}

#[test]
fn curves_are_monotone_for_all_strategies() {
    for kind in TunerKind::all() {
        let curve = run(kind, sphere, 20, 11);
        for w in curve.windows(2) {
            assert!(w[1] <= w[0], "{kind}: best-so-far regressed");
        }
    }
}
