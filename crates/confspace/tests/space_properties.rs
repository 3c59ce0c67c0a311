//! Property tests over *arbitrary* parameter spaces (not just the
//! built-in catalogs): sampling, clamping and encoding must uphold
//! their contracts for any space a downstream user could define.

use confspace::{sample, Configuration, ParamDef, ParamSpace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A generated parameter definition.
fn arb_param(idx: usize) -> impl Strategy<Value = ParamDef> {
    prop_oneof![
        // Int range with a sane width.
        (0i64..100, 1i64..200, 1i64..8).prop_map(move |(lo, width, step)| {
            ParamDef::int_step(
                &format!("p{idx}"),
                lo,
                lo + width * step,
                step,
                lo,
                "generated",
            )
        }),
        // Float range.
        (0.0f64..10.0, 0.1f64..50.0).prop_map(move |(lo, width)| {
            ParamDef::float(&format!("p{idx}"), lo, lo + width, lo, "generated")
        }),
        Just(()).prop_map(move |()| ParamDef::boolean(&format!("p{idx}"), false, "generated")),
        (2usize..5).prop_map(move |n| {
            let choices: Vec<String> = (0..n).map(|i| format!("c{i}")).collect();
            let refs: Vec<&str> = choices.iter().map(String::as_str).collect();
            ParamDef::categorical(&format!("p{idx}"), &refs, refs[0], "generated")
        }),
    ]
}

fn arb_space() -> impl Strategy<Value = ParamSpace> {
    (1usize..6).prop_flat_map(|n| {
        let params: Vec<_> = (0..n).map(arb_param).collect();
        params.prop_map(|defs| {
            let mut space = ParamSpace::new();
            for d in defs {
                space.add(d);
            }
            space
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Uniform samples of any space validate against that space.
    #[test]
    fn uniform_samples_validate(space in arb_space(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..5 {
            let cfg = sample::uniform(&space, &mut rng);
            prop_assert!(space.validate(&cfg).is_ok());
        }
    }

    /// LHS batches validate too.
    #[test]
    fn batch_samplers_validate(space in arb_space(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for cfg in sample::latin_hypercube(&space, 7, &mut rng) {
            prop_assert!(space.validate(&cfg).is_ok());
        }
    }

    /// Clamping an arbitrary (even garbage) configuration yields a
    /// valid one for constraint-free spaces.
    #[test]
    fn clamp_always_repairs(space in arb_space(), junk in any::<i64>()) {
        let cfg = Configuration::new()
            .with("nonexistent", junk)
            .with("p0", junk); // possibly wrong type: clamp falls back to default
        let fixed = space.clamp(&cfg);
        prop_assert!(space.validate(&fixed).is_ok());
    }

    /// Encoding is always `len()`-dimensional and within [0, 1].
    #[test]
    fn encoding_is_unit_box(space in arb_space(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = sample::uniform(&space, &mut rng);
        let v = space.encode(&cfg);
        prop_assert_eq!(v.len(), space.len());
        prop_assert!(v.iter().all(|x| (0.0..=1.0).contains(x)));
    }

    /// decode(encode(·)) is idempotent: decoding twice changes nothing.
    #[test]
    fn decode_is_idempotent(space in arb_space(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = sample::uniform(&space, &mut rng);
        let once = space.decode(&space.encode(&cfg));
        let twice = space.decode(&space.encode(&once));
        prop_assert_eq!(once, twice);
    }

    /// The default configuration of any generated space validates.
    #[test]
    fn defaults_validate(space in arb_space()) {
        prop_assert!(space.validate(&space.default_configuration()).is_ok());
    }
}
