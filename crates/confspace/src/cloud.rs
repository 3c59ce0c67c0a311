//! The cloud configuration-parameter catalog.
//!
//! Stage 1 of the paper's Fig. 1 pipeline chooses the virtual cluster:
//! instance *family* (resource ratio), instance *size* (scale-up) and
//! *node count* (scale-out). The concrete resource numbers and prices
//! behind each choice live in `simcluster::catalog`.

use crate::param::ParamDef;
use crate::space::{Constraint, ParamSpace};

/// Canonical names of the cloud parameters.
pub mod names {
    /// Instance family: general (m5), compute (c5), memory (r5),
    /// storage-dense (h1), io (i3).
    pub const INSTANCE_FAMILY: &str = "cloud.instance.family";
    /// Instance size within the family.
    pub const INSTANCE_SIZE: &str = "cloud.instance.size";
    /// Number of worker nodes.
    pub const NODE_COUNT: &str = "cloud.node.count";
}

/// Instance families available in the simulated catalog.
pub const FAMILIES: [&str; 5] = ["m5", "c5", "r5", "h1", "i3"];

/// Instance sizes available in the simulated catalog.
pub const SIZES: [&str; 4] = ["large", "xlarge", "2xlarge", "4xlarge"];

/// Builds the cloud parameter space.
///
/// The default mirrors the paper's Table I testbed: 4 × h1.4xlarge.
pub fn cloud_space() -> ParamSpace {
    use names::*;
    ParamSpace::new()
        .with(ParamDef::categorical(
            INSTANCE_FAMILY,
            &FAMILIES,
            "h1",
            "instance family (resource ratio)",
        ))
        .with(ParamDef::categorical(
            INSTANCE_SIZE,
            &SIZES,
            "4xlarge",
            "instance size within the family",
        ))
        .with(ParamDef::int(
            NODE_COUNT,
            2,
            20,
            4,
            "number of worker nodes",
        ))
        .with_constraint(Constraint::new(
            "h1 has no `large` size",
            &[INSTANCE_FAMILY, INSTANCE_SIZE],
            |v| !(v.str(0) == "h1" && v.str(1) == "large"),
        ))
}

/// Builds the *joint* cloud + DISC space (§I: optimal choices for cloud
/// and DISC parameters are interdependent).
pub fn joint_space() -> ParamSpace {
    cloud_space().union(&crate::spark::spark_space())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::uniform;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_is_the_paper_testbed() {
        let s = cloud_space();
        let d = s.default_configuration();
        assert_eq!(d.str(names::INSTANCE_FAMILY), "h1");
        assert_eq!(d.str(names::INSTANCE_SIZE), "4xlarge");
        assert_eq!(d.int(names::NODE_COUNT), 4);
        assert!(s.validate(&d).is_ok());
    }

    #[test]
    fn h1_large_is_rejected() {
        let s = cloud_space();
        let bad = s
            .default_configuration()
            .with(names::INSTANCE_SIZE, "large");
        assert!(s.validate(&bad).is_err());
    }

    #[test]
    fn joint_space_has_both_layers() {
        let j = joint_space();
        assert_eq!(j.len(), 3 + 26);
        assert!(j.param(names::NODE_COUNT).is_some());
        assert!(j.param(crate::spark::names::EXECUTOR_CORES).is_some());
    }

    #[test]
    fn samples_respect_family_size_constraint() {
        let s = cloud_space();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..200 {
            let cfg = uniform(&s, &mut rng);
            assert!(
                !(cfg.str(names::INSTANCE_FAMILY) == "h1"
                    && cfg.str(names::INSTANCE_SIZE) == "large")
            );
        }
    }
}
