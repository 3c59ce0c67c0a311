//! Virtual cluster specifications.

use serde::{Deserialize, Serialize};

use confspace::cloud::names as cloud_names;
use confspace::Configuration;

use crate::catalog::{self, InstanceType};
use crate::error::SimError;

/// A provisioned virtual cluster: one instance type × a node count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// The node VM type.
    pub instance: InstanceType,
    /// Number of worker nodes.
    pub nodes: u32,
}

impl ClusterSpec {
    /// Creates a cluster of `nodes` × `instance`.
    ///
    /// # Panics
    ///
    /// Panics when `nodes == 0`.
    pub fn new(instance: InstanceType, nodes: u32) -> Self {
        assert!(nodes > 0, "a cluster needs at least one node");
        ClusterSpec { instance, nodes }
    }

    /// Builds a cluster from a cloud-layer [`Configuration`] (the
    /// `cloud.*` parameters of [`confspace::cloud::cloud_space`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownInstance`] when the family/size pair is
    /// not in the catalog.
    pub fn from_config(cfg: &Configuration) -> Result<Self, SimError> {
        let family = cfg.str(cloud_names::INSTANCE_FAMILY);
        let size = cfg.str(cloud_names::INSTANCE_SIZE);
        let nodes = cfg.int(cloud_names::NODE_COUNT) as u32;
        let instance = catalog::lookup(family, size)
            .ok_or_else(|| SimError::UnknownInstance(format!("{family}.{size}")))?;
        Ok(ClusterSpec::new(instance, nodes.max(1)))
    }

    /// The paper's Table I testbed: 4 × h1.4xlarge.
    pub fn table1_testbed() -> Self {
        ClusterSpec::new(catalog::h1_4xlarge(), 4)
    }

    /// Cluster price in USD per hour.
    pub fn price_per_hour(&self) -> f64 {
        self.instance.price_per_hour * f64::from(self.nodes)
    }

    /// Cost in USD of running the cluster for `seconds`.
    pub fn cost_for(&self, seconds: f64) -> f64 {
        self.price_per_hour() * seconds / 3600.0
    }
}

impl std::fmt::Display for ClusterSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x {}", self.nodes, self.instance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confspace::cloud::cloud_space;

    #[test]
    fn testbed_totals() {
        let c = ClusterSpec::table1_testbed();
        assert_eq!(c.nodes, 4);
        assert!((c.price_per_hour() - 4.0 * 0.936).abs() < 1e-9);
    }

    #[test]
    fn from_config_uses_cloud_params() {
        let cfg = cloud_space().default_configuration();
        let c = ClusterSpec::from_config(&cfg).unwrap();
        assert_eq!(c, ClusterSpec::table1_testbed());
    }

    #[test]
    fn from_config_rejects_unknown_instance() {
        let cfg = confspace::Configuration::new()
            .with(confspace::cloud::names::INSTANCE_FAMILY, "z9")
            .with(confspace::cloud::names::INSTANCE_SIZE, "large")
            .with(confspace::cloud::names::NODE_COUNT, 2i64);
        assert!(ClusterSpec::from_config(&cfg).is_err());
    }

    #[test]
    fn cost_is_linear_in_time() {
        let c = ClusterSpec::table1_testbed();
        assert!((c.cost_for(3600.0) - c.price_per_hour()).abs() < 1e-9);
        assert!((c.cost_for(1800.0) - c.price_per_hour() / 2.0).abs() < 1e-9);
    }
}
