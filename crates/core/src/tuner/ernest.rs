//! Ernest (Venkataraman et al. \[28\]): an analytic machine-scaling model
//! fitted on a small designed experiment, used to pick the cluster
//! size (and, here, family) for a job.
//!
//! Ernest's model `t(m) = θ₀ + θ₁/m + θ₂·log m + θ₃·m` captures
//! scale-out behaviour of ML-style jobs extremely data-efficiently —
//! and §II-A (citing CherryPick) notes its poor adaptivity beyond that
//! niche. Both behaviours are visible here: on cloud spaces it runs a
//! tiny designed experiment per instance family and extrapolates; on
//! spaces without a machine-count dimension (e.g. the 26-parameter DISC
//! space) the model has nothing to grip and the strategy degrades to
//! random search — reproducing the paper's "poor adaptivity" point.

use confspace::cloud::names as cn;
use confspace::{sample, Configuration, ParamKind, ParamSpace};
use models::ErnestModel;
use rand::RngCore;

use crate::objective::Observation;
use crate::tuner::{constant_liar, Tuner};

/// Ernest's designed-experiment + analytic-model strategy.
#[derive(Debug, Clone, Default)]
pub struct Ernest {
    design: Vec<Configuration>,
    design_built: bool,
}

impl Ernest {
    /// Creates the strategy.
    pub fn new() -> Self {
        Ernest::default()
    }

    fn families(space: &ParamSpace) -> Vec<String> {
        space
            .param(cn::INSTANCE_FAMILY)
            .map(|p| match &p.kind {
                ParamKind::Categorical { choices } => choices.clone(),
                _ => Vec::new(),
            })
            .unwrap_or_default()
    }

    fn node_range(space: &ParamSpace) -> Option<(i64, i64)> {
        space.param(cn::NODE_COUNT).and_then(|p| match p.kind {
            ParamKind::Int { lo, hi, .. } => Some((lo, hi)),
            _ => None,
        })
    }

    fn make_config(space: &ParamSpace, family: &str, nodes: i64) -> Configuration {
        let cfg = space
            .default_configuration()
            .with(cn::INSTANCE_FAMILY, family)
            .with(cn::INSTANCE_SIZE, "xlarge")
            .with(cn::NODE_COUNT, nodes);
        space.clamp(&cfg)
    }

    fn build_design(&mut self, space: &ParamSpace) {
        let Some((lo, hi)) = Self::node_range(space) else {
            return;
        };
        let probes = [lo.max(2), ((lo + hi) / 3).max(lo + 1)];
        for family in Self::families(space) {
            for &m in &probes {
                self.design.push(Self::make_config(space, &family, m));
            }
        }
        self.design.reverse();
    }

    fn propose_one(
        &mut self,
        space: &ParamSpace,
        history: &[Observation],
        rng: &mut dyn RngCore,
    ) -> Configuration {
        let Some((lo, hi)) = Self::node_range(space) else {
            // No machine-scale dimension: the model does not apply
            // (the paper's "poor adaptivity" case) — random search.
            return sample::uniform(space, rng);
        };

        if !self.design_built {
            self.build_design(space);
            self.design_built = true;
        }
        if let Some(c) = self.design.pop() {
            return c;
        }

        // Fit one scaling model per family on its observations, then
        // propose the (family, m) minimizing predicted runtime among
        // combinations not yet evaluated.
        let mut best: Option<(f64, Configuration)> = None;
        for family in Self::families(space) {
            let obs: Vec<&Observation> = history
                .iter()
                .filter(|o| {
                    o.config
                        .get(cn::INSTANCE_FAMILY)
                        .and_then(|v| v.as_str())
                        .is_some_and(|f| f == family)
                })
                .collect();
            if obs.len() < 2 {
                continue;
            }
            let pts: Vec<(f64, f64)> = obs
                .iter()
                .map(|o| (o.config.int(cn::NODE_COUNT) as f64, 1.0))
                .collect();
            let ys: Vec<f64> = obs.iter().map(|o| o.runtime_s).collect();
            let Ok(model) = ErnestModel::fit(&pts, &ys) else {
                continue;
            };
            for m in lo..=hi {
                let cfg = Self::make_config(space, &family, m);
                if history.iter().any(|o| o.config == cfg) {
                    continue;
                }
                let pred = model.predict(m as f64, 1.0);
                if best.as_ref().is_none_or(|(b, _)| pred < *b) {
                    best = Some((pred, cfg));
                }
            }
        }
        best.map(|(_, c)| c)
            .unwrap_or_else(|| sample::uniform(space, rng))
    }
}

impl Tuner for Ernest {
    fn name(&self) -> &str {
        "ernest"
    }

    fn propose(
        &mut self,
        space: &ParamSpace,
        history: &[Observation],
        q: usize,
        rng: &mut dyn RngCore,
    ) -> Vec<Configuration> {
        constant_liar(history, q, |h| self.propose_one(space, h, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confspace::cloud::cloud_space;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn design_covers_every_family() {
        let space = cloud_space();
        let mut t = Ernest::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = std::collections::HashSet::new();
        let mut history = Vec::new();
        for _ in 0..10 {
            let cfg = t.propose(&space, &history, 1, &mut rng).remove(0);
            assert!(space.validate(&cfg).is_ok());
            seen.insert(cfg.str(cn::INSTANCE_FAMILY).to_owned());
            history.push(Observation {
                runtime_s: 100.0 / cfg.int(cn::NODE_COUNT) as f64,
                config: cfg,
                cost_usd: 0.0,
                metrics: None,
                failure: None,
            });
        }
        assert_eq!(seen.len(), 5, "all families probed: {seen:?}");
    }

    #[test]
    fn model_phase_scales_out_when_runtime_improves_with_nodes() {
        let space = cloud_space();
        let mut t = Ernest::new();
        let mut rng = StdRng::seed_from_u64(2);
        let mut history = Vec::new();
        // Synthetic truth: perfectly parallel work, m5 slightly best.
        let eval = |c: &Configuration| {
            let m = c.int(cn::NODE_COUNT) as f64;
            let fam = if c.str(cn::INSTANCE_FAMILY) == "m5" {
                0.9
            } else {
                1.0
            };
            fam * (5.0 + 200.0 / m + 0.1 * m)
        };
        for _ in 0..16 {
            let cfg = t.propose(&space, &history, 1, &mut rng).remove(0);
            history.push(Observation {
                runtime_s: eval(&cfg),
                config: cfg,
                cost_usd: 0.0,
                metrics: None,
                failure: None,
            });
        }
        // Post-design proposals should move to large node counts.
        let last = &history.last().unwrap().config;
        assert!(last.int(cn::NODE_COUNT) >= 8, "{last}");
    }

    #[test]
    fn falls_back_to_random_on_disc_space() {
        let space = confspace::spark::spark_space();
        let mut t = Ernest::new();
        let mut rng = StdRng::seed_from_u64(3);
        let a = t.propose(&space, &[], 1, &mut rng).remove(0);
        let b = t.propose(&space, &[], 1, &mut rng).remove(0);
        assert!(space.validate(&a).is_ok());
        assert_ne!(a, b, "fallback behaves like random search");
    }
}
