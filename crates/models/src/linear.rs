//! Linear models: ridge regression with feature standardization, and
//! the Ernest performance model (Venkataraman et al., NSDI'16) for
//! machine-scale extrapolation (§II-A).

use crate::linalg::{ridge_solve, LinalgError, Matrix};
use crate::stats::{mean, std_dev};

/// Ridge regression with an intercept and standardized features.
#[derive(Debug, Clone)]
pub struct RidgeRegression {
    weights: Vec<f64>,
    intercept: f64,
    x_mean: Vec<f64>,
    x_std: Vec<f64>,
}

impl RidgeRegression {
    /// Fits `y ≈ w·standardize(x) + b` with L2 penalty `lambda`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError`] when the normal equations are singular
    /// (only with `lambda == 0` and collinear features).
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or lengths mismatch.
    pub fn fit(x: &[Vec<f64>], y: &[f64], lambda: f64) -> Result<Self, LinalgError> {
        assert!(!x.is_empty(), "ridge needs at least one sample");
        assert_eq!(x.len(), y.len(), "X and y length mismatch");
        let d = x[0].len();
        let x_mean: Vec<f64> = (0..d)
            .map(|j| mean(&x.iter().map(|r| r[j]).collect::<Vec<_>>()))
            .collect();
        let x_std: Vec<f64> = (0..d)
            .map(|j| std_dev(&x.iter().map(|r| r[j]).collect::<Vec<_>>()).max(1e-9))
            .collect();
        let y_mean = mean(y);
        let xs: Vec<Vec<f64>> = x
            .iter()
            .map(|r| {
                r.iter()
                    .enumerate()
                    .map(|(j, v)| (v - x_mean[j]) / x_std[j])
                    .collect()
            })
            .collect();
        let yc: Vec<f64> = y.iter().map(|v| v - y_mean).collect();
        let xm = Matrix::from_rows(&xs);
        let weights = ridge_solve(&xm, &yc, lambda.max(1e-9))?;
        Ok(RidgeRegression {
            weights,
            intercept: y_mean,
            x_mean,
            x_std,
        })
    }

    /// Predicts the target at `q`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn predict(&self, q: &[f64]) -> f64 {
        assert_eq!(q.len(), self.weights.len(), "query dimension mismatch");
        self.intercept
            + q.iter()
                .enumerate()
                .map(|(j, v)| self.weights[j] * (v - self.x_mean[j]) / self.x_std[j])
                .sum::<f64>()
    }

    /// The fitted (standardized-space) weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

/// The Ernest model: runtime of a scale-out analytics job as
///
/// `t(m, s) = θ₀ + θ₁·(s/m) + θ₂·log(m) + θ₃·m`
///
/// where `m` is the machine count and `s` the data scale: fixed
/// overhead, perfectly-parallel work, tree-aggregation depth, and
/// per-machine coordination cost. Accurate for ML-style jobs; §II-A
/// notes (via CherryPick) its poor adaptivity to other job types — our
/// E5/E9 experiments reproduce exactly that contrast.
#[derive(Debug, Clone)]
pub struct ErnestModel {
    theta: Vec<f64>,
}

impl ErnestModel {
    /// The model's feature map.
    pub fn features(machines: f64, scale: f64) -> Vec<f64> {
        let m = machines.max(1.0);
        vec![1.0, scale / m, m.ln(), m]
    }

    /// Fits θ on observations of `(machines, scale) → runtime`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError`] when the design matrix is singular.
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty or lengths mismatch.
    pub fn fit(obs: &[(f64, f64)], runtimes: &[f64]) -> Result<Self, LinalgError> {
        assert!(!obs.is_empty(), "Ernest needs at least one observation");
        assert_eq!(obs.len(), runtimes.len(), "length mismatch");
        let rows: Vec<Vec<f64>> = obs.iter().map(|&(m, s)| Self::features(m, s)).collect();
        let xm = Matrix::from_rows(&rows);
        let theta = ridge_solve(&xm, runtimes, 1e-6)?;
        Ok(ErnestModel { theta })
    }

    /// Predicted runtime at `(machines, scale)`.
    pub fn predict(&self, machines: f64, scale: f64) -> f64 {
        Self::features(machines, scale)
            .iter()
            .zip(&self.theta)
            .map(|(f, t)| f * t)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ridge_fits_linear_function() {
        let x: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![i as f64, (i * i) as f64 % 7.0])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 3.0 * r[0] - 2.0 * r[1] + 5.0).collect();
        let m = RidgeRegression::fit(&x, &y, 1e-6).unwrap();
        for (xi, yi) in x.iter().zip(&y) {
            // A hair of ridge shrinkage is expected.
            assert!((m.predict(xi) - yi).abs() < 1e-3);
        }
    }

    #[test]
    fn ernest_recovers_scaling_law() {
        // Ground truth: t = 10 + 100*s/m + 2*ln(m) + 0.5*m
        let truth = |m: f64, s: f64| 10.0 + 100.0 * s / m + 2.0 * m.ln() + 0.5 * m;
        let obs: Vec<(f64, f64)> = vec![
            (1.0, 1.0),
            (2.0, 1.0),
            (4.0, 1.0),
            (8.0, 1.0),
            (2.0, 2.0),
            (4.0, 4.0),
            (8.0, 2.0),
            (16.0, 4.0),
        ];
        let y: Vec<f64> = obs.iter().map(|&(m, s)| truth(m, s)).collect();
        let model = ErnestModel::fit(&obs, &y).unwrap();
        // Extrapolate beyond the training machine counts.
        let pred = model.predict(32.0, 4.0);
        let actual = truth(32.0, 4.0);
        assert!(
            (pred - actual).abs() / actual < 0.05,
            "pred {pred} vs {actual}"
        );
    }

    #[test]
    fn ernest_features_shape() {
        let f = ErnestModel::features(4.0, 2.0);
        assert_eq!(f.len(), 4);
        assert_eq!(f[0], 1.0);
        assert_eq!(f[1], 0.5);
    }

    #[test]
    fn ridge_weights_accessible() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0]];
        let y = vec![0.0, 1.0, 2.0];
        let m = RidgeRegression::fit(&x, &y, 1e-6).unwrap();
        assert_eq!(m.weights().len(), 1);
        assert!(m.weights()[0] > 0.0);
    }
}
