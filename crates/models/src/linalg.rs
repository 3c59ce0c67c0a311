//! Small dense linear algebra: exactly what Gaussian-process regression
//! and least-squares model fitting need, and nothing more.
//!
//! Implemented here rather than pulling in a linear-algebra crate (see
//! DESIGN.md §5): the workloads are small (n ≲ a few hundred
//! observations), so a straightforward Cholesky path is fast enough and
//! keeps the dependency set to the allowed list.

use std::fmt;

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Creates a matrix whose rows are the given slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have unequal lengths or the input is empty.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// A view of row `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The transpose.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics on incompatible dimensions.
    #[must_use]
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "dimension mismatch in matmul");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// Matrix-vector product.
    ///
    /// # Panics
    ///
    /// Panics on incompatible dimensions.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "dimension mismatch in matvec");
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Cholesky decomposition `A = L Lᵀ` of a symmetric positive-definite
    /// matrix; returns the lower-triangular `L`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] when a pivot is
    /// non-positive (after a tiny jitter tolerance).
    pub fn cholesky(&self) -> Result<Matrix, LinalgError> {
        assert_eq!(self.rows, self.cols, "cholesky needs a square matrix");
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 1e-12 {
                        return Err(LinalgError::NotPositiveDefinite { pivot: i });
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(l)
    }

    /// Incremental Cholesky: given `self = L` with `L Lᵀ = A` (n × n),
    /// returns the factor of the bordered matrix
    /// `[[A, a], [aᵀ, d]]` in O(n²) instead of refactorizing in O(n³).
    ///
    /// The appended row is computed with the same operations, in the
    /// same order, as [`Matrix::cholesky`] would use for its last row,
    /// so the result is bit-for-bit identical to a from-scratch
    /// factorization of the grown matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] when the new pivot
    /// is non-positive (same tolerance as [`Matrix::cholesky`]).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not square or `a.len() != self.rows()`.
    pub fn cholesky_append(&self, a: &[f64], d: f64) -> Result<Matrix, LinalgError> {
        assert_eq!(self.rows, self.cols, "cholesky_append needs a square L");
        let n = self.rows;
        assert_eq!(a.len(), n, "border column length mismatch");
        let mut l = Matrix::zeros(n + 1, n + 1);
        for i in 0..n {
            l.data[i * (n + 1)..i * (n + 1) + n].copy_from_slice(self.row(i));
        }
        for j in 0..n {
            let mut sum = a[j];
            for k in 0..j {
                sum -= l[(n, k)] * l[(j, k)];
            }
            l[(n, j)] = sum / l[(j, j)];
        }
        let mut sum = d;
        for k in 0..n {
            sum -= l[(n, k)] * l[(n, k)];
        }
        if sum <= 1e-12 {
            return Err(LinalgError::NotPositiveDefinite { pivot: n });
        }
        l[(n, n)] = sum.sqrt();
        Ok(l)
    }

    /// Solves `L x = b` for lower-triangular `L` (forward substitution).
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let n = self.rows;
        let mut x = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for j in 0..i {
                sum -= self[(i, j)] * x[j];
            }
            x[i] = sum / self[(i, i)];
        }
        x
    }

    /// Solves `Lᵀ x = b` for lower-triangular `L` (back substitution).
    pub fn solve_lower_transpose(&self, b: &[f64]) -> Vec<f64> {
        let n = self.rows;
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = b[i];
            for j in i + 1..n {
                sum -= self[(j, i)] * x[j];
            }
            x[i] = sum / self[(i, i)];
        }
        x
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// Errors from linear-algebra routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Cholesky hit a non-positive pivot.
    NotPositiveDefinite {
        /// Index of the offending pivot.
        pivot: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Solves the ridge-regularized least squares problem
/// `argmin_w ‖X w − y‖² + λ‖w‖²` via the normal equations and Cholesky.
///
/// # Errors
///
/// Returns [`LinalgError::NotPositiveDefinite`] when `XᵀX + λI` is
/// numerically singular (only possible with `lambda == 0`).
///
/// # Panics
///
/// Panics if `y.len() != x.rows()`.
pub fn ridge_solve(x: &Matrix, y: &[f64], lambda: f64) -> Result<Vec<f64>, LinalgError> {
    assert_eq!(x.rows(), y.len(), "X and y row mismatch");
    let xt = x.transpose();
    let mut xtx = xt.matmul(x);
    for i in 0..xtx.rows() {
        xtx[(i, i)] += lambda;
    }
    let xty = xt.matvec(y);
    let l = xtx.cholesky()?;
    let z = l.solve_lower(&xty);
    Ok(l.solve_lower_transpose(&z))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} != {b:?}");
        }
    }

    #[test]
    fn identity_matmul_is_identity_action() {
        let i = Matrix::identity(3);
        let m = Matrix::from_vec(3, 3, vec![1., 2., 3., 4., 5., 6., 7., 8., 9.]);
        assert_eq!(i.matmul(&m), m);
        assert_eq!(m.matmul(&i), m);
    }

    #[test]
    fn matvec_works() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_close(&m.matvec(&[1.0, 1.0, 1.0]), &[6.0, 15.0], 1e-12);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn cholesky_of_known_matrix() {
        // A = [[4,2],[2,3]] -> L = [[2,0],[1,sqrt(2)]]
        let a = Matrix::from_vec(2, 2, vec![4., 2., 2., 3.]);
        let l = a.cholesky().unwrap();
        assert!((l[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((l[(1, 0)] - 1.0).abs() < 1e-12);
        assert!((l[(1, 1)] - 2f64.sqrt()).abs() < 1e-12);
        assert_eq!(l[(0, 1)], 0.0);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 2., 1.]);
        assert!(matches!(
            a.cholesky(),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn triangular_solves_invert_cholesky() {
        let a = Matrix::from_vec(3, 3, vec![6., 2., 1., 2., 5., 2., 1., 2., 4.]);
        let l = a.cholesky().unwrap();
        let b = [1.0, 2.0, 3.0];
        // Solve A x = b via L, then verify.
        let z = l.solve_lower(&b);
        let x = l.solve_lower_transpose(&z);
        let ax = a.matvec(&x);
        assert_close(&ax, &b, 1e-10);
    }

    #[test]
    fn ridge_recovers_exact_solution_without_regularization() {
        // y = 2*x0 - 1*x1
        let x = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![2.0, 1.0],
        ]);
        let y = [2.0, -1.0, 1.0, 3.0];
        let w = ridge_solve(&x, &y, 0.0).unwrap();
        assert_close(&w, &[2.0, -1.0], 1e-9);
    }

    #[test]
    fn ridge_shrinks_with_lambda() {
        let x = Matrix::from_rows(&[vec![1.0], vec![1.0]]);
        let y = [1.0, 1.0];
        let w0 = ridge_solve(&x, &y, 0.0).unwrap()[0];
        let w1 = ridge_solve(&x, &y, 10.0).unwrap()[0];
        assert!((w0 - 1.0).abs() < 1e-12);
        assert!(w1 < w0 && w1 > 0.0);
    }

    #[test]
    fn cholesky_append_matches_full_factorization() {
        let a4 = Matrix::from_vec(
            4,
            4,
            vec![
                6., 2., 1., 0.5, 2., 5., 2., 0.2, 1., 2., 4., 0.1, 0.5, 0.2, 0.1, 3.,
            ],
        );
        let a3 = Matrix::from_vec(3, 3, vec![6., 2., 1., 2., 5., 2., 1., 2., 4.]);
        let grown = a3
            .cholesky()
            .unwrap()
            .cholesky_append(&[0.5, 0.2, 0.1], 3.0)
            .unwrap();
        let full = a4.cholesky().unwrap();
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(grown[(i, j)], full[(i, j)], "mismatch at ({i}, {j})");
            }
        }
    }

    #[test]
    fn cholesky_append_rejects_indefinite_border() {
        let a = Matrix::from_vec(2, 2, vec![4., 2., 2., 3.]);
        let l = a.cholesky().unwrap();
        // Border making the matrix singular: new point equals row 0.
        assert!(matches!(
            l.cholesky_append(&[4., 2.], 4.0),
            Err(LinalgError::NotPositiveDefinite { pivot: 2 })
        ));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_checks_dims() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
