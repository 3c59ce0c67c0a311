//! Gaussian-process regression — the surrogate behind CherryPick-style
//! Bayesian optimization (§II-A), plus Duvenaud-style *additive* kernels
//! (§V-A: interpretable, per-dimension decomposable models).

use crate::linalg::{LinalgError, Matrix};
use crate::par;
use crate::stats::{mean, normal_cdf, normal_pdf, std_dev};

/// Covariance kernels over `[0,1]^d` feature vectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// Squared-exponential (RBF): smooth, infinitely differentiable.
    SquaredExp {
        /// Shared length scale across dimensions.
        length_scale: f64,
        /// Signal variance.
        variance: f64,
    },
    /// Matérn 5/2: the standard choice for performance surfaces
    /// (CherryPick uses Matérn).
    Matern52 {
        /// Shared length scale across dimensions.
        length_scale: f64,
        /// Signal variance.
        variance: f64,
    },
    /// First-order additive kernel (Duvenaud et al.): a sum of
    /// one-dimensional squared-exponential kernels — each dimension
    /// contributes independently, making the model decomposable and
    /// far more data-efficient in high dimensions when interactions
    /// are weak.
    Additive {
        /// Shared 1-D length scale.
        length_scale: f64,
        /// Signal variance (split evenly across dimensions).
        variance: f64,
    },
}

impl Kernel {
    /// Evaluates the kernel at a pair of points.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "kernel dimension mismatch");
        match *self {
            Kernel::SquaredExp {
                length_scale,
                variance,
            } => {
                let d2: f64 = a
                    .iter()
                    .zip(b)
                    .map(|(x, y)| {
                        let d = (x - y) / length_scale;
                        d * d
                    })
                    .sum();
                variance * (-0.5 * d2).exp()
            }
            Kernel::Matern52 {
                length_scale,
                variance,
            } => {
                let d2: f64 = a
                    .iter()
                    .zip(b)
                    .map(|(x, y)| {
                        let d = (x - y) / length_scale;
                        d * d
                    })
                    .sum();
                let r = d2.sqrt();
                let s5 = 5f64.sqrt();
                variance * (1.0 + s5 * r + 5.0 * d2 / 3.0) * (-s5 * r).exp()
            }
            Kernel::Additive {
                length_scale,
                variance,
            } => {
                let d = a.len().max(1) as f64;
                let sum: f64 = a
                    .iter()
                    .zip(b)
                    .map(|(x, y)| {
                        let r = (x - y) / length_scale;
                        (-0.5 * r * r).exp()
                    })
                    .sum();
                variance * sum / d
            }
        }
    }

    /// The cross-kernel of training rows `x` against one block of `b`
    /// queries held column-major in `qt` (`qt[k * b + c]` is dimension
    /// `k` of query `c`): writes `eval(x[i], q_c)` to `out[i * b + c]`.
    ///
    /// Each pair's terms are summed dimension by dimension from −0.0,
    /// in [`Kernel::eval`]'s order, so every entry is bit-equal to the
    /// pairwise call; the inner loops run across the block's queries.
    fn eval_block(&self, x: &[Vec<f64>], qt: &[f64], b: usize, out: &mut [f64]) {
        for (xi, row) in x.iter().zip(out.chunks_exact_mut(b)) {
            assert_eq!(xi.len() * b, qt.len(), "kernel dimension mismatch");
            row.fill(-0.0);
            let columns = xi.iter().zip(qt.chunks_exact(b));
            match *self {
                Kernel::SquaredExp { length_scale, .. } | Kernel::Matern52 { length_scale, .. } => {
                    for (&xk, col) in columns {
                        for (acc, &qk) in row.iter_mut().zip(col) {
                            let d = (xk - qk) / length_scale;
                            *acc += d * d;
                        }
                    }
                }
                Kernel::Additive { length_scale, .. } => {
                    for (&xk, col) in columns {
                        for (acc, &qk) in row.iter_mut().zip(col) {
                            let r = (xk - qk) / length_scale;
                            *acc += (-0.5 * r * r).exp();
                        }
                    }
                }
            }
            match *self {
                Kernel::SquaredExp { variance, .. } => {
                    for v in row.iter_mut() {
                        *v = variance * (-0.5 * *v).exp();
                    }
                }
                Kernel::Matern52 { variance, .. } => {
                    let s5 = 5f64.sqrt();
                    for v in row.iter_mut() {
                        let d2 = *v;
                        let r = d2.sqrt();
                        *v = variance * (1.0 + s5 * r + 5.0 * d2 / 3.0) * (-s5 * r).exp();
                    }
                }
                Kernel::Additive { variance, .. } => {
                    let d = xi.len().max(1) as f64;
                    for v in row.iter_mut() {
                        *v = variance * *v / d;
                    }
                }
            }
        }
    }

    /// Same kernel with a different length scale (hyperparameter search).
    #[must_use]
    pub fn with_length_scale(self, ls: f64) -> Kernel {
        match self {
            Kernel::SquaredExp { variance, .. } => Kernel::SquaredExp {
                length_scale: ls,
                variance,
            },
            Kernel::Matern52 { variance, .. } => Kernel::Matern52 {
                length_scale: ls,
                variance,
            },
            Kernel::Additive { variance, .. } => Kernel::Additive {
                length_scale: ls,
                variance,
            },
        }
    }
}

/// A fitted Gaussian-process regressor (zero-mean prior on standardized
/// targets).
///
/// # Example
///
/// ```
/// use models::{GpRegressor, Kernel};
///
/// let x = vec![vec![0.0], vec![0.5], vec![1.0]];
/// let y = vec![1.0, 0.2, 1.1];
/// let gp = GpRegressor::fit(
///     &x, &y,
///     Kernel::Matern52 { length_scale: 0.4, variance: 1.0 },
///     1e-4,
/// ).expect("kernel matrix is positive definite");
/// let (mean, std) = gp.predict(&[0.25]);
/// assert!(std >= 0.0);
/// assert!(mean < 1.2);
/// ```
#[derive(Debug, Clone)]
pub struct GpRegressor {
    kernel: Kernel,
    noise: f64,
    x: Vec<Vec<f64>>,
    chol: Matrix,
    alpha: Vec<f64>,
    y_mean: f64,
    y_std: f64,
    lml: f64,
}

/// Length-scale grid searched by [`GpRegressor::fit_auto`].
const LS_GRID: [f64; 5] = [0.1, 0.2, 0.4, 0.8, 1.6];
/// Noise grid searched per length scale (the grid is ls-major: grid
/// point `g` is `(LS_GRID[g / 3], NOISE_GRID[g % 3])`).
const NOISE_GRID: [f64; 3] = [1e-4, 1e-2, 5e-2];
/// Query rows per block of [`GpRegressor::predict_batch`]'s kernel.
const PREDICT_BLOCK: usize = 64;

/// Target standardization shared by every fitting path:
/// `(mean, std, standardized targets)`.
fn standardize(y: &[f64]) -> (f64, f64, Vec<f64>) {
    let y_mean = mean(y);
    let y_std = std_dev(y).max(1e-9);
    let ys = y.iter().map(|v| (v - y_mean) / y_std).collect();
    (y_mean, y_std, ys)
}

/// Kernel Gram matrix of `x` — *without* the observation-noise
/// diagonal, so one build can serve every noise grid point.
fn kernel_gram(x: &[Vec<f64>], kernel: Kernel) -> Matrix {
    let n = x.len();
    let mut k = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let v = kernel.eval(&x[i], &x[j]);
            k[(i, j)] = v;
            k[(j, i)] = v;
        }
    }
    k
}

/// GP weights and log marginal likelihood from an existing Cholesky
/// factor of the noisy kernel matrix: `(alpha, lml)`.
fn gp_weights(chol: &Matrix, ys: &[f64]) -> (Vec<f64>, f64) {
    let n = chol.rows();
    let z = chol.solve_lower(ys);
    let alpha = chol.solve_lower_transpose(&z);
    let data_fit: f64 = ys.iter().zip(&alpha).map(|(a, b)| a * b).sum();
    let log_det: f64 = (0..n).map(|i| chol[(i, i)].ln()).sum();
    let lml = -0.5 * data_fit - log_det - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();
    (alpha, lml)
}

/// The Cholesky factor of `gram + (noise + 1e-8)·I`.
fn noisy_cholesky(gram: &Matrix, noise: f64) -> Result<Matrix, LinalgError> {
    let mut k = gram.clone();
    for i in 0..k.rows() {
        k[(i, i)] += noise + 1e-8;
    }
    k.cholesky()
}

/// Estimated work of a full `fit_auto` grid fit on `n` points of
/// dimension `d`: one Cholesky factorization (n³/3) per grid point plus
/// one Gram matrix (n²·d) per length scale.
fn full_fit_work(n: usize, d: usize) -> u64 {
    let (n, d) = (n as u64, d as u64);
    (LS_GRID.len() * NOISE_GRID.len()) as u64 * n * n * n / 3 + LS_GRID.len() as u64 * n * n * d
}

/// Factorizes the whole `fit_auto` grid, building each length scale's
/// Gram matrix once and refactorizing per noise level (5 builds instead
/// of 15). Length scales fan out over `threads` scoped workers; the
/// returned vector is in deterministic ls-major grid order regardless
/// of the thread count. `None` marks grid points whose kernel matrix is
/// not positive definite. Factors only: [`select_grid_point`] solves
/// the weights.
fn grid_factorize(x: &[Vec<f64>], base: Kernel, threads: usize) -> Vec<Option<Matrix>> {
    par::par_map_threads(&LS_GRID, threads, |&ls| {
        let gram = kernel_gram(x, base.with_length_scale(ls));
        NOISE_GRID.map(|noise| noisy_cholesky(&gram, noise).ok())
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Hyperparameter selection over the grid's factors (ls-major, `None`
/// where the kernel matrix is not positive definite): the first grid
/// point of maximum log marginal likelihood, or a regularized fit when
/// no grid point factorized.
fn select_grid_point(
    x: &[Vec<f64>],
    y: &[f64],
    base: Kernel,
    chols: &[Option<Matrix>],
) -> GpRegressor {
    let (y_mean, y_std, ys) = standardize(y);
    let mut best: Option<(usize, Vec<f64>, f64)> = None;
    for (g, slot) in chols.iter().enumerate() {
        if let Some(chol) = slot {
            let (alpha, lml) = gp_weights(chol, &ys);
            if best.as_ref().is_none_or(|b| lml > b.2) {
                best = Some((g, alpha, lml));
            }
        }
    }
    match best {
        Some((g, alpha, lml)) => GpRegressor {
            kernel: base.with_length_scale(LS_GRID[g / NOISE_GRID.len()]),
            noise: NOISE_GRID[g % NOISE_GRID.len()],
            x: x.to_vec(),
            chol: chols[g].clone().expect("best slot is Some"),
            alpha,
            y_mean,
            y_std,
            lml,
        },
        None => GpRegressor::fit(x, y, base.with_length_scale(1.0), 1.0)
            .expect("regularized GP fit cannot fail"),
    }
}

/// Writes `Σ_i kv_i · alpha_i` across a block of queries into `mean`,
/// summing each query's terms in training order from −0.0 (row `i` of
/// `kv` holds `k(x_i, q)` across the block).
fn weigh_rows(kv: &[f64], alpha: &[f64], mean: &mut [f64]) {
    mean.fill(-0.0);
    for (row, &a) in kv.chunks_exact(mean.len()).zip(alpha) {
        for (m, &k) in mean.iter_mut().zip(row) {
            *m += k * a;
        }
    }
}

/// Forward substitution `L v = k*` across a block of `b` queries, in
/// place: rows `from..` of `kv` hold `k(x_i, q)` and are overwritten by
/// `v_i`, row by row; rows before `from` must already hold `v`. Each
/// entry is computed in one fixed order, so solving rows in two calls
/// gives the bits of one call.
fn forward_substitute(chol: &Matrix, kv: &mut [f64], b: usize, from: usize) {
    for i in from..kv.len() / b {
        let (solved, rest) = kv.split_at_mut(i * b);
        let vi = &mut rest[..b];
        let lrow = chol.row(i);
        for (&lij, vj) in lrow.iter().zip(solved.chunks_exact(b)) {
            for (s, &v) in vi.iter_mut().zip(vj) {
                *s -= lij * v;
            }
        }
        for s in vi.iter_mut() {
            *s /= lrow[i];
        }
    }
}

/// Adds `v_i²` of every row of `v` to `sq`, row by row, across a block
/// of queries.
fn add_squares(v: &[f64], sq: &mut [f64]) {
    for row in v.chunks_exact(sq.len()) {
        for (acc, &x) in sq.iter_mut().zip(row) {
            *acc += x * x;
        }
    }
}

impl GpRegressor {
    /// Fits a GP with the given kernel and observation-noise variance
    /// (in standardized-target units).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError`] when the kernel matrix is numerically
    /// singular (e.g. duplicate points with zero noise).
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or `x.len() != y.len()`.
    pub fn fit(x: &[Vec<f64>], y: &[f64], kernel: Kernel, noise: f64) -> Result<Self, LinalgError> {
        assert!(!x.is_empty(), "GP needs at least one observation");
        assert_eq!(x.len(), y.len(), "X and y length mismatch");
        let (y_mean, y_std, ys) = standardize(y);
        let chol = noisy_cholesky(&kernel_gram(x, kernel), noise)?;
        let (alpha, lml) = gp_weights(&chol, &ys);
        Ok(GpRegressor {
            kernel,
            noise,
            x: x.to_vec(),
            chol,
            alpha,
            y_mean,
            y_std,
            lml,
        })
    }

    /// Fits a GP selecting length scale and noise by maximizing the log
    /// marginal likelihood over a small grid — the pragmatic
    /// hyperparameter treatment CherryPick-style tuners use.
    ///
    /// One Gram matrix is built per length scale and shared across
    /// noise levels. The length scales fan out over
    /// [`par::threads_for`] the fit's estimated work, so fits up to ~60
    /// points run inline; the selected model is identical to a
    /// sequential scan of the grid regardless of the thread count.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or lengths mismatch.
    pub fn fit_auto(x: &[Vec<f64>], y: &[f64], base: Kernel) -> Self {
        let d = x.first().map_or(0, Vec::len);
        Self::fit_auto_threads(x, y, base, par::threads_for(full_fit_work(x.len(), d)))
    }

    /// [`GpRegressor::fit_auto`] with an explicit worker count
    /// (equivalence tests pin this; `1` is a fully sequential fit).
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or lengths mismatch.
    pub fn fit_auto_threads(x: &[Vec<f64>], y: &[f64], base: Kernel, threads: usize) -> Self {
        GpFitCache::default().refit_full(x, y, base, threads)
    }

    /// Posterior predictive mean and standard deviation at `q`: the
    /// one-row case of [`GpRegressor::predict_batch`].
    pub fn predict(&self, q: &[f64]) -> (f64, f64) {
        self.predict_batch(&[q])[0]
    }

    /// Batched posterior prediction: one `(mean, std)` per query row.
    ///
    /// Queries are scored in blocks of up to 64 rows, transposed to
    /// column-major so the cross-kernel, the `alpha` dot product, the
    /// forward substitution and `Σv²` each run across the block. Every
    /// query keeps its own operation order, so a result does not depend
    /// on the block it landed in: the output is the same, bit for bit,
    /// as scoring each query alone.
    ///
    /// # Panics
    ///
    /// Panics if a query's dimension differs from the training rows'.
    pub fn predict_batch<Q: AsRef<[f64]>>(&self, qs: &[Q]) -> Vec<(f64, f64)> {
        let (n, d) = (self.x.len(), self.x[0].len());
        let block = PREDICT_BLOCK.min(qs.len());
        let mut qt = vec![0.0; d * block];
        // Row `i` holds `k(x_i, q)` across the block, then `v_i` once the
        // forward substitution has overwritten it.
        let mut kv = vec![0.0; n * block];
        let mut mean = vec![0.0; block];
        let mut sq = vec![0.0; block];
        let prior = self.prior_variance();
        let mut out = Vec::with_capacity(qs.len());
        for chunk in qs.chunks(PREDICT_BLOCK) {
            let b = chunk.len();
            let (qt, kv) = (&mut qt[..d * b], &mut kv[..n * b]);
            let (mean, sq) = (&mut mean[..b], &mut sq[..b]);
            for (c, q) in chunk.iter().enumerate() {
                let q = q.as_ref();
                assert_eq!(q.len(), d, "kernel dimension mismatch");
                for (k, &v) in q.iter().enumerate() {
                    qt[k * b + c] = v;
                }
            }
            self.kernel.eval_block(&self.x, qt, b, kv);
            weigh_rows(kv, &self.alpha, mean);
            forward_substitute(&self.chol, kv, b, 0);
            sq.fill(-0.0);
            add_squares(kv, sq);
            for ((q, &m), &s) in chunk.iter().zip(&*mean).zip(&*sq) {
                let q = q.as_ref();
                let kss = if q.iter().all(|v| v.is_finite()) {
                    prior
                } else {
                    self.kernel.eval(q, q) + self.noise
                };
                out.push(self.posterior(kss, m, s));
            }
        }
        out
    }

    /// The prior variance `k(q, q) + noise` of every finite query: each
    /// of the kernel's per-dimension terms reads `(q_k − q_k)/ls`, which
    /// is `(0 − 0)/ls` when `q_k` is finite, so the bits are the same
    /// for every such query. A query holding a NaN or an infinity needs
    /// the per-query formula.
    fn prior_variance(&self) -> f64 {
        let origin = vec![0.0; self.x[0].len()];
        self.kernel.eval(&origin, &origin) + self.noise
    }

    /// A query's `(mean, std)` in target units from its prior variance
    /// `kss`, its standardized posterior mean `k*·α` and `Σv²`.
    fn posterior(&self, kss: f64, mean: f64, sq: f64) -> (f64, f64) {
        let var = (kss - sq).max(1e-12);
        (mean * self.y_std + self.y_mean, var.sqrt() * self.y_std)
    }

    /// The fit's log marginal likelihood (standardized-target units).
    pub fn log_marginal_likelihood(&self) -> f64 {
        self.lml
    }

    /// Number of training observations.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the training set is empty (never true for a fitted GP).
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }
}

/// Which path a cached `fit_auto` took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitKind {
    /// Full grid refit: O(n³) per grid point.
    Full,
    /// Incremental update of cached factors: O(n²) per grid point.
    Incremental,
}

/// Incremental surrogate cache for the `fit_auto` grid.
///
/// A Bayesian-optimization loop refits its GP on every proposal, but
/// between consecutive proposals the history usually only *grows* by
/// the point just evaluated. This cache keeps the Cholesky factor of
/// every `(length scale, noise)` grid point; when the new training set
/// extends the cached one, each factor is grown with
/// [`Matrix::cholesky_append`] in O(n²) instead of refactorized in
/// O(n³), and hyperparameter selection reruns over the updated factors.
///
/// Invalidation rule: a different base kernel, or a history that shrank
/// or diverged from the cached prefix, triggers a full refit (which
/// also repopulates the cache).
///
/// Both paths produce bit-for-bit the model an uncached
/// [`GpRegressor::fit_auto`] would select: appended rows reproduce the
/// exact arithmetic of a from-scratch factorization, and selection
/// scans the grid in the same order.
#[derive(Debug, Clone, Default)]
pub struct GpFitCache {
    state: Option<CacheState>,
}

#[derive(Debug, Clone)]
struct CacheState {
    base: Kernel,
    x: Vec<Vec<f64>>,
    /// One factor per grid point in ls-major order; `None` when that
    /// grid point's kernel matrix is not positive definite.
    chols: Vec<Option<Matrix>>,
}

impl GpFitCache {
    /// An empty cache (first fit is always [`FitKind::Full`]).
    pub fn new() -> Self {
        GpFitCache::default()
    }

    /// Number of training points the cached factors cover.
    pub fn cached_points(&self) -> usize {
        self.state.as_ref().map_or(0, |s| s.x.len())
    }

    /// Cached [`GpRegressor::fit_auto`]: incremental when the training
    /// set extends the cached one under the same base kernel, full grid
    /// refit otherwise. Runs on [`GpFitCache::fit_threads`] workers.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or lengths mismatch.
    pub fn fit_auto(&mut self, x: &[Vec<f64>], y: &[f64], base: Kernel) -> (GpRegressor, FitKind) {
        let threads = self.fit_threads(x, base);
        self.fit_auto_threads(x, y, base, threads)
    }

    /// The worker count [`GpFitCache::fit_auto`] uses on `x`:
    /// [`par::threads_for`] the estimated work of the path the fit will
    /// take. A cached append of `new` rows costs ≈ 15·n²·(new + 2) (the
    /// appended rows plus two triangular solves per grid point), a full
    /// refit ≈ 15·n³/3 + 5·n²·d.
    pub fn fit_threads(&self, x: &[Vec<f64>], base: Kernel) -> usize {
        let n = x.len();
        let work = match self.cached_prefix(x, base) {
            Some(old) => (LS_GRID.len() * NOISE_GRID.len() * n * n * (n - old + 2)) as u64,
            None => full_fit_work(n, x.first().map_or(0, Vec::len)),
        };
        par::threads_for(work)
    }

    /// Length of the cached training set when `x` extends it under the
    /// same base kernel (a cache hit), `None` when a full refit is due.
    fn cached_prefix(&self, x: &[Vec<f64>], base: Kernel) -> Option<usize> {
        self.state
            .as_ref()
            .filter(|s| s.base == base && x.len() >= s.x.len() && x[..s.x.len()] == s.x[..])
            .map(|s| s.x.len())
    }

    /// [`GpFitCache::fit_auto`] with an explicit worker count.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or lengths mismatch.
    pub fn fit_auto_threads(
        &mut self,
        x: &[Vec<f64>],
        y: &[f64],
        base: Kernel,
        threads: usize,
    ) -> (GpRegressor, FitKind) {
        assert!(!x.is_empty(), "GP needs at least one observation");
        assert_eq!(x.len(), y.len(), "X and y length mismatch");
        let Some(n_old) = self.cached_prefix(x, base) else {
            return (self.refit_full(x, y, base, threads), FitKind::Full);
        };

        let state = self.state.as_mut().expect("hit implies cached state");
        let new_points = &x[n_old..];
        if !new_points.is_empty() {
            // Grow every factor by the appended points; length scales
            // fan out in parallel, noise levels share each new kernel
            // row (its off-diagonal entries don't involve the noise).
            let chols = std::mem::take(&mut state.chols);
            let mut it = chols.into_iter();
            let items: Vec<(f64, Vec<Option<Matrix>>)> = LS_GRID
                .iter()
                .map(|&ls| (ls, (&mut it).take(NOISE_GRID.len()).collect()))
                .collect();
            let grown = par::par_map_threads(&items, threads, |(ls, group)| {
                let kernel = base.with_length_scale(*ls);
                let mut group = group.clone();
                for (p, q) in new_points.iter().enumerate() {
                    let j = n_old + p;
                    let row: Vec<f64> = x[..j].iter().map(|xi| kernel.eval(xi, q)).collect();
                    let kqq = kernel.eval(q, q);
                    for (slot, &noise) in group.iter_mut().zip(&NOISE_GRID) {
                        *slot = slot
                            .take()
                            .and_then(|chol| chol.cholesky_append(&row, kqq + (noise + 1e-8)).ok());
                    }
                }
                group
            });
            state.chols = grown.into_iter().flatten().collect();
            state.x = x.to_vec();
        }

        // Re-run hyperparameter selection over the grown factors (the
        // weights must be recomputed even for old points: target
        // standardization depends on the full `y`).
        (
            select_grid_point(x, y, base, &state.chols),
            FitKind::Incremental,
        )
    }

    /// Full grid fit; repopulates the cache as a side effect.
    fn refit_full(
        &mut self,
        x: &[Vec<f64>],
        y: &[f64],
        base: Kernel,
        threads: usize,
    ) -> GpRegressor {
        assert!(!x.is_empty(), "GP needs at least one observation");
        assert_eq!(x.len(), y.len(), "X and y length mismatch");
        let chols = grid_factorize(x, base, threads);
        let gp = select_grid_point(x, y, base, &chols);
        self.state = Some(CacheState {
            base,
            x: x.to_vec(),
            chols,
        });
        gp
    }
}

/// Which part of a [`GpPredictCache`] a refit recomputed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rescore {
    /// The training set grew under the same length scale and noise:
    /// one kernel row and one `v` row per new point, O(m·(d + n)) each.
    Append,
    /// Only the noise changed: `v` is solved again from the kept kernel
    /// values, O(m·n²).
    Noise,
    /// The length scale changed: kernel values and `v` are recomputed,
    /// O(m·n·(d + n)).
    LengthScale,
    /// The training set is not an extension of the cached one (or the
    /// cache was empty): everything is recomputed.
    Rebuild,
}

impl Rescore {
    /// The path's telemetry label.
    pub fn label(self) -> &'static str {
        match self {
            Rescore::Append => "append",
            Rescore::Noise => "noise",
            Rescore::LengthScale => "length_scale",
            Rescore::Rebuild => "rebuild",
        }
    }
}

/// Posterior predictions for a fixed set of query rows, carried from one
/// fit of a growing training set to the next.
///
/// A Bayesian-optimization session scores the same candidates against
/// a model that is refitted after every observation, usually on the
/// old training set plus one point and often at the same grid point.
/// Per query this keeps the kernel values `k(x_i, q)` and the forward
/// substitution `v = L⁻¹k*` with `Σv²`, for the fit they were computed
/// under. [`update`](Self::update) recomputes only what the new fit
/// changed (see [`Rescore`]); the mean `k*·α` is recomputed every time,
/// in O(m·n), since standardization moves `α` with every target.
///
/// Row `i` of the Cholesky factor depends only on the first `i + 1`
/// training points, the length scale and the noise, so a kept `v_i` is
/// the one a fresh solve computes; every entry keeps
/// [`GpRegressor::predict_batch`]'s operation order, so each cached
/// `(mean, std)` is bit for bit `predict_batch` of its query.
#[derive(Debug, Clone, Default)]
pub struct GpPredictCache {
    /// Number of queries (the block width of every buffer).
    m: usize,
    /// The queries, column-major: `qt[k * m + c]` is dimension `k` of
    /// query `c`.
    qt: Vec<f64>,
    /// The fit the buffers hold: training rows, kernel and noise.
    x: Vec<Vec<f64>>,
    fit: Option<(Kernel, f64)>,
    /// `k(x_i, q)`, row `i` across the queries.
    kstar: Vec<f64>,
    /// `v_i`, row `i` across the queries.
    v: Vec<f64>,
    /// `Σv²` per query.
    sq: Vec<f64>,
    /// Scratch for `k*·α`, rewritten by every update.
    mean: Vec<f64>,
    out: Vec<(f64, f64)>,
}

impl GpPredictCache {
    /// A cache for `queries`, scored by no fit yet.
    ///
    /// # Panics
    ///
    /// Panics if the queries differ in dimension or hold a non-finite
    /// value.
    pub fn new<Q: AsRef<[f64]>>(queries: &[Q]) -> Self {
        let m = queries.len();
        let d = queries.first().map_or(0, |q| q.as_ref().len());
        let mut qt = vec![0.0; d * m];
        for (c, q) in queries.iter().enumerate() {
            let q = q.as_ref();
            assert_eq!(q.len(), d, "query dimension mismatch");
            assert!(q.iter().all(|v| v.is_finite()), "non-finite query");
            for (k, &v) in q.iter().enumerate() {
                qt[k * m + c] = v;
            }
        }
        GpPredictCache {
            m,
            qt,
            ..GpPredictCache::default()
        }
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.m
    }

    /// Whether the cache holds no queries.
    pub fn is_empty(&self) -> bool {
        self.m == 0
    }

    /// The `(mean, std)` of each query under the last
    /// [`update`](Self::update)'s fit, in query order.
    pub fn predictions(&self) -> &[(f64, f64)] {
        &self.out
    }

    /// Rescores the queries under `gp`, recomputing only what changed
    /// since the last update, and returns the path taken.
    ///
    /// # Panics
    ///
    /// Panics if the queries' dimension differs from the training rows'.
    pub fn update(&mut self, gp: &GpRegressor) -> Rescore {
        let (m, n, old) = (self.m, gp.x.len(), self.x.len());
        let extends = self.fit.is_some() && n >= old && gp.x[..old] == self.x[..];
        let path = match self.fit {
            _ if !extends => Rescore::Rebuild,
            Some((kernel, _)) if kernel != gp.kernel => Rescore::LengthScale,
            Some((_, noise)) if noise != gp.noise => Rescore::Noise,
            _ => Rescore::Append,
        };
        if m > 0 {
            assert_eq!(
                self.qt.len(),
                gp.x[0].len() * m,
                "kernel dimension mismatch"
            );
            // Kernel rows: all of them, or those of the new points.
            let kept = match path {
                Rescore::Rebuild | Rescore::LengthScale => 0,
                Rescore::Noise | Rescore::Append => old,
            };
            self.kstar.resize(n * m, 0.0);
            gp.kernel
                .eval_block(&gp.x[kept..], &self.qt, m, &mut self.kstar[kept * m..]);
            // `v` rows: all of them, or those of the new points.
            let solved = if path == Rescore::Append { old } else { 0 };
            self.v.truncate(solved * m);
            self.v.extend_from_slice(&self.kstar[solved * m..]);
            forward_substitute(&gp.chol, &mut self.v, m, solved);
            if solved == 0 {
                self.sq.clear();
                self.sq.resize(m, -0.0);
            }
            add_squares(&self.v[solved * m..], &mut self.sq);
            self.mean.resize(m, 0.0);
            weigh_rows(&self.kstar, &gp.alpha, &mut self.mean);
            let prior = gp.prior_variance();
            self.out.clear();
            self.out.extend(
                self.mean
                    .iter()
                    .zip(&self.sq)
                    .map(|(&mean, &sq)| gp.posterior(prior, mean, sq)),
            );
        }
        if path == Rescore::Rebuild {
            self.x.clear();
        }
        self.x.extend_from_slice(&gp.x[self.x.len()..]);
        self.fit = Some((gp.kernel, gp.noise));
        path
    }

    /// Keeps the queries whose `keep` entry is true, in order, with
    /// their cached state.
    ///
    /// # Panics
    ///
    /// Panics if `keep.len() != self.len()`.
    pub fn retain(&mut self, keep: &[bool]) {
        assert_eq!(keep.len(), self.m, "one keep flag per query");
        let m = self.m;
        let kept = keep.iter().filter(|&&k| k).count();
        let compact = |buf: &mut Vec<f64>| {
            let mut w = 0;
            for r in 0..buf.len() / m.max(1) {
                for (c, &k) in keep.iter().enumerate() {
                    if k {
                        buf[w] = buf[r * m + c];
                        w += 1;
                    }
                }
            }
            buf.truncate(w);
        };
        for buf in [&mut self.qt, &mut self.kstar, &mut self.v, &mut self.sq] {
            compact(buf);
        }
        let mut flags = keep.iter();
        self.out
            .retain(|_| *flags.next().expect("one flag per query"));
        self.m = kept;
    }
}

/// Expected improvement *below* `best` (minimization), from a posterior
/// `(mean, std)`.
pub fn expected_improvement(mean: f64, std: f64, best: f64) -> f64 {
    if std <= 1e-12 {
        return (best - mean).max(0.0);
    }
    let z = (best - mean) / std;
    // The erf approximation in normal_cdf has ~1.5e-7 absolute error,
    // which can drive the sum slightly negative for very negative z;
    // EI is non-negative by definition, so clamp.
    ((best - mean) * normal_cdf(z) + std * normal_pdf(z)).max(0.0)
}

/// Lower confidence bound `mean − beta·std` (minimization).
pub fn lower_confidence_bound(mean: f64, std: f64, beta: f64) -> f64 {
    mean - beta * std
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_1d(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect()
    }

    #[test]
    fn gp_interpolates_training_points_with_low_noise() {
        let x = grid_1d(6);
        let y: Vec<f64> = x.iter().map(|v| (6.0 * v[0]).sin()).collect();
        let gp = GpRegressor::fit(
            &x,
            &y,
            Kernel::SquaredExp {
                length_scale: 0.3,
                variance: 1.0,
            },
            1e-6,
        )
        .unwrap();
        for (xi, yi) in x.iter().zip(&y) {
            let (m, _) = gp.predict(xi);
            assert!((m - yi).abs() < 1e-3, "at {xi:?}: {m} vs {yi}");
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let x = vec![vec![0.0], vec![0.1]];
        let y = vec![1.0, 1.2];
        let gp = GpRegressor::fit(
            &x,
            &y,
            Kernel::Matern52 {
                length_scale: 0.2,
                variance: 1.0,
            },
            1e-6,
        )
        .unwrap();
        let (_, s_near) = gp.predict(&[0.05]);
        let (_, s_far) = gp.predict(&[0.9]);
        assert!(s_far > 3.0 * s_near, "near {s_near}, far {s_far}");
    }

    #[test]
    fn matern_and_se_agree_at_zero_distance() {
        let se = Kernel::SquaredExp {
            length_scale: 0.5,
            variance: 2.0,
        };
        let m52 = Kernel::Matern52 {
            length_scale: 0.5,
            variance: 2.0,
        };
        let p = [0.3, 0.7];
        assert!((se.eval(&p, &p) - 2.0).abs() < 1e-12);
        assert!((m52.eval(&p, &p) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn kernels_decay_with_distance() {
        for k in [
            Kernel::SquaredExp {
                length_scale: 0.3,
                variance: 1.0,
            },
            Kernel::Matern52 {
                length_scale: 0.3,
                variance: 1.0,
            },
            Kernel::Additive {
                length_scale: 0.3,
                variance: 1.0,
            },
        ] {
            let near = k.eval(&[0.0, 0.0], &[0.05, 0.0]);
            let far = k.eval(&[0.0, 0.0], &[0.9, 0.9]);
            assert!(near > far, "{k:?}");
        }
    }

    #[test]
    fn additive_kernel_sees_partial_match() {
        // Points matching in one of two dims keep half the similarity;
        // a product kernel (SE) would decay multiplicatively.
        let add = Kernel::Additive {
            length_scale: 0.1,
            variance: 1.0,
        };
        let a = [0.0, 0.0];
        let b = [0.0, 1.0]; // matches in dim 0 only
        assert!(add.eval(&a, &b) > 0.45);
    }

    #[test]
    fn fit_auto_picks_reasonable_model() {
        let x = grid_1d(10);
        let y: Vec<f64> = x.iter().map(|v| v[0] * v[0]).collect();
        let gp = GpRegressor::fit_auto(
            &x,
            &y,
            Kernel::Matern52 {
                length_scale: 1.0,
                variance: 1.0,
            },
        );
        let (m, _) = gp.predict(&[0.5]);
        assert!((m - 0.25).abs() < 0.1, "predicted {m}");
    }

    #[test]
    fn ei_prefers_low_mean_and_high_uncertainty() {
        let best = 1.0;
        let certain_bad = expected_improvement(2.0, 0.01, best);
        let uncertain_bad = expected_improvement(2.0, 2.0, best);
        let certain_good = expected_improvement(0.5, 0.01, best);
        assert!(uncertain_bad > certain_bad);
        assert!(certain_good > certain_bad);
        assert!(expected_improvement(0.5, 0.0, best) > 0.0);
    }

    #[test]
    fn lcb_is_mean_minus_beta_std() {
        assert!((lower_confidence_bound(1.0, 0.5, 2.0) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_points_with_noise_still_fit() {
        let x = vec![vec![0.5], vec![0.5], vec![0.5]];
        let y = vec![1.0, 1.1, 0.9];
        let gp = GpRegressor::fit(
            &x,
            &y,
            Kernel::SquaredExp {
                length_scale: 0.3,
                variance: 1.0,
            },
            1e-2,
        )
        .unwrap();
        let (m, _) = gp.predict(&[0.5]);
        assert!((m - 1.0).abs() < 0.05);
    }

    /// One query scored alone with the textbook formulas, the prior
    /// variance `k(q, q) + noise` included, in `predict_batch`'s
    /// per-query operation order.
    fn predict_reference(gp: &GpRegressor, q: &[f64]) -> (f64, f64) {
        let kstar: Vec<f64> = gp.x.iter().map(|xi| gp.kernel.eval(xi, q)).collect();
        let mean = kstar
            .iter()
            .zip(&gp.alpha)
            .fold(-0.0, |m, (k, a)| m + k * a);
        let mut v: Vec<f64> = Vec::with_capacity(kstar.len());
        for (i, &k) in kstar.iter().enumerate() {
            let lrow = gp.chol.row(i);
            let mut s = k;
            for (lij, vj) in lrow.iter().zip(&v) {
                s -= lij * vj;
            }
            v.push(s / lrow[i]);
        }
        let sq = v.iter().fold(-0.0, |acc, v| acc + v * v);
        let var = (gp.kernel.eval(q, q) + gp.noise - sq).max(1e-12);
        (mean * gp.y_std + gp.y_mean, var.sqrt() * gp.y_std)
    }

    #[test]
    fn predict_batch_matches_the_per_query_prior_variance() {
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        let d = 3;
        let x: Vec<Vec<f64>> = (0..9)
            .map(|i| {
                (0..d)
                    .map(|k| ((i * 7 + k * 3) % 10) as f64 / 9.0)
                    .collect()
            })
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| r.iter().sum::<f64>().sin() + 2.0)
            .collect();
        let mut qs: Vec<Vec<f64>> = (0..70)
            .map(|i| {
                (0..d)
                    .map(|k| ((i * 13 + k * 5) % 17) as f64 / 8.0 - 0.5)
                    .collect()
            })
            .collect();
        for (i, bad) in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
            .into_iter()
            .enumerate()
        {
            qs[3 * i + 1][i] = bad;
            qs[3 * i + 2] = vec![bad; d];
            qs[60 + i][d - 1 - i] = bad;
        }
        qs.push(vec![1e300, -1e-300, f64::MIN_POSITIVE / 4.0]);
        for kernel in [
            Kernel::SquaredExp {
                length_scale: 0.4,
                variance: 1.0,
            },
            Kernel::Matern52 {
                length_scale: 0.3,
                variance: 1.7,
            },
            Kernel::Additive {
                length_scale: 0.3,
                variance: 0.9,
            },
        ] {
            let gp = GpRegressor::fit(&x, &y, kernel, 1e-2).unwrap();
            let batch = gp.predict_batch(&qs);
            for (q, &(m, s)) in qs.iter().zip(&batch) {
                let (rm, rs) = predict_reference(&gp, q);
                assert!(same(m, rm), "{kernel:?} mean at {q:?}: {m} vs {rm}");
                assert!(same(s, rs), "{kernel:?} std at {q:?}: {s} vs {rs}");
            }
        }
    }
}
