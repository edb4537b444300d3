//! The Gaussian-process surrogate of Sec. 3.2: a 5/2-Matérn kernel over the
//! weighted per-parameter distance vector, with lengthscale gamma priors and
//! MAP hyperparameter fitting by multistart L-BFGS.
//!
//! This module is the tuner's hot path and is engineered accordingly:
//!
//! * **Batched posterior** — [`GaussianProcess::predict_batch_configs`]
//!   scores whole candidate batches through one blocked
//!   multi-right-hand-side triangular solve instead of a per-candidate
//!   `O(n²)` solve; [`GaussianProcess::predict`] is the scalar reference,
//!   and the two are the only prediction entry points.
//! * **Cheap multistart** — raw hyperparameter draws are ranked with a
//!   value-only negative log posterior (the gradient is discarded during
//!   ranking), draws and L-BFGS refinements run in order on the caller's
//!   thread (a per-fit thread fan-out cost more CPU than it saved; see
//!   [`crate::opt`]), and the factorization computed by the best objective
//!   evaluation is memoized so [`GaussianProcess::fit`] never refactorizes
//!   the kernel at the chosen hyperparameters.
//! * **Exact batched gradient** — the gradient needs the explicit `K⁻¹`,
//!   which costs ≈ `n³` multiply–adds (`2n³/3` once the structural zeros of
//!   `L⁻¹` are skipped) against `n³/6` for the factorization, so `K⁻¹`, not
//!   the factorization, dominates a gradient evaluation.
//!   `Cholesky::inverse` forms it with one blocked sweep per triangle over
//!   all right-hand sides, bit-identical to per-column solves, and the
//!   gradient loop reuses the kernel build's Matérn terms instead of
//!   recomputing a `sqrt` and an `exp` per pair.
//! * **AVX2 copies, bit for bit** — `Cholesky::inverse`, the batched
//!   posterior's forward substitution (`Cholesky::solve_lower_block`) and
//!   the gradient's pair loop each run through `linalg::with_simd`: one
//!   `#[inline(always)]` body compiled as it is and again for AVX2, the
//!   copy chosen from CPUID, which is read once per process, on x86-64
//!   (other targets build only the plain copy). Their loops keep independent
//!   chains in adjacent lanes — 16 right-hand sides of a row held in
//!   registers over contiguous coefficients, and the σ chain folded into
//!   the gradient's first lengthscale pass — so the AVX2 copy runs them
//!   four lanes wide. The copies agree to the bit: each lane does one
//!   element's IEEE `mul`/`sub`/`div` in the same order, Rust never
//!   contracts to FMA, and `exp` and `sqrt` are the same calls. The
//!   kernel build keeps one copy: its per-pair `exp` call sets its speed.
//! * **Lazy line-search gradients** — an NLL evaluation is split in two.
//!   The value step builds the kernel (with its Matérn gradient factors),
//!   factorizes it, solves for α, scores the NLL and updates the memo; the
//!   state it returns finishes `K⁻¹` and the gradient only when L-BFGS asks
//!   for it, which it does at the start point and at accepted steps (see
//!   [`crate::opt::minimize`]). Trial points the Armijo test rejects never
//!   pay for `K⁻¹`, and every number is the same as computing it eagerly.
//! * **Incremental, level-coded distance tables** —
//!   [`GaussianProcess::fit_with_cache`] reuses the per-dimension level
//!   tables of [`GpCache`] across tuning iterations, extending them by the
//!   new observations. The hyperparameters are refitted by the full
//!   multistart every time, so a cached fit is bit-identical to a fresh one.
//! * **Per-level quotient rows** — each NLL evaluation divides the level
//!   tables by `ℓ_k²` into rows `rows_k[a][j] = dist2_k[a][code_k[j]] / ℓ_k²`,
//!   one per level that two or more points share. The kernel build adds
//!   point `i`'s row `rows_k[code_k[i]]` over the later points, and the
//!   gradient takes the whole row as its lengthscale terms, so a shared
//!   level is divided once for all its points. A level that one point holds
//!   keeps no row; its quotients are divided where they are used, as often
//!   as per-pair tables were. So neither step divides more than per-pair
//!   tables would, and the rows hold `n` numbers per shared level. The
//!   limit: along a real or wide integer dimension whose points all differ,
//!   every level is a single point's, so that dimension still costs `n²`
//!   divisions per gradient and an `n × n` level table in the cache, and
//!   its quotients are gathered through the codes rather than read in a
//!   row. The level tables are symmetric to the bit and each pair sums its
//!   quotients in ascending `k` from `0.0`, so every number equals a
//!   per-pair `Σ_k d²_k/ℓ_k²`.
//! * **Fantasy conditioning** — [`GaussianProcess::condition_on`] folds a
//!   hallucinated observation into a fitted model in `O(n²)` (frozen
//!   hyperparameters, extended factorization), the primitive behind the
//!   batched q-EI proposer in [`crate::tuner::batch`].
//!
//! ```
//! use baco::space::{ParamValue, SearchSpace};
//! use baco::surrogate::{GaussianProcess, GpOptions};
//! use rand::SeedableRng;
//!
//! let space = SearchSpace::builder().integer("x", 0, 20).build()?;
//! let cfg = |x: i64| space.configuration(&[("x", ParamValue::Int(x))]).unwrap();
//! let configs: Vec<_> = [0, 5, 10, 15, 20].map(cfg).into_iter().collect();
//! let y = vec![4.0, 1.0, 0.0, 1.0, 4.0];
//! let mut rng = rand::rngs::StdRng::seed_from_u64(5);
//! let gp = GaussianProcess::fit(&space, &configs, &y, &GpOptions::default(), &mut rng)?;
//!
//! // Kriging-believer fantasy: condition on the model's own mean at x = 12.
//! let (mean, var_before) = gp.predict(&cfg(12));
//! let fantasy = gp.condition_on(&cfg(12), mean)?;
//! let (_, var_after) = fantasy.predict(&cfg(12));
//! assert!(var_after < var_before, "uncertainty collapses at the fantasy point");
//! # Ok::<(), baco::Error>(())
//! ```

use super::cache::{GpCache, LevelTable};
use super::features::{accumulate_scaled_dist2, DimView, ModelInput};
use super::mean::MeanFn;
use crate::linalg::{dot, mean, std_dev, with_simd, Cholesky, Matrix};
use crate::opt::{multistart_minimize, LbfgsOptions};
use crate::space::{Configuration, PermMetric, SearchSpace};
use crate::{Error, Result};
use rand::Rng;
use std::cell::RefCell;
use std::sync::Arc;

const SQRT5: f64 = 2.236_067_977_499_79;
/// Jitter always added to the kernel diagonal for numerical stability.
const BASE_JITTER: f64 = 1e-8;
/// Candidates per block in the batched posterior solve; sized so a block of
/// intermediate solutions stays cache-resident next to the Cholesky factor.
const PREDICT_BLOCK: usize = 64;
/// Lengthscale gradient entries the NLL gradient accumulates side by side.
const GRAD_CHAINS: usize = 5;

/// Gamma prior on lengthscales: shape `alpha`, rate `beta` (Sec. 3.2:
/// "gamma priors … chosen to be flexible while cutting out extreme
/// hyperparameter settings").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GammaPrior {
    /// Shape parameter (α > 1 pushes lengthscales away from zero).
    pub alpha: f64,
    /// Rate parameter (larger β penalizes very long lengthscales).
    pub beta: f64,
}

impl Default for GammaPrior {
    fn default() -> Self {
        // Mode at (α−1)/β = 1 on normalized inputs; long tails both ways.
        GammaPrior {
            alpha: 2.0,
            beta: 1.0,
        }
    }
}

impl GammaPrior {
    /// Unnormalized log-density at `x > 0`.
    pub fn log_pdf(&self, x: f64) -> f64 {
        (self.alpha - 1.0) * x.ln() - self.beta * x
    }

    /// Derivative of [`GammaPrior::log_pdf`] w.r.t. `log x`.
    pub fn dlog_pdf_dlogx(&self, x: f64) -> f64 {
        (self.alpha - 1.0) - self.beta * x
    }
}

/// Options controlling GP fitting. The defaults are BaCO's; the ablations of
/// Fig. 8/9 toggle individual fields.
#[derive(Debug, Clone)]
pub struct GpOptions {
    /// Permutation semimetric (Sec. 4.1; default Spearman).
    pub perm_metric: PermMetric,
    /// Apply declared log transforms to inputs (Sec. 4.2).
    pub input_transforms: bool,
    /// Gamma prior on lengthscales, or `None` for plain MLE.
    pub lengthscale_prior: Option<GammaPrior>,
    /// Number of random hyperparameter draws in the multistart.
    pub multistart_samples: usize,
    /// How many of the best draws are refined with L-BFGS.
    pub multistart_keep: usize,
    /// L-BFGS settings for the refinement.
    pub lbfgs: LbfgsOptions,
    /// Ignored: the multistart runs on the fitting thread (see
    /// [`crate::opt::multistart_minimize`]). Kept, defaulting to `1`, only
    /// because the repository benchmark still reports it; it is deleted
    /// with the next change to that benchmark.
    pub threads: usize,
    /// Prior mean function `m(x)`: the GP fits the residuals `y − m(x)` and
    /// adds `m(x)` back at prediction time. `None` (default) is the zero
    /// mean — byte-identical to a stack with no mean function at all.
    pub mean_fn: Option<Arc<dyn MeanFn>>,
}

impl Default for GpOptions {
    fn default() -> Self {
        GpOptions {
            perm_metric: PermMetric::Spearman,
            input_transforms: true,
            lengthscale_prior: Some(GammaPrior::default()),
            multistart_samples: 24,
            multistart_keep: 3,
            lbfgs: LbfgsOptions {
                max_iters: 60,
                ..Default::default()
            },
            threads: 1,
            mean_fn: None,
        }
    }
}

impl GpOptions {
    /// The crippled configuration used as `BaCO--` in Fig. 8: no input
    /// transforms, no priors, naive permutation distance, and a single
    /// unrefined hyperparameter draw instead of the full multistart.
    pub fn baco_minus_minus() -> Self {
        GpOptions {
            perm_metric: PermMetric::Naive,
            input_transforms: false,
            lengthscale_prior: None,
            multistart_samples: 1,
            multistart_keep: 1,
            lbfgs: LbfgsOptions {
                max_iters: 10,
                ..Default::default()
            },
            threads: 1,
            mean_fn: None,
        }
    }
}

/// A fitted Gaussian process with the 5/2-Matérn kernel of Eq. (1)–(2).
///
/// Outputs are standardized internally; predictions are returned on the
/// original scale. The predictive variance is *latent* (noise-free), as
/// required by the modified EI acquisition of Sec. 3.3.
#[derive(Debug)]
pub struct GaussianProcess {
    space: SearchSpace,
    inputs: Vec<ModelInput>,
    /// Per-dimension lengthscales ℓᵢ.
    lengthscales: Vec<f64>,
    /// Output scale σ (kernel amplitude).
    outputscale: f64,
    /// Observation noise variance σε².
    noise: f64,
    perm_metric: PermMetric,
    input_transforms: bool,
    /// Prior mean `m(x)`; the model fits the residuals `y − m(x)` (see
    /// [`GpOptions::mean_fn`]). `None` is the zero mean.
    mean_fn: Option<Arc<dyn MeanFn>>,
    y_mean: f64,
    y_std: f64,
    chol: Cholesky,
    alpha: Vec<f64>,
    /// Standardized training targets, kept so the model can be *conditioned*
    /// on additional (possibly hallucinated) observations after fitting — the
    /// extended system `K⁺ α⁺ = y⁺` needs the old right-hand side.
    ys: Vec<f64>,
    /// Dimension-major training columns for the batched cross-kernel,
    /// built once per fit instead of once per `predict_batch_configs` call.
    train_views: Vec<DimView>,
}

/// The best (value, θ, factorization) seen while evaluating the negative log
/// posterior, memoized so the final refit does not refactorize the kernel.
struct BestEval {
    value: f64,
    theta: Vec<f64>,
    chol: Cholesky,
    alpha: Vec<f64>,
}

impl GaussianProcess {
    /// Fits the GP to `(configs, y)` by MAP estimation of lengthscales,
    /// outputscale and noise.
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] on empty or mismatched data;
    /// [`Error::Numerical`] if every hyperparameter candidate fails to
    /// factorize (pathological duplicate-heavy data).
    pub fn fit<R: Rng + ?Sized>(
        space: &SearchSpace,
        configs: &[Configuration],
        y: &[f64],
        opts: &GpOptions,
        rng: &mut R,
    ) -> Result<Self> {
        let mut cache = GpCache::new();
        Self::fit_with_cache(space, configs, y, opts, rng, &mut cache)
    }

    /// Like [`GaussianProcess::fit`], but carrying the per-dimension level
    /// tables forward in `cache` across tuning iterations: when the new
    /// `configs` extend the previous call's, only the new points' codes and
    /// any new levels' distances are computed instead of a full rebuild.
    ///
    /// The result is bit-identical to [`GaussianProcess::fit`] and consumes
    /// the same RNG stream.
    ///
    /// # Errors
    /// As [`GaussianProcess::fit`].
    pub fn fit_with_cache<R: Rng + ?Sized>(
        space: &SearchSpace,
        configs: &[Configuration],
        y: &[f64],
        opts: &GpOptions,
        rng: &mut R,
        cache: &mut GpCache,
    ) -> Result<Self> {
        if configs.is_empty() || configs.len() != y.len() {
            return Err(Error::InvalidConfig(format!(
                "GP fit needs matching nonempty data: {} configs, {} values",
                configs.len(),
                y.len()
            )));
        }
        let d = space.len();
        let inputs: Vec<ModelInput> = configs
            .iter()
            .map(|c| ModelInput::from_config(space, c, opts.input_transforms))
            .collect();

        // Residual-space fit: subtract the prior mean (when one is set), then
        // standardize. With no mean function the residuals *are* the targets
        // and every number below matches the historical zero-mean path bit
        // for bit.
        let residuals: Vec<f64>;
        let targets: &[f64] = match &opts.mean_fn {
            Some(m) => {
                residuals = configs
                    .iter()
                    .zip(y)
                    .map(|(c, v)| v - m.mean(space, c))
                    .collect();
                &residuals
            }
            None => y,
        };
        let y_mean = mean(targets);
        let y_std = {
            let s = std_dev(targets);
            if s > 1e-12 {
                s
            } else {
                1.0
            }
        };
        let ys: Vec<f64> = targets.iter().map(|v| (v - y_mean) / y_std).collect();

        // Per-dimension squared distances (fixed across the hyperparameter
        // optimization): extend the cached level tables by the new points,
        // or rebuild from scratch if the history is not a prefix of the
        // current data (restarted tuner, changed options, …).
        cache.sync_distances(&inputs, d, opts.perm_metric, opts.input_transforms);
        let (lengthscales, outputscale, noise, chol, alpha) =
            Self::full_fit(&ys, opts, rng, cache)?;
        let train_views = (0..d).map(|k| ModelInput::dim_view(&inputs, k)).collect();
        Ok(GaussianProcess {
            space: space.clone(),
            inputs,
            lengthscales,
            outputscale,
            noise,
            perm_metric: opts.perm_metric,
            input_transforms: opts.input_transforms,
            mean_fn: opts.mean_fn.clone(),
            y_mean,
            y_std,
            chol,
            alpha,
            ys,
            train_views,
        })
    }

    /// Returns a new GP conditioned on one additional observation `(cfg, y)`
    /// without refitting: the hyperparameters, output standardization and
    /// per-dimension lengthscales are frozen, the kernel factorization is
    /// grown by a rank-one [`Cholesky::extend`] row append (`O(n²)`), and the
    /// posterior weights are re-solved against the extended targets.
    ///
    /// This is the primitive behind *fantasy models* for batched acquisition
    /// (q-point EI): the batch proposer conditions the surrogate on
    /// hallucinated outcomes — the posterior mean at the proposed point
    /// ("kriging believer") or a constant lie — so the next pick in the same
    /// round sees reduced uncertainty around points already chosen. `y` is on
    /// the same scale as the targets the model was fitted on.
    ///
    /// # Errors
    /// [`Error::Numerical`] if the extended kernel matrix is not numerically
    /// positive definite (e.g. `cfg` duplicates a training point under a
    /// near-zero noise estimate). Callers should treat this as "skip the
    /// conditioning", not as a fatal error — the unconditioned model is still
    /// valid.
    pub fn condition_on(&self, cfg: &Configuration, y: f64) -> Result<GaussianProcess> {
        let x = ModelInput::from_config(&self.space, cfg, self.input_transforms);
        let row = self.cross_kernel_row(&x);
        let mut chol = self.chol.clone();
        chol.extend(&row, self.outputscale + self.noise + BASE_JITTER)
            .map_err(|e| Error::Numerical(format!("GP conditioning failed: {e}")))?;
        let mut inputs = self.inputs.clone();
        inputs.push(x);
        let mut ys = self.ys.clone();
        // Fantasy observations are residuals too: subtract the prior mean
        // before standardizing, exactly as the fit does for real targets.
        let y = match &self.mean_fn {
            Some(m) => y - m.mean(&self.space, cfg),
            None => y,
        };
        ys.push((y - self.y_mean) / self.y_std);
        let alpha = chol.solve(&ys);
        let d = self.lengthscales.len();
        let train_views = (0..d).map(|k| ModelInput::dim_view(&inputs, k)).collect();
        Ok(GaussianProcess {
            space: self.space.clone(),
            inputs,
            lengthscales: self.lengthscales.clone(),
            outputscale: self.outputscale,
            noise: self.noise,
            perm_metric: self.perm_metric,
            input_transforms: self.input_transforms,
            mean_fn: self.mean_fn.clone(),
            y_mean: self.y_mean,
            y_std: self.y_std,
            chol,
            alpha,
            ys,
            train_views,
        })
    }

    /// The multistart MAP fit over the cached distance tables. The
    /// factorization computed by the best objective evaluation is memoized
    /// and reused, so the chosen hyperparameters are not refactorized
    /// afterwards.
    #[allow(clippy::type_complexity)]
    fn full_fit<R: Rng + ?Sized>(
        ys: &[f64],
        opts: &GpOptions,
        rng: &mut R,
        cache: &GpCache,
    ) -> Result<(Vec<f64>, f64, f64, Cholesky, Vec<f64>)> {
        let levels = cache.levels();
        let d = levels.len();
        let prior = opts.lengthscale_prior;
        let best_eval: RefCell<Option<BestEval>> = RefCell::new(None);

        let value = |theta: &[f64]| -> f64 {
            neg_log_posterior_impl(theta, levels, ys, prior.as_ref(), false, Some(&best_eval)).0
        };
        // The gradient thunk finishes `K⁻¹` and the gradient from the value
        // step's state; L-BFGS runs it only at accepted points.
        let value_grad = |theta: &[f64]| {
            let len = theta.len();
            let (nll, state) =
                neg_log_posterior_impl(theta, levels, ys, prior.as_ref(), true, Some(&best_eval));
            (nll, move || {
                state.map_or_else(|| vec![0.0; len], NllState::gradient)
            })
        };

        let sample_theta = |rng: &mut R| -> Vec<f64> {
            let mut t = Vec::with_capacity(d + 2);
            for _ in 0..d {
                t.push(rng.gen_range((0.05f64).ln()..(3.0f64).ln()));
            }
            t.push(rng.gen_range((0.2f64).ln()..(2.0f64).ln()));
            t.push(rng.gen_range((1e-6f64).ln()..(1e-2f64).ln()));
            t
        };

        let best = multistart_minimize(
            rng,
            opts.multistart_samples.max(1),
            opts.multistart_keep.max(1),
            sample_theta,
            &value,
            &value_grad,
            &opts.lbfgs,
        );
        // Decode hyperparameters; fall back to a safe default if the
        // optimizer diverged.
        let theta = if best.value.is_finite() {
            best.x
        } else {
            let mut t = vec![0.0; d];
            t.push(0.0);
            t.push((1e-3f64).ln());
            t
        };
        let lengthscales: Vec<f64> = theta[..d]
            .iter()
            .map(|t| t.exp().clamp(1e-3, 1e3))
            .collect();
        let outputscale = theta[d].exp().clamp(1e-4, 1e4);
        let noise = theta[d + 1].exp().clamp(1e-9, 1e2);

        // Reuse the memoized factorization when it was computed at exactly
        // the chosen (unclamped) hyperparameters; refactorize only when the
        // optimizer diverged or a clamp changed a decoded value.
        let clamps_free = lengthscales
            .iter()
            .zip(&theta[..d])
            .all(|(l, t)| *l == t.exp())
            && outputscale == theta[d].exp()
            && noise == theta[d + 1].exp();
        let (chol, alpha) = match best_eval.into_inner() {
            Some(m) if clamps_free && m.theta == theta => (m.chol, m.alpha),
            _ => {
                let kmat = kernel_matrix(levels, &lengthscales, outputscale, noise);
                let chol = Cholesky::new_with_jitter(&kmat, 1e-10, 14)
                    .map_err(|e| Error::Numerical(format!("GP final factorization failed: {e}")))?;
                let alpha = chol.solve(ys);
                (chol, alpha)
            }
        };

        Ok((lengthscales, outputscale, noise, chol, alpha))
    }

    /// The cross-kernel row `k(x, xᵢ)` against every training input — shared
    /// by the scalar posterior and by [`GaussianProcess::condition_on`] so
    /// the kernel arithmetic cannot drift between the two.
    fn cross_kernel_row(&self, x: &ModelInput) -> Vec<f64> {
        self.inputs
            .iter()
            .map(|xi| {
                let mut s = 0.0;
                for k in 0..x.len() {
                    s += x.dim_dist2(xi, k, self.perm_metric)
                        / (self.lengthscales[k] * self.lengthscales[k]);
                }
                matern52(s.sqrt(), self.outputscale)
            })
            .collect()
    }

    /// Posterior mean and latent (noise-free) variance at `cfg`, on the
    /// original output scale (prior mean added back when one is set).
    ///
    /// This is the *scalar* path: one `O(n²)` triangular solve and fresh
    /// allocations per call. Candidate scoring goes through
    /// [`GaussianProcess::predict_batch_configs`] instead; its mean is
    /// bit-identical to this one's.
    pub fn predict(&self, cfg: &Configuration) -> (f64, f64) {
        let x = ModelInput::from_config(&self.space, cfg, self.input_transforms);
        let kstar = self.cross_kernel_row(&x);
        let mean_std = dot(&kstar, &self.alpha);
        let v = self.chol.solve(&kstar);
        let var_std = (self.outputscale - dot(&kstar, &v)).max(1e-12);
        let m = self.y_mean + self.y_std * mean_std;
        let m = match &self.mean_fn {
            Some(f) => m + f.mean(&self.space, cfg),
            None => m,
        };
        (m, self.y_std * self.y_std * var_std)
    }

    /// Posterior mean and latent variance for a whole candidate batch;
    /// equivalent to mapping [`GaussianProcess::predict`] but far faster
    /// (see module docs). The tuner's acquisition scoring routes through it.
    /// Each candidate's prior mean is added to its posterior mean when a
    /// [`GpOptions::mean_fn`] is set.
    ///
    /// The means are bit-identical to [`GaussianProcess::predict`]'s (the
    /// cross-kernel uses the same divisors and the same summation order);
    /// the variances agree to rounding, because the scalar path solves
    /// `L Lᵀ v = k*` and the batch path only `L y = k*`.
    pub fn predict_batch_configs(&self, cfgs: &[Configuration]) -> Vec<(f64, f64)> {
        let xs: Vec<ModelInput> = cfgs
            .iter()
            .map(|c| ModelInput::from_config(&self.space, c, self.input_transforms))
            .collect();
        let mut out = self.predict_residual_batch(&xs);
        if let Some(m) = &self.mean_fn {
            for (cfg, entry) in cfgs.iter().zip(out.iter_mut()) {
                entry.0 += m.mean(&self.space, cfg);
            }
        }
        out
    }

    /// The batch core of [`GaussianProcess::predict_batch_configs`], in
    /// residual space (no prior-mean offset).
    ///
    /// The cross-kernel is built as an `n × m` block and all `m` triangular
    /// systems are forward-substituted together (`var = σ − ‖L⁻¹k*‖²`, so
    /// only the lower solve is needed) by [`Cholesky::solve_lower_block`],
    /// whose lanes are independent candidates — unlike the scalar path's
    /// per-candidate dependent dot-product chains.
    fn predict_residual_batch(&self, xs: &[ModelInput]) -> Vec<(f64, f64)> {
        let n = self.inputs.len();
        let mut out = Vec::with_capacity(xs.len());

        // Same per-dimension divisors as the scalar path (ℓ·ℓ, divided, not
        // multiplied by a reciprocal): the cross-kernel — and therefore the
        // posterior mean — is bit-identical to `predict`'s.
        let ls2: Vec<f64> = self.lengthscales.iter().map(|l| l * l).collect();
        let mut kstar = Vec::with_capacity(n * xs.len().min(PREDICT_BLOCK));

        for block in xs.chunks(PREDICT_BLOCK) {
            let m = block.len();
            kstar.clear();
            kstar.resize(n * m, 0.0);

            // Cross-kernel block K* (train-major, candidate-minor layout):
            // accumulate the lengthscale-weighted squared distance one
            // dimension at a time, then map through the Matérn kernel.
            for (k, train_view) in self.train_views.iter().enumerate() {
                let cand_view = ModelInput::dim_view(block, k);
                accumulate_scaled_dist2(
                    train_view,
                    &cand_view,
                    self.perm_metric,
                    ls2[k],
                    &mut kstar,
                );
            }
            for v in kstar.iter_mut() {
                *v = matern52(v.sqrt(), self.outputscale);
            }

            // Blocked forward substitution: solve L · Y = K* for all m
            // candidates at once, unit stride over the candidates.
            let solved = self.chol.solve_lower_block(&kstar, m);

            // Reduce: mean = k*ᵀ α, variance = σ − ‖L⁻¹ k*‖².
            let mut mean_acc = vec![0.0; m];
            let mut var_acc = vec![0.0; m];
            for i in 0..n {
                let a = self.alpha[i];
                let krow = &kstar[i * m..(i + 1) * m];
                let yrow = &solved[i * m..(i + 1) * m];
                for j in 0..m {
                    mean_acc[j] += a * krow[j];
                    var_acc[j] += yrow[j] * yrow[j];
                }
            }
            for (mean_std, var_acc) in mean_acc.into_iter().zip(var_acc) {
                let var_std = (self.outputscale - var_acc).max(1e-12);
                out.push((
                    self.y_mean + self.y_std * mean_std,
                    self.y_std * self.y_std * var_std,
                ));
            }
        }
        out
    }

    /// The fitted per-parameter lengthscales.
    pub fn lengthscales(&self) -> &[f64] {
        &self.lengthscales
    }

    /// The fitted kernel amplitude σ.
    pub fn outputscale(&self) -> f64 {
        self.outputscale
    }

    /// The fitted observation-noise variance σε².
    pub fn noise(&self) -> f64 {
        self.noise
    }

    /// Number of training points.
    pub fn train_len(&self) -> usize {
        self.inputs.len()
    }
}

/// 5/2-Matérn kernel value at distance `dist` with amplitude `sigma`.
fn matern52(dist: f64, sigma: f64) -> f64 {
    matern52_terms(dist, sigma).0
}

/// The 5/2-Matérn value `k = σ(1 + √5·d + 5/3·d²)e^{−√5·d}` together with
/// the gradient factor `C = 5/3·σ(1 + √5·d)e^{−√5·d}`, sharing one `exp`:
/// `∂k/∂log ℓ_k = C·r²_k` for the lengthscale-scaled squared distance `r²_k`.
fn matern52_terms(dist: f64, sigma: f64) -> (f64, f64) {
    let t = SQRT5 * dist;
    let e = (-t).exp();
    (
        sigma * (1.0 + t + 5.0 / 3.0 * dist * dist) * e,
        5.0 / 3.0 * sigma * (1.0 + t) * e,
    )
}

fn kernel_matrix(levels: &[LevelTable], ls: &[f64], sigma: f64, noise: f64) -> Matrix {
    kernel_terms(&ScaledRows::new(levels, ls), sigma, noise, false).0
}

/// A level without a stored quotient row: one point holds it.
const NO_ROW: u32 = u32::MAX;

/// One NLL evaluation's lengthscale-scaled squared distances, level-coded.
///
/// A level that two or more points hold gets a stored quotient row
/// `dist2_k[a][code_k[j]] / ℓ_k²` over every training point `j`, shared by
/// all its points in the kernel build and the gradient. A level that one
/// point holds — as a rule every level of a real or wide integer dimension
/// — stores nothing: its quotients are divided where they are used, once
/// per pair in the kernel build and once per gradient row, as often as
/// per-pair `n × n` tables were divided. The value step fills a stored row
/// only past its level's first point and the gradient completes it, so
/// neither step divides more often than per-pair tables would. The rows
/// hold `Σ_k R_k·n` numbers for the `R_k ≤ min(L_k, n/2)` shared levels.
struct ScaledRows<'a> {
    levels: &'a [LevelTable],
    ls2: Vec<f64>,
    n: usize,
    /// Per dimension, each level's row in `rows`, or [`NO_ROW`].
    slots: Vec<Vec<u32>>,
    /// Per dimension, the stored rows, `n` numbers each.
    rows: Vec<Vec<f64>>,
}

impl<'a> ScaledRows<'a> {
    /// Stores a row for every shared level, filled past the level's first
    /// point. Every quotient is a division by `ℓ_k·ℓ_k`, not a multiply by
    /// the reciprocal, so it equals the per-pair one bit for bit.
    fn new(levels: &'a [LevelTable], ls: &[f64]) -> Self {
        let n = levels.first().map_or(0, |t| t.codes().len());
        let ls2: Vec<f64> = ls.iter().map(|l| l * l).collect();
        let mut slots = Vec::with_capacity(levels.len());
        let mut rows = Vec::with_capacity(levels.len());
        for (t, &l2) in levels.iter().zip(&ls2) {
            let codes = t.codes();
            let mut held = vec![0u32; t.levels()];
            for &c in codes {
                held[c as usize] += 1;
            }
            let shared = held.iter().filter(|&&h| h > 1).count();
            let mut slot = vec![NO_ROW; t.levels()];
            let mut block = Vec::with_capacity(shared * n);
            for (i, &c) in codes.iter().enumerate() {
                let a = c as usize;
                if held[a] < 2 || slot[a] != NO_ROW {
                    continue;
                }
                let start = block.len();
                slot[a] = (start / n) as u32;
                block.resize(start + n, 0.0);
                let row = &mut block[start + i + 1..];
                divide_level_row(row, t, a, i + 1, l2, |q, v| *q = v);
            }
            slots.push(slot);
            rows.push(block);
        }
        ScaledRows {
            levels,
            ls2,
            n,
            slots,
            rows,
        }
    }

    /// Adds point `i`'s scaled squared distances along dimension `k` to the
    /// later points `i + 1..n` onto `acc`.
    fn add_later(&self, k: usize, i: usize, acc: &mut [f64]) {
        let t = &self.levels[k];
        let a = t.codes()[i] as usize;
        match self.slots[k][a] {
            NO_ROW => divide_level_row(acc, t, a, i + 1, self.ls2[k], |s, v| *s += v),
            r => {
                let row = &self.rows[k][r as usize * self.n..(r as usize + 1) * self.n];
                for (s, &v) in acc.iter_mut().zip(&row[i + 1..]) {
                    *s += v;
                }
            }
        }
    }

    /// Fills every stored row up to and including its level's first point,
    /// the part the value step leaves out.
    fn complete(&mut self) {
        let n = self.n;
        for ((t, slot), (block, &l2)) in self
            .levels
            .iter()
            .zip(&self.slots)
            .zip(self.rows.iter_mut().zip(&self.ls2))
        {
            // Rows are numbered in order of their levels' first points, so
            // row `next` is met first exactly when its level's first point is.
            let mut next = 0;
            let codes = t.codes();
            for (i, &c) in codes.iter().enumerate() {
                let a = c as usize;
                if slot[a] != next {
                    continue;
                }
                next += 1;
                let r = slot[a] as usize;
                let row = &mut block[r * n..r * n + i + 1];
                divide_level_row(row, t, a, 0, l2, |q, v| *q = v);
            }
        }
    }

    /// Point `i`'s scaled squared distances to every point along dimension
    /// `k` (zero at `i` itself): its level's stored row, or divided into
    /// `scratch` (length `n`) when the level has none. Needs
    /// [`ScaledRows::complete`] first.
    fn row<'s>(&'s self, k: usize, i: usize, scratch: &'s mut [f64]) -> &'s [f64] {
        let t = &self.levels[k];
        let a = t.codes()[i] as usize;
        match self.slots[k][a] {
            NO_ROW => {
                divide_level_row(scratch, t, a, 0, self.ls2[k], |q, v| *q = v);
                scratch
            }
            r => &self.rows[k][r as usize * self.n..(r as usize + 1) * self.n],
        }
    }
}

/// Calls `f(&mut out[j], dist2_k[a][code_k[lo + j]] / l2)` for every `j`
/// of `out`, for the level table `t` of dimension `k`. When every point
/// holds its own level the codes are `0..n` and level `a`'s row is read in
/// place; otherwise the loads go four at a time, so the divisions vectorize
/// despite the gather.
#[inline(always)]
fn divide_level_row(
    out: &mut [f64],
    t: &LevelTable,
    a: usize,
    lo: usize,
    l2: f64,
    f: impl Fn(&mut f64, f64),
) {
    let dist2 = t.row(a);
    if t.all_distinct() {
        for (o, &v) in out.iter_mut().zip(&dist2[lo..]) {
            f(o, v / l2);
        }
        return;
    }
    let codes = &t.codes()[lo..lo + out.len()];
    let mut out4 = out.chunks_exact_mut(4);
    let mut codes4 = codes.chunks_exact(4);
    for (o, c) in (&mut out4).zip(&mut codes4) {
        let v = [
            dist2[c[0] as usize],
            dist2[c[1] as usize],
            dist2[c[2] as usize],
            dist2[c[3] as usize],
        ];
        for r in 0..4 {
            f(&mut o[r], v[r] / l2);
        }
    }
    for (o, &c) in out4.into_remainder().iter_mut().zip(codes4.remainder()) {
        f(o, dist2[c as usize] / l2);
    }
}

/// The kernel matrix and, when `want_factor` is set, the symmetric matrix
/// of Matérn gradient factors `C_ij` (see [`matern52_terms`]; zero diagonal).
///
/// Row `i`'s scaled distances to the later points accumulate one dimension
/// at a time (see [`ScaledRows::add_later`]), so every `Σ_k d²_k/ℓ_k²` is
/// still summed in ascending `k` from `0.0`. It has no AVX2 copy: one
/// `exp` call per pair sets its speed, and the copy measured no faster.
fn kernel_terms(
    scaled: &ScaledRows,
    sigma: f64,
    noise: f64,
    want_factor: bool,
) -> (Matrix, Option<Matrix>) {
    let n = scaled.n;
    let d = scaled.levels.len();
    let mut k = Matrix::zeros(n, n);
    let mut c = want_factor.then(|| Matrix::zeros(n, n));
    let mut dist2 = vec![0.0; n];
    for i in 0..n {
        k[(i, i)] = sigma + noise + BASE_JITTER;
        let s = &mut dist2[i + 1..];
        s.fill(0.0);
        for kk in 0..d {
            scaled.add_later(kk, i, s);
        }
        for (j, &sij) in (i + 1..n).zip(s.iter()) {
            let (v, cij) = matern52_terms(sij.sqrt(), sigma);
            k[(i, j)] = v;
            k[(j, i)] = v;
            if let Some(c) = c.as_mut() {
                c[(i, j)] = cij;
                c[(j, i)] = cij;
            }
        }
    }
    (k, c)
}

/// Value step of the negative log posterior (marginal likelihood +
/// lengthscale priors) over θ = [log ℓ…, log σ, log σε²].
///
/// Builds the kernel, factorizes it, solves for α and returns the NLL. With
/// `want_grad` the kernel build also keeps the Matérn gradient factors and
/// the returned [`NllState`] can finish the gradient later from the same
/// kernel, factors and factorization — the L-BFGS line search forces it only
/// at accepted points (see [`crate::opt::minimize`]). Without `want_grad`
/// (multistart ranking) no state is kept. The state is also `None` when θ
/// is outside the trusted box or the kernel does not factorize; the value is
/// then `+∞` and the gradient, if asked for, is all zeros.
///
/// When `memo` is given, the factorization computed for the best value seen
/// so far is kept for reuse by the final fit.
///
/// The level tables must be symmetric (as [`GpCache`] builds them): the
/// gradient reads each pair's kernel terms from the one kernel build.
fn neg_log_posterior_impl<'a>(
    theta: &[f64],
    levels: &'a [LevelTable],
    ys: &[f64],
    prior: Option<&'a GammaPrior>,
    want_grad: bool,
    memo: Option<&RefCell<Option<BestEval>>>,
) -> (f64, Option<NllState<'a>>) {
    let d = levels.len();
    let n = ys.len();
    if theta.iter().any(|t| !t.is_finite() || t.abs() > 40.0) {
        return (f64::INFINITY, None);
    }
    let ls: Vec<f64> = theta[..d].iter().map(|t| t.exp()).collect();
    let sigma = theta[d].exp();
    let noise = theta[d + 1].exp();

    let scaled = ScaledRows::new(levels, &ls);
    let (kmat, factors) = kernel_terms(&scaled, sigma, noise, want_grad);
    let Ok(chol) = Cholesky::new(&kmat) else {
        return (f64::INFINITY, None);
    };
    let alpha = chol.solve(ys);
    let data_fit: f64 = dot(ys, &alpha);
    let mut nll =
        0.5 * data_fit + 0.5 * chol.log_det() + 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();
    if let Some(p) = prior {
        for l in &ls {
            nll -= p.log_pdf(*l);
        }
    }

    if let Some(memo) = memo {
        if nll.is_finite() {
            let mut slot = memo.borrow_mut();
            if slot.as_ref().is_none_or(|b| nll < b.value) {
                *slot = Some(BestEval {
                    value: nll,
                    theta: theta.to_vec(),
                    chol: chol.clone(),
                    alpha: alpha.clone(),
                });
            }
        }
    }

    let state = factors.map(|factors| NllState {
        scaled,
        prior,
        ls,
        sigma,
        noise,
        kmat,
        factors,
        chol,
        alpha,
    });
    (nll, state)
}

/// What the gradient of one NLL evaluation needs from its value step: the
/// quotient rows, the kernel with its Matérn gradient factors, the
/// factorization and α.
struct NllState<'a> {
    scaled: ScaledRows<'a>,
    prior: Option<&'a GammaPrior>,
    ls: Vec<f64>,
    sigma: f64,
    noise: f64,
    kmat: Matrix,
    factors: Matrix,
    chol: Cholesky,
    alpha: Vec<f64>,
}

impl NllState<'_> {
    /// The gradient of the NLL w.r.t. θ. Forming `K⁻¹` dominates: about
    /// `n³` multiply–adds (`2n³/3` after skipping the structural zeros of
    /// `L⁻¹`), against `n³/6` for the value step's factorization. The pair
    /// loop runs from the AVX2 copy when the CPU has AVX2 (see
    /// [`crate::linalg::with_simd`]).
    fn gradient(self) -> Vec<f64> {
        let kinv = self.chol.inverse();
        with_simd(
            #[inline(always)]
            move || self.gradient_body(&kinv),
        )
    }

    /// [`NllState::gradient`]'s pair loop over `kinv = K⁻¹`, compiled into
    /// each copy.
    #[inline(always)]
    fn gradient_body(self, kinv: &Matrix) -> Vec<f64> {
        let NllState {
            mut scaled,
            prior,
            ls,
            sigma,
            noise,
            kmat,
            factors,
            chol: _,
            alpha,
        } = self;
        scaled.complete();
        let d = scaled.levels.len();
        let n = alpha.len();
        // ∂NLL/∂θ = ½ Σ_ij B_ij ∂K_ij/∂θ with B = K⁻¹ − α αᵀ, formed one row
        // at a time. Off the diagonal ∂k_ij/∂log σ = k_ij and ∂k_ij/∂log ℓ_k
        // = C_ij r²_k; k_ij and C_ij come from the kernel build and r²_k =
        // d²_k/ℓ_k² is point i's quotient row, divided here only for a level
        // that no other point holds.
        // Each grad entry is one chain of `weight · term` additions over the
        // ordered pairs in row-major order.
        let mut grad = vec![0.0; d + 2];
        let mut half_b = vec![0.0; n];
        let mut weighted = vec![0.0; n];
        let zeros = vec![0.0; n];
        let mut scratch = vec![0.0; GRAD_CHAINS * n];
        for i in 0..n {
            let ai = alpha[i];
            let rows = kinv.row(i).iter().zip(&alpha).zip(factors.row(i));
            for ((hb, w), ((&kinv_ij, &aj), &cij)) in half_b.iter_mut().zip(&mut weighted).zip(rows)
            {
                *hb = 0.5 * (kinv_ij - ai * aj);
                *w = *hb * cij;
            }
            // The lengthscale chains share their weights and advance
            // GRAD_CHAINS at a time, padded with discarded all-zero chains.
            // The σ chain rides in front of the first group, so no pass
            // waits on one lone addition chain.
            for k0 in (0..d.max(1)).step_by(GRAD_CHAINS) {
                let live = |r: usize| k0 + r < d;
                let mut acc: [f64; GRAD_CHAINS] =
                    std::array::from_fn(|r| if live(r) { grad[k0 + r] } else { 0.0 });
                let mut scratch = scratch.chunks_exact_mut(n);
                let terms: [&[f64]; GRAD_CHAINS] = std::array::from_fn(|r| {
                    let scratch = scratch.next().expect("one scratch row per chain");
                    if live(r) {
                        scaled.row(k0 + r, i, scratch)
                    } else {
                        &zeros[..]
                    }
                });
                if k0 == 0 {
                    let mut lead = [grad[d]; GRAD_CHAINS + 1];
                    lead[1..].copy_from_slice(&acc);
                    let weights =
                        std::array::from_fn(|r| if r == 0 { &half_b[..] } else { &weighted[..] });
                    let terms =
                        std::array::from_fn(|r| if r == 0 { kmat.row(i) } else { terms[r - 1] });
                    accumulate_pairs(&mut lead, weights, terms, i);
                    grad[d] = lead[0];
                    acc.copy_from_slice(&lead[1..]);
                } else {
                    accumulate_pairs(&mut acc, [&weighted[..]; GRAD_CHAINS], terms, i);
                }
                for (r, a) in acc.into_iter().enumerate().filter(|&(r, _)| live(r)) {
                    grad[k0 + r] = a;
                }
            }
        }
        // Diagonal contributions: k_ii = σ (+ noise); ∂/∂logσ = σ,
        // ∂/∂logσε² = σε².
        for i in 0..n {
            let bii = kinv[(i, i)] - alpha[i] * alpha[i];
            grad[d] += 0.5 * bii * sigma;
            grad[d + 1] += 0.5 * bii * noise;
        }

        if let Some(p) = prior {
            for (kk, l) in ls.iter().enumerate() {
                grad[kk] -= p.dlog_pdf_dlogx(*l);
            }
        }
        grad
    }
}

/// `acc[r] += weights[r][j] · terms[r][j]` for every `j ≠ skip`, one term at
/// a time in ascending `j`: `R` independent addition chains whose latencies
/// overlap. All rows have the same length.
#[inline(always)]
fn accumulate_pairs<const R: usize>(
    acc: &mut [f64; R],
    weights: [&[f64]; R],
    terms: [&[f64]; R],
    skip: usize,
) {
    let n = terms.first().map_or(0, |t| t.len());
    for (lo, hi) in [(0, skip), (skip + 1, n)] {
        let weights = weights.map(|w| &w[lo..hi]);
        let terms = terms.map(|t| &t[lo..hi]);
        for j in 0..hi - lo {
            for r in 0..R {
                acc[r] += weights[r][j] * terms[r][j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{ParamValue, SearchSpace};
    use crate::surrogate::features::Feature;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn space_1d() -> SearchSpace {
        SearchSpace::builder().integer("x", 0, 20).build().unwrap()
    }

    fn cfg_x(s: &SearchSpace, x: i64) -> Configuration {
        s.configuration(&[("x", ParamValue::Int(x))]).unwrap()
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let s = space_1d();
        let configs: Vec<_> = [0, 3, 7, 12, 20].iter().map(|&x| cfg_x(&s, x)).collect();
        let y: Vec<f64> = configs
            .iter()
            .map(|c| (c.value("x").as_f64() / 5.0).sin())
            .collect();
        let inputs: Vec<ModelInput> = configs
            .iter()
            .map(|c| ModelInput::from_config(&s, c, true))
            .collect();
        let n = inputs.len();
        let mut d2 = vec![Matrix::zeros(n, n)];
        for i in 0..n {
            for j in 0..n {
                d2[0][(i, j)] = inputs[i].dim_dist2(&inputs[j], 0, PermMetric::Spearman);
            }
        }
        let ym = mean(&y);
        let ysd = std_dev(&y);
        let ys: Vec<f64> = y.iter().map(|v| (v - ym) / ysd).collect();
        let prior = GammaPrior::default();

        let cache = level_cache(&inputs);
        let nll = |t: &[f64]| nll_eager(t, cache.levels(), &ys, Some(&prior), true);
        let theta = vec![(0.4f64).ln(), (0.9f64).ln(), (1e-3f64).ln()];
        let (f0, g) = nll(&theta);
        assert!(f0.is_finite());
        let (rf, rg) = neg_log_posterior_reference(&theta, &d2, &ys, Some(&prior), true);
        assert_same_bits((f0, &g), (rf, &rg), "level-coded vs n×n tables");
        let h = 1e-6;
        for k in 0..theta.len() {
            let mut tp = theta.clone();
            tp[k] += h;
            let (fp, _) = nll(&tp);
            let mut tm = theta.clone();
            tm[k] -= h;
            let (fm, _) = nll(&tm);
            let fd = (fp - fm) / (2.0 * h);
            assert!(
                (fd - g[k]).abs() < 1e-4 * (1.0 + fd.abs()),
                "grad[{k}]: analytic {} vs fd {fd}",
                g[k]
            );
        }
    }

    /// The level tables [`GpCache`] builds over `inputs`.
    fn level_cache(inputs: &[ModelInput]) -> GpCache {
        let mut cache = GpCache::new();
        cache.sync_distances(inputs, inputs[0].len(), PermMetric::Spearman, true);
        cache
    }

    /// One evaluation's value and, with `want_grad`, its gradient forced at
    /// once — what the optimizer's thunk computes when it is run.
    fn nll_eager(
        theta: &[f64],
        levels: &[LevelTable],
        ys: &[f64],
        prior: Option<&GammaPrior>,
        want_grad: bool,
    ) -> (f64, Vec<f64>) {
        let (v, state) = neg_log_posterior_impl(theta, levels, ys, prior, want_grad, None);
        if !want_grad {
            assert!(
                state.is_none(),
                "value-only evaluation kept a gradient state"
            );
            return (v, Vec::new());
        }
        (
            v,
            state.map_or_else(|| vec![0.0; theta.len()], NllState::gradient),
        )
    }

    /// The kernel build [`kernel_terms`] replaced, kept as a reference.
    fn kernel_matrix_reference(d2: &[Matrix], ls: &[f64], sigma: f64, noise: f64) -> Matrix {
        let n = d2.first().map_or(0, Matrix::rows);
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            k[(i, i)] = sigma + noise + BASE_JITTER;
            for j in (i + 1)..n {
                let mut s = 0.0;
                for (kk, m) in d2.iter().enumerate() {
                    s += m[(i, j)] / (ls[kk] * ls[kk]);
                }
                let dist = s.sqrt();
                let t = SQRT5 * dist;
                let v = sigma * (1.0 + t + 5.0 / 3.0 * dist * dist) * (-t).exp();
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
        }
        k
    }

    /// The negative log posterior before the batched `K⁻¹` and the reused
    /// kernel terms (per-column solves, an explicit `B` matrix, kernel
    /// pieces recomputed per pair), kept as the bitwise reference.
    fn neg_log_posterior_reference(
        theta: &[f64],
        d2: &[Matrix],
        ys: &[f64],
        prior: Option<&GammaPrior>,
        want_grad: bool,
    ) -> (f64, Vec<f64>) {
        let d = d2.len();
        let n = ys.len();
        let bad = |_: ()| (f64::INFINITY, vec![0.0; theta.len()]);
        if theta.iter().any(|t| !t.is_finite() || t.abs() > 40.0) {
            return bad(());
        }
        let ls: Vec<f64> = theta[..d].iter().map(|t| t.exp()).collect();
        let sigma = theta[d].exp();
        let noise = theta[d + 1].exp();

        let kmat = kernel_matrix_reference(d2, &ls, sigma, noise);
        let Ok(chol) = Cholesky::new_row_oriented(&kmat) else {
            return bad(());
        };
        let alpha = chol.solve(ys);
        let data_fit: f64 = dot(ys, &alpha);
        let mut nll = 0.5 * data_fit
            + 0.5 * chol.log_det()
            + 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();
        if let Some(p) = prior {
            for l in &ls {
                nll -= p.log_pdf(*l);
            }
        }
        if !want_grad {
            return (nll, Vec::new());
        }

        let mut kinv = Matrix::zeros(n, n);
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            let col = chol.solve(&e);
            for i in 0..n {
                kinv[(i, j)] = col[i];
            }
        }
        let mut b = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                b[(i, j)] = kinv[(i, j)] - alpha[i] * alpha[j];
            }
        }
        let mut grad = vec![0.0; d + 2];
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let mut s = 0.0;
                for (kk, m) in d2.iter().enumerate() {
                    s += m[(i, j)] / (ls[kk] * ls[kk]);
                }
                let dist = s.sqrt();
                let e = (-SQRT5 * dist).exp();
                let kval = sigma * (1.0 + SQRT5 * dist + 5.0 / 3.0 * dist * dist) * e;
                let c = 5.0 / 3.0 * sigma * (1.0 + SQRT5 * dist) * e;
                let bij = b[(i, j)];
                grad[d] += 0.5 * bij * kval;
                for (kk, m) in d2.iter().enumerate() {
                    let r2 = m[(i, j)] / (ls[kk] * ls[kk]);
                    grad[kk] += 0.5 * bij * c * r2;
                }
            }
        }
        for i in 0..n {
            grad[d] += 0.5 * b[(i, i)] * sigma;
            grad[d + 1] += 0.5 * b[(i, i)] * noise;
        }
        if let Some(p) = prior {
            for (kk, l) in ls.iter().enumerate() {
                grad[kk] -= p.dlog_pdf_dlogx(*l);
            }
        }
        (nll, grad)
    }

    /// Symmetric per-dimension `n × n` squared-distance tables over `n`
    /// random points with numeric and categorical features and some
    /// duplicated points (the reference layout), and the level tables
    /// [`GpCache`] builds over the same points.
    fn random_d2(n: usize, d: usize, rng: &mut StdRng) -> (Vec<Matrix>, GpCache) {
        let mut pts: Vec<Vec<f64>> = Vec::with_capacity(n);
        for i in 0..n {
            let p = if i > 1 && rng.gen_range(0.0..1.0) < 0.1 {
                pts[rng.gen_range(0..i)].clone()
            } else {
                (0..d)
                    .map(|k| {
                        if k % 3 == 2 {
                            rng.gen_range(0..3) as f64
                        } else {
                            rng.gen_range(0.0..1.0)
                        }
                    })
                    .collect()
            };
            pts.push(p);
        }
        let d2 = (0..d)
            .map(|k| {
                let mut m = Matrix::zeros(n, n);
                for i in 0..n {
                    for j in 0..i {
                        let v = if k % 3 == 2 {
                            f64::from(u8::from(pts[i][k] != pts[j][k]))
                        } else {
                            (pts[i][k] - pts[j][k]) * (pts[i][k] - pts[j][k])
                        };
                        m[(i, j)] = v;
                        m[(j, i)] = v;
                    }
                }
                m
            })
            .collect();
        let inputs: Vec<ModelInput> = pts
            .iter()
            .map(|p| ModelInput {
                feats: p
                    .iter()
                    .enumerate()
                    .map(|(k, &v)| {
                        if k % 3 == 2 {
                            Feature::Cat(v as u32)
                        } else {
                            Feature::Num(v)
                        }
                    })
                    .collect(),
            })
            .collect();
        let mut cache = GpCache::new();
        cache.sync_distances(&inputs, d, PermMetric::Spearman, true);
        (d2, cache)
    }

    fn assert_same_bits(a: (f64, &[f64]), b: (f64, &[f64]), what: &str) {
        assert_eq!(
            a.0.to_bits(),
            b.0.to_bits(),
            "value {} vs {}: {what}",
            a.0,
            b.0
        );
        assert_eq!(a.1.len(), b.1.len(), "{what}");
        for (k, (x, y)) in a.1.iter().zip(b.1).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "grad[{k}] {x} vs {y}: {what}");
        }
    }

    #[test]
    fn nll_and_gradient_match_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(77);
        let prior = GammaPrior::default();
        let mut failed_factorizations = 0;
        let mut finite = 0;
        for (n, d) in [
            (1, 1),
            (2, 2),
            (5, 1),
            (9, 3),
            (17, 4),
            (33, 10),
            (70, 6),
            (120, 10),
        ] {
            let (d2, cache) = random_d2(n, d, &mut rng);
            let levels = cache.levels();
            let ys: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let mut states = Vec::new();
            for trial in 0..12 {
                let mut theta: Vec<f64> = (0..d).map(|_| rng.gen_range(-3.0..1.2)).collect();
                theta.push(rng.gen_range(-1.6..0.7));
                theta.push(rng.gen_range(-14.0..-4.0));
                match trial {
                    // Outside the trusted box, and non-finite.
                    0 => theta[rng.gen_range(0..d + 2)] = 40.5,
                    1 => theta[0] = f64::NAN,
                    2 => theta[d] = f64::NEG_INFINITY,
                    // A huge amplitude swamps the jitter: duplicated or very
                    // close points make the kernel numerically singular.
                    3 | 4 => {
                        theta[d] = 40.0;
                        theta[d + 1] = -40.0;
                    }
                    _ => {}
                }
                let p = (trial % 2 == 0).then_some(&prior);
                for want_grad in [false, true] {
                    let (v, g) = nll_eager(&theta, levels, &ys, p, want_grad);
                    let (rv, rg) = neg_log_posterior_reference(&theta, &d2, &ys, p, want_grad);
                    let what = format!("n={n} d={d} trial {trial} grad={want_grad} θ={theta:?}");
                    if want_grad {
                        assert_same_bits((v, &g), (rv, &rg), &what);
                    } else {
                        assert_eq!(v.to_bits(), rv.to_bits(), "value {v} vs {rv}: {what}");
                    }
                    if want_grad && trial >= 3 {
                        if v.is_finite() {
                            finite += 1;
                        } else {
                            failed_factorizations += 1;
                        }
                    }
                }
                // The value step alone, its gradient deferred (below).
                let (v, state) = neg_log_posterior_impl(&theta, levels, &ys, p, true, None);
                assert!(state.is_some() || v == f64::INFINITY, "trial {trial}");
                states.push((theta, p, v, state));
            }
            // Finishing the held states later, in reverse order, gives the
            // reference's numbers: each state owns everything its gradient
            // reads.
            for (theta, p, v, state) in states.into_iter().rev() {
                let g = state.map_or_else(|| vec![0.0; theta.len()], NllState::gradient);
                let (rv, rg) = neg_log_posterior_reference(&theta, &d2, &ys, p, true);
                let what = format!("deferred n={n} d={d} θ={theta:?}");
                assert_same_bits((v, &g), (rv, &rg), &what);
            }
        }
        assert!(
            failed_factorizations > 0,
            "no failed-factorization case exercised"
        );
        assert!(finite > 50, "too few finite evaluations: {finite}");
    }

    /// Sizes at which the plain kernel bodies are compared with the
    /// dispatched entry points.
    const PATH_SIZES: [usize; 8] = [0, 1, 15, 16, 17, 33, 65, 120];

    #[test]
    fn gradient_paths_agree_bitwise() {
        let mut rng = StdRng::seed_from_u64(80);
        let prior = GammaPrior::default();
        let mut compared = 0;
        for n in PATH_SIZES {
            for d in [1, 5, 6, 11] {
                let (_, cache) = random_d2(n, d, &mut rng);
                let levels = cache.levels();
                let ys: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
                for trial in 0..2 {
                    let mut theta: Vec<f64> = (0..d).map(|_| rng.gen_range(-3.0..1.2)).collect();
                    theta.push(rng.gen_range(-1.6..0.7));
                    theta.push(rng.gen_range(-14.0..-4.0));
                    let p = (trial == 0).then_some(&prior);
                    let state = || neg_log_posterior_impl(&theta, levels, &ys, p, true, None).1;
                    let (Some(a), Some(b)) = (state(), state()) else {
                        continue;
                    };
                    let kinv = b.chol.inverse();
                    let what = format!(
                        "n={n} d={d} θ={theta:?} ({} copy)",
                        crate::linalg::kernel_isa()
                    );
                    assert_same_bits((0.0, &a.gradient()), (0.0, &b.gradient_body(&kinv)), &what);
                    compared += 1;
                }
            }
        }
        assert!(compared > 40, "too few gradients compared: {compared}");
    }

    #[test]
    fn quotient_rows_are_stored_only_for_shared_levels() {
        // A real dimension whose points all differ, one whose values are
        // each held twice, and a categorical one with three values.
        let n = 40;
        let inputs: Vec<ModelInput> = (0..n)
            .map(|i| ModelInput {
                feats: vec![
                    Feature::Num(i as f64 / n as f64),
                    Feature::Num((i / 2) as f64),
                    Feature::Cat((i % 3) as u32),
                ],
            })
            .collect();
        let cache = level_cache(&inputs);
        let scaled = ScaledRows::new(cache.levels(), &[0.5, 1.5, 0.7]);
        let stored: Vec<usize> = scaled.rows.iter().map(|r| r.len() / n).collect();
        assert_eq!(stored, [0, n / 2, 3]);
    }

    #[test]
    fn value_only_nll_matches_gradient_path() {
        let s = space_1d();
        let configs: Vec<_> = [0, 4, 9, 15, 20].iter().map(|&x| cfg_x(&s, x)).collect();
        let inputs: Vec<ModelInput> = configs
            .iter()
            .map(|c| ModelInput::from_config(&s, c, true))
            .collect();
        let n = inputs.len();
        let mut d2 = vec![Matrix::zeros(n, n)];
        for i in 0..n {
            for j in 0..n {
                d2[0][(i, j)] = inputs[i].dim_dist2(&inputs[j], 0, PermMetric::Spearman);
            }
        }
        let cache = level_cache(&inputs);
        let levels = cache.levels();
        let ys = vec![-1.2, -0.3, 0.4, 0.6, 0.5];
        let prior = GammaPrior::default();
        let thetas = [
            vec![(0.7f64).ln(), (1.1f64).ln(), (2e-3f64).ln()],
            vec![(0.3f64).ln(), (0.6f64).ln(), (1e-4f64).ln()],
            vec![(1.9f64).ln(), (1.4f64).ln(), (5e-3f64).ln()],
        ];
        // The value step does the same work with or without a gradient to
        // come: equal values, and the memo (the fit's reused factorization)
        // ends up bit-identical whether or not any gradient was forced.
        let memo_value = RefCell::new(None);
        let memo_grad = RefCell::new(None);
        for (k, theta) in thetas.iter().enumerate() {
            let (v_only, none) =
                neg_log_posterior_impl(theta, levels, &ys, Some(&prior), false, Some(&memo_value));
            let (v_grad, state) =
                neg_log_posterior_impl(theta, levels, &ys, Some(&prior), true, Some(&memo_grad));
            assert_eq!(v_grad.to_bits(), v_only.to_bits());
            assert!(none.is_none());
            let state = state.expect("finite evaluation keeps its gradient state");
            if k == 1 {
                // Forced for one θ, dropped for the others.
                let g = state.gradient();
                let (rv, rg) = neg_log_posterior_reference(theta, &d2, &ys, Some(&prior), true);
                assert_same_bits((v_grad, &g), (rv, &rg), "forced state");
            }
        }
        let (a, b) = (
            memo_value.into_inner().unwrap(),
            memo_grad.into_inner().unwrap(),
        );
        assert_eq!(a.value.to_bits(), b.value.to_bits());
        assert_eq!(a.theta, b.theta);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for i in 0..n {
            assert_eq!(bits(a.chol.factor().row(i)), bits(b.chol.factor().row(i)));
        }
        assert_eq!(bits(&a.alpha), bits(&b.alpha));
    }

    #[test]
    fn interpolates_training_data_with_low_noise() {
        let s = space_1d();
        let configs: Vec<_> = (0..=20).step_by(2).map(|x| cfg_x(&s, x)).collect();
        let y: Vec<f64> = configs
            .iter()
            .map(|c| {
                let x = c.value("x").as_f64();
                (x - 10.0) * (x - 10.0) / 20.0
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(2);
        let gp = GaussianProcess::fit(&s, &configs, &y, &GpOptions::default(), &mut rng).unwrap();
        for (c, yi) in configs.iter().zip(&y) {
            let (m, v) = gp.predict(c);
            assert!((m - yi).abs() < 0.35, "mean {m} vs {yi}");
            assert!(v >= 0.0);
        }
        // Prediction between points should also be sane (smooth function).
        let (m, _) = gp.predict(&cfg_x(&s, 9));
        assert!((m - 0.05).abs() < 1.0, "interpolated mean {m}");
    }

    #[test]
    fn variance_grows_away_from_data() {
        let s = SearchSpace::builder().integer("x", 0, 100).build().unwrap();
        let configs: Vec<_> = [0i64, 2, 4, 6, 8, 10]
            .iter()
            .map(|&x| s.configuration(&[("x", ParamValue::Int(x))]).unwrap())
            .collect();
        let y = vec![1.0, 1.1, 0.9, 1.05, 0.95, 1.0];
        let mut rng = StdRng::seed_from_u64(3);
        let gp = GaussianProcess::fit(&s, &configs, &y, &GpOptions::default(), &mut rng).unwrap();
        let (_, v_near) = gp.predict(&s.configuration(&[("x", ParamValue::Int(5))]).unwrap());
        let (_, v_far) = gp.predict(&s.configuration(&[("x", ParamValue::Int(90))]).unwrap());
        assert!(v_far > v_near, "far {v_far} vs near {v_near}");
    }

    #[test]
    fn handles_single_point_and_constant_outputs() {
        let s = space_1d();
        let mut rng = StdRng::seed_from_u64(4);
        let one = vec![cfg_x(&s, 5)];
        let gp = GaussianProcess::fit(&s, &one, &[3.0], &GpOptions::default(), &mut rng).unwrap();
        let (m, v) = gp.predict(&cfg_x(&s, 5));
        assert!((m - 3.0).abs() < 0.5);
        assert!(v >= 0.0);

        let configs: Vec<_> = (0..5).map(|x| cfg_x(&s, x * 4)).collect();
        let gp =
            GaussianProcess::fit(&s, &configs, &[2.0; 5], &GpOptions::default(), &mut rng).unwrap();
        let (m, _) = gp.predict(&cfg_x(&s, 3));
        assert!((m - 2.0).abs() < 0.5, "constant mean {m}");
    }

    #[test]
    fn duplicate_points_do_not_crash() {
        let s = space_1d();
        let mut rng = StdRng::seed_from_u64(5);
        let configs = vec![cfg_x(&s, 5), cfg_x(&s, 5), cfg_x(&s, 9)];
        let y = vec![1.0, 1.2, 2.0];
        let gp = GaussianProcess::fit(&s, &configs, &y, &GpOptions::default(), &mut rng).unwrap();
        let (m, _) = gp.predict(&cfg_x(&s, 5));
        assert!((m - 1.1).abs() < 0.4, "noisy duplicate mean {m}");
    }

    #[test]
    fn empty_fit_is_error() {
        let s = space_1d();
        let mut rng = StdRng::seed_from_u64(6);
        assert!(GaussianProcess::fit(&s, &[], &[], &GpOptions::default(), &mut rng).is_err());
    }

    #[test]
    fn mixed_space_with_permutation_fits() {
        let s = SearchSpace::builder()
            .ordinal_log("tile", vec![1.0, 2.0, 4.0, 8.0])
            .categorical("m", vec!["a", "b"])
            .permutation("p", 3)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut configs = Vec::new();
        let mut y = Vec::new();
        for i in 0..12 {
            let cfg = s.sample_dense(&mut rng);
            // Synthetic objective touching every type.
            let t = cfg.value("tile").as_f64().log2();
            let c = if cfg.value("m").as_str() == "a" {
                0.0
            } else {
                1.0
            };
            let p0 = cfg.value("p").as_permutation()[0] as f64;
            y.push(t + c + 0.5 * p0 + (i as f64) * 0.01);
            configs.push(cfg);
        }
        let gp = GaussianProcess::fit(&s, &configs, &y, &GpOptions::default(), &mut rng).unwrap();
        assert_eq!(gp.lengthscales().len(), 3);
        let (m, v) = gp.predict(&configs[0]);
        assert!(m.is_finite() && v.is_finite() && v >= 0.0);
    }

    #[test]
    fn matern_kernel_basics() {
        assert!((matern52(0.0, 2.0) - 2.0).abs() < 1e-12);
        assert!(matern52(1.0, 1.0) < 1.0);
        assert!(matern52(5.0, 1.0) < matern52(1.0, 1.0));
        assert!(matern52(50.0, 1.0) >= 0.0);
    }

    #[test]
    fn batch_matches_scalar_prediction() {
        let s = SearchSpace::builder()
            .ordinal_log("tile", vec![1.0, 2.0, 4.0, 8.0, 16.0])
            .integer("unroll", 1, 8)
            .categorical("par", vec!["seq", "par"])
            .permutation("ord", 3)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let configs: Vec<_> = (0..40).map(|_| s.sample_dense(&mut rng)).collect();
        let y: Vec<f64> = configs
            .iter()
            .map(|c| c.value("tile").as_f64().log2() + 0.3 * c.value("unroll").as_f64())
            .collect();
        let gp = GaussianProcess::fit(&s, &configs, &y, &GpOptions::default(), &mut rng).unwrap();
        let probes: Vec<_> = (0..150).map(|_| s.sample_dense(&mut rng)).collect();
        let batch = gp.predict_batch_configs(&probes);
        assert_eq!(batch.len(), probes.len());
        for (p, (bm, bv)) in probes.iter().zip(&batch) {
            let (sm, sv) = gp.predict(p);
            // The means are bit-identical (see `predict_batch_configs`).
            assert_eq!(sm.to_bits(), bm.to_bits(), "mean {sm} vs {bm}");
            assert!(
                (sv - bv).abs() <= 1e-10 * (1.0 + sv.abs()),
                "var {sv} vs {bv}"
            );
        }
    }

    #[test]
    fn batch_results_independent_of_batch_size() {
        let s = space_1d();
        let configs: Vec<_> = (0..=20).step_by(3).map(|x| cfg_x(&s, x)).collect();
        let y: Vec<f64> = configs
            .iter()
            .map(|c| c.value("x").as_f64().sin())
            .collect();
        let mut rng = StdRng::seed_from_u64(12);
        let gp = GaussianProcess::fit(&s, &configs, &y, &GpOptions::default(), &mut rng).unwrap();
        let probes: Vec<_> = (0..=20).map(|x| cfg_x(&s, x)).collect();
        let whole = gp.predict_batch_configs(&probes);
        // Singletons and odd block splits must give bit-identical results.
        for (i, p) in probes.iter().enumerate() {
            let single = gp.predict_batch_configs(std::slice::from_ref(p));
            assert_eq!(single[0].0.to_bits(), whole[i].0.to_bits());
            assert_eq!(single[0].1.to_bits(), whole[i].1.to_bits());
        }
    }

    #[test]
    fn cached_fit_matches_fresh_fit() {
        let s = space_1d();
        let opts = GpOptions::default();
        let all: Vec<_> = (0..=20).step_by(2).map(|x| cfg_x(&s, x)).collect();
        let y: Vec<f64> = all
            .iter()
            .map(|c| (c.value("x").as_f64() / 3.0).cos())
            .collect();

        let mut cache = GpCache::new();
        for n in 3..=all.len() {
            let mut rng_a = StdRng::seed_from_u64(100 + n as u64);
            let mut rng_b = rng_a.clone();
            let cached = GaussianProcess::fit_with_cache(
                &s,
                &all[..n],
                &y[..n],
                &opts,
                &mut rng_a,
                &mut cache,
            )
            .unwrap();
            let fresh = GaussianProcess::fit(&s, &all[..n], &y[..n], &opts, &mut rng_b).unwrap();
            assert_eq!(rng_a, rng_b, "cached fit must consume the same RNG stream");
            for (a, b) in cached.lengthscales().iter().zip(fresh.lengthscales()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(
                cached.outputscale().to_bits(),
                fresh.outputscale().to_bits()
            );
            assert_eq!(cached.noise().to_bits(), fresh.noise().to_bits());
            let probe = cfg_x(&s, 7);
            let (ma, va) = cached.predict(&probe);
            let (mb, vb) = fresh.predict(&probe);
            assert_eq!(ma.to_bits(), mb.to_bits());
            assert_eq!(va.to_bits(), vb.to_bits());
        }
    }

    /// A prior mean m(x) = x for the residual-fit equivalence tests.
    #[derive(Debug)]
    struct XMean;

    impl crate::surrogate::mean::MeanFn for XMean {
        fn mean(&self, _space: &SearchSpace, cfg: &Configuration) -> f64 {
            cfg.value("x").as_f64()
        }
    }

    /// The residual-fit contract: fitting (y, mean m) must be the same model
    /// as fitting the residuals y − m(x) with a zero mean, shifted back by
    /// m(x) at prediction time — hyperparameters, posteriors and fantasy
    /// conditioning all bitwise.
    #[test]
    fn mean_fn_fit_is_zero_mean_fit_on_residuals() {
        let s = space_1d();
        let configs: Vec<_> = (0..=20).step_by(2).map(|x| cfg_x(&s, x)).collect();
        let y: Vec<f64> = configs
            .iter()
            .map(|c| {
                let x = c.value("x").as_f64();
                x + (x / 4.0).sin()
            })
            .collect();
        let resid: Vec<f64> = configs
            .iter()
            .zip(&y)
            .map(|(c, v)| v - c.value("x").as_f64())
            .collect();

        let with_mean = GpOptions {
            mean_fn: Some(Arc::new(XMean)),
            ..GpOptions::default()
        };
        let mut rng_a = StdRng::seed_from_u64(21);
        let mut rng_b = rng_a.clone();
        let a = GaussianProcess::fit(&s, &configs, &y, &with_mean, &mut rng_a).unwrap();
        let b =
            GaussianProcess::fit(&s, &configs, &resid, &GpOptions::default(), &mut rng_b).unwrap();
        assert_eq!(rng_a, rng_b, "mean-fn fit must consume the same RNG stream");
        for (la, lb) in a.lengthscales().iter().zip(b.lengthscales()) {
            assert_eq!(la.to_bits(), lb.to_bits());
        }
        assert_eq!(a.outputscale().to_bits(), b.outputscale().to_bits());
        assert_eq!(a.noise().to_bits(), b.noise().to_bits());

        let probes: Vec<_> = (0..=20).map(|x| cfg_x(&s, x)).collect();
        let batch_a = a.predict_batch_configs(&probes);
        let batch_b = b.predict_batch_configs(&probes);
        for (p, ((ma, va), (mb, vb))) in probes.iter().zip(batch_a.iter().zip(&batch_b)) {
            let offset = p.value("x").as_f64();
            assert_eq!(ma.to_bits(), (mb + offset).to_bits(), "batch mean at {p}");
            assert_eq!(va.to_bits(), vb.to_bits(), "variance is mean-free at {p}");
            // Scalar path agrees with the batch path's offset handling, and
            // its mean is the batch mean bit for bit.
            let (sa, _) = a.predict(p);
            let (sb, _) = b.predict(p);
            assert_eq!(sa.to_bits(), (sb + offset).to_bits(), "scalar mean at {p}");
            assert_eq!(sa.to_bits(), ma.to_bits(), "scalar vs batch mean at {p}");
        }

        // Fantasy anchors are residuals too: conditioning the mean-fn model
        // on a raw target equals conditioning the residual model on the
        // residual.
        let anchor = cfg_x(&s, 7);
        let y_anchor = 7.0 + (7.0f64 / 4.0).sin();
        let fa = a.condition_on(&anchor, y_anchor).unwrap();
        let fb = b.condition_on(&anchor, y_anchor - 7.0).unwrap();
        let probe = cfg_x(&s, 9);
        let (fma, fva) = fa.predict(&probe);
        let (fmb, fvb) = fb.predict(&probe);
        assert_eq!(fma.to_bits(), (fmb + 9.0).to_bits());
        assert_eq!(fva.to_bits(), fvb.to_bits());
    }
}
