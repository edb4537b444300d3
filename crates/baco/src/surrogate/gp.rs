//! The Gaussian-process surrogate of Sec. 3.2: a 5/2-Matérn kernel over the
//! weighted per-parameter distance vector, with lengthscale gamma priors and
//! MAP hyperparameter fitting by multistart L-BFGS.
//!
//! This module is the tuner's hot path and is engineered accordingly:
//!
//! * **Batched posterior** — [`GaussianProcess::predict_batch`] scores whole
//!   candidate batches through one blocked multi-right-hand-side triangular
//!   solve with reusable scratch buffers, instead of a per-candidate `O(n²)`
//!   solve plus allocations.
//! * **Cheap multistart** — raw hyperparameter draws are ranked with a
//!   value-only negative log posterior (the gradient is discarded during
//!   ranking), draws and L-BFGS refinements run across threads, and the
//!   factorization computed by the best objective evaluation is memoized so
//!   [`GaussianProcess::fit`] never refactorizes the kernel at the chosen
//!   hyperparameters.
//! * **Exact batched gradient** — the gradient needs the explicit `K⁻¹`,
//!   which costs ≈ `n³` multiply–adds (`2n³/3` once the structural zeros of
//!   `L⁻¹` are skipped) against `n³/6` for the factorization, so `K⁻¹`, not
//!   the factorization, dominates a gradient evaluation.
//!   `Cholesky::inverse` forms it with one blocked sweep per triangle over
//!   all right-hand sides, bit-identical to per-column solves, and the
//!   gradient loop reuses the kernel build's Matérn terms instead of
//!   recomputing a `sqrt` and an `exp` per pair.
//! * **Incremental distance tables** — [`GaussianProcess::fit_with_cache`]
//!   reuses the per-dimension squared-distance matrices across tuning
//!   iterations, extending them by one row/column per new observation. The
//!   hyperparameters are refitted by the full multistart every time, so a
//!   cached fit is bit-identical to a fresh one.
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

use super::cache::GpCache;
use super::features::{accumulate_scaled_dist2, DimView, ModelInput};
use super::mean::MeanFn;
use crate::linalg::{dot, mean, std_dev, Cholesky, Matrix};
use crate::opt::{multistart_minimize, LbfgsOptions};
use crate::space::{Configuration, PermMetric, SearchSpace};
use crate::{Error, Result};
use rand::Rng;
use std::sync::{Arc, Mutex};

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
        GammaPrior { alpha: 2.0, beta: 1.0 }
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
    /// Threads for the multistart ranking/refinement (`0` = auto). The fitted
    /// model is bit-identical for every thread count.
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
            threads: 0,
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
            threads: 0,
            mean_fn: None,
        }
    }
}

/// Reusable scratch buffers for [`GaussianProcess::predict_batch_into`].
///
/// [`GaussianProcess::predict_batch`] reuses one of these internally across
/// calls, so the acquisition scorer's steady state reallocates no kernel or
/// solve buffers; hold your own only when driving `predict_batch_into`
/// directly.
#[derive(Debug, Default)]
pub struct PredictScratch {
    ls2: Vec<f64>,
    kstar: Vec<f64>,
    solved: Vec<f64>,
    mean_acc: Vec<f64>,
    var_acc: Vec<f64>,
    /// Candidate-feature buffer for [`GaussianProcess::predict_batch_configs`]
    /// (outer `Vec` capacity reused across rounds).
    feats: Vec<ModelInput>,
}

/// Counts every capacity growth of a prediction workspace's cross-kernel
/// buffers (debug builds only). The budgeted tuner shares one workspace per
/// session via [`GpCache`], so after a warm-up round this must stop moving —
/// asserted by the zero-alloc steady-state test.
#[cfg(debug_assertions)]
static SCRATCH_GROWTHS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// (Debug builds only.) How many times any prediction workspace has had to
/// grow its `n × m` cross-kernel buffers since process start.
#[cfg(debug_assertions)]
pub fn scratch_growth_count() -> usize {
    SCRATCH_GROWTHS.load(std::sync::atomic::Ordering::Relaxed)
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
    /// built once per fit instead of once per `predict_batch` call.
    train_views: Vec<DimView>,
    /// Shared scratch so trait-object callers ([`super::ValueModel`]) reuse
    /// the batch buffers across calls; uncontended in practice. When fitted
    /// through a [`GpCache`] the `Arc` is the cache's, so the buffers also
    /// survive across *rounds* (and across refits) of a tuning session.
    scratch: Arc<Mutex<PredictScratch>>,
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

    /// Like [`GaussianProcess::fit`], but carrying the per-dimension
    /// squared-distance matrices forward in `cache` across tuning
    /// iterations: when the new `configs` extend the previous call's, only
    /// the new rows/columns are computed instead of the full `O(n²·d)`
    /// rebuild.
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
        // optimization): extend the cached matrices by the new rows/columns,
        // or rebuild from scratch if the history is not a prefix of the
        // current data (restarted tuner, changed options, …).
        cache.sync_distances(&inputs, d, opts.perm_metric, opts.input_transforms);
        let (lengthscales, outputscale, noise, chol, alpha) = Self::full_fit(&ys, opts, rng, cache)?;
        cache.clamp_to_budget();
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
            scratch: cache.shared_scratch(),
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
            // Fantasy models share the parent's workspace: same-round picks
            // and later rounds keep hitting already-sized buffers.
            scratch: Arc::clone(&self.scratch),
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
        let d2 = cache.d2();
        let d = d2.len();
        let prior = opts.lengthscale_prior;
        let best_eval: Mutex<Option<BestEval>> = Mutex::new(None);

        let value = |theta: &[f64]| -> f64 {
            neg_log_posterior_impl(theta, d2, ys, prior.as_ref(), false, Some(&best_eval)).0
        };
        let value_grad = |theta: &[f64]| -> (f64, Vec<f64>) {
            neg_log_posterior_impl(theta, d2, ys, prior.as_ref(), true, Some(&best_eval))
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
            opts.threads,
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
        let lengthscales: Vec<f64> = theta[..d].iter().map(|t| t.exp().clamp(1e-3, 1e3)).collect();
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
        let memo = best_eval
            .into_inner()
            .expect("NLL memo poisoned: a multistart worker panicked mid-update");
        let (chol, alpha) = match memo {
            Some(m) if clamps_free && m.theta == theta => (m.chol, m.alpha),
            _ => {
                let kmat = kernel_matrix(d2, &lengthscales, outputscale, noise);
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
    pub fn predict(&self, cfg: &Configuration) -> (f64, f64) {
        let x = ModelInput::from_config(&self.space, cfg, self.input_transforms);
        let (m, v) = self.predict_input(&x);
        match &self.mean_fn {
            Some(f) => (m + f.mean(&self.space, cfg), v),
            None => (m, v),
        }
    }

    /// Like [`GaussianProcess::predict`] but over a prepared [`ModelInput`]
    /// (avoids re-featurizing in hot loops).
    ///
    /// This is the *scalar* path: one `O(n²)` triangular solve and fresh
    /// allocations per call. Candidate scoring should go through
    /// [`GaussianProcess::predict_batch`] instead.
    ///
    /// **Residual space:** a [`ModelInput`] no longer carries the
    /// [`Configuration`] the prior mean is evaluated on, so this returns the
    /// posterior of the residual process (no `m(x)` offset). With the
    /// default zero mean that *is* the full posterior; with a non-zero
    /// [`GpOptions::mean_fn`] use the configuration-based entry points.
    pub fn predict_input(&self, x: &ModelInput) -> (f64, f64) {
        let kstar = self.cross_kernel_row(x);
        let mean_std = dot(&kstar, &self.alpha);
        let v = self.chol.solve(&kstar);
        let var_std = (self.outputscale - dot(&kstar, &v)).max(1e-12);
        (
            self.y_mean + self.y_std * mean_std,
            self.y_std * self.y_std * var_std,
        )
    }

    /// Posterior mean and latent variance for a whole batch of prepared
    /// inputs; equivalent to mapping [`GaussianProcess::predict_input`] but
    /// far faster (see module docs). Residual space, like
    /// [`GaussianProcess::predict_input`].
    pub fn predict_batch(&self, xs: &[ModelInput]) -> Vec<(f64, f64)> {
        let mut out = Vec::with_capacity(xs.len());
        match self.scratch.try_lock() {
            Ok(mut scratch) => self.predict_batch_into(xs, &mut scratch, &mut out),
            // Contended (parallel callers): fall back to a local scratch.
            Err(_) => self.predict_batch_into(xs, &mut PredictScratch::default(), &mut out),
        }
        out
    }

    /// Featurize-and-predict in one step, keeping the candidate-feature
    /// buffer in the shared scratch so its (outer) allocation is reused
    /// across calls and rounds. With the default zero mean this is
    /// bit-identical to `predict_batch(&featurize(cfgs))`; with a
    /// [`GpOptions::mean_fn`] set, each candidate's prior mean is added to
    /// its posterior mean (this is the full-posterior batch entry point —
    /// [`super::ValueModel`] routes through it).
    pub fn predict_batch_configs(&self, cfgs: &[Configuration]) -> Vec<(f64, f64)> {
        let mut out = Vec::with_capacity(cfgs.len());
        match self.scratch.try_lock() {
            Ok(mut scratch) => {
                let mut feats = std::mem::take(&mut scratch.feats);
                #[cfg(debug_assertions)]
                if feats.capacity() < cfgs.len() {
                    SCRATCH_GROWTHS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                feats.clear();
                feats.extend(
                    cfgs.iter()
                        .map(|c| ModelInput::from_config(&self.space, c, self.input_transforms)),
                );
                self.predict_batch_into(&feats, &mut scratch, &mut out);
                scratch.feats = feats;
            }
            Err(_) => {
                let feats = self.featurize(cfgs);
                self.predict_batch_into(&feats, &mut PredictScratch::default(), &mut out);
            }
        }
        if let Some(m) = &self.mean_fn {
            for (cfg, entry) in cfgs.iter().zip(out.iter_mut()) {
                entry.0 += m.mean(&self.space, cfg);
            }
        }
        out
    }

    /// Allocation-free core of [`GaussianProcess::predict_batch`]: results
    /// are appended to `out` (cleared first); `scratch` is reused across
    /// calls. Residual space — no prior-mean offset (see
    /// [`GaussianProcess::predict_input`]); callers with configurations in
    /// hand use [`GaussianProcess::predict_batch_configs`].
    ///
    /// The cross-kernel is built as an `n × m` block and all `m` triangular
    /// systems are forward-substituted together (`var = σ − ‖L⁻¹k*‖²`, so
    /// only the lower solve is needed), giving a unit-stride inner loop over
    /// candidates that vectorizes — unlike the scalar path's per-candidate
    /// dependent dot-product chains.
    pub fn predict_batch_into(
        &self,
        xs: &[ModelInput],
        scratch: &mut PredictScratch,
        out: &mut Vec<(f64, f64)>,
    ) {
        out.clear();
        let n = self.inputs.len();
        let l = self.chol.factor();

        // Same per-dimension divisors as the scalar path (ℓ·ℓ, divided, not
        // multiplied by a reciprocal): the cross-kernel — and therefore the
        // posterior mean — is bit-identical to `predict_input`'s.
        scratch.ls2.clear();
        scratch.ls2.extend(self.lengthscales.iter().map(|l| l * l));

        for block in xs.chunks(PREDICT_BLOCK) {
            let m = block.len();
            #[cfg(debug_assertions)]
            if scratch.kstar.capacity() < n * m || scratch.solved.capacity() < n * m {
                SCRATCH_GROWTHS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            scratch.kstar.clear();
            scratch.kstar.resize(n * m, 0.0);
            scratch.solved.clear();
            scratch.solved.resize(n * m, 0.0);

            // Cross-kernel block K* (train-major, candidate-minor layout):
            // accumulate the lengthscale-weighted squared distance one
            // dimension at a time, then map through the Matérn kernel.
            for (k, train_view) in self.train_views.iter().enumerate() {
                let cand_view = ModelInput::dim_view(block, k);
                accumulate_scaled_dist2(
                    train_view,
                    &cand_view,
                    self.perm_metric,
                    scratch.ls2[k],
                    &mut scratch.kstar,
                );
            }
            for v in scratch.kstar.iter_mut() {
                *v = matern52(v.sqrt(), self.outputscale);
            }

            // Blocked forward substitution: solve L · Y = K* for all m
            // candidates at once. The inner loops run over the candidate
            // index with unit stride.
            for i in 0..n {
                let li = l.row(i);
                let (done, rest) = scratch.solved.split_at_mut(i * m);
                let cur = &mut rest[..m];
                cur.copy_from_slice(&scratch.kstar[i * m..(i + 1) * m]);
                for (t, &c) in li.iter().enumerate().take(i) {
                    if c == 0.0 {
                        continue;
                    }
                    let yt = &done[t * m..(t + 1) * m];
                    for (cj, yj) in cur.iter_mut().zip(yt) {
                        *cj -= c * yj;
                    }
                }
                let diag = li[i];
                for cj in cur.iter_mut() {
                    *cj /= diag;
                }
            }

            // Reduce: mean = k*ᵀ α, variance = σ − ‖L⁻¹ k*‖².
            scratch.mean_acc.clear();
            scratch.mean_acc.resize(m, 0.0);
            scratch.var_acc.clear();
            scratch.var_acc.resize(m, 0.0);
            for i in 0..n {
                let a = self.alpha[i];
                let krow = &scratch.kstar[i * m..(i + 1) * m];
                let yrow = &scratch.solved[i * m..(i + 1) * m];
                for j in 0..m {
                    scratch.mean_acc[j] += a * krow[j];
                    scratch.var_acc[j] += yrow[j] * yrow[j];
                }
            }
            for j in 0..m {
                let mean_std = scratch.mean_acc[j];
                let var_std = (self.outputscale - scratch.var_acc[j]).max(1e-12);
                out.push((
                    self.y_mean + self.y_std * mean_std,
                    self.y_std * self.y_std * var_std,
                ));
            }
        }
    }

    /// Featurizes `cfgs` for this model (hot loops featurize once and then
    /// batch-predict).
    pub fn featurize(&self, cfgs: &[Configuration]) -> Vec<ModelInput> {
        cfgs.iter()
            .map(|c| ModelInput::from_config(&self.space, c, self.input_transforms))
            .collect()
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

fn kernel_matrix(d2: &[Matrix], ls: &[f64], sigma: f64, noise: f64) -> Matrix {
    kernel_terms(d2, ls, sigma, noise, false).0
}

/// The kernel matrix and, when `want_factor` is set, the symmetric matrix
/// of Matérn gradient factors `C_ij` (see [`matern52_terms`]; zero diagonal).
///
/// Row `i`'s scaled distances to the later points accumulate one dimension
/// at a time over a unit-stride row, so every `Σ_k d²_k/ℓ_k²` is still summed
/// in ascending `k` from `0.0`. Only the upper triangle of each `d2` table is
/// read; the tables are symmetric.
fn kernel_terms(
    d2: &[Matrix],
    ls: &[f64],
    sigma: f64,
    noise: f64,
    want_factor: bool,
) -> (Matrix, Option<Matrix>) {
    let n = d2.first().map_or(0, Matrix::rows);
    let ls2: Vec<f64> = ls.iter().map(|l| l * l).collect();
    let mut k = Matrix::zeros(n, n);
    let mut c = want_factor.then(|| Matrix::zeros(n, n));
    let mut dist2 = vec![0.0; n];
    for i in 0..n {
        k[(i, i)] = sigma + noise + BASE_JITTER;
        let s = &mut dist2[i + 1..];
        s.fill(0.0);
        for (m, &l2) in d2.iter().zip(&ls2) {
            for (acc, &v) in s.iter_mut().zip(&m.row(i)[i + 1..]) {
                *acc += v / l2;
            }
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

/// Negative log posterior (marginal likelihood + lengthscale priors) and its
/// gradient w.r.t. θ = [log ℓ…, log σ, log σε²].
///
/// Shared NLL implementation. With `want_grad == false` the explicit `K⁻¹`
/// (needed only by the gradient) is skipped — this is what makes multistart
/// ranking cheap: `Cholesky::inverse` costs about `n³` multiply–adds
/// (`2n³/3` after skipping the structural zeros of `L⁻¹`), against `n³/6`
/// for the factorization. When `memo` is given, the factorization computed
/// for the best value seen so far is kept for reuse by the final fit.
///
/// The `d2` tables must be symmetric (as [`GpCache`] builds them): the
/// gradient reads each pair's kernel terms from the one kernel build.
fn neg_log_posterior_impl(
    theta: &[f64],
    d2: &[Matrix],
    ys: &[f64],
    prior: Option<&GammaPrior>,
    want_grad: bool,
    memo: Option<&Mutex<Option<BestEval>>>,
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

    let (kmat, factors) = kernel_terms(d2, &ls, sigma, noise, want_grad);
    let Ok(chol) = Cholesky::new(&kmat) else {
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

    if let Some(memo) = memo {
        if nll.is_finite() {
            let mut slot = memo
                .lock()
                .expect("NLL memo poisoned: a multistart worker panicked mid-update");
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

    let Some(factors) = factors else {
        return (nll, Vec::new());
    };

    // ∂NLL/∂θ = ½ Σ_ij B_ij ∂K_ij/∂θ with B = K⁻¹ − α αᵀ, formed one row at
    // a time. Off the diagonal ∂k_ij/∂log σ = k_ij and ∂k_ij/∂log ℓ_k =
    // C_ij r²_k; both k_ij and C_ij come from the kernel build, so only
    // r²_k = d²_k/ℓ_k² is recomputed. Each grad entry is one chain of
    // `weight · term` additions over the ordered pairs in row-major order.
    let kinv = chol.inverse();
    let ls2: Vec<f64> = ls.iter().map(|l| l * l).collect();
    let mut grad = vec![0.0; d + 2];
    let mut r2 = vec![0.0; d * n];
    let mut half_b = vec![0.0; n];
    let mut weighted = vec![0.0; n];
    let zeros = vec![0.0; n];
    for i in 0..n {
        for ((m, &l2), row) in d2.iter().zip(&ls2).zip(r2.chunks_exact_mut(n)) {
            for (r, &v) in row.iter_mut().zip(m.row(i)) {
                *r = v / l2;
            }
        }
        let ai = alpha[i];
        let rows = kinv.row(i).iter().zip(&alpha).zip(factors.row(i));
        for ((hb, w), ((&kinv_ij, &aj), &cij)) in half_b.iter_mut().zip(&mut weighted).zip(rows) {
            *hb = 0.5 * (kinv_ij - ai * aj);
            *w = *hb * cij;
        }
        let mut acc = [grad[d]];
        accumulate_pairs(&mut acc, &half_b, [kmat.row(i)], i);
        grad[d] = acc[0];
        // The lengthscale chains share their weights and advance
        // GRAD_CHAINS at a time, padded with discarded all-zero chains.
        for k0 in (0..d).step_by(GRAD_CHAINS) {
            let live = |r: usize| k0 + r < d;
            let mut acc: [f64; GRAD_CHAINS] =
                std::array::from_fn(|r| if live(r) { grad[k0 + r] } else { 0.0 });
            let terms = std::array::from_fn(|r| {
                if live(r) {
                    &r2[(k0 + r) * n..(k0 + r + 1) * n]
                } else {
                    &zeros[..]
                }
            });
            accumulate_pairs(&mut acc, &weighted, terms, i);
            for (r, a) in acc.into_iter().enumerate().filter(|&(r, _)| live(r)) {
                grad[k0 + r] = a;
            }
        }
    }
    // Diagonal contributions: k_ii = σ (+ noise); ∂/∂logσ = σ, ∂/∂logσε² = σε².
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

    (nll, grad)
}

/// `acc[r] += weights[j] · terms[r][j]` for every `j ≠ skip`, one term at a
/// time in ascending `j`: `R` independent addition chains whose latencies
/// overlap. All rows have the same length.
#[inline(always)]
fn accumulate_pairs<const R: usize>(
    acc: &mut [f64; R],
    weights: &[f64],
    terms: [&[f64]; R],
    skip: usize,
) {
    let n = weights.len();
    for (lo, hi) in [(0, skip), (skip + 1, n)] {
        let terms = terms.map(|t| &t[lo..hi]);
        for (j, &w) in weights[lo..hi].iter().enumerate() {
            for r in 0..R {
                acc[r] += w * terms[r][j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{ParamValue, SearchSpace};
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

        let nll = |t: &[f64]| neg_log_posterior_impl(t, &d2, &ys, Some(&prior), true, None);
        let theta = vec![(0.4f64).ln(), (0.9f64).ln(), (1e-3f64).ln()];
        let (f0, g) = nll(&theta);
        assert!(f0.is_finite());
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

    /// Symmetric per-dimension squared-distance tables over `n` random points
    /// with numeric and categorical features and some duplicated points, as
    /// [`GpCache`] builds them.
    fn random_d2(n: usize, d: usize, rng: &mut StdRng) -> Vec<Matrix> {
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
        (0..d)
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
            .collect()
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
            let d2 = random_d2(n, d, &mut rng);
            let ys: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
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
                    let (v, g) = neg_log_posterior_impl(&theta, &d2, &ys, p, want_grad, None);
                    let (rv, rg) = neg_log_posterior_reference(&theta, &d2, &ys, p, want_grad);
                    let what = format!("n={n} d={d} trial {trial} grad={want_grad} θ={theta:?}");
                    assert_eq!(v.to_bits(), rv.to_bits(), "value {v} vs {rv}: {what}");
                    assert_eq!(g.len(), rg.len(), "{what}");
                    for (k, (a, b)) in g.iter().zip(&rg).enumerate() {
                        assert_eq!(a.to_bits(), b.to_bits(), "grad[{k}] {a} vs {b}: {what}");
                    }
                    if want_grad && trial >= 3 {
                        if v.is_finite() {
                            finite += 1;
                        } else {
                            failed_factorizations += 1;
                        }
                    }
                }
            }
        }
        assert!(
            failed_factorizations > 0,
            "no failed-factorization case exercised"
        );
        assert!(finite > 50, "too few finite evaluations: {finite}");
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
        let ys = vec![-1.2, -0.3, 0.4, 0.6, 0.5];
        let prior = GammaPrior::default();
        let theta = vec![(0.7f64).ln(), (1.1f64).ln(), (2e-3f64).ln()];
        let (v_grad, g) = neg_log_posterior_impl(&theta, &d2, &ys, Some(&prior), true, None);
        let (v_only, empty) = neg_log_posterior_impl(&theta, &d2, &ys, Some(&prior), false, None);
        assert_eq!(v_grad.to_bits(), v_only.to_bits());
        assert!(!g.is_empty() && empty.is_empty());
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
        let configs: Vec<_> = [0i64, 2, 4, 6, 8, 10].iter().map(|&x| {
            s.configuration(&[("x", ParamValue::Int(x))]).unwrap()
        }).collect();
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
            let c = if cfg.value("m").as_str() == "a" { 0.0 } else { 1.0 };
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
        let inputs = gp.featurize(&probes);
        let batch = gp.predict_batch(&inputs);
        assert_eq!(batch.len(), probes.len());
        for (x, (bm, bv)) in inputs.iter().zip(&batch) {
            let (sm, sv) = gp.predict_input(x);
            assert!((sm - bm).abs() <= 1e-12 * (1.0 + sm.abs()), "mean {sm} vs {bm}");
            assert!((sv - bv).abs() <= 1e-10 * (1.0 + sv.abs()), "var {sv} vs {bv}");
        }
    }

    #[test]
    fn batch_results_independent_of_batch_size() {
        let s = space_1d();
        let configs: Vec<_> = (0..=20).step_by(3).map(|x| cfg_x(&s, x)).collect();
        let y: Vec<f64> = configs.iter().map(|c| c.value("x").as_f64().sin()).collect();
        let mut rng = StdRng::seed_from_u64(12);
        let gp = GaussianProcess::fit(&s, &configs, &y, &GpOptions::default(), &mut rng).unwrap();
        let probes: Vec<_> = (0..=20).map(|x| cfg_x(&s, x)).collect();
        let inputs = gp.featurize(&probes);
        let whole = gp.predict_batch(&inputs);
        // Singletons and odd block splits must give bit-identical results.
        for (i, x) in inputs.iter().enumerate() {
            let single = gp.predict_batch(std::slice::from_ref(x));
            assert_eq!(single[0].0.to_bits(), whole[i].0.to_bits());
            assert_eq!(single[0].1.to_bits(), whole[i].1.to_bits());
        }
    }

    #[test]
    fn cached_fit_matches_fresh_fit() {
        let s = space_1d();
        let opts = GpOptions::default();
        let all: Vec<_> = (0..=20).step_by(2).map(|x| cfg_x(&s, x)).collect();
        let y: Vec<f64> = all.iter().map(|c| (c.value("x").as_f64() / 3.0).cos()).collect();

        let mut cache = GpCache::new();
        for n in 3..=all.len() {
            let mut rng_a = StdRng::seed_from_u64(100 + n as u64);
            let mut rng_b = rng_a.clone();
            let cached =
                GaussianProcess::fit_with_cache(&s, &all[..n], &y[..n], &opts, &mut rng_a, &mut cache)
                    .unwrap();
            let fresh = GaussianProcess::fit(&s, &all[..n], &y[..n], &opts, &mut rng_b).unwrap();
            assert_eq!(rng_a, rng_b, "cached fit must consume the same RNG stream");
            for (a, b) in cached.lengthscales().iter().zip(fresh.lengthscales()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(cached.outputscale().to_bits(), fresh.outputscale().to_bits());
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
        let b = GaussianProcess::fit(&s, &configs, &resid, &GpOptions::default(), &mut rng_b)
            .unwrap();
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
            // Scalar path agrees with the batch path's offset handling.
            let (sa, _) = a.predict(p);
            let (sb, _) = b.predict(p);
            assert_eq!(sa.to_bits(), (sb + offset).to_bits(), "scalar mean at {p}");
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
