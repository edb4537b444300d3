//! Predictive models: the Gaussian-process value surrogate (Sec. 3.2) and the
//! random-forest models used both as an alternative surrogate and as the
//! hidden-constraint feasibility classifier (Sec. 4.2).
//!
//! The GP is the tuner's hot path; see [`gp`] for the batched-posterior,
//! multistart-fit and fantasy-conditioning machinery, and [`cache`] for the
//! distance tables that refits carry across iterations.
//!
//! ```
//! use baco::space::{ParamValue, SearchSpace};
//! use baco::surrogate::{GaussianProcess, GpOptions};
//! use rand::SeedableRng;
//!
//! let space = SearchSpace::builder().integer("x", 0, 20).build()?;
//! let cfg = |x: i64| space.configuration(&[("x", ParamValue::Int(x))]).unwrap();
//! let configs: Vec<_> = (0..=20).step_by(4).map(cfg).collect();
//! let y: Vec<f64> = configs.iter().map(|c| c.value("x").as_f64() / 10.0).collect();
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let gp = GaussianProcess::fit(&space, &configs, &y, &GpOptions::default(), &mut rng)?;
//! let (mean, var) = gp.predict(&cfg(10));
//! assert!((mean - 1.0).abs() < 0.5 && var >= 0.0);
//! # Ok::<(), baco::Error>(())
//! ```

pub mod budget;
pub mod cache;
mod features;
pub mod gp;
pub mod mean;
pub mod rf;

pub use budget::{ActiveSet, TrustRegion};
pub use cache::GpCache;
pub use features::ModelInput;
pub use gp::{GaussianProcess, GpOptions, PredictScratch};
pub use mean::MeanFn;
pub use rf::{RandomForestClassifier, RandomForestRegressor, RfOptions};

use crate::space::{Configuration, SearchSpace};

/// A fitted value model: posterior mean and variance at a configuration.
///
/// Implemented by [`GaussianProcess`] and [`RandomForestRegressor`] so the
/// tuner can swap surrogates (the paper's Fig. 8 comparison).
pub trait ValueModel: std::fmt::Debug {
    /// Posterior mean and (latent, noise-free) variance at `cfg`.
    fn predict(&self, space: &SearchSpace, cfg: &Configuration) -> (f64, f64);

    /// Posterior mean and variance for a whole candidate batch.
    ///
    /// The default maps [`ValueModel::predict`]; models with a faster bulk
    /// path (the GP's blocked triangular solve) override it. Acquisition
    /// scoring always goes through this entry point, so a model only has to
    /// override one method to accelerate the whole search.
    fn predict_batch(&self, space: &SearchSpace, cfgs: &[Configuration]) -> Vec<(f64, f64)> {
        cfgs.iter().map(|c| self.predict(space, c)).collect()
    }
}

impl ValueModel for GaussianProcess {
    fn predict(&self, _space: &SearchSpace, cfg: &Configuration) -> (f64, f64) {
        self.predict(cfg)
    }

    fn predict_batch(&self, _space: &SearchSpace, cfgs: &[Configuration]) -> Vec<(f64, f64)> {
        self.predict_batch_configs(cfgs)
    }
}

impl ValueModel for RandomForestRegressor {
    fn predict(&self, space: &SearchSpace, cfg: &Configuration) -> (f64, f64) {
        self.predict_config(space, cfg)
    }
}
