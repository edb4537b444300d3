//! Predictive models: the Gaussian-process value surrogate (Sec. 3.2) and the
//! random-forest models used both as an alternative surrogate and as the
//! hidden-constraint feasibility classifier (Sec. 4.2).
//!
//! The GP is the tuner's hot path. It predicts through two entry points,
//! the scalar [`GaussianProcess::predict`] and the batched
//! [`GaussianProcess::predict_batch_configs`]; see [`gp`] for the
//! batched-posterior, multistart-fit and fantasy-conditioning machinery,
//! and [`cache`] for the distance tables, the only state refits carry
//! across iterations.
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
pub use gp::{GaussianProcess, GpOptions};
pub use mean::MeanFn;
pub use rf::{RandomForestClassifier, RandomForestRegressor, RfOptions};

use crate::space::{Configuration, SearchSpace};

/// A fitted value surrogate: posterior mean and (latent, noise-free)
/// variance at a configuration. An enum rather than a trait object because
/// the batched proposer needs the concrete [`GaussianProcess`] to condition
/// it on fantasy observations (the paper's Fig. 8 swaps the two models).
#[derive(Debug)]
pub(crate) enum FittedModel {
    /// Gaussian-process surrogate (boxed: far larger than the RF handle).
    Gp(Box<GaussianProcess>),
    /// Random-forest surrogate (cannot be fantasy-conditioned; batched
    /// proposals fall back to pure de-duplication).
    Rf(RandomForestRegressor),
}

impl FittedModel {
    /// Posterior mean and variance at `cfg`.
    pub(crate) fn predict(&self, space: &SearchSpace, cfg: &Configuration) -> (f64, f64) {
        match self {
            FittedModel::Gp(gp) => gp.predict(cfg),
            FittedModel::Rf(rf) => rf.predict_config(space, cfg),
        }
    }

    /// Posterior mean and variance for a whole candidate batch. Acquisition
    /// scoring always goes through this entry point: the GP answers it with
    /// one blocked triangular solve, the forest per candidate.
    pub(crate) fn predict_batch(
        &self,
        space: &SearchSpace,
        cfgs: &[Configuration],
    ) -> Vec<(f64, f64)> {
        match self {
            FittedModel::Gp(gp) => gp.predict_batch_configs(cfgs),
            FittedModel::Rf(rf) => cfgs.iter().map(|c| rf.predict_config(space, c)).collect(),
        }
    }
}
