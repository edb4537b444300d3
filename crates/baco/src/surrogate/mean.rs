//! Pluggable GP prior-mean functions.
//!
//! The Gaussian process fits the *residual* process `r(x) = y(x) − m(x)`
//! against a mean function `m` and adds `m(x)` back at prediction time, so a
//! good prior mean (e.g. one learned from archived tuning runs — see
//! [`crate::journal::corpus`] and `BacoOptions::transfer`) lets the surrogate
//! start informed instead of flat. No mean function
//! (`GpOptions::mean_fn: None`) is the classic zero-mean GP: residuals equal
//! the raw targets.
//!
//! Mean functions are evaluated on [`Configuration`]s (not featurized
//! [`ModelInput`](super::ModelInput)s) so implementations can use the full
//! typed parameter values; the `ModelInput`-based prediction entry points of
//! [`GaussianProcess`](super::GaussianProcess) therefore stay in residual
//! space (documented per method).

use crate::space::{Configuration, SearchSpace};
use std::fmt::Debug;

/// A prior mean `m(x)` for the GP surrogate.
///
/// Implementations must be deterministic: the same configuration always maps
/// to the same value.
pub trait MeanFn: Debug + Send + Sync {
    /// The prior mean at `cfg`, on the same (transformed) scale as the
    /// targets the GP is fitted on.
    fn mean(&self, space: &SearchSpace, cfg: &Configuration) -> f64;
}
