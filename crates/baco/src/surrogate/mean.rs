//! Pluggable GP prior-mean functions.
//!
//! The Gaussian process fits the *residual* process `r(x) = y(x) − m(x)`
//! against a mean function `m` and adds `m(x)` back at prediction time, so a
//! good prior mean (e.g. one learned from archived tuning runs — see
//! [`crate::journal::corpus`] and `BacoOptions::transfer`) lets the surrogate
//! start informed instead of flat. [`ZeroMean`] recovers the classic
//! zero-mean GP: residuals equal the raw targets and every code path is
//! byte-identical to a stack with no mean function at all.
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
/// to the same value, and [`MeanFn::digest`] must change whenever the
/// function's predictions could, so two means with equal digests can be
/// treated as the same function.
pub trait MeanFn: Debug + Send + Sync {
    /// The prior mean at `cfg`, on the same (transformed) scale as the
    /// targets the GP is fitted on.
    fn mean(&self, space: &SearchSpace, cfg: &Configuration) -> f64;

    /// A stable fingerprint of this function's behavior. [`ZeroMean`] is
    /// pinned to `0`; any non-trivial mean must return something else.
    fn digest(&self) -> u64;
}

/// The zero mean: the GP models the targets directly. This is the default
/// and is bit-identical to the pre-`MeanFn` surrogate stack.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZeroMean;

/// The digest every zero-behaving mean reports ("no mean").
pub const ZERO_MEAN_DIGEST: u64 = 0;

impl MeanFn for ZeroMean {
    fn mean(&self, _space: &SearchSpace, _cfg: &Configuration) -> f64 {
        0.0
    }

    fn digest(&self) -> u64 {
        ZERO_MEAN_DIGEST
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::ParamValue;

    #[test]
    fn zero_mean_is_zero_everywhere_with_digest_zero() {
        let space = SearchSpace::builder().integer("x", 0, 7).build().unwrap();
        let cfg = space.configuration(&[("x", ParamValue::Int(3))]).unwrap();
        assert_eq!(ZeroMean.mean(&space, &cfg), 0.0);
        assert_eq!(ZeroMean.digest(), ZERO_MEAN_DIGEST);
    }
}
