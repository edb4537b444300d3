//! User priors over the optimum's location (the paper's Sec. 6: "a simple
//! adaptation of the BaCO acquisition function can benefit the same user
//! priors when available", after Souza et al.'s BOPrO).
//!
//! A prior is a nonnegative weight over configurations; the acquisition is
//! multiplied by the weight with a decaying exponent, so early iterations
//! trust the expert's hunch and later iterations trust the data.
//!
//! ```
//! use baco::acquisition::OptimumPrior;
//! use baco::space::{ParamValue, SearchSpace};
//!
//! let space = SearchSpace::builder().integer("x", 0, 15).build()?;
//! let prior = OptimumPrior::new(|c| {
//!     (-(c.value("x").as_f64() - 12.0).powi(2) / 8.0).exp()
//! });
//! let near = space.configuration(&[("x", ParamValue::Int(12))])?;
//! let far = space.configuration(&[("x", ParamValue::Int(0))])?;
//! // Early on, the same EI scores higher where the expert expects the optimum.
//! assert!(prior.apply(1.0, &near, 0) > prior.apply(1.0, &far, 0));
//! # Ok::<(), baco::Error>(())
//! ```

use crate::space::Configuration;
use std::fmt;
use std::sync::Arc;

type PriorFn = Arc<dyn Fn(&Configuration) -> f64 + Send + Sync>;

/// A user-supplied prior over promising configurations.
#[derive(Clone)]
pub struct OptimumPrior {
    f: PriorFn,
    /// Decay horizon: after this many model-guided iterations the prior's
    /// exponent has decayed to 1/e.
    decay: f64,
}

impl OptimumPrior {
    /// Wraps a weight function (values should be positive; they are floored
    /// at a small ε so the prior can never veto a configuration outright).
    pub fn new<F>(f: F) -> Self
    where
        F: Fn(&Configuration) -> f64 + Send + Sync + 'static,
    {
        OptimumPrior {
            f: Arc::new(f),
            decay: 20.0,
        }
    }

    /// Sets the decay horizon (default 20 iterations).
    pub fn with_decay(mut self, iterations: f64) -> Self {
        self.decay = iterations.max(1.0);
        self
    }

    /// The prior weight of `cfg`, floored at 1e-6.
    pub fn weight(&self, cfg: &Configuration) -> f64 {
        (self.f)(cfg).max(1e-6)
    }

    /// Multiplies an acquisition value by the decayed prior:
    /// `acq · w(cfg)^(decay/(decay+t))` where `t` is the number of
    /// model-guided iterations so far.
    pub fn apply(&self, acq: f64, cfg: &Configuration, iteration: usize) -> f64 {
        if !acq.is_finite() {
            return acq;
        }
        let beta = self.decay / (self.decay + iteration as f64);
        acq * self.weight(cfg).powf(beta)
    }
}

impl fmt::Debug for OptimumPrior {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OptimumPrior")
            .field("decay", &self.decay)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SearchSpace;

    fn space() -> SearchSpace {
        SearchSpace::builder().integer("x", 0, 9).build().unwrap()
    }

    #[test]
    fn prior_scales_acquisition_and_decays() {
        let s = space();
        let prior = OptimumPrior::new(|c| {
            if c.value("x").as_i64() >= 5 {
                4.0
            } else {
                0.25
            }
        })
        .with_decay(10.0);
        let hi = s
            .configuration(&[("x", crate::space::ParamValue::Int(7))])
            .unwrap();
        let lo = s
            .configuration(&[("x", crate::space::ParamValue::Int(2))])
            .unwrap();
        // Early: strong effect.
        let early_hi = prior.apply(1.0, &hi, 0);
        let early_lo = prior.apply(1.0, &lo, 0);
        assert!(early_hi > 2.0 && early_lo < 0.5);
        // Late: effect shrinks towards 1.
        let late_hi = prior.apply(1.0, &hi, 1000);
        assert!(late_hi < early_hi && late_hi > 1.0);
        // Ordering is always preserved.
        assert!(prior.apply(1.0, &hi, 50) > prior.apply(1.0, &lo, 50));
    }

    #[test]
    fn prior_never_vetoes() {
        let s = space();
        let prior = OptimumPrior::new(|_| 0.0);
        let c = s.default_configuration();
        assert!(prior.apply(1.0, &c, 0) > 0.0);
        assert_eq!(prior.apply(f64::NEG_INFINITY, &c, 0), f64::NEG_INFINITY);
    }
}
