//! The reference autotuners of Sec. 5.1, reimplemented from their published
//! descriptions: ATF/OpenTuner (a bandit over local-search techniques with
//! known-constraint support), Ytopt (random-forest BO with penalty handling
//! of hidden-constraint failures), and the two random-sampling baselines.
//!
//! Every baseline implements the same [`Tuner`] trait, so the experiment
//! harness sweeps them uniformly against any [`BlackBox`]:
//!
//! ```
//! use baco::baselines::{Tuner, UniformSampler};
//! use baco::prelude::*;
//!
//! let space = SearchSpace::builder().integer("x", 0, 31).build()?;
//! let bb = FnBlackBox::new(|c: &Configuration| {
//!     Evaluation::feasible(c.value("x").as_f64() + 1.0)
//! });
//! let mut uniform = UniformSampler::new(&space, 16, 7)?;
//! let report = uniform.run(&bb)?;
//! assert_eq!(report.len(), 16);
//! assert!(report.best_value().unwrap() >= 1.0);
//! # Ok::<(), baco::Error>(())
//! ```

mod atf;
mod ytopt;

pub use atf::{AtfOptions, AtfTuner};
pub use ytopt::{YtoptOptions, YtoptSurrogate, YtoptTuner};

use crate::search::FeasibleSampler;
use crate::space::{Configuration, SearchSpace};
use crate::tuner::{Baco, BlackBox, Trial, TuningReport};
use crate::Result;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// A uniform interface over BaCO and every baseline, so the experiment
/// harness can sweep them interchangeably.
pub trait Tuner {
    /// Display name used in tables and figures.
    fn name(&self) -> &str;

    /// Runs the tuner's full budget against `bb`.
    ///
    /// # Errors
    /// Model-fitting or constraint-handling failures, depending on the tuner.
    fn run(&mut self, bb: &dyn BlackBox) -> Result<TuningReport>;
}

impl Tuner for Baco {
    fn name(&self) -> &str {
        "BaCO"
    }

    fn run(&mut self, bb: &dyn BlackBox) -> Result<TuningReport> {
        Baco::run(self, bb)
    }
}

pub(crate) fn timed_trial(bb: &dyn BlackBox, cfg: Configuration, tuner_time: Duration) -> Trial {
    let t0 = Instant::now();
    let eval = bb.evaluate(&cfg);
    Trial {
        config: cfg,
        value: eval.value(),
        extra: eval.extra_objectives(),
        feasible: eval.is_feasible(),
        eval_time: t0.elapsed(),
        tuner_time,
    }
}

/// Uniform random sampling over the *feasible* set (bias-free): the
/// `Uniform Sampling` baseline of Sec. 5.1.
#[derive(Debug)]
pub struct UniformSampler {
    sampler: FeasibleSampler,
    budget: usize,
    seed: u64,
}

impl UniformSampler {
    /// Builds the sampler.
    ///
    /// # Errors
    /// Propagates Chain-of-Trees construction failures.
    pub fn new(space: &SearchSpace, budget: usize, seed: u64) -> Result<Self> {
        Ok(UniformSampler {
            sampler: FeasibleSampler::new(space)?,
            budget,
            seed,
        })
    }
}

impl Tuner for UniformSampler {
    fn name(&self) -> &str {
        "Uniform"
    }

    fn run(&mut self, bb: &dyn BlackBox) -> Result<TuningReport> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut report = TuningReport::new(self.name());
        let mut seen = HashSet::new();
        while report.len() < self.budget {
            let t0 = Instant::now();
            let mut cfg = self.sampler.sample(&mut rng);
            let mut guard = 0;
            while seen.contains(&cfg) && guard < 1000 {
                cfg = self.sampler.sample(&mut rng);
                guard += 1;
            }
            if seen.contains(&cfg) {
                break; // space exhausted
            }
            seen.insert(cfg.clone());
            let tuner_time = t0.elapsed();
            report.push(timed_trial(bb, cfg, tuner_time));
        }
        Ok(report)
    }
}

/// Rasch et al.'s biased top-down CoT walk: the `CoT Sampling` baseline used
/// to study the sampling bias (Sec. 4.2 / Sec. 5.1).
#[derive(Debug)]
pub struct CotSampler {
    sampler: FeasibleSampler,
    budget: usize,
    seed: u64,
}

impl CotSampler {
    /// Builds the sampler.
    ///
    /// # Errors
    /// Fails when the space is not fully discrete (the CoT walk needs trees)
    /// or CoT construction fails.
    pub fn new(space: &SearchSpace, budget: usize, seed: u64) -> Result<Self> {
        let sampler = FeasibleSampler::new(space)?;
        if sampler.cot().is_none() {
            return Err(crate::Error::InvalidConfig(
                "CoT sampling requires a fully discrete space".into(),
            ));
        }
        Ok(CotSampler {
            sampler,
            budget,
            seed,
        })
    }
}

impl Tuner for CotSampler {
    fn name(&self) -> &str {
        "CoT"
    }

    fn run(&mut self, bb: &dyn BlackBox) -> Result<TuningReport> {
        let cot = self.sampler.cot().expect("checked in constructor");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut report = TuningReport::new(self.name());
        let mut seen = HashSet::new();
        while report.len() < self.budget {
            let t0 = Instant::now();
            let mut cfg = cot.sample_biased(&mut rng);
            let mut guard = 0;
            while seen.contains(&cfg) && guard < 1000 {
                cfg = cot.sample_biased(&mut rng);
                guard += 1;
            }
            if seen.contains(&cfg) {
                break;
            }
            seen.insert(cfg.clone());
            let tuner_time = t0.elapsed();
            report.push(timed_trial(bb, cfg, tuner_time));
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuner::{Evaluation, FnBlackBox};

    fn space() -> SearchSpace {
        SearchSpace::builder()
            .integer("a", 0, 9)
            .integer("b", 0, 9)
            .known_constraint("a >= b")
            .build()
            .unwrap()
    }

    fn bb() -> FnBlackBox<impl Fn(&Configuration) -> Evaluation> {
        FnBlackBox::new(|c: &Configuration| {
            Evaluation::feasible(1.0 + c.value("a").as_f64() - c.value("b").as_f64())
        })
    }

    #[test]
    fn uniform_sampler_runs_budget_feasibly() {
        let mut t = UniformSampler::new(&space(), 30, 1).unwrap();
        let r = t.run(&bb()).unwrap();
        assert_eq!(r.len(), 30);
        for trial in r.trials() {
            assert!(trial.config.value("a").as_i64() >= trial.config.value("b").as_i64());
        }
        // No duplicates.
        let uniq: HashSet<_> = r.trials().iter().map(|t| t.config.clone()).collect();
        assert_eq!(uniq.len(), 30);
    }

    #[test]
    fn cot_sampler_runs_budget_feasibly() {
        let mut t = CotSampler::new(&space(), 30, 2).unwrap();
        let r = t.run(&bb()).unwrap();
        assert_eq!(r.len(), 30);
        assert!(r.best_value().unwrap() >= 1.0);
    }

    #[test]
    fn cot_sampler_rejects_continuous_space() {
        let s = SearchSpace::builder().real("x", 0.0, 1.0).build().unwrap();
        assert!(CotSampler::new(&s, 5, 0).is_err());
    }

    #[test]
    fn samplers_exhaust_small_spaces_gracefully() {
        let s = SearchSpace::builder().integer("a", 0, 3).build().unwrap();
        let f =
            FnBlackBox::new(|c: &Configuration| Evaluation::feasible(c.value("a").as_f64() + 1.0));
        let mut t = UniformSampler::new(&s, 100, 3).unwrap();
        let r = t.run(&f).unwrap();
        assert!(r.len() <= 4 + 1);
        assert_eq!(r.best_value(), Some(1.0));
    }
}
