//! The Ytopt baseline (Sec. 5.1): skopt-style Bayesian optimization with a
//! random-forest surrogate (optionally a plain GP for the RQ3 comparison),
//! EI optimized by scoring random candidates, and hidden-constraint failures
//! "added to the data set with a high objective value" — the penalty approach
//! BaCO's feasibility model replaces.

use super::timed_trial;
use crate::acquisition::expected_improvement;
use crate::search::FeasibleSampler;
use crate::space::{Configuration, SearchSpace};
use crate::surrogate::{FittedModel, GaussianProcess, GpOptions, RandomForestRegressor, RfOptions};
use crate::tuner::{BlackBox, TuningReport};
use crate::Result;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::time::Instant;

/// Which surrogate Ytopt runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum YtoptSurrogate {
    /// Random forest (Ytopt's default in the paper's experiments).
    #[default]
    RandomForest,
    /// An untuned, off-the-shelf GP (the `Ytopt (GP)` arm of Fig. 8: no
    /// custom distances, no priors, no input transforms).
    GaussianProcess,
}

/// Options for [`YtoptTuner`].
#[derive(Debug, Clone)]
pub struct YtoptOptions {
    /// Evaluation budget.
    pub budget: usize,
    /// Initial random samples.
    pub doe_samples: usize,
    /// RNG seed.
    pub seed: u64,
    /// Surrogate choice.
    pub surrogate: YtoptSurrogate,
    /// Penalty multiplier for infeasible observations (× worst feasible).
    pub penalty_factor: f64,
    /// Random candidates scored per iteration.
    pub n_candidates: usize,
    /// Random-forest settings.
    pub rf: RfOptions,
}

impl Default for YtoptOptions {
    fn default() -> Self {
        YtoptOptions {
            budget: 60,
            doe_samples: 10,
            seed: 0,
            surrogate: YtoptSurrogate::RandomForest,
            penalty_factor: 10.0,
            n_candidates: 500,
            rf: RfOptions::default(),
        }
    }
}

/// The Ytopt-style baseline tuner.
#[derive(Debug)]
pub struct YtoptTuner {
    space: SearchSpace,
    sampler: FeasibleSampler,
    opts: YtoptOptions,
}

impl YtoptTuner {
    /// Builds the tuner.
    ///
    /// # Errors
    /// Propagates Chain-of-Trees construction failures.
    pub fn new(space: &SearchSpace, opts: YtoptOptions) -> Result<Self> {
        Ok(YtoptTuner {
            space: space.clone(),
            sampler: FeasibleSampler::new(space)?,
            opts,
        })
    }

    /// Convenience constructor with defaults.
    ///
    /// # Errors
    /// Propagates Chain-of-Trees construction failures.
    pub fn with_budget(space: &SearchSpace, budget: usize, seed: u64) -> Result<Self> {
        Self::new(
            space,
            YtoptOptions {
                budget,
                seed,
                ..Default::default()
            },
        )
    }
}

impl super::Tuner for YtoptTuner {
    fn name(&self) -> &str {
        match self.opts.surrogate {
            YtoptSurrogate::RandomForest => "Ytopt",
            YtoptSurrogate::GaussianProcess => "Ytopt (GP)",
        }
    }

    fn run(&mut self, bb: &dyn BlackBox) -> Result<TuningReport> {
        let mut rng = StdRng::seed_from_u64(self.opts.seed);
        let mut report = TuningReport::new(self.name());
        let mut seen: HashSet<Configuration> = HashSet::new();

        // DoE phase.
        let doe =
            self.sampler
                .sample_batch(&mut rng, self.opts.doe_samples.min(self.opts.budget), &seen);
        for cfg in doe {
            seen.insert(cfg.clone());
            report.push(timed_trial(bb, cfg, std::time::Duration::ZERO));
        }

        while report.len() < self.opts.budget {
            let t0 = Instant::now();
            // Labels: measured values, with penalties standing in for
            // hidden-constraint failures.
            let worst_feasible = report
                .trials()
                .iter()
                .filter_map(|t| t.value)
                .fold(f64::NEG_INFINITY, f64::max);
            let penalty = if worst_feasible.is_finite() {
                worst_feasible.abs().max(1.0) * self.opts.penalty_factor
            } else {
                1e9
            };
            let (configs, labels): (Vec<Configuration>, Vec<f64>) = report
                .trials()
                .iter()
                .map(|t| (t.config.clone(), t.value.unwrap_or(penalty)))
                .unzip();

            let next = if configs.len() < 2 {
                None
            } else {
                let incumbent = labels.iter().copied().fold(f64::INFINITY, f64::min);
                let model = match self.opts.surrogate {
                    YtoptSurrogate::RandomForest => FittedModel::Rf(RandomForestRegressor::fit(
                        &self.space,
                        &configs,
                        &labels,
                        &self.opts.rf,
                        &mut rng,
                    )?),
                    YtoptSurrogate::GaussianProcess => {
                        FittedModel::Gp(Box::new(GaussianProcess::fit(
                            &self.space,
                            &configs,
                            &labels,
                            // Off-the-shelf GP: none of BaCO's customizations.
                            &GpOptions::baco_minus_minus(),
                            &mut rng,
                        )?))
                    }
                };
                let mut best: Option<(f64, Configuration)> = None;
                for _ in 0..self.opts.n_candidates {
                    let cfg = self.sampler.sample(&mut rng);
                    if seen.contains(&cfg) {
                        continue;
                    }
                    let (m, v) = model.predict(&self.space, &cfg);
                    let ei = expected_improvement(m, v, incumbent);
                    if best.as_ref().is_none_or(|(b, _)| ei > *b) {
                        best = Some((ei, cfg));
                    }
                }
                best.map(|(_, c)| c)
            };

            let cfg = match next {
                Some(c) => c,
                None => {
                    // Random fallback.
                    let mut found = None;
                    for _ in 0..2000 {
                        let cfg = self.sampler.sample(&mut rng);
                        if !seen.contains(&cfg) {
                            found = Some(cfg);
                            break;
                        }
                    }
                    match found {
                        Some(c) => c,
                        None => break,
                    }
                }
            };
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
    use crate::baselines::Tuner;
    use crate::tuner::{Evaluation, FnBlackBox};

    fn space() -> SearchSpace {
        SearchSpace::builder()
            .integer("a", 0, 31)
            .integer("b", 0, 31)
            .build()
            .unwrap()
    }

    #[test]
    fn optimizes_smooth_objective() {
        let bb = FnBlackBox::new(|c: &Configuration| {
            let a = c.value("a").as_f64();
            let b = c.value("b").as_f64();
            Evaluation::feasible(1.0 + (a - 7.0).powi(2) + (b - 25.0).powi(2))
        });
        let mut t = YtoptTuner::with_budget(&space(), 50, 2).unwrap();
        let r = t.run(&bb).unwrap();
        assert_eq!(r.len(), 50);
        assert!(r.best_value().unwrap() < 40.0, "best {:?}", r.best_value());
    }

    #[test]
    fn penalty_handles_hidden_failures() {
        let bb = FnBlackBox::new(|c: &Configuration| {
            let a = c.value("a").as_i64();
            if a > 15 {
                Evaluation::infeasible()
            } else {
                Evaluation::feasible((16 - a) as f64)
            }
        });
        let mut t = YtoptTuner::with_budget(&space(), 40, 4).unwrap();
        let r = t.run(&bb).unwrap();
        assert!(r.best_value().unwrap() <= 4.0);
    }

    #[test]
    fn gp_mode_runs() {
        let bb =
            FnBlackBox::new(|c: &Configuration| Evaluation::feasible(1.0 + c.value("a").as_f64()));
        let mut t = YtoptTuner::new(
            &space(),
            YtoptOptions {
                budget: 20,
                seed: 1,
                surrogate: YtoptSurrogate::GaussianProcess,
                ..Default::default()
            },
        )
        .unwrap();
        let r = t.run(&bb).unwrap();
        assert_eq!(r.tuner_name(), "Ytopt (GP)");
        assert!(r.best_value().unwrap() <= 4.0);
    }
}
