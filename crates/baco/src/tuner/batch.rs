//! Proposal rounds: the tuner's one pick loop, and q-point Expected
//! Improvement via *fantasy models*.
//!
//! [`Baco::recommend_batch`] makes every proposal the tuner makes. It fits
//! the models once, then picks `q` configurations, each by maximizing the
//! acquisition with the earlier picks excluded. A `q = 1` round is the
//! paper's sequential step: one pick, nothing fantasized. Greedily
//! maximizing plain EI `q` times would return the same point `q` times, so
//! between picks the surrogate is conditioned on a *hallucinated* outcome
//! for each point already chosen — the classic fantasy-model construction
//! of q-EI:
//!
//! * **Kriging believer** ([`FantasyStrategy::KrigingBeliever`], the
//!   default) — the lie is the GP's own posterior mean at the picked point.
//!   The posterior mean field is unchanged but the predictive variance
//!   collapses around the pick, so EI (which needs uncertainty) moves the
//!   next pick elsewhere. Conditioning is a rank-one
//!   [`Cholesky::extend`](crate::linalg::Cholesky::extend) row append plus
//!   one `O(n²)` re-solve
//!   ([`GaussianProcess::condition_on`](crate::surrogate::GaussianProcess::condition_on))
//!   — no refit.
//! * **Constant liar** ([`FantasyStrategy::ConstantLiar`]) — the lie is a
//!   fixed statistic of the observed objective values ([`LiarValue`]):
//!   `Min` (optimistic, spreads picks widest), `Mean`, or `Max`
//!   (pessimistic, clusters picks near the incumbent).
//!
//! When there is too little signal to fit, or the acquisition finds nothing
//! new for a pick, the feasible sampler fills in
//! ([`FeasibleSampler::sample_batch`](crate::search::FeasibleSampler::sample_batch),
//! which gives up after 200 draws per configuration that all hit excluded
//! ones). Either way a round consists of distinct, known-constraint-feasible
//! configurations outside the evaluation history.
//!
//! [`Baco::run_batched`] drives the full loop: propose a round, evaluate it
//! on the [`eval::pool`](crate::eval::pool) worker pool, fold results into
//! the report *in completion order* (out-of-order arrival is fine — the
//! [`GpCache`] extends its distance tables by whatever new rows appear),
//! refit, repeat.
//!
//! ```
//! use baco::prelude::*;
//!
//! let space = SearchSpace::builder()
//!     .integer("a", 0, 15)
//!     .integer("b", 0, 15)
//!     .build()?;
//! let bb = FnBlackBox::new(|c: &Configuration| {
//!     let (a, b) = (c.value("a").as_f64(), c.value("b").as_f64());
//!     Evaluation::feasible(1.0 + (a - 11.0).powi(2) + (b - 4.0).powi(2))
//! });
//! let report = Baco::builder(space)
//!     .budget(24)
//!     .doe_samples(8)
//!     .batch_size(4) // 4 proposals per round, evaluated concurrently
//!     .seed(7)
//!     .build()?
//!     .run_batched(&bb)?;
//! assert_eq!(report.len(), 24);
//! # Ok::<(), baco::Error>(())
//! ```

use super::speculate::Evaluator;
use super::{AcquisitionContext, Baco, BlackBox, TuningReport};
use crate::space::{Configuration, SearchSpace};
use crate::surrogate::{FittedModel, GaussianProcess, GpCache};
use crate::Result;
use rand::rngs::StdRng;
use std::borrow::Cow;
use std::collections::HashSet;

/// Which value a fantasy observation hallucinates for a just-picked
/// configuration (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FantasyStrategy {
    /// Condition on the GP's posterior mean at the pick (the default).
    #[default]
    KrigingBeliever,
    /// Condition on a constant statistic of the observed objective values.
    ConstantLiar(LiarValue),
}

/// The statistic a [`FantasyStrategy::ConstantLiar`] hallucinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiarValue {
    /// Best (smallest) observed value — optimistic; spreads picks widest.
    Min,
    /// Mean observed value.
    Mean,
    /// Worst (largest) observed value — pessimistic; clusters picks.
    Max,
}

impl AcquisitionContext {
    /// Conditions each objective's GP on a hallucinated outcome at `cfg`:
    /// `lie(k, gp, ys)` is the value for objective `k`, given its model and
    /// its observed (transformed) values.
    ///
    /// Only the GP surrogate supports conditioning; for the random-forest
    /// surrogate (and for the rare numerical failure of the rank-one row
    /// append) a model is left as it is, and batch diversity rests on the
    /// seen-set de-duplication alone.
    ///
    /// An EHVI round hands the rest of the batch to ParEGO scalarized EI: the
    /// cell decomposition was built over the *observed* front, which a
    /// hallucinated outcome can't honestly update (the pick has no real
    /// objectives yet), whereas the scalarization remains exactly as
    /// meaningful on fantasy-conditioned posteriors. EHVI steers the round's
    /// first pick, scalarized EI diversifies the rest.
    fn condition(
        &mut self,
        cfg: &Configuration,
        mut lie: impl FnMut(usize, &GaussianProcess, &[f64]) -> f64,
    ) {
        self.ehvi = None;
        for (k, (model, y)) in self.models.iter_mut().zip(&self.ys).enumerate() {
            let FittedModel::Gp(gp) = model else {
                continue;
            };
            if let Ok(conditioned) = gp.condition_on(cfg, lie(k, gp, y)) {
                *model = FittedModel::Gp(Box::new(conditioned));
            }
        }
    }

    /// Folds the hallucinated outcome for the pick `cfg` into every
    /// objective's model so the next pick in this round sees reduced
    /// uncertainty there: the kriging believer lies with each model's own
    /// posterior mean, the constant liar with a statistic of that
    /// objective's observed values.
    fn fantasize(&mut self, cfg: &Configuration, strategy: FantasyStrategy) {
        self.condition(cfg, |_, gp, y| match strategy {
            FantasyStrategy::KrigingBeliever => gp.predict(cfg).0,
            FantasyStrategy::ConstantLiar(LiarValue::Min) => {
                y.iter().copied().fold(f64::INFINITY, f64::min)
            }
            FantasyStrategy::ConstantLiar(LiarValue::Max) => {
                y.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            }
            FantasyStrategy::ConstantLiar(LiarValue::Mean) => {
                y.iter().sum::<f64>() / (y.len() as f64).max(1.0)
            }
        });
    }

    /// The *draft* step of the speculative pipeline: records the
    /// per-objective posterior (mean, variance) at `cfg`, then folds a
    /// kriging-believer fantasy for it into the value models. The returned
    /// numbers are the **anchor** the draft is later reconciled against
    /// when the real evaluation lands; they are read *before* conditioning,
    /// so a resumed replay (which refits from the same history) reproduces
    /// them bit for bit.
    ///
    /// Unlike an intra-round pick, the hallucinated value is clamped to the
    /// observed range of each objective: drafts chain conditionings across
    /// several rounds, and one extrapolated lie fed back into the next
    /// `condition_on` can snowball into a numerically degenerate posterior
    /// (the anchors themselves stay raw — the degeneracy guard in
    /// `tuner::speculate` judges the unclamped prediction).
    pub(super) fn fantasize_anchored(
        &mut self,
        space: &SearchSpace,
        cfg: &Configuration,
    ) -> (Vec<f64>, Vec<f64>) {
        let (means, vars): (Vec<f64>, Vec<f64>) =
            self.models.iter().map(|m| m.predict(space, cfg)).unzip();
        self.condition(cfg, |k, _, y| {
            let lo = y.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = y.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            if lo <= hi {
                means[k].clamp(lo, hi)
            } else {
                means[k]
            }
        });
        (means, vars)
    }
}

impl Baco {
    /// Proposes up to `q` *distinct*, known-constraint-feasible
    /// configurations outside `seen` in one round: the surrogates are fitted
    /// once on `report`, then each pick maximizes the acquisition with all
    /// earlier picks excluded and fantasized into the models per
    /// [`BacoOptions::batch_strategy`](super::BacoOptions::batch_strategy).
    /// With fewer than two feasible observations the round is drawn at
    /// random from the feasible set.
    ///
    /// This is the tuner's one proposer, and `q = 1` is the sequential
    /// loop's step. Exposed for benchmarking the tuner's own overhead
    /// (Table 10) and for custom loops, which should keep one cache from
    /// [`Baco::new_cache`] across rounds. May return fewer than `q`
    /// configurations when the unevaluated feasible set is nearly
    /// exhausted, and an empty vector when it is fully exhausted or
    /// `q == 0` (which touches neither the RNG nor the models).
    ///
    /// # Errors
    /// Propagates surrogate-fitting failures.
    pub fn recommend_batch(
        &self,
        rng: &mut StdRng,
        report: &TuningReport,
        seen: &HashSet<Configuration>,
        cache: &mut GpCache,
        q: usize,
    ) -> Result<Vec<Configuration>> {
        if q == 0 {
            return Ok(Vec::new());
        }
        match self.fit_acquisition(rng, report, cache)? {
            Some(mut ctx) => Ok(self.pick_round(rng, &mut ctx, seen, q)),
            // Too little signal: fill the whole round with distinct random
            // feasible configurations.
            None => Ok(self.sampler.sample_batch(rng, q, seen)),
        }
    }

    /// The pick loop behind every proposal ([`Baco::recommend_batch`] and
    /// the speculative drafts): up to `q` acquisition maximizations over the
    /// configurations outside `seen`, each pick excluded from (and
    /// fantasized into) the next. May return fewer than `q` configurations
    /// when the unevaluated feasible set is nearly exhausted.
    pub(super) fn pick_round(
        &self,
        rng: &mut StdRng,
        ctx: &mut AcquisitionContext,
        seen: &HashSet<Configuration>,
        q: usize,
    ) -> Vec<Configuration> {
        // Copied only once a later pick must exclude an earlier one, so a
        // one-pick round never pays for a copy of a long history.
        let mut excluded = Cow::Borrowed(seen);
        let mut picked: Vec<Configuration> = Vec::with_capacity(q);
        for i in 0..q {
            // Acquisition exhausted (e.g. ε_f gated everything unseen):
            // pad with a random unseen feasible configuration.
            let next = self
                .search_acquisition(rng, ctx, &excluded)
                .or_else(|| self.sampler.sample_batch(rng, 1, &excluded).pop());
            let Some(cfg) = next else {
                break; // feasible set fully evaluated
            };
            if i + 1 < q {
                ctx.fantasize(&cfg, self.opts.batch_strategy);
                excluded.to_mut().insert(cfg.clone());
            }
            picked.push(cfg);
        }
        picked
    }

    /// Runs the full loop with rounds of
    /// [`BacoOptions::batch_size`](super::BacoOptions::batch_size)
    /// fantasy-EI proposals, evaluated concurrently on an
    /// [`eval::pool`](crate::eval::pool) worker pool of
    /// [`BacoOptions::eval_threads`](super::BacoOptions::eval_threads), with
    /// results folded into the model in whatever order they complete.
    ///
    /// This is the closed-loop engine ([`crate::tuner::speculate`]) at the
    /// configured batch size and
    /// [`BacoOptions::speculation_depth`](super::BacoOptions::speculation_depth).
    /// At depth 0 (the default) each round is proposed once the previous
    /// one has fully landed; with `batch_size == 1` that is [`Baco::run`],
    /// bit for bit, journal included. With depth `> 0` the engine drafts
    /// fantasy rounds while evaluations are in flight and reconciles them as
    /// real values land.
    ///
    /// With [`BacoOptions::journal_path`](super::BacoOptions::journal_path)
    /// set, rounds and evaluations are durably journaled exactly as in
    /// [`Baco::run`]; results are journaled in *completion* order, so a
    /// resumed journal replays the run as it actually unfolded, re-dispatching
    /// whatever was proposed but had not landed. With `eval_threads <= 1`
    /// completion order equals submission order and the resume-anywhere
    /// bitwise guarantee of the sequential loop carries over to any batch
    /// size and depth.
    ///
    /// # Errors
    /// Propagates surrogate-fitting failures and journal errors. Black-box
    /// failures (panics included) are hidden-constraint observations, not
    /// errors.
    pub fn run_batched(&self, bb: &(dyn BlackBox + Sync)) -> Result<TuningReport> {
        let (q, depth) = (self.opts.batch_size.max(1), self.opts.speculation_depth);
        self.closed_loop(Evaluator::Shared(bb), q, depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SearchSpace;
    use crate::tuner::{Evaluation, FnBlackBox, Trial};
    use rand::SeedableRng;

    fn space() -> SearchSpace {
        SearchSpace::builder()
            .integer("a", 0, 15)
            .integer("b", 0, 15)
            .known_constraint("a + b <= 24")
            .build()
            .unwrap()
    }

    fn bb() -> FnBlackBox<impl Fn(&Configuration) -> Evaluation> {
        FnBlackBox::new(|c: &Configuration| {
            let (a, b) = (c.value("a").as_f64(), c.value("b").as_f64());
            Evaluation::feasible(1.0 + (a - 11.0).powi(2) + (b - 4.0).powi(2))
        })
    }

    #[test]
    fn batched_run_covers_budget_and_optimizes() {
        for strategy in [
            FantasyStrategy::KrigingBeliever,
            FantasyStrategy::ConstantLiar(LiarValue::Min),
            FantasyStrategy::ConstantLiar(LiarValue::Mean),
            FantasyStrategy::ConstantLiar(LiarValue::Max),
        ] {
            let report = Baco::builder(space())
                .budget(32)
                .doe_samples(8)
                .batch_size(4)
                .batch_strategy(strategy)
                .seed(5)
                .build()
                .unwrap()
                .run_batched(&bb())
                .unwrap();
            assert_eq!(report.len(), 32, "{strategy:?}");
            assert!(
                report.best_value().unwrap() <= 10.0,
                "{strategy:?}: best {:?}",
                report.best_value()
            );
            // No configuration is ever evaluated twice.
            let uniq: HashSet<String> = report
                .trials()
                .iter()
                .map(|t| t.config.to_string())
                .collect();
            assert_eq!(uniq.len(), report.len(), "{strategy:?}");
        }
    }

    #[test]
    fn q1_batched_run_is_bitwise_identical_to_sequential() {
        for seed in [0u64, 7, 23] {
            let tuner = Baco::builder(space())
                .budget(20)
                .doe_samples(6)
                .seed(seed)
                .build()
                .unwrap();
            let sequential = tuner.run(&bb()).unwrap();
            let batched = tuner.run_batched(&bb()).unwrap();
            let cfgs = |r: &TuningReport| {
                r.trials()
                    .iter()
                    .map(|t| t.config.to_string())
                    .collect::<Vec<_>>()
            };
            assert_eq!(cfgs(&sequential), cfgs(&batched), "seed {seed}");
            for (a, b) in sequential.trials().iter().zip(batched.trials()) {
                assert_eq!(
                    a.value.map(f64::to_bits),
                    b.value.map(f64::to_bits),
                    "seed {seed}"
                );
            }
        }
    }

    #[test]
    fn recommend_batch_returns_distinct_feasible_configs() {
        let tuner = Baco::builder(space())
            .budget(40)
            .doe_samples(8)
            .batch_size(8)
            .seed(3)
            .build()
            .unwrap();
        // Build some history first.
        let mut rng = StdRng::seed_from_u64(3);
        let mut report = TuningReport::new("t");
        let mut seen = HashSet::new();
        let the_bb = bb();
        for cfg in tuner.sampler().sample_batch(&mut rng, 8, &seen) {
            let eval = the_bb.evaluate(&cfg);
            seen.insert(cfg.clone());
            report.push(Trial {
                config: cfg,
                value: eval.value(),
                extra: Vec::new(),
                feasible: eval.is_feasible(),
                eval_time: Default::default(),
                tuner_time: Default::default(),
            });
        }
        let mut cache = GpCache::new();
        let batch = tuner
            .recommend_batch(&mut rng, &report, &seen, &mut cache, 8)
            .unwrap();
        assert_eq!(batch.len(), 8);
        let uniq: HashSet<_> = batch.iter().cloned().collect();
        assert_eq!(uniq.len(), 8, "proposals must be distinct");
        for cfg in &batch {
            assert!(tuner.sampler().contains(cfg), "infeasible proposal {cfg}");
            assert!(!seen.contains(cfg), "already-evaluated proposal {cfg}");
        }
        // q = 0 proposes nothing and leaves the RNG untouched.
        let before = rng.clone();
        assert!(tuner
            .recommend_batch(&mut rng, &report, &seen, &mut cache, 0)
            .unwrap()
            .is_empty());
        assert_eq!(rng, before);
    }

    #[test]
    fn small_feasible_set_exhausts_gracefully() {
        let space = SearchSpace::builder().integer("x", 0, 5).build().unwrap();
        let report = Baco::builder(space)
            .budget(50)
            .doe_samples(2)
            .batch_size(4)
            .seed(1)
            .build()
            .unwrap()
            .run_batched(&FnBlackBox::new(|c: &Configuration| {
                Evaluation::feasible(c.value("x").as_f64() + 1.0)
            }))
            .unwrap();
        assert_eq!(report.len(), 6, "only 6 configs exist");
        assert_eq!(report.best_value(), Some(1.0));
    }

    #[test]
    fn batched_run_handles_hidden_constraints() {
        let space = space();
        let hidden = FnBlackBox::new(|c: &Configuration| {
            let (a, b) = (c.value("a").as_f64(), c.value("b").as_f64());
            if a > 12.0 {
                Evaluation::infeasible()
            } else {
                Evaluation::feasible(1.0 + (a - 10.0).powi(2) + (b - 4.0).powi(2))
            }
        });
        let report = Baco::builder(space)
            .budget(36)
            .doe_samples(9)
            .batch_size(4)
            .seed(11)
            .build()
            .unwrap()
            .run_batched(&hidden)
            .unwrap();
        assert_eq!(report.len(), 36);
        assert!(report.best_value().unwrap() <= 8.0);
    }
}
