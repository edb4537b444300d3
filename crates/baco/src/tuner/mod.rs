//! The BaCO recommendation/evaluation loop (Fig. 2 of the paper): an initial
//! random phase followed by Bayesian optimization with a GP value model, an
//! RF feasibility model, noise-free EI and multi-start local search, all over
//! the Chain-of-Trees feasible set.
//!
//! Every proposal round is made one way, [`Baco::recommend_batch`]: fit one
//! value model per objective (a single-objective run is the `m = 1` case)
//! and the feasibility classifier, then pick `q` configurations, each by
//! maximizing the acquisition with the earlier picks excluded and
//! fantasized into the models (see [`batch`]). A `q = 1` round is the
//! paper's sequential step. Each round refits from scratch on the whole
//! history; the [`GpCache`] carries only distance tables between rounds
//! (one set, which every objective's model shares), and candidates are
//! scored through the surrogate's bulk posterior
//! (`FittedModel::predict_batch` in [`crate::surrogate`]).
//!
//! Two drivers call it. The closed loops ([`Baco::run`] and
//! [`Baco::run_batched`]) are one engine, [`speculate`], which evaluates
//! rounds on an [`eval::pool`](crate::eval::pool) and folds results in as
//! they complete: `run` is its batch size 1 with no speculation, so with
//! [`BacoOptions::batch_size`] `== 1` and the default
//! [`BacoOptions::speculation_depth`] the batched loop reproduces the
//! sequential trajectory bit for bit. [`Session`] is the open loop: its
//! caller asks for rounds ([`Session::ask`], [`Session::suggest_batch`])
//! and reports their results ([`Session::try_report`]). Either driver
//! continues its journal instead of starting over when
//! [`BacoOptions::resume`] is set.
//!
//! ```
//! use baco::prelude::*;
//!
//! let space = SearchSpace::builder().integer("x", 0, 15).build()?;
//! let bb = FnBlackBox::new(|c: &Configuration| {
//!     Evaluation::feasible((c.value("x").as_f64() - 11.0).powi(2))
//! });
//! let report = Baco::builder(space).budget(10).seed(1).build()?.run(&bb)?;
//! assert_eq!(report.len(), 10);
//! # Ok::<(), baco::Error>(())
//! ```

pub mod batch;
mod blackbox;
mod report;
mod session;
pub mod speculate;
pub mod transfer;

pub use batch::{FantasyStrategy, LiarValue};
pub use blackbox::{BlackBox, Evaluation, FnBlackBox};
pub use report::{Trial, TuningReport};
pub use session::Session;

use speculate::Evaluator;

use crate::acquisition::{
    expected_improvement, feasibility_weighted_ei, inferred_reference, Ehvi, EpsilonSchedule,
    OptimumPrior, Scalarization,
};
use crate::search::{local_search_in, random_search_in, FeasibleSampler, LocalSearchOptions};
use crate::space::{Configuration, SearchSpace};
use crate::surrogate::{
    ActiveSet, FittedModel, GaussianProcess, GpCache, GpOptions, RandomForestClassifier,
    RandomForestRegressor, RfOptions, TrustRegion,
};
use crate::{Error, Result};
use rand::rngs::StdRng;
use std::collections::HashSet;

/// Which value surrogate drives the acquisition (Fig. 8 compares them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SurrogateKind {
    /// Gaussian process (BaCO default).
    #[default]
    GaussianProcess,
    /// Random forest (the "RFs" arm of Fig. 8).
    RandomForest,
}

/// How a multi-objective run scores candidates each acquisition round
/// (single-objective runs ignore this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MultiObjectiveStrategy {
    /// Expected hypervolume improvement over the incremental Pareto front
    /// (the default): exact stripe decomposition for two objectives, a
    /// hypervolume-sliced cell decomposition for three (see
    /// [`crate::acquisition::Ehvi`]). Falls back to [`ParEgo`] when the
    /// objective count is unsupported (`m > 3`) and between the picks of a
    /// `q > 1` batch round, where fantasy-conditioned models re-score by
    /// scalarized EI.
    ///
    /// [`ParEgo`]: MultiObjectiveStrategy::ParEgo
    #[default]
    Ehvi,
    /// ParEGO: collapse the per-objective posteriors with this round's
    /// random augmented-Chebyshev scalarization and run the classic scalar
    /// EI machinery ([`crate::acquisition::Scalarization`]) — the pre-EHVI
    /// behavior, and what journals without an explicit `mo_strategy`
    /// envelope entry replay.
    ParEgo,
}

/// Tunable knobs of the BaCO loop. Every ablation in the paper's Sec. 5.3
/// corresponds to a field here.
#[derive(Debug, Clone)]
pub struct BacoOptions {
    /// Total evaluation budget (Table 3's "Full Budget").
    pub budget: usize,
    /// Evaluations in the initial random phase (DoE).
    pub doe_samples: usize,
    /// RNG seed.
    pub seed: u64,
    /// GP configuration (permutation metric, transforms, priors, multistart).
    pub gp: GpOptions,
    /// RF configuration (feasibility classifier and RF surrogate).
    pub rf: RfOptions,
    /// Value surrogate choice.
    pub surrogate: SurrogateKind,
    /// Learn hidden constraints with a feasibility classifier (Sec. 4.2).
    pub hidden_constraints: bool,
    /// Apply the minimum-feasibility threshold ε_f (Fig. 10 ablates this).
    pub feasibility_limit: bool,
    /// ε_f distribution.
    pub epsilon_schedule: EpsilonSchedule,
    /// Optimize the acquisition with multi-start local search; `false` falls
    /// back to scoring random candidates (the `BaCO--` ablation).
    pub local_search: bool,
    /// Local-search parameters.
    pub ls: LocalSearchOptions,
    /// Log-transform the objective before modelling (Sec. 4.2: runtimes are
    /// positive and heavy-tailed). Applied to every objective of a
    /// multi-objective run (areas, energies and traffic counts share the
    /// positive-heavy-tailed shape).
    pub log_objective: bool,
    /// Number of objectives the black box measures (default 1). With `m > 1`
    /// the tuner fits one GP per objective and scores candidates by
    /// [`BacoOptions::mo_strategy`] — expected hypervolume improvement by
    /// default, ParEGO scalarization ([`Scalarization`]) on request; the
    /// run's result is the Pareto front ([`TuningReport::pareto_front`]).
    /// `1` keeps the classic single-objective loop, bit for bit.
    pub objectives: usize,
    /// Acquisition strategy for multi-objective runs (see
    /// [`MultiObjectiveStrategy`]). Journaled in the determinism envelope
    /// only as `"ehvi"` — absence means ParEGO, the historical behavior —
    /// so journals written before the strategy existed stay byte-identical
    /// and resume under the strategy that produced them.
    pub mo_strategy: MultiObjectiveStrategy,
    /// Hypervolume reference point for multi-objective runs (one entry per
    /// objective, in raw objective units). Recorded in the run journal's
    /// determinism envelope and stamped onto the report
    /// ([`TuningReport::hypervolume_vs_ref`]). `None` skips hypervolume
    /// bookkeeping.
    pub reference_point: Option<Vec<f64>>,
    /// Optional user prior over the optimum's location (Sec. 6), applied as
    /// a decaying multiplicative weight on the acquisition.
    pub optimum_prior: Option<OptimumPrior>,
    /// Configurations proposed per round by the closed batched loop,
    /// [`Baco::run_batched`]. `1` (the default) is the paper's sequential
    /// loop; larger values propose `q` distinct configurations via
    /// fantasy-model EI (see [`batch`]) and evaluate them concurrently.
    /// Open-loop drivers pass their round size to
    /// [`Session::suggest_batch`] per call instead — this option does not
    /// constrain them.
    pub batch_size: usize,
    /// How hallucinated outcomes are chosen for fantasy-model EI when
    /// `batch_size > 1`.
    pub batch_strategy: FantasyStrategy,
    /// Worker threads for batched evaluation (`0` = one per configuration in
    /// the round, capped at the available parallelism).
    pub eval_threads: usize,
    /// When set, every proposal round and completed evaluation of the run is
    /// appended (write-ahead, fsync'd) to this crash-safe JSONL journal; see
    /// [`crate::journal`]. `None` (the default) disables journaling.
    pub journal_path: Option<std::path::PathBuf>,
    /// When `true` and [`BacoOptions::journal_path`] holds an existing
    /// journal, [`Baco::run`]/[`Baco::run_batched`]/[`Session::new`] resume
    /// from it instead of starting over — reconstructing history, RNG stream
    /// and the in-flight round so the continued trajectory is bit-identical
    /// to an uninterrupted run. With no journal on disk the run starts
    /// fresh (and begins journaling), which is what a `--resume` CLI flag
    /// wants on the first launch. Requires a `journal_path`:
    /// [`BacoBuilder::build`] refuses `resume` without one.
    pub resume: bool,
    /// Caps the GP training set at this many points per round, bounding
    /// per-round surrogate cost at O(budget³) no matter how long the session
    /// runs. `None` (the default) keeps the exact unbounded path. While the
    /// feasible history fits the budget the loop is **bitwise identical** to
    /// the exact path; beyond it, an incumbent-anchored active set
    /// ([`crate::surrogate::ActiveSet`]) plus a TuRBO-style trust region
    /// ([`crate::surrogate::TrustRegion`]) take over. Journaled in the
    /// determinism envelope, so resumed runs replay the same selections.
    /// See [`DEFAULT_SURROGATE_BUDGET`] for the recommended value.
    pub surrogate_budget: Option<usize>,
    /// How many *speculative* rounds [`Baco::run_batched`] may draft beyond
    /// the round whose evaluations are in flight (`0`, the default, drafts
    /// nothing: each round waits for the previous one to land, the classic
    /// per-round barrier). With depth `d > 0` the loop fantasizes
    /// kriging-believer values for every in-flight configuration and
    /// dispatches up to `d` extra rounds immediately, reconciling each draft
    /// when its anchoring evaluations land; see [`crate::tuner::speculate`].
    /// Capped at [`MAX_SPECULATION_DEPTH`].
    pub speculation_depth: usize,
    /// Fleet-scale transfer learning: mine this journal corpus directory
    /// (typically the fleet's shared `journal_dir`) for
    /// structurally-compatible archived sessions and seed this run from them
    /// — warm-started DoE ordering plus a random-forest prior mean for the
    /// live GP (see [`transfer`]). `None` (the default) keeps the cold-start
    /// loop; enabled against an empty corpus the trajectory is identical to
    /// a cold run. The chosen donors are journaled in a
    /// [`TransferDigest`](crate::journal::TransferDigest) so resumes stay
    /// bitwise even as the corpus grows.
    pub transfer: Option<std::path::PathBuf>,
}

/// The recommended [`BacoOptions::surrogate_budget`] for long-lived
/// sessions: large enough that the paper's small-budget sweeps never
/// truncate (so results are bit-identical to the exact path), small enough
/// that a 20 000-trial session still fits+predicts in well under a second
/// per round.
pub const DEFAULT_SURROGATE_BUDGET: usize = 128;

/// The smallest accepted [`BacoOptions::surrogate_budget`]: below this the
/// active set cannot hold the incumbent block, the recency block and any
/// space-filling remainder at once.
pub const MIN_SURROGATE_BUDGET: usize = 8;

/// The largest accepted [`BacoOptions::speculation_depth`]. Beyond a few
/// fantasy rounds the kriging-believer posterior is dominated by its own
/// inventions — mis-speculation (and with it, flushed work) grows faster
/// than the overlap win, while every extra round multiplies the in-flight
/// set the reconciler must track.
pub const MAX_SPECULATION_DEPTH: usize = 8;

impl Default for BacoOptions {
    fn default() -> Self {
        BacoOptions {
            budget: 60,
            doe_samples: 10,
            seed: 0,
            gp: GpOptions::default(),
            rf: RfOptions::default(),
            surrogate: SurrogateKind::GaussianProcess,
            hidden_constraints: true,
            feasibility_limit: true,
            epsilon_schedule: EpsilonSchedule::default(),
            local_search: true,
            ls: LocalSearchOptions::default(),
            log_objective: true,
            objectives: 1,
            mo_strategy: MultiObjectiveStrategy::default(),
            reference_point: None,
            optimum_prior: None,
            batch_size: 1,
            batch_strategy: FantasyStrategy::default(),
            eval_threads: 0,
            journal_path: None,
            resume: false,
            surrogate_budget: None,
            speculation_depth: 0,
            transfer: None,
        }
    }
}

impl BacoOptions {
    /// The range checks [`BacoBuilder::build`] makes on the options alone:
    /// a positive budget and objective count, a finite reference point of
    /// one entry per objective, a surrogate budget of at least
    /// [`MIN_SURROGATE_BUDGET`] and a speculation depth of at most
    /// [`MAX_SPECULATION_DEPTH`]. The tuning server asks them before it
    /// decodes a session's space, so a refused option is named first.
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] naming the first option out of range.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.budget == 0 {
            return Err(Error::InvalidConfig("budget must be positive".into()));
        }
        if self.objectives == 0 {
            return Err(Error::InvalidConfig("objectives must be positive".into()));
        }
        if let Some(r) = &self.reference_point {
            if r.len() != self.objectives {
                return Err(Error::InvalidConfig(format!(
                    "reference point has {} entries for {} objectives",
                    r.len(),
                    self.objectives
                )));
            }
            if r.iter().any(|v| !v.is_finite()) {
                return Err(Error::InvalidConfig(
                    "reference point entries must be finite".into(),
                ));
            }
        }
        if let Some(b) = self.surrogate_budget {
            if b < MIN_SURROGATE_BUDGET {
                return Err(Error::InvalidConfig(format!(
                    "surrogate_budget must be at least {MIN_SURROGATE_BUDGET} (got {b})"
                )));
            }
        }
        if self.speculation_depth > MAX_SPECULATION_DEPTH {
            return Err(Error::InvalidConfig(format!(
                "speculation_depth must be at most {MAX_SPECULATION_DEPTH} (got {})",
                self.speculation_depth
            )));
        }
        Ok(())
    }
}

/// Builder for [`Baco`]; see the [crate docs](crate) for an example.
#[derive(Debug)]
pub struct BacoBuilder {
    space: SearchSpace,
    opts: BacoOptions,
}

impl BacoBuilder {
    /// Total evaluation budget.
    pub fn budget(mut self, n: usize) -> Self {
        self.opts.budget = n;
        self
    }

    /// Number of initial random samples.
    pub fn doe_samples(mut self, n: usize) -> Self {
        self.opts.doe_samples = n;
        self
    }

    /// RNG seed (runs are fully deterministic given the seed and a
    /// deterministic black box).
    pub fn seed(mut self, s: u64) -> Self {
        self.opts.seed = s;
        self
    }

    /// Overrides the GP configuration.
    pub fn gp_options(mut self, gp: GpOptions) -> Self {
        self.opts.gp = gp;
        self
    }

    /// Overrides the RF configuration.
    pub fn rf_options(mut self, rf: RfOptions) -> Self {
        self.opts.rf = rf;
        self
    }

    /// Chooses the value surrogate.
    pub fn surrogate(mut self, s: SurrogateKind) -> Self {
        self.opts.surrogate = s;
        self
    }

    /// Enables/disables the hidden-constraint feasibility model.
    pub fn hidden_constraints(mut self, on: bool) -> Self {
        self.opts.hidden_constraints = on;
        self
    }

    /// Enables/disables the ε_f minimum-feasibility threshold.
    pub fn feasibility_limit(mut self, on: bool) -> Self {
        self.opts.feasibility_limit = on;
        self
    }

    /// Enables/disables local search for the acquisition optimizer.
    pub fn local_search(mut self, on: bool) -> Self {
        self.opts.local_search = on;
        self
    }

    /// Overrides the local-search parameters.
    pub fn ls_options(mut self, ls: LocalSearchOptions) -> Self {
        self.opts.ls = ls;
        self
    }

    /// Enables/disables the output log transform.
    pub fn log_objective(mut self, on: bool) -> Self {
        self.opts.log_objective = on;
        self
    }

    /// Declares how many objectives the black box measures (see
    /// [`BacoOptions::objectives`]). `1` keeps the single-objective loop.
    pub fn objectives(mut self, m: usize) -> Self {
        self.opts.objectives = m.max(1);
        self
    }

    /// Sets the hypervolume reference point for a multi-objective run (see
    /// [`BacoOptions::reference_point`]).
    pub fn reference_point(mut self, r: Vec<f64>) -> Self {
        self.opts.reference_point = Some(r);
        self
    }

    /// Chooses the multi-objective acquisition strategy (see
    /// [`MultiObjectiveStrategy`]); single-objective runs ignore it.
    pub fn mo_strategy(mut self, s: MultiObjectiveStrategy) -> Self {
        self.opts.mo_strategy = s;
        self
    }

    /// Installs a user prior over the optimum's location (Sec. 6).
    pub fn optimum_prior(mut self, p: OptimumPrior) -> Self {
        self.opts.optimum_prior = Some(p);
        self
    }

    /// Sets how many configurations the batched engine proposes per round
    /// (see [`BacoOptions::batch_size`]). `1` keeps the sequential loop.
    pub fn batch_size(mut self, q: usize) -> Self {
        self.opts.batch_size = q.max(1);
        self
    }

    /// Chooses the fantasy strategy for batched proposals (see
    /// [`FantasyStrategy`]).
    pub fn batch_strategy(mut self, s: FantasyStrategy) -> Self {
        self.opts.batch_strategy = s;
        self
    }

    /// Sets the worker-pool size for batched evaluation (`0` = auto).
    pub fn eval_threads(mut self, t: usize) -> Self {
        self.opts.eval_threads = t;
        self
    }

    /// Journals the run to a crash-safe JSONL file at `path` (see
    /// [`BacoOptions::journal_path`] and [`crate::journal`]).
    pub fn journal_path(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.opts.journal_path = Some(path.into());
        self
    }

    /// Resumes from the journal when one exists (see
    /// [`BacoOptions::resume`]); needs a [`BacoBuilder::journal_path`].
    pub fn resume(mut self, on: bool) -> Self {
        self.opts.resume = on;
        self
    }

    /// Caps the GP training set at `n` points per round (see
    /// [`BacoOptions::surrogate_budget`]). [`DEFAULT_SURROGATE_BUDGET`] is a
    /// good value for long-lived sessions.
    pub fn surrogate_budget(mut self, n: usize) -> Self {
        self.opts.surrogate_budget = Some(n);
        self
    }

    /// Lets [`Baco::run_batched`] draft up to `d` speculative rounds while
    /// evaluations are in flight (see [`BacoOptions::speculation_depth`];
    /// `0` keeps the classic round barrier). At most
    /// [`MAX_SPECULATION_DEPTH`].
    pub fn speculation_depth(mut self, d: usize) -> Self {
        self.opts.speculation_depth = d;
        self
    }

    /// Enables fleet-scale transfer learning from the journal corpus at
    /// `corpus_dir` (see [`BacoOptions::transfer`] and [`transfer`]).
    pub fn transfer(mut self, corpus_dir: impl Into<std::path::PathBuf>) -> Self {
        self.opts.transfer = Some(corpus_dir.into());
        self
    }

    /// Replaces all options at once.
    pub fn options(mut self, opts: BacoOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Validates options and precomputes the Chain-of-Trees.
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] for an option out of range (a zero budget
    /// or objective count, a reference point of the wrong length or with a
    /// non-finite entry, a surrogate budget below [`MIN_SURROGATE_BUDGET`],
    /// a speculation depth above [`MAX_SPECULATION_DEPTH`]), `resume`
    /// without a journal path, or a space without parameters; CoT
    /// construction errors for unsatisfiable or oversized known
    /// constraints.
    pub fn build(self) -> Result<Baco> {
        self.opts.validate()?;
        // Not in `validate`: the server names the journal after validating.
        if self.opts.resume && self.opts.journal_path.is_none() {
            return Err(Error::InvalidConfig(
                "resume requires BacoOptions::journal_path".into(),
            ));
        }
        if self.space.is_empty() {
            return Err(Error::InvalidConfig("search space has no parameters".into()));
        }
        let sampler = FeasibleSampler::new(&self.space)?;
        Ok(Baco {
            space: self.space,
            sampler,
            opts: self.opts,
            transfer: std::sync::Mutex::new(None),
        })
    }
}

/// The BaCO autotuner. Construct with [`Baco::builder`], then call
/// [`Baco::run`] with the black box to optimize.
#[derive(Debug)]
pub struct Baco {
    space: SearchSpace,
    sampler: FeasibleSampler,
    opts: BacoOptions,
    /// Resolved transfer-learning state, populated lazily by
    /// [`Baco::prepare_transfer`] when a run opens its journal (interior
    /// mutability: resolution happens behind `&self` inside the journal-open
    /// paths, and the tuner must stay [`Sync`] for the server).
    transfer: std::sync::Mutex<Option<std::sync::Arc<transfer::TransferContext>>>,
}

impl Baco {
    /// Starts configuring a tuner for `space`.
    pub fn builder(space: SearchSpace) -> BacoBuilder {
        BacoBuilder {
            space,
            opts: BacoOptions::default(),
        }
    }

    /// The search space being tuned.
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// The options in effect.
    pub fn options(&self) -> &BacoOptions {
        &self.opts
    }

    /// The feasible-set sampler (CoT-backed for discrete spaces).
    pub fn sampler(&self) -> &FeasibleSampler {
        &self.sampler
    }

    /// Runs the full *sequential* recommendation/evaluation loop against
    /// `bb`: one proposal per surrogate refit, evaluated in-line on the
    /// calling thread. This is the closed-loop engine
    /// ([`crate::tuner::speculate`]) at one proposal per round and no
    /// speculation, whatever [`BacoOptions::batch_size`] and
    /// [`BacoOptions::speculation_depth`] say; [`Baco::run_batched`] at
    /// `batch_size == 1` and depth 0 produces the bit-identical trajectory.
    ///
    /// With [`BacoOptions::journal_path`] set, every round and evaluation is
    /// durably journaled. With [`BacoOptions::resume`] also set, an existing
    /// journal is continued instead of restarted: the history, the RNG
    /// stream and any in-flight proposal are replayed through the same
    /// engine that wrote them, so the continued trajectory is bit-identical
    /// to what the uninterrupted run would have produced, and a finished
    /// journal returns its final report without touching the black box.
    ///
    /// A black box that **panics** is contained: the panic is caught and
    /// the configuration is recorded as an infeasible trial, exactly like a
    /// failed compile or run (Sec. 4.2), and the loop continues to the
    /// budget.
    ///
    /// # Errors
    /// Propagates surrogate-fitting failures and journal I/O errors;
    /// [`Error::JournalCorrupt`] when a journal to resume cannot be trusted
    /// (corrupt records or a determinism-envelope mismatch). Black-box
    /// failures are not errors — they are hidden-constraint observations.
    pub fn run(&self, bb: &dyn BlackBox) -> Result<TuningReport> {
        self.closed_loop(Evaluator::Inline(bb), 1, 0)
    }

    /// A fresh surrogate cache for [`Baco::recommend_batch`]. Custom loops
    /// should create it here and keep it across rounds; a fresh cache per
    /// round proposes the same configurations, only slower. Its tables
    /// cover the round's training points, which a
    /// [`surrogate_budget`](BacoBuilder::surrogate_budget) caps, so budgeted
    /// loops hold O(budget²·d) of cache memory instead of O(n²·d).
    pub fn new_cache(&self) -> GpCache {
        GpCache::new()
    }

    /// The in-region membership test handed to the candidate search on
    /// budgeted rounds; `None` (no restriction) otherwise.
    fn region_predicate<'a>(
        &'a self,
        ctx: &'a AcquisitionContext,
    ) -> Option<impl Fn(&Configuration) -> bool + 'a> {
        ctx.region
            .as_ref()
            .map(|r| move |c: &Configuration| r.contains(&self.space, c, self.opts.gp.input_transforms))
    }

    /// One acquisition maximization over the configurations outside
    /// `excluded`: local search, or random search when it is disabled,
    /// restricted to the trust region on budgeted rounds. `None` when the
    /// search finds nothing new; each caller draws its own random fallback.
    fn search_acquisition(
        &self,
        rng: &mut StdRng,
        ctx: &AcquisitionContext,
        excluded: &HashSet<Configuration>,
    ) -> Option<Configuration> {
        let score_batch = ctx.score_batch(&self.space, self.opts.optimum_prior.as_ref());
        let inside = self.region_predicate(ctx);
        let region = inside.as_ref().map(|f| f as &dyn Fn(&Configuration) -> bool);
        if self.opts.local_search {
            local_search_in(&self.sampler, rng, score_batch, &self.opts.ls, excluded, region)
        } else {
            random_search_in(
                &self.sampler,
                rng,
                score_batch,
                self.opts.ls.n_candidates,
                excluded,
                region,
            )
        }
    }

    /// Fits one value model per objective and (when warranted) the
    /// feasibility classifier on the history in `report`, returning
    /// everything one proposal round needs. `None` when fewer than two
    /// feasible observations exist — the caller falls back to random
    /// sampling.
    ///
    /// A single-objective run is the `m = 1` case: it draws no ParEGO
    /// weights, builds no EHVI scorer, and the scalar of an observation is
    /// its one transformed value. The RNG is consumed in a fixed order — the
    /// weight draw (`m > 1` only), active-set selection (budgeted rounds
    /// only), one model per objective, the classifier, ε_f — all bracketed
    /// by the round's journal record, so resume replays it bitwise.
    pub(crate) fn fit_acquisition(
        &self,
        rng: &mut StdRng,
        report: &TuningReport,
        cache: &mut GpCache,
    ) -> Result<Option<AcquisitionContext>> {
        let m = self.opts.objectives;
        // Width-mismatched or non-finite vectors never reach the models
        // (push already demotes non-finite ones).
        let feas: Vec<&Trial> = report
            .trials()
            .iter()
            .filter(|t| t.measured() && 1 + t.extra.len() == m)
            .collect();
        if feas.len() < 2 {
            return Ok(None);
        }
        // Objective-major transformed targets over the full feasible history.
        let ys_full: Vec<Vec<f64>> = (0..m)
            .map(|k| {
                feas.iter()
                    .map(|t| match k {
                        0 => t.value.unwrap_or(f64::NAN), // `measured`: always set
                        _ => t.extra[k - 1],
                    })
                    .map(|v| self.transform(v))
                    .collect()
            })
            .collect();

        // This round's ParEGO weight draw — over the *full* history, so its
        // normalization ranges do not depend on the active subset. It is
        // drawn under **both** multi-objective strategies (EHVI still needs
        // it for active-set selection, the incumbent and the batch
        // fallback), so switching strategies never perturbs the RNG stream.
        let scal = (m > 1).then(|| Scalarization::sample(rng, &ys_full));

        // EHVI (the default multi-objective strategy): the cell decomposition
        // over the current front, in the *transformed* objective space the
        // GPs are trained in. RNG-free and a pure function of the replayed
        // history (including the inferred reference, when none was
        // configured), so resumed rounds rebuild the identical scorer.
        // `None` — unsupported dimensionality (m > 3) — falls back to ParEGO
        // scalarized EI.
        let ehvi = if m > 1 && self.opts.mo_strategy == MultiObjectiveStrategy::Ehvi {
            let front: Vec<Vec<f64>> = report
                .pareto_front()
                .iter()
                .filter_map(|t| t.objectives())
                .filter(|o| o.len() == m)
                .map(|o| o.iter().map(|&v| self.transform(v)).collect())
                .collect();
            let reference: Vec<f64> = match &self.opts.reference_point {
                Some(r) => r.iter().map(|&v| self.transform(v)).collect(),
                None => inferred_reference(&ys_full),
            };
            Ehvi::new(&front, &reference)
        } else {
            None
        };

        // Budget-bounded surrogate mode: when the feasible history outgrows
        // `surrogate_budget`, fold the history into a trust region, pick one
        // active subset of at most `budget` points on this round's scalars
        // and train every objective's model on it, so the models stay
        // aligned on the same training points (and distance tables). The
        // under-budget path is byte-for-byte the exact one.
        let mut buf = Vec::with_capacity(m);
        let (feas_cfgs, ys, region) = match self.surrogate_cap(feas.len()) {
            Some(b) => {
                let region = self.trust_region(report);
                let cfg_refs: Vec<&Configuration> = feas.iter().map(|t| &t.config).collect();
                let scalars: Vec<f64> = (0..feas.len())
                    .map(|j| scalar_at(scal.as_ref(), &ys_full, j, &mut buf))
                    .collect();
                let active = ActiveSet::select(
                    rng,
                    &self.space,
                    &cfg_refs,
                    &scalars,
                    b,
                    self.opts.gp.perm_metric,
                    self.opts.gp.input_transforms,
                    region.as_ref(),
                );
                let cfgs: Vec<Configuration> = active
                    .indices()
                    .iter()
                    .map(|&i| cfg_refs[i].clone())
                    .collect();
                let ys: Vec<Vec<f64>> = ys_full.iter().map(|y| active.gather(y)).collect();
                (cfgs, ys, region)
            }
            None => (feas.iter().map(|t| t.config.clone()).collect(), ys_full, None),
        };

        // Every objective trains on `feas_cfgs`, so one set of distance
        // tables serves them all.
        let models = ys
            .iter()
            .map(|y| self.fit_value_model(rng, &feas_cfgs, y, cache))
            .collect::<Result<Vec<FittedModel>>>()?;

        // Feasibility model, once at least one failure has been observed.
        let classifier = self.fit_classifier(rng, report)?;
        let epsilon_f = self.draw_epsilon(rng, classifier.is_some());

        // Noise-free incumbent (Sec. 3.3): the best (scalarized) *posterior
        // mean* over the evaluated points, not the best raw observation — a
        // noise-lucky observation would otherwise freeze EI everywhere —
        // capped by the best (scalarized) observation plus one.
        let means: Vec<Vec<f64>> = models
            .iter()
            .map(|mo| {
                let preds = mo.predict_batch(&self.space, &feas_cfgs);
                preds.into_iter().map(|(mean, _)| mean).collect()
            })
            .collect();
        let best = |ys: &[Vec<f64>], buf: &mut Vec<f64>| {
            (0..feas_cfgs.len())
                .map(|j| scalar_at(scal.as_ref(), ys, j, buf))
                .fold(f64::INFINITY, f64::min)
        };
        let incumbent = best(&means, &mut buf).min(best(&ys, &mut buf) + 1.0);

        let guided_iter = report.len().saturating_sub(self.opts.doe_samples);
        Ok(Some(AcquisitionContext {
            models,
            scalarization: scal,
            ehvi,
            classifier,
            epsilon_f,
            incumbent,
            guided_iter,
            ys,
            region,
        }))
    }

    /// The active-set cap for a feasible history of `n_feasible` points:
    /// `Some(budget)` only when a budget is configured **and** the history
    /// exceeds it. `None` means "run the exact path" — which is how
    /// `surrogate_budget >= n` stays bitwise identical to no budget at all.
    fn surrogate_cap(&self, n_feasible: usize) -> Option<usize> {
        self.opts.surrogate_budget.filter(|&b| n_feasible > b)
    }

    /// The current trust region, recomputed as a deterministic fold over the
    /// whole trial history (see [`TrustRegion::from_scalars`]). Recomputing
    /// each round instead of storing state keeps resume-from-journal bitwise
    /// for free: the fold input is exactly the replayed history. Infeasible
    /// trials count as failures. Multi-objective histories are folded on the
    /// weight-free scalar `sum of transformed objectives`, so the region does
    /// not wobble with each round's ParEGO draw.
    fn trust_region(&self, report: &TuningReport) -> Option<TrustRegion> {
        let m = self.opts.objectives;
        let cfgs: Vec<&Configuration> = report.trials().iter().map(|t| &t.config).collect();
        let scalars: Vec<Option<f64>> = report
            .trials()
            .iter()
            .map(|t| {
                if !t.feasible {
                    return None;
                }
                if m > 1 {
                    let objs = t.objectives()?;
                    (objs.len() == m && objs.iter().all(|v| v.is_finite()))
                        .then(|| objs.iter().map(|&v| self.transform(v)).sum())
                } else {
                    t.value
                        .filter(|v| v.is_finite())
                        .map(|v| self.transform(v))
                }
            })
            .collect();
        TrustRegion::from_scalars(
            &self.space,
            &cfgs,
            &scalars,
            self.opts.gp.perm_metric,
            self.opts.gp.input_transforms,
        )
    }

    /// The per-objective modelling transform (log for positive heavy-tailed
    /// metrics, identity otherwise).
    fn transform(&self, v: f64) -> f64 {
        if self.opts.log_objective {
            v.max(1e-12).ln()
        } else {
            v
        }
    }

    fn fit_value_model(
        &self,
        rng: &mut StdRng,
        cfgs: &[Configuration],
        y: &[f64],
        cache: &mut GpCache,
    ) -> Result<FittedModel> {
        Ok(match self.opts.surrogate {
            SurrogateKind::GaussianProcess => {
                let fitted = match self.transfer_mean() {
                    // The fleet prior becomes the GP's mean function: the GP
                    // fits residuals against it (see `surrogate::mean`).
                    Some(mean) => {
                        let mut gp = self.opts.gp.clone();
                        gp.mean_fn = Some(mean);
                        GaussianProcess::fit_with_cache(&self.space, cfgs, y, &gp, rng, cache)?
                    }
                    None => GaussianProcess::fit_with_cache(
                        &self.space,
                        cfgs,
                        y,
                        &self.opts.gp,
                        rng,
                        cache,
                    )?,
                };
                FittedModel::Gp(Box::new(fitted))
            }
            SurrogateKind::RandomForest => FittedModel::Rf(RandomForestRegressor::fit(
                &self.space,
                cfgs,
                y,
                &self.opts.rf,
                rng,
            )?),
        })
    }

    fn fit_classifier(
        &self,
        rng: &mut StdRng,
        report: &TuningReport,
    ) -> Result<Option<RandomForestClassifier>> {
        if self.opts.hidden_constraints && report.trials().iter().any(|t| !t.feasible) {
            let cfgs: Vec<Configuration> =
                report.trials().iter().map(|t| t.config.clone()).collect();
            let labels: Vec<bool> = report.trials().iter().map(|t| t.feasible).collect();
            Ok(Some(RandomForestClassifier::fit(
                &self.space,
                &cfgs,
                &labels,
                &self.opts.rf,
                rng,
            )?))
        } else {
            Ok(None)
        }
    }

    fn draw_epsilon(&self, rng: &mut StdRng, have_classifier: bool) -> f64 {
        if self.opts.feasibility_limit && have_classifier {
            self.opts.epsilon_schedule.sample(rng)
        } else {
            0.0
        }
    }

}

/// The scalar of observation `j` of the objective-major values `ys`: this
/// round's ParEGO scalarization when there is one (`m > 1`), the one
/// objective's value otherwise. `buf` is scratch for the column.
fn scalar_at(scal: Option<&Scalarization>, ys: &[Vec<f64>], j: usize, buf: &mut Vec<f64>) -> f64 {
    match scal {
        None => ys[0][j],
        Some(s) => {
            buf.clear();
            buf.extend(ys.iter().map(|y| y[j]));
            s.scalarize(buf)
        }
    }
}

/// Everything one acquisition round needs to score candidates: the fitted
/// value model **per objective**, this round's scalarization (multi-objective
/// runs only), the optional feasibility classifier with its ε_f draw, the
/// noise-free incumbent and the (transformed) observed objective values.
///
/// Produced by [`Baco::fit_acquisition`]; consumed by the one pick loop
/// (`Baco::pick_round` in [`batch`]), which fantasizes each pick into the
/// models before the next, and conditioned on in-flight configurations by
/// the speculative drafts.
pub(crate) struct AcquisitionContext {
    /// One fitted value model per objective (a singleton for the classic
    /// single-objective loop).
    pub(crate) models: Vec<FittedModel>,
    /// This round's ParEGO weight draw; `None` on single-objective runs,
    /// which score by plain EI on the one objective.
    /// Drawn (and the RNG consumed) even when [`AcquisitionContext::ehvi`]
    /// does the scoring — it still powers active-set selection, the
    /// incumbent, and the fantasy-batch fallback.
    pub(crate) scalarization: Option<Scalarization>,
    /// The EHVI scorer of an [`MultiObjectiveStrategy::Ehvi`] round; `None`
    /// under ParEGO, on single-objective runs, for unsupported objective
    /// counts, and after the first pick of a fantasy batch (see
    /// [`AcquisitionContext::fantasize`]). When set, it replaces scalarized
    /// EI as the base acquisition.
    pub(crate) ehvi: Option<Ehvi>,
    classifier: Option<RandomForestClassifier>,
    epsilon_f: f64,
    /// Noise-free incumbent — in scalarized units when `scalarization` is
    /// set, in transformed objective units otherwise.
    incumbent: f64,
    guided_iter: usize,
    /// Transformed objective values of the feasible history, objective-major
    /// (liar values for constant-liar fantasies are statistics of these). On
    /// budgeted rounds these cover the *active set* only.
    pub(crate) ys: Vec<Vec<f64>>,
    /// The trust region of a budgeted round: candidate generation is biased
    /// into it (see [`crate::search::local_search_in`]). `None` whenever the
    /// round ran the exact, unbudgeted path.
    pub(crate) region: Option<TrustRegion>,
}

impl AcquisitionContext {
    /// The acquisition scorer over whole candidate slices. Candidate batches
    /// flow through each model's bulk posterior (one blocked triangular solve
    /// for the whole slice per objective) and the feasibility classifier's
    /// batch probability, and only then through the cheap per-candidate
    /// acquisition arithmetic. Multi-objective posteriors are
    /// scored whole by EHVI when this round carries a cell decomposition,
    /// and otherwise collapsed per candidate by this round's
    /// augmented-Chebyshev scalarization before the same EI machinery runs.
    pub(crate) fn score_batch<'a>(
        &'a self,
        space: &'a SearchSpace,
        prior: Option<&'a OptimumPrior>,
    ) -> impl FnMut(&[Configuration]) -> Vec<f64> + 'a {
        move |cfgs: &[Configuration]| -> Vec<f64> {
            let preds: Vec<Vec<(f64, f64)>> = self
                .models
                .iter()
                .map(|mo| mo.predict_batch(space, cfgs))
                .collect();
            let feasible = self.classifier.as_ref().map(|c| c.predict_proba_batch(space, cfgs));
            let m = self.models.len();
            let mut means = vec![0.0; m];
            let mut vars = vec![0.0; m];
            cfgs.iter()
                .enumerate()
                .map(|(j, cfg)| {
                    let ei = if let Some(e) = &self.ehvi {
                        for (k, p) in preds.iter().enumerate() {
                            means[k] = p[j].0;
                            vars[k] = p[j].1;
                        }
                        e.value(&means, &vars)
                    } else {
                        let (mean, var) = match &self.scalarization {
                            None => preds[0][j],
                            Some(s) => {
                                for (k, p) in preds.iter().enumerate() {
                                    means[k] = p[j].0;
                                    vars[k] = p[j].1;
                                }
                                (s.scalarize(&means), s.scalarize_variance(&vars))
                            }
                        };
                        expected_improvement(mean, var, self.incumbent)
                    };
                    let acq = match &feasible {
                        Some(p) => feasibility_weighted_ei(ei, p[j], self.epsilon_f),
                        None => ei,
                    };
                    match prior {
                        Some(prior) => prior.apply(acq, cfg, self.guided_iter),
                        None => acq,
                    }
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::ParamValue;
    use rand::SeedableRng;

    fn quadratic_space() -> SearchSpace {
        SearchSpace::builder()
            .integer("a", 0, 15)
            .integer("b", 0, 15)
            .build()
            .unwrap()
    }

    fn quadratic_bb() -> FnBlackBox<impl Fn(&Configuration) -> Evaluation> {
        FnBlackBox::new(|cfg: &Configuration| {
            let a = cfg.value("a").as_f64();
            let b = cfg.value("b").as_f64();
            Evaluation::feasible(1.0 + (a - 11.0).powi(2) + (b - 4.0).powi(2))
        })
    }

    #[test]
    fn finds_optimum_of_smooth_function() {
        let tuner = Baco::builder(quadratic_space())
            .budget(35)
            .doe_samples(8)
            .seed(42)
            .build()
            .unwrap();
        let report = tuner.run(&quadratic_bb()).unwrap();
        assert_eq!(report.len(), 35);
        let best = report.best_value().unwrap();
        assert!(best <= 3.0, "best {best}");
    }

    #[test]
    fn beats_pure_random_sampling_on_average() {
        let space = quadratic_space();
        let bb = quadratic_bb();
        let mut baco_total = 0.0;
        let mut rand_total = 0.0;
        for seed in 0..5 {
            let report = Baco::builder(space.clone())
                .budget(25)
                .doe_samples(6)
                .seed(seed)
                .build()
                .unwrap()
                .run(&bb)
                .unwrap();
            baco_total += report.best_value().unwrap();
            // Random baseline with the same budget.
            let mut rng = StdRng::seed_from_u64(seed + 1000);
            let mut best = f64::INFINITY;
            for _ in 0..25 {
                let cfg = space.sample_dense(&mut rng);
                if let Some(v) = bb.evaluate(&cfg).value() {
                    best = best.min(v);
                }
            }
            rand_total += best;
        }
        assert!(
            baco_total < rand_total,
            "BaCO {baco_total} should beat random {rand_total}"
        );
    }

    #[test]
    fn respects_known_constraints() {
        let space = SearchSpace::builder()
            .integer("a", 0, 15)
            .integer("b", 0, 15)
            .known_constraint("a % 4 == 0 && b <= a")
            .build()
            .unwrap();
        let bb = FnBlackBox::new(|cfg: &Configuration| {
            let a = cfg.value("a").as_i64();
            let b = cfg.value("b").as_i64();
            assert!(a % 4 == 0 && b <= a, "constraint violated: a={a} b={b}");
            Evaluation::feasible((a - b) as f64 + 1.0)
        });
        let report = Baco::builder(space)
            .budget(20)
            .doe_samples(5)
            .seed(1)
            .build()
            .unwrap()
            .run(&bb)
            .unwrap();
        assert!(report.best_value().unwrap() <= 2.0);
    }

    #[test]
    fn learns_hidden_constraints() {
        // Only a quarter of the space (x ≤ 7) evaluates successfully; the
        // optimum sits safely inside that region.
        let space = SearchSpace::builder()
            .integer("x", 0, 31)
            .integer("y", 0, 31)
            .build()
            .unwrap();
        let bb = FnBlackBox::new(|cfg: &Configuration| {
            let x = cfg.value("x").as_f64();
            let y = cfg.value("y").as_f64();
            if x > 7.0 {
                Evaluation::infeasible()
            } else {
                Evaluation::feasible(1.0 + (x - 4.0).powi(2) + (y - 20.0).powi(2))
            }
        });
        let report = Baco::builder(space)
            .budget(40)
            .doe_samples(10)
            .seed(3)
            .build()
            .unwrap()
            .run(&bb)
            .unwrap();
        let best = report.best_value().unwrap();
        assert!(best < 20.0, "best {best}");
        // The classifier should steer sampling well above the 25 % random
        // feasibility rate after the DoE phase.
        let post = &report.trials()[10..];
        let feas = post.iter().filter(|t| t.feasible).count();
        assert!(
            feas as f64 >= 0.4 * post.len() as f64,
            "feasible {}/{}",
            feas,
            post.len()
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let bb = quadratic_bb();
        let run = |seed: u64| {
            Baco::builder(quadratic_space())
                .budget(18)
                .doe_samples(5)
                .seed(seed)
                .build()
                .unwrap()
                .run(&bb)
                .unwrap()
                .trials()
                .iter()
                .map(|t| t.config.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    /// The tentpole guard: the production loop (persistent [`GpCache`],
    /// batched acquisition scoring) must propose exactly the configurations
    /// the naive reference loop (fresh cache every iteration, i.e. full
    /// from-scratch refits) proposes, for the same seed.
    #[test]
    fn cached_batched_run_matches_uncached_reference() {
        for (seed, hidden) in [(3u64, false), (9, true), (21, false)] {
            let space = quadratic_space();
            let bb = FnBlackBox::new(move |cfg: &Configuration| {
                let a = cfg.value("a").as_f64();
                let b = cfg.value("b").as_f64();
                if hidden && a + b > 24.0 {
                    Evaluation::infeasible()
                } else {
                    Evaluation::feasible(1.0 + (a - 11.0).powi(2) + (b - 4.0).powi(2))
                }
            });
            let tuner = Baco::builder(space)
                .budget(22)
                .doe_samples(6)
                .seed(seed)
                .build()
                .unwrap();

            // Production path.
            let cached = tuner.run(&bb).unwrap();

            // Reference path: identical loop, but every recommendation uses a
            // throwaway cache (= the historical fit-from-scratch behavior).
            let mut rng = StdRng::seed_from_u64(seed);
            let mut report = TuningReport::new("BaCO");
            let mut seen: HashSet<Configuration> = HashSet::new();
            let doe_n = tuner.options().doe_samples.min(tuner.options().budget);
            let evaluate = |cfg: Configuration,
                            report: &mut TuningReport,
                            seen: &mut HashSet<Configuration>| {
                let eval = bb.evaluate(&cfg);
                seen.insert(cfg.clone());
                report.push(Trial {
                    config: cfg,
                    value: eval.value(),
                    extra: Vec::new(),
                    feasible: eval.is_feasible(),
                    eval_time: Default::default(),
                    tuner_time: Default::default(),
                });
            };
            for cfg in tuner.sampler().sample_batch(&mut rng, doe_n, &seen) {
                evaluate(cfg, &mut report, &mut seen);
            }
            while report.len() < tuner.options().budget {
                let round = tuner.recommend_batch(&mut rng, &report, &seen, &mut tuner.new_cache(), 1);
                let Some(cfg) = round.unwrap().pop() else {
                    break;
                };
                evaluate(cfg, &mut report, &mut seen);
            }

            let a: Vec<_> = cached.trials().iter().map(|t| t.config.to_string()).collect();
            let b: Vec<_> = report.trials().iter().map(|t| t.config.to_string()).collect();
            assert_eq!(a, b, "seed {seed}, hidden {hidden}");
        }
    }

    #[test]
    fn zero_budget_rejected() {
        assert!(matches!(
            Baco::builder(quadratic_space()).budget(0).build(),
            Err(Error::InvalidConfig(_))
        ));
    }

    /// Every objective of a multi-objective round trains on the same points,
    /// so the cache holds one set of distance tables, not one per objective.
    #[test]
    fn multi_objective_round_keeps_one_table_set() {
        let tuner = Baco::builder(quadratic_space())
            .budget(20)
            .doe_samples(4)
            .objectives(2)
            .seed(5)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut report = TuningReport::new("mo");
        let seen: HashSet<Configuration> = HashSet::new();
        let n = 8;
        for cfg in tuner.sampler().sample_batch(&mut rng, n, &seen) {
            let a = cfg.value("a").as_f64();
            let b = cfg.value("b").as_f64();
            report.push(Trial {
                config: cfg,
                value: Some(1.0 + a),
                extra: vec![1.0 + b],
                feasible: true,
                eval_time: Default::default(),
                tuner_time: Default::default(),
            });
        }
        let seen: HashSet<Configuration> =
            report.trials().iter().map(|t| t.config.clone()).collect();
        let mut cache = tuner.new_cache();
        let round = tuner.recommend_batch(&mut rng, &report, &seen, &mut cache, 1).unwrap();
        assert_eq!(round.len(), 1);
        assert_eq!(cache.len(), n);
        let one_set = cache.d2().len() * n * n * std::mem::size_of::<f64>();
        assert!(one_set > 0);
        assert_eq!(cache.memory_bytes(), one_set);
    }

    #[test]
    fn budget_larger_than_space_terminates() {
        let space = SearchSpace::builder().integer("x", 0, 4).build().unwrap();
        let bb = FnBlackBox::new(|c: &Configuration| {
            Evaluation::feasible(c.value("x").as_f64() + 1.0)
        });
        let tuner = || {
            Baco::builder(space.clone())
                .budget(50)
                .doe_samples(3)
                .seed(0)
                .build()
                .unwrap()
        };
        let report = tuner().run(&bb).unwrap();
        // Only 5 configs exist.
        assert_eq!(report.len(), 5);
        assert_eq!(report.best_value(), Some(1.0));

        // The open loop stops the same way, whether it asks one at a time or
        // in rounds of 4: every configuration is proposed exactly once, then
        // nothing more is proposed although budget remains.
        for q in [1usize, 4] {
            let mut session = Session::new(tuner()).unwrap();
            let mut proposed: Vec<i64> = Vec::new();
            for _ in 0..20 {
                let round = if q == 1 {
                    session.ask().unwrap().into_iter().collect()
                } else {
                    session.suggest_batch(q).unwrap()
                };
                if round.is_empty() {
                    break;
                }
                assert!(round.len() <= q);
                for cfg in round {
                    proposed.push(cfg.value("x").as_i64());
                    let eval = bb.evaluate(&cfg);
                    session.try_report(cfg, eval).unwrap();
                }
            }
            proposed.sort_unstable();
            assert_eq!(proposed, [0, 1, 2, 3, 4], "q = {q}");
            assert_eq!(session.ask().unwrap(), None, "q = {q}");
            assert!(session.suggest_batch(4).unwrap().is_empty(), "q = {q}");
            assert_eq!(session.remaining_budget(), 45, "q = {q}");
            assert_eq!(session.history().best_value(), Some(1.0), "q = {q}");
        }
    }

    #[test]
    fn all_infeasible_run_is_graceful() {
        let space = quadratic_space();
        let bb = FnBlackBox::new(|_: &Configuration| Evaluation::infeasible());
        let report = Baco::builder(space)
            .budget(12)
            .doe_samples(4)
            .seed(2)
            .build()
            .unwrap()
            .run(&bb)
            .unwrap();
        assert_eq!(report.len(), 12);
        assert!(report.best().is_none());
        assert_eq!(report.feasible_fraction(), 0.0);
    }

    /// Regression for the objective-ingestion bugfix at the closed-loop
    /// entry point: a black box returning NaN/±inf "feasible" measurements
    /// can no longer poison the GP — the values are demoted to
    /// hidden-constraint failures and the run completes normally.
    #[test]
    fn closed_loops_demote_non_finite_measurements() {
        let bb = FnBlackBox::new(|cfg: &Configuration| {
            let a = cfg.value("a").as_f64();
            let b = cfg.value("b").as_f64();
            if a > 11.0 {
                // A NaN would survive the log transform as an impossibly
                // good observation if it ever reached the surrogate.
                Evaluation::feasible(f64::NAN)
            } else if b > 13.0 {
                Evaluation::feasible(f64::INFINITY)
            } else {
                Evaluation::feasible(1.0 + (a - 6.0).powi(2) + (b - 6.0).powi(2))
            }
        });
        for batched in [false, true] {
            let tuner = Baco::builder(quadratic_space())
                .budget(24)
                .doe_samples(6)
                .batch_size(if batched { 4 } else { 1 })
                .seed(8)
                .build()
                .unwrap();
            let report = if batched {
                tuner.run_batched(&bb).unwrap()
            } else {
                tuner.run(&bb).unwrap()
            };
            assert_eq!(report.len(), 24, "batched={batched}");
            for t in report.trials() {
                if t.feasible {
                    assert!(t.value.unwrap().is_finite(), "batched={batched}");
                }
            }
            assert!(
                report.trials().iter().any(|t| !t.feasible),
                "the non-finite region must be recorded as infeasible"
            );
            let best = report.best_value().unwrap();
            assert!(best.is_finite() && best >= 1.0, "batched={batched}: {best}");
        }
    }

    /// `run` contains black-box panics like every other closed loop: the
    /// panicking configuration becomes an infeasible trial and the run
    /// finishes its budget. The black box counts its calls in a `Cell`, so
    /// it is not `Sync` — the inline pool must not need it to be.
    #[test]
    fn run_records_a_panicking_evaluation_as_infeasible() {
        let calls = std::cell::Cell::new(0usize);
        let bb = FnBlackBox::new(|cfg: &Configuration| {
            calls.set(calls.get() + 1);
            let x = cfg.value("x").as_i64();
            if x == 5 {
                panic!("deliberate black-box crash at x={x}");
            }
            Evaluation::feasible(1.0 + (x - 9) as f64 * (x - 9) as f64)
        });
        let space = SearchSpace::builder().integer("x", 0, 15).build().unwrap();
        // The budget covers the whole space, so x = 5 is certainly proposed.
        let tuner = Baco::builder(space).budget(16).doe_samples(4).seed(2).build().unwrap();
        let report = tuner.run(&bb).unwrap();
        assert_eq!(report.len(), 16);
        assert_eq!(calls.get(), 16);
        for t in report.trials() {
            let x = t.config.value("x").as_i64();
            assert_eq!(t.feasible, x != 5, "x={x}");
        }
        assert_eq!(report.best_value(), Some(1.0));
    }

    #[test]
    fn rf_surrogate_mode_works() {
        let report = Baco::builder(quadratic_space())
            .budget(25)
            .doe_samples(8)
            .seed(5)
            .surrogate(SurrogateKind::RandomForest)
            .build()
            .unwrap()
            .run(&quadratic_bb())
            .unwrap();
        assert!(report.best_value().unwrap() < 60.0);
    }

    #[test]
    fn tuning_with_permutation_parameter() {
        // Objective prefers element 2 early and element 0 late.
        let space = SearchSpace::builder()
            .permutation("ord", 4)
            .ordinal_log("tile", vec![1.0, 2.0, 4.0, 8.0])
            .build()
            .unwrap();
        let bb = FnBlackBox::new(|cfg: &Configuration| {
            let p = cfg.value("ord");
            let p = p.as_permutation();
            let pos2 = p.iter().position(|&e| e == 2).unwrap() as f64;
            let pos0 = p.iter().position(|&e| e == 0).unwrap() as f64;
            let t = cfg.value("tile").as_f64();
            Evaluation::feasible(1.0 + pos2 + (3.0 - pos0) + (t.log2() - 2.0).abs())
        });
        let report = Baco::builder(space)
            .budget(40)
            .doe_samples(10)
            .seed(11)
            .build()
            .unwrap()
            .run(&bb)
            .unwrap();
        // Global optimum: ord = [2,*,*,0] with tile = 4 → value 1.0.
        let best = report.best_value().unwrap();
        assert!(best <= 2.0, "best {best}");
    }

    #[test]
    fn optimum_prior_accelerates_convergence() {
        use crate::acquisition::OptimumPrior;
        // A needle at (14, 2) in a flat landscape: with a tiny budget the
        // prior-guided run should find better values than the blind run.
        let space = quadratic_space();
        let bb = FnBlackBox::new(|cfg: &Configuration| {
            let a = cfg.value("a").as_f64();
            let b = cfg.value("b").as_f64();
            Evaluation::feasible(1.0 + ((a - 14.0).abs() + (b - 2.0).abs()).min(6.0))
        });
        let run = |prior: Option<OptimumPrior>, seed| {
            let mut builder = Baco::builder(quadratic_space())
                .budget(16)
                .doe_samples(5)
                .seed(seed);
            if let Some(p) = prior {
                builder = builder.optimum_prior(p);
            }
            builder.build().unwrap().run(&bb).unwrap().best_value().unwrap()
        };
        let _ = &space;
        let mut with = 0.0;
        let mut without = 0.0;
        for seed in 0..4 {
            with += run(
                Some(OptimumPrior::new(|c: &Configuration| {
                    let a = c.value("a").as_f64();
                    let b = c.value("b").as_f64();
                    (-((a - 14.0).powi(2) + (b - 2.0).powi(2)) / 8.0).exp()
                })),
                seed,
            );
            without += run(None, seed);
        }
        assert!(with <= without, "prior {with} vs blind {without}");
    }

    /// A benchmark with a clean latency-vs-cost trade-off: the tuner must
    /// populate a multi-point Pareto front, deterministically per seed, and
    /// the 1-vector black box must reproduce the scalar black box bit for
    /// bit (the single-objective API preserved as the 1-vector case).
    #[test]
    fn multi_objective_run_builds_a_pareto_front() {
        let bb = FnBlackBox::new(|cfg: &Configuration| {
            let a = cfg.value("a").as_f64();
            let b = cfg.value("b").as_f64();
            // Objective 0 falls with a; objective 1 rises with a: every a is
            // Pareto-optimal at its best b.
            let t = 1.0 + (15.0 - a) + (b - 7.0).powi(2) * 0.2;
            let area = 1.0 + a * 2.0 + (b - 7.0).abs() * 0.1;
            Evaluation::feasible_multi(vec![t, area])
        });
        let run = || {
            Baco::builder(quadratic_space())
                .budget(30)
                .doe_samples(8)
                .seed(5)
                .objectives(2)
                .reference_point(vec![25.0, 40.0])
                .build()
                .unwrap()
                .run(&bb)
                .unwrap()
        };
        let report = run();
        assert_eq!(report.len(), 30);
        assert_eq!(report.n_objectives(), 2);
        let front = report.pareto_front();
        assert!(front.len() >= 3, "front of {} points", front.len());
        // Front points are mutually non-dominated.
        for x in &front {
            for y in &front {
                let (xo, yo) = (x.objectives().unwrap(), y.objectives().unwrap());
                assert!(
                    std::ptr::eq(*x, *y)
                        || xo.iter().zip(&yo).any(|(a, b)| a > b),
                    "dominated point on the front"
                );
            }
        }
        let hv = report.hypervolume_vs_ref().unwrap();
        assert!(hv > 0.0);
        // Deterministic under the seed, including the journaled weight draws.
        let again = run();
        let sig = |r: &TuningReport| {
            r.trials()
                .iter()
                .map(|t| (t.config.to_string(), t.objectives().map(|o| o.iter().map(|v| v.to_bits()).collect::<Vec<_>>())))
                .collect::<Vec<_>>()
        };
        assert_eq!(sig(&report), sig(&again));
    }

    #[test]
    fn value_of_default_configuration() {
        let cfg = quadratic_space().default_configuration();
        assert_eq!(cfg.value("a"), ParamValue::Int(0));
    }
}
