//! # BaCO — Bayesian Compiler Optimization
//!
//! A from-scratch Rust implementation of the BaCO autotuner
//! (Hellsten et al., *BaCO: A Fast and Portable Bayesian Compiler Optimization
//! Framework*, ASPLOS 2023). BaCO tunes black-box objective functions — most
//! prominently compiler scheduling decisions — over mixed search spaces with
//! real, integer, ordinal, categorical and **permutation** parameters, subject
//! to both *known* constraints (declared up front, handled with a
//! Chain-of-Trees) and *hidden* constraints (learned online with a
//! random-forest feasibility classifier).
//!
//! ## Quickstart
//!
//! ```
//! use baco::prelude::*;
//!
//! // 1. Declare the search space.
//! let space = SearchSpace::builder()
//!     .ordinal("tile", vec![1.0, 2.0, 4.0, 8.0, 16.0])
//!     .integer("unroll", 1, 4)
//!     .categorical("par", vec!["seq", "par"])
//!     .known_constraint("tile >= unroll")
//!     .build()?;
//!
//! // 2. Wrap the thing to optimize as a `BlackBox`.
//! let f = FnBlackBox::new(|cfg: &Configuration| {
//!     let tile = cfg.value("tile").as_f64();
//!     let unroll = cfg.value("unroll").as_f64();
//!     let par = cfg.value("par");
//!     let t = (tile - 8.0).powi(2) + (unroll - 3.0).powi(2)
//!         + if par.as_str() == "par" { 0.0 } else { 5.0 };
//!     Evaluation::feasible(t)
//! });
//!
//! // 3. Tune.
//! let report = Baco::builder(space)
//!     .budget(30)
//!     .doe_samples(8)
//!     .seed(7)
//!     .build()?
//!     .run(&f)?;
//! assert!(report.best().is_some());
//! # Ok::<(), baco::Error>(())
//! ```
//!
//! ## Batched tuning
//!
//! Sequential propose–evaluate–refit is the paper's loop; for concurrent
//! evaluation backends the batched engine proposes `q` configurations per
//! round via fantasy-model EI and keeps them all in flight:
//!
//! ```
//! use baco::prelude::*;
//! # let space = SearchSpace::builder().integer("x", 0, 15).integer("y", 0, 15).build()?;
//! # let f = FnBlackBox::new(|cfg: &Configuration| {
//! #     Evaluation::feasible((cfg.value("x").as_f64() - 11.0).powi(2))
//! # });
//! let report = Baco::builder(space)
//!     .budget(24)
//!     .batch_size(4) // 4 proposals per round, evaluated on a worker pool
//!     .seed(7)
//!     .build()?
//!     .run_batched(&f)?;
//! # assert_eq!(report.len(), 24);
//! # Ok::<(), baco::Error>(())
//! ```
//!
//! See [`tuner::batch`] for the proposal strategies, [`eval::pool`] for the
//! worker pool, and [`tuner::Session::suggest_batch`] for driving the round
//! trip yourself (results may be reported out of order).
//!
//! ## Crate layout
//!
//! * [`space`] — parameter types (RIPOC), transforms, [`space::SearchSpace`].
//! * [`constraints`] — the known-constraint expression language.
//! * [`cot`] — the Chain-of-Trees over feasible configurations.
//! * [`surrogate`] — Gaussian-process and random-forest predictive models.
//! * [`acquisition`] — noise-free Expected Improvement with feasibility
//!   weighting.
//! * [`search`] — design-of-experiments and multi-start local search.
//! * [`tuner`] — the BaCO recommendation/evaluation loop; [`tuner::batch`]
//!   adds q-point fantasy-EI proposals.
//! * [`eval`] — the concurrent black-box evaluation pool.
//! * [`journal`] — crash-safe JSONL run journaling and bitwise-exact resume
//!   (see `BacoOptions::journal_path` / `resume`).
//! * [`server`] — the multi-tenant tuning daemon: a sharded registry of
//!   named journaled sessions behind a JSONL wire protocol (in-process,
//!   TCP, and `baco-cli serve`/`client` front ends).
//! * [`baselines`] — ATF (OpenTuner-like), Ytopt-like, uniform and CoT
//!   random-sampling baselines used in the paper's evaluation.
//! * [`linalg`], [`opt`] — supporting numerics (Cholesky, L-BFGS).

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod acquisition;
pub mod baselines;
pub mod benchmark;
pub mod constraints;
pub mod cot;
mod error;
pub mod eval;
pub mod journal;
pub mod linalg;
pub mod opt;
pub mod search;
pub mod server;
pub mod space;
pub mod surrogate;
pub mod tuner;

pub use error::{Error, Result};
pub use space::{Configuration, ParamValue, SearchSpace};
pub use tuner::{
    Baco, BacoBuilder, BlackBox, Evaluation, FnBlackBox, MultiObjectiveStrategy, TuningReport,
};

/// Convenience re-exports for typical use.
pub mod prelude {
    /// The reference tuners swept by the experiment harness.
    pub use crate::baselines::{AtfTuner, CotSampler, Tuner, UniformSampler, YtoptTuner};
    /// Search-space declaration and configuration values.
    pub use crate::space::{Configuration, ParamValue, SearchSpace, SearchSpaceBuilder};
    /// The BaCO tuner: builder, black-box adapter, batching knobs and the
    /// incremental ask/report session.
    pub use crate::tuner::{
        Baco, BacoBuilder, BlackBox, Evaluation, FantasyStrategy, FnBlackBox, LiarValue,
        MultiObjectiveStrategy, Session, TuningReport,
    };
    /// The crate-wide error type.
    pub use crate::Error;
}
