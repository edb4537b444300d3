//! Concurrent black-box evaluation: the [`pool`] every closed tuning loop
//! evaluates its proposals on.
//!
//! The tuner side of BaCO is CPU-bound and deterministic; the *evaluation*
//! side (compile + run a candidate schedule) is slow, often blocking, and
//! embarrassingly parallel across candidates. This module owns that side:
//! [`pool::with_pool`] keeps worker threads alive for a whole run and hands
//! results back to the caller **in completion order**, so the tuning loop
//! can fold fast evaluations into its model while slow ones are still
//! running.
//!
//! ```
//! use baco::eval::pool::with_pool;
//! use baco::prelude::*;
//!
//! let space = SearchSpace::builder().integer("x", 0, 7).build()?;
//! let bb = FnBlackBox::new(|c: &Configuration| {
//!     Evaluation::feasible(c.value("x").as_f64())
//! });
//! let mut values = with_pool(&bb, 2, 4, |pool| {
//!     for ticket in 0..4 {
//!         pool.submit(ticket, space.default_configuration());
//!     }
//!     std::iter::from_fn(|| pool.recv())
//!         .map(|done| (done.ticket, done.evaluation.value()))
//!         .collect::<Vec<_>>()
//! });
//! values.sort_by_key(|&(ticket, _)| ticket); // completion order → submission order
//! assert_eq!(values.len(), 4);
//! assert!(values.iter().all(|&(_, v)| v == Some(0.0)));
//! # Ok::<(), baco::Error>(())
//! ```

pub mod pool;

pub use pool::{with_pool, Completion, EvalPool};
