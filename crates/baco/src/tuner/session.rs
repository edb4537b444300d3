//! The ask–tell interface: incremental tuning for callers who own the
//! evaluation loop (build farms, CI systems, interactive tools) instead of
//! handing BaCO a [`BlackBox`](crate::tuner::BlackBox) closure.
//!
//! ```
//! use baco::prelude::*;
//! use baco::tuner::Session;
//!
//! let space = SearchSpace::builder().integer("x", 0, 15).build()?;
//! let mut session = Session::new(Baco::builder(space).budget(12).seed(1).build()?)?;
//! while let Some(cfg) = session.ask()? {
//!     let x = cfg.value("x").as_f64();
//!     session.try_report(cfg, Evaluation::feasible((x - 11.0).powi(2)))?;
//! }
//! assert_eq!(session.history().best().unwrap().config.value("x").as_i64(), 11);
//! # Ok::<(), baco::Error>(())
//! ```
//!
//! For concurrent evaluation backends, [`Session::suggest_batch`] hands out a
//! whole round of distinct proposals at once; [`Session::try_report`]
//! accepts their results **in any order** — neither call blocks on an
//! evaluation:
//!
//! ```
//! use baco::prelude::*;
//! use baco::tuner::Session;
//!
//! let space = SearchSpace::builder().integer("x", 0, 15).build()?;
//! let tuner = Baco::builder(space).budget(12).seed(1).build()?;
//! let mut session = Session::new(tuner)?;
//! loop {
//!     let round = session.suggest_batch(4)?;
//!     if round.is_empty() {
//!         break;
//!     }
//!     // Dispatch `round` to workers; results may come back out of order.
//!     for cfg in round.into_iter().rev() {
//!         let x = cfg.value("x").as_f64();
//!         session.try_report(cfg, Evaluation::feasible((x - 3.0).powi(2)))?;
//!     }
//! }
//! assert_eq!(session.history().len(), 12);
//! # Ok::<(), baco::Error>(())
//! ```

use super::speculate::Engine;
use super::{Baco, Evaluation, Trial, TuningReport};
use crate::journal::Mode;
use crate::space::Configuration;
use crate::{Error, Result};
use rand::rngs::StdRng;
use std::borrow::Cow;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// An incremental tuning session around a configured [`Baco`] tuner.
///
/// Call [`Session::ask`] (or [`Session::suggest_batch`] for a round of `q`
/// proposals) for configurations to evaluate and [`Session::try_report`]
/// with each result as it arrives — out-of-order reporting across a batch
/// is fully supported. Every error comes back from the call that caused
/// it. `ask` returns `None` (and `suggest_batch` an empty round) once the
/// budget is exhausted or the feasible set has been fully evaluated.
///
/// The session is an open-loop driver over the same engine state as the
/// closed loops ([`crate::tuner::speculate`]): proposals are that engine's
/// journaled rounds, and reports land through its one trial path. What is
/// the session's own is the DoE, drawn up front and handed out per call,
/// and the rollback resume ([`Session::new`]).
#[derive(Debug)]
pub struct Session {
    tuner: Baco,
    /// History, RNG stream, surrogate cache, pending rounds and journal.
    engine: Engine,
    /// Pre-drawn DoE configurations still to hand out.
    doe_queue: Vec<Configuration>,
    /// Per-proposal share of the last ask/suggest round's think time
    /// (recorded as each trial's `tuner_time`).
    last_think: Duration,
    /// When the last ask/suggest round finished proposing; evaluation time
    /// never starts before this.
    think_end: Option<Instant>,
    /// When the most recent result was reported; wall-clock attribution for
    /// a batch reported sequentially starts each trial's `eval_time` at the
    /// previous report instead of double-counting earlier evaluations.
    last_report: Option<Instant>,
}

impl Session {
    /// Starts a session; draws the initial-phase configurations up front.
    ///
    /// With [`BacoOptions::journal_path`](super::BacoOptions::journal_path)
    /// set, proposals and reports are durably journaled. With
    /// [`BacoOptions::resume`](super::BacoOptions::resume) also set and a
    /// journal already on disk, the session resumes from it instead: the
    /// reported history, the RNG stream and the remaining DoE queue are
    /// reconstructed exactly.
    ///
    /// Proposals that were in flight at the crash are *not* kept pending —
    /// the evaluations are gone. Designed (DoE-phase) casualties return to
    /// the front of the DoE queue so no designed sample is lost; model-phase
    /// casualties are simply dropped (the model will re-derive anything
    /// still worth trying). Trailing rounds with **no** reported result are
    /// rolled back RNG-and-all, as if never proposed — which is what makes a
    /// resumed strictly-sequential ask/report driver reproduce the
    /// uninterrupted trajectory bit for bit from any interruption point.
    ///
    /// # Errors
    /// Journal creation/load failures ([`Error::Io`]), and
    /// [`Error::JournalCorrupt`] on undecodable or envelope-mismatched
    /// journals.
    pub fn new(tuner: Baco) -> Result<Self> {
        // The rollback: every reported trial lands, trailing rounds with no
        // reported configuration are dropped, and the RNG continues from the
        // last kept round.
        let mut kept_rng = None;
        let mut engine = tuner.start_engine(Mode::Session, |journal, e| {
            for tr in &journal.trials {
                e.record(tr.to_trial())?;
            }
            kept_rng = journal
                .proposes
                .iter()
                .rfind(|p| p.configs.is_empty() || p.configs.iter().any(|c| e.seen.contains(c)))
                .map(|p| p.rng_after);
            Ok(())
        })?;
        // The DoE is drawn from the seed up front, and redrawn on resume;
        // what has a reported outcome is left out, so in-flight DoE
        // casualties return to the queue in draw order.
        let doe_n = tuner.options().doe_samples.min(tuner.options().budget);
        let initial = tuner.sampler().sample_batch(&mut engine.rng, doe_n, &HashSet::new());
        let mut doe_queue: Vec<Configuration> = tuner
            .transfer_rerank(initial)
            .into_iter()
            .filter(|c| !engine.seen.contains(c))
            .collect();
        doe_queue.reverse(); // pop() hands them out in draw order
        if let Some(state) = kept_rng {
            engine.rng = StdRng::from_state(state);
        }
        Ok(Session {
            tuner,
            engine,
            doe_queue,
            last_think: Duration::ZERO,
            think_end: None,
            last_report: None,
        })
    }

    /// The tuning history so far.
    pub fn history(&self) -> &TuningReport {
        &self.engine.report
    }

    /// Whether the session's journal closed after a failed append: every
    /// later proposal and report then fails [`Error::Io`] until the session
    /// is resumed from the journal (a [`Session::new`] with `resume` set).
    pub fn journal_closed(&self) -> bool {
        self.engine.closed_writer().is_some()
    }

    /// The tuner this session drives (space, options, sampler).
    pub fn tuner(&self) -> &Baco {
        &self.tuner
    }

    /// Configurations handed out by [`Session::ask`] /
    /// [`Session::suggest_batch`] whose results have not been reported yet,
    /// in proposal order (a copy of the engine's pending round entries).
    pub fn pending(&self) -> Vec<Configuration> {
        self.engine.pending().cloned().collect()
    }

    /// Evaluations still allowed by the budget (told + pending count
    /// against it).
    pub fn remaining_budget(&self) -> usize {
        let used = self.engine.report.len() + self.engine.pending().count();
        self.tuner.options().budget.saturating_sub(used)
    }

    /// Recommends the next configuration, or `None` when the budget is
    /// exhausted or no unevaluated feasible configuration remains.
    ///
    /// # Errors
    /// Propagates surrogate-fitting failures and journal-append failures.
    pub fn ask(&mut self) -> Result<Option<Configuration>> {
        Ok(self.suggest_batch(1)?.pop())
    }

    /// Recommends a round of up to `q` **distinct** configurations to
    /// evaluate concurrently, without blocking on any evaluation. Proposals
    /// are drawn from the remaining DoE queue first, then from the batched
    /// fantasy-EI proposer ([`Baco::recommend_batch`]); all of them count as
    /// pending against the budget until reported.
    ///
    /// Returns fewer than `q` when the budget or the feasible set is nearly
    /// exhausted, and an empty round when nothing is left.
    /// [`Session::ask`] is `suggest_batch(1)`, so a q=1 driver reproduces
    /// the sequential loop exactly.
    ///
    /// # Errors
    /// Propagates surrogate-fitting failures and journal-append failures.
    /// Once the journal has closed ([`Session::journal_closed`]) a
    /// non-empty round fails [`Error::Io`] up front, leaving the RNG
    /// stream, the DoE queue and the pending set untouched.
    pub fn suggest_batch(&mut self, q: usize) -> Result<Vec<Configuration>> {
        let q = q.min(self.remaining_budget());
        if q == 0 {
            return Ok(Vec::new());
        }
        // A closed journal would refuse the round's propose record: fail
        // before drawing from the DoE queue, the RNG or the models.
        if let Some(w) = self.engine.closed_writer() {
            return Err(w.closed_error());
        }
        let t0 = Instant::now();
        let e = &mut self.engine;
        let rng_before = e.rng.state();
        let doe_k = q.min(self.doe_queue.len());
        let mut round: Vec<Configuration> =
            self.doe_queue.drain(self.doe_queue.len() - doe_k..).rev().collect();
        if round.len() < q {
            // DoE picks handed out in this same round are excluded too; an
            // `ask` after the DoE borrows the seen set instead of copying it.
            let mut excluded = Cow::Borrowed(&e.seen);
            if !round.is_empty() {
                excluded.to_mut().extend(round.iter().cloned());
            }
            let want = q - round.len();
            match self.tuner.recommend_batch(&mut e.rng, &e.report, &excluded, &mut e.cache, want) {
                Ok(more) => round.extend(more),
                Err(err) => {
                    // Return the drawn DoE configurations to the queue (in
                    // their original order) so a caller that recovers from
                    // the error does not silently lose designed samples.
                    self.doe_queue.extend(round.into_iter().rev());
                    return Err(err);
                }
            }
        }
        // Attribute the round's proposal cost evenly across its trials, as
        // the closed batched loop does.
        self.last_think = t0.elapsed() / round.len().max(1) as u32;
        self.think_end = Some(Instant::now());
        self.last_report = None;
        if !round.is_empty() {
            e.append_propose(doe_k, rng_before, self.last_think, &round, Vec::new())?;
        }
        Ok(round)
    }

    /// Reports the outcome of evaluating `cfg` (which should have come from
    /// [`Session::ask`] or [`Session::suggest_batch`]; foreign
    /// configurations are accepted and simply added to the history).
    ///
    /// Never blocks, and accepts the results of a batch **in any order** —
    /// the pending set tracks what is still in flight, and the incremental
    /// surrogate cache absorbs new observations in whatever order they land.
    ///
    /// The objective-ingestion guard fails typed: a feasible evaluation is
    /// **rejected** — nothing is recorded, the configuration stays pending
    /// and the session carries on as if the call never happened — when it
    /// carries a NaN/±inf objective ([`Error::NonFiniteObjective`]; it would
    /// survive the log transform as an impossibly good observation and
    /// poison the surrogate) or the wrong number of objectives
    /// ([`Error::ObjectiveCountMismatch`]; a mixed-width history corrupts
    /// Pareto-front bookkeeping while staying invisible to the
    /// per-objective models). Callers that measured a failure should report
    /// [`Evaluation::infeasible`].
    ///
    /// With journaling enabled, an accepted trial is durably appended before
    /// this returns. When that append fails the trial **stays** in
    /// [`Session::history`] — only its durable record is missing — and the
    /// failure is returned here; the journal then refuses every later
    /// append, so the session fails typed until it is resumed from the
    /// acknowledged prefix ([`Session::new`] with `resume` set).
    ///
    /// # Errors
    /// [`Error::NonFiniteObjective`] / [`Error::ObjectiveCountMismatch`] as
    /// above (nothing recorded); [`Error::Io`] when the journal append
    /// failed (trial recorded in memory only).
    pub fn try_report(&mut self, cfg: Configuration, eval: Evaluation) -> Result<()> {
        if eval.is_feasible() {
            let expected = self.tuner.options().objectives;
            if eval.n_objectives() != expected {
                return Err(Error::ObjectiveCountMismatch {
                    got: eval.n_objectives(),
                    expected,
                });
            }
            if !eval.is_finite() {
                return Err(Error::NonFiniteObjective(format!(
                    "reported value {eval} for {cfg}; report Evaluation::infeasible() for failed \
                     measurements"
                )));
            }
        }
        // Each trial's eval_time spans from the later of "thinking finished"
        // and "previous result reported" to now, so a batch reported
        // sequentially sums to the round's wall time instead of
        // quadratically double-counting earlier evaluations.
        let now = Instant::now();
        let eval_start = self.think_end.max(self.last_report).unwrap_or(now);
        self.last_report = Some(now);
        self.engine.record(Trial {
            config: cfg,
            value: eval.value(),
            extra: eval.extra_objectives(),
            feasible: eval.is_feasible(),
            eval_time: now.saturating_duration_since(eval_start),
            tuner_time: self.last_think,
        })
    }

    /// Consumes the session, returning the final report.
    pub fn into_report(self) -> TuningReport {
        self.engine.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Journal;
    use crate::space::{ParamValue, SearchSpace};

    fn space() -> SearchSpace {
        SearchSpace::builder()
            .integer("a", 0, 15)
            .integer("b", 0, 15)
            .build()
            .unwrap()
    }

    #[test]
    fn ask_tell_loop_matches_budget_and_optimizes() {
        let tuner = Baco::builder(space())
            .budget(25)
            .doe_samples(6)
            .seed(3)
            .build()
            .unwrap();
        let mut s = Session::new(tuner).unwrap();
        let mut n = 0;
        while let Some(cfg) = s.ask().unwrap() {
            let a = cfg.value("a").as_f64();
            let b = cfg.value("b").as_f64();
            let v = 1.0 + (a - 3.0).powi(2) + (b - 13.0).powi(2);
            s.try_report(cfg, Evaluation::feasible(v)).unwrap();
            n += 1;
        }
        assert_eq!(n, 25);
        let report = s.into_report();
        assert_eq!(report.len(), 25);
        assert!(report.best_value().unwrap() <= 5.0, "{:?}", report.best_value());
    }

    #[test]
    fn session_never_repeats_configurations() {
        let tuner = Baco::builder(space()).budget(30).doe_samples(8).seed(5).build().unwrap();
        let mut s = Session::new(tuner).unwrap();
        let mut seen = HashSet::new();
        while let Some(cfg) = s.ask().unwrap() {
            assert!(seen.insert(cfg.clone()), "repeated {cfg}");
            s.try_report(cfg, Evaluation::feasible(1.0)).unwrap();
        }
    }

    #[test]
    fn tell_accepts_foreign_configurations() {
        let sp = space();
        let tuner = Baco::builder(sp.clone()).budget(10).doe_samples(2).seed(1).build().unwrap();
        let mut s = Session::new(tuner).unwrap();
        let foreign = sp
            .configuration(&[("a", ParamValue::Int(7)), ("b", ParamValue::Int(7))])
            .unwrap();
        s.try_report(foreign, Evaluation::feasible(0.5)).unwrap();
        assert_eq!(s.history().len(), 1);
        assert_eq!(s.history().best_value(), Some(0.5));
        // The budget accounts for the told evaluation.
        assert_eq!(s.remaining_budget(), 9);
    }

    #[test]
    fn infeasible_tells_feed_the_classifier() {
        let tuner = Baco::builder(space()).budget(20).doe_samples(5).seed(2).build().unwrap();
        let mut s = Session::new(tuner).unwrap();
        while let Some(cfg) = s.ask().unwrap() {
            let a = cfg.value("a").as_i64();
            if a > 7 {
                s.try_report(cfg, Evaluation::infeasible()).unwrap();
            } else {
                s.try_report(cfg, Evaluation::feasible(1.0 + (7 - a) as f64)).unwrap();
            }
        }
        let r = s.into_report();
        assert_eq!(r.len(), 20);
        assert!(r.best_value().unwrap() <= 3.0);
    }

    /// Regression for the objective-ingestion bugfix: a NaN/±inf "feasible"
    /// measurement injected through the in-process session must be rejected
    /// with a typed error instead of entering the surrogate — and a rejected
    /// report leaves no trace: the next `ask` succeeds and the run goes on
    /// exactly as in a session that never saw it, journal included.
    #[test]
    fn non_finite_reports_are_rejected_with_a_typed_error() {
        let dir = std::env::temp_dir().join(format!("baco-session-nan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.jsonl");
        let builder = || Baco::builder(space()).budget(10).doe_samples(3).seed(6);
        let tuner = |resume: bool| builder().journal_path(&path).resume(resume).build().unwrap();
        let mut s = Session::new(tuner(false)).unwrap();
        let cfg = s.ask().unwrap().unwrap();

        // try_report: immediate typed rejection, nothing recorded, the
        // proposal stays pending for a corrected report.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = s.try_report(cfg.clone(), Evaluation::feasible(bad)).unwrap_err();
            assert!(matches!(err, crate::Error::NonFiniteObjective(_)), "{bad}: {err}");
        }
        // A 2-vector on this single-objective session trips the width guard
        // (checked before finiteness).
        let err = s
            .try_report(cfg.clone(), Evaluation::feasible_multi(vec![1.0, f64::NAN]))
            .unwrap_err();
        assert!(matches!(
            err,
            crate::Error::ObjectiveCountMismatch { got: 2, expected: 1 }
        ));
        assert!(s.history().is_empty(), "rejected reports must not enter the history");
        assert_eq!(s.pending(), vec![cfg.clone()]);

        // Every later ask succeeds and proposes what a session that never
        // saw a rejected report proposes, whether the rejection came in the
        // DoE phase (above) or the model phase (each round below). An
        // explicitly infeasible report is the sanctioned way to record a
        // failed measurement.
        let mut clean = Session::new(builder().build().unwrap()).unwrap();
        let mut next = Some(cfg);
        while let Some(c) = next {
            assert_eq!(clean.ask().unwrap().as_ref(), Some(&c));
            let n = s.history().len();
            if n >= 3 {
                let err = s.try_report(c.clone(), Evaluation::feasible(f64::NAN)).unwrap_err();
                assert!(matches!(err, crate::Error::NonFiniteObjective(_)), "{err}");
            }
            let eval = if n == 5 {
                Evaluation::infeasible()
            } else {
                Evaluation::feasible(1.0 + n as f64)
            };
            s.try_report(c.clone(), eval.clone()).unwrap();
            clean.try_report(c, eval).unwrap();
            next = s.ask().unwrap();
        }
        assert_eq!(clean.ask().unwrap(), None);
        assert_eq!(s.history().len(), 10);

        // Every landed report reached the journal, which loads and resumes.
        let sig = |r: &TuningReport| {
            r.trials()
                .iter()
                .map(|t| (t.config.to_string(), t.value.map(f64::to_bits), t.feasible))
                .collect::<Vec<_>>()
        };
        let journal = Journal::load(&path, &space()).unwrap();
        assert_eq!(journal.trials.len(), s.history().len());
        let resumed = Session::new(tuner(true)).unwrap();
        assert_eq!(sig(resumed.history()), sig(s.history()));
        assert_eq!(sig(clean.history()), sig(s.history()));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The width guard lives in the core too: reporting the wrong number of
    /// objectives through the in-process session is a typed rejection, not a
    /// silent Pareto-front squatter.
    #[test]
    fn wrong_objective_count_reports_are_rejected() {
        let tuner = Baco::builder(space())
            .budget(8)
            .doe_samples(3)
            .seed(4)
            .objectives(2)
            .build()
            .unwrap();
        let mut s = Session::new(tuner).unwrap();
        let cfg = s.ask().unwrap().unwrap();
        for bad in [
            Evaluation::feasible(1.0),
            Evaluation::feasible_multi(vec![1.0, 2.0, 3.0]),
        ] {
            let err = s.try_report(cfg.clone(), bad).unwrap_err();
            assert!(
                matches!(err, crate::Error::ObjectiveCountMismatch { expected: 2, .. }),
                "{err}"
            );
        }
        // A right-width vector with a NaN component trips the finiteness
        // guard instead.
        let err = s
            .try_report(cfg.clone(), Evaluation::feasible_multi(vec![1.0, f64::NAN]))
            .unwrap_err();
        assert!(matches!(err, crate::Error::NonFiniteObjective(_)), "{err}");
        assert!(s.history().is_empty());
        assert_eq!(s.pending(), vec![cfg.clone()]);
        // The right width goes through; infeasible reports carry no vector
        // and are always accepted.
        s.try_report(cfg, Evaluation::feasible_multi(vec![1.0, 2.0])).unwrap();
        let cfg2 = s.ask().unwrap().unwrap();
        s.try_report(cfg2, Evaluation::infeasible()).unwrap();
        assert_eq!(s.history().len(), 2);
    }

    /// A journal append that fails (a short write or a failed fdatasync)
    /// is returned by the `try_report` that caused it; the file is cut back
    /// to the acknowledged records, every later append fails typed, and a
    /// resume continues from the acknowledged prefix exactly as an
    /// uninterrupted session would.
    #[test]
    fn failed_journal_append_fails_typed_until_resumed() {
        use crate::journal::fault::{self, Fault};
        let obj = |c: &Configuration| {
            let a = c.value("a").as_f64();
            let b = c.value("b").as_f64();
            1.0 + (a - 5.0).powi(2) + (b - 9.0).powi(2)
        };
        let tuner = |path: &std::path::Path, resume: bool| {
            Baco::builder(space())
                .budget(10)
                .doe_samples(4)
                .seed(8)
                .journal_path(path)
                .resume(resume)
                .build()
                .unwrap()
        };
        let sig = |r: &TuningReport| {
            r.trials()
                .iter()
                .map(|t| (t.config.to_string(), t.value.map(f64::to_bits), t.feasible))
                .collect::<Vec<_>>()
        };
        let drive = |s: &mut Session| {
            while let Some(c) = s.ask().unwrap() {
                let v = obj(&c);
                s.try_report(c, Evaluation::feasible(v)).unwrap();
            }
        };
        let dir = std::env::temp_dir().join(format!("baco-session-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut reference = Session::new(tuner(&dir.join("ref.jsonl"), false)).unwrap();
        drive(&mut reference);

        // Faults during the DoE (one designed sample still queued) and in
        // the model phase.
        let cases = [(Fault::ShortWrite, 5), (Fault::FailedSync, 5), (Fault::FailedSync, 2)];
        for (k, (f, at)) in cases.into_iter().enumerate() {
            let path = dir.join(format!("s{k}.jsonl"));
            let mut s = Session::new(tuner(&path, false)).unwrap();
            for _ in 0..at {
                let c = s.ask().unwrap().unwrap();
                let v = obj(&c);
                s.try_report(c, Evaluation::feasible(v)).unwrap();
            }
            let cfg = s.ask().unwrap().unwrap();
            let acknowledged = std::fs::read(&path).unwrap();
            fault::arm(f);
            let err = s.try_report(cfg.clone(), Evaluation::feasible(obj(&cfg))).unwrap_err();
            assert!(matches!(err, Error::Io(_)), "{f:?}: {err}");
            assert_eq!(s.history().len(), at + 1, "the trial stays in memory");
            assert!(s.journal_closed());

            // The file holds exactly the acknowledged records, no torn tail.
            assert_eq!(std::fs::read(&path).unwrap(), acknowledged, "{f:?}");
            let loaded = Journal::load(&path, &space()).unwrap();
            assert!(!loaded.torn_tail);
            assert_eq!(loaded.trials.len(), at);

            // Closed to appends: later proposals fail typed before drawing
            // anything — RNG stream, pending set and DoE queue stay as they
            // were — and reports fail typed; the file is left alone.
            let state = |s: &Session| (s.engine.rng.state(), s.pending(), s.doe_queue.clone());
            let before = state(&s);
            assert_eq!(before.2.is_empty(), at >= 4, "{f:?} at {at}");
            for _ in 0..2 {
                assert!(matches!(s.suggest_batch(2).unwrap_err(), Error::Io(_)), "{f:?}");
                assert!(state(&s) == before, "{f:?} at {at}: the refused round drew");
            }
            let err = s.try_report(cfg.clone(), Evaluation::infeasible()).unwrap_err();
            assert!(err.to_string().contains("resume"), "{err}");
            assert_eq!(std::fs::read(&path).unwrap(), acknowledged);

            // Resume continues from the acknowledged prefix: the lost trial's
            // proposal is rolled back and asked again, and the finished
            // session matches the uninterrupted one bit for bit.
            let mut resumed = Session::new(tuner(&path, true)).unwrap();
            assert!(!resumed.journal_closed());
            assert_eq!(resumed.history().len(), at);
            assert_eq!(resumed.ask().unwrap(), Some(cfg.clone()));
            resumed.try_report(cfg.clone(), Evaluation::feasible(obj(&cfg))).unwrap();
            drive(&mut resumed);
            assert_eq!(sig(resumed.history()), sig(reference.history()), "{f:?} at {at}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn suggest_batch_of_one_matches_ask_exactly() {
        let mk = || {
            Session::new(
                Baco::builder(space()).budget(16).doe_samples(5).seed(9).build().unwrap(),
            )
            .unwrap()
        };
        let obj = |cfg: &Configuration| {
            let a = cfg.value("a").as_f64();
            let b = cfg.value("b").as_f64();
            1.0 + (a - 2.0).powi(2) + (b - 9.0).powi(2)
        };
        let mut asked = mk();
        let mut batched = mk();
        loop {
            let a = asked.ask().unwrap();
            let mut b_round = batched.suggest_batch(1).unwrap();
            assert_eq!(a.is_none(), b_round.is_empty());
            let Some(a) = a else { break };
            let b = b_round.pop().unwrap();
            assert_eq!(a, b, "q=1 batch proposal must match ask() bitwise");
            let v = obj(&a);
            asked.try_report(a, Evaluation::feasible(v)).unwrap();
            batched.try_report(b, Evaluation::feasible(v)).unwrap();
        }
        let seq = |s: &Session| {
            s.history().trials().iter().map(|t| t.config.to_string()).collect::<Vec<_>>()
        };
        assert_eq!(seq(&asked), seq(&batched));
    }

    #[test]
    fn out_of_order_batch_reporting_converges_to_same_incumbent() {
        // Two drivers over the same tuner: one reports each round in
        // proposal order, one in reverse (fully out-of-order) order. Both
        // must find the optimum of this small unimodal problem — the engine
        // may propose different intermediate rounds (the model sees the same
        // observations in a different sequence) but the incumbent set it
        // converges to is the same.
        let obj = |cfg: &Configuration| {
            let a = cfg.value("a").as_f64();
            let b = cfg.value("b").as_f64();
            1.0 + (a - 12.0).powi(2) + (b - 5.0).powi(2)
        };
        let run = |reverse: bool| {
            let tuner = Baco::builder(space())
                .budget(40)
                .doe_samples(10)
                .batch_size(4)
                .seed(17)
                .build()
                .unwrap();
            let mut s = Session::new(tuner).unwrap();
            loop {
                let mut round = s.suggest_batch(4).unwrap();
                if round.is_empty() {
                    break;
                }
                if reverse {
                    round.reverse();
                }
                for cfg in round {
                    let v = obj(&cfg);
                    s.try_report(cfg, Evaluation::feasible(v)).unwrap();
                }
            }
            let best = s.history().best().unwrap().clone();
            (best.config, best.value)
        };
        let (cfg_in_order, v_in_order) = run(false);
        let (cfg_reversed, v_reversed) = run(true);
        assert_eq!(v_in_order, Some(1.0), "in-order run must find the optimum");
        assert_eq!(v_reversed, Some(1.0), "reversed run must find the optimum");
        assert_eq!(cfg_in_order, cfg_reversed, "same incumbent configuration");
    }

    #[test]
    fn suggest_batch_respects_budget_and_pending() {
        let tuner = Baco::builder(space()).budget(6).doe_samples(2).seed(4).build().unwrap();
        let mut s = Session::new(tuner).unwrap();
        let round = s.suggest_batch(4).unwrap();
        assert_eq!(round.len(), 4);
        assert_eq!(s.remaining_budget(), 2);
        // Distinct proposals, even across the DoE/model boundary.
        let uniq: HashSet<_> = round.iter().cloned().collect();
        assert_eq!(uniq.len(), 4);
        // Asking for more than remains is clipped.
        let round2 = s.suggest_batch(10).unwrap();
        assert_eq!(round2.len(), 2);
        assert_eq!(s.remaining_budget(), 0);
        assert!(s.suggest_batch(3).unwrap().is_empty());
    }

    #[test]
    fn remaining_budget_counts_pending_asks() {
        let tuner = Baco::builder(space()).budget(5).doe_samples(2).seed(0).build().unwrap();
        let mut s = Session::new(tuner).unwrap();
        assert_eq!(s.remaining_budget(), 5);
        let c = s.ask().unwrap().unwrap();
        assert_eq!(s.remaining_budget(), 4);
        s.try_report(c, Evaluation::feasible(1.0)).unwrap();
        assert_eq!(s.remaining_budget(), 4);
    }
}
