//! The tuning engine behind every loop. Its state — history, RNG stream,
//! surrogate cache, proposal rounds and journal writer — is opened by one
//! path (`Baco::start_engine`: create the journal, or, with
//! [`BacoOptions::resume`] set and a journal on disk, load, validate and
//! replay it), grows by journaled propose records, and lands every trial
//! through one path (`Engine::record`).
//!
//! Two drivers evolve it. The closed loop behind [`Baco::run`] and
//! [`Baco::run_batched`] proposes rounds of `q` configurations, evaluates them on an
//! [`EvalPool`], folds completions into the model in the order they land,
//! and speculates up to [`BacoOptions::speculation_depth`] rounds ahead.
//! [`Session`](super::Session) is the open loop: its caller asks for rounds
//! and reports their results, and it keeps only what is its own — the DoE
//! handed out per call and the rollback resume (see its docs).
//!
//! The rest of this page describes the closed loop.
//!
//! The scheduling rule is one inequality: at most `q · (depth + 1)`
//! evaluations are in flight, a round's entries are dispatched `q` at a
//! time, and a new round is proposed only when a whole one fits. At depth 0
//! that capacity is `q`, so a round is proposed only once the previous one
//! has fully landed — the classic round barrier, and at `q = 1` the paper's
//! sequential loop. Depth 0 is simply the engine with no drafts.
//!
//! With `depth > 0` the barrier goes away, with the draft/verify overlap of
//! speculative decoding:
//!
//! * **Draft** — while evaluations are in flight, the surrogate is
//!   conditioned on a kriging-believer fantasy for each in-flight
//!   configuration (`AcquisitionContext::fantasize_anchored`) and further
//!   rounds are proposed and dispatched immediately. The posterior
//!   (mean, variance) at every fantasized point is recorded as the round's
//!   **anchors**.
//! * **Verify** — when a real evaluation lands, every speculative round
//!   anchored on it is reconciled: the realized (transformed) objectives are
//!   compared against the anchor's recorded posterior. Within the tolerance
//!   band (per objective: 3σ, σ floored at 10⁻⁶, the band itself floored at
//!   40% of the landed objective spread — GP posteriors are overconfident
//!   off-sample) the draft is *kept*; outside
//!   it — or when the evaluation failed outright — the draft round is
//!   *flushed*: its not-yet-started proposals are withdrawn from the pool
//!   and released back to the proposable set, and everything speculated on
//!   top of a withdrawn configuration is flushed transitively. Evaluations
//!   a worker already claimed are never discarded — they keep running and
//!   land as ordinary trials (only the speculative premise behind them
//!   broke, not the proposal itself), so a flush costs queued drafts and a
//!   refit, never started work.
//!
//! Proposals made with nothing in flight (every round at depth 0) go
//! through [`Baco::recommend_batch`], so the engine's depth-0 trajectories
//! are those of the plain fit-then-propose loop.
//!
//! # Journal format and determinism
//!
//! Every proposal round is journaled before it is dispatched and every
//! landing as it happens. Depth-0 runs write format v2 (mode `run` at
//! `q = 1`, `batched` above). Speculative runs write format v3 (see
//! [`crate::journal`]): propose records carry their anchors, and
//! reconciliation verdicts are recorded as `reconcile` markers. The markers
//! are **informational** — resume replays the proposes and trials in write
//! order through the same reconciliation engine and recomputes every
//! verdict from the anchors and the landed values, so a crash *between* a
//! trial record and its marker still resumes bitwise. The replay is the
//! only closed-loop resume path: whatever a journal left proposed but not
//! landed is dispatched again under the scheduling rule above. All RNG
//! consumption is bracketed by journaled propose records (failed proposal
//! attempts restore the bracketed state), and with
//! [`BacoOptions::eval_threads`] `<= 1` the inline pool completes in
//! submission order, so a run resumed from any record boundary continues
//! bit for bit.
//!
//! [`BacoOptions::resume`]: super::BacoOptions::resume
//! [`BacoOptions::speculation_depth`]: super::BacoOptions::speculation_depth
//! [`BacoOptions::eval_threads`]: super::BacoOptions::eval_threads

use super::{Baco, BlackBox, Trial, TuningReport};
use crate::eval::pool::{with_pool, Completion, EvalPool};
use crate::journal::{
    AnchorRec, Header, Journal, JournalWriter, Mode, ProposeRec, ReconcileRec, Record, TrialRec,
};
use crate::space::Configuration;
use crate::surrogate::GpCache;
use crate::{Error, Result};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// Variance floor for the anchor tolerance band: a collapsed posterior
/// (repeated point, numerically-zero variance) must still tolerate
/// round-off-scale disagreement instead of flushing every draft.
const MIN_ANCHOR_SIGMA: f64 = 1e-6;

/// Scale-aware floor on the reconciliation tolerance: a landed value within
/// this fraction of the observed objective spread (max − min of the
/// transformed values landed so far) of the anchor mean never counts as
/// surprising, regardless of how small the anchor's posterior variance is.
/// GP predictive variance is routinely overconfident off-sample; without
/// this floor every smooth landing "surprises" its anchor and the pipeline
/// thrashes in flush/redraft cycles, wasting the very evaluations it
/// overlapped — exploratory picks land off the incumbent ridge by design,
/// and a rollback only pays for itself when the miss is large enough to
/// have steered downstream drafts badly. The floor is computed from the
/// landed trials alone, so a resumed replay recomputes identical verdicts.
const SPREAD_TOLERANCE: f64 = 0.4;

/// Tolerance half-width in posterior standard deviations: a realized value
/// within `TOLERANCE_SIGMAS · σ` of the anchor mean confirms the draft.
const TOLERANCE_SIGMAS: f64 = 3.0;

/// Draft-time sanity bound: an anchor whose posterior mean sits more than
/// this many observed spreads outside the landed objective range marks a
/// numerically degenerate conditioned model, and the refill skips
/// speculating on it (see [`Baco::refill`]'s degeneracy guard).
const DEGENERACY_SPREADS: f64 = 5.0;

/// The black box a closed loop evaluates, which decides the pool serving
/// it: only a [`Sync`] black box can be shared with worker threads.
pub(super) enum Evaluator<'a> {
    /// Evaluated inline on the tuning thread ([`Baco::run`]).
    Inline(&'a dyn BlackBox),
    /// Evaluated on a [`with_pool`] pool of
    /// [`BacoOptions::eval_threads`](super::BacoOptions::eval_threads)
    /// workers ([`Baco::run_batched`]).
    Shared(&'a (dyn BlackBox + Sync)),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    /// Proposed; no value yet (in flight once it holds a ticket).
    Pending,
    /// Landed as a journaled trial.
    Done,
    /// Withdrawn by a flush; never becomes a trial.
    Cancelled,
}

/// One proposed configuration of one round.
#[derive(Debug)]
struct Entry {
    config: Configuration,
    /// The pool ticket once dispatched (`None` before dispatch and during
    /// journal replay).
    ticket: Option<u64>,
    state: EntryState,
}

/// One speculation premise of a round: the posterior recorded for an
/// in-flight configuration when the round was drafted (see [`AnchorRec`]).
#[derive(Debug)]
struct Anchor {
    config: Configuration,
    means: Vec<f64>,
    vars: Vec<f64>,
    landed: bool,
    surprising: bool,
}

impl Anchor {
    fn from_rec(a: &AnchorRec) -> Anchor {
        Anchor {
            config: a.config.clone(),
            means: a.means.clone(),
            vars: a.vars.clone(),
            landed: false,
            surprising: false,
        }
    }
}

/// One proposal round of the engine, in journal propose-record order.
#[derive(Debug)]
struct Round {
    entries: Vec<Entry>,
    /// Empty for non-speculative rounds (DoE, rounds proposed with nothing
    /// in flight).
    anchors: Vec<Anchor>,
    /// Per-trial think time attributed to this round's proposals.
    tuner: Duration,
    flushed: bool,
    /// A `keep` marker was already journaled for this round.
    kept_marked: bool,
}

/// The tuning state every loop evolves: the closed loop live and in its
/// resume replay, and [`Session`](super::Session) between `ask`/`report`
/// calls, so all of them go through identical transitions.
#[derive(Debug)]
pub(super) struct Engine {
    /// Proposals per round (closed loop only).
    q: usize,
    /// In-flight evaluation bound, `q · (depth + 1)` (closed loop only).
    capacity: usize,
    pub(super) rng: StdRng,
    pub(super) report: TuningReport,
    /// Landed and pending configurations: nothing in here is proposed again.
    pub(super) seen: HashSet<Configuration>,
    pub(super) cache: GpCache,
    /// `None` without a journal and during replay.
    writer: Option<JournalWriter>,
    /// All rounds ever proposed, indexed by propose-record ordinal
    /// (flushed rounds stay, so ordinals match the journal).
    rounds: Vec<Round>,
    /// Dispatched pool tickets → (round, entry) indices.
    tickets: HashMap<u64, (usize, usize)>,
    next_ticket: u64,
    doe_done: bool,
    /// Draft backoff after a degeneracy-guard trip: no drafting until the
    /// landed count reaches this (a fit whose anchors come out insane is a
    /// fit wasted, and one more landing rarely heals a degenerate chain —
    /// wait out a full round of fresh data instead of refitting per
    /// landing). Live-only scheduling state; replay never consults it.
    draft_backoff: usize,
}

impl Engine {
    /// Proposed configurations that have not landed (in flight or awaiting
    /// dispatch), in proposal order.
    pub(super) fn pending(&self) -> impl Iterator<Item = &Configuration> {
        self.rounds
            .iter()
            .flat_map(|r| &r.entries)
            .filter(|e| e.state == EntryState::Pending)
            .map(|e| &e.config)
    }

    /// The journal writer, once it has closed after a failed append.
    pub(super) fn closed_writer(&self) -> Option<&JournalWriter> {
        self.writer.as_ref().filter(|w| w.is_closed())
    }

    /// Durably journals one proposal round (when journaling), then appends
    /// it to the engine. `anchors` is empty for every round but a
    /// speculative draft.
    pub(super) fn append_propose(
        &mut self,
        doe_k: usize,
        rng_before: [u64; 4],
        tuner: Duration,
        configs: &[Configuration],
        anchors: Vec<AnchorRec>,
    ) -> Result<()> {
        let round_anchors = anchors.iter().map(Anchor::from_rec).collect();
        if let Some(w) = self.writer.as_mut() {
            w.append(&Record::Propose(ProposeRec {
                len: self.report.len(),
                doe_k,
                rng_before,
                rng_after: self.rng.state(),
                tuner_ns: tuner.as_nanos().min(u64::MAX as u128) as u64,
                configs: configs.to_vec(),
                anchors,
            }))?;
        }
        self.push_round(configs, tuner, round_anchors);
        Ok(())
    }

    /// Lands one trial: marks the pending entry that proposed its
    /// configuration (if any) done, adds it to the history and journals it
    /// (when journaling). The trial stays in the history even when the
    /// append fails.
    pub(super) fn record(&mut self, trial: Trial) -> Result<()> {
        let entry = self
            .rounds
            .iter_mut()
            .flat_map(|r| &mut r.entries)
            .find(|en| en.state == EntryState::Pending && en.config == trial.config);
        if let Some(en) = entry {
            en.state = EntryState::Done;
        }
        self.seen.insert(trial.config.clone());
        let index = self.report.len();
        self.report.push(trial);
        if let Some(w) = self.writer.as_mut() {
            let rec =
                TrialRec::from_trial(index, self.report.trials().last().expect("just pushed"));
            w.append(&Record::Trial(rec))?;
        }
        Ok(())
    }

    /// Appends a round for `configs`, marking them seen. Dispatch is
    /// [`Engine::dispatch`]'s job.
    fn push_round(&mut self, configs: &[Configuration], tuner: Duration, anchors: Vec<Anchor>) {
        for cfg in configs {
            self.seen.insert(cfg.clone());
        }
        self.rounds.push(Round {
            entries: configs
                .iter()
                .map(|cfg| Entry {
                    config: cfg.clone(),
                    ticket: None,
                    state: EntryState::Pending,
                })
                .collect(),
            anchors,
            tuner,
            flushed: false,
            kept_marked: false,
        });
    }

    /// Submits undispatched entries in proposal order, a round's entries
    /// `q` at a time, while a whole chunk fits the in-flight capacity and
    /// the budget. At depth 0 a chunk goes out only once the previous one
    /// has fully landed, which is the barrier's DoE chunking and the
    /// chunking of a resumed round's tail.
    fn dispatch(&mut self, pool: &mut EvalPool<'_>, budget: usize) {
        for ri in 0..self.rounds.len() {
            if self.rounds[ri].flushed {
                continue;
            }
            let waiting: Vec<usize> = (0..self.rounds[ri].entries.len())
                .filter(|&ei| {
                    let e = &self.rounds[ri].entries[ei];
                    e.state == EntryState::Pending && e.ticket.is_none()
                })
                .collect();
            for chunk in waiting.chunks(self.q) {
                let in_flight = self.tickets.len();
                let room = budget.saturating_sub(self.report.len() + in_flight);
                if in_flight + self.q > self.capacity || room == 0 {
                    return;
                }
                for &ei in chunk.iter().take(room) {
                    let t = self.next_ticket;
                    self.next_ticket += 1;
                    let e = &mut self.rounds[ri].entries[ei];
                    e.ticket = Some(t);
                    self.tickets.insert(t, (ri, ei));
                    pool.submit(t, e.config.clone());
                }
            }
        }
    }
}

/// Journals one reconciliation verdict (no-op without a writer; replay
/// has none — markers are write-once, live-only).
fn append_reconcile(
    writer: &mut Option<JournalWriter>,
    len: usize,
    round: usize,
    keep: bool,
    cancelled: usize,
) -> Result<()> {
    if let Some(w) = writer.as_mut() {
        w.append(&Record::Reconcile(ReconcileRec {
            len,
            round,
            keep,
            cancelled,
        }))?;
    }
    Ok(())
}

impl Baco {
    /// A fresh engine for a `mode` loop, with the run's transfer state
    /// resolved. With a journal path it either creates the journal or, when
    /// `resume` is set and one exists, loads and validates it, adopts its
    /// transfer digest, rebuilds the state with `replay` and reopens it for
    /// appending.
    pub(super) fn start_engine(
        &self,
        mode: Mode,
        replay: impl FnOnce(&Journal, &mut Engine) -> Result<()>,
    ) -> Result<Engine> {
        let mut report = TuningReport::new("BaCO");
        report.set_reference_point(self.opts.reference_point.clone());
        let mut e = Engine {
            q: 0,
            capacity: 0,
            rng: StdRng::seed_from_u64(self.opts.seed),
            report,
            seen: HashSet::new(),
            cache: self.new_cache(),
            writer: None,
            rounds: Vec::new(),
            tickets: HashMap::new(),
            next_ticket: 0,
            doe_done: false,
            draft_backoff: 0,
        };
        let Some(path) = &self.opts.journal_path else {
            self.prepare_transfer(None)?;
            return Ok(e);
        };
        if self.opts.resume && Journal::exists(path) {
            let journal = Journal::load(path, &self.space)?;
            journal.header.validate(mode, &self.opts, &self.space)?;
            self.prepare_transfer(journal.header.transfer.as_ref())?;
            replay(&journal, &mut e)?;
            e.writer = Some(JournalWriter::resume(path, &journal, e.report.len())?);
        } else {
            let mut header = Header::new(mode, &self.opts, &self.space);
            header.transfer = self.prepare_transfer(None)?;
            e.writer = Some(JournalWriter::create(path, &header)?);
        }
        Ok(e)
    }

    /// The closed loop: proposes rounds of `q` with up to `depth`
    /// speculative rounds beyond the one in flight, evaluates them on `bb`'s
    /// pool, and journals (or, with `resume` set, replays and continues) the
    /// run (see the [module docs](self)).
    pub(super) fn closed_loop(
        &self,
        bb: Evaluator<'_>,
        q: usize,
        depth: usize,
    ) -> Result<TuningReport> {
        let mode = if q == 1 && depth == 0 {
            Mode::Run
        } else {
            Mode::Batched
        };
        let mut e = self.start_engine(mode, |journal, e| {
            self.replay(journal, e)?;
            if let Some(p) = journal.proposes.last() {
                e.rng = StdRng::from_state(p.rng_after);
            }
            e.doe_done = !journal.proposes.is_empty();
            Ok(())
        })?;
        e.q = q;
        e.capacity = q * (depth + 1);

        match bb {
            Evaluator::Inline(bb) => self.drive(e, &mut EvalPool::inline(bb)),
            Evaluator::Shared(bb) => with_pool(bb, self.opts.eval_threads, e.capacity, |pool| {
                self.drive(e, pool)
            }),
        }
    }

    /// Runs the loop to the budget: refill, then land one completion.
    fn drive(&self, mut e: Engine, pool: &mut EvalPool<'_>) -> Result<TuningReport> {
        while e.report.len() < self.opts.budget {
            self.refill(&mut e, pool)?;
            let Some(done) = pool.recv() else {
                break; // nothing in flight and nothing proposable
            };
            self.land(&mut e, done, pool)?;
        }
        Ok(e.report)
    }

    /// Keeps the pipeline full: dispatches what fits, then proposes rounds
    /// until the budget is covered by landed+pending work, the capacity
    /// bound is reached, or proposing is not currently possible (too little
    /// signal, or the feasible set is exhausted). Every proposal is
    /// journaled, then dispatched before the next one is fitted; attempts
    /// that propose nothing restore the RNG to the state they started from,
    /// so all RNG consumption stays bracketed by propose records.
    fn refill(&self, e: &mut Engine, pool: &mut EvalPool<'_>) -> Result<()> {
        loop {
            e.dispatch(pool, self.opts.budget);
            let landed = e.report.len();
            let pending = e.pending().count();
            if landed + pending >= self.opts.budget {
                return Ok(()); // pending work already covers the budget
            }
            // The capacity bounds unlanded *evaluations* — the base round
            // plus `depth` drafted rounds' worth — and a round is proposed
            // only when a full one fits. Counting rounds instead would let
            // three nearly-drained rounds (one straggler each) starve the
            // pool: the exact stall speculation exists to remove.
            if pending + e.q > e.capacity {
                return Ok(());
            }
            // Degeneracy-guard backoff (see `Engine::draft_backoff`). An
            // idle pool always proposes: progress must not hinge on model
            // health.
            if pending > 0 && landed < e.draft_backoff {
                return Ok(());
            }

            let t0 = Instant::now();
            let rng_before = e.rng.state();
            // The DoE draw is one (unanchored) round.
            if !e.doe_done {
                let doe_n = self.opts.doe_samples.min(self.opts.budget);
                let initial =
                    self.transfer_rerank(self.sampler.sample_batch(&mut e.rng, doe_n, &e.seen));
                let per = t0.elapsed() / doe_n.max(1) as u32;
                e.append_propose(initial.len(), rng_before, per, &initial, Vec::new())?;
                e.doe_done = true;
                continue;
            }

            let q_eff = e.q.min(self.opts.budget - landed - pending);
            let (picks, anchors) = if pending == 0 {
                let picks =
                    self.recommend_batch(&mut e.rng, &e.report, &e.seen, &mut e.cache, q_eff)?;
                (picks, Vec::new())
            } else {
                // Too little signal to fit (consumes no RNG): real data is
                // coming — wait for it rather than burning budget on blind
                // random rounds.
                let Some(mut ctx) = self.fit_acquisition(&mut e.rng, &e.report, &mut e.cache)?
                else {
                    return Ok(());
                };
                // Draft step: fantasize a kriging-believer value for every
                // pending configuration, recording the posterior it was
                // fantasized at as this round's anchors. Order is (round,
                // entry) proposal order — the order the journal replays.
                let mut anchors: Vec<AnchorRec> = Vec::new();
                for r in e.rounds.iter().filter(|r| !r.flushed) {
                    for en in r
                        .entries
                        .iter()
                        .filter(|en| en.state == EntryState::Pending)
                    {
                        let (means, vars) = ctx.fantasize_anchored(&self.space, &en.config);
                        anchors.push(AnchorRec {
                            config: en.config.clone(),
                            means,
                            vars,
                        });
                    }
                }
                // Degeneracy guard: long `condition_on` chains occasionally
                // go numerically degenerate and hallucinate non-finite or
                // absurd posteriors (means many spreads outside anything
                // observed). A draft anchored on garbage is guaranteed to
                // flush when its premise lands — wasted evaluations and,
                // transitively, a flush storm. Skip speculating until fresh
                // landings refresh the fit.
                if !self.anchors_sane(&e.report, &anchors) {
                    e.draft_backoff = landed + e.q;
                    e.rng = StdRng::from_state(rng_before);
                    return Ok(());
                }
                let picks = self.pick_round(&mut e.rng, &mut ctx, &e.seen, q_eff);
                (picks, anchors)
            };
            if picks.is_empty() {
                // Nothing proposable right now. The attempt must be
                // RNG-pure: restore the bracketed state so the journal's
                // propose records still account for every draw.
                e.rng = StdRng::from_state(rng_before);
                return Ok(());
            }
            let per = t0.elapsed() / picks.len() as u32;
            e.append_propose(0, rng_before, per, &picks, anchors)?;
        }
    }

    /// Lands one real completion: journals the trial and reconciles every
    /// draft anchored on it.
    fn land(&self, e: &mut Engine, done: Completion, pool: &mut EvalPool<'_>) -> Result<()> {
        let Some((ri, ei)) = e.tickets.remove(&done.ticket) else {
            return Ok(()); // stale ticket (defensive; cancelled paths swallow)
        };
        e.rounds[ri].entries[ei].ticket = None;
        // `push` demotes a feasible-but-non-finite measurement to an
        // infeasible (hidden-constraint) observation, so a black box
        // returning NaN/±inf can never poison the surrogate. A vector of the
        // wrong width is demoted here for the same reason — it would corrupt
        // Pareto bookkeeping while being invisible to the models.
        let feasible =
            done.evaluation.is_feasible() && done.evaluation.n_objectives() == self.opts.objectives;
        e.record(Trial {
            config: done.config,
            value: done.evaluation.value(),
            extra: done.evaluation.extra_objectives(),
            feasible,
            eval_time: done.eval_time,
            tuner_time: e.rounds[ri].tuner,
        })?;
        self.reconcile(e, Some(pool))
    }

    /// Replays a journal prefix through the live state machine: proposes and
    /// trials are applied in write order, verdicts are recomputed (markers
    /// are informational), nothing is journaled and no pool exists.
    fn replay(&self, journal: &Journal, e: &mut Engine) -> Result<()> {
        let mut pi = 0;
        let mut apply_proposes = |upto: usize, e: &mut Engine| {
            while pi < journal.proposes.len() && journal.proposes[pi].len <= upto {
                let p = &journal.proposes[pi];
                let anchors = p.anchors.iter().map(Anchor::from_rec).collect();
                e.push_round(&p.configs, Duration::from_nanos(p.tuner_ns), anchors);
                pi += 1;
            }
        };
        for (ti, tr) in journal.trials.iter().enumerate() {
            apply_proposes(ti, e);
            // Match the landed trial to the pending entry it evaluated. At
            // most one Pending entry per configuration exists across
            // non-flushed rounds (flushes release configurations before they
            // can be re-proposed), so the first match is the only match.
            let slot = e.rounds.iter().enumerate().find_map(|(ri, r)| {
                if r.flushed {
                    return None;
                }
                r.entries
                    .iter()
                    .position(|en| en.state == EntryState::Pending && en.config == tr.config)
                    .map(|ei| (ri, ei))
            });
            // Fallback for multi-threaded journals: a flush withdraws only
            // unclaimed work, so a claimed entry of a flushed round still
            // lands as a real trial. Replay (which has no pool to ask and
            // cancelled everything) revives the entry the trial proves was
            // claimed: oldest unconsumed match first.
            let slot = slot.or_else(|| {
                e.rounds.iter().enumerate().find_map(|(ri, r)| {
                    if !r.flushed {
                        return None;
                    }
                    r.entries
                        .iter()
                        .position(|en| en.state == EntryState::Cancelled && en.config == tr.config)
                        .map(|ei| (ri, ei))
                })
            });
            let Some((ri, ei)) = slot else {
                return Err(Error::JournalCorrupt {
                    line: 0,
                    msg: format!("trial {} does not match any pending proposal", tr.index),
                });
            };
            // A revived entry's configuration was released when replay
            // flushed its round; recording the trial puts it back.
            e.rounds[ri].entries[ei].state = EntryState::Done;
            e.record(tr.to_trial())?;
            self.reconcile(e, None)?;
        }
        apply_proposes(journal.trials.len(), e);
        Ok(())
    }

    /// The verify step, run after every landing (live and replay): marks the
    /// landed anchors, flushes every round whose premises broke (cascading
    /// through drafts speculated on withdrawn work), and records keep
    /// verdicts for rounds whose premises all held.
    fn reconcile(&self, e: &mut Engine, mut pool: Option<&mut EvalPool<'_>>) -> Result<()> {
        let landed = e.report.trials().last().expect("reconcile after a landing");
        let awaiting = |a: &Anchor| !a.landed && a.config == landed.config;
        if !e
            .rounds
            .iter()
            .any(|r| !r.flushed && r.anchors.iter().any(awaiting))
        {
            return Ok(()); // no draft rests on this landing
        }
        let realized = self.realized_objectives(landed);
        let floor = self.spread_floor(&e.report);

        // Mark every anchor awaiting this configuration.
        for r in e.rounds.iter_mut().filter(|r| !r.flushed) {
            for a in r.anchors.iter_mut().filter(|a| awaiting(a)) {
                a.landed = true;
                a.surprising = match &realized {
                    None => true, // the draft assumed a value; none exists
                    Some(v) if v.len() != a.means.len() => true,
                    Some(v) => v.iter().zip(&a.means).zip(&a.vars).enumerate().any(
                        |(i, ((&x, &mean), &var))| {
                            let sigma = var.max(0.0).sqrt().max(MIN_ANCHOR_SIGMA);
                            let tol = (TOLERANCE_SIGMAS * sigma).max(floor[i]);
                            (x - mean).abs() > tol
                        },
                    ),
                };
            }
        }

        // Flush cascade: a broken anchor flushes its round; withdrawing a
        // round's unevaluated proposals breaks every anchor that awaited
        // them, flushing those rounds too. Ascending ordinal order keeps the
        // marker sequence deterministic.
        let mut withdrawn: HashSet<Configuration> = HashSet::new();
        loop {
            let next = e.rounds.iter().position(|r| {
                !r.flushed
                    && r.anchors
                        .iter()
                        .any(|a| a.surprising || (!a.landed && withdrawn.contains(&a.config)))
            });
            let Some(ri) = next else { break };
            let round = &mut e.rounds[ri];
            round.flushed = true;
            let mut cancelled = 0;
            for en in round.entries.iter_mut() {
                if en.state != EntryState::Pending {
                    continue;
                }
                // Withdraw only work that has not started. An evaluation a
                // worker already claimed keeps running and lands as an
                // ordinary trial: the configuration was legitimately
                // proposed — only the speculative premise behind it broke —
                // and discarding a started evaluation would waste exactly
                // the wall-clock speculation exists to save. Replay has no
                // pool and cancels everything, which matches single-threaded
                // live runs bit for bit (the inline pool evaluates only on
                // recv, so a flush always beats the worker to the claim).
                if let (Some(&t), Some(p)) = (en.ticket.as_ref(), pool.as_deref_mut()) {
                    if !p.cancel(t) {
                        continue; // claimed: let it land
                    }
                }
                if let Some(t) = en.ticket.take() {
                    e.tickets.remove(&t);
                }
                en.state = EntryState::Cancelled;
                cancelled += 1;
                e.seen.remove(&en.config);
                withdrawn.insert(en.config.clone());
            }
            append_reconcile(&mut e.writer, e.report.len(), ri, false, cancelled)?;
        }

        // Keep verdicts: a speculative round whose anchors all landed inside
        // tolerance is confirmed (exactly once).
        for ri in 0..e.rounds.len() {
            let r = &e.rounds[ri];
            if r.flushed
                || r.kept_marked
                || r.anchors.is_empty()
                || !r.anchors.iter().all(|a| a.landed && !a.surprising)
            {
                continue;
            }
            e.rounds[ri].kept_marked = true;
            append_reconcile(&mut e.writer, e.report.len(), ri, true, 0)?;
        }
        Ok(())
    }

    /// Whether every drafted anchor is numerically plausible: finite
    /// posterior moments, with means no further than
    /// [`DEGENERACY_SPREADS`] observed spreads outside the landed range
    /// (no opinion before a scale exists). Insane anchors mark a
    /// degenerate conditioned model, not a bold prediction.
    fn anchors_sane(&self, report: &TuningReport, anchors: &[AnchorRec]) -> bool {
        let (lo, hi) = self.landed_range(report);
        anchors.iter().all(|a| {
            a.vars.iter().all(|v| v.is_finite())
                && a.means.iter().enumerate().all(|(i, &mean)| {
                    if !mean.is_finite() {
                        return false;
                    }
                    if i >= lo.len() || lo[i] > hi[i] {
                        return true; // no observed scale to judge against
                    }
                    let slack = DEGENERACY_SPREADS * (hi[i] - lo[i]).max(1e-9);
                    mean >= lo[i] - slack && mean <= hi[i] + slack
                })
        })
    }

    /// Per-objective reconciliation tolerance floor —
    /// [`SPREAD_TOLERANCE`] × the spread of the transformed objective
    /// values landed so far (0 until two distinct values exist). Pure
    /// function of the report, so replay recomputes identical verdicts.
    fn spread_floor(&self, report: &TuningReport) -> Vec<f64> {
        let (lo, hi) = self.landed_range(report);
        lo.iter()
            .zip(&hi)
            .map(|(&lo, &hi)| {
                if hi > lo {
                    SPREAD_TOLERANCE * (hi - lo)
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Per-objective (min, max) of the transformed objective values landed
    /// so far (min > max for an objective with no landed value).
    fn landed_range(&self, report: &TuningReport) -> (Vec<f64>, Vec<f64>) {
        let m = self.opts.objectives;
        let mut lo = vec![f64::INFINITY; m];
        let mut hi = vec![f64::NEG_INFINITY; m];
        for t in report.trials() {
            if let Some(v) = self.realized_objectives(t) {
                for i in 0..m {
                    lo[i] = lo[i].min(v[i]);
                    hi[i] = hi[i].max(v[i]);
                }
            }
        }
        (lo, hi)
    }

    /// The transformed objective vector reconciliation compares against an
    /// anchor's recorded posterior; `None` for failed (or demoted)
    /// evaluations, which always count as surprising.
    fn realized_objectives(&self, t: &Trial) -> Option<Vec<f64>> {
        if !t.feasible {
            return None;
        }
        let objs = t.objectives()?;
        if objs.len() != self.opts.objectives || objs.iter().any(|v| !v.is_finite()) {
            return None;
        }
        Some(objs.iter().map(|&v| self.transform(v)).collect())
    }
}
