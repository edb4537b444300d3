//! The evaluation pool every closed tuning loop runs on: submit
//! configurations at any time, withdraw ones no longer wanted, and receive
//! completions one at a time, **in completion order**.
//!
//! [`with_pool`] keeps one pool of scoped worker threads alive for a whole
//! run and exposes it as an [`EvalPool`]. Workers pull jobs from a
//! condvar-fed queue and stream results back through a channel, so a tuning
//! loop observes evaluations exactly as a real build farm would deliver
//! them: out of order, fastest first. `rayon` is unavailable in the offline
//! build, so the pool is built on `std::thread::scope`. The closed-loop
//! engine ([`crate::tuner::speculate`]) drives it for
//! [`Baco::run`](crate::tuner::Baco::run) and
//! [`Baco::run_batched`](crate::tuner::Baco::run_batched) alike: at
//! speculation depth 0 it submits one round and drains it before proposing
//! the next; deeper pipelines keep submitting while earlier work is in
//! flight.
//!
//! With one worker the pool is *inline* ([`EvalPool::inline`]): each
//! [`EvalPool::recv`] evaluates the oldest queued submission on the caller's
//! thread, so completion order is submission order and the black box need
//! not be [`Sync`]. Run journaling ([`crate::journal`]) records trials in
//! the order the pool *completes* them, so a resumed journal replays the run
//! as it actually unfolded; with one worker that order is deterministic,
//! which extends the resume-anywhere bitwise guarantee to any batch size.
//!
//! A **panicking** black box is contained: the panic is caught on the worker
//! (or inline) path and surfaced as a hidden-constraint infeasible outcome —
//! every submitted configuration still produces exactly one completion, the
//! caller never deadlocks, and the run continues (see BaCO's failed-run
//! semantics, Sec. 4.2). The queue's own mutex is recovered via
//! `into_inner` when poisoned (like `server::registry` recovers tenant
//! slots): it only ever holds owned jobs.
//!
//! ```
//! use baco::eval::pool::with_pool;
//! use baco::prelude::*;
//!
//! let space = SearchSpace::builder().integer("x", 0, 7).build()?;
//! let bb = FnBlackBox::new(|c: &Configuration| {
//!     Evaluation::feasible(c.value("x").as_f64() + 1.0)
//! });
//! let best = with_pool(&bb, 2, 3, |pool| {
//!     for ticket in 0..3 {
//!         pool.submit(ticket, space.default_configuration());
//!     }
//!     let mut best = f64::INFINITY;
//!     // Results arrive as they complete; fold them in immediately.
//!     while let Some(done) = pool.recv() {
//!         if let Some(v) = done.evaluation.value() {
//!             best = best.min(v);
//!         }
//!     }
//!     best
//! });
//! assert_eq!(best, 1.0);
//! # Ok::<(), baco::Error>(())
//! ```

use crate::space::Configuration;
use crate::tuner::{BlackBox, Evaluation};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Evaluates one configuration with panic containment: a black box that
/// panics is treated as a *hidden-constraint* failure (BaCO's semantics for
/// failed runs — a crashed compiler and a panicking model function are the
/// same observation), so one bad evaluation can neither deadlock the caller
/// waiting on its completion, lose that completion, nor tear down the whole
/// tuning run via the scope join.
///
/// `AssertUnwindSafe` is sound here: on a caught panic the black box's
/// partial state is never touched again by this crate — we only return the
/// infeasibility verdict. A black box with interior mutability must tolerate
/// its own panics, exactly as it must under any catch-and-continue driver.
fn evaluate_contained(bb: &dyn BlackBox, cfg: &Configuration) -> Evaluation {
    catch_unwind(AssertUnwindSafe(|| bb.evaluate(cfg))).unwrap_or_else(|_| Evaluation::infeasible())
}

/// One completed evaluation delivered by [`EvalPool::recv`].
#[derive(Debug)]
pub struct Completion {
    /// The caller-chosen identifier passed to [`EvalPool::submit`].
    pub ticket: u64,
    /// The evaluated configuration.
    pub config: Configuration,
    /// The black box's verdict.
    pub evaluation: Evaluation,
    /// Wall-clock time the black box took for this configuration.
    pub eval_time: Duration,
}

type Job = (u64, Configuration);

#[derive(Default)]
struct QueueState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

/// The condvar-fed job queue shared between [`EvalPool`] and its workers.
struct SharedQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
}

impl SharedQueue {
    /// Locks the queue, recovering a poisoned mutex via `into_inner` — the
    /// queue is a plain `VecDeque` of owned jobs, always structurally valid.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Shuts the pool down even if the caller's closure panics: raises the
/// shutdown flag, abandons still-queued jobs, and wakes every worker blocked
/// on the condvar so the enclosing `thread::scope` can join.
struct ShutdownGuard<'a>(&'a SharedQueue);

impl Drop for ShutdownGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.0.lock();
        st.shutdown = true;
        st.queue.clear();
        drop(st);
        self.0.cv.notify_all();
    }
}

fn worker_loop(bb: &(dyn BlackBox + Sync), shared: &SharedQueue, tx: mpsc::Sender<Completion>) {
    loop {
        let job = {
            let mut st = shared.lock();
            loop {
                if let Some(job) = st.queue.pop_front() {
                    break Some(job);
                }
                if st.shutdown {
                    break None;
                }
                st = shared.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some((ticket, config)) = job else { return };
        let t0 = Instant::now();
        let evaluation = evaluate_contained(bb, &config);
        let done = Completion {
            ticket,
            config,
            evaluation,
            eval_time: t0.elapsed(),
        };
        if tx.send(done).is_err() {
            // The pool was dropped mid-evaluation; nothing left to report to.
            return;
        }
    }
}

enum PoolImpl<'a> {
    /// Effective thread count ≤ 1: jobs queue up and are evaluated inline on
    /// the caller's thread, one per [`EvalPool::recv`], in strict submission
    /// order — the deterministic degenerate pool that anchors the journal's
    /// resume-bitwise guarantee.
    Inline {
        bb: &'a dyn BlackBox,
        queue: VecDeque<Job>,
    },
    /// Long-lived scoped workers fed through a condvar queue; completions
    /// stream back through an mpsc channel in completion order.
    Threaded {
        shared: &'a SharedQueue,
        rx: mpsc::Receiver<Completion>,
        outstanding: usize,
    },
}

/// A persistent evaluation pool whose workers outlive any single round:
/// submissions and completions interleave freely, so a driver can keep
/// proposing (and withdrawing) work while earlier evaluations are still in
/// flight. Created by [`with_pool`], or [`EvalPool::inline`] for a black box
/// that is not [`Sync`].
pub struct EvalPool<'a> {
    inner: PoolImpl<'a>,
}

impl std::fmt::Debug for EvalPool<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (kind, outstanding) = match &self.inner {
            PoolImpl::Inline { queue, .. } => ("inline", queue.len()),
            PoolImpl::Threaded { outstanding, .. } => ("threaded", *outstanding),
        };
        f.debug_struct("EvalPool")
            .field("kind", &kind)
            .field("outstanding", &outstanding)
            .finish()
    }
}

impl<'a> EvalPool<'a> {
    /// A pool without worker threads: jobs queue up and each
    /// [`EvalPool::recv`] evaluates the oldest one on the caller's thread,
    /// so completions arrive in strict submission order. This is the pool
    /// [`with_pool`] hands out at one effective thread; it needs no [`Sync`]
    /// bound on the black box.
    pub fn inline(bb: &'a dyn BlackBox) -> EvalPool<'a> {
        EvalPool {
            inner: PoolImpl::Inline {
                bb,
                queue: VecDeque::new(),
            },
        }
    }

    /// Submits one configuration for evaluation under a caller-chosen
    /// ticket. Tickets are opaque to the pool and echoed back verbatim in
    /// the [`Completion`]; the caller is responsible for their uniqueness.
    pub fn submit(&mut self, ticket: u64, config: Configuration) {
        match &mut self.inner {
            PoolImpl::Inline { queue, .. } => queue.push_back((ticket, config)),
            PoolImpl::Threaded {
                shared,
                outstanding,
                ..
            } => {
                shared.lock().queue.push_back((ticket, config));
                shared.cv.notify_one();
                *outstanding += 1;
            }
        }
    }

    /// Withdraws a submission that has not started evaluating. Returns
    /// `true` iff the job was still queued and is now gone — its completion
    /// will never be delivered. `false` means a worker already claimed it
    /// (or the ticket is unknown): the completion **will** still arrive and
    /// the caller must be prepared to discard it.
    pub fn cancel(&mut self, ticket: u64) -> bool {
        match &mut self.inner {
            PoolImpl::Inline { queue, .. } => match queue.iter().position(|(t, _)| *t == ticket) {
                Some(pos) => {
                    queue.remove(pos);
                    true
                }
                None => false,
            },
            PoolImpl::Threaded {
                shared,
                outstanding,
                ..
            } => {
                let mut st = shared.lock();
                match st.queue.iter().position(|(t, _)| *t == ticket) {
                    Some(pos) => {
                        st.queue.remove(pos);
                        *outstanding -= 1;
                        true
                    }
                    None => false,
                }
            }
        }
    }

    /// Number of submissions whose completions have not been received yet
    /// (cancelled submissions excluded).
    pub fn outstanding(&self) -> usize {
        match &self.inner {
            PoolImpl::Inline { queue, .. } => queue.len(),
            PoolImpl::Threaded { outstanding, .. } => *outstanding,
        }
    }

    /// Blocks until the next completion, or returns `None` when nothing is
    /// outstanding. On the inline (≤ 1 thread) pool this *evaluates* the
    /// oldest queued submission on the caller's thread, so completions
    /// arrive in strict submission order.
    pub fn recv(&mut self) -> Option<Completion> {
        match &mut self.inner {
            PoolImpl::Inline { bb, queue } => {
                let (ticket, config) = queue.pop_front()?;
                let t0 = Instant::now();
                let evaluation = evaluate_contained(*bb, &config);
                Some(Completion {
                    ticket,
                    config,
                    evaluation,
                    eval_time: t0.elapsed(),
                })
            }
            PoolImpl::Threaded {
                rx, outstanding, ..
            } => {
                if *outstanding == 0 {
                    return None;
                }
                let done = rx.recv().ok()?;
                *outstanding -= 1;
                Some(done)
            }
        }
    }
}

/// Resolves a thread-count request: `0` means "use the available
/// parallelism", anything else is taken literally. The result is clamped to
/// `work_items` so short inputs don't spawn idle threads.
///
/// The available parallelism is read once per process: the query reads
/// cgroup files.
fn effective_threads(requested: usize, work_items: usize) -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    let t = if requested == 0 {
        *AVAILABLE.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    } else {
        requested
    };
    t.clamp(1, work_items.max(1))
}

/// Runs `f` with a persistent [`EvalPool`] of `threads` workers (`0` = one
/// per expected in-flight evaluation, capped at the available parallelism;
/// `capacity` is the expected number of simultaneously in-flight
/// evaluations, used only for that sizing).
///
/// With an effective thread count of one — always the case for
/// `capacity <= 1` — the pool is [`EvalPool::inline`]: completion order
/// equals submission order, the property the journal's resume-bitwise
/// guarantee builds on. Worker threads are scoped: they are joined before
/// `with_pool` returns, even if `f` panics.
///
/// ```
/// use baco::eval::pool::with_pool;
/// use baco::prelude::*;
///
/// let space = SearchSpace::builder().integer("x", 0, 7).build()?;
/// let bb = FnBlackBox::new(|c: &Configuration| {
///     Evaluation::feasible(c.value("x").as_f64() + 1.0)
/// });
/// let total = with_pool(&bb, 2, 4, |pool| {
///     for ticket in 0..3 {
///         pool.submit(ticket, space.default_configuration());
///     }
///     let mut sum = 0.0;
///     while let Some(done) = pool.recv() {
///         sum += done.evaluation.value().unwrap_or(0.0);
///     }
///     sum
/// });
/// assert_eq!(total, 3.0);
/// # Ok::<(), baco::Error>(())
/// ```
pub fn with_pool<R>(
    bb: &(dyn BlackBox + Sync),
    threads: usize,
    capacity: usize,
    f: impl FnOnce(&mut EvalPool<'_>) -> R,
) -> R {
    let threads = effective_threads(threads, capacity.max(1));
    if threads <= 1 {
        return f(&mut EvalPool::inline(bb));
    }
    let shared = SharedQueue {
        state: Mutex::new(QueueState::default()),
        cv: Condvar::new(),
    };
    let (tx, rx) = mpsc::channel::<Completion>();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let shared = &shared;
            scope.spawn(move || worker_loop(bb, shared, tx));
        }
        drop(tx);
        let _shutdown = ShutdownGuard(&shared);
        let mut pool = EvalPool {
            inner: PoolImpl::Threaded {
                shared: &shared,
                rx,
                outstanding: 0,
            },
        };
        f(&mut pool)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{ParamValue, SearchSpace};
    use crate::tuner::FnBlackBox;

    fn space() -> SearchSpace {
        SearchSpace::builder().integer("x", 0, 63).build().unwrap()
    }

    fn cfg(s: &SearchSpace, x: i64) -> Configuration {
        s.configuration(&[("x", ParamValue::Int(x))]).unwrap()
    }

    /// Submits `cfgs` under their indices as tickets and receives every
    /// completion, in completion order.
    fn drain(
        bb: &(dyn BlackBox + Sync),
        cfgs: &[Configuration],
        threads: usize,
    ) -> Vec<Completion> {
        with_pool(bb, threads, cfgs.len(), |pool| {
            for (i, c) in cfgs.iter().enumerate() {
                pool.submit(i as u64, c.clone());
            }
            std::iter::from_fn(|| pool.recv()).collect()
        })
    }

    #[test]
    fn batch_preserves_submission_order() {
        let s = space();
        let bb =
            FnBlackBox::new(|c: &Configuration| Evaluation::feasible(c.value("x").as_f64() * 2.0));
        let cfgs: Vec<_> = (0..20).map(|i| cfg(&s, i)).collect();
        for threads in [1, 2, 4, 0] {
            let mut out = drain(&bb, &cfgs, threads);
            assert_eq!(out.len(), 20);
            // Tickets restore submission order whatever the completion order.
            out.sort_by_key(|done| done.ticket);
            for (i, done) in out.iter().enumerate() {
                assert_eq!(done.ticket, i as u64, "threads={threads}");
                assert_eq!(
                    done.config.value("x").as_i64(),
                    i as i64,
                    "threads={threads}"
                );
                assert_eq!(
                    done.evaluation.value(),
                    Some(i as f64 * 2.0),
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(effective_threads(4, 2), 2);
        assert_eq!(effective_threads(4, 100), 4);
        assert!(effective_threads(0, 100) >= 1);
        assert_eq!(effective_threads(3, 0), 1);
    }

    #[test]
    fn stream_delivers_every_outcome_exactly_once() {
        let s = space();
        // Stagger sleeps so later submissions finish first under
        // multi-threading: completion order != submission order.
        let bb = FnBlackBox::new(|c: &Configuration| {
            let x = c.value("x").as_i64();
            std::thread::sleep(Duration::from_millis((8 - (x % 8)) as u64 * 2));
            Evaluation::feasible(x as f64)
        });
        let cfgs: Vec<_> = (0..8).map(|i| cfg(&s, i)).collect();
        let mut seen = vec![0usize; 8];
        for done in drain(&bb, &cfgs, 4) {
            assert_eq!(done.config.value("x").as_i64() as u64, done.ticket);
            seen[done.ticket as usize] += 1;
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "each outcome exactly once: {seen:?}"
        );
    }

    #[test]
    fn single_thread_streams_in_submission_order() {
        let s = space();
        let bb = FnBlackBox::new(|c: &Configuration| Evaluation::feasible(c.value("x").as_f64()));
        let cfgs: Vec<_> = (0..6).map(|i| cfg(&s, i)).collect();
        let order: Vec<u64> = drain(&bb, &cfgs, 1)
            .iter()
            .map(|done| done.ticket)
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn empty_round_is_a_noop() {
        let bb =
            FnBlackBox::new(|_: &Configuration| -> Evaluation { panic!("nothing was submitted") });
        for threads in [1, 4] {
            assert!(drain(&bb, &[], threads).is_empty());
            with_pool(&bb, threads, 4, |pool| {
                assert_eq!(pool.outstanding(), 0);
                assert!(pool.recv().is_none());
            });
        }
    }

    // Silence the default panic printout so the test log stays readable;
    // the drop guard restores it even if an assertion fails while it is
    // active, so a failure cannot swallow later panics' diagnostics.
    type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;
    struct HookGuard(Option<PanicHook>);
    impl Drop for HookGuard {
        fn drop(&mut self) {
            if let Some(h) = self.0.take() {
                std::panic::set_hook(h);
            }
        }
    }
    fn silence_panics() -> HookGuard {
        let guard = HookGuard(Some(std::panic::take_hook()));
        std::panic::set_hook(Box::new(|_| {}));
        guard
    }

    /// Regression for the black-box panic audit: a panicking evaluation
    /// must not deadlock the caller or lose its completion — it becomes a
    /// hidden-constraint infeasible outcome, and every other submission
    /// still completes normally, on both the threaded and the inline path.
    #[test]
    fn panicking_blackbox_becomes_infeasible_without_losing_slots() {
        let s = space();
        let _restore = silence_panics();
        let bb = FnBlackBox::new(|c: &Configuration| {
            let x = c.value("x").as_i64();
            if x % 3 == 0 {
                panic!("deliberate black-box crash at x={x}");
            }
            Evaluation::feasible(x as f64)
        });
        let cfgs: Vec<_> = (0..12).map(|i| cfg(&s, i)).collect();
        for threads in [1usize, 4] {
            let mut seen = vec![0usize; 12];
            for done in drain(&bb, &cfgs, threads) {
                seen[done.ticket as usize] += 1;
                let x = done.config.value("x").as_i64();
                if x % 3 == 0 {
                    assert!(
                        !done.evaluation.is_feasible(),
                        "panic must surface as infeasible (threads={threads})"
                    );
                } else {
                    assert_eq!(done.evaluation.value(), Some(x as f64));
                }
            }
            assert!(
                seen.iter().all(|&c| c == 1),
                "every submission exactly once despite panics (threads={threads}): {seen:?}"
            );
        }
    }

    #[test]
    fn inline_pool_completes_in_submission_order() {
        let s = space();
        let bb = FnBlackBox::new(|c: &Configuration| Evaluation::feasible(c.value("x").as_f64()));
        with_pool(&bb, 1, 8, |pool| {
            for (ticket, x) in [(5u64, 0i64), (3, 1), (9, 2)] {
                pool.submit(ticket, cfg(&s, x));
            }
            assert_eq!(pool.outstanding(), 3);
            let order: Vec<u64> = std::iter::from_fn(|| pool.recv())
                .map(|done| done.ticket)
                .collect();
            assert_eq!(order, vec![5, 3, 9]);
            assert_eq!(pool.outstanding(), 0);
            assert!(pool.recv().is_none());
        });
    }

    #[test]
    fn threaded_pool_delivers_every_ticket_exactly_once() {
        let s = space();
        let bb = FnBlackBox::new(|c: &Configuration| {
            let x = c.value("x").as_i64();
            std::thread::sleep(Duration::from_millis((8 - (x % 8)) as u64));
            Evaluation::feasible(x as f64)
        });
        with_pool(&bb, 4, 8, |pool| {
            for i in 0..8u64 {
                pool.submit(i, cfg(&s, i as i64));
            }
            let mut tickets = std::collections::HashSet::new();
            while let Some(done) = pool.recv() {
                assert_eq!(done.config.value("x").as_i64() as u64, done.ticket);
                assert_eq!(done.evaluation.value(), Some(done.ticket as f64));
                assert!(tickets.insert(done.ticket), "duplicate completion");
            }
            assert_eq!(tickets.len(), 8);
        });
    }

    #[test]
    fn inline_pool_cancel_removes_queued_job() {
        let s = space();
        let bb = FnBlackBox::new(|c: &Configuration| Evaluation::feasible(c.value("x").as_f64()));
        with_pool(&bb, 1, 4, |pool| {
            pool.submit(1, cfg(&s, 1));
            pool.submit(2, cfg(&s, 2));
            assert!(pool.cancel(1), "queued job must be cancellable");
            assert!(!pool.cancel(1), "already cancelled");
            assert!(!pool.cancel(77), "unknown ticket");
            assert_eq!(pool.outstanding(), 1);
            let done = pool.recv().unwrap();
            assert_eq!(done.ticket, 2);
            assert!(pool.recv().is_none());
        });
    }

    /// The threaded cancel contract: `true` means the completion will never
    /// arrive, `false` means it will arrive exactly once — whichever way the
    /// race with the workers goes.
    #[test]
    fn threaded_pool_cancel_semantics_hold() {
        let s = space();
        let bb = FnBlackBox::new(|c: &Configuration| {
            std::thread::sleep(Duration::from_millis(3));
            Evaluation::feasible(c.value("x").as_f64())
        });
        with_pool(&bb, 2, 8, |pool| {
            for i in 0..8u64 {
                pool.submit(i, cfg(&s, i as i64));
            }
            let cancelled: Vec<(u64, bool)> = (4..8u64).map(|t| (t, pool.cancel(t))).collect();
            let mut delivered = std::collections::HashSet::new();
            while let Some(done) = pool.recv() {
                assert!(delivered.insert(done.ticket), "duplicate completion");
            }
            for t in 0..4u64 {
                assert!(delivered.contains(&t), "uncancelled ticket {t} lost");
            }
            for (t, was_cancelled) in cancelled {
                assert_ne!(
                    was_cancelled,
                    delivered.contains(&t),
                    "cancel({t}) returned {was_cancelled} but delivery disagrees"
                );
            }
        });
    }

    #[test]
    fn pool_contains_panicking_blackbox() {
        let s = space();
        let _restore = silence_panics();
        let bb = FnBlackBox::new(|c: &Configuration| {
            let x = c.value("x").as_i64();
            if x % 2 == 0 {
                panic!("deliberate crash at x={x}");
            }
            Evaluation::feasible(x as f64)
        });
        for threads in [1usize, 4] {
            with_pool(&bb, threads, 6, |pool| {
                for i in 0..6u64 {
                    pool.submit(i, cfg(&s, i as i64));
                }
                let mut infeasible = 0;
                let mut n = 0;
                while let Some(done) = pool.recv() {
                    n += 1;
                    if !done.evaluation.is_feasible() {
                        infeasible += 1;
                    }
                }
                assert_eq!(n, 6, "threads={threads}");
                assert_eq!(infeasible, 3, "threads={threads}");
            });
        }
    }

    #[test]
    fn infeasible_outcomes_flow_through() {
        let s = space();
        let bb = FnBlackBox::new(|c: &Configuration| {
            if c.value("x").as_i64() % 2 == 0 {
                Evaluation::infeasible()
            } else {
                Evaluation::feasible(1.0)
            }
        });
        let cfgs: Vec<_> = (0..10).map(|i| cfg(&s, i)).collect();
        let out = drain(&bb, &cfgs, 3);
        let infeasible = out
            .iter()
            .filter(|done| !done.evaluation.is_feasible())
            .count();
        assert_eq!(infeasible, 5);
    }
}
