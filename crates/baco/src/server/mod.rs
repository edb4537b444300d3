//! The multi-tenant tuning server: many named [`Session`]s behind one
//! daemon, multiplexed over a line-delimited JSON protocol.
//!
//! # Why
//!
//! PR 2 and PR 3 built the two halves a tuning *service* needs — a
//! non-blocking batched [`Session`] and crash-safe journal persistence with
//! bitwise resume — but every run was still a single-process, single-client
//! affair. This module adds the missing layer:
//!
//! * **Registry** (`registry`) — sessions live in one `RwLock<HashMap>`
//!   keyed by session id, held only to clone a session's `Arc`; requests
//!   against the same session serialize on its own mutex (so a
//!   concurrently-driven session stays deterministic).
//! * **Wire protocol** ([`proto`]) — `create_session` / `ask` /
//!   `suggest_batch` / `report` / `best` / `status` / `close` as one JSON
//!   object per line, reusing the journal's panic-free codec. Malformed
//!   input of any shape yields a typed error reply, never a panic and never
//!   a wedged session.
//! * **Durability** — with [`ServerOptions::journal_dir`] set, each session
//!   is backed by its own PR 3 journal (`<dir>/<session>.jsonl`). Kill the
//!   daemon — even mid-round — and a restarted server resumes every session
//!   the way [`Session::new`] resumes: `create_session` with
//!   `"resume": true` reconstructs history, RNG stream and DoE queue, so a
//!   sequential driver's continued trajectory is bit-for-bit identical to an
//!   uninterrupted run. A live session whose journal closed after a failed
//!   append answers `io` until such a create replaces it the same way.
//!
//! Two faces share the dispatch path: the in-process [`ServerHandle`]
//! (deterministic; what the test suites drive) and the TCP front end
//! ([`ServerHandle::serve`]): one event-driven readiness loop multiplexing
//! 10k+ connections over epoll on Linux and `poll(2)` on other Unix hosts,
//! with pipelining, write-side backpressure and typed `overloaded`
//! load-shedding. `baco-cli serve` / `baco-cli client` drive it end to end
//! against the `*-sim` substrates. See `docs/ARCHITECTURE.md` for the
//! connection state machine and the backpressure/shedding policy.
//!
//! ```
//! use baco::server::{ServerHandle, ServerOptions};
//!
//! let srv = ServerHandle::new(ServerOptions::default());
//! let created = srv.handle_line(concat!(
//!     r#"{"op":"create_session","session":"t0","budget":3,"doe_samples":2,"seed":1,"#,
//!     r#""space":{"params":[{"name":"x","kind":"int","lo":"0","hi":"15"}],"constraints":[]}}"#,
//! ));
//! assert!(created.contains(r#""ok":true"#), "{created}");
//!
//! // Drive the session: ask for a proposal, report its objective.
//! let reply = srv.handle_line(r#"{"op":"ask","session":"t0"}"#);
//! let cfg = baco::journal::json::parse(&reply).unwrap().get("config").cloned().unwrap();
//! let report = baco::journal::json::Json::Obj(vec![
//!     ("op".into(), baco::journal::json::Json::Str("report".into())),
//!     ("session".into(), baco::journal::json::Json::Str("t0".into())),
//!     ("config".into(), cfg),
//!     ("value".into(), baco::journal::json::Json::Num(4.0)),
//! ]);
//! assert!(srv.handle_line(&report.to_line()).contains(r#""len":1"#));
//!
//! // Malformed input is a typed error, not a panic.
//! let err = srv.handle_line("{{{");
//! assert!(err.contains(r#""kind":"bad_request""#), "{err}");
//! ```

#[cfg(unix)]
mod conn;
#[cfg(unix)]
mod event;
mod registry;
#[cfg(unix)]
mod sys;
pub mod proto;

#[cfg(unix)]
pub use sys::raise_nofile_limit;

use crate::journal::json::Json;
use crate::journal::{self, Journal};
use crate::tuner::{Baco, BacoOptions, Evaluation, Session, TuningReport};
use crate::{Error, Result};
use proto::{Envelope, ErrorKind, Request, WireError};
use registry::{lock_slot, Registry};
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Configuration of a [`ServerHandle`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// When set, every session is journaled to `<dir>/<session>.jsonl` and
    /// can be resumed across server restarts. `None` (default) keeps
    /// sessions in memory only.
    pub journal_dir: Option<PathBuf>,
    /// Maximum concurrently served TCP connections (default 8192): an
    /// fd-exhaustion guard. Connections past it get one `overloaded` error
    /// line and are closed (request-level load is shed with
    /// [`ServerOptions::max_outstanding`] well before this trips).
    pub max_connections: usize,
    /// Worker threads executing requests behind the TCP front end
    /// (default 4). Per-connection order is independent of this: each
    /// connection has at most one request in flight at a time.
    pub workers: usize,
    /// Server-wide cap on accepted-but-unanswered requests (default 1024).
    /// Past it, newly framed requests are answered with a typed
    /// `overloaded` error — in request order, connection kept open — until
    /// the backlog drains. Shed load is retryable load.
    pub max_outstanding: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            journal_dir: None,
            max_connections: 8192,
            workers: 4,
            max_outstanding: 1024,
        }
    }
}

#[derive(Debug)]
struct Inner {
    registry: Registry<Session>,
    opts: ServerOptions,
}

/// The in-process face of the tuning server: a cheaply cloneable handle
/// whose [`ServerHandle::handle_line`] maps one request line to one reply
/// line. All front ends (tests, TCP, CLI) share this dispatch path, so
/// in-process tests exercise exactly what the daemon serves.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    inner: Arc<Inner>,
}

impl ServerHandle {
    /// Creates an empty server.
    pub fn new(opts: ServerOptions) -> ServerHandle {
        ServerHandle {
            inner: Arc::new(Inner { registry: Registry::new(), opts }),
        }
    }

    /// Number of registered sessions.
    pub fn session_count(&self) -> usize {
        self.inner.registry.len()
    }

    /// Handles one request line, returning one reply line (no trailing
    /// newline). Never panics: malformed input of any shape yields a typed
    /// error reply (see [`proto`]).
    pub fn handle_line(&self, line: &str) -> String {
        match proto::parse_request(line) {
            Err(e) => proto::err_line(None, &e),
            Ok(Envelope { id, req }) => match self.dispatch(req) {
                Ok(fields) => proto::ok_line(id.as_ref(), fields),
                Err(e) => proto::err_line(id.as_ref(), &e),
            },
        }
    }

    fn dispatch(&self, req: Request) -> std::result::Result<Vec<(String, Json)>, WireError> {
        match req {
            Request::Create { session, space, opts, transfer } => {
                self.create(&session, &space, *opts, transfer)
            }
            Request::Ask { session } => self.with_session(&session, |s| {
                let cfg = s.ask().map_err(|e| WireError::from_error(&e))?;
                Ok(vec![(
                    "config".into(),
                    cfg.as_ref().map(journal::encode_config).unwrap_or(Json::Null),
                )])
            }),
            Request::SuggestBatch { session, q } => self.with_session(&session, |s| {
                let round = s.suggest_batch(q).map_err(|e| WireError::from_error(&e))?;
                Ok(vec![(
                    "configs".into(),
                    Json::Arr(round.iter().map(journal::encode_config).collect()),
                )])
            }),
            Request::Report { session, config, values, feasible } => {
                self.with_session(&session, |s| {
                    let cfg = journal::decode_config(s.tuner().space(), &config)
                        .map_err(|e| WireError::bad_request(format!("`config`: {e}")))?;
                    let m = s.tuner().options().objectives;
                    let eval = match (feasible, values) {
                        (true, Some(v)) => {
                            if v.len() != m {
                                return Err(WireError::bad_request(format!(
                                    "report carries {} objective(s), session tunes {m}",
                                    v.len()
                                )));
                            }
                            Evaluation::feasible_multi(v)
                        }
                        _ => Evaluation::infeasible(),
                    };
                    // The fallible entry point: the core's own non-finite
                    // guard (`Error::NonFiniteObjective`) surfaces as a
                    // typed reply even for requests that slipped past the
                    // protocol-boundary check. `ok` acknowledges durability:
                    // a failed journal append is an `io` reply here — the
                    // result is in the in-memory history but would not
                    // survive a restart, and the session refuses further
                    // appends until a `create_session` with `resume: true`
                    // replaces it from the journal.
                    s.try_report(cfg, eval).map_err(|e| WireError::from_error(&e))?;
                    Ok(vec![("len".into(), Json::Num(s.history().len() as f64))])
                })
            }
            Request::Best { session } => self.with_session(&session, |s| {
                let history = s.history();
                if s.tuner().options().objectives > 1 {
                    // Multi-objective sessions have no single incumbent:
                    // `best` is the Pareto front, in evaluation order.
                    let front: Vec<Json> = history
                        .pareto_front()
                        .iter()
                        .map(|tr| {
                            let objs = tr.objectives().unwrap_or_default();
                            Json::Obj(vec![
                                ("config".into(), journal::encode_config(&tr.config)),
                                (
                                    "values".into(),
                                    Json::Arr(
                                        objs.iter()
                                            .map(|&v| journal::encode_value(Some(v)))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect();
                    let mut fields = vec![("front".into(), Json::Arr(front))];
                    hypervolume_fields(history, &mut fields);
                    return Ok(fields);
                }
                Ok(match history.best() {
                    Some(tr) => vec![
                        ("config".into(), journal::encode_config(&tr.config)),
                        ("value".into(), journal::encode_value(tr.value)),
                    ],
                    None => vec![("config".into(), Json::Null), ("value".into(), Json::Null)],
                })
            }),
            Request::Status { session: Some(session) } => self.with_session(&session, |s| {
                let mut fields = vec![
                    ("len".into(), Json::Num(s.history().len() as f64)),
                    ("budget".into(), Json::Num(s.tuner().options().budget as f64)),
                    ("remaining".into(), Json::Num(s.remaining_budget() as f64)),
                    ("pending".into(), Json::Num(s.pending().len() as f64)),
                    ("best_value".into(), journal::encode_value(s.history().best_value())),
                ];
                // A session that fails `io` until it is resumed says so;
                // healthy sessions omit the field.
                if s.journal_closed() {
                    fields.push(("journal_closed".into(), Json::Bool(true)));
                }
                transfer_fields(s.tuner(), &mut fields);
                if s.tuner().options().objectives > 1 {
                    let history = s.history();
                    fields.push((
                        "front_size".into(),
                        Json::Num(history.pareto_front().len() as f64),
                    ));
                    hypervolume_fields(history, &mut fields);
                }
                Ok(fields)
            }),
            Request::Status { session: None } => {
                // One snapshot for both fields, so `sessions` always equals
                // `names.len()` even while creates/closes race this reply.
                let names = self.inner.registry.keys();
                Ok(vec![
                    ("sessions".into(), Json::Num(names.len() as f64)),
                    ("names".into(), Json::Arr(names.into_iter().map(Json::Str).collect())),
                ])
            }
            Request::Close { session } => {
                let unknown = || WireError::from_error(&Error::UnknownSession(session.clone()));
                let Some(slot) = self.inner.registry.get(&session) else {
                    return Err(unknown());
                };
                // Take the tenant under its mutex *before* touching the map:
                // an empty slot is a session mid-create (or already closed),
                // and its registration must be left alone. Laggard requests
                // still holding the Arc observe the emptied slot; the
                // journal writer is dropped (every record is already durable
                // — the writer has no buffered state).
                let tenant = lock_slot(&slot).take();
                let Some(tenant) = tenant else {
                    return Err(unknown());
                };
                self.inner.registry.remove_if(&session, &slot);
                let len = tenant.history().len();
                // Free the tenant now, not at scope end: a long-lived session
                // holds the surrogate cache's distance tables (O(budget²·d)
                // budgeted, O(n²·d) exact), which must not outlive the close
                // reply.
                drop(tenant);
                Ok(vec![
                    ("closed".into(), Json::Bool(true)),
                    ("len".into(), Json::Num(len as f64)),
                ])
            }
        }
    }

    /// Runs `f` on the named session under its slot mutex. No registry lock
    /// is held while `f` runs, so unrelated sessions proceed in parallel.
    fn with_session<R>(
        &self,
        session: &str,
        f: impl FnOnce(&mut Session) -> std::result::Result<R, WireError>,
    ) -> std::result::Result<R, WireError> {
        let unknown = || WireError::from_error(&Error::UnknownSession(session.to_string()));
        let slot = self.inner.registry.get(session).ok_or_else(unknown)?;
        let mut guard = lock_slot(&slot);
        f(guard.as_mut().ok_or_else(unknown)?)
    }

    /// Validates a session id for registry and journal-file use: 1–64
    /// characters from `[A-Za-z0-9._-]`, not starting with a dot (which also
    /// rules out path tricks like `..`).
    fn validate_name(name: &str) -> std::result::Result<(), WireError> {
        let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-');
        if name.is_empty() || name.len() > 64 || name.starts_with('.') || !name.chars().all(ok_char)
        {
            return Err(WireError::bad_request(
                "session ids are 1-64 chars of [A-Za-z0-9._-], not starting with `.`",
            ));
        }
        Ok(())
    }

    fn create(
        &self,
        name: &str,
        space: &Json,
        mut opts: BacoOptions,
        transfer: bool,
    ) -> std::result::Result<Vec<(String, Json)>, WireError> {
        Self::validate_name(name)?;
        // The tuner's own range checks, asked before the space is decoded:
        // an option out of range is the request's fault whatever else is
        // wrong with it.
        opts.validate().map_err(|e| WireError::bad_request(e.to_string()))?;
        let space = journal::space_from_spec(space)
            .map_err(|msg| WireError { kind: ErrorKind::InvalidSpace, msg })?;

        let mut resumed = false;
        if let Some(dir) = &self.inner.opts.journal_dir {
            let path = dir.join(format!("{name}.jsonl"));
            resumed = opts.resume && Journal::exists(&path);
            opts.journal_path = Some(path);
            if transfer {
                // The corpus *is* the journal directory: every archived
                // session is a potential donor for this one.
                opts.transfer = Some(dir.clone());
            }
        } else if opts.resume {
            // Honoring `resume` is impossible without journals; a silent
            // fresh volatile session would discard the client's expensive
            // prior evaluations while it believes it resumed durably.
            return Err(WireError::bad_request(
                "this server has no journal directory; sessions cannot be resumed",
            ));
        } else if transfer {
            // Same contract as `resume`: a memory-only server has no journal
            // corpus, and silently starting cold would let the client believe
            // it is riding on fleet experience.
            return Err(WireError::bad_request(
                "this server has no journal directory; there is no corpus to transfer from",
            ));
        }

        // Reserve the name first: a second create (or any op) under this id
        // now fails fast instead of racing the construction below — two
        // concurrent creates must not both truncate/replay the journal.
        let exists = || WireError::from_error(&Error::SessionExists(name.to_string()));
        let (slot, replacing) = match self.inner.registry.reserve(name) {
            Some(slot) => (slot, false),
            None if resumed => (self.inner.registry.get(name).ok_or_else(exists)?, true),
            None => return Err(exists()),
        };
        let mut guard = lock_slot(&slot);
        // A registered session is replaced only when its journal closed
        // after a failed append: it can answer nothing but `io` until it is
        // resumed from the acknowledged prefix. A healthy one stays.
        if replacing && !guard.as_ref().is_some_and(Session::journal_closed) {
            return Err(exists());
        }
        let built = Baco::builder(space).options(opts).build().and_then(Session::new);
        let session = match built {
            Ok(s) => s,
            // A failed replacement leaves the closed session in place.
            Err(e) if replacing => return Err(WireError::from_error(&e)),
            Err(e) => {
                drop(guard);
                // Remove only *this* create's reservation: a racing
                // close-then-recreate may already have replaced it.
                self.inner.registry.remove_if(name, &slot);
                return Err(WireError::from_error(&e));
            }
        };
        let mut fields = vec![
            ("session".into(), Json::Str(name.to_string())),
            ("resumed".into(), Json::Bool(resumed)),
            ("len".into(), Json::Num(session.history().len() as f64)),
            ("remaining".into(), Json::Num(session.remaining_budget() as f64)),
        ];
        transfer_fields(session.tuner(), &mut fields);
        *guard = Some(session);
        Ok(fields)
    }

    /// Starts the TCP front end on `addr` and returns its controller.
    /// Clients speak the [`proto`] protocol: one request line in, one reply
    /// line out, with pipelining (requests of one connection are answered
    /// strictly in request order; the optional `id` member correlates them).
    ///
    /// One readiness loop multiplexes every connection over the platform's
    /// poller (epoll on Linux, `poll(2)` on other Unix hosts), dispatching
    /// on [`ServerOptions::workers`] worker threads with write-side
    /// backpressure and `overloaded` load-shedding (see the module docs).
    ///
    /// # Errors
    /// [`Error::Io`] when the listener cannot bind, or on a host without
    /// Unix support.
    pub fn serve<A: ToSocketAddrs>(&self, addr: A) -> Result<TcpServer> {
        #[cfg(unix)]
        {
            event::serve_on::<sys::Poller, _>(self.clone(), addr)
        }
        #[cfg(not(unix))]
        {
            let _ = addr;
            Err(Error::Io("the TCP front end needs a Unix host (epoll or poll(2))".into()))
        }
    }
}

/// The multi-objective quality fields of `best` and `status`: the dominated
/// hypervolume. Without a reference point it is undefined, not an error:
/// an explicit `null` plus a typed note lets clients tell "not configured"
/// apart from "front is empty".
fn hypervolume_fields(history: &TuningReport, fields: &mut Vec<(String, Json)>) {
    match history.hypervolume_vs_ref() {
        Some(hv) => fields.push(("hypervolume".into(), Json::Num(hv))),
        None => {
            fields.push(("hypervolume".into(), Json::Null));
            fields.push(("note".into(), Json::Str("no_reference_point".into())));
        }
    }
}

/// The transfer fields of `create_session` and `status`: where a
/// transfer-enabled session's prior came from. Cold sessions omit them.
fn transfer_fields(tuner: &Baco, fields: &mut Vec<(String, Json)>) {
    if let Some((donors, donor_trials)) = tuner.transfer_donors() {
        fields.push(("transfer_donors".into(), Json::Num(donors as f64)));
        fields.push(("donor_trials".into(), Json::Num(donor_trials as f64)));
    }
}

/// Controller of the running TCP front end (returned by
/// [`ServerHandle::serve`]). Dropping it stops the loop and drops its
/// connections; sessions and their journals live in the [`ServerHandle`],
/// not here.
#[derive(Debug)]
pub struct TcpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    #[cfg(unix)]
    waker: event::Waker,
    thread: Option<JoinHandle<()>>,
}

impl TcpServer {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops serving: drops every connection, joins the loop and workers.
    pub fn stop(mut self) {
        self.shutdown();
    }

    /// Blocks until the serving loop exits; for a daemon, this parks forever.
    pub fn join(mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        #[cfg(unix)]
        self.waker.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    fn int_space_spec() -> &'static str {
        r#"{"params":[{"name":"a","kind":"int","lo":"0","hi":"15"},{"name":"b","kind":"int","lo":"0","hi":"15"}],"constraints":[]}"#
    }

    fn create_line(name: &str, budget: usize, seed: u64) -> String {
        format!(
            r#"{{"op":"create_session","session":"{name}","budget":{budget},"doe_samples":3,"seed":{seed},"space":{}}}"#,
            int_space_spec()
        )
    }

    fn parse(reply: &str) -> Json {
        crate::journal::json::parse(reply).expect("replies are valid JSON")
    }

    #[test]
    fn full_session_lifecycle_over_the_wire() {
        let srv = ServerHandle::new(ServerOptions::default());
        assert!(parse(&srv.handle_line(&create_line("s1", 6, 3)))
            .get("ok")
            .is_some_and(|j| *j == Json::Bool(true)));
        assert_eq!(srv.session_count(), 1);

        let mut n = 0;
        loop {
            let reply = parse(&srv.handle_line(r#"{"op":"ask","session":"s1"}"#));
            let cfg = reply.get("config").unwrap();
            if *cfg == Json::Null {
                break;
            }
            let a = cfg.get("a").and_then(Json::as_f64).unwrap();
            let report = format!(
                r#"{{"op":"report","session":"s1","config":{},"value":{}}}"#,
                cfg.to_line(),
                (a - 7.0).powi(2) + 1.0
            );
            assert!(srv.handle_line(&report).contains(r#""ok":true"#));
            n += 1;
        }
        assert_eq!(n, 6);

        let best = parse(&srv.handle_line(r#"{"op":"best","session":"s1"}"#));
        assert!(best.get("value").and_then(Json::as_f64).unwrap() >= 1.0);
        let status = parse(&srv.handle_line(r#"{"op":"status","session":"s1"}"#));
        assert_eq!(status.get("len").and_then(Json::as_f64), Some(6.0));
        assert_eq!(status.get("remaining").and_then(Json::as_f64), Some(0.0));

        let closed = parse(&srv.handle_line(r#"{"op":"close","session":"s1"}"#));
        assert_eq!(closed.get("closed"), Some(&Json::Bool(true)));
        assert_eq!(srv.session_count(), 0);
        // Ops on the closed session are typed errors.
        let err = parse(&srv.handle_line(r#"{"op":"ask","session":"s1"}"#));
        assert_eq!(
            err.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
            Some("unknown_session")
        );
    }

    #[test]
    fn budgeted_session_over_the_wire() {
        let srv = ServerHandle::new(ServerOptions::default());
        let create = format!(
            r#"{{"op":"create_session","session":"sb","budget":16,"doe_samples":4,"seed":9,"surrogate_budget":8,"space":{}}}"#,
            int_space_spec()
        );
        assert!(parse(&srv.handle_line(&create))
            .get("ok")
            .is_some_and(|j| *j == Json::Bool(true)));

        // Enough reports that the feasible history outgrows the 8-point
        // budget, so later asks run the active-set/trust-region path.
        let mut n = 0;
        loop {
            let reply = parse(&srv.handle_line(r#"{"op":"ask","session":"sb"}"#));
            let cfg = reply.get("config").unwrap();
            if *cfg == Json::Null {
                break;
            }
            let a = cfg.get("a").and_then(Json::as_f64).unwrap();
            let report = format!(
                r#"{{"op":"report","session":"sb","config":{},"value":{}}}"#,
                cfg.to_line(),
                (a - 7.0).powi(2) + 1.0
            );
            assert!(srv.handle_line(&report).contains(r#""ok":true"#));
            n += 1;
        }
        assert_eq!(n, 16);

        // Close frees the tenant (and its surrogate cache) immediately.
        let closed = parse(&srv.handle_line(r#"{"op":"close","session":"sb"}"#));
        assert_eq!(closed.get("closed"), Some(&Json::Bool(true)));
        assert_eq!(srv.session_count(), 0);

        // A sub-minimum budget is rejected at the wire with a typed error.
        let bad = format!(
            r#"{{"op":"create_session","session":"tiny","budget":4,"surrogate_budget":2,"space":{}}}"#,
            int_space_spec()
        );
        let err = parse(&srv.handle_line(&bad));
        assert_eq!(
            err.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
            Some("bad_request")
        );
    }

    #[test]
    fn multi_objective_session_over_the_wire() {
        let srv = ServerHandle::new(ServerOptions::default());
        let create = format!(
            r#"{{"op":"create_session","session":"mo","budget":8,"doe_samples":4,"seed":2,"objectives":2,"reference_point":[200.0,40.0],"space":{}}}"#,
            int_space_spec()
        );
        assert!(parse(&srv.handle_line(&create))
            .get("ok")
            .is_some_and(|j| *j == Json::Bool(true)));

        loop {
            let reply = parse(&srv.handle_line(r#"{"op":"ask","session":"mo"}"#));
            let cfg = reply.get("config").unwrap();
            if *cfg == Json::Null {
                break;
            }
            let a = cfg.get("a").and_then(Json::as_f64).unwrap();
            let b = cfg.get("b").and_then(Json::as_f64).unwrap();
            // Latency falls with a, "area" rises with it: a real trade-off.
            let report = format!(
                r#"{{"op":"report","session":"mo","config":{},"values":[{},{}]}}"#,
                cfg.to_line(),
                1.0 + (15.0 - a) + b * 0.2,
                1.0 + 2.0 * a
            );
            assert!(srv.handle_line(&report).contains(r#""ok":true"#));
        }

        // A width-mismatched report is a typed refusal.
        let cfg = r#"{"a":1,"b":1}"#;
        let bad = format!(
            r#"{{"op":"report","session":"mo","config":{cfg},"values":[1.0]}}"#
        );
        assert!(srv.handle_line(&bad).contains(r#""kind":"bad_request""#));

        // `best` is the Pareto front plus the journaled-reference
        // hypervolume.
        let best = parse(&srv.handle_line(r#"{"op":"best","session":"mo"}"#));
        let front = best.get("front").and_then(Json::as_arr).unwrap();
        assert!(!front.is_empty());
        for point in front {
            assert!(point.get("config").is_some());
            assert_eq!(point.get("values").and_then(Json::as_arr).unwrap().len(), 2);
        }
        assert!(best.get("hypervolume").and_then(Json::as_f64).unwrap() > 0.0);
        // Mismatched reference point at create time is refused.
        let bad_create = format!(
            r#"{{"op":"create_session","session":"mo2","budget":4,"objectives":2,"reference_point":[1.0],"space":{}}}"#,
            int_space_spec()
        );
        assert!(srv.handle_line(&bad_create).contains(r#""kind":"bad_request""#));
    }

    #[test]
    fn duplicate_create_and_bad_names_are_rejected() {
        let srv = ServerHandle::new(ServerOptions::default());
        assert!(srv.handle_line(&create_line("dup", 4, 0)).contains(r#""ok":true"#));
        let again = parse(&srv.handle_line(&create_line("dup", 4, 0)));
        assert_eq!(
            again.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
            Some("session_exists")
        );
        for bad in ["", ".hidden", "..", "a/b", "x y", &"n".repeat(65)] {
            let reply = parse(&srv.handle_line(&create_line(bad, 4, 0)));
            assert_eq!(
                reply.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
                Some("bad_request"),
                "name {bad:?}"
            );
        }
        // A failed create must not leak a reservation.
        let bad_space = r#"{"op":"create_session","session":"broken","budget":4,"space":{"params":[{"name":"x","kind":"int","lo":"9","hi":"0"}],"constraints":[]}}"#;
        assert!(srv.handle_line(bad_space).contains(r#""kind":"invalid_space""#));
        assert_eq!(srv.session_count(), 1);
        assert!(srv.handle_line(&create_line("broken", 4, 0)).contains(r#""ok":true"#));
    }

    #[test]
    fn transfer_session_over_the_wire() {
        let dir = std::env::temp_dir().join(format!("baco-srv-transfer-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let srv = ServerHandle::new(ServerOptions {
            journal_dir: Some(dir.clone()),
            ..ServerOptions::default()
        });
        let drive = |name: &str| loop {
            let reply = parse(&srv.handle_line(&format!(r#"{{"op":"ask","session":"{name}"}}"#)));
            let cfg = reply.get("config").unwrap();
            if *cfg == Json::Null {
                break;
            }
            let a = cfg.get("a").and_then(Json::as_f64).unwrap();
            let report = format!(
                r#"{{"op":"report","session":"{name}","config":{},"value":{}}}"#,
                cfg.to_line(),
                (a - 7.0).powi(2) + 1.0
            );
            assert!(srv.handle_line(&report).contains(r#""ok":true"#));
        };

        // A donor session runs cold and archives its journal in the corpus.
        assert!(srv.handle_line(&create_line("donor", 6, 1)).contains(r#""ok":true"#));
        drive("donor");
        assert!(srv.handle_line(r#"{"op":"close","session":"donor"}"#).contains(r#""ok":true"#));

        // The transfer session mines it: create reports the donor count...
        let create = format!(
            r#"{{"op":"create_session","session":"warm","budget":6,"doe_samples":3,"seed":2,"transfer":true,"space":{}}}"#,
            int_space_spec()
        );
        let created = parse(&srv.handle_line(&create));
        assert_eq!(created.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(created.get("transfer_donors").and_then(Json::as_f64), Some(1.0));
        assert!(created.get("donor_trials").and_then(Json::as_f64).unwrap() >= 2.0);

        // ...status repeats it, and the session still serves the loop.
        let status = parse(&srv.handle_line(r#"{"op":"status","session":"warm"}"#));
        assert_eq!(status.get("transfer_donors").and_then(Json::as_f64), Some(1.0));
        drive("warm");
        let best = parse(&srv.handle_line(r#"{"op":"best","session":"warm"}"#));
        assert!(best.get("value").and_then(Json::as_f64).unwrap() >= 1.0);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transfer_without_a_journal_dir_is_refused() {
        // No journal_dir means no corpus: a silent cold start would let the
        // client believe it is riding on fleet experience.
        let srv = ServerHandle::new(ServerOptions::default());
        let req = format!(
            r#"{{"op":"create_session","session":"t","budget":4,"transfer":true,"space":{}}}"#,
            int_space_spec()
        );
        let reply = srv.handle_line(&req);
        assert!(reply.contains(r#""kind":"bad_request""#), "{reply}");
        assert!(reply.contains("transfer"), "{reply}");
        assert_eq!(srv.session_count(), 0);
    }

    #[test]
    fn resume_without_a_journal_dir_is_refused() {
        // This server keeps sessions in memory only; honoring `resume`
        // is impossible, and a silent fresh session would discard what the
        // client believes is durable history.
        let srv = ServerHandle::new(ServerOptions::default());
        let req = format!(
            r#"{{"op":"create_session","session":"r","budget":4,"resume":true,"space":{}}}"#,
            int_space_spec()
        );
        let reply = srv.handle_line(&req);
        assert!(reply.contains(r#""kind":"bad_request""#), "{reply}");
        assert_eq!(srv.session_count(), 0);
    }

    fn error_kind(reply: &str) -> Option<String> {
        parse(reply)
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
            .map(str::to_string)
    }

    /// The options' ranges are the tuner's to check: the parser lets them
    /// through, and create answers `bad_request` before it looks at the
    /// space or the registry.
    #[test]
    fn options_out_of_range_are_bad_requests_at_create() {
        let srv = ServerHandle::new(ServerOptions::default());
        let create = |name: &str, opts: &str, space: &str| {
            srv.handle_line(&format!(
                r#"{{"op":"create_session","session":"{name}",{opts},"space":{space}}}"#
            ))
        };
        let bad_space = r#"{"params":[{"name":"x","kind":"int","lo":"9","hi":"0"}],"constraints":[]}"#;
        let ok = r#""budget":4"#;
        assert!(create("taken", ok, int_space_spec()).contains(r#""ok":true"#));
        for opts in [
            r#""budget":0"#,
            r#""budget":4,"objectives":0"#,
            r#""budget":4,"surrogate_budget":4"#,
            r#""budget":4,"objectives":2,"reference_point":[1.0]"#,
            r#""budget":4,"reference_point":[1.0,2.0]"#,
        ] {
            // Alone, next to an invalid space, and under a taken name: the
            // option is named first.
            for (name, space) in
                [("s", int_space_spec()), ("s", bad_space), ("taken", int_space_spec())]
            {
                let reply = create(name, opts, space);
                assert_eq!(error_kind(&reply).as_deref(), Some("bad_request"), "{opts}: {reply}");
            }
        }
        // A space without parameters is still the tuner's refusal.
        let empty = create("s", ok, r#"{"params":[],"constraints":[]}"#);
        assert_eq!(error_kind(&empty).as_deref(), Some("tuner"), "{empty}");
        // No refusal leaked a reservation.
        assert_eq!(srv.session_count(), 1);
        assert!(create("s", ok, int_space_spec()).contains(r#""ok":true"#));
    }

    /// A failed journal append answers the `report` that caused it with
    /// `io`; the session then fails typed until a resuming create replaces
    /// it, without a `close`, and continues from the acknowledged records.
    /// A healthy session is never replaced.
    #[test]
    fn failed_journal_append_answers_io_until_resumed() {
        use crate::journal::fault::{self, Fault};
        let dir = std::env::temp_dir().join(format!("baco-srv-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let srv = ServerHandle::new(ServerOptions {
            journal_dir: Some(dir.clone()),
            ..ServerOptions::default()
        });
        let ask = || parse(&srv.handle_line(r#"{"op":"ask","session":"f"}"#)).get("config").cloned();
        let report = |cfg: &Json| {
            srv.handle_line(&format!(
                r#"{{"op":"report","session":"f","config":{},"value":2.5}}"#,
                cfg.to_line()
            ))
        };
        let resume = create_line("f", 8, 5).replace(r#""seed""#, r#""resume":true,"seed""#);
        assert!(srv.handle_line(&create_line("f", 8, 5)).contains(r#""ok":true"#));
        // A healthy live session is not replaced by a resuming create.
        let dup = srv.handle_line(&resume);
        assert_eq!(error_kind(&dup).as_deref(), Some("session_exists"), "{dup}");
        for _ in 0..4 {
            let cfg = ask().unwrap();
            assert!(report(&cfg).contains(r#""ok":true"#));
        }
        let cfg = ask().unwrap();
        fault::arm(Fault::FailedSync);
        assert_eq!(error_kind(&report(&cfg)).as_deref(), Some("io"));
        let reply = srv.handle_line(r#"{"op":"ask","session":"f"}"#);
        assert_eq!(error_kind(&reply).as_deref(), Some("io"), "{reply}");
        let status = || srv.handle_line(r#"{"op":"status","session":"f"}"#);
        assert!(status().contains(r#""journal_closed":true"#), "{}", status());

        // Only a resuming create replaces the closed session.
        let dup = srv.handle_line(&create_line("f", 8, 5));
        assert_eq!(error_kind(&dup).as_deref(), Some("session_exists"), "{dup}");
        let created = parse(&srv.handle_line(&resume));
        assert_eq!(created.get("resumed"), Some(&Json::Bool(true)));
        assert_eq!(created.get("len").and_then(Json::as_f64), Some(4.0));
        assert_eq!(ask().as_ref(), Some(&cfg), "the lost trial's proposal is asked again");
        assert!(report(&cfg).contains(r#""len":5"#));
        assert!(!status().contains("journal_closed"), "{}", status());
        assert_eq!(srv.session_count(), 1);
        // The replacement is healthy again: a second resuming create is a
        // duplicate.
        let dup = srv.handle_line(&resume);
        assert_eq!(error_kind(&dup).as_deref(), Some("session_exists"), "{dup}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tcp_front_end_serves_and_limits_connections() {
        let srv = ServerHandle::new(ServerOptions {
            max_connections: 2,
            ..ServerOptions::default()
        });
        let tcp = srv.serve("127.0.0.1:0").unwrap();
        let addr = tcp.addr();

        let mut a = TcpStream::connect(addr).unwrap();
        let mut b = TcpStream::connect(addr).unwrap();
        let read_line = |s: &mut TcpStream| {
            let mut r = BufReader::new(s.try_clone().unwrap());
            let mut line = String::new();
            r.read_line(&mut line).unwrap();
            line
        };
        writeln!(a, "{}", create_line("tcp1", 4, 1)).unwrap();
        assert!(read_line(&mut a).contains(r#""ok":true"#));
        writeln!(b, r#"{{"op":"status"}}"#).unwrap();
        assert!(read_line(&mut b).contains(r#""sessions":1"#));

        // Third concurrent connection: one typed refusal line, then closed.
        let mut c = TcpStream::connect(addr).unwrap();
        let line = read_line(&mut c);
        assert!(line.contains(r#""kind":"overloaded""#), "{line}");

        drop(a);
        drop(b);
        drop(c);
        tcp.stop();
        assert_eq!(srv.session_count(), 1, "sessions outlive the TCP front end");
    }

    #[test]
    fn tcp_front_end_caps_request_line_length() {
        let srv = ServerHandle::new(ServerOptions::default());
        let tcp = srv.serve("127.0.0.1:0").unwrap();
        let mut s = TcpStream::connect(tcp.addr()).unwrap();
        // Stream more than the cap without ever sending a newline: the
        // server must answer with one typed error line and close, not
        // buffer without bound.
        let chunk = vec![b'x'; 64 * 1024];
        let mut sent = 0usize;
        while sent <= event::MAX_REQUEST_LINE + chunk.len() {
            if s.write_all(&chunk).is_err() {
                break; // server already closed on us — also acceptable
            }
            sent += chunk.len();
        }
        let mut reply = String::new();
        let mut r = BufReader::new(s.try_clone().unwrap());
        if r.read_line(&mut reply).unwrap_or(0) > 0 {
            assert!(reply.contains(r#""kind":"bad_request""#), "{reply}");
        }
        // Either way the connection is closed afterwards.
        let mut rest = String::new();
        assert_eq!(r.read_line(&mut rest).unwrap_or(0), 0, "connection must be closed");
        tcp.stop();
    }
}
