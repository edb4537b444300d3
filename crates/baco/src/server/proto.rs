//! The line-delimited JSON (JSONL) wire protocol of the tuning server.
//!
//! Every request is one JSON object on one line; every reply is one JSON
//! object on one line. Requests carry an `"op"` tag naming the operation and
//! a `"session"` id where applicable; replies carry `"ok": true` plus
//! op-specific fields, or `"ok": false` plus a typed `"error"` object —
//! **never** a panic, whatever the bytes (the codec is the journal's
//! panic-free [`crate::journal::json`] parser, and every malformation
//! maps to [`ErrorKind::BadRequest`]). An optional `"id"` member (any JSON
//! value) is echoed verbatim in the reply so clients may pipeline requests.
//!
//! | op | request fields | reply fields |
//! |---|---|---|
//! | `create_session` | `session`, `space` ([`space_spec`](crate::journal::space_spec) object), `budget`; optional `doe_samples`, `seed`, `resume`, `surrogate` (`"gp"`/`"rf"`), `hidden_constraints`, `feasibility_limit`, `local_search`, `log_objective`, `objectives` (≥ 1), `mo_strategy` (`"ehvi"` default / `"parego"`; multi-objective acquisition), `reference_point` (array, one finite entry per objective), `surrogate_budget` (≥ 8; budget-bounded surrogate mode), `transfer` (mine the server's journal directory for compatible archived sessions; requires a `journal_dir`) | `resumed`, `len`, `remaining` |
//! | `ask` | `session` | `config` (object or `null` when exhausted) |
//! | `suggest_batch` | `session`, `q` | `configs` (array, possibly empty) |
//! | `report` | `session`, `config`; `value` (number, `null`, `"NaN"`, `"inf"`, `"-inf"`) **or** `values` (array, one entry per objective of a multi-objective session), and/or `feasible` — only *all-finite* measurements count as feasible, anything else is recorded as a failed evaluation | `len` |
//! | `best` | `session` | single-objective: `config`+`value` (or both `null`); multi-objective: `front` (array of `{config, values}` in evaluation order) plus `hypervolume` — a number when the session has a reference point, otherwise `null` with a typed `note: "no_reference_point"` |
//! | `status` | optional `session` | per-session: `len`, `budget`, `remaining`, `pending`, `best_value`, and for multi-objective sessions `front_size` + `hypervolume` (number, or `null` with `note: "no_reference_point"`); server-wide: `sessions`, `names` |
//! | `close` | `session` | `closed`, `len` |
//!
//! Configurations use the run journal's codec
//! ([`encode_config`](crate::journal::encode_config) /
//! [`decode_config`](crate::journal::decode_config)), and the `space` spec is
//! the journal header's (see `docs/ARCHITECTURE.md` for the full grammar) —
//! one format everywhere.
//!
//! ```
//! use baco::server::proto::{parse_request, Request};
//!
//! let env = parse_request(r#"{"op":"ask","session":"s1","id":7}"#).unwrap();
//! assert!(matches!(env.req, Request::Ask { ref session } if session == "s1"));
//! assert!(parse_request("not json").is_err());
//! # let _ = env.id;
//! ```

use crate::journal::json::{self, Json};
use crate::Error;

/// The typed failure classes a reply's `error.kind` can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line was not valid JSON, or was missing/mistyping fields.
    BadRequest,
    /// The named session is not in the registry.
    UnknownSession,
    /// `create_session` named an id the registry already holds.
    SessionExists,
    /// The `space` spec (or its constraints) failed to build.
    InvalidSpace,
    /// The session's journal exists but cannot be decoded or does not match.
    JournalCorrupt,
    /// A journal filesystem operation failed.
    Io,
    /// The tuner itself failed (surrogate numerics, invalid options, …).
    Tuner,
    /// The request (or, past `max_connections`, the connection) was shed by
    /// the TCP front end's load limiter: the server is saturated and
    /// answered without executing it. Shed load is retryable load — clients
    /// should back off and resend (the `baco-cli client` does so
    /// automatically).
    Overloaded,
}

impl ErrorKind {
    /// The wire tag of this kind.
    pub fn tag(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::UnknownSession => "unknown_session",
            ErrorKind::SessionExists => "session_exists",
            ErrorKind::InvalidSpace => "invalid_space",
            ErrorKind::JournalCorrupt => "journal_corrupt",
            ErrorKind::Io => "io",
            ErrorKind::Tuner => "tuner",
            ErrorKind::Overloaded => "overloaded",
        }
    }
}

/// A typed error reply: a [`ErrorKind`] plus a human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// Failure class (the reply's `error.kind` tag).
    pub kind: ErrorKind,
    /// Human-readable description (the reply's `error.msg`).
    pub msg: String,
}

impl WireError {
    /// A [`ErrorKind::BadRequest`] error.
    pub fn bad_request(msg: impl Into<String>) -> WireError {
        WireError { kind: ErrorKind::BadRequest, msg: msg.into() }
    }

    /// The [`ErrorKind::Overloaded`] load-shedding error.
    pub fn overloaded() -> WireError {
        WireError {
            kind: ErrorKind::Overloaded,
            msg: "server overloaded; retry with backoff".into(),
        }
    }

    /// Maps a tuner [`Error`] onto its wire kind.
    pub fn from_error(e: &Error) -> WireError {
        let kind = match e {
            Error::UnknownSession(_) => ErrorKind::UnknownSession,
            Error::SessionExists(_) => ErrorKind::SessionExists,
            Error::InvalidSpace(_)
            | Error::ConstraintParse(_)
            | Error::UnknownParameter(_)
            | Error::EmptyFeasibleSet
            | Error::FeasibleSetTooLarge { .. } => ErrorKind::InvalidSpace,
            Error::Io(_) => ErrorKind::Io,
            Error::JournalCorrupt { .. } => ErrorKind::JournalCorrupt,
            _ => ErrorKind::Tuner,
        };
        WireError { kind, msg: e.to_string() }
    }
}

/// The options of a `create_session` request (everything not in
/// [`crate::tuner::BacoOptions`]' default besides the scalar knobs the wire
/// exposes stays at its default).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// The search space, as a raw [`space_spec`](crate::journal::space_spec)
    /// object (decoded by the server so failures stay typed).
    pub space: Json,
    /// Total evaluation budget (required, must be positive).
    pub budget: usize,
    /// Initial-phase sample count (default 10).
    pub doe_samples: usize,
    /// RNG seed (default 0).
    pub seed: u64,
    /// Resume from this session's journal when one exists (default false).
    pub resume: bool,
    /// Value surrogate: `"gp"` (default) or `"rf"`.
    pub surrogate: Option<String>,
    /// Learn hidden constraints (default true).
    pub hidden_constraints: Option<bool>,
    /// Apply the ε_f minimum-feasibility threshold (default true).
    pub feasibility_limit: Option<bool>,
    /// Optimize the acquisition with local search (default true).
    pub local_search: Option<bool>,
    /// Log-transform the objective (default true).
    pub log_objective: Option<bool>,
    /// Number of objectives the session tunes (default 1).
    pub objectives: usize,
    /// Multi-objective acquisition strategy: `"ehvi"` (the default) or
    /// `"parego"`. Ignored by single-objective sessions. Omit it when
    /// resuming a journal created before the knob existed — those journals
    /// ran ParEGO and must be resumed with `"parego"`.
    pub mo_strategy: Option<crate::tuner::MultiObjectiveStrategy>,
    /// Hypervolume reference point (one finite entry per objective).
    pub reference_point: Option<Vec<f64>>,
    /// Budget-bounded surrogate mode: cap the GP training set at this many
    /// points per round (default unset — exact GPs over the whole history).
    /// See [`BacoBuilder::surrogate_budget`](crate::tuner::BacoBuilder).
    pub surrogate_budget: Option<usize>,
    /// Transfer learning: seed the session from structurally-compatible
    /// archived journals in the server's journal directory (default false).
    /// Requires the server to have a `journal_dir` — requesting transfer on
    /// a memory-only server is a typed `bad_request`. See
    /// [`BacoBuilder::transfer`](crate::tuner::BacoBuilder).
    pub transfer: bool,
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `create_session`: register (or resume) a named session.
    Create {
        /// Session id.
        session: String,
        /// Everything needed to build the tuner.
        spec: SessionSpec,
    },
    /// `ask`: one proposal.
    Ask {
        /// Session id.
        session: String,
    },
    /// `suggest_batch`: a round of up to `q` proposals.
    SuggestBatch {
        /// Session id.
        session: String,
        /// Round size.
        q: usize,
    },
    /// `report`: one evaluation outcome.
    Report {
        /// Session id.
        session: String,
        /// The evaluated configuration (raw; decoded against the session's
        /// space).
        config: Json,
        /// Measured objective vector (`None` = hidden-constraint failure; a
        /// 1-vector for the classic scalar `value` field).
        values: Option<Vec<f64>>,
        /// Whether the evaluation succeeded.
        feasible: bool,
    },
    /// `best`: the incumbent.
    Best {
        /// Session id.
        session: String,
    },
    /// `status`: one session's counters, or the server's.
    Status {
        /// Session id; `None` asks for server-wide status.
        session: Option<String>,
    },
    /// `close`: unregister a session (its journal stays on disk).
    Close {
        /// Session id.
        session: String,
    },
}

/// A parsed request plus its optional `id` correlation value.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// The `id` member, echoed verbatim in the reply.
    pub id: Option<Json>,
    /// The operation.
    pub req: Request,
}

fn need_str(j: &Json, key: &str) -> Result<String, WireError> {
    match j.get(key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        Some(_) => Err(WireError::bad_request(format!("`{key}` must be a string"))),
        None => Err(WireError::bad_request(format!("missing `{key}`"))),
    }
}

fn opt_usize(j: &Json, key: &str) -> Result<Option<usize>, WireError> {
    match j.get(key) {
        None => Ok(None),
        Some(Json::Num(v)) if v.fract() == 0.0 && *v >= 0.0 && *v <= (1u64 << 53) as f64 => {
            Ok(Some(*v as usize))
        }
        Some(_) => Err(WireError::bad_request(format!("`{key}` must be a non-negative integer"))),
    }
}

fn need_usize(j: &Json, key: &str) -> Result<usize, WireError> {
    opt_usize(j, key)?.ok_or_else(|| WireError::bad_request(format!("missing `{key}`")))
}

fn opt_bool(j: &Json, key: &str) -> Result<Option<bool>, WireError> {
    match j.get(key) {
        None => Ok(None),
        Some(Json::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(WireError::bad_request(format!("`{key}` must be a boolean"))),
    }
}

/// Parses one request line.
///
/// # Errors
/// [`ErrorKind::BadRequest`] with a description of the first malformation.
/// Never panics, whatever the bytes.
pub fn parse_request(line: &str) -> Result<Envelope, WireError> {
    let j = json::parse(line).map_err(WireError::bad_request)?;
    if j.as_obj().is_none() {
        return Err(WireError::bad_request("request is not a JSON object"));
    }
    let id = j.get("id").cloned();
    let op = need_str(&j, "op")?;
    let req = match op.as_str() {
        "create_session" => {
            let session = need_str(&j, "session")?;
            let space = j
                .get("space")
                .cloned()
                .ok_or_else(|| WireError::bad_request("missing `space`"))?;
            let spec = SessionSpec {
                space,
                budget: need_usize(&j, "budget")?,
                doe_samples: opt_usize(&j, "doe_samples")?.unwrap_or(10),
                seed: match j.get("seed") {
                    None => 0,
                    Some(v) => crate::journal::parse_u64_json(v)
                        .map_err(|e| WireError::bad_request(format!("`seed`: {e}")))?,
                },
                resume: opt_bool(&j, "resume")?.unwrap_or(false),
                surrogate: match j.get("surrogate") {
                    None => None,
                    Some(Json::Str(s)) if s == "gp" || s == "rf" => Some(s.clone()),
                    Some(_) => {
                        return Err(WireError::bad_request("`surrogate` must be \"gp\" or \"rf\""))
                    }
                },
                hidden_constraints: opt_bool(&j, "hidden_constraints")?,
                feasibility_limit: opt_bool(&j, "feasibility_limit")?,
                local_search: opt_bool(&j, "local_search")?,
                log_objective: opt_bool(&j, "log_objective")?,
                objectives: match opt_usize(&j, "objectives")? {
                    None => 1,
                    Some(0) => {
                        return Err(WireError::bad_request("`objectives` must be at least 1"))
                    }
                    Some(m) => m,
                },
                mo_strategy: match j.get("mo_strategy") {
                    None | Some(Json::Null) => None,
                    Some(Json::Str(s)) if s == "ehvi" => {
                        Some(crate::tuner::MultiObjectiveStrategy::Ehvi)
                    }
                    Some(Json::Str(s)) if s == "parego" => {
                        Some(crate::tuner::MultiObjectiveStrategy::ParEgo)
                    }
                    Some(_) => {
                        return Err(WireError::bad_request(
                            "`mo_strategy` must be \"ehvi\" or \"parego\"",
                        ))
                    }
                },
                reference_point: match j.get("reference_point") {
                    None | Some(Json::Null) => None,
                    Some(Json::Arr(items)) => {
                        let mut r = Vec::with_capacity(items.len());
                        for it in items {
                            match it.as_f64() {
                                Some(v) if v.is_finite() => r.push(v),
                                _ => {
                                    return Err(WireError::bad_request(
                                        "`reference_point` entries must be finite numbers",
                                    ))
                                }
                            }
                        }
                        Some(r)
                    }
                    Some(_) => {
                        return Err(WireError::bad_request("`reference_point` must be an array"))
                    }
                },
                surrogate_budget: match opt_usize(&j, "surrogate_budget")? {
                    Some(b) if b < crate::tuner::MIN_SURROGATE_BUDGET => {
                        return Err(WireError::bad_request(format!(
                            "`surrogate_budget` must be at least {}",
                            crate::tuner::MIN_SURROGATE_BUDGET
                        )))
                    }
                    b => b,
                },
                transfer: opt_bool(&j, "transfer")?.unwrap_or(false),
            };
            if let Some(r) = &spec.reference_point {
                if r.len() != spec.objectives {
                    return Err(WireError::bad_request(format!(
                        "`reference_point` has {} entries for {} objectives",
                        r.len(),
                        spec.objectives
                    )));
                }
            }
            Request::Create { session, spec }
        }
        "ask" => Request::Ask { session: need_str(&j, "session")? },
        "suggest_batch" => Request::SuggestBatch {
            session: need_str(&j, "session")?,
            q: need_usize(&j, "q")?,
        },
        "report" => {
            let session = need_str(&j, "session")?;
            let config = j
                .get("config")
                .cloned()
                .ok_or_else(|| WireError::bad_request("missing `config`"))?;
            if j.get("value").is_some() && j.get("values").is_some() {
                return Err(WireError::bad_request("`value` and `values` are exclusive"));
            }
            let values: Option<Vec<f64>> = match j.get("values") {
                Some(Json::Arr(items)) => {
                    if items.is_empty() {
                        return Err(WireError::bad_request("`values` must not be empty"));
                    }
                    let mut out = Vec::with_capacity(items.len());
                    for it in items {
                        let v = crate::journal::decode_value(it)
                            .map_err(|e| WireError::bad_request(format!("`values`: {e}")))?
                            .ok_or_else(|| {
                                WireError::bad_request("`values` entries must be measurements")
                            })?;
                        out.push(v);
                    }
                    Some(out)
                }
                Some(_) => return Err(WireError::bad_request("`values` must be an array")),
                None => match j.get("value") {
                    None => None,
                    Some(v) => crate::journal::decode_value(v)
                        .map_err(|e| WireError::bad_request(format!("`value`: {e}")))?
                        .map(|v| vec![v]),
                },
            };
            // Non-finite objectives would poison the surrogate (a NaN
            // survives the log transform as an impossibly good observation),
            // so only all-finite measurements count as feasible; anything
            // non-finite without an explicit `feasible` is recorded as an
            // infeasible (failed) evaluation, and claiming it feasible is a
            // malformed request. The same guard also lives in the core
            // ingestion path (`Session::try_report`) for in-process callers.
            let finite = values
                .as_ref()
                .is_some_and(|v| v.iter().all(|x| x.is_finite()));
            let feasible = match opt_bool(&j, "feasible")? {
                Some(true) if !finite => {
                    return Err(WireError::bad_request(
                        "`feasible: true` requires finite measurement(s)",
                    ))
                }
                Some(f) => f,
                None => finite,
            };
            Request::Report { session, config, values, feasible }
        }
        "best" => Request::Best { session: need_str(&j, "session")? },
        "status" => Request::Status {
            session: match j.get("session") {
                None | Some(Json::Null) => None,
                Some(Json::Str(s)) => Some(s.clone()),
                Some(_) => return Err(WireError::bad_request("`session` must be a string")),
            },
        },
        "close" => Request::Close { session: need_str(&j, "session")? },
        other => return Err(WireError::bad_request(format!("unknown op `{other}`"))),
    };
    Ok(Envelope { id, req })
}

/// Serializes a success reply: `{"ok":true,("id":…,)…fields}`.
pub fn ok_line(id: Option<&Json>, fields: Vec<(String, Json)>) -> String {
    let mut members = vec![("ok".to_string(), Json::Bool(true))];
    if let Some(id) = id {
        members.push(("id".to_string(), id.clone()));
    }
    members.extend(fields);
    Json::Obj(members).to_line()
}

/// Serializes a typed error reply:
/// `{"ok":false,("id":…,)"error":{"kind":…,"msg":…}}`.
pub fn err_line(id: Option<&Json>, e: &WireError) -> String {
    let mut members = vec![("ok".to_string(), Json::Bool(false))];
    if let Some(id) = id {
        members.push(("id".to_string(), id.clone()));
    }
    members.push((
        "error".to_string(),
        Json::Obj(vec![
            ("kind".to_string(), Json::Str(e.kind.tag().to_string())),
            ("msg".to_string(), Json::Str(e.msg.clone())),
        ]),
    ));
    Json::Obj(members).to_line()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        let lines = [
            r#"{"op":"create_session","session":"s","budget":5,"space":{"params":[],"constraints":[]}}"#,
            r#"{"op":"ask","session":"s"}"#,
            r#"{"op":"suggest_batch","session":"s","q":4}"#,
            r#"{"op":"report","session":"s","config":{"x":1},"value":2.5}"#,
            r#"{"op":"best","session":"s"}"#,
            r#"{"op":"status"}"#,
            r#"{"op":"status","session":"s"}"#,
            r#"{"op":"close","session":"s"}"#,
        ];
        for line in lines {
            parse_request(line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
        }
    }

    #[test]
    fn surrogate_budget_parses_and_validates() {
        let parse = |extra: &str| {
            parse_request(&format!(
                r#"{{"op":"create_session","session":"s","budget":5,"space":{{"params":[],"constraints":[]}}{extra}}}"#
            ))
        };
        // Omitted → unset (exact surrogates).
        let Ok(Envelope { req: Request::Create { spec, .. }, .. }) = parse("") else {
            panic!("plain create must parse");
        };
        assert_eq!(spec.surrogate_budget, None);
        // Set → plumbed through.
        let Ok(Envelope { req: Request::Create { spec, .. }, .. }) =
            parse(r#","surrogate_budget":64"#)
        else {
            panic!("budgeted create must parse");
        };
        assert_eq!(spec.surrogate_budget, Some(64));
        // Below the floor (or malformed) → typed bad_request.
        for bad in [r#","surrogate_budget":4"#, r#","surrogate_budget":"lots""#] {
            assert_eq!(parse(bad).unwrap_err().kind, ErrorKind::BadRequest, "{bad}");
        }
    }

    #[test]
    fn mo_strategy_parses_and_validates() {
        use crate::tuner::MultiObjectiveStrategy;
        let parse = |extra: &str| {
            parse_request(&format!(
                r#"{{"op":"create_session","session":"s","budget":5,"space":{{"params":[],"constraints":[]}}{extra}}}"#
            ))
        };
        // Omitted → None (the server applies the library default, EHVI).
        let Ok(Envelope { req: Request::Create { spec, .. }, .. }) = parse("") else {
            panic!("plain create must parse");
        };
        assert_eq!(spec.mo_strategy, None);
        for (tag, want) in [
            ("ehvi", MultiObjectiveStrategy::Ehvi),
            ("parego", MultiObjectiveStrategy::ParEgo),
        ] {
            let Ok(Envelope { req: Request::Create { spec, .. }, .. }) =
                parse(&format!(r#","objectives":2,"mo_strategy":"{tag}""#))
            else {
                panic!("{tag} create must parse");
            };
            assert_eq!(spec.mo_strategy, Some(want));
        }
        for bad in [r#","mo_strategy":"nsga2""#, r#","mo_strategy":7"#] {
            assert_eq!(parse(bad).unwrap_err().kind, ErrorKind::BadRequest, "{bad}");
        }
    }

    #[test]
    fn transfer_parses_and_validates() {
        let parse = |extra: &str| {
            parse_request(&format!(
                r#"{{"op":"create_session","session":"s","budget":5,"space":{{"params":[],"constraints":[]}}{extra}}}"#
            ))
        };
        // Omitted → off (cold start, the historical behavior).
        let Ok(Envelope { req: Request::Create { spec, .. }, .. }) = parse("") else {
            panic!("plain create must parse");
        };
        assert!(!spec.transfer);
        for (extra, want) in [(r#","transfer":true"#, true), (r#","transfer":false"#, false)] {
            let Ok(Envelope { req: Request::Create { spec, .. }, .. }) = parse(extra) else {
                panic!("transfer create must parse: {extra}");
            };
            assert_eq!(spec.transfer, want, "{extra}");
        }
        // Non-boolean → typed bad_request.
        for bad in [r#","transfer":1"#, r#","transfer":"yes""#] {
            assert_eq!(parse(bad).unwrap_err().kind, ErrorKind::BadRequest, "{bad}");
        }
    }

    #[test]
    fn report_value_and_feasible_interplay() {
        let parse = |extra: &str| {
            parse_request(&format!(
                r#"{{"op":"report","session":"s","config":{{}}{extra}}}"#
            ))
        };
        // Omitted value → infeasible.
        let Ok(Envelope { req: Request::Report { values, feasible, .. }, .. }) = parse("") else {
            panic!("omitted value must parse");
        };
        assert_eq!((values, feasible), (None, false));
        // Tagged non-finite values parse but never count as feasible
        // measurements — they would poison the surrogate.
        let Ok(Envelope { req: Request::Report { values, feasible, .. }, .. }) =
            parse(r#","value":"inf""#)
        else {
            panic!("inf must parse");
        };
        assert_eq!((values, feasible), (Some(vec![f64::INFINITY]), false));
        let Ok(Envelope { req: Request::Report { values, feasible, .. }, .. }) =
            parse(r#","value":"NaN""#)
        else {
            panic!("NaN must parse");
        };
        assert!(values.unwrap()[0].is_nan());
        assert!(!feasible);
        assert_eq!(
            parse(r#","value":"NaN","feasible":true"#).unwrap_err().kind,
            ErrorKind::BadRequest,
            "claiming a NaN measurement feasible is malformed"
        );
        // Explicit feasible:false keeps a present value out of the model.
        let Ok(Envelope { req: Request::Report { feasible, .. }, .. }) =
            parse(r#","value":3,"feasible":false"#)
        else {
            panic!("explicit infeasible must parse");
        };
        assert!(!feasible);
        // feasible:true without a value is contradictory.
        assert_eq!(parse(r#","feasible":true"#).unwrap_err().kind, ErrorKind::BadRequest);
    }

    #[test]
    fn report_values_vector_interplay() {
        let parse = |extra: &str| {
            parse_request(&format!(
                r#"{{"op":"report","session":"s","config":{{}}{extra}}}"#
            ))
        };
        // A clean vector is a feasible multi-objective measurement.
        let Ok(Envelope { req: Request::Report { values, feasible, .. }, .. }) =
            parse(r#","values":[1.5,2.5]"#)
        else {
            panic!("vector must parse");
        };
        assert_eq!(values, Some(vec![1.5, 2.5]));
        assert!(feasible);
        // Any non-finite component demotes the whole measurement …
        let Ok(Envelope { req: Request::Report { feasible, .. }, .. }) =
            parse(r#","values":[1.5,"NaN"]"#)
        else {
            panic!("NaN component must parse");
        };
        assert!(!feasible);
        // … and claiming it feasible is malformed, as are empty/mixed forms.
        for bad in [
            r#","values":[1.5,"inf"],"feasible":true"#,
            r#","values":[]"#,
            r#","values":[null]"#,
            r#","values":3"#,
            r#","value":1,"values":[1]"#,
        ] {
            assert_eq!(parse(bad).unwrap_err().kind, ErrorKind::BadRequest, "{bad}");
        }
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        for line in [
            "",
            "garbage",
            "[]",
            "42",
            r#"{"op":"nope"}"#,
            r#"{"op":"ask"}"#,
            r#"{"op":"ask","session":7}"#,
            r#"{"op":"suggest_batch","session":"s","q":-1}"#,
            r#"{"op":"suggest_batch","session":"s","q":1.5}"#,
            r#"{"op":"create_session","session":"s","budget":5}"#,
            r#"{"op":"create_session","session":"s","space":{},"budget":"5"}"#,
            r#"{"op":"report","session":"s","value":1}"#,
        ] {
            let e = parse_request(line).unwrap_err();
            assert_eq!(e.kind, ErrorKind::BadRequest, "{line}");
        }
    }

    #[test]
    fn id_is_echoed_in_both_reply_shapes() {
        let env = parse_request(r#"{"op":"status","id":[1,"a"]}"#).unwrap();
        let ok = ok_line(env.id.as_ref(), vec![("sessions".into(), Json::Num(0.0))]);
        assert!(ok.contains(r#""id":[1,"a"]"#), "{ok}");
        let err = err_line(env.id.as_ref(), &WireError::bad_request("x"));
        assert!(err.contains(r#""id":[1,"a"]"#), "{err}");
        assert!(err.contains(r#""kind":"bad_request""#), "{err}");
        // Replies always parse back.
        json::parse(&ok).unwrap();
        json::parse(&err).unwrap();
    }

    #[test]
    fn error_kind_mapping_covers_registry_errors() {
        let e = WireError::from_error(&Error::UnknownSession("s".into()));
        assert_eq!(e.kind, ErrorKind::UnknownSession);
        let e = WireError::from_error(&Error::SessionExists("s".into()));
        assert_eq!(e.kind, ErrorKind::SessionExists);
        let e = WireError::from_error(&Error::JournalCorrupt { line: 1, msg: "x".into() });
        assert_eq!(e.kind, ErrorKind::JournalCorrupt);
    }
}
