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
//! | `create_session` | `session`, `space` ([`space_spec`](crate::journal::space_spec) object), `budget`; optional `doe_samples`, `seed`, `resume`, `surrogate` (`"gp"`/`"rf"`), `hidden_constraints`, `feasibility_limit`, `local_search`, `log_objective`, `objectives`, `mo_strategy` (`"ehvi"` default / `"parego"`; multi-objective acquisition), `reference_point` (array, one entry per objective), `surrogate_budget` (budget-bounded surrogate mode), `transfer` (mine the server's journal directory for compatible archived sessions; requires a `journal_dir`); any other member is a `bad_request` naming it | `resumed`, `len`, `remaining` |
//! | `ask` | `session` | `config` (object or `null` when exhausted) |
//! | `suggest_batch` | `session`, `q` | `configs` (array, possibly empty) |
//! | `report` | `session`, `config`; `value` (number, `null`, `"NaN"`, `"inf"`, `"-inf"`) **or** `values` (array, one entry per objective of a multi-objective session), and/or `feasible` — only *all-finite* measurements count as feasible, anything else is recorded as a failed evaluation | `len` |
//! | `best` | `session` | single-objective: `config`+`value` (or both `null`); multi-objective: `front` (array of `{config, values}` in evaluation order) plus `hypervolume` — a number when the session has a reference point, otherwise `null` with a typed `note: "no_reference_point"` |
//! | `status` | optional `session` | per-session: `len`, `budget`, `remaining`, `pending`, `best_value`, `journal_closed: true` once a failed append closed the session's journal, and for multi-objective sessions `front_size` + `hypervolume` (number, or `null` with `note: "no_reference_point"`); server-wide: `sessions`, `names` |
//! | `close` | `session` | `closed`, `len` |
//!
//! The parser checks only what the JSON says: member names and types. The
//! `create_session` members land in a [`BacoOptions`], and their ranges
//! (`budget` and `objectives` ≥ 1, `surrogate_budget` ≥
//! [`MIN_SURROGATE_BUDGET`](crate::tuner::MIN_SURROGATE_BUDGET), a
//! reference point of one entry per objective) are validated by the tuner
//! at create; a refusal there is a `bad_request` too.
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
use crate::tuner::{BacoOptions, MultiObjectiveStrategy, SurrogateKind};
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
        WireError {
            kind: ErrorKind::BadRequest,
            msg: msg.into(),
        }
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
        WireError {
            kind,
            msg: e.to_string(),
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone)]
pub enum Request {
    /// `create_session`: register (or resume) a named session.
    Create {
        /// Session id.
        session: String,
        /// The search space, as a raw [`space_spec`](crate::journal::space_spec)
        /// object (decoded by the server so failures stay typed).
        space: Json,
        /// The tuner's options: the defaults plus every wire member,
        /// `resume` included. Ranges are the tuner's to check, at create.
        /// (Boxed: far larger than every other request.)
        opts: Box<BacoOptions>,
        /// Seed the session from the archived journals in the server's
        /// journal directory (see
        /// [`BacoBuilder::transfer`](crate::tuner::BacoBuilder::transfer));
        /// a server without one answers `bad_request`.
        transfer: bool,
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
#[derive(Debug, Clone)]
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
        Some(_) => Err(WireError::bad_request(format!(
            "`{key}` must be a non-negative integer"
        ))),
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

/// Every member a `create_session` request may carry. Anything else is a
/// typed `bad_request`: a misspelled option must not silently fall back to
/// its default.
const CREATE_MEMBERS: [&str; 18] = [
    "op",
    "id",
    "session",
    "space",
    "budget",
    "doe_samples",
    "seed",
    "resume",
    "surrogate",
    "hidden_constraints",
    "feasibility_limit",
    "local_search",
    "log_objective",
    "objectives",
    "mo_strategy",
    "reference_point",
    "surrogate_budget",
    "transfer",
];

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
            let members = j.as_obj().unwrap_or_default();
            if let Some((key, _)) = members
                .iter()
                .find(|(k, _)| !CREATE_MEMBERS.contains(&&**k))
            {
                let msg = format!("unknown `create_session` member `{key}`");
                return Err(WireError::bad_request(msg));
            }
            let session = need_str(&j, "session")?;
            let space = j
                .get("space")
                .cloned()
                .ok_or_else(|| WireError::bad_request("missing `space`"))?;
            let d = BacoOptions::default();
            let opts = Box::new(BacoOptions {
                budget: need_usize(&j, "budget")?,
                doe_samples: opt_usize(&j, "doe_samples")?.unwrap_or(d.doe_samples),
                seed: match j.get("seed") {
                    None => d.seed,
                    Some(v) => crate::journal::parse_u64_json(v)
                        .map_err(|e| WireError::bad_request(format!("`seed`: {e}")))?,
                },
                resume: opt_bool(&j, "resume")?.unwrap_or(d.resume),
                surrogate: match j.get("surrogate") {
                    None => d.surrogate,
                    Some(Json::Str(s)) if s == "gp" => SurrogateKind::GaussianProcess,
                    Some(Json::Str(s)) if s == "rf" => SurrogateKind::RandomForest,
                    Some(_) => {
                        return Err(WireError::bad_request(
                            "`surrogate` must be \"gp\" or \"rf\"",
                        ))
                    }
                },
                hidden_constraints: opt_bool(&j, "hidden_constraints")?
                    .unwrap_or(d.hidden_constraints),
                feasibility_limit: opt_bool(&j, "feasibility_limit")?
                    .unwrap_or(d.feasibility_limit),
                local_search: opt_bool(&j, "local_search")?.unwrap_or(d.local_search),
                log_objective: opt_bool(&j, "log_objective")?.unwrap_or(d.log_objective),
                objectives: opt_usize(&j, "objectives")?.unwrap_or(d.objectives),
                mo_strategy: match j.get("mo_strategy") {
                    None | Some(Json::Null) => d.mo_strategy,
                    Some(Json::Str(s)) if s == "ehvi" => MultiObjectiveStrategy::Ehvi,
                    Some(Json::Str(s)) if s == "parego" => MultiObjectiveStrategy::ParEgo,
                    Some(_) => {
                        return Err(WireError::bad_request(
                            "`mo_strategy` must be \"ehvi\" or \"parego\"",
                        ))
                    }
                },
                reference_point: match j.get("reference_point") {
                    None | Some(Json::Null) => None,
                    Some(Json::Arr(items)) => Some(
                        items
                            .iter()
                            .map(|it| {
                                it.as_f64().ok_or_else(|| {
                                    WireError::bad_request(
                                        "`reference_point` entries must be numbers",
                                    )
                                })
                            })
                            .collect::<Result<_, _>>()?,
                    ),
                    Some(_) => {
                        return Err(WireError::bad_request("`reference_point` must be an array"))
                    }
                },
                surrogate_budget: opt_usize(&j, "surrogate_budget")?,
                ..d
            });
            let transfer = opt_bool(&j, "transfer")?.unwrap_or(false);
            Request::Create {
                session,
                space,
                opts,
                transfer,
            }
        }
        "ask" => Request::Ask {
            session: need_str(&j, "session")?,
        },
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
            Request::Report {
                session,
                config,
                values,
                feasible,
            }
        }
        "best" => Request::Best {
            session: need_str(&j, "session")?,
        },
        "status" => Request::Status {
            session: match j.get("session") {
                None | Some(Json::Null) => None,
                Some(Json::Str(s)) => Some(s.clone()),
                Some(_) => return Err(WireError::bad_request("`session` must be a string")),
            },
        },
        "close" => Request::Close {
            session: need_str(&j, "session")?,
        },
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
    fn unknown_create_members_are_named_bad_requests() {
        let parse = |extra: &str| {
            parse_request(&format!(
                r#"{{"op":"create_session","session":"s","budget":5,"space":{{"params":[],"constraints":[]}}{extra}}}"#
            ))
        };
        // A misspelled option and a removed one: both named, neither ignored.
        for key in ["surogate_budget", "speculation_depth", "Seed", ""] {
            let err = parse(&format!(r#","{key}":2"#)).expect_err(key);
            assert_eq!(err.kind, ErrorKind::BadRequest, "{key}");
            assert!(err.msg.contains(&format!("`{key}`")), "{key}: {}", err.msg);
        }
        // Every documented member parses, alongside the echoed `id`.
        let all = r#","id":9,"doe_samples":3,"seed":"4","resume":false,"surrogate":"gp","hidden_constraints":true,"feasibility_limit":true,"local_search":true,"log_objective":true,"objectives":1,"mo_strategy":"ehvi","reference_point":[1.0],"surrogate_budget":8,"transfer":false"#;
        let env = parse(all).unwrap_or_else(|e| panic!("{e:?}"));
        assert!(matches!(env.req, Request::Create { .. }));
    }

    #[test]
    fn surrogate_budget_parses_and_validates() {
        let parse = |extra: &str| {
            parse_request(&format!(
                r#"{{"op":"create_session","session":"s","budget":5,"space":{{"params":[],"constraints":[]}}{extra}}}"#
            ))
        };
        // Omitted → unset (exact surrogates).
        let Ok(Envelope {
            req: Request::Create { opts, .. },
            ..
        }) = parse("")
        else {
            panic!("plain create must parse");
        };
        assert_eq!(opts.surrogate_budget, None);
        // Set → plumbed through; the floor is the tuner's to check at create
        // (see the server's `options_out_of_range_are_bad_requests_at_create`).
        for (extra, want) in [
            (r#","surrogate_budget":64"#, 64),
            (r#","surrogate_budget":4"#, 4),
        ] {
            let Ok(Envelope {
                req: Request::Create { opts, .. },
                ..
            }) = parse(extra)
            else {
                panic!("budgeted create must parse: {extra}");
            };
            assert_eq!(opts.surrogate_budget, Some(want));
        }
        // Malformed → typed bad_request.
        for bad in [r#","surrogate_budget":"lots""#, r#","surrogate_budget":-8"#] {
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
        // Omitted → the library default, EHVI.
        let Ok(Envelope {
            req: Request::Create { opts, .. },
            ..
        }) = parse("")
        else {
            panic!("plain create must parse");
        };
        assert_eq!(opts.mo_strategy, MultiObjectiveStrategy::Ehvi);
        for (tag, want) in [
            ("ehvi", MultiObjectiveStrategy::Ehvi),
            ("parego", MultiObjectiveStrategy::ParEgo),
        ] {
            let Ok(Envelope {
                req: Request::Create { opts, .. },
                ..
            }) = parse(&format!(r#","objectives":2,"mo_strategy":"{tag}""#))
            else {
                panic!("{tag} create must parse");
            };
            assert_eq!(opts.mo_strategy, want);
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
        let Ok(Envelope {
            req: Request::Create { transfer, .. },
            ..
        }) = parse("")
        else {
            panic!("plain create must parse");
        };
        assert!(!transfer);
        for (extra, want) in [
            (r#","transfer":true"#, true),
            (r#","transfer":false"#, false),
        ] {
            let Ok(Envelope {
                req: Request::Create { transfer, .. },
                ..
            }) = parse(extra)
            else {
                panic!("transfer create must parse: {extra}");
            };
            assert_eq!(transfer, want, "{extra}");
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
        let Ok(Envelope {
            req: Request::Report {
                values, feasible, ..
            },
            ..
        }) = parse("")
        else {
            panic!("omitted value must parse");
        };
        assert_eq!((values, feasible), (None, false));
        // Tagged non-finite values parse but never count as feasible
        // measurements — they would poison the surrogate.
        let Ok(Envelope {
            req: Request::Report {
                values, feasible, ..
            },
            ..
        }) = parse(r#","value":"inf""#)
        else {
            panic!("inf must parse");
        };
        assert_eq!((values, feasible), (Some(vec![f64::INFINITY]), false));
        let Ok(Envelope {
            req: Request::Report {
                values, feasible, ..
            },
            ..
        }) = parse(r#","value":"NaN""#)
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
        let Ok(Envelope {
            req: Request::Report { feasible, .. },
            ..
        }) = parse(r#","value":3,"feasible":false"#)
        else {
            panic!("explicit infeasible must parse");
        };
        assert!(!feasible);
        // feasible:true without a value is contradictory.
        assert_eq!(
            parse(r#","feasible":true"#).unwrap_err().kind,
            ErrorKind::BadRequest
        );
    }

    #[test]
    fn report_values_vector_interplay() {
        let parse = |extra: &str| {
            parse_request(&format!(
                r#"{{"op":"report","session":"s","config":{{}}{extra}}}"#
            ))
        };
        // A clean vector is a feasible multi-objective measurement.
        let Ok(Envelope {
            req: Request::Report {
                values, feasible, ..
            },
            ..
        }) = parse(r#","values":[1.5,2.5]"#)
        else {
            panic!("vector must parse");
        };
        assert_eq!(values, Some(vec![1.5, 2.5]));
        assert!(feasible);
        // Any non-finite component demotes the whole measurement …
        let Ok(Envelope {
            req: Request::Report { feasible, .. },
            ..
        }) = parse(r#","values":[1.5,"NaN"]"#)
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
        let e = WireError::from_error(&Error::JournalCorrupt {
            line: 1,
            msg: "x".into(),
        });
        assert_eq!(e.kind, ErrorKind::JournalCorrupt);
    }
}
