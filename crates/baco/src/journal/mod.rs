//! Crash-safe run journaling: the append-only JSONL record of a tuning run
//! that [`Baco::resume`](crate::tuner::Baco::resume) and
//! [`Session::resume`](crate::tuner::Session::resume) reconstruct optimizer
//! state from.
//!
//! # Why
//!
//! BaCO exists for *expensive* black boxes — compile-and-run evaluations that
//! take minutes each. A crashed or preempted process losing hours of
//! evaluations is unacceptable, so persistence is a first-class subsystem:
//! every proposal round and every completed evaluation is appended to the
//! journal (one JSON object per line) and fsync'd *before* the loop moves
//! on. After a crash — even one that tears the final record mid-write — the
//! journal reconstructs the run to a state whose continued trajectory is
//! **bit-for-bit identical** to the uninterrupted run.
//!
//! # Format (version 3)
//!
//! Line 1 is a [`Header`]; every further line is a [`Record`]:
//!
//! | record | written when | payload |
//! |---|---|---|
//! | `propose` | a round of configurations is chosen | trial count, DoE share, RNG state before/after proposing, per-proposal think time, the configurations; speculative rounds add the `anchors` they were drafted on |
//! | `trial` | one evaluation completes | trial index, configuration, objective(s), feasibility, timings |
//! | `resume` | a resumed writer reopens the journal | trial count at resume |
//! | `reconcile` | a landed evaluation settles a speculative round's fate | trial count, round ordinal, keep/flush verdict, withdrawn-proposal count |
//!
//! Version 2 differs from version 1 only on multi-objective trials, whose
//! records carry the full objective vector in a `values` array (head equal to
//! the v1 `value` field). Single-objective v2 records are shaped exactly like
//! v1 records, and v1 journals load and resume bit for bit. Version 3 is
//! written **only** by the speculative pipeline
//! (`BacoOptions::speculation_depth > 0`): it adds the `anchors` member on
//! speculative propose records and the `reconcile` marker. Runs with
//! `speculation_depth == 0` still write version 2, byte-identical to before
//! the pipeline existed, and v1/v2 journals load and resume bit for bit.
//!
//! Integers that must survive exactly (`u64` RNG state words, nanosecond
//! timings, 64-bit seeds and bounds) are encoded as decimal strings — JSON
//! numbers only carry 53 bits. Finite `f64` objective values round-trip
//! bitwise through shortest-form decimal; non-finite values are the tagged
//! strings `"NaN"`, `"inf"` and `"-inf"`. See `docs/ARCHITECTURE.md` for the
//! full format specification and compatibility policy.
//!
//! # Crash model
//!
//! Records are written with a single `write` of the full line (including the
//! trailing newline) followed by `fdatasync`. A crash can therefore leave at
//! most one *torn* final line — a prefix of a record with no trailing
//! newline. [`Journal::load`] drops such a tail (reporting it via
//! [`Journal::torn_tail`]); any other malformed line is a hard, typed
//! [`Error::JournalCorrupt`] — the loader returns `Err`, it never panics,
//! whatever the bytes.
//!
//! ```
//! use baco::prelude::*;
//!
//! let dir = std::env::temp_dir().join(format!("baco-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("run.jsonl");
//! let space = SearchSpace::builder().integer("x", 0, 15).build()?;
//! let bb = FnBlackBox::new(|c: &Configuration| {
//!     Evaluation::feasible((c.value("x").as_f64() - 11.0).powi(2))
//! });
//! let tuner = Baco::builder(space.clone())
//!     .budget(8)
//!     .doe_samples(3)
//!     .seed(1)
//!     .journal_path(&path)
//!     .build()?;
//! let report = tuner.run(&bb)?;
//!
//! // The journal now replays to the exact same history …
//! let journal = baco::journal::Journal::load(&path, &space)?;
//! assert_eq!(journal.trials.len(), 8);
//! // … and `resume` continues a finished run as a no-op.
//! let resumed = tuner.resume(&bb)?;
//! assert_eq!(resumed.len(), report.len());
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), baco::Error>(())
//! ```

pub mod corpus;
pub mod json;

use crate::space::{Configuration, ParamKind, ParamValue, Scale, SearchSpace};
use crate::tuner::{BacoOptions, MultiObjectiveStrategy, SurrogateKind, Trial};
use crate::{Error, Result};
use json::Json;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;
use std::time::Duration;

/// Newest journal format version this crate reads and writes. Readers
/// reject newer versions; older versions load unchanged.
///
/// **v2** adds multi-objective value vectors: trial records of runs with
/// more than one objective carry a `values` array alongside the v1 `value`
/// field (which stays the primary objective). Single-objective v2 records
/// are byte-identical in shape to v1 records, and v1 journals load and
/// resume bit for bit — the options envelope only mentions `objectives`
/// when it differs from the v1-implicit single objective.
///
/// **v3** (this version) is written **only** by the speculative pipeline
/// (`speculation_depth > 0`): speculative propose records carry the
/// `anchors` they were drafted on and landed evaluations append `reconcile`
/// verdict markers. Headers of non-speculative runs still declare version 2
/// (see [`Header::new`]), so every byte a depth-0 run writes is identical to
/// what this crate wrote before the pipeline existed.
pub const FORMAT_VERSION: u64 = 3;

/// The format magic in every header.
pub const FORMAT_NAME: &str = "baco-journal";

/// Which tuning loop produced a journal. Resume refuses to continue a
/// journal under a different loop, since their RNG consumption differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The sequential closed loop ([`Baco::run`](crate::tuner::Baco::run)) —
    /// also written by `run_batched` at `batch_size == 1` and speculation
    /// depth 0, which is bit-identical.
    Run,
    /// The batched closed loop
    /// ([`Baco::run_batched`](crate::tuner::Baco::run_batched), `q > 1` or
    /// speculation depth `> 0`).
    Batched,
    /// The open ask/report loop ([`Session`](crate::tuner::Session)).
    Session,
}

impl Mode {
    fn tag(self) -> &'static str {
        match self {
            Mode::Run => "run",
            Mode::Batched => "batched",
            Mode::Session => "session",
        }
    }

    fn from_tag(s: &str) -> Option<Mode> {
        match s {
            "run" => Some(Mode::Run),
            "batched" => Some(Mode::Batched),
            "session" => Some(Mode::Session),
            _ => None,
        }
    }
}

/// The first line of every journal: the determinism envelope of the run.
///
/// Resume validates the envelope against the resuming tuner and refuses on
/// any mismatch — continuing a journal under a different seed, search space
/// or loop shape would silently corrupt the trajectory. The budget is
/// recorded but *not* enforced, so a finished run can be continued with a
/// larger budget.
#[derive(Debug, Clone, PartialEq)]
pub struct Header {
    /// Format version ([`FORMAT_VERSION`]).
    pub version: u64,
    /// Which loop wrote the journal.
    pub mode: Mode,
    /// RNG seed of the run.
    pub seed: u64,
    /// Budget in effect when the journal was created (informational).
    pub budget: usize,
    /// Initial-phase sample count.
    pub doe_samples: usize,
    /// Proposals per round (1 for the sequential loop).
    pub batch_size: usize,
    /// Scalar option knobs that steer the trajectory (surrogate kind,
    /// hidden-constraint handling, …), as a canonical JSON object.
    pub options: Json,
    /// The search space specification, as a canonical JSON object.
    pub space: Json,
    /// The transfer-learning provenance of the run: which archived corpus
    /// snapshot seeded its prior mean and DoE warm start (see
    /// [`corpus`]). `None` — and absent from the serialized header, keeping
    /// every pre-transfer journal byte-identical — for runs without
    /// transfer. Resume *adopts* this digest rather than re-scanning the
    /// corpus, so a resumed trajectory stays bitwise even as the corpus
    /// grows around it.
    pub transfer: Option<TransferDigest>,
}

/// The determinism digest of a transfer-learning run (see
/// [`corpus`]): enough to rebuild the exact prior the run was
/// started with, and to detect any mutation of the donor files it depends
/// on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferDigest {
    /// Structural fingerprint of the tuned search space
    /// ([`corpus::space_fingerprint`]); donors were required to match it.
    pub fingerprint: u64,
    /// FNV-1a fold over the donors' `(session, content)` pairs in
    /// [`TransferDigest::donors`] order — the corpus *snapshot* hash. Files
    /// added to the corpus later never perturb it; a mutated or deleted
    /// donor is a hard resume error.
    pub snapshot: u64,
    /// Session ids (journal file stems) of the donor runs, in the
    /// deterministic selection order.
    pub donors: Vec<String>,
}

impl TransferDigest {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("fingerprint".into(), u64_str(self.fingerprint)),
            ("snapshot".into(), u64_str(self.snapshot)),
            (
                "donors".into(),
                Json::Arr(self.donors.iter().map(|s| Json::Str(s.clone())).collect()),
            ),
        ])
    }

    fn from_json(j: &Json) -> std::result::Result<TransferDigest, String> {
        Ok(TransferDigest {
            fingerprint: get_u64(j, "fingerprint")?,
            snapshot: get_u64(j, "snapshot")?,
            donors: j
                .get("donors")
                .and_then(Json::as_arr)
                .ok_or("transfer digest missing `donors` array")?
                .iter()
                .map(|d| {
                    d.as_str()
                        .map(String::from)
                        .ok_or_else(|| "bad transfer donor entry".to_string())
                })
                .collect::<std::result::Result<Vec<_>, _>>()?,
        })
    }
}

impl Header {
    /// Builds the header for a run of `space` under `opts`.
    ///
    /// The declared version is the *oldest* format the run's records fit in:
    /// version 3 only when the speculative pipeline is enabled
    /// (`speculation_depth > 0`), version 2 otherwise — which keeps every
    /// byte of a non-speculative journal identical to what older binaries
    /// wrote, and keeps those journals loadable by them.
    pub fn new(mode: Mode, opts: &BacoOptions, space: &SearchSpace) -> Header {
        Header {
            version: if opts.speculation_depth > 0 { 3 } else { 2 },
            mode,
            seed: opts.seed,
            budget: opts.budget,
            doe_samples: opts.doe_samples,
            batch_size: if mode == Mode::Batched { opts.batch_size } else { 1 },
            options: options_spec(opts),
            space: space_spec(space),
            transfer: None,
        }
    }

    /// Checks that a resuming tuner matches the journal's determinism
    /// envelope.
    ///
    /// # Errors
    /// [`Error::JournalCorrupt`] naming the first mismatching field.
    pub fn validate(&self, mode: Mode, opts: &BacoOptions, space: &SearchSpace) -> Result<()> {
        let fail = |msg: String| {
            Err(Error::JournalCorrupt { line: 1, msg })
        };
        if self.version > FORMAT_VERSION {
            return fail(format!(
                "journal format v{} is newer than this binary's v{FORMAT_VERSION}",
                self.version
            ));
        }
        if self.mode != mode {
            return fail(format!(
                "journal was written by the `{}` loop, cannot resume with `{}`",
                self.mode.tag(),
                mode.tag()
            ));
        }
        if self.seed != opts.seed {
            return fail(format!("seed mismatch: journal {}, tuner {}", self.seed, opts.seed));
        }
        if self.doe_samples != opts.doe_samples {
            return fail(format!(
                "doe_samples mismatch: journal {}, tuner {}",
                self.doe_samples, opts.doe_samples
            ));
        }
        if mode == Mode::Batched && self.batch_size != opts.batch_size {
            return fail(format!(
                "batch_size mismatch: journal {}, tuner {}",
                self.batch_size, opts.batch_size
            ));
        }
        // The envelopes are canonical JSON, so digest equality is envelope
        // equality; the same digest primitive fingerprints archived
        // envelopes in the transfer corpus ([`corpus`]).
        if envelope_digest(&self.options) != envelope_digest(&options_spec(opts)) {
            return fail(format!(
                "option mismatch: journal {}, tuner {}",
                self.options.to_line(),
                options_spec(opts).to_line()
            ));
        }
        if self.space != space_spec(space) {
            return fail("search-space mismatch between journal and tuner".into());
        }
        Ok(())
    }

    fn to_json(&self) -> Json {
        let mut members = vec![
            ("t".into(), Json::Str("header".into())),
            ("format".into(), Json::Str(FORMAT_NAME.into())),
            ("version".into(), Json::Num(self.version as f64)),
            ("mode".into(), Json::Str(self.mode.tag().into())),
            ("seed".into(), u64_str(self.seed)),
            ("budget".into(), Json::Num(self.budget as f64)),
            ("doe_samples".into(), Json::Num(self.doe_samples as f64)),
            ("batch_size".into(), Json::Num(self.batch_size as f64)),
            ("options".into(), self.options.clone()),
            ("space".into(), self.space.clone()),
        ];
        // Only-when-set (the `anchors`/`values` convention): headers of
        // non-transfer runs never mention transfer, staying byte-identical
        // to what older binaries wrote.
        if let Some(t) = &self.transfer {
            members.push(("transfer".into(), t.to_json()));
        }
        Json::Obj(members)
    }

    fn from_json(j: &Json) -> std::result::Result<Header, String> {
        if j.get("format").and_then(Json::as_str) != Some(FORMAT_NAME) {
            return Err(format!("not a {FORMAT_NAME} header"));
        }
        Ok(Header {
            version: get_u64(j, "version")?,
            mode: j
                .get("mode")
                .and_then(Json::as_str)
                .and_then(Mode::from_tag)
                .ok_or("missing or unknown `mode`")?,
            seed: get_u64(j, "seed")?,
            budget: get_usize(j, "budget")?,
            doe_samples: get_usize(j, "doe_samples")?,
            batch_size: get_usize(j, "batch_size")?,
            options: j.get("options").cloned().ok_or("missing `options`")?,
            space: j.get("space").cloned().ok_or("missing `space`")?,
            transfer: match j.get("transfer") {
                None => None,
                Some(t) => Some(TransferDigest::from_json(t)?),
            },
        })
    }
}

/// FNV-1a digest of a canonical-JSON envelope (an options or space spec).
///
/// The journal's envelopes are produced by [`space_spec`]/`options_spec`
/// with a fixed member order and shortest-form number rendering, so two
/// envelopes are equal exactly when their serialized lines are — which makes
/// this digest a faithful equality primitive. It is shared by
/// [`Header::validate`]'s options comparison and the corpus index
/// ([`corpus`]), so "same options envelope" means the same thing on the live
/// resume path and in the archived-session index.
pub fn envelope_digest(envelope: &Json) -> u64 {
    fnv1a(envelope.to_line().as_bytes())
}

/// FNV-1a over raw bytes: stable across runs, platforms and Rust releases
/// (unlike `DefaultHasher`). The digest primitive behind
/// [`envelope_digest`], [`corpus::space_fingerprint`] and the corpus
/// snapshot hash.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One journaled proposal round: the configurations chosen together, plus
/// the RNG stream state on either side of choosing them. `rng_after` is the
/// resume point once the round is fully evaluated; `rng_before` lets an
/// open-loop resume roll an entirely-unevaluated round back as if it was
/// never proposed.
#[derive(Debug, Clone, PartialEq)]
pub struct ProposeRec {
    /// Completed trials when the round was proposed.
    pub len: usize,
    /// How many leading `configs` came from the pre-drawn DoE queue (the
    /// rest came from the model; DoE proposals consume no RNG in the open
    /// loop).
    pub doe_k: usize,
    /// RNG state before proposing.
    pub rng_before: [u64; 4],
    /// RNG state after proposing.
    pub rng_after: [u64; 4],
    /// Per-proposal think time, nanoseconds (recorded as each resulting
    /// trial's `tuner_time`).
    pub tuner_ns: u64,
    /// The proposed configurations, in pick order.
    pub configs: Vec<Configuration>,
    /// The in-flight evaluations this round was speculatively drafted on
    /// (format v3; empty for non-speculative rounds, whose records stay
    /// byte-compatible with v2). Order matters: anchors are fantasized in
    /// this exact order when the round is proposed and re-proposed at
    /// resume.
    pub anchors: Vec<AnchorRec>,
}

/// One speculation anchor (format v3): an in-flight configuration a
/// speculative round was drafted on, together with the surrogate posterior
/// (per-objective mean and variance) it was fantasized at. Reconciliation —
/// live and at resume — compares the landed evaluation against exactly these
/// numbers, so the keep/flush verdict is a pure function of journaled state.
#[derive(Debug, Clone, PartialEq)]
pub struct AnchorRec {
    /// The in-flight configuration the draft assumed a value for.
    pub config: Configuration,
    /// Predicted posterior mean per objective at `config` (transformed
    /// space), recorded before conditioning.
    pub means: Vec<f64>,
    /// Predicted posterior variance per objective at `config`.
    pub vars: Vec<f64>,
}

impl AnchorRec {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("config".into(), encode_config(&self.config)),
            (
                "means".into(),
                Json::Arr(self.means.iter().map(|&v| encode_value(Some(v))).collect()),
            ),
            (
                "vars".into(),
                Json::Arr(self.vars.iter().map(|&v| encode_value(Some(v))).collect()),
            ),
        ])
    }

    fn from_json(space: &SearchSpace, j: &Json) -> std::result::Result<AnchorRec, String> {
        let decode_vec = |key: &str| -> std::result::Result<Vec<f64>, String> {
            j.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("anchor missing `{key}` array"))?
                .iter()
                .map(|v| {
                    decode_value(v)?.ok_or_else(|| format!("anchor `{key}` entry is null"))
                })
                .collect()
        };
        let rec = AnchorRec {
            config: decode_config(space, j.get("config").ok_or("anchor missing `config`")?)?,
            means: decode_vec("means")?,
            vars: decode_vec("vars")?,
        };
        if rec.means.len() != rec.vars.len() || rec.means.is_empty() {
            return Err("anchor means/vars must be equal-length and non-empty".into());
        }
        Ok(rec)
    }
}

/// One journaled evaluation outcome (mirrors [`Trial`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRec {
    /// Zero-based position in the run's evaluation order.
    pub index: usize,
    /// The evaluated configuration.
    pub config: Configuration,
    /// Measured primary objective (`None` for hidden-constraint failures;
    /// non-finite values survive the round trip).
    pub value: Option<f64>,
    /// Objectives beyond the first (format v2; empty for single-objective
    /// records, which keeps them wire-compatible with v1).
    pub extra: Vec<f64>,
    /// Whether the evaluation succeeded.
    pub feasible: bool,
    /// Black-box wall time, nanoseconds.
    pub eval_ns: u64,
    /// Tuner think time attributed to this trial, nanoseconds.
    pub tuner_ns: u64,
}

impl TrialRec {
    /// Converts a [`Trial`] into its journal form at position `index`.
    pub fn from_trial(index: usize, t: &Trial) -> TrialRec {
        TrialRec {
            index,
            config: t.config.clone(),
            value: t.value,
            extra: t.extra.clone(),
            feasible: t.feasible,
            eval_ns: t.eval_time.as_nanos().min(u64::MAX as u128) as u64,
            tuner_ns: t.tuner_time.as_nanos().min(u64::MAX as u128) as u64,
        }
    }

    /// Reconstructs the [`Trial`] this record describes.
    pub fn to_trial(&self) -> Trial {
        Trial {
            config: self.config.clone(),
            value: self.value,
            extra: self.extra.clone(),
            feasible: self.feasible,
            eval_time: Duration::from_nanos(self.eval_ns),
            tuner_time: Duration::from_nanos(self.tuner_ns),
        }
    }
}

/// One non-header journal line.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A proposal round.
    Propose(ProposeRec),
    /// A completed evaluation.
    Trial(TrialRec),
    /// A resume marker: a new writer took over with `len` trials on record.
    Resume {
        /// Trials on record when the journal was reopened.
        len: usize,
    },
    /// A speculative-round reconciliation verdict (format v3). Markers are
    /// **informational**: resume recomputes every verdict from the anchors
    /// and the landed trials rather than replaying markers, which keeps
    /// resumes bitwise even when a crash falls between a trial record and
    /// its marker. The loader still validates them against the trial
    /// sequence so corruption cannot hide.
    Reconcile(ReconcileRec),
}

/// One journaled reconciliation verdict (see [`Record::Reconcile`]): when a
/// real evaluation lands, each speculative round anchored on it is either
/// kept (the realized value fell within the anchor's tolerance band) or
/// flushed together with everything speculated on top of it.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconcileRec {
    /// Completed trials when the verdict was reached.
    pub len: usize,
    /// Zero-based ordinal, in journal write order, of the speculative
    /// propose record the verdict applies to.
    pub round: usize,
    /// Whether the speculative round survived reconciliation.
    pub keep: bool,
    /// Unevaluated proposals withdrawn by this verdict across the flush
    /// cascade (0 when `keep`).
    pub cancelled: usize,
}

impl Record {
    /// Serializes the record to one JSONL line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json().to_line()
    }

    fn to_json(&self) -> Json {
        match self {
            Record::Propose(p) => {
                let mut members = vec![
                    ("t".into(), Json::Str("propose".into())),
                    ("len".into(), Json::Num(p.len as f64)),
                    ("doe_k".into(), Json::Num(p.doe_k as f64)),
                    ("rng_before".into(), rng_json(&p.rng_before)),
                    ("rng_after".into(), rng_json(&p.rng_after)),
                    ("tuner_ns".into(), u64_str(p.tuner_ns)),
                    (
                        "configs".into(),
                        Json::Arr(p.configs.iter().map(encode_config).collect()),
                    ),
                ];
                // Format v3: anchors ride along only on speculative rounds,
                // so non-speculative propose records stay byte-compatible
                // with format v2.
                if !p.anchors.is_empty() {
                    members.push((
                        "anchors".into(),
                        Json::Arr(p.anchors.iter().map(AnchorRec::to_json).collect()),
                    ));
                }
                Json::Obj(members)
            }
            Record::Trial(tr) => {
                let mut members = vec![
                    ("t".into(), Json::Str("trial".into())),
                    ("i".into(), Json::Num(tr.index as f64)),
                    ("config".into(), encode_config(&tr.config)),
                    ("value".into(), encode_value(tr.value)),
                    ("feasible".into(), Json::Bool(tr.feasible)),
                    ("eval_ns".into(), u64_str(tr.eval_ns)),
                    ("tuner_ns".into(), u64_str(tr.tuner_ns)),
                ];
                // Format v2: the full value vector rides along only when
                // there *is* one, so single-objective records stay
                // byte-compatible with format v1.
                if !tr.extra.is_empty() {
                    let mut values = vec![encode_value(tr.value)];
                    values.extend(tr.extra.iter().map(|&v| encode_value(Some(v))));
                    members.push(("values".into(), Json::Arr(values)));
                }
                Json::Obj(members)
            }
            Record::Resume { len } => Json::Obj(vec![
                ("t".into(), Json::Str("resume".into())),
                ("len".into(), Json::Num(*len as f64)),
            ]),
            Record::Reconcile(r) => Json::Obj(vec![
                ("t".into(), Json::Str("reconcile".into())),
                ("len".into(), Json::Num(r.len as f64)),
                ("round".into(), Json::Num(r.round as f64)),
                ("keep".into(), Json::Bool(r.keep)),
                ("cancelled".into(), Json::Num(r.cancelled as f64)),
            ]),
        }
    }

    /// Parses one non-header line against `space`.
    ///
    /// # Errors
    /// A message describing the malformation (the caller attaches the line
    /// number). Never panics.
    pub fn parse_line(space: &SearchSpace, line: &str) -> std::result::Result<Record, String> {
        let j = json::parse(line)?;
        Self::from_json(space, &j)
    }

    fn from_json(space: &SearchSpace, j: &Json) -> std::result::Result<Record, String> {
        match j.get("t").and_then(Json::as_str) {
            Some("propose") => {
                let configs = j
                    .get("configs")
                    .and_then(Json::as_arr)
                    .ok_or("propose record missing `configs`")?
                    .iter()
                    .map(|c| decode_config(space, c))
                    .collect::<std::result::Result<Vec<_>, _>>()?;
                let anchors = match j.get("anchors") {
                    None => Vec::new(),
                    Some(Json::Arr(items)) => {
                        if items.is_empty() {
                            return Err("propose `anchors` must be omitted when empty".into());
                        }
                        items
                            .iter()
                            .map(|a| AnchorRec::from_json(space, a))
                            .collect::<std::result::Result<Vec<_>, _>>()?
                    }
                    Some(other) => {
                        return Err(format!("bad propose `anchors` {}", other.to_line()))
                    }
                };
                let rec = ProposeRec {
                    len: get_usize(j, "len")?,
                    doe_k: get_usize(j, "doe_k")?,
                    rng_before: rng_from_json(j.get("rng_before").ok_or("missing `rng_before`")?)?,
                    rng_after: rng_from_json(j.get("rng_after").ok_or("missing `rng_after`")?)?,
                    tuner_ns: get_u64(j, "tuner_ns")?,
                    configs,
                    anchors,
                };
                if rec.doe_k > rec.configs.len() {
                    return Err("propose record: doe_k exceeds round size".into());
                }
                if !rec.anchors.is_empty() && rec.doe_k > 0 {
                    return Err("propose record: speculative rounds cannot carry DoE picks".into());
                }
                Ok(Record::Propose(rec))
            }
            Some("trial") => {
                let value = decode_value(j.get("value").ok_or("trial missing `value`")?)?;
                // Format v2 vector records: `values` holds the full
                // objective vector, whose head must agree with `value`.
                let extra = match j.get("values") {
                    None => Vec::new(),
                    Some(Json::Arr(items)) => {
                        if items.len() < 2 {
                            return Err("trial `values` must hold at least two objectives".into());
                        }
                        let mut decoded = Vec::with_capacity(items.len());
                        for it in items {
                            let v = decode_value(it)?
                                .ok_or("trial `values` entries must be measurements")?;
                            decoded.push(v);
                        }
                        let head_matches = match (value, decoded.first()) {
                            (Some(a), Some(&b)) => a.to_bits() == b.to_bits(),
                            _ => false,
                        };
                        if !head_matches {
                            return Err("trial `values[0]` disagrees with `value`".into());
                        }
                        decoded.split_off(1)
                    }
                    Some(other) => {
                        return Err(format!("bad trial `values` {}", other.to_line()))
                    }
                };
                Ok(Record::Trial(TrialRec {
                    index: get_usize(j, "i")?,
                    config: decode_config(space, j.get("config").ok_or("trial missing `config`")?)?,
                    value,
                    extra,
                    feasible: match j.get("feasible") {
                        Some(Json::Bool(b)) => *b,
                        _ => return Err("trial missing boolean `feasible`".into()),
                    },
                    eval_ns: get_u64(j, "eval_ns")?,
                    tuner_ns: get_u64(j, "tuner_ns")?,
                }))
            }
            Some("resume") => Ok(Record::Resume { len: get_usize(j, "len")? }),
            Some("reconcile") => Ok(Record::Reconcile(ReconcileRec {
                len: get_usize(j, "len")?,
                round: get_usize(j, "round")?,
                keep: match j.get("keep") {
                    Some(Json::Bool(b)) => *b,
                    _ => return Err("reconcile missing boolean `keep`".into()),
                },
                cancelled: get_usize(j, "cancelled")?,
            })),
            Some("header") => Err("unexpected second header".into()),
            Some(other) => Err(format!("unknown record type `{other}`")),
            None => Err("record has no `t` tag".into()),
        }
    }
}

// ── value / config / integer codecs ─────────────────────────────────────────

fn u64_str(v: u64) -> Json {
    Json::Str(v.to_string())
}

pub(crate) fn parse_u64_json(j: &Json) -> std::result::Result<u64, String> {
    match j {
        Json::Str(s) => s.parse::<u64>().map_err(|_| format!("bad u64 string `{s}`")),
        Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 9.007_199_254_740_992e15 => {
            Ok(*v as u64)
        }
        other => Err(format!("expected u64, found {}", other.to_line())),
    }
}

fn get_u64(j: &Json, key: &str) -> std::result::Result<u64, String> {
    parse_u64_json(j.get(key).ok_or_else(|| format!("missing `{key}`"))?)
        .map_err(|e| format!("`{key}`: {e}"))
}

fn get_usize(j: &Json, key: &str) -> std::result::Result<usize, String> {
    usize::try_from(get_u64(j, key)?).map_err(|_| format!("`{key}` overflows usize"))
}

fn rng_json(state: &[u64; 4]) -> Json {
    Json::Arr(state.iter().map(|&w| u64_str(w)).collect())
}

fn rng_from_json(j: &Json) -> std::result::Result<[u64; 4], String> {
    let arr = j.as_arr().ok_or("RNG state is not an array")?;
    if arr.len() != 4 {
        return Err(format!("RNG state has {} words, expected 4", arr.len()));
    }
    let mut out = [0u64; 4];
    for (o, w) in out.iter_mut().zip(arr) {
        *o = parse_u64_json(w)?;
    }
    Ok(out)
}

/// Encodes an objective value. Finite values are JSON numbers (bitwise
/// round-trip); non-finite values and `None` need tags JSON lacks
/// (`"NaN"`, `"inf"`, `"-inf"`, `null`). Shared by the journal's trial
/// records and the tuning server's wire protocol.
pub fn encode_value(v: Option<f64>) -> Json {
    match v {
        None => Json::Null,
        Some(v) if v.is_nan() => Json::Str("NaN".into()),
        Some(v) if v == f64::INFINITY => Json::Str("inf".into()),
        Some(v) if v == f64::NEG_INFINITY => Json::Str("-inf".into()),
        Some(v) => Json::Num(v),
    }
}

/// Decodes an objective value written by [`encode_value`].
///
/// # Errors
/// A description of the malformation. Never panics.
pub fn decode_value(j: &Json) -> std::result::Result<Option<f64>, String> {
    match j {
        Json::Null => Ok(None),
        Json::Num(v) => Ok(Some(*v)),
        Json::Str(s) => match s.as_str() {
            "NaN" => Ok(Some(f64::NAN)),
            "inf" => Ok(Some(f64::INFINITY)),
            "-inf" => Ok(Some(f64::NEG_INFINITY)),
            other => Err(format!("unknown value tag `{other}`")),
        },
        other => Err(format!("bad objective value {}", other.to_line())),
    }
}

/// Encodes a configuration as a `name → value` object in declaration order.
pub fn encode_config(cfg: &Configuration) -> Json {
    let members = cfg
        .values()
        .into_iter()
        .map(|(name, v)| {
            let jv = match v {
                ParamValue::Real(x) | ParamValue::Ordinal(x) => Json::Num(x),
                // JSON numbers carry 53 integer bits; larger magnitudes go
                // through the same decimal-string encoding the header uses
                // for i64 bounds, keeping the round trip exact.
                ParamValue::Int(i) if i.unsigned_abs() <= (1u64 << 53) => Json::Num(i as f64),
                ParamValue::Int(i) => Json::Str(i.to_string()),
                ParamValue::Categorical(s) => Json::Str(s),
                ParamValue::Permutation(p) => {
                    Json::Arr(p.iter().map(|&e| Json::Num(e as f64)).collect())
                }
            };
            (name.to_string(), jv)
        })
        .collect();
    Json::Obj(members)
}

/// Decodes a configuration object against `space`, validating names, types
/// and domains.
///
/// # Errors
/// A description of the first malformed member. Never panics.
pub fn decode_config(
    space: &SearchSpace,
    j: &Json,
) -> std::result::Result<Configuration, String> {
    let members = j.as_obj().ok_or("configuration is not an object")?;
    if members.len() != space.len() {
        return Err(format!(
            "configuration has {} members, space has {} parameters",
            members.len(),
            space.len()
        ));
    }
    let mut pairs: Vec<(&str, ParamValue)> = Vec::with_capacity(members.len());
    for (name, jv) in members {
        let idx = space
            .param_index(name)
            .ok_or_else(|| format!("unknown parameter `{name}`"))?;
        let v = match (space.param(idx).kind(), jv) {
            (ParamKind::Real { .. }, Json::Num(x)) => ParamValue::Real(*x),
            (ParamKind::Integer { .. }, Json::Num(x))
                if x.fract() == 0.0 && x.abs() <= (1u64 << 53) as f64 =>
            {
                ParamValue::Int(*x as i64)
            }
            (ParamKind::Integer { .. }, Json::Str(s)) => ParamValue::Int(
                s.parse::<i64>()
                    .map_err(|_| format!("parameter `{name}`: bad integer string `{s}`"))?,
            ),
            (ParamKind::Ordinal { .. }, Json::Num(x)) => ParamValue::Ordinal(*x),
            (ParamKind::Categorical { .. }, Json::Str(s)) => ParamValue::Categorical(s.clone()),
            (ParamKind::Permutation { .. }, Json::Arr(items)) => {
                let mut p = Vec::with_capacity(items.len());
                for it in items {
                    let e = it
                        .as_f64()
                        .filter(|v| v.fract() == 0.0 && (0.0..256.0).contains(v))
                        .ok_or_else(|| format!("bad permutation element in `{name}`"))?;
                    p.push(e as u8);
                }
                ParamValue::Permutation(p)
            }
            (kind, v) => {
                return Err(format!(
                    "parameter `{name}`: value {} does not fit kind {kind:?}",
                    v.to_line()
                ))
            }
        };
        pairs.push((name.as_str(), v));
    }
    space
        .configuration(&pairs)
        .map_err(|e| format!("invalid configuration: {e}"))
}

/// The canonical JSON specification of a search space, recorded in the
/// header and compared structurally at resume.
pub fn space_spec(space: &SearchSpace) -> Json {
    let params = space
        .params()
        .iter()
        .map(|p| {
            let mut m: Vec<(String, Json)> = vec![("name".into(), Json::Str(p.name().into()))];
            match p.kind() {
                ParamKind::Real { lo, hi } => {
                    m.push(("kind".into(), Json::Str("real".into())));
                    m.push(("lo".into(), Json::Num(*lo)));
                    m.push(("hi".into(), Json::Num(*hi)));
                }
                ParamKind::Integer { lo, hi } => {
                    m.push(("kind".into(), Json::Str("int".into())));
                    m.push(("lo".into(), Json::Str(lo.to_string())));
                    m.push(("hi".into(), Json::Str(hi.to_string())));
                }
                ParamKind::Ordinal { values } => {
                    m.push(("kind".into(), Json::Str("ordinal".into())));
                    m.push((
                        "values".into(),
                        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
                    ));
                }
                ParamKind::Categorical { values } => {
                    m.push(("kind".into(), Json::Str("cat".into())));
                    m.push((
                        "values".into(),
                        Json::Arr(values.iter().map(|v| Json::Str(v.clone())).collect()),
                    ));
                }
                ParamKind::Permutation { len } => {
                    m.push(("kind".into(), Json::Str("perm".into())));
                    m.push(("len".into(), Json::Num(*len as f64)));
                }
            }
            if p.scale() == Scale::Log {
                m.push(("scale".into(), Json::Str("log".into())));
            }
            Json::Obj(m)
        })
        .collect();
    let constraints = space
        .known_constraints()
        .iter()
        .map(|c| Json::Str(c.name().into()))
        .collect();
    Json::Obj(vec![
        ("params".into(), Json::Arr(params)),
        ("constraints".into(), Json::Arr(constraints)),
    ])
}

/// Rebuilds a [`SearchSpace`] from its canonical [`space_spec`] JSON — the
/// inverse used by the tuning server to accept spaces over the wire (and by
/// tools that reconstruct a space from a journal header alone).
///
/// Defaults declared on the original space (`*_default` builder methods) are
/// not part of the spec, so they do not survive the round trip; nothing in
/// the tuning trajectory depends on them. Native (`known_constraint_fn`)
/// predicates cannot be serialized — a spec naming one fails to rebuild.
///
/// # Errors
/// A description of the first malformed member, or the builder's own
/// validation error. Never panics.
///
/// ```
/// use baco::journal::{space_from_spec, space_spec};
/// use baco::SearchSpace;
///
/// let space = SearchSpace::builder()
///     .integer("tile", 1, 64)
///     .categorical("par", vec!["seq", "par"])
///     .known_constraint("tile >= 4")
///     .build()?;
/// let rebuilt = space_from_spec(&space_spec(&space)).map_err(baco::Error::InvalidSpace)?;
/// assert_eq!(space_spec(&rebuilt), space_spec(&space));
/// # Ok::<(), baco::Error>(())
/// ```
pub fn space_from_spec(j: &Json) -> std::result::Result<SearchSpace, String> {
    let params = j
        .get("params")
        .and_then(Json::as_arr)
        .ok_or("space spec missing `params` array")?;
    let mut b = SearchSpace::builder();
    for p in params {
        let name = p
            .get("name")
            .and_then(Json::as_str)
            .ok_or("parameter spec missing `name`")?;
        let log = match p.get("scale") {
            None => false,
            Some(Json::Str(s)) if s == "log" => true,
            Some(other) => return Err(format!("parameter `{name}`: bad scale {}", other.to_line())),
        };
        let kind = p
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("parameter `{name}` missing `kind`"))?;
        let parse_i64 = |key: &str| -> std::result::Result<i64, String> {
            match p.get(key) {
                Some(Json::Str(s)) => {
                    s.parse::<i64>().map_err(|_| format!("parameter `{name}`: bad i64 `{key}`"))
                }
                Some(Json::Num(v)) if v.fract() == 0.0 && v.abs() <= (1u64 << 53) as f64 => {
                    Ok(*v as i64)
                }
                _ => Err(format!("parameter `{name}`: missing or bad `{key}`")),
            }
        };
        b = match kind {
            "real" => {
                if log {
                    return Err(format!("parameter `{name}`: log-scaled reals are unsupported"));
                }
                let lo = p
                    .get("lo")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("parameter `{name}`: missing `lo`"))?;
                let hi = p
                    .get("hi")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("parameter `{name}`: missing `hi`"))?;
                b.real(name, lo, hi)
            }
            "int" => {
                let (lo, hi) = (parse_i64("lo")?, parse_i64("hi")?);
                if log {
                    b.integer_log(name, lo, hi)
                } else {
                    b.integer(name, lo, hi)
                }
            }
            "ordinal" => {
                let values = p
                    .get("values")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| format!("parameter `{name}`: missing `values`"))?
                    .iter()
                    .map(|v| v.as_f64().ok_or_else(|| format!("parameter `{name}`: bad ordinal value")))
                    .collect::<std::result::Result<Vec<f64>, String>>()?;
                if log {
                    b.ordinal_log(name, values)
                } else {
                    b.ordinal(name, values)
                }
            }
            "cat" => {
                if log {
                    return Err(format!("parameter `{name}`: categoricals cannot be log-scaled"));
                }
                let values = p
                    .get("values")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| format!("parameter `{name}`: missing `values`"))?
                    .iter()
                    .map(|v| v.as_str().ok_or_else(|| format!("parameter `{name}`: bad category")))
                    .collect::<std::result::Result<Vec<&str>, String>>()?;
                b.categorical(name, values)
            }
            "perm" => {
                if log {
                    return Err(format!("parameter `{name}`: permutations cannot be log-scaled"));
                }
                let len = p
                    .get("len")
                    .and_then(Json::as_f64)
                    .filter(|v| v.fract() == 0.0 && (0.0..=64.0).contains(v))
                    .ok_or_else(|| format!("parameter `{name}`: missing or bad `len`"))?;
                b.permutation(name, len as usize)
            }
            other => return Err(format!("parameter `{name}`: unknown kind `{other}`")),
        };
    }
    for c in j
        .get("constraints")
        .and_then(Json::as_arr)
        .ok_or("space spec missing `constraints` array")?
    {
        let src = c.as_str().ok_or("constraint spec is not a string")?;
        b = b.known_constraint(src);
    }
    b.build().map_err(|e| e.to_string())
}

/// The scalar trajectory-steering knobs recorded in the header. Structured
/// sub-options (GP priors, local-search shape, …) are *not* captured —
/// resuming with different ones is undetectable here and on the caller.
///
/// Multi-objective knobs (`objectives`, the hypervolume `reference_point`)
/// are appended **only when they differ from the v1-implicit single
/// objective**, so format-v1 journals — which never mention them — still
/// validate against a single-objective tuner.
fn options_spec(opts: &BacoOptions) -> Json {
    let mut members = vec![
        (
            "surrogate".into(),
            Json::Str(
                match opts.surrogate {
                    SurrogateKind::GaussianProcess => "gp",
                    SurrogateKind::RandomForest => "rf",
                }
                .into(),
            ),
        ),
        ("hidden_constraints".into(), Json::Bool(opts.hidden_constraints)),
        ("feasibility_limit".into(), Json::Bool(opts.feasibility_limit)),
        ("local_search".into(), Json::Bool(opts.local_search)),
        ("log_objective".into(), Json::Bool(opts.log_objective)),
        ("optimum_prior".into(), Json::Bool(opts.optimum_prior.is_some())),
        // A constant, kept because the pinned v1/v2/v3 envelope digests and
        // the transfer-corpus keys hash it. An archived journal that says
        // `true` matches no tuner and is refused on resume.
        ("warm_start".into(), Json::Bool(false)),
    ];
    if opts.objectives > 1 {
        members.push(("objectives".into(), Json::Num(opts.objectives as f64)));
    }
    // The multi-objective strategy is recorded only as "ehvi": **absence
    // means ParEGO**, which is what every journal written before the
    // strategy knob existed ran. Those journals stay byte-identical and
    // resume under the strategy that produced them (pin
    // `MultiObjectiveStrategy::ParEgo` when replaying one); single-objective
    // runs never record it, whatever the knob says, since they ignore it.
    if opts.objectives > 1 && opts.mo_strategy == MultiObjectiveStrategy::Ehvi {
        members.push(("mo_strategy".into(), Json::Str("ehvi".into())));
    }
    if let Some(r) = &opts.reference_point {
        members.push((
            "reference_point".into(),
            Json::Arr(r.iter().map(|&v| Json::Num(v)).collect()),
        ));
    }
    // Appended only when set, so journals written before the budgeted
    // surrogate existed (v1, and v2 without a budget) stay byte-identical
    // and keep validating.
    if let Some(b) = opts.surrogate_budget {
        members.push(("surrogate_budget".into(), Json::Num(b as f64)));
    }
    // Appended only when the speculative pipeline is on (the same
    // only-when-set convention): depth-0 runs never mention it, keeping
    // their envelopes byte-identical to pre-pipeline journals.
    if opts.speculation_depth > 0 {
        members.push((
            "speculation_depth".into(),
            Json::Num(opts.speculation_depth as f64),
        ));
    }
    // Only-when-set again: transfer-off runs keep pre-transfer envelopes,
    // and a transfer-on journal refuses to resume under a transfer-off
    // tuner (and vice versa) via the envelope digest.
    if opts.transfer.is_some() {
        members.push(("transfer".into(), Json::Bool(true)));
    }
    Json::Obj(members)
}

// ── writer ──────────────────────────────────────────────────────────────────

/// Appends records to a journal file with write-ahead durability: each
/// record is one `write` of the full line followed by `fdatasync`, so a
/// crash can tear at most the final line.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    path: String,
}

impl JournalWriter {
    fn io_err(path: &Path, e: std::io::Error) -> Error {
        Error::Io(format!("{}: {e}", path.display()))
    }

    /// Creates (or truncates) the journal at `path` and durably writes the
    /// header.
    ///
    /// # Errors
    /// [`Error::Io`] on any filesystem failure.
    pub fn create(path: &Path, header: &Header) -> Result<JournalWriter> {
        let file = File::create(path).map_err(|e| Self::io_err(path, e))?;
        let mut w = JournalWriter {
            file,
            path: path.display().to_string(),
        };
        w.write_line(header.to_json().to_line())?;
        // Make the new directory entry itself durable (best effort — some
        // filesystems refuse fsync on directories).
        if let Some(dir) = path.parent() {
            if let Ok(d) = File::open(if dir.as_os_str().is_empty() {
                Path::new(".")
            } else {
                dir
            }) {
                let _ = d.sync_all();
            }
        }
        Ok(w)
    }

    /// Reopens an existing journal for appending, first truncating any torn
    /// tail at `journal.clean_len` and durably writing a
    /// [`Record::Resume`] marker for `report_len` trials.
    ///
    /// A crash can also tear off *just the final newline* of an otherwise
    /// complete record (the loader keeps such a line); the separator is
    /// restored here before anything is appended, so the journal stays
    /// line-delimited across any crash/resume cycle.
    ///
    /// # Errors
    /// [`Error::Io`] on any filesystem failure.
    pub fn resume(path: &Path, journal: &Journal, report_len: usize) -> Result<JournalWriter> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| Self::io_err(path, e))?;
        file.set_len(journal.clean_len).map_err(|e| Self::io_err(path, e))?;
        let mut w = JournalWriter {
            file,
            path: path.display().to_string(),
        };
        let io = |path: &str, e: std::io::Error| Error::Io(format!("{path}: {e}"));
        if journal.clean_len > 0 {
            w.file
                .seek(SeekFrom::Start(journal.clean_len - 1))
                .map_err(|e| io(&w.path, e))?;
            let mut last = [0u8; 1];
            use std::io::Read;
            w.file.read_exact(&mut last).map_err(|e| io(&w.path, e))?;
            if last[0] != b'\n' {
                w.file.write_all(b"\n").map_err(|e| io(&w.path, e))?;
            }
        }
        w.file
            .seek(SeekFrom::End(0))
            .map_err(|e| io(&w.path, e))?;
        w.append(&Record::Resume { len: report_len })?;
        Ok(w)
    }

    /// Durably appends one record.
    ///
    /// # Errors
    /// [`Error::Io`] if the write or fsync fails; the journal must then be
    /// considered unreliable and the run should stop.
    pub fn append(&mut self, rec: &Record) -> Result<()> {
        self.write_line(rec.to_line())
    }

    fn write_line(&mut self, mut line: String) -> Result<()> {
        line.push('\n');
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.sync_data())
            .map_err(|e| Error::Io(format!("{}: {e}", self.path)))
    }
}

// ── loader ──────────────────────────────────────────────────────────────────

/// A fully parsed and integrity-checked journal.
#[derive(Debug, Clone)]
pub struct Journal {
    /// The run's determinism envelope.
    pub header: Header,
    /// Every proposal round, in write order.
    pub proposes: Vec<ProposeRec>,
    /// Every completed trial, in evaluation order (`trials[i].index == i`).
    pub trials: Vec<TrialRec>,
    /// Every reconciliation verdict, in write order (speculative runs only;
    /// informational — see [`Record::Reconcile`]).
    pub reconciles: Vec<ReconcileRec>,
    /// Resume markers seen (count of prior crashes/continuations).
    pub resumes: usize,
    /// Whether a torn final line (crash mid-write) was dropped.
    pub torn_tail: bool,
    /// Byte length of the clean prefix; a resuming writer truncates here.
    pub clean_len: u64,
}

impl Journal {
    /// Whether `path` holds at least a journal header (used to decide
    /// between resuming and starting fresh).
    pub fn exists(path: &Path) -> bool {
        std::fs::metadata(path).map(|m| m.len() > 0).unwrap_or(false)
    }

    /// Loads and validates the journal at `path`, decoding configurations
    /// against `space`.
    ///
    /// A torn final line (the crash-mid-write case) is dropped and flagged
    /// in [`Journal::torn_tail`]. Anything else malformed — garbage bytes,
    /// a corrupt interior record, out-of-sequence indices — is a typed
    /// error, never a panic.
    ///
    /// # Errors
    /// [`Error::Io`] if the file cannot be read; [`Error::JournalCorrupt`]
    /// with the offending 1-based line otherwise.
    pub fn load(path: &Path, space: &SearchSpace) -> Result<Journal> {
        let bytes =
            std::fs::read(path).map_err(|e| Error::Io(format!("{}: {e}", path.display())))?;
        Self::from_bytes(&bytes, space)
    }

    /// [`Journal::load`] over in-memory bytes (exposed for tests and tools).
    ///
    /// # Errors
    /// As [`Journal::load`], minus the I/O cases.
    pub fn from_bytes(bytes: &[u8], space: &SearchSpace) -> Result<Journal> {
        let corrupt = |line: usize, msg: String| Error::JournalCorrupt { line, msg };
        if bytes.is_empty() {
            return Err(corrupt(0, "empty journal".into()));
        }

        // Split into (offset, segment, newline_terminated) line triples.
        let mut segments: Vec<(usize, &[u8], bool)> = Vec::new();
        let mut start = 0;
        for (i, &b) in bytes.iter().enumerate() {
            if b == b'\n' {
                segments.push((start, &bytes[start..i], true));
                start = i + 1;
            }
        }
        if start < bytes.len() {
            segments.push((start, &bytes[start..], false));
        }

        let mut header: Option<Header> = None;
        let mut proposes = Vec::new();
        let mut trials: Vec<TrialRec> = Vec::new();
        let mut reconciles: Vec<ReconcileRec> = Vec::new();
        let mut resumes = 0;
        let mut torn_tail = false;
        let mut clean_len = 0u64;

        enum Line {
            Head(Header),
            Rec(Record),
        }
        for (seg_idx, &(offset, seg, terminated)) in segments.iter().enumerate() {
            let line_no = seg_idx + 1;
            let last = seg_idx + 1 == segments.len();
            let parsed: std::result::Result<Line, String> = std::str::from_utf8(seg)
                .map_err(|_| "invalid UTF-8".to_string())
                .and_then(|text| {
                    if header.is_none() {
                        let j = json::parse(text)?;
                        if j.get("t").and_then(Json::as_str) != Some("header") {
                            return Err("first record is not a header".into());
                        }
                        Header::from_json(&j).map(Line::Head)
                    } else {
                        Record::parse_line(space, text).map(Line::Rec)
                    }
                });
            match parsed {
                Ok(Line::Head(h)) => {
                    if h.version > FORMAT_VERSION {
                        return Err(corrupt(
                            line_no,
                            format!(
                                "journal format v{} is newer than this binary's v{FORMAT_VERSION}",
                                h.version
                            ),
                        ));
                    }
                    header = Some(h);
                }
                Ok(Line::Rec(rec)) => {
                    match rec {
                        Record::Propose(p) => {
                            if p.len != trials.len() {
                                return Err(corrupt(
                                    line_no,
                                    format!(
                                        "propose record claims {} trials, journal has {}",
                                        p.len,
                                        trials.len()
                                    ),
                                ));
                            }
                            proposes.push(p);
                        }
                        Record::Trial(tr) => {
                            if tr.index != trials.len() {
                                return Err(corrupt(
                                    line_no,
                                    format!(
                                        "trial index {} out of sequence (expected {})",
                                        tr.index,
                                        trials.len()
                                    ),
                                ));
                            }
                            trials.push(tr);
                        }
                        Record::Resume { len } => {
                            if len != trials.len() {
                                return Err(corrupt(
                                    line_no,
                                    format!(
                                        "resume marker claims {len} trials, journal has {}",
                                        trials.len()
                                    ),
                                ));
                            }
                            resumes += 1;
                        }
                        Record::Reconcile(r) => {
                            if r.len != trials.len() {
                                return Err(corrupt(
                                    line_no,
                                    format!(
                                        "reconcile marker claims {} trials, journal has {}",
                                        r.len,
                                        trials.len()
                                    ),
                                ));
                            }
                            if r.round >= proposes.len() {
                                return Err(corrupt(
                                    line_no,
                                    format!(
                                        "reconcile marker names round {}, journal has {}",
                                        r.round,
                                        proposes.len()
                                    ),
                                ));
                            }
                            if r.keep && r.cancelled != 0 {
                                return Err(corrupt(
                                    line_no,
                                    "reconcile keep verdict cannot cancel proposals".into(),
                                ));
                            }
                            reconciles.push(r);
                        }
                    }
                }
                Err(msg) => {
                    // A malformed *final* line with no terminating newline is
                    // the torn-write crash signature: drop it. Everything
                    // else is real corruption.
                    if last && !terminated {
                        torn_tail = true;
                        clean_len = offset as u64;
                        break;
                    }
                    return Err(corrupt(line_no, msg));
                }
            }
            clean_len = (offset + seg.len() + usize::from(terminated)) as u64;
        }

        let header = header.ok_or_else(|| corrupt(0, "journal has no complete header".into()))?;
        Ok(Journal {
            header,
            proposes,
            trials,
            reconciles,
            resumes,
            torn_tail,
            clean_len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SearchSpace;

    fn space() -> SearchSpace {
        SearchSpace::builder()
            .integer("a", 0, 15)
            .ordinal_log("tile", vec![1.0, 2.0, 4.0, 8.0])
            .categorical("c", vec!["x", "y"])
            .permutation("p", 4)
            .real("r", 0.0, 1.0)
            .known_constraint("a >= 1")
            .build()
            .unwrap()
    }

    fn demo_cfg(s: &SearchSpace) -> Configuration {
        s.configuration(&[
            ("a", ParamValue::Int(7)),
            ("tile", ParamValue::Ordinal(4.0)),
            ("c", ParamValue::Categorical("y".into())),
            ("p", ParamValue::Permutation(vec![2, 0, 3, 1])),
            ("r", ParamValue::Real(0.1 + 0.2)),
        ])
        .unwrap()
    }

    #[test]
    fn config_roundtrip_is_exact() {
        let s = space();
        let cfg = demo_cfg(&s);
        let back = decode_config(&s, &encode_config(&cfg)).unwrap();
        assert_eq!(cfg, back);
        // Bitwise for the real parameter.
        let (ParamValue::Real(a), ParamValue::Real(b)) = (cfg.value("r"), back.value("r")) else {
            panic!("not real");
        };
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn value_codec_handles_non_finite() {
        for v in [None, Some(1.5), Some(f64::NAN), Some(f64::INFINITY), Some(f64::NEG_INFINITY)] {
            let back = decode_value(&encode_value(v)).unwrap();
            match (v, back) {
                (Some(a), Some(b)) if a.is_nan() => assert!(b.is_nan()),
                (a, b) => assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn record_roundtrip() {
        let s = space();
        let rec = Record::Propose(ProposeRec {
            len: 3,
            doe_k: 1,
            rng_before: [u64::MAX, 1, 2, 3],
            rng_after: [4, 5, 6, u64::MAX - 1],
            tuner_ns: u64::MAX,
            configs: vec![demo_cfg(&s)],
            anchors: Vec::new(),
        });
        let line = rec.to_line();
        assert_eq!(Record::parse_line(&s, &line).unwrap(), rec);
        assert!(
            !line.contains("anchors"),
            "non-speculative propose records must not mention anchors"
        );

        let spec = Record::Propose(ProposeRec {
            len: 5,
            doe_k: 0,
            rng_before: [1, 2, 3, 4],
            rng_after: [5, 6, 7, 8],
            tuner_ns: 42,
            configs: vec![demo_cfg(&s)],
            anchors: vec![AnchorRec {
                config: demo_cfg(&s),
                means: vec![1.5, f64::NEG_INFINITY],
                vars: vec![0.25, 0.0],
            }],
        });
        let line = spec.to_line();
        assert_eq!(Record::parse_line(&s, &line).unwrap(), spec);

        let rc = Record::Reconcile(ReconcileRec {
            len: 7,
            round: 2,
            keep: false,
            cancelled: 3,
        });
        let line = rc.to_line();
        assert_eq!(Record::parse_line(&s, &line).unwrap(), rc);

        let tr = Record::Trial(TrialRec {
            index: 0,
            config: demo_cfg(&s),
            value: Some(f64::NAN),
            extra: Vec::new(),
            feasible: false,
            eval_ns: 123,
            tuner_ns: 456,
        });
        let line = tr.to_line();
        let Record::Trial(back) = Record::parse_line(&s, &line).unwrap() else {
            panic!("wrong record kind");
        };
        assert!(back.value.unwrap().is_nan());
        assert!(!back.feasible);
    }

    #[test]
    fn huge_integer_values_roundtrip_exactly() {
        let s = SearchSpace::builder().integer("x", 0, i64::MAX).build().unwrap();
        for x in [0, 1 << 53, (1i64 << 53) + 1, i64::MAX] {
            let cfg = s.configuration(&[("x", ParamValue::Int(x))]).unwrap();
            let back = decode_config(&s, &encode_config(&cfg)).unwrap();
            assert_eq!(back.value("x"), ParamValue::Int(x), "x = {x}");
        }
    }

    #[test]
    fn rejects_config_outside_domain() {
        let s = space();
        let j = json::parse(r#"{"a":99,"tile":4,"c":"y","p":[0,1,2,3],"r":0.5}"#).unwrap();
        assert!(decode_config(&s, &j).unwrap_err().contains("invalid configuration"));
        let j = json::parse(r#"{"a":7,"tile":4,"c":"z","p":[0,1,2,3],"r":0.5}"#).unwrap();
        assert!(decode_config(&s, &j).is_err());
        let j = json::parse(r#"{"a":7,"tile":4,"c":"y","p":[0,1,1,3],"r":0.5}"#).unwrap();
        assert!(decode_config(&s, &j).is_err());
    }

    #[test]
    fn envelope_digest_is_pinned_across_the_format_version_trio() {
        // The canonical rendering of a default-options envelope, pinned as a
        // literal: this is the exact byte sequence v1-era binaries wrote and
        // today's binaries still write, so any drift in member order, number
        // rendering or only-when-set behavior fails here before it silently
        // orphans every archived journal (resume *and* the corpus index key
        // off this digest).
        const V1V2_ENVELOPE: &str = concat!(
            r#"{"surrogate":"gp","hidden_constraints":true,"feasibility_limit":true,"#,
            r#""local_search":true,"log_objective":true,"optimum_prior":false,"#,
            r#""warm_start":false}"#
        );
        const V1V2_DIGEST: u64 = 0x0cea_7be1_7d3f_1ad8;
        const V3_DIGEST: u64 = 0xf47d_eb81_db8e_70d1;

        let opts = crate::tuner::BacoOptions {
            seed: 7,
            doe_samples: 6,
            budget: 20,
            ..Default::default()
        };
        let env = options_spec(&opts);
        assert_eq!(env.to_line(), V1V2_ENVELOPE);
        assert_eq!(envelope_digest(&env), V1V2_DIGEST);

        // The same logical run's header as written by a v1, v2 and v3
        // binary: v1/v2 share the envelope bytes (only-when-set keeps every
        // later knob out of it), v3 runs the speculative pipeline and must
        // digest differently.
        let s = space();
        let sp = space_spec(&s).to_line();
        let header_line = |version: u64, env: &str| {
            format!(
                concat!(
                    r#"{{"t":"header","format":"baco-journal","version":{},"mode":"run","#,
                    r#""seed":"7","budget":20,"doe_samples":6,"batch_size":1,"#,
                    r#""options":{},"space":{}}}"#
                ),
                version, env, sp
            )
        };
        for version in [1u64, 2] {
            let j = json::parse(&header_line(version, V1V2_ENVELOPE)).unwrap();
            let h = Header::from_json(&j).unwrap();
            assert_eq!(envelope_digest(&h.options), V1V2_DIGEST, "v{version}");
            // …and the archived run still validates against a present-day
            // tuner with the same knobs.
            h.validate(Mode::Run, &opts, &s).unwrap();
        }

        let spec_opts =
            crate::tuner::BacoOptions { speculation_depth: 2, ..Default::default() };
        let env3 = options_spec(&spec_opts);
        assert_eq!(envelope_digest(&env3), V3_DIGEST);
        let j = json::parse(&header_line(3, &env3.to_line())).unwrap();
        let h = Header::from_json(&j).unwrap();
        assert_eq!(envelope_digest(&h.options), V3_DIGEST);
        assert_ne!(V1V2_DIGEST, V3_DIGEST);
    }

    #[test]
    fn space_spec_discriminates() {
        let a = space();
        let b = SearchSpace::builder()
            .integer("a", 0, 15)
            .ordinal("tile", vec![1.0, 2.0, 4.0, 8.0]) // linear, not log
            .categorical("c", vec!["x", "y"])
            .permutation("p", 4)
            .real("r", 0.0, 1.0)
            .known_constraint("a >= 1")
            .build()
            .unwrap();
        assert_eq!(space_spec(&a), space_spec(&a));
        assert_ne!(space_spec(&a), space_spec(&b));
    }
}
