//! The journal corpus: fleet-scale archived-session discovery for transfer
//! learning.
//!
//! A long-lived tuning fleet accumulates a directory of run journals — one
//! crash-safe JSONL file per session (the tuning server's `journal_dir`
//! layout). This module turns that directory into a *corpus*: every journal
//! is summarized (structural space fingerprint, objective count,
//! completed-trial count, best observed value), so a new
//! session can ask "which archived runs tuned a structurally identical
//! space?" and seed itself from their trials (see `BacoOptions::transfer`).
//!
//! # Fingerprint rules
//!
//! [`space_fingerprint`] hashes the *structure* of a search space — each
//! parameter's name, kind, cardinality/bounds and scale, plus the known
//! constraints — such that:
//!
//! * **declaration order is irrelevant**: per-parameter digests are sorted
//!   before folding (likewise the constraint sources), so two spaces that
//!   declare the same parameters in different orders fingerprint
//!   identically (their journaled configurations decode against either);
//! * **any structural change matters**: renaming a parameter, changing its
//!   kind, widening a bound, adding/removing an ordinal or categorical
//!   value, or touching a constraint all change the fingerprint.
//!
//! # Tolerance
//!
//! A fleet directory holds whatever the fleet produced: torn tails from
//! crashes, half-written files, journals from newer binaries, stray foreign
//! files. [`scan`] never panics and never aborts on a bad file — each
//! unusable journal is skipped with a typed [`SkipReason`] the caller can
//! log, and the healthy remainder forms the corpus.

use super::json::{self, Json};
use super::{fnv1a, space_from_spec, Journal, FORMAT_NAME, FORMAT_VERSION};
use crate::space::SearchSpace;
use crate::{Error, Result};
use std::fmt;
use std::path::{Path, PathBuf};

/// Structural fingerprint of a search space, computed from its canonical
/// [`space_spec`](super::space_spec) JSON (so it can be taken from a live
/// [`SearchSpace`] or from an archived journal header without rebuilding the
/// space). See the [module docs](self) for the invariance/sensitivity rules.
pub fn space_fingerprint(spec: &Json) -> u64 {
    let mut param_digests: Vec<u64> = spec
        .get("params")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|p| fnv1a(p.to_line().as_bytes()))
        .collect();
    param_digests.sort_unstable();
    let mut constraint_digests: Vec<u64> = spec
        .get("constraints")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|c| fnv1a(c.to_line().as_bytes()))
        .collect();
    constraint_digests.sort_unstable();
    // Length-prefixed fold over the two sorted digest lists: the prefix
    // keeps `{params: [a, b]}` distinct from `{params: [a], constraints: [b]}`.
    let mut words = vec![param_digests.len() as u64];
    words.extend(param_digests);
    words.push(constraint_digests.len() as u64);
    words.extend(constraint_digests);
    fold_words(&words)
}

/// [`space_fingerprint`] of a live [`SearchSpace`].
pub fn fingerprint_space(space: &SearchSpace) -> u64 {
    space_fingerprint(&super::space_spec(space))
}

fn fold_words(words: &[u64]) -> u64 {
    let mut bytes = Vec::with_capacity(words.len() * 8);
    for w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    fnv1a(&bytes)
}

/// Why [`scan`] skipped a file in the journal directory. Every variant is a
/// one-line, human-readable reason — the contract is *skip and report*,
/// never panic, never abort the scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SkipReason {
    /// The file could not be read.
    Io(String),
    /// The first line is not a `baco-journal` header (foreign or
    /// half-written file).
    NotAJournal(String),
    /// The header declares a format version newer than this binary reads.
    NewerVersion(u64),
    /// The header's space spec cannot be rebuilt (e.g. it names a native
    /// constraint predicate that does not serialize).
    BadSpace(String),
    /// A record beyond the torn-tail allowance is corrupt.
    Corrupt {
        /// 1-based journal line of the corruption.
        line: usize,
        /// What was wrong with it.
        msg: String,
    },
}

impl fmt::Display for SkipReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkipReason::Io(e) => write!(f, "unreadable: {e}"),
            SkipReason::NotAJournal(e) => write!(f, "not a {FORMAT_NAME}: {e}"),
            SkipReason::NewerVersion(v) => write!(
                f,
                "format v{v} is newer than this binary's v{FORMAT_VERSION}"
            ),
            SkipReason::BadSpace(e) => write!(f, "unusable space spec: {e}"),
            SkipReason::Corrupt { line, msg } => write!(f, "corrupt at line {line}: {msg}"),
        }
    }
}

/// One archived session's summary: everything donor selection needs,
/// without holding the trials themselves.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusEntry {
    /// Session id — the journal's file stem.
    pub session: String,
    /// Structural fingerprint of the session's search space.
    pub fingerprint: u64,
    /// How many objectives the session measured.
    pub objectives: usize,
    /// Completed trials on record.
    pub trials: usize,
    /// Best feasible finite primary-objective value observed (`None` when
    /// no trial qualifies).
    pub best: Option<f64>,
}

/// The scanned corpus: healthy session summaries plus the typed skip list.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Healthy archived sessions, sorted by session id.
    pub entries: Vec<CorpusEntry>,
    /// Skipped files as `(file name, reason)` pairs, sorted by file name.
    pub skipped: Vec<(String, SkipReason)>,
}

impl Corpus {
    /// Donor candidates for a space with `fingerprint` tuning `objectives`
    /// objectives: structurally compatible sessions holding at least one
    /// completed trial, in session-id order (deterministic), capped at
    /// `max`.
    pub fn donors(&self, fingerprint: u64, objectives: usize, max: usize) -> Vec<&CorpusEntry> {
        self.entries
            .iter()
            .filter(|e| e.fingerprint == fingerprint && e.objectives == objectives && e.trials > 0)
            .take(max)
            .collect()
    }
}

/// Summarizes one journal file's bytes, or says why it cannot join the
/// corpus. The torn-tail allowance of [`Journal::from_bytes`] applies: a
/// crash-torn final line is dropped, not a skip.
pub fn classify_bytes(session: &str, bytes: &[u8]) -> std::result::Result<CorpusEntry, SkipReason> {
    // Parse just the header line first: a foreign or future-format file
    // must be classified as such even if the rest is garbage.
    let head_end = bytes
        .iter()
        .position(|&b| b == b'\n')
        .unwrap_or(bytes.len());
    let head = std::str::from_utf8(&bytes[..head_end])
        .map_err(|_| SkipReason::NotAJournal("invalid UTF-8".into()))
        .and_then(|text| json::parse(text).map_err(SkipReason::NotAJournal))?;
    if head.get("t").and_then(Json::as_str) != Some("header")
        || head.get("format").and_then(Json::as_str) != Some(FORMAT_NAME)
    {
        return Err(SkipReason::NotAJournal("first line is not a header".into()));
    }
    if let Ok(v) = super::get_u64(&head, "version") {
        if v > FORMAT_VERSION {
            return Err(SkipReason::NewerVersion(v));
        }
    }
    let space_spec = head
        .get("space")
        .ok_or_else(|| SkipReason::NotAJournal("header has no `space`".into()))?;
    let space = space_from_spec(space_spec).map_err(SkipReason::BadSpace)?;
    let journal = Journal::from_bytes(bytes, &space).map_err(|e| match e {
        Error::JournalCorrupt { line, msg } => SkipReason::Corrupt { line, msg },
        other => SkipReason::NotAJournal(other.to_string()),
    })?;
    let best = journal
        .trials
        .iter()
        .filter(|t| t.feasible)
        .filter_map(|t| t.value)
        .filter(|v| v.is_finite())
        .fold(None, |acc: Option<f64>, v| {
            Some(acc.map_or(v, |a| a.min(v)))
        });
    Ok(CorpusEntry {
        session: session.to_string(),
        fingerprint: space_fingerprint(&journal.header.space),
        objectives: journal
            .header
            .options
            .get("objectives")
            .and_then(Json::as_f64)
            .map_or(1, |v| v as usize),
        trials: journal.trials.len(),
        best,
    })
}

/// Scans `dir` for `*.jsonl` journals and builds the corpus, skipping each
/// unusable file with a typed [`SkipReason`]. Deterministic: files are
/// visited in name order, whatever order the filesystem returns them in.
///
/// # Errors
/// [`Error::Io`] only when the directory itself cannot be listed; per-file
/// problems are *never* errors.
pub fn scan(dir: &Path) -> Result<Corpus> {
    let rd = std::fs::read_dir(dir).map_err(|e| Error::Io(format!("{}: {e}", dir.display())))?;
    let mut files: Vec<(String, PathBuf)> = rd
        .filter_map(|e| {
            let e = e.ok()?;
            let path = e.path();
            let name = e.file_name().to_str()?.to_string();
            (name.ends_with(".jsonl") && path.is_file()).then_some((name, path))
        })
        .collect();
    files.sort();
    let mut corpus = Corpus {
        entries: Vec::new(),
        skipped: Vec::new(),
    };
    for (name, path) in files {
        let session = name.trim_end_matches(".jsonl").to_string();
        match std::fs::read(&path) {
            Err(e) => corpus.skipped.push((name, SkipReason::Io(e.to_string()))),
            Ok(bytes) => match classify_bytes(&session, &bytes) {
                Ok(entry) => corpus.entries.push(entry),
                Err(reason) => corpus.skipped.push((name, reason)),
            },
        }
    }
    Ok(corpus)
}

/// Loads one donor journal by session id, decoding its trials **against the
/// live space** (valid whenever the fingerprints match — parameter order may
/// differ, decoding is by name), and returns it with its content hash:
/// FNV-1a over the journal's clean byte prefix, the per-donor term of the
/// transfer snapshot hash, stable across crash/resume cycles that only
/// truncate a torn tail.
///
/// # Errors
/// [`Error::Io`] when the file is missing or unreadable,
/// [`Error::JournalCorrupt`] when it no longer parses — a donor that
/// vanished or mutated under a recorded transfer digest is a hard error, not
/// a skip.
pub fn load_donor(dir: &Path, session: &str, space: &SearchSpace) -> Result<(u64, Journal)> {
    let path = dir.join(format!("{session}.jsonl"));
    let bytes = std::fs::read(&path).map_err(|e| Error::Io(format!("{}: {e}", path.display())))?;
    let journal = Journal::from_bytes(&bytes, space)?;
    let content = fnv1a(&bytes[..usize::try_from(journal.clean_len).unwrap_or(bytes.len())]);
    Ok((content, journal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SearchSpace;

    fn spec(
        build: impl FnOnce(crate::space::SearchSpaceBuilder) -> crate::space::SearchSpaceBuilder,
    ) -> Json {
        super::super::space_spec(&build(SearchSpace::builder()).build().unwrap())
    }

    #[test]
    fn fingerprint_ignores_declaration_order() {
        let a = spec(|b| b.integer("x", 0, 7).categorical("c", vec!["p", "q"]));
        let b = spec(|b| b.categorical("c", vec!["p", "q"]).integer("x", 0, 7));
        assert_eq!(space_fingerprint(&a), space_fingerprint(&b));
    }

    #[test]
    fn fingerprint_sees_structural_changes() {
        let base = spec(|b| b.integer("x", 0, 7).known_constraint("x >= 1"));
        for changed in [
            spec(|b| b.integer("x", 0, 8).known_constraint("x >= 1")), // bound
            spec(|b| b.integer("y", 0, 7).known_constraint("y >= 1")), // name
            spec(|b| b.ordinal("x", vec![0.0, 7.0]).known_constraint("x >= 1")), // kind
            spec(|b| b.integer("x", 0, 7)),                            // constraint
            spec(|b| {
                b.integer("x", 0, 7)
                    .integer("z", 0, 1)
                    .known_constraint("x >= 1")
            }),
        ] {
            assert_ne!(space_fingerprint(&base), space_fingerprint(&changed));
        }
    }

    #[test]
    fn classify_rejects_foreign_and_future_files() {
        assert!(matches!(
            classify_bytes("s", b"not json at all"),
            Err(SkipReason::NotAJournal(_))
        ));
        assert!(matches!(
            classify_bytes("s", br#"{"t":"header","format":"other-tool","version":1}"#),
            Err(SkipReason::NotAJournal(_))
        ));
        let future = format!(
            r#"{{"t":"header","format":"{FORMAT_NAME}","version":99,"mode":"run","seed":"1","budget":1,"doe_samples":1,"batch_size":1,"options":{{}},"space":{{"params":[],"constraints":[]}}}}"#
        );
        assert!(matches!(
            classify_bytes("s", future.as_bytes()),
            Err(SkipReason::NewerVersion(99))
        ));
    }

    #[test]
    fn scan_survives_a_mixed_health_directory() {
        use crate::tuner::{Baco, Evaluation, FnBlackBox};
        let dir = std::env::temp_dir().join(format!("baco-corpus-mixed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let space = SearchSpace::builder().integer("x", 0, 15).build().unwrap();
        let bb = FnBlackBox::new(|c: &crate::space::Configuration| {
            Evaluation::feasible(c.value("x").as_f64() + 1.0)
        });

        // One healthy archived session...
        Baco::builder(space.clone())
            .budget(5)
            .doe_samples(3)
            .seed(7)
            .journal_path(dir.join("healthy.jsonl"))
            .build()
            .unwrap()
            .run(&bb)
            .unwrap();
        // ...one torn mid-record (a crash artifact: decodable prefix kept)...
        let healthy = std::fs::read(dir.join("healthy.jsonl")).unwrap();
        let cut = healthy.len() - 7;
        std::fs::write(dir.join("torn.jsonl"), &healthy[..cut]).unwrap();
        // ...one corrupt from the first line, one foreign, one future-format,
        // and a non-journal file the scan must not even consider.
        std::fs::write(dir.join("corrupt.jsonl"), b"{\"t\":\"header\"\n").unwrap();
        std::fs::write(dir.join("foreign.jsonl"), b"{\"tool\":\"other\"}\n").unwrap();
        let future = format!(
            r#"{{"t":"header","format":"{FORMAT_NAME}","version":99,"mode":"run","seed":"1","budget":1,"doe_samples":1,"batch_size":1,"options":{{}},"space":{{"params":[],"constraints":[]}}}}"#
        );
        std::fs::write(dir.join("future.jsonl"), format!("{future}\n")).unwrap();
        std::fs::write(dir.join("README.txt"), b"not a journal\n").unwrap();

        let corpus = scan(&dir).unwrap();
        // Healthy and torn both classify (torn journals keep their decodable
        // prefix — the crash-tolerance contract); the rest are typed skips.
        let names: Vec<&str> = corpus.entries.iter().map(|e| e.session.as_str()).collect();
        assert_eq!(names, ["healthy", "torn"]);
        assert!(corpus
            .entries
            .iter()
            .all(|e| e.trials > 0 && e.best.is_some()));
        let skipped: Vec<&str> = corpus.skipped.iter().map(|(f, _)| f.as_str()).collect();
        assert_eq!(skipped, ["corrupt.jsonl", "foreign.jsonl", "future.jsonl"]);
        assert!(matches!(corpus.skipped[0].1, SkipReason::NotAJournal(_)));
        assert!(matches!(corpus.skipped[1].1, SkipReason::NotAJournal(_)));
        assert!(matches!(corpus.skipped[2].1, SkipReason::NewerVersion(99)));
        // Every skip renders as one human-readable line.
        for (file, why) in &corpus.skipped {
            assert!(!format!("skipped {file}: {why}").contains('\n'));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
