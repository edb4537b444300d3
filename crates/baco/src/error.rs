use std::fmt;

/// Errors produced by the BaCO framework.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A search space was declared inconsistently (duplicate names, empty
    /// domains, malformed bounds, …).
    InvalidSpace(String),
    /// A known-constraint expression failed to parse.
    ConstraintParse(String),
    /// A constraint references a parameter that does not exist.
    UnknownParameter(String),
    /// A constraint expression could not be evaluated on a configuration
    /// (type mismatch, division by zero, …).
    ConstraintEval(String),
    /// The known constraints admit no feasible configuration.
    EmptyFeasibleSet,
    /// The feasible set is too large to enumerate into a Chain-of-Trees.
    FeasibleSetTooLarge {
        /// Number of partial configurations reached before giving up.
        limit: usize,
    },
    /// Numerical failure inside a surrogate model (non-SPD kernel matrix, …).
    Numerical(String),
    /// The tuner was configured inconsistently (zero budget, …).
    InvalidConfig(String),
    /// A configuration refers to a parameter value outside its domain.
    InvalidValue(String),
    /// A reported evaluation claimed feasibility while carrying a NaN/±inf
    /// objective. Non-finite "measurements" are rejected at every ingestion
    /// path — they would survive the log transform as impossibly good
    /// observations and poison the surrogate.
    NonFiniteObjective(String),
    /// A reported evaluation carried a different number of objectives than
    /// the tuner was configured for — a mixed-width history would corrupt
    /// Pareto-front bookkeeping (mismatched vectors are incomparable) while
    /// being silently invisible to the per-objective models.
    ObjectiveCountMismatch {
        /// Objectives the evaluation carried.
        got: usize,
        /// Objectives the tuner tunes ([`BacoOptions::objectives`](crate::tuner::BacoOptions)).
        expected: usize,
    },
    /// A run-journal I/O operation failed (open, append, fsync, …).
    Io(String),
    /// A run journal could not be decoded: truncated mid-stream, a corrupt
    /// or garbage record, or a header incompatible with the resuming tuner.
    /// `line` is 1-based; `0` marks whole-file problems (empty, no header).
    JournalCorrupt {
        /// 1-based journal line of the offending record (0 = whole file).
        line: usize,
        /// What was wrong with it.
        msg: String,
    },
    /// A tuning-server request named a session the registry does not hold.
    UnknownSession(String),
    /// A tuning-server request tried to create a session under a name the
    /// registry already holds.
    SessionExists(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidSpace(m) => write!(f, "invalid search space: {m}"),
            Error::ConstraintParse(m) => write!(f, "constraint parse error: {m}"),
            Error::UnknownParameter(m) => write!(f, "unknown parameter: {m}"),
            Error::ConstraintEval(m) => write!(f, "constraint evaluation error: {m}"),
            Error::EmptyFeasibleSet => write!(f, "known constraints admit no feasible configuration"),
            Error::FeasibleSetTooLarge { limit } => {
                write!(f, "feasible set exceeds enumeration limit of {limit} nodes")
            }
            Error::Numerical(m) => write!(f, "numerical error: {m}"),
            Error::InvalidConfig(m) => write!(f, "invalid tuner configuration: {m}"),
            Error::InvalidValue(m) => write!(f, "invalid parameter value: {m}"),
            Error::NonFiniteObjective(m) => write!(f, "non-finite objective: {m}"),
            Error::ObjectiveCountMismatch { got, expected } => write!(
                f,
                "objective count mismatch: evaluation carries {got} objective(s), tuner expects {expected}"
            ),
            Error::Io(m) => write!(f, "journal I/O error: {m}"),
            Error::JournalCorrupt { line, msg } => {
                write!(f, "corrupt run journal (line {line}): {msg}")
            }
            Error::UnknownSession(name) => write!(f, "unknown session `{name}`"),
            Error::SessionExists(name) => write!(f, "session `{name}` already exists"),
        }
    }
}

impl std::error::Error for Error {}

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs = [
            Error::InvalidSpace("dup".into()),
            Error::ConstraintParse("bad token".into()),
            Error::UnknownParameter("p9".into()),
            Error::ConstraintEval("type mismatch".into()),
            Error::EmptyFeasibleSet,
            Error::FeasibleSetTooLarge { limit: 10 },
            Error::Numerical("cholesky".into()),
            Error::InvalidConfig("budget".into()),
            Error::InvalidValue("7".into()),
            Error::NonFiniteObjective("NaN".into()),
            Error::ObjectiveCountMismatch {
                got: 1,
                expected: 2,
            },
            Error::Io("open failed".into()),
            Error::JournalCorrupt {
                line: 3,
                msg: "bad record".into(),
            },
            Error::UnknownSession("s1".into()),
            Error::SessionExists("s1".into()),
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
