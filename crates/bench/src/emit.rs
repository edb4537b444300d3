//! Shared emission helpers for the `BENCH_*.json` perf artifacts.
//!
//! Every perf binary ends its JSON document with the same machine-checkable
//! block so CI (and humans) can evaluate all artifacts with one rule —
//! `"pass": true` inside `"criteria"` means every acceptance check held:
//!
//! ```json
//! "criteria": {
//!   "checks": [
//!     {"name": "speedup_at_q8", "value": 6.61, "op": ">=", "target": 2.5, "pass": true}
//!   ],
//!   "pass": true
//! }
//! ```
//!
//! Binaries keep building their workload-specific body fields by hand and
//! append [`criteria_block`] as the final member of the top-level object.

use std::fmt;

/// Comparison direction for one acceptance check.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// `value >= target` (speedups, ratios that must not fall below a floor).
    Ge,
    /// `value <= target` (latencies, regressions bounded from above).
    Le,
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Op::Ge => ">=",
            Op::Le => "<=",
        })
    }
}

/// One named acceptance check: `value <op> target`.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: String,
    pub value: f64,
    pub op: Op,
    pub target: f64,
}

impl Check {
    /// A `value >= target` check.
    pub fn ge(name: impl Into<String>, value: f64, target: f64) -> Self {
        Check {
            name: name.into(),
            value,
            op: Op::Ge,
            target,
        }
    }

    /// A `value <= target` check.
    pub fn le(name: impl Into<String>, value: f64, target: f64) -> Self {
        Check {
            name: name.into(),
            value,
            op: Op::Le,
            target,
        }
    }

    /// Whether the check holds. A non-finite measurement always fails — it
    /// means the benchmark itself is broken, whatever the direction.
    pub fn pass(&self) -> bool {
        self.value.is_finite()
            && match self.op {
                Op::Ge => self.value >= self.target,
                Op::Le => self.value <= self.target,
            }
    }
}

/// Whether every check holds.
pub fn all_pass(checks: &[Check]) -> bool {
    checks.iter().all(Check::pass)
}

fn num(v: f64) -> String {
    if !v.is_finite() {
        // JSON has no NaN/Infinity literal; null keeps the document parseable
        // and can never compare as a pass.
        return "null".to_string();
    }
    // Millidigit precision, trailing fraction zeros trimmed, so targets read
    // naturally ("2", "2.5") and measured values keep their precision.
    let s = format!("{v:.3}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    s.to_string()
}

/// The uniform `"criteria"` JSON fragment, indented for embedding as the last
/// member of a 2-space-indented top-level object (no trailing comma, ends
/// with a newline).
pub fn criteria_block(checks: &[Check]) -> String {
    let mut s = String::from("  \"criteria\": {\n    \"checks\": [\n");
    for (i, c) in checks.iter().enumerate() {
        s.push_str(&format!(
            "      {{\"name\": \"{}\", \"value\": {}, \"op\": \"{}\", \"target\": {}, \"pass\": {}}}{}\n",
            c.name,
            num(c.value),
            c.op,
            num(c.target),
            c.pass(),
            if i + 1 < checks.len() { "," } else { "" }
        ));
    }
    s.push_str(&format!(
        "    ],\n    \"pass\": {}\n  }}\n",
        all_pass(checks)
    ));
    s
}

/// One human line per check for stdout, mirroring the JSON verdicts.
pub fn print_criteria(checks: &[Check]) {
    for c in checks {
        println!(
            "criterion {:<44} {:>12} {} {:<8} [{}]",
            c.name,
            num(c.value),
            c.op,
            num(c.target),
            if c.pass() { "pass" } else { "FAIL" }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_and_nan_semantics() {
        assert!(Check::ge("s", 2.5, 2.5).pass());
        assert!(!Check::ge("s", 2.4999, 2.5).pass());
        assert!(Check::le("r", 1.0, 2.0).pass());
        assert!(!Check::le("r", 2.1, 2.0).pass());
        assert!(!Check::ge("n", f64::NAN, 0.0).pass());
        assert!(!Check::le("n", f64::NAN, 1.0).pass());
    }

    #[test]
    fn block_is_uniform_and_valid_shaped() {
        let checks = [
            Check::ge("speedup", 6.61, 2.5),
            Check::le("ratio", 3.0, 2.0),
        ];
        let block = criteria_block(&checks);
        assert!(block.starts_with("  \"criteria\": {"));
        assert!(block.contains(
            "{\"name\": \"speedup\", \"value\": 6.61, \"op\": \">=\", \"target\": 2.5, \"pass\": true},"
        ));
        assert!(block.contains(
            "{\"name\": \"ratio\", \"value\": 3, \"op\": \"<=\", \"target\": 2, \"pass\": false}"
        ));
        assert!(block.ends_with("    ],\n    \"pass\": false\n  }\n"));
        assert!(!all_pass(&checks));
        // Embedded in a document, the fragment must close into valid JSON.
        let doc = format!("{{\n  \"benchmark\": \"t\",\n{block}}}\n");
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }

    #[test]
    fn non_finite_values_serialize_as_null_and_fail() {
        let checks = [
            Check::ge("inf", f64::INFINITY, 1.0),
            Check::ge("nan", f64::NAN, 1.0),
        ];
        let block = criteria_block(&checks);
        assert!(block.contains("\"value\": null, \"op\": \">=\", \"target\": 1, \"pass\": false"));
        // +inf >= 1.0 is arguably true, but a non-finite measurement is
        // always a broken benchmark — report it as a failure.
        assert!(block.contains("\"name\": \"inf\", \"value\": null"));
    }
}
