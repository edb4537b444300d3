use crate::space::Configuration;
use std::fmt;

/// The outcome of evaluating one configuration on the target system.
///
/// An evaluation carries a small fixed vector of objectives — one entry per
/// tuned metric, all minimized. The overwhelmingly common single-objective
/// case is the 1-vector: [`Evaluation::feasible`] builds it and
/// [`Evaluation::value`] reads it back, so single-objective callers never
/// see the vector. Multi-objective black boxes (latency *and* area, runtime
/// *and* energy, …) use [`Evaluation::feasible_multi`] /
/// [`Evaluation::values`].
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Objective vector; empty for infeasible evaluations.
    values: Vec<f64>,
    feasible: bool,
}

impl Evaluation {
    /// A successful evaluation with the measured objective (lower is better;
    /// typically a runtime).
    pub fn feasible(value: f64) -> Self {
        Evaluation {
            values: vec![value],
            feasible: true,
        }
    }

    /// A successful evaluation with several measured objectives, all
    /// minimized (e.g. `[latency_ms, area_alms]`). A 1-vector is exactly
    /// [`Evaluation::feasible`]; an empty vector is treated as a failed
    /// evaluation.
    pub fn feasible_multi(values: Vec<f64>) -> Self {
        let feasible = !values.is_empty();
        Evaluation { values, feasible }
    }

    /// A failed evaluation — a *hidden constraint* violation: the compiler
    /// crashed, the kernel ran out of memory, the design did not fit, …
    ///
    /// Unlike frameworks that feed a penalty value to the model, BaCO routes
    /// these to the feasibility classifier (Sec. 4.2).
    pub fn infeasible() -> Self {
        Evaluation {
            values: Vec::new(),
            feasible: false,
        }
    }

    /// The measured primary objective (the first entry of the objective
    /// vector), if the evaluation succeeded.
    pub fn value(&self) -> Option<f64> {
        self.values.first().copied()
    }

    /// The full objective vector, if the evaluation succeeded.
    pub fn values(&self) -> Option<&[f64]> {
        if self.values.is_empty() {
            None
        } else {
            Some(&self.values)
        }
    }

    /// Number of measured objectives (0 for a failed evaluation).
    pub fn n_objectives(&self) -> usize {
        self.values.len()
    }

    /// The objectives beyond the first, cloned — exactly what
    /// [`Trial::extra`](crate::tuner::Trial) records. Empty for failed and
    /// single-objective evaluations.
    pub fn extra_objectives(&self) -> Vec<f64> {
        if self.values.len() > 1 {
            self.values[1..].to_vec()
        } else {
            Vec::new()
        }
    }

    /// Whether the evaluation succeeded.
    pub fn is_feasible(&self) -> bool {
        self.feasible
    }

    /// Whether every measured objective is finite. A "feasible" evaluation
    /// carrying NaN/±inf is a measurement failure — the core ingestion paths
    /// (`TuningReport::push`, `Session::try_report`, the closed loops) demote or
    /// reject it so it can never reach the surrogate.
    pub fn is_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }
}

impl fmt::Display for Evaluation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.values.as_slice() {
            [] => write!(f, "infeasible"),
            [v] => write!(f, "{v}"),
            many => {
                write!(f, "[")?;
                for (i, v) in many.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

/// A system under autotuning: compiler + benchmark, treated as a black box
/// (Sec. 1: "it is vital for an autoscheduler to treat each compiler as a
/// black-box system").
pub trait BlackBox {
    /// Compiles and runs `cfg`, returning the measured objective(s) or an
    /// infeasibility signal.
    fn evaluate(&self, cfg: &Configuration) -> Evaluation;

    /// A human-readable name for reports.
    fn name(&self) -> &str {
        "blackbox"
    }
}

impl<T: BlackBox + ?Sized> BlackBox for &T {
    fn evaluate(&self, cfg: &Configuration) -> Evaluation {
        (**self).evaluate(cfg)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

impl<T: BlackBox + ?Sized> BlackBox for Box<T> {
    fn evaluate(&self, cfg: &Configuration) -> Evaluation {
        (**self).evaluate(cfg)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

/// Adapts a closure into a [`BlackBox`].
///
/// ```
/// use baco::{Evaluation, FnBlackBox, SearchSpace};
/// use baco::tuner::BlackBox;
/// let space = SearchSpace::builder().integer("x", 0, 7).build()?;
/// let f = FnBlackBox::new(|cfg| Evaluation::feasible(cfg.value("x").as_f64()));
/// let e = f.evaluate(&space.default_configuration());
/// assert_eq!(e.value(), Some(0.0));
/// # Ok::<(), baco::Error>(())
/// ```
pub struct FnBlackBox<F> {
    f: F,
    name: String,
}

impl<F> FnBlackBox<F>
where
    F: Fn(&Configuration) -> Evaluation,
{
    /// Wraps `f`.
    pub fn new(f: F) -> Self {
        FnBlackBox {
            f,
            name: "fn-blackbox".to_string(),
        }
    }

    /// Wraps `f` with a display name.
    pub fn named(name: &str, f: F) -> Self {
        FnBlackBox {
            f,
            name: name.to_string(),
        }
    }
}

impl<F> BlackBox for FnBlackBox<F>
where
    F: Fn(&Configuration) -> Evaluation,
{
    fn evaluate(&self, cfg: &Configuration) -> Evaluation {
        (self.f)(cfg)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl<F> fmt::Debug for FnBlackBox<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FnBlackBox({})", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_constructors() {
        let ok = Evaluation::feasible(1.5);
        assert_eq!(ok.value(), Some(1.5));
        assert_eq!(ok.values(), Some([1.5].as_slice()));
        assert_eq!(ok.n_objectives(), 1);
        assert!(ok.is_feasible());
        assert_eq!(ok.to_string(), "1.5");
        let bad = Evaluation::infeasible();
        assert_eq!(bad.value(), None);
        assert_eq!(bad.values(), None);
        assert_eq!(bad.n_objectives(), 0);
        assert!(!bad.is_feasible());
        assert_eq!(bad.to_string(), "infeasible");
    }

    #[test]
    fn multi_objective_constructor() {
        let e = Evaluation::feasible_multi(vec![2.0, 3.5]);
        assert!(e.is_feasible());
        assert_eq!(e.value(), Some(2.0));
        assert_eq!(e.values(), Some([2.0, 3.5].as_slice()));
        assert_eq!(e.n_objectives(), 2);
        assert_eq!(e.to_string(), "[2, 3.5]");
        // The 1-vector case is exactly the single-objective constructor.
        assert_eq!(Evaluation::feasible_multi(vec![1.5]), Evaluation::feasible(1.5));
        // An empty vector is a failed evaluation.
        assert_eq!(Evaluation::feasible_multi(Vec::new()), Evaluation::infeasible());
    }

    #[test]
    fn finiteness_check() {
        assert!(Evaluation::feasible(1.0).is_finite());
        assert!(Evaluation::infeasible().is_finite());
        assert!(!Evaluation::feasible(f64::NAN).is_finite());
        assert!(!Evaluation::feasible_multi(vec![1.0, f64::INFINITY]).is_finite());
    }

    #[test]
    fn fn_blackbox_named() {
        let f = FnBlackBox::named("demo", |_| Evaluation::infeasible());
        assert_eq!(f.name(), "demo");
        assert!(format!("{f:?}").contains("demo"));
    }
}
