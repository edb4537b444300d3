use crate::space::Configuration;
use std::time::Duration;

/// One evaluated configuration in a tuning run.
#[derive(Debug, Clone)]
pub struct Trial {
    /// The configuration that was evaluated.
    pub config: Configuration,
    /// Measured primary objective (`None` for hidden-constraint failures).
    pub value: Option<f64>,
    /// Measured objectives beyond the first, in declaration order. Empty for
    /// single-objective runs and for failed evaluations, so single-objective
    /// trials look exactly as they always did.
    pub extra: Vec<f64>,
    /// Whether the evaluation succeeded.
    pub feasible: bool,
    /// Time spent inside the black box.
    pub eval_time: Duration,
    /// Time the tuner spent deciding on this configuration (model fitting +
    /// acquisition optimization).
    pub tuner_time: Duration,
}

impl Trial {
    /// The full objective vector (`[value, extra...]`), or `None` for a
    /// failed evaluation.
    pub fn objectives(&self) -> Option<Vec<f64>> {
        let first = self.value?;
        let mut v = Vec::with_capacity(1 + self.extra.len());
        v.push(first);
        v.extend_from_slice(&self.extra);
        Some(v)
    }

    /// Whether this trial carries a usable measurement: feasible with every
    /// objective finite.
    pub(super) fn measured(&self) -> bool {
        self.feasible
            && self.value.is_some_and(f64::is_finite)
            && self.extra.iter().all(|v| v.is_finite())
    }
}

/// `a` Pareto-dominates `b` (minimization): no worse in every objective and
/// strictly better in at least one. Vectors of different lengths are
/// incomparable.
fn dominates(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| x <= y)
        && a.iter().zip(b).any(|(x, y)| x < y)
}

/// The full record of a tuning run: every trial in evaluation order.
#[derive(Debug, Clone, Default)]
pub struct TuningReport {
    trials: Vec<Trial>,
    tuner_name: String,
    /// Indices of the current Pareto front, maintained incrementally by
    /// [`TuningReport::push`] (ascending, i.e. first-seen order).
    front: Vec<usize>,
    /// Objective count established by the first measured trial; later
    /// measured trials of a different width are demoted by
    /// [`TuningReport::push`].
    measured_width: Option<usize>,
    /// Reference point for [`TuningReport::hypervolume_vs_ref`]; set by the
    /// tuning loops from
    /// [`BacoOptions::reference_point`](crate::tuner::BacoOptions), which is
    /// recorded in the run journal's determinism envelope.
    reference_point: Option<Vec<f64>>,
}

impl TuningReport {
    /// An empty report attributed to `tuner_name`. Custom driver loops
    /// (e.g. ones feeding [`Baco::recommend_batch`](crate::tuner::Baco)
    /// by hand) start here.
    pub fn new(tuner_name: &str) -> Self {
        TuningReport {
            trials: Vec::new(),
            tuner_name: tuner_name.to_string(),
            front: Vec::new(),
            measured_width: None,
            reference_point: None,
        }
    }

    /// Appends one evaluated trial. Evaluation order is the push order.
    ///
    /// This is the last line of defense of the objective-ingestion path: a
    /// trial claiming feasibility is demoted to infeasible before it is
    /// recorded when it carries a non-finite objective (NaN/±inf — it would
    /// survive the log transform as an impossibly good observation and
    /// poison the GP) **or** a different objective count than the report's
    /// earlier measured trials (mixed-width vectors are mutually
    /// incomparable, so such a trial would squat on the Pareto front while
    /// staying invisible to the per-objective models). The offending values
    /// are kept on the trial for diagnostics. Callers that want the
    /// rejection surfaced as a typed error use
    /// [`Session::try_report`](crate::tuner::Session::try_report).
    pub fn push(&mut self, mut t: Trial) {
        if t.feasible
            && !(t.value.is_some_and(f64::is_finite) && t.extra.iter().all(|v| v.is_finite()))
        {
            t.feasible = false;
        }
        // Width consistency against the established history (the first
        // measured trial sets the report's objective count).
        if t.feasible && t.value.is_some() {
            let width = 1 + t.extra.len();
            match self.measured_width {
                Some(w) if w != width => t.feasible = false,
                Some(_) => {}
                None => self.measured_width = Some(width),
            }
        }
        let idx = self.trials.len();
        if t.measured() {
            let objs = t.objectives().expect("measured trials have objectives");
            let dominated = self.front.iter().any(|&i| {
                let fo = self.trials[i].objectives().expect("front trials are measured");
                // Weak domination: an exact duplicate keeps the first-seen
                // front member and drops the newcomer.
                fo.len() == objs.len() && fo.iter().zip(&objs).all(|(x, y)| x <= y)
            });
            if !dominated {
                self.front.retain(|&i| {
                    let fo = self.trials[i].objectives().expect("front trials are measured");
                    !dominates(&objs, &fo)
                });
                self.front.push(idx);
            }
        }
        self.trials.push(t);
    }

    /// Name of the tuner that produced this report.
    pub fn tuner_name(&self) -> &str {
        &self.tuner_name
    }

    /// All trials, in evaluation order.
    pub fn trials(&self) -> &[Trial] {
        &self.trials
    }

    /// Number of evaluations performed.
    pub fn len(&self) -> usize {
        self.trials.len()
    }

    /// Whether no evaluations were performed.
    pub fn is_empty(&self) -> bool {
        self.trials.is_empty()
    }

    /// Number of objectives measured so far (1 until a feasible trial says
    /// otherwise — an all-infeasible history has no observed vector width).
    pub fn n_objectives(&self) -> usize {
        self.measured_width.unwrap_or(1)
    }

    /// The best feasible trial by **primary** objective (the full vector's
    /// first entry; for multi-objective runs see
    /// [`TuningReport::pareto_front`]).
    ///
    /// Deterministic by construction: on an exact tie the **first-seen**
    /// trial wins, so incumbent reporting is stable across resume and server
    /// paths. Returns `None` when no trial is feasible (or every feasible
    /// value is non-finite, which [`TuningReport::push`] already demotes).
    pub fn best(&self) -> Option<&Trial> {
        let mut best: Option<&Trial> = None;
        for t in &self.trials {
            let Some(v) = t.value else { continue };
            if !t.feasible || !v.is_finite() {
                continue;
            }
            match best {
                // Strictly-less keeps the earlier trial on exact ties.
                Some(b) if v.total_cmp(&b.value.expect("best is measured")).is_lt() => {
                    best = Some(t)
                }
                Some(_) => {}
                None => best = Some(t),
            }
        }
        best
    }

    /// The best feasible primary-objective value.
    pub fn best_value(&self) -> Option<f64> {
        self.best().and_then(|t| t.value)
    }

    /// The Pareto-optimal feasible trials — no other feasible trial is at
    /// least as good in every objective and better in one — in evaluation
    /// order. Maintained incrementally by [`TuningReport::push`] (each push
    /// is O(front size)). For a single-objective run this is exactly the
    /// singleton [`TuningReport::best`]; duplicates of a front point are
    /// dropped (first-seen wins). Empty when nothing feasible was measured.
    pub fn pareto_front(&self) -> Vec<&Trial> {
        self.front.iter().map(|&i| &self.trials[i]).collect()
    }

    /// Sets the hypervolume reference point (see
    /// [`TuningReport::hypervolume_vs_ref`]).
    pub fn set_reference_point(&mut self, reference: Option<Vec<f64>>) {
        self.reference_point = reference;
    }

    /// The reference point recorded for this run, if any.
    pub fn reference_point(&self) -> Option<&[f64]> {
        self.reference_point.as_deref()
    }

    /// The hypervolume dominated by the Pareto front with respect to
    /// `reference` (minimization): the Lebesgue measure of the region
    /// dominated by the front inside the box bounded above by `reference`.
    /// Larger is better; `0.0` for an empty front.
    ///
    /// Every front coordinate is **clamped** to the reference
    /// (`min(pᵢ, rᵢ)`): a point that does not strictly dominate the
    /// reference in every component lands on the box boundary and dominates
    /// a region of measure zero — exactly zero contribution, never a negative
    /// slab or a silently inflated one. (Clamping, rather than skipping, is
    /// the fix for the boundary case `pᵢ = rᵢ`, which must not be treated as
    /// interior.)
    ///
    /// Exact for any objective count via recursive slicing on the last
    /// objective — O(n²) per slice level, plenty for fronts bounded by the
    /// evaluation budget.
    pub fn hypervolume(&self, reference: &[f64]) -> f64 {
        let pts: Vec<Vec<f64>> = self
            .front
            .iter()
            .filter_map(|&i| self.trials[i].objectives())
            .filter(|o| o.len() == reference.len())
            .map(|o| o.iter().zip(reference).map(|(&p, &r)| p.min(r)).collect())
            .collect();
        hypervolume_of(&pts, reference)
    }

    /// [`TuningReport::hypervolume`] against the reference point journaled
    /// with the run; `None` when no reference point was configured.
    pub fn hypervolume_vs_ref(&self) -> Option<f64> {
        self.reference_point.as_deref().map(|r| self.hypervolume(r))
    }

    /// Best primary-objective value after each evaluation (`None` until the
    /// first feasible result). This is the series plotted in Fig. 6/7/11.
    pub fn trajectory(&self) -> Vec<Option<f64>> {
        let mut best = None;
        self.trials
            .iter()
            .map(|t| {
                if let (true, Some(v)) = (t.feasible, t.value) {
                    best = Some(best.map_or(v, |b: f64| b.min(v)));
                }
                best
            })
            .collect()
    }

    /// Best value within the first `n` evaluations.
    pub fn best_within(&self, n: usize) -> Option<f64> {
        self.trajectory().into_iter().take(n).flatten().last()
    }

    /// First evaluation index (1-based) at which the best-so-far value
    /// reaches `target` (≤), or `None`.
    pub fn evals_to_reach(&self, target: f64) -> Option<usize> {
        self.trajectory()
            .iter()
            .position(|v| v.is_some_and(|x| x <= target))
            .map(|i| i + 1)
    }

    /// Fraction of trials that were feasible.
    pub fn feasible_fraction(&self) -> f64 {
        if self.trials.is_empty() {
            return 0.0;
        }
        self.trials.iter().filter(|t| t.feasible).count() as f64 / self.trials.len() as f64
    }

    /// Total time spent in the black box.
    pub fn total_eval_time(&self) -> Duration {
        self.trials.iter().map(|t| t.eval_time).sum()
    }

    /// Total time spent inside the tuner.
    pub fn total_tuner_time(&self) -> Duration {
        self.trials.iter().map(|t| t.tuner_time).sum()
    }
}

/// Hypervolume of a set of points with every coordinate at or below the
/// reference (clamped by the caller), by recursive slicing on the last
/// objective. Boundary coordinates produce zero-width slabs, never negative
/// ones.
fn hypervolume_of(pts: &[Vec<f64>], reference: &[f64]) -> f64 {
    if pts.is_empty() || reference.is_empty() {
        return 0.0;
    }
    if reference.len() == 1 {
        let min = pts.iter().map(|p| p[0]).fold(f64::INFINITY, f64::min);
        return (reference[0] - min).max(0.0);
    }
    let last = reference.len() - 1;
    // Slice boundaries: every distinct last-coordinate, ascending, closed by
    // the reference.
    let mut zs: Vec<f64> = pts.iter().map(|p| p[last]).collect();
    zs.sort_by(f64::total_cmp);
    zs.dedup();
    zs.push(reference[last]);
    let mut hv = 0.0;
    for w in zs.windows(2) {
        let (z0, z1) = (w[0], w[1]);
        if z1 <= z0 {
            continue;
        }
        // Points alive in this slice, projected to the remaining objectives.
        let slab: Vec<Vec<f64>> = pts
            .iter()
            .filter(|p| p[last] <= z0)
            .map(|p| p[..last].to_vec())
            .collect();
        hv += hypervolume_of(&slab, &reference[..last]) * (z1 - z0);
    }
    hv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{ParamValue, SearchSpace};

    fn trial(v: Option<f64>) -> Trial {
        let s = SearchSpace::builder().integer("x", 0, 3).build().unwrap();
        Trial {
            config: s.configuration(&[("x", ParamValue::Int(0))]).unwrap(),
            value: v,
            extra: Vec::new(),
            feasible: v.is_some(),
            eval_time: Duration::from_millis(2),
            tuner_time: Duration::from_millis(1),
        }
    }

    fn trial_multi(i: i64, objs: &[f64]) -> Trial {
        let s = SearchSpace::builder().integer("x", 0, 63).build().unwrap();
        Trial {
            config: s.configuration(&[("x", ParamValue::Int(i))]).unwrap(),
            value: Some(objs[0]),
            extra: objs[1..].to_vec(),
            feasible: true,
            eval_time: Duration::ZERO,
            tuner_time: Duration::ZERO,
        }
    }

    #[test]
    fn trajectory_and_best() {
        let mut r = TuningReport::new("t");
        for v in [None, Some(5.0), Some(7.0), None, Some(3.0), Some(4.0)] {
            r.push(trial(v));
        }
        assert_eq!(
            r.trajectory(),
            vec![None, Some(5.0), Some(5.0), Some(5.0), Some(3.0), Some(3.0)]
        );
        assert_eq!(r.best_value(), Some(3.0));
        assert_eq!(r.best_within(3), Some(5.0));
        assert_eq!(r.best_within(0), None);
        assert_eq!(r.evals_to_reach(5.0), Some(2));
        assert_eq!(r.evals_to_reach(3.0), Some(5));
        assert_eq!(r.evals_to_reach(1.0), None);
        assert!((r.feasible_fraction() - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(r.total_eval_time(), Duration::from_millis(12));
        assert_eq!(r.total_tuner_time(), Duration::from_millis(6));
        // Single-objective front is the singleton best.
        let front = r.pareto_front();
        assert_eq!(front.len(), 1);
        assert_eq!(front[0].value, Some(3.0));
    }

    #[test]
    fn empty_report() {
        let r = TuningReport::new("t");
        assert!(r.is_empty());
        assert!(r.best().is_none());
        assert_eq!(r.feasible_fraction(), 0.0);
        assert!(r.pareto_front().is_empty());
        assert_eq!(r.n_objectives(), 1);
        assert_eq!(r.hypervolume(&[10.0]), 0.0);
    }

    #[test]
    fn best_ties_break_to_first_seen() {
        let s = SearchSpace::builder().integer("x", 0, 7).build().unwrap();
        let mk = |x: i64, v: f64| Trial {
            config: s.configuration(&[("x", ParamValue::Int(x))]).unwrap(),
            value: Some(v),
            extra: Vec::new(),
            feasible: true,
            eval_time: Duration::ZERO,
            tuner_time: Duration::ZERO,
        };
        let mut r = TuningReport::new("t");
        r.push(mk(3, 2.0));
        r.push(mk(5, 2.0)); // exact tie: must NOT displace the incumbent
        r.push(mk(6, 2.5));
        let best = r.best().unwrap();
        assert_eq!(best.config.value("x"), ParamValue::Int(3));
        // -0.0 < 0.0 under total_cmp: still deterministic, later -0.0 wins.
        r.push(mk(1, 0.0));
        r.push(mk(2, -0.0));
        assert_eq!(r.best().unwrap().config.value("x"), ParamValue::Int(2));
    }

    #[test]
    fn all_infeasible_history_has_no_best() {
        let mut r = TuningReport::new("t");
        for _ in 0..3 {
            r.push(trial(None));
        }
        assert!(r.best().is_none());
        assert!(r.best_value().is_none());
        assert!(r.pareto_front().is_empty());
    }

    #[test]
    fn push_demotes_non_finite_feasible_trials() {
        let mut r = TuningReport::new("t");
        let mut t = trial(Some(f64::NAN));
        t.feasible = true;
        r.push(t);
        let mut t = trial(Some(1.0));
        t.extra = vec![f64::INFINITY];
        r.push(t);
        assert!(r.trials().iter().all(|t| !t.feasible), "demoted to infeasible");
        assert!(r.best().is_none(), "non-finite values never become the incumbent");
        assert!(r.pareto_front().is_empty());
        // The raw values are kept for diagnostics.
        assert!(r.trials()[0].value.unwrap().is_nan());
    }

    #[test]
    fn push_demotes_width_mismatched_trials() {
        let mut r = TuningReport::new("t");
        r.push(trial_multi(0, &[2.0, 2.0])); // establishes width 2
        r.push(trial_multi(1, &[1.0, 1.0, 1.0])); // wrong width → demoted
        let mut scalar = trial(Some(0.5)); // width 1 → demoted too
        scalar.feasible = true;
        r.push(scalar);
        assert_eq!(r.n_objectives(), 2);
        assert!(!r.trials()[1].feasible && !r.trials()[2].feasible);
        // The front never saw the squatters.
        assert_eq!(r.pareto_front().len(), 1);
        assert_eq!(r.pareto_front()[0].objectives(), Some(vec![2.0, 2.0]));
    }

    #[test]
    fn pareto_front_is_incremental_and_first_seen() {
        let mut r = TuningReport::new("t");
        r.push(trial_multi(0, &[4.0, 1.0]));
        r.push(trial_multi(1, &[1.0, 4.0]));
        r.push(trial_multi(2, &[3.0, 3.0])); // incomparable with both
        r.push(trial_multi(3, &[2.0, 2.0])); // dominates (3,3)
        r.push(trial_multi(4, &[2.0, 2.0])); // duplicate: first-seen stays
        r.push(trial_multi(5, &[9.0, 9.0])); // dominated
        let xs: Vec<i64> = r
            .pareto_front()
            .iter()
            .map(|t| t.config.value("x").as_i64())
            .collect();
        assert_eq!(xs, vec![0, 1, 3]);
        assert_eq!(r.n_objectives(), 2);
        // A point dominating everything collapses the front.
        r.push(trial_multi(6, &[0.5, 0.5]));
        let xs: Vec<i64> = r
            .pareto_front()
            .iter()
            .map(|t| t.config.value("x").as_i64())
            .collect();
        assert_eq!(xs, vec![6]);
    }

    #[test]
    fn hypervolume_2d_matches_hand_computation() {
        let mut r = TuningReport::new("t");
        r.push(trial_multi(0, &[1.0, 3.0]));
        r.push(trial_multi(1, &[2.0, 2.0]));
        r.push(trial_multi(2, &[3.0, 1.0]));
        // Ref (4,4): union of boxes = 3*1 + 2*1 + 1*1 + ... sweep:
        // x∈[1,2): depth 4-3=1 → 1; x∈[2,3): 4-2=2 → 2; x∈[3,4): 4-1=3 → 3.
        assert!((r.hypervolume(&[4.0, 4.0]) - 6.0).abs() < 1e-12);
        // Points outside the reference box contribute nothing.
        assert_eq!(r.hypervolume(&[1.0, 1.0]), 0.0);
        // 1-D degenerates to (ref - best).
        let mut s = TuningReport::new("t");
        s.push(trial(Some(2.5)));
        assert!((s.hypervolume(&[10.0]) - 7.5).abs() < 1e-12);
    }

    #[test]
    fn hypervolume_3d_box_union() {
        let mut r = TuningReport::new("t");
        r.push(trial_multi(0, &[1.0, 2.0, 2.0]));
        r.push(trial_multi(1, &[2.0, 1.0, 2.0]));
        // Ref (3,3,3): each box is 2*1*1=2... compute: union of
        // [1,3)x[2,3)x[2,3) (vol 2) and [2,3)x[1,3)x[2,3) (vol 2), overlap
        // [2,3)x[2,3)x[2,3) (vol 1) → 3.
        assert!((r.hypervolume(&[3.0, 3.0, 3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn hypervolume_clamps_points_at_or_beyond_the_reference() {
        // Regression (PR 8): a front point outside the reference box, or
        // exactly on its boundary, must contribute exactly zero volume — the
        // total equals the interior point's contribution alone.
        let mut r = TuningReport::new("t");
        r.push(trial_multi(0, &[1.0, 3.5])); // interior: (4-1)*(4-3.5) = 1.5
        r.push(trial_multi(1, &[0.5, 6.0])); // outside in obj 2
        r.push(trial_multi(2, &[4.0, 0.5])); // exactly on the boundary in obj 1
        assert_eq!(r.pareto_front().len(), 3, "all three are mutually non-dominated");
        assert!((r.hypervolume(&[4.0, 4.0]) - 1.5).abs() < 1e-12);

        // A front made *only* of boundary/outside points has zero volume …
        let mut b = TuningReport::new("t");
        b.push(trial_multi(0, &[4.0, 1.0]));
        b.push(trial_multi(1, &[1.0, 9.0]));
        assert_eq!(b.hypervolume(&[4.0, 4.0]), 0.0);
        // … and never a negative one, in any dimension count.
        let mut c = TuningReport::new("t");
        c.push(trial_multi(0, &[5.0, 5.0, 5.0]));
        assert_eq!(c.hypervolume(&[3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn reference_point_roundtrip() {
        let mut r = TuningReport::new("t");
        assert!(r.hypervolume_vs_ref().is_none());
        r.set_reference_point(Some(vec![4.0, 4.0]));
        r.push(trial_multi(0, &[2.0, 2.0]));
        assert_eq!(r.reference_point(), Some([4.0, 4.0].as_slice()));
        assert!((r.hypervolume_vs_ref().unwrap() - 4.0).abs() < 1e-12);
    }
}
