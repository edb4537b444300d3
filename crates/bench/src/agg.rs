//! Aggregation over sweep results shared by the table/figure binaries.

use crate::runner::RunResult;
use crate::stats;

/// Indexed view over a set of [`RunResult`]s.
#[derive(Debug)]
pub struct Agg {
    results: Vec<RunResult>,
}

impl Agg {
    /// Wraps a result set.
    pub fn new(results: Vec<RunResult>) -> Self {
        Agg { results }
    }

    /// All results.
    pub fn results(&self) -> &[RunResult] {
        &self.results
    }

    /// Benchmarks in first-seen order as `(name, group)`.
    pub fn benchmarks(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = Vec::new();
        for r in &self.results {
            if !out.iter().any(|(n, _)| *n == r.benchmark) {
                out.push((r.benchmark.clone(), r.group.clone()));
            }
        }
        out
    }

    /// Runs of one (benchmark, tuner) cell.
    pub fn runs(&self, bench: &str, tuner: &str) -> Vec<&RunResult> {
        self.results
            .iter()
            .filter(|r| r.benchmark == bench && r.tuner == tuner)
            .collect()
    }

    /// The benchmark's evaluation budget (longest recorded trajectory).
    pub fn budget(&self, bench: &str) -> usize {
        self.results
            .iter()
            .filter(|r| r.benchmark == bench)
            .map(|r| r.trajectory.len())
            .max()
            .unwrap_or(0)
    }

    /// The expert reference value: the recorded expert when the benchmark
    /// has one, otherwise (HPVM2FPGA) the best final value any tuner ever
    /// achieved — the normalization the paper's Tables 6–8 imply.
    pub fn expert_ref(&self, bench: &str) -> Option<f64> {
        let declared = self
            .results
            .iter()
            .find(|r| r.benchmark == bench && r.expert.is_some())
            .and_then(|r| r.expert);
        declared.or_else(|| {
            self.results
                .iter()
                .filter(|r| r.benchmark == bench)
                .filter_map(RunResult::final_best)
                .min_by(f64::total_cmp)
        })
    }

    /// The default-configuration reference value.
    pub fn default_ref(&self, bench: &str) -> Option<f64> {
        self.results
            .iter()
            .find(|r| r.benchmark == bench && r.default.is_some())
            .and_then(|r| r.default)
    }

    /// Mean over seeds of `expert / best_within(evals)` — the paper's
    /// "performance relative to expert" (> 1 beats the expert).
    pub fn rel_perf(&self, bench: &str, tuner: &str, evals: usize) -> Option<f64> {
        let expert = self.expert_ref(bench)?;
        let ratios: Vec<f64> = self
            .runs(bench, tuner)
            .iter()
            .filter_map(|r| r.best_within(evals).map(|b| expert / b))
            .collect();
        stats::mean(&ratios)
    }

    /// Per-evaluation mean of the best-so-far trajectories over seeds
    /// (positions where no seed has a value yet stay `None`).
    pub fn mean_trajectory(&self, bench: &str, tuner: &str) -> Vec<Option<f64>> {
        let runs = self.runs(bench, tuner);
        let len = runs.iter().map(|r| r.trajectory.len()).max().unwrap_or(0);
        (0..len)
            .map(|i| {
                let vals: Vec<f64> = runs
                    .iter()
                    .filter_map(|r| r.trajectory.get(i).copied().flatten())
                    .collect();
                stats::mean(&vals)
            })
            .collect()
    }

    /// Number of runs whose final best reaches the expert reference.
    pub fn reached_expert(&self, bench: &str, tuner: &str) -> (usize, usize) {
        let Some(expert) = self.expert_ref(bench) else {
            return (0, 0);
        };
        let runs = self.runs(bench, tuner);
        let total = runs.len();
        let hit = runs
            .iter()
            .filter(|r| r.final_best().is_some_and(|b| b <= expert * 1.001))
            .count();
        (hit, total)
    }

    /// First evaluation (1-based) at which the mean trajectory reaches
    /// `target`.
    pub fn mean_evals_to_reach(&self, bench: &str, tuner: &str, target: f64) -> Option<usize> {
        self.mean_trajectory(bench, tuner)
            .iter()
            .position(|v| v.is_some_and(|x| x <= target))
            .map(|i| i + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rr(
        bench: &str,
        tuner: &str,
        seed: u64,
        traj: Vec<Option<f64>>,
        expert: Option<f64>,
    ) -> RunResult {
        RunResult {
            benchmark: bench.into(),
            group: "TACO".into(),
            tuner: tuner.into(),
            seed,
            trajectory: traj,
            expert,
            default: Some(10.0),
            eval_secs: 0.1,
            tuner_secs: 0.2,
        }
    }

    #[test]
    fn aggregation_basics() {
        let a = Agg::new(vec![
            rr("b", "BaCO", 0, vec![Some(4.0), Some(2.0)], Some(2.0)),
            rr("b", "BaCO", 1, vec![Some(8.0), Some(4.0)], Some(2.0)),
            rr("b", "Uniform", 0, vec![Some(8.0), Some(8.0)], Some(2.0)),
        ]);
        assert_eq!(a.benchmarks(), vec![("b".to_string(), "TACO".to_string())]);
        assert_eq!(a.budget("b"), 2);
        assert_eq!(a.expert_ref("b"), Some(2.0));
        // rel perf at full budget: mean(2/2, 2/4) = 0.75.
        assert!((a.rel_perf("b", "BaCO", 2).unwrap() - 0.75).abs() < 1e-12);
        assert_eq!(a.mean_trajectory("b", "BaCO"), vec![Some(6.0), Some(3.0)]);
        assert_eq!(a.reached_expert("b", "BaCO"), (1, 2));
        assert_eq!(a.reached_expert("b", "Uniform"), (0, 1));
        assert_eq!(a.mean_evals_to_reach("b", "BaCO", 3.0), Some(2));
        assert_eq!(a.mean_evals_to_reach("b", "BaCO", 1.0), None);
    }

    #[test]
    fn hpvm_expert_fallback_is_best_ever() {
        let a = Agg::new(vec![
            rr("h", "BaCO", 0, vec![Some(5.0), Some(3.0)], None),
            rr("h", "Uniform", 0, vec![Some(6.0), Some(4.0)], None),
        ]);
        assert_eq!(a.expert_ref("h"), Some(3.0));
    }
}
