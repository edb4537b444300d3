//! Sweep execution: run a tuner against a benchmark, capture the full
//! best-so-far trajectory plus reference values.

use baco::baselines::{AtfTuner, CotSampler, Tuner, UniformSampler, YtoptTuner};
use baco::benchmark::Benchmark;
use baco::tuner::{Baco, BlackBox, Evaluation};
use baco::{Configuration, Result};
use std::collections::HashMap;
use std::sync::Mutex;

/// The five tuners of the paper's main comparison (Sec. 5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TunerKind {
    /// BaCO (ours).
    Baco,
    /// ATF with OpenTuner.
    Atf,
    /// Ytopt (random-forest surrogate).
    Ytopt,
    /// Uniform feasible sampling.
    Uniform,
    /// Biased top-down CoT sampling.
    Cot,
}

impl TunerKind {
    /// All five, in the paper's legend order.
    pub fn all() -> [TunerKind; 5] {
        [
            TunerKind::Baco,
            TunerKind::Atf,
            TunerKind::Ytopt,
            TunerKind::Uniform,
            TunerKind::Cot,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            TunerKind::Baco => "BaCO",
            TunerKind::Atf => "ATF",
            TunerKind::Ytopt => "Ytopt",
            TunerKind::Uniform => "Uniform",
            TunerKind::Cot => "CoT",
        }
    }

    /// Instantiates the tuner for a benchmark.
    ///
    /// # Errors
    /// Propagates Chain-of-Trees construction failures.
    pub fn build(self, bench: &Benchmark, budget: usize, seed: u64) -> Result<Box<dyn Tuner>> {
        Ok(match self {
            TunerKind::Baco => Box::new(
                Baco::builder(bench.space.clone())
                    .budget(budget)
                    .doe_samples(10.min(budget / 2).max(1))
                    .seed(seed)
                    .build()?,
            ),
            TunerKind::Atf => Box::new(AtfTuner::with_budget(&bench.space, budget, seed)?),
            TunerKind::Ytopt => Box::new(YtoptTuner::with_budget(&bench.space, budget, seed)?),
            TunerKind::Uniform => Box::new(UniformSampler::new(&bench.space, budget, seed)?),
            TunerKind::Cot => Box::new(CotSampler::new(&bench.space, budget, seed)?),
        })
    }

    /// Parses a display name.
    pub fn from_name(s: &str) -> Option<TunerKind> {
        Self::all()
            .into_iter()
            .find(|t| t.name().eq_ignore_ascii_case(s))
    }
}

/// The outcome of one tuning run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Benchmark display name.
    pub benchmark: String,
    /// Framework group label.
    pub group: String,
    /// Tuner display name.
    pub tuner: String,
    /// Seed of this repetition.
    pub seed: u64,
    /// Best-so-far objective after each evaluation.
    pub trajectory: Vec<Option<f64>>,
    /// Expert reference value (median of three evaluations), if any.
    pub expert: Option<f64>,
    /// Default-configuration reference value.
    pub default: Option<f64>,
    /// Total black-box seconds.
    pub eval_secs: f64,
    /// Total tuner-overhead seconds.
    pub tuner_secs: f64,
}

impl RunResult {
    /// Best value within the first `n` evaluations.
    pub fn best_within(&self, n: usize) -> Option<f64> {
        self.trajectory.iter().take(n).flatten().copied().last()
    }

    /// Final best value.
    pub fn final_best(&self) -> Option<f64> {
        self.trajectory.iter().flatten().copied().last()
    }

    /// 1-based evaluation index at which `target` is reached (≤), if ever.
    pub fn evals_to_reach(&self, target: f64) -> Option<usize> {
        self.trajectory
            .iter()
            .position(|v| v.is_some_and(|x| x <= target))
            .map(|i| i + 1)
    }
}

/// Median-of-three evaluation of a reference configuration.
pub fn reference_value(bench: &Benchmark, cfg: &baco::Configuration) -> Option<f64> {
    let mut vals: Vec<f64> = (0..3)
        .filter_map(|_| bench.blackbox.evaluate(cfg).value())
        .collect();
    if vals.is_empty() {
        return None;
    }
    vals.sort_by(f64::total_cmp);
    Some(vals[vals.len() / 2])
}

/// Runs one (benchmark, tuner, seed) cell and packages the result.
///
/// # Errors
/// Propagates tuner construction/model failures.
pub fn run_one(bench: &Benchmark, kind: TunerKind, seed: u64) -> Result<RunResult> {
    let mut tuner = kind.build(bench, bench.budget, seed)?;
    let report = tuner.run(&bench.blackbox)?;
    let expert = bench
        .expert_config
        .as_ref()
        .and_then(|c| reference_value(bench, c));
    let default = reference_value(bench, &bench.default_config);
    Ok(RunResult {
        benchmark: bench.name.clone(),
        group: bench.group.to_string(),
        tuner: kind.name().to_string(),
        seed,
        trajectory: report.trajectory(),
        expert,
        default,
        eval_secs: report.total_eval_time().as_secs_f64(),
        tuner_secs: report.total_tuner_time().as_secs_f64(),
    })
}

/// A black box that evaluates each configuration once and replays the
/// result afterwards, so arms compared on a timing-based black box see
/// identical values for identical configurations — any divergence between
/// them is then the tuner's doing.
pub struct MemoBlackBox<B> {
    inner: B,
    cache: Mutex<HashMap<String, Evaluation>>,
}

impl<B: BlackBox> MemoBlackBox<B> {
    /// Memoizes `inner`.
    pub fn new(inner: B) -> Self {
        MemoBlackBox {
            inner,
            cache: Mutex::new(HashMap::new()),
        }
    }
}

impl<B: BlackBox> BlackBox for MemoBlackBox<B> {
    fn evaluate(&self, cfg: &Configuration) -> Evaluation {
        let key = cfg.to_string();
        if let Some(hit) = self.cache.lock().unwrap().get(&key) {
            return hit.clone();
        }
        let eval = self.inner.evaluate(cfg);
        self.cache.lock().unwrap().insert(key, eval.clone());
        eval
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_sim::benchmarks::TacoScale;

    #[test]
    fn run_one_produces_complete_result() {
        let mut bench = taco_sim::benchmarks::spmm_benchmark("scircuit", TacoScale::Test);
        bench.budget = 12;
        let r = run_one(&bench, TunerKind::Uniform, 1).unwrap();
        assert_eq!(r.trajectory.len(), 12);
        assert!(r.final_best().unwrap() > 0.0);
        assert!(r.expert.unwrap() > 0.0);
        assert!(r.default.unwrap() > 0.0);
        assert!(r.eval_secs > 0.0);
    }

    #[test]
    fn tuner_kind_round_trips() {
        for k in TunerKind::all() {
            assert_eq!(TunerKind::from_name(k.name()), Some(k));
        }
        assert_eq!(TunerKind::from_name("nope"), None);
    }
}
