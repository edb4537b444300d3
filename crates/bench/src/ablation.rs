//! Shared machinery for the ablation figures (Fig. 8–10): run a set of
//! tuner *variants* against benchmarks and report the geometric mean of the
//! performance relative to expert at fixed evaluation checkpoints.

use crate::runner::reference_value;
use crate::stats;
use baco::baselines::Tuner;
use baco::benchmark::Benchmark;
use baco::tuner::{Baco, BacoOptions};

/// A named tuner variant.
#[allow(clippy::type_complexity)]
pub enum Variant {
    /// BaCO with custom options.
    Baco(&'static str, Box<dyn Fn(u64) -> BacoOptions>),
    /// An arbitrary tuner factory.
    Other(&'static str, Box<dyn Fn(&Benchmark, u64) -> Box<dyn Tuner>>),
}

impl Variant {
    /// The variant's display name.
    pub fn name(&self) -> &'static str {
        match self {
            Variant::Baco(n, _) | Variant::Other(n, _) => n,
        }
    }
}

impl std::fmt::Debug for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Variant({})", self.name())
    }
}

/// Runs every variant × benchmark × rep, returning for each variant the
/// geomean of `expert / best_within(cp)` per checkpoint.
pub fn run_matrix(
    benches: &[Benchmark],
    variants: &[Variant],
    checkpoints: &[usize],
    reps: usize,
    seed0: u64,
) -> Vec<(String, Vec<Option<f64>>)> {
    let experts: Vec<f64> = benches
        .iter()
        .map(|b| {
            b.expert_config
                .as_ref()
                .and_then(|c| reference_value(b, c))
                .expect("ablation benchmarks have experts")
        })
        .collect();
    variants
        .iter()
        .map(|variant| {
            // ratios[checkpoint] collects expert/best over (bench, rep).
            let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); checkpoints.len()];
            for (bench, expert) in benches.iter().zip(&experts) {
                for rep in 0..reps {
                    let seed = seed0 + rep as u64;
                    let report = match variant {
                        Variant::Baco(_, f) => {
                            let mut opts = f(seed);
                            opts.budget = *checkpoints.last().expect("nonempty checkpoints");
                            Baco::builder(bench.space.clone())
                                .options(opts)
                                .build()
                                .expect("tuner builds")
                                .run(&bench.blackbox)
                                .expect("run succeeds")
                        }
                        Variant::Other(_, f) => {
                            let mut t = f(bench, seed);
                            t.run(&bench.blackbox).expect("run succeeds")
                        }
                    };
                    for (ci, cp) in checkpoints.iter().enumerate() {
                        if let Some(best) = report.best_within(*cp) {
                            ratios[ci].push(expert / best);
                        }
                    }
                }
            }
            let row = ratios.iter().map(|r| stats::geomean(r)).collect();
            (variant.name().to_string(), row)
        })
        .collect()
}

/// Prints a checkpoint table.
pub fn print_matrix(title: &str, checkpoints: &[usize], rows: &[(String, Vec<Option<f64>>)]) {
    println!("== {title} ==");
    let headers: Vec<String> = ["variant".to_string()]
        .into_iter()
        .chain(checkpoints.iter().map(|c| format!("@{c}")))
        .collect();
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|(name, vals)| {
            [name.clone()]
                .into_iter()
                .chain(
                    vals.iter()
                        .map(|v| v.map_or("-".into(), |x| format!("{x:.2}x"))),
                )
                .collect()
        })
        .collect();
    println!("{}", stats::render_table(&headers, &table_rows));
}
