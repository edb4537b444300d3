//! # baco-bench — the experiment harness
//!
//! Regenerates every table and figure of the BaCO paper's evaluation
//! (Sec. 5). Each `src/bin/*` binary corresponds to one artifact:
//!
//! | binary | artifact |
//! |---|---|
//! | `table1_2`   | Tables 1–2 (capability matrices) |
//! | `table3`     | Table 3 (benchmark/search-space statistics) |
//! | `table4`     | Table 4 (tensor inventory) |
//! | `sweep`      | the shared 5-tuner × 25-benchmark × N-seed sweep, cached as CSV |
//! | `fig5`       | Fig. 5 (average performance vs expert at 3 budgets) |
//! | `fig6`       | Fig. 6 (best-runtime evolution, one kernel per framework) |
//! | `fig7_11`    | Figs. 7 & 11 (evolution curves, all benchmarks) |
//! | `fig8`       | Fig. 8 (BO implementation comparison) |
//! | `fig9`       | Fig. 9 (permutation/transform/prior ablation) |
//! | `fig10`      | Fig. 10 (hidden-constraint ablation) |
//! | `table5`     | Table 5 (#runs reaching expert) |
//! | `table6_7_8` | Tables 6–8 (relative performance at tiny/small/full) |
//! | `table9`     | Table 9 (evaluations-to-match-baselines factors) |
//! | `table10`    | Table 10 (wall-clock split) |
//! | `cot_timing` | Sec. 5.3's CoT speed statistics |
//! | `calibrate`  | regenerates the hard-coded expert configurations |
//! | `gp_hotpath` | GP hot-path microbenchmark → `BENCH_gp_hotpath.json` |
//! | `batch_scaling` | batched-engine scaling (q ∈ {1,2,4,8}) → `BENCH_batch_scaling.json` |
//! | `pareto_scaling` | multi-objective hypervolume vs random search → `BENCH_pareto.json` |
//! | `gp_scaling` | budget-bounded surrogate scaling (n ∈ {1k, 5k, 20k} histories + 25-bench quality sweep) → `BENCH_gp_scaling.json` |
//! | `spec_pipeline` | speculative pipeline vs round-barrier wall-clock on mixed-latency SpMM → `BENCH_spec_pipeline.json` |
//! | `baco-cli`   | journaled tuning driver: `tune --journal run.jsonl [--resume]`, `best`, `list`; also the golden-fixture generator and, via `serve`/`client`, the end-to-end face of the multi-tenant tuning server |
//!
//! Shared flags: `--reps N` (default 5; the paper uses 30), `--scale
//! test|small|large` (TACO tensor scale), `--seed S`, `--out PATH`.
//! See `crates/bench/README.md` for the artifact-by-artifact map with
//! expected runtimes.

pub mod ablation;
pub mod agg;
pub mod capabilities;
pub mod cli;
pub mod emit;
pub mod runner;
pub mod stats;
pub mod store;

use baco::benchmark::Benchmark;
use taco_sim::benchmarks::TacoScale;

/// All 25 benchmark instances in Table 3 order (15 TACO + 7 RISE + 3 HPVM).
pub fn all_benchmarks(scale: TacoScale) -> Vec<Benchmark> {
    let mut v = taco_sim::benchmarks::taco_benchmarks(scale);
    v.extend(gpu_sim::benchmarks::rise_benchmarks());
    v.extend(fpga_sim::benchmarks::hpvm_benchmarks());
    v
}

/// The multi-objective (Pareto) benchmark variants: the Table-3 spaces with
/// further minimized metrics (fpga-sim latency/area, gpu-sim
/// runtime/energy — plus a runtime/energy/occupancy 3-objective variant —
/// taco-sim runtime/traffic). Kept out of [`all_benchmarks`] so the
/// 25-instance paper sweep stays exactly the paper's.
pub fn pareto_benchmarks(scale: TacoScale) -> Vec<Benchmark> {
    let mut v = fpga_sim::benchmarks::hpvm_pareto_benchmarks();
    v.push(gpu_sim::benchmarks::mm_gpu_pareto());
    v.push(gpu_sim::benchmarks::mm_gpu_pareto3());
    v.push(taco_sim::benchmarks::spmm_pareto_benchmark(
        "scircuit", scale,
    ));
    v
}

/// [`all_benchmarks`] plus the multi-objective variants — what name-based
/// lookup (the CLI) searches.
pub fn all_benchmarks_with_pareto(scale: TacoScale) -> Vec<Benchmark> {
    let mut v = all_benchmarks(scale);
    v.extend(pareto_benchmarks(scale));
    v
}

/// Looks up one benchmark by display name (including the Pareto variants).
///
/// # Panics
/// Panics if the name is unknown.
pub fn benchmark_by_name(name: &str, scale: TacoScale) -> Benchmark {
    all_benchmarks_with_pareto(scale)
        .into_iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("unknown benchmark `{name}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_five_benchmarks() {
        let all = all_benchmarks(TacoScale::Test);
        assert_eq!(all.len(), 25);
        let names: std::collections::HashSet<_> = all.iter().map(|b| b.name.clone()).collect();
        assert_eq!(names.len(), 25, "duplicate benchmark names");
    }

    #[test]
    fn lookup_works() {
        let b = benchmark_by_name("MM_GPU", TacoScale::Test);
        assert_eq!(b.space.len(), 10);
    }

    #[test]
    fn pareto_lookup_spans_two_and_three_objectives() {
        let widths: Vec<usize> = pareto_benchmarks(TacoScale::Test)
            .iter()
            .map(|b| b.n_objectives())
            .collect();
        assert!(widths.contains(&2) && widths.contains(&3), "{widths:?}");
        let b3 = benchmark_by_name("MM_GPU-pareto3", TacoScale::Test);
        assert_eq!(b3.n_objectives(), 3);
        assert_eq!(b3.reference_point.as_ref().map(Vec::len), Some(3));
    }
}
