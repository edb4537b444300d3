//! Batched-evaluation engine scaling benchmark: wall-clock speedup of the
//! asynchronous q-point engine (`Baco::run_batched`) versus the sequential
//! loop, at batch sizes q ∈ {1, 2, 4, 8} and **equal evaluation budget**, on
//! the taco-sim SpMM (scircuit) workload.
//!
//! The q=1 arm *is* the sequential loop (the engine degenerates to it bit
//! for bit — asserted here before timing anything); larger q amortizes the
//! per-round surrogate refit across q fantasy-EI proposals and keeps the q
//! evaluations in flight on the worker pool. Best objective values per arm
//! are reported alongside the timings so the speedup can be read at
//! comparable regret.
//!
//! Writes a machine-readable summary to `BENCH_batch_scaling.json`
//! (override with `--out PATH`; `--budget N` and `--seeds N` shrink or grow
//! the experiment).
//!
//! Run with: `cargo run --release -p baco-bench --bin batch_scaling`

use baco::benchmark::Benchmark;
use baco::tuner::TuningReport;
use baco::Baco;
use baco_bench::cli::flag;
use baco_bench::emit;
use baco_bench::runner::MemoBlackBox;
use std::time::Instant;

/// Memoizes the (noisy, timing-based) black box so repeated evaluations of
/// the same configuration return identical values — the precondition for
/// comparing fixed-seed trajectories across two runs of a real workload.
const BATCH_SIZES: [usize; 4] = [1, 2, 4, 8];

struct Arm {
    q: usize,
    wall_s: f64,
    best: f64,
    mean_best: f64,
}

fn build(bench: &Benchmark, q: usize, seed: u64, budget: usize) -> Baco {
    Baco::builder(bench.space.clone())
        .budget(budget)
        .doe_samples(8)
        .batch_size(q)
        .seed(seed)
        .build()
        .expect("valid tuner")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_path = flag(&args, "--out").unwrap_or_else(|| "BENCH_batch_scaling.json".to_string());
    let budget: usize = flag(&args, "--budget").map_or(48, |v| v.parse().expect("--budget N"));
    let seeds: u64 = flag(&args, "--seeds").map_or(2, |v| v.parse().expect("--seeds N"));

    let bench =
        baco_bench::benchmark_by_name("SpMM scircuit", taco_sim::benchmarks::TacoScale::Test);
    let bb = &*bench.blackbox;
    println!(
        "batch-scaling benchmark: {} | budget {budget} | {seeds} seed(s) | q in {BATCH_SIZES:?}\n",
        bench.name
    );

    // Guard before timing: the q=1 engine must reproduce the sequential
    // loop's fixed-seed trajectory exactly, otherwise the comparison below
    // would not be apples-to-apples. The raw black box measures wall time
    // (noisy run to run), so the guard memoizes it — both loops then see
    // identical values for identical configurations, and any divergence is
    // the tuner's fault.
    let identical = {
        let memo = MemoBlackBox::new(bb);
        let tuner = build(&bench, 1, 7, budget.min(20));
        let cfgs = |r: &TuningReport| {
            r.trials()
                .iter()
                .map(|t| t.config.to_string())
                .collect::<Vec<_>>()
        };
        cfgs(&tuner.run(&memo).unwrap()) == cfgs(&tuner.run_batched(&memo).unwrap())
    };
    assert!(
        identical,
        "q=1 batched trajectory diverged from the sequential loop"
    );
    println!("q=1 trajectory identity vs sequential loop: OK\n");

    let mut arms: Vec<Arm> = Vec::new();
    for &q in &BATCH_SIZES {
        let mut wall = 0.0;
        let mut bests: Vec<f64> = Vec::new();
        for seed in 0..seeds {
            let tuner = build(&bench, q, seed, budget);
            let t0 = Instant::now();
            let report = tuner.run_batched(bb).unwrap();
            wall += t0.elapsed().as_secs_f64();
            assert_eq!(report.len(), budget, "every arm spends the same budget");
            bests.push(report.best_value().expect("SpMM has no hidden constraints"));
        }
        let best = bests.iter().copied().fold(f64::INFINITY, f64::min);
        let mean_best = bests.iter().sum::<f64>() / bests.len() as f64;
        let arm = Arm {
            q,
            wall_s: wall / seeds as f64,
            best,
            mean_best,
        };
        println!(
            "q={q:>2}  wall {:>7.2} s/run   best {:>8.4} ms   mean best {:>8.4} ms",
            arm.wall_s, arm.best, arm.mean_best
        );
        arms.push(arm);
    }

    let base = arms[0].wall_s;
    let speedup_q8 = base / arms.iter().find(|a| a.q == 8).unwrap().wall_s;
    let mut json = String::from("{\n");
    json.push_str("  \"benchmark\": \"batch_scaling\",\n");
    json.push_str(&format!(
        "  \"workload\": \"{}\",\n  \"budget\": {budget},\n  \"seeds\": {seeds},\n",
        bench.name
    ));
    json.push_str(&format!(
        "  \"q1_trajectory_identical\": {identical},\n  \"arms\": [\n"
    ));
    for (i, a) in arms.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"q\": {}, \"wall_s\": {:.3}, \"speedup_vs_q1\": {:.2}, \"best_ms\": {:.4}, \"mean_best_ms\": {:.4}}}{}\n",
            a.q,
            a.wall_s,
            base / a.wall_s,
            a.best,
            a.mean_best,
            if i + 1 < arms.len() { "," } else { "" }
        ));
    }
    let checks = [
        emit::Check::ge("speedup_at_q8", speedup_q8, 2.5),
        // Bitwise q=1 identity, encoded numerically so the check shape stays
        // uniform across artifacts (1 = identical).
        emit::Check::ge("q1_trajectory_identical", identical as u8 as f64, 1.0),
    ];
    json.push_str("  ],\n");
    json.push_str(&emit::criteria_block(&checks));
    json.push_str("}\n");
    std::fs::write(&out_path, &json).unwrap();
    println!("\nwrote {out_path}");
    emit::print_criteria(&checks);
}
