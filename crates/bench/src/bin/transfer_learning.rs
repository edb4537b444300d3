//! Transfer-learning benchmark: how much budget a corpus-seeded run needs
//! to reach the incumbent a cold run only finds with its *full* budget.
//!
//! For every seed, a donor corpus is generated in-bench from sibling seeds
//! of the same workload (journaled complete runs in one directory — exactly
//! the fleet layout a tuning server's `journal_dir` accumulates). Then two
//! arms run at the same budget:
//!
//! * **cold** — the classic loop, no corpus;
//! * **transfer** — the same tuner with `transfer` enabled: warm-started
//!   DoE ordering from the donors' best configurations plus an RF prior
//!   mean fitted on the pooled donor trials (see `baco::tuner::transfer`).
//!
//! The headline metric is the *budget-to-reach-cold-incumbent ratio*: the
//! evaluations the transfer arm needs to match the cold arm's final best,
//! divided by the evaluations the cold arm itself needed to first reach it.
//! A ratio of 0.25 means fleet experience bought the same result in a
//! quarter of the budget. The committed gate asserts the median over all
//! seeds stays ≤ 0.6.
//!
//! Guards run before anything is scored: the transfer trajectory must be
//! deterministic (same seed + same frozen corpus ⇒ identical trajectory),
//! and every transfer run must actually have found its donors.
//!
//! Writes a machine-readable summary to `BENCH_transfer.json` (override
//! with `--out PATH`; `--budget N`, `--seeds N` and `--donors N` resize the
//! experiment).
//!
//! Run with: `cargo run --release -p baco-bench --bin transfer_learning`

use baco::tuner::{BlackBox, TuningReport};
use baco::{Baco, SearchSpace};
use baco_bench::cli::flag;
use baco_bench::emit;
use baco_bench::runner::MemoBlackBox;
use std::path::{Path, PathBuf};

/// Memoizes the (noisy, timing-based) black box so donors, the cold arm and
/// the transfer arm all see identical values for identical configurations —
/// the precondition for comparing fixed-seed trajectories and for the
/// determinism guard on a real workload.
const DOE: usize = 10;

fn build(space: &SearchSpace, seed: u64, budget: usize, corpus: Option<&Path>) -> Baco {
    let mut b = Baco::builder(space.clone())
        .budget(budget)
        .doe_samples(DOE)
        .seed(seed);
    if let Some(dir) = corpus {
        b = b.transfer(dir);
    }
    b.build().expect("valid tuner")
}

/// Evaluation index (1-based) at which the run's best-so-far first drops to
/// `target` or better; `None` when the run never gets there.
fn evals_to_reach(report: &TuningReport, target: f64) -> Option<usize> {
    let mut best = f64::INFINITY;
    for (i, t) in report.trials().iter().enumerate() {
        if let Some(v) = t.value.filter(|_| t.feasible) {
            best = best.min(v);
        }
        if best <= target {
            return Some(i + 1);
        }
    }
    None
}

fn configs(r: &TuningReport) -> Vec<String> {
    r.trials().iter().map(|t| t.config.to_string()).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_path = flag(&args, "--out").unwrap_or_else(|| "BENCH_transfer.json".to_string());
    let budget: usize = flag(&args, "--budget").map_or(40, |v| v.parse().expect("--budget N"));
    let seeds: u64 = flag(&args, "--seeds").map_or(5, |v| v.parse().expect("--seeds N"));
    let donors: u64 = flag(&args, "--donors").map_or(3, |v| v.parse().expect("--donors N"));

    let bench =
        baco_bench::benchmark_by_name("SpMM scircuit", taco_sim::benchmarks::TacoScale::Test);
    let space = bench.space.clone();
    let workload = bench.name.clone();
    let memo = MemoBlackBox::new(bench.blackbox);
    let bb: &dyn BlackBox = &memo;
    println!(
        "transfer-learning benchmark: {workload} | budget {budget} | {seeds} seed(s) | \
         {donors} donor(s) per corpus\n"
    );

    let scratch = std::env::temp_dir().join(format!("baco-bench-transfer-{}", std::process::id()));

    let mut ratios: Vec<f64> = Vec::new();
    let mut rows = String::new();
    let mut deterministic = true;
    let mut donors_found = true;
    for seed in 0..seeds {
        // The donor corpus: sibling seeds of the same workload, journaled
        // complete runs in one directory — what a fleet's journal_dir holds.
        let corpus: PathBuf = scratch.join(format!("corpus-{seed}"));
        std::fs::create_dir_all(&corpus).expect("corpus dir");
        for d in 0..donors {
            Baco::builder(space.clone())
                .budget(budget)
                .doe_samples(DOE)
                .seed(1000 + seed * 100 + d)
                .journal_path(corpus.join(format!("donor-{d}.jsonl")))
                .build()
                .expect("valid donor tuner")
                .run(bb)
                .expect("donor run");
        }

        let cold = build(&space, seed, budget, None).run(bb).expect("cold run");
        let cold_best = cold.best_value().expect("SpMM has no hidden constraints");
        let cold_evals = evals_to_reach(&cold, cold_best).expect("cold reaches its own best");

        let warm_tuner = build(&space, seed, budget, Some(&corpus));
        let warm = warm_tuner.run(bb).expect("transfer run");
        donors_found &= warm_tuner
            .transfer_donors()
            .is_some_and(|(n, _)| n as u64 == donors);
        // Frozen corpus + same seed must reproduce the trajectory exactly:
        // the transfer digest is the whole point of the determinism envelope.
        deterministic &=
            configs(&warm) == configs(&build(&space, seed, budget, Some(&corpus)).run(bb).unwrap());

        // Penalize a transfer run that never matches the cold incumbent with
        // twice the budget, so the median stays defined and honest.
        let warm_evals = evals_to_reach(&warm, cold_best).unwrap_or(budget * 2);
        let ratio = warm_evals as f64 / cold_evals as f64;
        ratios.push(ratio);
        println!(
            "seed {seed}: cold best {cold_best:.4} in {cold_evals:>3} evals | \
             transfer matched in {warm_evals:>3} | ratio {ratio:.3}"
        );
        rows.push_str(&format!(
            "    {{\"seed\": {seed}, \"cold_best\": {cold_best:.6}, \
             \"cold_evals_to_best\": {cold_evals}, \"transfer_evals_to_match\": {warm_evals}, \
             \"ratio\": {ratio:.4}}}{}\n",
            if seed + 1 < seeds { "," } else { "" }
        ));
    }
    std::fs::remove_dir_all(&scratch).ok();

    let mut sorted = ratios.clone();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    println!("\nmedian budget-to-reach-cold-incumbent ratio: {median:.3} (mean {mean:.3})");

    let mut json = String::from("{\n");
    json.push_str("  \"benchmark\": \"transfer_learning\",\n");
    json.push_str(&format!("  \"workload\": \"{workload}\",\n"));
    json.push_str(&format!(
        "  \"budget\": {budget},\n  \"seeds\": {seeds},\n  \"donors_per_corpus\": {donors},\n"
    ));
    json.push_str(&format!(
        "  \"median_ratio\": {median:.4},\n  \"mean_ratio\": {mean:.4},\n"
    ));
    json.push_str(&format!("  \"deterministic\": {deterministic},\n"));
    json.push_str(&format!("  \"donors_found\": {donors_found},\n"));
    json.push_str("  \"per_seed\": [\n");
    json.push_str(&rows);
    json.push_str("  ],\n");
    let checks = [
        // The headline gate: fleet experience must buy the cold incumbent
        // for at most 60% of the budget the cold run spent, median-of-seeds.
        emit::Check::le("median_budget_ratio", median, 0.6),
        emit::Check::ge(
            "deterministic_with_frozen_corpus",
            deterministic as u8 as f64,
            1.0,
        ),
        emit::Check::ge("all_donors_discovered", donors_found as u8 as f64, 1.0),
    ];
    json.push_str(&emit::criteria_block(&checks));
    json.push_str("}\n");
    std::fs::write(&out_path, &json).unwrap();
    println!("\nwrote {out_path}");
    emit::print_criteria(&checks);
}
