//! Budget-bounded surrogate scaling benchmark: per-round tuner cost on
//! long histories, and tuning quality under the default budget.
//!
//! Three arms, all over the gp_hotpath mixed search space or the paper's
//! 25-benchmark suite:
//!
//! * **rounds** — one full budgeted one-pick `recommend_batch` round
//!   (active-set selection + surrogate fit + acquisition search; the seen
//!   set is borrowed, never copied) on synthetic histories of
//!   n ∈ {1000, 5000, 20000} observations at a fixed surrogate budget. The
//!   criterion is that the round at the largest n costs at most 2× the round
//!   at the smallest n: per-round work is bounded by the budget, not by the
//!   O(n³) exact-GP history size.
//! * **exact** — an exact (unbudgeted) fresh GP fit at n = 400, the
//!   largest size `gp_hotpath` measures (~22 s), versus the *entire*
//!   budgeted round at the same n. Criterion: ≥10× faster. The exact fit is
//!   never attempted at n ≥ 1000 — that is the wall this mode removes.
//! * **sweep** — the full 25-benchmark suite at a small evaluation budget,
//!   tuned with and without the default surrogate budget
//!   (`DEFAULT_SURROGATE_BUDGET` = 128). At small n the budget must be inert
//!   (bitwise-identical trajectories), so the mean best-value regression is
//!   required to be ≤1%.
//!
//! Writes a machine-readable summary to `BENCH_gp_scaling.json` (override
//! with `--out PATH`). `--sizes A,B,...`, `--budget N`, `--reps N`,
//! `--exact-n N` (0 skips the exact arm) and `--skip-sweep` shrink the
//! experiment for CI smoke runs.
//!
//! Run with: `cargo run --release -p baco-bench --bin gp_scaling`

use baco::prelude::*;
use baco::surrogate::{GaussianProcess, GpOptions};
use baco::tuner::{Trial, DEFAULT_SURROGATE_BUDGET};
use baco_bench::emit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

fn space() -> SearchSpace {
    SearchSpace::builder()
        .ordinal_log("tile", vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
        .integer("unroll", 1, 8)
        .integer("chunk", 1, 64)
        .categorical("par", vec!["seq", "static", "dynamic"])
        .permutation("ord", 4)
        .build()
        .unwrap()
}

fn objective(c: &Configuration) -> f64 {
    let t = c.value("tile").as_f64().log2();
    let u = c.value("unroll").as_f64();
    let ch = c.value("chunk").as_f64();
    let p = c.value("ord").as_permutation()[0] as f64;
    1.0 + (t - 3.0).powi(2) + 0.3 * (u - 5.0).abs() + 0.01 * ch + 0.2 * p
}

/// A synthetic history of `n` evaluated trials (multiplicative measurement
/// noise, everything feasible) plus its seen-set, as a long-lived session
/// would have accumulated.
fn synthetic_history(sp: &SearchSpace, n: usize) -> (TuningReport, HashSet<Configuration>) {
    let mut rng = StdRng::seed_from_u64(42 + n as u64);
    let mut report = TuningReport::new("synthetic");
    let mut seen = HashSet::new();
    for _ in 0..n {
        let cfg = sp.sample_dense(&mut rng);
        let value = objective(&cfg) * (1.0 + rng.gen_range(-0.03..0.03));
        seen.insert(cfg.clone());
        report.push(Trial {
            config: cfg,
            value: Some(value),
            extra: Vec::new(),
            feasible: true,
            eval_time: Default::default(),
            tuner_time: Default::default(),
        });
    }
    (report, seen)
}

/// Median seconds of `reps` timed runs of `f`.
fn median_secs<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// One full budgeted round — active-set selection, surrogate fit and the
/// acquisition search — on an n-point history, median over `reps`.
fn budgeted_round_secs(
    sp: &SearchSpace,
    n: usize,
    surrogate_budget: usize,
    reps: usize,
) -> f64 {
    let (report, seen) = synthetic_history(sp, n);
    let tuner = Baco::builder(sp.clone())
        .budget(n + 1)
        .doe_samples(4)
        .seed(11)
        .surrogate_budget(surrogate_budget)
        .build()
        .expect("valid tuner");
    median_secs(reps, || {
        // Fresh cache and RNG per rep: each measurement is one cold
        // steady-state round, bit-identical across reps.
        let mut rng = StdRng::seed_from_u64(7);
        let mut cache = tuner.new_cache();
        let picked = tuner
            .recommend_batch(&mut rng, &report, &seen, &mut cache, 1)
            .expect("budgeted round");
        black_box(picked);
    })
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

struct SweepOutcome {
    runs: usize,
    bitwise_identical: bool,
    mean_regression_pct: f64,
}

/// Per-trial fingerprint: configuration, exact objective bits, feasibility.
fn signature(r: &TuningReport) -> Vec<(String, Option<u64>, bool)> {
    r.trials()
        .iter()
        .map(|t| (t.config.to_string(), t.value.map(f64::to_bits), t.feasible))
        .collect()
}

/// Runs the 25-benchmark paper suite with and without the default surrogate
/// budget at a small evaluation budget. The black box is memoized per
/// (benchmark, seed) so both arms see identical values for identical
/// configurations — any trajectory divergence is then the tuner's doing.
fn quality_sweep(budget: usize, seeds: u64) -> SweepOutcome {
    let benches = baco_bench::all_benchmarks(taco_sim::benchmarks::TacoScale::Test);
    let mut runs = 0usize;
    let mut bitwise_identical = true;
    let mut regressions: Vec<f64> = Vec::new();
    for bench in &benches {
        for seed in 0..seeds {
            let memo: Mutex<HashMap<String, Evaluation>> = Mutex::new(HashMap::new());
            let bb = FnBlackBox::new(|cfg: &Configuration| {
                let key = cfg.to_string();
                if let Some(hit) = memo.lock().unwrap().get(&key) {
                    return hit.clone();
                }
                let eval = bench.blackbox.evaluate(cfg);
                memo.lock().unwrap().insert(key, eval.clone());
                eval
            });
            let run = |surrogate_budget: Option<usize>| {
                let mut b = Baco::builder(bench.space.clone())
                    .budget(budget)
                    .doe_samples(8)
                    .seed(seed);
                if let Some(s) = surrogate_budget {
                    b = b.surrogate_budget(s);
                }
                b.build().expect("valid tuner").run(&bb).expect("tuning run")
            };
            let exact = run(None);
            let budgeted = run(Some(DEFAULT_SURROGATE_BUDGET));
            runs += 1;
            bitwise_identical &= signature(&exact) == signature(&budgeted);
            let pct = match (exact.best_value(), budgeted.best_value()) {
                (Some(e), Some(b)) if e > 0.0 => (b - e) / e * 100.0,
                (None, None) => 0.0,
                // A feasibility flip between arms is a full regression.
                _ => 100.0,
            };
            regressions.push(pct);
        }
        println!("  sweep {:<18} done ({} seeds)", bench.name, seeds);
    }
    SweepOutcome {
        runs,
        bitwise_identical,
        mean_regression_pct: regressions.iter().sum::<f64>() / regressions.len().max(1) as f64,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_path = flag(&args, "--out").unwrap_or_else(|| "BENCH_gp_scaling.json".to_string());
    let sizes: Vec<usize> = flag(&args, "--sizes")
        .unwrap_or_else(|| "1000,5000,20000".to_string())
        .split(',')
        .map(|s| s.trim().parse().expect("--sizes N,N,..."))
        .collect();
    let budget: usize = flag(&args, "--budget").map_or(64, |v| v.parse().expect("--budget N"));
    let reps: usize = flag(&args, "--reps").map_or(3, |v| v.parse().expect("--reps N"));
    let exact_n: usize = flag(&args, "--exact-n").map_or(400, |v| v.parse().expect("--exact-n N"));
    let sweep_budget: usize =
        flag(&args, "--sweep-budget").map_or(40, |v| v.parse().expect("--sweep-budget N"));
    let sweep_seeds: u64 =
        flag(&args, "--sweep-seeds").map_or(2, |v| v.parse().expect("--sweep-seeds N"));
    let skip_sweep = args.iter().any(|a| a == "--skip-sweep");
    assert!(!sizes.is_empty(), "--sizes needs at least one size");
    assert!(
        exact_n < 1000,
        "--exact-n {exact_n}: the exact fresh fit is O(n³) and must not be attempted at n >= 1000"
    );

    let sp = space();
    println!(
        "surrogate scaling benchmark: sizes {sizes:?} | surrogate budget {budget} | {reps} rep(s)\n"
    );

    // ── bounded per-round cost on long histories ────────────────────────────
    let mut rounds: Vec<(usize, f64)> = Vec::new();
    for &n in &sizes {
        let secs = budgeted_round_secs(&sp, n, budget, reps);
        println!("round    n={n:>6}  budget {budget:>4}  {:>9.1} ms", secs * 1e3);
        rounds.push((n, secs));
    }
    let (n_min, t_min) = *rounds.iter().min_by_key(|(n, _)| *n).unwrap();
    let (n_max, t_max) = *rounds.iter().max_by_key(|(n, _)| *n).unwrap();
    let round_ratio = t_max / t_min;
    println!("round ratio n={n_max} vs n={n_min}: {round_ratio:.2}x\n");

    // ── budgeted round vs the exact fresh fit at the same n ─────────────────
    let exact = (exact_n > 0).then(|| {
        let mut rng = StdRng::seed_from_u64(42 + exact_n as u64);
        let configs: Vec<_> = (0..exact_n).map(|_| sp.sample_dense(&mut rng)).collect();
        let y: Vec<f64> = configs
            .iter()
            .map(|c| objective(c) * (1.0 + rng.gen_range(-0.03..0.03)))
            .collect();
        // One rep: the exact fit is the ~22 s baseline being escaped, and its
        // ratio to the budgeted round is far from the 10× threshold.
        let exact_fit = median_secs(1, || {
            let mut rng = StdRng::seed_from_u64(7);
            black_box(GaussianProcess::fit(&sp, &configs, &y, &GpOptions::default(), &mut rng).unwrap());
        });
        let budgeted_round = budgeted_round_secs(&sp, exact_n, budget, reps);
        let speedup = exact_fit / budgeted_round;
        println!(
            "exact    n={exact_n:>6}  fresh fit {:>9.1} ms   budgeted round {:>8.1} ms   speedup {:>6.1}x\n",
            exact_fit * 1e3,
            budgeted_round * 1e3,
            speedup
        );
        (exact_fit, budgeted_round, speedup)
    });

    // ── quality sweep: the default budget must be inert at small n ──────────
    let sweep = (!skip_sweep).then(|| {
        println!("quality sweep: 25 benchmarks | eval budget {sweep_budget} | {sweep_seeds} seed(s)");
        let o = quality_sweep(sweep_budget, sweep_seeds);
        println!(
            "sweep: {} runs | bitwise identical: {} | mean best regression {:+.3}%\n",
            o.runs, o.bitwise_identical, o.mean_regression_pct
        );
        o
    });

    // ── artifact ────────────────────────────────────────────────────────────
    let mut checks = vec![emit::Check::le(
        format!("round_ratio_n{n_max}_vs_n{n_min}"),
        round_ratio,
        2.0,
    )];
    if let Some((_, _, speedup)) = exact {
        checks.push(emit::Check::ge(
            format!("budgeted_round_speedup_vs_exact_fit_n{exact_n}"),
            speedup,
            10.0,
        ));
    }
    if let Some(o) = &sweep {
        checks.push(emit::Check::le(
            "sweep_mean_best_regression_pct",
            o.mean_regression_pct,
            1.0,
        ));
    }

    let mut json = String::from("{\n");
    json.push_str("  \"benchmark\": \"gp_scaling\",\n");
    json.push_str(&format!("  \"surrogate_budget\": {budget},\n  \"reps\": {reps},\n"));
    json.push_str("  \"rounds\": [\n");
    for (i, (n, secs)) in rounds.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"n\": {n}, \"round_ms\": {:.3}}}{}\n",
            secs * 1e3,
            if i + 1 < rounds.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    if let Some((exact_fit, budgeted_round, speedup)) = exact {
        json.push_str(&format!(
            "  \"exact\": {{\"n\": {exact_n}, \"exact_fit_ms\": {:.3}, \"budgeted_round_ms\": {:.3}, \"speedup\": {:.1}}},\n",
            exact_fit * 1e3,
            budgeted_round * 1e3,
            speedup
        ));
    }
    if let Some(o) = &sweep {
        json.push_str(&format!(
            "  \"sweep\": {{\"eval_budget\": {sweep_budget}, \"seeds\": {sweep_seeds}, \"runs\": {}, \"default_surrogate_budget\": {DEFAULT_SURROGATE_BUDGET}, \"bitwise_identical\": {}, \"mean_best_regression_pct\": {:.3}}},\n",
            o.runs, o.bitwise_identical, o.mean_regression_pct
        ));
    }
    json.push_str(&emit::criteria_block(&checks));
    json.push_str("}\n");
    std::fs::write(&out_path, &json).unwrap();
    println!("wrote {out_path}");
    emit::print_criteria(&checks);
    assert!(emit::all_pass(&checks), "gp_scaling acceptance criteria failed");
}
