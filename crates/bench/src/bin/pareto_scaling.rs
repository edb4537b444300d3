//! Multi-objective (Pareto) tuning benchmark: hypervolume of the front BaCO
//! reaches versus pure random search at **equal evaluation budget**, on the
//! gpu-sim MM_GPU runtime-vs-energy workload (`MM_GPU-pareto`: the paper's
//! hardest space — 10-D, known + hidden constraints, deterministic per
//! configuration, so the comparison is exact and reproducible; random
//! search struggles to even find feasible points there, which is what makes
//! the margin gate meaningful. `--bench PreEuler-pareto` etc. swap in the
//! easier workloads).
//!
//! Each seed runs one BaCO arm **per multi-objective strategy** plus the
//! shared baseline, all over the same budget:
//!
//! * **EHVI** (the default strategy) — exact expected hypervolume
//!   improvement over the incremental front, ParEGO fallback within a
//!   batch round;
//! * **ParEGO** — per-round random-weight augmented-Chebyshev
//!   scalarization, the pre-EHVI default, kept as the comparison arm;
//! * **random** — uniform dense sampling, same number of evaluations.
//!
//! Fronts are scored twice. Against the benchmark's own (deliberately
//! loose) reference point, every arm captures almost the whole box, so that
//! ratio is reported (`*_box_ratio`) but not gated. The **gated** score uses
//! a per-seed *contested* reference inferred from the union of all arms'
//! fronts (`inferred_reference`: per-objective max + 10% of the observed
//! range) — scale-free, and sensitive to exactly the region the arms fight
//! over. The CI smoke criterion: EHVI's mean contested hypervolume must
//! beat random's by at least `--min-ratio` (default **1.15**), and ParEGO
//! must not fall below random (ratio ≥ 1.0). The process exits non-zero
//! when either gate fails.
//!
//! Writes a machine-readable summary to `BENCH_pareto.json` (override with
//! `--out PATH`; `--budget N` and `--seeds N` shrink or grow the experiment,
//! `--bench NAME` swaps the workload, `--strategy ehvi|parego|both` selects
//! the arms, `--min-ratio X` adjusts the EHVI gate for tiny smoke budgets).
//!
//! Run with: `cargo run --release -p baco-bench --bin pareto_scaling`

use baco::acquisition::inferred_reference;
use baco::tuner::Trial;
use baco::{Baco, MultiObjectiveStrategy, TuningReport};
use baco_bench::cli::flag;
use baco_bench::emit;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

struct SeedOutcome {
    seed: u64,
    /// Contested hypervolume per BaCO strategy arm (parallel to the
    /// `strategies` list), then the same vs the loose benchmark box.
    baco_hv: Vec<f64>,
    baco_box_hv: Vec<f64>,
    baco_front: Vec<usize>,
    random_hv: f64,
    random_box_hv: f64,
    random_front: usize,
    wall_s: f64,
}

/// The Pareto front of `report` as raw objective vectors.
fn front_points(report: &TuningReport) -> Vec<Vec<f64>> {
    report
        .pareto_front()
        .iter()
        .filter_map(|t| t.objectives())
        .collect()
}

fn strategy_name(s: MultiObjectiveStrategy) -> &'static str {
    match s {
        MultiObjectiveStrategy::Ehvi => "ehvi",
        MultiObjectiveStrategy::ParEgo => "parego",
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_path = flag(&args, "--out").unwrap_or_else(|| "BENCH_pareto.json".to_string());
    let budget: usize = flag(&args, "--budget").map_or(30, |v| v.parse().expect("--budget N"));
    let seeds: u64 = flag(&args, "--seeds").map_or(3, |v| v.parse().expect("--seeds N"));
    let bench_name = flag(&args, "--bench").unwrap_or_else(|| "MM_GPU-pareto".to_string());
    let min_ratio: f64 =
        flag(&args, "--min-ratio").map_or(1.15, |v| v.parse().expect("--min-ratio X"));
    let strategies: Vec<MultiObjectiveStrategy> = match flag(&args, "--strategy").as_deref() {
        None | Some("both") => {
            vec![MultiObjectiveStrategy::Ehvi, MultiObjectiveStrategy::ParEgo]
        }
        Some("ehvi") => vec![MultiObjectiveStrategy::Ehvi],
        Some("parego") => vec![MultiObjectiveStrategy::ParEgo],
        Some(other) => panic!("--strategy {other}: expected ehvi, parego or both"),
    };

    let bench = baco_bench::benchmark_by_name(&bench_name, taco_sim::benchmarks::TacoScale::Test);
    assert!(
        bench.n_objectives() > 1,
        "{bench_name} is single-objective; pick a *-pareto benchmark"
    );
    let reference = bench
        .reference_point
        .clone()
        .expect("pareto benchmarks declare a reference point");
    println!(
        "pareto-scaling benchmark: {} | objectives {} | budget {budget} | {seeds} seed(s) | strategies {} | reference {reference:?}\n",
        bench.name,
        bench.objective_names.join("+"),
        strategies.iter().map(|&s| strategy_name(s)).collect::<Vec<_>>().join("+"),
    );

    let mut outcomes: Vec<SeedOutcome> = Vec::new();
    for seed in 0..seeds {
        let t0 = Instant::now();
        let mut reports = Vec::new();
        for &strategy in &strategies {
            let tuner = Baco::builder(bench.space.clone())
                .budget(budget)
                .doe_samples((budget / 4).max(4))
                .seed(seed)
                .objectives(bench.n_objectives())
                .mo_strategy(strategy)
                .reference_point(reference.clone())
                .build()
                .expect("valid tuner");
            let report = tuner.run(&*bench.blackbox).expect("tuning run");
            assert_eq!(report.len(), budget, "BaCO must spend the whole budget");
            reports.push(report);
        }

        // Random-search baseline at the identical budget, shared by all arms.
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x5eed_0000));
        let mut random = TuningReport::new("random");
        for _ in 0..budget {
            let cfg = bench.space.sample_dense(&mut rng);
            let eval = bench.blackbox.evaluate(&cfg);
            random.push(Trial {
                config: cfg,
                value: eval.value(),
                extra: eval.extra_objectives(),
                feasible: eval.is_feasible(),
                eval_time: Default::default(),
                tuner_time: Default::default(),
            });
        }

        // The contested reference: inferred from the union of every arm's
        // front, so it brackets exactly the region the arms disagree on.
        // (`inferred_reference` takes objective-major columns.)
        let mut union: Vec<Vec<f64>> = reports.iter().flat_map(front_points).collect();
        union.extend(front_points(&random));
        let m = bench.n_objectives();
        let columns: Vec<Vec<f64>> = (0..m)
            .map(|k| union.iter().map(|p| p[k]).collect())
            .collect();
        let contested = inferred_reference(&columns);

        let o = SeedOutcome {
            seed,
            baco_hv: reports.iter().map(|r| r.hypervolume(&contested)).collect(),
            baco_box_hv: reports.iter().map(|r| r.hypervolume(&reference)).collect(),
            baco_front: reports.iter().map(|r| r.pareto_front().len()).collect(),
            random_hv: random.hypervolume(&contested),
            random_box_hv: random.hypervolume(&reference),
            random_front: random.pareto_front().len(),
            wall_s: t0.elapsed().as_secs_f64(),
        };
        let arms: Vec<String> = strategies
            .iter()
            .zip(&o.baco_hv)
            .zip(&o.baco_front)
            .map(|((&s, hv), front)| {
                format!("{} hv {hv:>10.1} (front {front:>2})", strategy_name(s))
            })
            .collect();
        println!(
            "seed {seed}: {}   random hv {:>10.1} (front {:>2})   {:.2} s",
            arms.join("   "),
            o.random_hv,
            o.random_front,
            o.wall_s
        );
        outcomes.push(o);
    }

    let n = outcomes.len() as f64;
    let random_mean = outcomes.iter().map(|o| o.random_hv).sum::<f64>() / n;
    let random_box_mean = outcomes.iter().map(|o| o.random_box_hv).sum::<f64>() / n;
    let strategy_means: Vec<f64> = (0..strategies.len())
        .map(|k| outcomes.iter().map(|o| o.baco_hv[k]).sum::<f64>() / n)
        .collect();
    let box_means: Vec<f64> = (0..strategies.len())
        .map(|k| outcomes.iter().map(|o| o.baco_box_hv[k]).sum::<f64>() / n)
        .collect();
    let ratios: Vec<f64> = strategy_means
        .iter()
        .map(|m| m / random_mean.max(f64::MIN_POSITIVE))
        .collect();
    let box_ratios: Vec<f64> = box_means
        .iter()
        .map(|m| m / random_box_mean.max(f64::MIN_POSITIVE))
        .collect();

    let mut json = String::from("{\n");
    json.push_str("  \"benchmark\": \"pareto_scaling\",\n");
    json.push_str(&format!(
        "  \"workload\": \"{}\",\n  \"objectives\": [{}],\n  \"budget\": {budget},\n  \"seeds\": {seeds},\n",
        bench.name,
        bench
            .objective_names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(", "),
    ));
    json.push_str(&format!(
        "  \"strategies\": [{}],\n",
        strategies
            .iter()
            .map(|&s| format!("\"{}\"", strategy_name(s)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str(&format!(
        "  \"reference_point\": {reference:?},\n  \"arms\": [\n"
    ));
    for (i, o) in outcomes.iter().enumerate() {
        let per_strategy: Vec<String> = strategies
            .iter()
            .zip(&o.baco_hv)
            .zip(&o.baco_front)
            .map(|((&s, hv), front)| {
                let name = strategy_name(s);
                format!("\"{name}_hv\": {hv:.3}, \"{name}_front\": {front}")
            })
            .collect();
        json.push_str(&format!(
            "    {{\"seed\": {}, {}, \"random_hv\": {:.3}, \"random_front\": {}, \"wall_s\": {:.3}}}{}\n",
            o.seed,
            per_strategy.join(", "),
            o.random_hv,
            o.random_front,
            o.wall_s,
            if i + 1 < outcomes.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    for (k, &s) in strategies.iter().enumerate() {
        json.push_str(&format!(
            "  \"{0}_hv_mean\": {1:.3},\n  \"{0}_hv_ratio\": {2:.4},\n  \"{0}_box_ratio\": {3:.4},\n",
            strategy_name(s),
            strategy_means[k],
            ratios[k],
            box_ratios[k],
        ));
    }
    json.push_str(&format!(
        "  \"random_hv_mean\": {random_mean:.3},\n  \"random_box_hv_mean\": {random_box_mean:.3},\n"
    ));

    // The EHVI gate is the headline criterion (`hv_ratio`, so the CI grep
    // and historical tooling keep matching); ParEGO keeps its original
    // no-worse-than-random floor.
    let checks: Vec<emit::Check> = strategies
        .iter()
        .zip(&ratios)
        .map(|(&s, &r)| match s {
            MultiObjectiveStrategy::Ehvi => emit::Check::ge("hv_ratio", r, min_ratio),
            MultiObjectiveStrategy::ParEgo => emit::Check::ge("hv_ratio_parego", r, 1.0),
        })
        .collect();
    json.push_str(&emit::criteria_block(&checks));
    json.push_str("}\n");
    std::fs::write(&out_path, &json).unwrap();
    println!("\nwrote {out_path}");
    emit::print_criteria(&checks);
    assert!(
        emit::all_pass(&checks),
        "a BaCO arm fell below its hypervolume gate vs the random baseline ({random_mean:.1})"
    );
}
