//! Table 9: how much faster BaCO reaches each baseline's final performance
//! (`3.33×` = BaCO needed 3.33× fewer evaluations; `-` = BaCO's final result
//! never reached that baseline). Reads the sweep CSV.

use baco_bench::agg::Agg;
use baco_bench::runner::TunerKind;
use baco_bench::{cli, stats, store};

fn main() {
    let args = cli::parse();
    let agg = Agg::new(store::load_or_exit(args.out.as_deref()));
    let baselines = [
        TunerKind::Atf,
        TunerKind::Ytopt,
        TunerKind::Uniform,
        TunerKind::Cot,
    ];

    println!("== Table 9 — evaluations-to-match factors (BaCO vs baselines) ==");
    let mut rows = Vec::new();
    let mut per_baseline: Vec<Vec<f64>> = vec![Vec::new(); baselines.len()];
    for (bench, group) in agg.benchmarks() {
        let mut row = vec![group.clone(), bench.clone()];
        for (bi, base) in baselines.into_iter().enumerate() {
            let base_traj = agg.mean_trajectory(&bench, base.name());
            // The baseline's final mean performance, and when it got there.
            let final_best = base_traj.iter().flatten().copied().last();
            let cell = match final_best {
                None => "-".into(),
                Some(target) => {
                    let base_evals = base_traj
                        .iter()
                        .position(|v| v.is_some_and(|x| x <= target))
                        .map(|i| i + 1)
                        .unwrap_or(base_traj.len());
                    match agg.mean_evals_to_reach(&bench, TunerKind::Baco.name(), target) {
                        Some(baco_evals) => {
                            let f = base_evals as f64 / baco_evals as f64;
                            per_baseline[bi].push(f);
                            stats::fmt_factor(f)
                        }
                        None => "-".into(),
                    }
                }
            };
            row.push(cell);
        }
        rows.push(row);
    }
    let mut row = vec!["All".into(), "(mean)".into()];
    for acc in &per_baseline {
        row.push(stats::mean(acc).map_or("-".into(), stats::fmt_factor));
    }
    rows.push(row);
    let headers: Vec<&str> = ["group", "benchmark"]
        .into_iter()
        .chain(baselines.iter().map(|k| k.name()))
        .collect();
    println!("{}", stats::render_table(&headers, &rows));
}
