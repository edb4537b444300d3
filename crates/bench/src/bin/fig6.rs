//! Fig. 6: evolution of the average best runtime for one kernel per
//! framework (SpMM scircuit, MM_GPU, Audio), with the speedup annotations —
//! how many× fewer evaluations BaCO needs to match each baseline's final
//! performance. Reads the sweep CSV.

use baco_bench::agg::Agg;
use baco_bench::runner::TunerKind;
use baco_bench::{cli, stats, store};

fn main() {
    let args = cli::parse();
    let agg = Agg::new(store::load_or_exit(args.out.as_deref()));
    for bench in ["SpMM scircuit", "MM_GPU", "Audio"] {
        if agg.budget(bench) == 0 {
            println!("== Fig. 6 — {bench}: no sweep data ==\n");
            continue;
        }
        println!("== Fig. 6 — {bench}: mean best runtime [ms] per evaluation ==");
        if let Some(e) = agg.expert_ref(bench) {
            println!(
                "expert = {e:.4} ms, default = {:?} ms",
                agg.default_ref(bench)
            );
        }
        let budget = agg.budget(bench);
        let step = (budget / 12).max(1);
        let mut rows = Vec::new();
        let trajs: Vec<(TunerKind, Vec<Option<f64>>)> = TunerKind::all()
            .into_iter()
            .map(|k| (k, agg.mean_trajectory(bench, k.name())))
            .collect();
        let mut i = step - 1;
        while i < budget {
            let mut row = vec![format!("{}", i + 1)];
            for (_, t) in &trajs {
                row.push(
                    t.get(i)
                        .copied()
                        .flatten()
                        .map_or("-".into(), |v| format!("{v:.4}")),
                );
            }
            rows.push(row);
            i += step;
        }
        let headers: Vec<&str> = ["eval"]
            .into_iter()
            .chain(TunerKind::all().iter().map(|k| k.name()))
            .collect();
        println!("{}", stats::render_table(&headers, &rows));

        // Speedup annotations (the figure's arrows).
        for base in [TunerKind::Atf, TunerKind::Ytopt] {
            let base_traj = agg.mean_trajectory(bench, base.name());
            if let Some(target) = base_traj.iter().flatten().copied().last() {
                let base_evals = base_traj
                    .iter()
                    .position(|v| v.is_some_and(|x| x <= target))
                    .map(|i| i + 1)
                    .unwrap_or(base_traj.len());
                match agg.mean_evals_to_reach(bench, TunerKind::Baco.name(), target) {
                    Some(be) => println!(
                        "BaCO matches {}'s final performance {} faster ({} vs {} evals)",
                        base.name(),
                        stats::fmt_factor(base_evals as f64 / be as f64),
                        be,
                        base_evals
                    ),
                    None => println!("BaCO did not reach {}'s final performance", base.name()),
                }
            }
        }
        println!();
    }
}
