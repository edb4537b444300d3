//! Fig. 5: average performance relative to expert with the tiny (⅓), small
//! (⅔) and full budget, per framework group and tuner. Reads the sweep CSV
//! (run `--bin sweep` first).

use baco_bench::agg::Agg;
use baco_bench::runner::TunerKind;
use baco_bench::{cli, stats, store};

fn main() {
    let args = cli::parse();
    let agg = Agg::new(store::load_or_exit(args.out.as_deref()));
    let budget_levels = [("tiny", 1, 3), ("small", 2, 3), ("full", 3, 3)];

    for group in ["TACO", "RISE & ELEVATE", "HPVM2FPGA"] {
        println!("== Fig. 5 — {group}: average performance relative to expert ==");
        let benches: Vec<String> = agg
            .benchmarks()
            .into_iter()
            .filter(|(_, g)| g == group)
            .map(|(n, _)| n)
            .collect();
        if benches.is_empty() {
            println!("(no sweep data for this group)\n");
            continue;
        }
        let mut rows = Vec::new();
        for kind in TunerKind::all() {
            let mut row = vec![kind.name().to_string()];
            for (_, num, den) in budget_levels {
                let perfs: Vec<f64> = benches
                    .iter()
                    .filter_map(|b| {
                        let budget = agg.budget(b) * num / den;
                        agg.rel_perf(b, kind.name(), budget.max(1))
                    })
                    .collect();
                row.push(stats::mean(&perfs).map_or("-".into(), |m| format!("{m:.2}x")));
            }
            rows.push(row);
        }
        // Default reference line.
        let defaults: Vec<f64> = benches
            .iter()
            .filter_map(|b| {
                let (e, d) = (agg.expert_ref(b)?, agg.default_ref(b)?);
                Some(e / d)
            })
            .collect();
        let dref = stats::mean(&defaults).map_or("-".into(), |m| format!("{m:.2}x"));
        rows.push(vec!["Default".into(), dref.clone(), dref.clone(), dref]);
        println!(
            "{}",
            stats::render_table(&["tuner", "tiny", "small", "full"], &rows)
        );
    }
}
