//! Tables 6–8: relative performance compared to expert with the tiny, small
//! and full budgets, for every benchmark and tuner (values > 1 beat the
//! expert). Reads the sweep CSV.

use baco_bench::agg::Agg;
use baco_bench::runner::TunerKind;
use baco_bench::{cli, stats, store};

fn main() {
    let args = cli::parse();
    let agg = Agg::new(store::load_or_exit(args.out.as_deref()));
    for (label, num) in [
        ("Table 6 — tiny budget", 1),
        ("Table 7 — small budget", 2),
        ("Table 8 — full budget", 3),
    ] {
        println!("== {label} (relative performance vs expert) ==");
        let mut rows = Vec::new();
        let mut group_acc: Vec<(String, Vec<Vec<f64>>)> = Vec::new();
        for (bench, group) in agg.benchmarks() {
            let budget = (agg.budget(&bench) * num / 3).max(1);
            let mut row = vec![group.clone(), bench.clone()];
            let mut vals = Vec::new();
            for kind in TunerKind::all() {
                let v = agg.rel_perf(&bench, kind.name(), budget);
                row.push(v.map_or("-".into(), |x| format!("{x:.2}")));
                vals.push(v.unwrap_or(f64::NAN));
            }
            rows.push(row);
            match group_acc.iter_mut().find(|(g, _)| *g == group) {
                Some((_, acc)) => acc.push(vals),
                None => group_acc.push((group, vec![vals])),
            }
        }
        // Group means + overall mean, like the paper's bold rows.
        let mut all: Vec<Vec<f64>> = Vec::new();
        for (group, acc) in &group_acc {
            all.extend(acc.iter().cloned());
            let mut row = vec![group.clone(), "(mean)".into()];
            for t in 0..TunerKind::all().len() {
                let col: Vec<f64> = acc.iter().map(|v| v[t]).filter(|x| x.is_finite()).collect();
                row.push(stats::mean(&col).map_or("-".into(), |x| format!("{x:.2}")));
            }
            rows.push(row);
        }
        let mut row = vec!["All".into(), "(mean)".into()];
        for t in 0..TunerKind::all().len() {
            let col: Vec<f64> = all.iter().map(|v| v[t]).filter(|x| x.is_finite()).collect();
            row.push(stats::mean(&col).map_or("-".into(), |x| format!("{x:.2}")));
        }
        rows.push(row);
        let headers: Vec<&str> = ["group", "benchmark"]
            .into_iter()
            .chain(TunerKind::all().iter().map(|k| k.name()))
            .collect();
        println!("{}", stats::render_table(&headers, &rows));
    }
}
