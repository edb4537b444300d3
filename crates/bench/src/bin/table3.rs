//! Table 3: the benchmark inventory — dimensions, parameter types,
//! constraint kinds, dense and feasible space sizes (the latter computed by
//! building each Chain-of-Trees) and evaluation budgets.

use baco::cot::ChainOfTrees;
use baco_bench::stats::render_table;
use baco_bench::{all_benchmarks, cli};

fn fmt_size(x: f64) -> String {
    if x >= 1e4 {
        format!("{x:.1e}")
    } else {
        format!("{x:.0}")
    }
}

fn main() {
    let args = cli::parse();
    println!("== Table 3 — benchmarks and search spaces ==");
    let mut rows = Vec::new();
    for b in all_benchmarks(args.scale) {
        let dense = b.space.dense_size().map_or("∞".into(), fmt_size);
        let feasible = match ChainOfTrees::build(&b.space) {
            Ok(cot) => fmt_size(cot.feasible_size()),
            Err(e) => format!("({e})"),
        };
        rows.push(vec![
            b.group.to_string(),
            b.name.clone(),
            b.space.len().to_string(),
            b.param_kinds(),
            b.constraint_kinds(),
            dense,
            feasible,
            b.budget.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "group",
                "benchmark",
                "dim",
                "params",
                "constr",
                "space size",
                "feasible",
                "budget"
            ],
            &rows
        )
    );
    println!("(tiny budget = 1/3 of full, small = 2/3, as in the paper)");
}
