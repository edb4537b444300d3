//! Table 10: wall-clock analysis — total autotuning time split into
//! black-box evaluation and tuner overhead, for the TACO SpMM and SDDMM
//! benchmarks (one full-budget run per tuner).

use baco_bench::cli;
use baco_bench::runner::{run_one, TunerKind};
use baco_bench::stats::render_table;
use taco_sim::benchmarks::{sddmm_benchmark, spmm_benchmark};

fn main() {
    let args = cli::parse();
    println!("== Table 10 — wall-clock seconds (black-box + tuner overhead) ==");
    let benches = vec![
        spmm_benchmark("scircuit", args.scale),
        sddmm_benchmark("email-Enron", args.scale),
    ];
    let mut rows = Vec::new();
    for bench in &benches {
        for kind in TunerKind::all() {
            let r = run_one(bench, kind, args.seed).expect("run succeeds");
            rows.push(vec![
                bench.name.clone(),
                kind.name().to_string(),
                format!("{:.3}", r.eval_secs),
                format!("{:.3}", r.tuner_secs),
                format!("{:.3}", r.eval_secs + r.tuner_secs),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &["benchmark", "tuner", "black-box s", "tuner s", "total s"],
            &rows
        )
    );
    println!(
        "note: the paper's absolute seconds come from full-size tensors on a 32-core node; \
         the split (model-based tuners pay more overhead than heuristics) is the reproducible shape"
    );
}
