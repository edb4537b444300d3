//! Fig. 10: impact of the hidden-constraint machinery on MM_GPU and
//! Scal_GPU — full BaCO vs no feasibility predictor vs no minimum
//! feasibility limit ε_f, as the geomean of performance relative to expert
//! after 20/40/60 evaluations.

use baco::tuner::BacoOptions;
use baco_bench::ablation::{print_matrix, run_matrix, Variant};
use baco_bench::cli;

fn main() {
    let args = cli::parse();
    let benches = vec![
        gpu_sim::benchmarks::mm_gpu(),
        gpu_sim::benchmarks::scal_gpu(),
    ];
    let variants = vec![
        Variant::Baco(
            "BaCO",
            Box::new(|seed| BacoOptions {
                seed,
                ..Default::default()
            }),
        ),
        Variant::Baco(
            "No hidden constraints",
            Box::new(|seed| BacoOptions {
                seed,
                hidden_constraints: false,
                ..Default::default()
            }),
        ),
        Variant::Baco(
            "No feasibility limit",
            Box::new(|seed| BacoOptions {
                seed,
                feasibility_limit: false,
                ..Default::default()
            }),
        ),
    ];
    let rows = run_matrix(&benches, &variants, &[20, 40, 60], args.reps, args.seed);
    print_matrix(
        "Fig. 10 — hidden-constraint ablation, MM_GPU + Scal_GPU geomean vs expert",
        &[20, 40, 60],
        &rows,
    );
}
