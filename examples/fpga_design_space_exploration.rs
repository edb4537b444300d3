//! FPGA design-space exploration à la HPVM2FPGA: a boolean-heavy space with
//! hidden constraints only (resource overflow and failed placements), no
//! expert configuration, and a tiny budget.
//!
//! ```sh
//! cargo run --release --example fpga_design_space_exploration
//! ```

use baco::prelude::*;

fn main() -> Result<(), baco::Error> {
    for bench in fpga_sim::benchmarks::hpvm_benchmarks() {
        let default = bench.default_value().expect("default design builds");
        let report = Baco::builder(bench.space.clone())
            .budget(bench.budget)
            .doe_samples((bench.budget / 4).max(3))
            .seed(3)
            .build()?
            .run(&bench.blackbox)?;
        let best = report.best_value().expect("found a fitting design");
        println!(
            "{:<9} budget {:>3}: default {default:>9.3} ms → tuned {best:>9.3} ms \
             ({:.2}x better, {} failed builds)",
            bench.name,
            bench.budget,
            default / best,
            report.trials().iter().filter(|t| !t.feasible).count()
        );
        assert!(
            best <= default,
            "{}: tuning must not lose to the default",
            bench.name
        );
    }
    Ok(())
}
