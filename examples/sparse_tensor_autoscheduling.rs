//! Autoscheduling a real sparse kernel: BaCO drives the `taco-sim` SpMM
//! executor (actual measured runtimes) and is compared against the expert
//! schedule and uniform random search.
//!
//! ```sh
//! cargo run --release --example sparse_tensor_autoscheduling
//! ```

use baco::baselines::{Tuner, UniformSampler};
use baco::prelude::*;
use taco_sim::benchmarks::{spmm_benchmark, TacoScale};

fn main() -> Result<(), baco::Error> {
    let bench = spmm_benchmark("scircuit", TacoScale::Small);
    println!("benchmark: {} ({} params)", bench.name, bench.space.len());
    println!("known constraints:");
    for c in bench.space.known_constraints() {
        println!("  {}", c.name());
    }

    let default = bench.default_value().expect("default runs");
    let expert = bench.expert_value().expect("expert runs");
    println!("default schedule: {default:.3} ms");
    println!("expert schedule:  {expert:.3} ms");

    // BaCO with the paper's budget.
    let report = Baco::builder(bench.space.clone())
        .budget(bench.budget)
        .doe_samples(10)
        .seed(1)
        .build()?
        .run(&bench.blackbox)?;
    let baco_best = report.best_value().expect("feasible best");

    // Uniform random with the same budget.
    let mut uni = UniformSampler::new(&bench.space, bench.budget, 1)?;
    let uni_best = uni
        .run(&bench.blackbox)?
        .best_value()
        .expect("feasible best");

    println!(
        "BaCO best:        {baco_best:.3} ms  ({:.2}x vs expert)",
        expert / baco_best
    );
    println!(
        "Uniform best:     {uni_best:.3} ms  ({:.2}x vs expert)",
        expert / uni_best
    );
    println!("best schedule: {}", report.best().unwrap().config);

    assert!(baco_best < default, "tuning must beat the default");
    Ok(())
}
