//! Tuning the paper's hardest space: MM_GPU (10 parameters, tight known
//! constraints, hidden shared-memory/register failures). Shows how the
//! feasibility model keeps the proposal stream mostly buildable.
//!
//! ```sh
//! cargo run --release --example gpu_kernel_tuning
//! ```

use baco::prelude::*;

fn main() -> Result<(), baco::Error> {
    let bench = gpu_sim::benchmarks::mm_gpu();
    let space = bench.space.clone();
    println!(
        "MM_GPU: dense space {:.2e}, budget {}",
        space.dense_size().unwrap(),
        bench.budget
    );

    let expert = bench.expert_value().expect("expert builds");
    println!("expert kernel time: {expert:.3} ms");

    let report = Baco::builder(space)
        .budget(bench.budget)
        .doe_samples(10)
        .seed(7)
        .build()?
        .run(&bench.blackbox)?;

    let feasible = report.trials().iter().filter(|t| t.feasible).count();
    println!(
        "evaluated {} configs, {} built successfully ({} hidden-constraint failures)",
        report.len(),
        feasible,
        report.len() - feasible
    );
    let best = report.best().expect("found a buildable kernel");
    println!(
        "best kernel time: {:.3} ms ({:.2}x vs expert)",
        best.value.unwrap(),
        expert / best.value.unwrap()
    );
    println!("best schedule: {}", best.config);

    // The feasibility model should keep most post-DoE proposals buildable.
    let post: Vec<_> = report.trials().iter().skip(10).collect();
    let post_ok = post.iter().filter(|t| t.feasible).count();
    println!(
        "post-DoE feasibility rate: {:.0}%",
        100.0 * post_ok as f64 / post.len() as f64
    );
    Ok(())
}
