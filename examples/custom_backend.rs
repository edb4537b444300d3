//! Porting BaCO to a *new* compiler backend — the paper's portability claim
//! in practice. You implement `BlackBox` for your toolchain, declare the
//! space your scheduling language exposes, and run: no tuner customization,
//! no hyperparameter tweaking, no constraint filtering code.
//!
//! The "compiler" here is a mock JIT with two phases (vectorizer + register
//! allocator) whose interaction creates a hidden failure region.
//!
//! ```sh
//! cargo run --release --example custom_backend
//! ```

use baco::prelude::*;
use baco::tuner::BlackBox;

/// Your compiler toolchain wrapper. In a real port this shells out to the
/// compiler and times the generated binary.
struct MockJit;

impl BlackBox for MockJit {
    fn evaluate(&self, cfg: &Configuration) -> Evaluation {
        let vec_width = cfg.value("vec_width").as_f64();
        let regalloc = cfg.value("regalloc");
        let inline_depth = cfg.value("inline_depth").as_f64();
        let sched = cfg.value("sched");
        let sched = sched.as_permutation();

        // Hidden constraint: the greedy allocator cannot handle wide vectors
        // at deep inlining — the build crashes.
        if regalloc.as_str() == "greedy" && vec_width >= 8.0 && inline_depth >= 4.0 {
            return Evaluation::infeasible();
        }
        // Phase-order sensitivity: running DCE (element 2) before CSE
        // (element 1) loses optimization opportunities.
        let pos_cse = sched.iter().position(|&e| e == 1).unwrap() as f64;
        let pos_dce = sched.iter().position(|&e| e == 2).unwrap() as f64;
        let phase_penalty = if pos_dce < pos_cse { 0.8 } else { 0.0 };

        let t = 1.0
            + (vec_width.log2() - 2.0).powi(2) * 0.25
            + (inline_depth - 3.0).abs() * 0.2
            + if regalloc.as_str() == "linear-scan" {
                0.3
            } else {
                0.0
            }
            + phase_penalty;
        Evaluation::feasible(t)
    }

    fn name(&self) -> &str {
        "mock-jit"
    }
}

fn main() -> Result<(), baco::Error> {
    let space = SearchSpace::builder()
        .ordinal_log("vec_width", vec![1.0, 2.0, 4.0, 8.0, 16.0])
        .categorical("regalloc", vec!["greedy", "linear-scan", "graph-color"])
        .integer("inline_depth", 0, 6)
        .permutation("sched", 4) // pass order: [licm, cse, dce, unroll]
        .known_constraint("pos(sched, 0) < pos(sched, 3)") // licm before unroll
        .build()?;

    let report = Baco::builder(space)
        .budget(50)
        .doe_samples(12)
        .seed(11)
        .build()?
        .run(&MockJit)?;

    let best = report.best().expect("feasible best");
    println!("best config: {}", best.config);
    println!("best time:   {:.3} (optimum is 1.0)", best.value.unwrap());
    println!(
        "hidden failures encountered: {}",
        report.trials().iter().filter(|t| !t.feasible).count()
    );
    assert!(best.value.unwrap() < 1.5);
    Ok(())
}
