//! End-to-end integration: the full BaCO pipeline against all three compiler
//! substrates, at test scale.

use baco::baselines::{Tuner, UniformSampler};
use baco::prelude::*;
use taco_sim::benchmarks::TacoScale;

/// BaCO must beat uniform sampling (same budget, averaged over seeds) on the
/// paper's hardest space.
#[test]
fn baco_beats_uniform_on_mm_gpu() {
    let bench = gpu_sim::benchmarks::mm_gpu();
    let budget = 60;
    let mut baco_total = 0.0;
    let mut uni_total = 0.0;
    for seed in 0..3 {
        let r = Baco::builder(bench.space.clone())
            .budget(budget)
            .doe_samples(10)
            .seed(seed)
            .build()
            .unwrap()
            .run(&bench.blackbox)
            .unwrap();
        baco_total += r.best_value().expect("feasible best");
        let mut u = UniformSampler::new(&bench.space, budget, seed).unwrap();
        uni_total += u
            .run(&bench.blackbox)
            .unwrap()
            .best_value()
            .expect("feasible best");
    }
    assert!(
        baco_total < uni_total,
        "BaCO {baco_total:.3} should beat uniform {uni_total:.3}"
    );
}

/// Tuning a real (measured) sparse kernel end to end.
#[test]
fn baco_tunes_real_spmm_execution() {
    let bench = taco_sim::benchmarks::spmm_benchmark("scircuit", TacoScale::Test);
    let default = bench.default_value().unwrap();
    let r = Baco::builder(bench.space.clone())
        .budget(30)
        .doe_samples(8)
        .seed(5)
        .build()
        .unwrap()
        .run(&bench.blackbox)
        .unwrap();
    let best = r.best_value().unwrap();
    assert!(best < default, "tuned {best} vs default {default}");
    // Every proposed configuration satisfied the known constraints.
    for t in r.trials() {
        assert!(
            bench.space.satisfies_known(&t.config).unwrap(),
            "{}",
            t.config
        );
    }
}

/// The FPGA substrate: hidden-constraint failures are survived and learned.
#[test]
fn baco_explores_fpga_space_with_failures() {
    let bench = fpga_sim::benchmarks::preeuler();
    let r = Baco::builder(bench.space.clone())
        .budget(40)
        .doe_samples(10)
        .seed(9)
        .build()
        .unwrap()
        .run(&bench.blackbox)
        .unwrap();
    assert_eq!(r.len(), 40);
    assert!(r.best_value().is_some(), "must find fitting designs");
    assert!(r.feasible_fraction() > 0.3);
}

/// Full determinism: same seed ⇒ same proposals, across substrates with
/// deterministic black boxes.
#[test]
fn runs_are_deterministic_per_seed() {
    let bench = fpga_sim::benchmarks::bfs();
    let run = |seed| {
        Baco::builder(bench.space.clone())
            .budget(15)
            .doe_samples(5)
            .seed(seed)
            .build()
            .unwrap()
            .run(&bench.blackbox)
            .unwrap()
            .trials()
            .iter()
            .map(|t| t.config.to_string())
            .collect::<Vec<_>>()
    };
    assert_eq!(run(3), run(3));
    assert_ne!(run(3), run(4));
}

/// The 25-benchmark inventory exposes consistent metadata.
#[test]
fn benchmark_inventory_is_consistent() {
    let mut names = std::collections::HashSet::new();
    for b in taco_sim::benchmarks::taco_benchmarks(TacoScale::Test)
        .into_iter()
        .chain(gpu_sim::benchmarks::rise_benchmarks())
        .chain(fpga_sim::benchmarks::hpvm_benchmarks())
    {
        assert!(names.insert(b.name.clone()), "duplicate {}", b.name);
        assert!(b.budget >= 20);
        assert!(b.space.len() >= 4);
        assert!(
            b.space.satisfies_known(&b.default_config).unwrap(),
            "{}",
            b.name
        );
        if let Some(e) = &b.expert_config {
            assert!(b.space.satisfies_known(e).unwrap(), "{}", b.name);
        }
        // Constraint metadata matches reality.
        let has_known = !b.space.known_constraints().is_empty();
        assert_eq!(
            b.constraint_kinds().contains('K'),
            has_known,
            "{}: kinds {} vs {}",
            b.name,
            b.constraint_kinds(),
            has_known
        );
    }
    assert_eq!(names.len(), 25);
}
