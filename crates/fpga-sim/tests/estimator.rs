//! Integration tests for the HPVM2FPGA design-space estimator: the
//! hidden-constraint boundaries the tuner has to learn, determinism of the
//! estimator (it is the one substrate whose objective must be a pure
//! function of the configuration), and the `Benchmark` packaging the
//! harness and the tuning server rely on.

use baco::benchmark::Group;
use baco::{Configuration, ParamValue, SearchSpace};
use fpga_sim::benchmarks::{bfs, bfs_space, hpvm_benchmarks, preeuler, preeuler_space};
use fpga_sim::device::{arria10, config_jitter, Resources};
use rand::SeedableRng;

fn bfs_cfg(unroll: i64, banking: i64, fusion: &str, privatize: &str) -> Configuration {
    bfs_space()
        .configuration(&[
            ("unroll_exp", ParamValue::Int(unroll)),
            ("banking_exp", ParamValue::Int(banking)),
            ("fusion", ParamValue::Categorical(fusion.into())),
            ("privatize", ParamValue::Categorical(privatize.into())),
        ])
        .unwrap()
}

fn preeuler_cfg(fuse_flux: bool, fuse_update: bool, cell: i64, face: i64) -> Configuration {
    let b = |v: bool| ParamValue::Categorical(if v { "true" } else { "false" }.into());
    preeuler_space()
        .configuration(&[
            ("fuse_flux", b(fuse_flux)),
            ("fuse_update", b(fuse_update)),
            ("priv_fluxes", b(false)),
            ("coalesce", b(false)),
            ("unroll_cell", ParamValue::Int(cell)),
            ("unroll_face", ParamValue::Int(face)),
            ("banking", ParamValue::Int(1)),
        ])
        .unwrap()
}

/// The BFS "router gives up" region: full fusion is fine with narrow
/// unrolls, wide unrolls are fine with partial fusion, but the *interaction*
/// (fusion level ≥ 3 with max unroll ≥ 8) fails the build — exactly at the
/// boundary.
#[test]
fn bfs_hidden_constraint_boundary() {
    let bench = bfs();
    // unroll 8 (exp 3) + full fusion: infeasible.
    assert!(!bench
        .blackbox
        .evaluate(&bfs_cfg(3, 0, "full", "off"))
        .is_feasible());
    // One step narrower (unroll 4): feasible.
    assert!(bench
        .blackbox
        .evaluate(&bfs_cfg(2, 0, "full", "off"))
        .is_feasible());
    // One fusion level lower at unroll 8: feasible.
    assert!(bench
        .blackbox
        .evaluate(&bfs_cfg(3, 0, "most", "off"))
        .is_feasible());
    // The failure is *hidden*: every one of these satisfies the declared
    // space (no known constraints to reject them up front).
    assert!(bench.space.known_constraints().is_empty());
}

/// The PreEuler placement wall: both fused pipelines with a combined unroll
/// product ≥ 50 fail, and the boundary is sharp in both directions (drop the
/// product by one step, or drop one fusion, and the build succeeds).
#[test]
fn preeuler_hidden_constraint_boundary() {
    let bench = preeuler();
    // u1 = 5, u2 = 10 → product 50, both fused: infeasible.
    assert!(!bench
        .blackbox
        .evaluate(&preeuler_cfg(true, true, 4, 9))
        .is_feasible());
    // Product 45 (u2 = 9), both fused: feasible.
    assert!(bench
        .blackbox
        .evaluate(&preeuler_cfg(true, true, 4, 8))
        .is_feasible());
    // Product 50 with only one fusion: feasible.
    assert!(bench
        .blackbox
        .evaluate(&preeuler_cfg(true, false, 4, 9))
        .is_feasible());
}

/// Resource overflow is the other doesn't-fit boundary: `fits` flips exactly
/// at 100 % utilization, and the routing-pressure clock model degrades
/// monotonically as designs approach it.
#[test]
fn device_fit_flips_exactly_at_full_utilization() {
    let dev = arria10();
    let at = |frac: f64| Resources {
        alms: dev.alms * frac,
        dsps: 0.0,
        bram_bytes: 0.0,
    };
    assert!(dev.fits(&at(1.0)), "exactly-full designs fit");
    assert!(!dev.fits(&at(1.0 + 1e-9)), "anything past full does not");
    assert!((at(1.0).max_utilization(&dev) - 1.0).abs() < 1e-12);
    let (c25, c50, c99) = (
        dev.clock_mhz(&at(0.25)),
        dev.clock_mhz(&at(0.5)),
        dev.clock_mhz(&at(0.99)),
    );
    assert!(
        c25 > c50 && c50 > c99,
        "clock must degrade with utilization"
    );
    assert!(
        c99 >= 0.65 * dev.fmax_mhz,
        "degradation is bounded (0.35·u² model)"
    );
}

/// The estimator is a pure function: re-evaluating any configuration gives
/// the same feasibility and bit-identical objective — which is what lets
/// server recovery tests compare journaled trajectories bitwise.
#[test]
fn estimator_is_deterministic_per_configuration() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    for bench in hpvm_benchmarks() {
        for _ in 0..60 {
            let cfg = bench.space.sample_dense(&mut rng);
            let a = bench.blackbox.evaluate(&cfg);
            let b = bench.blackbox.evaluate(&cfg);
            assert_eq!(a.is_feasible(), b.is_feasible(), "{}: {cfg}", bench.name);
            assert_eq!(
                a.value().map(f64::to_bits),
                b.value().map(f64::to_bits),
                "{}: {cfg}",
                bench.name
            );
        }
    }
}

/// The deterministic jitter that stands in for measurement noise: bounded to
/// its amplitude, dependent on the configuration, reproducible.
#[test]
fn config_jitter_is_bounded_and_deterministic() {
    let space: SearchSpace = bfs_space();
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let mut distinct = std::collections::HashSet::new();
    for _ in 0..100 {
        let cfg = space.sample_dense(&mut rng);
        let j = config_jitter(&cfg, 0.04);
        assert!((1.0..=1.04).contains(&j), "jitter {j} out of [1, 1.04]");
        assert_eq!(j.to_bits(), config_jitter(&cfg, 0.04).to_bits());
        distinct.insert(j.to_bits());
    }
    assert!(
        distinct.len() > 50,
        "jitter barely varies: {} distinct",
        distinct.len()
    );
}

/// `Benchmark` packaging: the suite the harness (and `baco-cli`) looks up by
/// name must be wired with evaluable defaults, no expert configs (the paper
/// reports none for HPVM2FPGA), hidden-constraint flags, and black boxes
/// that answer to their benchmark's name.
#[test]
fn benchmark_wiring_defaults_and_metadata() {
    let benches = hpvm_benchmarks();
    let names: Vec<&str> = benches.iter().map(|b| b.name.as_str()).collect();
    assert_eq!(names, ["BFS", "Audio", "PreEuler"]);
    for b in &benches {
        assert_eq!(b.group, Group::Hpvm, "{}", b.name);
        assert!(b.has_hidden_constraints, "{}", b.name);
        assert_eq!(b.blackbox.name(), b.name);
        // Default configurations evaluate and are feasible …
        let default = b.default_value();
        assert!(
            default.is_some_and(|v| v > 0.0),
            "{} default must evaluate",
            b.name
        );
        // … and there is no expert configuration to compare against.
        assert!(b.expert_config.is_none(), "{}", b.name);
        assert_eq!(b.expert_value(), None, "{}", b.name);
        // Budget splits stay usable for the tiny/small sweeps.
        assert!(
            b.tiny_budget() >= 1 && b.tiny_budget() < b.budget,
            "{}",
            b.name
        );
    }
    assert_eq!(
        benches.iter().map(|b| b.budget).collect::<Vec<_>>(),
        [20, 60, 60],
        "paper budgets"
    );
}
