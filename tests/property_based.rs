//! Property-based integration tests: invariants that must hold for random
//! spaces, schedules and data, spanning the core library and the substrates.

use baco::cot::ChainOfTrees;
use baco::space::{perm, ParamValue, SearchSpace};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lehmer ranking is a bijection for every permutation length we allow.
    #[test]
    fn perm_rank_unrank_bijection(m in 1usize..8, r in 0u64..5040) {
        let r = r % perm::factorial(m);
        let p = perm::unrank(r, m);
        prop_assert!(perm::is_permutation(&p));
        prop_assert_eq!(perm::rank(&p), r);
    }

    /// Permutation semimetrics: symmetry, identity, normalized range.
    #[test]
    fn perm_semimetric_axioms(m in 2usize..7, ra in 0u64..720, rb in 0u64..720) {
        let a = perm::unrank(ra % perm::factorial(m), m);
        let b = perm::unrank(rb % perm::factorial(m), m);
        for metric in [perm::PermMetric::Spearman, perm::PermMetric::Kendall,
                       perm::PermMetric::Hamming, perm::PermMetric::Naive] {
            let dab = perm::distance(metric, &a, &b);
            let dba = perm::distance(metric, &b, &a);
            prop_assert!((dab - dba).abs() < 1e-12);
            prop_assert!((0.0..=1.0).contains(&dab));
            prop_assert_eq!(perm::distance(metric, &a, &a), 0.0);
            if a != b {
                prop_assert!(dab > 0.0);
            }
        }
    }

    /// CoT enumeration equals brute-force constraint filtering on random
    /// two-parameter spaces with a random divisibility/ordering constraint.
    #[test]
    fn cot_equals_brute_force(
        hi_a in 1i64..12,
        hi_b in 1i64..12,
        kind in 0u8..3,
    ) {
        let constraint = match kind {
            0 => "a >= b",
            1 => "a % (b + 1) == 0",
            _ => "a + b <= 10",
        };
        let space = SearchSpace::builder()
            .integer("a", 0, hi_a)
            .integer("b", 0, hi_b)
            .known_constraint(constraint)
            .build()
            .unwrap();
        let brute: Vec<_> = (0..=hi_a)
            .flat_map(|a| (0..=hi_b).map(move |b| (a, b)))
            .filter(|(a, b)| match kind {
                0 => a >= b,
                1 => a % (b + 1) == 0,
                _ => a + b <= 10,
            })
            .collect();
        match ChainOfTrees::build(&space) {
            Ok(cot) => {
                prop_assert_eq!(cot.feasible_size() as usize, brute.len());
                for (a, b) in brute {
                    let cfg = space
                        .configuration(&[("a", ParamValue::Int(a)), ("b", ParamValue::Int(b))])
                        .unwrap();
                    prop_assert!(cot.contains(&cfg));
                }
            }
            Err(baco::Error::EmptyFeasibleSet) => prop_assert!(brute.is_empty()),
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error {e}"))),
        }
    }

    /// CoT sampling always returns configurations satisfying the known
    /// constraints, for both the unbiased and biased samplers.
    #[test]
    fn cot_samples_are_feasible(seed in 0u64..500) {
        let space = SearchSpace::builder()
            .ordinal_log("tile", vec![1.0, 2.0, 4.0, 8.0, 16.0])
            .integer("unroll", 1, 8)
            .permutation("ord", 3)
            .known_constraint("tile % unroll == 0")
            .known_constraint("pos(ord, 0) < pos(ord, 2)")
            .build()
            .unwrap();
        let cot = ChainOfTrees::build(&space).unwrap();
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let u = cot.sample_uniform(&mut rng);
        let b = cot.sample_biased(&mut rng);
        prop_assert!(space.satisfies_known(&u).unwrap());
        prop_assert!(space.satisfies_known(&b).unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Scheduled sparse kernels compute exactly what the reference computes,
    /// whatever the (feasible) schedule.
    #[test]
    fn scheduled_spmm_matches_reference(seed in 0u64..1000) {
        use taco_sim::generate::{matrix, spec};
        use taco_sim::kernels::{spmm, SpmmSchedule};
        use taco_sim::sparse::DenseMatrix;
        use rand::SeedableRng;

        let b = matrix(&spec("ACTIVSg10K"), 0.002);
        let c = DenseMatrix::random(b.ncols, 16, 1);
        let space = taco_sim::benchmarks::spmm_space();
        let cot = ChainOfTrees::build(&space).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cfg = cot.sample_uniform(&mut rng);
        let sched = SpmmSchedule::from_config(&cfg);
        let (got, t) = spmm(&b, &c, &sched);
        prop_assert!(t > 0.0 && t.is_finite());
        let want = taco_sim::kernels::spmm::reference(&b, &c);
        for (x, y) in got.data.iter().zip(&want.data) {
            prop_assert!((x - y).abs() < 1e-9 * (1.0 + y.abs()));
        }
    }

    /// GPU kernel models never return non-finite or non-positive times for
    /// feasible configurations, across the whole feasible set.
    #[test]
    fn gpu_models_return_sane_times(seed in 0u64..1000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for bench in gpu_sim::benchmarks::rise_benchmarks() {
            let cot = ChainOfTrees::build(&bench.space).unwrap();
            let cfg = cot.sample_uniform(&mut rng);
            let eval = bench.blackbox.evaluate(&cfg);
            if let Some(v) = eval.value() {
                prop_assert!(v.is_finite() && v > 0.0, "{}: {v}", bench.name);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The transfer corpus's structural space fingerprint is invariant
    /// under parameter declaration order: the same parameters and
    /// constraints, however listed, must land on the same donor shelf.
    #[test]
    fn space_fingerprint_is_declaration_order_invariant(
        n in 2usize..6,
        rot in 1usize..5,
        lo in -5i64..0,
        hi in 1i64..20,
        kinds in 0u64..243, // base-3 digit per parameter picks its kind
        constrained in 0u8..2,
    ) {
        let build = |order: &[usize]| {
            let mut b = SearchSpace::builder();
            for &i in order {
                let name = format!("p{i}");
                b = match (kinds / 3u64.pow(i as u32)) % 3 {
                    0 => b.integer(&name, lo, hi),
                    1 => b.real(&name, 0.0, 1.0 + i as f64),
                    _ => b.categorical(&name, vec!["a", "b", "c"]),
                };
            }
            // p999 exists in every ordering, so the constraint is well-formed
            // regardless of which kinds the drawn digits picked.
            b = b.integer("p999", 0, 9);
            if constrained == 1 {
                b = b.known_constraint("p999 >= 1");
            }
            b.build().unwrap()
        };
        let fwd: Vec<usize> = (0..n).collect();
        let mut rotated = fwd.clone();
        rotated.rotate_left(rot % n);
        prop_assert_eq!(
            baco::journal::corpus::fingerprint_space(&build(&fwd)),
            baco::journal::corpus::fingerprint_space(&build(&rotated))
        );
    }

    /// …but any structural change — a widened domain, a renamed parameter,
    /// an added constraint, a different parameter kind — moves the
    /// fingerprint, so sessions from a different space never pool.
    #[test]
    fn space_fingerprint_sees_structural_changes(
        lo in 0i64..3,
        hi in 4i64..20,
        which in 0u8..4,
    ) {
        let base = SearchSpace::builder()
            .integer("x", lo, hi)
            .real("r", 0.0, 1.0)
            .build()
            .unwrap();
        let changed = match which {
            0 => SearchSpace::builder().integer("x", lo, hi + 1).real("r", 0.0, 1.0),
            1 => SearchSpace::builder().integer("y", lo, hi).real("r", 0.0, 1.0),
            2 => SearchSpace::builder()
                .integer("x", lo, hi)
                .real("r", 0.0, 1.0)
                .known_constraint("x >= 1"),
            _ => SearchSpace::builder().integer_log("x", lo.max(1), hi).real("r", 0.0, 1.0),
        }
        .build()
        .unwrap();
        prop_assert_ne!(
            baco::journal::corpus::fingerprint_space(&base),
            baco::journal::corpus::fingerprint_space(&changed)
        );
    }
}
