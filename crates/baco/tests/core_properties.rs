//! Crate-level property tests for the numerical core: Cholesky, GP
//! posterior behaviour, constraint round-trips, acquisition and local
//! search invariants.

use baco::acquisition::expected_improvement;
use baco::cot::ChainOfTrees;
use baco::linalg::{Cholesky, Matrix};
use baco::space::{ParamValue, SearchSpace};
use baco::surrogate::{GaussianProcess, GpOptions};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cholesky reconstructs any SPD matrix built as BᵀB + εI, and its
    /// solves invert the matrix.
    #[test]
    fn cholesky_reconstructs_spd(
        n in 1usize..7,
        seed in 0u64..10_000,
    ) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let b = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        let mut a = b.transpose().matmul(&b);
        a.add_diagonal(0.5);
        let ch = Cholesky::new(&a).unwrap();
        prop_assert!(ch.reconstruct().max_abs_diff(&a) < 1e-9);
        let rhs: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let x = ch.solve(&rhs);
        let ax = a.matvec(&x);
        for (u, v) in ax.iter().zip(&rhs) {
            prop_assert!((u - v).abs() < 1e-7, "Ax={u} b={v}");
        }
        // log-det consistency: |A| > 0 for SPD.
        prop_assert!(ch.log_det().is_finite());
    }

    /// EI is nonnegative, increases with variance at fixed mean, and
    /// decreases as the candidate mean rises above the incumbent.
    #[test]
    fn ei_shape_properties(
        mean in -5.0f64..5.0,
        var in 0.0f64..4.0,
        inc in -5.0f64..5.0,
    ) {
        let ei = expected_improvement(mean, var, inc);
        prop_assert!(ei >= 0.0);
        prop_assert!(expected_improvement(mean, var + 1.0, inc) + 1e-12 >= ei);
        prop_assert!(expected_improvement(mean + 1.0, var, inc) <= ei + 1e-12);
    }

    /// Constraint expressions survive an eval/negate round trip: `e` and
    /// `!(e)` always disagree.
    #[test]
    fn constraint_negation_disagrees(
        a in 0i64..8,
        b in 0i64..8,
        kind in 0usize..4,
    ) {
        let exprs = [
            "a >= b",
            "a % (b + 1) == 0",
            "min(a, b) * 2 < max(a, b) + 3",
            "log2(a + 1) <= 2 && b != 5",
        ];
        let src = exprs[kind];
        let neg = format!("!({src})");
        let space = SearchSpace::builder()
            .integer("a", 0, 8)
            .integer("b", 0, 8)
            .known_constraint(src)
            .known_constraint(&neg)
            .build()
            .unwrap();
        let cfg = space
            .configuration(&[("a", ParamValue::Int(a)), ("b", ParamValue::Int(b))])
            .unwrap();
        let c1 = space.known_constraints()[0].eval(&cfg).unwrap();
        let c2 = space.known_constraints()[1].eval(&cfg).unwrap();
        prop_assert_ne!(c1, c2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The GP posterior mean stays within (a small margin of) the observed
    /// label range — no wild extrapolation inside the hull — and the latent
    /// variance is bounded by the outputscale.
    #[test]
    fn gp_posterior_is_sane(seed in 0u64..1000) {
        use rand::Rng;
        let space = SearchSpace::builder()
            .integer("x", 0, 31)
            .categorical("c", vec!["u", "v", "w"])
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let configs: Vec<_> = (0..14).map(|_| space.sample_dense(&mut rng)).collect();
        let y: Vec<f64> = configs
            .iter()
            .map(|c| c.value("x").as_f64() * 0.1 + rng.gen_range(0.0..0.05))
            .collect();
        let gp = GaussianProcess::fit(&space, &configs, &y, &GpOptions::default(), &mut rng)
            .unwrap();
        let (lo, hi) = y
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| (l.min(v), h.max(v)));
        let margin = (hi - lo).max(0.2);
        for _ in 0..20 {
            let probe = space.sample_dense(&mut rng);
            let (m, v) = gp.predict(&probe);
            prop_assert!(m.is_finite() && v.is_finite());
            prop_assert!(v >= 0.0);
            prop_assert!(m >= lo - 2.0 * margin && m <= hi + 2.0 * margin, "mean {m} outside [{lo},{hi}]±");
        }
    }

    /// Batched posterior prediction agrees with the scalar path to 1e-10 on
    /// random mixed spaces — the correctness contract of the blocked
    /// triangular solve behind acquisition scoring.
    #[test]
    fn gp_predict_batch_matches_scalar(seed in 0u64..1000) {
        let space = SearchSpace::builder()
            .ordinal_log("tile", vec![1.0, 2.0, 4.0, 8.0, 16.0])
            .integer("unroll", 1, 8)
            .categorical("par", vec!["seq", "static", "dynamic"])
            .permutation("ord", 3)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let configs: Vec<_> = (0..25).map(|_| space.sample_dense(&mut rng)).collect();
        let y: Vec<f64> = configs
            .iter()
            .map(|c| c.value("tile").as_f64().log2() + 0.5 * c.value("unroll").as_f64())
            .collect();
        let gp = GaussianProcess::fit(&space, &configs, &y, &GpOptions::default(), &mut rng)
            .unwrap();
        let probes: Vec<_> = (0..30).map(|_| space.sample_dense(&mut rng)).collect();
        let inputs = gp.featurize(&probes);
        let batch = gp.predict_batch(&inputs);
        for (x, (bm, bv)) in inputs.iter().zip(&batch) {
            let (sm, sv) = gp.predict_input(x);
            prop_assert!((sm - bm).abs() <= 1e-10 * (1.0 + sm.abs()), "mean {sm} vs {bm}");
            prop_assert!((sv - bv).abs() <= 1e-10 * (1.0 + sv.abs()), "var {sv} vs {bv}");
        }
    }

    /// Rank-one Cholesky row appends agree with a fresh factorization of the
    /// extended matrix to 1e-8 — the correctness contract of warm-started
    /// incremental GP refits.
    #[test]
    fn cholesky_extend_matches_fresh(
        start in 1usize..6,
        grow in 1usize..5,
        seed in 0u64..10_000,
    ) {
        use rand::Rng;
        let n = start + grow;
        let mut rng = StdRng::seed_from_u64(seed);
        let b = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        let mut a = b.transpose().matmul(&b);
        a.add_diagonal(0.5 + n as f64 * 0.1);

        let sub = |k: usize| Matrix::from_fn(k, k, |i, j| a[(i, j)]);
        let mut ch = Cholesky::new(&sub(start)).unwrap();
        for k in start..n {
            let row: Vec<f64> = (0..k).map(|j| a[(k, j)]).collect();
            ch.extend(&row, a[(k, k)]).unwrap();
            let fresh = Cholesky::new(&sub(k + 1)).unwrap();
            prop_assert!(
                ch.factor().max_abs_diff(fresh.factor()) < 1e-8,
                "size {}: diff {}",
                k + 1,
                ch.factor().max_abs_diff(fresh.factor())
            );
        }
    }

    /// Local search over a CoT only ever visits feasible configurations and
    /// monotonically improves the acquisition score of its start.
    #[test]
    fn local_search_stays_feasible_and_improves(seed in 0u64..1000) {
        use baco::search::{local_search_in, scalar_score, FeasibleSampler, LocalSearchOptions};
        let space = SearchSpace::builder()
            .integer("a", 0, 20)
            .integer("b", 0, 20)
            .known_constraint("(a + b) % 3 == 0")
            .build()
            .unwrap();
        let sampler = FeasibleSampler::new(&space).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let score = |c: &baco::Configuration| {
            -(c.value("a").as_f64() - 14.0).abs() - (c.value("b").as_f64() - 7.0).abs()
        };
        let opts = LocalSearchOptions { n_candidates: 20, n_starts: 3, max_steps: 40 };
        let best = local_search_in(&sampler, &mut rng, scalar_score(score), &opts, &Default::default(), None)
            .unwrap();
        prop_assert!(space.satisfies_known(&best).unwrap());
        // (14,7) is the global feasible optimum (21 % 3 == 0) but the mod-3
        // lattice has single-parameter local optima at distance 2 (e.g.
        // (13,8)); hill climbing guarantees a local optimum, so distance ≤ 2.
        prop_assert!(score(&best) >= -2.0, "score {}", score(&best));
    }

    /// CoT uniform sampling is unbiased: on an asymmetric feasible set the
    /// empirical frequency of a thin branch matches its share of leaves.
    #[test]
    fn cot_leaf_sampling_unbiased(seed in 0u64..100) {
        let space = SearchSpace::builder()
            .integer("a", 0, 1)
            .integer("b", 0, 15)
            .known_constraint("a == 1 || b == 0")
            .build()
            .unwrap();
        let cot = ChainOfTrees::build(&space).unwrap();
        prop_assert_eq!(cot.feasible_size(), 17.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 1700;
        let a0 = (0..n)
            .filter(|_| cot.sample_uniform(&mut rng).value("a").as_i64() == 0)
            .count();
        // P(a=0) = 1/17 ≈ 0.059; allow ±4σ.
        let p = 1.0 / 17.0;
        let sigma = (p * (1.0 - p) * n as f64).sqrt();
        prop_assert!((a0 as f64 - n as f64 * p).abs() < 4.0 * sigma, "a0={a0}");
    }
}
