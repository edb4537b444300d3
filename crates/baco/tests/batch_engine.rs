//! Property tests for the asynchronous batched-evaluation engine: batch
//! proposals are distinct and CoT-feasible, q=1 batch mode reproduces the
//! sequential fixed-seed trajectory bitwise, and out-of-order result
//! reporting through the worker pool converges to the same incumbent set.

use baco::eval::pool::with_pool;
use baco::prelude::*;
use baco::surrogate::GpCache;
use baco::tuner::{FantasyStrategy, LiarValue, Session, Trial, TuningReport};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::time::Duration;

fn constrained_space() -> SearchSpace {
    SearchSpace::builder()
        .integer("a", 0, 15)
        .integer("b", 0, 15)
        .ordinal_log("tile", vec![1.0, 2.0, 4.0, 8.0])
        .known_constraint("a % 2 == 0 || b <= a")
        .known_constraint("b + a <= 26")
        .build()
        .unwrap()
}

fn objective(cfg: &Configuration) -> f64 {
    let a = cfg.value("a").as_f64();
    let b = cfg.value("b").as_f64();
    let t = cfg.value("tile").as_f64().log2();
    1.0 + (a - 10.0).powi(2) + (b - 6.0).powi(2) + (t - 2.0).abs()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The multi-objective API preserves the single-objective trajectory as
    /// the 1-vector case: a black box reporting `feasible_multi(vec![v])`
    /// (with a hidden-constraint region mixed in) produces a bitwise
    /// identical run to one reporting `feasible(v)`, for the sequential loop
    /// and the q=4 batched engine alike.
    #[test]
    fn one_vector_blackbox_reproduces_scalar_run_bitwise(
        seed in 0u64..1_000,
        q_pick in 0usize..2,
    ) {
        let q = [1usize, 4][q_pick];
        let scalar = FnBlackBox::new(|cfg: &Configuration| {
            if cfg.value("a").as_i64() == 13 {
                Evaluation::infeasible()
            } else {
                Evaluation::feasible(objective(cfg))
            }
        });
        let one_vector = FnBlackBox::new(|cfg: &Configuration| {
            if cfg.value("a").as_i64() == 13 {
                Evaluation::infeasible()
            } else {
                Evaluation::feasible_multi(vec![objective(cfg)])
            }
        });
        let run = |bb: &(dyn baco::tuner::BlackBox + Sync)| {
            let tuner = Baco::builder(constrained_space())
                .budget(16)
                .doe_samples(5)
                .batch_size(q)
                .eval_threads(1)
                .seed(seed)
                .build()
                .unwrap();
            let report = if q == 1 { tuner.run(bb).unwrap() } else { tuner.run_batched(bb).unwrap() };
            report
                .trials()
                .iter()
                .map(|t| (t.config.to_string(), t.value.map(f64::to_bits), t.extra.clone(), t.feasible))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(&scalar), run(&one_vector));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A round of q batch proposals consists of q distinct configurations,
    /// every one of them inside the Chain-of-Trees feasible set and none of
    /// them already evaluated — for every fantasy strategy.
    #[test]
    fn batch_proposals_distinct_and_cot_feasible(
        seed in 0u64..1_000,
        q in 2usize..9,
        strat in 0usize..4,
    ) {
        let strategy = [
            FantasyStrategy::KrigingBeliever,
            FantasyStrategy::ConstantLiar(LiarValue::Min),
            FantasyStrategy::ConstantLiar(LiarValue::Mean),
            FantasyStrategy::ConstantLiar(LiarValue::Max),
        ][strat];
        let tuner = Baco::builder(constrained_space())
            .budget(60)
            .doe_samples(8)
            .batch_size(q)
            .batch_strategy(strategy)
            .seed(seed)
            .build()
            .unwrap();
        // Seed a history via the DoE so the proposer has models to fit.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seen = HashSet::new();
        let mut report = TuningReport::new("prop");
        for cfg in tuner.sampler().sample_batch(&mut rng, 8, &seen) {
            seen.insert(cfg.clone());
            let v = objective(&cfg);
            report.push(Trial {
                config: cfg,
                value: Some(v),
                extra: Vec::new(),
                feasible: true,
                eval_time: Duration::ZERO,
                tuner_time: Duration::ZERO,
            });
        }
        let mut cache = GpCache::new();
        let round = tuner
            .recommend_batch(&mut rng, &report, &seen, &mut cache, q)
            .unwrap();
        prop_assert_eq!(round.len(), q);
        let uniq: HashSet<_> = round.iter().cloned().collect();
        prop_assert!(uniq.len() == q, "duplicate proposals in a round");
        let cot = tuner.sampler().cot().expect("fully discrete space builds a CoT");
        for cfg in &round {
            prop_assert!(cot.contains(cfg), "proposal outside the CoT: {}", cfg);
            prop_assert!(!seen.contains(cfg), "proposal already evaluated: {}", cfg);
        }
    }

    /// The batched engine at q=1 reproduces the sequential fixed-seed
    /// trajectory bitwise: same configurations, same order, same values.
    #[test]
    fn q1_batch_mode_reproduces_sequential_trajectory(seed in 0u64..500) {
        let bb = FnBlackBox::new(|cfg: &Configuration| {
            Evaluation::feasible(objective(cfg))
        });
        let tuner = Baco::builder(constrained_space())
            .budget(16)
            .doe_samples(5)
            .seed(seed)
            .build()
            .unwrap();
        let sequential = tuner.run(&bb).unwrap();
        let batched = tuner.run_batched(&bb).unwrap();
        prop_assert_eq!(sequential.len(), batched.len());
        for (s, b) in sequential.trials().iter().zip(batched.trials()) {
            prop_assert_eq!(&s.config, &b.config);
            prop_assert_eq!(s.value.map(f64::to_bits), b.value.map(f64::to_bits));
            prop_assert_eq!(s.feasible, b.feasible);
        }
    }

    /// The pool delivers every submitted configuration exactly once, with
    /// the evaluation the black box produced for it, at any thread count.
    #[test]
    fn pool_outcomes_complete_and_correct(
        n in 1usize..17,
        threads in 0usize..5,
    ) {
        let space = SearchSpace::builder().integer("x", 0, 63).build().unwrap();
        let bb = FnBlackBox::new(|cfg: &Configuration| {
            let x = cfg.value("x").as_i64();
            if x % 5 == 4 {
                Evaluation::infeasible()
            } else {
                Evaluation::feasible(x as f64 * 3.0)
            }
        });
        let cfgs: Vec<Configuration> = (0..n)
            .map(|i| space.configuration(&[("x", ParamValue::Int(i as i64))]).unwrap())
            .collect();
        let mut out = with_pool(&bb, threads, n, |pool| {
            for (i, cfg) in cfgs.into_iter().enumerate() {
                pool.submit(i as u64, cfg);
            }
            std::iter::from_fn(|| pool.recv()).collect::<Vec<_>>()
        });
        prop_assert_eq!(out.len(), n);
        out.sort_by_key(|done| done.ticket);
        for (i, done) in out.iter().enumerate() {
            prop_assert_eq!(done.ticket, i as u64);
            prop_assert_eq!(done.config.value("x").as_i64(), i as i64);
            if i % 5 == 4 {
                prop_assert!(!done.evaluation.is_feasible());
            } else {
                prop_assert_eq!(done.evaluation.value(), Some(i as f64 * 3.0));
            }
        }
    }
}

/// Out-of-order streaming against a staggered-latency black box: the driver
/// folds results in completion order (which differs from submission order
/// under concurrency) and must converge to the same incumbent set as an
/// in-order driver over the same rounds.
#[test]
fn out_of_order_pool_reports_converge_to_same_incumbent() {
    let sleepy = FnBlackBox::new(|cfg: &Configuration| {
        let a = cfg.value("a").as_i64();
        // Larger `a` finishes *faster*, inverting completion order.
        std::thread::sleep(Duration::from_millis((15 - a).max(0) as u64));
        Evaluation::feasible(objective(cfg))
    });
    let run = |threads: usize| {
        let tuner = Baco::builder(constrained_space())
            .budget(36)
            .doe_samples(9)
            .batch_size(6)
            .eval_threads(threads)
            .seed(41)
            .build()
            .unwrap();
        let mut session = Session::new(tuner).unwrap();
        with_pool(&sleepy, threads.max(1), 6, |pool| loop {
            let round = session.suggest_batch(6).unwrap();
            if round.is_empty() {
                break;
            }
            // Stream through the pool; report in completion order.
            for (ticket, cfg) in round.into_iter().enumerate() {
                pool.submit(ticket as u64, cfg);
            }
            while let Some(done) = pool.recv() {
                session.try_report(done.config, done.evaluation).unwrap();
            }
        });
        let best = session.history().best().unwrap().clone();
        (best.config, best.value)
    };
    let (cfg_seq, v_seq) = run(1); // in submission order
    let (cfg_con, v_con) = run(6); // completion order (inverted by the sleeps)
    assert_eq!(v_seq, Some(1.0), "sequential driver finds the optimum");
    assert_eq!(v_con, Some(1.0), "concurrent driver finds the optimum");
    assert_eq!(cfg_seq, cfg_con, "same incumbent configuration either way");
}
