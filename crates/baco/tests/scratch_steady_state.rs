//! Zero-alloc steady state for the budgeted prediction hot path.
//!
//! The budgeted tuner shares one [`PredictScratch`] workspace per session
//! (via [`GpCache`]); once the active set has reached the surrogate budget,
//! the per-round buffer sizes stop changing, so after a warm-up phase no
//! round may grow any prediction buffer again. The debug-only growth counter
//! in `surrogate::gp` observes every capacity growth process-wide, which is
//! why this test lives **alone in its own integration binary** — any other
//! test running concurrently would move the counter.

#![cfg(debug_assertions)]

use baco::prelude::*;
use baco::surrogate::gp::scratch_growth_count;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

#[test]
fn budgeted_rounds_stop_growing_prediction_buffers() {
    let space = SearchSpace::builder()
        .integer("a", 0, 63)
        .integer("b", 0, 63)
        .categorical("mode", vec!["x", "y", "z"])
        .build()
        .unwrap();
    let tuner = Baco::builder(space)
        .budget(500)
        .doe_samples(4)
        .seed(17)
        .surrogate_budget(16)
        .build()
        .unwrap();

    let mut rng = StdRng::seed_from_u64(4);
    let mut report = TuningReport::new("steady");
    let mut seen: HashSet<Configuration> = HashSet::new();
    let mut cache = tuner.new_cache();
    let mut round = |report: &mut TuningReport, seen: &mut HashSet<Configuration>, cache: &mut _| {
        let cfg = tuner
            .recommend_batch(&mut rng, report, seen, cache, 1)
            .unwrap()
            .pop()
            .expect("space is large enough");
        let a = cfg.value("a").as_f64();
        let b = cfg.value("b").as_f64();
        seen.insert(cfg.clone());
        report.push(baco::tuner::Trial {
            config: cfg,
            value: Some(1.0 + (a - 40.0).powi(2) + (b - 9.0).powi(2)),
            extra: Vec::new(),
            feasible: true,
            eval_time: Default::default(),
            tuner_time: Default::default(),
        });
    };

    // Warm-up: grow past the surrogate budget so the active set (and with it
    // every per-round buffer size) has plateaued.
    for _ in 0..40 {
        round(&mut report, &mut seen, &mut cache);
    }
    let after_warmup = scratch_growth_count();

    // Steady state: not a single buffer growth across 20 further rounds.
    for _ in 0..20 {
        round(&mut report, &mut seen, &mut cache);
    }
    assert_eq!(
        scratch_growth_count(),
        after_warmup,
        "budgeted steady-state rounds must not grow prediction buffers"
    );
}
