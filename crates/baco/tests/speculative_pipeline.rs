//! Behavioral tests for the speculative evaluation pipeline
//! (`tuner::speculate`): budget coverage, proposal hygiene, the
//! reconcile/flush lifecycle, and the depth-0 inertness property the
//! journal's compatibility story rests on.

use baco::prelude::*;
use baco::{Baco, TuningReport};
use proptest::prelude::*;
use std::collections::HashSet;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("baco-specpipe-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn space() -> SearchSpace {
    SearchSpace::builder()
        .integer("a", 0, 15)
        .integer("b", 0, 15)
        .known_constraint("a + b <= 24")
        .build()
        .unwrap()
}

fn smooth() -> FnBlackBox<impl Fn(&Configuration) -> Evaluation> {
    FnBlackBox::new(|c: &Configuration| {
        let (a, b) = (c.value("a").as_f64(), c.value("b").as_f64());
        Evaluation::feasible(1.0 + (a - 11.0).powi(2) + (b - 4.0).powi(2))
    })
}

/// Hidden-constraint cliff beside the optimum: speculation inevitably
/// anchors on configurations that land infeasible, forcing flushes.
fn cliffed() -> FnBlackBox<impl Fn(&Configuration) -> Evaluation> {
    FnBlackBox::new(|c: &Configuration| {
        let (a, b) = (c.value("a").as_f64(), c.value("b").as_f64());
        if a > 11.0 {
            return Evaluation::infeasible();
        }
        Evaluation::feasible(1.0 + (a - 10.0).powi(2) + (b - 4.0).powi(2))
    })
}

fn distinct(r: &TuningReport) -> usize {
    r.trials()
        .iter()
        .map(|t| t.config.to_string())
        .collect::<HashSet<_>>()
        .len()
}

#[test]
fn speculative_run_covers_budget_with_distinct_configs() {
    for threads in [1usize, 4] {
        for depth in [1usize, 2, 4] {
            let report = Baco::builder(space())
                .budget(32)
                .doe_samples(8)
                .batch_size(4)
                .speculation_depth(depth)
                .eval_threads(threads)
                .seed(7)
                .build()
                .unwrap()
                .run_batched(&smooth())
                .unwrap();
            assert_eq!(report.len(), 32, "threads={threads} depth={depth}");
            assert_eq!(distinct(&report), 32, "threads={threads} depth={depth}");
            assert!(
                report.best_value().unwrap() <= 10.0,
                "threads={threads} depth={depth}: best {:?}",
                report.best_value()
            );
        }
    }
}

#[test]
fn speculative_run_handles_hidden_constraints_and_flushes() {
    let dir = temp_dir("flush");
    let path = dir.join("run.jsonl");
    let report = Baco::builder(space())
        .budget(28)
        .doe_samples(6)
        .batch_size(4)
        .speculation_depth(2)
        .eval_threads(1)
        .seed(2)
        .journal_path(&path)
        .build()
        .unwrap()
        .run_batched(&cliffed())
        .unwrap();
    assert_eq!(report.len(), 28);
    assert_eq!(distinct(&report), 28);
    assert!(
        report.best_value().unwrap() <= 6.0,
        "best {:?}",
        report.best_value()
    );

    let text = std::fs::read_to_string(&path).unwrap();
    assert!(
        text.contains(r#""t":"reconcile""#),
        "speculative run must record reconciliation verdicts"
    );
    assert!(
        text.lines()
            .any(|l| l.contains(r#""t":"reconcile""#) && l.contains(r#""keep":false"#)),
        "the hidden-constraint cliff must force at least one flush"
    );
    assert!(
        text.lines()
            .any(|l| l.contains(r#""t":"reconcile""#) && l.contains(r#""keep":true"#)),
        "well-anchored drafts must be confirmed"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn multi_objective_speculative_run_works() {
    let report = Baco::builder(space())
        .budget(24)
        .doe_samples(6)
        .batch_size(3)
        .speculation_depth(2)
        .eval_threads(1)
        .objectives(2)
        .reference_point(vec![40.0, 40.0])
        .seed(5)
        .build()
        .unwrap()
        .run_batched(&FnBlackBox::new(|c: &Configuration| {
            let (a, b) = (c.value("a").as_f64(), c.value("b").as_f64());
            Evaluation::feasible_multi(vec![1.0 + (15.0 - a) + b / 3.0, 1.0 + 2.0 * a])
        }))
        .unwrap();
    assert_eq!(report.len(), 24);
    assert_eq!(distinct(&report), 24);
    assert!(!report.pareto_front().is_empty());
}

#[test]
fn small_feasible_set_exhausts_gracefully_under_speculation() {
    let space = SearchSpace::builder().integer("x", 0, 5).build().unwrap();
    let report = Baco::builder(space)
        .budget(50)
        .doe_samples(2)
        .batch_size(4)
        .speculation_depth(3)
        .eval_threads(1)
        .seed(1)
        .build()
        .unwrap()
        .run_batched(&FnBlackBox::new(|c: &Configuration| {
            Evaluation::feasible(c.value("x").as_f64() + 1.0)
        }))
        .unwrap();
    assert_eq!(report.len(), 6, "only 6 configs exist");
    assert_eq!(report.best_value(), Some(1.0));
}

#[test]
fn speculation_depth_is_validated() {
    let err = Baco::builder(space())
        .speculation_depth(baco::tuner::MAX_SPECULATION_DEPTH + 1)
        .build()
        .unwrap_err();
    assert!(matches!(err, baco::Error::InvalidConfig(_)), "{err:?}");
    Baco::builder(space())
        .speculation_depth(baco::tuner::MAX_SPECULATION_DEPTH)
        .build()
        .unwrap();
}

fn signature(r: &TuningReport) -> Vec<(String, Option<u64>, bool)> {
    r.trials()
        .iter()
        .map(|t| (t.config.to_string(), t.value.map(f64::to_bits), t.feasible))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Depth-0 inertness: with `speculation_depth == 0` the batched engine
    /// must be bitwise identical to what it was before the pipeline existed
    /// — same trajectory as the sequential loop at q = 1, and the journal
    /// byte-stream stays format v2 with no speculative record kinds, so
    /// existing journals (and golden fixtures) replay untouched.
    #[test]
    fn depth0_is_bitwise_inert(seed in 0u64..500, q in 1usize..5) {
        let dir = temp_dir(&format!("inert-{seed}-{q}"));
        let path = dir.join("run.jsonl");
        let tuner = |journal: bool| {
            let mut b = Baco::builder(space())
                .budget(10)
                .doe_samples(4)
                .batch_size(q)
                .speculation_depth(0)
                .eval_threads(1)
                .seed(seed);
            if journal {
                b = b.journal_path(&path);
            }
            b.build().unwrap()
        };
        let batched = tuner(false).run_batched(&smooth()).unwrap();
        if q == 1 {
            let sequential = tuner(false).run(&smooth()).unwrap();
            prop_assert_eq!(signature(&sequential), signature(&batched));
        }
        tuner(true).run_batched(&smooth()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        prop_assert!(text.contains(r#""version":2"#), "depth-0 journals stay v2");
        prop_assert!(!text.contains(r#""anchors""#));
        prop_assert!(!text.contains(r#""t":"reconcile""#));
        prop_assert!(!text.contains("speculation_depth"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
