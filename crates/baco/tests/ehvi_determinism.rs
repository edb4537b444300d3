//! EHVI-path determinism and proposal-safety tests.
//!
//! The EHVI acquisition is a pure function of the replayed history — the
//! cell decomposition, the transformed front and (when no reference point
//! was configured) the inferred reference are all rebuilt from the journal,
//! never from live RNG draws. These tests pin that contract:
//!
//! * crash-and-resume at **every** record boundary reproduces the
//!   uninterrupted trajectory bit for bit, for m ∈ {2, 3} objectives and
//!   q ∈ {1, 4} batch sizes — covering both the exact 2-D staircase and the
//!   hypervolume-sliced 3-D decomposition, with and without a configured
//!   reference point (the m = 3 runs exercise `inferred_reference`);
//! * a property test holds EHVI to the same proposal-safety contract as
//!   ParEGO: every proposed configuration satisfies the known (CoT)
//!   constraints and is never a repeat of an already-evaluated one.

use baco::prelude::*;
use baco::{Baco, TuningReport};
use proptest::prelude::*;
use std::collections::HashSet;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("baco-ehvi-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A constrained mixed space: the CoT path is non-trivial, so "proposals
/// stay feasible" is a real assertion.
fn space() -> SearchSpace {
    SearchSpace::builder()
        .integer("a", 0, 15)
        .integer("b", 0, 15)
        .ordinal_log("tile", vec![1.0, 2.0, 4.0, 8.0])
        .known_constraint("a + b <= 24")
        .build()
        .unwrap()
}

/// Deterministic objective vector of width `m` with fractional structure
/// (interesting f64 bits), antagonistic pulls per component and a
/// hidden-constraint region (classifier path).
fn objectives(m: usize, cfg: &Configuration) -> Evaluation {
    let a = cfg.value("a").as_f64();
    let b = cfg.value("b").as_f64();
    let t = cfg.value("tile").as_f64();
    if a > 13.0 {
        return Evaluation::infeasible();
    }
    let mut v = vec![
        1.0 + (15.0 - a) + b / 3.0,       // falls with a
        1.0 + 2.0 * a + (t - 2.0).abs(),  // rises with a
    ];
    if m == 3 {
        v.push(1.0 + (b - 7.0).powi(2) / 5.0 + t.log2()); // pulls b inward
    }
    Evaluation::feasible_multi(v)
}

struct Obj(usize);
impl baco::tuner::BlackBox for Obj {
    fn evaluate(&self, cfg: &Configuration) -> Evaluation {
        objectives(self.0, cfg)
    }
}

fn signature(r: &TuningReport) -> Vec<(String, Option<Vec<u64>>, bool)> {
    r.trials()
        .iter()
        .map(|t| {
            (
                t.config.to_string(),
                t.objectives().map(|o| o.iter().map(|v| v.to_bits()).collect()),
                t.feasible,
            )
        })
        .collect()
}

/// EHVI is the builder default; `m = 2` runs with a configured reference
/// point, `m = 3` without one (forcing the history-inferred reference, which
/// must also replay bitwise).
fn tuner(m: usize, q: usize, journal: Option<&PathBuf>, resume: bool) -> Baco {
    let mut b = Baco::builder(space())
        .budget(14)
        .doe_samples(4)
        .seed(9 + m as u64)
        .batch_size(q)
        .objectives(m)
        .eval_threads(1) // deterministic completion order
        .resume(resume);
    if m == 2 {
        b = b.reference_point(vec![40.0, 50.0]);
    }
    if let Some(p) = journal {
        b = b.journal_path(p);
    }
    b.build().unwrap()
}

fn run(t: &Baco, m: usize, q: usize) -> TuningReport {
    if q == 1 {
        t.run(&Obj(m)).unwrap()
    } else {
        t.run_batched(&Obj(m)).unwrap()
    }
}

#[test]
fn ehvi_resume_at_every_boundary_is_bitwise() {
    let dir = temp_dir("resume");
    for m in [2usize, 3] {
        for q in [1usize, 4] {
            let reference = run(&tuner(m, q, None, false), m, q);
            assert_eq!(reference.len(), 14);

            let full_path = dir.join(format!("full-m{m}-q{q}.jsonl"));
            let journaled = run(&tuner(m, q, Some(&full_path), false), m, q);
            assert_eq!(
                signature(&reference),
                signature(&journaled),
                "journaling must not perturb the EHVI trajectory (m={m}, q={q})"
            );

            let bytes = std::fs::read(&full_path).unwrap();
            let boundaries: Vec<usize> = bytes
                .iter()
                .enumerate()
                .filter_map(|(i, &b)| (b == b'\n').then_some(i + 1))
                .collect();
            assert!(boundaries.len() > 14, "journal should have many records");
            let crash = dir.join(format!("crash-m{m}-q{q}.jsonl"));
            for &cut in &boundaries {
                std::fs::write(&crash, &bytes[..cut]).unwrap();
                let resumed = run(&tuner(m, q, Some(&crash), true), m, q);
                assert_eq!(
                    signature(&reference),
                    signature(&resumed),
                    "EHVI resume mismatch at byte {cut} (m={m}, q={q})"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Strategy choice must never change *what kind* of configuration is
/// proposed: under EHVI and ParEGO alike, every ask satisfies the known
/// constraints and never repeats an evaluated configuration.
fn proposals_are_feasible_and_unseen(strategy: MultiObjectiveStrategy, m: usize, seed: u64) {
    let space = space();
    let tuner = Baco::builder(space.clone())
        .budget(12)
        .doe_samples(4)
        .seed(seed)
        .objectives(m)
        .mo_strategy(strategy)
        .build()
        .unwrap();
    let mut session = Session::new(tuner).unwrap();
    let mut seen: HashSet<String> = HashSet::new();
    while let Some(cfg) = session.ask().unwrap() {
        assert!(
            space.satisfies_known(&cfg).unwrap(),
            "{strategy:?} proposed a CoT-infeasible config {cfg}"
        );
        assert!(
            seen.insert(cfg.to_string()),
            "{strategy:?} re-proposed the already-evaluated config {cfg}"
        );
        let eval = objectives(m, &cfg);
        session.try_report(cfg, eval).unwrap();
    }
    assert_eq!(seen.len(), 12, "{strategy:?} must spend the whole budget");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn ehvi_and_parego_propose_only_feasible_unseen_configs(
        seed in 0u64..1000,
        m in 2usize..4,
    ) {
        proposals_are_feasible_and_unseen(MultiObjectiveStrategy::Ehvi, m, seed);
        proposals_are_feasible_and_unseen(MultiObjectiveStrategy::ParEgo, m, seed);
    }
}
