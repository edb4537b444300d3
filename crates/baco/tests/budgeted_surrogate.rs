//! Budget-bounded surrogate mode (subset-of-data active sets + trust
//! regions): the `budget >= n` bitwise-identity guarantee, resume-anywhere
//! equivalence for budgeted journals, starvation/degenerate-region
//! regressions, and the bounded-cache-memory guarantee for long sessions.

use baco::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("baco-budget-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn mixed_space() -> SearchSpace {
    SearchSpace::builder()
        .integer("a", 0, 15)
        .integer("b", 0, 15)
        .ordinal_log("tile", vec![1.0, 2.0, 4.0, 8.0])
        .categorical("mode", vec!["seq", "par"])
        .known_constraint("a + b <= 26")
        .build()
        .unwrap()
}

/// Deterministic objective with a hidden-constraint region, shared by the
/// single-objective runs below.
fn objective(cfg: &Configuration) -> Evaluation {
    let a = cfg.value("a").as_f64();
    let b = cfg.value("b").as_f64();
    let t = cfg.value("tile").as_f64();
    if a > 13.0 {
        return Evaluation::infeasible();
    }
    let par_bonus = if cfg.value("mode").as_str() == "par" {
        0.0
    } else {
        1.5
    };
    Evaluation::feasible(
        (1.0 + (a - 9.0).powi(2) + (b - 4.0).powi(2)) / 3.0 + (t.log2() - 1.0).abs() + par_bonus,
    )
}

/// Two competing objectives over the same space (latency-vs-area flavored).
fn objective2(cfg: &Configuration) -> Evaluation {
    let a = cfg.value("a").as_f64();
    let b = cfg.value("b").as_f64();
    if a > 13.0 {
        return Evaluation::infeasible();
    }
    Evaluation::feasible_multi(vec![
        1.0 + (a - 12.0).powi(2) + 0.3 * b,
        1.0 + a * 0.5 + (b - 11.0).powi(2),
    ])
}

struct Obj;
impl baco::tuner::BlackBox for Obj {
    fn evaluate(&self, cfg: &Configuration) -> Evaluation {
        objective(cfg)
    }
}

struct Obj2;
impl baco::tuner::BlackBox for Obj2 {
    fn evaluate(&self, cfg: &Configuration) -> Evaluation {
        objective2(cfg)
    }
}

fn signature(r: &TuningReport) -> Vec<(String, Option<Vec<u64>>, bool)> {
    r.trials()
        .iter()
        .map(|t| {
            (
                t.config.to_string(),
                t.objectives()
                    .map(|o| o.iter().map(|v| v.to_bits()).collect()),
                t.feasible,
            )
        })
        .collect()
}

fn builder(seed: u64, q: usize, objectives: usize) -> BacoBuilder {
    Baco::builder(mixed_space())
        .budget(14)
        .doe_samples(4)
        .seed(seed)
        .batch_size(q)
        .eval_threads(1)
        .objectives(objectives)
}

fn run(t: &Baco, q: usize, objectives: usize) -> TuningReport {
    if objectives > 1 {
        if q == 1 {
            t.run(&Obj2).unwrap()
        } else {
            t.run_batched(&Obj2).unwrap()
        }
    } else if q == 1 {
        t.run(&Obj).unwrap()
    } else {
        t.run_batched(&Obj).unwrap()
    }
}

// ── budget >= n: bitwise identity with the exact path ───────────────────────

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A surrogate budget at least as large as the history never activates:
    /// the trajectory is bitwise identical to the unbudgeted exact path, for
    /// the sequential and q=4 batched loops, single- and multi-objective.
    #[test]
    fn budget_at_least_n_is_bitwise_identical(
        seed in 0u64..10_000,
        q_idx in 0usize..2,
        objectives in 1usize..3,
    ) {
        let q = [1usize, 4][q_idx];
        let exact = run(&builder(seed, q, objectives).build().unwrap(), q, objectives);
        // The evaluation budget (14) bounds the feasible history, so any
        // surrogate budget >= 14 must leave every round on the exact path.
        for surrogate_budget in [14usize, 100] {
            let budgeted = run(
                &builder(seed, q, objectives)
                    .surrogate_budget(surrogate_budget)
                    .build()
                    .unwrap(),
                q,
                objectives,
            );
            prop_assert!(
                signature(&exact) == signature(&budgeted),
                "surrogate_budget={} must be inert (seed={}, q={}, m={})",
                surrogate_budget, seed, q, objectives
            );
        }
    }
}

// ── resume-anywhere equivalence for budgeted journals ───────────────────────

fn budgeted_tuner(seed: u64, q: usize, journal: Option<&Path>, resume: bool) -> Baco {
    let mut b = Baco::builder(mixed_space())
        .budget(18)
        .doe_samples(4)
        .seed(seed)
        .batch_size(q)
        .eval_threads(1)
        .surrogate_budget(8) // well below the feasible history: active rounds
        .resume(resume);
    if let Some(p) = journal {
        b = b.journal_path(p);
    }
    b.build().unwrap()
}

/// A run whose later rounds all take the budgeted active-set/trust-region
/// path resumes bitwise from *every* record boundary (and torn mid-record
/// cuts), exactly like the exact path — the trust region is a deterministic
/// fold over the replayed history and the active-set draws sit inside the
/// journaled RNG brackets, so nothing about the budgeted state needs its own
/// journal records.
#[test]
fn budgeted_resume_at_every_boundary_matches_uninterrupted() {
    let dir = temp_dir("resume");
    for q in [1usize, 4] {
        let seed = 5u64;
        let full_path = dir.join(format!("full-q{q}.jsonl"));
        let mk_run = |t: &Baco| {
            if q == 1 {
                t.run(&Obj).unwrap()
            } else {
                t.run_batched(&Obj).unwrap()
            }
        };
        let reference = mk_run(&budgeted_tuner(seed, q, None, false));
        let journaled = mk_run(&budgeted_tuner(seed, q, Some(&full_path), false));
        assert_eq!(
            signature(&reference),
            signature(&journaled),
            "journaling must not perturb the budgeted trajectory (q={q})"
        );

        let bytes = std::fs::read(&full_path).unwrap();
        let boundaries: Vec<usize> = bytes
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| (b == b'\n').then_some(i + 1))
            .collect();
        assert!(boundaries.len() > 18, "journal should have many records");
        let crash_path = dir.join(format!("crash-q{q}.jsonl"));
        let mut cuts = boundaries.clone();
        cuts.extend(
            boundaries
                .iter()
                .filter_map(|&b| (b + 5 < bytes.len()).then_some(b + 5)),
        );
        for cut in cuts {
            std::fs::write(&crash_path, &bytes[..cut]).unwrap();
            let resumed = mk_run(&budgeted_tuner(seed, q, Some(&crash_path), true));
            assert_eq!(
                signature(&reference),
                signature(&resumed),
                "budgeted resume mismatch at byte {cut} (q={q})"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ── starvation / degenerate-region regressions ──────────────────────────────

/// A budgeted run on a small exhaustible space evaluates *every*
/// configuration exactly once: the trust region biasing candidate generation
/// must never starve the seen-set de-duplication, even as the region shrinks.
#[test]
fn budgeted_run_exhausts_small_space_without_starving() {
    let space = SearchSpace::builder().integer("x", 0, 11).build().unwrap();
    let report = Baco::builder(space)
        .budget(12)
        .doe_samples(3)
        .seed(2)
        .surrogate_budget(8)
        .build()
        .unwrap()
        .run(&FnBlackBox::new(|c: &Configuration| {
            Evaluation::feasible(c.value("x").as_f64() + 1.0)
        }))
        .unwrap();
    assert_eq!(report.len(), 12, "all 12 configs must be evaluated");
    let uniq: HashSet<String> = report
        .trials()
        .iter()
        .map(|t| t.config.to_string())
        .collect();
    assert_eq!(uniq.len(), 12, "no configuration may repeat");
}

/// A constant objective means no round ever improves, so trust-region
/// failures accumulate and the region shrinks round after round; proposals
/// must keep flowing (the in-region pool falls back to global draws) and the
/// run must still cover its whole budget with distinct points.
#[test]
fn shrinking_region_under_constant_objective_keeps_proposing() {
    let space = SearchSpace::builder()
        .integer("x", 0, 40)
        .integer("y", 0, 40)
        .build()
        .unwrap();
    let report = Baco::builder(space)
        .budget(30)
        .doe_samples(4)
        .seed(7)
        .surrogate_budget(8)
        .build()
        .unwrap()
        .run(&FnBlackBox::new(|_: &Configuration| {
            Evaluation::feasible(1.0)
        }))
        .unwrap();
    assert_eq!(report.len(), 30);
    let uniq: HashSet<String> = report
        .trials()
        .iter()
        .map(|t| t.config.to_string())
        .collect();
    assert_eq!(uniq.len(), 30, "no configuration may repeat");
}

// ── bounded cache memory for long-lived budgeted loops ──────────────────────

/// With a budget, the surrogate cache's level tables are clamped to the
/// active set: cache memory at n = 40 and at n = 120 observations stays under
/// the cap the representation implies — level codes for at most `b` points,
/// and per dimension at most `min(b, |dom_k|)` levels with their `L × L`
/// distance table. Between those points it moves with how many distinct
/// values the active set holds. Without a budget the same loop's cache keeps
/// growing, by one code per dimension per point.
#[test]
fn budgeted_cache_memory_is_bounded() {
    let space = mixed_space();
    let grow = |surrogate_budget: Option<usize>| -> Vec<usize> {
        let mut b = Baco::builder(space.clone())
            .budget(200)
            .doe_samples(4)
            .seed(3);
        if let Some(s) = surrogate_budget {
            b = b.surrogate_budget(s);
        }
        let tuner = b.build().unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let mut report = TuningReport::new("mem");
        let mut seen: HashSet<Configuration> = HashSet::new();
        let mut cache = tuner.new_cache();
        let mut sizes = Vec::new();
        for n in 1..=120usize {
            let cfg = tuner
                .recommend_batch(&mut rng, &report, &seen, &mut cache, 1)
                .unwrap()
                .pop()
                .expect("space is large enough");
            let eval = objective(&cfg);
            seen.insert(cfg.clone());
            report.push(baco::tuner::Trial {
                config: cfg,
                value: eval.value(),
                extra: Vec::new(),
                feasible: eval.is_feasible(),
                eval_time: Default::default(),
                tuner_time: Default::default(),
            });
            if n == 40 || n == 120 {
                sizes.push(cache.memory_bytes());
            }
        }
        sizes
    };

    let budget = 16;
    let budgeted = grow(Some(budget));
    // A level keeps its feature value: an enum over an `f64`, a category
    // index or a permutation's `Vec<u8>`, at most 32 bytes inline on 64-bit
    // targets. This space has no permutation, so no level owns heap memory.
    const LEVEL_VALUE_BYTES: usize = 32;
    let levels: Vec<usize> = space
        .params()
        .iter()
        .map(|p| budget.min(p.domain_size().expect("discrete space") as usize))
        .collect();
    let cap = budget * levels.len() * std::mem::size_of::<u32>()
        + levels
            .iter()
            .map(|l| l * l * std::mem::size_of::<f64>() + l * LEVEL_VALUE_BYTES)
            .sum::<usize>();
    for (n, bytes) in [40, 120].into_iter().zip(&budgeted) {
        assert!(
            *bytes <= cap,
            "budgeted cache at n={n}: {bytes} bytes, cap {cap}"
        );
    }
    let exact = grow(None);
    assert!(
        exact[1] > exact[0],
        "exact cache grows with history (sanity check): {exact:?}"
    );
}
