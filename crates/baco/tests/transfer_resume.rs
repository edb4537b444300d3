//! Crash-and-resume determinism for transfer-learning sessions.
//!
//! The transfer contract (see `tuner::transfer`): the donor set and corpus
//! snapshot are resolved **once**, when the journal is created, and recorded
//! in the header's `TransferDigest`. Resume adopts the digest — it reloads
//! exactly the recorded donors and verifies their bytes — rather than
//! re-scanning, so a corpus that keeps growing between the crash and the
//! resume never perturbs the trajectory. These tests pin that for
//! batch_size ∈ {1, 4}: a transfer run resumed from **every** record
//! boundary reproduces the uninterrupted run bit for bit, including when new
//! donor journals land in the corpus directory mid-crash.

use baco::journal::corpus;
use baco::prelude::*;
use baco::{Baco, TuningReport};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("baco-transfer-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn space() -> SearchSpace {
    SearchSpace::builder()
        .integer("a", 0, 15)
        .integer("b", 0, 15)
        .ordinal_log("tile", vec![1.0, 2.0, 4.0, 8.0])
        .build()
        .unwrap()
}

/// Deterministic quadratic bowl; the donors and the warm run share it, so
/// donor bests genuinely point at the optimum.
fn bb() -> FnBlackBox<impl Fn(&Configuration) -> Evaluation> {
    FnBlackBox::new(|c: &Configuration| {
        let (a, b) = (c.value("a").as_f64(), c.value("b").as_f64());
        let t = c.value("tile").as_f64();
        Evaluation::feasible(1.0 + (a - 11.0).powi(2) + (b - 4.0).powi(2) + (t - 2.0).abs() / 3.0)
    })
}

fn signature(r: &TuningReport) -> Vec<(String, Option<u64>, bool)> {
    r.trials()
        .iter()
        .map(|t| (t.config.to_string(), t.value.map(f64::to_bits), t.feasible))
        .collect()
}

/// A completed journaled run whose file seeds the corpus.
fn grow_corpus(dir: &Path, name: &str, seed: u64) {
    Baco::builder(space())
        .budget(10)
        .doe_samples(4)
        .seed(seed)
        .journal_path(dir.join(format!("{name}.jsonl")))
        .build()
        .unwrap()
        .run(&bb())
        .unwrap();
}

fn transfer_tuner(corpus: &Path, q: usize, journal: Option<&PathBuf>, resume: bool) -> Baco {
    let mut b = Baco::builder(space())
        .budget(14)
        .doe_samples(4)
        .seed(23)
        .batch_size(q)
        .eval_threads(1) // deterministic completion order
        .transfer(corpus)
        .resume(resume);
    if let Some(p) = journal {
        b = b.journal_path(p);
    }
    b.build().unwrap()
}

#[test]
fn transfer_resume_at_every_boundary_is_bitwise() {
    let dir = temp_dir("resume");
    let corpus_dir = dir.join("corpus");
    std::fs::create_dir_all(&corpus_dir).unwrap();
    grow_corpus(&corpus_dir, "donor-a", 101);
    grow_corpus(&corpus_dir, "donor-b", 202);

    for q in [1usize, 4] {
        let reference = transfer_tuner(&corpus_dir, q, None, false)
            .run_batched(&bb())
            .unwrap();
        assert_eq!(reference.len(), 14, "q={q}");

        let full_path = dir.join(format!("full-q{q}.jsonl"));
        let journaled = transfer_tuner(&corpus_dir, q, Some(&full_path), false)
            .run_batched(&bb())
            .unwrap();
        assert_eq!(
            signature(&reference),
            signature(&journaled),
            "journaling must not perturb the transfer trajectory (q={q})"
        );
        let text = std::fs::read_to_string(&full_path).unwrap();
        assert!(
            text.lines().next().unwrap().contains(r#""transfer""#),
            "q={q}: the header must record the transfer digest"
        );

        let bytes = std::fs::read(&full_path).unwrap();
        let boundaries: Vec<usize> = bytes
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| (b == b'\n').then_some(i + 1))
            .collect();
        assert!(boundaries.len() > 14, "journal should have many records");
        let crash = dir.join(format!("crash-q{q}.jsonl"));
        for (bi, &cut) in boundaries.iter().enumerate() {
            // Midway through the crash sweep the fleet keeps working: a new
            // donor lands in the corpus. Resume must stay on the adopted
            // digest and never notice.
            if bi == boundaries.len() / 2 {
                grow_corpus(&corpus_dir, &format!("donor-late-q{q}"), 303 + q as u64);
            }
            std::fs::write(&crash, &bytes[..cut]).unwrap();
            let resumed = transfer_tuner(&corpus_dir, q, Some(&crash), true)
                .run_batched(&bb())
                .unwrap();
            assert_eq!(
                signature(&reference),
                signature(&resumed),
                "transfer resume mismatch at byte {cut} (q={q})"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The warm-start actually engages on this corpus: the transfer run's DoE
/// leads with configurations near the donors' best, and the donors the run
/// reports match what the corpus holds.
#[test]
fn transfer_run_uses_the_corpus() {
    let dir = temp_dir("engage");
    grow_corpus(&dir, "donor-a", 404);
    grow_corpus(&dir, "donor-b", 505);
    let scanned = corpus::scan(&dir).unwrap();
    assert_eq!(scanned.entries.len(), 2);

    let tuner = transfer_tuner(&dir, 1, None, false);
    let warm = tuner.run(&bb()).unwrap();
    // Donor resolution happens when the run opens its determinism envelope,
    // so the counts are visible once the run exists.
    let (donors, pooled) = tuner.transfer_donors().expect("transfer is on");
    assert_eq!(donors, 2);
    assert_eq!(
        pooled,
        scanned.entries.iter().map(|e| e.trials).sum::<usize>()
    );

    let cold = Baco::builder(space())
        .budget(14)
        .doe_samples(4)
        .seed(23)
        .eval_threads(1)
        .build()
        .unwrap()
        .run(&bb())
        .unwrap();
    // Same evaluation *set* in the DoE phase (re-ranking permutes, never
    // replaces)…
    let mut cold_doe: Vec<String> = cold.trials()[..4]
        .iter()
        .map(|t| t.config.to_string())
        .collect();
    let mut warm_doe: Vec<String> = warm.trials()[..4]
        .iter()
        .map(|t| t.config.to_string())
        .collect();
    let cold_order: Vec<String> = cold_doe.clone();
    let warm_order: Vec<String> = warm_doe.clone();
    cold_doe.sort();
    warm_doe.sort();
    assert_eq!(cold_doe, warm_doe);
    // …but re-ranked toward the donors' bests: with two 10-trial donors on
    // the same bowl, the deterministic proximity sort must actually move
    // something.
    assert_ne!(cold_order, warm_order, "re-ranking never engaged");
    std::fs::remove_dir_all(&dir).ok();
}
