//! Crash-and-resume determinism for the speculative evaluation pipeline.
//!
//! The pipeline's contract (see `tuner::speculate`): every RNG draw is
//! bracketed by a journaled propose record, reconciliation verdicts are pure
//! functions of the journaled anchors and landed trials, and with
//! `eval_threads <= 1` completion order equals submission order — so a run
//! resumed from **any** record boundary (and from any torn tail behind one)
//! reproduces the uninterrupted trajectory bit for bit. These tests pin that
//! across speculation_depth ∈ {0, 2} × batch_size ∈ {1, 4}:
//!
//! * depth 0 exercises the unchanged barriered engines (q = 1 routes through
//!   the sequential loop) — the pipeline's existence must be inert there;
//! * depth 2 exercises the pipeline proper, including speculative proposals
//!   in flight at the cut and recomputed flush verdicts after resume;
//! * torn-tail cuts land mid-way through anchored propose records — the
//!   torn-write crash signature with speculation in flight — and must be
//!   dropped, resuming bitwise from the last clean boundary.

use baco::prelude::*;
use baco::{Baco, TuningReport};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("baco-spec-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn space() -> SearchSpace {
    SearchSpace::builder()
        .integer("a", 0, 15)
        .integer("b", 0, 15)
        .ordinal_log("tile", vec![1.0, 2.0, 4.0, 8.0])
        .known_constraint("a + b <= 24")
        .build()
        .unwrap()
}

/// Deterministic objective with a hidden-constraint cliff next to the
/// optimum: drafts anchored on configurations inside the cliff get
/// surprised when the infeasible verdict lands, exercising the flush (and
/// cascade) paths of the reconciler under resume.
fn bb() -> FnBlackBox<impl Fn(&Configuration) -> Evaluation> {
    FnBlackBox::new(|c: &Configuration| {
        let (a, b) = (c.value("a").as_f64(), c.value("b").as_f64());
        let t = c.value("tile").as_f64();
        if a > 12.0 {
            return Evaluation::infeasible();
        }
        Evaluation::feasible(1.0 + (a - 11.0).powi(2) + (b - 4.0).powi(2) + (t - 2.0).abs() / 3.0)
    })
}

fn signature(r: &TuningReport) -> Vec<(String, Option<u64>, bool)> {
    r.trials()
        .iter()
        .map(|t| (t.config.to_string(), t.value.map(f64::to_bits), t.feasible))
        .collect()
}

fn tuner(depth: usize, q: usize, journal: Option<&PathBuf>, resume: bool) -> Baco {
    let mut b = Baco::builder(space())
        .budget(14)
        .doe_samples(4)
        .seed(17 + depth as u64)
        .batch_size(q)
        .speculation_depth(depth)
        .eval_threads(1) // deterministic completion order
        .resume(resume);
    if let Some(p) = journal {
        b = b.journal_path(p);
    }
    b.build().unwrap()
}

fn run(t: &Baco) -> TuningReport {
    t.run_batched(&bb()).unwrap()
}

#[test]
fn speculative_resume_at_every_boundary_is_bitwise() {
    let dir = temp_dir("resume");
    for depth in [0usize, 2] {
        for q in [1usize, 4] {
            let reference = run(&tuner(depth, q, None, false));
            assert_eq!(reference.len(), 14, "d={depth} q={q}");

            let full_path = dir.join(format!("full-d{depth}-q{q}.jsonl"));
            let journaled = run(&tuner(depth, q, Some(&full_path), false));
            assert_eq!(
                signature(&reference),
                signature(&journaled),
                "journaling must not perturb the trajectory (d={depth}, q={q})"
            );

            let bytes = std::fs::read(&full_path).unwrap();
            // Depth 0 must not leak the v3 format: headers stay v2 and no
            // speculative record kinds appear — byte-compatibility with
            // journals written before the pipeline existed.
            let text = std::str::from_utf8(&bytes).unwrap();
            if depth == 0 {
                assert!(text.contains(r#""version":2"#), "d=0 journals stay v2");
                assert!(!text.contains(r#""anchors""#));
                assert!(!text.contains(r#""t":"reconcile""#));
            } else {
                assert!(text.contains(r#""version":3"#));
                assert!(text.contains(r#""anchors""#), "pipeline never drafted");
            }

            let boundaries: Vec<usize> = bytes
                .iter()
                .enumerate()
                .filter_map(|(i, &b)| (b == b'\n').then_some(i + 1))
                .collect();
            assert!(boundaries.len() > 14, "journal should have many records");
            let crash = dir.join(format!("crash-d{depth}-q{q}.jsonl"));
            for (bi, &cut) in boundaries.iter().enumerate() {
                std::fs::write(&crash, &bytes[..cut]).unwrap();
                let resumed = run(&tuner(depth, q, Some(&crash), true));
                assert_eq!(
                    signature(&reference),
                    signature(&resumed),
                    "resume mismatch at byte {cut} (d={depth}, q={q})"
                );

                // Torn-tail cut: the next record half-written, no trailing
                // newline. Exercised for every *anchored propose* record —
                // the crash signature with speculative proposals in flight —
                // and the loader must drop the tail and resume bitwise.
                let line_end = boundaries.get(bi + 1).copied().unwrap_or(bytes.len());
                let next_line = &bytes[cut..line_end];
                if next_line.len() > 2
                    && next_line.starts_with(br#"{"t":"propose""#)
                    && next_line.windows(9).any(|w| w == br#""anchors""#)
                {
                    let torn = [&bytes[..cut], &next_line[..next_line.len() / 2]].concat();
                    std::fs::write(&crash, &torn).unwrap();
                    let resumed = run(&tuner(depth, q, Some(&crash), true));
                    assert_eq!(
                        signature(&reference),
                        signature(&resumed),
                        "torn-tail resume mismatch at byte {cut} (d={depth}, q={q})"
                    );
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A resumed speculative journal keeps journaling correctly: resume from a
/// mid-run cut, let the run finish, then load the completed journal and
/// resume again — the finished journal must replay to the same report
/// without touching the black box.
#[test]
fn resumed_speculative_journal_stays_consistent() {
    let dir = temp_dir("rejournal");
    let path = dir.join("run.jsonl");
    let reference = run(&tuner(2, 4, None, false));
    run(&tuner(2, 4, Some(&path), false));

    let bytes = std::fs::read(&path).unwrap();
    let boundaries: Vec<usize> = bytes
        .iter()
        .enumerate()
        .filter_map(|(i, &b)| (b == b'\n').then_some(i + 1))
        .collect();
    let cut = boundaries[boundaries.len() / 2];
    std::fs::write(&path, &bytes[..cut]).unwrap();

    let resumed = run(&tuner(2, 4, Some(&path), true));
    assert_eq!(signature(&reference), signature(&resumed));

    // The rewritten journal parses and replays as a finished run — twice.
    let panicky = FnBlackBox::new(|_: &Configuration| -> Evaluation {
        panic!("finished journal must not re-evaluate")
    });
    for _ in 0..2 {
        let replayed = tuner(2, 4, Some(&path), true)
            .run_batched(&panicky)
            .unwrap();
        assert_eq!(signature(&reference), signature(&replayed));
    }
    std::fs::remove_dir_all(&dir).ok();
}
