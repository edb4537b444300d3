//! Persistence-layer integration tests: codec round-trips, resume-anywhere
//! bitwise equivalence for the closed loops (q ∈ {1, 4}) and the open-loop
//! session, and parser robustness against corrupt/truncated/garbage input.

use baco::journal::{decode_config, encode_config, Journal, Record, TrialRec};
use baco::prelude::*;
use baco::tuner::Session;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("baco-journal-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn mixed_space() -> SearchSpace {
    SearchSpace::builder()
        .integer("a", 0, 15)
        .integer("b", 0, 15)
        .ordinal_log("tile", vec![1.0, 2.0, 4.0, 8.0])
        .categorical("mode", vec!["seq", "par"])
        .permutation("order", 3)
        .known_constraint("a + b <= 26")
        .build()
        .unwrap()
}

/// Deterministic objective with fractional structure (interesting f64 bits)
/// and a hidden-constraint region (exercises the classifier path).
fn objective(cfg: &Configuration) -> Evaluation {
    let a = cfg.value("a").as_f64();
    let b = cfg.value("b").as_f64();
    let t = cfg.value("tile").as_f64();
    if a > 13.0 {
        return Evaluation::infeasible();
    }
    let p = cfg.value("order");
    let p = p.as_permutation();
    let perm_cost = p
        .iter()
        .enumerate()
        .map(|(i, &e)| (i as f64 - e as f64).abs())
        .sum::<f64>();
    let par_bonus = if cfg.value("mode").as_str() == "par" {
        0.0
    } else {
        1.5
    };
    Evaluation::feasible(
        (1.0 + (a - 9.0).powi(2) + (b - 4.0).powi(2)) / 3.0
            + (t.log2() - 1.0).abs()
            + perm_cost
            + par_bonus,
    )
}

struct Obj;
impl baco::tuner::BlackBox for Obj {
    fn evaluate(&self, cfg: &Configuration) -> Evaluation {
        objective(cfg)
    }
}

fn tuner(seed: u64, q: usize, journal: Option<&Path>, resume: bool) -> Baco {
    let mut b = Baco::builder(mixed_space())
        .budget(14)
        .doe_samples(4)
        .seed(seed)
        .batch_size(q)
        .eval_threads(1) // deterministic completion order
        .resume(resume);
    if let Some(p) = journal {
        b = b.journal_path(p);
    }
    b.build().unwrap()
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

fn run(t: &Baco, q: usize) -> TuningReport {
    if q == 1 {
        t.run(&Obj).unwrap()
    } else {
        t.run_batched(&Obj).unwrap()
    }
}

/// Byte offsets of every line boundary (positions just after each '\n').
fn line_boundaries(bytes: &[u8]) -> Vec<usize> {
    bytes
        .iter()
        .enumerate()
        .filter_map(|(i, &b)| (b == b'\n').then_some(i + 1))
        .collect()
}

// ── codec round-trips ───────────────────────────────────────────────────────

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any sampled configuration and any objective *vector* — any width,
    /// finite or not in any component — survives the JSONL line round trip
    /// exactly, bit for bit.
    #[test]
    fn trial_record_roundtrip_is_exact(
        seed in 0u64..1_000_000,
        kind in 0u8..5,
        extra_width in 0usize..4,
        weird_component in 0u8..4,
    ) {
        let space = mixed_space();
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = space.sample_dense(&mut rng);
        let value = match kind {
            0 => None,
            1 => Some(f64::NAN),
            2 => Some(f64::INFINITY),
            3 => Some(f64::NEG_INFINITY),
            _ => Some((seed as f64 / 3.0 - 1234.5).powi(3) * 1e-7),
        };
        // Format-v2 vectors require a measured primary objective.
        let extra: Vec<f64> = match value {
            None => Vec::new(),
            Some(_) => (0..extra_width)
                .map(|i| {
                    if i == 1 {
                        // A non-finite interior component must round-trip too.
                        match weird_component {
                            0 => f64::NAN,
                            1 => f64::INFINITY,
                            2 => f64::NEG_INFINITY,
                            _ => -0.0,
                        }
                    } else {
                        (seed as f64 * 0.37 + i as f64).sin() * 1e9
                    }
                })
                .collect(),
        };
        let rec = TrialRec {
            index: (seed % 7) as usize,
            config: cfg.clone(),
            value,
            extra,
            feasible: kind != 0,
            eval_ns: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            tuner_ns: u64::MAX - seed,
        };
        let line = Record::Trial(rec.clone()).to_line();
        let parsed = Record::parse_line(&space, &line)
            .map_err(|e| TestCaseError::fail(format!("parse failed: {e}")))?;
        let Record::Trial(back) = parsed else {
            return Err(TestCaseError::fail("wrong record kind"));
        };
        prop_assert_eq!(&back.config, &rec.config);
        prop_assert_eq!(back.index, rec.index);
        prop_assert_eq!(back.feasible, rec.feasible);
        prop_assert_eq!(back.eval_ns, rec.eval_ns);
        prop_assert_eq!(back.tuner_ns, rec.tuner_ns);
        match (rec.value, back.value) {
            (Some(a), Some(b)) if a.is_nan() => prop_assert!(b.is_nan()),
            (a, b) => prop_assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits)),
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        prop_assert_eq!(bits(&back.extra), bits(&rec.extra));
        // Single-objective records must keep the exact v1 wire shape.
        if rec.extra.is_empty() {
            prop_assert!(!line.contains("\"values\""), "v1 shape regressed: {}", line);
        }
        // The standalone config codec agrees.
        let cfg2 = decode_config(&space, &encode_config(&cfg))
            .map_err(TestCaseError::fail)?;
        prop_assert_eq!(cfg2, cfg);
    }
}

// ── resume-anywhere equivalence, closed loops ───────────────────────────────

/// Interrupting a journaled run at *every* record boundary — and at torn
/// mid-record byte offsets — then resuming must reproduce the uninterrupted
/// trajectory bit for bit, for the sequential loop and the q=4 batched loop.
#[test]
fn resume_at_every_boundary_matches_uninterrupted() {
    let dir = temp_dir("equiv");
    for q in [1usize, 4] {
        for seed in [3u64, 11] {
            let full_path = dir.join(format!("full-q{q}-s{seed}.jsonl"));
            let reference = run(&tuner(seed, q, None, false), q);
            let journaled = run(&tuner(seed, q, Some(&full_path), false), q);
            assert_eq!(
                signature(&reference),
                signature(&journaled),
                "journaling must not perturb the trajectory (q={q}, seed={seed})"
            );

            let bytes = std::fs::read(&full_path).unwrap();
            let boundaries = line_boundaries(&bytes);
            assert!(boundaries.len() > 14, "journal should have many records");
            let crash_path = dir.join(format!("crash-q{q}-s{seed}.jsonl"));
            // Skip boundary 0 (inside/before header): a run that never wrote
            // a full header has nothing to resume.
            let mut cuts: Vec<usize> = boundaries.clone();
            // Torn cuts: a few bytes into the line after each boundary.
            cuts.extend(
                boundaries
                    .iter()
                    .filter_map(|&b| (b + 5 < bytes.len()).then_some(b + 5)),
            );
            for cut in cuts {
                std::fs::write(&crash_path, &bytes[..cut]).unwrap();
                let resumed = run(&tuner(seed, q, Some(&crash_path), true), q);
                assert_eq!(
                    signature(&reference),
                    signature(&resumed),
                    "resume mismatch at byte {cut} (q={q}, seed={seed})"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A journal of a finished run resumes to the same report without invoking
/// the black box at all. The first run resumes too: with no journal on disk
/// it starts fresh.
#[test]
fn finished_journal_resumes_without_reevaluating() {
    struct Exploding;
    impl baco::tuner::BlackBox for Exploding {
        fn evaluate(&self, _: &Configuration) -> Evaluation {
            panic!("resume of a finished run must not evaluate");
        }
    }
    let dir = temp_dir("noop");
    let path = dir.join("done.jsonl");
    let t = tuner(7, 1, Some(&path), true);
    let report = t.run(&Obj).unwrap();
    let resumed = t.run(&Exploding).unwrap();
    assert_eq!(signature(&report), signature(&resumed));
    std::fs::remove_dir_all(&dir).ok();
}

// ── resume-anywhere equivalence, open loop ──────────────────────────────────

/// A strictly-sequential ask/report driver resumed from any record boundary
/// reproduces the uninterrupted session trajectory bit for bit.
#[test]
fn session_resume_at_every_boundary_matches_uninterrupted() {
    let dir = temp_dir("session-equiv");
    let path = dir.join("session.jsonl");
    let mk = |journal: bool, resume: bool| {
        let mut b = Baco::builder(mixed_space())
            .budget(12)
            .doe_samples(3)
            .seed(5)
            .resume(resume);
        if journal {
            b = b.journal_path(&path);
        }
        b.build().unwrap()
    };
    let drive = |s: &mut Session| {
        while let Some(cfg) = s.ask().unwrap() {
            let eval = objective(&cfg);
            s.try_report(cfg, eval).unwrap();
        }
    };

    let mut reference = Session::new(mk(false, false)).unwrap();
    drive(&mut reference);
    let reference = reference.into_report();

    let mut journaled = Session::new(mk(true, false)).unwrap();
    drive(&mut journaled);
    assert_eq!(signature(&reference), signature(&journaled.into_report()));

    let bytes = std::fs::read(&path).unwrap();
    let crash = dir.join("crash.jsonl");
    for cut in line_boundaries(&bytes) {
        std::fs::write(&crash, &bytes[..cut]).unwrap();
        let tuner = Baco::builder(mixed_space())
            .budget(12)
            .doe_samples(3)
            .seed(5)
            .journal_path(&crash)
            .resume(true)
            .build()
            .unwrap();
        let mut resumed = Session::new(tuner).unwrap();
        drive(&mut resumed);
        assert_eq!(
            signature(&reference),
            signature(&resumed.into_report()),
            "session resume mismatch at byte {cut}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Out-of-order batched reporting: a crash mid-round loses only the
/// unreported evaluations; the resumed session keeps every reported one,
/// never re-proposes an evaluated configuration, and still reaches budget.
#[test]
fn session_batch_crash_resume_is_lossless_and_duplicate_free() {
    let dir = temp_dir("session-batch");
    let path = dir.join("batch.jsonl");
    let mk = |resume: bool| {
        Baco::builder(mixed_space())
            .budget(16)
            .doe_samples(4)
            .seed(9)
            .journal_path(&path)
            .resume(resume)
            .build()
            .unwrap()
    };
    let mut s = Session::new(mk(false)).unwrap();
    // Two full rounds, then a round reported only partially, in reverse.
    for _ in 0..2 {
        let round = s.suggest_batch(4).unwrap();
        for cfg in round {
            let e = objective(&cfg);
            s.try_report(cfg, e).unwrap();
        }
    }
    let round = s.suggest_batch(4).unwrap();
    assert_eq!(round.len(), 4);
    for cfg in round.into_iter().rev().take(2) {
        let e = objective(&cfg);
        s.try_report(cfg, e).unwrap();
    }
    let reported_so_far = signature(s.history());
    assert_eq!(reported_so_far.len(), 10);
    drop(s); // crash

    let mut resumed = Session::new(mk(true)).unwrap();
    assert_eq!(
        signature(resumed.history()),
        reported_so_far,
        "no reported result lost"
    );
    loop {
        let round = resumed.suggest_batch(4).unwrap();
        if round.is_empty() {
            break;
        }
        for cfg in round {
            let e = objective(&cfg);
            resumed.try_report(cfg, e).unwrap();
        }
    }
    let finished = resumed.into_report();
    assert_eq!(finished.len(), 16);
    let uniq: std::collections::HashSet<String> = finished
        .trials()
        .iter()
        .map(|t| t.config.to_string())
        .collect();
    assert_eq!(uniq.len(), 16, "resume must not re-evaluate configurations");
    std::fs::remove_dir_all(&dir).ok();
}

// ── robustness: corrupt journals error, never panic ─────────────────────────

fn sample_journal_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let dir = temp_dir("fuzz-src");
        let path = dir.join("src.jsonl");
        run(&tuner(1, 4, Some(&path), false), 4);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        bytes
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary single-byte corruption (or truncation) of a real journal
    /// must produce `Ok` or a typed `Err` — never a panic.
    #[test]
    fn corrupt_journal_never_panics(pos in 0usize..100_000, byte in 0u8..=255u8, action in 0u8..3) {
        let space = mixed_space();
        let mut bytes = sample_journal_bytes().to_vec();
        let pos = pos % bytes.len();
        match action {
            0 => bytes[pos] = byte,                 // overwrite
            1 => bytes.truncate(pos),               // truncate
            _ => bytes.insert(pos, byte),           // insert
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Journal::from_bytes(&bytes, &space).map(|j| j.trials.len())
        }));
        prop_assert!(outcome.is_ok(), "parser panicked on mutated journal");
    }

    /// Pure garbage never panics the parser.
    #[test]
    fn garbage_bytes_never_panic(seed in 0u64..1_000_000, len in 0usize..4096) {
        let space = mixed_space();
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..=255)).collect();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Journal::from_bytes(&bytes, &space).is_ok()
        }));
        prop_assert!(outcome.is_ok(), "parser panicked on garbage");
    }
}

/// Fixed regression cases for the crash-mid-write signature: a torn final
/// record is dropped and flagged; interior corruption is a typed error.
#[test]
fn torn_and_corrupt_journal_regressions() {
    let space = mixed_space();
    let bytes = sample_journal_bytes().to_vec();
    let full = Journal::from_bytes(&bytes, &space).unwrap();
    assert!(!full.torn_tail);
    assert_eq!(full.clean_len as usize, bytes.len());

    // Torn final record: cut mid-way through the last line.
    let torn = &bytes[..bytes.len() - 7];
    let j = Journal::from_bytes(torn, &space).unwrap();
    assert!(
        j.torn_tail,
        "mid-line cut must be recognized as a torn tail"
    );
    assert!(j.trials.len() + 1 >= full.trials.len());
    assert!(j.clean_len < torn.len() as u64);

    // A complete final line without its newline is NOT torn (the fsync'd
    // write made it; only the separator is missing).
    let no_newline = &bytes[..bytes.len() - 1];
    let j = Journal::from_bytes(no_newline, &space).unwrap();
    assert!(!j.torn_tail);
    assert_eq!(j.trials.len(), full.trials.len());

    // Empty file.
    assert!(matches!(
        Journal::from_bytes(b"", &space),
        Err(Error::JournalCorrupt { line: 0, .. })
    ));

    // Garbage interior line: typed error naming the line.
    let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    let garbage = b"{\"t\":\"trial\",CORRUPT".as_slice();
    lines[2] = garbage;
    let patched = lines.join(&b'\n');
    match Journal::from_bytes(&patched, &space) {
        Err(Error::JournalCorrupt { line, .. }) => assert_eq!(line, 3),
        other => panic!("expected JournalCorrupt, got {other:?}"),
    }

    // Out-of-sequence trial index.
    let header = String::from_utf8(bytes.split(|&b| b == b'\n').next().unwrap().to_vec()).unwrap();
    let fake = format!(
        "{header}\n{{\"t\":\"trial\",\"i\":5,\"config\":{{\"a\":1,\"b\":1,\"tile\":2,\"mode\":\"seq\",\"order\":[0,1,2]}},\"value\":1.0,\"feasible\":true,\"eval_ns\":\"1\",\"tuner_ns\":\"1\"}}\n"
    );
    assert!(matches!(
        Journal::from_bytes(fake.as_bytes(), &space),
        Err(Error::JournalCorrupt { line: 2, .. })
    ));

    // Truncating *inside* the header leaves nothing to recover.
    assert!(Journal::from_bytes(&bytes[..10], &space).is_err());
}

/// Regression: a crash can tear off *exactly the final newline* of an
/// otherwise complete record. The loader keeps that record, and the
/// resuming writer must restore the separator — resuming from such a
/// journal must leave it loadable (and the trajectory intact), not fuse
/// the resume marker onto the previous line.
#[test]
fn resume_after_losing_only_the_final_newline_keeps_journal_valid() {
    let dir = temp_dir("newline");
    let path = dir.join("run.jsonl");
    let reference = run(&tuner(5, 1, None, false), 1);
    run(&tuner(5, 1, Some(&path), false), 1);

    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(*bytes.last().unwrap(), b'\n');
    std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();

    // Resume (a no-op continuation here: the run was complete) …
    let resumed = run(&tuner(5, 1, Some(&path), true), 1);
    assert_eq!(signature(&reference), signature(&resumed));
    // … and the journal must still parse afterwards, repeatedly.
    for _ in 0..2 {
        let j = Journal::load(&path, &mixed_space()).expect("journal stays line-delimited");
        assert_eq!(j.trials.len(), reference.len());
        let again = run(&tuner(5, 1, Some(&path), true), 1);
        assert_eq!(signature(&reference), signature(&again));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Backward compatibility: a format-v1 journal (written before value
/// vectors existed) still loads, and a run resumed from a mid-run v1 cut
/// reproduces the uninterrupted trajectory bit for bit. The committed
/// golden fixtures exercise real v1 files; this test covers the version
/// boundary explicitly by downgrading a fresh journal's header to v1 (a v1
/// single-objective journal is byte-identical to a v2 one apart from the
/// version field).
#[test]
fn v1_journal_loads_and_resumes_bitwise() {
    let dir = temp_dir("v1-compat");
    let path = dir.join("run.jsonl");
    let reference = run(&tuner(4, 1, None, false), 1);
    run(&tuner(4, 1, Some(&path), false), 1);

    let bytes = std::fs::read(&path).unwrap();
    let text = String::from_utf8(bytes).unwrap();
    assert!(text.starts_with(r#"{"t":"header","format":"baco-journal","version":2"#));
    let v1 = text.replacen(r#""version":2"#, r#""version":1"#, 1);

    // Loads with every trial intact …
    let journal = Journal::from_bytes(v1.as_bytes(), &mixed_space()).unwrap();
    assert_eq!(journal.header.version, 1);
    assert_eq!(journal.trials.len(), reference.len());
    assert!(journal.trials.iter().all(|t| t.extra.is_empty()));

    // … and resumes bitwise from a mid-run cut (the resumed writer appends
    // v2-shaped records behind the v1 header — identical in shape for
    // single-objective runs, so the file stays consistent).
    let boundaries = line_boundaries(v1.as_bytes());
    let crash = dir.join("crash.jsonl");
    for cut in [
        boundaries[boundaries.len() / 2],
        *boundaries.last().unwrap(),
    ] {
        std::fs::write(&crash, &v1.as_bytes()[..cut]).unwrap();
        let resumed = run(&tuner(4, 1, Some(&crash), true), 1);
        assert_eq!(
            signature(&reference),
            signature(&resumed),
            "v1 resume mismatch at byte {cut}"
        );
        Journal::load(&crash, &mixed_space()).expect("journal stays loadable after v1 resume");
    }

    // A future version is refused, not misread.
    let v9 = text.replacen(r#""version":2"#, r#""version":9"#, 1);
    assert!(matches!(
        Journal::from_bytes(v9.as_bytes(), &mixed_space()),
        Err(Error::JournalCorrupt { line: 1, .. })
    ));
    std::fs::remove_dir_all(&dir).ok();
}

/// A journaled multi-objective run writes format-v2 vector records that
/// resume bitwise from any record boundary, like the scalar loops.
#[test]
fn multi_objective_journal_resumes_bitwise() {
    let dir = temp_dir("mo-resume");
    let path = dir.join("mo.jsonl");
    struct MoObj;
    impl baco::tuner::BlackBox for MoObj {
        fn evaluate(&self, cfg: &Configuration) -> Evaluation {
            let a = cfg.value("a").as_f64();
            let b = cfg.value("b").as_f64();
            if a > 13.0 {
                return Evaluation::infeasible();
            }
            Evaluation::feasible_multi(vec![1.0 + (15.0 - a) + b * 0.1, 1.0 + a * 2.0])
        }
    }
    let mk = |journal: Option<&Path>, resume: bool| {
        let mut b = Baco::builder(mixed_space())
            .budget(12)
            .doe_samples(4)
            .seed(9)
            .objectives(2)
            .reference_point(vec![50.0, 50.0])
            .resume(resume);
        if let Some(p) = journal {
            b = b.journal_path(p);
        }
        b.build().unwrap()
    };
    let reference = mk(None, false).run(&MoObj).unwrap();
    mk(Some(&path), false).run(&MoObj).unwrap();

    let bytes = std::fs::read(&path).unwrap();
    assert!(
        String::from_utf8_lossy(&bytes).contains(r#""values":["#),
        "multi-objective journals must carry vector records"
    );
    let crash = dir.join("crash.jsonl");
    for cut in line_boundaries(&bytes) {
        std::fs::write(&crash, &bytes[..cut]).unwrap();
        let resumed = mk(Some(&crash), true).run(&MoObj).unwrap();
        assert_eq!(
            signature(&reference),
            signature(&resumed),
            "multi-objective resume mismatch at byte {cut}"
        );
    }
    // The replayed report rebuilds the same Pareto front and hypervolume.
    let journal = Journal::load(&path, &mixed_space()).unwrap();
    let mut replayed = TuningReport::new("replay");
    replayed.set_reference_point(Some(vec![50.0, 50.0]));
    for tr in &journal.trials {
        replayed.push(tr.to_trial());
    }
    assert_eq!(
        replayed.hypervolume_vs_ref().map(f64::to_bits),
        reference.hypervolume_vs_ref().map(f64::to_bits)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Resume refuses to continue under a different determinism envelope.
#[test]
fn resume_rejects_envelope_mismatches() {
    let dir = temp_dir("envelope");
    let path = dir.join("run.jsonl");
    run(&tuner(3, 1, Some(&path), false), 1);

    // Wrong seed.
    let wrong_seed = tuner(4, 1, Some(&path), true);
    assert!(matches!(
        wrong_seed.run(&Obj),
        Err(Error::JournalCorrupt { line: 1, .. })
    ));

    // Wrong loop shape (q=4 tuner on a sequential journal).
    let wrong_mode = tuner(3, 4, Some(&path), true);
    assert!(wrong_mode.run_batched(&Obj).is_err());

    // Wrong space.
    let other_space = SearchSpace::builder().integer("a", 0, 15).build().unwrap();
    let t = Baco::builder(other_space)
        .budget(14)
        .doe_samples(4)
        .seed(3)
        .journal_path(&path)
        .resume(true)
        .build()
        .unwrap();
    assert!(t.run(&Obj).is_err());

    // Wrong scalar options (surrogate kind).
    let t = Baco::builder(mixed_space())
        .budget(14)
        .doe_samples(4)
        .seed(3)
        .surrogate(baco::tuner::SurrogateKind::RandomForest)
        .journal_path(&path)
        .resume(true)
        .build()
        .unwrap();
    assert!(matches!(
        t.run(&Obj),
        Err(Error::JournalCorrupt { line: 1, .. })
    ));

    // An archived journal written with the (since removed) warm-start fit
    // path enabled: no tuner writes that envelope any more.
    let text = std::fs::read_to_string(&path).unwrap();
    let (header, rest) = text.split_once('\n').unwrap();
    assert_eq!(header.matches(r#""warm_start":false"#).count(), 1);
    let header = header.replace(r#""warm_start":false"#, r#""warm_start":true"#);
    std::fs::write(&path, format!("{header}\n{rest}")).unwrap();
    match tuner(3, 1, Some(&path), true).run(&Obj) {
        Err(Error::JournalCorrupt { line: 1, msg }) => {
            assert!(msg.contains("option mismatch"), "{msg}");
        }
        other => panic!("expected an option mismatch on line 1, got {other:?}"),
    }

    // No journal path configured: nothing to resume, refused at build.
    assert!(matches!(
        Baco::builder(mixed_space()).resume(true).build(),
        Err(Error::InvalidConfig(_))
    ));

    std::fs::remove_dir_all(&dir).ok();
}

/// `resume` with no journal on disk starts fresh and journals; the journal
/// it writes resumes like any other, so a second resuming run on a cut of
/// it continues bit-identically to an uninterrupted run.
#[test]
fn resume_without_a_journal_starts_fresh_and_journals() {
    let dir = temp_dir("resume-fresh");
    let path = dir.join("run.jsonl");
    let reference = run(&tuner(3, 1, None, false), 1);
    assert!(!Journal::exists(&path));
    let fresh = run(&tuner(3, 1, Some(&path), true), 1);
    assert_eq!(signature(&reference), signature(&fresh));
    let journal = Journal::load(&path, &mixed_space()).unwrap();
    assert_eq!(journal.trials.len(), reference.len());

    let bytes = std::fs::read(&path).unwrap();
    let boundaries = line_boundaries(&bytes);
    std::fs::write(&path, &bytes[..boundaries[boundaries.len() / 2]]).unwrap();
    let continued = run(&tuner(3, 1, Some(&path), true), 1);
    assert_eq!(signature(&reference), signature(&continued));
    std::fs::remove_dir_all(&dir).ok();
}
