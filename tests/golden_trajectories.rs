//! Golden-trajectory regression suite.
//!
//! The committed fixtures under `tests/fixtures/` are journals of seeded
//! runs on real benchmark substrates, generated with `baco-cli`:
//!
//! ```text
//! cargo run --release -p baco-bench --bin baco-cli -- tune \
//!     --bench "SpMM scircuit" --scale test \
//!     --journal tests/fixtures/spmm_scircuit_seed7.jsonl \
//!     --budget 20 --doe 6 --seed 7
//! cargo run --release -p baco-bench --bin baco-cli -- tune \
//!     --bench MM_GPU \
//!     --journal tests/fixtures/mm_gpu_seed3_q4.jsonl \
//!     --budget 20 --doe 6 --seed 3 --batch 4 --threads 1
//! ```
//!
//! `tests/fixtures/mm_gpu_seed5_q3_budgeted.jsonl` needs a surrogate budget,
//! which the CLI does not expose; it is the journal of `run_batched` on
//! `gpu_sim::benchmarks::mm_gpu()` under the options of
//! [`Golden::builder`] for `mm_gpu_budgeted()` plus `journal_path`.
//!
//! `tests/fixtures/mm_gpu_session_seed11_q4.jsonl` pins open-loop
//! [`Session`] journals. It is the journal of [`drive_session`]
//! (`suggest_batch(4)` per round, each round reported in reverse proposal
//! order) fed the sim's own black box, under the options of
//! [`session_tuner`] (`gpu_sim::benchmarks::mm_gpu()`, seed 11, budget 20,
//! DoE 6). Its second round mixes two DoE and two model picks, and the
//! sim's hidden constraints make some reports infeasible.
//!
//! Each test replays a fixture: the tuner re-runs from the same seed with
//! the black box *replaced* by the journal's recorded evaluations, and every
//! proposal must reproduce the fixture bit for bit. Objective values feed
//! the surrogate exactly as recorded, so the assertion isolates the tuner's
//! own determinism — any drift in the RNG stream, GP numerics, acquisition
//! or CoT sampling shows up as a diverging proposal. (The substrates
//! themselves measure wall time or inject run-to-run noise, so replaying
//! recorded values — not re-measuring — is what makes the golden comparison
//! well-defined.)
//!
//! If a PR *intentionally* changes the trajectory (new RNG consumption, new
//! acquisition math), regenerate the fixtures with the commands above and
//! call the change out in the PR description.

use baco::benchmark::Benchmark;
use baco::journal::{Journal, Mode};
use baco::tuner::{Baco, BacoBuilder, BlackBox, Evaluation, MultiObjectiveStrategy, Session};
use baco::{Configuration, TuningReport};
use std::collections::HashMap;
use std::path::Path;

/// Serves the fixture's recorded evaluations (scalar or objective-vector);
/// panics on any configuration the fixture never saw (= the trajectory
/// already diverged).
struct ReplayBox {
    name: &'static str,
    recorded: HashMap<Configuration, (Option<Vec<f64>>, bool)>,
}

impl BlackBox for ReplayBox {
    fn evaluate(&self, cfg: &Configuration) -> Evaluation {
        let Some((values, feasible)) = self.recorded.get(cfg) else {
            panic!(
                "golden trajectory diverged: {} proposed {cfg}, which the fixture never \
                 evaluated. If the change is intentional, regenerate the fixture (see \
                 tests/golden_trajectories.rs docs).",
                self.name
            );
        };
        match (feasible, values) {
            (true, Some(v)) => Evaluation::feasible_multi(v.clone()),
            _ => Evaluation::infeasible(),
        }
    }
}

/// Bitwise trial signature: configuration, full objective-vector bits,
/// feasibility.
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

struct Golden {
    fixture: &'static str,
    bench: Benchmark,
    seed: u64,
    batch: usize,
    budget: usize,
    doe: usize,
    surrogate_budget: Option<usize>,
}

impl Golden {
    /// The tuner options the fixture was recorded under.
    fn builder(&self) -> BacoBuilder {
        let mut builder = Baco::builder(self.bench.space.clone())
            .budget(self.budget)
            .doe_samples(self.doe)
            .seed(self.seed)
            .batch_size(self.batch)
            .objectives(self.bench.n_objectives())
            // Every committed fixture predates the EHVI default: their
            // envelopes carry no `mo_strategy`, which means ParEGO. Pinning
            // it keeps them validating and replaying forever (it is inert
            // for the single-objective fixtures).
            .mo_strategy(MultiObjectiveStrategy::ParEgo)
            .eval_threads(1);
        if let Some(b) = self.surrogate_budget {
            builder = builder.surrogate_budget(b);
        }
        if let Some(r) = self.bench.reference_point.clone() {
            builder = builder.reference_point(r);
        }
        builder
    }

    fn load(&self) -> (Journal, Baco, ReplayBox) {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(self.fixture);
        let journal = Journal::load(&path, &self.bench.space)
            .unwrap_or_else(|e| panic!("{}: {e}", self.fixture));
        let tuner = self.builder().build().unwrap();
        // The fixture must have been generated under exactly the options the
        // test reconstructs — `validate` cross-checks the envelope.
        let mode = if self.batch > 1 { Mode::Batched } else { Mode::Run };
        journal
            .header
            .validate(mode, tuner.options(), &self.bench.space)
            .unwrap_or_else(|e| panic!("{}: fixture/test option drift: {e}", self.fixture));
        let recorded = journal
            .trials
            .iter()
            .map(|t| (t.config.clone(), (t.to_trial().objectives(), t.feasible)))
            .collect();
        let replay = ReplayBox {
            name: self.fixture,
            recorded,
        };
        (journal, tuner, replay)
    }

    fn fixture_signature(&self, journal: &Journal) -> Vec<(String, Option<Vec<u64>>, bool)> {
        journal
            .trials
            .iter()
            .map(|t| {
                (
                    t.config.to_string(),
                    t.to_trial()
                        .objectives()
                        .map(|o| o.iter().map(|v| v.to_bits()).collect()),
                    t.feasible,
                )
            })
            .collect()
    }

    /// Recompute-from-scratch replay: every proposal and every fold-in must
    /// reproduce the fixture bitwise.
    fn assert_replay(&self) {
        let (journal, tuner, replay) = self.load();
        assert_eq!(journal.trials.len(), self.budget, "{}: fixture incomplete", self.fixture);
        let report = if self.batch > 1 {
            tuner.run_batched(&replay).unwrap()
        } else {
            tuner.run(&replay).unwrap()
        };
        assert_eq!(
            self.fixture_signature(&journal),
            signature(&report),
            "{}: recomputed trajectory drifted from the committed fixture",
            self.fixture
        );
    }

    /// Transfer pointed at an **empty** corpus must be trajectory-inert:
    /// the same replay, with `transfer` enabled on a directory holding no
    /// usable donors, reproduces the committed fixture bitwise. (The prior
    /// RNG is private to the transfer module and DoE re-ranking is the
    /// identity without donors, so fleet plumbing alone may not move a
    /// single proposal.)
    fn assert_empty_corpus_replay(&self) {
        let (journal, _, replay) = self.load();
        let stem = Path::new(self.fixture)
            .file_stem()
            .expect("fixture has a file name")
            .to_string_lossy();
        let dir =
            std::env::temp_dir().join(format!("baco-golden-empty-{}-{stem}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let tuner = self.builder().transfer(&dir).build().unwrap();
        let report = if self.batch > 1 {
            tuner.run_batched(&replay).unwrap()
        } else {
            tuner.run(&replay).unwrap()
        };
        assert_eq!(
            self.fixture_signature(&journal),
            signature(&report),
            "{}: an empty transfer corpus perturbed the trajectory",
            self.fixture
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Crash-and-resume replay: truncate the fixture at several interior
    /// record boundaries, resume each, and require the fixture trajectory.
    fn assert_resume(&self) {
        let (journal, _, replay) = self.load();
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(self.fixture);
        let bytes = std::fs::read(&path).unwrap();
        let boundaries: Vec<usize> = bytes
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| (b == b'\n').then_some(i + 1))
            .collect();
        // Per-fixture dir: the two *_resumes_bitwise tests run concurrently
        // in one process, so a shared dir would race with the cleanup below.
        let stem = Path::new(self.fixture)
            .file_stem()
            .expect("fixture has a file name")
            .to_string_lossy();
        let dir =
            std::env::temp_dir().join(format!("baco-golden-{}-{stem}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let crash = dir.join("crash.jsonl");
        // Every 3rd boundary keeps runtime modest while still covering
        // mid-DoE, mid-round and late interruption points.
        for &cut in boundaries.iter().step_by(3) {
            std::fs::write(&crash, &bytes[..cut]).unwrap();
            let tuner = self.builder().journal_path(&crash).build().unwrap();
            let report = if self.batch > 1 {
                tuner.resume_batched(&replay).unwrap()
            } else {
                tuner.resume(&replay).unwrap()
            };
            assert_eq!(
                self.fixture_signature(&journal),
                signature(&report),
                "{}: resume at byte {cut} drifted from the fixture",
                self.fixture
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

fn spmm() -> Golden {
    Golden {
        fixture: "tests/fixtures/spmm_scircuit_seed7.jsonl",
        bench: taco_sim::benchmarks::spmm_benchmark(
            "scircuit",
            taco_sim::benchmarks::TacoScale::Test,
        ),
        seed: 7,
        batch: 1,
        budget: 20,
        doe: 6,
        surrogate_budget: None,
    }
}

fn mm_gpu() -> Golden {
    Golden {
        fixture: "tests/fixtures/mm_gpu_seed3_q4.jsonl",
        bench: gpu_sim::benchmarks::mm_gpu(),
        seed: 3,
        batch: 4,
        budget: 20,
        doe: 6,
        surrogate_budget: None,
    }
}

fn bfs_pareto() -> Golden {
    Golden {
        fixture: "tests/fixtures/bfs_pareto_seed7.jsonl",
        bench: fpga_sim::benchmarks::bfs_pareto(),
        seed: 7,
        batch: 1,
        budget: 20,
        doe: 6,
        surrogate_budget: None,
    }
}

/// The budgeted batched golden: `q = 3` with a DoE (7) and a budget (23)
/// that are not multiples of `q`, so the DoE is dispatched in a partial
/// final chunk and the last learning round is cut to the budget tail; a
/// surrogate budget of 8 below the 12 feasible trials pins the active-set
/// and trust-region path.
fn mm_gpu_budgeted() -> Golden {
    Golden {
        fixture: "tests/fixtures/mm_gpu_seed5_q3_budgeted.jsonl",
        bench: gpu_sim::benchmarks::mm_gpu(),
        seed: 5,
        batch: 3,
        budget: 23,
        doe: 7,
        surrogate_budget: Some(8),
    }
}

#[test]
fn taco_spmm_golden_trajectory_replays_bitwise() {
    spmm().assert_replay();
}

#[test]
fn gpu_mm_batched_golden_trajectory_replays_bitwise() {
    mm_gpu().assert_replay();
}

#[test]
fn taco_spmm_golden_trajectory_resumes_bitwise() {
    spmm().assert_resume();
}

#[test]
fn gpu_mm_batched_golden_trajectory_resumes_bitwise() {
    mm_gpu().assert_resume();
}

/// The multi-objective golden: a format-v2 journal whose trial records carry
/// `[runtime_ms, area_kalms]` vectors, replayed bitwise — pins the ParEGO
/// weight draws, the per-objective GP numerics and the v2 codec at once.
#[test]
fn fpga_bfs_pareto_golden_trajectory_replays_bitwise() {
    bfs_pareto().assert_replay();
}

#[test]
fn fpga_bfs_pareto_golden_trajectory_resumes_bitwise() {
    bfs_pareto().assert_resume();
}

#[test]
fn gpu_mm_budgeted_golden_trajectory_replays_bitwise() {
    mm_gpu_budgeted().assert_replay();
}

#[test]
fn gpu_mm_budgeted_golden_trajectory_resumes_bitwise() {
    mm_gpu_budgeted().assert_resume();
}

#[test]
fn empty_corpus_transfer_replays_every_golden_bitwise() {
    spmm().assert_empty_corpus_replay();
    mm_gpu().assert_empty_corpus_replay();
    bfs_pareto().assert_empty_corpus_replay();
    mm_gpu_budgeted().assert_empty_corpus_replay();
}

/// The open-loop golden (see the module docs).
const SESSION_FIXTURE: &str = "tests/fixtures/mm_gpu_session_seed11_q4.jsonl";

/// The options the Session fixture was recorded under, journaling to `path`.
fn session_tuner(path: &Path) -> Baco {
    Baco::builder(gpu_sim::benchmarks::mm_gpu().space)
        .budget(20)
        .doe_samples(6)
        .seed(11)
        .journal_path(path)
        .build()
        .unwrap()
}

/// The recorded driver: `suggest_batch(4)` until the budget is spent, each
/// round reported in reverse proposal order.
fn drive_session(s: &mut Session, bb: &dyn BlackBox) {
    loop {
        let round = s.suggest_batch(4).unwrap();
        if round.is_empty() {
            break;
        }
        for cfg in round.into_iter().rev() {
            let eval = bb.evaluate(&cfg);
            s.report(cfg, eval);
        }
    }
}

/// A journal's lines with the wall-clock members (`eval_ns`, `tuner_ns`)
/// blanked and resume markers dropped: what an uninterrupted and a resumed
/// run must agree on byte for byte.
fn masked_lines(bytes: &[u8]) -> Vec<String> {
    String::from_utf8(bytes.to_vec())
        .unwrap()
        .lines()
        .filter(|l| !l.starts_with("{\"t\":\"resume\""))
        .map(|l| {
            let mut line = l.to_string();
            for key in ["\"eval_ns\":\"", "\"tuner_ns\":\""] {
                if let Some(at) = line.find(key) {
                    let from = at + key.len();
                    let to = from + line[from..].find('"').expect("quoted timing member");
                    line.replace_range(from..to, "_");
                }
            }
            line
        })
        .collect()
}

/// Archived `Session` journals keep their meaning: a fresh journaled session
/// fed the fixture's recorded values writes the fixture's records (timing
/// masked), and resuming from every cut that ends a fully reported round
/// writes them too.
#[test]
fn gpu_mm_session_golden_journal_replays_and_resumes_bitwise() {
    let bench = gpu_sim::benchmarks::mm_gpu();
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join(SESSION_FIXTURE);
    let bytes = std::fs::read(&fixture).unwrap();
    let journal = Journal::load(&fixture, &bench.space).unwrap();
    journal
        .header
        .validate(Mode::Session, session_tuner(&fixture).options(), &bench.space)
        .unwrap_or_else(|e| panic!("{SESSION_FIXTURE}: fixture/test option drift: {e}"));
    // The shape the fixture was chosen for.
    assert_eq!(journal.trials.len(), 20, "fixture incomplete");
    let second = &journal.proposes[1];
    assert_eq!((second.doe_k, second.configs.len()), (2, 4), "round 2 mixes DoE and model picks");
    assert!(journal.trials.iter().any(|t| !t.feasible), "no infeasible report");
    let replay = ReplayBox {
        name: SESSION_FIXTURE,
        recorded: journal
            .trials
            .iter()
            .map(|t| (t.config.clone(), (t.to_trial().objectives(), t.feasible)))
            .collect(),
    };
    let expected = masked_lines(&bytes);

    let dir = std::env::temp_dir().join(format!("baco-golden-{}-session", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fresh = dir.join("fresh.jsonl");
    let mut session = Session::new(session_tuner(&fresh)).unwrap();
    drive_session(&mut session, &replay);
    assert_eq!(
        masked_lines(&std::fs::read(&fresh).unwrap()),
        expected,
        "fresh session journal drifted from the committed fixture"
    );

    let crash = dir.join("crash.jsonl");
    let mut cuts = 0;
    for cut in bytes.iter().enumerate().filter_map(|(i, &b)| (b == b'\n').then_some(i + 1)) {
        let prefix = Journal::from_bytes(&bytes[..cut], &bench.space).unwrap();
        let reported: std::collections::HashSet<&Configuration> =
            prefix.trials.iter().map(|t| &t.config).collect();
        if !prefix.proposes.iter().flat_map(|p| &p.configs).all(|c| reported.contains(c)) {
            continue; // a round is still out
        }
        std::fs::write(&crash, &bytes[..cut]).unwrap();
        let mut resumed = Session::resume(session_tuner(&crash)).unwrap();
        drive_session(&mut resumed, &replay);
        assert_eq!(
            masked_lines(&std::fs::read(&crash).unwrap()),
            expected,
            "session resume at byte {cut} drifted from the fixture"
        );
        cuts += 1;
    }
    assert_eq!(cuts, 6, "header plus five fully reported rounds");
    std::fs::remove_dir_all(&dir).ok();
}
