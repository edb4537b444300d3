//! Kill-and-restart recovery suite for the multi-tenant tuning server.
//!
//! A server with [`ServerOptions::journal_dir`] set journals every session
//! to `<dir>/<session>.jsonl`, fsync'd record by record — so dropping the
//! whole server without any teardown is equivalent to `kill -9` from the
//! journals' point of view (the writer holds no buffered state; the CLI
//! variant of this test in CI kills a real process for good measure).
//!
//! The suite tears a server down with in-flight rounds across several
//! journaled sessions, restarts it on the same directory, resumes every
//! session over the wire (`create_session` + `"resume": true`), and asserts:
//!
//! * sequential (q = 1) sessions — cut anywhere, even with an unreported
//!   proposal in flight — continue **bit-for-bit** on the uninterrupted
//!   reference trajectory;
//! * batched (q = 4) sessions cut at a round boundary continue bit-for-bit,
//!   and one cut mid-round (2 of 4 reported) still converges to the
//!   uninterrupted run's incumbent;
//! * mismatched resume envelopes and torn journal tails behave per the
//!   PR 3 journal contract (typed refusal / silent tail drop).
//!
//! Every scenario runs twice: against the in-process dispatch path, and
//! over the event-driven TCP front end (tearing down the whole front end
//! with the server), so the readiness loop inherits the kill -9 contract.

mod common;

use baco::journal::json::Json;
use baco::server::{ServerHandle, ServerOptions, TcpServer};
use baco::tuner::Session;
use baco::{Baco, Configuration, Evaluation};
use common::{expect_ok, int_space as space, Driver, TcpDriver};
use std::path::{Path, PathBuf};

const BUDGET: usize = 12;
const DOE: usize = 4;

fn evaluate(i: usize, cfg: &Configuration) -> Evaluation {
    let a = cfg.value("a").as_f64();
    let b = cfg.value("b").as_f64();
    Evaluation::feasible(1.0 + (a - (i % 14) as f64).powi(2) + (b - ((i * 3) % 16) as f64).powi(2))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("baco-server-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn server(dir: &Path) -> ServerHandle {
    ServerHandle::new(ServerOptions {
        journal_dir: Some(dir.to_path_buf()),
        ..ServerOptions::default()
    })
}

/// One server incarnation: the handle plus, in TCP mode, a running event
/// front end and a driver dialing it. Dropping the whole struct without any
/// session teardown is the suite's `kill -9` (the journal writer holds no
/// buffered state, so losing the process loses nothing durable).
struct Srv {
    handle: ServerHandle,
    front: Option<(TcpServer, TcpDriver)>,
}

impl Srv {
    fn start(dir: &Path, tcp: bool) -> Srv {
        let handle = server(dir);
        let front = tcp.then(|| {
            let t = handle.serve("127.0.0.1:0").unwrap();
            let d = TcpDriver::new(t.addr());
            (t, d)
        });
        Srv { handle, front }
    }

    fn drv(&self) -> &dyn Driver {
        match &self.front {
            Some((_, d)) => d,
            None => &self.handle,
        }
    }
}

fn create(
    drv: &dyn Driver,
    name: &str,
    budget: usize,
    doe: usize,
    seed: u64,
    resume: bool,
) -> Json {
    expect_ok(
        drv,
        &format!(
            r#"{{"op":"create_session","session":"{name}","budget":{budget},"doe_samples":{doe},"seed":{seed},"resume":{resume},"space":{}}}"#,
            baco::journal::space_spec(&space()).to_line()
        ),
    )
}

type Trajectory = Vec<(String, f64)>;

/// Drives up to `max_evals` further evaluations of session `i` in rounds of
/// `q`, reporting in proposal order; records (config, value) pairs.
fn drive(
    drv: &dyn Driver,
    name: &str,
    i: usize,
    q: usize,
    max_evals: usize,
    traj: &mut Trajectory,
) {
    let mut evals = 0;
    while evals < max_evals {
        let round = expect_ok(
            drv,
            &format!(r#"{{"op":"suggest_batch","session":"{name}","q":{q}}}"#),
        );
        let configs = round
            .get("configs")
            .and_then(Json::as_arr)
            .unwrap()
            .to_vec();
        if configs.is_empty() {
            break;
        }
        for cfg_json in configs {
            if evals >= max_evals {
                break; // leaves the rest of the round in flight
            }
            let cfg = baco::journal::decode_config(&space(), &cfg_json).unwrap();
            let v = evaluate(i, &cfg).value().unwrap();
            traj.push((cfg_json.to_line(), v));
            expect_ok(
                drv,
                &format!(
                    r#"{{"op":"report","session":"{name}","config":{},"value":{}}}"#,
                    cfg_json.to_line(),
                    Json::Num(v).to_line()
                ),
            );
            evals += 1;
        }
    }
}

/// The uninterrupted in-process reference trajectory.
fn reference(i: usize, q: usize, budget: usize, doe: usize, seed: u64) -> Trajectory {
    let tuner = Baco::builder(space())
        .budget(budget)
        .doe_samples(doe)
        .seed(seed)
        .build()
        .unwrap();
    let mut session = Session::new(tuner).unwrap();
    let mut out = Trajectory::new();
    loop {
        let round = session.suggest_batch(q).unwrap();
        if round.is_empty() {
            break;
        }
        for cfg in round {
            let v = evaluate(i, &cfg).value().unwrap();
            out.push((baco::journal::encode_config(&cfg).to_line(), v));
            session.try_report(cfg, Evaluation::feasible(v)).unwrap();
        }
    }
    out
}

#[test]
fn killed_server_resumes_every_session_bit_for_bit() {
    killed_server_bitwise("bitwise-inproc", false);
}

#[test]
fn killed_event_tcp_server_resumes_every_session_bit_for_bit() {
    killed_server_bitwise("bitwise-tcp", true);
}

fn killed_server_bitwise(tag: &str, tcp: bool) {
    let dir = tmpdir(tag);

    // Sequential sessions s0..s3 cut at different depths; s3 additionally
    // has an *unreported* proposal in flight at the kill.
    let cuts = [3usize, 5, 8, 10];
    let mut pre: Vec<Trajectory> = vec![Trajectory::new(); cuts.len()];
    {
        let srv = Srv::start(&dir, tcp);
        for (i, &cut) in cuts.iter().enumerate() {
            create(srv.drv(), &format!("s{i}"), BUDGET, DOE, i as u64, false);
            drive(srv.drv(), &format!("s{i}"), i, 1, cut, &mut pre[i]);
        }
        // s3: dangle one in-flight proposal (asked, never reported).
        let reply = expect_ok(srv.drv(), r#"{"op":"ask","session":"s3"}"#);
        assert_ne!(reply.get("config"), Some(&Json::Null));
        // Kill: drop the server (front end and all) mid-flight, no close,
        // no teardown.
        drop(srv);
    }

    // Restart on the same journal directory; every session resumes with
    // exactly its reported history, then runs to completion.
    let srv = Srv::start(&dir, tcp);
    for (i, &cut) in cuts.iter().enumerate() {
        let name = format!("s{i}");
        let reply = create(srv.drv(), &name, BUDGET, DOE, i as u64, true);
        assert_eq!(
            reply.get("resumed"),
            Some(&Json::Bool(true)),
            "session {name}"
        );
        assert_eq!(
            reply.get("len").and_then(Json::as_f64),
            Some(cut as f64),
            "session {name}"
        );
        let mut post = pre[i].clone();
        drive(srv.drv(), &name, i, 1, BUDGET, &mut post);

        let want = reference(i, 1, BUDGET, DOE, i as u64);
        assert_eq!(post.len(), BUDGET, "session {name} must reach the budget");
        for (r, (g, w)) in post.iter().zip(&want).enumerate() {
            assert_eq!(
                g.0, w.0,
                "session {name} round {r}: config diverged after resume"
            );
            assert_eq!(
                g.1.to_bits(),
                w.1.to_bits(),
                "session {name} round {r}: value diverged"
            );
        }

        // The journal records exactly one crash/continuation.
        let journal =
            baco::journal::Journal::load(&dir.join(format!("{name}.jsonl")), &space()).unwrap();
        assert_eq!(journal.resumes, 1, "session {name}");
        assert_eq!(journal.trials.len(), BUDGET, "session {name}");
    }
}

#[test]
fn batched_sessions_survive_round_boundary_and_mid_round_kills() {
    batched_kills("batched-inproc", false);
}

#[test]
fn batched_sessions_survive_kills_over_event_tcp() {
    batched_kills("batched-tcp", true);
}

fn batched_kills(tag: &str, tcp: bool) {
    let dir = tmpdir(tag);

    // b0: cut at a clean round boundary (2 full rounds of 4).
    // b1: cut mid-round — 2 of 4 results reported, 2 in flight.
    let mut pre0 = Trajectory::new();
    let mut pre1 = Trajectory::new();
    {
        let srv = Srv::start(&dir, tcp);
        create(srv.drv(), "b0", BUDGET, DOE, 40, false);
        drive(srv.drv(), "b0", 0, 4, 8, &mut pre0);
        create(srv.drv(), "b1", 40, 10, 41, false);
        // One full round, then half of a second round.
        drive(srv.drv(), "b1", 1, 4, 4, &mut pre1);
        drive(srv.drv(), "b1", 1, 4, 2, &mut pre1); // suggests 4, reports only 2
        drop(srv);
    }

    let srv = Srv::start(&dir, tcp);

    // Clean-boundary kill: the continued trajectory is bit-identical to the
    // uninterrupted batched reference.
    let reply = create(srv.drv(), "b0", BUDGET, DOE, 40, true);
    assert_eq!(reply.get("len").and_then(Json::as_f64), Some(8.0));
    let mut post0 = pre0.clone();
    drive(srv.drv(), "b0", 0, 4, BUDGET, &mut post0);
    let want = reference(0, 4, BUDGET, DOE, 40);
    assert_eq!(post0, want, "round-boundary kill must resume bitwise");

    // Mid-round kill: the two reported results survive, the two in-flight
    // ones are re-derived; with an unimodal objective both the resumed and
    // the uninterrupted run converge to the same incumbent.
    let reply = create(srv.drv(), "b1", 40, 10, 41, true);
    assert_eq!(reply.get("resumed"), Some(&Json::Bool(true)));
    assert_eq!(
        reply.get("len").and_then(Json::as_f64),
        Some(6.0),
        "2 of round 2 reported"
    );
    let mut post1 = pre1.clone();
    drive(srv.drv(), "b1", 1, 4, 40, &mut post1);
    assert_eq!(post1.len(), 40, "resumed session runs to the full budget");
    // Nothing evaluated twice across the crash.
    let mut uniq: Vec<&String> = post1.iter().map(|(c, _)| c).collect();
    uniq.sort();
    uniq.dedup();
    assert_eq!(
        uniq.len(),
        post1.len(),
        "duplicate evaluation across the crash"
    );

    let want = reference(1, 4, 40, 10, 41);
    let best = |t: &Trajectory| {
        t.iter()
            .map(|(c, v)| (v.to_bits(), c.clone()))
            .min()
            .unwrap()
    };
    let (got_v, got_c) = best(&post1);
    let (want_v, want_c) = best(&want);
    assert_eq!(
        f64::from_bits(got_v),
        1.0,
        "resumed run must find the optimum"
    );
    assert_eq!(
        f64::from_bits(want_v),
        1.0,
        "reference run must find the optimum"
    );
    assert_eq!(
        got_c, want_c,
        "incumbent configuration diverged across the crash"
    );
}

#[test]
fn mismatched_resume_envelope_is_refused_and_fresh_create_overwrites() {
    mismatched_envelope("envelope-inproc", false);
}

#[test]
fn mismatched_resume_envelope_is_refused_over_event_tcp() {
    mismatched_envelope("envelope-tcp", true);
}

fn mismatched_envelope(tag: &str, tcp: bool) {
    let dir = tmpdir(tag);
    {
        let srv = Srv::start(&dir, tcp);
        create(srv.drv(), "env", BUDGET, DOE, 7, false);
        let mut t = Trajectory::new();
        drive(srv.drv(), "env", 0, 1, 4, &mut t);
    }

    let srv = Srv::start(&dir, tcp);
    // Wrong seed: typed refusal, nothing registered.
    let reply = srv.drv().request(&format!(
        r#"{{"op":"create_session","session":"env","budget":{BUDGET},"doe_samples":{DOE},"seed":8,"resume":true,"space":{}}}"#,
        baco::journal::space_spec(&space()).to_line()
    ));
    assert!(reply.contains(r#""kind":"journal_corrupt""#), "{reply}");
    assert_eq!(srv.handle.session_count(), 0);

    // resume:false on an existing journal starts the session over (the
    // journal is truncated and rewritten, same as Baco::run without resume).
    let reply = create(srv.drv(), "env", BUDGET, DOE, 7, false);
    assert_eq!(reply.get("resumed"), Some(&Json::Bool(false)));
    assert_eq!(reply.get("len").and_then(Json::as_f64), Some(0.0));
}

#[test]
fn torn_journal_tail_from_a_real_kill_is_dropped_on_resume() {
    torn_tail("torn-inproc", false);
}

#[test]
fn torn_journal_tail_is_dropped_on_resume_over_event_tcp() {
    torn_tail("torn-tcp", true);
}

fn torn_tail(tag: &str, tcp: bool) {
    let dir = tmpdir(tag);
    let mut pre = Trajectory::new();
    {
        let srv = Srv::start(&dir, tcp);
        create(srv.drv(), "torn", BUDGET, DOE, 9, false);
        drive(srv.drv(), "torn", 0, 1, 6, &mut pre);
    }
    // A crash can tear the final record mid-write; forge that state.
    use std::io::Write;
    let path = dir.join("torn.jsonl");
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    f.write_all(br#"{"t":"propose","len":6,"doe_k":0,"rng_bef"#)
        .unwrap();
    drop(f);

    let srv = Srv::start(&dir, tcp);
    let reply = create(srv.drv(), "torn", BUDGET, DOE, 9, true);
    assert_eq!(reply.get("resumed"), Some(&Json::Bool(true)));
    assert_eq!(reply.get("len").and_then(Json::as_f64), Some(6.0));
    let mut post = pre.clone();
    drive(srv.drv(), "torn", 0, 1, BUDGET, &mut post);
    let want = reference(0, 1, BUDGET, DOE, 9);
    assert_eq!(post, want, "torn tail must not derail the trajectory");
}
