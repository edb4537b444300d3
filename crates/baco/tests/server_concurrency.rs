//! Concurrency stress suite for the multi-tenant tuning server.
//!
//! M client threads drive K sessions through the wire-protocol dispatch
//! path ([`ServerHandle::handle_line`]) with a seeded random interleaving:
//! a session is popped off a shared work queue, driven for exactly one
//! ask/report (or suggest/report-all) round, and pushed back at a
//! pseudo-random position — so consecutive rounds of one session almost
//! always run on different threads, racing against every other session's
//! rounds. A monitor thread hammers `status`/`best` reads the whole time.
//!
//! Every property is asserted twice: against the in-process dispatch path,
//! and over the event-driven TCP front end (each racing thread on its own
//! multiplexed connection), so the readiness loop is held to the exact
//! determinism contract of the in-process path.
//!
//! The properties under test:
//!
//! 1. **Determinism** — every session's trajectory (configs *and* values,
//!    bitwise) equals a single-threaded in-process reference run with the
//!    same seed, no matter the interleaving.
//! 2. **Liveness** — the registry never deadlocks: the whole schedule
//!    completes (a watchdog aborts the process if it wedges).

mod common;

use baco::journal::json::Json;
use baco::server::{ServerHandle, ServerOptions};
use baco::tuner::Session;
use baco::{Baco, Configuration, Evaluation};
use common::{
    expect_ok, int_space as space, int_space_spec_line as space_spec_line, next_rand, Driver,
    TcpDriver,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

const SESSIONS: usize = 16;
const THREADS: usize = 8;
const BUDGET: usize = 12;
const DOE: usize = 4;

fn seed_of(i: usize) -> u64 {
    100 + i as u64
}

fn q_of(i: usize) -> usize {
    if i.is_multiple_of(2) {
        1
    } else {
        4
    }
}

/// Deterministic per-session objective; session i%3==2 also has a hidden
/// constraint so the feasibility-classifier path is exercised concurrently.
fn evaluate(i: usize, cfg: &Configuration) -> Evaluation {
    let a = cfg.value("a").as_f64();
    let b = cfg.value("b").as_f64();
    if i % 3 == 2 && a > 11.0 {
        return Evaluation::infeasible();
    }
    let ta = (i % 13) as f64;
    let tb = ((i * 5) % 16) as f64;
    Evaluation::feasible(1.0 + (a - ta).powi(2) + (b - tb).powi(2))
}

type Trajectory = Vec<(String, Option<f64>)>;

/// The single-threaded reference: an in-process [`Session`] driven with the
/// same seed, round size and reporting order the server clients use.
fn reference_trajectory(i: usize) -> Trajectory {
    let tuner = Baco::builder(space())
        .budget(BUDGET)
        .doe_samples(DOE)
        .seed(seed_of(i))
        .build()
        .unwrap();
    let mut session = Session::new(tuner).unwrap();
    let mut out = Trajectory::new();
    loop {
        let round = session.suggest_batch(q_of(i)).unwrap();
        if round.is_empty() {
            break;
        }
        for cfg in round {
            let eval = evaluate(i, &cfg);
            out.push((baco::journal::encode_config(&cfg).to_line(), eval.value()));
            session.try_report(cfg, eval).unwrap();
        }
    }
    out
}

/// Drives one suggest/report round of session `i`; returns false once the
/// session is exhausted.
fn drive_one_round(drv: &dyn Driver, i: usize, traj: &Mutex<Trajectory>) -> bool {
    let name = format!("s{i}");
    let round = expect_ok(
        drv,
        &format!(
            r#"{{"op":"suggest_batch","session":"{name}","q":{}}}"#,
            q_of(i)
        ),
    );
    let configs = round
        .get("configs")
        .and_then(Json::as_arr)
        .unwrap()
        .to_vec();
    if configs.is_empty() {
        return false;
    }
    for cfg_json in configs {
        let cfg = baco::journal::decode_config(&space(), &cfg_json).unwrap();
        let eval = evaluate(i, &cfg);
        traj.lock()
            .unwrap()
            .push((cfg_json.to_line(), eval.value()));
        let report = match eval.value() {
            Some(v) => format!(
                r#"{{"op":"report","session":"{name}","config":{},"value":{}}}"#,
                cfg_json.to_line(),
                Json::Num(v).to_line()
            ),
            None => format!(
                r#"{{"op":"report","session":"{name}","config":{},"feasible":false}}"#,
                cfg_json.to_line()
            ),
        };
        expect_ok(drv, &report);
    }
    true
}

#[test]
fn concurrent_sessions_are_bit_identical_to_single_threaded_reference() {
    let srv = ServerHandle::new(ServerOptions::default());
    stress_bitwise(&srv, &srv);
}

#[test]
fn concurrent_sessions_over_event_tcp_are_bit_identical_too() {
    let srv = ServerHandle::new(ServerOptions::default());
    let tcp = srv.serve("127.0.0.1:0").unwrap();
    let drv = TcpDriver::new(tcp.addr());
    stress_bitwise(&srv, &drv);
    tcp.stop();
}

fn stress_bitwise(srv: &ServerHandle, drv: &dyn Driver) {
    // Watchdog: a deadlock anywhere below must fail the test run loudly
    // instead of hanging CI forever.
    let done = Arc::new(AtomicBool::new(false));
    {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            for _ in 0..2400 {
                if done.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            eprintln!("server concurrency stress did not finish within 240s: deadlock?");
            std::process::abort();
        });
    }

    for i in 0..SESSIONS {
        expect_ok(
            drv,
            &format!(
                r#"{{"op":"create_session","session":"s{i}","budget":{BUDGET},"doe_samples":{DOE},"seed":{},"space":{}}}"#,
                seed_of(i),
                space_spec_line()
            ),
        );
    }
    assert_eq!(srv.session_count(), SESSIONS);

    let queue: Mutex<VecDeque<usize>> = Mutex::new((0..SESSIONS).collect());
    let trajectories: Vec<Mutex<Trajectory>> = (0..SESSIONS)
        .map(|_| Mutex::new(Trajectory::new()))
        .collect();
    let finished = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let queue = &queue;
            let trajectories = &trajectories;
            let finished = &finished;
            scope.spawn(move || {
                let mut rng = 0x9e3779b97f4a7c15u64 ^ (t as u64) << 32;
                loop {
                    let picked = queue.lock().unwrap().pop_front();
                    match picked {
                        Some(i) => {
                            if drive_one_round(drv, i, &trajectories[i]) {
                                // Re-insert at a seeded pseudo-random position:
                                // the interleaving across sessions (and which
                                // thread runs a session's next round) is
                                // scrambled but reproducible.
                                let mut q = queue.lock().unwrap();
                                let pos = (next_rand(&mut rng) as usize) % (q.len() + 1);
                                q.insert(pos, i);
                            } else {
                                finished.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                        None => {
                            if finished.load(Ordering::SeqCst) == SESSIONS {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                }
            });
        }

        // Monitor thread: concurrent read-only traffic across all sessions
        // (status/best plus server-wide status) must never fail or wedge.
        let finished = &finished;
        scope.spawn(move || {
            let mut rng = 0xdeadbeefu64;
            while finished.load(Ordering::SeqCst) < SESSIONS {
                let i = (next_rand(&mut rng) as usize) % SESSIONS;
                expect_ok(drv, &format!(r#"{{"op":"status","session":"s{i}"}}"#));
                expect_ok(drv, &format!(r#"{{"op":"best","session":"s{i}"}}"#));
                let all = expect_ok(drv, r#"{"op":"status"}"#);
                assert_eq!(
                    all.get("sessions").and_then(Json::as_f64),
                    Some(SESSIONS as f64)
                );
                std::thread::yield_now();
            }
        });
    });

    // Every session ran to its full budget …
    for i in 0..SESSIONS {
        let status = expect_ok(drv, &format!(r#"{{"op":"status","session":"s{i}"}}"#));
        assert_eq!(
            status.get("len").and_then(Json::as_f64),
            Some(BUDGET as f64),
            "session {i}"
        );
        assert_eq!(
            status.get("remaining").and_then(Json::as_f64),
            Some(0.0),
            "session {i}"
        );
        assert_eq!(
            status.get("pending").and_then(Json::as_f64),
            Some(0.0),
            "session {i}"
        );
    }

    // … and produced, under an adversarial interleaving, exactly the
    // trajectory the single-threaded reference produces.
    for (i, traj) in trajectories.iter().enumerate() {
        let got = traj.lock().unwrap();
        let want = reference_trajectory(i);
        assert_eq!(got.len(), BUDGET, "session {i} trajectory length");
        for (r, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.0, w.0, "session {i} round {r}: config diverged");
            assert_eq!(
                g.1.map(f64::to_bits),
                w.1.map(f64::to_bits),
                "session {i} round {r}: value diverged"
            );
        }
    }

    // Closing every session empties the registry.
    for i in 0..SESSIONS {
        expect_ok(drv, &format!(r#"{{"op":"close","session":"s{i}"}}"#));
    }
    assert_eq!(srv.session_count(), 0);
    done.store(true, Ordering::SeqCst);
}

/// Same-session requests from many threads serialize on the session mutex:
/// hammering one session with concurrent `ask`s must hand out *distinct*
/// pending proposals (never the same configuration twice) and keep the
/// budget arithmetic exact.
#[test]
fn concurrent_asks_on_one_session_hand_out_distinct_proposals() {
    let srv = ServerHandle::new(ServerOptions::default());
    distinct_proposals(&srv);
}

#[test]
fn concurrent_asks_over_event_tcp_hand_out_distinct_proposals() {
    let srv = ServerHandle::new(ServerOptions::default());
    let tcp = srv.serve("127.0.0.1:0").unwrap();
    let drv = TcpDriver::new(tcp.addr());
    distinct_proposals(&drv);
    tcp.stop();
}

fn distinct_proposals(drv: &dyn Driver) {
    expect_ok(
        drv,
        &format!(
            r#"{{"op":"create_session","session":"solo","budget":8,"doe_samples":8,"seed":7,"space":{}}}"#,
            space_spec_line()
        ),
    );
    let configs: Mutex<Vec<String>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let configs = &configs;
            scope.spawn(move || {
                let reply = expect_ok(drv, r#"{"op":"ask","session":"solo"}"#);
                let cfg = reply.get("config").unwrap();
                assert_ne!(*cfg, Json::Null, "budget admits 8 concurrent asks");
                configs.lock().unwrap().push(cfg.to_line());
            });
        }
    });
    let mut got = configs.into_inner().unwrap();
    got.sort();
    got.dedup();
    assert_eq!(
        got.len(),
        8,
        "all concurrently asked proposals are distinct"
    );
    let status = expect_ok(drv, r#"{"op":"status","session":"solo"}"#);
    assert_eq!(status.get("pending").and_then(Json::as_f64), Some(8.0));
    assert_eq!(status.get("remaining").and_then(Json::as_f64), Some(0.0));
}
