//! Wire-protocol robustness suite: byte-mutation and garbage-line fuzzing
//! of the tuning server, in the style of PR 3's journal fuzz harness.
//!
//! The contract under test: **every** request line — valid, mutated,
//! truncated, or outright garbage — yields exactly one reply line that
//! parses as JSON and carries either `ok: true` or a typed `error` object.
//! `handle_line` never panics (checked under `catch_unwind`), and a
//! malformed request never wedges a session: after every barrage, the live
//! session still answers a well-formed `ask`/`report` round and its
//! trajectory stays on the deterministic reference path.
//!
//! Every barrage runs twice: against the in-process dispatch path, and over
//! the event-driven TCP front end. Line terminators are stripped from
//! mutated payloads in *both* variants (over TCP a `\n` would frame two
//! requests, not fuzz one), so the two variants feed identical corpora.

mod common;

use baco::journal::json::{self, Json};
use baco::server::{ServerHandle, ServerOptions};
use common::{next_rand, Driver, TcpDriver};
use std::panic::{catch_unwind, AssertUnwindSafe};

const SPACE_SPEC: &str = r#"{"params":[{"name":"a","kind":"int","lo":"0","hi":"15"},{"name":"tile","kind":"ordinal","values":[1,2,4,8],"scale":"log"},{"name":"c","kind":"cat","values":["x","y"]},{"name":"p","kind":"perm","len":3}],"constraints":["a >= 1"]}"#;

fn create_line(name: &str, budget: usize) -> String {
    format!(
        r#"{{"op":"create_session","session":"{name}","budget":{budget},"doe_samples":3,"seed":11,"space":{SPACE_SPEC}}}"#
    )
}

/// Feeds one line to the server under `catch_unwind`; asserts the no-panic,
/// one-valid-JSON-reply-per-line contract and returns the parsed reply.
fn feed(drv: &dyn Driver, line: &str) -> Json {
    let reply = catch_unwind(AssertUnwindSafe(|| drv.request(line)))
        .unwrap_or_else(|_| panic!("request panicked on {:?}", line));
    let parsed =
        json::parse(&reply).unwrap_or_else(|e| panic!("reply is not valid JSON ({e}): {reply}"));
    match parsed.get("ok") {
        Some(Json::Bool(true)) => {}
        Some(Json::Bool(false)) => {
            let kind = parsed
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("error reply without typed kind: {reply}"));
            assert!(
                [
                    "bad_request",
                    "unknown_session",
                    "session_exists",
                    "invalid_space",
                    "journal_corrupt",
                    "io",
                    "tuner",
                    "overloaded"
                ]
                .contains(&kind),
                "unknown error kind `{kind}`: {reply}"
            );
        }
        _ => panic!("reply without boolean `ok`: {reply}"),
    }
    parsed
}

/// One well-formed ask/report round on `session`; proves the session is not
/// wedged and returns the proposed config line.
fn healthy_round(drv: &dyn Driver, session: &str) -> String {
    let reply = feed(drv, &format!(r#"{{"op":"ask","session":"{session}"}}"#));
    assert_eq!(
        reply.get("ok"),
        Some(&Json::Bool(true)),
        "session {session} wedged"
    );
    let cfg = reply.get("config").expect("ask reply carries config");
    assert_ne!(*cfg, Json::Null, "session {session} exhausted prematurely");
    let report = format!(
        r#"{{"op":"report","session":"{session}","config":{},"value":2.5}}"#,
        cfg.to_line()
    );
    let reply = feed(drv, &report);
    assert_eq!(
        reply.get("ok"),
        Some(&Json::Bool(true)),
        "report on {session} failed"
    );
    cfg.to_line()
}

/// A corpus of well-formed request lines to mutate.
fn corpus() -> Vec<String> {
    vec![
        create_line("mutant", 30),
        r#"{"op":"ask","session":"fuzz"}"#.into(),
        r#"{"op":"suggest_batch","session":"fuzz","q":4}"#.into(),
        r#"{"op":"report","session":"fuzz","config":{"a":3,"tile":4,"c":"y","p":[2,0,1]},"value":1.25}"#.into(),
        r#"{"op":"report","session":"fuzz","config":{"a":3,"tile":4,"c":"y","p":[0,1,2]},"feasible":false}"#.into(),
        r#"{"op":"best","session":"fuzz"}"#.into(),
        r#"{"op":"status","session":"fuzz","id":"17"}"#.into(),
        r#"{"op":"status"}"#.into(),
        r#"{"op":"close","session":"nope"}"#.into(),
    ]
}

#[test]
fn byte_mutated_requests_never_panic_or_wedge_sessions() {
    let srv = ServerHandle::new(ServerOptions::default());
    byte_mutation_barrage(&srv);
}

#[test]
fn byte_mutated_requests_over_event_tcp_never_wedge_sessions() {
    let srv = ServerHandle::new(ServerOptions::default());
    let tcp = srv.serve("127.0.0.1:0").unwrap();
    let drv = TcpDriver::new(tcp.addr());
    byte_mutation_barrage(&drv);
    tcp.stop();
}

fn byte_mutation_barrage(drv: &dyn Driver) {
    feed(drv, &create_line("fuzz", 100_000));

    let corpus = corpus();
    let mut rng = 0x5eed_f00du64;
    for case in 0..512 {
        let mut bytes = corpus[case % corpus.len()].clone().into_bytes();
        // 1–4 random byte edits: overwrite, insert, delete, or truncate.
        for _ in 0..(1 + next_rand(&mut rng) % 4) {
            if bytes.is_empty() {
                break;
            }
            let pos = (next_rand(&mut rng) as usize) % bytes.len();
            match next_rand(&mut rng) % 4 {
                0 => bytes[pos] = (next_rand(&mut rng) % 256) as u8,
                1 => bytes.insert(pos, (next_rand(&mut rng) % 256) as u8),
                2 => {
                    bytes.remove(pos);
                }
                _ => bytes.truncate(pos),
            }
        }
        // A mutated terminator would frame two requests over TCP instead of
        // fuzzing one; strip in both variants so the corpora stay identical.
        for b in &mut bytes {
            if *b == b'\n' || *b == b'\r' {
                *b = b' ';
            }
        }
        let line = String::from_utf8_lossy(&bytes).into_owned();
        feed(drv, &line);
    }

    // The barrage over, the session still follows the protocol.
    healthy_round(drv, "fuzz");
}

#[test]
fn garbage_lines_yield_typed_errors() {
    let srv = ServerHandle::new(ServerOptions::default());
    garbage_barrage(&srv, &srv);
}

#[test]
fn garbage_lines_over_event_tcp_yield_typed_errors() {
    let srv = ServerHandle::new(ServerOptions::default());
    let tcp = srv.serve("127.0.0.1:0").unwrap();
    let drv = TcpDriver::new(tcp.addr());
    garbage_barrage(&srv, &drv);
    tcp.stop();
}

fn garbage_barrage(srv: &ServerHandle, drv: &dyn Driver) {
    feed(drv, &create_line("fuzz", 50));
    let cases: Vec<String> = vec![
        String::new(),
        " ".into(),
        "\u{0}\u{1}\u{2}".into(),
        "null".into(),
        "true".into(),
        "[1,2,3]".into(),
        "\"just a string\"".into(),
        "{}".into(),
        r#"{"op":null}"#.into(),
        r#"{"op":42}"#.into(),
        r#"{"op":"tune_all_the_things"}"#.into(),
        r#"{"op":"ask"}"#.into(),
        r#"{"op":"ask","session":""}"#.into(),
        r#"{"op":"ask","session":"no-such-session"}"#.into(),
        r#"{"op":"suggest_batch","session":"fuzz","q":"four"}"#.into(),
        r#"{"op":"suggest_batch","session":"fuzz","q":1e300}"#.into(),
        r#"{"op":"report","session":"fuzz"}"#.into(),
        r#"{"op":"report","session":"fuzz","config":[]}"#.into(),
        r#"{"op":"report","session":"fuzz","config":{"zzz":1},"value":1}"#.into(),
        r#"{"op":"report","session":"fuzz","config":{"a":99,"tile":4,"c":"y","p":[0,1,2]},"value":1}"#.into(),
        r#"{"op":"report","session":"fuzz","config":{"a":3,"tile":4,"c":"y","p":[0,0,0]},"value":1}"#.into(),
        r#"{"op":"report","session":"fuzz","config":{"a":3,"tile":4,"c":"y","p":[0,1,2]},"value":"eleven"}"#.into(),
        r#"{"op":"create_session","session":"fuzz","budget":5,"space":{"params":[],"constraints":[]}}"#.into(),
        r#"{"op":"create_session","session":"new","budget":5,"space":{"params":"nope","constraints":[]}}"#.into(),
        r#"{"op":"create_session","session":"new","budget":5,"space":{"params":[{"name":"x","kind":"alien"}],"constraints":[]}}"#.into(),
        r#"{"op":"create_session","session":"new","budget":5,"space":{"params":[{"name":"x","kind":"int","lo":"0","hi":"3"}],"constraints":["x >"]}}"#.into(),
        r#"{"op":"create_session","session":"new","budget":0,"space":{"params":[{"name":"x","kind":"int","lo":"0","hi":"3"}],"constraints":[]}}"#.into(),
        r#"{"op":"create_session","session":"../../etc/passwd","budget":5,"space":{"params":[{"name":"x","kind":"int","lo":"0","hi":"3"}],"constraints":[]}}"#.into(),
        format!("{{\"op\":\"ask\",\"session\":\"{}\"}}", "x".repeat(100_000)),
        format!("{}1{}", "[".repeat(10_000), "]".repeat(10_000)),
        format!(r#"{{"op":"ask","session":"fuzz","id":{}1{}}}"#, "[".repeat(80), "]".repeat(80)),
    ];
    for line in &cases {
        let reply = feed(drv, line);
        assert_eq!(
            reply.get("ok"),
            Some(&Json::Bool(false)),
            "garbage accepted: {:.120}",
            line
        );
    }
    // None of it wedged the live session or leaked a registration.
    healthy_round(drv, "fuzz");
    assert_eq!(srv.session_count(), 1);
}

/// Random interleaving of garbage with a *valid* driver: the deterministic
/// trajectory must be unaffected by any amount of rejected noise in between.
#[test]
fn garbage_between_valid_requests_leaves_trajectories_untouched() {
    assert_eq!(
        noise_interleaved_trajectory(false, false),
        noise_interleaved_trajectory(false, true),
        "rejected noise must not steer the trajectory"
    );
}

#[test]
fn garbage_over_event_tcp_leaves_trajectories_untouched() {
    // The TCP trajectory must match the in-process one exactly — with and
    // without interleaved noise — so the front end provably adds nothing.
    let want = noise_interleaved_trajectory(false, false);
    assert_eq!(noise_interleaved_trajectory(true, false), want);
    assert_eq!(
        noise_interleaved_trajectory(true, true),
        want,
        "rejected noise over TCP must not steer the trajectory"
    );
}

fn noise_interleaved_trajectory(tcp: bool, with_noise: bool) -> Vec<String> {
    let srv = ServerHandle::new(ServerOptions::default());
    let front = tcp.then(|| {
        let t = srv.serve("127.0.0.1:0").unwrap();
        let d = TcpDriver::new(t.addr());
        (t, d)
    });
    let drv: &dyn Driver = match &front {
        Some((_, d)) => d,
        None => &srv,
    };
    feed(drv, &create_line("s", 10));
    let mut rng = 0xabcdu64;
    let mut got = Vec::new();
    for _ in 0..10 {
        if with_noise {
            for _ in 0..(next_rand(&mut rng) % 3 + 1) {
                let junk = match next_rand(&mut rng) % 4 {
                    0 => r#"{"op":"ask","session":"ghost"}"#.to_string(),
                    1 => r#"{"op":"report","session":"s","config":{"a":-7},"value":0}"#.to_string(),
                    2 => "≈≈ total garbage ≈≈".to_string(),
                    _ => r#"{"op":"suggest_batch","session":"s","q":true}"#.to_string(),
                };
                let reply = feed(drv, &junk);
                assert_eq!(reply.get("ok"), Some(&Json::Bool(false)));
            }
        }
        got.push(healthy_round(drv, "s"));
    }
    got
}
