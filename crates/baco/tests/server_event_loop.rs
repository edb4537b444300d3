//! Hostile-client battery for the event-driven TCP front end.
//!
//! CounterPoint-style adversarial measurement: every behavioral claim the
//! readiness loop makes — non-blocking multiplexing, in-order pipelining,
//! incremental framing, write-side backpressure, typed load-shedding,
//! bounded idle memory — is attacked by a client built to break it:
//!
//! * slow-loris writers trickling a request one byte at a time while a
//!   well-behaved client expects full service;
//! * half-open connections (client shuts down its write side) that must
//!   still receive every pending reply before the server closes;
//! * mid-request disconnects, including with a request in flight at the
//!   workers, which must not crash, leak, or wedge anything;
//! * pipelined bursts with shuffled `id`s that must be answered strictly
//!   in request order per connection;
//! * reply floods against a tiny write budget (backpressure) combined with
//!   a tiny outstanding budget (shedding) — nothing lost, order kept;
//! * a 2 MiB line without a newline, which must be cut off *incrementally*
//!   at the 1 MiB cap (one typed error, then close), not buffered to the
//!   line's end;
//! * a 10k-idle-connection soak asserting bounded resident memory.

mod common;

use baco::journal::json::Json;
use baco::server::{raise_nofile_limit, ServerHandle, ServerOptions, TcpServer};
use common::{expect_ok, parse_reply, TcpDriver};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

fn serve(opts: ServerOptions) -> (ServerHandle, TcpServer) {
    let srv = ServerHandle::new(opts);
    let tcp = srv.serve("127.0.0.1:0").unwrap();
    (srv, tcp)
}

fn status_line(id: usize) -> String {
    format!(r#"{{"op":"status","id":{id}}}"#)
}

/// Reads one reply line, panicking on EOF.
fn read_reply(r: &mut BufReader<TcpStream>) -> Json {
    let mut line = String::new();
    r.read_line(&mut line).expect("read reply");
    assert!(!line.is_empty(), "server closed instead of replying");
    parse_reply(line.trim_end())
}

#[test]
fn slow_loris_writers_do_not_stall_well_behaved_clients() {
    let (_srv, tcp) = serve(ServerOptions::default());
    let addr = tcp.addr();

    // Eight slow-loris connections, each trickling a valid status request
    // one byte at a time with delays — their lines complete only at the end.
    let request = status_line(7);
    let loris: Vec<TcpStream> = (0..8).map(|_| TcpStream::connect(addr).unwrap()).collect();
    let trickler = std::thread::spawn(move || {
        let mut loris = loris;
        for byte in request.as_bytes() {
            for s in &mut loris {
                s.write_all(&[*byte]).unwrap();
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        for s in &mut loris {
            s.write_all(b"\n").unwrap();
        }
        loris
    });

    // Meanwhile a well-behaved client gets prompt full service: under a
    // thread-per-connection design slow clients merely pin threads, but a
    // blocking single-threaded design (or a loop that reads a connection
    // to completion) would wedge here.
    let drv = TcpDriver::new(addr);
    for i in 0..50 {
        let reply = expect_ok(&drv, &status_line(i));
        assert_eq!(reply.get("id").and_then(Json::as_f64), Some(i as f64));
    }

    // And the loris connections, once their lines finally complete, are
    // answered too — slow is served, not punished.
    let loris = trickler.join().unwrap();
    for s in loris {
        let mut r = BufReader::new(s);
        let reply = read_reply(&mut r);
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(reply.get("id").and_then(Json::as_f64), Some(7.0));
    }
    tcp.stop();
}

#[test]
fn half_open_connections_still_receive_their_replies() {
    let (_srv, tcp) = serve(ServerOptions::default());

    // Pipeline three requests, then half-close the write side before
    // reading anything: the server must drain — answer all three, flush,
    // and only then close.
    let mut s = TcpStream::connect(tcp.addr()).unwrap();
    let burst: String = (0..3).map(|i| format!("{}\n", status_line(i))).collect();
    s.write_all(burst.as_bytes()).unwrap();
    s.shutdown(Shutdown::Write).unwrap();
    let mut r = BufReader::new(s);
    for i in 0..3 {
        let reply = read_reply(&mut r);
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            reply.get("id").and_then(Json::as_f64),
            Some(i as f64),
            "in order"
        );
    }
    let mut rest = String::new();
    assert_eq!(r.read_line(&mut rest).unwrap(), 0, "then the server closes");

    // A half-open connection with an *unterminated* partial line has
    // nothing to answer: the server closes it without a reply.
    let mut s = TcpStream::connect(tcp.addr()).unwrap();
    s.write_all(br#"{"op":"status""#).unwrap();
    s.shutdown(Shutdown::Write).unwrap();
    let mut tail = Vec::new();
    s.read_to_end(&mut tail).unwrap();
    assert!(tail.is_empty(), "no reply to an unfinished line: {tail:?}");
    tcp.stop();
}

#[test]
fn mid_request_disconnects_harm_nobody_else() {
    let (srv, tcp) = serve(ServerOptions::default());
    let addr = tcp.addr();
    let drv = TcpDriver::new(addr);
    expect_ok(
        &drv,
        &format!(
            r#"{{"op":"create_session","session":"victim","budget":64,"doe_samples":4,"seed":3,"space":{}}}"#,
            common::int_space_spec_line()
        ),
    );

    for round in 0..20 {
        // Partial request, then vanish.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(br#"{"op":"ask","session":"vic"#).unwrap();
        drop(s);
        // Full request in flight at the workers, then vanish before the
        // reply: the completion must be dropped cleanly (stale generation),
        // not delivered to whoever reuses the slot.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"{\"op\":\"ask\",\"session\":\"victim\"}\n")
            .unwrap();
        drop(s);
        // An unrelated client stays fully served throughout.
        let reply = expect_ok(&drv, &status_line(round));
        assert_eq!(reply.get("id").and_then(Json::as_f64), Some(round as f64));
    }
    // The hammered session is intact — still answers a healthy round.
    let reply = expect_ok(&drv, r#"{"op":"ask","session":"victim"}"#);
    assert_ne!(reply.get("config"), Some(&Json::Null));
    assert_eq!(srv.session_count(), 1);
    tcp.stop();
}

#[test]
fn pipelined_bursts_with_shuffled_ids_answer_in_request_order() {
    let (_srv, tcp) = serve(ServerOptions::default());
    const N: usize = 100;

    // Shuffled id *values* — reply order must follow request order, not id
    // order, so any reordering in the loop/worker handoff is caught.
    let mut ids: Vec<usize> = (0..N).collect();
    let mut state = 0xfeedu64;
    for i in (1..N).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ids.swap(i, (state >> 33) as usize % (i + 1));
    }

    let mut s = TcpStream::connect(tcp.addr()).unwrap();
    let burst: String = ids
        .iter()
        .map(|id| format!("{}\n", status_line(*id)))
        .collect();
    s.write_all(burst.as_bytes()).unwrap();
    let mut r = BufReader::new(s);
    for (pos, id) in ids.iter().enumerate() {
        let reply = read_reply(&mut r);
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            reply.get("id").and_then(Json::as_f64),
            Some(*id as f64),
            "reply {pos} out of request order"
        );
    }
    tcp.stop();
}

#[test]
fn reply_flood_triggers_backpressure_then_shedding_without_loss() {
    // A tiny budget: more than 4 outstanding requests shed. The flood:
    // requests whose echoed `id` is ~64 KiB, written far faster than they
    // are read — 100 such replies far exceed the 256 KiB per-connection
    // write-buffer bound, so undelivered replies pause reading.
    let (_srv, tcp) = serve(ServerOptions {
        workers: 2,
        max_outstanding: 4,
        ..ServerOptions::default()
    });
    const N: usize = 100;
    let big_id = "x".repeat(64 * 1024);

    let s = TcpStream::connect(tcp.addr()).unwrap();
    let mut w = s.try_clone().unwrap();
    let payload = big_id.clone();
    let writer = std::thread::spawn(move || {
        // ~6.4 MB total: far beyond every buffer in the chain, so the
        // write-side must genuinely block on TCP flow control once the
        // server pauses reading this connection.
        for i in 0..N {
            let line = format!("{{\"op\":\"status\",\"id\":\"{payload}-{i}\"}}\n");
            w.write_all(line.as_bytes()).unwrap();
        }
    });

    // Give the flood a head start so backpressure actually engages before
    // the first read relieves it.
    std::thread::sleep(Duration::from_millis(100));

    let mut r = BufReader::new(s);
    let (mut ok, mut shed) = (0usize, 0usize);
    for i in 0..N {
        let reply = read_reply(&mut r);
        // Nothing lost, nothing reordered: the echoed id carries the index.
        let id = reply
            .get("id")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("reply {i} lost its id: {reply:?}"));
        assert_eq!(id, format!("{big_id}-{i}"), "reply {i} out of order");
        match reply.get("ok") {
            Some(Json::Bool(true)) => ok += 1,
            Some(Json::Bool(false)) => {
                let kind = reply
                    .get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Json::as_str);
                assert_eq!(
                    kind,
                    Some("overloaded"),
                    "only shed errors allowed: {reply:?}"
                );
                shed += 1;
            }
            other => panic!("reply {i} without boolean ok: {other:?}"),
        }
    }
    writer.join().unwrap();
    assert_eq!(ok + shed, N);
    assert!(ok >= 1, "some requests must be served");
    assert!(
        shed >= 1,
        "a {N}-deep burst against max_outstanding=4 must shed"
    );
    tcp.stop();
}

#[test]
fn two_mib_without_newline_is_cut_off_incrementally_at_one_mib() {
    let (_srv, tcp) = serve(ServerOptions::default());
    let mut s = TcpStream::connect(tcp.addr()).unwrap();

    // Trickle 1 MiB + one chunk, never sending a newline. The old framing
    // (error at line end) would sit on this forever; the incremental cap
    // must answer as soon as the unframed tail crosses 1 MiB.
    let chunk = vec![b'z'; 64 * 1024];
    let mut sent = 0usize;
    while sent <= 1 << 20 {
        if s.write_all(&chunk).is_err() {
            break; // already cut off — also proof of incremental enforcement
        }
        sent += chunk.len();
    }
    // One typed error line, with no newline ever sent …
    let mut r = BufReader::new(s.try_clone().unwrap());
    let mut reply = String::new();
    r.read_line(&mut reply).unwrap();
    assert!(reply.contains(r#""kind":"bad_request""#), "{reply}");
    // … then the connection closes (the trickled 2nd MiB has nowhere to go).
    let mut rest = String::new();
    assert_eq!(
        r.read_line(&mut rest).unwrap_or(0),
        0,
        "must close after the error"
    );
    tcp.stop();
}

/// Resident-set size of this process in bytes, from `/proc/self/status`.
fn rss_bytes() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for line in status.lines() {
        if let Some(kb) = line.strip_prefix("VmRSS:") {
            let kb: usize = kb.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

#[test]
fn ten_thousand_idle_connections_fit_in_bounded_memory() {
    // Both ends of every connection live in this process: budget fds for
    // client + server sides plus headroom for the rest of the test binary.
    let limit = raise_nofile_limit(24_000);
    let conns = usize::min(10_000, (limit.saturating_sub(1_000) / 2) as usize);
    assert!(
        conns >= 1_000,
        "fd limit {limit} too low to say anything useful"
    );

    let (_srv, tcp) = serve(ServerOptions {
        max_connections: conns + 16,
        ..ServerOptions::default()
    });
    let addr = tcp.addr();

    // One warm-up round trip, then measure the baseline after the server
    // side is fully initialized.
    let drv = TcpDriver::new(addr);
    expect_ok(&drv, &status_line(0));
    let before = rss_bytes();

    let mut idle: Vec<TcpStream> = Vec::with_capacity(conns);
    for i in 0..conns {
        match TcpStream::connect(addr) {
            Ok(s) => idle.push(s),
            Err(e) => panic!("connect {i}/{conns} failed: {e}"),
        }
        if i % 512 == 511 {
            // Let the accept loop drain the backlog so the listen queue
            // never overflows into connect timeouts.
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    // Every 100th connection proves it is really open and served, which
    // also forces the server to have materialized all of them.
    for (i, s) in idle.iter_mut().enumerate() {
        if i % 100 != 0 {
            continue;
        }
        s.write_all(format!("{}\n", status_line(i)).as_bytes())
            .unwrap();
        let mut r = BufReader::new(s.try_clone().unwrap());
        let reply = read_reply(&mut r);
        assert_eq!(
            reply.get("ok"),
            Some(&Json::Bool(true)),
            "conn {i} not served"
        );
    }

    let grown = rss_bytes().saturating_sub(before);
    let per_conn = grown / conns.max(1);
    // Thread-per-connection would burn ≥ one stack (typically ≥ 64 KiB
    // resident, 8 MiB virtual) per connection — 10k idle connections must
    // instead cost a small bounded slab entry each. The budget is generous
    // (client-side sockets of this very process are in the same RSS).
    assert!(
        per_conn <= 16 * 1024,
        "{conns} idle connections grew RSS by {grown} bytes ({per_conn}/conn)"
    );

    // Still responsive with every connection parked.
    let reply = expect_ok(&drv, &status_line(42));
    assert_eq!(reply.get("id").and_then(Json::as_f64), Some(42.0));
    drop(idle);
    tcp.stop();
}

/// A request that *races* server shutdown must either be answered or see a
/// clean close — never a hang. (Regression guard for the stop path: the
/// waker must pull the loop out of an indefinite `epoll_wait`.)
#[test]
fn stop_interrupts_an_idle_loop_promptly() {
    let (_srv, tcp) = serve(ServerOptions::default());
    let s = TcpStream::connect(tcp.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let start = std::time::Instant::now();
    tcp.stop();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "stop() took {:?} — the waker failed to interrupt epoll_wait",
        start.elapsed()
    );
    // The parked connection observes the shutdown as EOF/reset, not a hang.
    let mut r = BufReader::new(s);
    let mut line = String::new();
    let _ = r.read_line(&mut line);
    assert!(
        line.is_empty(),
        "no bytes should materialize after shutdown"
    );
}

#[test]
fn connections_past_the_fd_guard_get_one_overloaded_line() {
    let (_srv, tcp) = serve(ServerOptions {
        max_connections: 4,
        ..ServerOptions::default()
    });
    let addr = tcp.addr();
    let keep: Vec<TcpStream> = (0..4).map(|_| TcpStream::connect(addr).unwrap()).collect();
    // Make sure all four are accepted before the fifth dials in.
    let mut probe = keep[0].try_clone().unwrap();
    probe
        .write_all(format!("{}\n", status_line(0)).as_bytes())
        .unwrap();
    let mut r = BufReader::new(probe);
    read_reply(&mut r);

    let extra = TcpStream::connect(addr).unwrap();
    let mut r = BufReader::new(extra);
    let mut line = String::new();
    r.read_line(&mut line).unwrap();
    assert!(line.contains(r#""kind":"overloaded""#), "{line}");
    let mut rest = String::new();
    assert_eq!(r.read_line(&mut rest).unwrap_or(0), 0, "then closed");
    drop(keep);
    tcp.stop();
}
