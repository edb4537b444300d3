//! Helpers shared by the tuning-server test suites (`server_concurrency`,
//! `server_proto_fuzz`, `server_recovery`, `server_event_loop`). Each suite
//! compiles this module into its own binary, so the reference-driving
//! protocol lives in exactly one place.
#![allow(dead_code)] // each test binary uses a different subset

use baco::journal::json::{self, Json};
use baco::server::ServerHandle;
use baco::SearchSpace;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;

/// The two-integer space every server suite tunes over.
pub fn int_space() -> SearchSpace {
    SearchSpace::builder()
        .integer("a", 0, 15)
        .integer("b", 0, 15)
        .build()
        .unwrap()
}

/// [`int_space`] as a one-line wire/journal spec.
pub fn int_space_spec_line() -> String {
    baco::journal::space_spec(&int_space()).to_line()
}

/// Splitmix-style LCG: cheap, seeded, good enough to scramble a schedule or
/// mutate bytes reproducibly.
pub fn next_rand(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Parses a reply line, panicking with the offending line on bad JSON.
pub fn parse_reply(reply: &str) -> Json {
    json::parse(reply).unwrap_or_else(|e| panic!("unparseable reply `{reply}`: {e}"))
}

/// How a suite talks to the server: one request line in, one reply line out
/// (no trailing newline). Implemented by the in-process [`ServerHandle`] and
/// by [`TcpDriver`] over the event-driven TCP front end, so every suite can
/// assert the same contract on both.
pub trait Driver: Sync {
    /// One request/reply round trip.
    fn request(&self, line: &str) -> String;
}

impl Driver for ServerHandle {
    fn request(&self, line: &str) -> String {
        self.handle_line(line)
    }
}

/// Drives a served TCP address through a pool of persistent connections:
/// each request checks a connection out (dialing a new one when the pool is
/// dry — so N racing threads exercise N multiplexed connections), does one
/// write-line/read-line round trip, and returns it. A request must not
/// contain `\n`/`\r` (it would be framed as several requests); suites that
/// fuzz raw bytes sanitize them first, in both variants, for parity.
pub struct TcpDriver {
    addr: SocketAddr,
    pool: Mutex<Vec<BufReader<TcpStream>>>,
}

impl TcpDriver {
    /// A driver for the server listening on `addr`.
    pub fn new(addr: SocketAddr) -> TcpDriver {
        TcpDriver {
            addr,
            pool: Mutex::new(Vec::new()),
        }
    }
}

impl Driver for TcpDriver {
    fn request(&self, line: &str) -> String {
        debug_assert!(
            !line.contains(['\n', '\r']),
            "a TCP request must be one line: {line:?}"
        );
        let mut conn = match self.pool.lock().unwrap().pop() {
            Some(c) => c,
            None => {
                let s = TcpStream::connect(self.addr).expect("connect to tuning server");
                let _ = s.set_nodelay(true);
                BufReader::new(s)
            }
        };
        conn.get_mut()
            .write_all(format!("{line}\n").as_bytes())
            .expect("write request line");
        let mut reply = String::new();
        conn.read_line(&mut reply).expect("read reply line");
        assert!(
            !reply.is_empty(),
            "server closed the connection instead of replying to {line:?}"
        );
        self.pool.lock().unwrap().push(conn);
        reply.trim_end_matches(['\n', '\r']).to_string()
    }
}

/// Sends one request line and asserts the reply is `ok: true`.
pub fn expect_ok<D: Driver + ?Sized>(drv: &D, line: &str) -> Json {
    let reply = drv.request(line);
    let j = parse_reply(&reply);
    assert_eq!(
        j.get("ok"),
        Some(&Json::Bool(true)),
        "request failed: {reply}\n  for: {line}"
    );
    j
}
