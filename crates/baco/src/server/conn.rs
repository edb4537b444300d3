//! Per-connection state machine of the event-driven server core.
//!
//! One [`ConnState`] tracks everything the readiness loop knows about a
//! client connection, independent of the transport:
//!
//! ```text
//!   bytes in ──► read_buf ──frame──► pending queue ──► (one in-flight
//!                (≤ cap)    (\n)       (FIFO)            dispatch)
//!                                                          │
//!   bytes out ◄── write_buf (bounded; over the limit ◄─────┘ reply
//!                 ⇒ reading pauses: backpressure)
//! ```
//!
//! Invariants the loop relies on:
//!
//! * **At most one request of a connection is in flight** at the workers;
//!   later pipelined requests wait in `pending`. Combined with FIFO
//!   delivery this answers every connection strictly in request order —
//!   and keeps a pipelined driver's per-session semantics identical to a
//!   sequential one's (requests of one connection never race each other).
//! * **Framing is incremental**: the unframed tail may never exceed the
//!   request-line cap. A client trickling an endless line is cut off after
//!   one typed error, with `cap + one read chunk` as the high-water mark of
//!   buffered bytes — not "whenever the line ends".
//! * **Shed entries keep their place in line.** When the server is
//!   overloaded, a request is answered with a typed `overloaded` error —
//!   but that reply is queued *through the same FIFO*, so replies stay in
//!   request order even while shedding.
//! * **The write buffer is bounded** by backpressure, not by a hard error:
//!   while more than `write_limit` bytes are queued, [`ConnState::wants_read`]
//!   turns false and the loop stops reading from (and eventually, via TCP
//!   flow control, stops the sending of) that client.

use crate::journal::json::Json;
use std::collections::VecDeque;

/// One entry of the pipeline FIFO.
#[derive(Debug)]
pub(crate) enum Pending {
    /// A framed request line waiting for its turn at the workers.
    Request(String),
    /// A request that was shed at frame time; `0` is the request's `id`
    /// member (if it had a parseable one) for the pre-ordained error reply.
    Shed(Option<Json>),
}

/// Why [`ConnState::ingest`] refused more input.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct LineTooLong {
    /// Bytes accumulated without a newline when the cap tripped.
    pub buffered: usize,
}

/// The lifecycle phase of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Reading requests and writing replies.
    Open,
    /// The peer half-closed (EOF on read): in-flight and pending requests
    /// still drain, their replies still flush, then the connection closes.
    Draining,
    /// A fatal protocol violation (oversized line): flush what is queued —
    /// ending with the one typed error — then close. Nothing further is
    /// read or dispatched.
    Closing,
}

/// All loop-side state of one client connection (see the module docs).
#[derive(Debug)]
pub(crate) struct ConnState {
    read_buf: Vec<u8>,
    pending: VecDeque<Pending>,
    in_flight: bool,
    write_buf: Vec<u8>,
    write_pos: usize,
    write_limit: usize,
    /// Backpressure latch: set when the write buffer overflows its limit,
    /// cleared once it drains to half the limit (hysteresis, so a client
    /// hovering at the boundary cannot thrash interest registrations).
    paused: bool,
    phase: Phase,
}

/// Past this many queued-but-unwritten reply bytes the write buffer shrinks
/// back to nothing when it drains, instead of keeping its capacity parked on
/// an idle connection.
const WRITE_SHRINK_AT: usize = 64 * 1024;

impl ConnState {
    /// A fresh connection with the given write-buffer bound.
    pub fn new(write_limit: usize) -> ConnState {
        ConnState {
            read_buf: Vec::new(),
            pending: VecDeque::new(),
            in_flight: false,
            write_buf: Vec::new(),
            write_pos: 0,
            write_limit,
            paused: false,
            phase: Phase::Open,
        }
    }

    /// Appends freshly read bytes and returns the newly completed lines
    /// (without their terminators; a trailing `\r` is stripped).
    ///
    /// # Errors
    /// [`LineTooLong`] as soon as more than `cap` bytes accumulate without a
    /// newline — the incremental enforcement that makes a trickled 2 MiB
    /// "line" cost one error reply, not 2 MiB of buffering.
    pub fn ingest(&mut self, bytes: &[u8], cap: usize) -> Result<Vec<String>, LineTooLong> {
        debug_assert_eq!(self.phase, Phase::Open, "closing connections are not read");
        let mut lines = Vec::new();
        let mut rest = bytes;
        while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            let (head, tail) = rest.split_at(nl);
            rest = &tail[1..]; // drop the newline itself
            if self.read_buf.len() + head.len() > cap {
                self.read_buf.clear();
                return Err(LineTooLong { buffered: cap + 1 });
            }
            let line = if self.read_buf.is_empty() {
                String::from_utf8_lossy(head).into_owned()
            } else {
                self.read_buf.extend_from_slice(head);
                let whole = String::from_utf8_lossy(&self.read_buf).into_owned();
                self.read_buf.clear();
                whole
            };
            lines.push(line.trim_end_matches('\r').to_string());
        }
        if self.read_buf.len() + rest.len() > cap {
            let buffered = self.read_buf.len() + rest.len();
            self.read_buf = Vec::new(); // drop the hostile bytes *and* capacity
            return Err(LineTooLong { buffered });
        }
        self.read_buf.extend_from_slice(rest);
        if lines.is_empty()
            && self.read_buf.is_empty()
            && self.read_buf.capacity() > WRITE_SHRINK_AT
        {
            self.read_buf = Vec::new();
        }
        Ok(lines)
    }

    /// Queues one framed request (or a shed marker) at the back of the FIFO.
    pub fn push_pending(&mut self, p: Pending) {
        self.pending.push_back(p);
    }

    /// Requests framed but not yet dispatched or answered.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// How many queued entries are real `Request`s (shed markers excluded) —
    /// the number of server-wide `outstanding` slots this queue holds.
    pub fn pending_requests(&self) -> usize {
        self.pending
            .iter()
            .filter(|p| matches!(p, Pending::Request(_)))
            .count()
    }

    /// Whether a request of this connection is currently at the workers.
    pub fn in_flight(&self) -> bool {
        self.in_flight
    }

    /// Takes the next FIFO entry *if* the connection may dispatch (nothing
    /// in flight). `Request` entries flip the in-flight flag; `Shed` entries
    /// do not (their reply is pre-ordained and queued by the caller).
    pub fn next_dispatch(&mut self) -> Option<Pending> {
        if self.in_flight {
            return None;
        }
        let next = self.pending.pop_front()?;
        if matches!(next, Pending::Request(_)) {
            self.in_flight = true;
        }
        Some(next)
    }

    /// Marks the in-flight request answered (its reply is being queued).
    pub fn complete_in_flight(&mut self) {
        debug_assert!(self.in_flight);
        self.in_flight = false;
    }

    /// Appends one reply line (newline added here) to the write buffer;
    /// overflowing the bound latches backpressure.
    pub fn queue_reply(&mut self, line: &str) {
        self.write_buf.extend_from_slice(line.as_bytes());
        self.write_buf.push(b'\n');
        if self.buffered_out() > self.write_limit {
            self.paused = true;
        }
    }

    /// The bytes waiting to go out.
    pub fn writable(&self) -> &[u8] {
        &self.write_buf[self.write_pos..]
    }

    /// Records `n` bytes as written; reclaims the buffer once drained.
    pub fn consume_written(&mut self, n: usize) {
        self.write_pos += n;
        debug_assert!(self.write_pos <= self.write_buf.len());
        if self.write_pos == self.write_buf.len() {
            if self.write_buf.capacity() > WRITE_SHRINK_AT {
                self.write_buf = Vec::new();
            } else {
                self.write_buf.clear();
            }
            self.write_pos = 0;
        } else if self.write_pos > WRITE_SHRINK_AT {
            // Keep the unwritten tail compact so a slow reader cannot pin
            // the already-flushed prefix in memory.
            self.write_buf.drain(..self.write_pos);
            self.write_pos = 0;
        }
        if self.paused && self.buffered_out() <= self.write_limit / 2 {
            self.paused = false;
        }
    }

    /// Unwritten reply bytes currently buffered.
    pub fn buffered_out(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// Whether the write buffer is past its bound — the backpressure signal
    /// that pauses reading from this connection.
    #[cfg(test)]
    pub fn over_write_limit(&self) -> bool {
        self.buffered_out() > self.write_limit
    }

    /// Whether the loop should be reading from this connection: open, and
    /// not muted by the write-side backpressure latch.
    pub fn wants_read(&self) -> bool {
        self.phase == Phase::Open && !self.paused
    }

    /// The peer signalled EOF: stop reading, drain what is queued.
    pub fn peer_closed(&mut self) {
        if self.phase == Phase::Open {
            self.phase = Phase::Draining;
        }
        self.read_buf = Vec::new();
    }

    /// A fatal framing violation: flush queued replies, then close. Pending
    /// requests are dropped — there is no way to resynchronize mid-line.
    pub fn poison(&mut self) {
        self.phase = Phase::Closing;
        self.pending.clear();
        self.read_buf = Vec::new();
    }

    /// Current lifecycle phase.
    #[cfg(test)]
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Whether the connection has served its purpose and the loop should
    /// drop it: everything flushed and — unless poisoned — nothing left to
    /// answer.
    pub fn done(&self) -> bool {
        match self.phase {
            Phase::Open => false,
            Phase::Draining => {
                self.buffered_out() == 0 && !self.in_flight && self.pending.is_empty()
            }
            Phase::Closing => self.buffered_out() == 0 && !self.in_flight,
        }
    }

    /// Approximate heap footprint, for the bounded-memory assertions of the
    /// unit tests (the integration soak measures whole-process RSS instead).
    #[cfg(test)]
    pub fn memory_bytes(&self) -> usize {
        self.read_buf.capacity()
            + self.write_buf.capacity()
            + self
                .pending
                .iter()
                .map(|p| match p {
                    Pending::Request(s) => s.capacity(),
                    Pending::Shed(_) => std::mem::size_of::<Json>(),
                })
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_lines_across_arbitrary_chunk_boundaries() {
        let mut c = ConnState::new(1024);
        let input = b"{\"op\":\"status\"}\r\n{\"op\":\"ask\",\"session\":\"s\"}\n{\"op\":";
        let mut lines = Vec::new();
        for chunk in input.chunks(3) {
            lines.extend(c.ingest(chunk, 1 << 20).unwrap());
        }
        assert_eq!(
            lines,
            vec![
                r#"{"op":"status"}"#.to_string(),
                r#"{"op":"ask","session":"s"}"#.to_string()
            ]
        );
        // The partial tail stays buffered until its newline arrives.
        let more = c.ingest(b"\"close\"}\n", 1 << 20).unwrap();
        assert_eq!(more, vec![r#"{"op":"close"}"#.to_string()]);
    }

    #[test]
    fn line_cap_trips_incrementally_not_at_line_end() {
        let mut c = ConnState::new(1024);
        let cap = 100;
        // Trickle 30-byte chunks of a line that never ends: the error must
        // arrive as soon as the cap is crossed, with bounded buffering.
        let chunk = [b'x'; 30];
        let mut fed = 0;
        let err = loop {
            match c.ingest(&chunk, cap) {
                Ok(lines) => {
                    assert!(lines.is_empty());
                    fed += chunk.len();
                    assert!(fed <= cap + chunk.len(), "cap must trip before {fed} bytes");
                }
                Err(e) => break e,
            }
        };
        assert!(err.buffered <= cap + chunk.len());
        // A complete-but-oversized line in one chunk also trips.
        let mut c = ConnState::new(1024);
        let mut big = vec![b'y'; cap + 1];
        big.push(b'\n');
        assert!(c.ingest(&big, cap).is_err());
        // And the buffer is reclaimed, not parked.
        assert_eq!(c.memory_bytes(), 0);
    }

    #[test]
    fn fifo_dispatch_is_serial_and_order_preserving() {
        let mut c = ConnState::new(1024);
        c.push_pending(Pending::Request("r1".into()));
        c.push_pending(Pending::Shed(None));
        c.push_pending(Pending::Request("r2".into()));

        let Some(Pending::Request(r1)) = c.next_dispatch() else {
            panic!("r1 first")
        };
        assert_eq!(r1, "r1");
        assert!(c.in_flight());
        // While r1 is in flight nothing else dispatches — not even the shed
        // marker, which must keep its place in the reply order.
        assert!(c.next_dispatch().is_none());

        c.complete_in_flight();
        let Some(Pending::Shed(None)) = c.next_dispatch() else {
            panic!("shed second")
        };
        assert!(
            !c.in_flight(),
            "shed entries do not occupy the in-flight slot"
        );
        let Some(Pending::Request(r2)) = c.next_dispatch() else {
            panic!("r2 last")
        };
        assert_eq!(r2, "r2");
    }

    #[test]
    fn write_backpressure_pauses_and_resumes_with_hysteresis() {
        let mut c = ConnState::new(100);
        assert!(c.wants_read());
        // Staying under the limit never pauses, whatever the fill level.
        c.queue_reply(&"a".repeat(90));
        assert!(!c.over_write_limit());
        assert!(c.wants_read());
        // Overflowing latches the pause …
        c.queue_reply(&"b".repeat(60));
        assert!(c.over_write_limit());
        assert!(!c.wants_read(), "over the limit ⇒ reading pauses");
        // … draining to just under the limit is not enough (hysteresis) …
        let n = c.buffered_out() - 60;
        c.consume_written(n);
        assert!(!c.over_write_limit());
        assert!(!c.wants_read());
        // … reading resumes at half the limit.
        c.consume_written(15);
        assert!(c.wants_read());
    }

    #[test]
    fn drained_buffers_release_their_capacity() {
        let mut c = ConnState::new(1 << 20);
        c.queue_reply(&"z".repeat(200 * 1024));
        let n = c.writable().len();
        c.consume_written(n);
        assert_eq!(
            c.memory_bytes(),
            0,
            "a drained big write buffer must not stay parked"
        );
    }

    #[test]
    fn lifecycle_phases_gate_done() {
        let mut c = ConnState::new(1024);
        c.push_pending(Pending::Request("r".into()));
        c.peer_closed();
        assert_eq!(c.phase(), Phase::Draining);
        assert!(!c.done(), "pending work still drains after EOF");
        let Some(Pending::Request(_)) = c.next_dispatch() else {
            panic!()
        };
        c.complete_in_flight();
        c.queue_reply("reply");
        assert!(!c.done(), "reply not yet flushed");
        let n = c.writable().len();
        c.consume_written(n);
        assert!(c.done());

        let mut c = ConnState::new(1024);
        c.push_pending(Pending::Request("dropped".into()));
        c.queue_reply("error");
        c.poison();
        assert_eq!(c.phase(), Phase::Closing);
        assert_eq!(c.pending_len(), 0, "poisoning drops unanswerable pendings");
        assert!(!c.done());
        let n = c.writable().len();
        c.consume_written(n);
        assert!(c.done());
    }
}
