//! The event-driven TCP front end, the only one: one readiness loop
//! multiplexing every connection over the platform's poller
//! ([`super::sys::Poller`]: epoll on Linux, `poll(2)` elsewhere), with
//! request dispatch on a small worker pool.
//!
//! ```text
//!              ┌───────────────── readiness loop (1 thread) ─────────────────┐
//!   accept ──► │ non-blocking accept → slab of ConnState                     │
//!   readable ─► read → incremental framing → FIFO ──► job queue ─┐           │
//!   writable ─► flush bounded write buffers  ◄── completions ◄── │ workers   │
//!   waker ───► drain completions                                 │ (N threads│
//!              └─────────────────────────────────────────────────┘  share the│
//!                                                                   registry)┘
//! ```
//!
//! Division of labour: the loop does **only I/O and framing** — every
//! request (JSON parse included) runs on a worker via
//! [`ServerHandle::handle_line`], so a slow tuner operation never stalls
//! accepts, reads, or writes. Per-connection order is preserved by
//! dispatching at most one request per connection at a time
//! ([`ConnState`]'s FIFO); cross-connection parallelism comes from the pool,
//! and per-session serialization is the registry's per-slot mutex.
//!
//! Overload policy:
//!
//! * more than [`ServerOptions::max_outstanding`] requests accepted but
//!   unanswered server-wide, or more than
//!   [`ServerOptions::max_pending_per_conn`] queued on one connection
//!   ⇒ the request is **shed**: a typed `overloaded` error reply (with the
//!   request's `id` echoed) delivered in order, connection kept open —
//!   shed load is retryable load;
//! * a connection whose write buffer outgrows
//!   [`ServerOptions::write_buf_limit`] stops being read until it drains
//!   (backpressure via TCP flow control);
//! * only above [`ServerOptions::max_connections`] — an fd-exhaustion
//!   guard, not a throughput limit — is a fresh connection answered with
//!   one `overloaded` line and closed.

use super::conn::{ConnState, Pending};
use super::proto::{self, WireError};
use super::sys::{self, Readiness};
use super::{ServerHandle, TcpServer};
use crate::journal::json;
use crate::{Error, Result};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::os::unix::prelude::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Longest request line the loop accepts. Past this cap, counted
/// incrementally as bytes arrive, the connection gets one `bad_request`
/// reply and is closed (there is no way to resynchronize mid-line), so one
/// client streaming bytes with no newline cannot grow the daemon's memory
/// without limit.
pub(super) const MAX_REQUEST_LINE: usize = 1 << 20;

/// Token of the listening socket (never a valid slab index).
const TOKEN_LISTENER: u64 = u64::MAX;
/// Token of the loop-wake pipe.
const TOKEN_WAKER: u64 = u64::MAX - 1;

/// One request handed to the worker pool.
struct Job {
    token: usize,
    gen: u64,
    line: String,
}

/// One worker result on its way back to the loop.
struct Completion {
    token: usize,
    gen: u64,
    reply: String,
}

/// State shared between the loop, the workers, and the controller.
struct Shared {
    jobs: Mutex<VecDeque<Job>>,
    jobs_cv: Condvar,
    completions: Mutex<Vec<Completion>>,
    stop: AtomicBool,
}

impl Shared {
    fn enqueue(&self, job: Job) {
        self.jobs.lock().unwrap_or_else(|e| e.into_inner()).push_back(job);
        self.jobs_cv.notify_one();
    }
}

/// Wakes the loop out of its poller wait (worker completions, stop requests).
/// Cheap to clone; writes are single bytes and a full pipe is itself a
/// successful wake, so `WouldBlock` is ignored.
#[derive(Debug)]
pub(crate) struct Waker(UnixStream);

impl Waker {
    pub(super) fn wake(&self) {
        let _ = (&self.0).write(&[1u8]);
    }

    fn try_clone(&self) -> std::io::Result<Waker> {
        Ok(Waker(self.0.try_clone()?))
    }
}

/// Binds `addr` and spawns the readiness loop on backend `P` (the
/// platform's [`Poller`](super::sys::Poller) in production), plus its
/// worker pool.
pub(super) fn serve_on<P: Readiness, A: ToSocketAddrs>(
    handle: ServerHandle,
    addr: A,
) -> Result<TcpServer> {
    let listener = TcpListener::bind(addr).map_err(|e| Error::Io(format!("bind: {e}")))?;
    let local = listener.local_addr().map_err(|e| Error::Io(format!("local_addr: {e}")))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| Error::Io(format!("set_nonblocking: {e}")))?;

    let (wake_rx, wake_tx) =
        UnixStream::pair().map_err(|e| Error::Io(format!("waker: {e}")))?;
    wake_rx.set_nonblocking(true).map_err(|e| Error::Io(format!("waker: {e}")))?;
    wake_tx.set_nonblocking(true).map_err(|e| Error::Io(format!("waker: {e}")))?;
    let waker = Waker(wake_tx);

    let mut poller = P::new().map_err(|e| Error::Io(format!("poller: {e}")))?;
    let watched = [(listener.as_raw_fd(), TOKEN_LISTENER), (wake_rx.as_raw_fd(), TOKEN_WAKER)];
    for (fd, token) in watched {
        poller.add(fd, sys::EPOLLIN, token).map_err(|e| Error::Io(format!("poller add: {e}")))?;
    }

    let stop = Arc::new(AtomicBool::new(false));
    let shared = Arc::new(Shared {
        jobs: Mutex::new(VecDeque::new()),
        jobs_cv: Condvar::new(),
        completions: Mutex::new(Vec::new()),
        stop: AtomicBool::new(false),
    });

    let workers: Vec<JoinHandle<()>> = (0..handle.inner.opts.workers.max(1))
        .map(|_| {
            let shared = Arc::clone(&shared);
            let handle = handle.clone();
            let waker = waker.try_clone().map_err(|e| Error::Io(format!("waker: {e}")))?;
            Ok(std::thread::spawn(move || worker_loop(&shared, &handle, &waker)))
        })
        .collect::<Result<_>>()?;

    let stop2 = Arc::clone(&stop);
    let thread = std::thread::spawn(move || {
        let mut lp = EventLoop {
            handle,
            poller,
            listener,
            wake_rx,
            shared: Arc::clone(&shared),
            stop: stop2,
            slab: Vec::new(),
            free: Vec::new(),
            conns: 0,
            outstanding: 0,
            next_gen: 0,
            scratch: vec![0u8; 64 * 1024],
            accept_throttled: false,
        };
        lp.run();
        // Loop done: release the workers, then join them so no worker
        // outlives the front end it belongs to.
        shared.stop.store(true, Ordering::SeqCst);
        shared.jobs_cv.notify_all();
        for w in workers {
            let _ = w.join();
        }
    });

    Ok(TcpServer { addr: local, stop, waker, thread: Some(thread) })
}

fn worker_loop(shared: &Shared, handle: &ServerHandle, waker: &Waker) {
    loop {
        let job = {
            let mut q = shared.jobs.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(job) = q.pop_front() {
                    break job;
                }
                q = shared.jobs_cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        // `handle_line` promises never to panic; the catch is belt and
        // braces so one violation cannot wedge the connection forever
        // behind a lost completion.
        let reply = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle.handle_line(&job.line)
        }))
        .unwrap_or_else(|_| {
            proto::err_line(
                None,
                &WireError { kind: proto::ErrorKind::Tuner, msg: "internal panic".into() },
            )
        });
        shared
            .completions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Completion { token: job.token, gen: job.gen, reply });
        waker.wake();
    }
}

/// One multiplexed connection in the slab.
struct Conn {
    stream: TcpStream,
    state: ConnState,
    /// Distinguishes this connection from earlier users of the same slab
    /// slot, so a completion for a dead connection is never delivered to
    /// its successor.
    gen: u64,
    /// Event set currently registered with the poller.
    interest: u32,
}

struct EventLoop<P> {
    handle: ServerHandle,
    poller: P,
    listener: TcpListener,
    wake_rx: UnixStream,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    slab: Vec<Option<Conn>>,
    free: Vec<usize>,
    conns: usize,
    /// Requests accepted (framed, not shed) but not yet answered,
    /// server-wide — the load-shedding measure.
    outstanding: usize,
    next_gen: u64,
    scratch: Vec<u8>,
    /// Set when `accept` failed for a reason other than `WouldBlock`
    /// (fd exhaustion): the next wait uses a timeout so the loop retries
    /// without busy-spinning on a level-triggered listener event.
    accept_throttled: bool,
}

const READ_INTEREST: u32 = sys::EPOLLIN | sys::EPOLLRDHUP;

impl<P: Readiness> EventLoop<P> {
    fn run(&mut self) {
        let mut events: Vec<(u32, u64)> = Vec::new();
        while !self.stop.load(Ordering::SeqCst) {
            let timeout = if self.accept_throttled { 50 } else { -1 };
            if self.poller.wait(&mut events, timeout).is_err() {
                break; // a broken poller is unrecoverable
            }
            if self.accept_throttled {
                // Retry the accept backlog even if no event fired.
                self.accept_ready();
            }
            for &(ev, token) in &events {
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.drain_waker(),
                    idx => self.conn_event(idx as usize, ev),
                }
            }
            // Completions are drained every iteration (not only on waker
            // events): a wake byte pushed while the loop was already awake
            // must not postpone its replies to the next kernel event.
            self.deliver_completions();
        }
    }

    fn accept_ready(&mut self) {
        self.accept_throttled = false;
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.conns >= self.handle.inner.opts.max_connections {
                        // Past the fd guard: shed the connection itself —
                        // one typed line (the socket's empty send buffer
                        // accepts it without blocking), then close.
                        let _ = stream.set_nonblocking(true);
                        let mut s = stream;
                        let _ = s.write_all(
                            format!("{}\n", proto::err_line(None, &WireError::overloaded()))
                                .as_bytes(),
                        );
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let idx = self.free.pop().unwrap_or_else(|| {
                        self.slab.push(None);
                        self.slab.len() - 1
                    });
                    self.next_gen += 1;
                    let conn = Conn {
                        stream,
                        state: ConnState::new(self.handle.inner.opts.write_buf_limit),
                        gen: self.next_gen,
                        interest: READ_INTEREST,
                    };
                    if self
                        .poller
                        .add(conn.stream.as_raw_fd(), READ_INTEREST, idx as u64)
                        .is_err()
                    {
                        self.free.push(idx);
                        continue;
                    }
                    self.slab[idx] = Some(conn);
                    self.conns += 1;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    // fd exhaustion and friends: back off instead of
                    // spinning on the still-readable listener.
                    self.accept_throttled = true;
                    return;
                }
            }
        }
    }

    fn drain_waker(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            match (&self.wake_rx).read(&mut buf) {
                Ok(0) => return,
                Ok(n) if n < buf.len() => return,
                Ok(_) => continue,
                Err(_) => return,
            }
        }
    }

    fn deliver_completions(&mut self) {
        let done: Vec<Completion> = {
            let mut c = self.shared.completions.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *c)
        };
        for c in done {
            let Some(conn) = self.slab.get_mut(c.token).and_then(Option::as_mut) else {
                continue; // connection died with the request in flight
            };
            if conn.gen != c.gen {
                continue; // slot recycled since; same story
            }
            conn.state.complete_in_flight();
            self.outstanding -= 1;
            conn.state.queue_reply(&c.reply);
            self.pump(c.token);
            self.flush_and_update(c.token);
        }
    }

    fn conn_event(&mut self, idx: usize, ev: u32) {
        if self.slab.get(idx).and_then(Option::as_ref).is_none() {
            return; // closed earlier in this event batch
        }
        if ev & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
            self.close_conn(idx);
            return;
        }
        if ev & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0 {
            self.conn_readable(idx);
        }
        // Whatever happened — new replies queued, backpressure toggled, the
        // socket reported writable — one flush-and-reconcile pass settles it.
        self.flush_and_update(idx);
    }

    fn conn_readable(&mut self, idx: usize) {
        loop {
            let Some(conn) = self.slab.get_mut(idx).and_then(Option::as_mut) else { return };
            if !conn.state.wants_read() {
                return;
            }
            let n = match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    conn.state.peer_closed();
                    return;
                }
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(idx);
                    return;
                }
            };
            let framed = conn.state.ingest(&self.scratch[..n], MAX_REQUEST_LINE);
            match framed {
                Ok(lines) => {
                    for line in lines {
                        self.frame_request(idx, line);
                    }
                }
                Err(too_long) => {
                    // One typed error, then close after the flush — there
                    // is no way to resynchronize inside an unbounded line.
                    let e = WireError::bad_request(format!(
                        "request line exceeds {MAX_REQUEST_LINE} bytes ({}+ buffered)",
                        too_long.buffered
                    ));
                    let reply = proto::err_line(None, &e);
                    let Some(conn) = self.slab.get_mut(idx).and_then(Option::as_mut) else {
                        return;
                    };
                    // Poisoning drops the pending FIFO; release the
                    // outstanding slots its queued requests held (the
                    // in-flight one, if any, is released by its completion
                    // as usual — the connection stays alive until then).
                    self.outstanding -= conn.state.pending_requests();
                    conn.state.queue_reply(&reply);
                    conn.state.poison();
                    return;
                }
            }
            if n < self.scratch.len() {
                return; // drained the socket (level-trigger refires if not)
            }
        }
    }

    fn frame_request(&mut self, idx: usize, line: String) {
        let opts = &self.handle.inner.opts;
        let max_outstanding = opts.max_outstanding;
        let max_pending = opts.max_pending_per_conn;
        let Some(conn) = self.slab.get_mut(idx).and_then(Option::as_mut) else { return };
        let overloaded = self.outstanding >= max_outstanding
            || conn.state.pending_len() >= max_pending;
        if overloaded {
            // Shed: answer `overloaded` (id echoed) *in order* — the marker
            // rides the same FIFO as real requests.
            let id = json::parse(&line).ok().and_then(|j| j.get("id").cloned());
            conn.state.push_pending(Pending::Shed(id));
        } else {
            self.outstanding += 1;
            conn.state.push_pending(Pending::Request(line));
        }
        self.pump(idx);
    }

    /// Advances a connection's FIFO: queues replies for shed entries and
    /// dispatches the next request if none is in flight.
    fn pump(&mut self, idx: usize) {
        loop {
            let Some(conn) = self.slab.get_mut(idx).and_then(Option::as_mut) else { return };
            let gen = conn.gen;
            match conn.state.next_dispatch() {
                None => return,
                Some(Pending::Request(line)) => {
                    self.shared.enqueue(Job { token: idx, gen, line });
                    return;
                }
                Some(Pending::Shed(id)) => {
                    let reply = proto::err_line(id.as_ref(), &WireError::overloaded());
                    conn.state.queue_reply(&reply);
                }
            }
        }
    }

    /// Flushes as much of the write buffer as the socket accepts, closes
    /// finished connections, and reconciles the poller interest set.
    fn flush_and_update(&mut self, idx: usize) {
        loop {
            let Some(conn) = self.slab.get_mut(idx).and_then(Option::as_mut) else { return };
            let chunk = conn.state.writable();
            if chunk.is_empty() {
                break;
            }
            match conn.stream.write(chunk) {
                Ok(0) => {
                    self.close_conn(idx);
                    return;
                }
                Ok(n) => conn.state.consume_written(n),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(idx);
                    return;
                }
            }
        }
        let Some(conn) = self.slab.get_mut(idx).and_then(Option::as_mut) else { return };
        if conn.state.done() {
            self.close_conn(idx);
            return;
        }
        let mut want = 0u32;
        if conn.state.wants_read() {
            want |= READ_INTEREST;
        }
        if conn.state.buffered_out() > 0 {
            want |= sys::EPOLLOUT;
        }
        if want != conn.interest {
            let fd = conn.stream.as_raw_fd();
            if self.poller.modify(fd, want, idx as u64).is_ok() {
                conn.interest = want;
            }
        }
    }

    fn close_conn(&mut self, idx: usize) {
        let Some(conn) = self.slab.get_mut(idx).and_then(Option::take) else { return };
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        // Release every outstanding slot this connection still held: its
        // queued requests die here, and its in-flight one (if any) must be
        // released here too, because the stale-generation check will skip
        // its completion without touching the counter.
        self.outstanding -= conn.state.pending_requests() + usize::from(conn.state.in_flight());
        self.conns -= 1;
        self.free.push(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::json::Json;
    use crate::server::ServerOptions;
    use std::io::{BufRead, BufReader};
    use std::net::Shutdown;

    fn status_line(id: usize) -> String {
        format!("{{\"op\":\"status\",\"id\":{id}}}\n")
    }

    fn read_reply(r: &mut BufReader<TcpStream>) -> Json {
        let mut line = String::new();
        r.read_line(&mut line).expect("read reply");
        assert!(!line.is_empty(), "server closed instead of replying");
        json::parse(line.trim_end()).expect("replies are valid JSON")
    }

    fn error_kind(reply: &Json) -> Option<&str> {
        reply.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str)
    }

    /// The whole loop on backend `P`: pipelining with shedding, half-close
    /// drain, the request-line cap, and the connection guard.
    fn loop_serves_pipelines_and_limits<P: Readiness>() {
        let handle = ServerHandle::new(ServerOptions {
            max_connections: 2,
            max_outstanding: 4,
            ..ServerOptions::default()
        });
        let tcp = serve_on::<P, _>(handle, "127.0.0.1:0").unwrap();

        // A 64-request pipelined burst: answered in request order, the
        // requests past 4 outstanding shed as `overloaded`.
        let mut a = TcpStream::connect(tcp.addr()).unwrap();
        let burst: String = (0..64).map(status_line).collect();
        a.write_all(burst.as_bytes()).unwrap();
        let mut ra = BufReader::new(a.try_clone().unwrap());
        let mut shed = 0;
        for i in 0..64 {
            let reply = read_reply(&mut ra);
            assert_eq!(reply.get("id").and_then(Json::as_f64), Some(i as f64), "in order");
            if reply.get("ok") != Some(&Json::Bool(true)) {
                assert_eq!(error_kind(&reply), Some("overloaded"), "{reply:?}");
                shed += 1;
            }
        }
        assert!((1..64).contains(&shed), "{shed} of 64 shed past max_outstanding = 4");

        // Half-close after three requests: all three are answered, then
        // the server closes.
        let mut b = TcpStream::connect(tcp.addr()).unwrap();
        let three: String = (0..3).map(status_line).collect();
        b.write_all(three.as_bytes()).unwrap();
        b.shutdown(Shutdown::Write).unwrap();
        let mut rb = BufReader::new(b);
        for i in 0..3 {
            let reply = read_reply(&mut rb);
            assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
            assert_eq!(reply.get("id").and_then(Json::as_f64), Some(i as f64));
        }
        let mut rest = String::new();
        assert_eq!(rb.read_line(&mut rest).unwrap(), 0, "then the server closes");

        // A second live connection fills the guard; a third gets one
        // `overloaded` line and is closed.
        let mut c = TcpStream::connect(tcp.addr()).unwrap();
        c.write_all(status_line(0).as_bytes()).unwrap();
        let mut rc = BufReader::new(c.try_clone().unwrap());
        assert_eq!(read_reply(&mut rc).get("ok"), Some(&Json::Bool(true)));
        let mut rd = BufReader::new(TcpStream::connect(tcp.addr()).unwrap());
        assert_eq!(error_kind(&read_reply(&mut rd)), Some("overloaded"));
        assert_eq!(rd.read_line(&mut rest).unwrap_or(0), 0, "then closed");

        // A 2 MiB line is cut at the 1 MiB cap: one `bad_request`, then the
        // server closes (and the writer sees the reset).
        let writer = std::thread::spawn(move || {
            let chunk = vec![b'z'; 64 * 1024];
            for _ in 0..32 {
                if c.write_all(&chunk).is_err() {
                    break; // already cut off
                }
            }
        });
        assert_eq!(error_kind(&read_reply(&mut rc)), Some("bad_request"));
        assert_eq!(rc.read_line(&mut rest).unwrap_or(0), 0, "must close after the error");
        writer.join().unwrap();
        tcp.stop();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn loop_serves_pipelines_and_limits_on_epoll() {
        loop_serves_pipelines_and_limits::<sys::epoll::Epoll>();
    }

    #[test]
    fn loop_serves_pipelines_and_limits_on_poll() {
        loop_serves_pipelines_and_limits::<sys::poll::Poll>();
    }
}
