//! Raw `libc`-style syscall bindings for the event-driven server core, and
//! the only platform-specific code of the server.
//!
//! The container has no registry access, so instead of pulling in `libc`/
//! `mio` this module declares the handful of symbols the readiness loop
//! needs directly against the C library the Rust standard library already
//! links (the same approach as the vendored `rand`/`proptest` shims, one
//! layer lower). One contract, [`Readiness`], has two backends, and
//! [`Poller`] names the platform's: `epoll` on Linux, POSIX `poll(2)` on
//! every other Unix. Linux keeps epoll because `poll(2)` rescans every fd on
//! each wait: next to ~10k idle connections a round trip goes from
//! microseconds to milliseconds. Linux test builds compile both backends,
//! so the contract and loop tests run on each.
//!
//! Errors are surfaced through [`std::io::Error::last_os_error`], which
//! reads `errno` without needing a binding of our own.

#![allow(non_camel_case_types)]

use std::io;
use std::os::raw::c_int;

/// Readiness flag: the fd is readable.
pub const EPOLLIN: u32 = 0x001;
/// Readiness flag: the fd is writable.
pub const EPOLLOUT: u32 = 0x004;
/// Readiness flag: error condition on the fd.
pub const EPOLLERR: u32 = 0x008;
/// Readiness flag: hangup on the fd.
pub const EPOLLHUP: u32 = 0x010;
/// Readiness flag: the peer shut down its writing half.
pub const EPOLLRDHUP: u32 = 0x2000;

/// A level-triggered readiness poller over raw fds. Interest and reported
/// events are `EPOLL*` bit sets; every registered fd carries a caller token
/// that comes back verbatim with its events.
pub trait Readiness: Sized + Send + 'static {
    /// Creates an empty poller.
    fn new() -> io::Result<Self>;
    /// Starts watching `fd` for `events`, tagging readiness with `token`.
    fn add(&mut self, fd: i32, events: u32, token: u64) -> io::Result<()>;
    /// Changes the watched event set of an already-registered `fd`.
    fn modify(&mut self, fd: i32, events: u32, token: u64) -> io::Result<()>;
    /// Stops watching `fd`.
    fn delete(&mut self, fd: i32) -> io::Result<()>;
    /// Blocks until at least one registered fd is ready (or `timeout_ms`
    /// elapses; `-1` blocks indefinitely) and fills `buf` with
    /// `(events, token)` pairs. Interruption by a signal is zero events.
    fn wait(&mut self, buf: &mut Vec<(u32, u64)>, timeout_ms: i32) -> io::Result<()>;
}

/// A syscall's return code as a result: negative is `errno`.
fn cvt(rc: c_int) -> io::Result<c_int> {
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(rc)
}

/// A wait call's return code as a ready count; a signal is zero events.
fn ready(rc: c_int) -> io::Result<usize> {
    match cvt(rc) {
        Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
        rc => rc.map(|n| n as usize),
    }
}

/// The platform's readiness backend.
#[cfg(target_os = "linux")]
pub(crate) type Poller = epoll::Epoll;
/// The platform's readiness backend.
#[cfg(not(target_os = "linux"))]
pub(crate) type Poller = poll::Poll;

/// Linux `epoll(7)`: the readiness backend on Linux.
#[cfg(target_os = "linux")]
pub mod epoll {
    use super::{cvt, ready, Readiness};
    use std::io;
    use std::os::raw::c_int;

    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLL_CLOEXEC: c_int = 0x80000;

    /// The kernel's `struct epoll_event`. On x86-64 the kernel ABI packs it
    /// to 12 bytes; a plain `repr(C)` 16-byte layout would make
    /// `epoll_wait` write entries at the wrong stride.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct epoll_event {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut epoll_event) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut epoll_event,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    /// One epoll instance; closes its fd on drop.
    #[derive(Debug)]
    pub struct Epoll {
        epfd: c_int,
    }

    impl Epoll {
        fn ctl(&self, op: c_int, fd: i32, events: u32, token: u64) -> io::Result<()> {
            let mut ev = epoll_event {
                events,
                data: token,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it. For
            // EPOLL_CTL_DEL the pointer is ignored on any kernel ≥ 2.6.9
            // but passing a valid one is always allowed.
            cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) }).map(drop)
        }
    }

    impl Readiness for Epoll {
        fn new() -> io::Result<Epoll> {
            // SAFETY: epoll_create1 takes no pointers; a negative return is
            // the only failure mode and is checked by `cvt`.
            Ok(Epoll {
                epfd: cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?,
            })
        }

        fn add(&mut self, fd: i32, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, events, token)
        }

        fn modify(&mut self, fd: i32, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, events, token)
        }

        fn delete(&mut self, fd: i32) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        fn wait(&mut self, buf: &mut Vec<(u32, u64)>, timeout_ms: i32) -> io::Result<()> {
            const MAX_EVENTS: usize = 256;
            let mut events = [epoll_event { events: 0, data: 0 }; MAX_EVENTS];
            buf.clear();
            // SAFETY: the buffer pointer/capacity pair is valid for the
            // call's duration; the kernel writes at most MAX_EVENTS entries.
            let n = ready(unsafe {
                epoll_wait(
                    self.epfd,
                    events.as_mut_ptr(),
                    MAX_EVENTS as c_int,
                    timeout_ms,
                )
            })?;
            // `|&e|` copies out of the (packed) struct before the fields
            // are read.
            buf.extend(events[..n].iter().map(|&e| (e.events, e.data)));
            Ok(())
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: the fd is owned by this Epoll and closed exactly once.
            unsafe { close(self.epfd) };
        }
    }
}

/// POSIX `poll(2)`: the readiness backend off Linux.
#[cfg(any(test, not(target_os = "linux")))]
pub mod poll {
    use super::{ready, Readiness, EPOLLERR, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
    use std::io;
    use std::os::raw::{c_int, c_short};

    // `POLLIN`, `POLLOUT` and `POLLERR` equal their `EPOLL*` twins.
    const POLLHUP: u32 = 0x010;
    const POLLNVAL: u32 = 0x020;

    #[cfg(target_os = "linux")]
    type nfds_t = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type nfds_t = std::os::raw::c_uint;

    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    struct pollfd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    extern "C" {
        fn poll(fds: *mut pollfd, nfds: nfds_t, timeout: c_int) -> c_int;
    }

    /// The registered fds as one `pollfd` array, handed whole to every
    /// `poll(2)` call.
    #[derive(Debug, Default)]
    pub struct Poll {
        fds: Vec<pollfd>,
        /// Per entry: the registered fd (`pollfd.fd` may be parked at -1)
        /// and its token.
        tokens: Vec<(c_int, u64)>,
    }

    impl Poll {
        fn entry(&self, fd: i32) -> io::Result<usize> {
            let i = self.tokens.iter().position(|&(f, _)| f == fd);
            i.ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
        }
    }

    impl Readiness for Poll {
        fn new() -> io::Result<Poll> {
            Ok(Poll::default())
        }

        fn add(&mut self, fd: i32, events: u32, token: u64) -> io::Result<()> {
            self.fds.push(pollfd {
                fd,
                events: 0,
                revents: 0,
            });
            self.tokens.push((fd, token));
            self.modify(fd, events, token)
        }

        /// Masks the interest to `EPOLLIN | EPOLLOUT`. `poll(2)` skips
        /// negative fds, so an entry left without interest parks at -1 and
        /// reports nothing, not even a hangup: a connection waiting on its
        /// worker cannot spin the loop.
        fn modify(&mut self, fd: i32, events: u32, token: u64) -> io::Result<()> {
            let i = self.entry(fd)?;
            let events = events & (EPOLLIN | EPOLLOUT);
            let polled = if events == 0 { -1 } else { fd };
            self.fds[i] = pollfd {
                fd: polled,
                events: events as c_short,
                revents: 0,
            };
            self.tokens[i] = (fd, token);
            Ok(())
        }

        fn delete(&mut self, fd: i32) -> io::Result<()> {
            let i = self.entry(fd)?;
            self.fds.swap_remove(i);
            self.tokens.swap_remove(i);
            Ok(())
        }

        /// Reports `POLLNVAL` as `EPOLLERR`, and `POLLHUP` as
        /// `EPOLLIN | EPOLLRDHUP`: BSD `poll(2)` raises `POLLHUP` on a
        /// half-close, where epoll raises `EPOLLRDHUP`, and the loop must
        /// drain a half-closed peer rather than drop it. A full hangup then
        /// shows as EOF on read and a failed write.
        fn wait(&mut self, buf: &mut Vec<(u32, u64)>, timeout_ms: i32) -> io::Result<()> {
            buf.clear();
            // SAFETY: the pointer/length pair describes `self.fds`, which
            // outlives the call; the kernel writes only `revents` fields.
            let (fds, nfds) = (self.fds.as_mut_ptr(), self.fds.len() as nfds_t);
            let n = ready(unsafe { poll(fds, nfds, timeout_ms) })?;
            if n == 0 {
                return Ok(()); // timeout or signal: `revents` may be stale
            }
            for (p, &(_, token)) in self.fds.iter().zip(&self.tokens) {
                let revents = u32::from(p.revents as u16);
                if revents == 0 {
                    continue;
                }
                let mut ev = revents & (EPOLLIN | EPOLLOUT | EPOLLERR);
                if revents & POLLNVAL != 0 {
                    ev |= EPOLLERR;
                }
                if revents & POLLHUP != 0 {
                    ev |= EPOLLIN | EPOLLRDHUP;
                }
                buf.push((ev, token));
            }
            Ok(())
        }
    }
}

#[repr(C)]
struct rlimit {
    rlim_cur: u64,
    rlim_max: u64,
}

#[cfg(target_os = "linux")]
const RLIMIT_NOFILE: c_int = 7;
#[cfg(not(target_os = "linux"))]
const RLIMIT_NOFILE: c_int = 8;

extern "C" {
    fn getrlimit(resource: c_int, rlim: *mut rlimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const rlimit) -> c_int;
}

/// Best-effort raise of the process's open-file-descriptor limit to at
/// least `want`, returning the effective soft limit afterwards. Holding
/// 10k+ sockets (plus their client ends, in tests and benches) overruns
/// typical default soft limits; callers scale their connection counts to
/// whatever this returns rather than failing outright.
pub fn raise_nofile_limit(want: u64) -> u64 {
    let mut lim = rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: `lim` is a valid out-pointer for the duration of the call.
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return 1024; // POSIX-conservative guess when even getrlimit fails
    }
    // Raise the soft limit; root may raise the hard limit with it.
    let new = rlimit {
        rlim_cur: want.max(lim.rlim_cur),
        rlim_max: lim.rlim_max.max(want),
    };
    // SAFETY: `new` is a valid in-pointer for the duration of the call.
    if lim.rlim_cur >= want || unsafe { setrlimit(RLIMIT_NOFILE, &new) } == 0 {
        return new.rlim_cur;
    }
    // Refused: settle for the most granted under the hard limit, halving
    // past a per-process cap (macOS's `kern.maxfilesperproc`).
    let mut cur = want.min(lim.rlim_max);
    while cur > lim.rlim_cur {
        let capped = rlimit {
            rlim_cur: cur,
            rlim_max: lim.rlim_max,
        };
        // SAFETY: as above.
        if unsafe { setrlimit(RLIMIT_NOFILE, &capped) } == 0 {
            return cur;
        }
        cur /= 2;
    }
    lim.rlim_cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;
    use std::os::unix::prelude::AsRawFd;

    /// Readiness with tokens, the first half of the contract the event
    /// loop relies on, whatever the backend.
    fn reports_readability_with_tokens<P: Readiness>() {
        let mut poller = P::new().unwrap();
        let (mut a, mut b) = UnixStream::pair().unwrap();
        poller.add(b.as_raw_fd(), EPOLLIN, 42).unwrap();

        // Nothing written yet: a zero-timeout wait sees no events.
        let mut events = Vec::new();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty());

        a.write_all(b"x").unwrap();
        poller.wait(&mut events, 1000).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].1, 42, "token must round-trip through the kernel");
        assert_ne!(events[0].0 & EPOLLIN, 0);

        // Drain, modify to write-interest, and observe writability.
        let mut byte = [0u8; 1];
        b.read_exact(&mut byte).unwrap();
        poller.modify(b.as_raw_fd(), EPOLLOUT, 7).unwrap();
        poller.wait(&mut events, 1000).unwrap();
        assert!(events
            .iter()
            .any(|&(ev, tok)| tok == 7 && ev & EPOLLOUT != 0));

        poller.delete(b.as_raw_fd()).unwrap();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "deleted fds report nothing");
    }

    /// Peer hangup wakes the poller, the second half of the contract.
    fn sees_peer_hangup<P: Readiness>() {
        let mut poller = P::new().unwrap();
        let (a, b) = UnixStream::pair().unwrap();
        poller.add(b.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 1).unwrap();
        drop(a);
        let mut events = Vec::new();
        poller.wait(&mut events, 1000).unwrap();
        assert!(
            events
                .iter()
                .any(|&(ev, tok)| tok == 1 && ev & (EPOLLHUP | EPOLLRDHUP | EPOLLIN) != 0),
            "dropping the peer must wake the poller: {events:?}"
        );
    }

    #[test]
    fn poller_reports_readability_with_tokens() {
        reports_readability_with_tokens::<Poller>();
    }

    #[test]
    fn peer_hangup_is_visible() {
        sees_peer_hangup::<Poller>();
    }

    /// The `poll(2)` fallback is the platform backend off Linux; on Linux
    /// this keeps it honest against the same contract.
    #[test]
    fn readiness_contract_holds_on_poll() {
        reports_readability_with_tokens::<poll::Poll>();
        sees_peer_hangup::<poll::Poll>();
    }

    #[test]
    fn nofile_limit_raise_is_monotone() {
        let before = raise_nofile_limit(0);
        assert!(before >= 1, "some limit must be readable");
        let after = raise_nofile_limit(before);
        assert!(after >= before);
    }
}
