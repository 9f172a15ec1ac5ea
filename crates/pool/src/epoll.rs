//! Hand-rolled `epoll` bindings over raw syscall wrappers.
//!
//! The workspace is offline and hermetic — no `libc` crate, no `mio`.
//! `std` already links the platform C library on Linux, so the four
//! symbols this module needs (`epoll_create1`, `epoll_ctl`,
//! `epoll_wait`, `close`) resolve from there; we declare them
//! directly. This is the **only** module in the workspace containing
//! `unsafe`, and every unsafe block is a single FFI call with its
//! arguments fully owned by safe Rust on this side.
//!
//! The wrapper is deliberately minimal and level-triggered: the event
//! loop re-arms nothing and can never miss a readiness edge, at the
//! cost of spurious wakeups (cheap — one `read` returning
//! `WouldBlock`). Tokens are caller-chosen `u64`s carried in
//! `epoll_event.data`; the kernel hands them back verbatim.

use std::io;
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

// Values from the Linux UAPI (`<sys/epoll.h>`); stable ABI.
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLL_CLOEXEC: i32 = 0x80000;

/// The kernel's `struct epoll_event`. Packed on x86_64 (a quirk the
/// UAPI inherited from the 32-bit era so the layout matches i386);
/// naturally aligned everywhere else.
#[derive(Clone, Copy)]
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
struct RawEvent {
    events: u32,
    data: u64,
}

const SIGTERM: i32 = 15;

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut RawEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut RawEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn close(fd: i32) -> i32;
    fn signal(signum: i32, handler: usize) -> usize;
}

/// Set by the `SIGTERM` handler; polled by the event loop after every
/// wake-up. A signal cannot ring the loop's doorbell, so the loop never
/// sleeps longer than its idle tick: delivery latency is bounded
/// without `signalfd`.
static TERM_FLAG: AtomicBool = AtomicBool::new(false);

/// The `SIGTERM` handler: one atomic store, the only async-signal-safe
/// action taken.
extern "C" fn on_term(_signum: i32) {
    TERM_FLAG.store(true, Ordering::Release);
}

/// Installs the process `SIGTERM` handler that arms
/// [`term_requested`]. Idempotent; replaces the default
/// terminate-on-TERM disposition with graceful drain (the caller's
/// event loop is responsible for actually exiting).
pub fn install_term_handler() {
    // SAFETY: `on_term` is async-signal-safe (a single atomic store),
    // and `signal` is a plain syscall wrapper over owned arguments.
    unsafe {
        signal(SIGTERM, on_term as *const () as usize);
    }
}

/// Whether a `SIGTERM` has been delivered since
/// [`install_term_handler`] ran.
pub fn term_requested() -> bool {
    TERM_FLAG.load(Ordering::Acquire)
}

/// Resets the `SIGTERM` latch (tests only — the flag is process-global,
/// and one test's raise must not drain another test's server).
#[doc(hidden)]
pub fn reset_term_flag() {
    TERM_FLAG.store(false, Ordering::Release);
}

/// One readiness notification, decoded into safe flags.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Data (or EOF) can be read without blocking.
    pub readable: bool,
    /// The socket's send buffer has room.
    pub writable: bool,
    /// Error or hangup — the connection is dead or half-closed
    /// (`EPOLLERR | EPOLLHUP | EPOLLRDHUP`).
    pub hangup: bool,
}

/// An epoll instance owning its fd.
#[derive(Debug)]
pub struct Epoll {
    epfd: RawFd,
}

/// Which readiness classes a registration listens for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Listen for readability.
    pub readable: bool,
    /// Listen for writability.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle connection.
    pub const READ: Interest = Interest { readable: true, writable: false };
    /// Read + write interest — while a response is partially flushed.
    pub const READ_WRITE: Interest = Interest { readable: true, writable: true };

    fn mask(self) -> u32 {
        let mut m = EPOLLRDHUP;
        if self.readable {
            m |= EPOLLIN;
        }
        if self.writable {
            m |= EPOLLOUT;
        }
        m
    }
}

impl Epoll {
    /// Creates a new epoll instance (`EPOLL_CLOEXEC`).
    ///
    /// # Errors
    ///
    /// The raw `epoll_create1` errno as an [`io::Error`].
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: no pointers involved; a plain syscall returning an
        // fd or -1.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { epfd })
    }

    fn ctl(&self, op: i32, fd: RawFd, event: Option<RawEvent>) -> io::Result<()> {
        let mut ev = event.unwrap_or(RawEvent { events: 0, data: 0 });
        let ptr: *mut RawEvent = &mut ev;
        // SAFETY: `ptr` points at a live stack value for the duration
        // of the call; the kernel only reads it.
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, ptr) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` under `token` with the given interest.
    ///
    /// # Errors
    ///
    /// The raw `epoll_ctl` errno (e.g. `EEXIST` for a double add).
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, Some(RawEvent { events: interest.mask(), data: token }))
    }

    /// Changes an existing registration's interest set.
    ///
    /// # Errors
    ///
    /// The raw `epoll_ctl` errno (e.g. `ENOENT` if never added).
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, Some(RawEvent { events: interest.mask(), data: token }))
    }

    /// Removes a registration. Closing the fd would drop it implicitly,
    /// but the event loop deletes explicitly so a registration can
    /// never outlive its connection entry (no leaked tokens).
    ///
    /// # Errors
    ///
    /// The raw `epoll_ctl` errno.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, None)
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// elapses (`None` waits indefinitely), appending decoded events
    /// into `out` (cleared first).
    ///
    /// # Errors
    ///
    /// The raw `epoll_wait` errno; `EINTR` is retried internally.
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        let timeout_ms: i32 = match timeout {
            // Round up so a 100µs request never busy-spins as 0ms.
            Some(d) => i32::try_from(d.as_millis().max(1)).unwrap_or(i32::MAX),
            None => -1,
        };
        const CAP: usize = 256;
        let mut raw = [RawEvent { events: 0, data: 0 }; CAP];
        let n = loop {
            // SAFETY: `raw` is a live, writable buffer of CAP entries;
            // the kernel writes at most `maxevents` of them.
            let rc = unsafe { epoll_wait(self.epfd, raw.as_mut_ptr(), CAP as i32, timeout_ms) };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for ev in raw.iter().take(n) {
            // Copy out of the (possibly packed) struct before testing
            // bits — no references into packed fields.
            let bits = ev.events;
            let data = ev.data;
            out.push(Event {
                token: data,
                readable: bits & EPOLLIN != 0,
                writable: bits & EPOLLOUT != 0,
                hangup: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `epfd` is owned by this value and closed exactly
        // once.
        unsafe {
            close(self.epfd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn readiness_roundtrip_over_loopback() {
        let ep = Epoll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        ep.add(listener.as_raw_fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        // Nothing pending: a short wait returns no events.
        ep.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.is_empty());

        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        ep.wait(&mut events, Some(Duration::from_millis(1000))).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable), "accept readiness");

        let (conn, _) = listener.accept().unwrap();
        conn.set_nonblocking(true).unwrap();
        ep.add(conn.as_raw_fd(), 9, Interest::READ).unwrap();
        client.write_all(b"ping").unwrap();
        ep.wait(&mut events, Some(Duration::from_millis(1000))).unwrap();
        assert!(events.iter().any(|e| e.token == 9 && e.readable), "data readiness");

        // Peer hangup surfaces as hangup (and/or readable EOF).
        drop(client);
        ep.wait(&mut events, Some(Duration::from_millis(1000))).unwrap();
        assert!(
            events.iter().any(|e| e.token == 9 && (e.hangup || e.readable)),
            "hangup visible"
        );
        ep.delete(conn.as_raw_fd()).unwrap();
        // Deleting again reports ENOENT — the registration is gone.
        assert!(ep.delete(conn.as_raw_fd()).is_err());
    }

    #[test]
    fn sigterm_latch_arms_and_resets() {
        extern "C" {
            fn raise(signum: i32) -> i32;
        }
        install_term_handler();
        assert!(!term_requested());
        // SAFETY: raising a signal whose handler (installed above) only
        // performs an atomic store.
        unsafe {
            raise(SIGTERM);
        }
        assert!(term_requested(), "handler latched the flag");
        reset_term_flag();
        assert!(!term_requested());
    }

    #[test]
    fn write_interest_fires_on_writable_socket() {
        let ep = Epoll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client.set_nonblocking(true).unwrap();
        ep.add(client.as_raw_fd(), 1, Interest::READ_WRITE).unwrap();
        let mut events = Vec::new();
        ep.wait(&mut events, Some(Duration::from_millis(1000))).unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.writable));
        // Narrowing interest back to read-only stops write events.
        ep.modify(client.as_raw_fd(), 1, Interest::READ).unwrap();
        ep.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.iter().all(|e| !e.writable));
    }
}
