//! The crate's one wait primitive: block in `poll(2)` until a socket is
//! ready or a timeout passes.
//!
//! Everything under `crates/node/src` that has to wait — the transport
//! for an inbound frame or a writable socket, the fault layer for a held
//! frame's release, the daemon for its next wall-clock event — ends up in
//! [`wait`]. Between events the process is asleep in the kernel; there is
//! no sleep-and-retry loop anywhere beside it.
//!
//! `poll` is declared here directly (std already links libc, so this
//! costs no dependency) and calling it is the crate's only `unsafe`.

use std::ffi::{c_int, c_short};
use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

/// `nfds_t`: `unsigned long` on Linux, `unsigned int` elsewhere.
#[cfg(target_os = "linux")]
type Nfds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::ffi::c_uint;

// Identical on Linux, the BSDs and macOS.
const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// One descriptor to wait on and, after [`wait`], whether it is ready.
/// Layout-compatible with C's `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Waits for `socket` to have bytes (or a pending connection, or an
    /// end-of-stream) to read.
    pub fn readable(socket: &impl AsRawFd) -> PollFd {
        PollFd {
            fd: socket.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }
    }

    /// Waits for `socket` to accept more outbound bytes.
    pub fn writable(socket: &impl AsRawFd) -> PollFd {
        PollFd {
            fd: socket.as_raw_fd(),
            events: POLLOUT,
            revents: 0,
        }
    }

    /// Whether the last [`wait`] reported this descriptor. Errors and
    /// hang-ups count as ready: the read or write that follows surfaces
    /// them.
    pub fn ready(&self) -> bool {
        self.revents != 0
    }
}

/// Blocks until at least one of `fds` is ready or `timeout` has passed,
/// and returns how many are ready ([`PollFd::ready`] says which).
///
/// The timeout is rounded *up* to `poll`'s millisecond granularity, so a
/// caller waiting for a deadline never wakes before it and spins; a zero
/// timeout is one non-blocking look. A signal that interrupts the call
/// (`EINTR`) restarts it with whatever is left of the timeout.
///
/// # Errors
///
/// `ENOMEM` from the kernel — the arguments cannot be invalid.
#[allow(unsafe_code)]
pub fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let deadline = Instant::now() + timeout;
    let mut left = timeout;
    loop {
        let ms = left.as_nanos().div_ceil(1_000_000);
        let ms = c_int::try_from(ms).unwrap_or(c_int::MAX);
        // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
        // `PollFd`s (field for field C's `struct pollfd`), and `nfds` is
        // exactly its length, so the kernel reads and writes only inside
        // it, and only for the duration of the call.
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, ms) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
        left = deadline.saturating_duration_since(Instant::now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn wakes_at_once_when_a_peer_writes() {
        let (mut a, b) = pair();
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            a.write_all(b"x").unwrap();
            a
        });
        let mut fds = [PollFd::readable(&b)];
        let started = Instant::now();
        let n = wait(&mut fds, Duration::from_secs(5)).unwrap();
        let took = started.elapsed();
        let _a = writer.join().unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].ready());
        assert!(
            took >= Duration::from_millis(40) && took < Duration::from_secs(1),
            "woke after {took:?}, the write came at 50 ms"
        );
    }

    #[test]
    fn honours_its_timeout_and_never_wakes_early() {
        let (_a, b) = pair();
        let mut fds = [PollFd::readable(&b)];
        // Sub-millisecond timeouts round up, never down to a busy look.
        for timeout in [Duration::from_micros(30_300), Duration::from_micros(200)] {
            let started = Instant::now();
            let n = wait(&mut fds, timeout).unwrap();
            let took = started.elapsed();
            assert_eq!(n, 0);
            assert!(!fds[0].ready());
            assert!(
                took >= timeout && took < timeout + Duration::from_millis(25),
                "a {timeout:?} wait took {took:?}"
            );
        }
    }

    #[test]
    fn a_zero_timeout_is_one_look() {
        let (mut a, b) = pair();
        let mut fds = [PollFd::readable(&b), PollFd::writable(&b)];
        let started = Instant::now();
        assert_eq!(wait(&mut fds, Duration::ZERO).unwrap(), 1);
        assert!(started.elapsed() < Duration::from_millis(20));
        assert!(!fds[0].ready() && fds[1].ready(), "idle but writable");
        a.write_all(b"x").unwrap();
        // Loopback delivery is not instantaneous; a blocking wait is.
        assert_eq!(wait(&mut fds[..1], Duration::from_secs(5)).unwrap(), 1);
        assert_eq!(wait(&mut fds, Duration::ZERO).unwrap(), 2);
    }

    #[test]
    fn a_hang_up_counts_as_ready() {
        let (a, b) = pair();
        drop(a);
        let mut fds = [PollFd::readable(&b)];
        assert_eq!(wait(&mut fds, Duration::from_secs(5)).unwrap(), 1);
        assert!(fds[0].ready());
    }
}
