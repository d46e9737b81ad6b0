//! `sc_node::wait` under real signals: `poll(2)` fails with `EINTR`
//! whenever a handler runs on the waiting thread (it is never restarted
//! for the caller, `SA_RESTART` or not), and the wait must absorb that —
//! no error, no early return, no extended deadline.
//!
//! Installing a handler and signalling one thread need `signal(2)` and
//! `pthread_kill(3)`, which std does not expose; that FFI lives here, in
//! a test crate of its own, so `sc-node`'s sources keep their single
//! `unsafe` block.

#![cfg(target_os = "linux")]

use sc_node::wait::{wait, PollFd};
use std::ffi::{c_int, c_ulong};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const SIGUSR1: c_int = 10;

extern "C" {
    fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
    fn pthread_self() -> c_ulong;
    fn pthread_kill(thread: c_ulong, sig: c_int) -> c_int;
}

static HANDLED: AtomicU32 = AtomicU32::new(0);

extern "C" fn on_usr1(_: c_int) {
    // An atomic add is async-signal-safe.
    HANDLED.fetch_add(1, Ordering::SeqCst);
}

#[test]
fn a_signal_neither_fails_nor_shortens_nor_extends_the_wait() {
    const TIMEOUT: Duration = Duration::from_millis(400);
    const SIGNALS: u32 = 5;
    // SAFETY: `on_usr1` is async-signal-safe (one atomic add) and lives
    // for the whole process; SIGUSR1 has no other user in this binary.
    unsafe { signal(SIGUSR1, on_usr1) };

    // An idle connection to wait on.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (idle, _) = listener.accept().unwrap();

    let (tx, rx) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        // SAFETY: no preconditions; returns the calling thread's handle.
        tx.send(unsafe { pthread_self() }).unwrap();
        let mut fds = [PollFd::readable(&idle)];
        let started = Instant::now();
        let ready = wait(&mut fds, TIMEOUT);
        (ready, started.elapsed())
    });
    let thread = rx.recv().unwrap();
    for _ in 0..SIGNALS {
        std::thread::sleep(Duration::from_millis(50));
        // SAFETY: `thread` is the live, not yet joined waiter thread.
        assert_eq!(unsafe { pthread_kill(thread, SIGUSR1) }, 0);
    }
    let (ready, took) = waiter.join().unwrap();

    assert_eq!(HANDLED.load(Ordering::SeqCst), SIGNALS, "handler ran");
    assert_eq!(ready.expect("EINTR is not an error"), 0);
    assert!(
        took >= TIMEOUT && took < TIMEOUT + Duration::from_millis(100),
        "a {TIMEOUT:?} wait interrupted {SIGNALS} times took {took:?}"
    );
}
