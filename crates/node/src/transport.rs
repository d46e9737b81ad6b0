//! The daemon's transport abstraction and its loopback-TCP
//! implementation.
//!
//! [`Transport`] is deliberately small: the daemon's protocol logic only
//! needs "send a frame to the peer at address `a`", "answer on the
//! connection a frame arrived on", and "wait for the next inbound frame".
//! [`TcpTransport`] implements it over non-blocking `std::net`: `recv`
//! blocks in [`crate::wait`] (one `poll(2)`) on the listener and every
//! connection until one of them is readable or the caller's timeout
//! passes, then reads only the sockets the kernel reported — an idle
//! transport sits in that one system call. A full send buffer waits for
//! writability the same way. Around that: per-connection read budgets,
//! connect/write timeouts, and deterministic exponential backoff for
//! unreachable peers.

use crate::frame::{Frame, FrameReader};
use crate::wait::{wait, PollFd};
use sc_core::Addr;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Identifies one accepted or dialed connection for the lifetime of the
/// transport. Never reused.
pub type ConnId = u64;

/// A frame received from some connection.
#[derive(Debug)]
pub struct Inbound {
    /// The connection it arrived on (for [`Transport::respond`]).
    pub conn: ConnId,
    /// The frame.
    pub frame: Frame,
}

/// Counters the control socket reports for soak accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Frames received.
    pub frames_in: u64,
    /// Frames sent.
    pub frames_out: u64,
    /// Payload + header bytes received.
    pub bytes_in: u64,
    /// Payload + header bytes sent.
    pub bytes_out: u64,
    /// Currently open connections.
    pub active_conns: u64,
    /// High-water mark of concurrently open connections.
    pub peak_conns: u64,
    /// Dial attempts that failed (feeding the backoff schedule).
    pub connect_failures: u64,
    /// Connections dropped for framing violations.
    pub poisoned_conns: u64,
    /// Frames dropped by injected faults (`FaultTransport` only; zero on
    /// a clean network).
    pub frames_dropped_injected: u64,
    /// Frames held back by injected delay/reorder.
    pub frames_delayed: u64,
    /// Frames sent twice by injected duplication.
    pub frames_duplicated: u64,
}

/// What the daemon requires from a byte-moving layer.
pub trait Transport {
    /// The protocol address this transport serves.
    fn local_addr(&self) -> Addr;
    /// Sends a frame to the peer at `to`, dialing if necessary. Returns
    /// whether the frame was handed to the OS; failures engage backoff.
    fn send_to(&mut self, to: Addr, frame: &Frame) -> bool;
    /// Sends a frame back on the connection `conn` arrived on (RPC
    /// replies, control responses).
    fn respond(&mut self, conn: ConnId, frame: &Frame) -> bool;
    /// Waits up to `timeout` for the next inbound frame.
    fn recv(&mut self, timeout: Duration) -> Option<Inbound>;
    /// Transport counters.
    fn stats(&self) -> TransportStats;
}

/// Per-peer dial backoff: deterministic exponential schedule
/// (`base · 2^min(failures-1, 5)`), reset on success.
#[derive(Debug)]
struct Backoff {
    failures: u32,
    retry_at: Instant,
}

struct Conn {
    stream: TcpStream,
    reader: FrameReader,
}

/// [`Transport`] over loopback TCP: protocol address `a` ⇔
/// `127.0.0.1:a`.
pub struct TcpTransport {
    addr: Addr,
    listener: TcpListener,
    conns: HashMap<ConnId, Conn>,
    dialed: HashMap<Addr, ConnId>,
    backoff: HashMap<Addr, Backoff>,
    inbox: VecDeque<Inbound>,
    next_conn: ConnId,
    connect_timeout: Duration,
    write_timeout: Duration,
    /// Max bytes pulled from one connection per pass.
    read_budget: usize,
    max_frame_bytes: usize,
    stats: TransportStats,
    /// The wait set of the current pass (the listener first) and the
    /// connection behind each of its entries after the first; kept to
    /// reuse their allocations.
    fds: Vec<PollFd>,
    fd_conns: Vec<ConnId>,
    /// The bytes of the frame being sent, kept to reuse its allocation.
    out: Vec<u8>,
    /// Passes made, for the test that an idle `recv` does not spin.
    #[cfg(test)]
    passes: u64,
}

const BACKOFF_BASE: Duration = Duration::from_millis(50);
const BACKOFF_MAX_SHIFT: u32 = 5;
/// Cap on tracked backoff entries: under heavy churn dead peers would
/// otherwise accumulate one entry each for the life of the transport.
const BACKOFF_MAX_ENTRIES: usize = 128;

impl TcpTransport {
    /// Binds `127.0.0.1:addr`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (port taken, permissions).
    pub fn bind(
        addr: Addr,
        connect_timeout: Duration,
        max_frame_bytes: usize,
    ) -> std::io::Result<TcpTransport> {
        let listener = TcpListener::bind(SocketAddrV4::new(Ipv4Addr::LOCALHOST, addr as u16))?;
        listener.set_nonblocking(true)?;
        Ok(TcpTransport {
            addr,
            listener,
            conns: HashMap::new(),
            dialed: HashMap::new(),
            backoff: HashMap::new(),
            inbox: VecDeque::new(),
            next_conn: 1,
            connect_timeout,
            write_timeout: Duration::from_millis(500),
            read_budget: 64 << 10,
            max_frame_bytes,
            stats: TransportStats::default(),
            fds: Vec::new(),
            fd_conns: Vec::new(),
            out: Vec::new(),
            #[cfg(test)]
            passes: 0,
        })
    }

    fn register(&mut self, stream: TcpStream) -> ConnId {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_nonblocking(true);
        let id = self.next_conn;
        self.next_conn += 1;
        self.conns.insert(
            id,
            Conn {
                stream,
                reader: FrameReader::new(self.max_frame_bytes),
            },
        );
        self.stats.active_conns = self.conns.len() as u64;
        self.stats.peak_conns = self.stats.peak_conns.max(self.stats.active_conns);
        id
    }

    fn drop_conn(&mut self, id: ConnId) {
        self.conns.remove(&id);
        self.dialed.retain(|_, &mut v| v != id);
        self.stats.active_conns = self.conns.len() as u64;
    }

    /// Writes all of `bytes`, waiting for writability whenever the send
    /// buffer is full, until the write timeout. Returns false (and drops
    /// the connection) on failure.
    fn write_all(&mut self, id: ConnId, bytes: &[u8]) -> bool {
        let deadline = Instant::now() + self.write_timeout;
        let mut off = 0;
        while off < bytes.len() {
            let Some(conn) = self.conns.get_mut(&id) else {
                return false;
            };
            match conn.stream.write(&bytes[off..]) {
                Ok(0) => {
                    self.drop_conn(id);
                    return false;
                }
                Ok(n) => off += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    let mut fd = [PollFd::writable(&conn.stream)];
                    if left.is_zero() || wait(&mut fd, left).is_err() {
                        self.drop_conn(id);
                        return false;
                    }
                }
                Err(_) => {
                    self.drop_conn(id);
                    return false;
                }
            }
        }
        self.stats.bytes_out += bytes.len() as u64;
        self.stats.frames_out += 1;
        true
    }

    /// Existing dialed connection to `to`, or a fresh dial respecting the
    /// backoff schedule.
    fn conn_to(&mut self, to: Addr) -> Option<ConnId> {
        if let Some(&id) = self.dialed.get(&to) {
            if self.conns.contains_key(&id) {
                return Some(id);
            }
            self.dialed.remove(&to);
        }
        let now = Instant::now();
        if let Some(b) = self.backoff.get(&to) {
            if now < b.retry_at {
                return None;
            }
        }
        let sock = SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::LOCALHOST, to as u16));
        match TcpStream::connect_timeout(&sock, self.connect_timeout) {
            Ok(stream) => {
                self.backoff.remove(&to);
                let id = self.register(stream);
                self.dialed.insert(to, id);
                Some(id)
            }
            Err(_) => {
                self.stats.connect_failures += 1;
                let failures = self.backoff.get(&to).map_or(0, |b| b.failures) + 1;
                let delay = BACKOFF_BASE * 2u32.pow((failures - 1).min(BACKOFF_MAX_SHIFT));
                if !self.backoff.contains_key(&to) && self.backoff.len() >= BACKOFF_MAX_ENTRIES {
                    self.prune_backoff(now);
                }
                self.backoff.insert(
                    to,
                    Backoff {
                        failures,
                        retry_at: now + delay,
                    },
                );
                None
            }
        }
    }

    /// Frees backoff slots: first every entry whose retry window already
    /// passed (it carries no schedule the next dial wouldn't recompute
    /// from scratch anyway — losing the failure count just restarts the
    /// exponential ladder at its shortest rung), then, if none had, the
    /// entry closest to expiry.
    fn prune_backoff(&mut self, now: Instant) {
        let before = self.backoff.len();
        self.backoff.retain(|_, b| b.retry_at > now);
        if self.backoff.len() == before {
            if let Some(&victim) = self
                .backoff
                .iter()
                .min_by_key(|(_, b)| b.retry_at)
                .map(|(a, _)| a)
            {
                self.backoff.remove(&victim);
            }
        }
    }

    /// `frame`'s bytes in the kept send buffer, taken out of `self` for
    /// the write; the caller puts the buffer back.
    fn encode(&mut self, frame: &Frame) -> Vec<u8> {
        let mut out = std::mem::take(&mut self.out);
        out.clear();
        frame.encode_into(&mut out);
        out
    }

    /// Number of peers currently tracked by the backoff schedule
    /// (bounded by the eviction policy; exposed for regression tests).
    pub fn backoff_len(&self) -> usize {
        self.backoff.len()
    }

    /// One pass: blocks up to `timeout` until the listener or a
    /// connection is readable, then accepts pending dials and reads up to
    /// the budget from each connection the kernel reported, queueing
    /// completed frames. A connection that still holds bytes past its
    /// budget is reported again by the next pass.
    fn pass(&mut self, timeout: Duration) {
        #[cfg(test)]
        {
            self.passes += 1;
        }
        self.fds.clear();
        self.fd_conns.clear();
        self.fds.push(PollFd::readable(&self.listener));
        for (&id, conn) in &self.conns {
            self.fds.push(PollFd::readable(&conn.stream));
            self.fd_conns.push(id);
        }
        // A failed wait (kernel out of memory) reads as "nothing ready":
        // the caller's deadline logic decides what happens next.
        if wait(&mut self.fds, timeout).unwrap_or(0) == 0 {
            return;
        }
        if self.fds[0].ready() {
            while let Ok((stream, _)) = self.listener.accept() {
                self.register(stream);
            }
        }
        for i in 0..self.fd_conns.len() {
            if self.fds[i + 1].ready() {
                self.read_conn(self.fd_conns[i]);
            }
        }
    }

    /// Reads connection `id` until it would block or its budget is spent.
    fn read_conn(&mut self, id: ConnId) {
        let mut chunk = [0u8; 4096];
        let mut budget = self.read_budget;
        while let Some(conn) = self.conns.get_mut(&id) {
            let want = chunk.len().min(budget);
            if want == 0 {
                break;
            }
            match conn.stream.read(&mut chunk[..want]) {
                Ok(0) => {
                    self.drop_conn(id);
                    break;
                }
                Ok(n) => {
                    budget -= n;
                    self.stats.bytes_in += n as u64;
                    conn.reader.feed(&chunk[..n]);
                    loop {
                        match conn.reader.next_frame() {
                            Ok(Some(frame)) => {
                                self.stats.frames_in += 1;
                                self.inbox.push_back(Inbound { conn: id, frame });
                            }
                            Ok(None) => break,
                            Err(_) => {
                                self.stats.poisoned_conns += 1;
                                self.drop_conn(id);
                                break;
                            }
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => {
                    self.drop_conn(id);
                    break;
                }
            }
        }
    }
}

impl Transport for TcpTransport {
    fn local_addr(&self) -> Addr {
        self.addr
    }

    fn send_to(&mut self, to: Addr, frame: &Frame) -> bool {
        let Some(id) = self.conn_to(to) else {
            return false;
        };
        let bytes = self.encode(frame);
        // One immediate redial on failure: the cached connection may have
        // been closed by the peer since its last use.
        let sent = self.write_all(id, &bytes)
            || self
                .conn_to(to)
                .is_some_and(|id| self.write_all(id, &bytes));
        self.out = bytes;
        sent
    }

    fn respond(&mut self, conn: ConnId, frame: &Frame) -> bool {
        let bytes = self.encode(frame);
        let sent = self.write_all(conn, &bytes);
        self.out = bytes;
        sent
    }

    fn recv(&mut self, timeout: Duration) -> Option<Inbound> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(i) = self.inbox.pop_front() {
                return Some(i);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            self.pass(left);
            if self.inbox.is_empty() && Instant::now() >= deadline {
                return None;
            }
        }
    }

    fn stats(&self) -> TransportStats {
        let mut s = self.stats;
        s.active_conns = self.conns.len() as u64;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameKind;

    fn bind_any(connect_timeout: Duration) -> TcpTransport {
        // Bind port 0 and read back the ephemeral port as the Addr.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        drop(listener);
        TcpTransport::bind(port as Addr, connect_timeout, 1 << 20).unwrap()
    }

    #[test]
    fn frames_flow_between_two_transports() {
        let mut a = bind_any(Duration::from_millis(200));
        let mut b = bind_any(Duration::from_millis(200));
        let f = Frame::new(FrameKind::Oneway, a.local_addr(), b"ping".to_vec());
        assert!(a.send_to(b.local_addr(), &f));
        let got = b.recv(Duration::from_millis(500)).expect("delivered");
        assert_eq!(got.frame, f);
        // Reply on the same connection.
        let r = Frame::new(FrameKind::Reply, b.local_addr(), b"pong".to_vec());
        assert!(b.respond(got.conn, &r));
        let back = a.recv(Duration::from_millis(500)).expect("answered");
        assert_eq!(back.frame, r);
        assert_eq!(a.stats().frames_out, 1);
        assert_eq!(a.stats().frames_in, 1);
    }

    #[test]
    fn dial_failures_engage_backoff() {
        let mut a = bind_any(Duration::from_millis(30));
        // Nothing listens on the target port.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port() as Addr
        };
        let f = Frame::new(FrameKind::Oneway, a.local_addr(), vec![]);
        assert!(!a.send_to(dead, &f));
        let failures = a.stats().connect_failures;
        assert_eq!(failures, 1);
        // Within the backoff window the dial is skipped entirely.
        assert!(!a.send_to(dead, &f));
        assert_eq!(a.stats().connect_failures, failures);
    }

    #[test]
    fn backoff_map_stays_bounded_under_long_churn() {
        let mut a = bind_any(Duration::from_millis(10));
        // Reserve a block of ports nothing listens on, then dial each
        // one: every attempt fails (immediate ECONNREFUSED on loopback)
        // and wants a backoff slot.
        let dead: Vec<Addr> = (0..BACKOFF_MAX_ENTRIES + 200)
            .map(|_| {
                let l = TcpListener::bind("127.0.0.1:0").unwrap();
                l.local_addr().unwrap().port() as Addr
            })
            .collect();
        let f = Frame::new(FrameKind::Oneway, a.local_addr(), vec![]);
        for &port in &dead {
            assert!(!a.send_to(port, &f));
        }
        assert!(
            a.backoff_len() <= BACKOFF_MAX_ENTRIES,
            "backoff map grew to {} entries",
            a.backoff_len()
        );
        // A successful dial clears its own entry.
        let mut c = bind_any(Duration::from_millis(200));
        let target = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port() as Addr
        };
        assert!(!c.send_to(target, &f));
        assert_eq!(c.backoff_len(), 1);
        let mut d = TcpTransport::bind(target, Duration::from_millis(200), 1 << 20).unwrap();
        std::thread::sleep(2 * BACKOFF_BASE);
        assert!(c.send_to(target, &f));
        assert_eq!(c.backoff_len(), 0, "successful dial evicts its entry");
        assert!(d.recv(Duration::from_millis(500)).is_some());
    }

    #[test]
    fn poisoned_streams_are_dropped() {
        let mut a = bind_any(Duration::from_millis(200));
        let sock = SocketAddrV4::new(Ipv4Addr::LOCALHOST, a.local_addr() as u16);
        let mut raw = TcpStream::connect(sock).unwrap();
        raw.write_all(&[0xde; 64]).unwrap();
        raw.flush().unwrap();
        assert!(a.recv(Duration::from_millis(200)).is_none());
        assert_eq!(a.stats().poisoned_conns, 1);
        assert_eq!(a.stats().active_conns, 0);
    }

    #[test]
    fn an_idle_recv_blocks_once_instead_of_polling() {
        let mut a = bind_any(Duration::from_millis(200));
        let mut b = bind_any(Duration::from_millis(200));
        // One live but silent connection in the wait set.
        let f = Frame::new(FrameKind::Oneway, b.local_addr(), b"x".to_vec());
        assert!(b.send_to(a.local_addr(), &f));
        assert!(a.recv(Duration::from_millis(500)).is_some());

        let before = a.passes;
        let started = Instant::now();
        assert!(a.recv(Duration::from_millis(200)).is_none());
        let took = started.elapsed();
        assert!(
            took >= Duration::from_millis(200),
            "returned after {took:?}"
        );
        // One blocking pass (a sleep-poll loop made ≈ 400); a second is
        // tolerated for a wake-up a hair before the deadline.
        assert!(
            a.passes - before <= 2,
            "an idle 200 ms recv made {} passes",
            a.passes - before
        );

        // A zero timeout is exactly one non-blocking pass.
        let before = a.passes;
        let started = Instant::now();
        assert!(a.recv(Duration::ZERO).is_none());
        assert_eq!(a.passes - before, 1);
        assert!(started.elapsed() < Duration::from_millis(20));
    }

    #[test]
    fn recv_wakes_for_a_frame_long_before_its_timeout() {
        let mut a = bind_any(Duration::from_millis(200));
        let mut b = bind_any(Duration::from_millis(200));
        let to = a.local_addr();
        let f = Frame::new(FrameKind::Oneway, b.local_addr(), b"late".to_vec());
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            assert!(b.send_to(to, &f));
            b
        });
        let started = Instant::now();
        let got = a.recv(Duration::from_secs(5)).expect("delivered");
        let took = started.elapsed();
        let _b = sender.join().unwrap();
        assert_eq!(got.frame.payload, b"late");
        assert!(took < Duration::from_secs(1), "woke after {took:?}");
    }

    #[test]
    fn a_full_send_buffer_waits_for_the_reader() {
        // 16 MiB through one connection is far more than loopback socket
        // buffers hold: the writer must block on writability while the
        // reader drains, and every frame must arrive intact and in order.
        const FRAMES: usize = 256;
        let mut a = bind_any(Duration::from_millis(200));
        let mut b = bind_any(Duration::from_millis(200));
        let to = b.local_addr();
        let from = a.local_addr();
        let reader = std::thread::spawn(move || {
            for i in 0..FRAMES {
                let got = b.recv(Duration::from_secs(5)).expect("frame lost");
                assert_eq!(got.frame.payload.len(), 64 << 10);
                assert_eq!(got.frame.payload[0], i as u8);
            }
        });
        for i in 0..FRAMES {
            let f = Frame::new(FrameKind::Oneway, from, vec![i as u8; 64 << 10]);
            assert!(a.send_to(to, &f), "frame {i} timed out");
        }
        reader.join().unwrap();
        assert_eq!(a.stats().frames_out, FRAMES as u64);
    }

    #[test]
    fn a_reader_that_never_drains_times_the_write_out() {
        let mut a = bind_any(Duration::from_millis(200));
        a.write_timeout = Duration::from_millis(100);
        // A listener that accepts (in the kernel) and never reads.
        let sink = TcpListener::bind("127.0.0.1:0").unwrap();
        let to = sink.local_addr().unwrap().port() as Addr;
        // Far more than the socket buffers of one connection hold.
        let f = Frame::new(FrameKind::Oneway, a.local_addr(), vec![0; 32 << 20]);
        let started = Instant::now();
        // The write times out, `send_to` redials once, and that write
        // times out too: failure, with no connection left behind.
        assert!(!a.send_to(to, &f));
        assert!(started.elapsed() >= Duration::from_millis(100));
        assert_eq!(a.stats().active_conns, 0);
    }
}
