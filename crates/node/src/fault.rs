//! Deterministic fault injection over any [`Transport`].
//!
//! [`FaultTransport`] wraps an inner transport and applies a
//! [`FaultSpec`] to every *gossip* frame crossing it: seeded per-frame
//! drop by message kind on the receiving side, bounded delay/reorder via
//! a release queue, outbound duplication, and partition severing by peer
//! address. It never sleeps and has no wait loop of its own: a delayed
//! frame is held until an [`Instant`], and `recv` hands the inner
//! transport a wait of `min(caller's timeout, earliest release)` — the
//! process sleeps in the inner transport's `poll(2)` either way. Control
//! frames (`Ctrl*`) are exempt in both directions so a harness can always
//! scrape, reconfigure, and shut down a daemon no matter how hostile the
//! injected network is.
//!
//! Every decision comes from [`FaultSpec::decide`], a pure counter-mode
//! PRNG keyed by `(seed, direction, src, dst, frame_index)` with the
//! frame index counted per peer per direction. The same spec applied to
//! the same frame sequence therefore makes byte-identical decisions —
//! the whole point: a failing live-cluster run replays exactly from the
//! printed seed — and the simulator's engine loses the same frames of a
//! link's sequence. One thing meters real elapsed time and so only
//! shapes pacing, never which frames survive: how long a delayed frame is
//! held (500 µs per decided poll).

use crate::frame::{Frame, FrameKind};
use crate::transport::{ConnId, Inbound, Transport, TransportStats};
use sc_core::Addr;
use sc_core::{FaultDir, FaultSpec, MsgKind};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// What one unit of [`sc_core::FaultDecision::delay_polls`] holds a
/// frame for. The unit is a *poll* because the receive path used to be a
/// 500 µs sleep-poll loop that released held frames by counting its own
/// passes; `delay=<p>:<w>` specs keep meaning what they meant then.
const DELAY_UNIT: Duration = Duration::from_micros(500);

/// Counters for injected faults, merged into [`TransportStats`].
#[derive(Clone, Copy, Debug, Default)]
struct Injected {
    dropped: u64,
    delayed: u64,
    duplicated: u64,
}

/// A fault-injecting [`Transport`] wrapper. See the module docs.
pub struct FaultTransport<T: Transport> {
    inner: T,
    spec: FaultSpec,
    /// Outbound gossip-frame counters, per destination.
    out_index: HashMap<Addr, u64>,
    /// Inbound gossip-frame counters, per source.
    in_index: HashMap<Addr, u64>,
    /// Delayed frames in arrival order, each with its release time.
    held: VecDeque<(Instant, Inbound)>,
    injected: Injected,
}

/// The message kind a gossip frame carries; `None` for a control frame,
/// which faults never touch.
fn gossip_kind(kind: FrameKind) -> Option<MsgKind> {
    match kind {
        FrameKind::Request => Some(MsgKind::Request),
        FrameKind::Reply => Some(MsgKind::Response),
        FrameKind::Oneway => Some(MsgKind::Oneway),
        _ => None,
    }
}

impl<T: Transport> FaultTransport<T> {
    /// Wraps `inner` under `spec` (a no-op spec is exact pass-through).
    pub fn new(inner: T, spec: FaultSpec) -> FaultTransport<T> {
        FaultTransport {
            inner,
            spec,
            out_index: HashMap::new(),
            in_index: HashMap::new(),
            held: VecDeque::new(),
            injected: Injected::default(),
        }
    }

    /// The active spec.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Replaces the spec (daemons do this at cycle boundaries). Frames
    /// already held by the old spec's delays still mature normally;
    /// frame indices keep counting, so decisions stay a pure function
    /// of the spec sequence and the frame sequence.
    pub fn set_spec(&mut self, spec: FaultSpec) {
        self.spec = spec;
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Applies inbound faults to one frame: `None` if dropped or held
    /// for later release.
    fn admit(&mut self, ib: Inbound) -> Option<Inbound> {
        let Some(kind) = gossip_kind(ib.frame.kind) else {
            return Some(ib);
        };
        let from = ib.frame.from;
        if self.spec.severs(from) {
            self.injected.dropped += 1;
            return None;
        }
        let idx = self.in_index.entry(from).or_insert(0);
        let i = *idx;
        *idx += 1;
        let d = self
            .spec
            .decide(FaultDir::Inbound, kind, from, self.inner.local_addr(), i);
        if d.drop {
            self.injected.dropped += 1;
            return None;
        }
        if d.delay_polls > 0 {
            self.injected.delayed += 1;
            self.held
                .push_back((Instant::now() + DELAY_UNIT * d.delay_polls, ib));
            return None;
        }
        Some(ib)
    }

    /// Removes and returns the first held frame whose release time has
    /// come.
    fn pop_ready(&mut self, now: Instant) -> Option<Inbound> {
        let pos = self.held.iter().position(|(at, _)| *at <= now)?;
        self.held.remove(pos).map(|(_, ib)| ib)
    }
}

impl<T: Transport> Transport for FaultTransport<T> {
    fn local_addr(&self) -> Addr {
        self.inner.local_addr()
    }

    fn send_to(&mut self, to: Addr, frame: &Frame) -> bool {
        let kind = match gossip_kind(frame.kind) {
            Some(kind) if !self.spec.is_noop() => kind,
            _ => return self.inner.send_to(to, frame),
        };
        if self.spec.severs(to) {
            // Severed peers swallow frames silently: the sender sees a
            // healthy write, exactly like a mid-path partition.
            self.injected.dropped += 1;
            return true;
        }
        let idx = self.out_index.entry(to).or_insert(0);
        let i = *idx;
        *idx += 1;
        let d = self
            .spec
            .decide(FaultDir::Outbound, kind, self.inner.local_addr(), to, i);
        let sent = self.inner.send_to(to, frame);
        if sent && d.duplicate {
            self.injected.duplicated += 1;
            let _ = self.inner.send_to(to, frame);
        }
        sent
    }

    fn respond(&mut self, conn: ConnId, frame: &Frame) -> bool {
        // Replies ride the connection a request arrived on; the
        // initiator's own inbound faults already cover this direction,
        // so responses pass through untouched.
        self.inner.respond(conn, frame)
    }

    fn recv(&mut self, timeout: Duration) -> Option<Inbound> {
        if self.spec.is_noop() && self.held.is_empty() {
            return self.inner.recv(timeout);
        }
        let deadline = Instant::now() + timeout;
        loop {
            // Matured held frames first (they are older than anything
            // still in the socket), then the inner transport — woken no
            // later than the next release — admitting each frame through
            // the fault filter.
            let now = Instant::now();
            if let Some(ib) = self.pop_ready(now) {
                return Some(ib);
            }
            let release = self.held.iter().map(|(at, _)| *at).min();
            let until = release.map_or(deadline, |at| at.min(deadline));
            match self.inner.recv(until.saturating_duration_since(now)) {
                Some(ib) => {
                    if let Some(ib) = self.admit(ib) {
                        return Some(ib);
                    }
                }
                None if Instant::now() >= deadline => return None,
                None => {}
            }
        }
    }

    fn stats(&self) -> TransportStats {
        let mut s = self.inner.stats();
        s.frames_dropped_injected = self.injected.dropped;
        s.frames_delayed = self.injected.delayed;
        s.frames_duplicated = self.injected.duplicated;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::TcpTransport;
    use std::net::TcpListener;

    fn bind_any() -> TcpTransport {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        drop(listener);
        TcpTransport::bind(port as Addr, Duration::from_millis(200), 1 << 20).unwrap()
    }

    fn oneway(from: Addr, body: &[u8]) -> Frame {
        Frame::new(FrameKind::Oneway, from, body.to_vec())
    }

    #[test]
    fn noop_spec_is_pass_through() {
        let mut a = FaultTransport::new(bind_any(), FaultSpec::default());
        let mut b = FaultTransport::new(bind_any(), FaultSpec::default());
        let f = oneway(a.local_addr(), b"hello");
        assert!(a.send_to(b.local_addr(), &f));
        let got = b.recv(Duration::from_millis(500)).expect("delivered");
        assert_eq!(got.frame, f);
        let s = b.stats();
        assert_eq!(s.frames_dropped_injected, 0);
        assert_eq!(s.frames_delayed, 0);
        assert_eq!(s.frames_in, 1);
    }

    #[test]
    fn full_drop_loses_gossip_but_not_control() {
        let spec = FaultSpec::parse("seed=1,drop=1.0").unwrap();
        let mut a = FaultTransport::new(bind_any(), spec.clone());
        let mut b = FaultTransport::new(bind_any(), spec);
        let f = oneway(a.local_addr(), b"doomed");
        assert!(a.send_to(b.local_addr(), &f), "drop is silent");
        assert!(b.recv(Duration::from_millis(100)).is_none());
        assert_eq!(a.stats().frames_dropped_injected, 0, "sent whole");
        assert_eq!(b.stats().frames_dropped_injected, 1, "lost on arrival");
        // Control frames are exempt even at drop=1.
        let c = Frame::new(FrameKind::CtrlStatus, 0, vec![]);
        assert!(a.send_to(b.local_addr(), &c));
        let got = b.recv(Duration::from_millis(500)).expect("control exempt");
        assert_eq!(got.frame.kind, FrameKind::CtrlStatus);
    }

    #[test]
    fn severed_peers_are_cut_both_ways() {
        let mut a = FaultTransport::new(bind_any(), FaultSpec::default());
        let b_inner = bind_any();
        let spec = FaultSpec::parse(&format!("sever={}", a.local_addr())).unwrap();
        let mut b = FaultTransport::new(b_inner, spec);
        // a -> b: arrives at b's socket but b's inbound filter eats it.
        assert!(a.send_to(b.local_addr(), &oneway(a.local_addr(), b"in")));
        assert!(b.recv(Duration::from_millis(100)).is_none());
        assert_eq!(b.stats().frames_dropped_injected, 1);
        // b -> a: swallowed before the socket.
        assert!(b.send_to(a.local_addr(), &oneway(b.local_addr(), b"out")));
        assert!(a.recv(Duration::from_millis(100)).is_none());
        assert_eq!(b.stats().frames_dropped_injected, 2);
        // Healing (noop spec) restores the link in both directions.
        b.set_spec(FaultSpec::default());
        assert!(a.send_to(b.local_addr(), &oneway(a.local_addr(), b"in2")));
        assert!(b.recv(Duration::from_millis(500)).is_some());
        assert!(b.send_to(a.local_addr(), &oneway(b.local_addr(), b"out2")));
        assert!(a.recv(Duration::from_millis(500)).is_some());
    }

    #[test]
    fn delays_hold_then_release_within_the_bound() {
        let spec = FaultSpec::parse("seed=2,delay=1.0:3").unwrap();
        let mut a = FaultTransport::new(bind_any(), FaultSpec::default());
        let mut b = FaultTransport::new(bind_any(), spec);
        for i in 0..5u8 {
            assert!(a.send_to(b.local_addr(), &oneway(a.local_addr(), &[i])));
        }
        // All five frames must still arrive — delayed, never lost.
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(2);
        while got.len() < 5 && Instant::now() < deadline {
            if let Some(ib) = b.recv(Duration::from_millis(50)) {
                got.push(ib.frame.payload[0]);
            }
        }
        assert_eq!(got.len(), 5, "delayed frames were lost");
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        assert_eq!(b.stats().frames_delayed, 5);
        assert_eq!(b.stats().frames_dropped_injected, 0);
    }

    #[test]
    fn duplication_sends_twice() {
        let spec = FaultSpec::parse("seed=3,dup=1.0").unwrap();
        let mut a = FaultTransport::new(bind_any(), spec);
        let mut b = FaultTransport::new(bind_any(), FaultSpec::default());
        assert!(a.send_to(b.local_addr(), &oneway(a.local_addr(), b"twin")));
        assert_eq!(a.stats().frames_duplicated, 1);
        assert!(b.recv(Duration::from_millis(500)).is_some());
        assert!(b.recv(Duration::from_millis(500)).is_some());
        assert_eq!(b.stats().frames_in, 2);
    }

    /// An in-memory inner transport at a fixed address, so that
    /// [`FaultSpec::decide`] — keyed by `(src, dst)` — decides the same
    /// on every run: `recv` plays back a script, `send_to` is logged.
    struct Script {
        addr: Addr,
        inbound: VecDeque<Frame>,
        /// `payload[0]` of every frame sent, in order.
        log: Vec<u8>,
    }

    impl Transport for Script {
        fn local_addr(&self) -> Addr {
            self.addr
        }
        fn send_to(&mut self, _to: Addr, frame: &Frame) -> bool {
            self.log.push(frame.payload[0]);
            true
        }
        fn respond(&mut self, _conn: ConnId, _frame: &Frame) -> bool {
            true
        }
        fn recv(&mut self, timeout: Duration) -> Option<Inbound> {
            let frame = self.inbound.pop_front();
            if frame.is_none() {
                std::thread::sleep(timeout);
            }
            frame.map(|frame| Inbound { conn: 1, frame })
        }
        fn stats(&self) -> TransportStats {
            TransportStats::default()
        }
    }

    const ME: Addr = 41_007;
    const PEER: Addr = 41_009;

    fn scripted(spec: &str, inbound: impl IntoIterator<Item = u8>) -> FaultTransport<Script> {
        let inner = Script {
            addr: ME,
            inbound: inbound.into_iter().map(|i| oneway(PEER, &[i])).collect(),
            log: Vec::new(),
        };
        FaultTransport::new(inner, FaultSpec::parse(spec).unwrap())
    }

    #[test]
    fn decisions_over_a_fixed_frame_sequence_match_the_recorded_ones() {
        // What is dropped, duplicated and held is a function of the spec
        // and the frame sequence alone, and the wait mechanism must not
        // show in it. The inbound half was recorded before the receive
        // path stopped being a sleep-poll loop; the outbound half when
        // loss moved to the receiving side.
        const SPEC: &str = "seed=11,drop=0.25,delay=0.3:6,dup=0.2";
        // Outbound: every frame reaches the wire (loss is decided on the
        // receiving side), and these go twice.
        let mut tx = scripted(SPEC, []);
        for i in 0..48u8 {
            assert!(tx.send_to(PEER, &oneway(ME, &[i])));
        }
        let log: Vec<String> = tx.inner().log.iter().map(u8::to_string).collect();
        assert_eq!(
            log.join(" "),
            "0 1 2 3 4 5 6 7 8 9 10 10 11 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 26 \
             27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 41 42 43 43 44 45 46 47"
        );
        let s = tx.stats();
        assert_eq!((s.frames_dropped_injected, s.frames_duplicated), (0, 5));

        // Inbound: which frames survive, and how many of them were held.
        let mut rx = scripted(SPEC, 0..48u8);
        let mut got = Vec::new();
        while let Some(ib) = rx.recv(Duration::from_millis(50)) {
            got.push(ib.frame.payload[0]);
        }
        got.sort_unstable();
        assert_eq!(
            got,
            [
                0, 1, 2, 4, 5, 6, 8, 9, 10, 11, 13, 15, 17, 22, 24, 25, 26, 27, 28, 29, 30, 31, 32,
                33, 34, 35, 36, 37, 38, 39, 40, 41, 43, 46, 47
            ]
        );
        let s = rx.stats();
        assert_eq!((s.frames_dropped_injected, s.frames_delayed), (13, 12));
    }

    /// Two nodes on the simulator's engine: every turn a node asks the
    /// other once and sends it a oneway, and answers what it is asked.
    /// Every message carries its kind and the sender's count of messages
    /// to the other; `got` logs what arrived.
    struct Pair {
        other: Addr,
        cycle: u64,
        /// `(cycle sent, kind, stamp)` of every message sent.
        sent: Vec<(u64, MsgKind, u32)>,
        got: Vec<u32>,
    }

    impl Pair {
        fn stamp(&mut self, kind: MsgKind) -> (MsgKind, u32) {
            let n = self.sent.len() as u32;
            self.sent.push((self.cycle, kind, n));
            (kind, n)
        }
    }

    impl sc_core::Machine for Pair {
        type Msg = (MsgKind, u32);

        fn step(&mut self, input: sc_core::Input<Self::Msg>) -> sc_core::Effects<Self::Msg> {
            use sc_core::Input;
            let mut fx = sc_core::Effects::default();
            match input {
                Input::Tick { cycle, .. } => {
                    self.cycle = cycle;
                    fx.rpc = Some((self.other, self.stamp(MsgKind::Request)));
                    fx.sends.push((self.other, self.stamp(MsgKind::Oneway)));
                }
                Input::Request { msg, cycle, .. } => {
                    self.cycle = cycle;
                    self.got.push(msg.1);
                    fx.reply = Some(self.stamp(MsgKind::Response));
                }
                Input::Reply(msg) | Input::Oneway { msg, .. } => self.got.push(msg.1),
                Input::Timeout => {}
            }
            fx
        }
    }

    #[test]
    fn the_engine_and_a_receiving_transport_drop_the_same_frames() {
        // One link, 0 → 1, carrying requests, replies and oneways under
        // three different rates: the frames the engine loses are the
        // frames node 1's fault filter loses when it receives the same
        // sequence.
        const SEED: u64 = 21;
        let loss = sc_core::Loss::new(0.3, 0.15, 0.45);
        let mut eng = sc_sim::Engine::new(sc_sim::SimConfig {
            seed: SEED,
            loss,
            ..Default::default()
        });
        for other in [1, 0] {
            eng.spawn_with(|_| Pair {
                other,
                cycle: 0,
                sent: Vec::new(),
                got: Vec::new(),
            });
        }
        eng.run_cycles(60);
        let (sender, receiver) = (eng.node(0).unwrap(), eng.node(1).unwrap());
        // The order the engine decides node 0's messages in: a oneway at
        // the start of the cycle after its sending, the rest as sent.
        let mut link = sender.sent.clone();
        link.retain(|&(cycle, kind, _)| kind != MsgKind::Oneway || cycle + 1 < eng.cycle());
        link.sort_by_key(|&(cycle, kind, n)| match kind {
            MsgKind::Oneway => (cycle + 1, 0, n),
            _ => (cycle, 1, n),
        });
        let lost_on_engine: Vec<u32> = link
            .iter()
            .map(|&(_, _, n)| n)
            .filter(|n| !receiver.got.contains(n))
            .collect();

        let spec = FaultSpec {
            seed: SEED,
            loss,
            ..FaultSpec::default()
        };
        let frames = link.iter().map(|&(_, kind, n)| {
            let kind = match kind {
                MsgKind::Request => FrameKind::Request,
                MsgKind::Response => FrameKind::Reply,
                MsgKind::Oneway => FrameKind::Oneway,
            };
            Frame::new(kind, 0, n.to_le_bytes().to_vec())
        });
        let inner = Script {
            addr: 1,
            inbound: frames.collect(),
            log: Vec::new(),
        };
        let mut rx = FaultTransport::new(inner, spec);
        let mut got = Vec::new();
        while let Some(ib) = rx.recv(Duration::from_millis(20)) {
            got.push(u32::from_le_bytes(
                ib.frame.payload[..4].try_into().unwrap(),
            ));
        }
        let lost_on_sockets: Vec<u32> = link
            .iter()
            .map(|&(_, _, n)| n)
            .filter(|n| !got.contains(n))
            .collect();

        assert_eq!(lost_on_sockets, lost_on_engine);
        for kind in [MsgKind::Request, MsgKind::Response, MsgKind::Oneway] {
            let of_kind = link.iter().filter(|f| f.1 == kind);
            let lost = of_kind.clone().filter(|f| lost_on_engine.contains(&f.2));
            let (sent, lost) = (of_kind.count(), lost.count());
            assert!(0 < lost && lost < sent, "{kind:?}: {lost} of {sent} lost");
        }
    }

    #[test]
    fn a_delayed_frame_is_held_for_its_polls_and_released_before_the_deadline() {
        // Every frame delayed, by 1..=200 polls of 500 µs as decided.
        let spec = "seed=5,delay=1.0:200";
        let polls = FaultSpec::parse(spec)
            .unwrap()
            .decide(FaultDir::Inbound, MsgKind::Oneway, PEER, ME, 0)
            .delay_polls;
        assert!(polls >= 20, "a hold long enough to time: {polls} polls");
        let hold = DELAY_UNIT * polls;
        let mut rx = scripted(spec, [7]);
        let started = Instant::now();
        // The caller's deadline is far beyond the release: the wait
        // handed down must be cut to the release time, not slept out.
        let got = rx.recv(Duration::from_secs(5)).expect("released");
        let took = started.elapsed();
        assert_eq!(got.frame.payload, [7]);
        assert!(
            took >= hold && took < hold + Duration::from_millis(100),
            "{polls} polls ({hold:?}) released after {took:?}"
        );
        assert_eq!(rx.stats().frames_delayed, 1);

        // A deadline before the release wins: nothing yet, the frame
        // stays held and comes out of a later call.
        let mut rx = scripted(spec, [7]);
        assert!(rx.recv(hold / 4).is_none());
        assert!(rx.recv(Duration::from_secs(5)).is_some());
    }
}
