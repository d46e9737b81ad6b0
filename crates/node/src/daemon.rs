//! The event loop: a `SecureCyclonNode` on a real socket.
//!
//! The protocol is the sans-IO state machine of `sc_core::node`; this
//! module is its socket driver. Single-threaded by construction — the
//! paper's node alternates between one active gossip turn per cycle and
//! passive request handling, so one loop suffices. The loop is
//! event-driven: each iteration works out its next wall-clock event (the
//! next turn point, a cycle boundary something is waiting for, the
//! pending RPC's resend or deadline, the end of the linger) and blocks in
//! the transport — in `poll(2)`, see [`crate::wait`] — until a frame
//! arrives or that moment comes. Between exchanges the process is asleep
//! in the kernel.
//!
//! 1. A wall-clock shared across the cluster (`--epoch-millis`) maps
//!    real time to cycle numbers; each new cycle steps one
//!    [`Input::Tick`] into the node.
//! 2. An `rpc` effect becomes a `Request` frame and one `PendingRpc`:
//!    the loop keeps running while the answer is outstanding. The `Reply`
//!    frame with the awaited `req_id` steps [`Input::Reply`] (an empty or
//!    undecodable payload steps [`Input::Timeout`]), the deadline steps
//!    [`Input::Timeout`], and **every other frame is handled at once** —
//!    a daemon waiting for its partner is not deaf to its own callers.
//!    What its exchange offered has already left the view, so serving a
//!    request mid-exchange cannot spend a descriptor twice.
//! 3. `sends` effects become one-way frames, and so does a `flood`: each
//!    of its messages is encoded once and that frame written to every
//!    address it names. Passive RPCs, proof floods, §V-A join pings and
//!    grants, and control-socket scrapes are stepped in as they arrive,
//!    joined or not. What to make of them is the node's: it refuses a
//!    request whose certificate it never minted, and holds a join ping
//!    that finds this cycle's budget spent for its next turn.
//!
//! Founding members compute the ring bootstrap locally from the shared
//! cluster seed — a zero-message legal bootstrap. A `--sponsor` joiner
//! enters the way a starved node re-enters: it sends its sponsor the
//! protocol's own [`SecureMsg::JoinPing`] once a cycle until the
//! sponsor's node answers with a [`SecureMsg::JoinGrant`]. The daemon
//! states no handshake of its own.

use crate::config::NodeConfig;
use crate::control::StatusReport;
use crate::fault::FaultTransport;
use crate::frame::{Frame, FrameKind, MAX_FRAME_BYTES};
use crate::transport::{Inbound, TcpTransport, Transport};
use sc_core::wire::{self, WireLimits};
use sc_core::{
    ring_bootstrap, Addr, Effects, FaultSpec, Input, JoinPingBody, SecureCyclonNode, SecureMsg,
};
use std::collections::VecDeque;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Outcome of a completed daemon run, for the binary's exit report.
#[derive(Clone, Copy, Debug)]
pub struct RunSummary {
    /// Gossip cycles fired.
    pub cycles_run: u64,
    /// Wall-clock seconds the run loop was live.
    pub elapsed_secs: f64,
    /// Final protocol counters.
    pub stats: sc_core::SecureStats,
    /// Final transport counters.
    pub transport: crate::transport::TransportStats,
}

/// Cap on cached replies served to retransmitted requests.
const REPLY_CACHE_CAP: usize = 32;

/// Decode-side wire limits. Their `max_frame_bytes` is the cap the
/// transport frames at, so a frame the transport admits is one the
/// decoder accepts.
const WIRE_LIMITS: WireLimits = WireLimits {
    max_frame_bytes: MAX_FRAME_BYTES,
    ..WireLimits::DEFAULT
};

/// How long dialing a peer may take.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);

/// How long a daemon stopped by `--stop-cycle` lingers awaiting a
/// shutdown frame before exiting on its own (safety net against leaked
/// processes).
const LINGER: Duration = Duration::from_secs(30);

/// How many times an unanswered RPC request is retransmitted inside
/// `--rpc-timeout-ms`. Always the byte-identical frame — never a
/// re-emission, so the §IV-B frequency rule holds; the responder serves
/// duplicates from its reply cache.
const RPC_RETRANSMITS: u32 = 1;

/// The node's one outstanding RPC: the request frame already on the
/// wire, awaiting its `Reply`.
struct PendingRpc {
    to: Addr,
    /// Its `req_id` is what the awaited `Reply` must carry. Resent
    /// byte-identically (same `req_id`, same descriptor) at each
    /// retransmit-slice boundary. Never a re-emission — the §IV-B
    /// frequency rule forbids a second descriptor per period — and the
    /// responder's reply cache keeps duplicates idempotent.
    frame: Frame,
    deadline: Instant,
    next_resend: Instant,
    resends_left: u32,
}

/// A running SecureCyclon daemon.
pub struct Daemon {
    cfg: NodeConfig,
    node: SecureCyclonNode,
    transport: FaultTransport<TcpTransport>,
    start_cycle: u64,
    epoch_ms: u64,
    /// The latest cycle whose turn fired — or, while the node has not
    /// joined, in which it pinged its sponsor: the first turn after the
    /// grant is then the next cycle's.
    last_fired: Option<u64>,
    next_req_id: u32,
    pending: Option<PendingRpc>,
    cycles_run: u64,
    shutdown: bool,
    /// A `CtrlFault` spec awaiting its cycle boundary, with the cycle it
    /// arrived in: applying only once the clock moves past that cycle
    /// keeps every cycle under exactly one spec.
    pending_fault: Option<(FaultSpec, u64)>,
    /// Replies to recent requests, keyed `(from, req_id, request
    /// payload)`, so a retransmitted request is answered byte-for-byte
    /// without re-running the protocol handler (idempotence).
    reply_cache: VecDeque<(Addr, u32, Vec<u8>, Vec<u8>)>,
    /// RPC request frames retransmitted inside their deadline.
    retransmits: u64,
    /// Turn deadlines that passed unfired (fell behind the shared clock).
    turns_skipped: u64,
}

fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

impl Daemon {
    /// Binds the socket and installs the bootstrap state.
    ///
    /// Founding members (`sponsor == None`, `index < cluster_size`)
    /// derive every ring keypair from the cluster seed and keep their
    /// slice of the §V-A-legal ring bootstrap; sponsored joiners start
    /// with an empty view and acquire their first descriptor by pinging
    /// their sponsor once the loop runs.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures and `--state-dir` I/O failures.
    pub fn new(cfg: NodeConfig) -> std::io::Result<Daemon> {
        let node = match &cfg.state_dir {
            Some(dir) => {
                let path = dir.join(format!("sc-node-{}.log", cfg.addr));
                let backend = Box::new(sc_core::FileBackend::open(path)?);
                SecureCyclonNode::with_backend(
                    cfg.keypair(),
                    cfg.addr,
                    cfg.secure,
                    cfg.rng_seed(),
                    cfg.phase(),
                    backend,
                )?
            }
            None => SecureCyclonNode::new(
                cfg.keypair(),
                cfg.addr,
                cfg.secure,
                cfg.rng_seed(),
                cfg.phase(),
            ),
        };
        // A node that recovered a log joined in a previous life: the ring
        // slice would re-insert descriptors that may have been signed away
        // since — self-made cloning evidence. The frequency half of the
        // same guard is the recovered emission marker (`last_emission`).
        // It runs its turns even if its view came back empty (everything
        // checkpointed signed away in passive exchanges after the last
        // checkpoint): the core's §V-A rejoin ping brings it back.
        let recovered = node.joined();
        let tcp = TcpTransport::bind(cfg.addr, CONNECT_TIMEOUT, MAX_FRAME_BYTES)?;
        let transport = FaultTransport::new(tcp, cfg.fault_spec.clone());
        let start_cycle = cfg.secure.view_len as u64;
        let epoch_ms = if cfg.epoch_millis == 0 {
            unix_ms()
        } else {
            cfg.epoch_millis
        };
        let mut daemon = Daemon {
            node,
            transport,
            start_cycle,
            epoch_ms,
            last_fired: None,
            next_req_id: 1,
            pending: None,
            cycles_run: 0,
            shutdown: false,
            pending_fault: None,
            reply_cache: VecDeque::new(),
            retransmits: 0,
            turns_skipped: 0,
            cfg,
        };
        if recovered {
            // Founding members recompute start_cycle the same way the
            // ring plan does, so cycle numbers stay stable across lives.
            daemon.last_fired = daemon.node.last_emission();
        } else if daemon.cfg.sponsor.is_none() {
            daemon.install_ring_slice();
        }
        Ok(daemon)
    }

    /// Computes the shared ring bootstrap and keeps this node's slice.
    fn install_ring_slice(&mut self) {
        let n = self.cfg.cluster_size;
        assert!(
            self.cfg.index < n,
            "founding member index {} outside cluster of {n}",
            self.cfg.index
        );
        let tpc = self.cfg.secure.ticks_per_cycle;
        let keypairs: Vec<_> = (0..n).map(|i| self.cfg.keypair_for(i)).collect();
        let addrs: Vec<Addr> = (0..n).map(|i| self.cfg.base_addr + i as Addr).collect();
        let phases: Vec<u64> = (0..n).map(|i| sc_core::default_phase(i, tpc)).collect();
        let plan = ring_bootstrap(&keypairs, &addrs, &phases, self.cfg.secure.view_len, tpc);
        self.start_cycle = plan.start_cycle;
        let mine = plan.per_node.into_iter().nth(self.cfg.index).unwrap();
        for desc in mine {
            self.node.accept_bootstrap(desc);
        }
    }

    /// The cycle number the shared wall clock maps `now_ms` to.
    fn cycle_at(&self, now_ms: u64) -> u64 {
        let elapsed = now_ms.saturating_sub(self.epoch_ms);
        self.start_cycle + elapsed / self.cfg.cycle_ms
    }

    /// The cycle number the shared wall clock currently maps to.
    fn current_cycle(&self) -> u64 {
        self.cycle_at(unix_ms())
    }

    /// How far into each cycle this node's turn fires:
    /// `phase·cycle_ms/tpc` — the wall-clock image of the engine's
    /// per-node phase stagger — so initiations spread across the cycle
    /// instead of colliding at every boundary.
    fn phase_ms(&self) -> u64 {
        self.cfg.phase() * self.cfg.cycle_ms / self.cfg.secure.ticks_per_cycle
    }

    /// The latest cycle whose *turn point* (`boundary + phase_ms`) has
    /// passed at `now_ms`.
    fn due_turn_cycle(&self, now_ms: u64) -> Option<u64> {
        let elapsed = now_ms.saturating_sub(self.epoch_ms);
        let since_first = elapsed.checked_sub(self.phase_ms())?;
        Some(self.start_cycle + since_first / self.cfg.cycle_ms)
    }

    /// Read access for tests and the status report.
    pub fn node(&self) -> &SecureCyclonNode {
        &self.node
    }

    /// Runs until a shutdown frame arrives.
    ///
    /// With `--stop-cycle n`, the daemon stops *firing* turns once the
    /// shared clock reaches cycle `n` but lingers serving passive RPCs
    /// and control scrapes (for up to 30 s): every member of a
    /// cluster stops at the same boundary, so a harness can scrape a
    /// quiescent network — no descriptor is ever in flight between two
    /// scrapes — before shutting the processes down.
    pub fn run(&mut self) -> RunSummary {
        let started = Instant::now();
        let mut stopped_at: Option<Instant> = None;
        while !self.shutdown {
            let in_flight = self.pending.is_some();
            // One reading of the wall clock decides what is due in this
            // iteration *and* anchors the wait that follows: a turn point
            // or boundary that passes while the iteration works is then
            // either acted on here or still ahead of `next_wait` — never
            // between the two, which would cost a whole cycle.
            let now_ms = unix_ms();
            let cycle = self.cycle_at(now_ms);
            self.apply_pending_fault(cycle);
            let stopping = self.cfg.stop_cycle > 0 && cycle >= self.cfg.stop_cycle;
            let lingering = stopping.then(|| *stopped_at.get_or_insert_with(Instant::now));
            if let Some(since) = lingering {
                if since.elapsed() >= LINGER {
                    break;
                }
            } else if !self.node.joined() {
                self.ping_sponsor(cycle);
            } else if let Some(due) = self.due_turn_cycle(now_ms).filter(|_| !in_flight) {
                if self.last_fired.is_none_or(|c| due > c) {
                    if let Some(last) = self.last_fired {
                        // §IV-B allows one emission per period — a node
                        // that fell behind the shared clock, was cut off
                        // by a partition, or was still mid-exchange when
                        // its turn came never back-fills missed turns,
                        // it just counts them.
                        self.turns_skipped += due - last - 1;
                    }
                    let fx = self.node.step(Input::Tick { cycle: due });
                    self.apply(fx);
                    self.last_fired = Some(due);
                    self.cycles_run += 1;
                }
            }
            let wait = self.next_wait(now_ms, lingering);
            if let Some(ib) = self.transport.recv(wait) {
                self.handle(ib);
            }
        }
        RunSummary {
            cycles_run: self.cycles_run,
            elapsed_secs: started.elapsed().as_secs_f64(),
            stats: self.node.stats(),
            transport: self.transport.stats(),
        }
    }

    /// Routes one step's effects: one-way sends go out as frames, then
    /// the flood, each of its messages encoded once and that frame written
    /// to every address; an `rpc` becomes the pending request. A request
    /// that cannot even be handed to the transport times out on the spot.
    fn apply(&mut self, mut fx: Effects) {
        loop {
            for (to, msg) in fx.sends {
                let f = Frame::new(FrameKind::Oneway, self.cfg.addr, encode(&msg));
                self.transport.send_to(to, &f);
            }
            if let Some(flood) = fx.flood {
                for msg in &flood.msgs {
                    let f = Frame::new(FrameKind::Oneway, self.cfg.addr, encode(msg));
                    for &to in &flood.to {
                        self.transport.send_to(to, &f);
                    }
                }
            }
            let Some((to, msg)) = fx.rpc else { return };
            let mut frame = Frame::new(FrameKind::Request, self.cfg.addr, encode(&msg));
            frame.req_id = self.next_req_id;
            self.next_req_id = self.next_req_id.wrapping_add(1).max(1);
            if self.transport.send_to(to, &frame) {
                let now = Instant::now();
                self.pending = Some(PendingRpc {
                    to,
                    frame,
                    deadline: now + self.cfg.rpc_timeout,
                    next_resend: now + self.resend_slice(),
                    resends_left: RPC_RETRANSMITS,
                });
                return;
            }
            fx = self.node.step(Input::Timeout);
        }
    }

    /// One retransmit slice: the RPC deadline split evenly over the first
    /// send and every resend.
    fn resend_slice(&self) -> Duration {
        self.cfg.rpc_timeout / (RPC_RETRANSMITS + 1)
    }

    /// Retransmits or times out the pending RPC as its clock demands;
    /// returns how long until it next needs attention (its next resend,
    /// else its deadline), or `None` when no RPC is pending.
    fn poll_pending(&mut self) -> Option<Duration> {
        let slice = self.resend_slice();
        let p = self.pending.as_mut()?;
        let now = Instant::now();
        if now >= p.deadline {
            self.pending = None;
            let fx = self.node.step(Input::Timeout);
            self.apply(fx);
            return Some(Duration::ZERO);
        }
        if p.resends_left > 0 && now >= p.next_resend {
            p.resends_left -= 1;
            p.next_resend = now + slice;
            if self.transport.send_to(p.to, &p.frame) {
                self.retransmits += 1;
            }
        }
        let next = if p.resends_left > 0 {
            p.next_resend.min(p.deadline)
        } else {
            p.deadline
        };
        Some(next.saturating_duration_since(now))
    }

    /// The first moment after `now_ms` at which the shared clock reaches
    /// `origin_ms` plus a whole number of cycles.
    fn next_point_after(&self, origin_ms: u64, now_ms: u64) -> u64 {
        match now_ms.checked_sub(origin_ms) {
            Some(past) => now_ms + self.cfg.cycle_ms - past % self.cfg.cycle_ms,
            None => origin_ms,
        }
    }

    /// How long the loop may block: until the earliest event after
    /// `now_ms` (the clock reading this iteration acted on) that its next
    /// iteration would act on, and never longer than one cycle — the
    /// schedule is on `SystemTime` while the wait is monotonic, so a
    /// stepped wall clock must not buy an unbounded sleep. `lingering` is
    /// when the `--stop-cycle` linger began, if it has.
    fn next_wait(&mut self, now_ms: u64, lingering: Option<Instant>) -> Duration {
        let cycle_ms = self.cfg.cycle_ms;
        let mut wake_ms = now_ms + cycle_ms;
        let joined = self.node.joined();
        if joined && lingering.is_none() && self.pending.is_none() {
            let first_turn = self.epoch_ms + self.phase_ms();
            wake_ms = wake_ms.min(self.next_point_after(first_turn, now_ms));
        }
        // Three things happen at cycle boundaries: a `CtrlFault` spec is
        // installed, the stop cycle arrives, an unjoined node pings its
        // sponsor again.
        let awaits_stop = self.cfg.stop_cycle > 0 && lingering.is_none();
        if self.pending_fault.is_some() || awaits_stop || !joined {
            wake_ms = wake_ms.min(self.next_point_after(self.epoch_ms, now_ms));
        }
        let mut wait = Duration::from_millis(wake_ms.saturating_sub(unix_ms()).min(cycle_ms));
        if let Some(since) = lingering {
            wait = wait.min(LINGER.saturating_sub(since.elapsed()));
        }
        if let Some(rpc) = self.poll_pending() {
            wait = wait.min(rpc);
        }
        wait
    }

    /// Installs a pending `CtrlFault` spec once the clock leaves the
    /// cycle it arrived in, so no cycle straddles two specs.
    fn apply_pending_fault(&mut self, cycle: u64) {
        if let Some((spec, _)) = self
            .pending_fault
            .take_if(|(_, rx_cycle)| cycle > *rx_cycle)
        {
            self.transport.set_spec(spec);
        }
    }

    /// Sends the sponsor a §V-A join ping, at most once a cycle; the
    /// grant that answers it is a one-way the node takes in like any.
    fn ping_sponsor(&mut self, cycle: u64) {
        let Some(sponsor) = self.cfg.sponsor else {
            return;
        };
        if self.last_fired == Some(cycle) {
            return;
        }
        self.last_fired = Some(cycle);
        let joiner = self.node.id();
        let ping = SecureMsg::JoinPing(Box::new(JoinPingBody { joiner }));
        let frame = Frame::new(FrameKind::Oneway, self.cfg.addr, encode(&ping));
        self.transport.send_to(sponsor, &frame);
    }

    /// Dispatches one inbound frame, whether or not an RPC is pending.
    fn handle(&mut self, ib: Inbound) {
        let cycle = self.current_cycle();
        let period = self.cfg.secure.ticks_per_cycle;
        match ib.frame.kind {
            FrameKind::Request => {
                let from = ib.frame.from;
                // A retransmitted request (same initiator, same req_id,
                // byte-identical payload) gets the cached reply: running
                // the handler twice would double-apply the exchange.
                if ib.frame.req_id != 0 {
                    if let Some((_, _, _, cached)) = self.reply_cache.iter().find(|(a, r, p, _)| {
                        *a == from && *r == ib.frame.req_id && *p == ib.frame.payload
                    }) {
                        let mut f = Frame::new(FrameKind::Reply, self.cfg.addr, cached.clone());
                        f.req_id = ib.frame.req_id;
                        self.transport.respond(ib.conn, &f);
                        return;
                    }
                }
                let Ok(msg) = wire::decode_message_with(&ib.frame.payload, period, &WIRE_LIMITS)
                else {
                    return;
                };
                let mut fx = self.node.step(Input::Request { from, msg, cycle });
                let reply = fx.reply.take();
                self.apply(fx);
                // An explicit empty reply lets the initiator observe
                // "no answer" without waiting out its RPC timeout.
                let payload = reply.as_ref().map_or_else(Vec::new, encode);
                if ib.frame.req_id != 0 {
                    if self.reply_cache.len() >= REPLY_CACHE_CAP {
                        self.reply_cache.pop_front();
                    }
                    self.reply_cache.push_back((
                        from,
                        ib.frame.req_id,
                        ib.frame.payload.clone(),
                        payload.clone(),
                    ));
                }
                let mut f = Frame::new(FrameKind::Reply, self.cfg.addr, payload);
                f.req_id = ib.frame.req_id;
                self.transport.respond(ib.conn, &f);
            }
            FrameKind::Oneway => {
                let Ok(msg) = wire::decode_message_with(&ib.frame.payload, period, &WIRE_LIMITS)
                else {
                    return;
                };
                let fx = self.node.step(Input::Oneway {
                    from: ib.frame.from,
                    msg,
                    cycle,
                });
                self.apply(fx);
            }
            FrameKind::CtrlStatus => {
                let report = self.status_report(cycle);
                let f = Frame::new(FrameKind::CtrlStatusReply, self.cfg.addr, report.encode());
                self.transport.respond(ib.conn, &f);
            }
            FrameKind::CtrlShutdown => {
                self.shutdown = true;
            }
            FrameKind::CtrlFault => {
                let text = std::str::from_utf8(&ib.frame.payload).ok();
                let Some(spec) = text.and_then(|s| FaultSpec::parse(s).ok()) else {
                    return; // malformed spec: no ack, client times out
                };
                self.pending_fault = Some((spec, cycle));
                let mut f = Frame::new(FrameKind::CtrlFaultReply, self.cfg.addr, Vec::new());
                f.req_id = ib.frame.req_id;
                self.transport.respond(ib.conn, &f);
            }
            FrameKind::Reply => {
                // A reply nobody awaits (its RPC already timed out) is
                // dropped; an explicit empty or undecodable one is the
                // partner saying "no answer".
                if self.pending.as_ref().map(|p| p.frame.req_id) != Some(ib.frame.req_id) {
                    return;
                }
                self.pending = None;
                let outcome = wire::decode_message_with(&ib.frame.payload, period, &WIRE_LIMITS)
                    .map_or(Input::Timeout, Input::Reply);
                let fx = self.node.step(outcome);
                self.apply(fx);
            }
            FrameKind::CtrlStatusReply | FrameKind::CtrlFaultReply => {
                // Misdirected control traffic is dropped.
            }
        }
    }

    /// What a scrape reads: the node's own fields, and the daemon's.
    fn status_report(&self, cycle: u64) -> StatusReport {
        StatusReport {
            cycles_run: self.cycles_run,
            transport: self.transport.stats(),
            retransmits: self.retransmits,
            turns_skipped: self.turns_skipped,
            ..StatusReport::of(&self.node, cycle)
        }
    }
}

/// Room an encoding takes beyond its descriptors (the tag, up to three
/// `u16` list counts, one kind byte a proof, a join ping's key), with
/// some to spare.
const ENCODE_SLACK_BYTES: usize = 64;

/// A message's wire encoding, in a buffer sized for it up front.
fn encode(msg: &SecureMsg) -> Vec<u8> {
    let mut out = Vec::with_capacity(wire::message_wire_bytes(msg) + ENCODE_SLACK_BYTES);
    wire::encode_message(msg, &mut out);
    out
}
