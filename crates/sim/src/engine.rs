//! The cycle-driven simulation engine.
//!
//! This module replaces the role PeerNet/PeerSim plays in the paper's
//! evaluation (§VI). The engine owns an arena of protocol nodes (see
//! [`crate::arena`]) and drives them in randomized order, once per cycle,
//! exactly like PeerSim's cycle-based mode:
//!
//! * During its turn a node may perform **synchronous RPCs** — the
//!   request/response round trips of a Cyclon gossip exchange, including the
//!   `s` tit-for-tat rounds of SecureCyclon (§V-B), complete within the
//!   initiator's turn.
//! * Nodes may also emit **one-way messages** (proof floods, §IV-C) at any
//!   point; these are queued per cycle and delivered at the start of the
//!   *next* cycle, giving flooding a realistic one-hop-per-cycle propagation
//!   speed. The queue is drained in ascending destination-address order
//!   (stable within a destination), so delivery cost is a single pass over
//!   a sorted batch and the loss-roll stream is a deterministic function of
//!   the batch alone.
//!
//! # Storage: the arena
//!
//! Nodes live in an [`Arena`]: boxed payloads indexed by [`Addr`], a
//! packed liveness array, and a maintained live-address list. Every
//! turn-time move (a node taken out for its turn, an RPC target checked
//! out for its handler) is pointer-sized, per-cycle setup is O(alive)
//! rather than O(addresses ever allocated), and addresses are never
//! reused — a descriptor pointing at a departed node dangles, as in a
//! real overlay.
//!
//! # Schedule and determinism
//!
//! There is one schedule: each cycle delivers the queued one-way
//! messages, shuffles the live addresses with the engine RNG, and runs
//! one turn at a time in that order — the paper's cycle-driven model. A
//! node that is mid-turn is checked out of the arena, so an RPC aimed at
//! it (or at the caller itself) times out as unreachable. Shuffles and
//! loss rolls are the only consumers of the engine RNG, in program
//! order, so a run is bit-for-bit reproducible per seed.

use crate::arena::Arena;
use crate::clock::Clock;
use crate::net::NetworkModel;
use crate::stats::TrafficStats;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A simulated network address ("IP and port" in the paper's model).
///
/// Addresses index the engine's node arena and are never reused, so a
/// descriptor pointing at a departed node dangles — as in a real overlay.
pub type Addr = u32;

/// A protocol endpoint hosted by the [`Engine`].
///
/// Implementors provide three entry points mirroring a real networked node:
/// the periodic active thread ([`on_cycle`](SimNode::on_cycle)), the RPC
/// server ([`on_rpc`](SimNode::on_rpc)), and the datagram handler
/// ([`on_oneway`](SimNode::on_oneway)).
pub trait SimNode: Sized {
    /// The protocol's wire message type.
    type Msg;

    /// Called once per cycle: the node's active gossip thread.
    fn on_cycle(&mut self, ctx: &mut CycleCtx<'_, Self>);

    /// Handles an incoming RPC and optionally returns a response.
    ///
    /// Returning `None` models a node that received the request but chose
    /// not to (or failed to) answer — the initiator observes a timeout.
    fn on_rpc(
        &mut self,
        from: Addr,
        msg: Self::Msg,
        ctx: &mut NodeCtx<'_, Self::Msg>,
    ) -> Option<Self::Msg>;

    /// Handles an incoming one-way message (e.g. a flooded violation proof).
    fn on_oneway(&mut self, from: Addr, msg: Self::Msg, ctx: &mut NodeCtx<'_, Self::Msg>);
}

/// Outcome of a synchronous RPC, as observed by the initiator.
///
/// A real node cannot distinguish *why* no response arrived (dead target,
/// lost request, lost response, or an uncooperative peer), so all of those
/// collapse into [`RpcOutcome::Timeout`]. Protocol code must handle the
/// uncertainty — in SecureCyclon, by discarding sent descriptors rather
/// than risking a cloning accusation (§V-A, case 2).
#[derive(Debug)]
pub enum RpcOutcome<M> {
    /// The response from the target.
    Reply(M),
    /// No response arrived.
    Timeout,
}

/// An in-flight one-way message.
#[derive(Debug, Clone)]
struct Envelope<M> {
    from: Addr,
    to: Addr,
    msg: M,
}

/// Engine construction parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Master seed for shuffle order and network loss rolls.
    pub seed: u64,
    /// Message-loss model.
    pub net: NetworkModel,
    /// Tick resolution of one cycle.
    pub ticks_per_cycle: u64,
    /// Cycle number the clock starts at (see [`crate::clock::Clock::starting_at`]).
    pub start_cycle: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            net: NetworkModel::reliable(),
            ticks_per_cycle: crate::clock::DEFAULT_TICKS_PER_CYCLE,
            start_cycle: 0,
        }
    }
}

impl SimConfig {
    /// A reliable-network config with the given seed.
    pub fn seeded(seed: u64) -> Self {
        SimConfig {
            seed,
            ..Default::default()
        }
    }
}

/// The cycle-driven simulator.
pub struct Engine<N: SimNode> {
    arena: Arena<N>,
    clock: Clock,
    net: NetworkModel,
    rng: StdRng,
    /// One-way messages to deliver at the start of the next cycle.
    pending: Vec<Envelope<N::Msg>>,
    stats: TrafficStats,
}

impl<N: SimNode> Engine<N> {
    /// Creates an empty engine.
    pub fn new(cfg: SimConfig) -> Self {
        Engine {
            arena: Arena::new(),
            clock: Clock::new(cfg.ticks_per_cycle).starting_at(cfg.start_cycle),
            net: cfg.net,
            rng: StdRng::seed_from_u64(cfg.seed),
            pending: Vec::new(),
            stats: TrafficStats::default(),
        }
    }

    /// Adds a node constructed by `make`, which receives the address the
    /// node will live at (nodes embed their address in descriptors).
    pub fn spawn_with(&mut self, make: impl FnOnce(Addr) -> N) -> Addr {
        self.arena.insert_with(make)
    }

    /// Removes a node from the network without notice (crash / departure).
    ///
    /// Its address is never reused; descriptors pointing at it dangle.
    pub fn kill(&mut self, addr: Addr) {
        self.arena.kill(addr);
    }

    /// Whether the node at `addr` is alive.
    pub fn is_alive(&self, addr: Addr) -> bool {
        self.arena.is_alive(addr)
    }

    /// Number of alive nodes. O(1).
    pub fn alive_count(&self) -> usize {
        self.arena.alive_count()
    }

    /// Total number of addresses ever allocated (alive or dead).
    pub fn capacity(&self) -> usize {
        self.arena.capacity()
    }

    /// Borrows the node at `addr`, if alive.
    pub fn node(&self, addr: Addr) -> Option<&N> {
        self.arena.get(addr)
    }

    /// Mutably borrows the node at `addr`, if alive.
    pub fn node_mut(&mut self, addr: Addr) -> Option<&mut N> {
        self.arena.get_mut(addr)
    }

    /// Iterates over `(addr, node)` for all alive nodes in address order.
    pub fn nodes(&self) -> impl Iterator<Item = (Addr, &N)> {
        self.arena.iter()
    }

    /// The simulation clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The current cycle number.
    pub fn cycle(&self) -> u64 {
        self.clock.cycle()
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// The active network model.
    pub fn net(&self) -> &NetworkModel {
        &self.net
    }

    /// Replaces the network model (e.g. to start injecting losses, install
    /// a partition, or heal one at a given cycle).
    pub fn set_net(&mut self, net: NetworkModel) {
        self.net = net;
    }

    /// Runs one full cycle: delivers queued one-way messages in address
    /// order, then gives every alive node its turn in shuffled order.
    pub fn run_cycle(&mut self) {
        self.run_cycle_interrupted(usize::MAX, |_| {});
    }

    /// Runs one cycle with an interruption: the first `after_turns`
    /// turns of the shuffled order run, then `mid` gets mutable access
    /// to the engine (kill or restart nodes, inject messages), then the
    /// remaining turns run and the clock advances. This models faults
    /// landing *inside* a gossip cycle — e.g. a crash after a node
    /// already answered some exchanges but before its checkpoint — which
    /// boundary-aligned fault hooks structurally cannot express.
    ///
    /// Where the cut falls consumes no randomness, so with a `mid` that
    /// does nothing the cycle is bit-identical to [`Engine::run_cycle`]
    /// for every `after_turns`.
    pub fn run_cycle_interrupted<F>(&mut self, after_turns: usize, mid: F)
    where
        F: FnOnce(&mut Self),
    {
        self.deliver_pending();

        let mut order: Vec<Addr> = self.arena.live_addrs().to_vec();
        order.shuffle(&mut self.rng);

        let cut = after_turns.min(order.len());
        self.run_turns(&order[..cut]);
        mid(self);
        self.run_turns(&order[cut..]);

        self.clock.advance();
    }

    /// Runs `n` cycles back to back.
    pub fn run_cycles(&mut self, n: u64) {
        for _ in 0..n {
            self.run_cycle();
        }
    }

    /// The turn loop: take each node out, run its turn, put it back.
    fn run_turns(&mut self, order: &[Addr]) {
        for &addr in order {
            // The node may have been killed mid-cycle; `take` then fails.
            let Some(mut node) = self.arena.take(addr) else {
                continue;
            };
            let mut ctx = CycleCtx {
                self_addr: addr,
                engine: self,
            };
            node.on_cycle(&mut ctx);
            self.arena.put_back(addr, node);
        }
    }

    /// Delivers all one-way messages queued during the previous cycle,
    /// in ascending destination-address order (stable per destination).
    /// Messages sent *while delivering* (cascading re-floods) are queued
    /// for the next cycle, giving one-hop-per-cycle flood propagation.
    fn deliver_pending(&mut self) {
        let mut batch = std::mem::take(&mut self.pending);
        batch.sort_by_key(|env| env.to);
        for env in batch {
            self.stats.oneways_sent += 1;
            // Partition check first: severing is deterministic and consumes
            // no randomness (a severed message skips its loss roll, so the
            // roll stream differs from a partition-free run — but any two
            // runs of the same seed and schedule stay bit-identical).
            if self.net.severs(env.from, env.to) {
                self.stats.oneways_severed += 1;
                continue;
            }
            if self.net.drop_oneway > 0.0 && self.rng.gen::<f64>() < self.net.drop_oneway {
                self.stats.oneways_dropped += 1;
                continue;
            }
            let Some(mut node) = self.arena.take(env.to) else {
                self.stats.oneways_to_dead += 1;
                continue;
            };
            let mut ctx = NodeCtx {
                pending: &mut self.pending,
                clock: &self.clock,
                self_addr: env.to,
            };
            node.on_oneway(env.from, env.msg, &mut ctx);
            self.arena.put_back(env.to, node);
            self.stats.oneways_delivered += 1;
        }
    }

    /// One synchronous round trip from `from` to `to`, as the initiator
    /// observes it.
    fn rpc(&mut self, from: Addr, to: Addr, msg: N::Msg) -> RpcOutcome<N::Msg> {
        self.stats.rpcs_sent += 1;
        if to == from {
            // A node never gossips with itself; treat as unreachable.
            self.stats.rpcs_unreachable += 1;
            return RpcOutcome::Timeout;
        }
        // A partition severs the round trip outright: the request never
        // reaches the target (symmetric, so the response could not return
        // either). Checked before any loss roll — see `deliver_pending`.
        if self.net.severs(from, to) {
            self.stats.rpcs_severed += 1;
            return RpcOutcome::Timeout;
        }
        if self.net.drop_request > 0.0 && self.rng.gen::<f64>() < self.net.drop_request {
            self.stats.rpcs_request_dropped += 1;
            return RpcOutcome::Timeout;
        }
        let Some(mut node) = self.arena.take(to) else {
            // Dead or never allocated: unreachable.
            self.stats.rpcs_unreachable += 1;
            return RpcOutcome::Timeout;
        };
        let mut ctx = NodeCtx {
            pending: &mut self.pending,
            clock: &self.clock,
            self_addr: to,
        };
        let reply = node.on_rpc(from, msg, &mut ctx);
        self.arena.put_back(to, node);
        match reply {
            None => {
                self.stats.rpcs_refused += 1;
                RpcOutcome::Timeout
            }
            Some(resp) => {
                if self.net.drop_response > 0.0 && self.rng.gen::<f64>() < self.net.drop_response {
                    self.stats.rpcs_response_dropped += 1;
                    RpcOutcome::Timeout
                } else {
                    self.stats.rpcs_completed += 1;
                    RpcOutcome::Reply(resp)
                }
            }
        }
    }
}

/// Context handed to a node during its cycle turn. Supports synchronous
/// RPCs and one-way sends.
pub struct CycleCtx<'e, N: SimNode> {
    self_addr: Addr,
    engine: &'e mut Engine<N>,
}

impl<N: SimNode> CycleCtx<'_, N> {
    /// The address of the node taking its turn.
    pub fn self_addr(&self) -> Addr {
        self.self_addr
    }

    /// The current cycle number.
    pub fn cycle(&self) -> u64 {
        self.engine.clock.cycle()
    }

    /// The tick at which the current cycle starts.
    pub fn now(&self) -> u64 {
        self.engine.clock.now()
    }

    /// Tick resolution of one cycle (the gossip period, in ticks).
    pub fn ticks_per_cycle(&self) -> u64 {
        self.engine.clock.ticks_per_cycle()
    }

    /// Performs a synchronous RPC to `to`.
    ///
    /// All failure modes (dead target, lost request, lost response,
    /// uncooperative peer) surface uniformly as [`RpcOutcome::Timeout`];
    /// see the type docs for why.
    pub fn rpc(&mut self, to: Addr, msg: N::Msg) -> RpcOutcome<N::Msg> {
        self.engine.rpc(self.self_addr, to, msg)
    }

    /// Queues a one-way message for delivery at the start of the next cycle.
    pub fn send(&mut self, to: Addr, msg: N::Msg) {
        self.engine.pending.push(Envelope {
            from: self.self_addr,
            to,
            msg,
        });
    }
}

/// Restricted context available to RPC and one-way handlers: they can learn
/// the time and emit one-way messages, but cannot issue nested RPCs (a
/// server handler never blocks on another node in the paper's protocol).
pub struct NodeCtx<'e, M> {
    pending: &'e mut Vec<Envelope<M>>,
    clock: &'e Clock,
    self_addr: Addr,
}

impl<M> NodeCtx<'_, M> {
    /// The address of the handling node.
    pub fn self_addr(&self) -> Addr {
        self.self_addr
    }

    /// The current cycle number.
    pub fn cycle(&self) -> u64 {
        self.clock.cycle()
    }

    /// The tick at which the current cycle starts.
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Tick resolution of one cycle.
    pub fn ticks_per_cycle(&self) -> u64 {
        self.clock.ticks_per_cycle()
    }

    /// Queues a one-way message for delivery at the start of the next cycle.
    pub fn send(&mut self, to: Addr, msg: M) {
        self.pending.push(Envelope {
            from: self.self_addr,
            to,
            msg,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy protocol: every cycle, ping the next node; it replies with a
    /// counter and floods a one-way "seen" notice to node 0.
    struct Toy {
        addr: Addr,
        n: u32,
        pings_answered: u32,
        oneways_got: u32,
        replies_got: u32,
    }

    enum ToyMsg {
        Ping,
        Pong(u32),
        Notice,
    }

    impl SimNode for Toy {
        type Msg = ToyMsg;

        fn on_cycle(&mut self, ctx: &mut CycleCtx<'_, Self>) {
            let target = (self.addr + 1) % self.n;
            if let RpcOutcome::Reply(ToyMsg::Pong(answered)) = ctx.rpc(target, ToyMsg::Ping) {
                assert!(answered >= 1, "responder counts its own answer first");
                self.replies_got += 1;
            }
        }

        fn on_rpc(
            &mut self,
            _from: Addr,
            msg: Self::Msg,
            ctx: &mut NodeCtx<'_, Self::Msg>,
        ) -> Option<Self::Msg> {
            match msg {
                ToyMsg::Ping => {
                    self.pings_answered += 1;
                    ctx.send(0, ToyMsg::Notice);
                    Some(ToyMsg::Pong(self.pings_answered))
                }
                _ => None,
            }
        }

        fn on_oneway(&mut self, _from: Addr, msg: Self::Msg, _ctx: &mut NodeCtx<'_, Self::Msg>) {
            if let ToyMsg::Notice = msg {
                self.oneways_got += 1;
            }
        }
    }

    fn build(n: u32, seed: u64) -> Engine<Toy> {
        build_with(n, SimConfig::seeded(seed))
    }

    fn build_with(n: u32, cfg: SimConfig) -> Engine<Toy> {
        let mut eng = Engine::new(cfg);
        for _ in 0..n {
            eng.spawn_with(|addr| Toy {
                addr,
                n,
                pings_answered: 0,
                oneways_got: 0,
                replies_got: 0,
            });
        }
        eng
    }

    fn toy_state(eng: &Engine<Toy>) -> Vec<(Addr, u32, u32, u32)> {
        eng.nodes()
            .map(|(a, n)| (a, n.pings_answered, n.replies_got, n.oneways_got))
            .collect()
    }

    #[test]
    fn rpcs_complete_within_turn() {
        let mut eng = build(4, 1);
        eng.run_cycle();
        let total: u32 = eng.nodes().map(|(_, n)| n.replies_got).sum();
        assert_eq!(total, 4);
        assert_eq!(eng.stats().rpcs_completed, 4);
    }

    #[test]
    fn oneways_arrive_next_cycle() {
        let mut eng = build(4, 1);
        eng.run_cycle();
        assert_eq!(eng.node(0).unwrap().oneways_got, 0, "not yet delivered");
        eng.run_cycle();
        assert_eq!(eng.node(0).unwrap().oneways_got, 4, "delivered at start");
    }

    #[test]
    fn killed_nodes_time_out() {
        let mut eng = build(3, 2);
        eng.kill(1);
        assert!(!eng.is_alive(1));
        assert_eq!(eng.alive_count(), 2);
        eng.run_cycle();
        // Node 0 pings node 1 (dead): timeout. Node 2 pings node 0: ok.
        assert_eq!(eng.node(0).unwrap().replies_got, 0);
        assert_eq!(eng.node(2).unwrap().replies_got, 1);
    }

    #[test]
    fn self_rpc_times_out() {
        let mut eng = build(1, 3);
        eng.run_cycle();
        assert_eq!(eng.node(0).unwrap().replies_got, 0);
        assert_eq!(eng.stats().rpcs_unreachable, 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut eng = build(16, seed);
            eng.run_cycles(10);
            eng.nodes()
                .map(|(_, n)| (n.pings_answered, n.replies_got, n.oneways_got))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn lossy_network_drops_messages() {
        let mut eng = build_with(
            4,
            SimConfig {
                seed: 7,
                net: NetworkModel::lossy(1.0),
                ..Default::default()
            },
        );
        eng.run_cycles(3);
        assert_eq!(eng.stats().rpcs_completed, 0);
        let total: u32 = eng.nodes().map(|(_, n)| n.replies_got).sum();
        assert_eq!(total, 0);
    }

    #[test]
    fn zero_loss_is_exact() {
        // p = 0.0 must never drop anything, not merely "rarely".
        let mut eng = build_with(
            8,
            SimConfig {
                seed: 11,
                net: NetworkModel::lossy(0.0),
                ..Default::default()
            },
        );
        eng.run_cycles(10);
        assert_eq!(eng.stats().rpcs_request_dropped, 0);
        assert_eq!(eng.stats().rpcs_response_dropped, 0);
        assert_eq!(eng.stats().oneways_dropped, 0);
        assert_eq!(eng.stats().rpcs_completed, 8 * 10);
    }

    #[test]
    fn total_loss_is_exact() {
        // p = 1.0 must drop every request (rng.gen::<f64>() ∈ [0, 1)).
        let mut eng = build_with(
            8,
            SimConfig {
                seed: 11,
                net: NetworkModel::lossy(1.0),
                ..Default::default()
            },
        );
        eng.run_cycles(10);
        assert_eq!(eng.stats().rpcs_completed, 0);
        assert_eq!(eng.stats().rpcs_request_dropped, 8 * 10);
        assert_eq!(eng.stats().oneways_delivered, 0);
    }

    #[test]
    fn drop_decisions_deterministic_across_runs() {
        // Two identical runs under partial loss make bit-identical drop
        // decisions: same per-message outcomes, same counters.
        let run = |seed: u64| {
            let mut eng = build_with(
                12,
                SimConfig {
                    seed,
                    net: NetworkModel::lossy(0.37),
                    ..Default::default()
                },
            );
            eng.run_cycles(25);
            (*eng.stats(), toy_state(&eng))
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99).0, run(100).0, "different seeds roll differently");
    }

    #[test]
    fn partition_severs_both_directions_then_heals() {
        use crate::net::Partition;
        // Ring of 4; isolate {1, 2}. Node 0 pings 1 (cross), 1 pings 2
        // (intra), 2 pings 3 (cross), 3 pings 0 (intra).
        let mut eng = build(4, 5);
        eng.set_net(NetworkModel::reliable().with_partition(Partition::isolate([1, 2])));
        eng.run_cycle();
        assert_eq!(eng.stats().rpcs_severed, 2, "both cross-side RPCs cut");
        assert_eq!(eng.stats().rpcs_completed, 2, "intra-side RPCs unharmed");
        // One-way notices to node 0 from the island side are severed too.
        eng.run_cycle();
        assert_eq!(eng.stats().oneways_severed, 1, "notice from island cut");
        // Heal: traffic resumes without reseeding or respawning anything.
        let healed = eng.net().clone().healed();
        eng.set_net(healed);
        let before = eng.stats().rpcs_completed;
        eng.run_cycle();
        assert_eq!(eng.stats().rpcs_completed, before + 4);
    }

    #[test]
    fn partition_consumes_no_randomness() {
        // Severed messages skip their loss roll entirely; the observable
        // contract is reproducibility — two runs with the same seed and
        // the same partition schedule agree exactly, even with loss
        // rolls and severs interleaving.
        use crate::net::Partition;
        let run = || {
            let mut eng = build_with(
                6,
                SimConfig {
                    seed: 3,
                    net: NetworkModel::lossy(0.5).with_partition(Partition::isolate([0, 1])),
                    ..Default::default()
                },
            );
            eng.run_cycles(20);
            *eng.stats()
        };
        let s = run();
        assert_eq!(s, run());
        assert!(s.rpcs_severed > 0);
        assert!(s.rpcs_request_dropped > 0);
    }

    #[test]
    fn spawn_assigns_sequential_addresses() {
        let mut eng = build(2, 0);
        let a = eng.spawn_with(|addr| Toy {
            addr,
            n: 3,
            pings_answered: 0,
            oneways_got: 0,
            replies_got: 0,
        });
        assert_eq!(a, 2);
        assert_eq!(eng.capacity(), 3);
    }

    #[test]
    fn node_accessors_respect_liveness() {
        let mut eng = build(2, 0);
        assert!(eng.node(0).is_some());
        assert!(eng.node_mut(1).is_some());
        eng.kill(0);
        assert!(eng.node(0).is_none());
        assert!(eng.node(99).is_none());
    }

    /// A probe node with a fixed script: RPC one target and one-way
    /// another, every cycle. Used to exercise dangling-address paths
    /// explicitly.
    struct Probe {
        rpc_to: Addr,
        oneway_to: Addr,
        rpc_timeouts: u32,
        rpc_replies: u32,
        oneways_got: u32,
    }

    impl SimNode for Probe {
        type Msg = u8;

        fn on_cycle(&mut self, ctx: &mut CycleCtx<'_, Self>) {
            match ctx.rpc(self.rpc_to, 1) {
                RpcOutcome::Reply(_) => self.rpc_replies += 1,
                RpcOutcome::Timeout => self.rpc_timeouts += 1,
            }
            ctx.send(self.oneway_to, 2);
        }

        fn on_rpc(&mut self, _f: Addr, _m: u8, _c: &mut NodeCtx<'_, u8>) -> Option<u8> {
            Some(0)
        }

        fn on_oneway(&mut self, _f: Addr, _m: u8, _c: &mut NodeCtx<'_, u8>) {
            self.oneways_got += 1;
        }
    }

    #[test]
    fn departed_address_rpcs_and_oneways_drop_cleanly() {
        // The dangling-`Addr` path under arena storage: RPCs and one-ways
        // to departed (and never-allocated) addresses are dropped and
        // counted — no panic, no index confusion with later spawns.
        let mut eng: Engine<Probe> = Engine::new(SimConfig::seeded(9));
        let victim = eng.spawn_with(|_| Probe {
            rpc_to: 0,
            oneway_to: 0,
            rpc_timeouts: 0,
            rpc_replies: 0,
            oneways_got: 0,
        });
        // Node 1 targets the victim; node 2 targets an address that has
        // never been allocated.
        let prober = eng.spawn_with(|_| Probe {
            rpc_to: victim,
            oneway_to: victim,
            rpc_timeouts: 0,
            rpc_replies: 0,
            oneways_got: 0,
        });
        eng.spawn_with(|_| Probe {
            rpc_to: 999,
            oneway_to: 999,
            rpc_timeouts: 0,
            rpc_replies: 0,
            oneways_got: 0,
        });
        eng.kill(victim);

        // A later spawn must get a fresh address, not the victim's.
        let late = eng.spawn_with(|_| Probe {
            rpc_to: prober,
            oneway_to: prober,
            rpc_timeouts: 0,
            rpc_replies: 0,
            oneways_got: 0,
        });
        assert_eq!(late, 3, "departed addresses are never reallocated");

        eng.run_cycles(3);
        // Both the departed and the unallocated target time out every
        // RPC and swallow every one-way (sends from the first two cycles
        // have been delivered; the third cycle's are still queued).
        assert_eq!(eng.node(prober).unwrap().rpc_replies, 0);
        assert_eq!(eng.node(prober).unwrap().rpc_timeouts, 3);
        assert_eq!(eng.node(2).unwrap().rpc_timeouts, 3);
        assert_eq!(eng.stats().oneways_to_dead, 4, "two senders × two cycles");
        // The fresh node's traffic to a live target flows normally.
        assert_eq!(eng.node(late).unwrap().rpc_replies, 3);
        assert_eq!(eng.node(prober).unwrap().oneways_got, 2);
        // And the victim's address stays dead.
        assert!(!eng.is_alive(victim));
        assert!(eng.node(victim).is_none());
    }

    #[test]
    fn oneway_delivery_is_address_ordered_and_stable() {
        // Messages queued in arbitrary order are drained sorted by
        // destination, preserving arrival order per destination. Observable
        // via delivery counters under a partition that severs one sender.
        let mut eng = build(6, 13);
        eng.run_cycle(); // queue 6 notices to node 0
        eng.run_cycle(); // deliver them
        assert_eq!(eng.node(0).unwrap().oneways_got, 6);
    }
}
