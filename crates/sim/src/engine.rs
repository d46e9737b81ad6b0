//! The cycle-driven simulation engine.
//!
//! This module replaces the role PeerNet/PeerSim plays in the paper's
//! evaluation (§VI). The engine owns an arena of sans-IO [`Machine`]s (see
//! [`crate::arena`]) and drives them in randomized order, once per cycle,
//! exactly like PeerSim's cycle-based mode. It is the only thing that
//! routes a simulated node's [`Effects`](sc_core::Effects):
//!
//! * A turn is one [`Input::Tick`], then one **round trip** per `rpc`
//!   effect — the target is stepped with [`Input::Request`] and the
//!   initiator with the resulting [`Input::Reply`] or [`Input::Timeout`] —
//!   until a step returns no `rpc`. The request/response round trips of a
//!   Cyclon gossip exchange, including the `s` tit-for-tat rounds of
//!   SecureCyclon (§V-B), thus complete within the initiator's turn.
//! * `sends` and `flood` effects are **one-way messages** (join pings and
//!   grants, proof floods, §IV-C); they are queued per cycle and delivered
//!   ([`Input::Oneway`]) at the start of the *next* cycle, giving flooding
//!   a realistic one-hop-per-cycle propagation speed. A step's flood is
//!   queued as one record, however many addresses it names, and each of
//!   its sends as a flood of one message to one address. The queue is
//!   delivered in ascending destination-address order; within a
//!   destination, in queue order, and a flood's messages in their order —
//!   exactly as if every flood had been queued as one send per address
//!   and message, and the queue stably sorted by destination. A counting
//!   pass over the records finds each destination's share. A driver hands
//!   a node a one-way at once with [`Engine::deliver`].
//! * `rpc` effects are honoured from `Tick` / `Reply` / `Timeout` steps
//!   only: a server handler never blocks on another node in the paper's
//!   protocol, so a machine that returns one from a `Request` or `Oneway`
//!   step has broken the [`Machine`] contract — a `debug_assert` fires,
//!   and a release build drops the effect.
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
//! it (or at the caller itself) times out as unreachable; one crossing
//! a partition is severed, and any other may be lost ([`crate::net`]).
//! The shuffle is the only consumer of the engine RNG, so a run is
//! bit-for-bit reproducible per seed, and loss never moves its turns.

use crate::arena::Arena;
use crate::net::{Network, Partition};
use crate::stats::TrafficStats;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sc_core::{Addr, Flood, Input, Loss, Machine, MsgKind};

/// Engine construction parameters.
#[derive(Clone, Debug, Default)]
pub struct SimConfig {
    /// Master seed for shuffle order and network loss rolls.
    pub seed: u64,
    /// Per-kind message loss.
    pub loss: Loss,
    /// The cycle the engine starts counting at: a bootstrap that hands
    /// out descriptors created in cycles `0..start_cycle` starts the run
    /// there, so live creations never collide with bootstrap ones.
    pub start_cycle: u64,
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
pub struct Engine<N: Machine> {
    arena: Arena<N>,
    cycle: u64,
    net: Network,
    rng: StdRng,
    /// One-way messages to deliver at the start of the next cycle, by
    /// sender: each step's flood, and each of its sends as a flood of one
    /// message to one address.
    pending: Vec<(Addr, Flood<N::Msg>)>,
    stats: TrafficStats,
}

impl<N: Machine> Engine<N>
where
    N::Msg: Clone,
{
    /// Creates an empty engine.
    pub fn new(cfg: SimConfig) -> Self {
        Engine {
            arena: Arena::new(),
            cycle: cfg.start_cycle,
            net: Network::new(cfg.seed, cfg.loss),
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

    /// The current cycle number.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Replaces the loss rates (any partition stays). Links keep counting
    /// from where they were.
    pub fn set_loss(&mut self, loss: Loss) {
        self.net.loss = loss;
    }

    /// Installs a partition, or heals one with `None` (the loss stays);
    /// returns the one it replaces.
    pub fn set_partition(&mut self, partition: Option<Partition>) -> Option<Partition> {
        std::mem::replace(&mut self.net.partition, partition)
    }

    /// Hands `msg` from `from` to the node at `to` now: the node is
    /// stepped with an [`Input::Oneway`] under the current cycle, and what
    /// it sends in answer is queued for the next cycle. Every queued
    /// one-way that survives loss and partitions ends here; called
    /// directly, nothing is rolled or counted and the engine RNG is not
    /// touched. Returns `false` when `to` is not alive.
    pub fn deliver(&mut self, from: Addr, to: Addr, msg: N::Msg) -> bool {
        let Some(mut node) = self.arena.take(to) else {
            return false;
        };
        let input = Input::Oneway {
            from,
            msg,
            cycle: self.cycle,
        };
        self.serve(to, &mut node, input);
        self.arena.put_back(to, node);
        true
    }

    /// Runs one full cycle: delivers queued one-way messages in address
    /// order, then gives every alive node its turn in shuffled order.
    pub fn run_cycle(&mut self) {
        self.run_cycle_interrupted(usize::MAX, |_| {});
    }

    /// Runs one cycle with an interruption: the first `after_turns`
    /// turns of the shuffled order run, then `mid` gets mutable access
    /// to the engine (kill or restart nodes, inject messages), then the
    /// remaining turns run and the cycle count advances. This models faults
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

        self.cycle += 1;
    }

    /// Runs `n` cycles back to back.
    pub fn run_cycles(&mut self, n: u64) {
        for _ in 0..n {
            self.run_cycle();
        }
    }

    /// The turn loop: take each node out, run its turn, put it back. A
    /// turn is a tick, then one round trip per `rpc` effect until the
    /// exchange resolves.
    fn run_turns(&mut self, order: &[Addr]) {
        for &addr in order {
            // The node may have been killed mid-cycle; `take` then fails.
            let Some(mut node) = self.arena.take(addr) else {
                continue;
            };
            let mut fx = node.step(Input::Tick { cycle: self.cycle });
            loop {
                self.queue(addr, fx.sends, fx.flood);
                let Some((to, msg)) = fx.rpc else { break };
                fx = node.step(match self.rpc(addr, to, msg) {
                    Some(reply) => Input::Reply(reply),
                    None => Input::Timeout,
                });
            }
            self.arena.put_back(addr, node);
        }
    }

    /// Queues `from`'s one-way messages for delivery at the start of the
    /// next cycle: its sends, then its flood.
    fn queue(&mut self, from: Addr, sends: Vec<(Addr, N::Msg)>, flood: Option<Flood<N::Msg>>) {
        let sends = sends.into_iter().map(|(to, msg)| Flood {
            to: vec![to],
            msgs: vec![msg],
        });
        self.pending
            .extend(sends.chain(flood).map(|flood| (from, flood)));
    }

    /// Steps a checked-out node as the server side of a `Request` or
    /// `Oneway` input: queues what it sends and returns its reply.
    fn serve(&mut self, addr: Addr, node: &mut N, input: Input<N::Msg>) -> Option<N::Msg> {
        let fx = node.step(input);
        debug_assert!(
            fx.rpc.is_none(),
            "node {addr} returned an rpc effect from a Request/Oneway step"
        );
        self.queue(addr, fx.sends, fx.flood);
        fx.reply
    }

    /// Delivers all one-way messages queued during the previous cycle,
    /// in ascending destination-address order (see the module docs).
    /// Messages sent *while delivering* (cascading re-floods) are queued
    /// for the next cycle, giving one-hop-per-cycle flood propagation.
    fn deliver_pending(&mut self) {
        let batch = std::mem::take(&mut self.pending);
        if batch.is_empty() {
            return;
        }
        // The counting pass. A message to an address that is not alive is
        // only counted: nothing is rolled for it or delivered, so it may
        // be counted first. Destination `d`'s share of `order` is
        // `starts[d]..starts[d + 1]`: the index of each record that names
        // `d`, once a naming, in queue order.
        let mut starts = vec![0usize; self.arena.capacity() + 1];
        for (from, flood) in &batch {
            for &to in &flood.to {
                if self.arena.is_alive(to) {
                    starts[to as usize + 1] += 1;
                } else {
                    for msg in &flood.msgs {
                        self.pass(*from, to, msg);
                    }
                }
            }
        }
        for d in 1..starts.len() {
            starts[d] += starts[d - 1];
        }
        let mut next = starts.clone();
        let mut order = vec![0u32; starts[starts.len() - 1]];
        for (i, (_, flood)) in batch.iter().enumerate() {
            for &to in &flood.to {
                if self.arena.is_alive(to) {
                    order[next[to as usize]] = i as u32;
                    next[to as usize] += 1;
                }
            }
        }
        for (to, share) in starts.windows(2).enumerate() {
            // A record that names `to` k times sends it each message k
            // times before the next message.
            for naming in order[share[0]..share[1]].chunk_by(|a, b| a == b) {
                let (from, flood) = &batch[naming[0] as usize];
                for msg in &flood.msgs {
                    for _ in naming {
                        self.pass(*from, to as Addr, msg);
                    }
                }
            }
        }
    }

    /// Counts one queued one-way and delivers it, unless a partition, a
    /// dead destination or loss stops it.
    fn pass(&mut self, from: Addr, to: Addr, msg: &N::Msg) {
        self.stats.oneways_sent += 1;
        if self.net.severs(from, to) {
            self.stats.oneways_severed += 1;
        } else if !self.arena.is_alive(to) {
            self.stats.oneways_to_dead += 1;
        } else if self.net.drops(MsgKind::Oneway, from, to) {
            self.stats.oneways_dropped += 1;
        } else {
            self.deliver(from, to, msg.clone());
            self.stats.oneways_delivered += 1;
        }
    }

    /// One round trip from `from` to `to`, as the initiator observes it.
    /// A real node cannot distinguish *why* no response arrived (dead
    /// target, lost request, lost response, or an uncooperative peer), so
    /// all of those collapse into `None` — the initiator's
    /// [`Input::Timeout`].
    fn rpc(&mut self, from: Addr, to: Addr, msg: N::Msg) -> Option<N::Msg> {
        self.stats.rpcs_sent += 1;
        if to == from {
            // A node never gossips with itself; treat as unreachable.
            self.stats.rpcs_unreachable += 1;
            return None;
        }
        // A partition severs the round trip outright: the request never
        // reaches the target (symmetric, so the response could not return
        // either).
        if self.net.severs(from, to) {
            self.stats.rpcs_severed += 1;
            return None;
        }
        let Some(mut node) = self.arena.take(to) else {
            // Dead or never allocated: unreachable.
            self.stats.rpcs_unreachable += 1;
            return None;
        };
        if self.net.drops(MsgKind::Request, from, to) {
            self.arena.put_back(to, node);
            self.stats.rpcs_request_dropped += 1;
            return None;
        }
        let input = Input::Request {
            from,
            msg,
            cycle: self.cycle,
        };
        let reply = self.serve(to, &mut node, input);
        self.arena.put_back(to, node);
        if reply.is_none() {
            self.stats.rpcs_refused += 1;
        } else if self.net.drops(MsgKind::Response, to, from) {
            self.stats.rpcs_response_dropped += 1;
            return None;
        } else {
            self.stats.rpcs_completed += 1;
        }
        reply
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_core::Effects;

    /// A toy protocol: every cycle, ping the next node; it replies with a
    /// counter and floods a one-way "seen" notice to node 0. A ping that
    /// arrives as a one-way is answered with a notice to node 0 too.
    struct Toy {
        addr: Addr,
        n: u32,
        pings_answered: u32,
        oneways_got: u32,
        replies_got: u32,
    }

    #[derive(Clone)]
    enum ToyMsg {
        Ping,
        Pong(u32),
        Notice,
    }

    impl Machine for Toy {
        type Msg = ToyMsg;

        fn step(&mut self, input: Input<ToyMsg>) -> Effects<ToyMsg> {
            let mut fx = Effects::default();
            match input {
                Input::Tick { .. } => fx.rpc = Some(((self.addr + 1) % self.n, ToyMsg::Ping)),
                Input::Reply(ToyMsg::Pong(answered)) => {
                    assert!(answered >= 1, "responder counts its own answer first");
                    self.replies_got += 1;
                }
                Input::Request {
                    msg: ToyMsg::Ping, ..
                } => {
                    self.pings_answered += 1;
                    fx.sends.push((0, ToyMsg::Notice));
                    fx.reply = Some(ToyMsg::Pong(self.pings_answered));
                }
                Input::Oneway {
                    msg: ToyMsg::Notice,
                    ..
                } => self.oneways_got += 1,
                Input::Oneway {
                    msg: ToyMsg::Ping, ..
                } => fx.sends.push((0, ToyMsg::Notice)),
                _ => {}
            }
            fx
        }
    }

    fn build(n: u32, seed: u64) -> Engine<Toy> {
        build_with(n, SimConfig::seeded(seed))
    }

    fn toy(addr: Addr, n: u32) -> Toy {
        Toy {
            addr,
            n,
            pings_answered: 0,
            oneways_got: 0,
            replies_got: 0,
        }
    }

    fn build_with(n: u32, cfg: SimConfig) -> Engine<Toy> {
        let mut eng = Engine::new(cfg);
        for _ in 0..n {
            eng.spawn_with(|addr| toy(addr, n));
        }
        eng
    }

    fn lossy(seed: u64, loss: Loss) -> SimConfig {
        SimConfig {
            seed,
            loss,
            ..Default::default()
        }
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
        let mut eng = build_with(4, lossy(7, Loss::uniform(1.0)));
        eng.run_cycles(3);
        assert_eq!(eng.stats().rpcs_completed, 0);
        let total: u32 = eng.nodes().map(|(_, n)| n.replies_got).sum();
        assert_eq!(total, 0);
    }

    #[test]
    fn zero_loss_is_exact() {
        // p = 0.0 must never drop anything, not merely "rarely".
        let mut eng = build_with(8, lossy(11, Loss::uniform(0.0)));
        eng.run_cycles(10);
        assert!(
            eng.net.link_frames.is_empty(),
            "a loss-free run counts no frame"
        );
        assert_eq!(eng.stats().rpcs_request_dropped, 0);
        assert_eq!(eng.stats().rpcs_response_dropped, 0);
        assert_eq!(eng.stats().oneways_dropped, 0);
        assert_eq!(eng.stats().rpcs_completed, 8 * 10);
    }

    #[test]
    fn total_loss_is_exact() {
        // p = 1.0 must drop every request (a roll is in [0, 1)).
        let mut eng = build_with(8, lossy(11, Loss::uniform(1.0)));
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
            let mut eng = build_with(12, lossy(seed, Loss::uniform(0.37)));
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
        eng.set_partition(Some(Partition::isolate([1, 2])));
        eng.run_cycle();
        assert_eq!(eng.stats().rpcs_severed, 2, "both cross-side RPCs cut");
        assert_eq!(eng.stats().rpcs_completed, 2, "intra-side RPCs unharmed");
        // One-way notices to node 0 from the island side are severed too.
        eng.run_cycle();
        assert_eq!(eng.stats().oneways_severed, 1, "notice from island cut");
        // Heal: traffic resumes without reseeding or respawning anything.
        eng.set_partition(None);
        let before = eng.stats().rpcs_completed;
        eng.run_cycle();
        assert_eq!(eng.stats().rpcs_completed, before + 4);
    }

    /// A [`Toy`] that logs, into a log its peers share, the order turns
    /// are taken in.
    struct Logged(Toy, std::rc::Rc<std::cell::RefCell<Vec<Addr>>>);

    impl Machine for Logged {
        type Msg = ToyMsg;

        fn step(&mut self, input: Input<ToyMsg>) -> Effects<ToyMsg> {
            if let Input::Tick { .. } = input {
                self.1.borrow_mut().push(self.0.addr);
            }
            self.0.step(input)
        }
    }

    #[test]
    fn loss_and_partitions_consume_no_randomness() {
        // Drops are keyed by link and frame index, severing is a lookup:
        // neither draws from the RNG the turn order is shuffled with, so a
        // lossy, partitioned run takes its turns in the reliable order.
        use crate::net::Partition;
        let run = |loss: Loss, partition: Option<Partition>| {
            let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            let mut eng = Engine::new(lossy(3, loss));
            for _ in 0..6 {
                let log = std::rc::Rc::clone(&log);
                eng.spawn_with(|addr| Logged(toy(addr, 6), log));
            }
            eng.set_partition(partition);
            eng.run_cycles(20);
            (*eng.stats(), log.take())
        };
        let (reliable, order) = run(Loss::default(), None);
        assert_eq!(reliable.rpcs_completed, 6 * 20);
        let faulted = || run(Loss::new(0.5, 0.3, 0.4), Some(Partition::isolate([0, 1])));
        let (s, lossy_order) = faulted();
        assert_eq!(
            lossy_order, order,
            "loss or a partition moved the turn order"
        );
        assert!(s.rpcs_severed > 0 && s.oneways_severed > 0);
        assert!(s.rpcs_request_dropped > 0 && s.rpcs_response_dropped > 0);
        assert!(s.oneways_dropped > 0);
        assert_eq!(faulted(), (s, lossy_order), "a lossy run replays");
    }

    #[test]
    fn deliver_steps_the_target_now_and_queues_its_answer() {
        let logged = |deliveries: bool| {
            let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            let mut eng = Engine::new(SimConfig::seeded(4));
            for _ in 0..4 {
                let log = std::rc::Rc::clone(&log);
                eng.spawn_with(|addr| Logged(toy(addr, 4), log));
            }
            if deliveries {
                assert!(eng.deliver(3, 1, ToyMsg::Notice));
                assert_eq!(eng.node(1).unwrap().0.oneways_got, 1, "stepped now");
                assert!(eng.deliver(3, 2, ToyMsg::Ping));
                assert_eq!(eng.node(0).unwrap().0.oneways_got, 0, "the answer waits");
            }
            eng.run_cycle();
            let notices = eng.node(0).unwrap().0.oneways_got;
            eng.run_cycles(4);
            (eng, notices, log.take())
        };
        let (mut eng, notices, order) = logged(true);
        assert_eq!(notices, 1, "the answer lands at the next cycle's start");
        assert_eq!(
            eng.stats().oneways_sent,
            1 + 4 * 4,
            "only the answer is traffic"
        );
        let (_, _, plain) = logged(false);
        assert_eq!(order, plain, "a delivery drew from the engine RNG");
        eng.kill(1);
        assert!(!eng.deliver(0, 1, ToyMsg::Notice), "dead target");
        assert!(!eng.deliver(0, 99, ToyMsg::Notice), "never allocated");
    }

    #[test]
    fn severed_and_unreachable_frames_take_no_index() {
        // Ring of 5: 0 → 1 is dead, 3 → 4 and 4 → 0 cross the partition.
        // Only 2 → 3 (pings), 3 → 2 (pongs) and 3 → 0 (the notice node 3
        // sends node 0 for each ping it answers) carry frames.
        use crate::net::Partition;
        let mut eng = build_with(5, lossy(8, Loss::uniform(0.01)));
        eng.kill(1);
        eng.set_partition(Some(Partition::isolate([4])));
        eng.run_cycles(10);
        let mut links: Vec<(Addr, Addr)> = eng.net.link_frames.keys().copied().collect();
        links.sort_unstable();
        assert_eq!(links, [(2, 3), (3, 0), (3, 2)]);
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

    impl Machine for Probe {
        type Msg = u8;

        fn step(&mut self, input: Input<u8>) -> Effects<u8> {
            let mut fx = Effects::default();
            match input {
                Input::Tick { .. } => fx.rpc = Some((self.rpc_to, 1)),
                // The one-way goes out once the round trip has resolved.
                Input::Reply(_) => {
                    self.rpc_replies += 1;
                    fx.sends.push((self.oneway_to, 2));
                }
                Input::Timeout => {
                    self.rpc_timeouts += 1;
                    fx.sends.push((self.oneway_to, 2));
                }
                Input::Request { .. } => fx.reply = Some(0),
                Input::Oneway { .. } => self.oneways_got += 1,
            }
            fx
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

    /// Breaks the [`Machine`] contract: whatever it is served, it answers
    /// with an `rpc` effect of its own — the nested RPC the old handler
    /// context could not express.
    struct Nester {
        via_oneway: bool,
    }

    impl Machine for Nester {
        type Msg = ();

        fn step(&mut self, input: Input<()>) -> Effects<()> {
            let mut fx = Effects::default();
            match input {
                Input::Tick { .. } if self.via_oneway => fx.sends.push((1, ())),
                Input::Tick { .. } => fx.rpc = Some((1, ())),
                Input::Request { .. } | Input::Oneway { .. } => fx.rpc = Some((0, ())),
                Input::Reply(()) | Input::Timeout => {}
            }
            fx
        }
    }

    fn nesters(via_oneway: bool) -> Engine<Nester> {
        let mut eng = Engine::new(SimConfig::seeded(1));
        eng.spawn_with(|_| Nester { via_oneway });
        eng.spawn_with(|_| Nester { via_oneway });
        eng
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "rpc effect from a Request/Oneway step")]
    fn rpc_effect_from_a_request_step_trips_the_contract_assert() {
        nesters(false).run_cycle();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "rpc effect from a Request/Oneway step")]
    fn rpc_effect_from_a_oneway_step_trips_the_contract_assert() {
        nesters(true).run_cycles(2);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn release_builds_drop_a_nested_rpc_effect() {
        let mut eng = nesters(false);
        eng.run_cycles(3);
        // Three ticks each: node 0's reach node 1 and are refused (no
        // reply); node 1's are self-addressed. Nothing nested was sent.
        assert_eq!(eng.stats().rpcs_sent, 6);
        assert_eq!(eng.stats().rpcs_refused, 3);
    }

    /// A toy whose script, shared by the whole network, names what each
    /// node floods when its turn's round trip resolves and when it serves
    /// a request; a note is relayed once, by the same script. Targets may
    /// repeat, name the sender, or name an address nobody holds.
    #[derive(Clone, Debug, PartialEq)]
    enum Spread {
        Ping,
        Pong,
        Note {
            origin: Addr,
            cycle: u64,
            seq: u32,
            hop: u8,
        },
    }

    /// Per slot: plain sends' targets, then a flood's targets and how
    /// many notes it carries.
    type Plan = Vec<(Vec<Addr>, Vec<Addr>, u32)>;

    /// `(cycle, from, to, msg)`: every one-way as its sender stepped it
    /// out, floods spelled out by [`Flood::sends`], and as it was stepped
    /// in, across the whole network.
    #[derive(Default)]
    struct Log {
        sent: Vec<(u64, Addr, Addr, Spread)>,
        got: Vec<(u64, Addr, Addr, Spread)>,
    }

    struct Spreader {
        addr: Addr,
        n: u32,
        plan: std::rc::Rc<Plan>,
        log: std::rc::Rc<std::cell::RefCell<Log>>,
        /// The cycle of the latest turn.
        turn: u64,
        got: Vec<(Addr, Spread)>,
    }

    impl Spreader {
        /// Plain sends, then a flood of fresh notes (`hop` 0) — or, for a
        /// relay, of `relayed` alone.
        fn spread(&self, cycle: u64, salt: u64, relayed: Option<Spread>) -> Effects<Spread> {
            let slot = (u64::from(self.addr) * 7 + cycle * 3 + salt) as usize;
            let (sends, to, count) = &self.plan[slot % self.plan.len()];
            let note = |seq| Spread::Note {
                origin: self.addr,
                cycle,
                seq,
                hop: 0,
            };
            let mut fx = Effects::default();
            if relayed.is_none() {
                fx.sends = sends.iter().map(|&t| (t, note(u32::MAX))).collect();
            }
            let msgs: Vec<Spread> = match relayed {
                Some(msg) => vec![msg],
                None => (0..*count).map(note).collect(),
            };
            fx.flood = Some(Flood {
                to: to.clone(),
                msgs,
            });
            fx
        }

        /// What the script makes of `input`.
        fn react(&mut self, input: Input<Spread>) -> Effects<Spread> {
            match input {
                Input::Tick { cycle, .. } => {
                    self.turn = cycle;
                    Effects {
                        rpc: Some(((self.addr + 1) % self.n, Spread::Ping)),
                        ..Effects::default()
                    }
                }
                Input::Reply(_) | Input::Timeout => self.spread(self.turn, 0, None),
                Input::Request { cycle, .. } => Effects {
                    reply: Some(Spread::Pong),
                    ..self.spread(cycle, 1, None)
                },
                Input::Oneway {
                    from, msg, cycle, ..
                } => {
                    self.got.push((from, msg.clone()));
                    let got = (cycle, from, self.addr, msg.clone());
                    self.log.borrow_mut().got.push(got);
                    match msg {
                        Spread::Note {
                            hop: 0,
                            seq,
                            origin,
                            cycle: sent,
                        } if seq % 2 == 0 => {
                            let relay = Spread::Note {
                                origin,
                                cycle: sent,
                                seq,
                                hop: 1,
                            };
                            self.spread(cycle, 2, Some(relay))
                        }
                        _ => Effects::default(),
                    }
                }
            }
        }
    }

    impl Machine for Spreader {
        type Msg = Spread;

        fn step(&mut self, input: Input<Spread>) -> Effects<Spread> {
            let cycle = match input {
                Input::Tick { cycle, .. }
                | Input::Request { cycle, .. }
                | Input::Oneway { cycle, .. } => cycle,
                Input::Reply(_) | Input::Timeout => self.turn,
            };
            let fx = self.react(input);
            let mut log = self.log.borrow_mut();
            let flood = fx.flood.iter().flat_map(Flood::sends);
            for (to, msg) in fx.sends.iter().map(|(to, msg)| (*to, msg)).chain(flood) {
                log.sent.push((cycle, self.addr, to, msg.clone()));
            }
            fx
        }
    }

    /// Steps a machine and hands its flood over as one send per address
    /// and message, in the flood's order, after its sends.
    struct PerTarget<N>(N);

    impl<N: Machine> Machine for PerTarget<N>
    where
        N::Msg: Clone,
    {
        type Msg = N::Msg;

        fn step(&mut self, input: Input<N::Msg>) -> Effects<N::Msg> {
            let mut fx = self.0.step(input);
            if let Some(flood) = fx.flood.take() {
                fx.sends
                    .extend(flood.sends().map(|(to, msg)| (to, msg.clone())));
            }
            fx
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// A flood is delivered exactly as its sends would be: every
        /// destination gets the same `(from, msg)` sequence, every
        /// counter agrees, and every link rolled the same frames. What a
        /// cycle delivers is, in order, drawn from what the cycle before
        /// sent, stably sorted by destination.
        #[test]
        fn a_flood_is_delivered_as_its_sends_would_be(
            n in 2u32..8,
            plan in proptest::collection::vec(
                (
                    proptest::collection::vec(0u32..10, 0..3),
                    proptest::collection::vec(0u32..10, 0..7),
                    0u32..4,
                ),
                1..12,
            ),
            loss in (0u8..4, 0u8..4, 0u8..6),
            island in proptest::collection::vec(0u32..8, 0..3),
            dead in 0u32..10,
            seed in 0u64..1000,
        ) {
            let plan = std::rc::Rc::new(plan);
            let log = std::rc::Rc::new(std::cell::RefCell::new(Log::default()));
            let spreader = |addr| Spreader {
                addr,
                n,
                plan: std::rc::Rc::clone(&plan),
                log: std::rc::Rc::clone(&log),
                turn: 0,
                got: Vec::new(),
            };
            let (request, response, oneway) = loss;
            let cfg = lossy(
                seed,
                Loss::new(
                    f64::from(request) / 8.0,
                    f64::from(response) / 8.0,
                    f64::from(oneway) / 8.0,
                ),
            );
            let partition = Some(Partition::isolate(island.iter().copied()));
            let mut floods: Engine<Spreader> = Engine::new(cfg.clone());
            let mut sends: Engine<PerTarget<Spreader>> = Engine::new(cfg);
            for _ in 0..n {
                floods.spawn_with(spreader);
                sends.spawn_with(|addr| PerTarget(spreader(addr)));
            }
            floods.set_partition(partition.clone());
            sends.set_partition(partition);
            floods.kill(dead);
            sends.kill(dead);
            floods.run_cycles(6);
            let (sent, delivered) = {
                let log = log.borrow();
                (log.sent.clone(), log.got.clone())
            };
            sends.run_cycles(6);

            proptest::prop_assert_eq!(floods.stats(), sends.stats());
            proptest::prop_assert_eq!(&floods.net.link_frames, &sends.net.link_frames);
            let got = |(addr, node): (Addr, &Spreader)| (addr, node.got.clone());
            let per_flood: Vec<_> = floods.nodes().map(got).collect();
            let per_send: Vec<_> = sends.nodes().map(|(a, node)| got((a, &node.0))).collect();
            proptest::prop_assert_eq!(per_flood, per_send);

            for cycle in 1..6u64 {
                let mut due: Vec<_> = sent.iter().filter(|e| e.0 == cycle - 1).collect();
                due.sort_by_key(|e| e.2);
                let mut due = due.into_iter();
                for g in delivered.iter().filter(|e| e.0 == cycle) {
                    let drawn = due.any(|d| (d.1, d.2, &d.3) == (g.1, g.2, &g.3));
                    proptest::prop_assert!(drawn, "cycle {} delivered {:?} out of order", cycle, g);
                }
            }
        }
    }
}
