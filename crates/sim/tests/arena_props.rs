//! Property tests for the arena slab and the engine's delivery semantics
//! under random churn — the contracts every protocol invariant upstream
//! leans on:
//!
//! * addresses are monotone and never reused after a departure;
//! * RPCs to departed addresses are dropped (the caller times out);
//! * batched one-way delivery is exactly "next cycle, one hop": a
//!   datagram sent in cycle `c` arrives in cycle `c + 1` iff its target
//!   is alive then, and never arrives twice;
//! * where a cycle is interrupted changes nothing by itself.

use proptest::prelude::*;
use sc_sim::{Addr, Arena, Effects, Engine, Input, Loss, Machine, Partition, SimConfig};
use std::collections::HashSet;

// ---------------------------------------------------------------------
// Arena slab: address allocation under arbitrary insert/kill sequences.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Interleaved inserts and kills, mirrored against a reference set:
    /// every address handed out is brand new, kills are terminal, and
    /// the alive census matches the model exactly.
    #[test]
    fn addresses_are_never_reused(ops in proptest::collection::vec((0u8..4, 0u64..64), 1..80)) {
        let mut arena: Arena<u64> = Arena::new();
        let mut issued: Vec<Addr> = Vec::new();
        let mut alive: HashSet<Addr> = HashSet::new();
        for (op, pick) in ops {
            if op == 0 || issued.is_empty() {
                let addr = arena.insert_with(u64::from);
                prop_assert!(
                    !issued.contains(&addr),
                    "address {addr} was issued twice"
                );
                prop_assert!(
                    issued.iter().all(|&prev| prev < addr),
                    "addresses must be monotone"
                );
                issued.push(addr);
                alive.insert(addr);
            } else {
                // Kill some previously issued address — possibly one
                // that is already dead (kill must be idempotent).
                let addr = issued[(pick % issued.len() as u64) as usize];
                arena.kill(addr);
                alive.remove(&addr);
            }
            prop_assert_eq!(arena.alive_count(), alive.len());
            prop_assert_eq!(arena.capacity(), issued.len());
            for &a in &issued {
                prop_assert_eq!(arena.is_alive(a), alive.contains(&a));
                prop_assert_eq!(arena.get(a).is_some(), alive.contains(&a));
            }
        }
        // The live list agrees with the model, in address order.
        let mut expect: Vec<Addr> = alive.iter().copied().collect();
        expect.sort_unstable();
        prop_assert_eq!(arena.live_addrs().to_vec(), expect);
    }
}

// ---------------------------------------------------------------------
// Delivery semantics through the engine.
// ---------------------------------------------------------------------

/// A node that follows a per-cycle script: RPC some target, send a
/// one-way datagram to another, and log everything it receives.
struct Courier {
    addr: Addr,
    /// Nodes ever spawned (targets are drawn modulo this).
    universe: u64,
    /// Per-cycle salt stream shared by the whole network.
    salts: Vec<u64>,
    rpc_timeouts: Vec<(Addr, u64)>,
    rpc_replies: Vec<(Addr, u64)>,
    /// (from, sent_cycle, arrived_cycle) for every datagram received.
    got: Vec<(Addr, u64, u64)>,
    /// The outstanding RPC: (target, cycle of the turn it belongs to).
    rpc_out: Option<(Addr, u64)>,
}

#[derive(Clone)]
enum CourierMsg {
    Ping,
    Pong,
    /// (sender, cycle it was sent in)
    Post(Addr, u64),
}

impl Courier {
    fn rpc_target(&self, cycle: u64) -> Addr {
        let salt = self.salts[cycle as usize % self.salts.len()];
        ((u64::from(self.addr) * 31 + cycle * 17 + salt) % self.universe) as Addr
    }

    fn post_target(&self, cycle: u64) -> Addr {
        let salt = self.salts[cycle as usize % self.salts.len()];
        ((u64::from(self.addr) * 13 + cycle * 7 + salt) % self.universe) as Addr
    }
}

impl Machine for Courier {
    type Msg = CourierMsg;

    fn step(&mut self, input: Input<CourierMsg>) -> Effects<CourierMsg> {
        let mut fx = Effects::default();
        match input {
            Input::Tick { cycle, .. } => {
                self.rpc_out = Some((self.rpc_target(cycle), cycle));
                fx.rpc = Some((self.rpc_target(cycle), CourierMsg::Ping));
            }
            // The datagram goes out once the round trip has resolved.
            Input::Reply(_) | Input::Timeout => {
                let Some((rpc_to, cycle)) = self.rpc_out.take() else {
                    return fx;
                };
                match input {
                    Input::Reply(_) => self.rpc_replies.push((rpc_to, cycle)),
                    _ => self.rpc_timeouts.push((rpc_to, cycle)),
                }
                let post = CourierMsg::Post(self.addr, cycle);
                fx.sends.push((self.post_target(cycle), post));
            }
            Input::Request {
                msg: CourierMsg::Ping,
                ..
            } => fx.reply = Some(CourierMsg::Pong),
            Input::Oneway {
                from,
                msg: CourierMsg::Post(sender, sent),
                cycle,
                ..
            } => {
                assert_eq!(sender, from);
                self.got.push((from, sent, cycle));
            }
            Input::Request { .. } | Input::Oneway { .. } => {}
        }
        fx
    }
}

fn build_couriers(n: u64, seed: u64, salts: Vec<u64>) -> Engine<Courier> {
    let mut eng = Engine::new(SimConfig::seeded(seed));
    for _ in 0..n {
        let salts = salts.clone();
        eng.spawn_with(|addr| Courier {
            addr,
            universe: n,
            salts,
            rpc_timeouts: Vec::new(),
            rpc_replies: Vec::new(),
            got: Vec::new(),
            rpc_out: None,
        });
    }
    eng
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random kill schedule between cycles. RPCs addressed to departed
    /// nodes must time out — never reach a handler — and RPCs to alive
    /// nodes must complete.
    #[test]
    fn rpcs_to_departed_addresses_are_dropped(
        n in 4u64..16,
        seed in 0u64..1_000,
        salts in proptest::collection::vec(0u64..1_000_000, 1..6),
        kills in proptest::collection::vec((0u64..8, 0u64..16), 0..10),
    ) {
        let mut eng = build_couriers(n, seed, salts);
        // alive_at[c] = nodes alive during cycle c's turns.
        let mut alive_at: Vec<HashSet<Addr>> = Vec::new();
        for cycle in 0..8u64 {
            for &(at, victim) in &kills {
                // Never kill everyone; keep at least two alive.
                if at == cycle && eng.alive_count() > 2 {
                    eng.kill((victim % n) as Addr);
                }
            }
            alive_at.push((0..n as Addr).filter(|&a| eng.is_alive(a)).collect());
            eng.run_cycle();
        }
        for (addr, node) in eng.nodes() {
            for &(t, c) in &node.rpc_timeouts {
                // A timeout is legal only against a target departed by
                // that cycle, or oneself (self-RPC errors by contract).
                prop_assert!(
                    !alive_at[c as usize].contains(&t) || t == addr,
                    "node {addr} timed out against live target {t} in cycle {c}"
                );
            }
            for &(t, c) in &node.rpc_replies {
                prop_assert!(
                    alive_at[c as usize].contains(&t),
                    "node {addr} got a reply from {t} in cycle {c}, after its departure"
                );
            }
        }
        let total_replies: usize = eng.nodes().map(|(_, c)| c.rpc_replies.len()).sum();
        prop_assert!(total_replies > 0, "healthy traffic must exist");
    }

    /// One-way datagrams are batched and delivered exactly one cycle
    /// later, iff the target is still alive at delivery time; nothing is
    /// delivered twice, dropped messages stay dropped.
    #[test]
    fn oneway_delivery_is_exactly_next_cycle(
        n in 4u64..16,
        seed in 0u64..1_000,
        salts in proptest::collection::vec(0u64..1_000_000, 1..6),
        kills in proptest::collection::vec((1u64..8, 0u64..16), 0..8),
    ) {
        let cycles = 8u64;
        let mut eng = build_couriers(n, seed, salts.clone());
        // alive_at[c] = set of nodes alive during cycle c's turns.
        let mut alive_at: Vec<HashSet<Addr>> = Vec::new();
        for cycle in 0..cycles {
            for &(at, victim) in &kills {
                if at == cycle && eng.alive_count() > 2 {
                    eng.kill((victim % n) as Addr);
                }
            }
            alive_at.push((0..n as Addr).filter(|&a| eng.is_alive(a)).collect());
            eng.run_cycle();
        }

        // Reference model of every send: (sender, target, sent_cycle).
        let model = |addr: Addr, cycle: u64| -> Addr {
            let salt = salts[cycle as usize % salts.len()];
            ((u64::from(addr) * 13 + cycle * 7 + salt) % n) as Addr
        };
        let mut expected: Vec<(Addr, Addr, u64)> = Vec::new(); // (target, sender, sent)
        for (c, alive) in alive_at.iter().enumerate() {
            let c = c as u64;
            if c + 1 >= cycles {
                continue; // sent in the last cycle: never delivered
            }
            for &sender in alive {
                let target = model(sender, c);
                if alive_at[(c + 1) as usize].contains(&target) {
                    expected.push((target, sender, c));
                }
            }
        }

        let mut received: Vec<(Addr, Addr, u64)> = Vec::new();
        for (addr, node) in eng.nodes() {
            for &(from, sent, arrived) in &node.got {
                prop_assert_eq!(
                    arrived, sent + 1,
                    "datagram from {} to {} sent in cycle {} arrived in {}",
                    from, addr, sent, arrived
                );
                received.push((addr, from, sent));
            }
        }
        // Survivors' logs must match the model exactly (receivers killed
        // later can't testify; restrict the model to them).
        let survivors: HashSet<Addr> = eng.nodes().map(|(a, _)| a).collect();
        let mut expected: Vec<_> = expected
            .into_iter()
            .filter(|(t, _, _)| survivors.contains(t))
            .collect();
        expected.sort_unstable();
        received.sort_unstable();
        prop_assert_eq!(received, expected);
    }

    /// An interruption that does nothing is no interruption: wherever
    /// the cut falls, the cycle matches `run_cycle` bit for bit — every
    /// traffic counter and every node's log — under loss rolls and a
    /// partition.
    #[test]
    fn idle_interruption_is_bit_identical_to_run_cycle(
        n in 4u64..16,
        seed in 0u64..1_000,
        salts in proptest::collection::vec(0u64..1_000_000, 1..6),
        cuts in proptest::collection::vec(0usize..20, 8),
    ) {
        let mut plain = build_couriers(n, seed, salts.clone());
        let mut cut = build_couriers(n, seed, salts);
        for eng in [&mut plain, &mut cut] {
            eng.set_loss(Loss::uniform(0.3));
            eng.set_partition(Some(Partition::isolate([0, 1])));
        }
        for &k in &cuts {
            plain.run_cycle();
            cut.run_cycle_interrupted(k, |_| {});
            prop_assert_eq!(plain.stats(), cut.stats());
        }
        for ((_, a), (_, b)) in plain.nodes().zip(cut.nodes()) {
            prop_assert_eq!(&a.rpc_timeouts, &b.rpc_timeouts);
            prop_assert_eq!(&a.rpc_replies, &b.rpc_replies);
            prop_assert_eq!(&a.got, &b.got);
        }
    }
}
