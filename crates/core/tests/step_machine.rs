//! The sans-IO node under a hand scheduler: four `step` machines whose
//! ticks, request deliveries, reply deliveries, losses and timeouts are
//! interleaved arbitrarily — including the states only a non-blocking
//! driver reaches, where a node serves a `Request` or a `Round` while
//! its own exchange is still in flight.
//!
//! After every step: no descriptor identity is live in two places (the
//! swappable view entries and reserves of all nodes, plus every
//! transfer still in flight), no view exceeds ℓ, every blacklist is
//! empty, and every two descriptors one node minted (each `Request`'s
//! fresh descriptor and each `JoinGrant`'s) were created at least a
//! period apart — an honest node is never provably guilty, whatever the
//! schedule.

use proptest::prelude::*;
use sc_core::{
    default_phase, ring_bootstrap, Addr, DescriptorId, Effects, Flood, Input, SecureConfig,
    SecureCyclonNode, SecureDescriptor, SecureMsg,
};
use sc_crypto::{Keypair, Scheme};
use std::collections::{HashSet, VecDeque};

const N: usize = 4;
const TPC: u64 = 1000;

fn cfg() -> SecureConfig {
    SecureConfig::default().with_view_len(3).with_swap_len(3)
}

/// Where a node's outstanding RPC is.
enum Stage {
    /// On its way to the partner.
    Request(SecureMsg),
    /// Answered; the reply is on its way back.
    Reply(SecureMsg),
    /// Refused or lost: only a timeout resolves it.
    Unanswered,
}

struct Net {
    nodes: Vec<SecureCyclonNode>,
    /// Each node's outstanding RPC: partner and stage.
    rpcs: Vec<Option<(Addr, Stage)>>,
    /// Requests whose initiator gave up on them but which still arrive.
    ghosts: VecDeque<(Addr, Addr, SecureMsg)>,
    /// One-way messages in flight, `(from, to, msg)`.
    oneways: VecDeque<(Addr, Addr, SecureMsg)>,
    /// The creation tick of every descriptor each node minted.
    mints: Vec<Vec<u64>>,
    cycle: u64,
}

impl Net {
    fn new() -> Net {
        let cfg = cfg();
        let kps: Vec<Keypair> = (0..N)
            .map(|i| Keypair::from_seed(Scheme::KeyedHash, [i as u8 + 1; 32]))
            .collect();
        let addrs: Vec<Addr> = (0..N as Addr).collect();
        let phases: Vec<u64> = (0..N).map(|i| default_phase(i, TPC)).collect();
        let plan = ring_bootstrap(&kps, &addrs, &phases, cfg.view_len, TPC);
        let nodes = plan
            .per_node
            .into_iter()
            .enumerate()
            .map(|(i, descs)| {
                let mut node =
                    SecureCyclonNode::new(kps[i].clone(), i as Addr, cfg, [i as u8; 32], phases[i]);
                for d in descs {
                    assert!(node.accept_bootstrap(d));
                }
                node
            })
            .collect();
        Net {
            nodes,
            rpcs: (0..N).map(|_| None).collect(),
            ghosts: VecDeque::new(),
            oneways: VecDeque::new(),
            mints: vec![Vec::new(); N],
            // One past the bootstrap's pre-cycles, so that a clock stepping
            // back by one never re-enters them.
            cycle: plan.start_cycle + 1,
        }
    }

    /// Routes the effects of a step `node` just took.
    fn route(&mut self, node: usize, fx: Effects) {
        let out = fx.rpc.iter().chain(&fx.sends).map(|(_, msg)| msg);
        let minted = out.filter_map(|msg| match msg {
            SecureMsg::Request(b) => Some(&b.fresh),
            SecureMsg::JoinGrant(b) => Some(&b.descriptor),
            _ => None,
        });
        self.mints[node].extend(minted.map(|d| d.created_at().0));
        for (to, msg) in fx.sends {
            self.oneways.push_back((node as Addr, to, msg));
        }
        for (to, msg) in fx.flood.iter().flat_map(Flood::sends) {
            self.oneways.push_back((node as Addr, to, msg.clone()));
        }
        if let Some((to, msg)) = fx.rpc {
            assert!(
                self.rpcs[node].is_none(),
                "node {node}: a second RPC while one is outstanding"
            );
            self.rpcs[node] = Some((to, Stage::Request(msg)));
        }
    }

    fn tick(&mut self, node: usize, cycle: u64) {
        let in_flight = self.nodes[node].exchange_in_flight();
        assert_eq!(in_flight, self.rpcs[node].is_some());
        let before = self.nodes[node].stats();
        let fx = self.nodes[node].step(Input::Tick { cycle });
        if in_flight {
            assert!(fx.rpc.is_none() && fx.sends.is_empty() && fx.flood.is_none());
            assert_eq!(
                self.nodes[node].stats(),
                before,
                "a mid-exchange tick is a no-op"
            );
        }
        self.route(node, fx);
    }

    /// Serves `msg` at `to` as an RPC from `from`; returns the reply.
    fn serve(&mut self, from: Addr, to: Addr, msg: SecureMsg) -> Option<SecureMsg> {
        let mut fx = self.nodes[to as usize].step(Input::Request {
            from,
            msg,
            cycle: self.cycle,
        });
        let reply = fx.reply.take();
        self.route(to as usize, fx);
        reply
    }

    /// Delivers `node`'s outstanding request to its partner. Returns
    /// whether the partner had an exchange of its own in flight.
    fn deliver_request(&mut self, node: usize) -> bool {
        let awaiting = |rpc: &mut (Addr, Stage)| matches!(rpc.1, Stage::Request(_));
        let Some((to, Stage::Request(msg))) = self.rpcs[node].take_if(awaiting) else {
            return false;
        };
        let busy = self.nodes[to as usize].exchange_in_flight();
        let stage = match self.serve(node as Addr, to, msg) {
            Some(reply) => Stage::Reply(reply),
            None => Stage::Unanswered,
        };
        self.rpcs[node] = Some((to, stage));
        busy
    }

    fn deliver_reply(&mut self, node: usize) {
        let answered = |rpc: &mut (Addr, Stage)| matches!(rpc.1, Stage::Reply(_));
        let Some((_, Stage::Reply(reply))) = self.rpcs[node].take_if(answered) else {
            return;
        };
        let fx = self.nodes[node].step(Input::Reply(reply));
        self.route(node, fx);
    }

    /// Times `node`'s RPC out wherever it is. A request still on its way
    /// is lost — or, with `ghost`, arrives anyway after the initiator
    /// stopped waiting.
    fn timeout(&mut self, node: usize, ghost: bool) {
        let Some((to, stage)) = self.rpcs[node].take() else {
            return;
        };
        if let (Stage::Request(msg), true) = (stage, ghost) {
            self.ghosts.push_back((node as Addr, to, msg));
        }
        let fx = self.nodes[node].step(Input::Timeout);
        self.route(node, fx);
    }

    fn deliver_ghost(&mut self) {
        if let Some((from, to, msg)) = self.ghosts.pop_front() {
            // Nobody awaits the answer any more.
            self.serve(from, to, msg);
        }
    }

    fn deliver_oneway(&mut self) {
        if let Some((from, to, msg)) = self.oneways.pop_front() {
            let fx = self.nodes[to as usize].step(Input::Oneway {
                from,
                msg,
                cycle: self.cycle,
            });
            self.route(to as usize, fx);
        }
    }

    fn check(&self) -> Result<(), String> {
        let mut live: HashSet<DescriptorId> = HashSet::new();
        let mut claim = |d: &SecureDescriptor, place: &str| {
            if live.insert(d.id()) {
                Ok(())
            } else {
                Err(format!(
                    "descriptor {:?} live twice (seen again {place})",
                    d.id()
                ))
            }
        };
        for (i, mints) in self.mints.iter().enumerate() {
            let mut mints = mints.clone();
            mints.sort_unstable();
            if let Some(w) = mints.windows(2).find(|w| w[1] - w[0] < TPC) {
                return Err(format!("node {i}: minted at ticks {} and {}", w[0], w[1]));
            }
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if node.view().len() > node.view().capacity() {
                return Err(format!("node {i}: view over ℓ"));
            }
            if !node.blacklist().is_empty() || !node.proof_log().is_empty() {
                return Err(format!("node {i}: an honest peer was proven guilty"));
            }
            for e in node.view().iter() {
                if e.desc.owner() != node.id() || e.desc.is_redeemed() {
                    return Err(format!("node {i}: foreign or spent descriptor in view"));
                }
                if !e.non_swappable {
                    claim(&e.desc, &format!("in node {i}'s view"))?;
                }
            }
            for d in node.reserve() {
                claim(d, &format!("in node {i}'s reserve"))?;
            }
        }
        let rpc_msgs = self.rpcs.iter().flatten().filter_map(|(_, s)| match s {
            Stage::Request(m) | Stage::Reply(m) => Some(m),
            Stage::Unanswered => None,
        });
        let other = self.ghosts.iter().chain(&self.oneways).map(|(_, _, m)| m);
        for msg in rpc_msgs.chain(other) {
            for d in transfers_of(msg) {
                claim(d, "in flight")?;
            }
        }
        Ok(())
    }
}

/// The descriptors whose ownership `msg` hands over (samples, proofs and
/// the spent redemption certificate are copies, not tokens).
fn transfers_of(msg: &SecureMsg) -> Vec<&SecureDescriptor> {
    match msg {
        SecureMsg::Request(b) => std::iter::once(&b.fresh).chain(&b.offered).collect(),
        SecureMsg::Accept(b) => b.transfers.iter().collect(),
        SecureMsg::Round(b) => vec![&b.transfer],
        SecureMsg::RoundReply(b) => b.transfer.iter().collect(),
        SecureMsg::JoinGrant(b) => vec![&b.descriptor],
        SecureMsg::Proof(_) | SecureMsg::JoinPing(_) => Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_interleaving_keeps_honest_nodes_innocent_and_tokens_unique(
        ops in proptest::collection::vec((0u8..10, 0u8..N as u8, any::<u8>()), 1..250)
    ) {
        let mut net = Net::new();
        for (step, (op, node, arg)) in ops.into_iter().enumerate() {
            let node = node as usize;
            match op {
                0 => net.cycle += 1,
                // A tick — now and then from a clock that stepped back.
                1 | 2 => net.tick(node, net.cycle - u64::from(arg % 8 == 0)),
                3 | 4 => {
                    net.deliver_request(node);
                }
                5 | 6 => net.deliver_reply(node),
                7 => net.timeout(node, arg % 2 == 0),
                8 => net.deliver_ghost(),
                _ => {
                    if arg % 4 == 0 {
                        net.oneways.pop_front(); // lost
                    } else {
                        net.deliver_oneway();
                    }
                }
            }
            if let Err(e) = net.check() {
                prop_assert!(false, "after step {} (op {} on node {}): {}", step, op, node, e);
            }
        }
    }
}

/// Runs `node`'s outstanding exchange to completion over a reliable
/// network.
fn finish_exchange(net: &mut Net, node: usize) {
    while net.rpcs[node].is_some() {
        net.deliver_request(node);
        if matches!(net.rpcs[node], Some((_, Stage::Unanswered))) {
            net.timeout(node, false);
        }
        net.deliver_reply(node);
    }
}

#[test]
fn requests_and_rounds_are_served_while_an_exchange_is_in_flight() {
    // Every node opens its exchange before anyone's request is
    // delivered: each request, and each tit-for-tat round after it, is
    // then served by a node that is itself mid-exchange.
    let mut net = Net::new();
    for node in 0..N {
        net.tick(node, net.cycle);
        assert!(
            net.nodes[node].exchange_in_flight(),
            "node {node} initiated"
        );
    }
    net.check().unwrap();
    let mut served_busy = 0;
    for _round in 0..cfg().swap_len {
        for node in 0..N {
            served_busy += usize::from(net.deliver_request(node));
            net.check().unwrap();
        }
        for node in 0..N {
            net.deliver_reply(node);
            net.check().unwrap();
        }
    }
    assert!(
        served_busy >= 2 * N,
        "requests and rounds were served mid-exchange ({served_busy})"
    );
    for (i, node) in net.nodes.iter().enumerate() {
        assert!(!node.exchange_in_flight(), "node {i}: exchange resolved");
        let s = node.stats();
        assert_eq!(
            (s.initiated, s.completed, s.timeouts),
            (1, 1, 0),
            "node {i}"
        );
        assert_eq!(s.answered, 1, "node {i} answered while busy");
        assert_eq!(node.view().len(), cfg().view_len, "node {i}: view refilled");
    }
}

#[test]
fn a_stepped_back_clock_buys_no_second_descriptor() {
    // ROADMAP, the daemon's injected clock source: the daemon's cycle
    // number derives from `SystemTime`; a backwards step must not mint
    // twice in one period.
    let mut net = Net::new();
    let c = net.cycle + 1;
    for cycle in [c, c - 1, c] {
        net.tick(0, cycle);
        finish_exchange(&mut net, 0);
    }
    let s = net.nodes[0].stats();
    assert_eq!(s.initiated, 1, "one exchange, one fresh descriptor");
    assert_eq!(net.nodes[0].last_emission(), Some(c));
    // The clock recovers: the next period's budget is intact.
    net.tick(0, c + 1);
    assert!(net.nodes[0].exchange_in_flight());
}

#[test]
fn unsolicited_and_mistyped_replies_are_harmless() {
    let mut net = Net::new();
    // No exchange in flight: a reply or timeout is dropped.
    let before = net.nodes[0].stats();
    let stray = SecureMsg::RoundReply(Box::new(sc_core::RoundReplyBody { transfer: None }));
    let fx = net.nodes[0].step(Input::Reply(stray.clone()));
    assert!(fx.rpc.is_none() && fx.reply.is_none() && fx.sends.is_empty() && fx.flood.is_none());
    let fx = net.nodes[0].step(Input::Timeout);
    assert!(fx.rpc.is_none() && fx.reply.is_none() && fx.sends.is_empty() && fx.flood.is_none());
    assert_eq!(net.nodes[0].stats().timeouts, before.timeouts);
    // Awaiting an Accept: a reply of the wrong type takes the timeout arm.
    net.tick(0, net.cycle);
    assert!(net.nodes[0].exchange_in_flight());
    net.rpcs[0] = None;
    let fx = net.nodes[0].step(Input::Reply(stray));
    assert!(fx.rpc.is_none(), "the exchange ended");
    let s = net.nodes[0].stats();
    assert_eq!((s.completed, s.timeouts), (0, 1));
    assert!(!net.nodes[0].exchange_in_flight());
}
