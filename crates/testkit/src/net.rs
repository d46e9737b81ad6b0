//! Mixed honest/malicious SecureCyclon networks on the real simulation
//! engine: node enum, builder, sponsored joins, and the measurement
//! helpers behind every attack figure.
//!
//! This module used to live in `sc-attacks` (as its `net` module, easily
//! confused with `sc-sim`'s fault model of the same name). It moved here
//! so that attack strategies, fault scenarios, and invariant oracles all
//! drive one engine path — `sc-attacks` now contains only the adversary
//! implementations themselves. Honest and malicious nodes alike are
//! sans-IO machines; the engine routes their effects, and [`SecureNet`]
//! only says which of the two a slot holds.

use crate::snapshot::NetSnapshot;
use rand::seq::SliceRandom;
use sc_attacks::{MaliciousSecureNode, SecureAttack, SecureParty};
use sc_core::{
    default_phase, ring_bootstrap, Effects, Input, JoinGrantBody, Machine, MemoryBackend,
    SecureConfig, SecureCyclonNode, SecureDescriptor, SecureMsg,
};
use sc_crypto::{Keypair, NodeId, Scheme};
use sc_sim::{Addr, Engine, Loss, SimConfig};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

/// A node in a mixed SecureCyclon network.
#[derive(Debug)]
pub enum SecureNet {
    /// A correct node running the full protocol.
    Honest(Box<SecureCyclonNode>),
    /// A colluding malicious node.
    Malicious(Box<MaliciousSecureNode>),
}

impl SecureNet {
    /// Whether the node is malicious.
    pub fn is_malicious(&self) -> bool {
        matches!(self, SecureNet::Malicious(_))
    }

    /// The honest node, if honest.
    pub fn honest(&self) -> Option<&SecureCyclonNode> {
        match self {
            SecureNet::Honest(n) => Some(n),
            SecureNet::Malicious(_) => None,
        }
    }
}

/// Both kinds are sans-IO machines; the engine routes their effects.
impl Machine for SecureNet {
    type Msg = SecureMsg;

    fn step(&mut self, input: Input) -> Effects {
        match self {
            SecureNet::Honest(n) => n.step(input),
            SecureNet::Malicious(n) => n.step(input),
        }
    }
}

/// Parameters for building a mixed network.
#[derive(Clone, Debug)]
pub struct SecureNetParams {
    /// Total nodes.
    pub n: usize,
    /// Malicious nodes among them.
    pub n_malicious: usize,
    /// Protocol configuration for honest nodes (malicious copy ℓ, s, and
    /// the tit-for-tat flag from it).
    pub cfg: SecureConfig,
    /// The attack strategy.
    pub attack: SecureAttack,
    /// Cycle at which malicious nodes start deviating.
    pub attack_start: u64,
    /// Master seed.
    pub seed: u64,
    /// Signature scheme for all identities.
    pub scheme: Scheme,
    /// Per-kind message loss.
    pub loss: Loss,
    /// Attach an in-memory durable [`sc_core::StateBackend`] to every
    /// honest node, enabling [`SecureNetwork::crash_restart`].
    pub durable: bool,
}

impl SecureNetParams {
    /// A reliable-network parameter set with the paper's defaults.
    pub fn new(n: usize, n_malicious: usize, attack: SecureAttack) -> Self {
        SecureNetParams {
            n,
            n_malicious,
            cfg: SecureConfig::default(),
            attack,
            attack_start: 50,
            seed: 0,
            scheme: Scheme::KeyedHash,
            loss: Loss::default(),
            durable: false,
        }
    }
}

/// Handle to a built mixed network.
pub struct SecureNetwork {
    /// The simulation engine.
    pub engine: Engine<SecureNet>,
    /// IDs of malicious nodes.
    pub malicious_ids: HashSet<NodeId>,
    /// Addresses of malicious nodes.
    pub malicious_addrs: HashSet<Addr>,
    /// The shared party state.
    pub party: Arc<Mutex<SecureParty>>,
    /// Protocol configuration honest nodes were built with (joiners reuse
    /// it).
    pub cfg: SecureConfig,
    /// Signature scheme all identities use.
    pub scheme: Scheme,
    /// Master seed the network was derived from.
    pub seed: u64,
    /// Number of joiners spawned so far (joiner key derivation counter).
    joiners: u64,
    /// Whether honest nodes carry durable backends.
    durable: bool,
    /// Crash-restarts performed so far (replacement-RNG derivation
    /// counter).
    pub(crate) restarts: u64,
}

impl SecureNetwork {
    /// Spawns a fresh honest node and bootstraps it through a legal
    /// sponsorship (§V-A): `sponsor` — an alive honest node — grants it
    /// what [`SecureCyclonNode::sponsor`] grants a join ping, delivered as
    /// the [`SecureMsg::JoinGrant`] a socket joiner receives. Returns the
    /// new address, or `None` if the sponsor is unavailable or already
    /// spent this cycle's budget.
    pub fn join_via(&mut self, sponsor: Addr) -> Option<Addr> {
        let keypair = Keypair::from_seed(
            self.scheme,
            sc_sim::rng::derive_seed(self.seed, "joiner", self.joiners),
        );
        let rng_seed = sc_sim::rng::derive_seed(self.seed, "joiner-rng", self.joiners);
        let grant = self.sponsor(sponsor, keypair.public())?;

        self.joiners += 1;
        let phase = default_phase(self.joiners as usize, self.cfg.ticks_per_cycle);
        let (cfg, durable) = (self.cfg, self.durable);
        let addr = self.engine.spawn_with(|addr| {
            let node = new_honest_node(keypair, addr, cfg, rng_seed, phase, durable);
            SecureNet::Honest(Box::new(node))
        });
        self.engine
            .deliver(sponsor, addr, SecureMsg::JoinGrant(Box::new(grant)));
        Some(addr)
    }

    /// Like [`SecureNetwork::join_via`], trying alive honest sponsors in
    /// the order produced by `candidates` until one accepts.
    pub fn join_via_any(&mut self, candidates: impl IntoIterator<Item = Addr>) -> Option<Addr> {
        for sponsor in candidates {
            if let Some(addr) = self.join_via(sponsor) {
                return Some(addr);
            }
        }
        None
    }

    /// Reintroduces an *existing* honest node through a sponsorship
    /// (§V-A bootstrap applied to rejoin): `sponsor` grants it what it
    /// grants a join ping — a fresh descriptor and every proof it holds —
    /// giving the pair a live link again. This is the protocol-level
    /// equivalent of a bootstrap-server reconnect after a partition that
    /// outlived the descriptor lifetime — once a few such links exist,
    /// ordinary gossip re-knits the segments. Returns whether the
    /// descriptor was minted *and* kept, in `node`'s view or reserve.
    pub fn reintroduce(&mut self, node: Addr, sponsor: Addr) -> bool {
        let Some(SecureNet::Honest(target)) = self.engine.node(node) else {
            return false;
        };
        let Some(grant) = self.sponsor(sponsor, target.id()) else {
            return false;
        };
        let digest = grant.descriptor.state_digest();
        self.engine
            .deliver(sponsor, node, SecureMsg::JoinGrant(Box::new(grant)));
        let Some(SecureNet::Honest(target)) = self.engine.node(node) else {
            return false;
        };
        let kept = |d: &SecureDescriptor| d.state_digest() == digest;
        target.view().iter().any(|e| kept(&e.desc)) || target.reserve().any(kept)
    }

    /// The grant the honest node at `sponsor` hands `joiner` this cycle,
    /// if it has the budget.
    fn sponsor(&mut self, sponsor: Addr, joiner: NodeId) -> Option<JoinGrantBody> {
        let cycle = self.engine.cycle();
        match self.engine.node_mut(sponsor) {
            Some(SecureNet::Honest(node)) => node.sponsor(joiner, cycle),
            _ => None,
        }
    }

    /// `kill -9` + restart in one engine instant: discards `addr`'s
    /// in-memory state and rebuilds the node around its survived durable
    /// backend, exactly like a daemon restarted with `--state-dir`. The
    /// replacement keeps the identity and phase but draws fresh protocol
    /// randomness (a rebooted process has a new RNG). Returns `false`
    /// when the address is not an alive honest node with a backend.
    pub fn crash_restart(&mut self, addr: Addr) -> bool {
        crash_restart_in(&mut self.engine, self.seed, &mut self.restarts, addr)
    }
}

/// [`SecureNetwork::crash_restart`]'s body over disjoint borrows, so an
/// engine hook (which holds the engine mutably) can restart nodes too:
/// the `restarts`-th restart of a network built from `seed`.
pub(crate) fn crash_restart_in(
    engine: &mut Engine<SecureNet>,
    seed: u64,
    restarts: &mut u64,
    addr: Addr,
) -> bool {
    let honest = engine.node(addr).and_then(SecureNet::honest);
    if !honest.is_some_and(SecureCyclonNode::is_durable) {
        return false;
    }
    let rng_seed = sc_sim::rng::derive_seed(seed, "restart", *restarts);
    *restarts += 1;
    engine.restart(addr, |node| match node {
        SecureNet::Honest(node) => SecureNet::Honest(Box::new(
            node.restarted(rng_seed)
                .expect("in-memory backends cannot fail to load"),
        )),
        malicious => malicious,
    })
}

/// Builds one honest node, durably backed when asked. The simulated tier
/// uses in-memory backends: same code paths as the daemon's log files
/// (synchronous emission/spent/proof records, checkpoint recovery),
/// without touching disk from inside a deterministic run.
fn new_honest_node(
    keypair: Keypair,
    addr: Addr,
    cfg: SecureConfig,
    rng_seed: [u8; 32],
    phase: u64,
    durable: bool,
) -> SecureCyclonNode {
    if durable {
        SecureCyclonNode::with_backend(
            keypair,
            addr,
            cfg,
            rng_seed,
            phase,
            Box::new(MemoryBackend::new()),
        )
        .expect("in-memory backends cannot fail to load")
    } else {
        SecureCyclonNode::new(keypair, addr, cfg, rng_seed, phase)
    }
}

/// Builds a bootstrapped mixed network: `n` nodes, of which a random
/// `n_malicious` belong to the colluding party, all joined through a
/// legal ring bootstrap so the overlay starts converged and violation-free.
pub fn build_secure_network(params: SecureNetParams) -> SecureNetwork {
    let SecureNetParams {
        n,
        n_malicious,
        cfg,
        attack,
        attack_start,
        seed,
        scheme,
        loss,
        durable,
    } = params;
    let cfg = cfg.validated();
    assert!(n_malicious < n, "need at least one honest node");

    let keypairs: Vec<Keypair> = (0..n)
        .map(|i| Keypair::from_seed(scheme, sc_sim::rng::derive_seed(seed, "identity", i as u64)))
        .collect();
    let addrs: Vec<Addr> = (0..n as Addr).collect();
    let phases: Vec<u64> = (0..n)
        .map(|i| default_phase(i, cfg.ticks_per_cycle))
        .collect();

    // Uniformly random malicious subset.
    let mut indices: Vec<usize> = (0..n).collect();
    let mut pick_rng = sc_sim::rng::std_rng(seed, "malicious-pick", 0);
    indices.shuffle(&mut pick_rng);
    let malicious_set: HashSet<usize> = indices.into_iter().take(n_malicious).collect();

    let party_kps: Vec<Keypair> = malicious_set.iter().map(|&i| keypairs[i].clone()).collect();
    let party_addrs: Vec<Addr> = malicious_set.iter().map(|&i| i as Addr).collect();
    let party = Arc::new(Mutex::new(SecureParty::new(
        party_kps,
        party_addrs,
        cfg.ticks_per_cycle,
    )));

    let plan = ring_bootstrap(
        &keypairs,
        &addrs,
        &phases,
        cfg.view_len,
        cfg.ticks_per_cycle,
    );
    let mut engine = Engine::new(SimConfig {
        seed,
        loss,
        start_cycle: plan.start_cycle,
    });

    let mut malicious_ids = HashSet::new();
    let mut malicious_addrs = HashSet::new();
    for (i, descs) in plan.per_node.into_iter().enumerate() {
        let rng_seed = sc_sim::rng::derive_seed(seed, "node", i as u64);
        if malicious_set.contains(&i) {
            malicious_ids.insert(keypairs[i].public());
            malicious_addrs.insert(i as Addr);
            let mut node = MaliciousSecureNode::new(
                keypairs[i].clone(),
                i as Addr,
                &cfg,
                Arc::clone(&party),
                rng_seed,
                phases[i],
            )
            .with_attack(attack, attack_start);
            for d in descs {
                node.accept_bootstrap(d);
            }
            engine.spawn_with(|_| SecureNet::Malicious(Box::new(node)));
        } else {
            let mut node = new_honest_node(
                keypairs[i].clone(),
                i as Addr,
                cfg,
                rng_seed,
                phases[i],
                durable,
            );
            for d in descs {
                node.accept_bootstrap(d);
            }
            engine.spawn_with(|_| SecureNet::Honest(Box::new(node)));
        }
    }

    SecureNetwork {
        engine,
        malicious_ids,
        malicious_addrs,
        party,
        cfg,
        scheme,
        seed,
        joiners: 0,
        durable,
        restarts: 0,
    }
}

// ----------------------------------------------------------------------
// Metrics (the y-axes of Figures 3, 5, 6)
// ----------------------------------------------------------------------

/// Fraction of links in honest views that point at malicious nodes —
/// the y-axis of Figures 3 and 5.
pub fn malicious_link_fraction(engine: &Engine<SecureNet>, malicious: &HashSet<NodeId>) -> f64 {
    let mut mal = 0usize;
    let mut total = 0usize;
    for (_, node) in engine.nodes() {
        let Some(h) = node.honest() else { continue };
        for e in h.view().iter() {
            total += 1;
            if malicious.contains(&e.desc.creator()) {
                mal += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        mal as f64 / total as f64
    }
}

/// Fraction of links in honest views that are non-swappable — the y-axis
/// of Figure 6.
pub fn ns_link_fraction(engine: &Engine<SecureNet>) -> f64 {
    let mut ns = 0usize;
    let mut total = 0usize;
    for (_, node) in engine.nodes() {
        let Some(h) = node.honest() else { continue };
        total += h.view().len();
        ns += h.view().ns_count();
    }
    if total == 0 {
        0.0
    } else {
        ns as f64 / total as f64
    }
}

/// Average fraction of the malicious population each honest node has
/// blacklisted (1.0 = every honest node knows every attacker):
/// [`NetSnapshot::blacklist_coverage`] of the engine's honest nodes.
pub fn blacklist_coverage(engine: &Engine<SecureNet>, malicious: &HashSet<NodeId>) -> f64 {
    NetSnapshot::from_engine(engine, malicious).blacklist_coverage()
}

/// Fraction of honest nodes whose entire (non-empty) view points at
/// malicious nodes — the eclipsed residue of Figure 5 (bottom).
pub fn eclipsed_fraction(engine: &Engine<SecureNet>, malicious: &HashSet<NodeId>) -> f64 {
    let mut eclipsed = 0usize;
    let mut honest = 0usize;
    for (_, node) in engine.nodes() {
        let Some(h) = node.honest() else { continue };
        honest += 1;
        let total = h.view().len();
        if total == 0 {
            continue;
        }
        let mal = h
            .view()
            .iter()
            .filter(|e| malicious.contains(&e.desc.creator()))
            .count();
        if mal == total {
            eclipsed += 1;
        }
    }
    if honest == 0 {
        0.0
    } else {
        eclipsed as f64 / honest as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_sim::{Point, Step};

    fn durable_params(n: usize) -> SecureNetParams {
        let mut p = SecureNetParams::new(n, 0, SecureAttack::None);
        p.cfg = p.cfg.with_view_len(6).with_swap_len(3);
        p.seed = 5;
        p.durable = true;
        p
    }

    #[test]
    fn crash_restart_preserves_identity_and_durable_state() {
        let mut net = build_secure_network(durable_params(24));
        for _ in 0..10 {
            net.engine.run_cycle();
        }
        let (id, view_len, emitted) = {
            let h = net.engine.node(3).unwrap().honest().unwrap();
            (h.id(), h.view().len(), h.last_emission())
        };
        assert!(view_len > 0, "node is connected before the crash");
        assert!(emitted.is_some(), "node has spent an emission budget");

        assert!(net.crash_restart(3), "honest durable node restarts");
        let h = net.engine.node(3).unwrap().honest().unwrap();
        assert_eq!(h.id(), id, "identity survives the restart");
        assert_eq!(h.last_emission(), emitted, "emission marker recovered");
        assert!(!h.view().is_empty(), "view recovered from the checkpoint");
        assert_eq!(h.stats().initiated, 0, "counters start a fresh life");

        // The reborn node keeps gossiping legally.
        for _ in 0..5 {
            net.engine.run_cycle();
        }
        assert_eq!(
            NetSnapshot::from_network(&net).proofs_generated(),
            (0, 0),
            "no self-incrimination"
        );
    }

    #[test]
    fn mid_cycle_crash_restart_stays_clean() {
        let mut net = build_secure_network(durable_params(24));
        for _ in 0..10 {
            net.engine.run_cycle();
        }
        let ids: Vec<_> = [3, 7]
            .iter()
            .map(|&a| net.engine.node(a).unwrap().honest().unwrap().id())
            .collect();
        // Kill both victims halfway through the cycle's turns: some
        // exchanges (possibly their own emission) already happened.
        let (seed, restarts) = (net.seed, &mut net.restarts);
        let mut done = 0;
        net.engine.run_cycle_with(|engine, at| {
            if at == Point::Turn(12) {
                for addr in [3, 7] {
                    done += u32::from(crash_restart_in(engine, seed, restarts, addr));
                }
            }
        });
        assert_eq!(done, 2);
        for _ in 0..5 {
            net.engine.run_cycle();
        }
        for (i, &a) in [3, 7].iter().enumerate() {
            let h = net.engine.node(a).unwrap().honest().unwrap();
            assert_eq!(h.id(), ids[i], "identity survives");
            assert!(!h.view().is_empty(), "view recovered");
        }
        assert_eq!(
            NetSnapshot::from_network(&net).proofs_generated(),
            (0, 0),
            "a mid-cycle crash must not make a durable node accuse itself"
        );

        // Inside a turn: every initiator dies right after its partner
        // served the turn's second request, its first tit-for-tat round.
        // The round's descriptor is signed away, and its answer never
        // arrives: the `kill -9` that once made a cloning proof on sockets.
        let mut struck = 0;
        for _ in 0..6 {
            let (seed, restarts) = (net.seed, &mut net.restarts);
            let mut served = 0;
            net.engine.run_cycle_with(|engine, at| match at {
                Point::Step(_, Step::Tick) => served = 0,
                Point::Step(_, Step::Request(from)) => {
                    served += 1;
                    if served == 2 {
                        struck += u32::from(crash_restart_in(engine, seed, restarts, from));
                    }
                }
                _ => {}
            });
        }
        assert!(struck > 24, "most turns reach a round: {struck} restarts");
        for _ in 0..5 {
            net.engine.run_cycle();
        }
        assert_eq!(
            NetSnapshot::from_network(&net).proofs_generated(),
            (0, 0),
            "a crash between a round and its answer must not convict its initiator"
        );
    }

    /// A network whose honest nodes hold proofs: three frequency
    /// attackers among thirty nodes, convicted within a few cycles.
    fn convicting_network() -> SecureNetwork {
        let mut p = SecureNetParams::new(30, 3, SecureAttack::Frequency { extra: 2 });
        p.cfg = p.cfg.with_view_len(6).with_swap_len(3);
        p.attack_start = 8;
        p.seed = 7;
        let mut net = build_secure_network(p);
        net.engine.run_cycles(12);
        net
    }

    fn honest(net: &SecureNetwork, addr: Addr) -> &SecureCyclonNode {
        net.engine.node(addr).unwrap().honest().unwrap()
    }

    fn culprits(node: &SecureCyclonNode) -> Vec<NodeId> {
        let mut culprits: Vec<NodeId> = node.blacklist().culprits().copied().collect();
        culprits.sort_unstable();
        culprits
    }

    /// The lowest honest address whose node has convicted someone.
    fn convicted_sponsor(net: &SecureNetwork) -> Addr {
        let (addr, _) = net
            .engine
            .nodes()
            .find(|(_, n)| n.honest().is_some_and(|h| !h.blacklist().is_empty()))
            .expect("an honest node holds a proof");
        addr
    }

    #[test]
    fn a_joiner_ends_where_its_grant_stepped_into_a_fresh_node_leaves_it() {
        let mut net = convicting_network();
        let sponsor = convicted_sponsor(&net);

        // The same grant on a twin network, stepped by hand into a fresh
        // node with the identity `join_via` derives for its first joiner.
        let mut twin = convicting_network();
        let cycle = twin.engine.cycle();
        let keypair = Keypair::from_seed(
            twin.scheme,
            sc_sim::rng::derive_seed(twin.seed, "joiner", 0),
        );
        let grant = twin.sponsor(sponsor, keypair.public()).unwrap();
        let descriptor = grant.descriptor.state_digest();
        let mut fresh = SecureCyclonNode::new(
            keypair,
            twin.engine.capacity() as Addr,
            twin.cfg,
            sc_sim::rng::derive_seed(twin.seed, "joiner-rng", 0),
            default_phase(1, twin.cfg.ticks_per_cycle),
        );
        fresh.step(Input::Oneway {
            from: sponsor,
            msg: SecureMsg::JoinGrant(Box::new(grant)),
            cycle,
        });

        let joiner = net.join_via(sponsor).expect("the sponsor has its budget");
        let joiner = honest(&net, joiner);
        let view = |n: &SecureCyclonNode| -> Vec<_> {
            n.view().iter().map(|e| e.desc.state_digest()).collect()
        };
        assert_eq!(view(joiner), [descriptor], "the grant's descriptor");
        assert_eq!(view(joiner), view(&fresh));
        assert_eq!(culprits(joiner), culprits(honest(&net, sponsor)));
        assert_eq!(culprits(joiner), culprits(&fresh));
        assert!(joiner.joined() && fresh.joined());
        assert_eq!(joiner.stats(), fresh.stats());
    }

    #[test]
    fn a_reintroduced_node_learns_every_proof_its_sponsor_holds() {
        let mut net = convicting_network();
        let sponsor = convicted_sponsor(&net);
        let sponsor_id = honest(&net, sponsor).id();
        // A node cut off before any conviction: an honest node that knows
        // no one.
        let (keypair, cfg) = (Keypair::from_seed(net.scheme, [0x42; 32]), net.cfg);
        let target = net.engine.spawn_with(|addr| {
            let node = SecureCyclonNode::new(keypair, addr, cfg, [1; 32], 0);
            SecureNet::Honest(Box::new(node))
        });
        assert!(net.reintroduce(target, sponsor), "kept in the view");
        let t = honest(&net, target);
        assert_eq!(culprits(t), culprits(honest(&net, sponsor)));
        assert!(t.view().iter().any(|e| e.desc.creator() == sponsor_id));
        assert!(
            !net.reintroduce(target, sponsor),
            "the sponsor's budget for this cycle is spent"
        );
    }

    #[test]
    fn a_reintroduction_into_a_full_view_is_kept_in_the_reserve() {
        let mut net = convicting_network();
        let full = |n: &SecureCyclonNode| n.view().len() == n.view().capacity();
        let (target, _) = net
            .engine
            .nodes()
            .find(|(_, n)| {
                n.honest()
                    .is_some_and(|h| full(h) && h.view().ns_count() == 0)
            })
            .expect("an honest node with a full, all-swappable view");
        let sponsor = net
            .engine
            .nodes()
            .find(|&(a, n)| a != target && n.honest().is_some())
            .map(|(a, _)| a)
            .unwrap();
        let sponsor_id = honest(&net, sponsor).id();
        let reserved = |net: &SecureNetwork| {
            let t = honest(net, target);
            t.reserve().filter(|d| d.creator() == sponsor_id).count()
        };
        let before = reserved(&net);
        assert!(net.reintroduce(target, sponsor));
        assert_eq!(reserved(&net), before + 1, "parked, not dropped");
    }

    #[test]
    fn crash_restart_requires_a_backend() {
        let mut p = durable_params(24);
        p.durable = false;
        let mut plain = build_secure_network(p);
        plain.engine.run_cycle();
        assert!(!plain.crash_restart(3), "no backend, nothing to restart");
        assert!(!plain.crash_restart(9999), "unknown address");
    }
}
