//! The hub attack against **legacy** Cyclon (paper §II-B, Figure 3).
//!
//! **Legacy harness.** This module bundles its own tiny network builder
//! ([`build_legacy_network`]) and metric instead of the `sc-testkit`
//! scenario machinery: the unprotected baseline exists only to reproduce
//! the Figure 3 takeover, speaks `CyclonMsg` rather than `SecureMsg`, and
//! shares no protocol state with the SecureCyclon stack. The interface is
//! shared, though: attacker and victim are sans-IO [`Machine`]s driven by
//! the same engine loop as everything else. New adversarial scenarios
//! should target SecureCyclon through `sc_testkit` rather than extending
//! this builder.
//!
//! Malicious nodes behave perfectly until an agreed start cycle, then keep
//! gossiping at the correct rate but present views consisting exclusively
//! of fabricated descriptors pointing at random members of their party.
//! Because legacy Cyclon trusts whatever a partner presents, every
//! exchange with a malicious node replaces up to `s` legitimate links with
//! malicious ones and destroys the legitimate descriptors handed over —
//! the takeover of Figure 3.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use sc_core::{Addr, Effects, Input, Machine};
use sc_crypto::{NodeId, PublicKey};
use sc_cyclon::{CyclonMsg, CyclonNode, LegacyDescriptor};
use std::sync::Arc;

/// Shared roster of the colluding party (paper §II-C: members "collude
/// with each other, have mutual knowledge about the network, share the
/// same pool of node descriptors").
#[derive(Debug)]
pub struct LegacyParty {
    /// All malicious members as (id, address).
    pub members: Vec<(NodeId, Addr)>,
    /// Addresses of every node in the network (mutual knowledge), used
    /// for uniformly random victim selection.
    pub all_addrs: Vec<Addr>,
}

/// A legacy-Cyclon hub attacker.
#[derive(Debug)]
pub struct LegacyHubAttacker {
    inner: CyclonNode,
    party: Arc<LegacyParty>,
    attack_start: u64,
    swap_len: usize,
    rng: SmallRng,
    /// Whether an attack-mode shuffle is still awaiting its answer.
    awaiting: bool,
}

impl LegacyHubAttacker {
    /// Creates an attacker that behaves correctly (as `inner`) until
    /// `attack_start`, then floods `swap_len` malicious descriptors per
    /// exchange.
    pub fn new(
        inner: CyclonNode,
        party: Arc<LegacyParty>,
        attack_start: u64,
        swap_len: usize,
        rng_seed: [u8; 32],
    ) -> Self {
        assert!(swap_len > 0, "swap length must be positive");
        LegacyHubAttacker {
            inner,
            party,
            attack_start,
            swap_len,
            rng: SmallRng::from_seed(rng_seed),
            awaiting: false,
        }
    }

    /// The attacker's node id.
    pub fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn attacking(&self, cycle: u64) -> bool {
        cycle >= self.attack_start
    }

    /// Fabricates `k` fresh descriptors *routing* to random party members.
    ///
    /// Legacy Cyclon descriptors are unauthenticated, so the attacker mints
    /// a brand-new sybil ID per descriptor — defeating the victims'
    /// duplicate-ID filtering entirely — while the network address (the
    /// part that matters for control of traffic) belongs to the party.
    /// SecureCyclon closes exactly this hole: descriptors must be signed
    /// by their ID's key, and identity acquisition is assumed expensive
    /// (§II-A, Sybil resistance).
    fn fabricate(&mut self, k: usize) -> Vec<LegacyDescriptor> {
        let mut out = Vec::with_capacity(k);
        for _ in 0..k {
            let &(_, addr) = self
                .party
                .members
                .choose(&mut self.rng)
                .expect("party is never empty");
            let mut bytes = [0u8; 32];
            self.rng.fill_bytes(&mut bytes);
            bytes[0] = 2; // a well-formed (keyed-hash) identity tag
            let sybil = PublicKey::from_bytes(bytes).expect("tag 2 is valid");
            out.push(LegacyDescriptor::fresh(sybil, addr));
        }
        out
    }

    /// The attack-mode turn: correct rate, correct-looking exchange — but
    /// the payload points exclusively at the malicious party, and the
    /// victim is chosen uniformly at random (§II-C).
    fn attack_tick(&mut self) -> Option<(Addr, CyclonMsg)> {
        if self.awaiting || self.inner.exchange_in_flight() {
            return None;
        }
        let victim = self.party.all_addrs[self.rng.gen_range(0..self.party.all_addrs.len())];
        let descriptors = self.fabricate(self.swap_len);
        self.awaiting = true;
        Some((victim, CyclonMsg::Shuffle { descriptors }))
    }
}

impl Machine for LegacyHubAttacker {
    type Msg = CyclonMsg;

    /// Until the attack starts every input goes to the correct node inside.
    fn step(&mut self, input: Input<CyclonMsg>) -> Effects<CyclonMsg> {
        let mut fx = Effects::default();
        match input {
            Input::Tick { cycle, .. } if self.attacking(cycle) => fx.rpc = self.attack_tick(),
            // Swallow the victim's descriptors, answer with malicious ones.
            Input::Request {
                msg: CyclonMsg::Shuffle { .. },
                cycle,
                ..
            } if self.attacking(cycle) => {
                fx.reply = Some(CyclonMsg::ShuffleResponse {
                    descriptors: self.fabricate(self.swap_len),
                });
            }
            Input::Request { cycle, .. } if self.attacking(cycle) => {}
            // Whatever the victim returns is discarded: the attacker
            // destroys legitimate descriptors to starve the overlay.
            Input::Reply(_) | Input::Timeout if self.awaiting => self.awaiting = false,
            input => return self.inner.step(input),
        }
        fx
    }
}

/// A node in a mixed legacy network: honest or hub attacker.
#[derive(Debug)]
pub enum LegacyNet {
    /// A correct Cyclon node.
    Honest(Box<CyclonNode>),
    /// A colluding hub attacker.
    Malicious(Box<LegacyHubAttacker>),
}

impl LegacyNet {
    /// Whether this node is malicious.
    pub fn is_malicious(&self) -> bool {
        matches!(self, LegacyNet::Malicious(_))
    }

    /// The honest node's view, if honest.
    pub fn honest_view(&self) -> Option<&sc_cyclon::View> {
        match self {
            LegacyNet::Honest(n) => Some(n.view()),
            LegacyNet::Malicious(_) => None,
        }
    }
}

impl Machine for LegacyNet {
    type Msg = CyclonMsg;

    fn step(&mut self, input: Input<CyclonMsg>) -> Effects<CyclonMsg> {
        match self {
            LegacyNet::Honest(n) => n.step(input),
            LegacyNet::Malicious(n) => n.step(input),
        }
    }
}

/// Parameters for a mixed legacy-Cyclon network.
#[derive(Clone, Copy, Debug)]
pub struct LegacyNetParams {
    /// Total nodes.
    pub n: usize,
    /// Malicious nodes among them (addresses `0..n_malicious`).
    pub n_malicious: usize,
    /// Protocol configuration.
    pub cfg: sc_cyclon::CyclonConfig,
    /// Cycle at which the attack starts.
    pub attack_start: u64,
    /// Master seed.
    pub seed: u64,
}

/// Builds a ring-bootstrapped mixed legacy network. Returns the engine and
/// the set of malicious addresses (the hub attack is measured by where
/// links *route*, since sybil IDs defeat ID-based counting).
pub fn build_legacy_network(
    params: LegacyNetParams,
) -> (sc_sim::Engine<LegacyNet>, std::collections::HashSet<Addr>) {
    use sc_crypto::{Keypair, Scheme};
    let LegacyNetParams {
        n,
        n_malicious,
        cfg,
        attack_start,
        seed,
    } = params;
    assert!(n_malicious < n, "need at least one honest node");
    let keypairs: Vec<Keypair> = (0..n)
        .map(|i| {
            Keypair::from_seed(
                Scheme::KeyedHash,
                sc_sim::rng::derive_seed(seed, "identity", i as u64),
            )
        })
        .collect();
    let members: Vec<(NodeId, Addr)> = (0..n_malicious)
        .map(|i| (keypairs[i].public(), i as Addr))
        .collect();
    let party = Arc::new(LegacyParty {
        members,
        all_addrs: (0..n as Addr).collect(),
    });
    let mut engine = sc_sim::Engine::new(sc_sim::SimConfig::seeded(seed));
    for (i, kp) in keypairs.iter().enumerate() {
        let mut inner = CyclonNode::new(
            kp.public(),
            i as Addr,
            cfg,
            sc_sim::rng::derive_seed(seed, "node", i as u64),
        );
        let boots: Vec<(NodeId, Addr)> = (1..=4)
            .map(|k| {
                let j = (i + k) % n;
                (keypairs[j].public(), j as Addr)
            })
            .collect();
        inner.bootstrap(boots);
        let node = if i < n_malicious {
            LegacyNet::Malicious(Box::new(LegacyHubAttacker::new(
                inner,
                Arc::clone(&party),
                attack_start,
                cfg.swap_len,
                sc_sim::rng::derive_seed(seed, "attacker", i as u64),
            )))
        } else {
            LegacyNet::Honest(Box::new(inner))
        };
        engine.spawn_with(|_| node);
    }
    (engine, (0..n_malicious as Addr).collect())
}

/// Fraction of honest links routing to malicious addresses (the y-axis of
/// Figure 3).
pub fn legacy_malicious_link_fraction(
    engine: &sc_sim::Engine<LegacyNet>,
    malicious_addrs: &std::collections::HashSet<Addr>,
) -> f64 {
    let mut mal = 0usize;
    let mut total = 0usize;
    for (_, node) in engine.nodes() {
        let Some(view) = node.honest_view() else {
            continue;
        };
        for d in view.iter() {
            total += 1;
            if malicious_addrs.contains(&d.addr) {
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
