//! The hub attack against **legacy** Cyclon (paper §II-B, Figure 3).
//!
//! The attacker is a sans-IO [`Machine`], like every adversary here, and
//! speaks `CyclonMsg` rather than `SecureMsg`. Its network is built like
//! any other: `sc-testkit`'s `CyclonNetwork` boots a scenario's hub
//! attackers as [`LegacyHubAttacker`]s sharing one [`LegacyParty`], and
//! the one scenario runner steps it, as it steps SecureCyclon's.
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
use sc_crypto::PublicKey;
use sc_cyclon::{CyclonMsg, CyclonNode, LegacyDescriptor};
use std::sync::Arc;

/// Shared roster of the colluding party (paper §II-C: members "collude
/// with each other, have mutual knowledge about the network, share the
/// same pool of node descriptors").
#[derive(Debug)]
pub struct LegacyParty {
    /// The addresses of all malicious members.
    pub members: Vec<Addr>,
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
            let &addr = self
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
