//! The malicious SecureCyclon participant.
//!
//! A malicious node speaks the SecureCyclon wire protocol well enough to
//! blend in — valid redemption certificates, a frequency-legal fresh
//! descriptor per cycle, plausible samples — but runs none of the §IV-B
//! defenses, ignores proofs, and deviates according to its
//! [`SecureAttack`] strategy once the agreed attack cycle arrives:
//!
//! * [`SecureAttack::Hub`] — presents views consisting exclusively of
//!   cloned party descriptors and harvests victims' descriptors as future
//!   redemption certificates (§VI-B).
//! * [`SecureAttack::Depletion`] — answers exchanges with an empty
//!   transfer list to bleed victims' views (§VI-C / Figure 6).
//! * [`SecureAttack::Cloner`] — double-spends one held descriptor when it
//!   reaches a target age, to probe the redemption cache (§VI-D /
//!   Figure 7).
//! * [`SecureAttack::Frequency`] — mints extra fresh descriptors inside a
//!   single cycle (the frequency violation of §III).
//! * [`SecureAttack::None`] — a permanently correct-ish control node.
//!
//! Like the honest node it is a sans-IO [`Machine`]: each round trip of
//! the exchange it initiates is one `rpc` effect, the exchange in between
//! is explicit state, and requests are served in any state — so the same
//! adversary runs in the simulator's engine and behind a socket.

use crate::party::SecureParty;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sc_core::{
    AcceptBody, Addr, DescriptorId, Effects, Input, LinkKind, Machine, RequestBody, RoundBody,
    RoundReplyBody, SecureConfig, SecureDescriptor, SecureMsg, Timestamp,
};
use sc_crypto::{Keypair, NodeId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// What a malicious node does once the attack starts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SecureAttack {
    /// Never deviates (control group).
    None,
    /// Hub attack: all-malicious views via pool cloning (Figure 5).
    Hub,
    /// Link-depletion: empty responses (Figure 6).
    Depletion,
    /// Age-targeted double-spend (Figure 7), each one recorded in the
    /// party's [`SecureParty::clone_events`]. Ages are in cycles.
    Cloner {
        /// Clone a held descriptor when its age reaches this value.
        target_age: u64,
    },
    /// Frequency violation: `extra` additional creations per cycle.
    Frequency {
        /// Extra fresh descriptors minted per cycle beyond the legal one.
        extra: u32,
    },
}

/// A record of one deliberate descriptor duplication (Figure 7 bookkeeping).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CloneEvent {
    /// Identity of the cloned descriptor.
    pub desc: DescriptorId,
    /// Descriptor age, in cycles, at duplication time.
    pub age_cycles: u64,
    /// Cycle the duplication happened.
    pub cycle: u64,
}

struct MalSession {
    partner: NodeId,
    remaining: usize,
}

/// An exchange this node initiated, between two of its round trips.
struct Exchange {
    partner_id: NodeId,
    partner_addr: Addr,
    /// The cycle of the turn; the whole exchange runs under it.
    cycle: u64,
    /// The round trip outstanding: 0 is the request, `1..s` the
    /// tit-for-tat rounds.
    round: usize,
}

/// A malicious SecureCyclon node.
pub struct MaliciousSecureNode {
    keypair: Keypair,
    id: NodeId,
    addr: Addr,
    phase: u64,
    view_len: usize,
    swap_len: usize,
    ticks_per_cycle: u64,
    tit_for_tat: bool,
    attack: SecureAttack,
    attack_start: u64,
    owned: Vec<SecureDescriptor>,
    party: Arc<Mutex<SecureParty>>,
    sessions: HashMap<Addr, MalSession>,
    /// Cloner state: the retained pre-state of a descriptor whose first
    /// copy has been sent, and who received that copy.
    pending_clone: Option<(SecureDescriptor, NodeId)>,
    /// Descriptor ids already cloned (each target descriptor is
    /// double-spent once).
    cloned_ids: std::collections::HashSet<DescriptorId>,
    rng: SmallRng,
    /// The exchange this node initiated and still awaits an answer to.
    exchange: Option<Exchange>,
}

impl core::fmt::Debug for MaliciousSecureNode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MaliciousSecureNode")
            .field("id", &self.id)
            .field("addr", &self.addr)
            .field("attack", &self.attack)
            .field("owned", &self.owned.len())
            .finish()
    }
}

impl MaliciousSecureNode {
    /// Creates a member of `party` that never deviates; ℓ, s, the tick
    /// resolution and the tit-for-tat flag are the honest nodes'.
    pub fn new(
        keypair: Keypair,
        addr: Addr,
        cfg: &SecureConfig,
        party: Arc<Mutex<SecureParty>>,
        rng_seed: [u8; 32],
        phase: u64,
    ) -> Self {
        let id = keypair.public();
        MaliciousSecureNode {
            keypair,
            id,
            addr,
            phase,
            view_len: cfg.view_len,
            swap_len: cfg.swap_len,
            ticks_per_cycle: cfg.ticks_per_cycle,
            tit_for_tat: cfg.tit_for_tat,
            attack: SecureAttack::None,
            attack_start: 0,
            owned: Vec::new(),
            party,
            sessions: HashMap::new(),
            pending_clone: None,
            cloned_ids: std::collections::HashSet::new(),
            rng: SmallRng::from_seed(rng_seed),
            exchange: None,
        }
    }

    /// Sets the strategy the node switches to at cycle `attack_start`.
    pub fn with_attack(mut self, attack: SecureAttack, attack_start: u64) -> Self {
        self.attack = attack;
        self.attack_start = attack_start;
        self
    }

    /// The node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Installs a bootstrap descriptor.
    pub fn accept_bootstrap(&mut self, desc: SecureDescriptor) {
        self.owned.push(desc);
    }

    /// Whether an exchange this node initiated is still awaiting its
    /// answer (an [`Input::Tick`] is a no-op until it resolves).
    pub fn exchange_in_flight(&self) -> bool {
        self.exchange.is_some()
    }

    fn attacking(&self, cycle: u64) -> bool {
        cycle >= self.attack_start && !matches!(self.attack, SecureAttack::None)
    }

    fn hub_attacking(&self, cycle: u64) -> bool {
        matches!(self.attack, SecureAttack::Hub) && self.attacking(cycle)
    }

    fn store_owned(&mut self, d: SecureDescriptor) {
        if d.owner() != self.id || d.is_redeemed() || d.creator() == self.id {
            return;
        }
        if self.owned.len() >= self.view_len * 2 {
            // Plenty of links already; drop the oldest.
            let idx = self
                .owned
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.created_at())
                .map(|(i, _)| i)
                .unwrap();
            self.owned.swap_remove(idx);
        }
        self.owned.push(d);
    }

    fn remove_oldest_owned(&mut self) -> Option<SecureDescriptor> {
        let idx = self
            .owned
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.created_at())
            .map(|(i, _)| i)?;
        Some(self.owned.swap_remove(idx))
    }

    fn remove_random_owned_excluding(&mut self, partner: &NodeId) -> Option<SecureDescriptor> {
        let candidates: Vec<usize> = self
            .owned
            .iter()
            .enumerate()
            .filter(|(_, d)| d.creator() != *partner)
            .map(|(i, _)| i)
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let idx = candidates[self.rng.gen_range(0..candidates.len())];
        Some(self.owned.swap_remove(idx))
    }

    /// Mints the cycle's fresh self-descriptor and contributes a copy of
    /// its genesis form to the party pool (§VI-B: "a central pool of
    /// descriptors, comprising copies of all the descriptors generated by
    /// malicious nodes in recent cycles").
    fn mint_fresh(&mut self, cycle: u64) -> SecureDescriptor {
        let created = cycle * self.ticks_per_cycle + self.phase;
        let fresh = SecureDescriptor::create(&self.keypair, self.addr, Timestamp(created));
        self.party.lock().unwrap().contribute_pool(fresh.clone());
        fresh
    }

    /// The next descriptor to hand a partner. Honest-mode behavior, with
    /// the cloner twist: descriptors that reached the target age are
    /// double-spent across two different partners.
    fn next_transfer(&mut self, partner: NodeId, cycle: u64) -> Option<SecureDescriptor> {
        if let SecureAttack::Cloner { target_age } = self.attack {
            if cycle >= self.attack_start {
                let now = Timestamp(cycle * self.ticks_per_cycle);
                // Second copy of a pending clone, to a *different* partner.
                if let Some((pre, first)) = self.pending_clone.take() {
                    if first != partner && pre.creator() != partner {
                        return pre.transfer(&self.keypair, partner).ok();
                    }
                    self.pending_clone = Some((pre, first));
                }
                // First copy of a descriptor that just reached target age.
                if self.pending_clone.is_none() {
                    let pos = self.owned.iter().position(|d| {
                        d.age_cycles(now, self.ticks_per_cycle) >= target_age
                            && d.creator() != partner
                            && !self.cloned_ids.contains(&d.id())
                            && !self.party.lock().unwrap().is_member(&d.creator())
                    });
                    if let Some(pos) = pos {
                        let pre = self.owned.swap_remove(pos);
                        let event = CloneEvent {
                            desc: pre.id(),
                            age_cycles: pre.age_cycles(now, self.ticks_per_cycle),
                            cycle,
                        };
                        self.cloned_ids.insert(pre.id());
                        // The search above has released its party lock.
                        self.party.lock().unwrap().register_clone(event);
                        let out = pre.transfer(&self.keypair, partner).ok();
                        self.pending_clone = Some((pre, partner));
                        return out;
                    }
                }
            }
        }
        let pre = self.remove_random_owned_excluding(&partner)?;
        pre.transfer(&self.keypair, partner).ok()
    }

    /// Correct-looking samples: copies of the owned set (pre-attack), or
    /// consistent snapshots of the malicious pool (hub attack — "a fake
    /// view consisting exclusively of descriptors to other malicious
    /// nodes", §VI-B).
    fn samples(&self, cycle: u64) -> Vec<SecureDescriptor> {
        if self.hub_attacking(cycle) {
            // Identical pool snapshots everywhere: samples alone never
            // conflict, maximizing the attack's stealth. The *transfers*
            // are where cloning is unavoidable.
            return Vec::new();
        }
        self.owned.clone()
    }

    // ------------------------------------------------------------------
    // Active side
    // ------------------------------------------------------------------

    /// [`Input::Tick`]: the turn up to its first round trip. Pre-attack
    /// and outside hub mode this is a protocol-conformant exchange; in hub
    /// mode the node redeems a harvested victim token and floods the
    /// victim with clones. The two differ in where the certificate, the
    /// transfers ([`Self::transfer_to`]) and the samples come from.
    fn on_tick(&mut self, cycle: u64) -> Option<(Addr, SecureMsg)> {
        if self.exchange.is_some() {
            return None;
        }
        self.sessions.clear();
        let now = cycle * self.ticks_per_cycle;
        self.party.lock().unwrap().prune_pool(Timestamp(now));

        // `None`: no certificate toward any (honest) node this cycle.
        let certificate = if self.hub_attacking(cycle) {
            self.take_victim_token()?
        } else {
            self.remove_oldest_owned()?
        };
        let partner_id = certificate.creator();
        let partner_addr = certificate.addr();
        let redeemed = certificate.redeem(&self.keypair, LinkKind::Redeem).ok()?;
        let fresh = self
            .mint_fresh(cycle)
            .transfer(&self.keypair, partner_id)
            .ok()?;

        let mut offered = Vec::new();
        if !self.tit_for_tat {
            for _ in 1..self.swap_len {
                offered.extend(self.transfer_to(partner_id, cycle));
            }
        }
        let mut samples = self.samples(cycle);
        if let (SecureAttack::Frequency { extra }, true) = (&self.attack, self.attacking(cycle)) {
            // Deliberate frequency violation: several creations within one
            // period, shipped as samples for victims to cross-check.
            for j in 0..*extra {
                let ts = Timestamp(now + self.phase + 1 + j as u64);
                samples.push(SecureDescriptor::create(&self.keypair, self.addr, ts));
            }
        }

        self.exchange = Some(Exchange {
            partner_id,
            partner_addr,
            cycle,
            round: 0,
        });
        let request = SecureMsg::Request(Box::new(RequestBody {
            redeemed,
            fresh,
            offered,
            samples,
            proofs: Vec::new(),
        }));
        Some((partner_addr, request))
    }

    /// Hub mode's certificate: prefer a harvested token; fall back to a
    /// legitimately owned honest descriptor.
    fn take_victim_token(&mut self) -> Option<SecureDescriptor> {
        let mut party = self.party.lock().unwrap();
        party.take_token_for(&self.id, &mut self.rng).or_else(|| {
            let pos = self
                .owned
                .iter()
                .position(|d| !party.is_member(&d.creator()))?;
            Some(self.owned.swap_remove(pos))
        })
    }

    /// The next descriptor to hand `partner`, on either side of an
    /// exchange: in hub mode a clone out of the party pool, otherwise one
    /// of the node's own.
    fn transfer_to(&mut self, partner: NodeId, cycle: u64) -> Option<SecureDescriptor> {
        if self.hub_attacking(cycle) {
            let mut party = self.party.lock().unwrap();
            party.clone_for_victim(&self.id, &partner, &mut self.rng)
        } else {
            self.next_transfer(partner, cycle)
        }
    }

    /// [`Input::Reply`] / [`Input::Timeout`]: resolves the outstanding
    /// round trip and, in tit-for-tat mode, opens the next round while
    /// the partner keeps answering in kind.
    fn on_outcome(&mut self, reply: Option<SecureMsg>) -> Option<(Addr, SecureMsg)> {
        let mut exchange = self.exchange.take()?;
        let received = match (exchange.round, reply?) {
            (0, SecureMsg::Accept(body)) => body.transfers,
            (1.., SecureMsg::RoundReply(body)) => body.transfer.into_iter().collect(),
            _ => return None,
        };
        let got_any = !received.is_empty();
        for d in received {
            self.harvest_or_store(d, exchange.cycle);
        }
        exchange.round += 1;
        if !(self.tit_for_tat && got_any) || exchange.round >= self.swap_len {
            return None;
        }
        let transfer = self.transfer_to(exchange.partner_id, exchange.cycle)?;
        let round = SecureMsg::Round(Box::new(RoundBody { transfer }));
        let rpc = (exchange.partner_addr, round);
        self.exchange = Some(exchange);
        Some(rpc)
    }

    /// Post-attack, received descriptors become party property: honest
    /// ones are stored as redemption certificates.
    fn harvest_or_store(&mut self, d: SecureDescriptor, cycle: u64) {
        if d.owner() != self.id || d.is_redeemed() {
            return;
        }
        if self.hub_attacking(cycle) {
            self.party.lock().unwrap().harvest_token(d);
        } else {
            self.store_owned(d);
        }
    }

    // ------------------------------------------------------------------
    // Passive side
    // ------------------------------------------------------------------

    fn answer_request(&mut self, from: Addr, body: RequestBody, cycle: u64) -> Option<SecureMsg> {
        // Malicious nodes validate nothing; they just harvest.
        let requester = body.fresh.creator();
        self.harvest_or_store(body.fresh, cycle);
        for d in body.offered {
            self.harvest_or_store(d, cycle);
        }

        if matches!(self.attack, SecureAttack::Depletion) && self.attacking(cycle) {
            // "Transmitting an empty view in response" (§VI-C).
            return Some(SecureMsg::Accept(Box::new(AcceptBody {
                transfers: Vec::new(),
                samples: Vec::new(),
                proofs: Vec::new(),
            })));
        }

        // A correct-looking response — made of pool clones in hub mode,
        // where a round session opens even if the pool had nothing to give.
        let immediate = if self.tit_for_tat { 1 } else { self.swap_len };
        let mut transfers = Vec::new();
        for _ in 0..immediate {
            transfers.extend(self.transfer_to(requester, cycle));
        }
        if self.tit_for_tat
            && self.swap_len > 1
            && (self.hub_attacking(cycle) || !transfers.is_empty())
        {
            self.sessions.insert(
                from,
                MalSession {
                    partner: requester,
                    remaining: self.swap_len - 1,
                },
            );
        }
        Some(SecureMsg::Accept(Box::new(AcceptBody {
            transfers,
            samples: self.samples(cycle),
            proofs: Vec::new(),
        })))
    }

    fn answer_round(&mut self, from: Addr, body: RoundBody, cycle: u64) -> Option<SecureMsg> {
        let partner = {
            let s = self.sessions.get_mut(&from)?;
            if s.remaining == 0 {
                return None;
            }
            s.remaining -= 1;
            s.partner
        };
        self.harvest_or_store(body.transfer, cycle);
        let transfer = self.transfer_to(partner, cycle);
        Some(SecureMsg::RoundReply(Box::new(RoundReplyBody { transfer })))
    }
}

impl Machine for MaliciousSecureNode {
    type Msg = SecureMsg;

    fn step(&mut self, input: Input) -> Effects {
        let mut fx = Effects::default();
        match input {
            Input::Tick { cycle } => fx.rpc = self.on_tick(cycle),
            Input::Reply(msg) => fx.rpc = self.on_outcome(Some(msg)),
            Input::Timeout => fx.rpc = self.on_outcome(None),
            Input::Request { from, msg, cycle } => {
                fx.reply = match msg {
                    SecureMsg::Request(body) => self.answer_request(from, *body, cycle),
                    SecureMsg::Round(body) => self.answer_round(from, *body, cycle),
                    _ => None,
                }
            }
            // Malicious nodes ignore and never relay proofs.
            Input::Oneway { .. } => {}
        }
        fx
    }
}
