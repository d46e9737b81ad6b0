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

use crate::party::SecureParty;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sc_core::{
    AcceptBody, DescriptorId, LinkKind, RequestBody, RoundBody, RoundReplyBody, SecureDescriptor,
    SecureMsg, Timestamp,
};
use sc_crypto::{Keypair, NodeId};
use sc_sim::{Addr, CycleCtx, NodeCtx, RpcOutcome, SimNode};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// What a malicious node does once the attack starts.
#[derive(Clone, Debug)]
pub enum SecureAttack {
    /// Never deviates (control group).
    None,
    /// Hub attack: all-malicious views via pool cloning (Figure 5).
    Hub,
    /// Link-depletion: empty responses (Figure 6).
    Depletion,
    /// Age-targeted double-spend (Figure 7). Ages are in cycles.
    Cloner {
        /// Clone a held descriptor when its age reaches this value.
        target_age: u64,
        /// Shared ledger recording clone events for measurement.
        ledger: Arc<Mutex<CloneLedger>>,
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

/// Shared ledger of clone events, filled by attackers and read by the
/// experiment harness to compute detection ratios.
#[derive(Debug, Default)]
pub struct CloneLedger {
    /// All duplication events in order.
    pub events: Vec<CloneEvent>,
}

impl CloneLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a duplication.
    pub fn register(&mut self, desc: DescriptorId, age_cycles: u64, cycle: u64) {
        self.events.push(CloneEvent {
            desc,
            age_cycles,
            cycle,
        });
    }
}

struct MalSession {
    partner: NodeId,
    remaining: usize,
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
    /// Creates a malicious node.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        keypair: Keypair,
        addr: Addr,
        view_len: usize,
        swap_len: usize,
        ticks_per_cycle: u64,
        tit_for_tat: bool,
        attack: SecureAttack,
        attack_start: u64,
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
            view_len,
            swap_len,
            ticks_per_cycle,
            tit_for_tat,
            attack,
            attack_start,
            owned: Vec::new(),
            party,
            sessions: HashMap::new(),
            pending_clone: None,
            cloned_ids: std::collections::HashSet::new(),
            rng: SmallRng::from_seed(rng_seed),
        }
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

    fn attacking(&self, cycle: u64) -> bool {
        cycle >= self.attack_start && !matches!(self.attack, SecureAttack::None)
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
    fn mint_fresh(&mut self, now: u64) -> SecureDescriptor {
        let fresh = SecureDescriptor::create(&self.keypair, self.addr, Timestamp(now + self.phase));
        self.party.lock().unwrap().contribute_pool(fresh.clone());
        fresh
    }

    /// The next descriptor to hand a partner. Honest-mode behavior, with
    /// the cloner twist: descriptors that reached the target age are
    /// double-spent across two different partners.
    fn next_transfer(&mut self, partner: NodeId, cycle: u64, now: u64) -> Option<SecureDescriptor> {
        if let SecureAttack::Cloner { target_age, ledger } = &self.attack {
            let target_age = *target_age;
            let ledger = Arc::clone(ledger);
            if cycle >= self.attack_start {
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
                        d.age_cycles(Timestamp(now), self.ticks_per_cycle) >= target_age
                            && d.creator() != partner
                            && !self.cloned_ids.contains(&d.id())
                            && !self.party.lock().unwrap().is_member(&d.creator())
                    });
                    if let Some(pos) = pos {
                        let pre = self.owned.swap_remove(pos);
                        let age = pre.age_cycles(Timestamp(now), self.ticks_per_cycle);
                        self.cloned_ids.insert(pre.id());
                        ledger.lock().unwrap().register(pre.id(), age, cycle);
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
    fn samples(&mut self, cycle: u64) -> Vec<SecureDescriptor> {
        if matches!(self.attack, SecureAttack::Hub) && self.attacking(cycle) {
            let party = self.party.lock().unwrap();
            let _ = &party;
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

    /// The active-thread logic, generic for wrapper enums.
    pub fn on_cycle_any<N: SimNode<Msg = SecureMsg>>(&mut self, ctx: &mut CycleCtx<'_, N>) {
        let cycle = ctx.cycle();
        let now = ctx.now();
        self.sessions.clear();
        self.party.lock().unwrap().prune_pool(Timestamp(now));

        if matches!(self.attack, SecureAttack::Hub) && self.attacking(cycle) {
            self.hub_initiate(ctx, cycle, now);
        } else {
            self.correct_initiate(ctx, cycle, now);
        }
    }

    /// Pre-attack / non-hub initiation: a protocol-conformant exchange.
    fn correct_initiate<N: SimNode<Msg = SecureMsg>>(
        &mut self,
        ctx: &mut CycleCtx<'_, N>,
        cycle: u64,
        now: u64,
    ) {
        let Some(oldest) = self.remove_oldest_owned() else {
            return;
        };
        let partner_id = oldest.creator();
        let partner_addr = oldest.addr();
        let Ok(redeemed) = oldest.redeem(&self.keypair, LinkKind::Redeem) else {
            return;
        };
        let fresh = self.mint_fresh(now);
        let Ok(fresh_out) = fresh.transfer(&self.keypair, partner_id) else {
            return;
        };

        let mut offered = Vec::new();
        if !self.tit_for_tat {
            for _ in 1..self.swap_len {
                if let Some(t) = self.next_transfer(partner_id, cycle, now) {
                    offered.push(t);
                }
            }
        }
        let extra = if let SecureAttack::Frequency { extra } = self.attack {
            if self.attacking(cycle) {
                extra
            } else {
                0
            }
        } else {
            0
        };
        let mut samples = self.samples(cycle);
        for j in 0..extra {
            // Deliberate frequency violation: several creations within one
            // period, shipped as samples for victims to cross-check.
            let ts = Timestamp(now + self.phase + 1 + j as u64);
            samples.push(SecureDescriptor::create(&self.keypair, self.addr, ts));
        }

        let request = SecureMsg::Request(Box::new(RequestBody {
            redeemed,
            fresh: fresh_out,
            offered,
            samples,
            proofs: Vec::new(),
        }));
        if let RpcOutcome::Reply(SecureMsg::Accept(body)) = ctx.rpc(partner_addr, request) {
            let got_any = !body.transfers.is_empty();
            for t in body.transfers {
                self.harvest_or_store(t, cycle);
            }
            if self.tit_for_tat && got_any {
                for _ in 1..self.swap_len {
                    let Some(out) = self.next_transfer(partner_id, cycle, now) else {
                        break;
                    };
                    match ctx.rpc(
                        partner_addr,
                        SecureMsg::Round(Box::new(RoundBody { transfer: out })),
                    ) {
                        RpcOutcome::Reply(SecureMsg::RoundReply(r)) => match r.transfer {
                            Some(d) => self.harvest_or_store(d, cycle),
                            None => break,
                        },
                        _ => break,
                    }
                }
            }
        }
    }

    /// Hub-mode initiation: redeem a harvested victim token and flood the
    /// victim with clones.
    fn hub_initiate<N: SimNode<Msg = SecureMsg>>(
        &mut self,
        ctx: &mut CycleCtx<'_, N>,
        cycle: u64,
        now: u64,
    ) {
        // Prefer a harvested token; fall back to a legitimately owned
        // honest descriptor.
        let token = {
            let mut party = self.party.lock().unwrap();
            party.take_token_for(&self.id, &mut self.rng)
        }
        .or_else(|| {
            let party = self.party.lock().unwrap();
            let pos = self
                .owned
                .iter()
                .position(|d| !party.is_member(&d.creator()));
            drop(party);
            pos.map(|p| self.owned.swap_remove(p))
        });
        let Some(token) = token else {
            return; // no certificate toward any honest node this cycle
        };
        let victim_id = token.creator();
        let victim_addr = token.addr();
        let Ok(redeemed) = token.redeem(&self.keypair, LinkKind::Redeem) else {
            return;
        };
        let fresh = self.mint_fresh(now);
        let Ok(fresh_out) = fresh.transfer(&self.keypair, victim_id) else {
            return;
        };

        let mut offered = Vec::new();
        if !self.tit_for_tat {
            let mut party = self.party.lock().unwrap();
            for _ in 1..self.swap_len {
                if let Some(c) = party.clone_for_victim(&self.id, &victim_id, &mut self.rng) {
                    offered.push(c);
                }
            }
        }

        let request = SecureMsg::Request(Box::new(RequestBody {
            redeemed,
            fresh: fresh_out,
            offered,
            samples: Vec::new(),
            proofs: Vec::new(),
        }));
        if let RpcOutcome::Reply(SecureMsg::Accept(body)) = ctx.rpc(victim_addr, request) {
            let got_any = !body.transfers.is_empty();
            for t in body.transfers {
                self.harvest_or_store(t, cycle);
            }
            if self.tit_for_tat && got_any {
                for _ in 1..self.swap_len {
                    let clone = {
                        let mut party = self.party.lock().unwrap();
                        party.clone_for_victim(&self.id, &victim_id, &mut self.rng)
                    };
                    let Some(out) = clone else { break };
                    match ctx.rpc(
                        victim_addr,
                        SecureMsg::Round(Box::new(RoundBody { transfer: out })),
                    ) {
                        RpcOutcome::Reply(SecureMsg::RoundReply(r)) => match r.transfer {
                            Some(d) => self.harvest_or_store(d, cycle),
                            None => break,
                        },
                        _ => break,
                    }
                }
            }
        }
    }

    /// Post-attack, received descriptors become party property: honest
    /// ones are stored as redemption certificates.
    fn harvest_or_store(&mut self, d: SecureDescriptor, cycle: u64) {
        if d.owner() != self.id || d.is_redeemed() {
            return;
        }
        if self.attacking(cycle) && matches!(self.attack, SecureAttack::Hub) {
            self.party.lock().unwrap().harvest_token(d);
        } else {
            self.store_owned(d);
        }
    }

    // ------------------------------------------------------------------
    // Passive side
    // ------------------------------------------------------------------

    /// The RPC-server logic, reusable by wrapper enums.
    pub fn on_rpc_any(
        &mut self,
        from: Addr,
        msg: SecureMsg,
        ctx: &mut NodeCtx<'_, SecureMsg>,
    ) -> Option<SecureMsg> {
        let cycle = ctx.cycle();
        let now = ctx.now();
        match msg {
            SecureMsg::Request(body) => self.answer_request(from, *body, cycle, now),
            SecureMsg::Round(body) => self.answer_round(from, *body, cycle, now),
            _ => None,
        }
    }

    fn answer_request(
        &mut self,
        from: Addr,
        body: RequestBody,
        cycle: u64,
        now: u64,
    ) -> Option<SecureMsg> {
        // Malicious nodes validate nothing; they just harvest.
        let requester = body.fresh.creator();
        self.harvest_or_store(body.fresh, cycle);
        for d in body.offered {
            self.harvest_or_store(d, cycle);
        }

        if self.attacking(cycle) {
            match &self.attack {
                SecureAttack::Depletion => {
                    // "Transmitting an empty view in response" (§VI-C).
                    return Some(SecureMsg::Accept(Box::new(AcceptBody {
                        transfers: Vec::new(),
                        samples: Vec::new(),
                        proofs: Vec::new(),
                    })));
                }
                SecureAttack::Hub => {
                    let clone = {
                        let mut party = self.party.lock().unwrap();
                        party.clone_for_victim(&self.id, &requester, &mut self.rng)
                    };
                    let transfers: Vec<_> = if self.tit_for_tat {
                        clone.into_iter().collect()
                    } else {
                        let mut party = self.party.lock().unwrap();
                        let mut v: Vec<_> = clone.into_iter().collect();
                        for _ in 1..self.swap_len {
                            if let Some(c) =
                                party.clone_for_victim(&self.id, &requester, &mut self.rng)
                            {
                                v.push(c);
                            }
                        }
                        v
                    };
                    if self.tit_for_tat && self.swap_len > 1 {
                        self.sessions.insert(
                            from,
                            MalSession {
                                partner: requester,
                                remaining: self.swap_len - 1,
                            },
                        );
                    }
                    return Some(SecureMsg::Accept(Box::new(AcceptBody {
                        transfers,
                        samples: Vec::new(),
                        proofs: Vec::new(),
                    })));
                }
                _ => {}
            }
        }

        // Correct-looking response.
        let immediate = if self.tit_for_tat { 1 } else { self.swap_len };
        let mut transfers = Vec::new();
        for _ in 0..immediate {
            if let Some(t) = self.next_transfer(requester, cycle, now) {
                transfers.push(t);
            }
        }
        if self.tit_for_tat && self.swap_len > 1 && !transfers.is_empty() {
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

    fn answer_round(
        &mut self,
        from: Addr,
        body: RoundBody,
        cycle: u64,
        now: u64,
    ) -> Option<SecureMsg> {
        let partner = {
            let s = self.sessions.get_mut(&from)?;
            if s.remaining == 0 {
                return None;
            }
            s.remaining -= 1;
            s.partner
        };
        self.harvest_or_store(body.transfer, cycle);
        let transfer = if self.attacking(cycle) && matches!(self.attack, SecureAttack::Hub) {
            let mut party = self.party.lock().unwrap();
            party.clone_for_victim(&self.id, &partner, &mut self.rng)
        } else {
            self.next_transfer(partner, cycle, now)
        };
        Some(SecureMsg::RoundReply(Box::new(RoundReplyBody { transfer })))
    }
}

impl SimNode for MaliciousSecureNode {
    type Msg = SecureMsg;

    fn on_cycle(&mut self, ctx: &mut CycleCtx<'_, Self>) {
        self.on_cycle_any(ctx);
    }

    fn on_rpc(
        &mut self,
        from: Addr,
        msg: Self::Msg,
        ctx: &mut NodeCtx<'_, Self::Msg>,
    ) -> Option<Self::Msg> {
        self.on_rpc_any(from, msg, ctx)
    }

    fn on_oneway(&mut self, _from: Addr, _msg: Self::Msg, _ctx: &mut NodeCtx<'_, Self::Msg>) {
        // Malicious nodes ignore and never relay proofs.
    }
}
