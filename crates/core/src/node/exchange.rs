//! The active side: one gossip turn per cycle (§IV-A, §V-B), as an
//! explicit in-flight exchange between round trips.
//!
//! A turn is `held join pings → housekeeping → backfill → begin the
//! exchange → (one round trip per `rpc` effect) → backfill → rejoin ping
//! → floods → checkpoint`.
//! Everything an exchange offers leaves the view *before* the effect that
//! carries it is returned, so a request served while the exchange is in
//! flight can never transfer the same descriptor a second time.

use super::{Effects, SecureCyclonNode};
use crate::descriptor::{LinkKind, SecureDescriptor};
use crate::msg::{AcceptBody, JoinGrantBody, JoinPingBody, RequestBody, RoundBody, SecureMsg};
use crate::time::Timestamp;
use crate::view::ViewEntry;
use crate::Addr;
use rand::seq::SliceRandom;
use sc_crypto::NodeId;
use std::collections::VecDeque;

/// Cycles between rejoin-ping volleys while starved.
const REJOIN_RETRY_CYCLES: u64 = 2;
/// Addresses pinged per rejoin volley.
const REJOIN_FANOUT: usize = 3;

/// An exchange this node initiated, between two of its round trips.
pub(super) struct Exchange {
    partner_id: NodeId,
    partner_addr: Addr,
    /// Ownership transfers each side performs in total (§V-A rule 3).
    quota: usize,
    /// The cycle of the tick that began the turn; the whole turn runs
    /// under it, however late the answers arrive.
    cycle: u64,
    awaiting: Awaiting,
}

/// What the outstanding round trip will answer.
enum Awaiting {
    /// The request; `offered_pre` are the pre-transfer copies of what it
    /// offered eagerly (empty in tit-for-tat mode).
    Accept { offered_pre: Vec<SecureDescriptor> },
    /// Tit-for-tat round `round` (of `1..quota`), which handed `pre` over.
    Round { pre: SecureDescriptor, round: usize },
}

impl SecureCyclonNode {
    /// Everything a sponsorship hands a joiner (§V-A, §IV-C), to be
    /// stepped into it as a [`SecureMsg::JoinGrant`]: a descriptor this
    /// cycle's fresh-descriptor budget is spent on instead of a gossip
    /// exchange, transferred to `joiner`, and every proof this node holds
    /// — a newcomer knows no culprit yet, and a node starved through a
    /// partition missed the floods of that time. `None` if this cycle's
    /// budget is already spent.
    pub fn sponsor(&mut self, joiner: NodeId, cycle: u64) -> Option<JoinGrantBody> {
        if !self.may_emit(cycle) || joiner == self.id {
            return None;
        }
        // Durable before the grant leaves: a crash between the send and
        // the next checkpoint must not let a restarted self re-mint.
        self.note_emission(cycle);
        let descriptor = self.mint(cycle).transfer(&self.keypair, joiner).ok()?;
        self.stats.transfers_sent += 1;
        Some(JoinGrantBody {
            descriptor,
            proofs: self.export_proofs(),
        })
    }

    /// This node's one descriptor of `cycle`, stamped at the node's phase
    /// into the cycle: `cycle · ticks_per_cycle + phase`. Every mint goes
    /// through here, so two of them lie whole periods apart and never
    /// make a frequency proof (§IV-B).
    fn mint(&self, cycle: u64) -> SecureDescriptor {
        let created = cycle * self.cfg.ticks_per_cycle + self.phase;
        SecureDescriptor::create(&self.keypair, self.addr, Timestamp(created))
    }

    /// [`super::Input::Tick`]: the turn up to its first round trip.
    pub(super) fn on_tick(&mut self, cycle: u64, fx: &mut Effects) {
        if self.exchange.is_some() {
            return;
        }
        // The pings held since the budget ran out: the first one granted
        // spends this turn's budget, and the rest go unanswered, as a
        // ping always may — its sender pings again.
        for (from, joiner) in std::mem::take(&mut self.held_pings) {
            if self.may_emit(cycle) {
                self.answer_join_ping(from, joiner, cycle, &mut fx.sends);
            }
        }
        self.housekeeping(cycle);
        self.backfill(cycle);
        if !self.view.is_empty() {
            self.was_connected = true;
        }
        if self.may_emit(cycle) {
            fx.rpc = self.begin_exchange(cycle);
        }
        if fx.rpc.is_none() {
            self.finish_turn(cycle, fx);
        }
    }

    /// [`super::Input::Reply`] / [`super::Input::Timeout`]: resolves the
    /// outstanding round trip, then either opens the next tit-for-tat
    /// round or ends the turn.
    pub(super) fn on_outcome(&mut self, reply: Option<SecureMsg>, fx: &mut Effects) {
        let Some(exchange) = self.exchange.take() else {
            return;
        };
        let Exchange {
            partner_id,
            partner_addr,
            quota,
            cycle,
            awaiting,
        } = exchange;
        let next_round = match awaiting {
            Awaiting::Accept { offered_pre } => self
                .on_accept_outcome(reply, offered_pre, partner_id, quota, cycle)
                .then_some(1),
            Awaiting::Round { pre, round } => self
                .on_round_outcome(reply, pre, partner_id, cycle)
                .then_some(round + 1),
        };
        if let Some(round) = next_round {
            fx.rpc = self.begin_round(partner_id, partner_addr, round, quota, cycle);
        }
        if fx.rpc.is_none() {
            self.finish_turn(cycle, fx);
        }
    }

    /// The tail of every turn, run once its exchange (if any) resolved.
    fn finish_turn(&mut self, cycle: u64, fx: &mut Effects) {
        self.backfill(cycle);
        self.maybe_rejoin_ping(cycle, &mut fx.sends);
        fx.flood = self.drain_floods();
        self.checkpoint(cycle);
    }

    /// Redeems the oldest descriptor and mints this cycle's fresh one;
    /// returns the request for the redeemed descriptor's creator. `None`:
    /// nothing to exchange this cycle.
    fn begin_exchange(&mut self, cycle: u64) -> Option<(Addr, SecureMsg)> {
        let Some(entry) = self.pick_oldest() else {
            self.stats.idle_cycles += 1;
            return None;
        };
        let partner_id = entry.desc.creator();
        let partner_addr = entry.desc.addr();
        self.remember_partner(partner_id, partner_addr);
        let kind = if entry.non_swappable {
            LinkKind::RedeemNonSwappable
        } else {
            LinkKind::Redeem
        };
        let redeemed = entry.desc.redeem(&self.keypair, kind).ok()?;
        self.note_spent(entry.desc.state_digest(), cycle);
        // Keep the redeemed copy circulating as a sample (§V-C).
        self.redemptions.push(redeemed.clone(), cycle);

        // Durable before the descriptor leaves (the crash-restart
        // frequency bugfix): once the marker is on disk, a `kill -9`
        // anywhere past this line cannot make the restarted self mint a
        // second descriptor inside this gossip period.
        self.note_emission(cycle);
        let fresh_out = self.mint(cycle).transfer(&self.keypair, partner_id).ok()?;
        self.stats.transfers_sent += 1;

        let quota = self.exchange_quota(kind);
        let mut offered = Vec::new();
        let mut offered_pre = Vec::new();
        if !self.cfg.tit_for_tat {
            for pre in self.view.remove_random_swappable_filtered(
                quota.saturating_sub(1),
                &mut self.rng,
                |d| d.creator() != partner_id,
            ) {
                if let Some(t) = self.hand_over(&pre, partner_id, cycle) {
                    self.stats.transfers_sent += 1;
                    offered.push(t);
                    offered_pre.push(pre);
                }
            }
        }

        // The certificate's copy sits in the redemption cache by now, but
        // the request carries it already, as `redeemed`.
        let mut samples = self.collect_samples();
        samples.retain(|d| d.state_digest() != redeemed.state_digest());
        let request = SecureMsg::Request(Box::new(RequestBody {
            redeemed,
            fresh: fresh_out,
            offered,
            samples,
            proofs: self.recent_proofs(cycle, &[]),
        }));
        self.stats.initiated += 1;
        self.exchange = Some(Exchange {
            partner_id,
            partner_addr,
            quota,
            cycle,
            awaiting: Awaiting::Accept { offered_pre },
        });
        Some((partner_addr, request))
    }

    /// Resolves the request's round trip. Returns whether tit-for-tat
    /// rounds follow.
    fn on_accept_outcome(
        &mut self,
        reply: Option<SecureMsg>,
        offered_pre: Vec<SecureDescriptor>,
        partner_id: NodeId,
        quota: usize,
        cycle: u64,
    ) -> bool {
        let Some(SecureMsg::Accept(body)) = reply else {
            // §V-A cases 1 and 2: the redeemed descriptor is spent and
            // the fresh one may or may not have been delivered; the
            // view descriptors shipped alongside cannot be reused as
            // owned, but non-swappable copies may be retained.
            self.stats.timeouts += 1;
            for pre in offered_pre {
                self.lose_to_ns(pre);
            }
            return false;
        };
        self.stats.completed += 1;
        let AcceptBody {
            transfers,
            samples,
            proofs,
        } = *body;
        self.process_proofs(&proofs, cycle);
        for s in &samples {
            let _ = self.absorb(s, None, cycle);
        }
        if self.blacklist.contains(&partner_id) {
            return false;
        }
        for pre in offered_pre {
            self.remember_transfer(pre);
        }
        let expect = if self.cfg.tit_for_tat { 1 } else { quota };
        let got_any = !transfers.is_empty();
        // One verification pass over every transfer about to be relied on.
        let incoming: Vec<&SecureDescriptor> = transfers.iter().take(expect).collect();
        let verdicts: Vec<bool> =
            SecureDescriptor::verify_batch(&incoming, &mut self.verify_scratch)
                .iter()
                .map(Result::is_ok)
                .collect();
        for (t, verified) in transfers.into_iter().zip(verdicts) {
            self.accept_verified_transfer(t, verified, partner_id, cycle);
        }
        self.cfg.tit_for_tat && got_any
    }

    /// Opens tit-for-tat round `round`: hands one more descriptor over.
    /// `None`: the quota is met or nothing is left to trade.
    fn begin_round(
        &mut self,
        partner_id: NodeId,
        partner_addr: Addr,
        round: usize,
        quota: usize,
        cycle: u64,
    ) -> Option<(Addr, SecureMsg)> {
        if round >= quota {
            return None;
        }
        let pre = self
            .view
            .remove_random_swappable_filtered(1, &mut self.rng, |d| d.creator() != partner_id)
            .into_iter()
            .next()?;
        let out = self.hand_over(&pre, partner_id, cycle)?;
        self.stats.transfers_sent += 1;
        self.exchange = Some(Exchange {
            partner_id,
            partner_addr,
            quota,
            cycle,
            awaiting: Awaiting::Round { pre, round },
        });
        let round = SecureMsg::Round(Box::new(RoundBody { transfer: out }));
        Some((partner_addr, round))
    }

    /// Resolves one tit-for-tat round trip. Returns whether the exchange
    /// goes on.
    fn on_round_outcome(
        &mut self,
        reply: Option<SecureMsg>,
        pre: SecureDescriptor,
        partner_id: NodeId,
        cycle: u64,
    ) -> bool {
        let answer = match reply {
            Some(SecureMsg::RoundReply(reply)) => reply.transfer,
            _ => None,
        };
        let Some(d) = answer else {
            // Timeout, or the partner quit halfway: our transfer is
            // gone, keep a non-swappable copy (§V-A).
            self.lose_to_ns(pre);
            return false;
        };
        self.remember_transfer(pre);
        self.accept_transfer(d, partner_id, cycle);
        !self.blacklist.contains(&partner_id)
    }

    /// Records the pre-transfer copy of a descriptor whose ownership was
    /// handed over in an exchange that then failed: the node "is allowed
    /// to keep a copy of a descriptor whose ownership it has transferred
    /// to some other peer, marking it as non-swappable" (§V-A).
    fn lose_to_ns(&mut self, pre: SecureDescriptor) {
        if self.pending_ns.len() == super::TRANSFER_HISTORY_LEN {
            self.pending_ns.pop_front();
        }
        self.pending_ns.push_back(pre);
    }

    /// Fills empty view slots: first with fully owned descriptors parked
    /// in the reserve (swappable), then — at most once per cycle — with a
    /// non-swappable copy of a recently transferred descriptor (§V-A).
    /// What is too old to redeem or offer is dropped on the way.
    fn backfill(&mut self, cycle: u64) {
        let oldest = self.oldest_owned(cycle);
        if self.view.free_slots() > 0 && !self.reserve.is_empty() {
            let mut keep = VecDeque::with_capacity(self.reserve.len());
            while let Some(d) = self.reserve.pop_front() {
                if self.blacklist.contains(&d.creator()) || d.created_at().ticks() < oldest {
                    continue;
                }
                // An adversary can deliver the same state twice in one
                // cycle — the duplicate parks here while the original is
                // spent from the view. Letting it re-circulate would make
                // this node double-sign that state (a provable cloning
                // violation against *us*), so a spent state dies in the
                // reserve.
                if self.spent.contains(&d.state_digest()) {
                    continue;
                }
                if self.view.can_insert(&d) {
                    self.view.insert(d, false);
                } else if let Some(d) = self.view.try_replace_ns_with(d) {
                    keep.push_back(d);
                }
            }
            self.reserve = keep;
        }
        if self.last_ns_backfill == Some(cycle) {
            return;
        }
        while self.view.free_slots() > 0 {
            let cand = match self.pending_ns.pop_back() {
                Some(c) => c,
                None => {
                    // The general history only repairs *persistent* damage
                    // (two or more missing slots); transient single-slot
                    // gaps heal through the reserve and ordinary exchanges,
                    // keeping non-swappable links at ≈0% in healthy
                    // networks (Figure 6 baseline).
                    if self.view.free_slots() < 2 {
                        return;
                    }
                    match self.transfer_history.pop_back() {
                        Some(c) => c,
                        None => return,
                    }
                }
            };
            if self.blacklist.contains(&cand.creator()) || cand.created_at().ticks() < oldest {
                continue;
            }
            if self.view.insert(cand, true) {
                self.stats.ns_backfills += 1;
                self.last_ns_backfill = Some(cycle);
                return;
            }
        }
    }

    /// Removes and returns the oldest non-blacklisted view entry.
    fn pick_oldest(&mut self) -> Option<ViewEntry> {
        loop {
            let entry = self.view.remove_oldest()?;
            if !self.blacklist.contains(&entry.desc.creator()) {
                return Some(entry);
            }
        }
    }

    /// Moves `id` to the newest end of the partner memory, evicting the
    /// oldest partner when it is full.
    fn remember_partner(&mut self, id: NodeId, addr: Addr) {
        self.recent_partners.retain(|&(known, _)| known != id);
        if self.recent_partners.len() == super::RECENT_PARTNERS_LEN {
            self.recent_partners.pop_front();
        }
        self.recent_partners.push_back((id, addr));
    }

    /// §V-A re-sponsorship initiated by the starved node itself: a node
    /// that *was* connected but whose view, reserve, and back-fill pools
    /// have all drained (e.g. a partition outlasted every descriptor)
    /// pings a few recently sampled creator addresses asking to be
    /// sponsored back in — or, once every sample has expired (a cut at
    /// least a window long), its latest exchange partners. Receivers
    /// answer with a [`SecureMsg::JoinGrant`].
    fn maybe_rejoin_ping(&mut self, cycle: u64, sends: &mut Vec<(Addr, SecureMsg)>) {
        if !self.was_connected || !self.starved() {
            return;
        }
        if let Some(last) = self.last_rejoin_ping {
            if cycle < last.saturating_add(REJOIN_RETRY_CYCLES) {
                return;
            }
        }
        // Candidate sponsors: creators this node recently heard from.
        // Sorted before sampling so the choice depends only on the RNG
        // stream, not on hash-map iteration order.
        let mut candidates: Vec<Addr> = self
            .samples
            .descriptors()
            .chain(self.redemptions.iter())
            .filter(|d| d.creator() != self.id && !self.blacklist.contains(&d.creator()))
            .map(|d| d.addr())
            .filter(|a| *a != self.addr)
            .collect();
        if candidates.is_empty() {
            candidates.extend(
                self.recent_partners
                    .iter()
                    .filter(|(id, _)| !self.blacklist.contains(id))
                    .map(|&(_, addr)| addr),
            );
        }
        candidates.sort_unstable();
        candidates.dedup();
        if candidates.is_empty() {
            return;
        }
        let (chosen, _) = candidates.partial_shuffle(&mut self.rng, REJOIN_FANOUT);
        self.stats.rejoin_pings += chosen.len() as u64;
        sends.extend(chosen.iter().map(|&addr| {
            let ping = SecureMsg::JoinPing(Box::new(JoinPingBody { joiner: self.id }));
            (addr, ping)
        }));
        self.last_rejoin_ping = Some(cycle);
    }

    /// Whether every source of view links has drained.
    fn starved(&self) -> bool {
        self.view.is_empty()
            && self.reserve.is_empty()
            && self.pending_ns.is_empty()
            && self.transfer_history.is_empty()
    }
}
