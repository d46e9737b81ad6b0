//! Everything the node takes in: descriptor verification and the §IV-B
//! checks, ownership transfers, and the passive side of an exchange
//! (§IV-A redemption validation, the §V-A non-swappable restrictions,
//! tit-for-tat rounds, join pings).

use super::{Discard, Effects, Refusal, Rejection, SecureCyclonNode, Session};
use crate::checks::Observation;
use crate::descriptor::{LinkKind, SecureDescriptor};
use crate::msg::{AcceptBody, JoinGrantBody, RequestBody, RoundBody, RoundReplyBody, SecureMsg};
use crate::time::Timestamp;
use crate::Addr;
use sc_crypto::{FxHashSet, NodeId};

/// Minimum cycles between sponsorships granted to pings — a ping flood
/// must not permanently consume a node's per-cycle descriptor budget.
const JOIN_GRANT_GAP_CYCLES: u64 = 4;

/// Cap on held join pings: they come from peers nobody has authenticated.
const HELD_PING_CAP: usize = 8;

/// Maximum accepted deviation between a *fresh* descriptor's timestamp and
/// the tick the receiver's current cycle starts at, in ticks, on top of
/// one gossip period (§IV-A clock-skew review).
const MAX_SKEW_TICKS: u64 = 1000;

/// Maximum non-swappable redemptions a creator accepts per cycle (§V-A,
/// restriction 2).
const MAX_NS_REDEMPTIONS_PER_CYCLE: u32 = 1;

impl SecureCyclonNode {
    /// Installs a bootstrap descriptor (ownership must already point at
    /// this node). Returns whether it was stored.
    pub fn accept_bootstrap(&mut self, desc: SecureDescriptor) -> bool {
        debug_assert!(desc.verify().is_ok(), "bootstrap descriptors must verify");
        self.view.insert(desc, false)
    }

    /// Takes in the descriptor of a [`SecureMsg::JoinGrant`] (§V-A
    /// bootstrap, applied to a first join and to a rejoin alike): a fresh
    /// descriptor some reachable node spent its cycle's budget on for
    /// this one ([`SecureCyclonNode::sponsor`]). Unlike
    /// [`SecureCyclonNode::accept_bootstrap`], the descriptor goes through
    /// the full §IV-B intake checks and is parked in the reserve when the
    /// view is full, so an established node never discards the lifeline.
    /// Returns whether the descriptor was kept.
    fn accept_sponsorship(&mut self, desc: SecureDescriptor, cycle: u64) -> bool {
        if desc.owner() != self.id || desc.creator() == self.id || desc.is_redeemed() {
            return false;
        }
        let verified = self.verifies(&desc);
        if self.absorb(&desc, Some(verified), cycle).is_err() {
            return false;
        }
        if let Some(desc) = self.view.try_insert(desc, false) {
            if let Some(desc) = self.view.try_replace_ns_with(desc) {
                self.push_reserve(desc);
            }
        }
        true
    }

    /// Takes in a descriptor: runs the §IV-B checks on it, or says why
    /// not. Every discard is counted here, by its cause.
    ///
    /// For a descriptor the node is about to rely on — an incoming
    /// ownership transfer, a fresh descriptor, a redemption certificate —
    /// `verified` is the verdict of this step's **one** verification pass
    /// (`SecureDescriptor::verify_batch` over everything the message makes
    /// the node rely on): every signature of the chain, checked now. No
    /// verdict outlives the step, so nothing seen earlier — a forged
    /// sample with the same bytes, say — can pre-clear a transfer.
    ///
    /// A sample passes `None`: samples are not verified at intake, only on
    /// §IV-B conflict (the lazy-verification path, see `sc_core::checks`
    /// module docs: proofs re-verify, so forgeries cannot frame anyone).
    pub(super) fn absorb(
        &mut self,
        desc: &SecureDescriptor,
        verified: Option<bool>,
        cycle: u64,
    ) -> Result<(), Discard> {
        let outcome = if self.blacklist.contains(&desc.creator()) {
            Err(Discard::Blacklisted)
        } else if verified == Some(false) {
            Err(Discard::Unverified)
        } else {
            self.stats.samples_processed += 1;
            match self.samples.observe(desc, cycle) {
                Observation::Violation(proof) => {
                    self.discover_violation(proof, cycle);
                    Err(Discard::Violation)
                }
                Observation::Forged => Err(Discard::Forged),
                Observation::Expired => Err(Discard::Expired),
                _ => Ok(()),
            }
        };
        if let Err(cause) = outcome {
            self.causes.discarded[cause as usize] += 1;
        }
        outcome
    }

    /// Validates an incoming ownership transfer handed over by `from`.
    fn validate_transfer(&self, d: &SecureDescriptor, from: NodeId) -> Result<(), Rejection> {
        if d.is_redeemed() || d.owner() != self.id || d.creator() == self.id {
            return Err(Rejection::NotOurs);
        }
        // Replay guard: a state this node already continued must never be
        // accepted again — re-spending it would make this node the
        // provable culprit of a cloning violation. A legitimate return of
        // the same descriptor carries the extra links and hashes
        // differently.
        if self.spent.contains(&d.state_digest()) {
            return Err(Rejection::Spent);
        }
        if d.last_signer() != Some(from) {
            return Err(Rejection::WrongSender);
        }
        Ok(())
    }

    /// Whether a lone descriptor the node is about to rely on verifies.
    fn verifies(&mut self, d: &SecureDescriptor) -> bool {
        SecureDescriptor::verify_batch(&[d], &mut self.verify_scratch)[0].is_ok()
    }

    /// Full intake of a lone owned transfer: verify, validate, check,
    /// insert.
    pub(super) fn accept_transfer(&mut self, d: SecureDescriptor, from: NodeId, cycle: u64) {
        let verified = self.verifies(&d);
        self.accept_verified_transfer(d, verified, from, cycle);
    }

    /// [`SecureCyclonNode::accept_transfer`] for a transfer this step's
    /// verification pass already covered. Every rejection is counted
    /// here, by its cause.
    pub(super) fn accept_verified_transfer(
        &mut self,
        d: SecureDescriptor,
        verified: bool,
        from: NodeId,
        cycle: u64,
    ) {
        if let Err(cause) = self.validate_transfer(&d, from) {
            self.causes.rejected[cause as usize] += 1;
            return;
        }
        if self.absorb(&d, Some(verified), cycle).is_err() {
            return;
        }
        self.stats.transfers_received += 1;
        if let Some(d) = self.view.try_insert(d, false) {
            if let Some(d) = self.view.try_replace_ns_with(d) {
                self.push_reserve(d);
            }
        }
    }

    /// Parks an owned descriptor that currently has no view slot. The
    /// reserve is bounded; overflowing descriptors are dropped (they die
    /// early, exactly as a discarded duplicate would in legacy Cyclon).
    fn push_reserve(&mut self, d: SecureDescriptor) {
        self.stats.dup_drops += 1;
        if self.reserve.len() >= self.cfg.swap_len * 2 {
            self.reserve.pop_front();
        }
        self.reserve.push_back(d);
    }

    // ------------------------------------------------------------------
    // Passive side
    // ------------------------------------------------------------------

    pub(super) fn handle_request(
        &mut self,
        from: Addr,
        mut body: RequestBody,
        cycle: u64,
    ) -> Option<SecureMsg> {
        // -- one batched crypto bill for the whole request --------------
        // Certificate, fresh descriptor and the acceptable eager offers
        // verify in this step's one combined pass; the gates go by its
        // verdicts. (Samples are lazily verified and add no checks.)
        let eager = if self.cfg.tit_for_tat {
            0
        } else {
            self.cfg.swap_len - 1
        };
        let mut to_verify: Vec<&SecureDescriptor> = Vec::with_capacity(2 + eager);
        to_verify.push(&body.redeemed);
        to_verify.push(&body.fresh);
        to_verify.extend(body.offered.iter().take(eager));
        let verdicts = SecureDescriptor::verify_batch(&to_verify, &mut self.verify_scratch);
        let verified = [verdicts[0].is_ok(), verdicts[1].is_ok()];
        let offered_verified: Vec<bool> = verdicts[2..].iter().map(Result::is_ok).collect();

        let (kind, redeemer) = match self.admit(&mut body, verified, cycle) {
            Ok(admitted) => admitted,
            Err(cause) => {
                self.causes.refused[cause as usize] += 1;
                return None;
            }
        };

        // -- commit the redemption --------------------------------------
        let id = body.redeemed.id();
        if kind == LinkKind::RedeemNonSwappable {
            if self.ns_accepted.0 != cycle {
                self.ns_accepted = (cycle, 0);
            }
            self.ns_accepted.1 += 1;
            self.ns_redeemed_ids.insert(id);
            self.stats.ns_redemptions_accepted += 1;
        } else {
            self.redeemed_regular.push(cycle, id);
        }

        // -- select outgoing transfers ----------------------------------
        let quota = self.exchange_quota(kind);
        let immediate = if self.cfg.tit_for_tat { 1 } else { quota };
        let picked = self
            .view
            .remove_random_swappable_filtered(immediate, &mut self.rng, |d| {
                d.creator() != redeemer
            });
        let mut transfers = Vec::with_capacity(picked.len());
        for pre in picked {
            if let Some(t) = self.hand_over(&pre, redeemer, cycle) {
                self.stats.transfers_sent += 1;
                transfers.push(t);
                self.remember_transfer(pre);
            }
        }

        // -- store what we received -------------------------------------
        let RequestBody {
            fresh,
            offered,
            mut proofs,
            ..
        } = body;
        self.stats.transfers_received += 1;
        if let Some(fresh) = self.view.try_insert(fresh, false) {
            if let Some(fresh) = self.view.try_replace_ns_with(fresh) {
                // Usually an older descriptor of the initiator still
                // occupies the slot; park the fresh one until that one is
                // redeemed.
                self.push_reserve(fresh);
            }
        }
        if !self.cfg.tit_for_tat {
            let offered = offered.into_iter().zip(offered_verified);
            for (d, verified) in offered.take(quota.saturating_sub(1)) {
                self.accept_verified_transfer(d, verified, redeemer, cycle);
            }
        }

        // -- open the tit-for-tat session -------------------------------
        if self.cfg.tit_for_tat && quota > 1 && !transfers.is_empty() {
            self.close_session(from);
            self.sessions.push(
                cycle,
                Session {
                    from,
                    partner: redeemer,
                    remaining: quota - 1,
                },
            );
        }

        // The answer leaves out every proof whose culprit the request
        // named: an honest initiator took its proofs from its blacklist,
        // which never shrinks, and an invalid one can only keep a proof
        // from its own sender. Sorted for `recent_proofs` to search.
        proofs.sort_unstable_by_key(|p| p.culprit());
        self.stats.answered += 1;
        Some(SecureMsg::Accept(Box::new(AcceptBody {
            transfers,
            samples: self.collect_samples(),
            proofs: self.recent_proofs(cycle, &proofs),
        })))
    }

    /// The gates of the passive side, in order: the §IV-A redemption
    /// certificate, the initiator's fresh descriptor, the redeemer's
    /// standing, replay and the §V-A non-swappable restrictions, then the
    /// §IV-B checks on everything received. Yields the redemption's kind
    /// and its redeemer, or why the request is refused. It learns from the
    /// request's proofs and samples on the way, and commits nothing.
    fn admit(
        &mut self,
        body: &mut RequestBody,
        [red_verified, fresh_verified]: [bool; 2],
        cycle: u64,
    ) -> Result<(LinkKind, NodeId), Refusal> {
        let (redeemed, fresh) = (&body.redeemed, &body.fresh);
        if !red_verified || redeemed.creator() != self.id {
            return Err(Refusal::Certificate);
        }
        let (Some(kind), Some(redeemer)) = (redeemed.redemption_kind(), redeemed.redeemer()) else {
            return Err(Refusal::NotRedeemed);
        };
        let tpc = self.cfg.ticks_per_cycle;
        let fresh_ok = fresh_verified
            && fresh.creator() == redeemer
            && fresh.owner() == self.id
            && fresh.transfer_count() == 1
            && !fresh.is_redeemed()
            && fresh.created_at().distance(Timestamp(cycle * tpc)) <= MAX_SKEW_TICKS + tpc;
        if !fresh_ok {
            return Err(Refusal::Fresh);
        }

        // -- learn from piggybacked proofs before trusting the peer ----
        self.process_proofs(&body.proofs, cycle);
        if self.blacklist.contains(&redeemer) {
            return Err(Refusal::Blacklisted);
        }

        // -- replay and §V-A non-swappable restrictions -----------------
        // A descriptor may legally be spent twice in total: once by its
        // final owner (regular redemption) and once by a past owner that
        // kept a non-swappable copy (§V-A). Each kind at most once.
        let id = redeemed.id();
        match kind {
            LinkKind::Redeem if self.redeemed_regular.contains(&id) => {
                return Err(Refusal::Replayed);
            }
            // Rule 1: at most one NS redemption per descriptor, ever.
            LinkKind::RedeemNonSwappable if self.ns_redeemed_ids.contains(&id) => {
                return Err(Refusal::NsReplayed);
            }
            // Rule 2: at most one NS redemption accepted per cycle.
            LinkKind::RedeemNonSwappable
                if self.ns_accepted.0 == cycle
                    && self.ns_accepted.1 >= MAX_NS_REDEMPTIONS_PER_CYCLE =>
            {
                return Err(Refusal::NsBudget);
            }
            LinkKind::Transfer => unreachable!("redemption_kind is terminal"),
            _ => {}
        }

        // -- §IV-B checks on everything received ------------------------
        // Observe each distinct descriptor exactly once: attackers pad
        // their sample lists with arbitrary byte-identical repeats, of
        // each other or of the certificate and the fresh descriptor. A
        // repeat carries no new §IV-B information, so skipping it changes
        // no verdict — it only keeps `samples_processed` honest and saves
        // redundant cache walks.
        #[cfg(debug_assertions)]
        let samples_processed_before = self.stats.samples_processed;
        let mut observed: FxHashSet<sc_crypto::Digest> =
            FxHashSet::with_capacity_and_hasher(body.samples.len() + 2, Default::default());
        observed.insert(redeemed.state_digest());
        observed.insert(fresh.state_digest());
        let red = self.absorb(redeemed, Some(red_verified), cycle);
        let fresh = self.absorb(fresh, Some(fresh_verified), cycle);
        for s in &body.samples {
            if observed.insert(s.state_digest()) {
                let _ = self.absorb(s, None, cycle);
            }
        }
        #[cfg(debug_assertions)]
        debug_assert!(
            self.stats.samples_processed - samples_processed_before <= observed.len() as u64,
            "samples_processed must increment at most once per observed descriptor"
        );
        if self.blacklist.contains(&redeemer) {
            return Err(Refusal::Blacklisted);
        }
        if red.is_err() || fresh.is_err() {
            return Err(Refusal::Discarded);
        }
        Ok((kind, redeemer))
    }

    /// Forgets the tit-for-tat session `from` has open, if any.
    fn close_session(&mut self, from: Addr) {
        self.sessions.retain(|s| s.from != from);
    }

    pub(super) fn handle_round(
        &mut self,
        from: Addr,
        body: RoundBody,
        cycle: u64,
    ) -> Option<SecureMsg> {
        let session = *self.sessions.iter().find(|(_, s)| s.from == from)?.1;
        if session.remaining == 0 {
            self.close_session(from);
            return None;
        }
        // Free our slot before storing the incoming transfer, so it can
        // take the slot directly instead of bouncing through the reserve.
        let partner = session.partner;
        let reply = self
            .view
            .remove_random_swappable_filtered(1, &mut self.rng, |d| d.creator() != partner)
            .into_iter()
            .next()
            .and_then(|pre| {
                let out = self.hand_over(&pre, partner, cycle)?;
                self.remember_transfer(pre);
                Some(out)
            });
        self.accept_transfer(body.transfer, partner, cycle);
        if self.blacklist.contains(&partner) {
            self.close_session(from);
            return None;
        }
        if reply.is_some() {
            self.stats.transfers_sent += 1;
        }
        let remaining = session.remaining - 1;
        if remaining == 0 || reply.is_none() {
            self.close_session(from);
        } else if let Some(s) = self.sessions.iter_mut().find(|s| s.from == from) {
            s.remaining = remaining;
        }
        Some(SecureMsg::RoundReply(Box::new(RoundReplyBody {
            transfer: reply,
        })))
    }

    /// [`super::Input::Oneway`]: a flooded proof, a joiner's or a starved
    /// peer's join ping, or the grant answering this node's own ping.
    pub(super) fn handle_oneway(
        &mut self,
        from: Addr,
        msg: SecureMsg,
        cycle: u64,
        fx: &mut Effects,
    ) {
        match msg {
            SecureMsg::Proof(proof) => {
                self.accept_remote_proof(&proof, cycle);
            }
            SecureMsg::JoinPing(body) => {
                self.answer_join_ping(from, body.joiner, cycle, &mut fx.sends)
            }
            SecureMsg::JoinGrant(body) => {
                let JoinGrantBody { descriptor, proofs } = *body;
                self.process_proofs(&proofs, cycle);
                if self.accept_sponsorship(descriptor, cycle) {
                    self.was_connected = true;
                }
            }
            _ => return,
        }
        fx.flood = self.drain_floods();
    }

    /// Answers a joiner's or a starved peer's ping with a sponsorship,
    /// throttled and frequency-legal. A ping that finds this cycle's
    /// budget spent is held for the next turn — otherwise only nodes whose
    /// turn is still ahead in the cycle would ever sponsor anyone.
    pub(super) fn answer_join_ping(
        &mut self,
        from: Addr,
        joiner: NodeId,
        cycle: u64,
        sends: &mut Vec<(Addr, SecureMsg)>,
    ) {
        if joiner == self.id || self.blacklist.contains(&joiner) {
            return;
        }
        if !self.may_emit(cycle) {
            let known = self.held_pings.iter().any(|&(_, k)| k == joiner);
            if !known && self.held_pings.len() < HELD_PING_CAP {
                self.held_pings.push((from, joiner));
            }
            return;
        }
        if let Some(last) = self.last_join_grant {
            if cycle < last.saturating_add(JOIN_GRANT_GAP_CYCLES) {
                return;
            }
        }
        let Some(grant) = self.sponsor(joiner, cycle) else {
            return;
        };
        self.last_join_grant = Some(cycle);
        self.stats.rejoin_grants += 1;
        sends.push((from, SecureMsg::JoinGrant(Box::new(grant))));
    }
}
