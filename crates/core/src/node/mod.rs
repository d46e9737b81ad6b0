//! The SecureCyclon protocol node (§IV–§V of the paper), as a sans-IO
//! state machine.
//!
//! The node does no I/O and reads no clock. A driver — the simulator's
//! engine or the `sc-node` event loop — feeds it one [`Input`] at a time
//! through [`SecureCyclonNode::step`] and routes the [`Effects`] it
//! returns (the [`Machine`] contract). Once per cycle ([`Input::Tick`]) a
//! correct node:
//!
//! 1. prunes its caches and back-fills empty view slots with non-swappable
//!    copies of recently transferred descriptors (§V-A);
//! 2. removes the oldest descriptor from its view and **redeems** it —
//!    sends it back to its creator as the certificate permitting a gossip
//!    exchange (§IV-A);
//! 3. runs the exchange: its fresh self-descriptor goes first, then, in
//!    tit-for-tat mode, one ownership transfer per round trip (§V-B). Each
//!    round trip is one `rpc` effect answered by one [`Input::Reply`] or
//!    [`Input::Timeout`]; the exchange in between is explicit state;
//! 4. runs the frequency and ownership checks (§IV-B) on **every**
//!    descriptor it sees — owned transfers and samples alike; a conflict
//!    yields a [`ViolationProof`], the culprit is blacklisted, its
//!    descriptors purged, and the proof flooded one hop per cycle (§IV-C).
//!
//! As the passive party ([`Input::Request`]) it validates redemption
//! certificates (including the §V-A non-swappable restrictions), mirrors
//! the exchange, and ships samples of its view plus its redemption cache
//! (§V-C) — also while an exchange of its own is in flight: whatever that
//! exchange offered has already left the view.
//!
//! The node is split along its four concerns: `exchange` (the active
//! turn), `intake` (verification, transfers, the passive side),
//! `proofs` (violations and floods) and `persistence` (the durable
//! backend).

mod exchange;
mod intake;
mod persistence;
mod proofs;
#[cfg(test)]
mod tests;

use crate::blacklist::Blacklist;
use crate::checks::{CacheFootprint, SampleCache};
use crate::config::SecureConfig;
use crate::descriptor::{DescriptorId, LinkKind, SecureDescriptor, WalkScratch};
use crate::machine::{Effects, Input, Machine};
use crate::msg::SecureMsg;
use crate::proof::{ProofKind, ViolationProof};
use crate::redemption::RedemptionCache;
use crate::ring::ExpiryRing;
use crate::storage::StateBackend;
use crate::view::SecureView;
use crate::wire;
use crate::Addr;
use exchange::Exchange;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sc_crypto::FxHashSet;
use sc_crypto::{Digest, Keypair, NodeId};
use std::collections::VecDeque;

/// Hard cap on redemption-cache entries, independent of age. Under heavy
/// churn a single retention window (`redemption_cache_cycles`) can
/// accumulate arbitrarily many redeemed descriptors; the cap evicts the
/// oldest first so the cache degrades to the paper's steady-state
/// behaviour instead of growing without bound.
pub const REDEMPTION_CACHE_MAX_ENTRIES: usize = 64;

/// The sample window W, in cycles, counted from a descriptor's
/// **creation** (§IV-B "cache all descriptors seen", bounded in practice
/// by descriptor lifetime ≈ ℓ). It is both how long a sample stays cached
/// (W cycles, plus one of grace) and the intake cap: a descriptor W or
/// more cycles old is refused unchecked, so no honest node redeems or
/// offers one. Replay refusals and spent-state markers expire on the same
/// horizon.
pub const SAMPLE_RETENTION_CYCLES: u64 = 60;

/// How many recently transferred descriptors each back-fill pool
/// remembers as candidates for non-swappable repair (§V-A).
const TRANSFER_HISTORY_LEN: usize = 8;

/// How many of its latest exchange partners a node remembers as rejoin
/// sponsors of last resort.
const RECENT_PARTNERS_LEN: usize = 8;

/// Per-node protocol counters, exposed for experiments and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SecureStats {
    /// Exchanges initiated.
    pub initiated: u64,
    /// Initiated exchanges that received an acceptance.
    pub completed: u64,
    /// Initiated exchanges that timed out or were refused.
    pub timeouts: u64,
    /// Exchanges answered as the passive party.
    pub answered: u64,
    /// Requests refused (invalid certificate, replay, NS limits, …).
    pub refused: u64,
    /// Cycles skipped because the view was empty.
    pub idle_cycles: u64,
    /// Ownership transfers sent (including fresh self-descriptors).
    pub transfers_sent: u64,
    /// Ownership transfers accepted into the view pipeline.
    pub transfers_received: u64,
    /// Transfers rejected by validation.
    pub transfers_rejected: u64,
    /// Owned descriptors dropped because their creator was already in the
    /// view or the view was full.
    pub dup_drops: u64,
    /// Samples processed through the §IV-B checks.
    pub samples_processed: u64,
    /// Descriptors that failed signature/structure verification.
    pub invalid_descriptors: u64,
    /// Cloning proofs generated locally.
    pub proofs_generated_cloning: u64,
    /// Frequency proofs generated locally.
    pub proofs_generated_frequency: u64,
    /// Valid, novel proofs learned from peers.
    pub proofs_received: u64,
    /// Proofs discarded as duplicates (culprit already blacklisted).
    pub proofs_duplicate: u64,
    /// Proofs that failed validation.
    pub proofs_invalid: u64,
    /// Empty view slots repaired with non-swappable copies.
    pub ns_backfills: u64,
    /// Non-swappable redemptions accepted as creator.
    pub ns_redemptions_accepted: u64,
    /// Estimated bytes sent (paper's §VI-A size model).
    pub bytes_sent: u64,
    /// Estimated bytes received (paper's §VI-A size model).
    pub bytes_received: u64,
    /// §V-A rejoin pings sent while starved.
    pub rejoin_pings: u64,
    /// §V-A sponsorships granted to pings: starved peers' rejoin pings
    /// and, on sockets, a `--sponsor` joiner's first-join ping.
    pub rejoin_grants: u64,
}

/// A locally *generated* (not merely received) violation proof.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProofRecord {
    /// Cycle of discovery.
    pub cycle: u64,
    /// Violation class.
    pub kind: ProofKind,
    /// The node proven guilty.
    pub culprit: NodeId,
    /// For cloning proofs, the identity of the cloned descriptor.
    pub descriptor: Option<DescriptorId>,
}

/// An open tit-for-tat exchange on the passive side.
#[derive(Clone, Copy, Debug)]
struct Session {
    /// The initiator's address: one session a peer.
    from: Addr,
    partner: NodeId,
    remaining: usize,
}

/// What a node's bookkeeping occupies: the sample cache's
/// [`CacheFootprint`] and the spent-state ledger. Not protocol surface:
/// memory oracles and sizing tools read it.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Footprint {
    /// The sample cache.
    pub samples: CacheFootprint,
    /// Records in the spent-state ledger (40 bytes each).
    pub spent_records: usize,
}

/// A correct SecureCyclon node.
pub struct SecureCyclonNode {
    keypair: Keypair,
    id: NodeId,
    addr: Addr,
    cfg: SecureConfig,
    /// Stable per-node tick offset used in descriptor timestamps.
    phase: u64,
    view: SecureView,
    samples: SampleCache,
    /// Descriptors the sample cache refused for their age. Kept beside
    /// [`SecureStats`], whose rendering pins recorded end states.
    expired_refused: u64,
    /// Working vectors of the verification walk, kept so that verifying
    /// a message allocates nothing. They carry no verdict from one call
    /// to the next: every descriptor the node relies on has all its
    /// signatures checked, every time.
    verify_scratch: WalkScratch,
    redemptions: RedemptionCache,
    /// Pre-transfer copies of descriptors lost in failed exchanges — the
    /// first-priority candidates for non-swappable back-fill (§V-A). In a
    /// healthy network this stays empty, matching the paper's Figure 6
    /// baseline of ≈0% non-swappable links before the attack begins.
    pending_ns: VecDeque<SecureDescriptor>,
    /// Pre-transfer copies of descriptors transferred away in successful
    /// exchanges: the last-resort NS back-fill pool, for gaps whose own
    /// exchange shipped nothing reusable (e.g. an unreachable partner,
    /// §V-A case 1). Dormant while no gaps exist.
    transfer_history: VecDeque<SecureDescriptor>,
    blacklist: Blacklist,
    /// Owned descriptors waiting for a view slot (their creator was already
    /// in the view, or the view was full, when they arrived). Kept so that
    /// links are not destroyed by local placement conflicts.
    reserve: VecDeque<SecureDescriptor>,
    /// Our descriptors redeemed with a *regular* redemption (replay
    /// refusal), stamped with the cycle the redemption was accepted.
    redeemed_regular: ExpiryRing<DescriptorId>,
    /// The replay guard of intake and of the reserve: the state digests
    /// this node has already signed a continuation for (transfer or
    /// redemption), the only copy of each. Intake refuses a byte-identical
    /// copy of a spent state: with deterministic signatures an adversary
    /// can re-deliver the exact state a victim already continued, and a
    /// second innocent continuation would hand observers a valid §IV-B
    /// cloning proof *against the honest victim*. A state spent again gets
    /// a second record and is refused for as long as either is held.
    /// Expires on the sample-retention horizon, like the caches the
    /// proofs feed on.
    spent: ExpiryRing<Digest>,
    /// Descriptors of ours ever redeemed non-swappably (§V-A rule 1).
    ns_redeemed_ids: FxHashSet<DescriptorId>,
    /// (cycle, count) of NS redemptions accepted this cycle (§V-A rule 2).
    ns_accepted: (u64, u32),
    /// Open tit-for-tat exchanges, at most one an initiator address,
    /// stamped with the cycle they opened in.
    sessions: ExpiryRing<Session>,
    /// Cycle in which the last NS back-fill was performed (creation of NS
    /// copies is rate-limited to one per cycle, mirroring §V-A rule 2 on
    /// the acceptance side).
    last_ns_backfill: Option<u64>,
    /// Latest cycle whose fresh-descriptor budget was spent — by
    /// initiating an exchange *or* by sponsoring a joiner. Creating
    /// another descriptor inside that cycle would hand observers a valid
    /// §IV-B frequency proof, so every creation site checks this marker,
    /// and a durable backend records it *before* the descriptor leaves
    /// (the crash-restart bugfix: an amnesiac restart must not re-mint).
    emitted_cycle: Option<u64>,
    /// Durable home for the incriminating-if-lost state. `None` (the
    /// default) keeps the node memory-only and cost-free for simulation.
    backend: Option<Box<dyn StateBackend>>,
    /// Whether this node has ever held a view entry, in this life or in
    /// one it recovered a log from — distinguishes a *starved* node (was
    /// connected, drained to empty; §V-A rejoin fires) from one still
    /// awaiting its initial bootstrap.
    was_connected: bool,
    /// Cycle of the last rejoin ping volley (retry throttle).
    last_rejoin_ping: Option<u64>,
    /// The latest distinct partners this node initiated exchanges with,
    /// oldest first. Unlike the samples and the redemption cache it does
    /// not expire with the window, so a node cut off for longer than that
    /// still knows whom to ask to be sponsored back in.
    recent_partners: VecDeque<(NodeId, Addr)>,
    /// Cycle of the last sponsorship granted to a starved peer's ping —
    /// grants are throttled so ping floods cannot starve this node's own
    /// exchange budget.
    last_join_grant: Option<u64>,
    /// Proofs awaiting flood dispatch.
    outbox: Vec<ViolationProof>,
    rng: SmallRng,
    stats: SecureStats,
    proof_log: Vec<ProofRecord>,
    /// The exchange this node initiated and still awaits an answer to.
    exchange: Option<Exchange>,
}

impl core::fmt::Debug for SecureCyclonNode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SecureCyclonNode")
            .field("id", &self.id)
            .field("addr", &self.addr)
            .field("view_len", &self.view.len())
            .field("blacklisted", &self.blacklist.len())
            .finish()
    }
}

impl SecureCyclonNode {
    /// Creates a node with an empty view.
    ///
    /// `phase` is the node's stable timestamp offset within a cycle and
    /// must be < `cfg.ticks_per_cycle`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `phase` out of range.
    pub fn new(
        keypair: Keypair,
        addr: Addr,
        cfg: SecureConfig,
        rng_seed: [u8; 32],
        phase: u64,
    ) -> Self {
        let cfg = cfg.validated();
        assert!(
            phase < cfg.ticks_per_cycle,
            "phase must be < ticks_per_cycle"
        );
        let id = keypair.public();
        SecureCyclonNode {
            keypair,
            id,
            addr,
            phase,
            view: SecureView::new(id, cfg.view_len),
            samples: SampleCache::new(SAMPLE_RETENTION_CYCLES, cfg.ticks_per_cycle),
            expired_refused: 0,
            verify_scratch: WalkScratch::default(),
            redemptions: RedemptionCache::bounded(
                cfg.redemption_cache_cycles,
                REDEMPTION_CACHE_MAX_ENTRIES,
            ),
            pending_ns: VecDeque::with_capacity(TRANSFER_HISTORY_LEN),
            transfer_history: VecDeque::with_capacity(TRANSFER_HISTORY_LEN),
            blacklist: Blacklist::new(),
            reserve: VecDeque::new(),
            redeemed_regular: ExpiryRing::default(),
            spent: ExpiryRing::default(),
            ns_redeemed_ids: FxHashSet::default(),
            ns_accepted: (0, 0),
            sessions: ExpiryRing::default(),
            last_ns_backfill: None,
            emitted_cycle: None,
            backend: None,
            was_connected: false,
            last_rejoin_ping: None,
            recent_partners: VecDeque::with_capacity(RECENT_PARTNERS_LEN),
            last_join_grant: None,
            outbox: Vec::new(),
            rng: SmallRng::from_seed(rng_seed),
            stats: SecureStats::default(),
            proof_log: Vec::new(),
            exchange: None,
            cfg,
        }
    }

    /// The node's ID (public key).
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's network address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// The node's timestamp phase.
    pub fn phase(&self) -> u64 {
        self.phase
    }

    /// The protocol configuration.
    pub fn config(&self) -> &SecureConfig {
        &self.cfg
    }

    /// The current view.
    pub fn view(&self) -> &SecureView {
        &self.view
    }

    /// The node's blacklist.
    pub fn blacklist(&self) -> &Blacklist {
        &self.blacklist
    }

    /// Number of cached samples.
    pub fn sample_count(&self) -> usize {
        self.samples.len()
    }

    /// Descriptors refused at intake for having been created outside the
    /// sample window ([`crate::Observation::Expired`]). No honest peer
    /// sends one, so in an all-honest network this stays 0.
    pub fn expired_refused(&self) -> u64 {
        self.expired_refused
    }

    /// Read-only view of the reserve: owned descriptors waiting for a view
    /// slot. Exposed so external invariant oracles can account for every
    /// live token the node holds.
    pub fn reserve(&self) -> impl Iterator<Item = &SecureDescriptor> {
        self.reserve.iter()
    }

    /// Every descriptor this node keeps in memory: view, sample cache
    /// (its expired slots not yet dropped included — they pin their chain
    /// blocks like any other), redemption cache, reserve and the two
    /// non-swappable back-fill pools. Not protocol surface: storage
    /// oracles and sizing tools walk it (with
    /// [`SecureDescriptor::block_addrs`]).
    #[doc(hidden)]
    pub fn stored_descriptors(&self) -> impl Iterator<Item = &SecureDescriptor> {
        let view = self.view.iter().map(|e| &e.desc);
        view.chain(self.samples.stored_descriptors())
            .chain(self.redemptions.iter())
            .chain(&self.reserve)
            .chain(&self.pending_ns)
            .chain(&self.transfer_history)
    }

    /// What the sample cache and the spent-state ledger occupy.
    #[doc(hidden)]
    pub fn footprint(&self) -> Footprint {
        Footprint {
            samples: self.samples.footprint(),
            spent_records: self.spent.len(),
        }
    }

    /// Number of pre-transfer copies remembered from successful exchanges
    /// (the last-resort non-swappable back-fill pool).
    pub fn transfer_history_len(&self) -> usize {
        self.transfer_history.len()
    }

    /// Number of redeemed copies circulating in the redemption cache
    /// (§V-C).
    pub fn redemption_count(&self) -> usize {
        self.redemptions.len()
    }

    /// Protocol counters.
    pub fn stats(&self) -> SecureStats {
        self.stats
    }

    /// Locally generated violation proofs, in discovery order.
    pub fn proof_log(&self) -> &[ProofRecord] {
        &self.proof_log
    }

    /// Whether the node has joined the overlay: it holds a view, or held
    /// one in this life or in one it recovered a log from. A joined node
    /// whose view drained re-enters by its own §V-A rejoin ping; one that
    /// never joined waits for a sponsorship.
    pub fn joined(&self) -> bool {
        self.was_connected || !self.view.is_empty()
    }

    /// Whether an exchange this node initiated is still awaiting its
    /// answer (a [`Input::Tick`] is a no-op until it resolves).
    pub fn exchange_in_flight(&self) -> bool {
        self.exchange.is_some()
    }

    /// Advances the state machine by one input and returns what the
    /// driver must do about it. Performs no I/O and reads no clock.
    ///
    /// * [`Input::Tick`] runs the active turn up to its first round trip:
    ///   the effects carry an `rpc`, or — when the node has nothing to
    ///   exchange — the end-of-turn `sends`. A tick while an exchange is
    ///   in flight does nothing.
    /// * [`Input::Reply`] / [`Input::Timeout`] resolve the outstanding
    ///   `rpc`, under the cycle its tick carried; the effects carry the
    ///   next round's `rpc` or the end-of-turn `sends`. With no exchange
    ///   in flight they are dropped; a reply of the wrong type counts as
    ///   a timeout.
    /// * [`Input::Request`] yields the `reply`; [`Input::Oneway`] at most
    ///   `sends`.
    ///
    /// §VI-A byte accounting happens here and nowhere else: the input's
    /// message is metered on the way in, every effect on the way out.
    pub fn step(&mut self, input: Input) -> Effects {
        if let Some(msg) = input.msg() {
            self.stats.bytes_received += wire::message_paper_bytes(msg) as u64;
        }
        let mut fx = Effects::default();
        match input {
            Input::Tick { cycle, now } => self.on_tick(cycle, now, &mut fx),
            Input::Reply(msg) => self.on_outcome(Some(msg), &mut fx),
            Input::Timeout => self.on_outcome(None, &mut fx),
            Input::Request {
                from,
                msg,
                cycle,
                now,
            } => {
                fx.reply = match msg {
                    SecureMsg::Request(body) => self.handle_request(from, *body, cycle, now),
                    SecureMsg::Round(body) => self.handle_round(from, *body, cycle),
                    _ => None,
                };
                self.drain_floods(&mut fx.sends);
            }
            Input::Oneway {
                from,
                msg,
                cycle,
                now,
            } => self.handle_oneway(from, msg, cycle, now, &mut fx.sends),
        }
        let out = fx.rpc.iter().chain(&fx.sends).map(|(_, msg)| msg);
        self.stats.bytes_sent += out
            .chain(&fx.reply)
            .map(|msg| wire::message_paper_bytes(msg) as u64)
            .sum::<u64>();
        fx
    }

    // ------------------------------------------------------------------
    // Shared by both sides of an exchange
    // ------------------------------------------------------------------

    /// Copies of the current view plus the redemption cache (§IV-B, §V-C).
    fn collect_samples(&self) -> Vec<SecureDescriptor> {
        self.view
            .iter()
            .map(|e| e.desc.clone())
            .chain(self.redemptions.iter().cloned())
            .collect()
    }

    /// Signs `pre` over to `to`, its state recorded as spent — durably,
    /// with a backend — before the transfer can leave: whatever becomes of
    /// the message that carries it, or of this process while the answer is
    /// out, a copy of `pre` restored from an older checkpoint is refused
    /// and never signed a second time (§IV-B cloning evidence against this
    /// node).
    fn hand_over(
        &mut self,
        pre: &SecureDescriptor,
        to: NodeId,
        cycle: u64,
    ) -> Option<SecureDescriptor> {
        let handed = pre.transfer(&self.keypair, to).ok()?;
        self.note_spent(pre.state_digest(), cycle);
        Some(handed)
    }

    /// Remembers the pre-transfer copy of a successfully transferred
    /// descriptor as a last-resort NS back-fill candidate.
    fn remember_transfer(&mut self, pre: SecureDescriptor) {
        if self.transfer_history.len() == TRANSFER_HISTORY_LEN {
            self.transfer_history.pop_front();
        }
        self.transfer_history.push_back(pre);
    }

    fn housekeeping(&mut self, cycle: u64) {
        self.samples.prune(cycle);
        self.redemptions.prune(cycle);
        // A session lives through the cycle after the one it opened in.
        self.sessions.expire(cycle.saturating_sub(1));
        let horizon = cycle.saturating_sub(SAMPLE_RETENTION_CYCLES);
        self.redeemed_regular.expire(horizon);
        self.spent.expire(horizon);
        // The reserve and the back-fill pools are checked where `backfill`
        // takes from them.
        let oldest = self.oldest_owned(cycle);
        self.view.retain(|d| d.created_at().ticks() >= oldest);
    }

    /// The creation timestamp below which an owned descriptor is worth
    /// nothing at `cycle`: the creator it would be redeemed at, or the
    /// peer it would be offered to, refuses it once it is a window old —
    /// and before this node's next turn, a peer that took its own is a
    /// cycle further on.
    fn oldest_owned(&self, cycle: u64) -> u64 {
        (cycle + 2).saturating_sub(SAMPLE_RETENTION_CYCLES) * self.cfg.ticks_per_cycle
    }

    /// Total ownership transfers each side performs in one exchange,
    /// honoring the NS swap cap (§V-A rule 3).
    fn exchange_quota(&self, redemption: LinkKind) -> usize {
        match (redemption, self.cfg.ns_swap_cap) {
            (LinkKind::RedeemNonSwappable, Some(cap)) => self.cfg.swap_len.min(cap),
            _ => self.cfg.swap_len,
        }
    }
}

/// The honest node behind the interface every participant shares; the
/// inherent [`SecureCyclonNode::step`] is the implementation.
impl Machine for SecureCyclonNode {
    type Msg = SecureMsg;

    fn step(&mut self, input: Input) -> Effects {
        SecureCyclonNode::step(self, input)
    }
}
