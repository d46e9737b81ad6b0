//! The SecureCyclon protocol node (§IV–§V of the paper).
//!
//! Once per cycle a correct node:
//!
//! 1. prunes its caches and back-fills empty view slots with non-swappable
//!    copies of recently transferred descriptors (§V-A);
//! 2. removes the oldest descriptor from its view and **redeems** it —
//!    sends it back to its creator as the certificate permitting a gossip
//!    exchange (§IV-A);
//! 3. runs the exchange: its fresh self-descriptor goes first, then, in
//!    tit-for-tat mode, one ownership transfer per round trip (§V-B);
//! 4. runs the frequency and ownership checks (§IV-B) on **every**
//!    descriptor it sees — owned transfers and samples alike; a conflict
//!    yields a [`ViolationProof`], the culprit is blacklisted, its
//!    descriptors purged, and the proof flooded one hop per cycle (§IV-C).
//!
//! As the passive party it validates redemption certificates (including
//! the §V-A non-swappable restrictions), mirrors the exchange, and ships
//! samples of its view plus its redemption cache (§V-C).

use crate::blacklist::Blacklist;
use crate::checks::{Observation, SampleCache};
use crate::config::SecureConfig;
use crate::descriptor::{DescriptorId, LinkKind, SecureDescriptor};
use crate::memo::VerifyMemo;
use crate::msg::{
    AcceptBody, JoinGrantBody, JoinPingBody, RequestBody, RoundBody, RoundReplyBody, SecureMsg,
};
use crate::proof::{ProofKind, ViolationProof};
use crate::redemption::RedemptionCache;
use crate::storage::{PersistentState, StateBackend};
use crate::time::Timestamp;
use crate::view::SecureView;
use crate::wire::{self, WireLimits};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sc_crypto::{FxHashMap, FxHashSet};
use sc_crypto::{Keypair, NodeId};
use sc_sim::{Addr, CycleCtx, NodeCtx, RpcOutcome, SimNode};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;

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
    /// §V-A rejoin sponsorships granted to starved peers.
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

#[derive(Clone, Copy, Debug)]
struct Session {
    partner: NodeId,
    remaining: usize,
    cycle: u64,
}

/// Removes from `map` the entries recorded before `horizon`, visiting
/// only the schedule records that old — O(expired), not O(map). A record
/// does not by itself condemn its entry: the entry may have been
/// re-recorded since (its newer record comes up later) or already
/// removed, so the cycle stored in the map decides.
fn expire<K: Copy + Eq + std::hash::Hash, V>(
    schedule: &mut VecDeque<(u64, K)>,
    map: &mut FxHashMap<K, V>,
    horizon: u64,
    recorded: impl Fn(&V) -> u64,
) {
    while let Some(&(cycle, key)) = schedule.front() {
        if cycle >= horizon {
            break;
        }
        schedule.pop_front();
        if let Entry::Occupied(entry) = map.entry(key) {
            if recorded(entry.get()) < horizon {
                entry.remove();
            }
        }
    }
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
    /// Bounded memo of verified chain prefixes: every descriptor the node
    /// relies on is verified incrementally against it, so intake costs
    /// amortized O(links appended since last sighting) instead of
    /// O(chain) signature checks per message.
    verify_memo: VerifyMemo,
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
    /// refusal), with the cycle the redemption was accepted.
    redeemed_regular: FxHashMap<DescriptorId, u64>,
    /// State digests this node has already signed a continuation for
    /// (transfer or redemption), with the signing cycle. Intake refuses a
    /// byte-identical copy of a spent state: with deterministic signatures
    /// an adversary can re-deliver the exact state a victim already
    /// continued, and a second innocent continuation would hand observers
    /// a valid §IV-B cloning proof *against the honest victim*. Pruned on
    /// the sample-retention horizon, like the caches the proofs feed on.
    spent_states: FxHashMap<sc_crypto::Digest, u64>,
    /// Descriptors of ours ever redeemed non-swappably (§V-A rule 1).
    ns_redeemed_ids: FxHashSet<DescriptorId>,
    /// (cycle, count) of NS redemptions accepted this cycle (§V-A rule 2).
    ns_accepted: (u64, u32),
    /// Open tit-for-tat exchanges, keyed by initiator address.
    sessions: FxHashMap<Addr, Session>,
    /// Expiry schedules of `redeemed_regular`, `spent_states` and
    /// `sessions`: one `(cycle, key)` record per insert, in cycle order, so
    /// housekeeping walks the records that just fell behind the horizon
    /// instead of every entry of every map, every cycle.
    redeemed_expiry: VecDeque<(u64, DescriptorId)>,
    spent_expiry: VecDeque<(u64, sc_crypto::Digest)>,
    session_expiry: VecDeque<(u64, Addr)>,
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
    /// Whether this node has ever held a view entry — distinguishes a
    /// *starved* node (was connected, drained to empty; §V-A rejoin fires)
    /// from one still awaiting its initial bootstrap.
    was_connected: bool,
    /// Cycle of the last rejoin ping volley (retry throttle).
    last_rejoin_ping: Option<u64>,
    /// Cycle of the last sponsorship granted to a starved peer's ping —
    /// grants are throttled so ping floods cannot starve this node's own
    /// exchange budget.
    last_join_grant: Option<u64>,
    /// Proofs awaiting flood dispatch.
    outbox: Vec<ViolationProof>,
    rng: SmallRng,
    stats: SecureStats,
    proof_log: Vec<ProofRecord>,
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
            samples: SampleCache::new(cfg.sample_retention_cycles),
            verify_memo: VerifyMemo::new(cfg.verify_memo_capacity),
            redemptions: RedemptionCache::bounded(
                cfg.redemption_cache_cycles,
                cfg.redemption_cache_max_entries,
            ),
            pending_ns: VecDeque::with_capacity(cfg.transfer_history_len),
            transfer_history: VecDeque::with_capacity(cfg.transfer_history_len),
            blacklist: Blacklist::new(),
            reserve: VecDeque::new(),
            redeemed_regular: FxHashMap::default(),
            spent_states: FxHashMap::default(),
            ns_redeemed_ids: FxHashSet::default(),
            ns_accepted: (0, 0),
            sessions: FxHashMap::default(),
            redeemed_expiry: VecDeque::new(),
            spent_expiry: VecDeque::new(),
            session_expiry: VecDeque::new(),
            last_ns_backfill: None,
            emitted_cycle: None,
            backend: None,
            was_connected: false,
            last_rejoin_ping: None,
            last_join_grant: None,
            outbox: Vec::new(),
            rng: SmallRng::from_seed(rng_seed),
            stats: SecureStats::default(),
            proof_log: Vec::new(),
            cfg,
        }
    }

    /// Creates a node wired to a durable [`StateBackend`], recovering any
    /// state the backend holds from a previous life.
    ///
    /// Recovery order matters: monotone knowledge first (blacklist
    /// proofs, spent-state digests, replay guards), then owned tokens —
    /// each re-verified and refused if its state digest was already
    /// signed away. That filter is a second self-incrimination guard: a
    /// stale checkpoint can contain a descriptor whose ownership left in
    /// a later, unpersisted exchange, and re-spending it after restart
    /// would be self-made §IV-B *cloning* evidence. The recovered
    /// emission marker (see [`SecureCyclonNode::last_emission`]) is the
    /// frequency half of the same guarantee.
    ///
    /// # Errors
    ///
    /// I/O failures from [`StateBackend::load`]. Corrupt or torn log
    /// tails are not errors — the backend recovers the valid prefix.
    ///
    /// # Panics
    ///
    /// As [`SecureCyclonNode::new`].
    pub fn with_backend(
        keypair: Keypair,
        addr: Addr,
        cfg: SecureConfig,
        rng_seed: [u8; 32],
        phase: u64,
        mut backend: Box<dyn StateBackend>,
    ) -> std::io::Result<Self> {
        let mut node = Self::new(keypair, addr, cfg, rng_seed, phase);
        if let Some(state) = backend.load(node.cfg.ticks_per_cycle, &WireLimits::DEFAULT)? {
            node.restore(state);
        }
        node.backend = Some(backend);
        Ok(node)
    }

    /// Rebuilds protocol state from a recovered checkpoint fold.
    fn restore(&mut self, mut state: PersistentState) {
        self.emitted_cycle = state.emitted_cycle;
        for (learned, proof) in state.proofs {
            if proof.validate(self.cfg.ticks_per_cycle).is_ok() {
                self.blacklist.register(proof, learned);
            }
        }
        // Recovered records arrive in no particular order; the expiry
        // schedules must be in cycle order.
        state.spent.sort_unstable_by_key(|&(_, cycle)| cycle);
        for (digest, cycle) in state.spent {
            self.spent_states.insert(digest, cycle);
            self.spent_expiry.push_back((cycle, digest));
        }
        state
            .redeemed_regular
            .sort_unstable_by_key(|&(_, cycle)| cycle);
        for (id, cycle) in state.redeemed_regular {
            self.redeemed_regular.insert(id, cycle);
            self.redeemed_expiry.push_back((cycle, id));
        }
        for id in state.ns_redeemed {
            self.ns_redeemed_ids.insert(id);
        }
        self.ns_accepted = state.ns_accepted;
        for (desc, ns) in state.view {
            if !self.recoverable(&desc) {
                continue;
            }
            if let Some(d) = self.view.try_insert(desc, ns) {
                self.reserve.push_back(d);
            }
        }
        for desc in state.reserve {
            if !self.recoverable(&desc) {
                continue;
            }
            if self.reserve.len() < self.cfg.swap_len * 2 {
                self.reserve.push_back(desc);
            }
        }
        for (cycle, desc) in state.redemptions {
            if !self.blacklist.contains(&desc.creator()) && desc.verify().is_ok() {
                self.redemptions.push(desc, cycle);
            }
        }
        if !self.view.is_empty() {
            self.was_connected = true;
        }
    }

    /// Whether a persisted owned descriptor may safely re-enter the view
    /// pipeline after a restart.
    fn recoverable(&self, desc: &SecureDescriptor) -> bool {
        desc.owner() == self.id
            && desc.creator() != self.id
            && !desc.is_redeemed()
            && !self.blacklist.contains(&desc.creator())
            && !self.spent_states.contains_key(&desc.state_digest())
            && desc.verify().is_ok()
    }

    /// Detaches the backend (the simulator's crash-restart path: the
    /// "disk" survives into the replacement node object).
    pub fn take_backend(&mut self) -> Option<Box<dyn StateBackend>> {
        self.backend.take()
    }

    /// Whether a durable backend is attached.
    pub fn has_backend(&self) -> bool {
        self.backend.is_some()
    }

    /// Latest cycle whose fresh-descriptor budget is spent (recovered
    /// across restarts when a backend is attached).
    pub fn last_emission(&self) -> Option<u64> {
        self.emitted_cycle
    }

    /// Whether minting a fresh descriptor in `cycle` is frequency-legal.
    fn may_emit(&self, cycle: u64) -> bool {
        match self.emitted_cycle {
            Some(spent) => spent < cycle,
            None => true,
        }
    }

    /// Marks `cycle`'s budget spent, durably *before* the caller lets the
    /// descriptor leave. A backend write failure is deliberately
    /// swallowed: the in-memory marker still protects this life, only
    /// crash-recovery fidelity degrades.
    fn note_emission(&mut self, cycle: u64) {
        self.emitted_cycle = Some(cycle);
        if let Some(b) = self.backend.as_mut() {
            let _ = b.record_emission(cycle);
        }
    }

    /// Records a spent state digest, durably when a backend is attached
    /// (re-signing a restored copy would be cloning evidence).
    fn note_spent(&mut self, digest: sc_crypto::Digest, cycle: u64) {
        self.spent_states.insert(digest, cycle);
        self.spent_expiry.push_back((cycle, digest));
        if let Some(b) = self.backend.as_mut() {
            let _ = b.record_spent(&digest, cycle);
        }
    }

    /// Snapshots the durable slice of the node's state.
    fn persistent_state(&self, cycle: u64) -> PersistentState {
        PersistentState {
            cycle,
            emitted_cycle: self.emitted_cycle,
            view: self
                .view
                .iter()
                .map(|e| (e.desc.clone(), e.non_swappable))
                .collect(),
            reserve: self.reserve.iter().cloned().collect(),
            redemptions: self
                .redemptions
                .entries()
                .map(|(c, d)| (c, d.clone()))
                .collect(),
            proofs: self
                .blacklist
                .proofs()
                .iter()
                .map(|p| (p.learned_cycle, p.proof.clone()))
                .collect(),
            spent: self.spent_states.iter().map(|(d, c)| (*d, *c)).collect(),
            redeemed_regular: self
                .redeemed_regular
                .iter()
                .map(|(id, c)| (*id, *c))
                .collect(),
            ns_redeemed: self.ns_redeemed_ids.iter().copied().collect(),
            ns_accepted: self.ns_accepted,
        }
    }

    /// End-of-cycle checkpoint (no-op without a backend).
    fn checkpoint(&mut self, cycle: u64) {
        if self.backend.is_none() {
            return;
        }
        let state = self.persistent_state(cycle);
        if let Some(b) = self.backend.as_mut() {
            let _ = b.save_checkpoint(&state);
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

    /// Number of owned descriptors parked in the reserve.
    pub fn reserve_len(&self) -> usize {
        self.reserve.len()
    }

    /// Read-only view of the reserve: owned descriptors waiting for a view
    /// slot. Exposed so external invariant oracles can account for every
    /// live token the node holds.
    pub fn reserve(&self) -> impl Iterator<Item = &SecureDescriptor> {
        self.reserve.iter()
    }

    /// Number of pre-transfer copies retained from failed exchanges (the
    /// first-priority non-swappable back-fill pool, §V-A).
    pub fn pending_ns_len(&self) -> usize {
        self.pending_ns.len()
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

    /// Number of tit-for-tat sessions currently open on the passive side.
    pub fn open_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Protocol counters.
    pub fn stats(&self) -> SecureStats {
        self.stats
    }

    /// Locally generated violation proofs, in discovery order.
    pub fn proof_log(&self) -> &[ProofRecord] {
        &self.proof_log
    }

    /// Installs a bootstrap descriptor (ownership must already point at
    /// this node). Returns whether it was stored.
    pub fn accept_bootstrap(&mut self, desc: SecureDescriptor) -> bool {
        debug_assert!(desc.verify().is_ok(), "bootstrap descriptors must verify");
        self.view.insert(desc, false)
    }

    /// Sponsors a joining node (§V-A bootstrap): spends this cycle's
    /// fresh-descriptor budget on a descriptor transferred to `joiner`
    /// instead of initiating a gossip exchange, so the frequency rule is
    /// never violated. Returns `None` if this cycle's budget is already
    /// spent.
    ///
    /// `cycle` and `now` must come from the engine clock (the same values
    /// the node would see in its `on_cycle`).
    pub fn sponsor_join(
        &mut self,
        joiner: NodeId,
        cycle: u64,
        now: u64,
    ) -> Option<SecureDescriptor> {
        if !self.may_emit(cycle) || joiner == self.id {
            return None;
        }
        // Durable before the grant leaves: a crash between the send and
        // the next checkpoint must not let a restarted self re-mint.
        self.note_emission(cycle);
        let fresh = SecureDescriptor::create(&self.keypair, self.addr, Timestamp(now + self.phase));
        let handed = fresh.transfer(&self.keypair, joiner).ok()?;
        self.stats.transfers_sent += 1;
        Some(handed)
    }

    /// Accepts a sponsorship descriptor mid-run (§V-A bootstrap applied to
    /// *rejoin*): after a long disconnection — e.g. a partition outlasting
    /// the descriptor lifetime, which consumes every cross-side link — an
    /// isolated node is reintroduced by redeeming a fresh descriptor some
    /// reachable node sponsored for it (see
    /// [`SecureCyclonNode::sponsor_join`]). Unlike
    /// [`SecureCyclonNode::accept_bootstrap`], the descriptor goes through
    /// the full §IV-B intake checks and is parked in the reserve when the
    /// view is full, so an established node never discards the lifeline.
    /// Returns whether the descriptor was kept.
    pub fn accept_sponsorship(&mut self, desc: SecureDescriptor, cycle: u64) -> bool {
        if desc.owner() != self.id || desc.creator() == self.id || desc.is_redeemed() {
            return false;
        }
        if !self.absorb_descriptor(&desc, cycle) {
            return false;
        }
        if let Some(desc) = self.view.try_insert(desc, false) {
            if let Some(desc) = self.view.try_replace_ns_with(desc) {
                self.push_reserve(desc);
            }
        }
        true
    }

    /// Exports every stored violation proof (for bootstrap synchronization
    /// of a joining node, §IV-C: proofs are exchanged so newcomers learn
    /// about already-discovered violators).
    pub fn export_proofs(&self) -> Vec<ViolationProof> {
        self.blacklist
            .proofs()
            .iter()
            .map(|p| p.proof.clone())
            .collect()
    }

    /// Validates and absorbs a batch of proofs (bootstrap synchronization).
    pub fn import_proofs(&mut self, proofs: Vec<ViolationProof>, cycle: u64) {
        self.process_proofs(proofs, cycle);
    }

    // ------------------------------------------------------------------
    // Violation handling
    // ------------------------------------------------------------------

    /// Handles a locally discovered violation: log it, and (when eviction
    /// is enabled) blacklist, purge, and queue the proof for flooding.
    fn discover_violation(&mut self, proof: ViolationProof, cycle: u64) {
        match proof.kind() {
            ProofKind::Cloning => self.stats.proofs_generated_cloning += 1,
            ProofKind::Frequency => self.stats.proofs_generated_frequency += 1,
        }
        let descriptor = match proof.kind() {
            ProofKind::Cloning => Some(proof.evidence().0.id()),
            ProofKind::Frequency => None,
        };
        self.proof_log.push(ProofRecord {
            cycle,
            kind: proof.kind(),
            culprit: proof.culprit(),
            descriptor,
        });
        self.apply_proof(proof, cycle);
    }

    /// Validates and absorbs a proof learned from a peer. Returns whether
    /// it was novel (and should be re-flooded).
    fn accept_remote_proof(&mut self, proof: ViolationProof, cycle: u64) -> bool {
        if self.blacklist.contains(&proof.culprit()) {
            self.stats.proofs_duplicate += 1;
            return false;
        }
        if proof.validate(self.cfg.ticks_per_cycle).is_err() {
            self.stats.proofs_invalid += 1;
            return false;
        }
        self.stats.proofs_received += 1;
        self.apply_proof(proof, cycle)
    }

    /// Registers a validated proof: blacklist, purge every trace of the
    /// culprit, and queue the proof for flooding. No-op in detection-only
    /// mode (Figure 7) or when the culprit is already listed.
    fn apply_proof(&mut self, proof: ViolationProof, cycle: u64) -> bool {
        if !self.cfg.eviction_enabled {
            return false;
        }
        let culprit = proof.culprit();
        if !self.blacklist.register(proof.clone(), cycle) {
            return false;
        }
        if let Some(b) = self.backend.as_mut() {
            let _ = b.record_proof(&proof, cycle);
        }
        self.view.purge_creator(&culprit);
        self.samples.purge_creator(&culprit);
        self.redemptions.purge_creator(&culprit);
        self.pending_ns.retain(|d| d.creator() != culprit);
        self.transfer_history.retain(|d| d.creator() != culprit);
        self.reserve.retain(|d| d.creator() != culprit);
        self.outbox.push(proof);
        true
    }

    /// Sends queued proofs to every current neighbor (§IV-C flooding).
    fn drain_floods(&mut self, send: &mut dyn FnMut(Addr, SecureMsg)) {
        if self.outbox.is_empty() {
            return;
        }
        let targets: Vec<Addr> = self.view.iter().map(|e| e.desc.addr()).collect();
        for proof in self.outbox.drain(..) {
            for &t in &targets {
                send(t, SecureMsg::Proof(Box::new(proof.clone())));
            }
        }
    }

    fn process_proofs(&mut self, proofs: Vec<ViolationProof>, cycle: u64) {
        for p in proofs {
            self.accept_remote_proof(p, cycle);
        }
    }

    fn recent_proofs(&self, cycle: u64) -> Vec<ViolationProof> {
        if !self.cfg.eviction_enabled {
            return Vec::new();
        }
        let since = cycle.saturating_sub(self.cfg.proof_piggyback_cycles);
        self.blacklist.proofs_since(since).cloned().collect()
    }

    // ------------------------------------------------------------------
    // Descriptor intake
    // ------------------------------------------------------------------

    /// Verifies a descriptor, then runs the §IV-B checks. Used for
    /// everything whose validity the node is about to rely on: incoming
    /// ownership transfers, fresh descriptors, redemption certificates.
    ///
    /// Verification is incremental against the verified-prefix memo:
    /// a byte-identical re-intake is an O(1) memo hit, an extended or
    /// forked chain pays only for the links past the last verified
    /// prefix, and a first sighting falls back to full verification.
    /// Unlike the byte-identical *sample* shortcut this replaces, the
    /// memo holds only locally verified prefixes, so an attacker cannot
    /// pre-seed the cache with a forged sample and then replay the same
    /// bytes as a transfer to dodge verification.
    fn absorb_descriptor(&mut self, desc: &SecureDescriptor, cycle: u64) -> bool {
        if self.blacklist.contains(&desc.creator()) {
            return false;
        }
        if desc.verify_with(&mut self.verify_memo).is_err() {
            self.stats.invalid_descriptors += 1;
            return false;
        }
        self.check_only(desc, cycle)
    }

    /// Runs the §IV-B checks without up-front signature verification —
    /// the lazy-verification path for samples (see `sc_core::checks`
    /// module docs: proofs re-verify, so forgeries cannot frame anyone).
    fn absorb_sample(&mut self, desc: &SecureDescriptor, cycle: u64) -> bool {
        if self.blacklist.contains(&desc.creator()) {
            return false;
        }
        self.check_only(desc, cycle)
    }

    /// Pools the signature checks of every descriptor a received message
    /// asks this node to rely on into **one** batched verification
    /// ([`SecureDescriptor::verify_batch_with`]), warming the
    /// verified-prefix memo so the per-descriptor intake gates that follow
    /// are O(1) exact hits. Samples deliberately contribute nothing here —
    /// they are verified lazily, only on §IV-B conflict (see
    /// `sc_core::checks`), so they carry no intake-time checks to pool.
    ///
    /// Verdict-neutral by construction: `verify_batch_with` returns
    /// per-descriptor results identical to sequential `verify_with`, and
    /// only genuinely verified prefixes enter the memo, so the gates that
    /// re-run afterwards decide exactly as the sequential pipeline does —
    /// this call just front-loads their crypto into one combined pass.
    fn prewarm_verify(&mut self, descs: &[&SecureDescriptor]) {
        if !self.cfg.batched_intake || descs.is_empty() {
            return;
        }
        let _ = SecureDescriptor::verify_batch_with(descs, &mut self.verify_memo);
    }

    fn check_only(&mut self, desc: &SecureDescriptor, cycle: u64) -> bool {
        self.stats.samples_processed += 1;
        match self.samples.observe_with(
            desc,
            cycle,
            self.cfg.ticks_per_cycle,
            &mut self.verify_memo,
        ) {
            Observation::Violation(proof) => {
                self.discover_violation(*proof, cycle);
                false
            }
            Observation::Forged => {
                self.stats.invalid_descriptors += 1;
                false
            }
            _ => true,
        }
    }

    /// Validates an incoming ownership transfer handed over by `from`.
    fn validate_transfer(&self, d: &SecureDescriptor, from: NodeId) -> bool {
        if d.is_redeemed() || d.owner() != self.id || d.creator() == self.id {
            return false;
        }
        // Replay guard: a state this node already continued must never be
        // accepted again — re-spending it would make this node the
        // provable culprit of a cloning violation. A legitimate return of
        // the same descriptor carries the extra links and hashes
        // differently.
        if self.spent_states.contains_key(&d.state_digest()) {
            return false;
        }
        let last = d.chain().len() - 1; // owner()==id ≠ creator ⇒ non-empty
        d.owner_at(last) == from
    }

    /// Full intake of an owned transfer: validate, check, insert.
    fn accept_transfer(&mut self, d: SecureDescriptor, from: NodeId, cycle: u64) {
        if !self.validate_transfer(&d, from) {
            self.stats.transfers_rejected += 1;
            return;
        }
        if !self.absorb_descriptor(&d, cycle) {
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

    /// Copies of the current view plus the redemption cache (§IV-B, §V-C).
    fn collect_samples(&self) -> Vec<SecureDescriptor> {
        self.view
            .iter()
            .map(|e| e.desc.clone())
            .chain(self.redemptions.iter().cloned())
            .collect()
    }

    /// Records the pre-transfer copy of a descriptor whose ownership was
    /// handed over in an exchange that then failed: the node "is allowed
    /// to keep a copy of a descriptor whose ownership it has transferred
    /// to some other peer, marking it as non-swappable" (§V-A).
    fn lose_to_ns(&mut self, pre: SecureDescriptor, cycle: u64) {
        self.note_spent(pre.state_digest(), cycle);
        if self.pending_ns.len() == self.cfg.transfer_history_len {
            self.pending_ns.pop_front();
        }
        self.pending_ns.push_back(pre);
    }

    /// Remembers the pre-transfer copy of a successfully transferred
    /// descriptor as a last-resort NS back-fill candidate.
    fn remember_transfer(&mut self, pre: SecureDescriptor, cycle: u64) {
        self.note_spent(pre.state_digest(), cycle);
        if self.transfer_history.len() == self.cfg.transfer_history_len {
            self.transfer_history.pop_front();
        }
        self.transfer_history.push_back(pre);
    }

    /// Fills empty view slots: first with fully owned descriptors parked
    /// in the reserve (swappable), then — at most once per cycle — with a
    /// non-swappable copy of a recently transferred descriptor (§V-A).
    fn backfill(&mut self, cycle: u64) {
        if self.view.free_slots() > 0 && !self.reserve.is_empty() {
            let mut keep = VecDeque::with_capacity(self.reserve.len());
            while let Some(d) = self.reserve.pop_front() {
                if self.blacklist.contains(&d.creator()) {
                    continue;
                }
                // An adversary can deliver the same state twice in one
                // cycle — the duplicate parks here while the original is
                // spent from the view. Letting it re-circulate would make
                // this node double-sign that state (a provable cloning
                // violation against *us*), so a spent state dies in the
                // reserve.
                if self.spent_states.contains_key(&d.state_digest()) {
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
            if self.blacklist.contains(&cand.creator()) {
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
    fn pick_oldest(&mut self) -> Option<crate::view::ViewEntry> {
        loop {
            let entry = self.view.remove_oldest()?;
            if !self.blacklist.contains(&entry.desc.creator()) {
                return Some(entry);
            }
        }
    }

    fn housekeeping(&mut self, cycle: u64) {
        self.samples.prune(cycle);
        self.redemptions.prune(cycle);
        // A session lives through the cycle after the one it opened in.
        expire(
            &mut self.session_expiry,
            &mut self.sessions,
            cycle.saturating_sub(1),
            |s| s.cycle,
        );
        let horizon = cycle.saturating_sub(self.cfg.sample_retention_cycles);
        expire(
            &mut self.redeemed_expiry,
            &mut self.redeemed_regular,
            horizon,
            |c| *c,
        );
        expire(
            &mut self.spent_expiry,
            &mut self.spent_states,
            horizon,
            |c| *c,
        );
    }

    /// Total ownership transfers each side performs in one exchange,
    /// honoring the NS swap cap (§V-A rule 3).
    fn exchange_quota(&self, redemption: LinkKind) -> usize {
        match (redemption, self.cfg.ns_swap_cap) {
            (LinkKind::RedeemNonSwappable, Some(cap)) => self.cfg.swap_len.min(cap),
            _ => self.cfg.swap_len,
        }
    }

    // ------------------------------------------------------------------
    // Passive side
    // ------------------------------------------------------------------

    fn handle_request(
        &mut self,
        from: Addr,
        body: RequestBody,
        cycle: u64,
        now: u64,
    ) -> Option<SecureMsg> {
        let RequestBody {
            redeemed,
            fresh,
            offered,
            samples,
            proofs,
        } = body;

        // -- one batched crypto bill for the whole request --------------
        // Certificate, fresh descriptor, and any eagerly offered
        // transfers verify in one combined pass; the gates below then hit
        // the memo instead of paying per-signature. (Samples are lazily
        // verified and add no checks.)
        let mut to_verify: Vec<&SecureDescriptor> = Vec::with_capacity(2 + offered.len());
        to_verify.push(&redeemed);
        to_verify.push(&fresh);
        to_verify.extend(offered.iter());
        self.prewarm_verify(&to_verify);

        // -- validate the redemption certificate -----------------------
        // Incremental: the certificate's chain prefix is usually already
        // memoized from the sample stream, so only recent links pay.
        if redeemed.verify_with(&mut self.verify_memo).is_err() || redeemed.creator() != self.id {
            self.stats.refused += 1;
            return None;
        }
        let Some(kind) = redeemed.redemption_kind() else {
            self.stats.refused += 1;
            return None;
        };
        let Some(redeemer) = redeemed.redeemer() else {
            self.stats.refused += 1;
            return None;
        };

        // -- validate the initiator's fresh descriptor -----------------
        let fresh_ok = fresh.verify_with(&mut self.verify_memo).is_ok()
            && fresh.creator() == redeemer
            && fresh.owner() == self.id
            && fresh.chain().len() == 1
            && !fresh.is_redeemed()
            && fresh.created_at().distance(Timestamp(now))
                <= self.cfg.max_skew_ticks + self.cfg.ticks_per_cycle;
        if !fresh_ok {
            self.stats.refused += 1;
            return None;
        }

        // -- learn from piggybacked proofs before trusting the peer ----
        self.process_proofs(proofs, cycle);
        if self.blacklist.contains(&redeemer) {
            self.stats.refused += 1;
            return None;
        }

        // -- replay and §V-A non-swappable restrictions -----------------
        // A descriptor may legally be spent twice in total: once by its
        // final owner (regular redemption) and once by a past owner that
        // kept a non-swappable copy (§V-A). Each kind at most once.
        let id = redeemed.id();
        match kind {
            LinkKind::Redeem => {
                if self.redeemed_regular.contains_key(&id) {
                    self.stats.refused += 1;
                    return None;
                }
            }
            LinkKind::RedeemNonSwappable => {
                // Rule 1: at most one NS redemption per descriptor, ever.
                if self.ns_redeemed_ids.contains(&id) {
                    self.stats.refused += 1;
                    return None;
                }
                // Rule 2: at most a configured number of NS redemptions
                // accepted per cycle.
                if self.ns_accepted.0 == cycle
                    && self.ns_accepted.1 >= self.cfg.max_ns_redemptions_per_cycle
                {
                    self.stats.refused += 1;
                    return None;
                }
            }
            LinkKind::Transfer => unreachable!("redemption_kind is terminal"),
        }

        // -- §IV-B checks on everything received ------------------------
        // Observe each distinct descriptor exactly once: the honest
        // initiator's sample set legitimately repeats the redeemed
        // certificate (it enters the redemption cache before samples are
        // collected), and attackers pad their sample lists with arbitrary
        // byte-identical repeats. A repeat carries no new §IV-B
        // information, so skipping it changes no verdict — it only keeps
        // `samples_processed` honest and saves redundant cache walks.
        #[cfg(debug_assertions)]
        let samples_processed_before = self.stats.samples_processed;
        let mut observed: FxHashSet<sc_crypto::Digest> =
            FxHashSet::with_capacity_and_hasher(samples.len() + 2, Default::default());
        observed.insert(redeemed.state_digest());
        observed.insert(fresh.state_digest());
        let red_ok = self.absorb_descriptor(&redeemed, cycle);
        let fresh_clean = self.absorb_descriptor(&fresh, cycle);
        for s in &samples {
            if !observed.insert(s.state_digest()) {
                continue;
            }
            self.absorb_sample(s, cycle);
        }
        #[cfg(debug_assertions)]
        debug_assert!(
            self.stats.samples_processed - samples_processed_before <= observed.len() as u64,
            "samples_processed must increment at most once per observed descriptor"
        );
        if !red_ok || !fresh_clean || self.blacklist.contains(&redeemer) {
            self.stats.refused += 1;
            return None;
        }

        // -- commit the redemption --------------------------------------
        if kind == LinkKind::RedeemNonSwappable {
            if self.ns_accepted.0 != cycle {
                self.ns_accepted = (cycle, 0);
            }
            self.ns_accepted.1 += 1;
            self.ns_redeemed_ids.insert(id);
            self.stats.ns_redemptions_accepted += 1;
        } else {
            self.redeemed_regular.insert(id, cycle);
            self.redeemed_expiry.push_back((cycle, id));
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
            if let Ok(t) = pre.transfer(&self.keypair, redeemer) {
                self.stats.transfers_sent += 1;
                transfers.push(t);
                self.remember_transfer(pre, cycle);
            }
        }

        // -- store what we received -------------------------------------
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
            for d in offered.into_iter().take(quota.saturating_sub(1)) {
                self.accept_transfer(d, redeemer, cycle);
            }
        }

        // -- open the tit-for-tat session -------------------------------
        if self.cfg.tit_for_tat && quota > 1 && !transfers.is_empty() {
            self.sessions.insert(
                from,
                Session {
                    partner: redeemer,
                    remaining: quota - 1,
                    cycle,
                },
            );
            self.session_expiry.push_back((cycle, from));
        }

        self.stats.answered += 1;
        Some(SecureMsg::Accept(Box::new(AcceptBody {
            transfers,
            samples: self.collect_samples(),
            proofs: self.recent_proofs(cycle),
        })))
    }

    fn handle_round(&mut self, from: Addr, body: RoundBody, cycle: u64) -> Option<SecureMsg> {
        let session = *self.sessions.get(&from)?;
        if session.remaining == 0 {
            self.sessions.remove(&from);
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
                let out = pre.transfer(&self.keypair, partner).ok();
                if out.is_some() {
                    self.remember_transfer(pre, cycle);
                }
                out
            });
        self.accept_transfer(body.transfer, partner, cycle);
        if self.blacklist.contains(&partner) {
            self.sessions.remove(&from);
            return None;
        }
        if reply.is_some() {
            self.stats.transfers_sent += 1;
        }
        let remaining = session.remaining - 1;
        if remaining == 0 || reply.is_none() {
            self.sessions.remove(&from);
        } else if let Some(s) = self.sessions.get_mut(&from) {
            s.remaining = remaining;
        }
        Some(SecureMsg::RoundReply(Box::new(RoundReplyBody {
            transfer: reply,
        })))
    }

    // ------------------------------------------------------------------
    // Active side
    // ------------------------------------------------------------------

    fn run_exchange<N: SimNode<Msg = SecureMsg>>(
        &mut self,
        ctx: &mut CycleCtx<'_, N>,
        cycle: u64,
        now: u64,
    ) {
        let Some(entry) = self.pick_oldest() else {
            self.stats.idle_cycles += 1;
            return;
        };
        let partner_id = entry.desc.creator();
        let partner_addr = entry.desc.addr();
        let kind = if entry.non_swappable {
            LinkKind::RedeemNonSwappable
        } else {
            LinkKind::Redeem
        };
        let Ok(redeemed) = entry.desc.redeem(&self.keypair, kind) else {
            return;
        };
        self.note_spent(entry.desc.state_digest(), cycle);
        // Keep the redeemed copy circulating as a sample (§V-C).
        self.redemptions.push(redeemed.clone(), cycle);

        // Durable before the descriptor leaves (the crash-restart
        // frequency bugfix): once the marker is on disk, a `kill -9`
        // anywhere past this line cannot make the restarted self mint a
        // second descriptor inside this gossip period.
        self.note_emission(cycle);
        let fresh_ts = Timestamp(now + self.phase);
        let fresh = SecureDescriptor::create(&self.keypair, self.addr, fresh_ts);
        let Ok(fresh_out) = fresh.transfer(&self.keypair, partner_id) else {
            return;
        };
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
                if let Ok(t) = pre.transfer(&self.keypair, partner_id) {
                    self.stats.transfers_sent += 1;
                    offered.push(t);
                    offered_pre.push(pre);
                }
            }
        }

        let request = SecureMsg::Request(Box::new(RequestBody {
            redeemed,
            fresh: fresh_out,
            offered,
            samples: self.collect_samples(),
            proofs: self.recent_proofs(cycle),
        }));
        self.stats.initiated += 1;
        self.stats.bytes_sent += wire::message_paper_bytes(&request) as u64;
        let outcome = ctx.rpc(partner_addr, request);
        if let RpcOutcome::Reply(reply) = &outcome {
            self.stats.bytes_received += wire::message_paper_bytes(reply) as u64;
        }
        match outcome {
            RpcOutcome::Reply(SecureMsg::Accept(body)) => {
                self.stats.completed += 1;
                let AcceptBody {
                    transfers,
                    samples,
                    proofs,
                } = *body;
                self.process_proofs(proofs, cycle);
                for s in &samples {
                    self.absorb_sample(s, cycle);
                }
                if self.blacklist.contains(&partner_id) {
                    return;
                }
                for pre in offered_pre {
                    self.remember_transfer(pre, cycle);
                }
                let expect = if self.cfg.tit_for_tat { 1 } else { quota };
                let got_any = !transfers.is_empty();
                let incoming: Vec<&SecureDescriptor> = transfers.iter().take(expect).collect();
                self.prewarm_verify(&incoming);
                for t in transfers.into_iter().take(expect) {
                    self.accept_transfer(t, partner_id, cycle);
                }
                if self.cfg.tit_for_tat && got_any {
                    self.run_tft_rounds(ctx, partner_addr, partner_id, quota, cycle);
                }
            }
            RpcOutcome::Reply(_) | RpcOutcome::Timeout => {
                // §V-A cases 1 and 2: the redeemed descriptor is spent and
                // the fresh one may or may not have been delivered; the
                // view descriptors shipped alongside cannot be reused as
                // owned, but non-swappable copies may be retained.
                self.stats.timeouts += 1;
                for pre in offered_pre {
                    self.lose_to_ns(pre, cycle);
                }
            }
        }
    }

    fn run_tft_rounds<N: SimNode<Msg = SecureMsg>>(
        &mut self,
        ctx: &mut CycleCtx<'_, N>,
        partner_addr: Addr,
        partner_id: NodeId,
        quota: usize,
        cycle: u64,
    ) {
        for _round in 1..quota {
            let Some(pre) = self
                .view
                .remove_random_swappable_filtered(1, &mut self.rng, |d| d.creator() != partner_id)
                .into_iter()
                .next()
            else {
                return; // nothing left to trade
            };
            let Ok(out) = pre.transfer(&self.keypair, partner_id) else {
                return;
            };
            self.stats.transfers_sent += 1;
            let round = SecureMsg::Round(Box::new(RoundBody { transfer: out }));
            self.stats.bytes_sent += wire::message_paper_bytes(&round) as u64;
            let outcome = ctx.rpc(partner_addr, round);
            if let RpcOutcome::Reply(reply) = &outcome {
                self.stats.bytes_received += wire::message_paper_bytes(reply) as u64;
            }
            match outcome {
                RpcOutcome::Reply(SecureMsg::RoundReply(reply)) => match reply.transfer {
                    Some(d) => {
                        self.remember_transfer(pre, cycle);
                        self.accept_transfer(d, partner_id, cycle);
                    }
                    None => {
                        // Partner quit halfway: our transfer is gone, keep
                        // a non-swappable copy (§V-A).
                        self.lose_to_ns(pre, cycle);
                        return;
                    }
                },
                RpcOutcome::Reply(_) | RpcOutcome::Timeout => {
                    self.lose_to_ns(pre, cycle);
                    return;
                }
            }
            if self.blacklist.contains(&partner_id) {
                return;
            }
        }
    }
}

/// Cycles between rejoin-ping volleys while starved.
const REJOIN_RETRY_CYCLES: u64 = 2;
/// Addresses pinged per rejoin volley.
const REJOIN_FANOUT: usize = 3;
/// Minimum cycles between sponsorships granted to pings — a ping flood
/// must not permanently consume a node's per-cycle descriptor budget.
const JOIN_GRANT_GAP_CYCLES: u64 = 4;

impl SecureCyclonNode {
    /// The active-thread logic, generic over the hosting node type so that
    /// wrapper enums (mixed honest/malicious networks) can delegate.
    pub fn on_cycle_any<N: SimNode<Msg = SecureMsg>>(&mut self, ctx: &mut CycleCtx<'_, N>) {
        let cycle = ctx.cycle();
        let now = ctx.now();
        self.housekeeping(cycle);
        self.backfill(cycle);
        if !self.view.is_empty() {
            self.was_connected = true;
        }
        if self.may_emit(cycle) {
            self.run_exchange(ctx, cycle, now);
        }
        self.backfill(cycle);
        self.maybe_rejoin_ping(ctx, cycle);
        let mut sends: Vec<(Addr, SecureMsg)> = Vec::new();
        self.drain_floods(&mut |a, m| sends.push((a, m)));
        for (a, m) in sends {
            self.stats.bytes_sent += wire::message_paper_bytes(&m) as u64;
            ctx.send(a, m);
        }
        self.checkpoint(cycle);
    }

    /// §V-A re-sponsorship initiated by the starved node itself: a node
    /// that *was* connected but whose view, reserve, and back-fill pools
    /// have all drained (e.g. a partition outlasted every descriptor)
    /// pings a few recently sampled creator addresses asking to be
    /// sponsored back in. Receivers answer with a [`SecureMsg::JoinGrant`]
    /// processed in [`SecureCyclonNode::on_oneway_any`].
    fn maybe_rejoin_ping<N: SimNode<Msg = SecureMsg>>(
        &mut self,
        ctx: &mut CycleCtx<'_, N>,
        cycle: u64,
    ) {
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
        candidates.sort_unstable();
        candidates.dedup();
        if candidates.is_empty() {
            return;
        }
        let (chosen, _) = candidates.partial_shuffle(&mut self.rng, REJOIN_FANOUT);
        let targets: Vec<Addr> = chosen.to_vec();
        for addr in targets {
            let ping = SecureMsg::JoinPing(Box::new(JoinPingBody { joiner: self.id }));
            self.stats.bytes_sent += wire::message_paper_bytes(&ping) as u64;
            self.stats.rejoin_pings += 1;
            ctx.send(addr, ping);
        }
        self.last_rejoin_ping = Some(cycle);
    }

    /// Whether every source of view links has drained.
    fn starved(&self) -> bool {
        self.view.is_empty()
            && self.reserve.is_empty()
            && self.pending_ns.is_empty()
            && self.transfer_history.is_empty()
    }

    /// Answers a starved peer's rejoin ping with a sponsorship, throttled
    /// and frequency-legal (the grant spends this cycle's budget through
    /// [`SecureCyclonNode::sponsor_join`]).
    fn handle_join_ping(
        &mut self,
        from: Addr,
        joiner: NodeId,
        cycle: u64,
        ctx: &mut NodeCtx<'_, SecureMsg>,
    ) {
        if joiner == self.id || self.blacklist.contains(&joiner) {
            return;
        }
        if let Some(last) = self.last_join_grant {
            if cycle < last.saturating_add(JOIN_GRANT_GAP_CYCLES) {
                return;
            }
        }
        let now = ctx.now();
        if let Some(desc) = self.sponsor_join(joiner, cycle, now) {
            self.last_join_grant = Some(cycle);
            self.stats.rejoin_grants += 1;
            let grant = SecureMsg::JoinGrant(Box::new(JoinGrantBody {
                descriptor: desc,
                proofs: self.recent_proofs(cycle),
            }));
            self.stats.bytes_sent += wire::message_paper_bytes(&grant) as u64;
            ctx.send(from, grant);
        }
    }

    /// The RPC-server logic, reusable by wrapper enums.
    pub fn on_rpc_any(
        &mut self,
        from: Addr,
        msg: SecureMsg,
        ctx: &mut NodeCtx<'_, SecureMsg>,
    ) -> Option<SecureMsg> {
        let cycle = ctx.cycle();
        let now = ctx.now();
        self.stats.bytes_received += wire::message_paper_bytes(&msg) as u64;
        let reply = match msg {
            SecureMsg::Request(body) => self.handle_request(from, *body, cycle, now),
            SecureMsg::Round(body) => self.handle_round(from, *body, cycle),
            _ => None,
        };
        if let Some(r) = &reply {
            self.stats.bytes_sent += wire::message_paper_bytes(r) as u64;
        }
        let mut sends: Vec<(Addr, SecureMsg)> = Vec::new();
        self.drain_floods(&mut |a, m| sends.push((a, m)));
        for (a, m) in sends {
            self.stats.bytes_sent += wire::message_paper_bytes(&m) as u64;
            ctx.send(a, m);
        }
        reply
    }

    /// The datagram logic, reusable by wrapper enums.
    pub fn on_oneway_any(&mut self, from: Addr, msg: SecureMsg, ctx: &mut NodeCtx<'_, SecureMsg>) {
        let cycle = ctx.cycle();
        self.stats.bytes_received += wire::message_paper_bytes(&msg) as u64;
        match msg {
            SecureMsg::Proof(proof) => {
                self.accept_remote_proof(*proof, cycle);
            }
            SecureMsg::JoinPing(body) => {
                self.handle_join_ping(from, body.joiner, cycle, ctx);
            }
            SecureMsg::JoinGrant(body) => {
                let JoinGrantBody { descriptor, proofs } = *body;
                self.process_proofs(proofs, cycle);
                if self.accept_sponsorship(descriptor, cycle) {
                    self.was_connected = true;
                }
            }
            _ => return,
        }
        let mut sends: Vec<(Addr, SecureMsg)> = Vec::new();
        self.drain_floods(&mut |a, m| sends.push((a, m)));
        for (a, m) in sends {
            self.stats.bytes_sent += wire::message_paper_bytes(&m) as u64;
            ctx.send(a, m);
        }
    }
}

impl SimNode for SecureCyclonNode {
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

    fn on_oneway(&mut self, from: Addr, msg: Self::Msg, ctx: &mut NodeCtx<'_, Self::Msg>) {
        self.on_oneway_any(from, msg, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bootstrap::{default_phase, ring_bootstrap};
    use sc_crypto::Scheme;
    use sc_sim::{Engine, NetworkModel, SimConfig};
    use std::collections::HashMap;

    fn keypairs(n: usize) -> Vec<Keypair> {
        (0..n)
            .map(|i| {
                let mut seed = [0u8; 32];
                seed[..8].copy_from_slice(&(i as u64).to_le_bytes());
                Keypair::from_seed(Scheme::KeyedHash, seed)
            })
            .collect()
    }

    /// Builds an all-honest SecureCyclon network with a legal bootstrap.
    fn build(n: usize, cfg: SecureConfig, seed: u64) -> Engine<SecureCyclonNode> {
        build_net(n, cfg, seed, NetworkModel::reliable())
    }

    fn build_net(
        n: usize,
        cfg: SecureConfig,
        seed: u64,
        net: NetworkModel,
    ) -> Engine<SecureCyclonNode> {
        let cfg = cfg.validated();
        let kps = keypairs(n);
        let addrs: Vec<Addr> = (0..n as Addr).collect();
        let phases: Vec<u64> = (0..n)
            .map(|i| default_phase(i, cfg.ticks_per_cycle))
            .collect();
        let plan = ring_bootstrap(&kps, &addrs, &phases, cfg.view_len, cfg.ticks_per_cycle);
        let mut engine = Engine::new(SimConfig {
            seed,
            net,
            ticks_per_cycle: cfg.ticks_per_cycle,
            start_cycle: plan.start_cycle,
            execution: sc_sim::Execution::Sequential,
        });
        for (i, descs) in plan.per_node.into_iter().enumerate() {
            let mut node = SecureCyclonNode::new(
                kps[i].clone(),
                i as Addr,
                cfg,
                sc_sim::rng::derive_seed(seed, "node", i as u64),
                phases[i],
            );
            for d in descs {
                assert!(node.accept_bootstrap(d));
            }
            engine.spawn_with(|_| node);
        }
        engine
    }

    fn small_cfg() -> SecureConfig {
        SecureConfig::default().with_view_len(8).with_swap_len(3)
    }

    #[test]
    fn housekeeping_expires_exactly_what_a_full_scan_would() {
        // The scheduled expiry must agree with `retain` over the whole
        // map at every cycle, including entries re-recorded at a later
        // cycle (`note_spent` refreshes) and entries recovered out of
        // order after a restart.
        let cfg = small_cfg().validated();
        let retention = cfg.sample_retention_cycles;
        let mut node = SecureCyclonNode::new(keypairs(1).remove(0), 0, cfg, [7u8; 32], 0);
        let digest = |i: u64| sc_crypto::sha256(&i.to_be_bytes());
        node.restore(PersistentState {
            spent: vec![(digest(900), 3), (digest(901), 0), (digest(902), 2)],
            ..Default::default()
        });
        let mut expected: HashMap<sc_crypto::Digest, u64> =
            [(digest(900), 3), (digest(901), 0), (digest(902), 2)].into();
        for cycle in 4..4 + 3 * retention {
            // Two new states a cycle, and the one from five cycles ago
            // is spent again.
            for i in [2 * cycle, 2 * cycle + 1, 2 * cycle.saturating_sub(5)] {
                node.note_spent(digest(i), cycle);
                expected.insert(digest(i), cycle);
            }
            node.housekeeping(cycle);
            let horizon = cycle.saturating_sub(retention);
            expected.retain(|_, c| *c >= horizon);
            let got: HashMap<_, _> = node.spent_states.iter().map(|(d, c)| (*d, *c)).collect();
            assert_eq!(got, expected, "cycle {cycle}");
            assert!(
                node.spent_expiry.len() <= 3 * (retention as usize + 1),
                "the schedule is bounded by the window"
            );
        }
    }

    #[test]
    fn respent_state_is_refused_but_legitimate_return_is_not() {
        // With deterministic signatures an adversary can re-deliver the
        // byte-identical state a victim already continued; a second
        // innocent signature over it would be a valid cloning proof
        // *against the victim*. Intake must drop the replay — while still
        // accepting the same descriptor when it legitimately returns via
        // a longer chain.
        let kps = keypairs(3);
        let (creator, holder, next) = (&kps[0], &kps[1], &kps[2]);
        let mut node = SecureCyclonNode::new(holder.clone(), 1, small_cfg(), [7u8; 32], 0);

        let handed = SecureDescriptor::create(creator, 0, Timestamp(0))
            .transfer(creator, holder.public())
            .unwrap();
        node.accept_transfer(handed.clone(), creator.public(), 0);
        assert_eq!(node.view.len(), 1, "first intake accepted");

        // Spend it: sign a transfer onward, as an exchange would.
        let pre = node.view.remove_oldest().unwrap().desc;
        let onward = pre.transfer(holder, next.public()).unwrap();
        node.remember_transfer(pre, 0);

        // A byte-identical replay of the spent state is refused.
        let rejected_before = node.stats.transfers_rejected;
        node.accept_transfer(handed, creator.public(), 1);
        assert_eq!(node.stats.transfers_rejected, rejected_before + 1);
        assert_eq!(node.view.len(), 0, "replay must not re-enter the view");

        // The descriptor returning home through the next owner is legal:
        // its extra links hash to a different state.
        let returned = onward.transfer(next, holder.public()).unwrap();
        node.accept_transfer(returned, next.public(), 2);
        assert_eq!(node.view.len(), 1, "legitimate return accepted");
    }

    #[test]
    fn honest_network_runs_violation_free() {
        let mut eng = build(48, small_cfg(), 1);
        eng.run_cycles(60);
        for (_, node) in eng.nodes() {
            assert_eq!(node.blacklist().len(), 0, "no false accusations");
            assert!(node.proof_log().is_empty(), "no proofs generated");
            assert_eq!(node.stats().invalid_descriptors, 0);
        }
    }

    #[test]
    fn honest_views_stay_full_and_swappable() {
        let cfg = small_cfg();
        let mut eng = build(128, cfg, 2);
        eng.run_cycles(80);
        let mut total_ns = 0usize;
        let mut total_len = 0usize;
        for (_, node) in eng.nodes() {
            assert!(
                node.view().len() >= cfg.view_len / 2,
                "view at least half full: {}",
                node.view().len()
            );
            total_len += node.view().len();
            total_ns += node.view().ns_count();
        }
        let avg = total_len as f64 / 128.0;
        assert!(
            avg >= cfg.view_len as f64 * 0.7,
            "views near capacity on average: {avg}"
        );
        let ns_frac = total_ns as f64 / (128.0 * cfg.view_len as f64);
        assert!(ns_frac < 0.05, "non-swappable fraction {ns_frac}");
    }

    #[test]
    fn exchanges_actually_complete() {
        let mut eng = build(32, small_cfg(), 3);
        eng.run_cycles(40);
        let completed: u64 = eng.nodes().map(|(_, n)| n.stats().completed).sum();
        let initiated: u64 = eng.nodes().map(|(_, n)| n.stats().initiated).sum();
        assert!(initiated >= 32 * 39, "nodes initiate nearly every cycle");
        assert!(
            completed as f64 / initiated as f64 > 0.95,
            "exchanges succeed: {completed}/{initiated}"
        );
    }

    #[test]
    fn indegree_concentrates_like_figure_2() {
        let cfg = small_cfg();
        let mut eng = build(96, cfg, 4);
        eng.run_cycles(100);
        let mut indeg: HashMap<NodeId, usize> = HashMap::new();
        for (_, node) in eng.nodes() {
            for e in node.view().iter() {
                *indeg.entry(e.desc.creator()).or_default() += 1;
            }
        }
        assert_eq!(indeg.len(), 96, "every node has inbound links");
        let min = *indeg.values().min().unwrap();
        let max = *indeg.values().max().unwrap();
        assert!(min >= 2, "no starved nodes (min {min})");
        assert!(max <= cfg.view_len * 3, "no hubs (max {max})");
    }

    #[test]
    fn views_never_hold_self_dups_or_foreign_descriptors() {
        let mut eng = build(32, small_cfg(), 5);
        for _ in 0..30 {
            eng.run_cycle();
            for (_, node) in eng.nodes() {
                let mut ids = Vec::new();
                for e in node.view().iter() {
                    assert_ne!(e.desc.creator(), node.id(), "no self-links");
                    assert_eq!(e.desc.owner(), node.id(), "owns all view entries");
                    assert!(!e.desc.is_redeemed());
                    ids.push(e.desc.id());
                }
                let mut dedup = ids.clone();
                dedup.sort();
                dedup.dedup();
                assert_eq!(dedup.len(), ids.len(), "no duplicate descriptor ids");
            }
        }
    }

    #[test]
    fn descriptor_ages_bounded_in_equilibrium() {
        let cfg = small_cfg();
        let mut eng = build(48, cfg, 6);
        eng.run_cycles(120);
        let tpc = cfg.ticks_per_cycle;
        let now = Timestamp(eng.clock().now());
        let max_age = eng
            .nodes()
            .flat_map(|(_, n)| {
                n.view()
                    .iter()
                    .map(|e| e.desc.age_cycles(now, tpc))
                    .collect::<Vec<_>>()
            })
            .max()
            .unwrap();
        assert!(
            max_age < cfg.view_len as u64 * 8,
            "descriptor lifetime bounded (max {max_age})"
        );
    }

    #[test]
    fn lossy_network_heals_with_ns_descriptors() {
        let cfg = small_cfg();
        let mut eng = build_net(48, cfg, 7, NetworkModel::lossy(0.10));
        eng.run_cycles(80);
        // Despite 10% loss in every direction, no false proofs and views
        // recover through NS back-fill.
        let mut lens = Vec::new();
        for (_, node) in eng.nodes() {
            assert!(node.proof_log().is_empty(), "loss is not a violation");
            lens.push(node.view().len());
        }
        let avg = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
        assert!(avg > cfg.view_len as f64 * 0.7, "avg view {avg}");
        let backfills: u64 = eng.nodes().map(|(_, n)| n.stats().ns_backfills).sum();
        assert!(backfills > 0, "NS repair actually used");
    }

    #[test]
    fn mass_failure_purges_dead_links() {
        let cfg = small_cfg();
        let mut eng = build(80, cfg, 8);
        eng.run_cycles(40);
        for a in 0..32u32 {
            eng.kill(a);
        }
        eng.run_cycles(60);
        let mut dead = 0usize;
        let mut total = 0usize;
        for (_, node) in eng.nodes() {
            for e in node.view().iter() {
                total += 1;
                if e.desc.addr() < 32 {
                    dead += 1;
                }
            }
        }
        assert!(
            (dead as f64 / total as f64) < 0.05,
            "dead links purged ({dead}/{total})"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let digest = |seed: u64| {
            let mut eng = build(24, small_cfg(), seed);
            eng.run_cycles(30);
            eng.nodes()
                .map(|(_, n)| {
                    (
                        n.stats().completed,
                        n.view().len(),
                        n.view()
                            .iter()
                            .map(|e| e.desc.created_at().ticks())
                            .sum::<u64>(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(digest(42), digest(42));
    }

    #[test]
    fn samples_processed_counts_each_descriptor_once() {
        let kps = keypairs(3);
        let (a, b, c) = (kps[0].clone(), kps[1].clone(), kps[2].clone());
        let cfg = small_cfg().validated();
        let mut node = SecureCyclonNode::new(a.clone(), 0, cfg, [9u8; 32], 0);
        // B holds a descriptor created by A and redeems it back to A.
        let redeemed = SecureDescriptor::create(&a, 0, Timestamp(0))
            .transfer(&a, b.public())
            .unwrap()
            .redeem(&b, LinkKind::Redeem)
            .unwrap();
        let now = cfg.ticks_per_cycle;
        let fresh = SecureDescriptor::create(&b, 1, Timestamp(now))
            .transfer(&b, a.public())
            .unwrap();
        let sample = SecureDescriptor::create(&c, 2, Timestamp(500));
        let body = RequestBody {
            redeemed: redeemed.clone(),
            fresh,
            offered: Vec::new(),
            // The initiator's sample set repeats the redemption
            // certificate, exactly as the real initiator's
            // `collect_samples` does (the redeemed copy enters its
            // redemption cache before samples are collected).
            samples: vec![redeemed, sample],
            proofs: Vec::new(),
        };
        let reply = node.handle_request(7, body, 1, now);
        assert!(reply.is_some(), "exchange accepted");
        assert_eq!(
            node.stats().samples_processed,
            3,
            "redeemed + fresh + one distinct sample; the duplicate must not double-count"
        );
    }

    #[test]
    fn forged_sample_cannot_preverify_a_transfer() {
        use crate::descriptor::{ChainLink, Genesis};
        use sc_crypto::Signature;
        let kps = keypairs(3);
        let (a, c) = (kps[0].clone(), kps[2].clone());
        let mut node = SecureCyclonNode::new(a.clone(), 0, small_cfg(), [9u8; 32], 0);
        // A forged descriptor "created by" c and "owned by" a, with
        // garbage signatures throughout.
        let genesis = Genesis {
            creator: c.public(),
            addr: 2,
            created_at: Timestamp(0),
            sig: Signature::from_bytes([0u8; 64]),
        };
        let link = ChainLink {
            to: a.public(),
            kind: LinkKind::Transfer,
            sig: Signature::from_bytes([0u8; 64]),
        };
        let forged = SecureDescriptor::from_parts(genesis, vec![link]);
        // First shown as a sample: cached lazily, without verification.
        assert!(node.absorb_sample(&forged, 0));
        // Then replayed byte-identically as an ownership transfer: the
        // intake gate must still verify — and reject — it. (The old
        // byte-identical-sample shortcut skipped verification here.)
        node.accept_transfer(forged, c.public(), 0);
        assert_eq!(node.stats().invalid_descriptors, 1);
        assert_eq!(node.stats().transfers_received, 0);
        assert_eq!(node.view().len(), 0, "forgery never reaches the view");
    }

    #[test]
    fn samples_accumulate_and_prune() {
        let mut eng = build(32, small_cfg(), 9);
        eng.run_cycles(30);
        let counts: Vec<usize> = eng.nodes().map(|(_, n)| n.sample_count()).collect();
        assert!(counts.iter().all(|&c| c > 0), "caches in use");
        // Retention bounds memory: far fewer samples than total descriptors
        // ever created (32 nodes × 30 cycles plus bootstrap).
        assert!(counts.iter().all(|&c| c < 32 * 38));
    }

    #[test]
    fn restart_cannot_reopen_a_spent_emission_budget() {
        // THE crash-restart frequency bugfix: an honest node killed after
        // its descriptor left but before the cycle ended must not re-mint
        // on restart — two mints in one period are a valid §IV-B
        // frequency proof *against itself*.
        use crate::storage::MemoryBackend;
        let kps = keypairs(3);
        let cfg = small_cfg().validated();
        let mut node = SecureCyclonNode::with_backend(
            kps[0].clone(),
            0,
            cfg,
            [1u8; 32],
            0,
            Box::new(MemoryBackend::new()),
        )
        .unwrap();
        let grant = node.sponsor_join(kps[1].public(), 5, 5_000);
        assert!(grant.is_some(), "budget available before the crash");
        assert!(!node.may_emit(5));

        // kill -9: the node object dies, only the "disk" survives.
        let disk = node.take_backend().unwrap();
        let mut revived =
            SecureCyclonNode::with_backend(kps[0].clone(), 0, cfg, [2u8; 32], 0, disk).unwrap();
        assert_eq!(revived.last_emission(), Some(5), "marker recovered");
        assert!(!revived.may_emit(5), "budget stays spent across restart");
        assert!(
            revived.sponsor_join(kps[2].public(), 5, 5_100).is_none(),
            "a second emission in cycle 5 would be self-incriminating"
        );
        assert!(revived.may_emit(6), "next cycle's budget is untouched");

        // An amnesiac restart (no backend) is exactly the old bug: it
        // would have emitted again.
        let amnesiac = SecureCyclonNode::new(kps[0].clone(), 0, cfg, [3u8; 32], 0);
        assert!(
            amnesiac.may_emit(5),
            "without durable state the bug is live"
        );
    }

    #[test]
    fn restart_restores_view_blacklist_and_spent_guard() {
        use crate::storage::MemoryBackend;
        let kps = keypairs(4);
        let (me, peer, next) = (&kps[0], &kps[1], &kps[2]);
        let cfg = small_cfg().validated();
        let mut node = SecureCyclonNode::with_backend(
            me.clone(),
            0,
            cfg,
            [1u8; 32],
            0,
            Box::new(MemoryBackend::new()),
        )
        .unwrap();

        // A held descriptor, a blacklisted culprit, and a spent state.
        let held = SecureDescriptor::create(peer, 1, Timestamp(0))
            .transfer(peer, me.public())
            .unwrap();
        node.accept_transfer(held, peer.public(), 0);
        assert_eq!(node.view().len(), 1);

        let culprit_kp = &kps[3];
        let d1 = SecureDescriptor::create(culprit_kp, 3, Timestamp(0));
        let d2 = SecureDescriptor::create(culprit_kp, 3, Timestamp(cfg.ticks_per_cycle / 2));
        let proof = ViolationProof::frequency(d1, d2, cfg.ticks_per_cycle).unwrap();
        let culprit = proof.culprit();
        assert!(node.accept_remote_proof(proof, 2));

        let spent = SecureDescriptor::create(next, 2, Timestamp(10))
            .transfer(next, me.public())
            .unwrap();
        node.remember_transfer(spent.clone(), 2);
        node.checkpoint(2);

        let disk = node.take_backend().unwrap();
        let mut revived =
            SecureCyclonNode::with_backend(me.clone(), 0, cfg, [2u8; 32], 0, disk).unwrap();
        assert_eq!(revived.view().len(), 1, "held descriptor recovered");
        assert!(revived.blacklist().contains(&culprit), "blacklist survived");
        // Re-delivery of the already-signed-away state is refused: signing
        // it a second time would be self-made §IV-B cloning evidence.
        let rejected_before = revived.stats().transfers_rejected;
        revived.accept_transfer(spent, next.public(), 3);
        assert_eq!(
            revived.stats().transfers_rejected,
            rejected_before + 1,
            "spent-state guard survived the restart"
        );
    }
}
