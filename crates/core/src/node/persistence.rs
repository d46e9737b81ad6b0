//! Durable state: recovery at construction, the persist-before-send
//! markers, and the end-of-turn checkpoint.
//!
//! Storage stays behind the injected [`StateBackend`] rather than
//! becoming an effect of [`SecureCyclonNode::step`]: persist-before-send
//! is then statement order inside one function (`note_emission` returns
//! before the effect carrying the fresh descriptor is built), not a rule
//! every driver has to obey.

use super::SecureCyclonNode;
use crate::config::SecureConfig;
use crate::descriptor::SecureDescriptor;
use crate::storage::{PersistentState, StateBackend};
use crate::wire::WireLimits;
use crate::Addr;
use sc_crypto::Keypair;

impl SecureCyclonNode {
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
    pub(super) fn restore(&mut self, mut state: PersistentState) {
        // A log that holds more than proofs was written by a node that had
        // joined — even when every checkpointed descriptor has been spent
        // since and the view comes back empty: then the §V-A rejoin ping
        // is its only way back. Proofs alone are what a joiner logs from
        // its grant before its first checkpoint: it never signed anything
        // away, so it boots as new and asks its sponsor again.
        let proofs = std::mem::take(&mut state.proofs);
        self.was_connected = !state.is_trivial();
        self.emitted_cycle = state.emitted_cycle;
        for (learned, proof) in proofs {
            if proof.validate(self.cfg.ticks_per_cycle).is_ok() {
                self.blacklist.register(proof, learned);
            }
        }
        // Recovered records arrive in no particular order; the rings
        // must be in cycle order.
        state.spent.sort_unstable_by_key(|&(_, cycle)| cycle);
        for (digest, cycle) in state.spent {
            self.spent.push(cycle, digest);
        }
        state
            .redeemed_regular
            .sort_unstable_by_key(|&(_, cycle)| cycle);
        for (id, cycle) in state.redeemed_regular {
            self.redeemed_regular.push(cycle, id);
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
    }

    /// Whether a persisted owned descriptor may safely re-enter the view
    /// pipeline after a restart.
    fn recoverable(&self, desc: &SecureDescriptor) -> bool {
        desc.owner() == self.id
            && desc.creator() != self.id
            && !desc.is_redeemed()
            && !self.blacklist.contains(&desc.creator())
            && !self.spent.contains(&desc.state_digest())
            && desc.verify().is_ok()
    }

    /// `kill -9` and restart: this node's identity, address, phase and
    /// configuration, rebuilt around its own backend with fresh protocol
    /// randomness from `rng_seed`.
    ///
    /// # Errors
    ///
    /// `NotFound` without a backend (nothing survives the crash), else as
    /// [`SecureCyclonNode::with_backend`].
    pub fn restarted(mut self, rng_seed: [u8; 32]) -> std::io::Result<Self> {
        let backend = self.backend.take().ok_or(std::io::ErrorKind::NotFound)?;
        let (keypair, addr, cfg, phase) = (self.keypair, self.addr, self.cfg, self.phase);
        Self::with_backend(keypair, addr, cfg, rng_seed, phase, backend)
    }

    /// Whether a durable backend is attached.
    pub fn is_durable(&self) -> bool {
        self.backend.is_some()
    }

    /// Latest cycle whose fresh-descriptor budget is spent (recovered
    /// across restarts when a backend is attached).
    pub fn last_emission(&self) -> Option<u64> {
        self.emitted_cycle
    }

    /// Whether minting a fresh descriptor in `cycle` is frequency-legal.
    pub(super) fn may_emit(&self, cycle: u64) -> bool {
        match self.emitted_cycle {
            Some(spent) => spent < cycle,
            None => true,
        }
    }

    /// Marks `cycle`'s budget spent, durably *before* the caller lets the
    /// descriptor leave. A backend write failure is deliberately
    /// swallowed: the in-memory marker still protects this life, only
    /// crash-recovery fidelity degrades.
    pub(super) fn note_emission(&mut self, cycle: u64) {
        self.emitted_cycle = Some(cycle);
        if let Some(b) = self.backend.as_mut() {
            let _ = b.record_emission(cycle);
        }
    }

    /// Records a spent state digest, durably when a backend is attached
    /// (re-signing a restored copy would be cloning evidence).
    pub(super) fn note_spent(&mut self, digest: sc_crypto::Digest, cycle: u64) {
        self.spent.push(cycle, digest);
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
            // The ledger's durable copy is the records `note_spent` wrote;
            // `checkpoint` names them.
            spent: Vec::new(),
            redeemed_regular: self
                .redeemed_regular
                .iter()
                .map(|(c, id)| (*id, c))
                .collect(),
            ns_redeemed: self.ns_redeemed_ids.iter().copied().collect(),
            ns_accepted: self.ns_accepted,
        }
    }

    /// End-of-cycle checkpoint (no-op without a backend). It names the
    /// oldest spent record the ring still holds: the backend keeps its
    /// records from there on, a late one waiting behind a younger one
    /// included, and lets the expired ones go.
    pub(super) fn checkpoint(&mut self, cycle: u64) {
        if self.backend.is_none() {
            return;
        }
        let state = self.persistent_state(cycle);
        let spent_from = self.spent.iter().next().map(|(stamp, _)| stamp);
        if let Some(b) = self.backend.as_mut() {
            let _ = b.save_checkpoint_naming(&state, spent_from);
        }
    }
}
