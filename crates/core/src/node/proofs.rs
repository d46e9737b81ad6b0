//! Violation handling (§IV-C): local discovery, remote proofs,
//! blacklisting with its purge, and the flood queue.

use super::{ProofRecord, SecureCyclonNode};
use crate::machine::Flood;
use crate::msg::SecureMsg;
use crate::proof::{ProofKind, ViolationProof};

impl SecureCyclonNode {
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

    /// Handles a locally discovered violation: log it, and (when eviction
    /// is enabled) blacklist, purge, and queue the proof for flooding.
    pub(super) fn discover_violation(&mut self, proof: ViolationProof, cycle: u64) {
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
    pub(super) fn accept_remote_proof(&mut self, proof: &ViolationProof, cycle: u64) -> bool {
        if self.blacklist.contains(&proof.culprit()) {
            self.stats.proofs_duplicate += 1;
            return false;
        }
        let valid = proof.validate_with(self.cfg.ticks_per_cycle, &mut self.verify_scratch);
        if valid.is_err() {
            self.stats.proofs_invalid += 1;
            return false;
        }
        self.stats.proofs_received += 1;
        self.apply_proof(proof.clone(), cycle)
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
        self.redemptions.retain(|d| d.creator() != culprit);
        self.pending_ns.retain(|d| d.creator() != culprit);
        self.transfer_history.retain(|d| d.creator() != culprit);
        self.reserve.retain(|d| d.creator() != culprit);
        self.outbox.push(SecureMsg::Proof(proof));
        true
    }

    /// Every pending proof for every current neighbor, in learning order
    /// (§IV-C flooding); `None` when there is no proof or no neighbor.
    pub(super) fn drain_floods(&mut self) -> Option<Flood> {
        let msgs = std::mem::take(&mut self.outbox);
        if msgs.is_empty() || self.view.is_empty() {
            return None;
        }
        let to = self.view.iter().map(|e| e.desc.addr()).collect();
        Some(Flood { to, msgs })
    }

    pub(super) fn process_proofs(&mut self, proofs: &[ViolationProof], cycle: u64) {
        for p in proofs {
            self.accept_remote_proof(p, cycle);
        }
    }

    /// The proofs to piggyback on an exchange message (§IV-C): those
    /// learned within the window, but any against a culprit of `sent`,
    /// the receiver's own proofs sorted by culprit.
    pub(super) fn recent_proofs(&self, cycle: u64, sent: &[ViolationProof]) -> Vec<ViolationProof> {
        if !self.cfg.eviction_enabled {
            return Vec::new();
        }
        let since = cycle.saturating_sub(self.cfg.proof_piggyback_cycles);
        self.blacklist
            .proofs_since(since)
            .filter(|p| {
                sent.binary_search_by_key(&p.culprit(), ViolationProof::culprit)
                    .is_err()
            })
            .cloned()
            .collect()
    }
}
