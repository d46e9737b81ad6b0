//! The blacklist: permanent, proof-backed eviction of violators (§IV-C).
//!
//! A node lands here only with a validated [`ViolationProof`]; the
//! blacklist therefore never holds false positives — the property that
//! distinguishes SecureCyclon from the probabilistic defenses surveyed in
//! the paper's §VII. Proofs are retained so they can be re-served to
//! late-joining nodes during gossip.

use crate::proof::ViolationProof;
use sc_crypto::{FxHashSet, NodeId};

/// A registered proof together with when this node learned of it.
#[derive(Clone, Debug)]
pub struct StoredProof {
    /// The validated proof.
    pub proof: ViolationProof,
    /// Cycle at which this node validated and registered the proof.
    pub learned_cycle: u64,
}

/// Set of provably malicious nodes plus the evidence against them.
#[derive(Debug, Default)]
pub struct Blacklist {
    culprits: FxHashSet<NodeId>,
    /// In non-decreasing `learned_cycle`, so the window of
    /// [`Blacklist::proofs_since`] is a binary search away.
    proofs: Vec<StoredProof>,
}

impl Blacklist {
    /// Creates an empty blacklist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `id` has been proven malicious.
    pub fn contains(&self, id: &NodeId) -> bool {
        self.culprits.contains(id)
    }

    /// Number of blacklisted nodes.
    pub fn len(&self) -> usize {
        self.culprits.len()
    }

    /// Whether no node has been blacklisted.
    pub fn is_empty(&self) -> bool {
        self.culprits.is_empty()
    }

    /// Registers a proof. Returns `true` if the culprit is newly
    /// blacklisted, `false` if it was already known (the caller should not
    /// re-flood in that case — the paper's DoS guard, §IV-C).
    ///
    /// The proof must already be validated; this type does not re-check.
    ///
    /// Proofs arrive in cycle order but for one case: on sockets an
    /// exchange begun at cycle c may resolve, and register what its answer
    /// carried at c, after a request of cycle c + 1 registered its own. A
    /// late proof goes in behind the last one of its cycle.
    pub fn register(&mut self, proof: ViolationProof, learned_cycle: u64) -> bool {
        if !self.culprits.insert(proof.culprit()) {
            return false;
        }
        let at = self
            .proofs
            .partition_point(|p| p.learned_cycle <= learned_cycle);
        self.proofs.insert(
            at,
            StoredProof {
                proof,
                learned_cycle,
            },
        );
        true
    }

    /// All stored proofs, in the order they were learned (by cycle).
    pub fn proofs(&self) -> &[StoredProof] {
        &self.proofs
    }

    /// Proofs learned at or after `cycle` (for gossip piggybacking): the
    /// stored tail from the first such proof on, found without a scan.
    pub fn proofs_since(&self, cycle: u64) -> impl Iterator<Item = &ViolationProof> {
        let from = self.proofs.partition_point(|p| p.learned_cycle < cycle);
        self.proofs[from..].iter().map(|p| &p.proof)
    }

    /// Iterates over blacklisted node IDs.
    pub fn culprits(&self) -> impl Iterator<Item = &NodeId> {
        self.culprits.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::SecureDescriptor;
    use crate::time::Timestamp;
    use sc_crypto::{Keypair, Scheme};

    fn proof(tag: u8, ts: u64) -> ViolationProof {
        let kp = Keypair::from_seed(Scheme::Schnorr61, [tag; 32]);
        let d1 = SecureDescriptor::create(&kp, 0, Timestamp(ts));
        let d2 = SecureDescriptor::create(&kp, 0, Timestamp(ts + 1));
        ViolationProof::frequency(d1, d2, 1000).unwrap()
    }

    #[test]
    fn register_and_lookup() {
        let mut bl = Blacklist::new();
        let p = proof(1, 0);
        let culprit = p.culprit();
        assert!(!bl.contains(&culprit));
        assert!(bl.register(p, 5));
        assert!(bl.contains(&culprit));
        assert_eq!(bl.len(), 1);
    }

    #[test]
    fn duplicate_culprit_not_reregistered() {
        let mut bl = Blacklist::new();
        assert!(bl.register(proof(1, 0), 5));
        assert!(!bl.register(proof(1, 5000), 6), "same culprit, new proof");
        assert_eq!(bl.len(), 1);
        assert_eq!(bl.proofs().len(), 1, "evidence not duplicated");
    }

    #[test]
    fn proofs_since_filters_by_cycle() {
        let mut bl = Blacklist::new();
        bl.register(proof(1, 0), 5);
        bl.register(proof(2, 0), 10);
        bl.register(proof(3, 0), 15);
        assert_eq!(bl.proofs_since(10).count(), 2);
        assert_eq!(bl.proofs_since(16).count(), 0);
        assert_eq!(bl.proofs_since(0).count(), 3);
    }

    #[test]
    fn a_late_proof_is_held_in_cycle_order() {
        // An exchange of cycle 10 resolving after a request of cycle 11:
        // the window from 11 holds 11's proofs alone, the one from 10
        // holds 10's too.
        let mut bl = Blacklist::new();
        bl.register(proof(1, 0), 9);
        bl.register(proof(2, 0), 11);
        bl.register(proof(3, 0), 10);
        bl.register(proof(4, 0), 11);
        let culprits = |since| {
            bl.proofs_since(since)
                .map(|p| p.culprit())
                .collect::<Vec<_>>()
        };
        let culprit = |tag| proof(tag, 0).culprit();
        assert_eq!(culprits(11), [culprit(2), culprit(4)]);
        assert_eq!(culprits(10), [culprit(3), culprit(2), culprit(4)]);
        let learned: Vec<u64> = bl.proofs().iter().map(|p| p.learned_cycle).collect();
        assert_eq!(learned, [9, 10, 11, 11]);
    }

    #[test]
    fn empty_checks() {
        let bl = Blacklist::new();
        assert!(bl.is_empty());
        assert_eq!(bl.culprits().count(), 0);
    }
}
