//! Bounded memo of *verified* chains — the cache behind
//! `SecureDescriptor::verify_with`.
//!
//! **The protocol node does not use it.** An honest node checks every
//! signature of every descriptor it relies on, every time
//! (`SecureDescriptor::verify_batch`); measured on the benchmark's honest
//! workload the memo saved 2.8 % of those checks for as many hash-set
//! lookups as there are checks and ≈ 40 kB per node, and left the node.
//! The type stays
//! exported, with its tests, for the two layer probes of `perfbench/`
//! that still time it, and goes when they do (ROADMAP item 1).
//!
//! Every descriptor carries a running state digest that commits to its
//! genesis record and every chain link (including signatures). Once a
//! node has fully verified a descriptor, its **tip** digest — the state
//! digest of the whole chain — identifies a byte-exact chain whose
//! signatures and structure are known good, and that one digest is what
//! the memo keeps. The same descriptor arriving again is one lookup; a
//! descriptor that has moved on since carries the old tip among its prefix
//! digests, so only the links appended after it are checked — intake
//! verification is amortized O(new links), not O(chain length).
//!
//! What deliberately does **not** hit: a fork branching off *below* a
//! memoized tip, and a shorter copy of a memoized chain. They are verified
//! in full — same verdict, more signature checks. Memoizing every prefix
//! would catch them, at L entries per descriptor instead of one; but on
//! the honest path no such copy arrives (a descriptor only grows, and a
//! fork is a §IV-B violation), and the all-prefix memo measured the same
//! 36.46 signature checks per node-cycle while holding a third of every
//! node's memory.
//!
//! # Safety argument
//!
//! Entries are inserted **only** after a full local verification
//! succeeds, and are keyed by a SHA-256 digest of the entire chain
//! content. A tampered copy (flipped signature, spliced prefix, forged
//! genesis) hashes to different digests, misses, and falls back to full
//! verification — the memo cannot be "poisoned" with unverified material.
//! Structural rules are still enforced over the whole chain on every call,
//! so a memoized redeemed chain cannot hide an illegal post-redemption
//! extension. Third-party proof validation (`ViolationProof::validate`)
//! deliberately bypasses the memo and stays fully self-certifying.
//!
//! The memo is bounded FIFO: beyond `capacity` digests the oldest entry
//! is dropped, degrading gracefully to full verification; zero disables
//! it.

use crate::descriptor::WalkScratch;
use sc_crypto::{Digest, FxHashSet};
use std::collections::VecDeque;

/// Bounded FIFO set of state digests of verified chains.
///
/// Keys are SHA-256 digests, so the non-flooding-resistant
/// [`sc_crypto::fxhash`] hasher is safe here: biasing its 64-bit folds
/// would require grinding the underlying hash.
#[derive(Clone, Debug)]
pub struct VerifyMemo {
    set: FxHashSet<Digest>,
    fifo: VecDeque<Digest>,
    capacity: usize,
    lookups: u64,
    hits: u64,
    /// The verification walker's working vectors, reused call to call.
    pub(crate) scratch: WalkScratch,
}

impl VerifyMemo {
    /// Creates a memo retaining at most `capacity` tip digests.
    /// `capacity == 0` disables memoization (every lookup misses).
    /// Nothing is allocated up front: the tables grow with the entries.
    pub fn new(capacity: usize) -> Self {
        VerifyMemo {
            set: FxHashSet::default(),
            fifo: VecDeque::new(),
            capacity,
            lookups: 0,
            hits: 0,
            scratch: WalkScratch::default(),
        }
    }

    /// Whether `digest` is the tip of a verified chain. Records hit/miss
    /// statistics, hence `&mut self`.
    pub fn contains(&mut self, digest: &Digest) -> bool {
        self.lookups += 1;
        let hit = self.set.contains(digest);
        if hit {
            self.hits += 1;
        }
        hit
    }

    /// Records the tip digest of a verified chain, evicting the oldest
    /// entry when full. Crate-private on purpose: only the descriptor
    /// walker may call this, and only after a successful verification —
    /// exposing it would let external code poison the memo with
    /// unverified digests.
    pub(crate) fn insert(&mut self, digest: Digest) {
        if self.capacity == 0 || self.set.contains(&digest) {
            return;
        }
        if self.fifo.len() == self.capacity {
            if let Some(old) = self.fifo.pop_front() {
                self.set.remove(&old);
            }
        }
        self.set.insert(digest);
        self.fifo.push_back(digest);
    }

    /// Number of memoized digests.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether the memo holds nothing.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Maximum number of retained digests.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total lookups performed (for tests, benches, and observability).
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Lookups that found a verified chain.
    pub fn hits(&self) -> u64 {
        self.hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(tag: u8) -> Digest {
        [tag; 32]
    }

    #[test]
    fn insert_then_contains() {
        let mut m = VerifyMemo::new(8);
        assert!(!m.contains(&digest(1)));
        m.insert(digest(1));
        assert!(m.contains(&digest(1)));
        assert_eq!(m.len(), 1);
        assert_eq!(m.lookups(), 2);
        assert_eq!(m.hits(), 1);
    }

    #[test]
    fn capacity_bounds_and_fifo_eviction() {
        let mut m = VerifyMemo::new(3);
        for t in 0..5u8 {
            m.insert(digest(t));
        }
        assert_eq!(m.len(), 3);
        assert!(!m.contains(&digest(0)), "oldest evicted");
        assert!(!m.contains(&digest(1)));
        assert!(m.contains(&digest(2)));
        assert!(m.contains(&digest(4)));
    }

    #[test]
    fn duplicate_insert_does_not_double_occupy() {
        let mut m = VerifyMemo::new(2);
        m.insert(digest(1));
        m.insert(digest(1));
        m.insert(digest(2));
        assert_eq!(m.len(), 2);
        assert!(m.contains(&digest(1)));
        assert!(m.contains(&digest(2)));
    }

    #[test]
    fn zero_capacity_disables() {
        let mut m = VerifyMemo::new(0);
        m.insert(digest(1));
        assert!(m.is_empty());
        assert!(!m.contains(&digest(1)));
        assert_eq!(m.capacity(), 0);
    }
}
