//! The redemption cache (§V-C).
//!
//! Old descriptors get redeemed almost as soon as they are received, so a
//! clone made at high age may vanish before ever being cross-checked. To
//! close that window, a node keeps each descriptor it redeems for a few
//! cycles and ships those copies as samples in every gossip message,
//! giving the network a post-mortem chance to match them against
//! still-circulating clones.

use crate::descriptor::SecureDescriptor;
use crate::ring::ExpiryRing;

/// FIFO cache of recently redeemed descriptors.
///
/// Bounded two ways: by *age* (`prune` drops entries older than the
/// retention window) and by *count* (`push` evicts the oldest entry once
/// `max_entries` is reached). The age bound alone is not enough — under
/// heavy churn one retention window can see arbitrarily many redemptions,
/// and every entry is shipped as a sample in every gossip message, so an
/// unbounded cache inflates both memory and §VI-A traffic. The node also
/// drops an entry by its descriptor's creation, as it drops view entries
/// (`retain`), so that no peer refuses a sample of it for its age.
#[derive(Debug, Default)]
pub struct RedemptionCache {
    entries: ExpiryRing<SecureDescriptor>,
    retention_cycles: u64,
    max_entries: usize,
}

impl RedemptionCache {
    /// Creates a cache retaining redeemed descriptors for
    /// `retention_cycles` cycles, with no entry cap. Zero disables the
    /// mechanism (the paper's "no redemption cache" baseline in Figure 7).
    pub fn new(retention_cycles: u64) -> Self {
        Self::bounded(retention_cycles, 0)
    }

    /// Creates a cache bounded by age *and* entry count. A
    /// `max_entries` of zero means "no cap".
    pub fn bounded(retention_cycles: u64, max_entries: usize) -> Self {
        RedemptionCache {
            entries: ExpiryRing::default(),
            retention_cycles,
            max_entries,
        }
    }

    /// Records a descriptor this node just redeemed, evicting the oldest
    /// entry if the cache is at its entry cap.
    pub fn push(&mut self, desc: SecureDescriptor, cycle: u64) {
        if self.retention_cycles == 0 {
            return;
        }
        while self.max_entries > 0 && self.entries.len() >= self.max_entries {
            self.entries.pop_front();
        }
        self.entries.push(cycle, desc);
    }

    /// The entry cap (0 = uncapped).
    pub fn max_entries(&self) -> usize {
        self.max_entries
    }

    /// Number of retained descriptors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.len() == 0
    }

    /// Iterates over the retained descriptors (sent as gossip samples).
    pub fn iter(&self) -> impl Iterator<Item = &SecureDescriptor> {
        self.entries.iter().map(|(_, d)| d)
    }

    /// Iterates over `(redeemed_cycle, descriptor)` pairs — the shape a
    /// durable-state checkpoint persists.
    pub fn entries(&self) -> impl Iterator<Item = (u64, &SecureDescriptor)> {
        self.entries.iter()
    }

    /// Drops entries older than the retention window.
    pub fn prune(&mut self, now_cycle: u64) {
        self.entries
            .expire(now_cycle.saturating_sub(self.retention_cycles));
    }

    /// Keeps only the entries `keep` holds to: a culprit's go when it is
    /// blacklisted, and every entry as old as the node's view drops, since
    /// a peer would refuse the sample.
    pub fn retain(&mut self, keep: impl FnMut(&SecureDescriptor) -> bool) {
        self.entries.retain(keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::LinkKind;
    use crate::time::Timestamp;
    use sc_crypto::{Keypair, Scheme};

    fn redeemed(tag: u8, ts: u64) -> SecureDescriptor {
        let a = Keypair::from_seed(Scheme::Schnorr61, [tag; 32]);
        let b = Keypair::from_seed(Scheme::Schnorr61, [tag + 100; 32]);
        SecureDescriptor::create(&a, 0, Timestamp(ts))
            .transfer(&a, b.public())
            .unwrap()
            .redeem(&b, LinkKind::Redeem)
            .unwrap()
    }

    #[test]
    fn push_and_prune() {
        let mut cache = RedemptionCache::new(5);
        cache.push(redeemed(1, 0), 10);
        cache.push(redeemed(2, 0), 12);
        assert_eq!(cache.len(), 2);
        cache.prune(16);
        assert_eq!(cache.len(), 1, "entry from cycle 10 expired");
        cache.prune(18);
        assert!(cache.is_empty());
    }

    #[test]
    fn zero_retention_disables() {
        let mut cache = RedemptionCache::new(0);
        cache.push(redeemed(1, 0), 10);
        assert!(cache.is_empty());
    }

    #[test]
    fn entry_cap_evicts_oldest_first() {
        let mut cache = RedemptionCache::bounded(5, 3);
        for tag in 1..=5u8 {
            cache.push(redeemed(tag, tag as u64 * 100), 10);
        }
        assert_eq!(cache.len(), 3, "cap enforced");
        let held: Vec<u64> = cache.iter().map(|d| d.created_at().0).collect();
        assert_eq!(held, vec![300, 400, 500], "oldest entries evicted");
        // Uncapped cache keeps everything within the window.
        let mut open = RedemptionCache::new(5);
        for tag in 1..=5u8 {
            open.push(redeemed(tag, tag as u64 * 100), 10);
        }
        assert_eq!(open.len(), 5);
    }

    #[test]
    fn purge_creator() {
        let mut cache = RedemptionCache::new(5);
        let d1 = redeemed(1, 0);
        let victim = d1.creator();
        cache.push(d1, 10);
        cache.push(redeemed(2, 0), 10);
        cache.retain(|d| d.creator() != victim);
        assert_eq!(cache.len(), 1);
        assert!(cache.iter().all(|d| d.creator() != victim));
    }
}
