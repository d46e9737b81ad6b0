//! SecureCyclon protocol parameters.

/// Configuration shared by all correct SecureCyclon nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SecureConfig {
    /// View length ℓ.
    pub view_len: usize,
    /// Swap length s (descriptor ownerships moved per exchange, each way).
    pub swap_len: usize,
    /// Tick resolution of one gossip cycle; must match the engine's.
    pub ticks_per_cycle: u64,
    /// Redemption-cache retention r, in cycles (§V-C). 0 disables.
    pub redemption_cache_cycles: u64,
    /// Hard cap on redemption-cache entries, independent of age. Under
    /// heavy churn a single retention window can accumulate arbitrarily
    /// many redeemed descriptors; the cap evicts the oldest first so the
    /// cache degrades to the paper's steady-state behaviour instead of
    /// growing without bound. 0 disables the cap.
    pub redemption_cache_max_entries: usize,
    /// Sample-cache retention, in cycles (§IV-B "cache all descriptors
    /// seen", bounded in practice by descriptor lifetime ≈ ℓ).
    pub sample_retention_cycles: u64,
    /// Whether exchanges use the tit-for-tat round-trip protocol (§V-B).
    pub tit_for_tat: bool,
    /// Whether discovered violators are blacklisted, purged, and the proof
    /// flooded (§IV-C). Disabled only by the Figure 7 detection-ratio
    /// experiment, which must keep attackers alive to measure per-age
    /// detection probability.
    pub eviction_enabled: bool,
    /// Maximum accepted deviation between a *fresh* descriptor's timestamp
    /// and the receiver's clock, in ticks (§IV-A clock-skew review).
    pub max_skew_ticks: u64,
    /// Optional cap on descriptors swapped in an exchange initiated with a
    /// non-swappable redemption (§V-A, restriction 3).
    pub ns_swap_cap: Option<usize>,
    /// Maximum non-swappable redemptions a creator accepts per cycle
    /// (§V-A, restriction 2).
    pub max_ns_redemptions_per_cycle: u32,
    /// How many recently transferred descriptors to remember as candidates
    /// for non-swappable back-fill (§V-A repair).
    pub transfer_history_len: usize,
    /// Proofs learned within this many cycles are piggybacked on gossip
    /// messages (§IV-C, catching up absent/new nodes).
    pub proof_piggyback_cycles: u64,
}

impl Default for SecureConfig {
    fn default() -> Self {
        // The paper's proposed configuration (§VI-A): ℓ=20, s=3, r=5.
        SecureConfig {
            view_len: 20,
            swap_len: 3,
            ticks_per_cycle: 1000,
            redemption_cache_cycles: 5,
            redemption_cache_max_entries: 64,
            sample_retention_cycles: 60,
            tit_for_tat: true,
            eviction_enabled: true,
            max_skew_ticks: 1000,
            ns_swap_cap: None,
            max_ns_redemptions_per_cycle: 1,
            transfer_history_len: 8,
            proof_piggyback_cycles: 10,
        }
    }
}

impl SecureConfig {
    /// Validates parameter sanity.
    ///
    /// # Panics
    ///
    /// Panics if `swap_len` is zero or exceeds `view_len`, or if
    /// `ticks_per_cycle` is zero.
    pub fn validated(self) -> Self {
        assert!(self.swap_len > 0, "swap length must be positive");
        assert!(
            self.swap_len <= self.view_len,
            "swap length cannot exceed view length"
        );
        assert!(self.ticks_per_cycle > 0, "ticks_per_cycle must be positive");
        self
    }

    /// Entries of the node's verified-chain memo (one tip digest per
    /// verified descriptor version): `16·ℓ`, at least 64. A node verifies
    /// 2s + 1 = 7 new tips a cycle, so at ℓ = 20 the memo spans 45 cycles
    /// — longer than the ≈ ℓ cycles a descriptor, and so its tip, lives.
    pub fn memo_capacity(&self) -> usize {
        (16 * self.view_len).max(64)
    }

    /// Builder-style override of the view length.
    pub fn with_view_len(mut self, view_len: usize) -> Self {
        self.view_len = view_len;
        self
    }

    /// Builder-style override of the swap length.
    pub fn with_swap_len(mut self, swap_len: usize) -> Self {
        self.swap_len = swap_len;
        self
    }

    /// Builder-style override of the redemption-cache retention.
    pub fn with_redemption_cache(mut self, cycles: u64) -> Self {
        self.redemption_cache_cycles = cycles;
        self
    }

    /// Builder-style toggle of the tit-for-tat mechanism.
    pub fn with_tit_for_tat(mut self, enabled: bool) -> Self {
        self.tit_for_tat = enabled;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let cfg = SecureConfig::default().validated();
        assert_eq!(cfg.view_len, 20);
        assert_eq!(cfg.swap_len, 3);
        assert_eq!(cfg.redemption_cache_cycles, 5);
        assert!(cfg.tit_for_tat);
        assert!(cfg.eviction_enabled);
    }

    #[test]
    fn builders_compose() {
        let cfg = SecureConfig::default()
            .with_view_len(50)
            .with_swap_len(8)
            .with_redemption_cache(10)
            .with_tit_for_tat(false)
            .validated();
        assert_eq!(cfg.view_len, 50);
        assert_eq!(cfg.swap_len, 8);
        assert_eq!(cfg.redemption_cache_cycles, 10);
        assert!(!cfg.tit_for_tat);
    }

    #[test]
    fn memo_capacity_follows_the_view_length() {
        assert_eq!(SecureConfig::default().memo_capacity(), 320);
        assert_eq!(SecureConfig::default().with_view_len(4).memo_capacity(), 64);
        assert_eq!(
            SecureConfig::default().with_view_len(50).memo_capacity(),
            800
        );
    }

    #[test]
    #[should_panic(expected = "swap length")]
    fn oversized_swap_rejected() {
        SecureConfig::default().with_swap_len(21).validated();
    }
}
