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
    /// Whether exchanges use the tit-for-tat round-trip protocol (§V-B).
    pub tit_for_tat: bool,
    /// Whether discovered violators are blacklisted, purged, and the proof
    /// flooded (§IV-C). Disabled only by the Figure 7 detection-ratio
    /// experiment, which must keep attackers alive to measure per-age
    /// detection probability.
    pub eviction_enabled: bool,
    /// Optional cap on descriptors swapped in an exchange initiated with a
    /// non-swappable redemption (§V-A, restriction 3).
    pub ns_swap_cap: Option<usize>,
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
            tit_for_tat: true,
            eviction_enabled: true,
            ns_swap_cap: None,
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
    #[should_panic(expected = "swap length")]
    fn oversized_swap_rejected() {
        SecureConfig::default().with_swap_len(21).validated();
    }
}
