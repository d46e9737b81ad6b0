//! Violation-free overlay bootstrap.
//!
//! SecureCyclon descriptors are rate-limited (one creation per creator per
//! cycle) and single-owner, so an initial overlay cannot simply hand every
//! node copies of the same descriptors — that would be cloning. This
//! module builds a *legal* starting state: during `view_len` pre-cycles
//! (timestamps in cycles `0..view_len`), each node mints one descriptor
//! per pre-cycle and transfers it to a ring neighbor. Every transfer is
//! unique, every creation respects the frequency rule, and each node ends
//! up owning exactly `view_len` descriptors from distinct creators.
//!
//! Simulations using this plan must start their engine clock at cycle
//! `view_len` (`SimConfig::start_cycle`) so live creations never collide
//! with bootstrap timestamps.

use crate::descriptor::SecureDescriptor;
use crate::time::Timestamp;
use crate::Addr;
use sc_crypto::Keypair;

/// Deterministic per-node timestamp phase used across the workspace.
///
/// Any value `< ticks_per_cycle` works; this spreads nodes over the cycle.
pub fn default_phase(index: usize, ticks_per_cycle: u64) -> u64 {
    (index as u64).wrapping_mul(557) % ticks_per_cycle
}

/// The descriptors each node starts out owning: `per_node[i]` lists the
/// descriptors owned by node `i`.
#[derive(Debug)]
pub struct BootstrapPlan {
    /// Initial owned descriptors, indexed by node.
    pub per_node: Vec<Vec<SecureDescriptor>>,
    /// The cycle at which the live simulation must start.
    pub start_cycle: u64,
}

/// Builds a ring bootstrap: in pre-cycle `j`, node `i` creates a
/// descriptor and transfers it to node `(i + j + 1) mod n`.
///
/// `addrs[i]` is the engine address node `i` will live at, `phases[i]` its
/// timestamp phase.
///
/// # Panics
///
/// Panics if slice lengths differ, `view_len == 0`, or `view_len >= n`
/// (a node cannot hold `n-1` distinct creators plus itself).
pub fn ring_bootstrap(
    keypairs: &[Keypair],
    addrs: &[Addr],
    phases: &[u64],
    view_len: usize,
    ticks_per_cycle: u64,
) -> BootstrapPlan {
    let n = keypairs.len();
    assert_eq!(n, addrs.len(), "keypairs/addrs length mismatch");
    assert_eq!(n, phases.len(), "keypairs/phases length mismatch");
    assert!(view_len > 0, "view_len must be positive");
    assert!(view_len < n, "need more nodes than view slots");

    let mut per_node: Vec<Vec<SecureDescriptor>> = vec![Vec::with_capacity(view_len); n];
    for (i, kp) in keypairs.iter().enumerate() {
        for j in 0..view_len {
            let ts = Timestamp(j as u64 * ticks_per_cycle + phases[i]);
            let target = (i + j + 1) % n;
            let desc = SecureDescriptor::create(kp, addrs[i], ts);
            let handed = desc
                .transfer(kp, keypairs[target].public())
                .expect("creator owns its fresh descriptor");
            per_node[target].push(handed);
        }
    }
    BootstrapPlan {
        per_node,
        start_cycle: view_len as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_crypto::Scheme;
    use std::collections::HashSet;

    fn keypairs(n: usize) -> Vec<Keypair> {
        (0..n)
            .map(|i| {
                let mut seed = [0u8; 32];
                seed[..8].copy_from_slice(&(i as u64).to_le_bytes());
                Keypair::from_seed(Scheme::KeyedHash, seed)
            })
            .collect()
    }

    #[test]
    fn plan_is_legal_and_complete() {
        let n = 12;
        let view_len = 4;
        let tpc = 1000;
        let kps = keypairs(n);
        let addrs: Vec<Addr> = (0..n as Addr).collect();
        let phases: Vec<u64> = (0..n).map(|i| default_phase(i, tpc)).collect();
        let plan = ring_bootstrap(&kps, &addrs, &phases, view_len, tpc);

        assert_eq!(plan.start_cycle, view_len as u64);
        assert_eq!(plan.per_node.len(), n);
        let mut seen = HashSet::new();
        for (i, descs) in plan.per_node.iter().enumerate() {
            assert_eq!(descs.len(), view_len, "node {i} owns view_len descriptors");
            let mut creators = HashSet::new();
            for d in descs {
                d.verify().expect("bootstrap descriptor verifies");
                assert_eq!(d.owner(), kps[i].public());
                assert_ne!(d.creator(), kps[i].public(), "no self-links");
                assert!(creators.insert(d.creator()), "distinct creators per node");
                assert!(seen.insert(d.id()), "every descriptor id unique");
                assert!(d.created_at().cycle(tpc) < view_len as u64);
            }
        }
        // Each creator minted exactly view_len descriptors, spaced a full
        // period apart (no frequency violations).
        for kp in &kps {
            let mut ts: Vec<u64> = plan
                .per_node
                .iter()
                .flatten()
                .filter(|d| d.creator() == kp.public())
                .map(|d| d.created_at().ticks())
                .collect();
            ts.sort_unstable();
            assert_eq!(ts.len(), view_len);
            for w in ts.windows(2) {
                assert!(w[1] - w[0] >= tpc, "creations at least one period apart");
            }
        }
    }

    #[test]
    #[should_panic(expected = "more nodes")]
    fn too_few_nodes_rejected() {
        let kps = keypairs(3);
        let addrs = [0, 1, 2];
        let phases = [0, 0, 0];
        ring_bootstrap(&kps, &addrs, &phases, 3, 1000);
    }
}
