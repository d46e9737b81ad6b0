//! Uniform network snapshots: one state shape for simulated engines and
//! live daemon clusters.
//!
//! The invariant oracles in [`crate::oracles`] are predicates over
//! "every honest node's protocol-visible state". That state exists in two
//! places: inside an [`Engine`](sc_sim::Engine) during a simulated run,
//! and behind the control sockets of real `sc-node` processes during a
//! loopback run. A [`NetSnapshot`] is the common denominator — the
//! oracles check snapshots, and both worlds know how to produce one
//! ([`NetSnapshot::from_network`] and [`NetSnapshot::from_reports`]), so
//! a live cluster is held to *exactly* the invariants the simulator is.
//!
//! One caveat is inherent to live clusters: scraping n processes is not
//! atomic, so a descriptor in flight between two scrape instants can
//! appear twice (sender scraped after handing it over, receiver after
//! accepting it). Per-node oracles (view invariants, blacklist
//! monotonicity) are sound on torn snapshots — each process serves its
//! report at a turn boundary — but cross-node oracles (unique ownership,
//! in-degree, connectivity) should run on quiescent snapshots, which is
//! what the daemon's `--stop-cycle` linger mode provides.

use crate::net::SecureNetwork;
use sc_core::{Causes, SecureDescriptor, SecureStats};
use sc_crypto::NodeId;
use sc_node::StatusReport;
use sc_sim::Addr;
use std::collections::HashSet;

/// One honest node's protocol-visible state at a point in time.
#[derive(Clone, Debug)]
pub struct NodeSnapshot {
    /// Protocol address.
    pub addr: Addr,
    /// Node identity.
    pub id: NodeId,
    /// View entries with their non-swappable flags.
    pub view: Vec<(SecureDescriptor, bool)>,
    /// Owned descriptors parked in the reserve.
    pub reserve: Vec<SecureDescriptor>,
    /// Blacklisted culprits.
    pub blacklist: Vec<NodeId>,
    /// Redemption-cache entry count (the §V-C cache the bound oracle
    /// audits).
    pub redemptions: usize,
    /// Protocol counters.
    pub stats: SecureStats,
    /// What intake refused, rejected and discarded, by cause.
    pub causes: Causes,
}

impl From<StatusReport> for NodeSnapshot {
    fn from(r: StatusReport) -> NodeSnapshot {
        NodeSnapshot {
            addr: r.addr,
            id: r.id,
            view: r.view,
            reserve: r.reserve,
            blacklist: r.blacklist,
            redemptions: r.redemptions,
            stats: r.stats,
            causes: r.causes,
        }
    }
}

/// The honest population's state at one instant, plus who the known
/// adversaries are (empty for all-honest live clusters).
#[derive(Clone, Debug, Default)]
pub struct NetSnapshot {
    /// Cycle the snapshot describes.
    pub cycle: u64,
    /// Honest nodes only — malicious nodes expose no trustworthy state.
    pub nodes: Vec<NodeSnapshot>,
    /// Identities of the malicious population.
    pub malicious_ids: HashSet<NodeId>,
}

impl NetSnapshot {
    /// Snapshots a simulated network's honest population.
    pub fn from_network(net: &SecureNetwork) -> NetSnapshot {
        let nodes = net
            .engine
            .nodes()
            .filter_map(|(addr, node)| {
                let h = node.honest()?;
                Some(NodeSnapshot {
                    addr,
                    id: h.id(),
                    view: h
                        .view()
                        .iter()
                        .map(|e| (e.desc.clone(), e.non_swappable))
                        .collect(),
                    reserve: h.reserve().cloned().collect(),
                    blacklist: h.blacklist().culprits().copied().collect(),
                    redemptions: h.redemption_count(),
                    stats: h.stats(),
                    causes: h.causes(),
                })
            })
            .collect();
        NetSnapshot {
            cycle: net.engine.cycle(),
            nodes,
            malicious_ids: net.malicious_ids.clone(),
        }
    }

    /// Assembles a snapshot from live daemons' control-socket reports.
    /// The snapshot's cycle is the newest cycle any daemon reported.
    pub fn from_reports(reports: impl IntoIterator<Item = StatusReport>) -> NetSnapshot {
        let reports: Vec<StatusReport> = reports.into_iter().collect();
        let cycle = reports.iter().map(|r| r.cycle).max().unwrap_or(0);
        NetSnapshot {
            cycle,
            nodes: reports.into_iter().map(NodeSnapshot::from).collect(),
            malicious_ids: HashSet::new(),
        }
    }

    /// What honest nodes refused, rejected and discarded, by cause,
    /// summed over the network.
    pub fn causes(&self) -> Causes {
        let mut total = Causes::default();
        for n in &self.nodes {
            total += &n.causes;
        }
        total
    }

    /// Total violation proofs honest nodes generated `(cloning, frequency)`.
    pub fn proofs_generated(&self) -> (u64, u64) {
        self.nodes.iter().fold((0, 0), |(c, f), n| {
            (
                c + n.stats.proofs_generated_cloning,
                f + n.stats.proofs_generated_frequency,
            )
        })
    }

    /// Average fraction of the malicious population each honest node has
    /// blacklisted.
    pub fn blacklist_coverage(&self) -> f64 {
        if self.malicious_ids.is_empty() || self.nodes.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .nodes
            .iter()
            .map(|n| {
                let known = n
                    .blacklist
                    .iter()
                    .filter(|id| self.malicious_ids.contains(id))
                    .count();
                known as f64 / self.malicious_ids.len() as f64
            })
            .sum();
        sum / self.nodes.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{build_secure_network, SecureNetParams};
    use sc_attacks::SecureAttack;

    fn small_params(n: usize, n_malicious: usize) -> SecureNetParams {
        let mut p = SecureNetParams::new(n, n_malicious, SecureAttack::None);
        p.cfg = p.cfg.with_view_len(6).with_swap_len(3);
        p
    }

    #[test]
    fn engine_snapshot_mirrors_node_state() {
        let mut net = build_secure_network(small_params(12, 3));
        for _ in 0..5 {
            net.engine.run_cycle();
        }
        let snap = NetSnapshot::from_network(&net);
        assert_eq!(snap.cycle, net.engine.cycle());
        assert_eq!(snap.nodes.len(), 9, "honest nodes only");
        assert_eq!(snap.malicious_ids.len(), 3);
        for node in &snap.nodes {
            let h = net.engine.node(node.addr).unwrap().honest().unwrap();
            assert_eq!(node.id, h.id());
            assert_eq!(node.view.len(), h.view().len());
            assert_eq!(node.stats, h.stats());
            assert_eq!(node.causes, h.causes());
        }
    }
}
