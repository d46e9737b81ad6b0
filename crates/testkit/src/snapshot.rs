//! Uniform network snapshots: one state shape for simulated engines and
//! live daemon clusters.
//!
//! The invariant oracles in [`crate::oracles`] are predicates over
//! "every honest node's protocol-visible state". A [`NetSnapshot`] is
//! that state as n scrapes, whichever tier answers them: each node's is
//! a [`StatusReport`], which a live `sc-node` serves over its control
//! socket ([`NetSnapshot::from_reports`]) and the simulator reads off
//! each honest node in its engine ([`NetSnapshot::from_network`]) with
//! the same constructor, [`StatusReport::of`]. So the oracles, and every
//! measure taken from a snapshot, hold a live cluster to *exactly* what
//! they hold the simulator to, and audit nothing a socket cannot carry.
//!
//! One caveat is inherent to live clusters: scraping n processes is not
//! atomic, so a descriptor in flight between two scrape instants can
//! appear twice (sender scraped after handing it over, receiver after
//! accepting it). Per-node oracles (view invariants, blacklist
//! monotonicity) are sound on torn snapshots — each process serves its
//! report at a turn boundary — but cross-node oracles (unique ownership,
//! in-degree, connectivity) should run on quiescent snapshots, which is
//! what the daemon's `--stop-cycle` linger mode provides.

use crate::net::{SecureNet, SecureNetwork};
use sc_core::Causes;
use sc_crypto::NodeId;
use sc_node::StatusReport;
use sc_sim::Engine;
use std::collections::HashSet;

/// The honest population's state at one instant, plus who the known
/// adversaries are (empty for all-honest live clusters).
#[derive(Clone, Debug, Default)]
pub struct NetSnapshot {
    /// Cycle the snapshot describes.
    pub cycle: u64,
    /// One scrape per honest node — malicious nodes expose no
    /// trustworthy state.
    pub nodes: Vec<StatusReport>,
    /// Identities of the malicious population.
    pub malicious_ids: HashSet<NodeId>,
}

impl NetSnapshot {
    /// Snapshots a simulated network's honest population.
    pub fn from_network(net: &SecureNetwork) -> NetSnapshot {
        NetSnapshot::from_engine(&net.engine, &net.malicious_ids)
    }

    /// Scrapes every honest node of `engine` with
    /// [`StatusReport::of`], as a daemon answers a scrape.
    pub fn from_engine(engine: &Engine<SecureNet>, malicious_ids: &HashSet<NodeId>) -> NetSnapshot {
        let cycle = engine.cycle();
        let nodes = engine
            .nodes()
            .filter_map(|(_, node)| Some(StatusReport::of(node.honest()?, cycle)))
            .collect();
        NetSnapshot {
            cycle,
            nodes,
            malicious_ids: malicious_ids.clone(),
        }
    }

    /// Assembles a snapshot from live daemons' control-socket reports.
    /// The snapshot's cycle is the newest cycle any daemon reported.
    pub fn from_reports(reports: impl IntoIterator<Item = StatusReport>) -> NetSnapshot {
        let nodes: Vec<StatusReport> = reports.into_iter().collect();
        NetSnapshot {
            cycle: nodes.iter().map(|r| r.cycle).max().unwrap_or(0),
            nodes,
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
    use sc_core::wire::WireLimits;

    #[test]
    fn engine_snapshot_mirrors_node_state() {
        // A hub attack, run until honest scrapes carry blacklists,
        // non-swappable entries and a reserve: every field a socket
        // carries has something in it.
        let mut p = SecureNetParams::new(40, 8, SecureAttack::Hub);
        p.cfg = p.cfg.with_view_len(6).with_swap_len(3);
        p.attack_start = 12;
        let mut net = build_secure_network(p);
        let mut snap = NetSnapshot::from_network(&net);
        let full = |snap: &NetSnapshot| {
            let any = |f: fn(&StatusReport) -> bool| snap.nodes.iter().any(f);
            any(|r| !r.blacklist.is_empty())
                && any(|r| r.view.iter().any(|(_, ns)| *ns))
                && any(|r| !r.reserve.is_empty())
        };
        while !full(&snap) {
            assert!(net.engine.cycle() < 80, "no cycle filled every field");
            net.engine.run_cycle();
            snap = NetSnapshot::from_network(&net);
        }
        assert_eq!(snap.cycle, net.engine.cycle());
        assert_eq!(snap.nodes.len(), 32, "honest nodes only");
        assert_eq!(snap.malicious_ids, net.malicious_ids);
        let honest = net
            .engine
            .nodes()
            .filter_map(|(a, n)| Some((a, n.honest()?)));
        for ((addr, h), r) in honest.zip(&snap.nodes) {
            assert_eq!((r.addr, r.id), (addr, h.id()));
            assert_eq!(r.view.len(), h.view().len());
            assert_eq!((r.stats, r.causes), (h.stats(), h.causes()));
            // The simulator audits nothing a socket cannot carry.
            let back = StatusReport::decode(&r.encode(), &WireLimits::DEFAULT).unwrap();
            assert_eq!(&back, r, "node {addr}");
        }
    }
}
