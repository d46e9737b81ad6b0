//! Protocol work counts summed over honest nodes, and the small
//! statistics both tiers share.

use crate::spec::Metrics;
use sc_core::SecureStats;
use sc_crypto::NodeId;
use std::collections::BTreeMap;

/// The `SecureStats` counters the benchmark reports, summed over nodes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub initiated: u64,
    pub completed: u64,
    pub timeouts: u64,
    pub refused: u64,
    pub transfers_sent: u64,
    pub transfers_received: u64,
    pub dup_drops: u64,
    pub samples: u64,
    pub invalid_descriptors: u64,
    pub proofs_generated: u64,
    pub proofs_received: u64,
    pub bytes_sent: u64,
}

impl Counts {
    pub fn add_stats(&mut self, s: &SecureStats) {
        self.initiated += s.initiated;
        self.completed += s.completed;
        self.timeouts += s.timeouts;
        self.refused += s.refused;
        self.transfers_sent += s.transfers_sent;
        self.transfers_received += s.transfers_received;
        self.dup_drops += s.dup_drops;
        self.samples += s.samples_processed;
        self.invalid_descriptors += s.invalid_descriptors;
        self.proofs_generated += s.proofs_generated_cloning + s.proofs_generated_frequency;
        self.proofs_received += s.proofs_received;
        self.bytes_sent += s.bytes_sent;
    }

    /// Growth since `earlier`.
    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            initiated: self.initiated - earlier.initiated,
            completed: self.completed - earlier.completed,
            timeouts: self.timeouts - earlier.timeouts,
            refused: self.refused - earlier.refused,
            transfers_sent: self.transfers_sent - earlier.transfers_sent,
            transfers_received: self.transfers_received - earlier.transfers_received,
            dup_drops: self.dup_drops - earlier.dup_drops,
            samples: self.samples - earlier.samples,
            invalid_descriptors: self.invalid_descriptors - earlier.invalid_descriptors,
            proofs_generated: self.proofs_generated - earlier.proofs_generated,
            proofs_received: self.proofs_received - earlier.proofs_received,
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
        }
    }

    /// Completed over initiated exchanges.
    pub fn exchange_ok_ratio(&self) -> f64 {
        self.completed as f64 / self.initiated.max(1) as f64
    }

    /// Sets the `core.node.*` count metrics for a window of
    /// `node_cycles` honest node-cycles.
    pub fn report(&self, node_cycles: u64, out: &mut Metrics) {
        let per = |v: u64| v as f64 / node_cycles.max(1) as f64;
        out.set("core.node.exchanges_per_node_cycle", per(self.initiated));
        out.set("core.node.samples_per_node_cycle", per(self.samples));
        out.set(
            "core.node.transfers_per_node_cycle",
            per(self.transfers_received),
        );
        out.set("core.node.timeouts_per_node_cycle", per(self.timeouts));
        out.set("core.node.refused_per_node_cycle", per(self.refused));
        out.set("core.node.dup_drops_per_node_cycle", per(self.dup_drops));
        out.set(
            "core.node.proofs_received_per_node_cycle",
            per(self.proofs_received),
        );
        out.set(
            "core.node.invalid_descriptors",
            self.invalid_descriptors as f64,
        );
        out.set("core.node.proofs_generated", self.proofs_generated as f64);
    }
}

/// The `p`-quantile (0..=1) of `sorted`, nearest rank.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sorted copy of `values` (which hold no NaN).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in measurements"));
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Coefficient of variation of the in-degree of `nodes`, where a node's
/// in-degree is the number of `links` (descriptor creators held in
/// views) that name it. Uniform sampling keeps this low; a skewed
/// sampler raises it.
pub fn indegree_cv(nodes: &[NodeId], links: impl Iterator<Item = NodeId>) -> f64 {
    // Ordered, so the float sums below repeat bit for bit between runs.
    let mut indegree: BTreeMap<NodeId, u64> = nodes.iter().map(|id| (*id, 0)).collect();
    for creator in links {
        if let Some(d) = indegree.get_mut(&creator) {
            *d += 1;
        }
    }
    let degrees: Vec<f64> = indegree.values().map(|&d| d as f64).collect();
    let summary = sc_metrics::summarize(&degrees);
    if summary.mean == 0.0 {
        return 0.0;
    }
    summary.std_dev / summary.mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_median() {
        let v = sorted(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.99), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
