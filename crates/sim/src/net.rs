//! The network fault model.
//!
//! The paper's system model allows messages to be "delayed or dropped"
//! (§II-A). In a cycle-driven simulation, delay within a cycle is
//! immaterial; what matters for protocol correctness is *loss*, which this
//! model injects independently per message direction. Loss of a gossip
//! request, loss of a response, and loss of a one-way (flooded) message are
//! controlled separately so experiments can reproduce the §V-A repair
//! scenarios precisely.
//!
//! On top of probabilistic loss, the model supports **partitions**: a
//! deterministic assignment of addresses to sides such that any message
//! crossing sides is dropped with certainty. Partitions are installed and
//! healed through [`Engine::set_net`](crate::Engine::set_net) (typically
//! by a scenario driver at scheduled cycles). Severing is checked before
//! any loss roll and consumes no randomness — a severed message costs
//! nothing from the engine's random stream, so runs stay bit-identical
//! per seed no matter how partitions come and go mid-run.

use sc_core::Addr;
use std::collections::HashMap;

/// A deterministic split of the address space into sides.
///
/// Messages between addresses on different sides are severed (dropped
/// with probability 1, before any loss roll). Addresses not explicitly
/// assigned — e.g. nodes that join while the partition is active — belong
/// to [`Partition::default_side`], modelling joiners reaching whichever
/// segment their bootstrap sponsor lives in.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Partition {
    side_of: HashMap<Addr, u32>,
    default_side: u32,
}

impl Partition {
    /// Builds a partition from explicit sides: `sides[i]` lists the
    /// addresses on side `i`. Unlisted addresses land on side 0.
    ///
    /// # Panics
    ///
    /// Panics if an address appears on two sides.
    pub fn split(sides: &[Vec<Addr>]) -> Self {
        let mut side_of = HashMap::new();
        for (i, members) in sides.iter().enumerate() {
            for &a in members {
                let prev = side_of.insert(a, i as u32);
                assert!(prev.is_none(), "address {a} assigned to two sides");
            }
        }
        Partition {
            side_of,
            default_side: 0,
        }
    }

    /// Builds a two-sided partition isolating `island` from everyone else
    /// (the rest of the address space, including future joiners, stays on
    /// the mainland side).
    pub fn isolate(island: impl IntoIterator<Item = Addr>) -> Self {
        let side_of = island.into_iter().map(|a| (a, 1)).collect();
        Partition {
            side_of,
            default_side: 0,
        }
    }

    /// The side an address belongs to.
    pub fn side(&self, addr: Addr) -> u32 {
        self.side_of
            .get(&addr)
            .copied()
            .unwrap_or(self.default_side)
    }

    /// Whether a message between `a` and `b` is severed (symmetric).
    pub fn severs(&self, a: Addr, b: Addr) -> bool {
        self.side(a) != self.side(b)
    }

    /// Number of explicitly assigned addresses.
    pub fn assigned(&self) -> usize {
        self.side_of.len()
    }

    /// Iterates over the explicit `(address, side)` assignments (addresses
    /// on the default side by omission are not listed).
    pub fn assignments(&self) -> impl Iterator<Item = (Addr, u32)> + '_ {
        self.side_of.iter().map(|(&a, &s)| (a, s))
    }

    /// The side unlisted addresses belong to.
    pub fn default_side(&self) -> u32 {
        self.default_side
    }
}

/// Probabilities of message loss per direction, plus an optional
/// deterministic partition.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct NetworkModel {
    /// Probability that an RPC request is lost before reaching the target
    /// (the target never processes it).
    pub drop_request: f64,
    /// Probability that an RPC response is lost on the way back (the target
    /// *did* process the request).
    pub drop_response: f64,
    /// Probability that a one-way message (e.g. a flooded proof) is lost.
    pub drop_oneway: f64,
    /// Active partition, if any: cross-side messages are severed.
    pub partition: Option<Partition>,
}

impl NetworkModel {
    /// A perfectly reliable network (no losses, no partition).
    pub fn reliable() -> Self {
        NetworkModel::default()
    }

    /// A uniformly lossy network dropping every message independently with
    /// probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn lossy(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        NetworkModel {
            drop_request: p,
            drop_response: p,
            drop_oneway: p,
            partition: None,
        }
    }

    /// A network with independent per-direction loss probabilities (the
    /// asymmetric-loss scenarios of §V-A).
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`.
    pub fn asymmetric(drop_request: f64, drop_response: f64, drop_oneway: f64) -> Self {
        for p in [drop_request, drop_response, drop_oneway] {
            assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        }
        NetworkModel {
            drop_request,
            drop_response,
            drop_oneway,
            partition: None,
        }
    }

    /// Returns this model with `partition` installed.
    pub fn with_partition(mut self, partition: Partition) -> Self {
        self.partition = Some(partition);
        self
    }

    /// Returns this model with any partition healed (loss rates kept).
    pub fn healed(mut self) -> Self {
        self.partition = None;
        self
    }

    /// Whether a message between `a` and `b` is severed by the partition.
    pub fn severs(&self, a: Addr, b: Addr) -> bool {
        self.partition.as_ref().is_some_and(|p| p.severs(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_is_default() {
        assert_eq!(NetworkModel::default(), NetworkModel::reliable());
        assert!(NetworkModel::default().partition.is_none());
    }

    #[test]
    fn lossy_sets_all_directions() {
        let m = NetworkModel::lossy(0.25);
        assert_eq!(m.drop_request, 0.25);
        assert_eq!(m.drop_response, 0.25);
        assert_eq!(m.drop_oneway, 0.25);
    }

    #[test]
    fn asymmetric_sets_each_direction() {
        let m = NetworkModel::asymmetric(0.1, 0.2, 0.3);
        assert_eq!(m.drop_request, 0.1);
        assert_eq!(m.drop_response, 0.2);
        assert_eq!(m.drop_oneway, 0.3);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn lossy_rejects_out_of_range() {
        NetworkModel::lossy(1.5);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn asymmetric_rejects_out_of_range() {
        NetworkModel::asymmetric(0.0, -0.1, 0.0);
    }

    #[test]
    fn partition_sides_and_symmetry() {
        let p = Partition::split(&[vec![0, 1, 2], vec![3, 4]]);
        assert_eq!(p.assigned(), 5);
        for a in 0..5u32 {
            for b in 0..5u32 {
                assert_eq!(p.severs(a, b), p.severs(b, a), "severing is symmetric");
            }
        }
        assert!(p.severs(0, 3));
        assert!(!p.severs(0, 2));
        assert!(!p.severs(3, 4));
        // Unassigned addresses fall on side 0.
        assert!(!p.severs(99, 0));
        assert!(p.severs(99, 4));
    }

    #[test]
    fn isolate_builds_two_sides() {
        let p = Partition::isolate([7, 8]);
        assert!(p.severs(7, 0));
        assert!(!p.severs(7, 8));
        assert!(!p.severs(0, 1));
        assert_eq!(p.side(7), 1);
        assert_eq!(p.side(0), 0);
    }

    #[test]
    #[should_panic(expected = "two sides")]
    fn split_rejects_overlap() {
        Partition::split(&[vec![0, 1], vec![1, 2]]);
    }

    #[test]
    fn healed_drops_partition_keeps_loss() {
        let m = NetworkModel::lossy(0.5).with_partition(Partition::isolate([1]));
        assert!(m.severs(0, 1));
        let h = m.healed();
        assert!(!h.severs(0, 1));
        assert_eq!(h.drop_request, 0.5);
    }
}
