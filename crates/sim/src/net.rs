//! What the simulated network does to a message (§II-A: any message
//! may be dropped): the engine's `Network` severs what crosses a
//! [`Partition`] and loses what its per-kind [`Loss`] — `sc_core`'s one
//! loss model — decides to, as a socket's receiver would
//! ([`sc_core::FaultSpec::decide`]). A frame's loss is keyed by the run
//! seed, its directed link and its index there, counted while any loss
//! is in force; a loss-free network counts and rolls nothing. Neither
//! draws from the engine's RNG, so runs stay bit-identical per seed
//! however partitions and loss regimes come and go mid-run.

use sc_core::{Addr, Loss, MsgKind};
use std::collections::HashMap;

/// A deterministic split of the address space into sides.
///
/// Messages between addresses on different sides are severed (dropped
/// with probability 1, before any loss roll). Addresses not explicitly
/// assigned — e.g. nodes that join while the partition is active — are
/// on side 0, the mainland, modelling joiners reaching whichever segment
/// their bootstrap sponsor lives in.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Partition {
    side_of: HashMap<Addr, u32>,
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
        Partition { side_of }
    }

    /// Builds a two-sided partition isolating `island` from everyone else
    /// (the rest of the address space, including future joiners, stays on
    /// the mainland side).
    pub fn isolate(island: impl IntoIterator<Item = Addr>) -> Self {
        let side_of = island.into_iter().map(|a| (a, 1)).collect();
        Partition { side_of }
    }

    /// The side an address belongs to.
    pub fn side(&self, addr: Addr) -> u32 {
        self.side_of.get(&addr).copied().unwrap_or(0)
    }

    /// Whether a message between `a` and `b` is severed (symmetric).
    pub fn severs(&self, a: Addr, b: Addr) -> bool {
        self.side(a) != self.side(b)
    }
}

/// The engine's network: the loss in force, an optional partition, and
/// each link's frame count.
#[derive(Debug)]
pub(crate) struct Network {
    /// The run seed the loss rolls are keyed by.
    seed: u64,
    pub(crate) loss: Loss,
    pub(crate) partition: Option<Partition>,
    /// Frames each directed `(src, dst)` link has carried while loss was
    /// in force: the index of its next roll.
    pub(crate) link_frames: HashMap<(Addr, Addr), u64>,
}

impl Network {
    pub(crate) fn new(seed: u64, loss: Loss) -> Network {
        Network {
            seed,
            loss,
            partition: None,
            link_frames: HashMap::new(),
        }
    }

    /// Whether a message between `a` and `b` crosses the partition.
    pub(crate) fn severs(&self, a: Addr, b: Addr) -> bool {
        self.partition.as_ref().is_some_and(|p| p.severs(a, b))
    }

    /// Whether the next frame of `kind` on the link `src → dst` — neither
    /// severed nor unreachable — is lost. See the module docs.
    pub(crate) fn drops(&mut self, kind: MsgKind, src: Addr, dst: Addr) -> bool {
        if self.loss.is_none() {
            return false;
        }
        let next = self.link_frames.entry((src, dst)).or_insert(0);
        let index = *next;
        *next += 1;
        self.loss.drops(self.seed, kind, src, dst, index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [MsgKind; 3] = [MsgKind::Request, MsgKind::Response, MsgKind::Oneway];

    fn counted_links(net: &Network) -> Vec<(Addr, Addr)> {
        let mut links: Vec<(Addr, Addr)> = net.link_frames.keys().copied().collect();
        links.sort_unstable();
        links
    }

    /// How many of 200 frames of each kind, on one link, `net` drops.
    fn dropped(net: &mut Network) -> [u32; 3] {
        KINDS.map(|kind| (0..200).map(|_| u32::from(net.drops(kind, 1, 2))).sum())
    }

    #[test]
    fn reliable_is_default() {
        let mut net = Network::new(7, Loss::default());
        assert!(net.partition.is_none());
        assert_eq!(dropped(&mut net), [0, 0, 0]);
        assert!(
            counted_links(&net).is_empty(),
            "nothing counted, nothing hashed"
        );
    }

    #[test]
    fn lossy_sets_all_directions() {
        let mut net = Network::new(7, Loss::uniform(1.0));
        assert_eq!(dropped(&mut net), [200, 200, 200]);
        assert_eq!(counted_links(&net), [(1, 2)]);
    }

    #[test]
    fn asymmetric_sets_each_direction() {
        // Each kind is held to its own rate; the other kinds' frames
        // still advance the link's index.
        let mut net = Network::new(7, Loss::new(1.0, 0.0, 0.0));
        assert_eq!(dropped(&mut net), [200, 0, 0]);
        let mut net = Network::new(7, Loss::new(0.0, 0.0, 1.0));
        assert_eq!(dropped(&mut net), [0, 0, 200]);
        // The same frames the inbound roll of a socket's spec drops.
        let loss = Loss::new(0.2, 0.5, 0.8);
        let mut net = Network::new(7, loss);
        for index in 0..300 {
            let kind = KINDS[index as usize % 3];
            assert_eq!(net.drops(kind, 4, 5), loss.drops(7, kind, 4, 5, index));
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn lossy_rejects_out_of_range() {
        Network::new(0, Loss::uniform(1.5));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn asymmetric_rejects_out_of_range() {
        Network::new(0, Loss::new(0.0, -0.1, 0.0));
    }

    #[test]
    fn healed_drops_partition_keeps_loss() {
        let mut net = Network::new(7, Loss::uniform(0.5));
        net.partition = Some(Partition::isolate([1]));
        assert!(net.severs(0, 1));
        net.partition = None;
        assert!(!net.severs(0, 1));
        assert_eq!(net.loss, Loss::uniform(0.5));
    }

    #[test]
    fn partition_sides_and_symmetry() {
        let p = Partition::split(&[vec![0, 1, 2], vec![3, 4]]);
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
}
