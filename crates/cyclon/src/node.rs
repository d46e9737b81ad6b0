//! The legacy Cyclon protocol node.
//!
//! Implements the shuffle protocol of §II-B of the SecureCyclon paper
//! (after Voulgaris et al., 2005): once per cycle a node ages its view,
//! redeems its oldest descriptor to initiate an exchange, sends a fresh
//! self-descriptor plus `s − 1` random descriptors, and merges whatever
//! comes back. No authentication, no checks — the baseline that Figure 3
//! shows being taken over by a handful of malicious nodes.
//!
//! The node is a sans-IO [`Machine`]: the shuffle's one round trip is an
//! `rpc` effect, and what it shipped is held as explicit state until the
//! [`Input::Reply`] or [`Input::Timeout`] that resolves it.

use crate::descriptor::LegacyDescriptor;
use crate::view::View;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sc_core::{Addr, Effects, Input, Machine};
use sc_crypto::NodeId;

/// Protocol parameters shared by all correct nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CyclonConfig {
    /// View length ℓ: number of neighbors each node maintains.
    pub view_len: usize,
    /// Swap length s: descriptors exchanged per gossip.
    pub swap_len: usize,
}

impl Default for CyclonConfig {
    fn default() -> Self {
        // The paper's reference configuration (§VI-A).
        CyclonConfig {
            view_len: 20,
            swap_len: 3,
        }
    }
}

impl CyclonConfig {
    /// Validates parameter sanity (0 < s ≤ ℓ).
    ///
    /// # Panics
    ///
    /// Panics on invalid combinations.
    pub fn validated(self) -> Self {
        assert!(self.swap_len > 0, "swap length must be positive");
        assert!(
            self.swap_len <= self.view_len,
            "swap length cannot exceed view length"
        );
        self
    }
}

/// Wire messages of the legacy protocol.
#[derive(Clone, Debug)]
pub enum CyclonMsg {
    /// Gossip request carrying the initiator's offered descriptors
    /// (a fresh self-descriptor plus `s − 1` random ones).
    Shuffle {
        /// Offered descriptors.
        descriptors: Vec<LegacyDescriptor>,
    },
    /// Gossip response carrying the partner's `s` random descriptors.
    ShuffleResponse {
        /// Returned descriptors.
        descriptors: Vec<LegacyDescriptor>,
    },
}

/// Per-node protocol counters (used by experiments and tests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CyclonStats {
    /// Exchanges this node initiated.
    pub initiated: u64,
    /// Initiated exchanges that completed with a response.
    pub completed: u64,
    /// Initiated exchanges that timed out.
    pub timeouts: u64,
    /// Exchanges this node answered as the passive party.
    pub answered: u64,
}

/// A correct legacy-Cyclon node.
#[derive(Debug)]
pub struct CyclonNode {
    id: NodeId,
    addr: Addr,
    cfg: CyclonConfig,
    view: View,
    rng: SmallRng,
    stats: CyclonStats,
    /// The descriptors shipped in the shuffle still awaiting its answer.
    in_flight: Option<Vec<LegacyDescriptor>>,
}

impl CyclonNode {
    /// Creates a node with an empty view.
    pub fn new(id: NodeId, addr: Addr, cfg: CyclonConfig, rng_seed: [u8; 32]) -> Self {
        let cfg = cfg.validated();
        CyclonNode {
            id,
            addr,
            view: View::new(id, cfg.view_len),
            cfg,
            rng: SmallRng::from_seed(rng_seed),
            stats: CyclonStats::default(),
            in_flight: None,
        }
    }

    /// The node's ID (public key).
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's network address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// The node's current view.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// Protocol counters.
    pub fn stats(&self) -> CyclonStats {
        self.stats
    }

    /// Whether a shuffle this node initiated is still awaiting its answer
    /// (an [`Input::Tick`] is a no-op until it resolves).
    pub fn exchange_in_flight(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Seeds the view with bootstrap contacts (up to the free capacity).
    pub fn bootstrap(&mut self, peers: impl IntoIterator<Item = (NodeId, Addr)>) {
        for (id, addr) in peers {
            self.view.insert(LegacyDescriptor::fresh(id, addr));
        }
    }

    fn fresh_descriptor(&self) -> LegacyDescriptor {
        LegacyDescriptor::fresh(self.id, self.addr)
    }

    /// Merges received descriptors, then refills leftover slots from the
    /// descriptors we shipped out (`backup`), per the Cyclon merge rule:
    /// received entries take priority over sent ones.
    fn merge(&mut self, received: Vec<LegacyDescriptor>, backup: &[LegacyDescriptor]) {
        for d in received {
            self.view.insert(d);
        }
        for d in backup {
            self.view.insert(*d);
        }
    }
}

// `step` and its three arms are `#[inline]` on measurement: a Cyclon
// node-cycle costs ≈ 180 ns, and the engine's generic loop is compiled in
// another crate — without the attribute every step is three opaque calls
// deep and the 200–2 000-node `cyclon_cycle_*` series run ≈ 20 % slower.
impl CyclonNode {
    /// [`Input::Tick`]: ages the view and opens this cycle's shuffle.
    #[inline]
    fn on_tick(&mut self) -> Option<(Addr, CyclonMsg)> {
        if self.in_flight.is_some() {
            return None;
        }
        self.view.increment_ages();
        // An empty view: the node is isolated and cannot gossip.
        let oldest = self.view.remove_oldest()?;
        let removed = self
            .view
            .remove_random(self.cfg.swap_len - 1, &mut self.rng);
        let mut offered = Vec::with_capacity(removed.len() + 1);
        offered.push(self.fresh_descriptor());
        offered.extend(removed.iter().copied());

        self.stats.initiated += 1;
        self.in_flight = Some(removed);
        Some((
            oldest.addr,
            CyclonMsg::Shuffle {
                descriptors: offered,
            },
        ))
    }

    /// [`Input::Reply`] / [`Input::Timeout`]: resolves the shuffle.
    #[inline]
    fn on_outcome(&mut self, reply: Option<CyclonMsg>) {
        let Some(removed) = self.in_flight.take() else {
            return;
        };
        match reply {
            Some(CyclonMsg::ShuffleResponse { descriptors }) => {
                self.stats.completed += 1;
                self.merge(descriptors, &removed);
            }
            _ => {
                // Unreachable partner (§V-A case 1): the redeemed descriptor
                // is dropped; in *legacy* Cyclon the shipped descriptors may
                // be safely retained since nothing forbids reuse.
                self.stats.timeouts += 1;
                self.merge(Vec::new(), &removed);
            }
        }
    }

    /// [`Input::Request`]: the passive side of a shuffle.
    #[inline]
    fn on_request(&mut self, msg: CyclonMsg) -> Option<CyclonMsg> {
        match msg {
            CyclonMsg::Shuffle { descriptors } => {
                self.stats.answered += 1;
                let removed = self.view.remove_random(self.cfg.swap_len, &mut self.rng);
                self.merge(descriptors, &removed);
                Some(CyclonMsg::ShuffleResponse {
                    descriptors: removed,
                })
            }
            CyclonMsg::ShuffleResponse { .. } => None,
        }
    }
}

impl Machine for CyclonNode {
    type Msg = CyclonMsg;

    #[inline]
    fn step(&mut self, input: Input<CyclonMsg>) -> Effects<CyclonMsg> {
        let mut fx = Effects::default();
        match input {
            Input::Tick { .. } => fx.rpc = self.on_tick(),
            Input::Reply(msg) => self.on_outcome(Some(msg)),
            Input::Timeout => self.on_outcome(None),
            Input::Request { msg, .. } => fx.reply = self.on_request(msg),
            // Legacy Cyclon has no one-way traffic.
            Input::Oneway { .. } => {}
        }
        fx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_crypto::{Keypair, Scheme};
    use sc_sim::{Engine, SimConfig};
    use std::collections::HashMap;

    fn keypair(i: u64) -> Keypair {
        let mut seed = [0u8; 32];
        seed[..8].copy_from_slice(&i.to_le_bytes());
        Keypair::from_seed(Scheme::KeyedHash, seed)
    }

    /// Builds a ring-bootstrapped network of `n` correct nodes.
    fn build(n: usize, cfg: CyclonConfig, seed: u64) -> Engine<CyclonNode> {
        let ids: Vec<NodeId> = (0..n as u64).map(|i| keypair(i).public()).collect();
        let mut eng = Engine::new(SimConfig::seeded(seed));
        for i in 0..n {
            let id = ids[i];
            let mut node = CyclonNode::new(
                id,
                i as Addr,
                cfg,
                sc_sim::rng::derive_seed(seed, "node", i as u64),
            );
            // Ring bootstrap: a few successors.
            let boots: Vec<(NodeId, Addr)> = (1..=3)
                .map(|k| {
                    let j = (i + k) % n;
                    (ids[j], j as Addr)
                })
                .collect();
            node.bootstrap(boots);
            eng.spawn_with(|_| node);
        }
        eng
    }

    fn indegrees(eng: &Engine<CyclonNode>) -> HashMap<NodeId, usize> {
        let mut map: HashMap<NodeId, usize> = HashMap::new();
        for (_, node) in eng.nodes() {
            for d in node.view().iter() {
                *map.entry(d.id).or_default() += 1;
            }
        }
        map
    }

    #[test]
    fn network_converges_to_full_views() {
        let cfg = CyclonConfig {
            view_len: 8,
            swap_len: 3,
        };
        let mut eng = build(64, cfg, 11);
        eng.run_cycles(50);
        for (_, node) in eng.nodes() {
            assert_eq!(node.view().len(), cfg.view_len, "views fill up");
        }
    }

    #[test]
    fn indegree_concentrates_around_view_len() {
        let cfg = CyclonConfig {
            view_len: 8,
            swap_len: 3,
        };
        let mut eng = build(128, cfg, 3);
        eng.run_cycles(100);
        let deg = indegrees(&eng);
        assert_eq!(deg.len(), 128, "every node is somebody's neighbor");
        let min = *deg.values().min().unwrap();
        let max = *deg.values().max().unwrap();
        assert!(min >= 1, "no starved nodes (min {min})");
        assert!(max <= cfg.view_len * 4, "no hubs (max {max})");
    }

    #[test]
    fn views_never_hold_self_or_duplicates() {
        let cfg = CyclonConfig {
            view_len: 6,
            swap_len: 2,
        };
        let mut eng = build(40, cfg, 5);
        for _ in 0..30 {
            eng.run_cycle();
            for (_, node) in eng.nodes() {
                let ids: Vec<NodeId> = node.view().iter().map(|d| d.id).collect();
                assert!(!ids.contains(&node.id()));
                let mut dedup = ids.clone();
                dedup.sort();
                dedup.dedup();
                assert_eq!(dedup.len(), ids.len());
            }
        }
    }

    #[test]
    fn ages_stay_bounded_in_healthy_network() {
        let cfg = CyclonConfig {
            view_len: 8,
            swap_len: 4,
        };
        let mut eng = build(64, cfg, 7);
        eng.run_cycles(120);
        let max_age = eng
            .nodes()
            .flat_map(|(_, n)| n.view().iter().map(|d| d.age))
            .max()
            .unwrap();
        // A descriptor lives ~ℓ cycles on average; 6× is a generous bound.
        assert!(max_age < cfg.view_len as u32 * 6, "max age {max_age}");
    }

    #[test]
    fn overlay_self_heals_after_mass_failure() {
        let cfg = CyclonConfig {
            view_len: 8,
            swap_len: 3,
        };
        let mut eng = build(100, cfg, 13);
        eng.run_cycles(50);
        // Kill 40% of the network.
        for a in 0..40u32 {
            eng.kill(a);
        }
        eng.run_cycles(60);
        // Remaining nodes should have purged dead links almost entirely.
        let mut dead_links = 0usize;
        let mut total = 0usize;
        for (_, node) in eng.nodes() {
            for d in node.view().iter() {
                total += 1;
                if d.addr < 40 {
                    dead_links += 1;
                }
            }
        }
        let ratio = dead_links as f64 / total as f64;
        assert!(ratio < 0.05, "dead link ratio {ratio}");
        // And views should be full again (healing, not shrinking).
        let avg: f64 =
            eng.nodes().map(|(_, n)| n.view().len() as f64).sum::<f64>() / eng.alive_count() as f64;
        assert!(avg > cfg.view_len as f64 * 0.9, "avg view {avg}");
    }

    #[test]
    fn stats_count_exchanges() {
        let cfg = CyclonConfig {
            view_len: 4,
            swap_len: 2,
        };
        let mut eng = build(16, cfg, 17);
        eng.run_cycles(10);
        let total_initiated: u64 = eng.nodes().map(|(_, n)| n.stats().initiated).sum();
        assert_eq!(total_initiated, 160);
        let completed: u64 = eng.nodes().map(|(_, n)| n.stats().completed).sum();
        let answered: u64 = eng.nodes().map(|(_, n)| n.stats().answered).sum();
        assert_eq!(completed, answered);
        assert!(completed > 0);
    }

    // -- the `Machine` contract, stepped by hand (no engine) --------------

    const CFG: CyclonConfig = CyclonConfig {
        view_len: 4,
        swap_len: 3,
    };

    /// Node 0 with neighbours 1..=3, and the shuffle its first tick opens.
    fn ticked() -> (CyclonNode, Addr, Vec<LegacyDescriptor>) {
        let mut node = CyclonNode::new(keypair(0).public(), 0, CFG, [7; 32]);
        node.bootstrap((1..=3).map(|i| (keypair(i).public(), i as Addr)));
        let fx = node.step(Input::Tick { cycle: 0 });
        let Some((to, CyclonMsg::Shuffle { descriptors })) = fx.rpc else {
            panic!("a connected node opens a shuffle");
        };
        assert!(node.exchange_in_flight());
        (node, to, descriptors)
    }

    fn view_of(node: &CyclonNode) -> Vec<LegacyDescriptor> {
        node.view().iter().copied().collect()
    }

    fn stranger() -> LegacyDescriptor {
        LegacyDescriptor::fresh(keypair(9).public(), 9)
    }

    #[test]
    fn tick_while_a_shuffle_is_in_flight_is_a_noop() {
        let (mut node, _, _) = ticked();
        let (view, stats) = (view_of(&node), node.stats());
        let fx = node.step(Input::Tick { cycle: 1 });
        assert!(fx.rpc.is_none() && fx.reply.is_none() && fx.sends.is_empty());
        assert_eq!(view_of(&node), view, "not even the ages move");
        assert_eq!(node.stats(), stats);
        assert!(node.exchange_in_flight());
    }

    #[test]
    fn reply_nobody_awaits_is_dropped() {
        let mut node = CyclonNode::new(keypair(0).public(), 0, CFG, [7; 32]);
        node.bootstrap([(keypair(1).public(), 1)]);
        let view = view_of(&node);
        for input in [
            Input::Reply(CyclonMsg::ShuffleResponse {
                descriptors: vec![stranger()],
            }),
            Input::Timeout,
        ] {
            let fx = node.step(input);
            assert!(fx.rpc.is_none() && fx.reply.is_none() && fx.sends.is_empty());
        }
        assert_eq!(view_of(&node), view);
        assert_eq!(node.stats(), CyclonStats::default());
    }

    #[test]
    fn reply_of_the_wrong_variant_counts_as_a_timeout() {
        let (mut node, _, offered) = ticked();
        node.step(Input::Reply(CyclonMsg::Shuffle {
            descriptors: vec![stranger()],
        }));
        assert!(!node.exchange_in_flight());
        assert_eq!(node.stats().timeouts, 1);
        assert_eq!(node.stats().completed, 0);
        assert!(!node.view().contains(&stranger().id), "payload ignored");
        // As after a timeout, what was shipped (all but the fresh
        // self-descriptor) is back in the view.
        for d in &offered[1..] {
            assert!(node.view().contains(&d.id));
        }
    }

    #[test]
    fn request_is_served_while_a_shuffle_is_in_flight() {
        let (mut node, _, _) = ticked();
        let fx = node.step(Input::Request {
            from: 9,
            msg: CyclonMsg::Shuffle {
                descriptors: vec![stranger()],
            },
            cycle: 0,
        });
        assert!(matches!(fx.reply, Some(CyclonMsg::ShuffleResponse { .. })));
        assert!(fx.rpc.is_none());
        assert!(node.view().contains(&stranger().id));
        assert!(node.exchange_in_flight(), "its own shuffle is untouched");
        assert_eq!(node.stats().answered, 1);
    }

    #[test]
    #[should_panic(expected = "swap length")]
    fn invalid_config_rejected() {
        CyclonConfig {
            view_len: 4,
            swap_len: 5,
        }
        .validated();
    }
}
