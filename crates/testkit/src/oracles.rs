//! Protocol invariant oracles.
//!
//! Each oracle is a predicate over the whole network state, checked after
//! every cycle (or once at the end of a run). The first violation aborts
//! the run with a [`Violation`] that names the scenario, seed, and cycle —
//! and, because scenarios are deterministic, re-running with that seed
//! reproduces the failure bit-for-bit. This is the Honeybee/FoundationDB
//! posture: verifiability as an invariant checked continuously, not a
//! property asserted once at the end.
//!
//! Every check runs over a [`NetSnapshot`], so the same oracle code
//! audits a simulated [`SecureNetwork`] and a cluster of live `sc-node`
//! processes scraped over their control sockets.

use crate::net::SecureNetwork;
use crate::scenario::{OracleConfig, Scenario};
use crate::snapshot::NetSnapshot;
use sc_core::DescriptorId;
use sc_crypto::{FxHashMap, FxHashSet, NodeId};
use sc_sim::Addr;
use std::collections::{HashMap, HashSet, VecDeque};

/// A failed invariant, with everything needed to reproduce it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Scenario name.
    pub scenario: String,
    /// Master seed of the failing run.
    pub seed: u64,
    /// Absolute engine cycle at which the oracle tripped (`u64::MAX` is
    /// never used; end-of-run oracles report the final cycle).
    pub cycle: u64,
    /// Name of the violated oracle.
    pub oracle: &'static str,
    /// Human-readable specifics.
    pub detail: String,
    /// The one-command reproduction for this run.
    pub replay: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "oracle '{}' violated in scenario '{}' (seed {}, cycle {}): {}\n  replay: {}",
            self.oracle, self.scenario, self.seed, self.cycle, self.detail, self.replay,
        )
    }
}

impl std::error::Error for Violation {}

/// The replay command for a `(scenario, seed)` pair of the simulated
/// scenario matrix.
pub fn matrix_replay(scenario: &str, seed: u64) -> String {
    format!(
        "SC_SCENARIO='{scenario}' SC_SEED={seed} cargo test --test scenario_matrix -- --nocapture"
    )
}

/// Paper bytes the byte-budget oracle allows per copy of a violation
/// proof a node sends. Measured (`message_paper_bytes`, seed 1): a proof
/// averages 431 B under the scale tier's hub attack and at most 832 B
/// (cloning adversary, 40 culprits), under half this — the same twofold
/// headroom as the per-cycle ceiling, pinned by the runner's headroom
/// tests.
const PROOF_COPY_PAPER_BYTES: u64 = 2 * 1024;

/// One-off §IV-C allowance on top of the per-cycle ceiling: convicting
/// the scenario's adversaries costs every honest node one copy of each
/// culprit's proof per neighbour (the flood, ℓ copies) plus one on every
/// request and answer of the piggyback window (≈ two a cycle). That grows
/// with the adversary's size, not with time, so no per-cycle ceiling
/// measured at four attackers can stand in for it at four hundred.
pub(crate) fn detection_allowance(scenario: &Scenario) -> u64 {
    let copies = scenario.cfg.view_len as u64 + 2 * scenario.cfg.proof_piggyback_cycles;
    scenario.n_malicious as u64 * copies * PROOF_COPY_PAPER_BYTES
}

/// Stateful oracle suite for one run.
///
/// Holds the cross-cycle state some oracles need (previous blacklists for
/// monotonicity) and the scenario's thresholds.
pub struct OracleSuite {
    scenario: String,
    seed: u64,
    cfg: OracleConfig,
    view_len: usize,
    replay: String,
    /// See [`detection_allowance`]; zero for a run with no scenario.
    detection_allowance: u64,
    /// Every identity an honest blacklist has held, numbered in the
    /// order first seen.
    culprit_index: FxHashMap<NodeId, usize>,
    /// Previous checked cycle's blacklist per address, as a bitset over
    /// `culprit_index` (addresses are never reused, so churn cannot alias
    /// entries). A bit per culprit, not its 32-byte identity: 6 000
    /// nodes blacklisting 4 000 culprits each keep 3 MB here, not a GB.
    prev_blacklists: HashMap<Addr, Vec<u64>>,
    /// Every honest identity ever observed alive — so accusing an honest
    /// node is caught even after churn removed the victim.
    honest_ever: FxHashSet<NodeId>,
}

impl OracleSuite {
    /// Creates the suite for one `(scenario, seed)` run of the simulated
    /// matrix.
    pub fn new(scenario: &Scenario, seed: u64) -> Self {
        let replay = matrix_replay(&scenario.name, seed);
        OracleSuite {
            detection_allowance: detection_allowance(scenario),
            ..OracleSuite::with_replay(
                &scenario.name,
                seed,
                scenario.oracles,
                scenario.cfg.view_len,
                replay,
            )
        }
    }

    /// Creates a suite for any run — a live loopback cluster, say — with
    /// a caller-supplied one-command replay line.
    pub fn with_replay(
        name: &str,
        seed: u64,
        cfg: OracleConfig,
        view_len: usize,
        replay: String,
    ) -> Self {
        OracleSuite {
            scenario: name.to_string(),
            seed,
            cfg,
            view_len,
            replay,
            detection_allowance: 0,
            culprit_index: FxHashMap::default(),
            prev_blacklists: HashMap::new(),
            honest_ever: FxHashSet::default(),
        }
    }

    fn violation(&self, cycle: u64, oracle: &'static str, detail: String) -> Violation {
        Violation {
            scenario: self.scenario.clone(),
            seed: self.seed,
            cycle,
            oracle,
            detail,
            replay: self.replay.clone(),
        }
    }

    /// Runs every enabled per-cycle oracle against a simulated network.
    /// `step` is the 0-based run step; the reported cycle is the absolute
    /// engine cycle.
    pub fn check_cycle(&mut self, net: &SecureNetwork, step: u64) -> Result<(), Violation> {
        if !step.is_multiple_of(self.cfg.stride.max(1)) {
            return Ok(());
        }
        self.check_age_cap(net)?;
        self.check_snapshot(&NetSnapshot::from_network(net), step)
    }

    /// Nothing honest is refused for its age: an honest node drops what
    /// it owns before it leaves the sample window, so in a network of
    /// honest nodes only a refusal means the window is shorter than the
    /// run's descriptor lifetimes. With an adversary present it checks
    /// nothing: an adversary may hold a descriptor back as long as it
    /// likes.
    fn check_age_cap(&self, net: &SecureNetwork) -> Result<(), Violation> {
        let mut first_refusal = None;
        for (addr, node) in net.engine.nodes() {
            let Some(honest) = node.honest() else {
                return Ok(());
            };
            let refused = honest.expired_refused();
            if refused > 0 && first_refusal.is_none() {
                first_refusal = Some((addr, refused));
            }
        }
        match first_refusal {
            None => Ok(()),
            Some((addr, refused)) => Err(self.violation(
                net.engine.cycle(),
                "age-cap",
                format!("node {addr} refused {refused} descriptors created outside the window"),
            )),
        }
    }

    /// Runs every enabled per-cycle oracle against a snapshot (simulated
    /// or scraped from live daemons).
    pub fn check_snapshot(&mut self, snap: &NetSnapshot, step: u64) -> Result<(), Violation> {
        if !step.is_multiple_of(self.cfg.stride.max(1)) {
            return Ok(());
        }
        let cycle = snap.cycle;
        if self.cfg.view_invariants {
            self.check_view_invariants(snap, cycle)?;
        }
        if self.cfg.unique_ownership {
            self.check_unique_ownership(snap, cycle)?;
        }
        if self.cfg.blacklist_monotone {
            self.check_blacklists(snap, cycle)?;
        }
        if let Some(bound) = self.cfg.max_indegree {
            if step >= self.cfg.warmup {
                self.check_indegree(snap, cycle, bound)?;
            }
        }
        if let Some(bound) = self.cfg.redemption_bound {
            self.check_redemption_bound(snap, cycle, bound)?;
        }
        if let Some(ceiling) = self.cfg.byte_budget_per_cycle {
            self.check_byte_budget(snap, cycle, ceiling)?;
        }
        Ok(())
    }

    /// Per-view structural invariants: capacity, ownership, no duplicate
    /// identities, non-swappable accounting.
    fn check_view_invariants(&self, snap: &NetSnapshot, cycle: u64) -> Result<(), Violation> {
        for node in &snap.nodes {
            let addr = node.addr;
            if node.view.len() > self.view_len {
                return Err(self.violation(
                    cycle,
                    "view-conservation",
                    format!(
                        "node {addr}: view holds {} > ℓ={}",
                        node.view.len(),
                        self.view_len
                    ),
                ));
            }
            let mut ids = HashSet::new();
            for (desc, _) in &node.view {
                if desc.creator() == node.id {
                    return Err(self.violation(
                        cycle,
                        "view-conservation",
                        format!("node {addr}: self-link in view"),
                    ));
                }
                if desc.owner() != node.id {
                    return Err(self.violation(
                        cycle,
                        "view-conservation",
                        format!("node {addr}: view entry not owned by the node"),
                    ));
                }
                if desc.is_redeemed() {
                    return Err(self.violation(
                        cycle,
                        "view-conservation",
                        format!("node {addr}: redeemed descriptor in view"),
                    ));
                }
                if !ids.insert(desc.id()) {
                    return Err(self.violation(
                        cycle,
                        "view-conservation",
                        format!("node {addr}: duplicate descriptor identity in view"),
                    ));
                }
            }
        }
        Ok(())
    }

    /// No descriptor identity is live-owned by two honest nodes at once.
    /// "Live-owned" counts swappable view entries and reserve entries;
    /// non-swappable entries are §V-A retained copies and legitimately
    /// coexist with the real owner's copy.
    fn check_unique_ownership(&self, snap: &NetSnapshot, cycle: u64) -> Result<(), Violation> {
        let mut owners: HashMap<DescriptorId, Addr> = HashMap::new();
        for node in &snap.nodes {
            let swappable = node.view.iter().filter(|(_, ns)| !ns).map(|(desc, _)| desc);
            for d in swappable.chain(node.reserve.iter()) {
                if let Some(prev) = owners.insert(d.id(), node.addr) {
                    return Err(self.violation(
                        cycle,
                        "unique-ownership",
                        format!(
                            "descriptor {:?} live-owned by nodes {prev} and {}",
                            d.id(),
                            node.addr
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Honest blacklists only grow, and never contain honest identities
    /// (no false accusations — message loss and partitions are not
    /// violations, §V-A).
    fn check_blacklists(&mut self, snap: &NetSnapshot, cycle: u64) -> Result<(), Violation> {
        self.honest_ever.extend(snap.nodes.iter().map(|n| n.id));
        // Every id of every blacklist is looked up here each cycle; Fx
        // keeps that cheap where blacklists run to thousands.
        let malicious: FxHashSet<NodeId> = snap.malicious_ids.iter().copied().collect();
        for node in &snap.nodes {
            let addr = node.addr;
            let mut current = Vec::new();
            for id in &node.blacklist {
                if !malicious.contains(id) && self.honest_ever.contains(id) {
                    return Err(self.violation(
                        cycle,
                        "blacklist-monotone",
                        format!("node {addr} blacklisted an honest node"),
                    ));
                }
                let next = self.culprit_index.len();
                let bit = *self.culprit_index.entry(*id).or_insert(next);
                if current.len() <= bit / 64 {
                    current.resize(bit / 64 + 1, 0u64);
                }
                current[bit / 64] |= 1 << (bit % 64);
            }
            if let Some(prev) = self.prev_blacklists.get(&addr) {
                let word = |i: usize| current.get(i).copied().unwrap_or(0);
                if prev.iter().enumerate().any(|(i, p)| p & !word(i) != 0) {
                    let count = |set: &[u64]| set.iter().map(|w| w.count_ones()).sum::<u32>();
                    return Err(self.violation(
                        cycle,
                        "blacklist-monotone",
                        format!(
                            "node {addr}: blacklist shrank from {} to {} entries",
                            count(prev),
                            count(&current)
                        ),
                    ));
                }
            }
            self.prev_blacklists.insert(addr, current);
        }
        Ok(())
    }

    /// In-degree of honest creators across honest views stays within the
    /// paper's bounds (descriptors are conserved tokens, so no honest node
    /// can be over-represented).
    fn check_indegree(
        &self,
        snap: &NetSnapshot,
        cycle: u64,
        bound: usize,
    ) -> Result<(), Violation> {
        let mut indegree: HashMap<NodeId, usize> = HashMap::new();
        for node in &snap.nodes {
            for (desc, _) in &node.view {
                let creator = desc.creator();
                if !snap.malicious_ids.contains(&creator) {
                    *indegree.entry(creator).or_default() += 1;
                }
            }
        }
        if let Some((_, &max)) = indegree.iter().max_by_key(|(_, &c)| c) {
            if max > bound {
                return Err(self.violation(
                    cycle,
                    "indegree-bounded",
                    format!("honest in-degree {max} exceeds bound {bound}"),
                ));
            }
        }
        Ok(())
    }

    /// The §V-C redemption cache is bounded by entry count, not just by
    /// age: under churn a single retention window can see arbitrarily
    /// many redemptions, and an unbounded cache is a memory-exhaustion
    /// vector on long-lived daemons.
    fn check_redemption_bound(
        &self,
        snap: &NetSnapshot,
        cycle: u64,
        bound: usize,
    ) -> Result<(), Violation> {
        for node in &snap.nodes {
            if node.redemptions > bound {
                return Err(self.violation(
                    cycle,
                    "redemption-bound",
                    format!(
                        "node {}: redemption cache holds {} > cap {bound}",
                        node.addr, node.redemptions
                    ),
                ));
            }
        }
        Ok(())
    }

    /// §VI-A traffic stays within the paper's per-node-per-cycle budget.
    /// Checked cumulatively (`ceiling × cycles elapsed`) so a burst in
    /// one cycle — proof flooding after a detection, say — must be paid
    /// back by quiet cycles, and so the check stays sound across
    /// crash-restarts, which reset a node's counters to zero. Convicting
    /// the adversaries is paid for once, by [`detection_allowance`].
    fn check_byte_budget(
        &self,
        snap: &NetSnapshot,
        cycle: u64,
        ceiling: u64,
    ) -> Result<(), Violation> {
        let allowance = self.detection_allowance;
        let budget = ceiling.saturating_mul(cycle + 1).saturating_add(allowance);
        for node in &snap.nodes {
            let (sent, received) = (node.stats.bytes_sent, node.stats.bytes_received);
            if sent > budget || received > budget {
                return Err(self.violation(
                    cycle,
                    "byte-budget",
                    format!(
                        "node {}: {sent} bytes sent / {received} received exceed \
                         {ceiling} B/cycle × {} cycles + {allowance} B for proofs = {budget}",
                        node.addr,
                        cycle + 1
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Runs the end-of-run oracles against a simulated network.
    pub fn check_final(&self, net: &SecureNetwork) -> Result<(), Violation> {
        self.check_snapshot_final(&NetSnapshot::from_network(net))
    }

    /// Runs the end-of-run oracles against a snapshot. Live clusters
    /// should scrape it quiescent (`--stop-cycle` linger), since
    /// connectivity and ownership are cross-node properties.
    pub fn check_snapshot_final(&self, snap: &NetSnapshot) -> Result<(), Violation> {
        let cycle = snap.cycle;
        if let Some(floor) = self.cfg.final_connectivity {
            let (component, honest_alive) = largest_component(snap);
            if (component as f64) < floor * honest_alive as f64 {
                return Err(self.violation(
                    cycle,
                    "convergence",
                    format!(
                        "honest overlay fragmented: largest component {component} of \
                         {honest_alive} alive honest nodes (floor {floor})"
                    ),
                ));
            }
        }
        if let Some(floor) = self.cfg.final_min_fill {
            let (len_sum, honest) = snap
                .nodes
                .iter()
                .fold((0usize, 0usize), |(l, c), n| (l + n.view.len(), c + 1));
            let avg = if honest == 0 {
                0.0
            } else {
                len_sum as f64 / honest as f64
            };
            if avg < floor * self.view_len as f64 {
                return Err(self.violation(
                    cycle,
                    "convergence",
                    format!(
                        "average honest view fill {avg:.2} below floor {:.2}",
                        floor * self.view_len as f64
                    ),
                ));
            }
        }
        if let Some(coverage_floor) = self.cfg.expect_detection {
            let (cloning, frequency) = snap.proofs_generated();
            if cloning + frequency == 0 {
                return Err(self.violation(
                    cycle,
                    "eventual-detection",
                    "adversary active but no violation was ever proven".to_string(),
                ));
            }
            let coverage = snap.blacklist_coverage();
            if coverage < coverage_floor {
                return Err(self.violation(
                    cycle,
                    "eventual-detection",
                    format!("blacklist coverage {coverage:.3} below floor {coverage_floor}"),
                ));
            }
        }
        Ok(())
    }
}

/// `(largest weakly-connected component, alive honest count)` over the
/// honest overlay of a simulated network.
pub fn largest_honest_component(net: &SecureNetwork) -> (usize, usize) {
    largest_component(&NetSnapshot::from_network(net))
}

/// `(largest weakly-connected component, honest count)` over a snapshot:
/// edges follow view entries between honest nodes in either direction.
pub fn largest_component(snap: &NetSnapshot) -> (usize, usize) {
    let honest_set: HashSet<Addr> = snap.nodes.iter().map(|n| n.addr).collect();
    // Undirected adjacency over honest view links.
    let mut adj: HashMap<Addr, Vec<Addr>> = HashMap::new();
    for node in &snap.nodes {
        let a = node.addr;
        for (desc, _) in &node.view {
            let b = desc.addr();
            if b != a && honest_set.contains(&b) {
                adj.entry(a).or_default().push(b);
                adj.entry(b).or_default().push(a);
            }
        }
    }
    let mut seen: HashSet<Addr> = HashSet::new();
    let mut best = 0;
    for node in &snap.nodes {
        if !seen.insert(node.addr) {
            continue;
        }
        let mut size = 0;
        let mut queue = VecDeque::from([node.addr]);
        while let Some(a) = queue.pop_front() {
            size += 1;
            for &b in adj.get(&a).into_iter().flatten() {
                if seen.insert(b) {
                    queue.push_back(b);
                }
            }
        }
        best = best.max(size);
    }
    (best, snap.nodes.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{build_secure_network, SecureNetParams};
    use sc_attacks::SecureAttack;

    #[test]
    fn violation_display_carries_replay_command() {
        let v = Violation {
            scenario: "honest-partition-heal".into(),
            seed: 42,
            cycle: 37,
            oracle: "convergence",
            detail: "fragmented".into(),
            replay: matrix_replay("honest-partition-heal", 42),
        };
        let msg = v.to_string();
        assert!(msg.contains("SC_SCENARIO='honest-partition-heal'"));
        assert!(msg.contains("SC_SEED=42"));
        assert!(msg.contains("cycle 37"));
        assert!(msg.contains("scenario_matrix"));
    }

    fn small_params(n: usize) -> SecureNetParams {
        let mut p = SecureNetParams::new(n, 0, SecureAttack::None);
        p.cfg = p.cfg.with_view_len(6).with_swap_len(3);
        p
    }

    #[test]
    fn snapshot_checks_match_network_checks() {
        let mut net = build_secure_network(small_params(16));
        for _ in 0..6 {
            net.engine.run_cycle();
        }
        let cfg = OracleConfig {
            unique_ownership: true,
            max_indegree: Some(64),
            warmup: 0,
            final_connectivity: Some(1.0),
            final_min_fill: Some(0.5),
            ..OracleConfig::default()
        };
        let mk = || OracleSuite::with_replay("snap-eq", 1, cfg, 8, "replay-me".into());
        // Same state, two entry points: both must pass identically.
        let snap = NetSnapshot::from_network(&net);
        mk().check_cycle(&net, 0).unwrap();
        mk().check_snapshot(&snap, 0).unwrap();
        mk().check_final(&net).unwrap();
        mk().check_snapshot_final(&snap).unwrap();
        assert_eq!(largest_honest_component(&net), largest_component(&snap));
    }

    #[test]
    fn redemption_and_byte_budget_oracles_trip_on_forged_snapshots() {
        let mut net = build_secure_network(small_params(12));
        for _ in 0..4 {
            net.engine.run_cycle();
        }
        let cfg = OracleConfig {
            redemption_bound: Some(64),
            byte_budget_per_cycle: Some(1 << 20),
            ..OracleConfig::default()
        };
        let mk = || OracleSuite::with_replay("budget", 2, cfg, 8, "cmd".into());
        let clean = NetSnapshot::from_network(&net);
        mk().check_snapshot(&clean, 0)
            .expect("healthy run is within both budgets");

        let mut over_cache = clean.clone();
        over_cache.nodes[0].redemptions = 65;
        let v = mk().check_snapshot(&over_cache, 0).unwrap_err();
        assert_eq!(v.oracle, "redemption-bound");

        let mut over_wire = clean.clone();
        over_wire.nodes[0].stats.bytes_received = (1 << 20) * (over_wire.cycle + 1) + 1;
        let v = mk().check_snapshot(&over_wire, 0).unwrap_err();
        assert_eq!(v.oracle, "byte-budget");
        assert!(v.to_string().contains("received"));
    }

    /// Runs a window of cycles of a network with `n_malicious` adversaries
    /// under the default oracles, then shows its first honest node a grant
    /// of a descriptor created in cycle 0, long out of the window: the
    /// next check's verdict, and that node's address.
    fn check_after_a_stale_grant(n_malicious: usize) -> (Result<(), Violation>, Addr) {
        use sc_core::{Input, JoinGrantBody, Machine, SecureDescriptor, SecureMsg, Timestamp};
        use sc_crypto::{Keypair, Scheme};
        let mut params = small_params(10);
        params.n_malicious = n_malicious;
        let mut net = build_secure_network(params);
        let cfg = OracleConfig::default();
        let mut suite = OracleSuite::with_replay("age", 4, cfg, 6, "cmd".into());
        let window = sc_core::node::SAMPLE_RETENTION_CYCLES;
        for step in 0..window {
            net.engine.run_cycle();
            suite
                .check_cycle(&net, step)
                .expect("gossip refuses nothing for its age");
        }
        let addr = net
            .engine
            .nodes()
            .find(|(_, n)| n.honest().is_some())
            .map(|(addr, _)| addr)
            .unwrap();
        let node = net.engine.node_mut(addr).unwrap();
        let me = node.honest().unwrap().id();
        let sponsor = Keypair::from_seed(Scheme::KeyedHash, [77; 32]);
        let stale = SecureDescriptor::create(&sponsor, 99, Timestamp(0))
            .transfer(&sponsor, me)
            .unwrap();
        node.step(Input::Oneway {
            from: 99,
            msg: SecureMsg::JoinGrant(Box::new(JoinGrantBody {
                descriptor: stale,
                proofs: Vec::new(),
            })),
            cycle: window + 6,
            now: (window + 6) * 1000,
        });
        assert_eq!(
            net.engine
                .node(addr)
                .unwrap()
                .honest()
                .unwrap()
                .expired_refused(),
            1
        );
        (suite.check_cycle(&net, window), addr)
    }

    #[test]
    fn age_cap_trips_on_a_descriptor_refused_for_its_age() {
        let (verdict, addr) = check_after_a_stale_grant(0);
        let v = verdict.unwrap_err();
        assert_eq!(v.oracle, "age-cap");
        assert!(v.to_string().contains(&format!("node {addr} refused 1")));
    }

    #[test]
    fn age_cap_is_silent_beside_an_adversary() {
        let (verdict, _) = check_after_a_stale_grant(1);
        verdict.expect("an adversary may hold a descriptor back");
    }

    #[test]
    fn blacklist_monotone_trips_on_a_forged_loss_past_the_first_word() {
        use sc_crypto::{Keypair, Scheme};
        let net = build_secure_network(small_params(8));
        let mut snap = NetSnapshot::from_network(&net);
        // 70 culprits: the bitsets span two words.
        let culprits: Vec<NodeId> = (0..70u8)
            .map(|i| Keypair::from_seed(Scheme::KeyedHash, [i; 32]).public())
            .collect();
        snap.malicious_ids = culprits.iter().copied().collect();
        let check = |blacklists: [&[NodeId]; 2]| {
            let cfg = OracleConfig::default();
            let mut suite = OracleSuite::with_replay("monotone", 5, cfg, 6, "cmd".into());
            let mut snap = snap.clone();
            for (step, blacklist) in blacklists.into_iter().enumerate() {
                snap.nodes[0].blacklist = blacklist.to_vec();
                suite.check_snapshot(&snap, step as u64)?;
            }
            Ok::<(), Violation>(())
        };
        let mut reordered = culprits[..69].to_vec();
        reordered.reverse();
        check([&culprits[..69], &reordered]).expect("order is not membership");
        check([&culprits[..65], &culprits]).expect("growth is monotone");
        let v = check([&culprits, &culprits[..65]]).unwrap_err();
        assert_eq!(v.oracle, "blacklist-monotone");
        assert!(v.to_string().contains("shrank from 70 to 65"), "{v}");
        // Same length, one culprit swapped for another past bit 64.
        let swapped = [&culprits[..64], &culprits[65..]].concat();
        let v = check([&culprits[..69], &swapped]).unwrap_err();
        assert!(v.to_string().contains("shrank from 69 to 69"), "{v}");
    }

    #[test]
    fn torn_live_snapshot_trips_unique_ownership() {
        let net = build_secure_network(small_params(10));
        let mut snap = NetSnapshot::from_network(&net);
        // Forge a torn read: one node's owned view entry also shows up in
        // another node's reserve — impossible in a quiescent cluster.
        let (dup, _) = snap.nodes[0].view[0].clone();
        snap.nodes[1].reserve.push(dup);
        let cfg = OracleConfig {
            unique_ownership: true,
            ..OracleConfig::default()
        };
        let mut suite = OracleSuite::with_replay("torn", 9, cfg, 8, "cmd".into());
        let v = suite.check_snapshot(&snap, 0).unwrap_err();
        assert_eq!(v.oracle, "unique-ownership");
        assert!(v.to_string().contains("cmd"));
    }
}
