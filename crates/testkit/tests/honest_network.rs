//! All-honest SecureCyclon networks on the simulator driver: the
//! qualitative health claims of §VI (full swappable views, balanced
//! in-degree, bounded descriptor lifetime, healing under loss and mass
//! failure), at reduced scale.

use sc_attacks::SecureAttack;
use sc_core::checks::{CacheFootprint, SLACK_SLOTS};
use sc_core::node::{REDEMPTION_CACHE_MAX_ENTRIES, SAMPLE_RETENTION_CYCLES};
use sc_core::{DescriptorId, SecureConfig, Timestamp};
use sc_crypto::{FxHashSet, NodeId};
use sc_sim::Loss;
use sc_testkit::{build_secure_network, SecureNetParams, SecureNetwork};
use std::collections::{HashMap, HashSet};

fn small_cfg() -> SecureConfig {
    SecureConfig::default().with_view_len(8).with_swap_len(3)
}

fn build_net(n: usize, seed: u64, loss: Loss) -> SecureNetwork {
    let mut params = SecureNetParams::new(n, 0, SecureAttack::None);
    params.cfg = small_cfg();
    params.seed = seed;
    params.loss = loss;
    build_secure_network(params)
}

fn build(n: usize, seed: u64) -> SecureNetwork {
    build_net(n, seed, Loss::default())
}

/// The honest nodes of `net`, in address order.
fn honest(net: &SecureNetwork) -> impl Iterator<Item = &sc_core::SecureCyclonNode> {
    net.engine.nodes().filter_map(|(_, n)| n.honest())
}

#[test]
fn honest_network_runs_violation_free() {
    let mut net = build(48, 1);
    net.engine.run_cycles(60);
    for node in honest(&net) {
        assert_eq!(node.blacklist().len(), 0, "no false accusations");
        assert!(node.proof_log().is_empty(), "no proofs generated");
        assert_eq!(node.stats().invalid_descriptors, 0);
    }
}

#[test]
fn honest_views_stay_full_and_swappable() {
    let cfg = small_cfg();
    let mut net = build(128, 2);
    net.engine.run_cycles(80);
    let mut total_ns = 0usize;
    let mut total_len = 0usize;
    for node in honest(&net) {
        assert!(
            node.view().len() >= cfg.view_len / 2,
            "view at least half full: {}",
            node.view().len()
        );
        total_len += node.view().len();
        total_ns += node.view().ns_count();
    }
    let avg = total_len as f64 / 128.0;
    assert!(
        avg >= cfg.view_len as f64 * 0.7,
        "views near capacity on average: {avg}"
    );
    let ns_frac = total_ns as f64 / (128.0 * cfg.view_len as f64);
    assert!(ns_frac < 0.05, "non-swappable fraction {ns_frac}");
}

#[test]
fn exchanges_actually_complete() {
    let mut net = build(32, 3);
    net.engine.run_cycles(40);
    let completed: u64 = honest(&net).map(|n| n.stats().completed).sum();
    let initiated: u64 = honest(&net).map(|n| n.stats().initiated).sum();
    assert!(initiated >= 32 * 39, "nodes initiate nearly every cycle");
    assert!(
        completed as f64 / initiated as f64 > 0.95,
        "exchanges succeed: {completed}/{initiated}"
    );
}

#[test]
fn indegree_concentrates_like_figure_2() {
    let cfg = small_cfg();
    let mut net = build(96, 4);
    net.engine.run_cycles(100);
    let mut indeg: HashMap<NodeId, usize> = HashMap::new();
    for node in honest(&net) {
        for e in node.view().iter() {
            *indeg.entry(e.desc.creator()).or_default() += 1;
        }
    }
    assert_eq!(indeg.len(), 96, "every node has inbound links");
    let min = *indeg.values().min().unwrap();
    let max = *indeg.values().max().unwrap();
    assert!(min >= 2, "no starved nodes (min {min})");
    assert!(max <= cfg.view_len * 3, "no hubs (max {max})");
}

#[test]
fn views_never_hold_self_dups_or_foreign_descriptors() {
    let mut net = build(32, 5);
    for _ in 0..30 {
        net.engine.run_cycle();
        for node in honest(&net) {
            let mut ids = Vec::new();
            for e in node.view().iter() {
                assert_ne!(e.desc.creator(), node.id(), "no self-links");
                assert_eq!(e.desc.owner(), node.id(), "owns all view entries");
                assert!(!e.desc.is_redeemed());
                ids.push(e.desc.id());
            }
            let mut dedup = ids.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), ids.len(), "no duplicate descriptor ids");
        }
    }
}

#[test]
fn descriptor_ages_bounded_in_equilibrium() {
    let cfg = small_cfg();
    let mut net = build(48, 6);
    net.engine.run_cycles(120);
    let tpc = cfg.ticks_per_cycle;
    let now = Timestamp(net.engine.cycle() * tpc);
    let max_age = honest(&net)
        .flat_map(|n| n.view().iter().map(|e| e.desc.age_cycles(now, tpc)))
        .max()
        .unwrap();
    assert!(
        max_age < cfg.view_len as u64 * 8,
        "descriptor lifetime bounded (max {max_age})"
    );
}

#[test]
fn lossy_network_heals_with_ns_descriptors() {
    let cfg = small_cfg();
    let mut net = build_net(48, 7, Loss::uniform(0.10));
    net.engine.run_cycles(80);
    // Despite 10% loss in every direction, no false proofs and views
    // recover through NS back-fill.
    let mut lens = Vec::new();
    for node in honest(&net) {
        assert!(node.proof_log().is_empty(), "loss is not a violation");
        lens.push(node.view().len());
    }
    let avg = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
    assert!(avg > cfg.view_len as f64 * 0.7, "avg view {avg}");
    let backfills: u64 = honest(&net).map(|n| n.stats().ns_backfills).sum();
    assert!(backfills > 0, "NS repair actually used");
}

#[test]
fn mass_failure_purges_dead_links() {
    let mut net = build(80, 8);
    net.engine.run_cycles(40);
    for a in 0..32u32 {
        net.engine.kill(a);
    }
    net.engine.run_cycles(60);
    let mut dead = 0usize;
    let mut total = 0usize;
    for node in honest(&net) {
        for e in node.view().iter() {
            total += 1;
            if e.desc.addr() < 32 {
                dead += 1;
            }
        }
    }
    assert!(
        (dead as f64 / total as f64) < 0.05,
        "dead links purged ({dead}/{total})"
    );
}

#[test]
fn deterministic_under_seed() {
    let digest = |seed: u64| {
        let mut net = build(24, seed);
        net.engine.run_cycles(30);
        honest(&net)
            .map(|n| {
                (
                    n.stats().completed,
                    n.view().len(),
                    n.view()
                        .iter()
                        .map(|e| e.desc.created_at().ticks())
                        .sum::<u64>(),
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(digest(42), digest(42));
}

#[test]
fn samples_accumulate_and_prune() {
    let mut net = build(32, 9);
    net.engine.run_cycles(30);
    let counts: Vec<usize> = honest(&net).map(|n| n.sample_count()).collect();
    assert!(counts.iter().all(|&c| c > 0), "caches in use");
    // Retention bounds memory: far fewer samples than total descriptors
    // ever created (32 nodes × 30 cycles plus bootstrap).
    assert!(counts.iter().all(|&c| c < 32 * 38));
}

/// `n` honest nodes on the paper's configuration.
fn paper_network(n: usize) -> SecureNetwork {
    let mut params = SecureNetParams::new(n, 0, SecureAttack::None);
    params.cfg = SecureConfig::default();
    params.seed = 10;
    build_secure_network(params)
}

/// Holds every cache of `node` to a bound that follows from the
/// configuration alone: what it shows, and what it occupies. `last_turn`
/// is the cycle of the node's latest turn.
fn assert_within_caps(node: &sc_core::SecureCyclonNode, cycle: usize, last_turn: u64) {
    let cfg = SecureConfig::default();
    // A sample stays visible until the window and its cycle of grace
    // have passed since its creation, so it was first seen in the last
    // W + 1 cycles. In that time a node takes part in about two exchanges a
    // cycle — its own and, on average, one it answers — and an exchange
    // shows it at most a view of samples, a redemption cache, the
    // certificate, the fresh descriptor and s transfers.
    let per_exchange = cfg.view_len + REDEMPTION_CACHE_MAX_ENTRIES + 2 + cfg.swap_len;
    let sample_bound = (SAMPLE_RETENTION_CYCLES as usize + 1) * 2 * per_exchange;
    // In each of those exchanges the node signs away at most the
    // certificate and s transfers. A spent state is remembered for the
    // window, plus the cycle a record can wait behind a younger one.
    let spent_bound = (SAMPLE_RETENTION_CYCLES as usize + 2) * 2 * (1 + cfg.swap_len);
    assert!(node.redemption_count() <= REDEMPTION_CACHE_MAX_ENTRIES);
    assert!(node.reserve().count() <= 2 * cfg.swap_len);
    assert!(
        node.sample_count() <= sample_bound,
        "cycle {cycle}: {} samples",
        node.sample_count()
    );
    // What the bookkeeping *occupies*, not only what it shows: expired
    // slots wait for a touch of their creator or for the sweep, which
    // runs once they outnumber a sixteenth of the visible ones — and
    // nothing but the node's own prune makes a slot expire. A slot
    // vector keeps at most `SLACK_SLOTS` spare slots.
    let held = node.footprint();
    let (visible, stored) = (held.samples.visible_slots, held.samples.stored_slots);
    assert_eq!(visible, node.sample_count());
    assert!(
        stored <= visible + visible / 16,
        "cycle {cycle}: {stored} slots stored for {visible} visible"
    );
    // And what it shows is what arrived inside the window, counted from
    // creation: one slot an id created in the last W + 1 cycles (the
    // window and its cycle of grace), none for an older one however
    // recently it was seen. Every such id is among what the node stores,
    // so together with the bound above, slots stored are bounded by the
    // arrivals inside the creation window.
    let floor = last_turn.saturating_sub(SAMPLE_RETENTION_CYCLES) * cfg.ticks_per_cycle;
    let inside: FxHashSet<DescriptorId> = node
        .stored_descriptors()
        .filter(|d| d.created_at().ticks() >= floor)
        .map(|d| d.id())
        .collect();
    assert!(
        visible <= inside.len(),
        "cycle {cycle}: {visible} samples shown, {} ids created inside the window",
        inside.len()
    );
    assert!(
        held.samples.slot_capacity - stored <= SLACK_SLOTS * held.samples.creators,
        "cycle {cycle}: capacity {} for {stored} slots of {} creators",
        held.samples.slot_capacity,
        held.samples.creators
    );
    // The creator index that finds those vectors: one run a creator and
    // at most an eighth more (or 4) of spare room, and a table of one
    // entry a bucket at most twice the size a load of 7/8 needs.
    let c = held.samples.creators;
    assert!(
        held.samples.run_capacity - c <= (c / 8).max(4),
        "cycle {cycle}: room for {} runs of {c} creators",
        held.samples.run_capacity
    );
    assert!(
        held.samples.buckets <= 2 * (8 * c).div_ceil(7),
        "cycle {cycle}: {} buckets for {c} creators",
        held.samples.buckets
    );
    // Together: a run and at most 4 bytes a bucket.
    let most = (c + (c / 8).max(4)) * CacheFootprint::RUN_BYTES + 2 * (8 * c).div_ceil(7) * 4;
    assert!(
        held.samples.index_bytes <= most,
        "cycle {cycle}: {} bytes of creator index for {c} creators",
        held.samples.index_bytes
    );
    assert!(
        held.spent_records <= spent_bound,
        "cycle {cycle}: {} spent records",
        held.spent_records
    );
}

#[test]
fn per_node_caches_stay_within_their_caps() {
    // The first slice of a memory-bound oracle: on the paper's
    // configuration every per-node cache stays inside its bound, at every
    // cycle. From cycle 62 on, when the bootstrap's first descriptors
    // leave the window, every cycle expires samples, drops slots and
    // replaces cached versions by longer ones.
    let mut net = paper_network(60);
    for cycle in 0..150 {
        net.engine.run_cycle();
        let last_turn = net.engine.cycle() - 1;
        for node in honest(&net) {
            assert_within_caps(node, cycle, last_turn);
        }
        // What all of it costs to store. A chain is made of fixed-size
        // blocks, one per link plus the genesis (`descriptor.rs` pins the
        // size), and every version of a descriptor — in whichever view or
        // cache of whichever node — is built on the blocks of the version
        // before it: the network holds each link of each live descriptor
        // once, not once per copy, version or holder. (No honest node
        // forks a chain here; a sanctioned §V-A fork would add its one
        // link.) The walk covers everything *stored*: an expired slot
        // pins its blocks until it is dropped.
        let mut blocks = HashSet::new();
        let mut longest: HashMap<_, usize> = HashMap::new();
        for d in honest(&net).flat_map(|node| node.stored_descriptors()) {
            let links = longest.entry(d.id()).or_default();
            *links = d.transfer_count().max(*links);
            for block in d.block_addrs() {
                if !blocks.insert(block) {
                    break; // below a block already counted, every block is
                }
            }
        }
        let bound: usize = longest.values().map(|links| links + 1).sum();
        assert!(
            blocks.len() <= bound,
            "cycle {cycle}: {} blocks for {} descriptors whose chains need {bound}",
            blocks.len(),
            longest.len()
        );
    }
}

#[test]
fn what_a_cache_occupies_follows_what_it_shows() {
    // The per-node bounds again, where creators outnumber a cycle's first
    // sightings (≈ 50). With 60 nodes every creator gains a sample every
    // cycle or two, and an insert has always dropped its creator's
    // expired slots; with 300 they wait for the touch and the sweep, and
    // a vector that once held a burst is cut back by the shrink rule or
    // not at all. Long enough for almost sixty cycles of expiry (the
    // run's engine cycles are 20..120).
    let mut net = paper_network(300);
    for cycle in 0..100 {
        net.engine.run_cycle();
        let last_turn = net.engine.cycle() - 1;
        for node in honest(&net) {
            assert_within_caps(node, cycle, last_turn);
        }
    }
}
