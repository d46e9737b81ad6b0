//! Large-scale simulation: a 20,000-node SecureCyclon overlay driven
//! through the arena-backed engine, with a nodes-per-second readout.
//!
//! ```text
//! cargo run --release --example large_scale
//! ```
//!
//! Populations this size are why the engine stores nodes in an index
//! arena (no per-node heap graph) and batches one-way traffic; the same
//! run replays bit-for-bit from one seed.

use securecyclon::attacks::SecureAttack;
use securecyclon::core::checks::CacheFootprint;
use securecyclon::core::SecureDescriptor;
use securecyclon::testkit::{build_secure_network, SecureNetParams};
use std::collections::HashSet;
use std::time::Instant;

fn main() {
    // Keep the default-build smoke test snappy; release runs the full
    // population (override with LARGE_SCALE_N).
    let n: usize = std::env::var("LARGE_SCALE_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if cfg!(debug_assertions) {
            1_000
        } else {
            20_000
        });
    let cycles = 10u64;

    let mut params = SecureNetParams::new(n, 0, SecureAttack::None);
    params.seed = 42;

    let t0 = Instant::now();
    let mut net = build_secure_network(params);
    println!(
        "built a {}-node overlay in {:.2?} (capacity {}, all alive)",
        n,
        t0.elapsed(),
        net.engine.capacity()
    );

    let t1 = Instant::now();
    net.engine.run_cycles(cycles);
    let elapsed = t1.elapsed();
    let node_cycles = n as u64 * cycles;
    println!(
        "ran {cycles} gossip cycles in {:.2?} — {:.0} node-cycles/sec",
        elapsed,
        node_cycles as f64 / elapsed.as_secs_f64()
    );

    // The overlay is healthy: views full of live peers, no proofs in an
    // honest network, and the engine's counters account for the traffic.
    let stats = net.engine.stats();
    println!(
        "traffic: {} RPCs completed, {} unreachable, {} one-way datagrams",
        stats.rpcs_completed, stats.rpcs_unreachable, stats.oneways_delivered
    );
    let mut fills = 0usize;
    let mut slots = 0usize;
    // What a node's bookkeeping occupies (README, "Where a node's memory
    // goes"): sample-cache slots shown and stored, the capacity behind
    // them, the creator index that finds them, spent-state records, and
    // the chain blocks everything stored pins — each block once, whoever
    // holds it.
    let (mut visible, mut stored, mut capacity, mut index, mut spent) = (0, 0, 0, 0, 0);
    let mut blocks = HashSet::new();
    for (_, node) in net.engine.nodes() {
        let h = node.honest().expect("all nodes honest");
        fills += h.view().len();
        slots += h.config().view_len;
        assert!(h.blacklist().is_empty(), "honest runs accuse nobody");
        let held = h.footprint();
        visible += held.samples.visible_slots;
        stored += held.samples.stored_slots;
        capacity += held.samples.slot_capacity;
        index += held.samples.index_bytes;
        spent += held.spent_records;
        for d in h.stored_descriptors() {
            for block in d.block_addrs() {
                if !blocks.insert(block) {
                    break; // and every block below it
                }
            }
        }
    }
    println!(
        "views: {:.1}% full across {} nodes",
        100.0 * fills as f64 / slots as f64,
        net.engine.alive_count()
    );
    let per_node = |total: usize| total as f64 / n as f64;
    println!(
        "footprint per node after {cycles} cycles: {:.0} sample slots visible, {:.0} stored, \
         {:.1} kB of slot capacity, {:.1} kB of creator index, {:.0} spent records, \
         {:.0} chain blocks = {:.1} kB",
        per_node(visible),
        per_node(stored),
        per_node(capacity * CacheFootprint::SLOT_BYTES) / 1e3,
        per_node(index) / 1e3,
        per_node(spent),
        per_node(blocks.len()),
        per_node(blocks.len() * SecureDescriptor::BLOCK_BYTES) / 1e3
    );
}
