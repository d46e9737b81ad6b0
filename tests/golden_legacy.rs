//! Committed golden end-state hashes for the legacy Cyclon path.
//!
//! `golden_state.rs` pins the SecureCyclon stack; this file pins the
//! baseline it is compared against: `CyclonNode` on a bare engine (the
//! Figure 2 setup) and `CyclonNode` + `LegacyHubAttacker` in the Figure 3
//! takeover, run through the scenario runner as the figures run it (the
//! Figure 2 overlay through the runner hashes as on the bare engine: the
//! runner adds no draw). Each run is hashed at its end: every honest
//! node's view as `(id, addr, age)` in view order, its `CyclonStats`, and
//! the engine's `TrafficStats`. The hashes were recorded before the
//! legacy nodes became `step` machines and must not move under a change
//! that claims to keep behaviour — they pin the RNG draw order of both
//! node types and the order the engine performs round trips in.
//!
//! A change that *intends* to alter behaviour re-records the table: on a
//! mismatch the test prints its rows in source form.

use securecyclon::attacks::SecureAttack;
use securecyclon::core::SecureConfig;
use securecyclon::crypto::hex::to_hex;
use securecyclon::crypto::{Keypair, NodeId, Scheme, Sha256};
use securecyclon::cyclon::{CyclonConfig, CyclonNode};
use securecyclon::sim::rng::derive_seed;
use securecyclon::sim::{Engine, SimConfig, TrafficStats};
use securecyclon::testkit::{run_scenario_observed, CyclonNet, CyclonNetwork, Scenario};

/// `(run, seed, sha256 of the end state)`, one row per line — the shape
/// the test prints on a mismatch.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, &str)] = &[
    ("cyclon-honest", 1, "d80b17a69fb6fcf5a764fd75c5bb6af558680f1de77d9cc5695f7459ee77ddbe"),
    ("fig3-takeover-s3", 1, "ae4d7f7f381a1ad878567a3387272df52dccf1e6efbcf8128397e1ca5e4b4403"),
    ("fig3-takeover-s8", 1, "d684a0f9cfa1740b2d52b6c4dfa70b5187a8eb1969ccb1ab4bb0044e39ee3bb6"),
    ("cyclon-honest", 2, "45ed88b1c1f1ac0bee9e41b69c26558ca1f8f45f79202dd1d73e456c0f101afc"),
    ("fig3-takeover-s3", 2, "1ea9349927b65d1759355c8635d4e977ee72c2134d2e50dd080035081cb1d1de"),
    ("fig3-takeover-s8", 2, "38e82ad865cee17bbb738da8a449c5427109396b06074425ca40fb5b81937428"),
];

fn hash_node(h: &mut Sha256, addr: u32, node: &CyclonNode) {
    h.update(&addr.to_be_bytes());
    h.update(&(node.view().len() as u64).to_be_bytes());
    for d in node.view().iter() {
        h.update(d.id.as_bytes());
        h.update(&d.addr.to_be_bytes());
        h.update(&d.age.to_be_bytes());
    }
    h.update(format!("{:?}", node.stats()).as_bytes());
}

fn finish(mut h: Sha256, traffic: &TrafficStats) -> String {
    h.update(format!("{traffic:?}").as_bytes());
    to_hex(&h.finalize())
}

/// An all-honest overlay on a bare `Engine<CyclonNode>`, ring-bootstrapped
/// as Figure 2 builds it: n = 200, ℓ = 8, s = 3, 60 cycles.
fn honest_run(seed: u64) -> String {
    let n = 200usize;
    let cfg = CyclonConfig {
        view_len: 8,
        swap_len: 3,
    };
    let ids: Vec<NodeId> = (0..n)
        .map(|i| {
            Keypair::from_seed(Scheme::KeyedHash, derive_seed(seed, "identity", i as u64)).public()
        })
        .collect();
    let mut engine = Engine::new(SimConfig::seeded(seed));
    for i in 0..n {
        let mut node = CyclonNode::new(ids[i], i as u32, cfg, derive_seed(seed, "node", i as u64));
        node.bootstrap((1..=4).map(|k| (ids[(i + k) % n], ((i + k) % n) as u32)));
        engine.spawn_with(|_| node);
    }
    engine.run_cycles(60);
    let mut h = Sha256::new();
    for (addr, node) in engine.nodes() {
        hash_node(&mut h, addr, node);
    }
    finish(h, engine.stats())
}

/// `scenario` run through the runner on legacy Cyclon, hashed over its
/// honest nodes.
fn scenario_run(scenario: &Scenario, seed: u64) -> String {
    let (_, net) = run_scenario_observed(scenario, seed, |_: &CyclonNetwork| {})
        .expect("a Cyclon run is not audited");
    let mut h = Sha256::new();
    for (addr, node) in net.engine.nodes() {
        if let CyclonNet::Honest(node) = node {
            hash_node(&mut h, addr, node);
        }
    }
    finish(h, net.engine.stats())
}

/// The Figure 3 takeover: n = 300, 20 attackers from cycle 50, 120 cycles.
fn takeover_run(swap_len: usize, seed: u64) -> String {
    let cfg = SecureConfig::default()
        .with_view_len(8)
        .with_swap_len(swap_len);
    let scenario = Scenario::new("fig3-takeover", 300)
        .config(cfg)
        .adversary(20, SecureAttack::Hub, 50)
        .cycles(120);
    scenario_run(&scenario, seed)
}

#[test]
fn golden_legacy_end_states() {
    let mut rows = Vec::new();
    let mut mismatches = Vec::new();
    for seed in [1u64, 2] {
        let runs = [
            ("cyclon-honest", honest_run(seed)),
            ("fig3-takeover-s3", takeover_run(3, seed)),
            ("fig3-takeover-s8", takeover_run(8, seed)),
        ];
        for (name, got) in runs {
            let want = GOLDEN
                .iter()
                .find(|(run, s, _)| *run == name && *s == seed)
                .map(|(_, _, hash)| *hash);
            if want != Some(got.as_str()) {
                mismatches.push(format!("{name} seed {seed}: recorded {want:?}, got {got}"));
            }
            rows.push(format!("    (\"{name}\", {seed}, \"{got}\"),"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "legacy end state moved:\n{}\n\nrows:\n{}",
        mismatches.join("\n"),
        rows.join("\n")
    );
}

/// The Figure 2 shape through the runner — n = 200, ℓ = 8, s = 3, 60
/// cycles — ends where the bare engine does: the runner adds no draw.
#[test]
fn the_runner_steps_cyclon_as_the_bare_engine_does() {
    let scenario = Scenario::new("cyclon-honest", 200).cycles(60);
    for seed in [1u64, 2] {
        let want = GOLDEN
            .iter()
            .find(|(run, s, _)| *run == "cyclon-honest" && *s == seed)
            .map(|(_, _, hash)| *hash);
        assert_eq!(
            Some(scenario_run(&scenario, seed).as_str()),
            want,
            "seed {seed}"
        );
    }
}
