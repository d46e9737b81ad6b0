//! Cross-crate integration tests: the full stack working together through
//! the umbrella crate's public API.

use securecyclon::attacks::SecureAttack;
use securecyclon::core::{Input, SecureConfig, SecureCyclonNode, SecureMsg};
use securecyclon::crypto::{Keypair, Scheme};
use securecyclon::metrics::{rises_after, spike_then_decay, TimeSeries};
use securecyclon::sim::Loss;
use securecyclon::testkit::{
    blacklist_coverage, build_secure_network, malicious_link_fraction, SecureNet, SecureNetParams,
};
use std::collections::{HashSet, VecDeque};

fn cfg() -> SecureConfig {
    SecureConfig::default().with_view_len(10).with_swap_len(3)
}

#[test]
fn defense_has_the_figure5_shape() {
    let mut params = SecureNetParams::new(200, 10, SecureAttack::Hub);
    params.cfg = cfg();
    params.attack_start = 20;
    params.seed = 1;
    let mut net = build_secure_network(params);
    let mut series = TimeSeries::new("malicious links %");
    for _ in 0..90 {
        net.engine.run_cycle();
        series.push(
            net.engine.cycle(),
            100.0 * malicious_link_fraction(&net.engine, &net.malicious_ids),
        );
    }
    // Rise above the 5% population share after the attack, settle near 0.
    let shape = spike_then_decay(&series, 20, 5.5, 3.0);
    assert!(shape.holds(), "{shape:?}");
}

#[test]
fn overlay_stays_connected_through_attack_and_eviction() {
    let mut params = SecureNetParams::new(200, 10, SecureAttack::Hub);
    params.cfg = cfg();
    params.attack_start = 20;
    params.seed = 2;
    let mut net = build_secure_network(params);
    net.engine.run_cycles(90);

    // Largest connected component over honest nodes only.
    let honest: Vec<u32> = net
        .engine
        .nodes()
        .filter(|(_, n)| !n.is_malicious())
        .map(|(a, _)| a)
        .collect();
    let honest_set: HashSet<u32> = honest.iter().copied().collect();
    let mut seen = HashSet::new();
    let mut q = VecDeque::from([honest[0]]);
    seen.insert(honest[0]);
    while let Some(a) = q.pop_front() {
        let node = net.engine.node(a).unwrap();
        if let Some(h) = node.honest() {
            for e in h.view().iter() {
                let peer = e.desc.addr();
                if honest_set.contains(&peer) && seen.insert(peer) {
                    q.push_back(peer);
                }
            }
        }
    }
    assert_eq!(
        seen.len(),
        honest.len(),
        "honest overlay remains one component after evicting the attackers"
    );
}

#[test]
fn late_joiner_is_sponsored_and_learns_the_blacklist() {
    let mut params = SecureNetParams::new(150, 8, SecureAttack::Hub);
    params.cfg = cfg();
    params.attack_start = 15;
    params.seed = 3;
    let mut net = build_secure_network(params);
    net.engine.run_cycles(60); // attack has happened; culprits evicted

    let coverage = blacklist_coverage(&net.engine, &net.malicious_ids);
    assert!(coverage > 0.9, "pre-join eviction done: {coverage}");

    // Build the joiner and sponsor it from three honest seeds.
    let joiner_kp = Keypair::from_seed(Scheme::KeyedHash, [0xAB; 32]);
    let joiner_id = joiner_kp.public();
    let cycle = net.engine.cycle();
    let seeds: Vec<u32> = net
        .engine
        .nodes()
        .filter(|(_, n)| !n.is_malicious())
        .map(|(a, _)| a)
        .take(3)
        .collect();
    let mut grants = Vec::new();
    for s in &seeds {
        let node = net.engine.node_mut(*s).unwrap();
        if let SecureNet::Honest(h) = node {
            if let Some(grant) = h.sponsor(joiner_id, cycle) {
                grants.push((*s, grant));
            }
        }
    }
    assert!(!grants.is_empty(), "sponsors granted descriptors");

    let mut joiner = SecureCyclonNode::new(
        joiner_kp,
        net.engine.capacity() as u32,
        cfg(),
        [0x11; 32],
        7,
    );
    for (from, grant) in grants {
        let digest = grant.descriptor.state_digest();
        joiner.step(Input::Oneway {
            from,
            msg: SecureMsg::JoinGrant(Box::new(grant)),
            cycle,
        });
        assert!(
            joiner
                .view()
                .iter()
                .any(|e| e.desc.state_digest() == digest),
            "the grant's descriptor is in the joiner's view"
        );
    }
    let known: usize = net
        .malicious_ids
        .iter()
        .filter(|m| joiner.blacklist().contains(m))
        .count();
    assert_eq!(known, net.malicious_ids.len(), "joiner knows every culprit");

    let addr = net
        .engine
        .spawn_with(|_| SecureNet::Honest(Box::new(joiner)));
    net.engine.run_cycles(30);
    let j = net.engine.node(addr).unwrap().honest().unwrap();
    assert!(
        j.view().len() >= 3,
        "joiner's view grows through gossip: {}",
        j.view().len()
    );
    assert!(j.proof_log().is_empty(), "joiner saw no new violations");
}

#[test]
fn lossy_network_under_attack_still_converges_on_eviction() {
    let mut params = SecureNetParams::new(150, 8, SecureAttack::Hub);
    params.cfg = cfg();
    params.attack_start = 15;
    params.seed = 4;
    params.loss = Loss::uniform(0.05);
    let mut net = build_secure_network(params);
    net.engine.run_cycles(90);
    let coverage = blacklist_coverage(&net.engine, &net.malicious_ids);
    assert!(
        coverage > 0.9,
        "eviction propagates despite 5% message loss: {coverage}"
    );
}

#[test]
fn legacy_takeover_has_the_figure3_shape() {
    use securecyclon::testkit::{run_scenario_observed, CyclonNetwork, Scenario};
    let scenario = Scenario::new("legacy-takeover", 200)
        .config(cfg().with_swap_len(5))
        .adversary(10, SecureAttack::Hub, 20)
        .cycles(250);
    let mut series = TimeSeries::new("legacy malicious links %");
    run_scenario_observed(&scenario, 5, |net: &CyclonNetwork| {
        let c = net.engine.cycle() - 1;
        series.push(
            c,
            100.0 * malicious_link_fraction(&net.engine, &net.malicious_addrs),
        );
    })
    .expect("a Cyclon run is not audited");
    let shape = rises_after(&series, 20, 95.0);
    assert!(shape.holds(), "{shape:?}");
}

#[test]
fn whole_stack_is_deterministic() {
    let fingerprint = |seed: u64| {
        let mut params = SecureNetParams::new(120, 12, SecureAttack::Hub);
        params.cfg = cfg();
        params.attack_start = 15;
        params.seed = seed;
        let mut net = build_secure_network(params);
        net.engine.run_cycles(50);
        let mut acc: u64 = 0;
        for (_, n) in net.engine.nodes() {
            if let Some(h) = n.honest() {
                acc = acc
                    .wrapping_mul(31)
                    .wrapping_add(h.view().len() as u64)
                    .wrapping_add(h.blacklist().len() as u64 * 7)
                    .wrapping_add(h.stats().completed);
            }
        }
        acc
    };
    assert_eq!(fingerprint(99), fingerprint(99));
    assert_ne!(fingerprint(99), fingerprint(100), "seeds matter");
}
