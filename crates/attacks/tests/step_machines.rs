//! The adversaries as sans-IO machines, stepped by hand — no engine.
//!
//! They are held to the contract README states for the honest node: a
//! tick while an exchange is in flight is a no-op, a reply nobody awaits
//! is dropped, a reply of the wrong variant counts as a timeout, and
//! requests are served in any state — including between the round trips
//! of the adversary's own exchange, a state only a non-blocking driver
//! reaches.

use sc_attacks::{LegacyHubAttacker, LegacyParty, MaliciousSecureNode, SecureAttack, SecureParty};
use sc_core::{
    default_phase, ring_bootstrap, AcceptBody, Addr, Effects, Input, Machine, RoundReplyBody,
    SecureConfig, SecureCyclonNode, SecureDescriptor, SecureMsg, Timestamp,
};
use sc_crypto::{Keypair, Scheme};
use sc_cyclon::{CyclonConfig, CyclonMsg, CyclonNode};
use std::sync::{Arc, Mutex};

const TPC: u64 = 1000;

fn keypair(i: usize) -> Keypair {
    Keypair::from_seed(Scheme::KeyedHash, [i as u8 + 1; 32])
}

fn quiet<M>(fx: &Effects<M>) -> bool {
    fx.rpc.is_none() && fx.reply.is_none() && fx.sends.is_empty() && fx.flood.is_none()
}

// ----------------------------------------------------------------------
// MaliciousSecureNode
// ----------------------------------------------------------------------

fn cfg() -> SecureConfig {
    SecureConfig::default().with_view_len(3).with_swap_len(3)
}

/// A ring-bootstrapped foursome: node 0 is the adversary, nodes 1..=3 are
/// honest. Returns them with the cycle the bootstrap ends at.
fn foursome(attack: SecureAttack) -> (MaliciousSecureNode, Vec<SecureCyclonNode>, u64) {
    let cfg = cfg();
    let kps: Vec<Keypair> = (0..4).map(keypair).collect();
    let addrs: Vec<Addr> = (0..4).collect();
    let phases: Vec<u64> = (0..4).map(|i| default_phase(i, TPC)).collect();
    let mut plan = ring_bootstrap(&kps, &addrs, &phases, cfg.view_len, TPC);
    let party = SecureParty::new(vec![kps[0].clone()], vec![0], TPC);
    let mut mallory = MaliciousSecureNode::new(
        kps[0].clone(),
        0,
        &cfg,
        Arc::new(Mutex::new(party)),
        [0; 32],
        phases[0],
    )
    .with_attack(attack, 0);
    let honest = plan.per_node.split_off(1);
    for d in plan.per_node.remove(0) {
        mallory.accept_bootstrap(d);
    }
    let honest = honest
        .into_iter()
        .zip(1..)
        .map(|(descs, i)| {
            let mut node =
                SecureCyclonNode::new(kps[i].clone(), i as Addr, cfg, [i as u8; 32], phases[i]);
            for d in descs {
                assert!(node.accept_bootstrap(d));
            }
            node
        })
        .collect();
    (mallory, honest, plan.start_cycle)
}

fn tick(cycle: u64) -> Input {
    Input::Tick { cycle }
}

/// A descriptor some honest stranger legitimately hands to node 0.
fn gift() -> SecureDescriptor {
    let stranger = keypair(9);
    SecureDescriptor::create(&stranger, 9, Timestamp(5 * TPC))
        .transfer(&stranger, keypair(0).public())
        .unwrap()
}

fn accept(transfers: Vec<SecureDescriptor>) -> SecureMsg {
    SecureMsg::Accept(Box::new(AcceptBody {
        transfers,
        samples: Vec::new(),
        proofs: Vec::new(),
    }))
}

fn round_reply(transfer: Option<SecureDescriptor>) -> SecureMsg {
    SecureMsg::RoundReply(Box::new(RoundReplyBody { transfer }))
}

/// The samples a control node's request carries are its owned set: the
/// one window a test has onto what it stored.
fn sample_count(fx: &Effects) -> usize {
    match &fx.rpc {
        Some((_, SecureMsg::Request(body))) => body.samples.len(),
        other => panic!("expected a request, got {other:?}"),
    }
}

#[test]
fn malicious_tick_while_an_exchange_is_in_flight_is_a_noop() {
    for attack in [SecureAttack::None, SecureAttack::Hub] {
        let (mut mallory, _, start) = foursome(attack);
        assert!(mallory.step(tick(start)).rpc.is_some());
        assert!(mallory.exchange_in_flight());
        assert!(quiet(&mallory.step(tick(start + 1))));
        assert!(mallory.exchange_in_flight());
        // The exchange still resolves, and only then does a tick open
        // the next one.
        assert!(quiet(&mallory.step(Input::Timeout)));
        assert!(!mallory.exchange_in_flight());
        assert!(mallory.step(tick(start + 1)).rpc.is_some());
    }
}

#[test]
fn malicious_reply_nobody_awaits_is_dropped() {
    let (mut mallory, _, start) = foursome(SecureAttack::None);
    assert!(quiet(&mallory.step(Input::Reply(accept(vec![gift()])))));
    assert!(quiet(
        &mallory.step(Input::Reply(round_reply(Some(gift()))))
    ));
    assert!(quiet(&mallory.step(Input::Timeout)));
    assert!(!mallory.exchange_in_flight());
    // Three bootstrap descriptors, the oldest redeemed: the gift was not
    // stored.
    assert_eq!(sample_count(&mallory.step(tick(start))), 2);
}

#[test]
fn malicious_reply_of_the_wrong_variant_counts_as_a_timeout() {
    // The right variant first: an `Accept` that hands something over is
    // stored and answered with the first tit-for-tat round.
    let (mut mallory, _, start) = foursome(SecureAttack::None);
    mallory.step(tick(start));
    let fx = mallory.step(Input::Reply(accept(vec![gift()])));
    assert!(matches!(fx.rpc, Some((_, SecureMsg::Round(_)))));
    assert!(mallory.exchange_in_flight());
    // An `Accept` where a `RoundReply` is due ends the exchange.
    assert!(quiet(&mallory.step(Input::Reply(accept(vec![gift()])))));
    assert!(!mallory.exchange_in_flight());

    // A `RoundReply` where the `Accept` is due: no round follows and its
    // payload is not stored (2 bootstrap descriptors left, 1 redeemed).
    let (mut mallory, _, start) = foursome(SecureAttack::None);
    mallory.step(tick(start));
    assert!(quiet(
        &mallory.step(Input::Reply(round_reply(Some(gift()))))
    ));
    assert!(!mallory.exchange_in_flight());
    assert_eq!(sample_count(&mallory.step(tick(start + 1))), 1);
}

#[test]
fn malicious_serves_a_request_and_a_round_while_its_own_exchange_is_in_flight() {
    for attack in [SecureAttack::None, SecureAttack::Hub] {
        let (mut mallory, mut honest, start) = foursome(attack);
        assert!(mallory.step(tick(start)).rpc.is_some());

        // Node 1's oldest descriptor is the one node 0 created in the
        // first pre-cycle, so its turn calls the adversary.
        let alice = &mut honest[0];
        let Some((0, request)) = alice.step(tick(start)).rpc else {
            panic!("node 1 redeems node 0's descriptor");
        };
        let fx = mallory.step(Input::Request {
            from: 1,
            msg: request,
            cycle: start,
        });
        assert!(fx.rpc.is_none(), "a served request never nests an rpc");
        let reply = fx.reply.expect("the request is answered mid-exchange");
        assert!(matches!(&reply, SecureMsg::Accept(body) if body.transfers.len() == 1));

        let Some((0, round)) = alice.step(Input::Reply(reply)).rpc else {
            panic!("tit-for-tat: node 1 opens a round");
        };
        let fx = mallory.step(Input::Request {
            from: 1,
            msg: round,
            cycle: start,
        });
        assert!(fx.rpc.is_none());
        assert!(matches!(fx.reply, Some(SecureMsg::RoundReply(_))));

        // Its own exchange was in flight throughout and still resolves.
        assert!(mallory.exchange_in_flight());
        mallory.step(Input::Timeout);
        assert!(!mallory.exchange_in_flight());
    }
}

// ----------------------------------------------------------------------
// LegacyHubAttacker
// ----------------------------------------------------------------------

const ATTACK_START: u64 = 10;

fn legacy_attacker() -> LegacyHubAttacker {
    let cfg = CyclonConfig {
        view_len: 4,
        swap_len: 3,
    };
    let mut inner = CyclonNode::new(keypair(0).public(), 0, cfg, [1; 32]);
    inner.bootstrap((1..=3).map(|i| (keypair(i).public(), i as Addr)));
    let party = LegacyParty {
        members: vec![0],
        all_addrs: (0..4).collect(),
    };
    LegacyHubAttacker::new(inner, Arc::new(party), ATTACK_START, cfg.swap_len, [2; 32])
}

fn legacy_tick(cycle: u64) -> Input<CyclonMsg> {
    Input::Tick { cycle }
}

#[test]
fn legacy_attacker_tick_while_a_shuffle_is_in_flight_is_a_noop() {
    // Attack mode: the fabricated shuffle is outstanding.
    let mut attacker = legacy_attacker();
    let Some((_, CyclonMsg::Shuffle { descriptors })) =
        attacker.step(legacy_tick(ATTACK_START)).rpc
    else {
        panic!("the attacker gossips at the correct rate");
    };
    assert!(descriptors.iter().all(|d| d.addr == 0), "all party routes");
    assert!(quiet(&attacker.step(legacy_tick(ATTACK_START + 1))));
    // Whatever comes back is discarded, and the next tick attacks again.
    assert!(quiet(&attacker.step(Input::Timeout)));
    assert!(attacker.step(legacy_tick(ATTACK_START + 1)).rpc.is_some());
}

#[test]
fn legacy_attacker_finishes_a_correct_shuffle_that_straddles_the_attack_start() {
    let mut attacker = legacy_attacker();
    assert!(attacker.step(legacy_tick(ATTACK_START - 1)).rpc.is_some());
    // The attack cycle arrives with the correct node's shuffle still out:
    // no second rpc.
    assert!(quiet(&attacker.step(legacy_tick(ATTACK_START))));
    // Its answer resolves the inner node's exchange, not an attack one.
    let reply = CyclonMsg::ShuffleResponse {
        descriptors: Vec::new(),
    };
    assert!(quiet(&attacker.step(Input::Reply(reply))));
    assert!(attacker.step(legacy_tick(ATTACK_START)).rpc.is_some());
}

#[test]
fn legacy_attacker_drops_unawaited_replies_and_serves_requests_in_flight() {
    let mut attacker = legacy_attacker();
    let unawaited = CyclonMsg::ShuffleResponse {
        descriptors: Vec::new(),
    };
    assert!(quiet(&attacker.step(Input::Reply(unawaited))));
    assert!(quiet(&attacker.step(Input::Timeout)));

    assert!(attacker.step(legacy_tick(ATTACK_START)).rpc.is_some());
    let fx = attacker.step(Input::Request {
        from: 3,
        msg: CyclonMsg::Shuffle {
            descriptors: Vec::new(),
        },
        cycle: ATTACK_START,
    });
    assert!(fx.rpc.is_none());
    let Some(CyclonMsg::ShuffleResponse { descriptors }) = fx.reply else {
        panic!("victims are answered while the attacker's own shuffle is out");
    };
    assert_eq!(descriptors.len(), 3, "s fabricated descriptors");
    // A response where a request belongs is refused.
    let fx = attacker.step(Input::Request {
        from: 3,
        msg: CyclonMsg::ShuffleResponse {
            descriptors: Vec::new(),
        },
        cycle: ATTACK_START,
    });
    assert!(quiet(&fx));
}
