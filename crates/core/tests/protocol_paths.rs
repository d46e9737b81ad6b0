//! Protocol-level security tests: crafted requests stepped directly into
//! the node as `Input::Request`, asserting each acceptance and refusal
//! rule of §IV-A (redemption certificates) and §V-A (non-swappable
//! restrictions).

use sc_core::{
    Addr, Input, LinkKind, Refusal, RequestBody, SecureConfig, SecureCyclonNode, SecureDescriptor,
    SecureMsg, Timestamp, ViolationProof,
};
use sc_crypto::{Keypair, Scheme};

const TPC: u64 = 1000;

fn kp(tag: u8) -> Keypair {
    Keypair::from_seed(Scheme::KeyedHash, [tag; 32])
}

fn cfg() -> SecureConfig {
    SecureConfig::default().with_view_len(8).with_swap_len(3)
}

/// A creator node ("Carol") plus helpers to craft exchanges against it.
struct Harness {
    carol: SecureCyclonNode,
    carol_kp: Keypair,
    cycle: u64,
}

impl Harness {
    fn new() -> Self {
        let carol_kp = kp(1);
        let mut carol = SecureCyclonNode::new(carol_kp.clone(), 1, cfg(), [9; 32], 0);
        // Give Carol a working view so she can answer exchanges.
        for t in 10u8..16 {
            let peer = kp(t);
            let d = SecureDescriptor::create(&peer, t as Addr, Timestamp(0))
                .transfer(&peer, carol_kp.public())
                .unwrap();
            assert!(carol.accept_bootstrap(d));
        }
        Harness {
            carol,
            carol_kp,
            cycle: 50,
        }
    }

    fn now(&self) -> u64 {
        self.cycle * TPC
    }

    /// A descriptor Carol created, owned by `holder` (one hop).
    fn carol_token(&self, holder: &Keypair, ts: u64) -> SecureDescriptor {
        SecureDescriptor::create(&self.carol_kp, 1, Timestamp(ts))
            .transfer(&self.carol_kp, holder.public())
            .unwrap()
    }

    /// Builds a well-formed request from `initiator` redeeming `token`.
    fn request(
        &self,
        initiator: &Keypair,
        token: &SecureDescriptor,
        kind: LinkKind,
    ) -> RequestBody {
        let redeemed = token.redeem(initiator, kind).expect("holder redeems");
        let fresh = SecureDescriptor::create(initiator, 99, Timestamp(self.now() + 7))
            .transfer(initiator, self.carol_kp.public())
            .expect("fresh handed to creator");
        RequestBody {
            redeemed,
            fresh,
            offered: Vec::new(),
            samples: Vec::new(),
            proofs: Vec::new(),
        }
    }

    /// Delivers a request to Carol; returns her reply, if any.
    fn deliver(&mut self, from: Addr, body: RequestBody) -> Option<SecureMsg> {
        serve(
            &mut self.carol,
            from,
            SecureMsg::Request(Box::new(body)),
            self.cycle,
        )
    }

    fn next_cycle(&mut self) {
        self.cycle += 1;
    }

    /// Requests Carol refused for `cause`.
    fn refused(&self, cause: Refusal) -> u64 {
        self.carol.causes()[cause]
    }
}

/// Steps one RPC into `node` as its server side; returns the reply.
fn serve(node: &mut SecureCyclonNode, from: Addr, msg: SecureMsg, cycle: u64) -> Option<SecureMsg> {
    let fx = node.step(Input::Request { from, msg, cycle });
    assert!(fx.rpc.is_none(), "serving a request never starts an RPC");
    let by_cause: u64 = node.causes().refused.iter().sum();
    assert_eq!(by_cause, node.stats().refused, "each refusal has one cause");
    fx.reply
}

fn accepted(reply: &Option<SecureMsg>) -> bool {
    matches!(reply, Some(SecureMsg::Accept(_)))
}

#[test]
fn valid_redemption_is_accepted() {
    let mut h = Harness::new();
    let bob = kp(2);
    let token = h.carol_token(&bob, 1000);
    let reply = h.deliver(2, h.request(&bob, &token, LinkKind::Redeem));
    assert!(accepted(&reply));
    if let Some(SecureMsg::Accept(body)) = reply {
        assert_eq!(body.transfers.len(), 1, "tit-for-tat: one transfer first");
        assert!(!body.samples.is_empty(), "samples of the rest of the view");
    }
}

#[test]
fn foreign_certificate_is_refused() {
    // A descriptor created by someone else is not a certificate for Carol.
    let mut h = Harness::new();
    let bob = kp(2);
    let mallory = kp(3);
    let foreign = SecureDescriptor::create(&mallory, 3, Timestamp(1000))
        .transfer(&mallory, bob.public())
        .unwrap();
    let redeemed = foreign.redeem(&bob, LinkKind::Redeem).unwrap();
    let fresh = SecureDescriptor::create(&bob, 99, Timestamp(h.now() + 7))
        .transfer(&bob, h.carol_kp.public())
        .unwrap();
    let reply = h.deliver(
        2,
        RequestBody {
            redeemed,
            fresh,
            offered: vec![],
            samples: vec![],
            proofs: vec![],
        },
    );
    assert!(reply.is_none(), "wrong creator refused");
    assert_eq!(h.refused(Refusal::Certificate), 1);
}

#[test]
fn unredeemed_certificate_is_refused() {
    // Presenting an owned descriptor without the terminal redemption link.
    let mut h = Harness::new();
    let bob = kp(2);
    let token = h.carol_token(&bob, 1000);
    let fresh = SecureDescriptor::create(&bob, 99, Timestamp(h.now() + 7))
        .transfer(&bob, h.carol_kp.public())
        .unwrap();
    let reply = h.deliver(
        2,
        RequestBody {
            redeemed: token,
            fresh,
            offered: vec![],
            samples: vec![],
            proofs: vec![],
        },
    );
    assert!(reply.is_none());
    assert_eq!(h.refused(Refusal::NotRedeemed), 1);
}

#[test]
fn regular_replay_is_refused() {
    let mut h = Harness::new();
    let bob = kp(2);
    let token = h.carol_token(&bob, 1000);
    let body = h.request(&bob, &token, LinkKind::Redeem);
    assert!(accepted(&h.deliver(2, body.clone())));
    h.next_cycle();
    assert!(
        h.deliver(2, body).is_none(),
        "same certificate cannot be spent twice"
    );
    assert_eq!(h.refused(Refusal::Replayed), 1);
}

#[test]
fn regular_plus_ns_redemption_both_accepted() {
    // §V-A: the final owner redeems normally AND a past owner redeems a
    // retained non-swappable copy — the one sanctioned double-spend.
    let mut h = Harness::new();
    let bob = kp(2); // past owner, keeps the NS copy
    let dave = kp(3); // final owner
    let at_bob = h.carol_token(&bob, 1000);
    let at_dave = at_bob.transfer(&bob, dave.public()).unwrap();

    let reply = h.deliver(3, h.request(&dave, &at_dave, LinkKind::Redeem));
    assert!(
        accepted(&reply),
        "final owner's regular redemption accepted"
    );

    h.next_cycle();
    let reply = h.deliver(2, h.request(&bob, &at_bob, LinkKind::RedeemNonSwappable));
    assert!(
        accepted(&reply),
        "past owner's single NS redemption accepted"
    );
}

#[test]
fn ns_rule_1_one_ns_redemption_per_descriptor() {
    // A gang passes one descriptor around so several members hold NS
    // copies (the §V-A abuse); only the first NS redemption is accepted.
    let mut h = Harness::new();
    let b1 = kp(2);
    let b2 = kp(3);
    let at_b1 = h.carol_token(&b1, 1000);
    let at_b2 = at_b1.transfer(&b1, b2.public()).unwrap();

    let reply = h.deliver(2, h.request(&b1, &at_b1, LinkKind::RedeemNonSwappable));
    assert!(accepted(&reply), "first NS redemption accepted");

    h.next_cycle();
    let reply = h.deliver(3, h.request(&b2, &at_b2, LinkKind::RedeemNonSwappable));
    assert!(
        reply.is_none(),
        "second NS redemption of the same id refused"
    );
    assert_eq!(h.refused(Refusal::NsReplayed), 1);
}

#[test]
fn ns_rule_2_one_ns_redemption_per_cycle() {
    // Two *different* descriptors NS-redeemed within one cycle: the
    // second is refused; next cycle it is welcome.
    let mut h = Harness::new();
    let b1 = kp(2);
    let b2 = kp(3);
    let t1 = h.carol_token(&b1, 1000);
    let t2 = h.carol_token(&b2, 2000);

    assert!(accepted(
        &h.deliver(2, h.request(&b1, &t1, LinkKind::RedeemNonSwappable))
    ));
    let again = h.request(&b2, &t2, LinkKind::RedeemNonSwappable);
    assert!(
        h.deliver(3, again.clone()).is_none(),
        "second NS redemption in the same cycle refused"
    );
    assert_eq!(h.refused(Refusal::NsBudget), 1);
    h.next_cycle();
    assert!(
        accepted(&h.deliver(3, again)),
        "accepted in the following cycle"
    );
}

#[test]
fn ns_rule_3_swap_cap_limits_ns_exchanges() {
    // With ns_swap_cap = 1, an NS-initiated exchange trades exactly one
    // descriptor: no tit-for-tat session is opened for more.
    let carol_kp = kp(1);
    let mut cfg = cfg();
    cfg.ns_swap_cap = Some(1);
    let mut carol = SecureCyclonNode::new(carol_kp.clone(), 1, cfg, [9; 32], 0);
    for t in 10u8..16 {
        let peer = kp(t);
        let d = SecureDescriptor::create(&peer, t as Addr, Timestamp(0))
            .transfer(&peer, carol_kp.public())
            .unwrap();
        carol.accept_bootstrap(d);
    }
    let bob = kp(2);
    let token = SecureDescriptor::create(&carol_kp, 1, Timestamp(1000))
        .transfer(&carol_kp, bob.public())
        .unwrap();
    let redeemed = token.redeem(&bob, LinkKind::RedeemNonSwappable).unwrap();
    let fresh = SecureDescriptor::create(&bob, 99, Timestamp(50 * TPC + 7))
        .transfer(&bob, carol_kp.public())
        .unwrap();
    let body = RequestBody {
        redeemed,
        fresh,
        offered: vec![],
        samples: vec![],
        proofs: vec![],
    };
    let reply = serve(&mut carol, 2, SecureMsg::Request(Box::new(body)), 50);
    assert!(accepted(&reply));

    // A follow-up round must be rejected: the cap closed the session.
    let next = SecureDescriptor::create(&kp(20), 20, Timestamp(3000))
        .transfer(&kp(20), bob.public())
        .unwrap()
        .transfer(&bob, carol_kp.public())
        .unwrap();
    let round = SecureMsg::Round(Box::new(sc_core::RoundBody { transfer: next }));
    let round_reply = serve(&mut carol, 2, round, 50);
    assert!(round_reply.is_none(), "no session beyond the NS cap");
}

#[test]
fn stale_fresh_descriptor_is_refused() {
    // Fresh descriptor with a timestamp far outside the skew window.
    let mut h = Harness::new();
    let bob = kp(2);
    let token = h.carol_token(&bob, 1000);
    let redeemed = token.redeem(&bob, LinkKind::Redeem).unwrap();
    let stale_fresh = SecureDescriptor::create(&bob, 99, Timestamp(5 * TPC))
        .transfer(&bob, h.carol_kp.public())
        .unwrap();
    let reply = h.deliver(
        2,
        RequestBody {
            redeemed,
            fresh: stale_fresh,
            offered: vec![],
            samples: vec![],
            proofs: vec![],
        },
    );
    assert!(
        reply.is_none(),
        "cycle-50 exchange with a cycle-5 fresh refused"
    );
    assert_eq!(h.refused(Refusal::Fresh), 1);
}

#[test]
fn fresh_from_third_party_is_refused() {
    // The fresh descriptor must be created by the redeemer itself.
    let mut h = Harness::new();
    let bob = kp(2);
    let eve = kp(4);
    let token = h.carol_token(&bob, 1000);
    let redeemed = token.redeem(&bob, LinkKind::Redeem).unwrap();
    let eve_fresh = SecureDescriptor::create(&eve, 99, Timestamp(h.now() + 7))
        .transfer(&eve, h.carol_kp.public())
        .unwrap();
    let reply = h.deliver(
        2,
        RequestBody {
            redeemed,
            fresh: eve_fresh,
            offered: vec![],
            samples: vec![],
            proofs: vec![],
        },
    );
    assert!(reply.is_none());
    assert_eq!(h.refused(Refusal::Fresh), 1);
}

#[test]
fn round_without_session_is_ignored() {
    let mut h = Harness::new();
    let bob = kp(2);
    let d = h.carol_token(&bob, 1000);
    let transfer = d; // owned by bob, handed to carol? craft a transfer to carol
    let to_carol = transfer.transfer(&bob, h.carol_kp.public()).unwrap();
    let round = SecureMsg::Round(Box::new(sc_core::RoundBody { transfer: to_carol }));
    let reply = serve(&mut h.carol, 2, round, 50);
    assert!(reply.is_none(), "rounds require an open exchange");
}

#[test]
fn piggybacked_proof_blacklists_the_requester() {
    // Bob commits a frequency violation elsewhere; the proof arrives
    // piggybacked on Bob's own request. Carol must refuse him.
    let mut h = Harness::new();
    let bob = kp(2);
    let d1 = SecureDescriptor::create(&bob, 2, Timestamp(7000));
    let d2 = SecureDescriptor::create(&bob, 2, Timestamp(7300));
    let proof = ViolationProof::frequency(d1, d2, TPC).unwrap();

    let token = h.carol_token(&bob, 1000);
    let mut body = h.request(&bob, &token, LinkKind::Redeem);
    body.proofs = vec![proof];
    let reply = h.deliver(2, body);
    assert!(reply.is_none(), "self-incriminating request refused");
    assert_eq!(h.refused(Refusal::Blacklisted), 1);
    assert!(h.carol.blacklist().contains(&bob.public()));
}

#[test]
fn blacklisted_requester_stays_refused() {
    let mut h = Harness::new();
    let bob = kp(2);
    let d1 = SecureDescriptor::create(&bob, 2, Timestamp(7000));
    let d2 = SecureDescriptor::create(&bob, 2, Timestamp(7300));
    let proof = ViolationProof::frequency(d1, d2, TPC).unwrap();
    // The proof reaches Carol as a peer's flood.
    h.carol.step(Input::Oneway {
        from: 3,
        msg: SecureMsg::Proof(proof),
        cycle: h.cycle,
    });

    let token = h.carol_token(&bob, 1000);
    let reply = h.deliver(2, h.request(&bob, &token, LinkKind::Redeem));
    assert!(reply.is_none());
    h.next_cycle();
    let token2 = h.carol_token(&bob, 2000);
    let reply = h.deliver(2, h.request(&bob, &token2, LinkKind::Redeem));
    assert!(reply.is_none(), "eviction is permanent");
    assert_eq!(h.refused(Refusal::Blacklisted), 2);
}

#[test]
fn a_sponsorship_respects_the_frequency_budget() {
    let mut h = Harness::new();
    let joiner = kp(7).public();
    let other = kp(8).public();
    let d1 = h.carol.sponsor(joiner, h.cycle);
    assert!(d1.is_some());
    let d1 = d1.unwrap().descriptor;
    assert_eq!(d1.owner(), joiner);
    d1.verify().unwrap();
    assert!(
        h.carol.sponsor(other, h.cycle).is_none(),
        "one creation per cycle, spent"
    );
    h.next_cycle();
    assert!(h.carol.sponsor(other, h.cycle).is_some());
}
