//! Unit tests of the node's private mechanics. Whole-network behaviour
//! lives with the simulator driver (`crates/testkit/tests/honest_network.rs`);
//! the step machine's reachable states in `crates/core/tests/step_machine.rs`.

use super::*;
use crate::msg::{JoinGrantBody, RequestBody};
use crate::proof::ViolationProof;
use crate::storage::PersistentState;
use crate::time::Timestamp;
use sc_crypto::Scheme;
use std::collections::HashMap;

fn keypairs(n: usize) -> Vec<Keypair> {
    (0..n)
        .map(|i| {
            let mut seed = [0u8; 32];
            seed[..8].copy_from_slice(&(i as u64).to_le_bytes());
            Keypair::from_seed(Scheme::KeyedHash, seed)
        })
        .collect()
}

fn small_cfg() -> SecureConfig {
    SecureConfig::default().with_view_len(8).with_swap_len(3)
}

fn digest(i: u64) -> Digest {
    sc_crypto::sha256(&i.to_be_bytes())
}

#[test]
fn housekeeping_expires_exactly_what_a_full_scan_would() {
    // The ledger must agree with `retain` over a digest → cycle map at
    // every cycle, including states spent again at a later cycle (the
    // younger record keeps them) and records recovered out of order
    // after a restart.
    let cfg = small_cfg().validated();
    let retention = SAMPLE_RETENTION_CYCLES;
    let mut node = SecureCyclonNode::new(keypairs(1).remove(0), 0, cfg, [7u8; 32], 0);
    node.restore(PersistentState {
        spent: vec![(digest(900), 3), (digest(901), 0), (digest(902), 2)],
        ..Default::default()
    });
    let mut expected: HashMap<Digest, u64> =
        [(digest(900), 3), (digest(901), 0), (digest(902), 2)].into();
    let mut ever: Vec<Digest> = expected.keys().copied().collect();
    for cycle in 4..4 + 3 * retention {
        // Two new states a cycle, and the one from five cycles ago
        // is spent again.
        for i in [2 * cycle, 2 * cycle + 1, 2 * cycle.saturating_sub(5)] {
            node.note_spent(digest(i), cycle);
            expected.insert(digest(i), cycle);
            ever.push(digest(i));
        }
        node.housekeeping(cycle);
        let horizon = cycle.saturating_sub(retention);
        expected.retain(|_, c| *c >= horizon);
        for d in &ever {
            assert_eq!(
                node.spent.contains(d),
                expected.contains_key(d),
                "cycle {cycle}"
            );
        }
        let held: HashMap<Digest, u64> = node.spent.iter().map(|(c, d)| (*d, c)).collect();
        assert_eq!(held, expected, "cycle {cycle}: youngest record per state");
        assert!(
            node.spent.len() <= 3 * (retention as usize + 1),
            "the ledger is bounded by the window"
        );
    }
}

#[test]
fn late_resolving_exchange_only_delays_expiry() {
    // On the socket driver an exchange begun at cycle c may resolve after
    // a `Request` of cycle c+1 was served, so a record stamped c lands
    // behind one stamped c+1. It must outlive its horizon by exactly that
    // overrun: dropped with the younger record, not before its own
    // horizon and not never.
    let cfg = small_cfg().validated();
    let retention = SAMPLE_RETENTION_CYCLES;
    let mut node = SecureCyclonNode::new(keypairs(1).remove(0), 0, cfg, [7u8; 32], 0);
    let (served, late) = (digest(1), digest(2));
    node.note_spent(served, 11);
    node.note_spent(late, 10);

    node.housekeeping(10 + retention);
    assert!(node.spent.contains(&late), "not before its horizon");
    node.housekeeping(11 + retention);
    assert!(
        node.spent.contains(&late),
        "one cycle late: it waits behind the record of cycle 11"
    );
    node.housekeeping(12 + retention);
    assert!(!node.spent.contains(&late) && !node.spent.contains(&served));
    assert_eq!(node.spent.len(), 0);
}

#[test]
fn respent_state_is_refused_but_legitimate_return_is_not() {
    // With deterministic signatures an adversary can re-deliver the
    // byte-identical state a victim already continued; a second
    // innocent signature over it would be a valid cloning proof
    // *against the victim*. Intake must drop the replay — while still
    // accepting the same descriptor when it legitimately returns via
    // a longer chain.
    let kps = keypairs(3);
    let (creator, holder, next) = (&kps[0], &kps[1], &kps[2]);
    let mut node = SecureCyclonNode::new(holder.clone(), 1, small_cfg(), [7u8; 32], 0);

    let handed = SecureDescriptor::create(creator, 0, Timestamp(0))
        .transfer(creator, holder.public())
        .unwrap();
    node.accept_transfer(handed.clone(), creator.public(), 0);
    assert_eq!(node.view.len(), 1, "first intake accepted");

    // Spend it: sign a transfer onward, as an exchange would.
    let pre = node.view.remove_oldest().unwrap().desc;
    let onward = node.hand_over(&pre, next.public(), 0).unwrap();

    // A byte-identical replay of the spent state is refused.
    let rejected_before = node.stats().transfers_rejected;
    node.accept_transfer(handed, creator.public(), 1);
    assert_eq!(node.stats().transfers_rejected, rejected_before + 1);
    assert_eq!(node.causes[Rejection::Spent], 1);
    assert_eq!(node.view.len(), 0, "replay must not re-enter the view");

    // The descriptor returning home through the next owner is legal:
    // its extra links hash to a different state.
    let returned = onward.transfer(next, holder.public()).unwrap();
    node.accept_transfer(returned, next.public(), 2);
    assert_eq!(node.view.len(), 1, "legitimate return accepted");
}

#[test]
fn samples_processed_counts_each_descriptor_once() {
    let kps = keypairs(3);
    let (a, b, c) = (kps[0].clone(), kps[1].clone(), kps[2].clone());
    let cfg = small_cfg().validated();
    let mut node = SecureCyclonNode::new(a.clone(), 0, cfg, [9u8; 32], 0);
    // B holds a descriptor created by A and redeems it back to A.
    let redeemed = SecureDescriptor::create(&a, 0, Timestamp(0))
        .transfer(&a, b.public())
        .unwrap()
        .redeem(&b, LinkKind::Redeem)
        .unwrap();
    let now = cfg.ticks_per_cycle;
    let fresh = SecureDescriptor::create(&b, 1, Timestamp(now))
        .transfer(&b, a.public())
        .unwrap();
    let sample = SecureDescriptor::create(&c, 2, Timestamp(500));
    let body = RequestBody {
        redeemed: redeemed.clone(),
        fresh,
        offered: Vec::new(),
        // The initiator's sample set repeats the redemption
        // certificate, exactly as the real initiator's
        // `collect_samples` does (the redeemed copy enters its
        // redemption cache before samples are collected).
        samples: vec![redeemed, sample],
        proofs: Vec::new(),
    };
    let reply = node.handle_request(7, body, 1);
    assert!(reply.is_some(), "exchange accepted");
    assert_eq!(
        node.stats().samples_processed,
        3,
        "redeemed + fresh + one distinct sample; the duplicate must not double-count"
    );
}

#[test]
fn forged_sample_cannot_preverify_a_transfer() {
    use crate::descriptor::{ChainLink, Genesis};
    use sc_crypto::Signature;
    let kps = keypairs(3);
    let (a, c) = (kps[0].clone(), kps[2].clone());
    let mut node = SecureCyclonNode::new(a.clone(), 0, small_cfg(), [9u8; 32], 0);
    // A forged descriptor "created by" c and "owned by" a, with
    // garbage signatures throughout.
    let genesis = Genesis {
        creator: c.public(),
        addr: 2,
        created_at: Timestamp(0),
        sig: Signature::from_bytes([0u8; 64]).unwrap(),
    };
    let link = ChainLink {
        to: a.public(),
        kind: LinkKind::Transfer,
        sig: Signature::from_bytes([0u8; 64]).unwrap(),
    };
    let forged = SecureDescriptor::from_parts(genesis, vec![link]);
    // First shown as a sample: cached lazily, without verification.
    assert_eq!(node.absorb(&forged, None, 0), Ok(()));
    // Then replayed byte-identically as an ownership transfer: the
    // intake gate must still verify — and reject — it. (The old
    // byte-identical-sample shortcut skipped verification here.)
    node.accept_transfer(forged, c.public(), 0);
    assert_eq!(node.stats().invalid_descriptors, 1);
    assert_eq!(node.causes()[Discard::Unverified], 1);
    assert_eq!(node.stats().transfers_received, 0);
    assert_eq!(node.view().len(), 0, "forgery never reaches the view");
    // The genuine descriptor of the forgery's identity conflicts with the
    // cached forgery: no violation is provable, one side is forged.
    let genuine = SecureDescriptor::create(&c, 2, Timestamp(0));
    assert_eq!(node.absorb(&genuine, None, 0), Err(Discard::Forged));
    assert_eq!(node.stats().invalid_descriptors, 2);
}

#[test]
fn restart_cannot_reopen_a_spent_emission_budget() {
    // THE crash-restart frequency bugfix: an honest node killed after
    // its descriptor left but before the cycle ended must not re-mint
    // on restart — two mints in one period are a valid §IV-B
    // frequency proof *against itself*.
    use crate::storage::MemoryBackend;
    let kps = keypairs(3);
    let cfg = small_cfg().validated();
    let mut node = SecureCyclonNode::with_backend(
        kps[0].clone(),
        0,
        cfg,
        [1u8; 32],
        0,
        Box::new(MemoryBackend::new()),
    )
    .unwrap();
    let grant = node.sponsor(kps[1].public(), 5);
    assert!(grant.is_some(), "budget available before the crash");
    assert!(!node.may_emit(5));

    // kill -9: the node object dies, only the "disk" survives.
    let mut revived = node.restarted([2u8; 32]).unwrap();
    assert_eq!(revived.last_emission(), Some(5), "marker recovered");
    assert!(!revived.may_emit(5), "budget stays spent across restart");
    assert!(
        revived.sponsor(kps[2].public(), 5).is_none(),
        "a second emission in cycle 5 would be self-incriminating"
    );
    assert!(revived.may_emit(6), "next cycle's budget is untouched");

    // An amnesiac restart (no backend) is exactly the old bug: it
    // would have emitted again.
    let amnesiac = SecureCyclonNode::new(kps[0].clone(), 0, cfg, [3u8; 32], 0);
    assert!(
        amnesiac.may_emit(5),
        "without durable state the bug is live"
    );
    let lost = amnesiac.restarted([4u8; 32]).unwrap_err();
    assert_eq!(
        lost.kind(),
        std::io::ErrorKind::NotFound,
        "nothing to restart from"
    );
}

#[test]
fn restart_restores_view_blacklist_and_spent_guard() {
    use crate::storage::MemoryBackend;
    let kps = keypairs(4);
    let (me, peer, next) = (&kps[0], &kps[1], &kps[2]);
    let cfg = small_cfg().validated();
    let mut node = SecureCyclonNode::with_backend(
        me.clone(),
        0,
        cfg,
        [1u8; 32],
        0,
        Box::new(MemoryBackend::new()),
    )
    .unwrap();

    // A held descriptor, a blacklisted culprit, and a spent state.
    let held = SecureDescriptor::create(peer, 1, Timestamp(0))
        .transfer(peer, me.public())
        .unwrap();
    node.accept_transfer(held, peer.public(), 0);
    assert_eq!(node.view().len(), 1);

    let culprit_kp = &kps[3];
    let d1 = SecureDescriptor::create(culprit_kp, 3, Timestamp(0));
    let d2 = SecureDescriptor::create(culprit_kp, 3, Timestamp(cfg.ticks_per_cycle / 2));
    let proof = ViolationProof::frequency(d1, d2, cfg.ticks_per_cycle).unwrap();
    let culprit = proof.culprit();
    assert!(node.accept_remote_proof(proof, 2));

    let spent = SecureDescriptor::create(next, 2, Timestamp(10))
        .transfer(next, me.public())
        .unwrap();
    node.note_spent(spent.state_digest(), 2);
    node.checkpoint(2);

    let disk = node.backend.take().unwrap();
    let mut revived =
        SecureCyclonNode::with_backend(me.clone(), 0, cfg, [2u8; 32], 0, disk).unwrap();
    assert_eq!(revived.view().len(), 1, "held descriptor recovered");
    assert!(revived.blacklist().contains(&culprit), "blacklist survived");
    // Re-delivery of the already-signed-away state is refused: signing
    // it a second time would be self-made §IV-B cloning evidence.
    let rejected_before = revived.stats().transfers_rejected;
    revived.accept_transfer(spent, next.public(), 3);
    assert_eq!(
        revived.stats().transfers_rejected,
        rejected_before + 1,
        "spent-state guard survived the restart"
    );
    assert_eq!(revived.causes()[Rejection::Spent], 1);
}

#[test]
fn kill_between_a_round_and_its_reply_cannot_resurrect_the_transfer() {
    // A tit-for-tat round signs a view descriptor over to the partner and
    // waits one round trip for the answer. `kill -9` inside that wait
    // used to leave no trace of the signature: the spent record was
    // written when the answer (or the timeout) came, the last checkpoint
    // still listed the descriptor, and the restarted node signed it over
    // a second time — a §IV-B cloning proof against an honest node (the
    // live tier's "honest member on a blacklist", about one restart in a
    // hundred under gossip). The record must be durable before the round
    // leaves.
    use crate::storage::MemoryBackend;
    let kps = keypairs(4);
    let (me, partner) = (&kps[0], &kps[1]);
    let cfg = small_cfg().validated();
    let tpc = cfg.ticks_per_cycle;
    let mut node = SecureCyclonNode::with_backend(
        me.clone(),
        10,
        cfg,
        [1u8; 32],
        0,
        Box::new(MemoryBackend::new()),
    )
    .unwrap();
    for (i, kp) in kps.iter().enumerate().skip(1) {
        let d = SecureDescriptor::create(kp, 10 + i as Addr, Timestamp(i as u64))
            .transfer(kp, me.public())
            .unwrap();
        assert!(node.accept_bootstrap(d));
    }
    // A turn with nobody answering leaves a checkpoint that lists the
    // two descriptors still held.
    node.step(Input::Tick { cycle: 1 });
    node.step(Input::Timeout);
    assert_eq!(node.view().len(), 2);

    // Next turn: the request is accepted, so a round goes out.
    let fx = node.step(Input::Tick { cycle: 2 });
    let Some((_, SecureMsg::Request(_))) = fx.rpc else {
        panic!("the turn did not open an exchange");
    };
    let paid = SecureDescriptor::create(partner, 11, Timestamp(2 * tpc + 1))
        .transfer(partner, me.public())
        .unwrap();
    let fx = node.step(Input::Reply(SecureMsg::Accept(Box::new(
        crate::msg::AcceptBody {
            transfers: vec![paid],
            samples: Vec::new(),
            proofs: Vec::new(),
        },
    ))));
    let Some((_, SecureMsg::Round(round))) = fx.rpc else {
        panic!("no tit-for-tat round followed the acceptance");
    };
    let shipped = round.transfer.id();

    // kill -9 with the round on the wire.
    let disk = node.backend.take().unwrap();
    let revived = SecureCyclonNode::with_backend(me.clone(), 10, cfg, [2u8; 32], 0, disk).unwrap();
    assert!(
        revived.view().iter().all(|e| e.desc.id() != shipped),
        "the restarted node still owns a descriptor it signed away"
    );
}

#[test]
fn restart_with_a_wholly_spent_checkpoint_still_pings_for_rejoin() {
    // A checkpoint is as old as the node's last turn. Every passive
    // exchange after it signs a checkpointed descriptor away (a spent
    // record in the log) and takes in one the log never hears of, so a
    // `kill -9` late in the cycle can recover an identity, an emission
    // marker and a redemption cache — and no view at all. Such a node
    // *was* connected: §V-A's rejoin ping is its only way back in.
    use crate::storage::MemoryBackend;
    let kps = keypairs(3);
    let (me, partner, other) = (&kps[0], &kps[1], &kps[2]);
    let cfg = small_cfg().validated();
    let tpc = cfg.ticks_per_cycle;
    let mut node = SecureCyclonNode::with_backend(
        me.clone(),
        10,
        cfg,
        [1u8; 32],
        0,
        Box::new(MemoryBackend::new()),
    )
    .unwrap();
    for (kp, addr) in [(partner, 11), (other, 12)] {
        let d = SecureDescriptor::create(kp, addr, Timestamp(addr as u64))
            .transfer(kp, me.public())
            .unwrap();
        assert!(node.accept_bootstrap(d));
    }

    // The turn: redeems the older descriptor at its creator (which never
    // answers) and checkpoints a view of one.
    let fx = node.step(Input::Tick { cycle: 1 });
    let Some((11, SecureMsg::Request(sent))) = fx.rpc else {
        panic!("the turn did not open an exchange with the partner");
    };
    node.step(Input::Timeout);
    assert_eq!(node.view().len(), 1);
    assert_eq!(node.redemption_count(), 1);

    // A passive exchange later in the cycle: the partner redeems the
    // descriptor that request handed it and is paid with the node's last
    // checkpointed descriptor.
    let redeemed = sent.fresh.redeem(partner, LinkKind::Redeem).unwrap();
    let fresh = SecureDescriptor::create(partner, 11, Timestamp(tpc + tpc / 2))
        .transfer(partner, me.public())
        .unwrap();
    let mut fx = node.step(Input::Request {
        from: 11,
        msg: SecureMsg::Request(Box::new(RequestBody {
            redeemed,
            fresh,
            offered: Vec::new(),
            samples: Vec::new(),
            proofs: Vec::new(),
        })),
        cycle: 1,
    });
    let Some(SecureMsg::Accept(accept)) = fx.reply.take() else {
        panic!("the passive exchange was refused");
    };
    assert_eq!(accept.transfers.len(), 1);
    assert_eq!(accept.transfers[0].creator(), other.public());
    assert_eq!(node.view().len(), 1, "alive, it holds what it was paid");

    // kill -9.
    let disk = node.backend.take().unwrap();
    let mut revived =
        SecureCyclonNode::with_backend(me.clone(), 10, cfg, [2u8; 32], 0, disk).unwrap();
    assert!(
        revived.view().is_empty(),
        "every checkpointed entry is spent"
    );
    assert_eq!(revived.last_emission(), Some(1));
    assert_eq!(revived.redemption_count(), 1);

    let fx = revived.step(Input::Tick { cycle: 2 });
    assert!(fx.rpc.is_none(), "nothing to redeem");
    let pinged: Vec<Addr> = fx
        .sends
        .iter()
        .filter(|(_, m)| matches!(m, SecureMsg::JoinPing(_)))
        .map(|(to, _)| *to)
        .collect();
    assert_eq!(
        pinged,
        vec![11],
        "pings the creator in its redemption cache"
    );
    assert_eq!(revived.stats().rejoin_pings, 1);
}

#[test]
fn a_joiner_killed_before_its_first_checkpoint_boots_as_new() {
    // A grant's proofs are logged the moment they are imported; its
    // descriptor reaches the log only with the first checkpoint. A
    // joiner killed in between recovers a log of proofs alone: it never
    // signed anything away, so it must come back unjoined — and ask its
    // sponsor again — not `joined()` with an empty view and nobody to
    // ping.
    use crate::storage::MemoryBackend;
    let kps = keypairs(3);
    let (joiner, sponsor, culprit) = (&kps[0], &kps[1], &kps[2]);
    let cfg = small_cfg().validated();
    let tpc = cfg.ticks_per_cycle;
    let mut node = SecureCyclonNode::with_backend(
        joiner.clone(),
        10,
        cfg,
        [1u8; 32],
        0,
        Box::new(MemoryBackend::new()),
    )
    .unwrap();
    assert!(!node.joined());
    let proof = ViolationProof::frequency(
        SecureDescriptor::create(culprit, 12, Timestamp(0)),
        SecureDescriptor::create(culprit, 12, Timestamp(tpc / 2)),
        tpc,
    )
    .unwrap();
    let descriptor = SecureDescriptor::create(sponsor, 11, Timestamp(tpc))
        .transfer(sponsor, joiner.public())
        .unwrap();
    node.step(Input::Oneway {
        from: 11,
        msg: SecureMsg::JoinGrant(Box::new(crate::msg::JoinGrantBody {
            descriptor,
            proofs: vec![proof],
        })),
        cycle: 1,
    });
    assert!(node.joined() && node.blacklist().contains(&culprit.public()));

    // kill -9 before the joiner's first turn.
    let disk = node.backend.take().unwrap();
    let revived =
        SecureCyclonNode::with_backend(joiner.clone(), 10, cfg, [2u8; 32], 0, disk).unwrap();
    assert!(
        revived.blacklist().contains(&culprit.public()),
        "the logged proof is recovered"
    );
    assert!(revived.view().is_empty());
    assert!(
        !revived.joined(),
        "a log of proofs alone is no membership: the daemon must ping its sponsor again"
    );
}

#[test]
fn a_node_cut_off_past_the_window_still_pings_for_rejoin() {
    // A partition longer than the sample window expires every sample and
    // every redeemed copy the node holds: the addresses §V-A's rejoin ping
    // draws its sponsors from. The node must still ask someone — its
    // latest exchange partners — or it stays out after the heal.
    let kps = keypairs(3);
    let (me, a, b) = (&kps[0], &kps[1], &kps[2]);
    let cfg = small_cfg().validated();
    let mut node = SecureCyclonNode::new(me.clone(), 10, cfg, [1u8; 32], 0);
    for (kp, addr) in [(a, 11), (b, 12)] {
        let d = SecureDescriptor::create(kp, addr, Timestamp(addr as u64))
            .transfer(kp, me.public())
            .unwrap();
        assert!(node.accept_bootstrap(d));
    }
    let horizon = 3 * SAMPLE_RETENTION_CYCLES;
    let mut pings = Vec::new();
    for cycle in 1..=horizon {
        // Nobody answers: every exchange times out.
        let mut fx = node.step(Input::Tick { cycle });
        if fx.rpc.is_some() {
            fx = node.step(Input::Timeout);
        }
        for (to, msg) in fx.sends {
            if matches!(msg, SecureMsg::JoinPing(_)) {
                pings.push((cycle, to));
            }
        }
    }
    assert_eq!(node.sample_count(), 0, "every sample has expired");
    assert_eq!(
        node.redemption_count(),
        0,
        "every redeemed copy has expired"
    );
    assert!(
        pings.iter().all(|&(_, to)| to == 11 || to == 12),
        "{pings:?}"
    );
    let late = pings
        .iter()
        .filter(|&&(cycle, _)| cycle > horizon - SAMPLE_RETENTION_CYCLES)
        .count();
    assert!(
        late > 0,
        "no rejoin ping in the last window; the last left at cycle {:?}",
        pings.last().map(|&(cycle, _)| cycle)
    );
}

#[test]
fn a_join_ping_is_granted_every_proof_however_old() {
    // §IV-C: a joiner learns the culprits already proven. The grant used
    // to carry only the proofs of the last `proof_piggyback_cycles` — a
    // gossip exchange's piggyback window — so a node sponsored later than
    // that never heard of a culprit convicted before it arrived.
    let kps = keypairs(3);
    let (me, culprit, joiner) = (&kps[0], &kps[1], &kps[2]);
    let cfg = small_cfg().validated();
    let tpc = cfg.ticks_per_cycle;
    let mut node = SecureCyclonNode::new(me.clone(), 0, cfg, [4u8; 32], 0);
    let proof = ViolationProof::frequency(
        SecureDescriptor::create(culprit, 1, Timestamp(0)),
        SecureDescriptor::create(culprit, 1, Timestamp(tpc / 2)),
        tpc,
    )
    .unwrap();
    assert!(node.accept_remote_proof(proof, 2));
    let cycle = 2 + cfg.proof_piggyback_cycles + 1;
    assert!(node.recent_proofs(cycle).is_empty(), "past the window");

    let fx = node.step(Input::Oneway {
        from: 2,
        msg: SecureMsg::JoinPing(Box::new(crate::msg::JoinPingBody {
            joiner: joiner.public(),
        })),
        cycle,
    });
    let [(2, SecureMsg::JoinGrant(grant))] = &fx.sends[..] else {
        panic!("the ping was not granted: {:?}", fx.sends);
    };
    assert_eq!(grant.descriptor.owner(), joiner.public());
    let culprits: Vec<NodeId> = grant.proofs.iter().map(|p| p.culprit()).collect();
    assert_eq!(culprits, vec![culprit.public()]);
}

/// A node holding `kps[1..4]`'s descriptors, so that each turn begins
/// an exchange.
fn gossiping_node(kps: &[Keypair]) -> SecureCyclonNode {
    let mut node = SecureCyclonNode::new(kps[0].clone(), 0, small_cfg(), [7u8; 32], 0);
    for (i, kp) in kps[1..4].iter().enumerate() {
        let d = SecureDescriptor::create(kp, 1 + i as Addr, Timestamp(i as u64))
            .transfer(kp, kps[0].public())
            .unwrap();
        assert!(node.accept_bootstrap(d));
    }
    node
}

fn tick(node: &mut SecureCyclonNode, cycle: u64) -> Effects {
    node.step(Input::Tick { cycle })
}

/// `joiner`'s join ping, arriving from `from` during `cycle`.
fn join_ping(node: &mut SecureCyclonNode, from: Addr, joiner: NodeId, cycle: u64) -> Effects {
    node.step(Input::Oneway {
        from,
        msg: SecureMsg::JoinPing(Box::new(crate::msg::JoinPingBody { joiner })),
        cycle,
    })
}

/// The `(to, joiner)` of every grant among `fx`'s sends.
fn grants(fx: &Effects) -> Vec<(Addr, NodeId)> {
    let grant = |(to, msg): &(Addr, SecureMsg)| match msg {
        SecureMsg::JoinGrant(g) => Some((*to, g.descriptor.owner())),
        _ => None,
    };
    fx.sends.iter().filter_map(grant).collect()
}

#[test]
fn a_join_ping_after_the_turn_is_granted_at_the_next_turn() {
    // §V-A: a grant costs the sponsor its cycle's fresh-descriptor budget.
    // A ping that finds it spent waits for the next turn, which spends
    // that turn's budget on one grant instead of on an exchange.
    let kps = keypairs(8);
    let mut node = gossiping_node(&kps);
    assert!(
        tick(&mut node, 5).rpc.is_some(),
        "turn 5 begins an exchange"
    );
    node.step(Input::Timeout);
    let (a, b) = (kps[5].public(), kps[6].public());
    assert_eq!(grants(&join_ping(&mut node, 20, a, 5)), [], "budget spent");
    assert_eq!(grants(&join_ping(&mut node, 21, b, 5)), []);

    let initiated = node.stats().initiated;
    let fx = tick(&mut node, 6);
    assert_eq!(grants(&fx), [(20, a)], "one grant a turn, the first held");
    assert!(fx.rpc.is_none(), "no exchange starts in the granting turn");
    assert_eq!(node.stats().initiated, initiated);
    assert_eq!(node.last_emission(), Some(6));
    assert!(node.held_pings.is_empty(), "the other ping goes unanswered");
}

#[test]
fn a_grant_before_the_turn_is_minted_one_period_before_the_next_fresh_descriptor() {
    // §IV-B convicts a creator of any two descriptors minted less than a
    // period apart. A grant spends its cycle's budget, so the next mint
    // is the next turn's fresh descriptor — and both are stamped from the
    // cycle alone, however early in the cycle the ping arrived.
    let kps = keypairs(8);
    let mut node = gossiping_node(&kps);
    let tpc = node.config().ticks_per_cycle;
    let fx = join_ping(&mut node, 20, kps[5].public(), 5);
    let [(20, SecureMsg::JoinGrant(grant))] = &fx.sends[..] else {
        panic!("the ping was not granted: {:?}", fx.sends);
    };
    assert!(tick(&mut node, 5).rpc.is_none(), "the grant spent turn 5");
    let Some((_, SecureMsg::Request(request))) = tick(&mut node, 6).rpc else {
        panic!("turn 6 did not open an exchange");
    };
    let (granted, fresh) = (grant.descriptor.created_at(), request.fresh.created_at());
    assert_eq!(granted, Timestamp(5 * tpc));
    assert_eq!(
        fresh,
        Timestamp(granted.0 + tpc),
        "exactly one period apart"
    );
    let proof = ViolationProof::frequency(grant.descriptor.clone(), request.fresh.clone(), tpc);
    assert!(proof.is_err(), "the honest sponsor is not provably guilty");
}

#[test]
fn held_join_pings_are_capped_one_a_key_and_never_a_culprits() {
    let kps = keypairs(16);
    let mut node = gossiping_node(&kps);
    let tpc = node.config().ticks_per_cycle;
    let culprit = &kps[4];
    let proof = ViolationProof::frequency(
        SecureDescriptor::create(culprit, 4, Timestamp(0)),
        SecureDescriptor::create(culprit, 4, Timestamp(tpc / 2)),
        tpc,
    )
    .unwrap();
    node.step(Input::Oneway {
        from: 9,
        msg: SecureMsg::Proof(proof),
        cycle: 5,
    });
    tick(&mut node, 5);
    node.step(Input::Timeout);

    join_ping(&mut node, 20, culprit.public(), 5);
    assert!(node.held_pings.is_empty(), "a convicted key takes no slot");
    for (i, kp) in kps[5..].iter().enumerate() {
        join_ping(&mut node, 20 + i as Addr, kp.public(), 5);
        join_ping(&mut node, 40 + i as Addr, kp.public(), 5);
    }
    let held: Vec<(Addr, NodeId)> = (0..8)
        .map(|i| (20 + i, kps[5 + i as usize].public()))
        .collect();
    assert_eq!(
        node.held_pings, held,
        "eight at most, the first ping of each key"
    );
}

#[test]
fn a_held_join_ping_waits_while_an_exchange_is_in_flight() {
    let kps = keypairs(8);
    let mut node = gossiping_node(&kps);
    let joiner = kps[5].public();
    assert!(tick(&mut node, 5).rpc.is_some());
    assert_eq!(grants(&join_ping(&mut node, 20, joiner, 5)), []);

    let fx = tick(&mut node, 6);
    assert!(
        fx.sends.is_empty() && fx.flood.is_none() && fx.rpc.is_none(),
        "turn 5 is still out"
    );
    assert_eq!(node.held_pings.len(), 1, "the ping waits with the turn");
    assert_eq!(
        grants(&node.step(Input::Timeout)),
        [],
        "a turn's tail grants nothing"
    );
    assert_eq!(grants(&tick(&mut node, 7)), [(20, joiner)]);
}

#[test]
fn a_flooded_proof_is_one_body_for_every_holder() {
    // §IV-C: a node that blacklists a culprit floods the proof to each of
    // its ℓ neighbours. The blacklist entry and the flood's one message
    // for all of them are handles on one body; a copy that crossed the
    // wire is another body, equal by value.
    let kps = keypairs(12);
    let (me, culprit) = (&kps[0], &kps[1]);
    let cfg = small_cfg().validated();
    let tpc = cfg.ticks_per_cycle;
    let mut node = SecureCyclonNode::new(me.clone(), 0, cfg, [6u8; 32], 0);
    for (i, kp) in kps[2..2 + cfg.view_len].iter().enumerate() {
        let d = SecureDescriptor::create(kp, 2 + i as Addr, Timestamp(i as u64))
            .transfer(kp, me.public())
            .unwrap();
        assert!(node.accept_bootstrap(d));
    }
    let proof = ViolationProof::frequency(
        SecureDescriptor::create(culprit, 1, Timestamp(0)),
        SecureDescriptor::create(culprit, 1, Timestamp(tpc / 2)),
        tpc,
    )
    .unwrap();
    let mut bytes = Vec::new();
    wire::encode_message(&SecureMsg::Proof(proof.clone()), &mut bytes);
    let Ok(SecureMsg::Proof(received)) = wire::decode_message(&bytes, tpc) else {
        panic!("a proof decodes");
    };
    assert!(received == proof && !received.ptr_eq(&proof));

    let fx = node.step(Input::Oneway {
        from: 1,
        msg: SecureMsg::Proof(received),
        cycle: 2,
    });
    let [stored] = node.blacklist().proofs() else {
        panic!("one culprit listed");
    };
    assert_eq!(stored.proof, proof);
    let flood = fx.flood.expect("the proof is flooded");
    assert_eq!(flood.to.len(), cfg.view_len, "every neighbour is named");
    let [SecureMsg::Proof(flooded)] = &flood.msgs[..] else {
        panic!("one message for all of them: {:?}", flood.msgs);
    };
    assert!(flooded.ptr_eq(&stored.proof));
    assert!(node.export_proofs()[0].ptr_eq(&stored.proof));
}

/// A frequency proof against `culprit`, who lives at `addr`.
fn frequency_proof(culprit: &Keypair, addr: Addr, tpc: u64) -> ViolationProof {
    ViolationProof::frequency(
        SecureDescriptor::create(culprit, addr, Timestamp(0)),
        SecureDescriptor::create(culprit, addr, Timestamp(tpc / 2)),
        tpc,
    )
    .unwrap()
}

#[test]
fn proofs_learned_in_one_step_leave_as_one_flood() {
    // A grant piggybacks three proofs. Two convict creators the node
    // holds in its view; the step purges them, takes the sponsorship, and
    // floods the three proofs, in the grant's order, to the view as it
    // then stands — metered as one copy of each proof per neighbour.
    let kps = keypairs(14);
    let me = &kps[0];
    let cfg = small_cfg().validated();
    let tpc = cfg.ticks_per_cycle;
    let mut node = SecureCyclonNode::new(me.clone(), 0, cfg, [5u8; 32], 0);
    for (i, kp) in kps[2..2 + cfg.view_len].iter().enumerate() {
        let d = SecureDescriptor::create(kp, 2 + i as Addr, Timestamp(i as u64))
            .transfer(kp, me.public())
            .unwrap();
        assert!(node.accept_bootstrap(d));
    }
    let proofs = vec![
        frequency_proof(&kps[3], 3, tpc),
        frequency_proof(&kps[13], 13, tpc),
        frequency_proof(&kps[6], 6, tpc),
    ];
    let sponsor = &kps[12];
    let descriptor = SecureDescriptor::create(sponsor, 12, Timestamp(tpc))
        .transfer(sponsor, me.public())
        .unwrap();
    let sent = node.stats().bytes_sent;
    let fx = node.step(Input::Oneway {
        from: 12,
        msg: SecureMsg::JoinGrant(Box::new(JoinGrantBody {
            descriptor,
            proofs: proofs.clone(),
        })),
        cycle: 2,
    });

    assert!(fx.rpc.is_none() && fx.reply.is_none() && fx.sends.is_empty());
    let flood = fx.flood.expect("the learned proofs are flooded");
    let view: Vec<Addr> = node.view().iter().map(|e| e.desc.addr()).collect();
    assert_eq!(flood.to, view, "the view after the purges");
    assert_eq!(view.len(), cfg.view_len - 2 + 1, "two purged, one granted");
    assert!(!view.contains(&3) && !view.contains(&6) && view.contains(&12));
    let flooded: Vec<&ViolationProof> = flood
        .msgs
        .iter()
        .map(|msg| match msg {
            SecureMsg::Proof(p) => p,
            other => panic!("a flood carries proofs only: {other:?}"),
        })
        .collect();
    assert_eq!(flooded, proofs.iter().collect::<Vec<_>>(), "learning order");
    let proof_bytes: u64 = flood
        .msgs
        .iter()
        .map(|msg| wire::message_paper_bytes(msg) as u64)
        .sum();
    assert_eq!(
        node.stats().bytes_sent - sent,
        view.len() as u64 * proof_bytes
    );
    assert_eq!(flood.sends().count(), 3 * view.len());
}

#[test]
fn a_node_with_an_empty_view_floods_nothing() {
    let kps = keypairs(4);
    let cfg = small_cfg().validated();
    let tpc = cfg.ticks_per_cycle;
    let mut node = SecureCyclonNode::new(kps[0].clone(), 0, cfg, [5u8; 32], 0);
    let fx = node.step(Input::Oneway {
        from: 9,
        msg: SecureMsg::Proof(frequency_proof(&kps[1], 1, tpc)),
        cycle: 2,
    });
    assert!(node.blacklist().contains(&kps[1].public()), "learned");
    assert!(fx.flood.is_none(), "nobody to flood it to");
    assert_eq!(node.stats().bytes_sent, 0);

    // The proof was not kept back for a later neighbour.
    let d = SecureDescriptor::create(&kps[2], 2, Timestamp(0))
        .transfer(&kps[2], kps[0].public())
        .unwrap();
    assert!(node.accept_bootstrap(d));
    let fx = node.step(Input::Oneway {
        from: 9,
        msg: SecureMsg::Proof(frequency_proof(&kps[3], 3, tpc)),
        cycle: 2,
    });
    let flood = fx.flood.expect("a neighbour now");
    assert_eq!(flood.to, [2]);
    assert_eq!(flood.msgs.len(), 1, "only the proof this step learned");
}

#[test]
fn forged_inputs_move_exactly_these_counters() {
    // One node, one stream of inputs, the four intake counters after
    // each: where verification sits relative to the structural gates
    // decides *which* counter a forgery lands in, so a reordered early
    // return shows here directly.
    use crate::msg::RoundBody;
    use sc_crypto::Signature;
    let kps = keypairs(8);
    let (me, peer) = (&kps[0], &kps[1]);
    let cfg = small_cfg().validated();
    let tpc = cfg.ticks_per_cycle;
    let mut node = SecureCyclonNode::new(me.clone(), 0, cfg, [5u8; 32], 0);
    // Something to trade away: five descriptors of third parties.
    for (i, kp) in kps[2..5].iter().chain(&kps[6..]).enumerate() {
        let d = SecureDescriptor::create(kp, 2 + i as Addr, Timestamp(i as u64))
            .transfer(kp, me.public())
            .unwrap();
        assert!(node.accept_bootstrap(d));
    }
    // `d` with the signature of its last link (or of its genesis, for an
    // unlinked one) flipped, reassembled as a wire decode would.
    let forge = |d: &SecureDescriptor, genesis: bool| {
        let flip = |sig: &Signature| {
            let mut bytes = sig.to_bytes();
            bytes[8] ^= 0x40;
            Signature::from_bytes(bytes).unwrap()
        };
        let (mut g, mut links) = (*d.genesis(), d.chain());
        if genesis {
            g.sig = flip(&g.sig);
        } else {
            let last = links.last_mut().unwrap();
            last.sig = flip(&last.sig);
        }
        SecureDescriptor::from_parts(g, links)
    };
    let certificate = SecureDescriptor::create(me, 0, Timestamp(0))
        .transfer(me, peer.public())
        .unwrap()
        .redeem(peer, LinkKind::Redeem)
        .unwrap();
    let fresh = SecureDescriptor::create(peer, 1, Timestamp(tpc))
        .transfer(peer, me.public())
        .unwrap();
    let request = |redeemed: &SecureDescriptor,
                   fresh: &SecureDescriptor,
                   samples: &[SecureDescriptor]| Input::Request {
        from: 1,
        msg: SecureMsg::Request(Box::new(RequestBody {
            redeemed: redeemed.clone(),
            fresh: fresh.clone(),
            offered: Vec::new(),
            samples: samples.to_vec(),
            proofs: Vec::new(),
        })),
        cycle: 1,
    };
    let round = |transfer: SecureDescriptor| Input::Request {
        from: 1,
        msg: SecureMsg::Round(Box::new(RoundBody { transfer })),
        cycle: 1,
    };
    // What the peer hands over in tit-for-tat rounds: a third party's
    // descriptor it owns, signed on to this node.
    let owned_by_peer = SecureDescriptor::create(&kps[5], 5, Timestamp(7))
        .transfer(&kps[5], peer.public())
        .unwrap();
    let handed = owned_by_peer.transfer(peer, me.public()).unwrap();
    let to_a_stranger = owned_by_peer.transfer(peer, kps[4].public()).unwrap();
    // A second certificate, and a second fresh descriptor of the peer's
    // inside the cycle of its first: a frequency violation.
    let minted = |at: u64, holder: &Keypair| {
        SecureDescriptor::create(me, 0, Timestamp(at))
            .transfer(me, holder.public())
            .unwrap()
            .redeem(holder, LinkKind::Redeem)
            .unwrap()
    };
    let second_fresh = SecureDescriptor::create(peer, 1, Timestamp(tpc + 1))
        .transfer(peer, me.public())
        .unwrap();
    // A third party's request, after the violation.
    let third = &kps[2];
    let third_fresh = SecureDescriptor::create(third, 2, Timestamp(tpc))
        .transfer(third, me.public())
        .unwrap();

    // (input, answered?, [refused, invalid_descriptors,
    // transfers_rejected, transfers_received], the causes it counts) —
    // the counters recorded on the commit before the single verification
    // pass, identical after it; each cause moves by one, no other does.
    type Cause = fn(&Causes) -> u64;
    type Row<'a> = (&'a str, Input, bool, [u64; 4], &'a [Cause]);
    let table: [Row; 10] = [
        (
            "forged certificate",
            request(&forge(&certificate, false), &fresh, &[]),
            false,
            [1, 0, 0, 0],
            &[|c| c[Refusal::Certificate]],
        ),
        (
            "forged fresh descriptor",
            request(&certificate, &forge(&fresh, true), &[]),
            false,
            [2, 0, 0, 0],
            &[|c| c[Refusal::Fresh]],
        ),
        (
            "valid request",
            request(&certificate, &fresh, &[]),
            true,
            [2, 0, 0, 1],
            &[],
        ),
        (
            "forged round transfer",
            round(forge(&handed, false)),
            true,
            [2, 1, 0, 1],
            &[|c| c[Discard::Unverified]],
        ),
        (
            "round transfer owned by somebody else",
            round(to_a_stranger),
            true,
            [2, 1, 1, 1],
            &[|c| c[Rejection::NotOurs]],
        ),
        (
            // The session's quota (s = 3: two rounds) is used up: a valid
            // transfer after it is not even looked at.
            "round after the session's quota",
            round(handed.clone()),
            false,
            [2, 1, 1, 1],
            &[],
        ),
        (
            "replayed certificate",
            request(&certificate, &fresh, &[]),
            false,
            [3, 1, 1, 1],
            &[|c| c[Refusal::Replayed]],
        ),
        (
            "second fresh descriptor in a cycle",
            request(&minted(2 * tpc, peer), &second_fresh, &[]),
            false,
            [4, 1, 1, 1],
            &[|c| c[Discard::Violation], |c| c[Refusal::Blacklisted]],
        ),
        (
            "third party's request sampling the culprit",
            request(
                &minted(4 * tpc, third),
                &third_fresh,
                std::slice::from_ref(&fresh),
            ),
            true,
            [4, 1, 1, 2],
            &[|c| c[Discard::Blacklisted]],
        ),
        (
            "round transfer not signed by the session's partner",
            round(handed),
            true,
            [4, 1, 2, 2],
            &[|c| c[Rejection::WrongSender]],
        ),
    ];
    let total = |c: &Causes| -> u64 {
        c.refused
            .iter()
            .chain(&c.rejected)
            .chain(&c.discarded)
            .sum()
    };
    for (what, input, answered, expect, causes) in table {
        let before = node.causes();
        let fx = node.step(input);
        let (s, after) = (node.stats(), node.causes());
        assert_eq!(fx.reply.is_some(), answered, "{what}");
        assert_eq!(
            [
                s.refused,
                s.invalid_descriptors,
                s.transfers_rejected,
                s.transfers_received
            ],
            expect,
            "{what}"
        );
        for cause in causes {
            assert_eq!(cause(&after), cause(&before) + 1, "{what}: {after}");
        }
        assert_eq!(
            total(&after),
            total(&before) + causes.len() as u64,
            "{what}: {after}"
        );
    }
}

#[test]
fn a_clone_held_back_past_the_window_is_refused() {
    // B hands a descriptor on to C, and the node sees C's copy as a
    // sample. B keeps a second continuation back until the window has
    // passed, then hands it to the node: a cache that has forgotten the
    // first copy must refuse the second, not take it unchecked.
    let kps = keypairs(4);
    let (me, a, b, c) = (&kps[0], &kps[1], &kps[2], &kps[3]);
    let cfg = small_cfg().validated();
    let mut node = SecureCyclonNode::new(me.clone(), 0, cfg, [6u8; 32], 0);
    let held = SecureDescriptor::create(a, 1, Timestamp(0))
        .transfer(a, b.public())
        .unwrap();
    let sample = held.transfer(b, c.public()).unwrap();
    assert_eq!(node.absorb(&sample, None, 1), Ok(()));
    let late = SAMPLE_RETENTION_CYCLES + 2;
    for cycle in 2..=late {
        node.housekeeping(cycle);
    }
    node.accept_transfer(held.transfer(b, me.public()).unwrap(), b.public(), late);
    assert_eq!(node.view().len(), 0, "the clone reached the view");
    assert_eq!(node.stats().transfers_received, 0);
    assert_eq!(node.causes()[Discard::Expired], 1);
}

#[test]
fn a_turn_sends_nothing_a_peer_a_cycle_ahead_would_refuse() {
    // The node holds, in its view, its reserve, both back-fill pools and
    // its redemption cache, descriptors W − 1 cycles old at its turn —
    // which a peer that took its own turn of the next cycle refuses — and
    // W − 2 cycles old, which that peer still admits. The turn must drop
    // the first kind wherever it sits and trade or show the second.
    use crate::checks::Observation;
    use crate::msg::{AcceptBody, RoundReplyBody};
    let kps = keypairs(11);
    let me = &kps[0];
    let cfg = small_cfg().validated();
    let tpc = cfg.ticks_per_cycle;
    let turn = SAMPLE_RETENTION_CYCLES + 10;
    let mut node = SecureCyclonNode::new(me.clone(), 0, cfg, [3u8; 32], 0);
    let owned = |i: usize, age: u64| {
        let stamp = Timestamp((turn - age) * tpc + i as u64);
        SecureDescriptor::create(&kps[i], i as Addr, stamp)
            .transfer(&kps[i], me.public())
            .unwrap()
    };
    let fresh = [1, 3, 6].map(|i| owned(i, SAMPLE_RETENTION_CYCLES - 2));
    let stale = [2, 4, 5, 7].map(|i| owned(i, SAMPLE_RETENTION_CYCLES - 1));
    let [view, reserve, history] = fresh.clone();
    let [stale_view, stale_reserve, stale_pending, stale_history] = stale.clone();
    assert!(node.accept_bootstrap(view));
    assert!(node.accept_bootstrap(stale_view));
    node.reserve.extend([reserve, stale_reserve]);
    node.pending_ns.push_back(stale_pending);
    node.transfer_history.extend([history, stale_history]);
    // Redeemed at the previous turn, inside the redemption cache's
    // retention, when both were young enough to redeem.
    let redeemed = |i: usize, age: u64| owned(i, age).redeem(me, LinkKind::Redeem).unwrap();
    let cached = redeemed(9, SAMPLE_RETENTION_CYCLES - 2);
    let stale_cached = redeemed(10, SAMPLE_RETENTION_CYCLES - 1);
    node.redemptions.push(cached.clone(), turn - 1);
    node.redemptions.push(stale_cached.clone(), turn - 1);
    let fresh: Vec<SecureDescriptor> = fresh.into_iter().chain([cached]).collect();
    let stale: Vec<SecureDescriptor> = stale.into_iter().chain([stale_cached]).collect();

    // The turn: the partner (the creator of the oldest view entry, which
    // it redeems) accepts with its fresh descriptor and answers the first
    // tit-for-tat round with one it holds; the second round times out.
    let partner = &kps[1];
    let paid = SecureDescriptor::create(partner, 1, Timestamp(turn * tpc + 1))
        .transfer(partner, me.public())
        .unwrap();
    let returned = SecureDescriptor::create(&kps[8], 8, Timestamp(turn * tpc))
        .transfer(&kps[8], partner.public())
        .unwrap()
        .transfer(partner, me.public())
        .unwrap();
    let mut replies = [
        SecureMsg::Accept(Box::new(AcceptBody {
            transfers: vec![paid],
            samples: Vec::new(),
            proofs: Vec::new(),
        })),
        SecureMsg::RoundReply(Box::new(RoundReplyBody {
            transfer: Some(returned),
        })),
    ]
    .into_iter();
    let mut sent = Vec::new();
    let mut fx = node.step(Input::Tick { cycle: turn });
    while let Some((_, msg)) = fx.rpc.take() {
        match msg {
            SecureMsg::Request(r) => {
                let RequestBody {
                    redeemed,
                    fresh,
                    offered,
                    samples,
                    ..
                } = *r;
                sent.extend([redeemed, fresh]);
                sent.extend(offered.into_iter().chain(samples));
            }
            SecureMsg::Round(r) => sent.push(r.transfer),
            other => panic!("unexpected rpc {other:?}"),
        }
        fx = node.step(replies.next().map_or(Input::Timeout, Input::Reply));
    }
    assert_eq!(node.stats().completed, 1, "the exchange went through");

    let sent_ids: Vec<DescriptorId> = sent.iter().map(|d| d.id()).collect();
    for d in &fresh {
        assert!(sent_ids.contains(&d.id()), "{:?} was not traded", d.id());
    }
    let held: Vec<DescriptorId> = node
        .view
        .iter()
        .map(|e| &e.desc)
        .chain(&node.reserve)
        .chain(&node.pending_ns)
        .chain(&node.transfer_history)
        .chain(node.redemptions.iter())
        .map(|d| d.id())
        .chain(sent_ids)
        .collect();
    for d in &stale {
        assert!(!held.contains(&d.id()), "{:?} was kept or sent", d.id());
    }

    // A peer that took its turn of the next cycle admits all that was
    // sent, and would have refused what was dropped.
    let mut peer = SampleCache::new(SAMPLE_RETENTION_CYCLES, tpc);
    peer.prune(turn + 1);
    for d in &sent {
        assert_ne!(
            peer.observe(d, turn + 1),
            Observation::Expired,
            "{:?}",
            d.id()
        );
    }
    for d in &stale {
        assert_eq!(
            peer.observe(d, turn + 1),
            Observation::Expired,
            "{:?}",
            d.id()
        );
    }
}

#[test]
fn a_redemption_certificate_replayed_past_the_window_is_refused() {
    // A peer redeems the node's descriptor once, regularly, and replays
    // the same certificate after the window — when the replay guard
    // (`redeemed_regular`) has let the first redemption go, and the
    // sample cache the first copy: the certificate is refused for its
    // age, or the replay buys a second exchange.
    let kps = keypairs(2);
    let (me, peer) = (&kps[0], &kps[1]);
    let cfg = small_cfg().validated();
    let tpc = cfg.ticks_per_cycle;
    let mut node = SecureCyclonNode::new(me.clone(), 0, cfg, [8u8; 32], 0);
    let certificate = SecureDescriptor::create(me, 0, Timestamp(0))
        .transfer(me, peer.public())
        .unwrap()
        .redeem(peer, LinkKind::Redeem)
        .unwrap();
    let request = |cycle: u64| RequestBody {
        redeemed: certificate.clone(),
        fresh: SecureDescriptor::create(peer, 1, Timestamp(cycle * tpc))
            .transfer(peer, me.public())
            .unwrap(),
        offered: Vec::new(),
        samples: Vec::new(),
        proofs: Vec::new(),
    };
    assert!(node.handle_request(1, request(1), 1).is_some());
    let late = SAMPLE_RETENTION_CYCLES + 2;
    for cycle in 2..=late {
        node.housekeeping(cycle);
    }
    assert!(
        node.handle_request(1, request(late), late).is_none(),
        "the replayed certificate bought a second exchange"
    );
    assert_eq!(node.stats().answered, 1);
    assert_eq!(node.causes()[Discard::Expired], 1);
    assert_eq!(node.causes()[Refusal::Discarded], 1);
}

#[test]
fn the_ns_replay_guard_holds_only_what_intake_still_admits() {
    // A peer redeems one of the node's descriptors non-swappably every
    // cycle, for longer than the window. The guard of §V-A rule 1 holds
    // the ids still young enough to be admitted, no more — it used to
    // grow forever, past what a checkpoint can list — and a certificate
    // replayed after its id was let go is refused for its age, as one
    // still held is refused by the guard.
    let kps = keypairs(2);
    let (me, peer) = (&kps[0], &kps[1]);
    let cfg = small_cfg().validated();
    let tpc = cfg.ticks_per_cycle;
    let mut node = SecureCyclonNode::new(me.clone(), 0, cfg, [9u8; 32], 0);
    let certificate = |cycle: u64| {
        SecureDescriptor::create(me, 0, Timestamp(cycle * tpc))
            .transfer(me, peer.public())
            .unwrap()
            .redeem(peer, LinkKind::RedeemNonSwappable)
            .unwrap()
    };
    let request = |redeemed: SecureDescriptor, cycle: u64| RequestBody {
        redeemed,
        fresh: SecureDescriptor::create(peer, 1, Timestamp(cycle * tpc))
            .transfer(peer, me.public())
            .unwrap(),
        offered: Vec::new(),
        samples: Vec::new(),
        proofs: Vec::new(),
    };
    let last = SAMPLE_RETENTION_CYCLES + 20;
    for cycle in 1..=last {
        node.housekeeping(cycle);
        let accepted = node.handle_request(1, request(certificate(cycle), cycle), cycle);
        assert!(accepted.is_some(), "cycle {cycle}");
    }
    assert_eq!(node.stats().ns_redemptions_accepted, last);
    let mut held: Vec<u64> = node
        .ns_redeemed_ids
        .iter()
        .map(|id| id.created_at.ticks() / tpc)
        .collect();
    held.sort_unstable();
    let young: Vec<u64> = (last + 1 - SAMPLE_RETENTION_CYCLES..=last).collect();
    assert_eq!(held, young, "exactly the ids the window still admits");

    let replay = last + 1;
    node.housekeeping(replay);
    for (old, why) in [
        (1, "let go, refused for its age"),
        (last, "held by the guard"),
    ] {
        let refused = node.handle_request(1, request(certificate(old), replay), replay);
        assert!(refused.is_none(), "certificate of cycle {old}: {why}");
    }
    let causes = node.causes();
    assert_eq!(causes[Discard::Expired], 1);
    assert_eq!(causes[Refusal::Discarded], 1, "the certificate of cycle 1");
    assert_eq!(
        causes[Refusal::NsReplayed],
        1,
        "the certificate of cycle {last}"
    );
    assert_eq!(node.stats().answered, last);
}

/// The spent records a node's ring holds, as a sorted multiset of
/// `(stamp, digest)`.
fn ring_records(node: &SecureCyclonNode) -> Vec<(u64, Digest)> {
    let mut held: Vec<(u64, Digest)> = node.spent.iter().map(|(c, d)| (c, *d)).collect();
    held.sort_unstable();
    held
}

/// Runs node `i`'s exchange to its end over a reliable network, every
/// request served in `cycle`.
fn resolve(
    nodes: &mut [SecureCyclonNode],
    i: usize,
    mut rpc: Option<(Addr, SecureMsg)>,
    cycle: u64,
) {
    while let Some((to, msg)) = rpc.take() {
        let from = i as Addr;
        let mut served = nodes[to as usize].step(Input::Request { from, msg, cycle });
        let input = served.reply.take().map_or(Input::Timeout, Input::Reply);
        rpc = nodes[i].step(input).rpc;
    }
}

/// Eight nodes turn in order on a reliable network past the sample
/// window; node 0, on `disk`, is crash-restarted through `reopen` at
/// every turn boundary where none of its exchanges is in flight. It must
/// come back holding exactly the spent records its ring held when it
/// died: those the last checkpoint named plus those logged after it.
/// With `late`, every third cycle its exchange resolves only after the
/// next cycle's other turns, which it may have served, so its records
/// land behind younger ones. Returns the restarts and the late exchanges
/// that spent something.
fn restart_at_every_turn_boundary(
    disk: Box<dyn StateBackend>,
    mut reopen: impl FnMut(Box<dyn StateBackend>) -> Box<dyn StateBackend>,
    late: bool,
) -> (usize, usize) {
    const N: usize = 8;
    let kps = keypairs(N);
    let cfg = SecureConfig::default()
        .with_view_len(4)
        .with_swap_len(2)
        .validated();
    let tpc = cfg.ticks_per_cycle;
    let addrs: Vec<Addr> = (0..N as Addr).collect();
    let phases: Vec<u64> = (0..N)
        .map(|i| crate::bootstrap::default_phase(i, tpc))
        .collect();
    let plan = crate::bootstrap::ring_bootstrap(&kps, &addrs, &phases, cfg.view_len, tpc);
    let mut nodes: Vec<SecureCyclonNode> = (0..N)
        .map(|i| SecureCyclonNode::new(kps[i].clone(), addrs[i], cfg, [i as u8; 32], phases[i]))
        .collect();
    nodes[0] =
        SecureCyclonNode::with_backend(kps[0].clone(), 0, cfg, [0; 32], phases[0], disk).unwrap();
    for (node, descs) in nodes.iter_mut().zip(plan.per_node) {
        for d in descs {
            assert!(node.accept_bootstrap(d));
        }
    }
    let (mut restarts, mut late_spends) = (0, 0);
    let mut first_stamp = None;
    let mut pending: Option<(u64, Option<(Addr, SecureMsg)>)> = None;
    let first = plan.start_cycle + 1;
    for cycle in first..first + SAMPLE_RETENTION_CYCLES + 30 {
        let mut order: Vec<usize> = (1..N).collect();
        if pending.is_some() {
            order.push(0);
        } else {
            order.insert(0, 0);
        }
        for i in order {
            if i == 0 {
                if let Some((began, rpc)) = pending.take() {
                    resolve(&mut nodes, 0, rpc, cycle);
                    let held: Vec<u64> = nodes[0].spent.iter().map(|(c, _)| c).collect();
                    if held.last() == Some(&began) && held.contains(&cycle) {
                        late_spends += 1;
                    }
                }
            }
            let fx = nodes[i].step(Input::Tick { cycle });
            if i == 0 && late && cycle % 3 == 0 && fx.rpc.is_some() {
                pending = Some((cycle, fx.rpc));
                continue;
            }
            resolve(&mut nodes, i, fx.rpc, cycle);
            if pending.is_some() {
                continue;
            }
            // kill -9 between two turns: only the backend survives.
            let before = ring_records(&nodes[0]);
            first_stamp = first_stamp.or(before.first().map(|r| r.0));
            let disk = reopen(nodes[0].backend.take().unwrap());
            let seed = [restarts as u8; 32];
            let mut revived =
                SecureCyclonNode::with_backend(kps[0].clone(), 0, cfg, seed, phases[0], disk)
                    .unwrap();
            restarts += 1;
            let after = ring_records(&revived);
            assert_eq!(after, before, "cycle {cycle}, after node {i}'s turn");
            // What node 0 took in passively since its checkpoint is not
            // in the log (by design, README "Durable state"), so a node
            // killed after every turn starves: the run goes on with the
            // replacement after node 0's own turns, and elsewhere with
            // node 0 itself on the reopened disk. With late exchanges it
            // always goes on with node 0, whose ring, never re-sorted by
            // a restore, keeps each late record behind the younger one
            // until the window reaches them.
            if i == 0 && !late {
                nodes[0] = revived;
            } else {
                nodes[0].backend = revived.backend.take();
            }
        }
    }
    let front = nodes[0].spent.iter().next().map(|(c, _)| c);
    assert!(front > first_stamp, "the ring let records go");
    for node in &nodes {
        assert!(node.blacklist().is_empty(), "a restart convicted node 0");
    }
    (restarts, late_spends)
}

#[test]
fn a_restart_restores_the_spent_ring_the_node_held() {
    use crate::storage::{FileBackend, MemoryBackend};
    for late in [false, true] {
        let memory = Box::new(MemoryBackend::new());
        let (restarts, late_spends) = restart_at_every_turn_boundary(memory, |disk| disk, late);
        assert!(restarts > 200, "{restarts} restarts");
        assert_eq!(late_spends > 0, late);

        // The file backend, reopened each time: restarts with
        // compactions between them.
        let dir = std::env::temp_dir().join(format!(
            "sc-node-restart-ring-{late}-{}",
            std::process::id()
        ));
        let path = dir.join("node.log");
        let _ = std::fs::remove_file(&path);
        let open = |path: &std::path::Path| -> Box<dyn StateBackend> {
            Box::new(
                FileBackend::open(path)
                    .unwrap()
                    .with_compact_threshold(8 * 1024),
            )
        };
        let (mut last_len, mut compactions) = (0, 0);
        let reopen = |disk: Box<dyn StateBackend>| {
            drop(disk);
            let len = std::fs::metadata(&path).unwrap().len();
            compactions += usize::from(len < last_len);
            last_len = len;
            open(&path)
        };
        let (_, late_spends) = restart_at_every_turn_boundary(open(&path), reopen, late);
        assert_eq!(late_spends > 0, late);
        assert!(
            compactions > 5,
            "{compactions} compactions between restarts"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
