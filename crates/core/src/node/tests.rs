//! Unit tests of the node's private mechanics. Whole-network behaviour
//! lives with the simulator driver (`crates/testkit/tests/honest_network.rs`);
//! the step machine's reachable states in `crates/core/tests/step_machine.rs`.

use super::*;
use crate::msg::RequestBody;
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
    let rejected_before = node.stats.transfers_rejected;
    node.accept_transfer(handed, creator.public(), 1);
    assert_eq!(node.stats.transfers_rejected, rejected_before + 1);
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
    let reply = node.handle_request(7, body, 1, now);
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
        sig: Signature::from_bytes([0u8; 64]),
    };
    let link = ChainLink {
        to: a.public(),
        kind: LinkKind::Transfer,
        sig: Signature::from_bytes([0u8; 64]),
    };
    let forged = SecureDescriptor::from_parts(genesis, vec![link]);
    // First shown as a sample: cached lazily, without verification.
    assert!(node.absorb_sample(&forged, 0));
    // Then replayed byte-identically as an ownership transfer: the
    // intake gate must still verify — and reject — it. (The old
    // byte-identical-sample shortcut skipped verification here.)
    node.accept_transfer(forged, c.public(), 0);
    assert_eq!(node.stats().invalid_descriptors, 1);
    assert_eq!(node.stats().transfers_received, 0);
    assert_eq!(node.view().len(), 0, "forgery never reaches the view");
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
    let grant = node.sponsor_join(kps[1].public(), 5, 5_000);
    assert!(grant.is_some(), "budget available before the crash");
    assert!(!node.may_emit(5));

    // kill -9: the node object dies, only the "disk" survives.
    let disk = node.take_backend().unwrap();
    let mut revived =
        SecureCyclonNode::with_backend(kps[0].clone(), 0, cfg, [2u8; 32], 0, disk).unwrap();
    assert_eq!(revived.last_emission(), Some(5), "marker recovered");
    assert!(!revived.may_emit(5), "budget stays spent across restart");
    assert!(
        revived.sponsor_join(kps[2].public(), 5, 5_100).is_none(),
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

    let disk = node.take_backend().unwrap();
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
    node.step(Input::Tick { cycle: 1, now: tpc });
    node.step(Input::Timeout);
    assert_eq!(node.view().len(), 2);

    // Next turn: the request is accepted, so a round goes out.
    let fx = node.step(Input::Tick {
        cycle: 2,
        now: 2 * tpc,
    });
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
    let disk = node.take_backend().unwrap();
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
    let fx = node.step(Input::Tick { cycle: 1, now: tpc });
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
        now: tpc + tpc / 2,
    });
    let Some(SecureMsg::Accept(accept)) = fx.reply.take() else {
        panic!("the passive exchange was refused");
    };
    assert_eq!(accept.transfers.len(), 1);
    assert_eq!(accept.transfers[0].creator(), other.public());
    assert_eq!(node.view().len(), 1, "alive, it holds what it was paid");

    // kill -9.
    let disk = node.take_backend().unwrap();
    let mut revived =
        SecureCyclonNode::with_backend(me.clone(), 10, cfg, [2u8; 32], 0, disk).unwrap();
    assert!(
        revived.view().is_empty(),
        "every checkpointed entry is spent"
    );
    assert_eq!(revived.last_emission(), Some(1));
    assert_eq!(revived.redemption_count(), 1);

    let fx = revived.step(Input::Tick {
        cycle: 2,
        now: 2 * tpc,
    });
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
fn a_node_cut_off_past_the_window_still_pings_for_rejoin() {
    // A partition longer than the sample window expires every sample and
    // every redeemed copy the node holds: the addresses §V-A's rejoin ping
    // draws its sponsors from. The node must still ask someone — its
    // latest exchange partners — or it stays out after the heal.
    let kps = keypairs(3);
    let (me, a, b) = (&kps[0], &kps[1], &kps[2]);
    let cfg = small_cfg().validated();
    let tpc = cfg.ticks_per_cycle;
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
        let mut fx = node.step(Input::Tick {
            cycle,
            now: cycle * tpc,
        });
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
        now: cycle * tpc,
    });
    let [(2, SecureMsg::JoinGrant(grant))] = &fx.sends[..] else {
        panic!("the ping was not granted: {:?}", fx.sends);
    };
    assert_eq!(grant.descriptor.owner(), joiner.public());
    let culprits: Vec<NodeId> = grant.proofs.iter().map(|p| p.culprit()).collect();
    assert_eq!(culprits, vec![culprit.public()]);
}

#[test]
fn forged_inputs_move_exactly_these_counters() {
    // One node, one stream of inputs, the four intake counters after
    // each: where verification sits relative to the structural gates
    // decides *which* counter a forgery lands in, so a reordered early
    // return shows here directly.
    use crate::msg::RoundBody;
    use sc_crypto::Signature;
    let kps = keypairs(6);
    let (me, peer) = (&kps[0], &kps[1]);
    let cfg = small_cfg().validated();
    let tpc = cfg.ticks_per_cycle;
    let mut node = SecureCyclonNode::new(me.clone(), 0, cfg, [5u8; 32], 0);
    // Something to trade away: three descriptors of third parties.
    for (i, kp) in kps[2..5].iter().enumerate() {
        let d = SecureDescriptor::create(kp, 2 + i as Addr, Timestamp(i as u64))
            .transfer(kp, me.public())
            .unwrap();
        assert!(node.accept_bootstrap(d));
    }
    // `d` with the signature of its last link (or of its genesis, for an
    // unlinked one) flipped, reassembled as a wire decode would.
    let forge = |d: &SecureDescriptor, genesis: bool| {
        let flip = |sig: &Signature| {
            let mut bytes = *sig.as_bytes();
            bytes[8] ^= 0x40;
            Signature::from_bytes(bytes)
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
    let request = |redeemed: &SecureDescriptor, fresh: &SecureDescriptor| Input::Request {
        from: 1,
        msg: SecureMsg::Request(Box::new(RequestBody {
            redeemed: redeemed.clone(),
            fresh: fresh.clone(),
            offered: Vec::new(),
            samples: Vec::new(),
            proofs: Vec::new(),
        })),
        cycle: 1,
        now: tpc,
    };
    let round = |transfer: SecureDescriptor| Input::Request {
        from: 1,
        msg: SecureMsg::Round(Box::new(RoundBody { transfer })),
        cycle: 1,
        now: tpc,
    };
    // What the peer hands over in tit-for-tat rounds: a third party's
    // descriptor it owns, signed on to this node.
    let owned_by_peer = SecureDescriptor::create(&kps[5], 5, Timestamp(7))
        .transfer(&kps[5], peer.public())
        .unwrap();
    let handed = owned_by_peer.transfer(peer, me.public()).unwrap();
    let to_a_stranger = owned_by_peer.transfer(peer, kps[4].public()).unwrap();

    // (input, answered?, [refused, invalid_descriptors,
    // transfers_rejected, transfers_received]) — recorded on the commit
    // before the single verification pass, identical after it.
    let table = [
        (
            "forged certificate",
            request(&forge(&certificate, false), &fresh),
            false,
            [1, 0, 0, 0],
        ),
        (
            "forged fresh descriptor",
            request(&certificate, &forge(&fresh, true)),
            false,
            [2, 0, 0, 0],
        ),
        (
            "valid request",
            request(&certificate, &fresh),
            true,
            [2, 0, 0, 1],
        ),
        (
            "forged round transfer",
            round(forge(&handed, false)),
            true,
            [2, 1, 0, 1],
        ),
        (
            "round transfer owned by somebody else",
            round(to_a_stranger),
            true,
            [2, 1, 1, 1],
        ),
    ];
    for (what, input, answered, expect) in table {
        let fx = node.step(input);
        let s = node.stats();
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
    }
    // The session's quota (s = 3: two rounds) is used up; a valid
    // transfer after it is not even looked at.
    assert!(node.step(round(handed)).reply.is_none());
    assert_eq!(node.stats().transfers_received, 1);
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
    assert!(node.absorb_sample(&held.transfer(b, c.public()).unwrap(), 1));
    let late = SAMPLE_RETENTION_CYCLES + 2;
    for cycle in 2..=late {
        node.housekeeping(cycle);
    }
    node.accept_transfer(held.transfer(b, me.public()).unwrap(), b.public(), late);
    assert_eq!(node.view().len(), 0, "the clone reached the view");
    assert_eq!(node.stats().transfers_received, 0);
    assert_eq!(node.expired_refused(), 1);
}

#[test]
fn a_turn_sends_nothing_a_peer_a_cycle_ahead_would_refuse() {
    // The node holds, in its view, its reserve and both back-fill pools,
    // descriptors W − 1 cycles old at its turn — which a peer that took
    // its own turn of the next cycle refuses — and W − 2 cycles old, which
    // that peer still admits. The turn must drop the first kind wherever
    // it sits and trade the second.
    use crate::checks::Observation;
    use crate::msg::{AcceptBody, RoundReplyBody};
    let kps = keypairs(9);
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
    let mut fx = node.step(Input::Tick {
        cycle: turn,
        now: turn * tpc,
    });
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
    assert!(node.handle_request(1, request(1), 1, tpc).is_some());
    let late = SAMPLE_RETENTION_CYCLES + 2;
    for cycle in 2..=late {
        node.housekeeping(cycle);
    }
    assert!(
        node.handle_request(1, request(late), late, late * tpc)
            .is_none(),
        "the replayed certificate bought a second exchange"
    );
    assert_eq!(node.stats().answered, 1);
    assert_eq!(node.expired_refused(), 1);
}
