//! Model test for [`SampleCache`]: the single-index, logically-expiring
//! cache must be observationally identical to the naive two-map cache it
//! replaced.
//!
//! The reference model below *is* the old logic — an id-keyed map of
//! cached copies plus a per-creator timestamp index kept in lockstep,
//! with expiry that physically removes entries inside `prune` — and lives
//! on only here. Random streams of new, re-sighted, extended, forked,
//! NS-pair, forged and same-timestamp descriptors, interleaved with
//! `prune` at arbitrary cycles and `purge_creator`, must produce the same
//! [`Observation`] sequence, and after every step the same `len()`, the
//! same `get()` for every id in play and the same `descriptors()` set.
//!
//! Beside what the cache *shows*, the same streams check what it *stores*
//! (through the footprint accessor): no expired slot survives a touch of
//! its creator, expired slots appear nowhere but in `prune` and never
//! outlast the sweep trigger there, spare capacity stays within
//! `SLACK_SLOTS` a creator, and no creator's entry is left empty.

use proptest::prelude::*;
use sc_core::checks::SLACK_SLOTS;
use sc_core::{
    compare_chains, ChainRelation, CompareError, DescriptorId, LinkKind, Observation, SampleCache,
    SecureDescriptor, Timestamp, ViolationProof,
};
use sc_crypto::{Keypair, NodeId, Scheme, Signature};
use std::collections::{BTreeMap, BTreeSet, HashMap};

const PERIOD: u64 = 1000;
const RETENTION: u64 = 6;

fn kp(tag: u8) -> Keypair {
    Keypair::from_seed(Scheme::Schnorr61, [tag; 32])
}

// -- the reference model ---------------------------------------------------

#[derive(Default)]
struct ModelCache {
    by_id: HashMap<DescriptorId, (SecureDescriptor, u64)>,
    by_creator: HashMap<NodeId, Vec<u64>>,
}

impl ModelCache {
    fn observe(&mut self, desc: &SecureDescriptor, now: u64) -> Observation {
        let id = desc.id();
        if let Some((cached, last_seen)) = self.by_id.get_mut(&id) {
            *last_seen = now;
            let forged = |cached: &mut SecureDescriptor| {
                if cached.verify().is_err() && desc.verify().is_ok() {
                    *cached = desc.clone();
                }
                Observation::Forged
            };
            return match compare_chains(cached, desc) {
                Ok(ChainRelation::Identical) | Ok(ChainRelation::LeftExtendsRight) => {
                    Observation::AlreadyKnown
                }
                Ok(ChainRelation::RightExtendsLeft) => {
                    *cached = desc.clone();
                    Observation::Extended
                }
                Ok(ChainRelation::Divergent {
                    index,
                    ns_exception: true,
                    ..
                }) => {
                    if cached.chain()[index].kind == LinkKind::RedeemNonSwappable {
                        *cached = desc.clone();
                    }
                    Observation::NsException
                }
                Ok(ChainRelation::Divergent { .. }) => {
                    match ViolationProof::cloning(cached.clone(), desc.clone()) {
                        Ok(proof) => Observation::Violation(Box::new(proof)),
                        Err(_) => forged(cached),
                    }
                }
                Err(CompareError::GenesisMismatch) => {
                    match ViolationProof::frequency(cached.clone(), desc.clone(), PERIOD) {
                        Ok(proof) => Observation::Violation(Box::new(proof)),
                        Err(_) => forged(cached),
                    }
                }
                Err(CompareError::DifferentIds) => unreachable!("looked up by id"),
            };
        }

        let ts = id.created_at.ticks();
        let conflict = self.by_creator.get(&id.creator).and_then(|index| {
            index
                .iter()
                .copied()
                .find(|&t| t != ts && t.abs_diff(ts) < PERIOD)
        });
        if let Some(t) = conflict {
            let other = DescriptorId {
                creator: id.creator,
                created_at: Timestamp(t),
            };
            let cached = self.by_id[&other].0.clone();
            return match ViolationProof::frequency(cached.clone(), desc.clone(), PERIOD) {
                Ok(proof) => Observation::Violation(Box::new(proof)),
                Err(_) => {
                    if desc.verify().is_ok() && cached.verify().is_err() {
                        self.remove(&other);
                    }
                    Observation::Forged
                }
            };
        }

        let index = self.by_creator.entry(id.creator).or_default();
        index.push(ts);
        index.sort_unstable();
        self.by_id.insert(id, (desc.clone(), now));
        Observation::New
    }

    fn remove(&mut self, id: &DescriptorId) {
        self.by_id.remove(id);
        let index = self.by_creator.get_mut(&id.creator).expect("in lockstep");
        index.retain(|&t| t != id.created_at.ticks());
    }

    fn prune(&mut self, now: u64) {
        let horizon = now.saturating_sub(RETENTION);
        let expired: Vec<DescriptorId> = self
            .by_id
            .iter()
            .filter(|(_, (_, last_seen))| *last_seen < horizon)
            .map(|(id, _)| *id)
            .collect();
        for id in expired {
            self.remove(&id);
        }
    }

    fn purge_creator(&mut self, creator: &NodeId) {
        self.by_creator.remove(creator);
        self.by_id.retain(|id, _| id.creator != *creator);
    }
}

// -- the descriptor pool ---------------------------------------------------

/// Every variant of every token the streams draw from: `CREATORS`
/// creators × `STAMPS` creation times (some closer than a period, so
/// frequency conflicts arise) × `VARIANTS` copies.
const CREATORS: u8 = 3;
const STAMPS: [u64; 5] = [0, 400, 1000, 1999, 3000];
const VARIANTS: usize = 8;

fn flip_sig(sig: &Signature) -> Signature {
    let mut bytes = *sig.as_bytes();
    bytes[8] ^= 0x40;
    Signature::from_bytes(bytes)
}

fn pool() -> Vec<SecureDescriptor> {
    let (x, y, z) = (kp(101), kp(102), kp(103));
    let mut out = Vec::new();
    for c in 0..CREATORS {
        let creator = kp(c + 1);
        for ts in STAMPS {
            let base = SecureDescriptor::create(&creator, c as u32, Timestamp(ts));
            let held = base.transfer(&creator, x.public()).unwrap();
            let extended = held.transfer(&x, y.public()).unwrap();
            let fork = held.transfer(&x, z.public()).unwrap();
            let ns = held.redeem(&x, LinkKind::RedeemNonSwappable).unwrap();
            // A second creation with the very same timestamp.
            let twin = SecureDescriptor::create(&creator, 77, Timestamp(ts));
            // Forgeries: a divergent link nobody signed, and a genesis
            // the creator never signed (conflicts with `base` at Δt = 0).
            let mut links = extended.chain().to_vec();
            links[1].to = z.public();
            links[1].sig = flip_sig(&links[1].sig);
            let forged_link = SecureDescriptor::from_parts(*base.genesis(), links);
            let mut genesis = *base.genesis();
            genesis.addr = 99;
            let forged_genesis = SecureDescriptor::from_parts(genesis, Vec::new());
            out.extend([
                base,
                held,
                extended,
                fork,
                ns,
                twin,
                forged_link,
                forged_genesis,
            ]);
        }
    }
    assert_eq!(
        out.len(),
        CREATORS as usize * STAMPS.len() * VARIANTS,
        "pool layout"
    );
    out
}

/// One plain descriptor each of `BALLAST` further creators, shown to the
/// cache all at once: with that many slots visible a few expired ones
/// stay under the sweep trigger, so the streams reach the state the
/// verdicts must not depend on — slots expired but still stored.
const BALLAST: u8 = 64;

fn ballast() -> Vec<SecureDescriptor> {
    (0..BALLAST)
        .map(|tag| {
            let creator = Keypair::from_seed(Scheme::KeyedHash, [tag; 32]);
            SecureDescriptor::create(&creator, 0, Timestamp(0))
        })
        .collect()
}

// -- the streams -----------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum Op {
    /// Observe pool entry `.0` at the current cycle.
    Observe(usize),
    /// Let `.0` cycles pass, then prune.
    Prune(u64),
    /// Let `.0` cycles pass without pruning (a node serving requests
    /// before its own turn).
    Idle(u64),
    Purge(u8),
    /// Observe every [`ballast`] descriptor at the current cycle.
    Ballast,
}

/// Decodes a generated `(selector, argument)` pair: four steps in nine
/// are observations, two prunes (short and window-sized gaps).
fn op((selector, arg): (u8, u64)) -> Op {
    let pool_len = (CREATORS as usize * STAMPS.len() * VARIANTS) as u64;
    match selector {
        0..=3 => Op::Observe((arg % pool_len) as usize),
        4 => Op::Prune(arg % 4),
        5 => Op::Prune(arg % (2 * RETENTION)),
        6 => Op::Idle(arg % 3),
        7 => Op::Purge((arg % CREATORS as u64) as u8),
        _ => Op::Ballast,
    }
}

fn by_digest<'a>(
    it: impl Iterator<Item = &'a SecureDescriptor>,
) -> BTreeMap<[u8; 32], &'a SecureDescriptor> {
    it.map(|d| (d.state_digest(), d)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn single_index_cache_matches_the_two_map_model(
        raw in proptest::collection::vec((0u8..9, any::<u64>()), 1..120)
    ) {
        let ops: Vec<Op> = raw.into_iter().map(op).collect();
        let (pool, ballast) = (pool(), ballast());
        let mut ids: Vec<DescriptorId> = pool.iter().chain(&ballast).map(|d| d.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        let mut cache = SampleCache::new(RETENTION);
        let mut model = ModelCache::default();
        let mut cycle = 0u64;
        for (step, op) in ops.iter().enumerate() {
            let before = cache.footprint();
            let expired_before = before.stored_slots - before.visible_slots;
            match *op {
                Op::Observe(i) => {
                    let got = cache.observe(&pool[i], cycle, PERIOD);
                    let want = model.observe(&pool[i], cycle);
                    prop_assert_eq!(got, want, "step {} ({:?}) at cycle {}", step, op, cycle);
                }
                Op::Prune(dt) => {
                    cycle += dt;
                    cache.prune(cycle);
                    model.prune(cycle);
                }
                Op::Idle(dt) => cycle += dt,
                Op::Purge(c) => {
                    let creator = kp(c + 1).public();
                    cache.purge_creator(&creator);
                    model.purge_creator(&creator);
                }
                Op::Ballast => {
                    for d in &ballast {
                        let got = cache.observe(d, cycle, PERIOD);
                        prop_assert_eq!(got, model.observe(d, cycle), "step {}", step);
                    }
                }
            }
            prop_assert_eq!(cache.len(), model.by_id.len(), "len after step {}", step);
            prop_assert_eq!(cache.is_empty(), model.by_id.is_empty());
            for id in &ids {
                prop_assert_eq!(
                    cache.get(id),
                    model.by_id.get(id).map(|(d, _)| d),
                    "get({:?}) after step {}", id, step
                );
            }
            let got = by_digest(cache.descriptors());
            let want = by_digest(model.by_id.values().map(|(d, _)| d));
            prop_assert_eq!(cache.descriptors().count(), cache.len());
            prop_assert_eq!(got, want, "descriptors() after step {}", step);

            // What is stored, beside what is shown.
            let held = cache.footprint();
            prop_assert_eq!(held.visible_slots, cache.len());
            prop_assert_eq!(held.stored_slots, cache.stored_descriptors().count());
            let expired = held.stored_slots - held.visible_slots;
            match *op {
                Op::Prune(_) => prop_assert!(
                    expired <= held.visible_slots / 16,
                    "step {}: {} expired slots left beside {} visible", step, expired,
                    held.visible_slots
                ),
                _ => prop_assert!(
                    expired <= expired_before,
                    "step {}: slots expired outside prune ({} -> {})", step, expired_before,
                    expired
                ),
            }
            if let Op::Observe(i) = *op {
                let by = |d: &&SecureDescriptor| d.creator() == pool[i].creator();
                prop_assert_eq!(
                    cache.stored_descriptors().filter(by).count(),
                    cache.descriptors().filter(by).count(),
                    "step {}: an expired slot survived a touch of its creator", step
                );
            }
            let creators: BTreeSet<NodeId> =
                cache.stored_descriptors().map(|d| d.creator()).collect();
            prop_assert_eq!(held.creators, creators.len(), "step {}: an empty entry", step);
            prop_assert!(
                held.slot_capacity - held.stored_slots <= SLACK_SLOTS * held.creators,
                "step {}: capacity {} for {} slots of {} creators", step, held.slot_capacity,
                held.stored_slots, held.creators
            );
        }
    }
}

/// The model test would be vacuous if the streams never reached the
/// interesting verdicts; pin that a fixed stream reaches all six.
#[test]
fn pool_reaches_every_observation_class() {
    let pool = pool();
    let mut cache = SampleCache::new(RETENTION);
    let mut model = ModelCache::default();
    // base, held, extended, held (known), ns vs extended, fork (cloning),
    // forged link (forged), twin (Δt=0 frequency), forged genesis.
    let stream = [0usize, 1, 2, 1, 4, 3, 6, 5, 7, VARIANTS];
    let mut seen = Vec::new();
    for i in stream {
        let got = cache.observe(&pool[i], 0, PERIOD);
        assert_eq!(got, model.observe(&pool[i], 0));
        seen.push(got);
    }
    assert_eq!(seen[0], Observation::New);
    assert_eq!(seen[1], Observation::Extended);
    assert_eq!(seen[2], Observation::Extended);
    assert_eq!(seen[3], Observation::AlreadyKnown);
    assert_eq!(seen[4], Observation::NsException);
    assert!(
        matches!(seen[5], Observation::Violation(_)),
        "{:?}",
        seen[5]
    );
    assert_eq!(seen[6], Observation::Forged);
    assert!(
        matches!(seen[7], Observation::Violation(_)),
        "{:?}",
        seen[7]
    );
    assert_eq!(seen[8], Observation::Forged);
    // Second timestamp of the first creator, 400 ticks away: frequency.
    assert!(
        matches!(seen[9], Observation::Violation(_)),
        "{:?}",
        seen[9]
    );
}
