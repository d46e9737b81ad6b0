//! Model tests for [`SampleCache`]: the single-index, logically-expiring
//! cache against two naive references kept only here.
//!
//! * **The window model** states the cache's contract directly: an
//!   id-keyed map of cached copies plus a per-creator timestamp index
//!   kept in lockstep; intake first prunes to the cycle before the
//!   observer's if the latest `prune` lies further back, then refuses a
//!   descriptor a window or more older than the clock, or more than a
//!   window younger than the observer's; `prune` physically removes every
//!   entry older than the window and its one cycle of grace. Random
//!   streams of new, re-sighted, extended, forked, NS-pair,
//!   forged, same-timestamp, too-old and too-young descriptors,
//!   interleaved with `prune` at arbitrary cycles and `purge_creator`,
//!   must produce the same [`Observation`] sequence, and after every step
//!   the same `len()`, the same `get()` for every id in play and the same
//!   `descriptors()` set.
//! * **The last-sighting model** is the same map with the cache's
//!   previous expiry: an entry lives for the window after it was last
//!   seen, and nothing is refused. It is the reference the previous
//!   single-index cache was proven observationally identical to. On
//!   streams whose arrivals are all younger than the window, the cache
//!   must return this model's verdict on every arrival — every violation
//!   it reports, with the same proof, and no other: measuring the window
//!   from creation loses no conflict a sighting-based window would have
//!   caught. (What the two hold differs: a sighting-based window keeps a
//!   copy still re-sighted past its creation window, and no arrival
//!   inside the window can conflict with it.)
//!
//! Beside what the cache *shows*, the first streams check what it
//! *stores* (through the footprint accessor): no expired slot survives a
//! touch of its creator, expired slots appear nowhere but in `prune` (an
//! observation's catch-up included) and never outlast the sweep trigger
//! there, spare capacity stays within
//! `SLACK_SLOTS` a creator, no creator's entry is left empty, and the
//! creator index holds one run a creator, at most an eighth more (or 4) of
//! spare room, and a table of one entry a bucket at most twice the size a
//! load of 7/8 needs.

use proptest::prelude::*;
use sc_core::checks::{CacheFootprint, SLACK_SLOTS};
use sc_core::{
    compare_chains, ChainRelation, CompareError, DescriptorId, LinkKind, Observation, SampleCache,
    SecureDescriptor, Timestamp, ViolationProof,
};
use sc_crypto::{Keypair, NodeId, Scheme, Signature};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::OnceLock;

const PERIOD: u64 = 1000;
/// The window W, in cycles.
const RETENTION: u64 = 4;

fn kp(tag: u8) -> Keypair {
    Keypair::from_seed(Scheme::Schnorr61, [tag; 32])
}

fn created(d: &SecureDescriptor) -> u64 {
    d.created_at().ticks() / PERIOD
}

// -- the references --------------------------------------------------------

/// When a reference entry expires.
#[derive(Clone, Copy, PartialEq)]
enum Expiry {
    /// W after creation, plus a cycle of grace; intake refuses what lies
    /// outside the window.
    Creation,
    /// W after the last sighting; intake refuses nothing.
    LastSighting,
}

struct Model {
    expiry: Expiry,
    /// The cycle of the latest prune.
    clock: u64,
    by_id: HashMap<DescriptorId, (SecureDescriptor, u64)>,
    by_creator: HashMap<NodeId, Vec<u64>>,
}

impl Model {
    fn new(expiry: Expiry) -> Self {
        Model {
            expiry,
            clock: 0,
            by_id: HashMap::new(),
            by_creator: HashMap::new(),
        }
    }

    fn observe(&mut self, desc: &SecureDescriptor, now: u64) -> Observation {
        if self.expiry == Expiry::Creation && self.clock + 1 < now {
            self.prune(now - 1);
        }
        let id = desc.id();
        let c = created(desc);
        if self.expiry == Expiry::Creation && (c + RETENTION <= self.clock || c > now + RETENTION) {
            return Observation::Expired;
        }
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
                        Ok(proof) => Observation::Violation(proof),
                        Err(_) => forged(cached),
                    }
                }
                Err(CompareError::GenesisMismatch) => {
                    match ViolationProof::frequency(cached.clone(), desc.clone(), PERIOD) {
                        Ok(proof) => Observation::Violation(proof),
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
                Ok(proof) => Observation::Violation(proof),
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
        self.clock = self.clock.max(now);
        let (expiry, clock) = (self.expiry, self.clock);
        let expired: Vec<DescriptorId> = self
            .by_id
            .iter()
            .filter(|(_, (d, last_seen))| match expiry {
                Expiry::Creation => created(d) + RETENTION < clock,
                Expiry::LastSighting => last_seen + RETENTION < clock,
            })
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
/// frequency conflicts arise) × `VARIANTS` copies. The stamps span more
/// than two windows, so a stream meets descriptors too young, in the
/// window and too old.
const CREATORS: u8 = 3;
const STAMPS: [u64; 9] = [0, 400, 1000, 1999, 3000, 5500, 6000, 8999, 9500];
const VARIANTS: usize = 8;
const POOL_LEN: usize = CREATORS as usize * STAMPS.len() * VARIANTS;
/// The streams' clock stops here: past it every stamp is too old.
const LAST_CYCLE: u64 = 9 + RETENTION + 2;

fn flip_sig(sig: &Signature) -> Signature {
    let mut bytes = sig.to_bytes();
    bytes[8] ^= 0x40;
    Signature::from_bytes(bytes).unwrap()
}

fn pool() -> &'static [SecureDescriptor] {
    static POOL: OnceLock<Vec<SecureDescriptor>> = OnceLock::new();
    POOL.get_or_init(|| {
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
        assert_eq!(out.len(), POOL_LEN, "pool layout");
        out
    })
}

/// `BALLAST` further creators, each creating one plain descriptor at the
/// current cycle, shown to the cache all at once: with that many slots
/// visible a few expired ones stay under the sweep trigger, so the
/// streams reach the state the verdicts must not depend on — slots
/// expired but still stored.
const BALLAST: u8 = 64;

fn ballast(cycle: u64) -> Vec<SecureDescriptor> {
    static KEYS: OnceLock<Vec<Keypair>> = OnceLock::new();
    let keys = KEYS.get_or_init(|| {
        (0..BALLAST)
            .map(|tag| Keypair::from_seed(Scheme::KeyedHash, [tag; 32]))
            .collect()
    });
    keys.iter()
        .map(|k| SecureDescriptor::create(k, 0, Timestamp(cycle * PERIOD)))
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
    match selector {
        0..=3 => Op::Observe((arg % POOL_LEN as u64) as usize),
        4 => Op::Prune(arg % 3),
        5 => Op::Prune(arg % (2 * RETENTION)),
        6 => Op::Idle(arg % 2),
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
    fn single_index_cache_matches_the_window_model(
        raw in proptest::collection::vec((0u8..9, any::<u64>()), 1..120)
    ) {
        let ops: Vec<Op> = raw.into_iter().map(op).collect();
        let pool = pool();
        let mut ids: Vec<DescriptorId> = pool.iter().map(|d| d.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        let mut cache = SampleCache::new(RETENTION, PERIOD);
        let mut model = Model::new(Expiry::Creation);
        let mut cycle = 0u64;
        for (step, op) in ops.iter().enumerate() {
            let before = cache.footprint();
            let expired_before = before.stored_slots - before.visible_slots;
            // An observation more than a cycle past the latest prune
            // prunes first.
            let catches_up = matches!(op, Op::Observe(_) | Op::Ballast) && model.clock + 1 < cycle;
            let mut refused = false;
            match *op {
                Op::Observe(i) => {
                    let got = cache.observe(&pool[i], cycle);
                    let want = model.observe(&pool[i], cycle);
                    refused = got == Observation::Expired;
                    prop_assert_eq!(got, want, "step {} ({:?}) at cycle {}", step, op, cycle);
                }
                Op::Prune(dt) => {
                    cycle = (cycle + dt).min(LAST_CYCLE);
                    cache.prune(cycle);
                    model.prune(cycle);
                }
                Op::Idle(dt) => cycle = (cycle + dt).min(LAST_CYCLE),
                Op::Purge(c) => {
                    let creator = kp(c + 1).public();
                    cache.purge_creator(&creator);
                    model.purge_creator(&creator);
                }
                Op::Ballast => {
                    for d in &ballast(cycle) {
                        let got = cache.observe(d, cycle);
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
                // The observation after the catch-up drops expired slots
                // only, and evicts at most one visible slot.
                _ if catches_up => prop_assert!(
                    expired <= (held.visible_slots + 1) / 16,
                    "step {}: {} expired slots left beside {} visible", step, expired,
                    held.visible_slots
                ),
                _ => prop_assert!(
                    expired <= expired_before,
                    "step {}: slots expired outside prune ({} -> {})", step, expired_before,
                    expired
                ),
            }
            if let (Op::Observe(i), false) = (*op, refused) {
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
            let c = held.creators;
            prop_assert!(
                held.run_capacity - c <= (c / 8).max(4),
                "step {}: room for {} runs of {} creators", step, held.run_capacity, c
            );
            prop_assert!(
                held.buckets <= 2 * (8 * c).div_ceil(7),
                "step {}: {} buckets for {} creators", step, held.buckets, c
            );
            // Together: a run and at most 4 bytes a bucket.
            let runs = c + (c / 8).max(4);
            let most = runs * CacheFootprint::RUN_BYTES + 2 * (8 * c).div_ceil(7) * 4;
            prop_assert!(
                held.index_bytes <= most,
                "step {}: {} bytes of index for {} creators", step, held.index_bytes, c
            );
        }
    }

    #[test]
    fn inside_the_window_the_cache_judges_as_the_last_sighting_model(
        raw in proptest::collection::vec((0u8..9, any::<u64>()), 1..120)
    ) {
        let ops: Vec<Op> = raw.into_iter().map(op).collect();
        let pool = pool();
        let mut cache = SampleCache::new(RETENTION, PERIOD);
        let mut model = Model::new(Expiry::LastSighting);
        let mut cycle = 0u64;
        for (step, op) in ops.iter().enumerate() {
            match *op {
                // Only arrivals younger than the window: created at most
                // W − 1 cycles ago, and not after the clock.
                Op::Observe(i) if (cycle.saturating_sub(RETENTION - 1)..=cycle)
                    .contains(&created(&pool[i])) =>
                {
                    let got = cache.observe(&pool[i], cycle);
                    let want = model.observe(&pool[i], cycle);
                    prop_assert_eq!(got, want, "step {} ({:?}) at cycle {}", step, op, cycle);
                }
                Op::Observe(_) | Op::Ballast => {}
                Op::Prune(dt) => {
                    cycle = (cycle + dt).min(LAST_CYCLE);
                    cache.prune(cycle);
                    model.prune(cycle);
                }
                Op::Idle(dt) => cycle = (cycle + dt).min(LAST_CYCLE),
                Op::Purge(c) => {
                    let creator = kp(c + 1).public();
                    cache.purge_creator(&creator);
                    model.purge_creator(&creator);
                }
            }
        }
    }
}

/// The model tests would be vacuous if the streams never reached the
/// interesting verdicts; pin that a fixed stream reaches all seven.
#[test]
fn pool_reaches_every_observation_class() {
    let pool = pool();
    let mut cache = SampleCache::new(RETENTION, PERIOD);
    let mut model = Model::new(Expiry::Creation);
    // base, held, extended, held (known), ns vs extended, fork (cloning),
    // forged link (forged), twin (Δt=0 frequency), forged genesis, the
    // second timestamp of the first creator, 400 ticks away (frequency),
    // and the first creator's stamp of cycle 5, a window ahead of 0.
    let stream = [0usize, 1, 2, 1, 4, 3, 6, 5, 7, VARIANTS, 5 * VARIANTS];
    let mut seen = Vec::new();
    for i in stream {
        let got = cache.observe(&pool[i], 0);
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
    assert!(
        matches!(seen[9], Observation::Violation(_)),
        "{:?}",
        seen[9]
    );
    assert_eq!(seen[10], Observation::Expired, "too young");
    // And too old, once it is a window old.
    cache.prune(RETENTION);
    assert_eq!(cache.observe(&pool[0], RETENTION), Observation::Expired);
}
