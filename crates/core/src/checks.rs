//! The sample cache and the two violation checks of §IV-B.
//!
//! Every descriptor a node receives — owned or merely copied ("sample") —
//! is run through:
//!
//! * the **frequency check**: its creation timestamp is compared against
//!   all cached samples by the same creator; two distinct descriptors
//!   closer than the gossip period prove a frequency violation;
//! * the **ownership check**: if a sample with the same [`DescriptorId`]
//!   is cached, the two chains of ownership must be compatible (one a
//!   prefix of the other); divergence proves a cloning violation by the
//!   owner at the fork.
//!
//! Descriptors that pass are cached for future cross-checking. The cache
//! retains samples for a configurable number of cycles — descriptors live
//! ~ℓ cycles (§VI-A), so a few multiples of ℓ preserves every useful
//! conflict while bounding memory.
//!
//! # Lazy verification
//!
//! Samples are cached **without** verifying their signatures; the
//! expensive chain verification runs only when two copies actually
//! conflict, inside proof construction ([`ViolationProof`] re-validates
//! both sides). This is safe: a forged sample can never produce a valid
//! proof against anyone (proofs are self-certifying), and at conflict
//! time whichever side fails verification is simply evicted. Honest
//! networks therefore pay hashing costs only for owned descriptors, and
//! verification costs only under attack.

use crate::chain::{compare_chains, ChainRelation, CompareError};
use crate::descriptor::{DescriptorId, LinkKind, SecureDescriptor};
use crate::proof::ViolationProof;
use sc_crypto::{FxHashMap, NodeId};
use std::collections::VecDeque;

/// Result of observing one descriptor against the cache.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Observation {
    /// First sighting; the descriptor was cached.
    New,
    /// A longer chain for a known descriptor; the cache was updated.
    Extended,
    /// Identical to or older than the cached copy; nothing to do.
    AlreadyKnown,
    /// The sanctioned transfer / non-swappable-redemption divergence
    /// (§V-A); the circulating (transfer-side) copy was retained.
    NsException,
    /// The descriptor conflicted with a cached sample, but one of the two
    /// copies fails signature verification — someone injected a forged
    /// descriptor. The forged side was evicted; no violation is provable.
    Forged,
    /// The descriptor conflicts with a cached sample: indisputable proof
    /// of a violation.
    Violation(Box<ViolationProof>),
}

/// One cached sample. Three words: most observations are first sightings,
/// so the bytes written per sighting are what a node-cycle costs.
struct Slot {
    /// Creation timestamp in ticks; with the map key it is the sample's
    /// [`DescriptorId`].
    ts: u64,
    last_seen: u64,
    desc: SecureDescriptor,
}

/// Cache of descriptor samples behind a single index.
///
/// One hash lookup by creator serves the ownership check (binary search
/// for the timestamp), the frequency check (range scan around it) and the
/// insert.
///
/// Expiry is **logical**: [`SampleCache::prune`] only advances a horizon,
/// and a slot last seen before the horizon is invisible to every read
/// from then on. The horizon moves nowhere else — a node that serves a
/// request before its own turn in a cycle must still see what it saw
/// before.
///
/// What is *stored* follows what is visible closely, because at 24 bytes
/// a slot plus the chain blocks it pins, storage is what a simulated node
/// costs:
///
/// * **touch** — every `observe` drops the expired slots of the creator
///   it looks up, whatever its verdict, so no expired slot survives a
///   touch of its creator;
/// * **sweep** — `prune` drops every expired slot once the stored-but-
///   expired ones outnumber a sixteenth of the visible ones
///   (`stored − visible > visible / 16`). Expired slots appear nowhere
///   but in `prune`, so between two prunes their number only falls;
/// * **growth** — a full vector grows by doubling up to
///   [`SLACK_SLOTS`] and by [`SLACK_SLOTS`] from there (`reserve_exact`:
///   a creator seen once costs one slot, not the four `Vec` starts at);
/// * **shrink** — whenever slots are dropped, a vector left with more
///   spare room than it has slots, or than [`SLACK_SLOTS`], is cut back
///   to fit. Spare capacity is therefore at most [`SLACK_SLOTS`] slots a
///   creator, always.
pub struct SampleCache {
    /// creator → that creator's samples, sorted by creation timestamp
    /// (unique among a creator's stored slots). A sorted `Vec` beats a
    /// tree here: per-creator counts are bounded by the retention window,
    /// so the O(n) insert memmoves stay a few cache lines while lookups
    /// avoid pointer-chasing and per-node allocation entirely.
    by_creator: FxHashMap<NodeId, Vec<Slot>>,
    /// Slots with `last_seen < horizon` are expired.
    horizon: u64,
    live: Live,
    /// Number of slots in memory: the visible ones (`live.len`) plus the
    /// expired ones no touch or sweep has dropped yet.
    stored: usize,
    retention_cycles: u64,
}

/// A slot vector's spare room: the step a full one grows by once it holds
/// that many, and the most one keeps after slots were dropped from it.
/// One number for both, so that a vector alternating one insert with one
/// expiry reallocates on neither.
pub const SLACK_SLOTS: usize = 4;

/// Drops the expired slots of one creator and cuts the vector back if
/// that left it mostly empty; returns how many were dropped.
fn drop_expired(slots: &mut Vec<Slot>, horizon: u64) -> usize {
    let before = slots.len();
    slots.retain(|s| s.last_seen >= horizon);
    if slots.capacity() - slots.len() > slots.len().min(SLACK_SLOTS) {
        slots.shrink_to_fit();
    }
    before - slots.len()
}

/// What a [`SampleCache`] occupies, beside what it shows. Not protocol
/// surface: memory oracles and sizing tools read it.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheFootprint {
    /// Slots every read sees ([`SampleCache::len`]).
    pub visible_slots: usize,
    /// Slots in memory, expired ones included.
    pub stored_slots: usize,
    /// Summed capacity of the slot vectors, in slots.
    pub slot_capacity: usize,
    /// Creators with a slot vector.
    pub creators: usize,
}

impl CacheFootprint {
    /// Bytes of one slot.
    pub const SLOT_BYTES: usize = core::mem::size_of::<Slot>();
}

impl core::fmt::Debug for SampleCache {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SampleCache")
            .field("samples", &self.live.len)
            .field("creators", &self.by_creator.len())
            .field("retention_cycles", &self.retention_cycles)
            .finish()
    }
}

/// How many slots are visible, in total and by the cycle they were last
/// seen in — so advancing the horizon settles the total without touching
/// a slot.
#[derive(Default)]
struct Live {
    /// Number of visible slots.
    len: usize,
    /// `counts[i]` of them were last seen at cycle `base + i`.
    counts: VecDeque<u32>,
    /// Meaningless while `counts` is empty.
    base: u64,
}

impl Live {
    /// The cycle a sighting at `now_cycle` is recorded under. With the
    /// protocol's monotonic clock that is `now_cycle` itself; if a caller
    /// rewinds anyway the sighting counts for the earliest cycle still
    /// tracked, which at worst retains the slot past its window (never
    /// expires it early).
    fn clock(&mut self, now_cycle: u64, horizon: u64) -> u64 {
        if self.counts.is_empty() {
            self.base = now_cycle.max(horizon);
        }
        now_cycle.max(self.base)
    }

    fn count(&mut self, cycle: u64) -> &mut u32 {
        let idx = (cycle - self.base) as usize;
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, 0);
        }
        &mut self.counts[idx]
    }

    fn added(&mut self, cycle: u64) {
        *self.count(cycle) += 1;
        self.len += 1;
    }

    fn removed(&mut self, cycle: u64) {
        *self.count(cycle) -= 1;
        self.len -= 1;
    }

    fn moved(&mut self, from: u64, to: u64) {
        *self.count(from) -= 1;
        *self.count(to) += 1;
    }

    /// Forgets the slots last seen before `horizon`.
    fn expire_before(&mut self, horizon: u64) {
        while self.base < horizon {
            let Some(expired) = self.counts.pop_front() else {
                break;
            };
            self.len -= expired as usize;
            self.base += 1;
        }
    }
}

impl SampleCache {
    /// Creates an empty cache retaining samples for `retention_cycles`
    /// cycles after their last sighting.
    pub fn new(retention_cycles: u64) -> Self {
        SampleCache {
            by_creator: FxHashMap::default(),
            horizon: 0,
            live: Live::default(),
            stored: 0,
            retention_cycles,
        }
    }

    /// Number of cached samples.
    pub fn len(&self) -> usize {
        self.live.len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.live.len == 0
    }

    /// Returns the cached copy of `id`, if any.
    pub fn get(&self, id: &DescriptorId) -> Option<&SecureDescriptor> {
        let slots = self.by_creator.get(&id.creator)?;
        let ts = id.created_at.ticks();
        let slot = slots.get(slots.partition_point(|s| s.ts < ts))?;
        (slot.ts == ts && slot.last_seen >= self.horizon).then_some(&slot.desc)
    }

    /// Iterates over the cached descriptors, in no particular order. Used
    /// by the §V-A rejoin trigger: a starved node mines its sample cache
    /// for the creator addresses it most recently heard from.
    pub fn descriptors(&self) -> impl Iterator<Item = &SecureDescriptor> {
        let horizon = self.horizon;
        self.by_creator
            .values()
            .flatten()
            .filter(move |s| s.last_seen >= horizon)
            .map(|s| &s.desc)
    }

    /// Every descriptor in memory: [`SampleCache::descriptors`] plus the
    /// expired ones not yet dropped, which pin their chain blocks just
    /// the same.
    #[doc(hidden)]
    pub fn stored_descriptors(&self) -> impl Iterator<Item = &SecureDescriptor> {
        self.by_creator.values().flatten().map(|s| &s.desc)
    }

    /// What the cache occupies. O(creators).
    #[doc(hidden)]
    pub fn footprint(&self) -> CacheFootprint {
        let vectors = self.by_creator.values();
        debug_assert_eq!(vectors.clone().map(Vec::len).sum::<usize>(), self.stored);
        CacheFootprint {
            visible_slots: self.live.len,
            stored_slots: self.stored,
            slot_capacity: vectors.map(Vec::capacity).sum(),
            creators: self.by_creator.len(),
        }
    }

    /// Runs both §IV-B checks on `desc` and caches it if it passes.
    ///
    /// Signature verification is lazy (see module docs): it runs only
    /// when `desc` conflicts with a cached copy, as part of proof
    /// construction.
    pub fn observe(
        &mut self,
        desc: &SecureDescriptor,
        now_cycle: u64,
        period_ticks: u64,
    ) -> Observation {
        let id = desc.id();
        let ts = id.created_at.ticks();
        let horizon = self.horizon;
        let live = &mut self.live;
        let now = live.clock(now_cycle, horizon);
        // The one lookup. A creator's entry is never left empty: every
        // path below that does not insert found a conflicting slot.
        let slots = self.by_creator.entry(id.creator).or_default();
        // The touch rule: the creator's expired slots (possibly one with
        // this very timestamp) go while its vector is in cache anyway.
        if self.stored > live.len {
            self.stored -= drop_expired(slots, horizon);
        }
        let pos = slots.partition_point(|s| s.ts < ts);

        // Ownership check against a cached copy of the same token.
        if let Some(cached) = slots.get_mut(pos).filter(|s| s.ts == ts) {
            if cached.last_seen != now {
                live.moved(cached.last_seen, now);
                cached.last_seen = now;
            }
            return match compare_chains(&cached.desc, desc) {
                Ok(ChainRelation::Identical) | Ok(ChainRelation::LeftExtendsRight) => {
                    Observation::AlreadyKnown
                }
                Ok(ChainRelation::RightExtendsLeft) => {
                    cached.desc = desc.clone();
                    Observation::Extended
                }
                Ok(ChainRelation::Divergent {
                    index,
                    ns_exception: true,
                    ..
                }) => {
                    // Keep whichever copy continues circulating (the
                    // transfer side); the NS copy is terminal.
                    let cached_is_ns = cached
                        .desc
                        .link(index)
                        .is_some_and(|l| l.kind == LinkKind::RedeemNonSwappable);
                    if cached_is_ns {
                        cached.desc = desc.clone();
                    }
                    Observation::NsException
                }
                Ok(ChainRelation::Divergent {
                    ns_exception: false,
                    ..
                }) => match ViolationProof::cloning(cached.desc.clone(), desc.clone()) {
                    Ok(proof) => Observation::Violation(Box::new(proof)),
                    Err(_) => {
                        // One side is forged: keep whichever verifies.
                        if cached.desc.verify().is_err() && desc.verify().is_ok() {
                            cached.desc = desc.clone();
                        }
                        Observation::Forged
                    }
                },
                // Two distinct creations with the same timestamp: a
                // frequency violation with Δt = 0.
                Err(CompareError::GenesisMismatch) => {
                    match ViolationProof::frequency(cached.desc.clone(), desc.clone(), period_ticks)
                    {
                        Ok(proof) => Observation::Violation(Box::new(proof)),
                        Err(_) => {
                            if cached.desc.verify().is_err() && desc.verify().is_ok() {
                                cached.desc = desc.clone();
                            }
                            Observation::Forged
                        }
                    }
                }
                Err(CompareError::DifferentIds) => unreachable!("looked up by id"),
            };
        }

        // First sighting of this id. Frequency check: another creation by
        // the same creator strictly closer than one period. No slot
        // carries `ts` itself here, and the scan runs upwards, so the
        // lowest-timestamp conflict wins.
        let lo = ts.saturating_sub(period_ticks - 1);
        let hi = ts.saturating_add(period_ticks - 1);
        let start = slots.partition_point(|s| s.ts < lo);
        if let Some(conflict) = slots.get(start).filter(|s| s.ts <= hi) {
            let other = conflict.desc.clone();
            return match ViolationProof::frequency(other, desc.clone(), period_ticks) {
                Ok(proof) => Observation::Violation(Box::new(proof)),
                Err(_) => {
                    // One of the two creations is forged; evict it if it
                    // is the cached one and the incoming verifies.
                    if desc.verify().is_ok() && slots[start].desc.verify().is_err() {
                        live.removed(slots.remove(start).last_seen);
                        self.stored -= 1;
                        if slots.is_empty() {
                            self.by_creator.remove(&id.creator);
                        }
                    }
                    Observation::Forged
                }
            };
        }

        if slots.len() == slots.capacity() {
            slots.reserve_exact(slots.len().clamp(1, SLACK_SLOTS));
        }
        slots.insert(
            pos,
            Slot {
                ts,
                last_seen: now,
                desc: desc.clone(),
            },
        );
        live.added(now);
        self.stored += 1;
        Observation::New
    }

    /// Expires samples not seen for longer than the retention window.
    ///
    /// O(cycles the horizon advances): the per-cycle counters settle
    /// [`SampleCache::len`]; no slot is visited — unless the expired
    /// slots no touch has dropped now outnumber a sixteenth of the
    /// visible ones, and are swept out.
    pub fn prune(&mut self, now_cycle: u64) {
        let horizon = self
            .horizon
            .max(now_cycle.saturating_sub(self.retention_cycles));
        if horizon > self.horizon {
            self.horizon = horizon;
            self.live.expire_before(horizon);
        }
        if self.stored - self.live.len > self.live.len / 16 {
            self.by_creator.retain(|_, slots| {
                drop_expired(slots, horizon);
                !slots.is_empty()
            });
            self.stored = self.live.len;
        }
    }

    /// Removes every sample created by `creator` (post-blacklist purge).
    pub fn purge_creator(&mut self, creator: &NodeId) {
        let Some(slots) = self.by_creator.remove(creator) else {
            return;
        };
        self.stored -= slots.len();
        for slot in slots.iter().filter(|s| s.last_seen >= self.horizon) {
            self.live.removed(slot.last_seen);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proof::ProofKind;
    use crate::time::Timestamp;
    use sc_crypto::{Keypair, Scheme};

    const PERIOD: u64 = 1000;

    fn kp(tag: u8) -> Keypair {
        Keypair::from_seed(Scheme::Schnorr61, [tag; 32])
    }

    #[test]
    fn new_then_known() {
        let mut cache = SampleCache::new(60);
        let d = SecureDescriptor::create(&kp(1), 0, Timestamp(0));
        assert_eq!(cache.observe(&d, 0, PERIOD), Observation::New);
        assert_eq!(cache.observe(&d, 1, PERIOD), Observation::AlreadyKnown);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn longer_chain_extends() {
        let (a, b) = (kp(1), kp(2));
        let mut cache = SampleCache::new(60);
        let d = SecureDescriptor::create(&a, 0, Timestamp(0));
        let handed = d.transfer(&a, b.public()).unwrap();
        assert_eq!(cache.observe(&d, 0, PERIOD), Observation::New);
        assert_eq!(cache.observe(&handed, 1, PERIOD), Observation::Extended);
        // The shorter copy is now strictly older information.
        assert_eq!(cache.observe(&d, 2, PERIOD), Observation::AlreadyKnown);
        assert_eq!(cache.get(&d.id()).unwrap().transfer_count(), 1);
    }

    #[test]
    fn cloning_detected_with_correct_culprit() {
        let (a, b, c, d) = (kp(1), kp(2), kp(3), kp(4));
        let mut cache = SampleCache::new(60);
        let base = SecureDescriptor::create(&a, 0, Timestamp(0))
            .transfer(&a, b.public())
            .unwrap();
        let left = base.transfer(&b, c.public()).unwrap();
        let right = base.transfer(&b, d.public()).unwrap();
        assert_eq!(cache.observe(&left, 0, PERIOD), Observation::New);
        match cache.observe(&right, 1, PERIOD) {
            Observation::Violation(proof) => {
                assert_eq!(proof.kind(), ProofKind::Cloning);
                assert_eq!(proof.culprit(), b.public());
                assert!(proof.validate(PERIOD).is_ok());
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn frequency_detected_across_distinct_ids() {
        let a = kp(1);
        let mut cache = SampleCache::new(60);
        let d1 = SecureDescriptor::create(&a, 0, Timestamp(5000));
        let d2 = SecureDescriptor::create(&a, 0, Timestamp(5999));
        assert_eq!(cache.observe(&d1, 0, PERIOD), Observation::New);
        match cache.observe(&d2, 0, PERIOD) {
            Observation::Violation(proof) => {
                assert_eq!(proof.kind(), ProofKind::Frequency);
                assert_eq!(proof.culprit(), a.public());
                assert!(proof.validate(PERIOD).is_ok());
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn exact_period_spacing_is_legal() {
        let a = kp(1);
        let mut cache = SampleCache::new(60);
        for i in 0..5u64 {
            let d = SecureDescriptor::create(&a, 0, Timestamp(i * PERIOD + 137));
            assert_eq!(cache.observe(&d, i, PERIOD), Observation::New, "cycle {i}");
        }
    }

    #[test]
    fn same_timestamp_different_genesis_is_frequency() {
        let a = kp(1);
        let mut cache = SampleCache::new(60);
        let d1 = SecureDescriptor::create(&a, 0, Timestamp(5000));
        let d2 = SecureDescriptor::create(&a, 9, Timestamp(5000));
        cache.observe(&d1, 0, PERIOD);
        match cache.observe(&d2, 0, PERIOD) {
            Observation::Violation(proof) => {
                assert_eq!(proof.kind(), ProofKind::Frequency);
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn ns_exception_keeps_circulating_copy() {
        let (a, b, c) = (kp(1), kp(2), kp(3));
        let mut cache = SampleCache::new(60);
        let owned = SecureDescriptor::create(&a, 0, Timestamp(0))
            .transfer(&a, b.public())
            .unwrap();
        let ns_copy = owned.redeem(&b, LinkKind::RedeemNonSwappable).unwrap();
        let circulating = owned.transfer(&b, c.public()).unwrap();
        // NS copy arrives first, then the circulating one.
        assert_eq!(cache.observe(&ns_copy, 0, PERIOD), Observation::New);
        assert_eq!(
            cache.observe(&circulating, 0, PERIOD),
            Observation::NsException
        );
        assert_eq!(
            cache.get(&owned.id()).unwrap().chain().last().unwrap().kind,
            LinkKind::Transfer,
            "transfer side retained"
        );
        // Other order: circulating cached, NS observed later.
        let mut cache2 = SampleCache::new(60);
        assert_eq!(cache2.observe(&circulating, 0, PERIOD), Observation::New);
        assert_eq!(
            cache2.observe(&ns_copy, 0, PERIOD),
            Observation::NsException
        );
        assert_eq!(
            cache2
                .get(&owned.id())
                .unwrap()
                .chain()
                .last()
                .unwrap()
                .kind,
            LinkKind::Transfer
        );
    }

    #[test]
    fn prune_forgets_old_samples() {
        let a = kp(1);
        let mut cache = SampleCache::new(10);
        let d = SecureDescriptor::create(&a, 0, Timestamp(0));
        cache.observe(&d, 0, PERIOD);
        cache.prune(5);
        assert_eq!(cache.len(), 1, "within retention");
        cache.prune(11);
        assert_eq!(cache.len(), 0, "expired");
        // After pruning, re-observing is New again (index cleaned too).
        assert_eq!(cache.observe(&d, 12, PERIOD), Observation::New);
    }

    fn stored(cache: &SampleCache, k: &Keypair) -> Option<(usize, usize)> {
        let slots = cache.by_creator.get(&k.public())?;
        Some((slots.len(), slots.capacity()))
    }

    /// Shows `cache` one descriptor each of 160 creators nobody else
    /// uses, at `cycle`: enough visible slots that ten expired ones stay
    /// under the sweep trigger.
    fn fill(cache: &mut SampleCache, cycle: u64) {
        for tag in 0..160u8 {
            let creator = Keypair::from_seed(Scheme::KeyedHash, [tag; 32]);
            let d = SecureDescriptor::create(&creator, 0, Timestamp(0));
            cache.observe(&d, cycle, PERIOD);
        }
    }

    #[test]
    fn expired_slot_is_invisible_before_it_is_dropped() {
        let (a, b) = (kp(1), kp(2));
        let mut cache = SampleCache::new(10);
        let da = SecureDescriptor::create(&a, 0, Timestamp(5000));
        let db = SecureDescriptor::create(&b, 0, Timestamp(5000));
        assert_eq!(cache.observe(&da, 1, PERIOD), Observation::New);
        assert_eq!(cache.observe(&db, 1, PERIOD), Observation::New);
        fill(&mut cache, 5);
        // Horizon 2 expires both samples; 2 expired slots against 160
        // visible ones is not more than a sixteenth: no sweep.
        cache.prune(12);
        assert_eq!(stored(&cache, &a), Some((1, 1)), "still in memory");
        assert_eq!(stored(&cache, &b), Some((1, 1)), "still in memory");
        assert_eq!(cache.len(), 160);
        assert_eq!(cache.footprint().stored_slots, 162);
        assert!(cache.get(&da.id()).is_none());
        assert_eq!(cache.descriptors().count(), 160);
        assert_eq!(cache.stored_descriptors().count(), 162);
        // Neither check sees an expired slot: a creation half a period
        // from `da` is a first sighting, not a frequency violation, and
        // the expired copy of `db` does not make `db` known.
        let da_close = SecureDescriptor::create(&a, 0, Timestamp(5500));
        assert_eq!(cache.observe(&da_close, 12, PERIOD), Observation::New);
        assert_eq!(cache.observe(&db, 12, PERIOD), Observation::New);
        assert_eq!(stored(&cache, &a), Some((1, 1)), "the touch dropped it");
        assert_eq!(stored(&cache, &b), Some((1, 1)));
        assert_eq!(cache.len(), 162);
        assert_eq!(cache.footprint().stored_slots, 162);
        assert!(cache.get(&da.id()).is_none());
        assert_eq!(cache.get(&da_close.id()), Some(&da_close));
        // Creators nobody touches again are swept out as soon as they
        // are more than a sixteenth of what is visible: the 160 of cycle
        // 5 expire at horizon 6, against 2 visible slots.
        cache.prune(16);
        assert_eq!(cache.len(), 2);
        let footprint = cache.footprint();
        assert_eq!((footprint.stored_slots, footprint.creators), (2, 2));
    }

    #[test]
    fn any_touch_of_a_creator_drops_its_expired_slots() {
        let a = kp(1);
        let mut cache = SampleCache::new(10);
        let old = SecureDescriptor::create(&a, 0, Timestamp(0));
        let new = SecureDescriptor::create(&a, 0, Timestamp(5000));
        cache.observe(&old, 1, PERIOD);
        cache.observe(&new, 5, PERIOD);
        fill(&mut cache, 5);
        cache.prune(12);
        assert_eq!(stored(&cache, &a), Some((2, 2)), "expired, not swept");
        // A re-sighting inserts nothing and shifts nothing; the expired
        // slot goes all the same.
        assert_eq!(cache.observe(&new, 12, PERIOD), Observation::AlreadyKnown);
        assert_eq!(stored(&cache, &a), Some((1, 2)), "half empty: kept");
        assert_eq!(cache.footprint().stored_slots, cache.len());
    }

    #[test]
    fn slot_vectors_fit_what_they_hold() {
        let a = kp(1);
        let mut cache = SampleCache::new(10);
        let at = |i: u64| SecureDescriptor::create(&a, 0, Timestamp(i * PERIOD));
        // Growth: 1, 2, 4, then by `SLACK_SLOTS`. The first eight are last
        // seen at cycle 1, the last four at cycle 5.
        let mut capacities = Vec::new();
        for i in 0..12 {
            cache.observe(&at(i), if i < 8 { 1 } else { 5 }, PERIOD);
            capacities.push(stored(&cache, &a).unwrap().1);
        }
        assert_eq!(capacities, [1, 2, 4, 4, 8, 8, 8, 8, 12, 12, 12, 12]);
        // Shrink: eight of twelve expire; the touch that drops them
        // leaves more spare room than `SLACK_SLOTS`, so the vector is cut
        // back to fit. (`fill` keeps the sweep out of it.)
        fill(&mut cache, 5);
        cache.prune(12);
        assert_eq!(stored(&cache, &a), Some((12, 12)));
        assert_eq!(
            cache.observe(&at(11), 12, PERIOD),
            Observation::AlreadyKnown
        );
        assert_eq!(stored(&cache, &a), Some((4, 4)));
        // Dropping fewer than that keeps the room: the next sighting
        // needs it.
        for i in 12..16 {
            cache.observe(&at(i), 13, PERIOD);
        }
        fill(&mut cache, 13);
        cache.prune(16);
        assert_eq!(stored(&cache, &a), Some((8, 8)), "three of them expired");
        assert_eq!(
            cache.observe(&at(15), 16, PERIOD),
            Observation::AlreadyKnown
        );
        assert_eq!(stored(&cache, &a), Some((5, 8)));
    }

    #[test]
    fn horizon_moves_only_in_prune() {
        // A node serving a request before its own turn in a cycle has not
        // pruned for that cycle yet: it must still see what it saw before.
        let a = kp(1);
        let mut cache = SampleCache::new(10);
        let d = SecureDescriptor::create(&a, 0, Timestamp(0));
        cache.observe(&d, 0, PERIOD);
        cache.prune(10);
        assert_eq!(cache.observe(&d, 50, PERIOD), Observation::AlreadyKnown);
        assert_eq!(cache.len(), 1);
        cache.prune(50);
        assert_eq!(cache.len(), 1, "re-sighted at 50");
        cache.prune(61);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn purge_creator_removes_their_samples() {
        let (a, b) = (kp(1), kp(2));
        let mut cache = SampleCache::new(60);
        cache.observe(&SecureDescriptor::create(&a, 0, Timestamp(0)), 0, PERIOD);
        cache.observe(&SecureDescriptor::create(&b, 0, Timestamp(0)), 0, PERIOD);
        cache.purge_creator(&a.public());
        assert_eq!(cache.len(), 1);
        assert!(cache
            .get(&DescriptorId {
                creator: b.public(),
                created_at: Timestamp(0)
            })
            .is_some());
    }

    #[test]
    fn debug_nonempty() {
        assert!(!format!("{:?}", SampleCache::new(3)).is_empty());
    }
}
