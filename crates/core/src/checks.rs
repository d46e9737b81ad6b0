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
/// before. Expired slots are physically dropped when their creator next
/// gains a sample, and by a full sweep every half retention window, so
/// dead storage is bounded by half a window's worth of sightings.
pub struct SampleCache {
    /// creator → that creator's samples, sorted by creation timestamp
    /// (unique among a creator's visible slots). A sorted `Vec` beats a
    /// tree here: per-creator counts are bounded by the retention window,
    /// so the O(n) insert memmoves stay a few cache lines while lookups
    /// avoid pointer-chasing and per-node allocation entirely.
    by_creator: FxHashMap<NodeId, Vec<Slot>>,
    /// Slots with `last_seen < horizon` are expired.
    horizon: u64,
    live: Live,
    /// Cycle of the next full sweep of expired slots.
    next_sweep: u64,
    retention_cycles: u64,
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
            next_sweep: 0,
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
        let mut pos = slots.partition_point(|s| s.ts < ts);

        // Ownership check against a cached copy of the same token.
        if let Some(cached) = slots
            .get_mut(pos)
            .filter(|s| s.ts == ts && s.last_seen >= horizon)
        {
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

        // First sighting of this id. The creator's slots are about to be
        // shifted anyway: drop the expired ones (possibly one with this
        // very timestamp) while they are in cache.
        if slots.iter().any(|s| s.last_seen < horizon) {
            slots.retain(|s| s.last_seen >= horizon);
            pos = slots.partition_point(|s| s.ts < ts);
        }

        // Frequency check: another creation by the same creator strictly
        // closer than one period. No slot carries `ts` itself here, and
        // the scan runs upwards, so the lowest-timestamp conflict wins.
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
                        if slots.is_empty() {
                            self.by_creator.remove(&id.creator);
                        }
                    }
                    Observation::Forged
                }
            };
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
        Observation::New
    }

    /// Expires samples not seen for longer than the retention window.
    ///
    /// O(cycles the horizon advances): the per-cycle counters settle
    /// [`SampleCache::len`]; no slot is visited. Every half window the
    /// expired slots nobody has displaced since are swept out.
    pub fn prune(&mut self, now_cycle: u64) {
        let horizon = now_cycle.saturating_sub(self.retention_cycles);
        if horizon > self.horizon {
            self.horizon = horizon;
            self.live.expire_before(horizon);
        }
        if now_cycle >= self.next_sweep {
            self.next_sweep = now_cycle + (self.retention_cycles / 2).max(1);
            let horizon = self.horizon;
            self.by_creator.retain(|_, slots| {
                slots.retain(|s| s.last_seen >= horizon);
                !slots.is_empty()
            });
        }
    }

    /// Removes every sample created by `creator` (post-blacklist purge).
    pub fn purge_creator(&mut self, creator: &NodeId) {
        let Some(slots) = self.by_creator.remove(creator) else {
            return;
        };
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

    #[test]
    fn expired_slot_is_invisible_before_it_is_dropped() {
        let (a, b) = (kp(1), kp(2));
        let mut cache = SampleCache::new(10);
        let da = SecureDescriptor::create(&a, 0, Timestamp(5000));
        let db = SecureDescriptor::create(&b, 0, Timestamp(5000));
        assert_eq!(cache.observe(&da, 1, PERIOD), Observation::New);
        assert_eq!(cache.observe(&db, 1, PERIOD), Observation::New);
        // Sweeps fall on cycles 0, 5 and 10; the prune at 12 expires both
        // samples (horizon 2) without sweeping them.
        for cycle in [0, 5, 10, 12] {
            cache.prune(cycle);
        }
        let stored = |c: &SampleCache, k: &Keypair| c.by_creator.get(&k.public()).map(Vec::len);
        assert_eq!(stored(&cache, &a), Some(1), "still in memory");
        assert_eq!(stored(&cache, &b), Some(1), "still in memory");
        assert_eq!(cache.len(), 0);
        assert!(cache.is_empty());
        assert!(cache.get(&da.id()).is_none());
        assert_eq!(cache.descriptors().count(), 0);
        // Neither check sees an expired slot: a creation half a period
        // from `da` is a first sighting, not a frequency violation, and
        // the expired copy of `db` does not make `db` known.
        let da_close = SecureDescriptor::create(&a, 0, Timestamp(5500));
        assert_eq!(cache.observe(&da_close, 12, PERIOD), Observation::New);
        assert_eq!(cache.observe(&db, 12, PERIOD), Observation::New);
        assert_eq!(
            stored(&cache, &a),
            Some(1),
            "touching the creator dropped it"
        );
        assert_eq!(stored(&cache, &b), Some(1));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&da.id()).is_none());
        assert_eq!(cache.get(&da_close.id()), Some(&da_close));
        // A creator nobody touches again is swept out (sweeps at 15, 20
        // and 25; both samples expire at 23).
        for cycle in [15, 20, 23] {
            cache.prune(cycle);
        }
        assert_eq!(cache.len(), 0);
        assert_eq!(stored(&cache, &a), Some(1), "expired, sweep not due");
        cache.prune(25);
        assert!(cache.by_creator.is_empty(), "swept");
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
