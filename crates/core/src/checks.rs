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
//! Descriptors that pass are cached for future cross-checking until
//! [`crate::node::SAMPLE_RETENTION_CYCLES`] after their **creation** —
//! descriptors live ~ℓ cycles (§VI-A), so a window of a few multiples of ℓ
//! preserves every useful conflict while bounding memory. The same window
//! is the intake cap: a descriptor a window old is refused
//! ([`Observation::Expired`]), checked against nothing and cached nowhere.
//! Expiry therefore depends on the descriptor alone, not on traffic: every
//! copy the cache accepts meets every earlier copy of its id it accepted,
//! however long either was held back.
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
use crate::time::Timestamp;
use sc_crypto::{FxBuildHasher, NodeId};
use std::collections::VecDeque;
use std::hash::BuildHasher;

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
    Violation(ViolationProof),
    /// The descriptor was created outside the window the cache admits:
    /// a window or more before the cache's clock, or more than a window
    /// after the observer's (a stamp no honest creator makes, and one that
    /// would pin a slot for longer than a window). Neither checked nor
    /// cached, and no evidence of anything: no honest peer sends one.
    Expired,
}

/// One cached sample. Two words: most observations are first sightings,
/// so the bytes written per sighting are what a node-cycle costs.
struct Slot {
    /// Creation timestamp in ticks; with the descriptor's creator it is
    /// the sample's [`DescriptorId`], and it alone decides when the slot
    /// expires.
    ts: u64,
    desc: SecureDescriptor,
}

/// The samples of one run of the creator index, sorted by creation
/// timestamp. Most creators have one sample in the window (at n = 10⁴ a
/// node caches 1.2 a creator), and it is held in the run itself: a
/// creator's second sample moves both into a vector of two, and a vector
/// cut back to one slot gives it back.
enum Slots {
    /// One slot, with no allocation of its own.
    One(Slot),
    /// Any number of slots, grown and cut back by [`SampleCache`]'s rules.
    Many(Vec<Slot>),
}

impl Default for Slots {
    fn default() -> Self {
        Slots::Many(Vec::new())
    }
}

impl Slots {
    fn as_slice(&self) -> &[Slot] {
        match self {
            Slots::One(slot) => core::slice::from_ref(slot),
            Slots::Many(slots) => slots,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Slot] {
        match self {
            Slots::One(slot) => core::slice::from_mut(slot),
            Slots::Many(slots) => slots,
        }
    }

    fn len(&self) -> usize {
        self.as_slice().len()
    }

    fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Room in slots; one held inline counts as one.
    fn capacity(&self) -> usize {
        match self {
            Slots::One(_) => 1,
            Slots::Many(slots) => slots.capacity(),
        }
    }

    /// Inserts `slot` at `pos`, growing a full vector by doubling up to
    /// [`SLACK_SLOTS`] and by [`SLACK_SLOTS`] from there.
    fn insert(&mut self, pos: usize, slot: Slot) {
        match self {
            Slots::Many(slots) if slots.capacity() == 0 => *self = Slots::One(slot),
            Slots::Many(slots) => {
                if slots.len() == slots.capacity() {
                    slots.reserve_exact(slots.len().min(SLACK_SLOTS));
                }
                slots.insert(pos, slot);
            }
            Slots::One(_) => {
                let Slots::One(first) = core::mem::take(self) else {
                    unreachable!("matched above")
                };
                let mut slots = Vec::with_capacity(2);
                slots.push(first);
                slots.insert(pos, slot);
                *self = Slots::Many(slots);
            }
        }
    }

    fn remove(&mut self, pos: usize) -> Slot {
        match self {
            Slots::One(_) => match core::mem::take(self) {
                Slots::One(slot) => slot,
                Slots::Many(_) => unreachable!("matched above"),
            },
            Slots::Many(slots) => slots.remove(pos),
        }
    }

    /// Keeps the slots `keep` returns true for and cuts a vector back to
    /// fit if that left it more spare room than it has slots, or than
    /// [`SLACK_SLOTS`]; returns how many were dropped.
    fn retain(&mut self, mut keep: impl FnMut(&Slot) -> bool) -> usize {
        let slots = match self {
            Slots::One(slot) if keep(slot) => return 0,
            Slots::One(_) => {
                *self = Slots::default();
                return 1;
            }
            Slots::Many(slots) => slots,
        };
        let before = slots.len();
        slots.retain(keep);
        let dropped = before - slots.len();
        if slots.capacity() - slots.len() > slots.len().min(SLACK_SLOTS) {
            if slots.len() == 1 {
                let last = slots.pop().expect("one slot");
                *self = Slots::One(last);
            } else {
                slots.shrink_to_fit();
            }
        }
        dropped
    }

    /// Drops the slots created before `floor` (in ticks); returns how many
    /// were dropped. The expired slots are a prefix, so a run whose first
    /// slot is younger has none. (One `retain` pass measures faster than
    /// finding the prefix and draining it, for the usual prefix of one.)
    fn drop_expired(&mut self, floor: u64) -> usize {
        if self.as_slice().first().is_none_or(|s| s.ts >= floor) {
            return 0;
        }
        self.retain(|s| s.ts >= floor)
    }
}

/// Cache of descriptor samples behind a single index.
///
/// One hash lookup by creator serves the ownership check (binary search
/// for the timestamp), the frequency check (range scan around it) and the
/// insert.
///
/// Expiry is **logical** and goes by creation cycle: [`SampleCache::prune`]
/// only advances the cache's clock `t`. With a window of `W` cycles, intake
/// admits a descriptor while it is younger than the window (created after
/// cycle `t − W`), and its slot stays visible to every read one cycle
/// longer, through cycle `t − W`: that cycle of grace keeps a slot visible
/// while a frequency conflict with it — a creation less than a period
/// later, so at most one cycle later — can still be admitted. A node that
/// serves a request before its own turn in a cycle must still see what it
/// saw before, so the clock moves nowhere else but in one catch-up:
/// `observe` at a cycle more than one past the clock first prunes to the
/// cycle before it, as the turn the node missed (or, if it is new, has
/// yet to take) would have. Counting therefore starts near the observer's cycle, and
/// the per-cycle counters span at most `2W + 2` cycles, however long
/// after cycle 0 a cache is created.
///
/// What is *stored* follows what is visible closely, because at 16 bytes
/// a slot plus the chain blocks it pins, storage is what a simulated node
/// costs:
///
/// * **touch** — every `observe` drops the expired slots of the run it
///   looks up, whatever its verdict, so no expired slot survives a touch
///   of its creator. A run's slots are sorted by creation, so its expired
///   ones are a prefix, and one whose first slot is still visible costs a
///   single comparison;
/// * **sweep** — `prune` drops every expired slot once the stored-but-
///   expired ones outnumber a sixteenth of the visible ones
///   (`stored − visible > visible / 16`). Expired slots appear nowhere
///   but in `prune`, so between two prunes their number only falls;
/// * **growth** — a run's first slot is held inline in the run, with no
///   allocation of its own; a second moves both into a vector of two,
///   and a full vector grows by doubling up to [`SLACK_SLOTS`] and by
///   [`SLACK_SLOTS`] from there (`reserve_exact`);
/// * **shrink** — whenever slots are dropped, a vector left with more
///   spare room than it has slots, or than [`SLACK_SLOTS`], is cut back
///   to fit, and one cut back to a single slot gives it back to the run.
///   Spare capacity is therefore at most [`SLACK_SLOTS`] slots a run,
///   always.
///
/// A run is keyed by its creator's 32-bit hash, not by the creator: the
/// slots' descriptors name it already. Creators whose hashes collide
/// share a run (their slots interleave by timestamp, ties allowed), so a
/// slot's creator is read only where that slot decides a verdict: the
/// same-timestamp slots of the ownership check, the slots inside the
/// frequency window, [`SampleCache::get`] and
/// [`SampleCache::purge_creator`]. A first sighting outside every window,
/// and the sweep, read no cached descriptor.
pub struct SampleCache {
    /// creator hash → the samples of the creators with that hash, sorted
    /// by creation timestamp. A sorted `Vec` beats a tree here: per-run
    /// counts are bounded by the retention window, so the O(n) insert
    /// memmoves stay a few cache lines while lookups avoid
    /// pointer-chasing and per-node allocation entirely.
    by_creator: CreatorIndex<Slots>,
    /// The cycle of the latest prune.
    clock: u64,
    live: Live,
    /// Number of slots in memory: the visible ones (`live.len`) plus the
    /// expired ones no touch or sweep has dropped yet.
    stored: usize,
    retention_cycles: u64,
    /// The gossip period: the frequency check's spacing, and what a
    /// creation timestamp is divided by to give its cycle.
    period_ticks: u64,
}

/// A slot vector's spare room: the step a full one grows by once it holds
/// that many, and the most one keeps after slots were dropped from it.
/// One number for both, so that a vector alternating one insert with one
/// expiry reallocates on neither.
pub const SLACK_SLOTS: usize = 4;

/// A [`SampleCache`]'s map from a creator's 32-bit hash to the slots of
/// the creators with that hash.
///
/// The `(hash, value)` runs sit in one dense vector, in no particular
/// order, and a power-of-two open-addressing table of 4-byte entries finds
/// them. An entry is 0 in an empty bucket; otherwise its bits under the
/// table's mask hold the run's position plus one (a table holds fewer runs
/// than buckets, so they fit), and its bits above the mask hold the hash
/// there, a tag that spares a probe the run's own hash. Probing is linear
/// from the bucket the hash's low bits name; a removal shifts the entries
/// behind it back, so no tombstone is left, and moves the last run into
/// the hole. Every entry is re-homed by its run's stored hash, so nothing
/// the index does reads a value. An empty bucket costs its 4 bytes where a
/// std map's held a key and a vector header.
///
/// Sizes follow the number of runs: the table is the smallest power of
/// two (at least 4) under a load of 7/8, doubled when an insert would pass
/// that and cut back once it is more than twice the size its runs need;
/// the run vector grows by an eighth of its length at a time (at least
/// [`MIN_RUN_STEP`] runs), and keeps no more spare room than one step.
struct CreatorIndex<V> {
    runs: Vec<(u32, V)>,
    table: Vec<u32>,
}

/// The least number of runs a full run vector grows by.
const MIN_RUN_STEP: usize = 4;

/// How many runs a full vector of `runs` grows by, and the most spare
/// room it keeps.
fn run_step(runs: usize) -> usize {
    (runs / 8).max(MIN_RUN_STEP)
}

/// The table size for `runs` runs: a load of at most 7/8, so some bucket
/// is always empty and every probe ends.
fn buckets_for(runs: usize) -> usize {
    match runs {
        0 => 0,
        n => (8 * n).div_ceil(7).next_power_of_two().max(4),
    }
}

/// The key of `creator`'s run in a [`CreatorIndex`].
fn creator_hash(creator: &NodeId) -> u32 {
    (FxBuildHasher::default().hash_one(creator) >> 32) as u32
}

impl<V: Default> CreatorIndex<V> {
    fn new() -> Self {
        CreatorIndex {
            runs: Vec::new(),
            table: Vec::new(),
        }
    }

    fn mask(&self) -> usize {
        self.table.len() - 1
    }

    fn len(&self) -> usize {
        self.runs.len()
    }

    /// The bucket holding `hash`'s entry and its run, or the empty bucket
    /// that ends its probe. The table must not be empty.
    fn probe(&self, hash: u32) -> (usize, Option<usize>) {
        let mask = self.mask();
        let mut bucket = hash as usize & mask;
        loop {
            let entry = self.table[bucket] as usize;
            if entry == 0 {
                return (bucket, None);
            }
            let run = (entry & mask) - 1;
            if entry & !mask == hash as usize & !mask && self.runs[run].0 == hash {
                return (bucket, Some(run));
            }
            bucket = (bucket + 1) & mask;
        }
    }

    /// The first empty bucket from `hash`'s own.
    fn vacancy(&self, hash: u32) -> usize {
        let mask = self.mask();
        let mut bucket = hash as usize & mask;
        while self.table[bucket] != 0 {
            bucket = (bucket + 1) & mask;
        }
        bucket
    }

    /// The bucket holding the entry of run `run`.
    fn bucket_of(&self, run: usize) -> usize {
        let mask = self.mask();
        let mut bucket = self.runs[run].0 as usize & mask;
        while self.table[bucket] as usize & mask != run + 1 {
            bucket = (bucket + 1) & mask;
        }
        bucket
    }

    /// Enters run `run`, keyed by `hash`, in `bucket`.
    fn enter(&mut self, bucket: usize, hash: u32, run: usize) {
        let mask = self.mask();
        self.table[bucket] = ((hash as usize & !mask) | (run + 1)) as u32;
    }

    /// A fresh table of `buckets` buckets holding every run.
    fn rebuild(&mut self, buckets: usize) {
        self.table = vec![0; buckets];
        for run in 0..self.runs.len() {
            let hash = self.runs[run].0;
            let bucket = self.vacancy(hash);
            self.enter(bucket, hash, run);
        }
    }

    /// The run keyed by `hash`, if there is one.
    fn find(&self, hash: u32) -> Option<usize> {
        if self.table.is_empty() {
            return None;
        }
        self.probe(hash).1
    }

    fn get(&self, hash: u32) -> Option<&V> {
        self.find(hash).map(|run| &self.runs[run].1)
    }

    /// The run keyed by `hash`, with a default value if there was none.
    fn run_of(&mut self, hash: u32) -> usize {
        let mut free = None;
        if !self.table.is_empty() {
            match self.probe(hash) {
                (_, Some(run)) => return run,
                (bucket, None) => free = Some(bucket),
            }
        }
        let run = self.runs.len();
        if 8 * (run + 1) > 7 * self.table.len() {
            self.rebuild(buckets_for(run + 1));
            free = None;
        }
        let bucket = free.unwrap_or_else(|| self.vacancy(hash));
        self.enter(bucket, hash, run);
        if self.runs.len() == self.runs.capacity() {
            self.runs.reserve_exact(run_step(run));
        }
        self.runs.push((hash, V::default()));
        run
    }

    /// Removes run `run` and shifts back the entries behind its own, then
    /// moves the last run into its place; the sizes are left as they are.
    fn take(&mut self, run: usize) -> V {
        let mask = self.mask();
        let mut hole = self.bucket_of(run);
        let mut next = hole;
        loop {
            next = (next + 1) & mask;
            let entry = self.table[next] as usize;
            if entry == 0 {
                break;
            }
            // An entry may fill the hole if its probe passes it: if its
            // own bucket is no nearer to it than the hole.
            let home = self.runs[(entry & mask) - 1].0 as usize & mask;
            if next.wrapping_sub(home) & mask >= next.wrapping_sub(hole) & mask {
                self.table[hole] = entry as u32;
                hole = next;
            }
        }
        self.table[hole] = 0;
        let last = self.runs.len() - 1;
        if run != last {
            let moved = self.bucket_of(last);
            self.table[moved] = ((self.table[moved] as usize & !mask) | (run + 1)) as u32;
        }
        self.runs.swap_remove(run).1
    }

    /// Cuts both vectors back to what the runs left need. The run vector
    /// keeps a step of room, so removals one at a time (a purge per
    /// proof) shrink it a run at a time, in place. (Keeping half a step,
    /// or none, reallocates less often but read up to 3 MB more peak RSS
    /// on some `sim-hub40` seeds.)
    fn fit(&mut self) {
        let runs = self.runs.len();
        if self.runs.capacity() - runs > run_step(runs) {
            self.runs.shrink_to(runs + run_step(runs));
        }
        if self.table.len() > 2 * (8 * runs).div_ceil(7) {
            self.rebuild(buckets_for(runs));
        }
    }

    /// Removes run `run`, returning its value.
    fn remove(&mut self, run: usize) -> V {
        let value = self.take(run);
        self.fit();
        value
    }

    /// Keeps the runs whose value `keep` (which may change it) returns
    /// true for. The table is rebuilt only if it must shrink.
    fn retain(&mut self, mut keep: impl FnMut(&mut V) -> bool) {
        let mut run = 0;
        while run < self.runs.len() {
            if keep(&mut self.runs[run].1) {
                run += 1;
            } else {
                self.take(run);
            }
        }
        self.fit();
    }

    fn values(&self) -> impl Iterator<Item = &V> + Clone {
        self.runs.iter().map(|(_, value)| value)
    }
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
    /// Room for slots: the summed capacity of the slot vectors, plus one
    /// for each slot held inline in its run.
    pub slot_capacity: usize,
    /// Runs in the creator index: one a creator, save where creators'
    /// hashes collide and they share one.
    pub creators: usize,
    /// Capacity of the creator index's run vector, in runs.
    pub run_capacity: usize,
    /// Buckets in the creator index's table.
    pub buckets: usize,
    /// What the creator index occupies beside the slots: its runs'
    /// capacity and its table, less the room of the slots held inline in
    /// a run, which `slot_capacity` counts.
    pub index_bytes: usize,
}

impl CacheFootprint {
    /// Bytes of one slot.
    pub const SLOT_BYTES: usize = core::mem::size_of::<Slot>();
    /// Bytes of one run of the creator index: a creator hash and its
    /// slots, one held inline or a vector's header.
    pub const RUN_BYTES: usize = core::mem::size_of::<(u32, Slots)>();
    /// Bytes of one bucket of the creator index's table.
    pub const ENTRY_BYTES: usize = core::mem::size_of::<u32>();
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

/// How many slots are visible, in total and by the cycle they were
/// created in — so advancing the clock settles the total without
/// touching a slot.
#[derive(Default)]
struct Live {
    /// Number of visible slots.
    len: usize,
    /// `counts[i]` of them were created in cycle `base + i`.
    counts: VecDeque<u32>,
    /// Meaningless while `counts` is empty.
    base: u64,
}

impl Live {
    fn count(&mut self, cycle: u64) -> &mut u32 {
        let idx = (cycle - self.base) as usize;
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, 0);
        }
        &mut self.counts[idx]
    }

    /// Counts a slot created in `cycle`, which is at least `horizon`, the
    /// earliest visible creation cycle.
    fn added(&mut self, cycle: u64, horizon: u64) {
        if self.counts.is_empty() {
            self.base = horizon;
        }
        *self.count(cycle) += 1;
        self.len += 1;
    }

    fn removed(&mut self, cycle: u64) {
        *self.count(cycle) -= 1;
        self.len -= 1;
    }

    /// Forgets the slots created before `floor`.
    fn expire_before(&mut self, floor: u64) {
        while self.base < floor {
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
    /// cycles after their creation, on a gossip period of `period_ticks`.
    ///
    /// # Panics
    ///
    /// Panics if `period_ticks` is zero.
    pub fn new(retention_cycles: u64, period_ticks: u64) -> Self {
        assert!(period_ticks > 0, "the gossip period must be positive");
        SampleCache {
            by_creator: CreatorIndex::new(),
            clock: 0,
            live: Live::default(),
            stored: 0,
            retention_cycles,
            period_ticks,
        }
    }

    /// The earliest visible creation cycle: a window before the clock.
    fn horizon(&self) -> u64 {
        self.clock.saturating_sub(self.retention_cycles)
    }

    /// The horizon in ticks.
    fn floor(&self) -> u64 {
        self.horizon() * self.period_ticks
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
        let ts = id.created_at.ticks();
        if ts < self.floor() {
            return None;
        }
        let slots = self.by_creator.get(creator_hash(&id.creator))?.as_slice();
        slots[slots.partition_point(|s| s.ts < ts)..]
            .iter()
            .take_while(|s| s.ts == ts)
            .find(|s| s.desc.creator() == id.creator)
            .map(|s| &s.desc)
    }

    /// Iterates over the cached descriptors, in no particular order. Used
    /// by the §V-A rejoin trigger: a starved node mines its sample cache
    /// for the creator addresses it most recently heard from.
    pub fn descriptors(&self) -> impl Iterator<Item = &SecureDescriptor> {
        let floor = self.floor();
        self.by_creator
            .values()
            .flat_map(Slots::as_slice)
            .filter(move |s| s.ts >= floor)
            .map(|s| &s.desc)
    }

    /// Every descriptor in memory: [`SampleCache::descriptors`] plus the
    /// expired ones not yet dropped, which pin their chain blocks just
    /// the same.
    #[doc(hidden)]
    pub fn stored_descriptors(&self) -> impl Iterator<Item = &SecureDescriptor> {
        self.by_creator
            .values()
            .flat_map(Slots::as_slice)
            .map(|s| &s.desc)
    }

    /// What the cache occupies. O(creators).
    #[doc(hidden)]
    pub fn footprint(&self) -> CacheFootprint {
        let runs = self.by_creator.values();
        debug_assert_eq!(runs.clone().map(Slots::len).sum::<usize>(), self.stored);
        let inline = runs.clone().filter(|s| matches!(s, Slots::One(_))).count();
        let index = &self.by_creator;
        let (run_capacity, buckets) = (index.runs.capacity(), index.table.len());
        CacheFootprint {
            visible_slots: self.live.len,
            stored_slots: self.stored,
            slot_capacity: runs.map(Slots::capacity).sum(),
            creators: self.by_creator.len(),
            run_capacity,
            buckets,
            index_bytes: run_capacity * CacheFootprint::RUN_BYTES
                + buckets * CacheFootprint::ENTRY_BYTES
                - inline * CacheFootprint::SLOT_BYTES,
        }
    }

    /// Whether a descriptor created at `created_at` was created a window
    /// or more before the clock: [`SampleCache::observe`] refuses it as
    /// [`Observation::Expired`], now and at every later cycle.
    pub(crate) fn outlived(&self, created_at: Timestamp) -> bool {
        (created_at.ticks() / self.period_ticks).saturating_add(self.retention_cycles) <= self.clock
    }

    /// Runs both §IV-B checks on `desc` and caches it if it passes — or
    /// refuses it unchecked ([`Observation::Expired`]) if it was created
    /// outside the window: a window or more before the latest prune, or
    /// more than a window after `now_cycle`. A clock more than a cycle
    /// behind `now_cycle` is first pruned up to `now_cycle − 1`.
    ///
    /// Signature verification is lazy (see module docs): it runs only
    /// when `desc` conflicts with a cached copy, as part of proof
    /// construction.
    pub fn observe(&mut self, desc: &SecureDescriptor, now_cycle: u64) -> Observation {
        if self.clock + 1 < now_cycle {
            self.prune(now_cycle - 1);
        }
        let id = desc.id();
        let ts = id.created_at.ticks();
        let (period, window) = (self.period_ticks, self.retention_cycles);
        let created = ts / period;
        if self.outlived(id.created_at) || created > now_cycle.saturating_add(window) {
            return Observation::Expired;
        }
        let (horizon, floor) = (self.horizon(), self.floor());
        let live = &mut self.live;
        // The one lookup. A run is never left empty: every path below that
        // does not insert found a conflicting slot.
        let run = self.by_creator.run_of(creator_hash(&id.creator));
        let slots = &mut self.by_creator.runs[run].1;
        // The touch rule: the run's expired slots go while it is in cache
        // anyway.
        if self.stored > live.len {
            self.stored -= slots.drop_expired(floor);
        }
        let pos = slots.as_slice().partition_point(|s| s.ts < ts);

        // Ownership check against a cached copy of the same token: the
        // slot of this timestamp whose creator is `desc`'s. A colliding
        // creator's slot there is a different id, and is passed over.
        let same = slots.as_mut_slice()[pos..].iter_mut();
        for cached in same.take_while(|s| s.ts == ts) {
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
                    Ok(proof) => Observation::Violation(proof),
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
                    match ViolationProof::frequency(cached.desc.clone(), desc.clone(), period) {
                        Ok(proof) => Observation::Violation(proof),
                        Err(_) => {
                            if cached.desc.verify().is_err() && desc.verify().is_ok() {
                                cached.desc = desc.clone();
                            }
                            Observation::Forged
                        }
                    }
                }
                Err(CompareError::DifferentIds) => continue,
            };
        }

        // First sighting of this id. Frequency check: another creation by
        // the same creator strictly closer than one period. No slot of
        // that creator carries `ts` itself here, and the scan runs
        // upwards, so the lowest-timestamp conflict wins.
        let lo = ts.saturating_sub(period - 1);
        let hi = ts.saturating_add(period - 1);
        let start = slots.as_slice().partition_point(|s| s.ts < lo);
        let conflict = slots.as_slice()[start..]
            .iter()
            .take_while(|s| s.ts <= hi)
            .position(|s| s.desc.creator() == id.creator);
        if let Some(at) = conflict.map(|i| start + i) {
            let other = slots.as_slice()[at].desc.clone();
            return match ViolationProof::frequency(other, desc.clone(), period) {
                Ok(proof) => Observation::Violation(proof),
                Err(_) => {
                    // One of the two creations is forged; evict it if it
                    // is the cached one and the incoming verifies.
                    if desc.verify().is_ok() && slots.as_slice()[at].desc.verify().is_err() {
                        live.removed(slots.remove(at).ts / period);
                        self.stored -= 1;
                        if slots.is_empty() {
                            self.by_creator.remove(run);
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
                desc: desc.clone(),
            },
        );
        live.added(created, horizon);
        self.stored += 1;
        Observation::New
    }

    /// Moves the clock to `now_cycle`: samples created `retention_cycles`
    /// before it are admitted no more, and those created earlier expire.
    ///
    /// O(cycles the clock advances): the per-cycle counters settle
    /// [`SampleCache::len`]; no slot is visited — unless the expired
    /// slots no touch has dropped now outnumber a sixteenth of the
    /// visible ones, and are swept out.
    pub fn prune(&mut self, now_cycle: u64) {
        if now_cycle > self.clock {
            self.clock = now_cycle;
            self.live.expire_before(self.horizon());
        }
        if self.stored - self.live.len > self.live.len / 16 {
            let floor = self.floor();
            self.by_creator.retain(|slots| {
                slots.drop_expired(floor);
                !slots.is_empty()
            });
            self.stored = self.live.len;
        }
    }

    /// Removes every sample created by `creator` (post-blacklist purge),
    /// and keeps those of a creator whose hash collides with it.
    pub fn purge_creator(&mut self, creator: &NodeId) {
        let Some(run) = self.by_creator.find(creator_hash(creator)) else {
            return;
        };
        let (floor, period, live) = (self.floor(), self.period_ticks, &mut self.live);
        let slots = &mut self.by_creator.runs[run].1;
        self.stored -= slots.retain(|s| {
            let theirs = s.desc.creator() == *creator;
            if theirs && s.ts >= floor {
                live.removed(s.ts / period);
            }
            !theirs
        });
        if slots.is_empty() {
            self.by_creator.remove(run);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proof::ProofKind;
    use crate::time::Timestamp;
    use sc_crypto::{Keypair, Scheme};
    use std::collections::BTreeMap;

    const PERIOD: u64 = 1000;

    fn kp(tag: u8) -> Keypair {
        Keypair::from_seed(Scheme::Schnorr61, [tag; 32])
    }

    #[test]
    fn new_then_known() {
        let mut cache = SampleCache::new(60, PERIOD);
        let d = SecureDescriptor::create(&kp(1), 0, Timestamp(0));
        assert_eq!(cache.observe(&d, 0), Observation::New);
        assert_eq!(cache.observe(&d, 1), Observation::AlreadyKnown);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn longer_chain_extends() {
        let (a, b) = (kp(1), kp(2));
        let mut cache = SampleCache::new(60, PERIOD);
        let d = SecureDescriptor::create(&a, 0, Timestamp(0));
        let handed = d.transfer(&a, b.public()).unwrap();
        assert_eq!(cache.observe(&d, 0), Observation::New);
        assert_eq!(cache.observe(&handed, 1), Observation::Extended);
        // The shorter copy is now strictly older information.
        assert_eq!(cache.observe(&d, 2), Observation::AlreadyKnown);
        assert_eq!(cache.get(&d.id()).unwrap().transfer_count(), 1);
    }

    #[test]
    fn cloning_detected_with_correct_culprit() {
        let (a, b, c, d) = (kp(1), kp(2), kp(3), kp(4));
        let mut cache = SampleCache::new(60, PERIOD);
        let base = SecureDescriptor::create(&a, 0, Timestamp(0))
            .transfer(&a, b.public())
            .unwrap();
        let left = base.transfer(&b, c.public()).unwrap();
        let right = base.transfer(&b, d.public()).unwrap();
        assert_eq!(cache.observe(&left, 0), Observation::New);
        match cache.observe(&right, 1) {
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
        let mut cache = SampleCache::new(60, PERIOD);
        let d1 = SecureDescriptor::create(&a, 0, Timestamp(5000));
        let d2 = SecureDescriptor::create(&a, 0, Timestamp(5999));
        assert_eq!(cache.observe(&d1, 0), Observation::New);
        match cache.observe(&d2, 0) {
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
        let mut cache = SampleCache::new(60, PERIOD);
        for i in 0..5u64 {
            let d = SecureDescriptor::create(&a, 0, Timestamp(i * PERIOD + 137));
            assert_eq!(cache.observe(&d, i), Observation::New, "cycle {i}");
        }
    }

    #[test]
    fn same_timestamp_different_genesis_is_frequency() {
        let a = kp(1);
        let mut cache = SampleCache::new(60, PERIOD);
        let d1 = SecureDescriptor::create(&a, 0, Timestamp(5000));
        let d2 = SecureDescriptor::create(&a, 9, Timestamp(5000));
        cache.observe(&d1, 0);
        match cache.observe(&d2, 0) {
            Observation::Violation(proof) => {
                assert_eq!(proof.kind(), ProofKind::Frequency);
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn ns_exception_keeps_circulating_copy() {
        let (a, b, c) = (kp(1), kp(2), kp(3));
        let mut cache = SampleCache::new(60, PERIOD);
        let owned = SecureDescriptor::create(&a, 0, Timestamp(0))
            .transfer(&a, b.public())
            .unwrap();
        let ns_copy = owned.redeem(&b, LinkKind::RedeemNonSwappable).unwrap();
        let circulating = owned.transfer(&b, c.public()).unwrap();
        // NS copy arrives first, then the circulating one.
        assert_eq!(cache.observe(&ns_copy, 0), Observation::New);
        assert_eq!(cache.observe(&circulating, 0), Observation::NsException);
        assert_eq!(
            cache.get(&owned.id()).unwrap().chain().last().unwrap().kind,
            LinkKind::Transfer,
            "transfer side retained"
        );
        // Other order: circulating cached, NS observed later.
        let mut cache2 = SampleCache::new(60, PERIOD);
        assert_eq!(cache2.observe(&circulating, 0), Observation::New);
        assert_eq!(cache2.observe(&ns_copy, 0), Observation::NsException);
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
    fn a_sample_lives_its_window_from_creation_plus_one_cycle() {
        let a = kp(1);
        let mut cache = SampleCache::new(10, PERIOD);
        // Created in cycle 2, first seen in cycle 5 and again in cycle 11:
        // sightings do not move its expiry.
        let d = SecureDescriptor::create(&a, 0, Timestamp(2 * PERIOD + 300));
        cache.observe(&d, 5);
        cache.prune(11);
        assert_eq!(cache.observe(&d, 11), Observation::AlreadyKnown, "age 9");
        // A window old: no longer admitted, still visible for a cycle of
        // grace, so a creation of cycle 3 less than a period after it is
        // still caught.
        cache.prune(12);
        assert_eq!(cache.observe(&d, 12), Observation::Expired);
        assert_eq!(cache.len(), 1);
        let close = SecureDescriptor::create(&a, 0, Timestamp(3 * PERIOD + 100));
        assert!(matches!(
            cache.observe(&close, 12),
            Observation::Violation(_)
        ));
        cache.prune(13);
        assert_eq!(cache.len(), 0, "expired");
        assert!(cache.get(&d.id()).is_none());
    }

    #[test]
    fn intake_refuses_what_the_window_does_not_cover() {
        let (a, b) = (kp(1), kp(2));
        let mut cache = SampleCache::new(10, PERIOD);
        cache.prune(20);
        // Created in cycle 10 is a window old, in cycle 11 is not.
        let old = SecureDescriptor::create(&a, 0, Timestamp(10 * PERIOD + 999));
        let oldest_admitted = SecureDescriptor::create(&b, 0, Timestamp(11 * PERIOD));
        assert_eq!(cache.observe(&old, 20), Observation::Expired);
        assert_eq!(cache.observe(&oldest_admitted, 20), Observation::New);
        // Ahead of the clock by up to a window is admitted; further is not.
        let ahead = SecureDescriptor::create(&a, 0, Timestamp(30 * PERIOD + 999));
        let too_far = SecureDescriptor::create(&b, 0, Timestamp(31 * PERIOD));
        assert_eq!(cache.observe(&ahead, 20), Observation::New);
        assert_eq!(cache.observe(&too_far, 20), Observation::Expired);
        assert_eq!(cache.len(), 2, "a refused descriptor is not cached");
        assert_eq!(cache.footprint().stored_slots, 2);
    }

    fn stored(cache: &SampleCache, k: &Keypair) -> Option<(usize, usize)> {
        let slots = cache.by_creator.get(creator_hash(&k.public()))?;
        Some((slots.len(), slots.capacity()))
    }

    /// Whether `k`'s run holds its one slot inline.
    fn inline(cache: &SampleCache, k: &Keypair) -> bool {
        let slots = cache.by_creator.get(creator_hash(&k.public()));
        matches!(slots, Some(Slots::One(_)))
    }

    /// Shows `cache` one descriptor each of 160 creators nobody else
    /// uses, created in `cycle`: enough visible slots that ten expired
    /// ones stay under the sweep trigger.
    fn fill(cache: &mut SampleCache, cycle: u64) {
        for tag in 0..160u8 {
            let creator = Keypair::from_seed(Scheme::KeyedHash, [tag; 32]);
            let d = SecureDescriptor::create(&creator, 0, Timestamp(cycle * PERIOD));
            cache.observe(&d, cycle);
        }
    }

    #[test]
    fn expired_slot_is_invisible_before_it_is_dropped() {
        let (a, b) = (kp(1), kp(2));
        let mut cache = SampleCache::new(10, PERIOD);
        let da = SecureDescriptor::create(&a, 0, Timestamp(1000));
        let db = SecureDescriptor::create(&b, 0, Timestamp(1000));
        assert_eq!(cache.observe(&da, 1), Observation::New);
        assert_eq!(cache.observe(&db, 1), Observation::New);
        fill(&mut cache, 5);
        // Horizon 3 expires both samples (created in cycle 1); 2 expired
        // slots against 160 visible ones is not more than a sixteenth: no
        // sweep.
        cache.prune(13);
        assert_eq!(stored(&cache, &a), Some((1, 1)), "still in memory");
        assert_eq!(stored(&cache, &b), Some((1, 1)), "still in memory");
        assert_eq!(cache.len(), 160);
        assert_eq!(cache.footprint().stored_slots, 162);
        assert!(cache.get(&da.id()).is_none());
        assert_eq!(cache.descriptors().count(), 160);
        assert_eq!(cache.stored_descriptors().count(), 162);
        // A later creation of `a` is a first sighting (no check could
        // meet an expired slot: whatever intake admits was created more
        // than a period after it), and its touch drops `da`. A refusal
        // touches nothing.
        let da_late = SecureDescriptor::create(&a, 0, Timestamp(13_000));
        assert_eq!(cache.observe(&da_late, 13), Observation::New);
        assert_eq!(cache.observe(&db, 13), Observation::Expired);
        assert_eq!(stored(&cache, &a), Some((1, 1)), "the touch dropped it");
        assert_eq!(
            stored(&cache, &b),
            Some((1, 1)),
            "a refusal touches nothing"
        );
        assert_eq!(cache.len(), 161);
        assert_eq!(cache.footprint().stored_slots, 162);
        assert!(cache.get(&da.id()).is_none());
        assert_eq!(cache.get(&da_late.id()), Some(&da_late));
        // Creators nobody touches again are swept out as soon as they
        // are more than a sixteenth of what is visible: the 160 of cycle
        // 5 expire at horizon 6, against 1 visible slot.
        cache.prune(16);
        assert_eq!(cache.len(), 1);
        let footprint = cache.footprint();
        assert_eq!((footprint.stored_slots, footprint.creators), (1, 1));
    }

    #[test]
    fn any_touch_of_a_creator_drops_its_expired_slots() {
        let a = kp(1);
        let mut cache = SampleCache::new(10, PERIOD);
        let old = SecureDescriptor::create(&a, 0, Timestamp(0));
        let new = SecureDescriptor::create(&a, 0, Timestamp(5000));
        cache.observe(&old, 1);
        cache.observe(&new, 5);
        fill(&mut cache, 5);
        cache.prune(12);
        assert_eq!(stored(&cache, &a), Some((2, 2)), "expired, not swept");
        // A re-sighting inserts nothing and shifts nothing; the expired
        // slot goes all the same.
        assert_eq!(cache.observe(&new, 12), Observation::AlreadyKnown);
        assert_eq!(stored(&cache, &a), Some((1, 2)), "half empty: kept");
        assert_eq!(cache.footprint().stored_slots, cache.len());
    }

    #[test]
    fn slot_vectors_fit_what_they_hold() {
        let a = kp(1);
        let mut cache = SampleCache::new(10, PERIOD);
        let at = |i: u64| SecureDescriptor::create(&a, 0, Timestamp(i * PERIOD));
        // Growth: 1, 2, 4, then by `SLACK_SLOTS`. The first eight are
        // created in cycles 0..8, the last four in 8..12.
        let mut capacities = Vec::new();
        for i in 0..12 {
            cache.observe(&at(i), i);
            capacities.push(stored(&cache, &a).unwrap().1);
        }
        assert_eq!(capacities, [1, 2, 4, 4, 8, 8, 8, 8, 12, 12, 12, 12]);
        assert!(!inline(&cache, &a));
        // Shrink: at horizon 8 the eight of cycles 0..8 expire; the touch
        // that drops them leaves more spare room than `SLACK_SLOTS`, so
        // the vector is cut back to fit. (`fill` keeps the sweep out of
        // it.)
        fill(&mut cache, 11);
        cache.prune(18);
        assert_eq!(stored(&cache, &a), Some((12, 12)));
        assert_eq!(cache.observe(&at(11), 18), Observation::AlreadyKnown);
        assert_eq!(stored(&cache, &a), Some((4, 4)));
        // Dropping fewer than that keeps the room: the next sighting
        // needs it.
        for i in 12..16 {
            cache.observe(&at(i), 18);
        }
        cache.prune(21);
        assert_eq!(stored(&cache, &a), Some((8, 8)), "three of them expired");
        assert_eq!(cache.observe(&at(15), 21), Observation::AlreadyKnown);
        assert_eq!(stored(&cache, &a), Some((5, 8)));
    }

    #[test]
    fn a_lone_sample_is_held_in_its_run() {
        let a = kp(1);
        let mut cache = SampleCache::new(10, PERIOD);
        let first = SecureDescriptor::create(&a, 0, Timestamp(0));
        assert_eq!(cache.observe(&first, 0), Observation::New);
        assert!(inline(&cache, &a));
        // A second sample moves both into a vector of two, in order.
        let second = SecureDescriptor::create(&a, 0, Timestamp(PERIOD));
        assert_eq!(cache.observe(&second, 1), Observation::New);
        assert_eq!(stored(&cache, &a), Some((2, 2)));
        assert_eq!(cache.get(&first.id()), Some(&first));
        assert_eq!(cache.get(&second.id()), Some(&second));
        // Four, of cycles 0, 1, 2 and 4; at horizon 3 a touch drops three,
        // and the vector cut back to one slot gives it back to the run.
        // (`fill` keeps the sweep out of it.)
        let at = |i: u64| SecureDescriptor::create(&a, 0, Timestamp(i * PERIOD));
        for i in [2, 4] {
            assert_eq!(cache.observe(&at(i), i), Observation::New);
        }
        assert_eq!(stored(&cache, &a), Some((4, 4)));
        fill(&mut cache, 4);
        cache.prune(13);
        assert_eq!(cache.observe(&at(4), 13), Observation::AlreadyKnown);
        assert_eq!(stored(&cache, &a), Some((1, 1)));
        assert!(inline(&cache, &a));
        // Purged, the run goes.
        cache.purge_creator(&a.public());
        assert_eq!(stored(&cache, &a), None);
        assert_eq!(cache.len(), 160);
    }

    #[test]
    fn horizon_moves_only_in_prune() {
        // A node serving a request before its own turn in a cycle has not
        // pruned for that cycle yet: it must still see what it saw before.
        let a = kp(1);
        let mut cache = SampleCache::new(10, PERIOD);
        let d = SecureDescriptor::create(&a, 0, Timestamp(0));
        cache.observe(&d, 0);
        cache.prune(9);
        assert_eq!(cache.observe(&d, 10), Observation::AlreadyKnown);
        assert_eq!(cache.len(), 1);
        cache.prune(10);
        assert_eq!(cache.observe(&d, 10), Observation::Expired);
        assert_eq!(cache.len(), 1, "one cycle of grace");
        cache.prune(11);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn a_lagging_clock_catches_up_to_the_cycle_before_the_observer() {
        // Turns missed since cycle 0: an observation in cycle 11 first
        // prunes to cycle 10, where `d` is a window old.
        let a = kp(1);
        let mut cache = SampleCache::new(10, PERIOD);
        let d = SecureDescriptor::create(&a, 0, Timestamp(0));
        cache.observe(&d, 0);
        assert_eq!(cache.observe(&d, 11), Observation::Expired);
        assert_eq!(cache.len(), 1, "one cycle of grace");
        let later = SecureDescriptor::create(&a, 0, Timestamp(12 * PERIOD));
        assert_eq!(cache.observe(&later, 12), Observation::New);
        assert!(cache.get(&d.id()).is_none());
        assert_eq!(cache.footprint().stored_slots, 1);
    }

    #[test]
    fn a_cache_created_late_counts_from_the_observers_cycle() {
        // A node created ten million cycles after the shared epoch whose
        // first intake precedes its first turn. The oldest and the
        // youngest creation intake admits there cost 2W + 2 counters, not
        // one per cycle since the epoch.
        const LATE: u64 = 10_000_000;
        let window = 10;
        let mut cache = SampleCache::new(window, PERIOD);
        let oldest = SecureDescriptor::create(&kp(1), 0, Timestamp((LATE - window) * PERIOD));
        let youngest =
            SecureDescriptor::create(&kp(2), 0, Timestamp((LATE + window + 1) * PERIOD - 1));
        assert_eq!(cache.observe(&oldest, LATE), Observation::New);
        assert_eq!(cache.observe(&youngest, LATE), Observation::New);
        let span = 2 * window as usize + 2;
        assert_eq!(cache.live.counts.len(), span);
        assert!(cache.live.counts.capacity() <= 2 * span);
    }

    #[test]
    fn purge_creator_removes_their_samples() {
        let (a, b) = (kp(1), kp(2));
        let mut cache = SampleCache::new(60, PERIOD);
        cache.observe(&SecureDescriptor::create(&a, 0, Timestamp(0)), 0);
        cache.observe(&SecureDescriptor::create(&b, 0, Timestamp(0)), 0);
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
    fn a_slot_is_two_words() {
        assert_eq!(CacheFootprint::SLOT_BYTES, 16);
    }

    #[test]
    fn a_creator_costs_a_run_and_a_bucket_four_bytes() {
        // A 4-byte hash and a 24-byte `Slots`: a slot inline, or a vector.
        assert_eq!(core::mem::size_of::<Slots>(), 24);
        assert_eq!(CacheFootprint::RUN_BYTES, 32);
        assert_eq!(CacheFootprint::ENTRY_BYTES, 4);
    }

    // -- creators whose hashes collide ----------------------------------

    /// Two `KeyedHash` creators whose index hashes are equal.
    fn colliding() -> (Keypair, Keypair) {
        let seeded = |s: u32| {
            let mut seed = [0; 32];
            seed[..4].copy_from_slice(&s.to_le_bytes());
            Keypair::from_seed(Scheme::KeyedHash, seed)
        };
        let (a, b) = (seeded(38945), seeded(118704));
        assert_ne!(a.public(), b.public());
        assert_eq!(creator_hash(&a.public()), 0x63e3_0239);
        assert_eq!(creator_hash(&b.public()), 0x63e3_0239);
        (a, b)
    }

    #[test]
    fn colliding_creators_share_a_run_and_are_judged_apart() {
        let (a, b) = colliding();
        let mut cache = SampleCache::new(60, PERIOD);
        // Creations at the same timestamp are two ids, both new.
        let a0 = SecureDescriptor::create(&a, 0, Timestamp(5000));
        let b0 = SecureDescriptor::create(&b, 0, Timestamp(5000));
        assert_eq!(cache.observe(&a0, 5), Observation::New);
        assert_eq!(cache.observe(&b0, 5), Observation::New);
        assert_eq!(cache.footprint().creators, 1, "one shared run");
        assert_eq!(stored(&cache, &a), Some((2, 2)));
        // Re-sightings meet their own copies.
        assert_eq!(cache.observe(&b0, 5), Observation::AlreadyKnown);
        assert_eq!(cache.observe(&a0, 5), Observation::AlreadyKnown);
        // Each creator's copy comes back for its own id.
        assert_eq!(cache.get(&a0.id()), Some(&a0));
        assert_eq!(cache.get(&b0.id()), Some(&b0));
        // Legal creations a period on, by both.
        let a1 = SecureDescriptor::create(&a, 0, Timestamp(6000));
        let b1 = SecureDescriptor::create(&b, 0, Timestamp(6400));
        assert_eq!(cache.observe(&a1, 6), Observation::New);
        assert_eq!(cache.observe(&b1, 6), Observation::New);
        // A second creation by `b` within a period of its own is a
        // frequency violation naming `b`, though `a`'s slots lie closer.
        let b_close = SecureDescriptor::create(&b, 0, Timestamp(5950));
        match cache.observe(&b_close, 6) {
            Observation::Violation(proof) => {
                assert_eq!(proof.kind(), ProofKind::Frequency);
                assert_eq!(proof.culprit(), b.public());
                assert!(proof.validate(PERIOD).is_ok());
            }
            other => panic!("expected violation, got {other:?}"),
        }
        // The same for `a`, at the same timestamp as `b`'s creation.
        let a_close = SecureDescriptor::create(&a, 0, Timestamp(6400));
        match cache.observe(&a_close, 6) {
            Observation::Violation(proof) => {
                assert_eq!(proof.kind(), ProofKind::Frequency);
                assert_eq!(proof.culprit(), a.public());
            }
            other => panic!("expected violation, got {other:?}"),
        }
        assert_eq!(cache.len(), 4, "a violation caches nothing");
        // A purge of one leaves the other's samples.
        cache.purge_creator(&a.public());
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&a0.id()).is_none() && cache.get(&a1.id()).is_none());
        assert_eq!(cache.get(&b0.id()), Some(&b0));
        assert_eq!(cache.get(&b1.id()), Some(&b1));
        assert!(cache.descriptors().all(|d| d.creator() == b.public()));
        cache.purge_creator(&b.public());
        assert!(cache.is_empty());
        assert_eq!(cache.footprint().creators, 0);
    }

    // -- the creator index ----------------------------------------------

    type Index = CreatorIndex<u64>;

    /// The hashes of `n` distinct creators that leave `low` in their five
    /// lowest bits: in every table of up to 32 buckets they share one
    /// bucket.
    fn homed(low: u32, n: usize) -> Vec<u32> {
        let base = *kp(1).public().as_bytes();
        (0u64..)
            .map(|i| {
                let mut bytes = base;
                bytes[1..9].copy_from_slice(&i.to_le_bytes());
                creator_hash(&NodeId::from_bytes(bytes).expect("a scheme's tag"))
            })
            .filter(|hash| hash & 31 == low)
            .take(n)
            .collect()
    }

    /// The index's own invariants, beside what it maps: every run has one
    /// entry, tagged with the run's stored hash; no empty bucket lies
    /// between an entry and its hash's own bucket, so every probe reaches it;
    /// and the sizes are those the type's docs state.
    fn well_formed(index: &Index) -> Result<(), String> {
        let (runs, buckets) = (index.runs.len(), index.table.len());
        let sized = buckets == 0 || (buckets >= 4 && buckets.is_power_of_two());
        if !sized || 8 * runs > 7 * buckets || buckets > 2 * (8 * runs).div_ceil(7) {
            return Err(format!("{buckets} buckets for {runs} runs"));
        }
        if index.runs.capacity() - runs > run_step(runs) {
            return Err(format!("room for {} runs", index.runs.capacity()));
        }
        let mut seen = vec![false; runs];
        for (bucket, &entry) in index.table.iter().enumerate() {
            if entry == 0 {
                continue;
            }
            let mask = buckets - 1;
            let run = (entry as usize & mask) - 1;
            let hash = index.runs[run].0 as usize;
            if entry as usize & !mask != hash & !mask || std::mem::replace(&mut seen[run], true) {
                return Err(format!("bucket {bucket}: entry {entry:#x}"));
            }
            let mut on_path = hash & mask;
            while on_path != bucket {
                if index.table[on_path] == 0 {
                    return Err(format!("bucket {bucket}: a gap at {on_path}"));
                }
                on_path = (on_path + 1) & mask;
            }
        }
        match seen.iter().position(|s| !s) {
            Some(run) => Err(format!("run {run} has no entry")),
            None => Ok(()),
        }
    }

    #[test]
    fn a_chain_across_the_table_end_shifts_back_on_removal() {
        // Three creators of the last bucket of a 4-bucket table fill it
        // from there, round the end; a fourth, of bucket 1, waits behind.
        let last = homed(31, 3);
        let one = homed(1, 1)[0];
        let mut index = Index::new();
        for &hash in &last {
            index.run_of(hash);
        }
        let at =
            |index: &Index| -> Vec<usize> { index.table.iter().map(|&e| e as usize & 3).collect() };
        assert_eq!(at(&index), [2, 3, 0, 1], "runs 0..3 from bucket 3 on");
        // Removing the head shifts the two behind it back round the end,
        // the last run moves into its place, and bucket 1 is free again.
        assert_eq!(index.remove(0), 0);
        assert_eq!(at(&index), [1, 0, 0, 2]);
        assert_eq!(index.find(last[1]), Some(1));
        assert_eq!(index.find(last[2]), Some(0));
        // A creator of bucket 1 takes it; removing the head again shifts
        // the wrapped entry back to bucket 3 but leaves the new one in its
        // own bucket.
        index.run_of(one);
        assert_eq!(at(&index), [1, 3, 0, 2]);
        assert_eq!(index.remove(1), 0);
        assert_eq!(at(&index), [0, 2, 0, 1]);
        assert_eq!(index.find(last[2]), Some(0));
        assert_eq!(index.find(one), Some(1));
        assert_eq!(index.find(last[1]), None);
        well_formed(&index).unwrap();
        // The last removal leaves nothing allocated but a step of runs.
        index.retain(|_| false);
        assert_eq!((index.table.len(), index.runs.capacity()), (0, 4));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The index against a `BTreeMap` keyed by hash, on creator hashes
        /// crowded into the first and last buckets of every table up to 32
        /// buckets, so that probes wrap round the end and removals shift
        /// chains back.
        #[test]
        fn the_creator_index_maps_as_a_btree_does(
            ops in proptest::collection::vec((0u8..8, proptest::prelude::any::<u64>()), 1..300)
        ) {
            use proptest::prelude::{prop_assert, prop_assert_eq};
            static POOL: std::sync::OnceLock<Vec<u32>> = std::sync::OnceLock::new();
            let pool = POOL.get_or_init(|| {
                let mut pool = homed(31, 12);
                pool.extend(homed(0, 6));
                pool.extend((10..24).map(|tag| creator_hash(&kp(tag).public())));
                pool
            });
            let mut index = Index::new();
            let mut reference: BTreeMap<u32, u64> = BTreeMap::new();
            for (step, (selector, arg)) in ops.into_iter().enumerate() {
                let key = pool[arg as usize % pool.len()];
                match selector {
                    // Insert, or overwrite.
                    0..=2 => {
                        let run = index.run_of(key);
                        index.runs[run].1 = arg;
                        reference.insert(key, arg);
                    }
                    3 => prop_assert_eq!(index.get(key), reference.get(&key)),
                    // Purge a creator, present or not.
                    4 => {
                        let got = index.find(key).map(|run| index.remove(run));
                        prop_assert_eq!(got, reference.remove(&key));
                    }
                    // Evict a run by its position.
                    5 if !index.runs.is_empty() => {
                        let run = arg as usize % index.len();
                        let key = index.runs[run].0;
                        prop_assert_eq!(Some(index.remove(run)), reference.remove(&key));
                    }
                    // A sweep: change every value, drop some.
                    _ => {
                        let keep = |v: &mut u64| {
                            *v = v.wrapping_add(1);
                            *v % 4 != arg % 4
                        };
                        index.retain(keep);
                        reference.retain(|_, v| keep(v));
                    }
                }
                prop_assert_eq!(index.len(), reference.len(), "step {}", step);
                for k in pool {
                    prop_assert_eq!(index.get(*k), reference.get(k), "step {}", step);
                }
                let runs: BTreeMap<u32, u64> = index.runs.iter().copied().collect();
                prop_assert_eq!(&runs, &reference, "step {}", step);
                let formed = well_formed(&index);
                prop_assert!(formed.is_ok(), "step {}: {:?}", step, formed);
            }
        }
    }

    #[test]
    fn a_chain_block_holds_signatures_at_their_stored_size() {
        // The other thing a cached sample pins: a chain block per link,
        // whose signature is held as the 33 bytes a scheme signs with,
        // not its 64-byte wire form.
        assert_eq!(core::mem::size_of::<sc_crypto::Signature>(), 33);
        assert_eq!(SecureDescriptor::BLOCK_BYTES, 120);
    }

    #[test]
    fn debug_nonempty() {
        assert!(!format!("{:?}", SampleCache::new(3, PERIOD)).is_empty());
    }
}
