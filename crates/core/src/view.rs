//! The secure partial view.
//!
//! Like the legacy Cyclon view, but entries are owned
//! [`SecureDescriptor`]s and each carries the *non-swappable* marker of
//! §V-A: a non-swappable entry is a retained copy of a descriptor whose
//! ownership was transferred away; it may only be redeemed (used as a
//! gossiping token toward its creator), never swapped to a third party.
//!
//! Invariants:
//!
//! 1. at most `capacity` (ℓ) entries;
//! 2. no entry's descriptor was created by the view's owner;
//! 3. at most one entry per descriptor identity (two copies of one token
//!    in a single view would be self-made cloning evidence);
//! 4. every entry's descriptor is currently owned by the view's owner and
//!    is not redeemed.
//!
//! Unlike legacy Cyclon, the view does **not** dedup by creator: secure
//! descriptors are conserved single-owner tokens, so discarding one for
//! merely sharing a creator with an existing entry would permanently
//! destroy a link. Two live descriptors of the same creator are distinct
//! tokens and may coexist.

use crate::descriptor::SecureDescriptor;
use rand::seq::SliceRandom;
use rand::Rng;
use sc_crypto::NodeId;

/// A view slot: an owned descriptor plus its swappability.
#[derive(Clone, Debug)]
pub struct ViewEntry {
    /// The owned descriptor.
    pub desc: SecureDescriptor,
    /// Whether this is a retained non-swappable copy (§V-A).
    pub non_swappable: bool,
}

/// A bounded list of owned neighbor descriptors.
#[derive(Debug)]
pub struct SecureView {
    owner: NodeId,
    capacity: usize,
    entries: Vec<ViewEntry>,
}

impl SecureView {
    /// Creates an empty view for `owner` with `capacity` slots (ℓ).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(owner: NodeId, capacity: usize) -> Self {
        assert!(capacity > 0, "view capacity must be positive");
        SecureView {
            owner,
            capacity,
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Number of entries held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the view holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maximum entries (ℓ).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Free slots.
    pub fn free_slots(&self) -> usize {
        self.capacity - self.entries.len()
    }

    /// Number of non-swappable entries (the Figure 6 metric).
    pub fn ns_count(&self) -> usize {
        self.entries.iter().filter(|e| e.non_swappable).count()
    }

    /// Whether a descriptor created by `creator` is present.
    pub fn contains_creator(&self, creator: &NodeId) -> bool {
        self.entries.iter().any(|e| e.desc.creator() == *creator)
    }

    /// Whether this exact descriptor identity is present.
    pub fn contains_id(&self, id: &crate::descriptor::DescriptorId) -> bool {
        self.entries.iter().any(|e| e.desc.id() == *id)
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> impl Iterator<Item = &ViewEntry> {
        self.entries.iter()
    }

    /// Whether `desc` would be accepted by [`SecureView::insert`].
    pub fn can_insert(&self, desc: &SecureDescriptor) -> bool {
        desc.creator() != self.owner
            && desc.owner() == self.owner
            && !desc.is_redeemed()
            && !self.contains_id(&desc.id())
            && self.entries.len() < self.capacity
    }

    /// Inserts an owned descriptor; reports whether it was stored.
    ///
    /// Rejects entries violating the view invariants (see module docs).
    pub fn insert(&mut self, desc: SecureDescriptor, non_swappable: bool) -> bool {
        self.try_insert(desc, non_swappable).is_none()
    }

    /// Move-based insert: stores `desc` if the invariants allow, otherwise
    /// hands it back so the caller can route it elsewhere without cloning.
    pub fn try_insert(
        &mut self,
        desc: SecureDescriptor,
        non_swappable: bool,
    ) -> Option<SecureDescriptor> {
        if !self.can_insert(&desc) {
            return Some(desc);
        }
        self.entries.push(ViewEntry {
            desc,
            non_swappable,
        });
        None
    }

    /// Removes and returns the entry with the oldest creation timestamp —
    /// the descriptor SecureCyclon redeems next.
    pub fn remove_oldest(&mut self) -> Option<ViewEntry> {
        let idx = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.desc.created_at())?
            .0;
        Some(self.entries.swap_remove(idx))
    }

    /// Removes and returns up to `k` random **swappable** descriptors
    /// (non-swappable entries may never be traded away).
    pub fn remove_random_swappable<R: Rng + ?Sized>(
        &mut self,
        k: usize,
        rng: &mut R,
    ) -> Vec<SecureDescriptor> {
        self.remove_random_swappable_filtered(k, rng, |_| true)
    }

    /// Like [`SecureView::remove_random_swappable`] but only considers
    /// entries matching `keep`. Used by exchanges to avoid handing a
    /// partner descriptors it created itself (a pointless link that would
    /// die on arrival).
    pub fn remove_random_swappable_filtered<R, F>(
        &mut self,
        k: usize,
        rng: &mut R,
        keep: F,
    ) -> Vec<SecureDescriptor>
    where
        R: Rng + ?Sized,
        F: Fn(&SecureDescriptor) -> bool,
    {
        let mut swappable: Vec<usize> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.non_swappable && keep(&e.desc))
            .map(|(i, _)| i)
            .collect();
        let k = k.min(swappable.len());
        // Use the returned slice rather than assuming where the chosen
        // elements land; rand places them at the end, not the front.
        let (chosen, _) = swappable.partial_shuffle(rng, k);
        let mut picked: Vec<usize> = chosen.to_vec();
        // Remove from the back so earlier indices stay valid.
        picked.sort_unstable_by(|a, b| b.cmp(a));
        picked
            .into_iter()
            .map(|i| self.entries.swap_remove(i).desc)
            .collect()
    }

    /// Replaces a **non-swappable** entry for `desc`'s creator with the
    /// (swappable) `desc`. A retained NS copy is a phantom fallback; a
    /// real owned descriptor of the same creator is strictly better, so
    /// it takes the slot. Returns whether a replacement happened.
    pub fn replace_ns_with(&mut self, desc: SecureDescriptor) -> bool {
        self.try_replace_ns_with(desc).is_none()
    }

    /// Move-based variant of [`SecureView::replace_ns_with`]: returns the
    /// descriptor unchanged when no non-swappable slot matched.
    ///
    /// Identity care: when the incoming descriptor's identity is already
    /// present, only the entry holding that identity may be replaced (the
    /// retained NS copy of a descriptor now returning home). Replacing a
    /// *different* NS entry of the same creator would leave two copies of
    /// one token in the view — self-made cloning evidence, violating
    /// invariant 3. This exact corner was first caught by the sc-testkit
    /// `view-conservation` oracle under lossy-network scenarios, where a
    /// descriptor can legally revisit a former owner while that owner
    /// still retains NS copies of other tokens by the same creator.
    pub fn try_replace_ns_with(&mut self, desc: SecureDescriptor) -> Option<SecureDescriptor> {
        if desc.creator() == self.owner || desc.owner() != self.owner || desc.is_redeemed() {
            return Some(desc);
        }
        let id = desc.id();
        let same_id = self
            .entries
            .iter()
            .position(|e| e.non_swappable && e.desc.id() == id);
        let slot = match same_id {
            Some(i) => i,
            None => {
                if self.contains_id(&id) {
                    // The identity lives in a swappable slot; a second
                    // copy must not enter the view through any path.
                    return Some(desc);
                }
                match self
                    .entries
                    .iter()
                    .position(|e| e.non_swappable && e.desc.creator() == desc.creator())
                {
                    Some(i) => i,
                    None => return Some(desc),
                }
            }
        };
        self.entries[slot].desc = desc;
        self.entries[slot].non_swappable = false;
        None
    }

    /// Removes all entries created by `creator`; returns how many were
    /// dropped (post-blacklist purge).
    pub fn purge_creator(&mut self, creator: &NodeId) -> usize {
        self.retain(|d| d.creator() != *creator)
    }

    /// Keeps only the entries whose descriptor satisfies `keep`; returns
    /// how many were dropped.
    pub fn retain(&mut self, keep: impl Fn(&SecureDescriptor) -> bool) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| keep(&e.desc));
        before - self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sc_crypto::{Keypair, Scheme};

    fn kp(tag: u8) -> Keypair {
        Keypair::from_seed(Scheme::Schnorr61, [tag; 32])
    }

    /// A descriptor created by `creator_tag`, owned by `owner`.
    fn owned_desc(creator_tag: u8, ts: u64, owner: &Keypair) -> SecureDescriptor {
        let c = kp(creator_tag);
        SecureDescriptor::create(&c, creator_tag as u32, Timestamp(ts))
            .transfer(&c, owner.public())
            .unwrap()
    }

    #[test]
    fn insert_enforces_invariants() {
        let me = kp(0);
        let mut v = SecureView::new(me.public(), 2);

        // Own descriptor rejected.
        let own = SecureDescriptor::create(&me, 0, Timestamp(0));
        assert!(!v.insert(own, false));

        // Descriptor not owned by me rejected.
        let other = kp(9);
        let not_mine = owned_desc(1, 0, &other);
        assert!(!v.insert(not_mine, false));

        // Valid insert.
        let first = owned_desc(1, 0, &me);
        assert!(v.insert(first.clone(), false));
        // The same token twice is rejected…
        assert!(!v.insert(first, false));
        // …but a *distinct* token by the same creator is welcome.
        assert!(v.insert(owned_desc(1, 1000, &me), false));
        // Capacity enforced.
        assert!(!v.insert(owned_desc(3, 0, &me), false));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn redeemed_descriptor_rejected() {
        use crate::descriptor::LinkKind;
        let me = kp(0);
        let mut v = SecureView::new(me.public(), 4);
        let d = owned_desc(1, 0, &me).redeem(&me, LinkKind::Redeem).unwrap();
        assert!(!v.insert(d, false));
    }

    #[test]
    fn remove_oldest_by_creation_time() {
        let me = kp(0);
        let mut v = SecureView::new(me.public(), 4);
        v.insert(owned_desc(1, 5000, &me), false);
        v.insert(owned_desc(2, 1000, &me), false);
        v.insert(owned_desc(3, 9000, &me), false);
        let oldest = v.remove_oldest().unwrap();
        assert_eq!(oldest.desc.created_at(), Timestamp(1000));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn ns_entries_never_swapped() {
        let me = kp(0);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut v = SecureView::new(me.public(), 8);
        v.insert(owned_desc(1, 0, &me), true);
        v.insert(owned_desc(2, 0, &me), true);
        v.insert(owned_desc(3, 0, &me), false);
        let out = v.remove_random_swappable(5, &mut rng);
        assert_eq!(out.len(), 1, "only the swappable entry leaves");
        assert_eq!(v.ns_count(), 2);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn ns_entries_are_redeemable_via_oldest() {
        let me = kp(0);
        let mut v = SecureView::new(me.public(), 4);
        v.insert(owned_desc(1, 100, &me), true);
        v.insert(owned_desc(2, 900, &me), false);
        let e = v.remove_oldest().unwrap();
        assert!(e.non_swappable, "oldest entry may be non-swappable");
    }

    #[test]
    fn replace_ns_never_duplicates_an_identity() {
        // Regression (found by the sc-testkit view-conservation oracle
        // under loss): the view retains NS copies of two tokens J and K by
        // the same creator; token J returns to this node through a longer
        // chain. The replacement must hit the J slot, not the K slot.
        let me = kp(0);
        let other = kp(9);
        let mut v = SecureView::new(me.public(), 8);
        let j_pre = owned_desc(1, 100, &me);
        let k_pre = owned_desc(1, 200, &me);
        v.insert(j_pre.clone(), true);
        v.insert(k_pre, true);
        // J travels me → other → me (descriptors may revisit past owners).
        let j_back = j_pre
            .transfer(&me, other.public())
            .unwrap()
            .transfer(&other, me.public())
            .unwrap();
        assert!(v.replace_ns_with(j_back));
        let ids: Vec<_> = v.iter().map(|e| e.desc.id()).collect();
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "no duplicate identities");
        assert_eq!(v.ns_count(), 1, "only the J slot was upgraded");

        // And when the identity occupies a *swappable* slot, no NS entry
        // of the same creator may be clobbered into a duplicate either.
        let me2 = kp(0);
        let mut v2 = SecureView::new(me2.public(), 8);
        let l_pre = owned_desc(2, 300, &me2);
        v2.insert(l_pre.clone(), false); // swappable copy of L
        v2.insert(owned_desc(2, 400, &me2), true); // NS copy of M, same creator
        let l_back = l_pre
            .transfer(&me2, other.public())
            .unwrap()
            .transfer(&other, me2.public())
            .unwrap();
        assert!(!v2.replace_ns_with(l_back), "returned, not stored");
        assert_eq!(v2.ns_count(), 1);
        assert_eq!(v2.len(), 2);
    }

    #[test]
    fn purge_creator_counts() {
        let me = kp(0);
        let mut v = SecureView::new(me.public(), 4);
        v.insert(owned_desc(1, 0, &me), false);
        v.insert(owned_desc(2, 0, &me), false);
        let victim = kp(1).public();
        assert_eq!(v.purge_creator(&victim), 1);
        assert_eq!(v.purge_creator(&victim), 0);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn remove_random_swappable_caps_at_available() {
        let me = kp(0);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut v = SecureView::new(me.public(), 8);
        for t in 1..=4u8 {
            v.insert(owned_desc(t, t as u64, &me), false);
        }
        let out = v.remove_random_swappable(3, &mut rng);
        assert_eq!(out.len(), 3);
        assert_eq!(v.len(), 1);
        // Removed descriptors are gone.
        for d in &out {
            assert!(!v.contains_creator(&d.creator()));
        }
    }
}
