//! Shared state of the colluding malicious party (paper §II-C).
//!
//! "Malicious nodes collude with each other, have mutual knowledge about
//! the network, share the same pool of node descriptors, and forge node
//! descriptors on demand to assist each other." Concretely the party
//! shares:
//!
//! * every member's **keypair** — members sign ownership transfers for one
//!   another, fabricating arbitrary intra-party chains;
//! * the **descriptor pool** — copies of descriptors generated by members
//!   in recent cycles, cloned on demand to present all-malicious views
//!   (§VI-B);
//! * **victim tokens** — descriptors created by honest nodes and harvested
//!   through exchanges; these are the redemption certificates that let
//!   members initiate gossip with chosen victims.
//!
//! It also keeps the party's own record of every deliberate duplication
//! its cloners perform, which Figure 7 measures detection against.

use crate::malicious::CloneEvent;
use rand::Rng;
use sc_core::Addr;
use sc_core::{DescriptorId, SecureDescriptor, Timestamp};
use sc_crypto::{Keypair, NodeId};
use std::collections::{HashMap, HashSet};

/// Colluding-party state shared by all malicious nodes of a simulation.
pub struct SecureParty {
    members: HashMap<NodeId, usize>,
    keypairs: Vec<Keypair>,
    addrs: Vec<Addr>,
    /// Base descriptors available for cloning (owner is always a member).
    pool: Vec<SecureDescriptor>,
    /// Honest-created descriptors owned by members: redemption
    /// certificates for initiating exchanges with victims.
    tokens: Vec<SecureDescriptor>,
    /// Identities of descriptors already used (avoid re-spending tokens).
    spent_tokens: HashSet<DescriptorId>,
    pool_retention_cycles: u64,
    /// The `now` of the latest [`SecureParty::prune_pool`].
    pruned_at: Option<Timestamp>,
    ticks_per_cycle: u64,
    /// Every duplication the party's cloners performed, in order.
    clone_events: Vec<CloneEvent>,
}

impl core::fmt::Debug for SecureParty {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SecureParty")
            .field("members", &self.members.len())
            .field("pool", &self.pool.len())
            .field("tokens", &self.tokens.len())
            .finish()
    }
}

impl SecureParty {
    /// Creates the party from its members' keypairs and addresses.
    pub fn new(keypairs: Vec<Keypair>, addrs: Vec<Addr>, ticks_per_cycle: u64) -> Self {
        assert_eq!(keypairs.len(), addrs.len());
        let members = keypairs
            .iter()
            .enumerate()
            .map(|(i, k)| (k.public(), i))
            .collect();
        SecureParty {
            members,
            keypairs,
            addrs,
            pool: Vec::new(),
            tokens: Vec::new(),
            spent_tokens: HashSet::new(),
            pool_retention_cycles: 10,
            pruned_at: None,
            ticks_per_cycle,
            clone_events: Vec::new(),
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.keypairs.len()
    }

    /// Whether the party has no members.
    pub fn is_empty(&self) -> bool {
        self.keypairs.is_empty()
    }

    /// Whether `id` belongs to the party.
    pub fn is_member(&self, id: &NodeId) -> bool {
        self.members.contains_key(id)
    }

    /// All member `(id, addr)` pairs.
    pub fn members(&self) -> impl Iterator<Item = (NodeId, Addr)> + '_ {
        self.keypairs
            .iter()
            .zip(self.addrs.iter())
            .map(|(k, &a)| (k.public(), a))
    }

    /// The keypair of member `id` (collusion: any member can sign for any
    /// other).
    pub fn keypair_of(&self, id: &NodeId) -> Option<&Keypair> {
        self.members.get(id).map(|&i| &self.keypairs[i])
    }

    /// Contributes a member-created descriptor to the cloning pool.
    pub fn contribute_pool(&mut self, d: SecureDescriptor) {
        debug_assert!(self.is_member(&d.creator()));
        self.pool.push(d);
    }

    /// Current pool size.
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// Stores a harvested honest-created descriptor as a future
    /// redemption certificate.
    pub fn harvest_token(&mut self, d: SecureDescriptor) {
        if self.is_member(&d.creator()) || d.is_redeemed() {
            return;
        }
        if self.spent_tokens.contains(&d.id()) {
            return;
        }
        self.tokens.push(d);
    }

    /// Number of stored victim tokens.
    pub fn token_len(&self) -> usize {
        self.tokens.len()
    }

    /// Takes a redemption certificate for member `me`: a harvested
    /// honest-created descriptor whose ownership chain is extended (by
    /// forged intra-party transfers) to end at `me`.
    pub fn take_token_for<R: Rng + ?Sized>(
        &mut self,
        me: &NodeId,
        rng: &mut R,
    ) -> Option<SecureDescriptor> {
        while !self.tokens.is_empty() {
            let idx = rng.gen_range(0..self.tokens.len());
            let token = self.tokens.swap_remove(idx);
            if !self.spent_tokens.insert(token.id()) {
                continue;
            }
            let owner = token.owner();
            if owner == *me {
                return Some(token);
            }
            // Forge the hand-over from the harvesting member to `me`.
            let Some(kp) = self.keypair_of(&owner) else {
                continue; // owner somehow not a member; unusable
            };
            if let Ok(t) = token.transfer(kp, *me) {
                return Some(t);
            }
        }
        None
    }

    /// Clones a pool descriptor for `victim`, presented by member `me`:
    /// the base chain is extended (forging the base owner's signature if
    /// needed) to `me`, then transferred to the victim. Each call reuses
    /// pool bases freely — this is exactly the cloning violation the
    /// protocol is designed to expose.
    pub fn clone_for_victim<R: Rng + ?Sized>(
        &mut self,
        me: &NodeId,
        victim: &NodeId,
        rng: &mut R,
    ) -> Option<SecureDescriptor> {
        if self.pool.is_empty() {
            return None;
        }
        let base = &self.pool[rng.gen_range(0..self.pool.len())];
        let owned_by_me = if base.owner() == *me {
            base.clone()
        } else {
            let kp = self.keypair_of(&base.owner())?;
            base.transfer(kp, *me).ok()?
        };
        let kp_me = self.keypair_of(me)?;
        owned_by_me.transfer(kp_me, *victim).ok()
    }

    /// Records one deliberate duplication (Figure 7 bookkeeping).
    pub fn register_clone(&mut self, event: CloneEvent) {
        self.clone_events.push(event);
    }

    /// Every duplication the party's cloners performed, in order.
    pub fn clone_events(&self) -> &[CloneEvent] {
        &self.clone_events
    }

    /// Drops pool descriptors older than the retention window (the paper's
    /// pool holds descriptors "generated by malicious nodes in recent
    /// cycles"). Every member prunes on its turn, all at the same `now`
    /// in a cycle: a second prune at the latest one's `now` is skipped, as
    /// it would find nothing — whether a descriptor is kept depends on
    /// `now` alone, and what members contributed since is stamped at or
    /// after it.
    pub fn prune_pool(&mut self, now: Timestamp) {
        if self.pruned_at.replace(now) == Some(now) {
            return;
        }
        let horizon = self.pool_retention_cycles;
        let tpc = self.ticks_per_cycle;
        self.pool.retain(|d| d.age_cycles(now, tpc) <= horizon);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sc_crypto::Scheme;

    fn kp(tag: u8) -> Keypair {
        Keypair::from_seed(Scheme::KeyedHash, [tag; 32])
    }

    fn party() -> SecureParty {
        SecureParty::new(vec![kp(1), kp(2), kp(3)], vec![1, 2, 3], 1000)
    }

    #[test]
    fn membership() {
        let p = party();
        assert_eq!(p.len(), 3);
        assert!(p.is_member(&kp(1).public()));
        assert!(!p.is_member(&kp(9).public()));
        assert!(p.keypair_of(&kp(2).public()).is_some());
    }

    #[test]
    fn tokens_are_forged_to_requester() {
        let mut p = party();
        let honest = kp(100);
        let mut rng = SmallRng::seed_from_u64(1);
        // Honest descriptor harvested by member 1.
        let d = SecureDescriptor::create(&honest, 9, Timestamp(0))
            .transfer(&honest, kp(1).public())
            .unwrap();
        p.harvest_token(d);
        let me = kp(2).public();
        let token = p.take_token_for(&me, &mut rng).expect("token available");
        assert_eq!(token.owner(), me, "chain forged to requester");
        token.verify().expect("forged chain still verifies");
        // Token spent: no second use.
        assert!(p.take_token_for(&me, &mut rng).is_none());
    }

    #[test]
    fn member_created_descriptors_not_harvested() {
        let mut p = party();
        let d = SecureDescriptor::create(&kp(1), 1, Timestamp(0));
        p.harvest_token(d);
        assert_eq!(p.token_len(), 0);
    }

    #[test]
    fn clones_diverge_and_verify() {
        let mut p = party();
        let mut rng = SmallRng::seed_from_u64(2);
        let base = SecureDescriptor::create(&kp(1), 1, Timestamp(0));
        p.contribute_pool(base);
        let me = kp(2).public();
        let v1 = kp(50).public();
        let v2 = kp(51).public();
        let c1 = p.clone_for_victim(&me, &v1, &mut rng).unwrap();
        let c2 = p.clone_for_victim(&me, &v2, &mut rng).unwrap();
        c1.verify().unwrap();
        c2.verify().unwrap();
        assert_eq!(c1.id(), c2.id(), "same token cloned");
        assert_eq!(c1.owner(), v1);
        assert_eq!(c2.owner(), v2);
        // The two clones form a valid cloning proof.
        let proof = sc_core::ViolationProof::cloning(c1, c2).expect("clones conflict");
        assert!(p.is_member(&proof.culprit()), "a member is provably guilty");
    }

    #[test]
    fn pool_prunes_by_age() {
        let mut p = party();
        p.contribute_pool(SecureDescriptor::create(&kp(1), 1, Timestamp(0)));
        p.contribute_pool(SecureDescriptor::create(&kp(1), 1, Timestamp(20_000)));
        p.prune_pool(Timestamp(25_000));
        assert_eq!(p.pool_len(), 1, "old base evicted");
    }

    #[test]
    fn a_second_prune_at_the_same_now_is_a_no_op() {
        let mut p = party();
        p.contribute_pool(SecureDescriptor::create(&kp(1), 1, Timestamp(0)));
        p.contribute_pool(SecureDescriptor::create(&kp(2), 1, Timestamp(14_000)));
        p.prune_pool(Timestamp(15_000));
        assert_eq!(p.pool_len(), 1, "old base evicted");
        // A member's turn in the same cycle: its contribution is stamped
        // after `now`, so the skipped prune would have kept it anyway.
        p.contribute_pool(SecureDescriptor::create(&kp(3), 1, Timestamp(15_300)));
        p.prune_pool(Timestamp(15_000));
        assert_eq!(p.pool_len(), 2);
        // Even a base a prune would evict stays until the clock moves: the
        // skip is taken on `now` alone.
        p.contribute_pool(SecureDescriptor::create(&kp(1), 1, Timestamp(0)));
        p.prune_pool(Timestamp(15_000));
        assert_eq!(p.pool_len(), 3, "skipped");
        p.prune_pool(Timestamp(16_000));
        assert_eq!(p.pool_len(), 2, "the next cycle's prune evicts it");
    }
}
