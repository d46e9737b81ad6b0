//! Chain-of-ownership comparison: the ownership check of §IV-B.
//!
//! Two copies of the same descriptor (same
//! [`DescriptorId`](crate::DescriptorId), identical genesis) must report
//! *compatible* histories: either their chains are
//! identical, or one is a prefix of the other (the longer copy is simply a
//! later snapshot of the same token). Any divergence means the owner at
//! the divergence point signed two different continuations — indisputable
//! proof of a cloning violation, with that owner as the culprit.
//!
//! The single sanctioned exception (§V-A): an owner that transferred a
//! descriptor away may retain a *non-swappable* copy and later redeem it.
//! That produces exactly one divergence whose two sides are a
//! [`LinkKind::Transfer`] and a [`LinkKind::RedeemNonSwappable`] signed by
//! the same node — allowed, and bounded creator-side by the
//! once-per-descriptor / once-per-cycle acceptance rules.

use crate::descriptor::{ChainLink, LinkKind, SecureDescriptor};
use sc_crypto::NodeId;

/// Relation between two copies of the same descriptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChainRelation {
    /// Byte-for-byte identical chains.
    Identical,
    /// The left copy extends the right (right is a strict prefix).
    LeftExtendsRight,
    /// The right copy extends the left (left is a strict prefix).
    RightExtendsLeft,
    /// The chains diverge: the same owner signed two different
    /// continuations at `index`.
    Divergent {
        /// Index of the first differing link.
        index: usize,
        /// The owner who signed both differing links.
        signer: NodeId,
        /// Whether the divergence is the sanctioned
        /// {transfer, non-swappable redemption} pair.
        ns_exception: bool,
    },
}

/// Errors from chain comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompareError {
    /// The descriptors have different IDs; they are unrelated tokens.
    DifferentIds,
    /// Same ID but different genesis records: the creator signed two
    /// distinct descriptors with the same timestamp. Not a chain matter —
    /// the caller should treat it as a frequency violation (Δt = 0).
    GenesisMismatch,
}

impl core::fmt::Display for CompareError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CompareError::DifferentIds => write!(f, "descriptors have different ids"),
            CompareError::GenesisMismatch => {
                write!(f, "same id but conflicting genesis records")
            }
        }
    }
}

impl std::error::Error for CompareError {}

fn is_ns_pair(a: &ChainLink, b: &ChainLink) -> bool {
    matches!(
        (a.kind, b.kind),
        (LinkKind::Transfer, LinkKind::RedeemNonSwappable)
            | (LinkKind::RedeemNonSwappable, LinkKind::Transfer)
    )
}

/// Compares two copies of a descriptor and classifies their relation.
///
/// Does **not** verify signatures; callers are expected to have verified
/// both descriptors first (proof construction re-verifies).
///
/// # Errors
///
/// See [`CompareError`].
pub fn compare_chains(
    left: &SecureDescriptor,
    right: &SecureDescriptor,
) -> Result<ChainRelation, CompareError> {
    // Copies of one descriptor share their block (a sample handed from
    // cache to message to cache is the same pointer all the way), and a
    // copy decoded on its own carries the same state digest, which commits
    // to the genesis and to every link: repeat sightings end here on the
    // two tip blocks, reading neither genesis nor chain.
    if left.same_block(right) || left.state_digest() == right.state_digest() {
        return Ok(ChainRelation::Identical);
    }
    // Versions grown from one creation share their root, genesis and all.
    let (lg, rg) = (left.genesis(), right.genesis());
    if !core::ptr::eq(lg, rg) && lg != rg {
        return Err(if left.id() != right.id() {
            CompareError::DifferentIds
        } else {
            CompareError::GenesisMismatch
        });
    }
    // The dominant cases — a repeat sighting, a later snapshot built on
    // the cached one — are settled without reading a link.
    if let Some((index, signer, l, r)) = left.divergence(right) {
        return Ok(ChainRelation::Divergent {
            index,
            signer,
            ns_exception: is_ns_pair(l, r),
        });
    }
    Ok(match left.transfer_count().cmp(&right.transfer_count()) {
        core::cmp::Ordering::Equal => ChainRelation::Identical,
        core::cmp::Ordering::Greater => ChainRelation::LeftExtendsRight,
        core::cmp::Ordering::Less => ChainRelation::RightExtendsLeft,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::SecureDescriptor;
    use crate::time::Timestamp;
    use sc_crypto::{Keypair, Scheme};

    fn kp(tag: u8) -> Keypair {
        Keypair::from_seed(Scheme::Schnorr61, [tag; 32])
    }

    fn base() -> (Keypair, Keypair, SecureDescriptor) {
        let a = kp(1);
        let b = kp(2);
        let d = SecureDescriptor::create(&a, 0, Timestamp(0))
            .transfer(&a, b.public())
            .unwrap();
        (a, b, d)
    }

    #[test]
    fn identical_chains() {
        let (_, _, d) = base();
        assert_eq!(compare_chains(&d, &d.clone()), Ok(ChainRelation::Identical));
    }

    #[test]
    fn prefix_relations() {
        let (_, b, d) = base();
        let longer = d.transfer(&b, kp(3).public()).unwrap();
        assert_eq!(
            compare_chains(&longer, &d),
            Ok(ChainRelation::LeftExtendsRight)
        );
        assert_eq!(
            compare_chains(&d, &longer),
            Ok(ChainRelation::RightExtendsLeft)
        );
    }

    #[test]
    fn paper_example_divergence_blames_b() {
        // Paper §IV-B: A→B→C→D→E vs A→B→F→G proves B cloned.
        let (a, b, c, dd, e, f, g) = (kp(1), kp(2), kp(3), kp(4), kp(5), kp(6), kp(7));
        let ab = SecureDescriptor::create(&a, 0, Timestamp(0))
            .transfer(&a, b.public())
            .unwrap();
        let left = ab
            .transfer(&b, c.public())
            .unwrap()
            .transfer(&c, dd.public())
            .unwrap()
            .transfer(&dd, e.public())
            .unwrap();
        let right = ab
            .transfer(&b, f.public())
            .unwrap()
            .transfer(&f, g.public())
            .unwrap();
        match compare_chains(&left, &right).unwrap() {
            ChainRelation::Divergent {
                index,
                signer,
                ns_exception,
            } => {
                assert_eq!(index, 1);
                assert_eq!(signer, b.public(), "B is the culprit");
                assert!(!ns_exception);
            }
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    #[test]
    fn creator_cloning_blames_creator() {
        let (a, b, c) = (kp(1), kp(2), kp(3));
        let d = SecureDescriptor::create(&a, 0, Timestamp(0));
        let left = d.transfer(&a, b.public()).unwrap();
        let right = d.transfer(&a, c.public()).unwrap();
        match compare_chains(&left, &right).unwrap() {
            ChainRelation::Divergent { index, signer, .. } => {
                assert_eq!(index, 0);
                assert_eq!(signer, a.public());
            }
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    #[test]
    fn ns_redemption_is_the_allowed_exception() {
        use crate::descriptor::LinkKind;
        let (_, b, d) = base();
        let circulating = d.transfer(&b, kp(3).public()).unwrap();
        let ns_copy = d.redeem(&b, LinkKind::RedeemNonSwappable).unwrap();
        match compare_chains(&circulating, &ns_copy).unwrap() {
            ChainRelation::Divergent {
                signer,
                ns_exception,
                ..
            } => {
                assert_eq!(signer, b.public());
                assert!(ns_exception, "transfer/ns-redeem pair is sanctioned");
            }
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    #[test]
    fn transfer_plus_regular_redeem_is_a_violation() {
        use crate::descriptor::LinkKind;
        let (_, b, d) = base();
        let circulating = d.transfer(&b, kp(3).public()).unwrap();
        let spent = d.redeem(&b, LinkKind::Redeem).unwrap();
        match compare_chains(&circulating, &spent).unwrap() {
            ChainRelation::Divergent {
                ns_exception,
                signer,
                ..
            } => {
                assert!(!ns_exception, "double-spend via redeem is not excused");
                assert_eq!(signer, b.public());
            }
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    #[test]
    fn different_ids_rejected() {
        let a = kp(1);
        let d1 = SecureDescriptor::create(&a, 0, Timestamp(0));
        let d2 = SecureDescriptor::create(&a, 0, Timestamp(1000));
        assert_eq!(compare_chains(&d1, &d2), Err(CompareError::DifferentIds));
    }

    #[test]
    fn genesis_mismatch_detected() {
        // Same creator, same timestamp, different address — the creator
        // minted two descriptors with one timestamp.
        let a = kp(1);
        let d1 = SecureDescriptor::create(&a, 0, Timestamp(0));
        let d2 = SecureDescriptor::create(&a, 9, Timestamp(0));
        assert_eq!(compare_chains(&d1, &d2), Err(CompareError::GenesisMismatch));
    }
}
