//! Violation proofs: transferable, independently verifiable evidence of
//! protocol misconduct (§IV-B, §IV-C of the paper).
//!
//! A proof is the shortest versions of two descriptors that conflict:
//! for a cloning, each side's chain up to and including the link where
//! the two part ways (the shared prefix and the culprit's two
//! signatures over one state); for a frequency violation, the two
//! geneses. Because both carry the violator's own signatures,
//! "presenting the two conflicting descriptors to any third node can
//! prove to it the offender's violation and its identity" — validation
//! requires no trust in the accuser. Nothing past the fork proves
//! anything more, so no proof carries it.

use crate::chain::{compare_chains, ChainRelation, CompareError};
use crate::descriptor::{DescriptorError, SecureDescriptor, WalkScratch};
use sc_crypto::NodeId;
use std::sync::Arc;

/// The two classes of provable violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProofKind {
    /// The culprit transferred/redeemed the same descriptor twice along
    /// incompatible histories.
    Cloning,
    /// The culprit created two distinct descriptors closer together than
    /// the gossip period.
    Frequency,
}

/// Why a claimed proof failed validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProofError {
    /// One of the two descriptors does not verify.
    BadDescriptor(DescriptorError),
    /// The descriptors do not conflict in the claimed way.
    NoConflict,
    /// The divergence is the sanctioned transfer/ns-redemption pair.
    SanctionedNsException,
    /// The two descriptors were not created by the same node.
    DifferentCreators,
}

impl core::fmt::Display for ProofError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProofError::BadDescriptor(e) => write!(f, "invalid descriptor in proof: {e}"),
            ProofError::NoConflict => write!(f, "descriptors do not conflict"),
            ProofError::SanctionedNsException => {
                write!(f, "divergence is a sanctioned non-swappable redemption")
            }
            ProofError::DifferentCreators => write!(f, "descriptors have different creators"),
        }
    }
}

impl std::error::Error for ProofError {}

impl From<DescriptorError> for ProofError {
    fn from(e: DescriptorError) -> Self {
        ProofError::BadDescriptor(e)
    }
}

/// Indisputable evidence of a protocol violation: the shortest versions
/// of two descriptors that conflict. Whatever pair a constructor is
/// given, it keeps only these, so a proof learned locally, decoded off
/// the wire or recovered from storage is the same minimal evidence.
///
/// One pointer to an immutable shared body: the blacklist entry, every
/// flood, piggyback list and grant holding a proof (§IV-C) hold a handle,
/// so the evidence exists once, not once per holder. Equality compares
/// the bodies by value.
#[derive(Clone, PartialEq, Eq)]
pub struct ViolationProof(Arc<Body>);

#[derive(PartialEq, Eq)]
struct Body {
    kind: ProofKind,
    culprit: NodeId,
    left: SecureDescriptor,
    right: SecureDescriptor,
}

/// The body's fields under the proof's name, as if there were no pointer.
impl core::fmt::Debug for ViolationProof {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let body = &*self.0;
        f.debug_struct("ViolationProof")
            .field("kind", &body.kind)
            .field("culprit", &body.culprit)
            .field("left", &body.left)
            .field("right", &body.right)
            .finish()
    }
}

impl ViolationProof {
    /// Builds a cloning proof from two copies with divergent chains.
    ///
    /// # Errors
    ///
    /// Fails if the pair does not actually prove a cloning violation
    /// (wrong ids, compatible chains, bad signatures, or the sanctioned
    /// non-swappable exception).
    pub fn cloning(left: SecureDescriptor, right: SecureDescriptor) -> Result<Self, ProofError> {
        Self::checked(ProofKind::Cloning, left, right, 0)
    }

    /// Builds a frequency proof from two distinct descriptors created by
    /// the same node within one gossip period (`period_ticks`).
    ///
    /// # Errors
    ///
    /// Fails if the pair does not prove a frequency violation.
    pub fn frequency(
        left: SecureDescriptor,
        right: SecureDescriptor,
        period_ticks: u64,
    ) -> Result<Self, ProofError> {
        Self::checked(ProofKind::Frequency, left, right, period_ticks)
    }

    fn checked(
        kind: ProofKind,
        left: SecureDescriptor,
        right: SecureDescriptor,
        period_ticks: u64,
    ) -> Result<Self, ProofError> {
        let scratch = &mut WalkScratch::default();
        let (culprit, keep) = guilty(kind, &left, &right, period_ticks, scratch)?;
        Ok(ViolationProof(Arc::new(Body {
            kind,
            culprit,
            left: left.prefix(keep),
            right: right.prefix(keep),
        })))
    }

    /// The violation class.
    pub fn kind(&self) -> ProofKind {
        self.0.kind
    }

    /// The provably guilty node.
    pub fn culprit(&self) -> NodeId {
        self.0.culprit
    }

    /// The two conflicting descriptors, each cut back to the shortest
    /// version that still conflicts with the other.
    pub fn evidence(&self) -> (&SecureDescriptor, &SecureDescriptor) {
        (&self.0.left, &self.0.right)
    }

    /// Whether `self` and `other` are handles on one body.
    #[cfg(test)]
    pub(crate) fn ptr_eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Re-validates the proof from scratch, as a third party receiving it
    /// over the network must (§IV-C: "legitimate nodes should check that
    /// each received proof has valid content"): every signature of both
    /// descriptors is checked, so proofs remain self-certifying.
    ///
    /// # Errors
    ///
    /// Returns the reason the evidence fails to prove the claimed
    /// violation.
    pub fn validate(&self, period_ticks: u64) -> Result<NodeId, ProofError> {
        self.validate_with(period_ticks, &mut WalkScratch::default())
    }

    /// [`validate`](Self::validate) on the caller's walk scratch, which a
    /// node keeps so that validating a flooded proof allocates nothing.
    pub(crate) fn validate_with(
        &self,
        period_ticks: u64,
        scratch: &mut WalkScratch,
    ) -> Result<NodeId, ProofError> {
        let b = &*self.0;
        match guilty(b.kind, &b.left, &b.right, period_ticks, scratch)? {
            (c, _) if c == b.culprit => Ok(c),
            _ => Err(ProofError::NoConflict),
        }
    }
}

/// The node `left` and `right` prove guilty of a `kind` violation, and
/// how many links of each side prove it: a cloning's fork `index + 1`
/// (the shared prefix and the two conflicting links), none for a
/// frequency violation (the two geneses). Every signature of both whole
/// chains is checked in one walk (one crypto bill), past the fork too; a
/// failure is `left`'s if both fail, as if each were verified in turn.
fn guilty(
    kind: ProofKind,
    left: &SecureDescriptor,
    right: &SecureDescriptor,
    period_ticks: u64,
    scratch: &mut WalkScratch,
) -> Result<(NodeId, usize), ProofError> {
    let verdicts = SecureDescriptor::verify_batch(&[left, right], scratch);
    verdicts.iter().copied().collect::<Result<(), _>>()?;
    match kind {
        ProofKind::Cloning => match compare_chains(left, right) {
            Ok(ChainRelation::Divergent {
                index,
                signer,
                ns_exception: false,
            }) => Ok((signer, index + 1)),
            Ok(ChainRelation::Divergent {
                ns_exception: true, ..
            }) => Err(ProofError::SanctionedNsException),
            Ok(_) => Err(ProofError::NoConflict),
            Err(CompareError::DifferentIds) => Err(ProofError::NoConflict),
            // Same id, different genesis: that *is* a conflict, but of the
            // frequency class (two creations with one timestamp).
            Err(CompareError::GenesisMismatch) => Err(ProofError::NoConflict),
        },
        ProofKind::Frequency if left.creator() != right.creator() => {
            Err(ProofError::DifferentCreators)
        }
        // The evidence must show two *distinct* creations. Same timestamp
        // is allowed only when the genesis records differ (two tokens
        // minted on one timestamp); otherwise it is the same descriptor.
        ProofKind::Frequency => {
            let distinct = left.genesis() != right.genesis();
            if !distinct || left.created_at().distance(right.created_at()) >= period_ticks {
                return Err(ProofError::NoConflict);
            }
            Ok((left.creator(), 0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::LinkKind;
    use crate::time::Timestamp;
    use sc_crypto::{Keypair, Scheme};

    const PERIOD: u64 = 1000;

    /// A cloning claim, built without the checks the constructors make.
    fn claim(culprit: NodeId, left: SecureDescriptor, right: SecureDescriptor) -> ViolationProof {
        ViolationProof(Arc::new(Body {
            kind: ProofKind::Cloning,
            culprit,
            left,
            right,
        }))
    }

    fn kp(tag: u8) -> Keypair {
        Keypair::from_seed(Scheme::Schnorr61, [tag; 32])
    }

    fn cloning_pair() -> (SecureDescriptor, SecureDescriptor, NodeId) {
        let (a, b, c, d) = (kp(1), kp(2), kp(3), kp(4));
        let ab = SecureDescriptor::create(&a, 0, Timestamp(0))
            .transfer(&a, b.public())
            .unwrap();
        let left = ab.transfer(&b, c.public()).unwrap();
        let right = ab.transfer(&b, d.public()).unwrap();
        (left, right, b.public())
    }

    #[test]
    fn cloning_proof_roundtrip() {
        let (left, right, culprit) = cloning_pair();
        let proof = ViolationProof::cloning(left, right).unwrap();
        assert_eq!(proof.kind(), ProofKind::Cloning);
        assert_eq!(proof.culprit(), culprit);
        assert_eq!(proof.validate(PERIOD).unwrap(), culprit);
    }

    #[test]
    fn cloning_rejects_compatible_chains() {
        let (a, b) = (kp(1), kp(2));
        let d = SecureDescriptor::create(&a, 0, Timestamp(0))
            .transfer(&a, b.public())
            .unwrap();
        let longer = d.transfer(&b, kp(3).public()).unwrap();
        assert_eq!(
            ViolationProof::cloning(d, longer).unwrap_err(),
            ProofError::NoConflict
        );
    }

    #[test]
    fn cloning_rejects_ns_exception() {
        let (a, b) = (kp(1), kp(2));
        let d = SecureDescriptor::create(&a, 0, Timestamp(0))
            .transfer(&a, b.public())
            .unwrap();
        let circulating = d.transfer(&b, kp(3).public()).unwrap();
        let ns = d.redeem(&b, LinkKind::RedeemNonSwappable).unwrap();
        assert_eq!(
            ViolationProof::cloning(circulating, ns).unwrap_err(),
            ProofError::SanctionedNsException
        );
    }

    /// `proof` holds the minimal evidence of a fork at `index`: each
    /// side `index + 1` links long, cut out of the given pair's own
    /// blocks, on one shared prefix block, naming the owner who signed
    /// both links at the fork, and valid.
    fn assert_minimal(proof: &ViolationProof, index: usize, given: [&SecureDescriptor; 2]) {
        let (l, r) = proof.evidence();
        for (kept, given) in [(l, given[0]), (r, given[1])] {
            assert_eq!(kept.transfer_count(), index + 1);
            assert!(
                kept.same_block(&given.prefix(index + 1)),
                "a cut, not a copy"
            );
        }
        assert!(l.prefix(index).same_block(&r.prefix(index)), "one prefix");
        let culprit = given[0].owner_at(index);
        assert_eq!(proof.culprit(), culprit);
        assert_eq!(proof.validate(PERIOD), Ok(culprit));
    }

    #[test]
    fn a_cloning_proof_keeps_the_prefix_and_the_two_conflicting_links() {
        let keys: Vec<Keypair> = (1..=8).map(kp).collect();
        let walk = |d: SecureDescriptor, hops: &[usize]| {
            hops.iter().fold(d, |d, &to| {
                let owner = keys.iter().find(|k| k.public() == d.owner()).unwrap();
                d.transfer(owner, keys[to].public()).unwrap()
            })
        };
        let root = SecureDescriptor::create(&keys[0], 0, Timestamp(0));
        // The creator's first link, as a hub attacker forks it; a
        // mid-chain owner, as in the paper's A→B→C→D→E vs A→B→F→G.
        for (shared, left_hops, right_hops) in [
            (&[][..], &[1, 2, 3][..], &[4, 5][..]),
            (&[1], &[2, 3, 4], &[5, 6]),
            (&[1, 2, 3], &[4], &[5, 6, 7, 1]),
        ] {
            let fork = walk(root.clone(), shared);
            let left = walk(fork.clone(), left_hops);
            let right = walk(fork.clone(), right_hops);
            for (l, r) in [(&left, &right), (&right, &left)] {
                let proof = ViolationProof::cloning(l.clone(), r.clone()).unwrap();
                assert_minimal(&proof, shared.len(), [l, r]);
            }
        }
    }

    #[test]
    fn transfer_then_regular_redeem_is_provable() {
        let (a, b) = (kp(1), kp(2));
        let d = SecureDescriptor::create(&a, 0, Timestamp(0))
            .transfer(&a, b.public())
            .unwrap();
        let circulating = d
            .transfer(&b, kp(3).public())
            .unwrap()
            .transfer(&kp(3), kp(4).public())
            .unwrap();
        let spent = d.redeem(&b, LinkKind::Redeem).unwrap();
        let proof = ViolationProof::cloning(circulating.clone(), spent.clone()).unwrap();
        assert_minimal(&proof, 1, [&circulating, &spent]);
        assert_eq!(proof.evidence().1.redemption_kind(), Some(LinkKind::Redeem));
    }

    #[test]
    fn a_frequency_proof_keeps_the_two_geneses() {
        let (a, b, c) = (kp(1), kp(2), kp(3));
        let d1 = SecureDescriptor::create(&a, 0, Timestamp(5000))
            .transfer(&a, b.public())
            .unwrap()
            .transfer(&b, c.public())
            .unwrap();
        let d2 = SecureDescriptor::create(&a, 0, Timestamp(5400))
            .transfer(&a, c.public())
            .unwrap();
        let proof = ViolationProof::frequency(d1.clone(), d2.clone(), PERIOD).unwrap();
        let (l, r) = proof.evidence();
        assert_eq!((l.transfer_count(), r.transfer_count()), (0, 0));
        assert!(l.same_block(&d1.prefix(0)) && r.same_block(&d2.prefix(0)));
        assert_eq!(proof.culprit(), a.public());
        assert_eq!(proof.validate(PERIOD), Ok(a.public()));
    }

    #[test]
    fn continuations_past_the_fork_do_not_change_a_refusal() {
        // The sanctioned pair and two compatible copies are refused as
        // before, however far either side runs on; so is a pair whose
        // only bad signature lies past the fork, which the kept evidence
        // alone would not show.
        let (a, b, c, d) = (kp(1), kp(2), kp(3), kp(4));
        let held = SecureDescriptor::create(&a, 0, Timestamp(0))
            .transfer(&a, b.public())
            .unwrap();
        let circulating = held
            .transfer(&b, c.public())
            .unwrap()
            .transfer(&c, d.public())
            .unwrap();
        let ns = held.redeem(&b, LinkKind::RedeemNonSwappable).unwrap();
        assert_eq!(
            ViolationProof::cloning(circulating.clone(), ns).unwrap_err(),
            ProofError::SanctionedNsException
        );
        assert_eq!(
            ViolationProof::cloning(held.clone(), circulating.clone()).unwrap_err(),
            ProofError::NoConflict
        );
        let other = held.transfer(&b, kp(5).public()).unwrap();
        let forged_tail = flipped(&circulating, 3, 9);
        assert_eq!(
            ViolationProof::cloning(other, forged_tail).unwrap_err(),
            ProofError::BadDescriptor(DescriptorError::BadLinkSignature { index: 2 })
        );
    }

    #[test]
    fn frequency_proof_roundtrip() {
        let a = kp(1);
        let d1 = SecureDescriptor::create(&a, 0, Timestamp(5000));
        let d2 = SecureDescriptor::create(&a, 0, Timestamp(5400));
        let proof = ViolationProof::frequency(d1, d2, PERIOD).unwrap();
        assert_eq!(proof.kind(), ProofKind::Frequency);
        assert_eq!(proof.culprit(), a.public());
        assert_eq!(proof.validate(PERIOD).unwrap(), a.public());
    }

    #[test]
    fn frequency_requires_sub_period_spacing() {
        let a = kp(1);
        let d1 = SecureDescriptor::create(&a, 0, Timestamp(5000));
        let d2 = SecureDescriptor::create(&a, 0, Timestamp(6000));
        assert_eq!(
            ViolationProof::frequency(d1, d2, PERIOD).unwrap_err(),
            ProofError::NoConflict,
            "exactly one period apart is legal"
        );
    }

    #[test]
    fn frequency_same_timestamp_different_genesis() {
        let a = kp(1);
        let d1 = SecureDescriptor::create(&a, 0, Timestamp(5000));
        let d2 = SecureDescriptor::create(&a, 9, Timestamp(5000));
        let proof = ViolationProof::frequency(d1, d2, PERIOD).unwrap();
        assert_eq!(proof.culprit(), a.public());
    }

    #[test]
    fn frequency_rejects_identical_descriptor() {
        let a = kp(1);
        let d = SecureDescriptor::create(&a, 0, Timestamp(5000));
        assert_eq!(
            ViolationProof::frequency(d.clone(), d, PERIOD).unwrap_err(),
            ProofError::NoConflict
        );
    }

    #[test]
    fn frequency_rejects_different_creators() {
        let d1 = SecureDescriptor::create(&kp(1), 0, Timestamp(5000));
        let d2 = SecureDescriptor::create(&kp(2), 0, Timestamp(5100));
        assert_eq!(
            ViolationProof::frequency(d1, d2, PERIOD).unwrap_err(),
            ProofError::DifferentCreators
        );
    }

    #[test]
    fn cloning_rejects_forged_evidence() {
        let (left, right, _) = cloning_pair();
        let mut links = right.chain();
        let mut sig = links[1].sig.to_bytes();
        sig[9] ^= 0x01;
        links[1].sig = sc_crypto::Signature::from_bytes(sig).unwrap();
        let forged = SecureDescriptor::from_parts(*right.genesis(), links);
        assert_eq!(
            ViolationProof::cloning(left, forged).unwrap_err(),
            ProofError::BadDescriptor(DescriptorError::BadLinkSignature { index: 1 })
        );
    }

    /// `sig` with byte `i` set, if that is still a signature: past the
    /// stored bytes it is not, and short of them, past what the scheme's
    /// verification reads (Schnorr61's bytes 17..33), it is one that
    /// digests and equality tell apart from the honest one.
    fn padded(sig: &sc_crypto::Signature, i: usize) -> Option<sc_crypto::Signature> {
        let mut bytes = sig.to_bytes();
        bytes[i] ^= 0x01;
        sc_crypto::Signature::from_bytes(bytes)
    }

    /// Schnorr61's padding bytes inside what is stored, and one past it.
    const PADDING_BYTES: [usize; 3] = [17, 32, 40];

    #[test]
    fn signature_padding_cannot_frame_an_honest_transfer() {
        // B honestly hands a descriptor on to C, once. Re-padding B's
        // link signature makes a second copy whose chain differs from
        // the honest one at B's link: were it accepted, a valid cloning
        // proof against B.
        for scheme in [Scheme::Schnorr61, Scheme::KeyedHash] {
            let key = |tag: u8| Keypair::from_seed(scheme, [tag; 32]);
            let (a, b, c) = (key(1), key(2), key(3));
            let honest = SecureDescriptor::create(&a, 0, Timestamp(0))
                .transfer(&a, b.public())
                .unwrap()
                .transfer(&b, c.public())
                .unwrap();
            for i in PADDING_BYTES {
                let mut links = honest.chain();
                let sig = padded(&links[1].sig, i);
                let stored = i < sc_crypto::SIGNATURE_STORED_LEN;
                assert_eq!(sig.is_some(), stored, "{scheme:?} byte {i}");
                let Some(sig) = sig else { continue };
                links[1].sig = sig;
                let framed = SecureDescriptor::from_parts(*honest.genesis(), links);
                assert!(
                    ViolationProof::cloning(honest.clone(), framed.clone()).is_err(),
                    "{scheme:?} byte {i}: a cloning proof against an honest signer"
                );
                assert!(framed.verify().is_err(), "{scheme:?} byte {i}");
            }
        }
    }

    #[test]
    fn signature_padding_cannot_frame_an_honest_creator() {
        // Re-padding A's genesis signature makes a second genesis with
        // A's timestamp: were it accepted, a Δt = 0 frequency proof
        // against A.
        for scheme in [Scheme::Schnorr61, Scheme::KeyedHash] {
            let a = Keypair::from_seed(scheme, [1; 32]);
            let honest = SecureDescriptor::create(&a, 0, Timestamp(5000));
            for i in PADDING_BYTES {
                let mut genesis = *honest.genesis();
                let sig = padded(&genesis.sig, i);
                let stored = i < sc_crypto::SIGNATURE_STORED_LEN;
                assert_eq!(sig.is_some(), stored, "{scheme:?} byte {i}");
                let Some(sig) = sig else { continue };
                genesis.sig = sig;
                let framed = SecureDescriptor::from_parts(genesis, Vec::new());
                assert!(
                    ViolationProof::frequency(honest.clone(), framed.clone(), PERIOD).is_err(),
                    "{scheme:?} byte {i}: a frequency proof against an honest creator"
                );
                assert!(framed.verify().is_err(), "{scheme:?} byte {i}");
            }
        }
    }

    #[test]
    fn tampered_evidence_fails_validation() {
        let (left, right, _) = cloning_pair();
        // Forge a proof claiming a different culprit.
        let forged = claim(kp(9).public(), left, right);
        assert!(forged.validate(PERIOD).is_err());
    }

    /// `d` with byte `byte` of one signature flipped — `at` 0 is the
    /// genesis's, `i + 1` link `i`'s — rebuilt as a decode would.
    fn flipped(d: &SecureDescriptor, at: usize, byte: usize) -> SecureDescriptor {
        let (mut genesis, mut links) = (*d.genesis(), d.chain());
        let sig = match at {
            0 => &mut genesis.sig,
            i => &mut links[i - 1].sig,
        };
        *sig = padded(sig, byte).expect("a stored byte");
        SecureDescriptor::from_parts(genesis, links)
    }

    #[test]
    fn validation_blames_what_the_reference_verifier_blames() {
        // Every stored byte of every signature of either side, flipped:
        // validation fails for `left`'s reason if `left` fails the
        // straight-line verifier, else for `right`'s, as if the two were
        // verified in turn. A walk scratch reused across every proof, as a
        // node reuses its own, carries no verdict from one to the next.
        use crate::descriptor::reference;
        let mut scratch = WalkScratch::default();
        for scheme in [Scheme::Schnorr61, Scheme::KeyedHash] {
            let key = |tag: u8| Keypair::from_seed(scheme, [tag; 32]);
            let (a, b) = (key(1), key(2));
            let ab = SecureDescriptor::create(&a, 0, Timestamp(0))
                .transfer(&a, b.public())
                .unwrap();
            let left = ab.transfer(&b, key(3).public()).unwrap();
            let right = ab.transfer(&b, key(4).public()).unwrap();
            let sigs = left.transfer_count() + 1;
            for at in 0..sigs {
                for byte in 0..sc_crypto::SIGNATURE_STORED_LEN {
                    // Different signatures on either side, so that when
                    // both fail, their reasons differ.
                    let bad_left = flipped(&left, at, byte);
                    let bad_right = flipped(&right, (at + 1) % sigs, byte);
                    for (l, r) in [
                        (&bad_left, &right),
                        (&left, &bad_right),
                        (&bad_left, &bad_right),
                    ] {
                        let proof = claim(b.public(), l.clone(), r.clone());
                        let got = proof.validate(PERIOD);
                        assert_eq!(proof.validate_with(PERIOD, &mut scratch), got);
                        match reference::verify(l).and_then(|()| reference::verify(r)) {
                            Err(e) => assert_eq!(
                                got,
                                Err(ProofError::BadDescriptor(e)),
                                "{scheme:?} signature {at} byte {byte}"
                            ),
                            Ok(()) => assert!(
                                !matches!(got, Err(ProofError::BadDescriptor(_))),
                                "{scheme:?} signature {at} byte {byte}: {got:?}"
                            ),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn validation_checks_every_signature_of_both_chains_once() {
        use crate::descriptor::tests::SIGNATURE_CHECKS;
        let (left, right, _) = cloning_pair();
        let longer = right.transfer(&kp(4), kp(5).public()).unwrap();
        let a = kp(1);
        let proofs = [
            ViolationProof::cloning(left.clone(), longer.clone()).unwrap(),
            ViolationProof::cloning(longer, left).unwrap(),
            ViolationProof::frequency(
                SecureDescriptor::create(&a, 0, Timestamp(5000)),
                SecureDescriptor::create(&a, 0, Timestamp(5400)),
                PERIOD,
            )
            .unwrap(),
        ];
        for proof in proofs {
            let (l, r) = proof.evidence();
            let before = SIGNATURE_CHECKS.get();
            proof.validate(PERIOD).unwrap();
            assert_eq!(
                SIGNATURE_CHECKS.get() - before,
                (l.transfer_count() + 1) + (r.transfer_count() + 1)
            );
        }
    }

    #[test]
    fn debug_names_the_fields_not_the_pointer() {
        let (left, right, culprit) = cloning_pair();
        let proof = ViolationProof::cloning(left.clone(), right.clone()).unwrap();
        assert_eq!(
            format!("{proof:?}"),
            format!(
                "ViolationProof {{ kind: Cloning, culprit: {culprit:?}, left: {left:?}, right: {right:?} }}"
            )
        );
    }

    #[test]
    fn a_proof_is_one_pointer() {
        use core::mem::size_of;
        assert_eq!(size_of::<ViolationProof>(), size_of::<usize>());
    }
}
