//! Violation proofs: transferable, independently verifiable evidence of
//! protocol misconduct (§IV-B, §IV-C of the paper).
//!
//! A proof is a pair of signed descriptors that cannot legally coexist.
//! Because both carry the violator's own signatures, "presenting the two
//! conflicting descriptors to any third node can prove to it the
//! offender's violation and its identity" — validation requires no trust
//! in the accuser.

use crate::chain::{compare_chains, ChainRelation, CompareError};
use crate::descriptor::{DescriptorError, SecureDescriptor};
use sc_crypto::{sha256_concat, Digest, NodeId};

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

/// Indisputable evidence of a protocol violation: two conflicting signed
/// descriptors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViolationProof {
    kind: ProofKind,
    culprit: NodeId,
    left: SecureDescriptor,
    right: SecureDescriptor,
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
        let culprit = validate_cloning(&left, &right)?;
        Ok(ViolationProof {
            kind: ProofKind::Cloning,
            culprit,
            left,
            right,
        })
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
        let culprit = validate_frequency(&left, &right, period_ticks)?;
        Ok(ViolationProof {
            kind: ProofKind::Frequency,
            culprit,
            left,
            right,
        })
    }

    /// The violation class.
    pub fn kind(&self) -> ProofKind {
        self.kind
    }

    /// The provably guilty node.
    pub fn culprit(&self) -> NodeId {
        self.culprit
    }

    /// The two conflicting descriptors.
    pub fn evidence(&self) -> (&SecureDescriptor, &SecureDescriptor) {
        (&self.left, &self.right)
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
        let culprit = match self.kind {
            ProofKind::Cloning => validate_cloning(&self.left, &self.right)?,
            ProofKind::Frequency => validate_frequency(&self.left, &self.right, period_ticks)?,
        };
        if culprit != self.culprit {
            return Err(ProofError::NoConflict);
        }
        Ok(culprit)
    }

    /// A digest identifying this proof's evidence (used for de-duplication
    /// during flooding).
    pub fn digest(&self) -> Digest {
        sha256_concat(&[
            b"sc/proof",
            &[match self.kind {
                ProofKind::Cloning => 0u8,
                ProofKind::Frequency => 1u8,
            }],
            &self.left.state_digest(),
            &self.right.state_digest(),
        ])
    }
}

fn validate_cloning(
    left: &SecureDescriptor,
    right: &SecureDescriptor,
) -> Result<NodeId, ProofError> {
    left.verify()?;
    right.verify()?;
    match compare_chains(left, right) {
        Ok(ChainRelation::Divergent {
            signer,
            ns_exception: false,
            ..
        }) => Ok(signer),
        Ok(ChainRelation::Divergent {
            ns_exception: true, ..
        }) => Err(ProofError::SanctionedNsException),
        Ok(_) => Err(ProofError::NoConflict),
        Err(CompareError::DifferentIds) => Err(ProofError::NoConflict),
        // Same id, different genesis: that *is* a conflict, but of the
        // frequency class (two creations with one timestamp).
        Err(CompareError::GenesisMismatch) => Err(ProofError::NoConflict),
    }
}

fn validate_frequency(
    left: &SecureDescriptor,
    right: &SecureDescriptor,
    period_ticks: u64,
) -> Result<NodeId, ProofError> {
    left.verify()?;
    right.verify()?;
    if left.creator() != right.creator() {
        return Err(ProofError::DifferentCreators);
    }
    // The evidence must show two *distinct* creations. Same timestamp is
    // allowed only when the genesis records differ (two tokens minted on
    // one timestamp); otherwise it is the same descriptor.
    let distinct = left.genesis() != right.genesis();
    if !distinct {
        return Err(ProofError::NoConflict);
    }
    let dt = left.created_at().distance(right.created_at());
    if dt >= period_ticks {
        return Err(ProofError::NoConflict);
    }
    Ok(left.creator())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::LinkKind;
    use crate::time::Timestamp;
    use sc_crypto::{Keypair, Scheme};

    const PERIOD: u64 = 1000;

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

    #[test]
    fn transfer_then_regular_redeem_is_provable() {
        let (a, b) = (kp(1), kp(2));
        let d = SecureDescriptor::create(&a, 0, Timestamp(0))
            .transfer(&a, b.public())
            .unwrap();
        let circulating = d.transfer(&b, kp(3).public()).unwrap();
        let spent = d.redeem(&b, LinkKind::Redeem).unwrap();
        let proof = ViolationProof::cloning(circulating, spent).unwrap();
        assert_eq!(proof.culprit(), b.public());
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
        let proof = ViolationProof::cloning(left, right.clone()).unwrap();
        // Forge a proof claiming a different culprit.
        let mut forged = proof.clone();
        forged.culprit = kp(9).public();
        assert!(forged.validate(PERIOD).is_err());
    }

    #[test]
    fn digests_distinguish_proofs() {
        let (left, right, _) = cloning_pair();
        let p1 = ViolationProof::cloning(left.clone(), right.clone()).unwrap();
        let p2 = ViolationProof::cloning(right, left).unwrap();
        assert_ne!(p1.digest(), p2.digest());
        assert_eq!(p1.digest(), p1.clone().digest());
    }
}
