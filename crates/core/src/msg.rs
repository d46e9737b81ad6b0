//! SecureCyclon wire messages.
//!
//! A tit-for-tat gossip exchange (§V-B) is a sequence of `s` round trips:
//!
//! ```text
//! initiator                                   partner
//!   Request { redeemed, fresh, samples, … } ──▶
//!   ◀── Accept { transfers:[d₁], samples, … }
//!   Round { transfer: p₂ }                  ──▶
//!   ◀── RoundReply { transfer: Some(d₂) }
//!   …                                          (s − 1 Round trips)
//! ```
//!
//! With tit-for-tat disabled the initiator ships all its transfers inside
//! `Request::offered` and the partner answers with up to `s` in
//! `Accept::transfers` — the single-shot legacy shape that the
//! link-depletion attack of Figure 6 exploits.
//!
//! Violation proofs travel both as one-way floods ([`SecureMsg::Proof`])
//! and piggybacked on `Request`/`Accept`.
//!
//! A *starved* node — its view, reserve, and back-fill pools all empty,
//! e.g. after a partition outlasted its descriptors — re-enters the
//! overlay with the §V-A bootstrap applied in-protocol: it sends
//! [`SecureMsg::JoinPing`] one-ways to recently sampled addresses, and a
//! willing receiver answers with [`SecureMsg::JoinGrant`] carrying a
//! sponsored descriptor (spending that cycle's fresh-descriptor budget,
//! so the frequency rule is never violated).

use crate::descriptor::SecureDescriptor;
use crate::proof::ViolationProof;
use sc_crypto::NodeId;

/// Body of a gossip request (round 0).
#[derive(Clone, Debug)]
pub struct RequestBody {
    /// The descriptor being redeemed: created by the target, owned by the
    /// initiator, carrying a terminal redemption link. The "communication
    /// certificate" of §IV-A.
    pub redeemed: SecureDescriptor,
    /// The initiator's fresh self-descriptor, ownership already
    /// transferred to the target (the first tit-for-tat transfer).
    pub fresh: SecureDescriptor,
    /// Additional ownership transfers (non-tit-for-tat mode only).
    pub offered: Vec<SecureDescriptor>,
    /// Copies of the rest of the initiator's view plus its redemption
    /// cache — samples, no ownership attached (§IV-B).
    pub samples: Vec<SecureDescriptor>,
    /// Recently learned violation proofs (§IV-C piggyback).
    pub proofs: Vec<ViolationProof>,
}

/// Body of a gossip acceptance (the partner's half of round 1).
#[derive(Clone, Debug)]
pub struct AcceptBody {
    /// Ownership transfers to the initiator: exactly one in tit-for-tat
    /// mode, up to `s` otherwise.
    pub transfers: Vec<SecureDescriptor>,
    /// Copies of the rest of the partner's view plus its redemption cache.
    pub samples: Vec<SecureDescriptor>,
    /// Recently learned violation proofs.
    pub proofs: Vec<ViolationProof>,
}

/// One subsequent tit-for-tat round from the initiator.
#[derive(Clone, Debug)]
pub struct RoundBody {
    /// The initiator's next ownership transfer.
    pub transfer: SecureDescriptor,
}

/// The partner's reply to a [`RoundBody`].
#[derive(Clone, Debug)]
pub struct RoundReplyBody {
    /// The partner's next ownership transfer, or `None` if it has nothing
    /// left to give (ends the exchange).
    pub transfer: Option<SecureDescriptor>,
}

/// A joiner's or a starved node's plea for sponsorship (§V-A).
#[derive(Clone, Debug)]
pub struct JoinPingBody {
    /// The pinging node's identity — the key a sponsorship descriptor
    /// must be transferred to.
    pub joiner: NodeId,
}

/// A sponsor's answer to a [`JoinPingBody`].
#[derive(Clone, Debug)]
pub struct JoinGrantBody {
    /// A fresh descriptor created by the sponsor, ownership already
    /// transferred to the joiner (the §V-A bootstrap lifeline).
    pub descriptor: SecureDescriptor,
    /// Every violation proof the sponsor holds, so the joiner learns the
    /// culprits already proven — or, rejoining, those it missed while
    /// isolated (§IV-C).
    pub proofs: Vec<ViolationProof>,
}

/// All SecureCyclon messages.
#[derive(Clone, Debug)]
pub enum SecureMsg {
    /// Gossip request (RPC).
    Request(Box<RequestBody>),
    /// Gossip acceptance (RPC reply).
    Accept(Box<AcceptBody>),
    /// Tit-for-tat round (RPC).
    Round(Box<RoundBody>),
    /// Tit-for-tat round reply (RPC reply).
    RoundReply(Box<RoundReplyBody>),
    /// Flooded violation proof (one-way, §IV-C).
    Proof(ViolationProof),
    /// A joiner's or a starved node's sponsorship plea (one-way, §V-A).
    JoinPing(Box<JoinPingBody>),
    /// Sponsorship grant answering a ping (one-way, §V-A).
    JoinGrant(Box<JoinGrantBody>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;
    use sc_crypto::{Keypair, Scheme};

    #[test]
    fn messages_are_cloneable_and_debuggable() {
        let kp = Keypair::from_seed(Scheme::Schnorr61, [1; 32]);
        let d = SecureDescriptor::create(&kp, 0, Timestamp(0));
        let msg = SecureMsg::Round(Box::new(RoundBody { transfer: d }));
        let copy = msg.clone();
        assert!(!format!("{copy:?}").is_empty());
    }
}
