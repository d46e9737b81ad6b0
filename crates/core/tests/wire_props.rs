//! Wire-codec property tests: round-trip identity for arbitrary valid
//! messages, and graceful rejection (no panic, no unbounded allocation)
//! of truncated, bit-flipped, or outright random input — over every
//! [`SecureMsg`] variant and both [`ViolationProof`] kinds.
//!
//! These back the adversarial-input guarantee of `wire::WireLimits`:
//! decoder memory is bounded by `min(input len, max_frame_bytes)` no
//! matter what a hostile peer puts in a length prefix.

use proptest::prelude::*;
use sc_core::wire::{self, Reader, WireError, WireLimits, Writer};
use sc_core::{
    AcceptBody, JoinGrantBody, JoinPingBody, LinkKind, RequestBody, RoundBody, RoundReplyBody,
    SecureDescriptor, SecureMsg, Timestamp, ViolationProof,
};
use sc_crypto::{Keypair, Scheme, SIGNATURE_LEN, SIGNATURE_STORED_LEN};
use std::cell::RefCell;

const PERIOD: u64 = 1000;

fn kp(tag: u8) -> Keypair {
    Keypair::from_seed(Scheme::KeyedHash, [tag.wrapping_add(1); 32])
}

/// Builds a descriptor owned by `kp(path.last())` after walking the
/// transfer `path`, optionally redeemed at the end.
fn descriptor(
    creator_tag: u8,
    addr: u32,
    ts: u64,
    path: &[u8],
    redeem: Option<LinkKind>,
) -> SecureDescriptor {
    let creator = kp(creator_tag);
    let mut d = SecureDescriptor::create(&creator, addr, Timestamp(ts));
    let mut owner = creator;
    for &next_tag in path {
        let next = kp(next_tag);
        if next.public() == owner.public() {
            continue;
        }
        d = d.transfer(&owner, next.public()).expect("legal transfer");
        owner = next;
    }
    if let Some(kind) = redeem {
        d = d.redeem(&owner, kind).expect("legal redemption");
    }
    d
}

/// A frequency violation: two descriptors minted by the same creator
/// closer together than `PERIOD`.
fn frequency_proof(creator_tag: u8, ts: u64) -> ViolationProof {
    let d1 = descriptor(creator_tag, 1, ts, &[], None);
    let d2 = descriptor(creator_tag, 1, ts + PERIOD / 2, &[], None);
    ViolationProof::frequency(d1, d2, PERIOD).expect("genuine violation")
}

/// A cloning violation: the same descriptor handed to two different
/// next owners.
fn cloning_proof(creator_tag: u8, ts: u64, left_tag: u8, right_tag: u8) -> ViolationProof {
    let creator = kp(creator_tag);
    let base = SecureDescriptor::create(&creator, 2, Timestamp(ts));
    let (lt, rt) = if left_tag == right_tag {
        (left_tag, left_tag.wrapping_add(1))
    } else {
        (left_tag, right_tag)
    };
    let l = base.transfer(&creator, kp(lt).public()).unwrap();
    let r = base.transfer(&creator, kp(rt).public()).unwrap();
    ViolationProof::cloning(l, r).expect("genuine violation")
}

/// Deterministically assembles one message from raw generated inputs,
/// cycling through every variant and both proof kinds.
#[allow(clippy::too_many_arguments)]
fn build_message(
    variant: u8,
    creator_tag: u8,
    addr: u32,
    ts: u64,
    path: Vec<u8>,
    extra: Vec<u8>,
    proof_kind: bool,
    with_option: bool,
) -> SecureMsg {
    // Tags 0..16 transfer among a pool disjoint from the proof creators
    // (100..) so proofs stay self-consistent.
    let d = |p: &[u8]| descriptor(creator_tag % 16, addr, ts, p, None);
    let proof = if proof_kind {
        SecureMsg::Proof(frequency_proof(100 + (creator_tag % 16), ts))
    } else {
        SecureMsg::Proof(cloning_proof(
            100 + (creator_tag % 16),
            ts,
            extra.first().copied().unwrap_or(3) % 16,
            extra.get(1).copied().unwrap_or(7) % 16,
        ))
    };
    match variant % 7 {
        0 => {
            let token = descriptor(creator_tag % 16, addr, ts, &path, Some(LinkKind::Redeem));
            SecureMsg::Request(Box::new(RequestBody {
                redeemed: token,
                fresh: d(&extra),
                offered: extra.iter().map(|&t| d(&[t % 16])).collect(),
                samples: path.iter().map(|&t| d(&[t % 16])).collect(),
                proofs: match proof {
                    SecureMsg::Proof(p) => vec![p],
                    _ => unreachable!(),
                },
            }))
        }
        1 => SecureMsg::Accept(Box::new(AcceptBody {
            transfers: path.iter().map(|&t| d(&[t % 16])).collect(),
            samples: extra.iter().map(|&t| d(&[t % 16])).collect(),
            proofs: match proof {
                SecureMsg::Proof(p) => vec![p],
                _ => unreachable!(),
            },
        })),
        2 => SecureMsg::Round(Box::new(RoundBody { transfer: d(&path) })),
        3 => SecureMsg::RoundReply(Box::new(RoundReplyBody {
            transfer: with_option.then(|| d(&path)),
        })),
        4 => SecureMsg::JoinPing(Box::new(JoinPingBody {
            joiner: kp(creator_tag % 16).public(),
        })),
        5 => SecureMsg::JoinGrant(Box::new(JoinGrantBody {
            descriptor: d(&path),
            proofs: match proof {
                SecureMsg::Proof(p) => vec![p],
                _ => unreachable!(),
            },
        })),
        _ => proof,
    }
}

fn encode(msg: &SecureMsg) -> Vec<u8> {
    let mut buf = Vec::new();
    wire::encode_message(msg, &mut buf);
    buf
}

/// Where in `buf`, the encoding of `msg`, a signature starts: every
/// genesis and link signature of every descriptor `msg` carries, proof
/// evidence included, found by its 64-byte wire form.
fn signature_offsets(msg: &SecureMsg, buf: &[u8]) -> Vec<usize> {
    let sigs = RefCell::new(Vec::new());
    wire::message_descriptor_bytes(msg, |d| {
        let links = d.chain().into_iter().map(|l| l.sig);
        sigs.borrow_mut()
            .extend(std::iter::once(d.genesis().sig).chain(links));
        0
    });
    let sigs = sigs.into_inner();
    (0..buf.len().saturating_sub(SIGNATURE_LEN - 1))
        .filter(|&at| {
            let window = &buf[at..at + SIGNATURE_LEN];
            sigs.iter().any(|s| s.to_bytes() == window)
        })
        .collect()
}

/// `d`, owned by `kp(owner)`, handed on along `path` (a hop to the
/// current owner is skipped), with its last owner's tag.
fn walk(mut d: SecureDescriptor, mut owner: u8, path: &[u8]) -> (SecureDescriptor, u8) {
    for &next in path {
        if next == owner {
            continue;
        }
        d = d
            .transfer(&kp(owner), kp(next).public())
            .expect("legal transfer");
        owner = next;
    }
    (d, owner)
}

/// A cloning proof's kind tag and both descriptors, written by hand: the
/// bytes a peer may send, whatever it chooses to put in them.
fn hand_written_cloning(left: &SecureDescriptor, right: &SecureDescriptor) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = Writer::new(&mut buf);
    w.u8(0);
    w.descriptor(left);
    w.descriptor(right);
    buf
}

/// One proof as [`Writer::proof`] encodes it.
fn encoded(proof: &ViolationProof) -> Vec<u8> {
    let mut buf = Vec::new();
    Writer::new(&mut buf).proof(proof);
    buf
}

#[test]
fn a_padded_proof_decodes_to_its_minimal_evidence() {
    // A throwaway sybil (tag 100) hands one fresh descriptor to two
    // victims; its accomplices then pad both sides with validly signed
    // links. The decoder keeps the fork alone, so what an honest node
    // re-floods is the sybil's two signatures, not the padding.
    let root = SecureDescriptor::create(&kp(100), 5, Timestamp(0));
    let (left, _) = walk(root.clone(), 100, &[1, 2, 3, 1, 2, 3, 1, 2]);
    let (right, _) = walk(root, 100, &[4, 5, 6, 4, 5, 6]);
    let buf = hand_written_cloning(&left, &right);
    let proof = Reader::new(&buf).proof(PERIOD).expect("a valid proof");
    assert_eq!(proof.culprit(), kp(100).public());
    let (l, r) = proof.evidence();
    assert_eq!((l.transfer_count(), r.transfer_count()), (1, 1));
    assert_eq!(proof.validate(PERIOD), Ok(kp(100).public()));
    let again = encoded(&proof);
    assert!(
        again.len() < buf.len(),
        "{} ≥ {} bytes",
        again.len(),
        buf.len()
    );
    let back = Reader::new(&again).proof(PERIOD).expect("re-decodes");
    assert_eq!(back, proof);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any fork point, any continuation on either side, a redemption on
    /// one: the proof keeps each side up to and including its link at the
    /// fork, and that evidence validates to the culprit the full pair
    /// names — built locally or decoded from the full pair's bytes alike.
    #[test]
    fn a_proof_keeps_only_what_proves_the_fork(
        shared in proptest::collection::vec(0u8..16, 0..6),
        left_path in proptest::collection::vec(0u8..16, 1..6),
        right_path in proptest::collection::vec(0u8..16, 1..6),
        redeem in proptest::any::<bool>(),
    ) {
        let root = SecureDescriptor::create(&kp(100), 7, Timestamp(0));
        let (fork, owner) = walk(root, 100, &shared);
        prop_assume!(left_path[0] != right_path[0]);
        prop_assume!(left_path[0] != owner && right_path[0] != owner);
        let (left, _) = walk(fork.clone(), owner, &left_path);
        let (mut right, last) = walk(fork.clone(), owner, &right_path);
        if redeem {
            right = right.redeem(&kp(last), LinkKind::Redeem).expect("legal redemption");
        }
        let culprit = fork.owner();
        let index = fork.transfer_count();
        let built = ViolationProof::cloning(left.clone(), right.clone()).expect("a fork");
        let decoded = Reader::new(&hand_written_cloning(&left, &right))
            .proof(PERIOD)
            .expect("a fork");
        prop_assert_eq!(&decoded, &built);
        for proof in [&built, &decoded] {
            let (l, r) = proof.evidence();
            prop_assert_eq!((l.transfer_count(), r.transfer_count()), (index + 1, index + 1));
            prop_assert_eq!(l.chain()[..index].to_vec(), fork.chain());
            prop_assert_eq!(r.chain()[..index].to_vec(), fork.chain());
            prop_assert_eq!(proof.culprit(), culprit);
            prop_assert_eq!(proof.validate(PERIOD), Ok(culprit));
        }
    }

    #[test]
    fn roundtrip_is_identity_for_all_variants(
        variant in 0u8..7,
        creator_tag in 0u8..16,
        addr in proptest::any::<u32>(),
        ts in 0u64..1_000_000,
        path in proptest::collection::vec(0u8..16, 0..6),
        extra in proptest::collection::vec(0u8..16, 0..4),
        proof_kind in proptest::any::<bool>(),
        with_option in proptest::any::<bool>(),
    ) {
        let msg = build_message(
            variant, creator_tag, addr, ts, path, extra, proof_kind, with_option,
        );
        let buf = encode(&msg);
        let back = wire::decode_message(&buf, PERIOD);
        prop_assert!(back.is_ok(), "roundtrip failed: {:?}", back.err());
        // SecureMsg has no PartialEq; identity is checked through the
        // canonical encoding.
        prop_assert_eq!(encode(&back.unwrap()), buf);
    }

    #[test]
    fn truncation_always_errors_never_panics(
        variant in 0u8..7,
        creator_tag in 0u8..16,
        ts in 0u64..1_000_000,
        path in proptest::collection::vec(0u8..16, 0..5),
        cut_seed in proptest::any::<u64>(),
        proof_kind in proptest::any::<bool>(),
    ) {
        let msg = build_message(
            variant, creator_tag, 9, ts, path, vec![1, 2], proof_kind, true,
        );
        let buf = encode(&msg);
        // Every proper prefix must fail: the full parse consumed the
        // whole buffer, so a shorter one always runs out of input.
        let step = (buf.len() / 64).max(1);
        let offset = (cut_seed % step as u64) as usize;
        let mut cut = offset;
        while cut < buf.len() {
            let r = wire::decode_message(&buf[..cut], PERIOD);
            prop_assert!(r.is_err(), "prefix of {cut}/{} decoded", buf.len());
            cut += step;
        }
    }

    #[test]
    fn bit_flips_never_panic_and_successes_reencode_identically(
        variant in 0u8..7,
        creator_tag in 0u8..16,
        ts in 0u64..1_000_000,
        path in proptest::collection::vec(0u8..16, 0..5),
        pos_seed in proptest::any::<u64>(),
        flip in 1u8..=255,
        proof_kind in proptest::any::<bool>(),
    ) {
        let msg = build_message(
            variant, creator_tag, 9, ts, path, vec![1, 2], proof_kind, true,
        );
        let mut buf = encode(&msg);
        let pos = (pos_seed % buf.len() as u64) as usize;
        buf[pos] ^= flip;
        // A flipped signature or timestamp byte may still decode (the
        // codec checks structure, not signatures) — but then the codec's
        // canonicity demands the re-encoding reproduce the flipped bytes.
        if let Ok(back) = wire::decode_message(&buf, PERIOD) {
            prop_assert_eq!(encode(&back), buf);
        }
    }

    /// A non-zero byte past a signature's stored ones — of a genesis, a
    /// link or a proof's evidence, in any message — decodes to
    /// `BadSignature`: a re-padded signature cannot be represented. Short
    /// of them the codec has no opinion (verification does).
    #[test]
    fn nonzero_signature_padding_is_refused_on_every_path(
        variant in 0u8..7,
        creator_tag in 0u8..16,
        ts in 0u64..1_000_000,
        path in proptest::collection::vec(0u8..16, 0..5),
        proof_kind in proptest::any::<bool>(),
        pick in proptest::any::<u64>(),
        byte in SIGNATURE_STORED_LEN..SIGNATURE_LEN,
        value in 1u8..=255,
    ) {
        let msg = build_message(
            variant, creator_tag, 9, ts, path, vec![1, 2], proof_kind, true,
        );
        let buf = encode(&msg);
        let offsets = signature_offsets(&msg, &buf);
        // A join ping carries no signature.
        prop_assume!(!offsets.is_empty());
        let at = offsets[(pick % offsets.len() as u64) as usize];
        let mut bad = buf.clone();
        bad[at + byte] = value;
        prop_assert_eq!(
            wire::decode_message(&bad, PERIOD).err(),
            Some(WireError::BadSignature),
            "signature at {}, byte {}", at, byte
        );
    }

    #[test]
    fn random_bytes_never_panic_and_respect_the_frame_cap(
        bytes in proptest::collection::vec(proptest::any::<u8>(), 0..512),
    ) {
        let limits = WireLimits { max_frame_bytes: 256, ..WireLimits::DEFAULT };
        let r = wire::decode_message_with(&bytes, PERIOD, &limits);
        if bytes.len() > limits.max_frame_bytes {
            prop_assert_eq!(
                r.unwrap_err(),
                WireError::FrameTooLarge { len: bytes.len(), max: 256 }
            );
        }
        // Under the cap: Ok or a typed error, never a panic. Random
        // bytes essentially never form a valid message, but either way
        // allocation was bounded by the 512-byte input.
        let _ = wire::decode_message(&bytes, PERIOD);
    }
}
