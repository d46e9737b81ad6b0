//! Adversarial tests for the verified-chain memo: whatever an attacker
//! does to a chain *after* its honest version was memoized, verification
//! against the memo must reject exactly what full verification rejects,
//! blaming the same check.
//!
//! The memo keeps one digest per verified chain — its tip. Copies the
//! tips do not cover (a fork below a tip, a shorter copy) are verified in
//! full; copies they do cover skip exactly the covered signatures.
//!
//! Tampered copies are rebuilt through `SecureDescriptor::from_parts` —
//! the same constructor the wire codec uses — so their state digests are
//! consistent with their (malicious) content, exactly as they would be
//! arriving off the network.

use sc_core::descriptor::{ChainLink, Genesis};
use sc_core::{DescriptorError, LinkKind, SecureDescriptor, Timestamp, VerifyMemo};
use sc_crypto::{Keypair, Scheme, Signature};

fn kp(tag: u8) -> Keypair {
    Keypair::from_seed(Scheme::Schnorr61, [tag; 32])
}

/// An honest chain A → B → C → D, verified into `memo` (as one tip).
fn memoized_chain(memo: &mut VerifyMemo) -> SecureDescriptor {
    let (a, b, c, d) = (kp(1), kp(2), kp(3), kp(4));
    let desc = SecureDescriptor::create(&a, 7, Timestamp(0))
        .transfer(&a, b.public())
        .unwrap()
        .transfer(&b, c.public())
        .unwrap()
        .transfer(&c, d.public())
        .unwrap();
    desc.verify_with(memo).unwrap();
    assert_eq!(memo.len(), 1, "the tip, not its prefixes");
    desc
}

/// `verify_with` must agree with `verify` on `d` — verdict and blamed
/// check — and keep agreeing when asked again.
fn assert_same_verdict(d: &SecureDescriptor, memo: &mut VerifyMemo) {
    assert_eq!(d.verify_with(memo), d.verify());
    assert_eq!(d.verify_with(memo), d.verify(), "second sighting");
}

/// A signature of `fill` bytes, zero-padded, that verifies under no key.
fn garbage_sig(fill: u8) -> Signature {
    let mut bytes = [0; sc_crypto::SIGNATURE_LEN];
    bytes[..sc_crypto::SIGNATURE_STORED_LEN].fill(fill);
    Signature::from_bytes(bytes).unwrap()
}

fn flip_sig(sig: &Signature, byte: usize) -> Signature {
    let mut bytes = sig.to_bytes();
    bytes[byte] ^= 0x01;
    Signature::from_bytes(bytes).unwrap()
}

#[test]
fn flipped_link_signature_under_a_memoized_tip_is_rejected() {
    let mut memo = VerifyMemo::new(256);
    let honest = memoized_chain(&mut memo);
    for index in 0..honest.chain().len() {
        let mut links = honest.chain().to_vec();
        links[index].sig = flip_sig(&links[index].sig, 3);
        let tampered = SecureDescriptor::from_parts(*honest.genesis(), links);
        assert_eq!(
            tampered.verify_with(&mut memo).unwrap_err(),
            DescriptorError::BadLinkSignature { index },
            "tampered link {index}"
        );
        assert_eq!(tampered.verify_with(&mut memo), tampered.verify());
    }
}

#[test]
fn spliced_prefix_from_another_descriptor_is_rejected() {
    let mut memo = VerifyMemo::new(256);
    let honest = memoized_chain(&mut memo);
    // A second descriptor by the same creator, also fully memoized.
    let (a, b) = (kp(1), kp(2));
    let other = SecureDescriptor::create(&a, 7, Timestamp(5000))
        .transfer(&a, b.public())
        .unwrap();
    other.verify_with(&mut memo).unwrap();
    // Graft the honest chain onto the other genesis: both sources are
    // memoized tips, but the combination was never verified and the link
    // signatures commit to the original genesis digest.
    let spliced = SecureDescriptor::from_parts(*other.genesis(), honest.chain().to_vec());
    assert_eq!(
        spliced.verify_with(&mut memo).unwrap_err(),
        DescriptorError::BadLinkSignature { index: 0 }
    );
    assert_eq!(spliced.verify_with(&mut memo), spliced.verify());
}

#[test]
fn forged_genesis_under_memoized_chain_is_rejected() {
    let mut memo = VerifyMemo::new(256);
    let honest = memoized_chain(&mut memo);
    let mut genesis = *honest.genesis();
    genesis.addr = 999; // genesis signature no longer covers the content
    let forged = SecureDescriptor::from_parts(genesis, honest.chain().to_vec());
    assert_eq!(
        forged.verify_with(&mut memo).unwrap_err(),
        DescriptorError::BadGenesisSignature
    );
    assert_eq!(forged.verify_with(&mut memo), forged.verify());
}

#[test]
fn wholly_forged_genesis_signature_is_rejected() {
    let mut memo = VerifyMemo::new(256);
    let c = kp(9);
    let genesis = Genesis {
        creator: c.public(),
        addr: 1,
        created_at: Timestamp(0),
        sig: garbage_sig(0xa5),
    };
    let forged = SecureDescriptor::from_parts(genesis, Vec::new());
    assert_eq!(
        forged.verify_with(&mut memo).unwrap_err(),
        DescriptorError::BadGenesisSignature
    );
    assert!(memo.is_empty(), "failed verification memoizes nothing");
}

#[test]
fn post_redemption_extension_rejected_despite_memoized_tip() {
    let mut memo = VerifyMemo::new(256);
    let (a, b, c) = (kp(1), kp(2), kp(3));
    let redeemed = SecureDescriptor::create(&a, 7, Timestamp(0))
        .transfer(&a, b.public())
        .unwrap()
        .redeem(&b, LinkKind::Redeem)
        .unwrap();
    redeemed.verify_with(&mut memo).unwrap();
    // Append a transfer after the terminal redemption. The complete
    // redeemed chain is a memoized tip — its signatures are skipped — yet
    // the structural walk must still reject the extension.
    let mut links = redeemed.chain().to_vec();
    links.push(ChainLink {
        to: c.public(),
        kind: LinkKind::Transfer,
        sig: garbage_sig(0x11),
    });
    let bad = SecureDescriptor::from_parts(*redeemed.genesis(), links);
    assert_eq!(
        bad.verify_with(&mut memo).unwrap_err(),
        DescriptorError::RedemptionNotTerminal
    );
    assert_eq!(bad.verify_with(&mut memo), bad.verify());
}

#[test]
fn forged_fork_below_a_memoized_tip_is_rejected() {
    let mut memo = VerifyMemo::new(256);
    let honest = memoized_chain(&mut memo);
    // An attacker (E) forges a continuation of the honest chain's parent,
    // signed with its own key instead of the owner's. The parent was never
    // a tip here, so nothing hits and the whole chain is checked.
    let e = kp(5);
    let mut links = honest.chain().to_vec();
    links.pop();
    let forged_link = ChainLink {
        to: e.public(),
        kind: LinkKind::Transfer,
        sig: e.sign(b"not even the right message"),
    };
    links.push(forged_link);
    let forged = SecureDescriptor::from_parts(*honest.genesis(), links);
    assert_eq!(
        forged.verify_with(&mut memo).unwrap_err(),
        DescriptorError::BadLinkSignature {
            index: honest.chain().len() - 1
        }
    );
    assert_eq!(forged.verify_with(&mut memo), forged.verify());
}

#[test]
fn failed_incremental_verification_never_poisons_the_memo() {
    let mut memo = VerifyMemo::new(256);
    let honest = memoized_chain(&mut memo);
    let len_after_honest = memo.len();
    let mut links = honest.chain().to_vec();
    links[1].sig = flip_sig(&links[1].sig, 5);
    let tampered = SecureDescriptor::from_parts(*honest.genesis(), links);
    assert!(tampered.verify_with(&mut memo).is_err());
    assert_eq!(
        memo.len(),
        len_after_honest,
        "rejection must not insert anything"
    );
    // And the tampered full digest itself must still miss.
    assert!(tampered.verify_with(&mut memo).is_err());
}

#[test]
fn memo_eviction_degrades_to_full_verification() {
    // A memo of capacity 1 forgets the chain as soon as another one is
    // verified; the verifier must still accept valid chains and reject
    // tampered ones.
    let mut memo = VerifyMemo::new(1);
    let honest = memoized_chain(&mut memo);
    let other = SecureDescriptor::create(&kp(8), 1, Timestamp(3));
    other.verify_with(&mut memo).unwrap();
    let lookups = memo.lookups();
    assert!(honest.verify_with(&mut memo).is_ok());
    assert_eq!(memo.lookups() - lookups, 4, "evicted: nothing hit");
    assert_eq!(memo.len(), 1);
    let mut links = honest.chain().to_vec();
    links[0].sig = flip_sig(&links[0].sig, 0);
    let tampered = SecureDescriptor::from_parts(*honest.genesis(), links);
    assert_eq!(
        tampered.verify_with(&mut memo).unwrap_err(),
        DescriptorError::BadLinkSignature { index: 0 }
    );
}

#[test]
fn honest_fork_below_a_memoized_tip_gets_the_full_verdict() {
    // B double-spends: the fork shares A → B with the memoized chain, but
    // that prefix was never a tip here. Nothing hits; every signature of
    // the fork is checked, and it is as valid as `verify()` says — §IV-B,
    // not the verifier, deals with the double spend.
    let mut memo = VerifyMemo::new(256);
    let honest = memoized_chain(&mut memo);
    let (b, e) = (kp(2), kp(5));
    let prefix = SecureDescriptor::from_parts(*honest.genesis(), honest.chain()[..1].to_vec());
    let fork = prefix.transfer(&b, e.public()).unwrap();
    let (lookups, hits) = (memo.lookups(), memo.hits());
    assert_eq!(fork.verify_with(&mut memo), Ok(()));
    assert_eq!(memo.lookups() - lookups, 3, "tip and both prefixes");
    assert_eq!(memo.hits(), hits, "none of them a verified tip");
    assert_same_verdict(&fork, &mut memo);
    // The same fork with its shared link tampered: blamed like `verify()`.
    let mut links = fork.chain().to_vec();
    links[0].sig = flip_sig(&links[0].sig, 2);
    let tampered = SecureDescriptor::from_parts(*fork.genesis(), links);
    assert_eq!(
        tampered.verify_with(&mut memo).unwrap_err(),
        DescriptorError::BadLinkSignature { index: 0 }
    );
    assert_same_verdict(&tampered, &mut memo);
}

#[test]
fn shorter_copy_of_a_memoized_chain_gets_the_full_verdict() {
    let mut memo = VerifyMemo::new(256);
    let honest = memoized_chain(&mut memo);
    for len in 0..honest.chain().len() {
        let shorter =
            SecureDescriptor::from_parts(*honest.genesis(), honest.chain()[..len].to_vec());
        let hits = memo.hits();
        assert_eq!(shorter.verify_with(&mut memo), Ok(()), "length {len}");
        // Shorter copies verified so far are tips by now; this one's
        // longest proper prefix is the previous one.
        assert_eq!(memo.hits() - hits, u64::from(len > 0), "length {len}");
        assert_same_verdict(&shorter, &mut memo);
    }
    // A shorter copy that was tampered with is rejected for its own flaw.
    let mut links = honest.chain()[..2].to_vec();
    links[1].sig = flip_sig(&links[1].sig, 4);
    let tampered = SecureDescriptor::from_parts(*honest.genesis(), links);
    assert_eq!(
        tampered.verify_with(&mut memo).unwrap_err(),
        DescriptorError::BadLinkSignature { index: 1 }
    );
    assert_same_verdict(&tampered, &mut memo);
}

#[test]
fn extension_of_a_memoized_tip_checks_exactly_the_new_link() {
    // D hands the memoized chain on. The valid extension passes on the
    // strength of one signature; an extension whose *new* link is forged
    // is blamed for that link; one whose covered part was tampered with
    // no longer carries the tip's digest and is checked from the genesis.
    let mut memo = VerifyMemo::new(256);
    let honest = memoized_chain(&mut memo);
    let (d, e) = (kp(4), kp(5));
    let extended = honest.transfer(&d, e.public()).unwrap();
    let last = extended.chain().len() - 1;

    let mut links = extended.chain().to_vec();
    links[last].sig = flip_sig(&links[last].sig, 6);
    let forged_tail = SecureDescriptor::from_parts(*extended.genesis(), links);
    let lookups = memo.lookups();
    assert_eq!(
        forged_tail.verify_with(&mut memo).unwrap_err(),
        DescriptorError::BadLinkSignature { index: last }
    );
    assert_eq!(memo.lookups() - lookups, 2, "tip miss, parent hit");
    assert_same_verdict(&forged_tail, &mut memo);

    let mut links = extended.chain().to_vec();
    links[1].sig = flip_sig(&links[1].sig, 6);
    let forged_body = SecureDescriptor::from_parts(*extended.genesis(), links);
    assert_eq!(
        forged_body.verify_with(&mut memo).unwrap_err(),
        DescriptorError::BadLinkSignature { index: 1 }
    );
    assert_same_verdict(&forged_body, &mut memo);

    let lookups = memo.lookups();
    assert_eq!(extended.verify_with(&mut memo), Ok(()));
    assert_eq!(memo.lookups() - lookups, 2, "tip miss, parent hit");
    assert_eq!(memo.len(), 2);
}
