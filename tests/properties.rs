//! Property-based tests over the core invariants of the system:
//! chain-of-ownership algebra, violation detection soundness and
//! completeness, wire-codec round trips, and signature behavior.

use proptest::prelude::*;
use securecyclon::core::{
    compare_chains, wire, ChainRelation, LinkKind, Observation, SampleCache, SecureDescriptor,
    Timestamp, VerifyMemo, ViolationProof,
};
use securecyclon::crypto::{sha256, Keypair, Scheme, Sha256, Signature};

const PERIOD: u64 = 1000;

fn kp(tag: u8) -> Keypair {
    Keypair::from_seed(Scheme::KeyedHash, [tag.wrapping_add(1); 32])
}

/// Builds a descriptor and walks it through `path` (indices into a fixed
/// keypair pool), returning every intermediate snapshot.
fn chain_snapshots(creator_tag: u8, ts: u64, path: &[u8]) -> Vec<SecureDescriptor> {
    let creator = kp(creator_tag);
    let mut cur = SecureDescriptor::create(&creator, creator_tag as u32, Timestamp(ts));
    let mut owner = creator;
    let mut out = vec![cur.clone()];
    for &next_tag in path {
        let next = kp(next_tag);
        if next.public() == owner.public() {
            continue; // transfer to current owner is illegal; skip
        }
        cur = cur.transfer(&owner, next.public()).expect("legal transfer");
        owner = next;
        out.push(cur.clone());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ------------------------------------------------------------------
    // Chain algebra
    // ------------------------------------------------------------------

    #[test]
    fn legal_chains_always_verify(path in proptest::collection::vec(0u8..20, 0..12)) {
        let snaps = chain_snapshots(0, 5000, &path);
        for d in &snaps {
            prop_assert!(d.verify().is_ok());
        }
        let last = snaps.last().unwrap();
        prop_assert_eq!(last.owners().count(), last.chain().len() + 1);
    }

    #[test]
    fn snapshots_of_one_history_are_always_compatible(
        path in proptest::collection::vec(0u8..20, 0..12),
        i in 0usize..12,
        j in 0usize..12,
    ) {
        let snaps = chain_snapshots(0, 5000, &path);
        let a = &snaps[i.min(snaps.len() - 1)];
        let b = &snaps[j.min(snaps.len() - 1)];
        let rel = compare_chains(a, b).expect("same descriptor");
        let expected = match a.chain().len().cmp(&b.chain().len()) {
            std::cmp::Ordering::Equal => ChainRelation::Identical,
            std::cmp::Ordering::Greater => ChainRelation::LeftExtendsRight,
            std::cmp::Ordering::Less => ChainRelation::RightExtendsLeft,
        };
        prop_assert_eq!(rel, expected, "prefix snapshots never conflict");
    }

    #[test]
    fn double_spend_always_yields_a_proof_against_the_forker(
        prefix in proptest::collection::vec(0u8..20, 0..8),
        left in 0u8..20,
        right in 0u8..20,
    ) {
        let snaps = chain_snapshots(0, 5000, &prefix);
        let base = snaps.last().unwrap();
        let owner_tag_pool: Vec<u8> = (0..20).collect();
        // Find the actual current owner's keypair by searching the pool.
        let owner = owner_tag_pool
            .iter()
            .map(|&t| kp(t))
            .find(|k| k.public() == base.owner())
            .expect("owner is from the pool");
        let to_left = kp(left);
        let to_right = kp(right);
        prop_assume!(to_left.public() != to_right.public());
        prop_assume!(to_left.public() != base.owner() && to_right.public() != base.owner());

        let a = base.transfer(&owner, to_left.public()).unwrap();
        let b = base.transfer(&owner, to_right.public()).unwrap();
        match compare_chains(&a, &b).unwrap() {
            ChainRelation::Divergent { signer, ns_exception, .. } => {
                prop_assert_eq!(signer, base.owner(), "fork signer is the culprit");
                prop_assert!(!ns_exception);
            }
            other => prop_assert!(false, "expected divergence, got {other:?}"),
        }
        let proof = ViolationProof::cloning(a, b).expect("proof construction");
        prop_assert_eq!(proof.culprit(), base.owner());
        prop_assert_eq!(proof.validate(PERIOD).unwrap(), base.owner());
    }

    // ------------------------------------------------------------------
    // Sample-cache soundness (no false accusations) and completeness
    // ------------------------------------------------------------------

    #[test]
    fn honest_histories_never_trigger_violations(
        paths in proptest::collection::vec(
            (0u8..6, proptest::collection::vec(0u8..20, 0..8)),
            1..6
        ),
        order_seed in 0u64..1000,
    ) {
        // Several independent descriptors (distinct creators or distinct
        // timestamps a full period apart), all snapshots observed in a
        // scrambled order: a correct node must never "discover" anything.
        let mut cache = SampleCache::new(1000, PERIOD);
        let mut all = Vec::new();
        for (k, (creator, path)) in paths.iter().enumerate() {
            let ts = 5000 + (k as u64) * PERIOD; // frequency-legal spacing
            all.extend(chain_snapshots(*creator, ts, path));
        }
        // Deterministic scramble.
        let mut idx: Vec<usize> = (0..all.len()).collect();
        idx.sort_by_key(|&i| (i as u64).wrapping_mul(order_seed | 1) % 7919);
        for i in idx {
            let obs = cache.observe(&all[i], 0);
            prop_assert!(
                !matches!(obs, Observation::Violation(_)),
                "false accusation on honest history"
            );
        }
    }

    #[test]
    fn observed_double_spends_are_always_caught(
        prefix in proptest::collection::vec(0u8..20, 0..6),
        noise in proptest::collection::vec(0u8..20, 0..4),
    ) {
        let snaps = chain_snapshots(0, 5000, &prefix);
        let base = snaps.last().unwrap();
        let owner = (0u8..20)
            .map(kp)
            .find(|k| k.public() == base.owner())
            .unwrap();
        let fork_a = kp(40);
        let fork_b = kp(41);
        let a = base.transfer(&owner, fork_a.public()).unwrap();
        let b = base.transfer(&owner, fork_b.public()).unwrap();
        // Extend branch b further (noise): conflict must still be caught.
        let mut b_ext = b.clone();
        let mut cur_owner = fork_b;
        for &t in &noise {
            let next = kp(t);
            if next.public() == b_ext.owner() { continue; }
            b_ext = b_ext.transfer(&cur_owner, next.public()).unwrap();
            cur_owner = next;
        }
        let mut cache = SampleCache::new(1000, PERIOD);
        assert_eq!(cache.observe(&a, 0), Observation::New);
        match cache.observe(&b_ext, 0) {
            Observation::Violation(p) => {
                prop_assert_eq!(p.culprit(), base.owner());
            }
            other => prop_assert!(false, "double spend missed: {other:?}"),
        }
    }

    #[test]
    fn frequency_rule_matches_spacing(
        t1 in 0u64..50_000,
        dt in 0u64..3000,
    ) {
        let creator = kp(0);
        let d1 = SecureDescriptor::create(&creator, 0, Timestamp(t1));
        let d2 = SecureDescriptor::create(&creator, 0, Timestamp(t1 + dt));
        let mut cache = SampleCache::new(1000, PERIOD);
        cache.observe(&d1, 0);
        let obs = cache.observe(&d2, 0);
        if dt == 0 {
            // Same timestamp + same address ⇒ the very same descriptor.
            prop_assert_eq!(obs, Observation::AlreadyKnown);
        } else if dt < PERIOD {
            prop_assert!(matches!(obs, Observation::Violation(_)), "sub-period spacing");
        } else {
            prop_assert_eq!(obs, Observation::New, "legal spacing");
        }
    }

    // ------------------------------------------------------------------
    // Incremental (memoized) verification ≡ full verification
    // ------------------------------------------------------------------

    #[test]
    fn incremental_verify_matches_full_verify(
        path in proptest::collection::vec(0u8..20, 0..10),
        warm in proptest::collection::vec(0usize..11, 0..5),
        fork_tag in 20u8..30,
        redeem_kind in prop_oneof![Just(LinkKind::Redeem), Just(LinkKind::RedeemNonSwappable)],
        tamper_link in 0usize..10,
        // Keyed-hash signatures only populate bytes 0..33 (tag + digest);
        // flips beyond that are no-ops by construction, so stay inside.
        tamper_byte in 0usize..33,
    ) {
        // Random honest history plus a fork and a redemption off its tip,
        // checked against a memo warmed with a random subset of snapshots.
        let snaps = chain_snapshots(0, 5000, &path);
        let mut memo = VerifyMemo::new(512);
        for &w in &warm {
            let d = &snaps[w.min(snaps.len() - 1)];
            prop_assert_eq!(d.verify_with(&mut memo), d.verify());
        }
        let base = snaps.last().unwrap();
        let owner = (0u8..20).map(kp).find(|k| k.public() == base.owner()).unwrap();
        let mut variants: Vec<SecureDescriptor> = snaps.clone();
        if kp(fork_tag).public() != base.owner() {
            variants.push(base.transfer(&owner, kp(fork_tag).public()).unwrap());
        }
        if !base.chain().is_empty() {
            variants.push(base.redeem(&owner, redeem_kind).unwrap());
        }
        for d in &variants {
            prop_assert_eq!(d.verify_with(&mut memo), d.verify());
            prop_assert!(d.verify_with(&mut memo).is_ok());
        }
        // Tamper with one link signature of the longest variant (rebuilt
        // through from_parts, as off the wire): identical rejection.
        let victim = variants.last().unwrap();
        if !victim.chain().is_empty() {
            let mut links = victim.chain().to_vec();
            let i = tamper_link % links.len();
            let mut sig = links[i].sig.to_bytes();
            sig[tamper_byte] ^= 0x01;
            links[i].sig = Signature::from_bytes(sig).unwrap();
            let tampered = SecureDescriptor::from_parts(*victim.genesis(), links);
            prop_assert_eq!(tampered.verify_with(&mut memo), tampered.verify());
            prop_assert!(tampered.verify_with(&mut memo).is_err());
        }
    }

    #[test]
    fn extend_by_one_verify_is_constant_and_equivalent(
        path in proptest::collection::vec(0u8..20, 0..12),
        next_tag in 0u8..20,
    ) {
        // Appending one link to a fully memoized chain must (a) agree with
        // full verification and (b) cost exactly two memo lookups — the
        // tip miss plus the immediate-prefix hit — independent of chain
        // length, i.e. no O(chain) walk hides in the hot path.
        let snaps = chain_snapshots(0, 5000, &path);
        let base = snaps.last().unwrap();
        let mut memo = VerifyMemo::new(4096);
        prop_assert_eq!(base.verify_with(&mut memo), base.verify());
        if kp(next_tag).public() != base.owner() {
            let owner = (0u8..21).map(kp).find(|k| k.public() == base.owner()).unwrap();
            let extended = base.transfer(&owner, kp(next_tag).public()).unwrap();
            let lookups_before = memo.lookups();
            prop_assert_eq!(extended.verify_with(&mut memo), extended.verify());
            prop_assert!(extended.verify_with(&mut memo).is_ok());
            // First call: tip miss + prefix hit. Second call: tip hit.
            prop_assert_eq!(memo.lookups() - lookups_before, 3);
        }
    }

    #[test]
    fn memo_capacity_never_changes_verdicts(
        path in proptest::collection::vec(0u8..20, 0..10),
        capacity in 0usize..8,
    ) {
        // Tiny (even zero) memos may evict arbitrarily; the verdict must
        // be unaffected, only the amount of skipped work.
        let snaps = chain_snapshots(3, 9000, &path);
        let mut memo = VerifyMemo::new(capacity);
        for d in &snaps {
            prop_assert_eq!(d.verify_with(&mut memo), d.verify());
        }
        for d in snaps.iter().rev() {
            prop_assert_eq!(d.verify_with(&mut memo), d.verify());
        }
    }

    #[test]
    fn memo_walkers_agree_on_random_streams_at_any_capacity(
        path in proptest::collection::vec(0u8..20, 1..10),
        // (what, which snapshot, a second choice) per stream element.
        ops in proptest::collection::vec((0u8..6, 0usize..64, 0usize..64), 1..16),
    ) {
        // A stream like a node's intake: valid snapshots of one history,
        // extensions of its tip, forks off earlier snapshots (below the
        // tip), shortened re-decodes, tampered copies, and repeats of
        // whatever came before. One by one, in one batch, or without a
        // memo at all, every element gets the same verdict; the memo never
        // outgrows its capacity; and batch and one-by-one leave the same
        // tips memoized.
        let snaps = chain_snapshots(1, 7000, &path);
        let signer = |d: &SecureDescriptor| (0u8..30).map(kp).find(|k| k.public() == d.owner()).unwrap();
        let mut stream: Vec<SecureDescriptor> = Vec::new();
        for &(what, i, j) in &ops {
            let snap = &snaps[i % snaps.len()];
            let to = kp(20 + (j % 8) as u8).public();
            stream.push(match what {
                0 => snap.clone(),
                1 => {
                    let tip = snaps.last().unwrap();
                    tip.transfer(&signer(tip), to).unwrap()
                }
                2 => snap.transfer(&signer(snap), to).unwrap(),
                3 => {
                    let links = snap.chain()[..j % (snap.chain().len() + 1)].to_vec();
                    SecureDescriptor::from_parts(*snap.genesis(), links)
                }
                4 => {
                    let (mut genesis, mut links) = (*snap.genesis(), snap.chain().to_vec());
                    match links.len() {
                        0 => genesis.addr ^= 1,
                        n => {
                            let mut sig = links[j % n].sig.to_bytes();
                            sig[1 + j % 32] ^= 0x10;
                            links[j % n].sig = Signature::from_bytes(sig).unwrap();
                        }
                    }
                    SecureDescriptor::from_parts(genesis, links)
                }
                _ => match stream.len() {
                    0 => snap.clone(),
                    n => stream[j % n].clone(),
                },
            });
        }
        let plain: Vec<_> = stream.iter().map(|d| d.verify()).collect();
        let refs: Vec<&SecureDescriptor> = stream.iter().collect();
        for capacity in [0usize, 1, 3, 64] {
            let mut one_by_one = VerifyMemo::new(capacity);
            for (d, expect) in stream.iter().zip(&plain) {
                prop_assert_eq!(d.verify_with(&mut one_by_one), *expect);
                prop_assert!(one_by_one.len() <= capacity);
            }
            let mut batched = VerifyMemo::new(capacity);
            let got = SecureDescriptor::verify_batch_with(&refs, &mut batched);
            prop_assert_eq!(&got, &plain);
            prop_assert_eq!(batched.len(), one_by_one.len());
            // Only tips of stream members are ever memoized.
            for d in &stream {
                let tip = d.state_digest();
                prop_assert_eq!(batched.contains(&tip), one_by_one.contains(&tip));
            }
            // The survivors are memoized for good: a second pass over a
            // big-enough memo is all exact hits.
            if capacity == 64 {
                let hits = batched.hits();
                let again = SecureDescriptor::verify_batch_with(&refs, &mut batched);
                prop_assert_eq!(&again, &plain);
                let valid = plain.iter().filter(|v| v.is_ok()).count() as u64;
                prop_assert!(batched.hits() - hits >= valid);
            }
        }
    }

    // ------------------------------------------------------------------
    // Wire codec
    // ------------------------------------------------------------------

    #[test]
    fn wire_roundtrip_arbitrary_chains(
        path in proptest::collection::vec(0u8..20, 0..10),
        redeem in proptest::option::of(prop_oneof![
            Just(LinkKind::Redeem),
            Just(LinkKind::RedeemNonSwappable)
        ]),
        addr in 0u32..100_000,
        ts in 0u64..u32::MAX as u64,
    ) {
        let creator = kp(0);
        let mut cur = SecureDescriptor::create(&creator, addr, Timestamp(ts));
        let mut owner = creator;
        for &t in &path {
            let next = kp(t);
            if next.public() == owner.public() { continue; }
            cur = cur.transfer(&owner, next.public()).unwrap();
            owner = next;
        }
        if let (Some(kind), true) = (redeem, !cur.chain().is_empty()) {
            cur = cur.redeem(&owner, kind).unwrap();
        }
        let mut buf = Vec::new();
        wire::encode_descriptor(&cur, &mut buf);
        prop_assert_eq!(buf.len(), wire::descriptor_wire_bytes(&cur));
        let (back, used) = wire::decode_descriptor(&buf).expect("decode");
        prop_assert_eq!(used, buf.len());
        prop_assert_eq!(&back, &cur);
        prop_assert!(back.verify().is_ok());
        // Paper size model is exact in the chain length.
        prop_assert_eq!(
            wire::paper_descriptor_bits(&cur),
            368 + 512 * cur.chain().len()
        );
    }

    #[test]
    fn truncated_wire_input_never_panics(
        path in proptest::collection::vec(0u8..20, 0..6),
        cut_fraction in 0.0f64..1.0,
    ) {
        let snaps = chain_snapshots(0, 5000, &path);
        let d = snaps.last().unwrap();
        let mut buf = Vec::new();
        wire::encode_descriptor(d, &mut buf);
        let cut = ((buf.len() as f64) * cut_fraction) as usize;
        if cut < buf.len() {
            prop_assert!(wire::decode_descriptor(&buf[..cut]).is_err());
        }
    }

    // ------------------------------------------------------------------
    // Crypto
    // ------------------------------------------------------------------

    #[test]
    fn signatures_verify_and_reject_tampering(
        seed in proptest::array::uniform32(0u8..),
        msg in proptest::collection::vec(any::<u8>(), 0..256),
        flip in 0usize..256,
        scheme in prop_oneof![Just(Scheme::Schnorr61), Just(Scheme::KeyedHash)],
    ) {
        let keypair = Keypair::from_seed(scheme, seed);
        let sig = keypair.sign(&msg);
        prop_assert!(keypair.public().verify(&msg, &sig));
        if !msg.is_empty() {
            let mut tampered = msg.clone();
            let i = flip % tampered.len();
            tampered[i] ^= 0x01;
            prop_assert!(!keypair.public().verify(&tampered, &sig));
        }
    }

    #[test]
    fn sha256_chunking_is_irrelevant(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        splits in proptest::collection::vec(0usize..512, 0..6),
    ) {
        let oneshot = sha256(&data);
        let mut hasher = Sha256::new();
        let mut cuts: Vec<usize> = splits.iter().map(|&s| s % (data.len() + 1)).collect();
        cuts.push(0);
        cuts.push(data.len());
        cuts.sort_unstable();
        cuts.dedup();
        for w in cuts.windows(2) {
            hasher.update(&data[w[0]..w[1]]);
        }
        prop_assert_eq!(hasher.finalize(), oneshot);
    }
}

// ---------------------------------------------------------------------------
// Satellite coverage: chain compatibility algebra & SHA-256 round trips
// ---------------------------------------------------------------------------

use securecyclon::core::CompareError;
use securecyclon::crypto::hex;

/// NIST FIPS 180-2 test vectors (plus the empty string).
#[test]
fn sha256_known_vectors() {
    let vectors: [(&[u8], &str); 3] = [
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
    ];
    for (input, expected) in vectors {
        assert_eq!(hex::to_hex(&sha256(input)), expected);
    }
    // The classic million-'a' vector, fed through the incremental API.
    let mut hasher = Sha256::new();
    for _ in 0..1000 {
        hasher.update(&[b'a'; 1000]);
    }
    assert_eq!(
        hex::to_hex(&hasher.finalize()),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ------------------------------------------------------------------
    // Chain algebra: symmetry and single-step structure
    // ------------------------------------------------------------------

    #[test]
    fn compare_chains_mirrors_under_argument_swap(
        path in proptest::collection::vec(0u8..20, 0..10),
        i in 0usize..10,
        j in 0usize..10,
    ) {
        let snaps = chain_snapshots(3, 7000, &path);
        let a = &snaps[i.min(snaps.len() - 1)];
        let b = &snaps[j.min(snaps.len() - 1)];
        let ab = compare_chains(a, b).expect("same descriptor");
        let ba = compare_chains(b, a).expect("same descriptor");
        let mirrored = match ab {
            ChainRelation::LeftExtendsRight => ChainRelation::RightExtendsLeft,
            ChainRelation::RightExtendsLeft => ChainRelation::LeftExtendsRight,
            other => other,
        };
        prop_assert_eq!(ba, mirrored);
    }

    #[test]
    fn forks_diverge_symmetrically_with_the_same_culprit(
        prefix in proptest::collection::vec(0u8..20, 0..8),
        left in 20u8..30,
        right in 30u8..40,
    ) {
        // Forking tags are drawn from pools disjoint from the prefix pool
        // (and from each other), so both transfers are always legal.
        let snaps = chain_snapshots(0, 5000, &prefix);
        let base = snaps.last().unwrap();
        let owner = (0u8..20).map(kp).find(|k| k.public() == base.owner()).unwrap();
        let a = base.transfer(&owner, kp(left).public()).unwrap();
        let b = base.transfer(&owner, kp(right).public()).unwrap();
        let ab = compare_chains(&a, &b).unwrap();
        let ba = compare_chains(&b, &a).unwrap();
        prop_assert_eq!(ab, ba, "divergence is direction-independent");
        match ab {
            ChainRelation::Divergent { index, signer, ns_exception } => {
                prop_assert_eq!(index, base.chain().len());
                prop_assert_eq!(signer, base.owner());
                prop_assert!(!ns_exception);
            }
            other => prop_assert!(false, "expected divergence, got {other:?}"),
        }
    }

    #[test]
    fn each_transfer_extends_the_chain_by_exactly_one(
        path in proptest::collection::vec(0u8..20, 1..10),
    ) {
        let snaps = chain_snapshots(5, 9000, &path);
        for w in snaps.windows(2) {
            prop_assert_eq!(w[1].chain().len(), w[0].chain().len() + 1);
            prop_assert_eq!(
                compare_chains(&w[0], &w[1]).unwrap(),
                ChainRelation::RightExtendsLeft
            );
        }
    }

    #[test]
    fn unrelated_descriptors_do_not_compare(
        a_tag in 0u8..10,
        b_tag in 10u8..20,
        ts in 0u64..1_000_000,
    ) {
        // Different creators produce different descriptor ids.
        let da = SecureDescriptor::create(&kp(a_tag), 1, Timestamp(ts));
        let db = SecureDescriptor::create(&kp(b_tag), 2, Timestamp(ts));
        prop_assert_eq!(compare_chains(&da, &db), Err(CompareError::DifferentIds));
    }

    // ------------------------------------------------------------------
    // SHA-256: hex round trip, determinism, sensitivity
    // ------------------------------------------------------------------

    #[test]
    fn sha256_hex_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let digest = sha256(&data);
        let encoded = hex::to_hex(&digest);
        prop_assert_eq!(encoded.len(), 64);
        let decoded = hex::from_hex(&encoded).expect("valid hex");
        prop_assert_eq!(decoded.as_slice(), &digest[..]);
    }

    #[test]
    fn sha256_is_deterministic_and_tamper_sensitive(
        data in proptest::collection::vec(any::<u8>(), 1..256),
        flip in 0usize..256,
    ) {
        prop_assert_eq!(sha256(&data), sha256(&data));
        let mut tampered = data.clone();
        let i = flip % tampered.len();
        tampered[i] ^= 0x80;
        prop_assert_ne!(sha256(&tampered), sha256(&data));
    }
}
