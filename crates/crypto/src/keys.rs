//! Node identities, keypairs, and signatures.
//!
//! Following the paper's system model (§II-A), every node owns exactly one
//! private/public keypair and **its node ID is its public key**. Two
//! signature schemes are provided behind a common API:
//!
//! * [`Scheme::Schnorr61`] — a real Schnorr scheme over a toy 61-bit group
//!   (see [`crate::schnorr61`]); genuine public-key verification.
//! * [`Scheme::KeyedHash`] — a hash-based stand-in for large simulations
//!   (10k+ nodes) where per-exchange big-group exponentiations dominate.
//!   Verification recomputes a keyed hash; unforgeability is upheld by the
//!   simulation (honest and adversarial code alike only sign with keys they
//!   hold), exactly mirroring the paper's assumption that "malicious nodes
//!   cannot impersonate legitimate ones".
//!
//! Both schemes share fixed-size wire types: 32-byte [`PublicKey`], 64-byte
//! [`Signature`], matching the paper's size model (§VI-A).

use crate::hex::to_hex;
use crate::schnorr61::{self, SchnorrKey};
use crate::sha256::sha256_concat;
use rand::RngCore;

/// Length of a serialized public key in bytes.
pub const PUBLIC_KEY_LEN: usize = 32;
/// Length of a serialized signature in bytes.
pub const SIGNATURE_LEN: usize = 64;

const TAG_SCHNORR: u8 = 1;
const TAG_KEYED: u8 = 2;

/// The signature scheme used by a keypair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Scheme {
    /// Real Schnorr signatures over the 2^61−1 Mersenne group.
    #[default]
    Schnorr61,
    /// Fast keyed-hash signatures (simulation-grade; see module docs).
    KeyedHash,
}

impl Scheme {
    fn tag(self) -> u8 {
        match self {
            Scheme::Schnorr61 => TAG_SCHNORR,
            Scheme::KeyedHash => TAG_KEYED,
        }
    }

    fn from_tag(tag: u8) -> Option<Scheme> {
        match tag {
            TAG_SCHNORR => Some(Scheme::Schnorr61),
            TAG_KEYED => Some(Scheme::KeyedHash),
            _ => None,
        }
    }

    /// How many leading bytes of a [`Signature`] the scheme uses: the tag
    /// and the signature proper. The rest is zero padding.
    fn signature_len(self) -> usize {
        match self {
            Scheme::Schnorr61 => 17,
            Scheme::KeyedHash => 33,
        }
    }
}

/// A node's public key. Doubles as the node's unique identifier ([`NodeId`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PublicKey([u8; PUBLIC_KEY_LEN]);

/// A node's unique identifier. Per the paper's system model, the ID *is*
/// the public key.
pub type NodeId = PublicKey;

impl PublicKey {
    /// Returns the raw key bytes.
    pub fn as_bytes(&self) -> &[u8; PUBLIC_KEY_LEN] {
        &self.0
    }

    /// Reconstructs a key from raw bytes.
    ///
    /// Returns `None` if the scheme tag byte is unknown.
    pub fn from_bytes(bytes: [u8; PUBLIC_KEY_LEN]) -> Option<Self> {
        Scheme::from_tag(bytes[0]).map(|_| PublicKey(bytes))
    }

    /// The signature scheme this key belongs to.
    pub fn scheme(&self) -> Scheme {
        Scheme::from_tag(self.0[0]).expect("constructed keys always carry a valid tag")
    }

    /// Verifies `sig` over `msg` under this key.
    ///
    /// Returns `false` for any mismatch: wrong key, tampered message,
    /// malformed or cross-scheme signature, non-zero padding.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        let scheme = self.scheme();
        if !sig.is_encoded_for(scheme) {
            return false;
        }
        match scheme {
            Scheme::Schnorr61 => {
                let pk = u64::from_be_bytes(self.0[1..9].try_into().expect("slice len 8"));
                let r = u64::from_be_bytes(sig.0[1..9].try_into().expect("slice len 8"));
                let s = u64::from_be_bytes(sig.0[9..17].try_into().expect("slice len 8"));
                // Shamir + fixed-base-table path; bit-for-bit equivalent to
                // `schnorr61::verify` (exhaustively tested there).
                schnorr61::verify_fast(pk, msg, r, s)
            }
            Scheme::KeyedHash => {
                let expect = sha256_concat(&[b"sc/keyed-sig", &self.0, msg]);
                sig.0[1..33] == expect[..]
            }
        }
    }

    /// A short human-readable prefix of the key, for logs and examples.
    pub fn short(&self) -> String {
        to_hex(&self.0[..6])
    }
}

/// Verifies a batch of `(key, message, signature)` checks, amortizing the
/// group arithmetic across every Schnorr signature in the batch.
///
/// Returns `Ok(())` when every check passes, or `Err(i)` with the lowest
/// index whose check fails — exactly the index a sequential loop over
/// [`PublicKey::verify`] would report first. Schnorr signatures are
/// collected into [`schnorr61::batch_verify`] calls (shared squarings,
/// one fixed-base exponentiation); keyed-hash signatures are recomputed
/// individually since each is a single hash with nothing to amortize.
pub fn verify_batch(checks: &[(&PublicKey, &[u8], &Signature)]) -> Result<(), usize> {
    verify_batch_by(checks.len(), |i| checks[i])
}

/// [`verify_batch`] over checks `check(0) .. check(n - 1)` made on demand,
/// for callers whose keys, messages and signatures do not sit in a slice
/// of references. Allocation-free: the checks are verified in order,
/// [`schnorr61::BATCH_CHUNK`] at a time, out of stack arrays.
pub fn verify_batch_by<'a>(
    n: usize,
    check: impl Fn(usize) -> (&'a PublicKey, &'a [u8], &'a Signature),
) -> Result<(), usize> {
    const CHUNK: usize = schnorr61::BATCH_CHUNK;
    for start in (0..n).step_by(CHUNK) {
        let mut items = [schnorr61::BatchItem::default(); CHUNK];
        let mut item_indices = [0usize; CHUNK];
        let mut schnorr = 0;
        // First failing non-batched check (keyed hash, malformed tag, …).
        let mut first_other: Option<usize> = None;
        for i in start..n.min(start + CHUNK) {
            let (pk, msg, sig) = check(i);
            match pk.scheme() {
                Scheme::Schnorr61 if sig.is_encoded_for(Scheme::Schnorr61) => {
                    items[schnorr] = schnorr61::BatchItem {
                        pk: u64::from_be_bytes(pk.0[1..9].try_into().expect("slice len 8")),
                        msg,
                        r: u64::from_be_bytes(sig.0[1..9].try_into().expect("slice len 8")),
                        s: u64::from_be_bytes(sig.0[9..17].try_into().expect("slice len 8")),
                    };
                    item_indices[schnorr] = i;
                    schnorr += 1;
                }
                _ if first_other.is_none() && !pk.verify(msg, sig) => first_other = Some(i),
                _ => {}
            }
        }
        let first_schnorr = schnorr61::batch_verify(&items[..schnorr])
            .err()
            .map(|j| item_indices[j]);
        // Every earlier chunk passed: this chunk's first failure is the
        // batch's.
        if let Some(i) = first_other.into_iter().chain(first_schnorr).min() {
            return Err(i);
        }
    }
    Ok(())
}

impl core::fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "PublicKey({})", to_hex(&self.0))
    }
}

impl core::fmt::Display for PublicKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.short())
    }
}

/// A detached signature.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature([u8; SIGNATURE_LEN]);

impl Signature {
    /// Returns the raw signature bytes.
    pub fn as_bytes(&self) -> &[u8; SIGNATURE_LEN] {
        &self.0
    }

    /// Reconstructs a signature from raw bytes (no validation beyond size).
    pub fn from_bytes(bytes: [u8; SIGNATURE_LEN]) -> Self {
        Signature(bytes)
    }

    /// Whether the bytes are `scheme`'s one encoding of a signature: its
    /// tag, the signature, then zeros. Verification reads only the first
    /// two parts, while equality and every digest over a signature read
    /// all 64 bytes — so a signature with its padding changed would be a
    /// second valid signature by the same signer over the same message,
    /// and a descriptor carrying it a fork its signer never made.
    fn is_encoded_for(&self, scheme: Scheme) -> bool {
        let (used, padding) = self.0.split_at(scheme.signature_len());
        // One OR over the padding, no early exit: it vectorizes.
        used[0] == scheme.tag() && padding.iter().fold(0, |acc, &b| acc | b) == 0
    }
}

impl core::fmt::Debug for Signature {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Signature({}…)", to_hex(&self.0[..8]))
    }
}

/// A private/public keypair bound to a [`Scheme`].
///
/// # Examples
///
/// ```
/// use sc_crypto::{Keypair, Scheme};
///
/// let kp = Keypair::from_seed(Scheme::Schnorr61, [42u8; 32]);
/// let sig = kp.sign(b"gossip");
/// assert!(kp.public().verify(b"gossip", &sig));
/// ```
#[derive(Clone)]
pub struct Keypair {
    scheme: Scheme,
    seed: [u8; 32],
    schnorr: Option<SchnorrKey>,
    public: PublicKey,
}

impl Keypair {
    /// Generates a fresh keypair using entropy from `rng`.
    pub fn generate<R: RngCore + ?Sized>(scheme: Scheme, rng: &mut R) -> Self {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        Self::from_seed(scheme, seed)
    }

    /// Derives a keypair deterministically from a 32-byte seed.
    ///
    /// Simulations use this to obtain reproducible node identities.
    pub fn from_seed(scheme: Scheme, seed: [u8; 32]) -> Self {
        match scheme {
            Scheme::Schnorr61 => {
                let key = SchnorrKey::from_seed(&seed);
                let mut pk = [0u8; PUBLIC_KEY_LEN];
                pk[0] = TAG_SCHNORR;
                pk[1..9].copy_from_slice(&key.pk.to_be_bytes());
                // Fill the remainder with a digest of the group element so
                // IDs look uniform to hash-based containers.
                let fill = sha256_concat(&[b"sc/pk-fill", &key.pk.to_be_bytes()]);
                pk[9..].copy_from_slice(&fill[..23]);
                Keypair {
                    scheme,
                    seed,
                    schnorr: Some(key),
                    public: PublicKey(pk),
                }
            }
            Scheme::KeyedHash => {
                let mut pk = [0u8; PUBLIC_KEY_LEN];
                pk[0] = TAG_KEYED;
                let h = sha256_concat(&[b"sc/keyed-pk", &seed]);
                pk[1..].copy_from_slice(&h[..31]);
                Keypair {
                    scheme,
                    seed,
                    schnorr: None,
                    public: PublicKey(pk),
                }
            }
        }
    }

    /// The public half of the keypair (also the node's ID).
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// The scheme this keypair uses.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Signs `msg` with the secret key.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        let mut out = [0u8; SIGNATURE_LEN];
        out[0] = self.scheme.tag();
        match self.scheme {
            Scheme::Schnorr61 => {
                let key = self.schnorr.as_ref().expect("schnorr keypair has key");
                let (r, s) = key.sign(&self.seed, msg);
                out[1..9].copy_from_slice(&r.to_be_bytes());
                out[9..17].copy_from_slice(&s.to_be_bytes());
            }
            Scheme::KeyedHash => {
                let h = sha256_concat(&[b"sc/keyed-sig", &self.public.0, msg]);
                out[1..33].copy_from_slice(&h);
            }
        }
        Signature(out)
    }
}

impl core::fmt::Debug for Keypair {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Secret material is intentionally not printed.
        f.debug_struct("Keypair")
            .field("scheme", &self.scheme)
            .field("public", &self.public)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn both_schemes() -> [Scheme; 2] {
        [Scheme::Schnorr61, Scheme::KeyedHash]
    }

    #[test]
    fn sign_verify_roundtrip_both_schemes() {
        for scheme in both_schemes() {
            let kp = Keypair::from_seed(scheme, [1u8; 32]);
            let sig = kp.sign(b"message");
            assert!(kp.public().verify(b"message", &sig), "{scheme:?}");
            assert!(!kp.public().verify(b"messagE", &sig), "{scheme:?}");
        }
    }

    #[test]
    fn cross_key_rejection() {
        for scheme in both_schemes() {
            let a = Keypair::from_seed(scheme, [1u8; 32]);
            let b = Keypair::from_seed(scheme, [2u8; 32]);
            let sig = a.sign(b"msg");
            assert!(!b.public().verify(b"msg", &sig), "{scheme:?}");
        }
    }

    #[test]
    fn cross_scheme_rejection() {
        let a = Keypair::from_seed(Scheme::Schnorr61, [1u8; 32]);
        let b = Keypair::from_seed(Scheme::KeyedHash, [1u8; 32]);
        let sig_a = a.sign(b"msg");
        let sig_b = b.sign(b"msg");
        assert!(!b.public().verify(b"msg", &sig_a));
        assert!(!a.public().verify(b"msg", &sig_b));
    }

    #[test]
    fn generate_uses_rng_deterministically() {
        let mut r1 = StdRng::seed_from_u64(99);
        let mut r2 = StdRng::seed_from_u64(99);
        for scheme in both_schemes() {
            let k1 = Keypair::generate(scheme, &mut r1);
            let k2 = Keypair::generate(scheme, &mut r2);
            assert_eq!(k1.public(), k2.public());
        }
    }

    #[test]
    fn public_key_bytes_roundtrip() {
        for scheme in both_schemes() {
            let kp = Keypair::from_seed(scheme, [5u8; 32]);
            let bytes = *kp.public().as_bytes();
            let back = PublicKey::from_bytes(bytes).expect("valid tag");
            assert_eq!(back, kp.public());
            assert_eq!(back.scheme(), scheme);
        }
    }

    #[test]
    fn from_bytes_rejects_unknown_tag() {
        let mut bytes = [0u8; PUBLIC_KEY_LEN];
        bytes[0] = 0xff;
        assert!(PublicKey::from_bytes(bytes).is_none());
    }

    #[test]
    fn signature_bytes_roundtrip() {
        let kp = Keypair::from_seed(Scheme::Schnorr61, [5u8; 32]);
        let sig = kp.sign(b"x");
        let back = Signature::from_bytes(*sig.as_bytes());
        assert_eq!(back, sig);
        assert!(kp.public().verify(b"x", &back));
    }

    #[test]
    fn display_and_debug_nonempty() {
        let kp = Keypair::from_seed(Scheme::Schnorr61, [5u8; 32]);
        assert!(!format!("{}", kp.public()).is_empty());
        assert!(!format!("{:?}", kp.public()).is_empty());
        assert!(!format!("{:?}", kp.sign(b"x")).is_empty());
        assert!(!format!("{kp:?}").contains("seed"));
    }

    #[test]
    fn a_nonzero_padding_byte_fails_both_verify_paths() {
        for scheme in both_schemes() {
            let kp = Keypair::from_seed(scheme, [3u8; 32]);
            let sig = kp.sign(b"msg");
            for i in scheme.signature_len()..SIGNATURE_LEN {
                let mut bytes = *sig.as_bytes();
                bytes[i] = 1;
                let padded = Signature::from_bytes(bytes);
                let pk = kp.public();
                assert!(!pk.verify(b"msg", &padded), "{scheme:?} byte {i}");
                assert_eq!(verify_batch(&[(&pk, b"msg", &padded)]), Err(0));
            }
        }
    }

    #[test]
    fn verify_batch_reports_the_first_failure_across_schemes_and_chunks() {
        // 150 checks, alternating schemes, so both kinds straddle the
        // 64-check chunks; every verdict must be the sequential loop's.
        let keys: Vec<Keypair> = (0..150u8)
            .map(|i| Keypair::from_seed(both_schemes()[i as usize % 2], [i; 32]))
            .collect();
        let pks: Vec<PublicKey> = keys.iter().map(Keypair::public).collect();
        let msgs: Vec<[u8; 32]> = (0..150u8).map(|i| [i ^ 0x5a; 32]).collect();
        let good: Vec<Signature> = keys.iter().zip(&msgs).map(|(k, m)| k.sign(m)).collect();
        let run = |sigs: &[Signature]| {
            let checks: Vec<_> = pks
                .iter()
                .zip(&msgs)
                .zip(sigs)
                .map(|((pk, m), sig)| (pk, &m[..], sig))
                .collect();
            let sequential = checks.iter().position(|(pk, m, sig)| !pk.verify(m, sig));
            let got = verify_batch(&checks);
            assert_eq!(got, sequential.map_or(Ok(()), Err));
            assert_eq!(got, verify_batch_by(checks.len(), |i| checks[i]));
            got
        };
        assert_eq!(run(&good), Ok(()));
        for bad in [
            vec![0],
            vec![63, 64],
            vec![64],
            vec![129, 70],
            vec![149, 148],
        ] {
            let mut sigs = good.clone();
            for &i in &bad {
                let mut bytes = *sigs[i].as_bytes();
                bytes[12] ^= 1;
                sigs[i] = Signature::from_bytes(bytes);
            }
            assert_eq!(run(&sigs), Err(*bad.iter().min().unwrap()));
        }
        assert_eq!(verify_batch(&[]), Ok(()));
    }

    #[test]
    fn ids_are_unique_across_population() {
        use std::collections::HashSet;
        let mut ids = HashSet::new();
        for i in 0u32..2000 {
            let mut seed = [0u8; 32];
            seed[..4].copy_from_slice(&i.to_le_bytes());
            for scheme in both_schemes() {
                assert!(ids.insert(Keypair::from_seed(scheme, seed).public()));
            }
        }
    }
}
