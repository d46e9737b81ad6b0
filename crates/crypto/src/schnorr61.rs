//! Schnorr signatures over the multiplicative group of the Mersenne prime
//! `p = 2^61 - 1`.
//!
//! This is a *fully functional* public-key signature scheme — key
//! generation, signing, and verification follow the textbook Schnorr
//! construction (`g^s == r · pk^e (mod p)`) with a derandomized nonce.
//! The only concession to simulation is the toy group size: a 61-bit
//! discrete log offers no security against a real attacker, but the
//! SecureCyclon threat model (ICDCS 2023, §II-A) explicitly assumes
//! signatures cannot be forged, and no component of this repository ever
//! attempts to break the group. What matters for reproducing the paper is
//! that verification is genuine public-key verification, which this scheme
//! provides at simulation-friendly speed.
//!
//! Exponent arithmetic is performed modulo `p - 1`; since the order of the
//! generator divides `p - 1`, the verification identity holds exactly.

use crate::sha256::sha256_concat;

/// The Mersenne prime 2^61 − 1.
pub const P: u64 = (1u64 << 61) - 1;
/// Group exponents are reduced modulo `P - 1`.
pub const P_MINUS_1: u64 = P - 1;
/// Generator of a large subgroup of `Z_p^*`.
pub const G: u64 = 3;

/// Modular multiplication in `Z_p`.
///
/// Uses the Mersenne structure of `p`: with `t = a·b` split at bits 61 and
/// 122, `2^61 ≡ 1 (mod p)` makes `t ≡ lo + mid + hi`, so the product
/// reduces with two folds and one conditional subtraction — no 128-bit
/// division. Equal to `(a·b) mod p` for **all** `u64` inputs (tested
/// against the wide-division reference below).
#[inline]
pub const fn mulmod(a: u64, b: u64) -> u64 {
    let t = a as u128 * b as u128;
    // lo + mid ≤ 2·(2^61 − 1), hi < 2^6 ⇒ sum < 2^63: no overflow.
    let sum = ((t as u64) & P) + (((t >> 61) as u64) & P) + ((t >> 122) as u64);
    // Second fold leaves a value < 2^61 + 3 < 2p; one subtraction suffices.
    let s = (sum & P) + (sum >> 61);
    if s >= P {
        s - P
    } else {
        s
    }
}

/// Bits consumed per window of the fixed-base table.
const WINDOW_BITS: u32 = 4;
/// Windows needed to cover a full 64-bit exponent.
const WINDOWS: usize = (u64::BITS / WINDOW_BITS) as usize;

/// Fixed-base window table for the generator: `G_TABLE[w][d] = G^(d·16^w)`.
///
/// Built at compile time; 16 windows × 16 digits × 8 bytes = 2 KiB. With it
/// `g^e` costs at most 15 modular multiplications and **zero** squarings,
/// against ~60 squarings plus ~30 multiplications for square-and-multiply.
static G_TABLE: [[u64; 16]; WINDOWS] = build_g_table();

const fn build_g_table() -> [[u64; 16]; WINDOWS] {
    let mut table = [[1u64; 16]; WINDOWS];
    let mut base = G; // G^(16^w) at the start of window w
    let mut w = 0;
    while w < WINDOWS {
        let mut d = 1;
        while d < 16 {
            table[w][d] = mulmod(table[w][d - 1], base);
            d += 1;
        }
        base = mulmod(table[w][15], base);
        w += 1;
    }
    table
}

/// Fixed-base exponentiation `G^exp (mod p)` via the precomputed window
/// table. Bit-for-bit identical to square-and-multiply for every `exp`
/// (pinned against `reference::powmod` by this module's tests).
pub fn g_powmod(exp: u64) -> u64 {
    let mut acc = 1u64;
    let mut e = exp;
    let mut w = 0;
    while e > 0 {
        let d = (e & 0xf) as usize;
        if d != 0 {
            acc = mulmod(acc, G_TABLE[w][d]);
        }
        e >>= WINDOW_BITS;
        w += 1;
    }
    acc
}

/// Shamir's trick: simultaneous double exponentiation `a^x · b^y (mod p)`.
///
/// Scans the bits of both exponents in one pass, sharing the squarings the
/// two exponentiations would otherwise each pay: one squaring per bit of
/// `max(x, y)` plus one multiplication per bit position where either
/// exponent is set (by `a`, `b`, or the precomputed `a·b`). Roughly 1.7×
/// cheaper than two independent square-and-multiply exponentiations.
pub fn shamir_powmod(a: u64, x: u64, b: u64, y: u64) -> u64 {
    let a = a % P;
    let b = b % P;
    let ab = mulmod(a, b);
    let bits = u64::BITS - (x | y).leading_zeros();
    let mut acc = 1u64;
    for i in (0..bits).rev() {
        acc = mulmod(acc, acc);
        match ((x >> i) & 1, (y >> i) & 1) {
            (1, 1) => acc = mulmod(acc, ab),
            (1, 0) => acc = mulmod(acc, a),
            (0, 1) => acc = mulmod(acc, b),
            _ => {}
        }
    }
    acc
}

/// Reduces a 16-byte big-endian value modulo `m` (used to derive nonces and
/// challenges from hash output with negligible bias).
fn reduce16(bytes: &[u8], m: u64) -> u64 {
    let mut wide = [0u8; 16];
    wide.copy_from_slice(&bytes[..16]);
    (u128::from_be_bytes(wide) % m as u128) as u64
}

/// [`reduce16`] specialised to the compile-time constant `p − 1`, so the
/// 128-bit remainder lowers to multiply-high code instead of a call to the
/// software division intrinsic (`__umodti3`) — this runs once per challenge
/// on every verify.
#[inline]
fn reduce16_pm1(bytes: &[u8]) -> u64 {
    let mut wide = [0u8; 16];
    wide.copy_from_slice(&bytes[..16]);
    (u128::from_be_bytes(wide) % P_MINUS_1 as u128) as u64
}

/// A Schnorr secret exponent together with its public element.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SchnorrKey {
    /// Secret exponent `x` in `[1, p-2]`.
    pub x: u64,
    /// Public element `g^x mod p`.
    pub pk: u64,
}

impl core::fmt::Debug for SchnorrKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Deliberately omit the secret exponent.
        f.debug_struct("SchnorrKey").field("pk", &self.pk).finish()
    }
}

impl SchnorrKey {
    /// Derives a keypair deterministically from a 32-byte seed.
    pub fn from_seed(seed: &[u8; 32]) -> Self {
        let h = sha256_concat(&[b"sc/schnorr-keygen", seed]);
        let x = 1 + reduce16(&h, P_MINUS_1 - 1);
        SchnorrKey { x, pk: g_powmod(x) }
    }

    /// Signs `msg`, returning the `(r, s)` pair.
    ///
    /// The nonce is derived deterministically from the seed material and the
    /// message (RFC-6979 style), so signing never requires an RNG and
    /// repeated signatures of the same message are identical.
    pub fn sign(&self, seed: &[u8; 32], msg: &[u8]) -> (u64, u64) {
        let nh = sha256_concat(&[b"sc/schnorr-nonce", seed, msg]);
        let mut k = reduce16_pm1(&nh);
        if k == 0 {
            k = 1;
        }
        let r = g_powmod(k);
        let e = challenge(r, self.pk, msg);
        // s = k + e·x (mod p-1)
        let ex = (e as u128 * self.x as u128) % P_MINUS_1 as u128;
        let s = ((k as u128 + ex) % P_MINUS_1 as u128) as u64;
        (r, s)
    }
}

/// Computes the Fiat–Shamir challenge `e = H(r ‖ pk ‖ msg) mod (p-1)`.
///
/// The domain tag is kept to 7 bytes so that for the protocol's dominant
/// message shape — a 32-byte digest — the whole input (7 + 8 + 8 + 32 = 55
/// bytes) fits a single SHA-256 block including padding, halving the hash
/// cost on every sign and verify.
fn challenge(r: u64, pk: u64, msg: &[u8]) -> u64 {
    let h = sha256_concat(&[b"sc/chal", &r.to_be_bytes(), &pk.to_be_bytes(), msg]);
    reduce16_pm1(&h)
}

/// Reference implementations, compiled for this module's tests only.
///
/// The protocol layers call [`verify_fast`] / [`batch_verify`] exclusively;
/// this module preserves the textbook forms so the equivalence tests can
/// pin the optimized paths against them.
#[cfg(test)]
mod reference {
    use super::*;

    /// Modular exponentiation `base^exp (mod p)` by square-and-multiply.
    pub fn powmod(mut base: u64, mut exp: u64) -> u64 {
        base %= P;
        let mut acc: u64 = 1;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = mulmod(acc, base);
            }
            base = mulmod(base, base);
            exp >>= 1;
        }
        acc
    }

    /// Verifies a Schnorr signature `(r, s)` on `msg` against public
    /// element `pk` by the literal textbook predicate
    /// `g^s == r · pk^e (mod p)` — two independent square-and-multiply
    /// exponentiations, no windowing, no batching.
    pub fn verify(pk: u64, msg: &[u8], r: u64, s: u64) -> bool {
        if r == 0 || r >= P || s >= P_MINUS_1 || pk == 0 || pk >= P {
            return false;
        }
        let e = challenge(r, pk, msg);
        powmod(G, s) == mulmod(r, powmod(pk, e))
    }
}

/// Fast verification path: same predicate as the textbook
/// `g^s == r · pk^e` (`reference::verify`, this module's test-only twin),
/// restated as `g^s · pk^{(p-1)-e} == r` and evaluated with a single Shamir
/// simultaneous exponentiation (with the fixed-base table covering the
/// `e = 0` degenerate case).
///
/// The two forms are equivalent for every in-range input: `pk ∈ [1, p-1]`
/// is invertible and `pk^(p-1) = 1` by Fermat, so multiplying both sides
/// of `g^s == r · pk^e` by `pk^{(p-1)-e}` is a bijection. Out-of-range
/// inputs are rejected by the identical up-front checks. Exhaustive
/// agreement with `reference::verify` is asserted by this module's tests.
pub fn verify_fast(pk: u64, msg: &[u8], r: u64, s: u64) -> bool {
    if r == 0 || r >= P || s >= P_MINUS_1 || pk == 0 || pk >= P {
        return false;
    }
    let e = challenge(r, pk, msg);
    if e == 0 {
        return g_powmod(s) == r;
    }
    shamir_powmod(G, s, pk, P_MINUS_1 - e) == r
}

/// Most items one combined check takes (the size of its stack arrays).
pub const BATCH_CHUNK: usize = 64;

/// One signature in a [`batch_verify`] call.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchItem<'a> {
    /// Public element the signature is checked against.
    pub pk: u64,
    /// Signed message.
    pub msg: &'a [u8],
    /// Commitment half of the signature.
    pub r: u64,
    /// Response half of the signature.
    pub s: u64,
}

/// Verifies a batch of Schnorr signatures with one combined exponentiation
/// pass (random-linear-combination batching).
///
/// Raising each verification identity `g^{s_i} = r_i · pk_i^{e_i}` to a
/// per-item blinding scalar `z_i` and multiplying them out gives the single
/// check
///
/// ```text
/// g^{Σ z_i·s_i}  ==  Π r_i^{z_i} · Π pk_i^{z_i·e_i}   (mod p)
/// ```
///
/// whose right-hand side is evaluated as one interleaved multi-
/// exponentiation: every item shares the same 61 squarings, so the
/// per-signature cost collapses to the multiplications for its own set
/// bits (~46) plus `1/n`-th of the shared work — compared with ~61
/// squarings *and* ~46 multiplications for an independent [`verify_fast`].
///
/// The blinding scalars are **deterministic but unpredictable to a forger**:
/// `z_i = H("sc/batch-blind" ‖ D ‖ i)` where `D` commits to every
/// `(pk, r, s, e)` tuple in the batch (`e` itself binds the message).
/// Cancelling a forged item against another would require choosing
/// signature values that survive being re-hashed into fresh scalars —
/// the standard small-exponent argument, with the domain separation
/// keeping these hashes disjoint from every other hash in the repo.
///
/// Because `Z_p^*` here has **composite, completely smooth order**
/// (`p − 1 = 2·3²·5²·7·11·13·31·41·61·151·331·1321`), raw random scalars
/// would be unsound: a forger who skews a commitment to `−r` creates a
/// verification discrepancy of order 2, which any *even* `z_i` annihilates
/// — a ½ pass probability, not a negligible one. Each drawn scalar is
/// therefore nudged forward to the nearest value **coprime to `p − 1`**
/// (`coprime_pm1`); then `d^{z_i} = 1` forces `d = 1`, so a batch with a
/// single invalid signature can never pass, whatever the discrepancy's
/// order.
///
/// Returns `Ok(())` when every signature verifies. Otherwise returns
/// `Err(i)` with the **first** invalid index — located by bisecting the
/// batch (re-deriving sub-batch scalars each time) and confirming each
/// leaf with [`verify_fast`], so attribution is exact: an honest signature
/// is never blamed and a forged one is never admitted. A batch of one
/// degenerates to plain [`verify_fast`].
///
/// Allocation-free: the combined check works in stack arrays of
/// [`BATCH_CHUNK`] entries; a longer batch is verified chunk by chunk, in
/// order (same first invalid index; the shared squarings are amortized to
/// noise at 64 items anyway).
pub fn batch_verify(items: &[BatchItem<'_>]) -> Result<(), usize> {
    if items.len() > BATCH_CHUNK {
        let (head, tail) = items.split_at(BATCH_CHUNK);
        batch_verify(head)?;
        return batch_verify(tail).map_err(|i| BATCH_CHUNK + i);
    }
    // Below ~4 items the combined check's fixed costs (blinding commit,
    // scalar expansion, final fixed-base exponentiation) outweigh the
    // shared-squaring savings; a sequential scan is both faster and
    // trivially exact.
    if items.len() < 4 {
        return items
            .iter()
            .position(|it| !verify_fast(it.pk, it.msg, it.r, it.s))
            .map_or(Ok(()), Err);
    }
    // Challenges are needed by both the combined check and any fallback
    // verification; compute them once up front.
    let mut challenges = [0u64; BATCH_CHUNK];
    let challenges = &mut challenges[..items.len()];
    for (e, it) in challenges.iter_mut().zip(items) {
        *e = challenge(it.r, it.pk, it.msg);
    }
    if batch_holds(items, challenges) {
        return Ok(());
    }
    match first_invalid(items, challenges, 0) {
        Some(i) => Err(i),
        // The combined check failed but bisection found nothing — only
        // reachable through a blinding-scalar collision masking a forgery
        // at some granularity. Fall back to the exact per-signature scan
        // so the verdict always equals the sequential one.
        None => items
            .iter()
            .position(|it| !verify_fast(it.pk, it.msg, it.r, it.s))
            .map_or(Ok(()), Err),
    }
}

/// Bisects `items[..]` (a sub-batch starting at `offset` of the original
/// call) for the first index whose signature fails [`verify_fast`].
fn first_invalid(items: &[BatchItem<'_>], challenges: &[u64], offset: usize) -> Option<usize> {
    debug_assert!(!items.is_empty());
    if items.len() == 1 {
        let it = &items[0];
        return (!verify_fast(it.pk, it.msg, it.r, it.s)).then_some(offset);
    }
    let mid = items.len() / 2;
    let (left, right) = items.split_at(mid);
    let (cl, cr) = challenges.split_at(mid);
    if !batch_holds(left, cl) {
        if let Some(i) = first_invalid(left, cl, offset) {
            return Some(i);
        }
    }
    if !batch_holds(right, cr) {
        return first_invalid(right, cr, offset + mid);
    }
    None
}

/// Evaluates the combined random-linear-combination identity for one
/// (sub-)batch. `true` means "no forgery detectable at this granularity";
/// a batch containing only valid signatures always passes.
fn batch_holds(items: &[BatchItem<'_>], challenges: &[u64]) -> bool {
    if items.len() == 1 {
        let it = &items[0];
        return verify_fast(it.pk, it.msg, it.r, it.s);
    }
    // Out-of-range values make the group identity meaningless; any such
    // item fails the sub-batch outright (bisection then pinpoints it).
    if items
        .iter()
        .any(|it| it.r == 0 || it.r >= P || it.s >= P_MINUS_1 || it.pk == 0 || it.pk >= P)
    {
        return false;
    }

    // Deterministic per-batch blinding: commit to every check, then expand
    // scalars in counter mode (four 64-bit draws per digest, so the hash
    // cost is ~¼ compression per item). Committing `(s_i, e_i)` binds the
    // whole tuple because `e_i = H(r_i ‖ pk_i ‖ msg_i)` already commits to
    // the remaining fields. The input is assembled contiguously so the
    // hasher compresses straight from the slice. `z_0 = 1` is sound — only
    // the *relative* blinding between items matters.
    const TAG: &[u8] = b"sc/batch-blind";
    let n = items.len();
    let mut commit = [0u8; TAG.len() + 16 * BATCH_CHUNK];
    commit[..TAG.len()].copy_from_slice(TAG);
    let pairs = commit[TAG.len()..].chunks_exact_mut(16);
    for ((it, &e), pair) in items.iter().zip(challenges).zip(pairs) {
        pair[..8].copy_from_slice(&it.s.to_be_bytes());
        pair[8..].copy_from_slice(&e.to_be_bytes());
    }
    let digest = crate::sha256::sha256(&commit[..TAG.len() + 16 * n]);
    let mut z = [1u64; BATCH_CHUNK];
    // Four scalars per digest; `z[0]` stays 1.
    for (block, quad) in z[1..n].chunks_mut(4).enumerate() {
        // Tag kept short so the 47-byte input fits one compression block.
        let h = sha256_concat(&[b"sc/bb/z", &digest, &(block as u64).to_be_bytes()]);
        for (zi, chunk) in quad.iter_mut().zip(h.chunks_exact(8)) {
            let w = u64::from_be_bytes(chunk.try_into().expect("chunk len 8"));
            // Bias from the single reduction is ≤ 2^-58: immaterial here.
            *zi = coprime_pm1(1 + w % (P_MINUS_1 - 1));
        }
    }

    // Left side: one fixed-base exponentiation of the blinded sum.
    // Right side per item: a 16-entry pair table `r^a · pk^b` (a, b < 4)
    // indexed by two bits of each exponent at a time — a branchless
    // multiply per window keeps the inner loop free of data-dependent
    // branches and halves the multiply count versus bit-at-a-time.
    let mut s_sum: u64 = 0;
    let mut tables = [[0u64; 16]; BATCH_CHUNK];
    let mut exps = [(0u64, 0u64); BATCH_CHUNK];
    for (i, ((it, &e), &zi)) in items.iter().zip(challenges).zip(&z).enumerate() {
        s_sum = ((s_sum as u128 + zi as u128 * it.s as u128) % P_MINUS_1 as u128) as u64;
        let y = ((zi as u128 * e as u128) % P_MINUS_1 as u128) as u64;
        tables[i] = pair_table(it.r, it.pk);
        exps[i] = (zi, y);
    }
    let (tables, exps) = (&tables[..n], &exps[..n]);

    // Interleaved multi-exponentiation over eight independent
    // accumulators: each walks the 31 two-bit windows once (squarings
    // shared by all the items in its lane), and splitting the items across
    // eight chains breaks the serial acc→acc multiply dependency so the
    // CPU can overlap the modular reductions.
    let mut accs = [1u64; 8];
    for w in (0..31u32).rev() {
        for a in accs.iter_mut() {
            let sq = mulmod(*a, *a);
            *a = mulmod(sq, sq);
        }
        let shift = 2 * w;
        for (i, (&(x, y), table)) in exps.iter().zip(tables).enumerate() {
            let d = (((x >> shift) & 3) | (((y >> shift) & 3) << 2)) as usize;
            let lane = &mut accs[i & 7];
            *lane = mulmod(*lane, table[d]);
        }
    }
    let rhs = accs.iter().fold(1u64, |p, &a| mulmod(p, a));
    g_powmod(s_sum) == rhs
}

/// Walks `z` forward to the first value coprime to `p − 1`.
///
/// The group order's full factorization is
/// `p − 1 = 2·3²·5²·7·11·13·31·41·61·151·331·1321`, so coprimality is
/// twelve divisibility tests against *constant* divisors (compiled to
/// multiply-high sequences, no `div`). Density of units mod `p − 1` is
/// `φ(p−1)/(p−1) ≈ 0.155`, so the walk averages ~6 cheap steps — noise
/// next to one modular multiplication. Wraps to 1 (a unit) in the
/// astronomically unlikely event the walk runs off the top of the range.
fn coprime_pm1(mut z: u64) -> u64 {
    // Oddness (the most frequent rejection) is forced once, then the walk
    // strides by 2 and only the eleven odd prime factors need testing.
    z |= 1;
    const fn is_odd_unit(z: u64) -> bool {
        !z.is_multiple_of(3)
            && !z.is_multiple_of(5)
            && !z.is_multiple_of(7)
            && !z.is_multiple_of(11)
            && !z.is_multiple_of(13)
            && !z.is_multiple_of(31)
            && !z.is_multiple_of(41)
            && !z.is_multiple_of(61)
            && !z.is_multiple_of(151)
            && !z.is_multiple_of(331)
            && !z.is_multiple_of(1321)
    }
    while !is_odd_unit(z) {
        z += 2;
        if z >= P_MINUS_1 {
            z = 1;
        }
    }
    z
}

/// Builds the 16-entry table `t[b·4 + a] = r^a · pk^b (mod p)` for the
/// two-bit windowed multi-exponentiation.
fn pair_table(r: u64, pk: u64) -> [u64; 16] {
    let mut t = [1u64; 16];
    t[1] = r;
    t[2] = mulmod(r, r);
    t[3] = mulmod(t[2], r);
    t[4] = pk;
    t[8] = mulmod(pk, pk);
    t[12] = mulmod(t[8], pk);
    for b in [4usize, 8, 12] {
        t[b + 1] = mulmod(t[b], r);
        t[b + 2] = mulmod(t[b], t[2]);
        t[b + 3] = mulmod(t[b], t[3]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::reference::{powmod, verify};
    use super::*;

    fn key(tag: u8) -> (SchnorrKey, [u8; 32]) {
        let seed = [tag; 32];
        (SchnorrKey::from_seed(&seed), seed)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let (k, seed) = key(7);
        let (r, s) = k.sign(&seed, b"hello overlay");
        assert!(verify(k.pk, b"hello overlay", r, s));
    }

    #[test]
    fn rejects_tampered_message() {
        let (k, seed) = key(7);
        let (r, s) = k.sign(&seed, b"hello overlay");
        assert!(!verify(k.pk, b"hello overlaz", r, s));
    }

    #[test]
    fn rejects_wrong_key() {
        let (k1, seed1) = key(1);
        let (k2, _) = key(2);
        let (r, s) = k1.sign(&seed1, b"msg");
        assert!(!verify(k2.pk, b"msg", r, s));
    }

    #[test]
    fn rejects_tampered_signature_parts() {
        let (k, seed) = key(9);
        let (r, s) = k.sign(&seed, b"msg");
        assert!(!verify(k.pk, b"msg", r ^ 1, s));
        assert!(!verify(k.pk, b"msg", r, s ^ 1));
    }

    #[test]
    fn rejects_out_of_range_values() {
        let (k, seed) = key(3);
        let (_, s) = k.sign(&seed, b"m");
        assert!(!verify(k.pk, b"m", 0, s));
        assert!(!verify(k.pk, b"m", P, s));
        assert!(!verify(0, b"m", 1, s));
    }

    #[test]
    fn signing_is_deterministic() {
        let (k, seed) = key(4);
        assert_eq!(k.sign(&seed, b"m"), k.sign(&seed, b"m"));
        assert_ne!(k.sign(&seed, b"m"), k.sign(&seed, b"n"));
    }

    #[test]
    fn powmod_basics() {
        assert_eq!(powmod(G, 0), 1);
        assert_eq!(powmod(G, 1), G);
        assert_eq!(powmod(G, 2), 9);
        // Fermat: g^(p-1) == 1 (mod p) for prime p.
        assert_eq!(powmod(G, P_MINUS_1), 1);
    }

    #[test]
    fn mulmod_matches_u128_reference() {
        let cases = [
            (P - 1, P - 1),
            (12345, 678910),
            (P - 2, 2),
            (0, 0),
            (u64::MAX, u64::MAX),
            (u64::MAX, 1),
            (P, P),
            (P, 1),
        ];
        for (a, b) in cases {
            let want = ((a as u128 * b as u128) % P as u128) as u64;
            assert_eq!(mulmod(a, b), want, "a={a} b={b}");
        }
        let mut stream = xorshift_stream(0x9e37_79b9);
        for _ in 0..20_000 {
            let a = stream.next().unwrap();
            let b = stream.next().unwrap();
            let want = ((a as u128 * b as u128) % P as u128) as u64;
            assert_eq!(mulmod(a, b), want, "a={a} b={b}");
        }
    }

    #[test]
    fn distinct_seeds_distinct_keys() {
        let (k1, _) = key(10);
        let (k2, _) = key(11);
        assert_ne!(k1.pk, k2.pk);
    }

    /// A deterministic pseudo-random u64 stream for exhaustive equivalence
    /// sweeps (keeps the tests RNG-free and reproducible).
    fn xorshift_stream(mut state: u64) -> impl Iterator<Item = u64> {
        std::iter::repeat_with(move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        })
    }

    fn exponent_edge_cases() -> Vec<u64> {
        let mut cases = vec![
            0,
            1,
            2,
            3,
            15,
            16,
            17,
            P_MINUS_1 - 1,
            P_MINUS_1,
            P,
            u64::MAX,
        ];
        for i in 0..64 {
            let p = 1u64 << i;
            cases.extend([p.wrapping_sub(1), p, p.wrapping_add(1)]);
        }
        cases
    }

    #[test]
    fn g_powmod_matches_powmod_exhaustively() {
        for e in exponent_edge_cases() {
            assert_eq!(g_powmod(e), powmod(G, e), "edge exponent {e}");
        }
        for e in xorshift_stream(0x5eed_1234).take(2000) {
            assert_eq!(g_powmod(e), powmod(G, e), "random exponent {e}");
        }
    }

    #[test]
    fn g_table_first_window_is_small_powers() {
        for (d, entry) in G_TABLE[0].iter().enumerate() {
            assert_eq!(*entry, powmod(G, d as u64));
        }
    }

    #[test]
    fn shamir_powmod_matches_independent_exponentiations() {
        let mut stream = xorshift_stream(0xabcd_ef01);
        for _ in 0..1000 {
            let a = stream.next().unwrap() % P;
            let b = stream.next().unwrap() % P;
            let x = stream.next().unwrap();
            let y = stream.next().unwrap();
            let want = mulmod(powmod(a, x), powmod(b, y));
            assert_eq!(shamir_powmod(a, x, b, y), want, "a={a} x={x} b={b} y={y}");
        }
        // Degenerate exponents and bases.
        for (a, x, b, y) in [
            (0, 0, 0, 0),
            (G, 0, 5, 0),
            (G, 1, 5, 0),
            (G, 0, 5, 1),
            (G, P_MINUS_1, 7, P_MINUS_1),
            (1, u64::MAX, 1, u64::MAX),
        ] {
            assert_eq!(
                shamir_powmod(a, x, b, y),
                mulmod(powmod(a, x), powmod(b, y))
            );
        }
    }

    #[test]
    fn verify_fast_agrees_with_verify_on_real_signatures() {
        for tag in 0..32u8 {
            let (k, seed) = key(tag);
            let msg = [tag; 40];
            let (r, s) = k.sign(&seed, &msg);
            // Valid signature, tampered message, tampered parts, wrong key.
            assert!(verify(k.pk, &msg, r, s) && verify_fast(k.pk, &msg, r, s));
            for (pk, m, rr, ss) in [
                (k.pk, [tag ^ 1; 40], r, s),
                (k.pk, msg, r ^ 1, s),
                (k.pk, msg, r, s ^ 1),
                (key(tag.wrapping_add(1)).0.pk, msg, r, s),
            ] {
                assert_eq!(
                    verify(pk, &m, rr, ss),
                    verify_fast(pk, &m, rr, ss),
                    "tampered case pk={pk} r={rr} s={ss}"
                );
            }
        }
    }

    #[test]
    fn verify_fast_agrees_with_verify_on_arbitrary_inputs() {
        // Random (pk, r, s) triples — mostly invalid signatures — plus
        // out-of-range values: the fast path must return the identical
        // verdict everywhere, not just on honestly generated signatures.
        let mut stream = xorshift_stream(0x0bad_cafe);
        for i in 0..2000u64 {
            let pk = stream.next().unwrap() % (P + 2);
            let r = stream.next().unwrap() % (P + 2);
            let s = stream.next().unwrap() % (P + 2);
            let msg = i.to_be_bytes();
            assert_eq!(
                verify(pk, &msg, r, s),
                verify_fast(pk, &msg, r, s),
                "pk={pk} r={r} s={s}"
            );
        }
        for bad in [
            (0u64, 1u64, 1u64),
            (P, 1, 1),
            (1, 0, 1),
            (1, P, 1),
            (1, 1, P_MINUS_1),
        ] {
            let (pk, r, s) = bad;
            assert!(!verify(pk, b"m", r, s));
            assert!(!verify_fast(pk, b"m", r, s));
        }
    }

    /// Raw `(pk, r, s)` signature tuples, parallel to a message list.
    type RawSigs = Vec<(u64, u64, u64)>;

    /// Builds `n` valid signatures over distinct messages from a pool of
    /// keys. Returns the owned message bytes plus the raw tuples.
    fn signed_batch(n: usize, seed_tag: u8) -> (Vec<[u8; 32]>, RawSigs) {
        let mut msgs = Vec::with_capacity(n);
        let mut sigs = Vec::with_capacity(n);
        for i in 0..n {
            let (k, seed) = key(seed_tag.wrapping_add((i % 11) as u8));
            let mut msg = [0u8; 32];
            msg[..8].copy_from_slice(&(i as u64).to_be_bytes());
            msg[8] = seed_tag;
            let (r, s) = k.sign(&seed, &msg);
            msgs.push(msg);
            sigs.push((k.pk, r, s));
        }
        (msgs, sigs)
    }

    fn items<'a>(msgs: &'a [[u8; 32]], sigs: &[(u64, u64, u64)]) -> Vec<BatchItem<'a>> {
        msgs.iter()
            .zip(sigs)
            .map(|(m, &(pk, r, s))| BatchItem { pk, msg: m, r, s })
            .collect()
    }

    /// Property: for every batch size 1–64, `batch_verify` agrees with a
    /// sequential `verify_fast` walk — `Ok` on all-valid batches, and the
    /// identical first-failing index once signatures are corrupted.
    #[test]
    fn batch_matches_sequential_on_all_sizes() {
        for n in 1..=64usize {
            let (msgs, sigs) = signed_batch(n, n as u8);
            let batch = items(&msgs, &sigs);
            let sequential = batch
                .iter()
                .position(|it| !verify_fast(it.pk, it.msg, it.r, it.s));
            assert_eq!(batch_verify(&batch), Ok(()), "size {n}");
            assert_eq!(sequential, None, "size {n}");
        }
    }

    /// A single forged signature anywhere in the batch is detected and
    /// attributed to exactly the forged index: no honest signature is
    /// blamed and no forged one admitted, at every (size, position) pair.
    #[test]
    fn single_forgery_is_attributed_exactly() {
        for n in [1usize, 2, 3, 5, 8, 16, 33, 64] {
            let (msgs, base) = signed_batch(n, 0x40);
            for forged_at in 0..n {
                for corrupt in ["r", "s", "pk"] {
                    let mut sigs = base.clone();
                    match corrupt {
                        "r" => sigs[forged_at].1 ^= 0x2,
                        "s" => sigs[forged_at].2 ^= 0x4,
                        _ => sigs[forged_at].0 ^= 0x8,
                    }
                    let batch = items(&msgs, &sigs);
                    let sequential = batch
                        .iter()
                        .position(|it| !verify_fast(it.pk, it.msg, it.r, it.s))
                        .expect("corruption must invalidate the signature");
                    assert_eq!(
                        batch_verify(&batch),
                        Err(sequential),
                        "n={n} forged_at={forged_at} corrupt={corrupt}"
                    );
                    assert_eq!(sequential, forged_at);
                }
            }
        }
    }

    /// Past `BATCH_CHUNK` items the batch is verified chunk by chunk: still
    /// `Ok` when all-valid, still the first failing index — on a chunk
    /// boundary, inside a later chunk, in a short tail.
    #[test]
    fn batches_longer_than_a_chunk_are_attributed_exactly() {
        for n in [BATCH_CHUNK + 1, 2 * BATCH_CHUNK, 2 * BATCH_CHUNK + 3] {
            let (msgs, base) = signed_batch(n, 0x55);
            assert_eq!(batch_verify(&items(&msgs, &base)), Ok(()), "size {n}");
            for forged_at in [0, BATCH_CHUNK - 1, BATCH_CHUNK, n - 2, n - 1] {
                let mut sigs = base.clone();
                sigs[forged_at].2 ^= 0x4;
                sigs[n - 1].1 ^= 0x2;
                assert_eq!(
                    batch_verify(&items(&msgs, &sigs)),
                    Err(forged_at),
                    "n={n} forged_at={forged_at}"
                );
            }
        }
    }

    /// Multiple forgeries: the reported index is always the first failing
    /// one, matching the sequential scan exactly.
    #[test]
    fn multiple_forgeries_report_first_index() {
        let mut stream = xorshift_stream(0xfeed_beef);
        for _case in 0..50 {
            let n = 2 + (stream.next().unwrap() % 63) as usize;
            let (msgs, mut sigs) = signed_batch(n, 0x70);
            let forgeries = 1 + (stream.next().unwrap() % 4) as usize;
            for _ in 0..forgeries {
                let at = (stream.next().unwrap() % n as u64) as usize;
                sigs[at].2 ^= 1 + (stream.next().unwrap() % 255);
            }
            let batch = items(&msgs, &sigs);
            let sequential = batch
                .iter()
                .position(|it| !verify_fast(it.pk, it.msg, it.r, it.s));
            assert_eq!(batch_verify(&batch), sequential.map_or(Ok(()), Err));
        }
    }

    /// Out-of-range values mixed into a batch are caught with exact
    /// attribution too (they fail the range screen, not the group check).
    #[test]
    fn out_of_range_items_are_attributed() {
        for n in [2usize, 7, 16] {
            let (msgs, base) = signed_batch(n, 0x21);
            for at in 0..n {
                for bad in [(0u64, 1u64, 1u64), (P, 1, 1), (1, 0, 1), (1, P, 1)] {
                    let mut sigs = base.clone();
                    sigs[at] = bad;
                    let batch = items(&msgs, &sigs);
                    assert_eq!(batch_verify(&batch), Err(at), "n={n} at={at} bad={bad:?}");
                }
            }
        }
    }

    /// Duplicated valid signatures (the common absorb/redeem overlap case)
    /// stay valid in a batch.
    #[test]
    fn duplicate_entries_verify() {
        let (msgs, sigs) = signed_batch(4, 0x11);
        let mut batch = items(&msgs, &sigs);
        let dup = batch[1];
        batch.push(dup);
        batch.push(batch[0]);
        assert_eq!(batch_verify(&batch), Ok(()));
    }

    #[test]
    fn empty_batch_is_ok() {
        assert_eq!(batch_verify(&[]), Ok(()));
    }

    /// The small-order-discrepancy attack the coprime blinding scalars
    /// exist to stop: replacing a commitment `r` with `−r ≡ r·(p−1)`
    /// leaves a discrepancy of order 2 in the combined check, which any
    /// *even* blinding scalar would annihilate (a ½ pass probability per
    /// batch). With `z_i` coprime to `p − 1` the forgery must be caught —
    /// at every batch size and position, deterministically.
    #[test]
    fn negated_commitment_forgery_is_always_caught() {
        for n in [4usize, 5, 8, 16, 33, 64] {
            let (msgs, base) = signed_batch(n, 0x77);
            for forged_at in 0..n {
                let mut sigs = base.clone();
                sigs[forged_at].1 = P - sigs[forged_at].1; // r → −r mod p
                let batch = items(&msgs, &sigs);
                assert_eq!(
                    batch_verify(&batch),
                    Err(forged_at),
                    "−r forgery at {forged_at}/{n} slipped through"
                );
            }
        }
    }
}
