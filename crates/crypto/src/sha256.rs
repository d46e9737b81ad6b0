//! A from-scratch implementation of the SHA-256 hash function (FIPS 180-4).
//!
//! The simulator depends on hashing for descriptor digests, signature
//! messages, and deterministic key derivation. Implementing the function
//! in-repo keeps the workspace free of external crypto dependencies while
//! remaining bit-for-bit compatible with the standard (verified against the
//! NIST test vectors in this module's tests).
//!
//! Both a streaming API ([`Sha256`]) and a one-shot helper ([`sha256`]) are
//! provided.
//!
//! # Examples
//!
//! ```
//! use sc_crypto::sha256::{sha256, Sha256};
//!
//! let one_shot = sha256(b"abc");
//! let mut hasher = Sha256::new();
//! hasher.update(b"a");
//! hasher.update(b"bc");
//! assert_eq!(one_shot, hasher.finalize());
//! ```

/// Output size of SHA-256 in bytes.
pub const DIGEST_LEN: usize = 32;

/// A 32-byte SHA-256 digest.
pub type Digest = [u8; DIGEST_LEN];

const BLOCK_LEN: usize = 64;

/// Initial hash values: the first 32 bits of the fractional parts of the
/// square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

/// Round constants: the first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a_2f98,
    0x7137_4491,
    0xb5c0_fbcf,
    0xe9b5_dba5,
    0x3956_c25b,
    0x59f1_11f1,
    0x923f_82a4,
    0xab1c_5ed5,
    0xd807_aa98,
    0x1283_5b01,
    0x2431_85be,
    0x550c_7dc3,
    0x72be_5d74,
    0x80de_b1fe,
    0x9bdc_06a7,
    0xc19b_f174,
    0xe49b_69c1,
    0xefbe_4786,
    0x0fc1_9dc6,
    0x240c_a1cc,
    0x2de9_2c6f,
    0x4a74_84aa,
    0x5cb0_a9dc,
    0x76f9_88da,
    0x983e_5152,
    0xa831_c66d,
    0xb003_27c8,
    0xbf59_7fc7,
    0xc6e0_0bf3,
    0xd5a7_9147,
    0x06ca_6351,
    0x1429_2967,
    0x27b7_0a85,
    0x2e1b_2138,
    0x4d2c_6dfc,
    0x5338_0d13,
    0x650a_7354,
    0x766a_0abb,
    0x81c2_c92e,
    0x9272_2c85,
    0xa2bf_e8a1,
    0xa81a_664b,
    0xc24b_8b70,
    0xc76c_51a3,
    0xd192_e819,
    0xd699_0624,
    0xf40e_3585,
    0x106a_a070,
    0x19a4_c116,
    0x1e37_6c08,
    0x2748_774c,
    0x34b0_bcb5,
    0x391c_0cb3,
    0x4ed8_aa4a,
    0x5b9c_ca4f,
    0x682e_6ff3,
    0x748f_82ee,
    0x78a5_636f,
    0x84c8_7814,
    0x8cc7_0208,
    0x90be_fffa,
    0xa450_6ceb,
    0xbef9_a3f7,
    0xc671_78f2,
];

/// Incremental SHA-256 hasher.
///
/// Feed data with [`Sha256::update`] and obtain the digest with
/// [`Sha256::finalize`]. The hasher can be reused after [`Sha256::reset`].
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_LEN],
    buffered: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl core::fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Sha256")
            .field("total_len", &self.total_len)
            .field("buffered", &self.buffered)
            .finish()
    }
}

impl Sha256 {
    /// Creates a fresh hasher in its initial state.
    pub fn new() -> Self {
        Self {
            state: H0,
            buffer: [0u8; BLOCK_LEN],
            buffered: 0,
            total_len: 0,
        }
    }

    /// Resets the hasher to its initial state, discarding buffered input.
    pub fn reset(&mut self) {
        *self = Self::new();
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buffered > 0 {
            let take = (BLOCK_LEN - self.buffered).min(rest.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered == BLOCK_LEN {
                compress(&mut self.state, &self.buffer);
                self.buffered = 0;
            }
        }
        let full = rest.len() - rest.len() % BLOCK_LEN;
        if full > 0 {
            compress_blocks(&mut self.state, &rest[..full]);
            rest = &rest[full..];
        }
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffered = rest.len();
        }
        self
    }

    /// Finishes the computation and returns the digest.
    ///
    /// The hasher is consumed; clone it first if further updates are needed.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, then the 64-bit big-endian message length.
        let mut pad = [0u8; BLOCK_LEN * 2];
        pad[0] = 0x80;
        let pad_len = if self.buffered < 56 {
            56 - self.buffered
        } else {
            BLOCK_LEN + 56 - self.buffered
        };
        pad[pad_len..pad_len + 8].copy_from_slice(&bit_len.to_be_bytes());
        self.update_no_len(&pad[..pad_len + 8]);
        debug_assert_eq!(self.buffered, 0);
        let mut out = [0u8; DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state.iter()) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Like `update` but without counting the bytes toward the message
    /// length — used internally for padding.
    fn update_no_len(&mut self, data: &[u8]) {
        let saved = self.total_len;
        self.update(data);
        self.total_len = saved;
    }
}

/// Compresses a run of whole 64-byte blocks into `state`.
///
/// Dispatches to the SHA-NI hardware path when the CPU supports it (runtime
/// detected, cached), otherwise to the scalar software path. Both paths keep
/// the working state in registers across the entire run instead of
/// round-tripping it through memory once per block, which is what makes
/// multi-block throughput (`sha256/8KiB`) noticeably better than 64 bytes at
/// a time.
fn compress_blocks(state: &mut [u32; 8], data: &[u8]) {
    debug_assert_eq!(data.len() % BLOCK_LEN, 0);
    #[cfg(target_arch = "x86_64")]
    if shani::compress_blocks(state, data) {
        return;
    }
    compress_blocks_scalar(state, data);
}

/// Single-block convenience wrapper used for the internal buffer.
fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    compress_blocks(state, block);
}

/// Portable multi-block compression. The eight chaining values live in
/// locals for the whole run; memory is touched once on entry and once on
/// exit.
fn compress_blocks_scalar(state: &mut [u32; 8], data: &[u8]) {
    let [mut s0, mut s1, mut s2, mut s3, mut s4, mut s5, mut s6, mut s7] = *state;
    for block in data.chunks_exact(BLOCK_LEN) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let t0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let t1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(t0)
                .wrapping_add(w[i - 7])
                .wrapping_add(t1);
        }

        let (mut a, mut b, mut c, mut d) = (s0, s1, s2, s3);
        let (mut e, mut f, mut g, mut h) = (s4, s5, s6, s7);
        for i in 0..64 {
            let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(big_s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = big_s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        s0 = s0.wrapping_add(a);
        s1 = s1.wrapping_add(b);
        s2 = s2.wrapping_add(c);
        s3 = s3.wrapping_add(d);
        s4 = s4.wrapping_add(e);
        s5 = s5.wrapping_add(f);
        s6 = s6.wrapping_add(g);
        s7 = s7.wrapping_add(h);
    }
    *state = [s0, s1, s2, s3, s4, s5, s6, s7];
}

/// Hardware SHA-256 via the x86 SHA extensions (SHA-NI).
///
/// The workspace has two `unsafe` sites: this one, and the `poll(2)`
/// call in `sc-node`'s `wait` module (every other crate forbids
/// `unsafe_code`; CI fails on a third). Here, calling the
/// `#[target_feature]` function is sound because every entry point first
/// checks `is_x86_feature_detected!` (the result is cached by `std`), and
/// the intrinsics themselves only read/write the slices passed in. The path
/// is bit-for-bit equivalent to the scalar implementation — the equivalence
/// tests below run both against each other and against the NIST vectors.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani {
    use super::{BLOCK_LEN, K};
    use core::arch::x86_64::*;

    /// Returns `true` if the CPU supports the SHA extensions (plus the SSE
    /// levels the shuffle/blend helpers need).
    pub fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse4.1")
            && is_x86_feature_detected!("ssse3")
    }

    /// Compresses whole blocks with SHA-NI; returns `false` (leaving
    /// `state` untouched) when the CPU lacks the extension.
    #[inline]
    pub fn compress_blocks(state: &mut [u32; 8], data: &[u8]) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: the required target features were just verified at
        // runtime; `compress_blocks_ni` has no other preconditions.
        unsafe { compress_blocks_ni(state, data) };
        true
    }

    #[target_feature(enable = "sha,sse4.1,ssse3,sse2")]
    unsafe fn compress_blocks_ni(state: &mut [u32; 8], data: &[u8]) {
        debug_assert_eq!(data.len() % BLOCK_LEN, 0);
        // Byte shuffle turning four little-endian lane loads into the
        // big-endian word order SHA-256 consumes.
        let mask = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0bu64 as i64, 0x0405_0607_0001_0203);

        // Repack [a,b,c,d] / [e,f,g,h] into the ABEF / CDGH lane layout the
        // sha256rnds2 instruction expects.
        let tmp = _mm_shuffle_epi32(_mm_loadu_si128(state[..4].as_ptr().cast()), 0xB1);
        let efgh = _mm_shuffle_epi32(_mm_loadu_si128(state[4..].as_ptr().cast()), 0x1B);
        let mut abef = _mm_alignr_epi8(tmp, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, tmp, 0xF0);

        for block in data.chunks_exact(BLOCK_LEN) {
            let saved_abef = abef;
            let saved_cdgh = cdgh;

            let kv = |i: usize| {
                _mm_set_epi32(
                    K[4 * i + 3] as i32,
                    K[4 * i + 2] as i32,
                    K[4 * i + 1] as i32,
                    K[4 * i] as i32,
                )
            };
            // Two rounds per sha256rnds2; the low then high halves of the
            // four prepared (W+K) words.
            let rounds4 = |abef: &mut __m128i, cdgh: &mut __m128i, wk: __m128i| {
                *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
                *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
            };
            // Produces W[i..i+4] from the previous 16 schedule words.
            let schedule = |v0: __m128i, v1: __m128i, v2: __m128i, v3: __m128i| {
                let t = _mm_add_epi32(_mm_sha256msg1_epu32(v0, v1), _mm_alignr_epi8(v3, v2, 4));
                _mm_sha256msg2_epu32(t, v3)
            };

            let p = block.as_ptr();
            let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(p.cast()), mask);
            let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(16).cast()), mask);
            let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(32).cast()), mask);
            let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(48).cast()), mask);

            rounds4(&mut abef, &mut cdgh, _mm_add_epi32(w0, kv(0)));
            rounds4(&mut abef, &mut cdgh, _mm_add_epi32(w1, kv(1)));
            rounds4(&mut abef, &mut cdgh, _mm_add_epi32(w2, kv(2)));
            rounds4(&mut abef, &mut cdgh, _mm_add_epi32(w3, kv(3)));
            for chunk in 1..4 {
                w0 = schedule(w0, w1, w2, w3);
                rounds4(&mut abef, &mut cdgh, _mm_add_epi32(w0, kv(4 * chunk)));
                w1 = schedule(w1, w2, w3, w0);
                rounds4(&mut abef, &mut cdgh, _mm_add_epi32(w1, kv(4 * chunk + 1)));
                w2 = schedule(w2, w3, w0, w1);
                rounds4(&mut abef, &mut cdgh, _mm_add_epi32(w2, kv(4 * chunk + 2)));
                w3 = schedule(w3, w0, w1, w2);
                rounds4(&mut abef, &mut cdgh, _mm_add_epi32(w3, kv(4 * chunk + 3)));
            }

            abef = _mm_add_epi32(abef, saved_abef);
            cdgh = _mm_add_epi32(cdgh, saved_cdgh);
        }

        // Unpack ABEF / CDGH back to [a..d] / [e..h].
        let tmp = _mm_shuffle_epi32(abef, 0x1B);
        let cdgh_sh = _mm_shuffle_epi32(cdgh, 0xB1);
        _mm_storeu_si128(
            state[..4].as_mut_ptr().cast(),
            _mm_blend_epi16(tmp, cdgh_sh, 0xF0),
        );
        _mm_storeu_si128(
            state[4..].as_mut_ptr().cast(),
            _mm_alignr_epi8(cdgh_sh, tmp, 8),
        );
    }
}

/// Computes the SHA-256 digest of `data` in one shot.
///
/// # Examples
///
/// ```
/// let d = sc_crypto::sha256::sha256(b"hello");
/// assert_eq!(d.len(), 32);
/// ```
pub fn sha256(data: &[u8]) -> Digest {
    if data.len() <= SHORT_MAX {
        return short_digest(&[data], data.len());
    }
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Computes SHA-256 over the concatenation of several byte slices without
/// allocating an intermediate buffer.
pub fn sha256_concat(parts: &[&[u8]]) -> Digest {
    let total: usize = parts.iter().map(|p| p.len()).sum();
    if total <= SHORT_MAX {
        return short_digest(parts, total);
    }
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

/// Most blocks a message hashed in one shot spans, padding included.
const SHORT_BLOCKS: usize = 3;

/// Longest message hashed in one shot: [`SHORT_BLOCKS`] blocks less the
/// mandatory padding byte and 8-byte length trailer.
const SHORT_MAX: usize = SHORT_BLOCKS * BLOCK_LEN - 9;

/// One-shot path: messages of ≤ 183 bytes — every message the protocol
/// signs or digests, from a 55-byte challenge to a 137-byte next-state —
/// are padded in one stack buffer and compressed in one call, skipping the
/// streaming buffer round-trips.
fn short_digest(parts: &[&[u8]], total: usize) -> Digest {
    debug_assert!(total <= SHORT_MAX);
    let mut buf = [0u8; SHORT_BLOCKS * BLOCK_LEN];
    let mut off = 0;
    for p in parts {
        buf[off..off + p.len()].copy_from_slice(p);
        off += p.len();
    }
    buf[off] = 0x80;
    let end = (total + 9).div_ceil(BLOCK_LEN) * BLOCK_LEN;
    buf[end - 8..end].copy_from_slice(&(total as u64 * 8).to_be_bytes());
    let mut state = H0;
    compress_blocks(&mut state, &buf[..end]);
    let mut out = [0u8; DIGEST_LEN];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state.iter()) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex::to_hex;

    #[test]
    fn nist_empty() {
        assert_eq!(
            to_hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            to_hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_448_bits() {
        let msg = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
        assert_eq!(
            to_hex(&sha256(msg)),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_million_a() {
        let msg = vec![b'a'; 1_000_000];
        assert_eq!(
            to_hex(&sha256(&msg)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_one_shot_for_all_split_points() {
        let data: Vec<u8> = (0u8..=255).cycle().take(300).collect();
        let expect = sha256(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expect, "split at {split}");
        }
    }

    #[test]
    fn block_boundary_lengths() {
        // Exercise padding around the 56-byte and 64-byte boundaries.
        for len in [0usize, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 128, 129] {
            let data = vec![0xabu8; len];
            let mut h = Sha256::new();
            for b in &data {
                h.update(core::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), sha256(&data), "len {len}");
        }
    }

    /// The streaming hasher alone: the reference the one-shot path is
    /// pinned to.
    fn streaming(parts: &[&[u8]]) -> Digest {
        let mut h = Sha256::new();
        for p in parts {
            h.update(p);
        }
        h.finalize()
    }

    #[test]
    fn one_shot_matches_streaming_at_every_length_and_split() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=data.len() {
            let msg = &data[..len];
            let want = streaming(&[msg]);
            assert_eq!(sha256(msg), want, "len {len}");
            for split in 0..=len {
                let (a, b) = msg.split_at(split);
                assert_eq!(sha256_concat(&[a, b]), want, "len {len} split {split}");
            }
        }
    }

    #[test]
    fn concat_helper_matches_manual_concat() {
        let d1 = sha256_concat(&[b"foo", b"bar", b""]);
        let d2 = sha256(b"foobar");
        assert_eq!(d1, d2);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut h = Sha256::new();
        h.update(b"garbage");
        h.reset();
        h.update(b"abc");
        assert_eq!(
            to_hex(&h.finalize()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn debug_is_nonempty() {
        let h = Sha256::new();
        assert!(!format!("{h:?}").is_empty());
    }

    /// The hardware and scalar compression paths must agree bit-for-bit on
    /// arbitrary states and block runs (1–8 blocks, varied fill patterns).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn shani_matches_scalar_on_random_runs() {
        if !super::shani::available() {
            eprintln!("skipping: CPU lacks SHA-NI");
            return;
        }
        let mut rng = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for blocks in 1..=8usize {
            for _case in 0..16 {
                let mut state: [u32; 8] = core::array::from_fn(|_| next() as u32);
                let data: Vec<u8> = (0..blocks * BLOCK_LEN).map(|_| next() as u8).collect();
                let mut hw = state;
                assert!(super::shani::compress_blocks(&mut hw, &data));
                compress_blocks_scalar(&mut state, &data);
                assert_eq!(hw, state, "{blocks} blocks");
            }
        }
    }

    /// Multi-block runs through the dispatching entry point match a
    /// block-at-a-time scalar walk (exercises whichever path the host CPU
    /// selects against the portable reference).
    #[test]
    fn compress_blocks_matches_per_block_scalar() {
        let data: Vec<u8> = (0u8..=255).cycle().take(7 * BLOCK_LEN).collect();
        let mut dispatched = H0;
        compress_blocks(&mut dispatched, &data);
        let mut reference = H0;
        for block in data.chunks_exact(BLOCK_LEN) {
            compress_blocks_scalar(&mut reference, block);
        }
        assert_eq!(dispatched, reference);
    }
}
