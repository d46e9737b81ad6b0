//! Wire encoding and the paper's message-size model (§VI-A).
//!
//! Two size accountings are provided:
//!
//! * **Actual encoding** — a compact binary codec for descriptors and
//!   gossip messages ([`encode_descriptor`] / [`decode_descriptor`],
//!   [`message_wire_bytes`]). Used by the workspace's own traffic
//!   accounting and round-trip tested.
//! * **Paper model** — the analytic sizes of §VI-A, with 256-bit keys and
//!   256-bit signatures: a descriptor is `368 + 512·t` bits after `t`
//!   ownership transfers ([`paper_descriptor_bits`]). The `netcost`
//!   experiment reproduces the paper's ≈430-byte descriptor / ≈10.5 KB
//!   per-exchange estimates with this model.

use crate::descriptor::{ChainLink, Genesis, LinkKind, SecureDescriptor};
use crate::msg::{
    AcceptBody, JoinGrantBody, JoinPingBody, RequestBody, RoundBody, RoundReplyBody, SecureMsg,
};
use crate::proof::{ProofKind, ViolationProof};
use crate::time::Timestamp;
use sc_crypto::{
    PublicKey, Signature, PUBLIC_KEY_LEN, SIGNATURE_LEN, SIGNATURE_PADDING, SIGNATURE_STORED_LEN,
};

/// Errors raised while decoding wire bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the structure was complete.
    UnexpectedEnd,
    /// A public key carried an unknown scheme tag.
    BadPublicKey,
    /// A signature's padding, the bytes no scheme signs with, is not zero.
    BadSignature,
    /// An unknown link-kind tag.
    BadLinkKind(u8),
    /// An unknown message-type tag.
    BadMessageTag(u8),
    /// An unknown proof-kind tag.
    BadProofKind(u8),
    /// A decoded proof's evidence does not support its claim.
    BadProof,
    /// Trailing bytes after a complete message.
    TrailingBytes,
    /// The frame exceeds [`WireLimits::max_frame_bytes`].
    FrameTooLarge {
        /// Size of the offered frame in bytes.
        len: usize,
        /// The configured cap.
        max: usize,
    },
    /// A descriptor's ownership chain exceeds
    /// [`WireLimits::max_chain_links`].
    ChainTooLong(u16),
    /// A descriptor list exceeds [`WireLimits::max_list_len`].
    ListTooLong(u16),
    /// A proof list exceeds [`WireLimits::max_proofs`].
    TooManyProofs(u16),
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::UnexpectedEnd => write!(f, "unexpected end of input"),
            WireError::BadPublicKey => write!(f, "invalid public key encoding"),
            WireError::BadSignature => write!(f, "non-zero signature padding"),
            WireError::BadLinkKind(t) => write!(f, "unknown link kind tag {t}"),
            WireError::BadMessageTag(t) => write!(f, "unknown message tag {t}"),
            WireError::BadProofKind(t) => write!(f, "unknown proof kind tag {t}"),
            WireError::BadProof => write!(f, "proof evidence does not validate"),
            WireError::TrailingBytes => write!(f, "trailing bytes after message"),
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::ChainTooLong(n) => write!(f, "ownership chain of {n} links over limit"),
            WireError::ListTooLong(n) => write!(f, "descriptor list of {n} entries over limit"),
            WireError::TooManyProofs(n) => write!(f, "proof list of {n} entries over limit"),
        }
    }
}

impl std::error::Error for WireError {}

/// Decode-side resource limits, enforced **before** any allocation.
///
/// Every length prefix on the wire is checked twice before a buffer is
/// reserved for it: once against the configured cap, and once against the
/// bytes actually remaining in the input (each chain link, descriptor, and
/// proof has a known minimum encoded size). A hostile peer therefore
/// cannot turn a 2-byte count into a multi-megabyte allocation — decoder
/// memory is bounded by `min(input length, max_frame_bytes)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireLimits {
    /// Maximum total frame size accepted by
    /// [`decode_message_with`], in bytes.
    pub max_frame_bytes: usize,
    /// Maximum ownership-chain length per descriptor.
    pub max_chain_links: usize,
    /// Maximum entries in one descriptor list (offers, samples,
    /// transfers).
    pub max_list_len: usize,
    /// Maximum violation proofs per message.
    pub max_proofs: usize,
}

impl WireLimits {
    /// Default limits: far above anything the protocol produces (views
    /// are tens of entries, chains tens of links) yet small enough that a
    /// maximal hostile frame stays in the low megabytes.
    pub const DEFAULT: WireLimits = WireLimits {
        max_frame_bytes: 4 << 20,
        max_chain_links: 4096,
        max_list_len: 4096,
        max_proofs: 1024,
    };
}

impl Default for WireLimits {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// Encoded size of one chain link: key, kind tag, signature.
const LINK_BYTES: usize = PUBLIC_KEY_LEN + 1 + SIGNATURE_LEN;
/// Minimum encoded size of one descriptor (genesis + empty chain).
const DESCRIPTOR_MIN_BYTES: usize = PUBLIC_KEY_LEN + 4 + 8 + SIGNATURE_LEN + 2;
/// Minimum encoded size of one proof (kind + two minimal descriptors).
const PROOF_MIN_BYTES: usize = 1 + 2 * DESCRIPTOR_MIN_BYTES;

/// The one bounds-checked big-endian cursor that gossip messages, the
/// durable state log and control reports are all decoded through. Every
/// read checks the bytes remaining first (`len − pos < n`, which cannot
/// overflow), and a failed read consumes nothing. It carries
/// its [`WireLimits`], so every count it reads — in any of those formats
/// — is checked against them before anything is allocated.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    limits: WireLimits,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`, under [`WireLimits::DEFAULT`].
    pub fn new(buf: &'a [u8]) -> Self {
        Reader::with_limits(buf, &WireLimits::DEFAULT)
    }

    /// A cursor at the start of `buf`, under `limits`.
    pub fn with_limits(buf: &'a [u8], limits: &WireLimits) -> Self {
        Reader {
            buf,
            pos: 0,
            limits: *limits,
        }
    }

    /// Bytes consumed so far.
    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEnd`] (here and in every fixed-width read
    /// below) when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEnd);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// The bytes not yet consumed, without consuming them.
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// A cursor over the next `n` bytes and nothing beyond them, under
    /// this cursor's limits: how a length-prefixed record inside a
    /// larger input is decoded.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEnd`] when fewer than `n` bytes remain.
    pub fn sub(&mut self, n: usize) -> Result<Reader<'a>, WireError> {
        Ok(Reader::with_limits(self.take(n)?, &self.limits))
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// A big-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        self.array().map(u16::from_be_bytes)
    }

    /// A big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_be_bytes)
    }

    /// A big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_be_bytes)
    }

    /// A 32-byte digest.
    pub fn digest(&mut self) -> Result<[u8; 32], WireError> {
        self.array()
    }

    /// A public key.
    ///
    /// # Errors
    ///
    /// [`WireError::BadPublicKey`] on an unknown scheme tag.
    pub fn key(&mut self) -> Result<PublicKey, WireError> {
        PublicKey::from_bytes(self.array()?).ok_or(WireError::BadPublicKey)
    }

    fn sig(&mut self) -> Result<Signature, WireError> {
        Signature::from_bytes(self.array()?).ok_or(WireError::BadSignature)
    }

    /// Rejects a count `n` over its cap `max` (with `over`), or whose
    /// elements — at least `min_elem` bytes each — cannot fit in the
    /// remaining input, so `Vec::with_capacity(n)` never outruns the
    /// bytes backing it.
    ///
    /// # Errors
    ///
    /// `over`, or [`WireError::UnexpectedEnd`].
    fn check_count(
        &self,
        n: usize,
        max: usize,
        min_elem: usize,
        over: WireError,
    ) -> Result<(), WireError> {
        if n > max {
            return Err(over);
        }
        self.fits(n, min_elem)
    }

    /// Rejects a count `n` of elements, at least `min_elem` bytes each,
    /// that cannot fit in the remaining input: the check that bounds
    /// allocation for a count no cap applies to.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEnd`].
    pub(crate) fn fits(&self, n: usize, min_elem: usize) -> Result<(), WireError> {
        if n.saturating_mul(min_elem) > self.remaining() {
            return Err(WireError::UnexpectedEnd);
        }
        Ok(())
    }

    /// `Reader::check_count` for a plain list, capped at
    /// [`WireLimits::max_list_len`]: over the cap is
    /// [`WireError::ListTooLong`] (its payload saturates at `u16::MAX`).
    ///
    /// # Errors
    ///
    /// [`WireError::ListTooLong`] or [`WireError::UnexpectedEnd`].
    pub fn list_count(&self, n: usize, min_elem: usize) -> Result<(), WireError> {
        let over = WireError::ListTooLong(n.min(u16::MAX as usize) as u16);
        self.check_count(n, self.limits.max_list_len, min_elem, over)
    }

    /// `Reader::check_count` for a list of proofs, capped at
    /// [`WireLimits::max_proofs`].
    ///
    /// # Errors
    ///
    /// [`WireError::TooManyProofs`] or [`WireError::UnexpectedEnd`].
    pub fn proof_count(&self, n: usize, min_elem: usize) -> Result<(), WireError> {
        let over = WireError::TooManyProofs(n.min(u16::MAX as usize) as u16);
        self.check_count(n, self.limits.max_proofs, min_elem, over)
    }

    /// One descriptor: structurally well-formed, **not**
    /// signature-verified.
    ///
    /// # Errors
    ///
    /// Any [`WireError`], including [`WireError::ChainTooLong`] past
    /// [`WireLimits::max_chain_links`].
    pub fn descriptor(&mut self) -> Result<SecureDescriptor, WireError> {
        let creator = self.key()?;
        let addr = self.u32()?;
        let created_at = Timestamp(self.u64()?);
        let sig = self.sig()?;
        let n = self.u16()? as usize;
        self.check_count(
            n,
            self.limits.max_chain_links,
            LINK_BYTES,
            WireError::ChainTooLong(n as u16),
        )?;
        let mut desc = SecureDescriptor::from_genesis(Genesis {
            creator,
            addr,
            created_at,
            sig,
        });
        for _ in 0..n {
            let to = self.key()?;
            let kind = kind_from_tag(self.u8()?)?;
            let sig = self.sig()?;
            desc = desc.with_link(ChainLink { to, kind, sig });
        }
        Ok(desc)
    }

    /// A `u16`-counted descriptor list.
    fn descriptors(&mut self) -> Result<Vec<SecureDescriptor>, WireError> {
        let n = self.u16()? as usize;
        self.list_count(n, DESCRIPTOR_MIN_BYTES)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.descriptor()?);
        }
        Ok(out)
    }

    /// One violation proof, **re-validated** under `period_ticks` and
    /// kept as its minimal evidence: whatever a peer wrote past the fork
    /// is verified, then dropped, never re-flooded.
    ///
    /// # Errors
    ///
    /// [`WireError::BadProof`] if the evidence fails to prove the
    /// claimed violation — forged proofs never survive decoding.
    pub fn proof(&mut self, period_ticks: u64) -> Result<ViolationProof, WireError> {
        let kind = self.u8()?;
        let l = self.descriptor()?;
        let r = self.descriptor()?;
        match kind {
            0 => ViolationProof::cloning(l, r).map_err(|_| WireError::BadProof),
            1 => ViolationProof::frequency(l, r, period_ticks).map_err(|_| WireError::BadProof),
            t => Err(WireError::BadProofKind(t)),
        }
    }

    /// A `u16`-counted proof list.
    ///
    /// # Errors
    ///
    /// As [`Reader::proof`], plus [`WireError::TooManyProofs`] past
    /// [`WireLimits::max_proofs`].
    pub fn proofs(&mut self, period_ticks: u64) -> Result<Vec<ViolationProof>, WireError> {
        let n = self.u16()? as usize;
        self.proof_count(n, PROOF_MIN_BYTES)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.proof(period_ticks)?);
        }
        Ok(out)
    }
}

/// The big-endian encoder behind every format [`Reader`] decodes —
/// gossip messages, the durable state log, control reports, fault specs
/// and frame headers. It appends to a caller-owned buffer.
#[derive(Debug)]
pub struct Writer<'a> {
    out: &'a mut Vec<u8>,
}

impl<'a> Writer<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        Writer { out }
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    /// A big-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.bytes(&v.to_be_bytes());
    }

    /// A big-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_be_bytes());
    }

    /// A big-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_be_bytes());
    }

    /// Raw bytes (keys, signatures, digests, payloads).
    pub fn bytes(&mut self, b: &[u8]) {
        self.out.extend_from_slice(b);
    }

    /// A counted list: a big-endian count of `prefix_bytes` bytes (2 or
    /// 4 in every format here), then `each` for every counted item. A
    /// list longer than the prefix can express is cut to the largest
    /// count that fits, so the count always matches the body written: the
    /// decoder sees [`WireError::ListTooLong`] or a true prefix of the
    /// list, never a wrapped count in front of a full body.
    pub fn list<T>(
        &mut self,
        prefix_bytes: usize,
        items: &[T],
        mut each: impl FnMut(&mut Self, &T),
    ) {
        let max = u64::MAX >> (64 - 8 * prefix_bytes);
        let n = (items.len() as u64).min(max);
        self.bytes(&n.to_be_bytes()[8 - prefix_bytes..]);
        for item in &items[..n as usize] {
            each(self, item);
        }
    }

    /// One descriptor (see [`Reader::descriptor`]).
    pub fn descriptor(&mut self, desc: &SecureDescriptor) {
        let g = desc.genesis();
        self.bytes(g.creator.as_bytes());
        self.u32(g.addr);
        self.u64(g.created_at.ticks());
        self.bytes(g.sig.stored_bytes());
        self.bytes(SIGNATURE_PADDING);
        // A chain is reachable last link first only. Links are fixed-size,
        // so each goes straight into its slot, from the back; the slot is
        // zeroed, so a signature's padding is already there. Like
        // `Writer::list`, a chain longer than the count can express is cut
        // to its first `u16::MAX` links.
        let n = desc.transfer_count().min(usize::from(u16::MAX));
        self.u16(n as u16);
        let start = self.out.len();
        self.out.resize(start + n * LINK_BYTES, 0);
        let links = desc.links_rev().skip(desc.transfer_count() - n);
        for (slot, link) in self.out[start..].rchunks_exact_mut(LINK_BYTES).zip(links) {
            let (to, rest) = slot.split_at_mut(PUBLIC_KEY_LEN);
            to.copy_from_slice(link.to.as_bytes());
            rest[0] = kind_tag(link.kind);
            rest[1..=SIGNATURE_STORED_LEN].copy_from_slice(link.sig.stored_bytes());
        }
    }

    /// One violation proof: kind tag + the two evidence descriptors (the
    /// culprit is recomputed on decode — proofs stay self-certifying on
    /// the wire).
    pub fn proof(&mut self, proof: &ViolationProof) {
        self.u8(match proof.kind() {
            ProofKind::Cloning => 0,
            ProofKind::Frequency => 1,
        });
        let (l, r) = proof.evidence();
        self.descriptor(l);
        self.descriptor(r);
    }
}

fn kind_tag(kind: LinkKind) -> u8 {
    match kind {
        LinkKind::Transfer => 0,
        LinkKind::Redeem => 1,
        LinkKind::RedeemNonSwappable => 2,
    }
}

fn kind_from_tag(tag: u8) -> Result<LinkKind, WireError> {
    match tag {
        0 => Ok(LinkKind::Transfer),
        1 => Ok(LinkKind::Redeem),
        2 => Ok(LinkKind::RedeemNonSwappable),
        t => Err(WireError::BadLinkKind(t)),
    }
}

/// Serializes a descriptor into `out`.
pub fn encode_descriptor(desc: &SecureDescriptor, out: &mut Vec<u8>) {
    Writer::new(out).descriptor(desc);
}

/// Deserializes one descriptor from the front of `buf`, returning it and
/// the number of bytes consumed.
///
/// # Errors
///
/// Returns a [`WireError`] on malformed input. The decoded descriptor is
/// *structurally* well-formed but not signature-verified; callers must run
/// [`SecureDescriptor::verify`].
pub fn decode_descriptor(buf: &[u8]) -> Result<(SecureDescriptor, usize), WireError> {
    decode_descriptor_with(buf, &WireLimits::DEFAULT)
}

/// [`decode_descriptor`] with caller-supplied [`WireLimits`].
///
/// # Errors
///
/// Returns a [`WireError`] on malformed input or when the chain length
/// prefix exceeds `limits.max_chain_links`.
pub fn decode_descriptor_with(
    buf: &[u8],
    limits: &WireLimits,
) -> Result<(SecureDescriptor, usize), WireError> {
    let mut r = Reader::with_limits(buf, limits);
    let desc = r.descriptor()?;
    Ok((desc, r.position()))
}

/// Encoded size of a descriptor under this crate's codec, in bytes.
pub fn descriptor_wire_bytes(desc: &SecureDescriptor) -> usize {
    DESCRIPTOR_MIN_BYTES + desc.transfer_count() * LINK_BYTES
}

/// Descriptor size in **bits** under the paper's §VI-A model:
/// 368 bits of node info plus 512 bits (key + signature) per transfer.
pub fn paper_descriptor_bits(desc: &SecureDescriptor) -> usize {
    368 + 512 * desc.transfer_count()
}

/// Descriptor size in bytes under the paper's model (rounded up).
pub fn paper_descriptor_bytes(desc: &SecureDescriptor) -> usize {
    paper_descriptor_bits(desc).div_ceil(8)
}

fn body_descriptor_sizes<'a, F>(descs: impl Iterator<Item = &'a SecureDescriptor>, f: F) -> usize
where
    F: Fn(&SecureDescriptor) -> usize,
{
    descs.map(f).sum()
}

/// Total size of a message's descriptor payload under `sizer`
/// (e.g. [`paper_descriptor_bytes`] or [`descriptor_wire_bytes`]).
pub fn message_descriptor_bytes<F>(msg: &SecureMsg, sizer: F) -> usize
where
    F: Fn(&SecureDescriptor) -> usize + Copy,
{
    match msg {
        SecureMsg::Request(b) => {
            sizer(&b.redeemed)
                + sizer(&b.fresh)
                + body_descriptor_sizes(b.offered.iter(), sizer)
                + body_descriptor_sizes(b.samples.iter(), sizer)
                + b.proofs
                    .iter()
                    .map(|p| sizer(p.evidence().0) + sizer(p.evidence().1))
                    .sum::<usize>()
        }
        SecureMsg::Accept(b) => {
            body_descriptor_sizes(b.transfers.iter(), sizer)
                + body_descriptor_sizes(b.samples.iter(), sizer)
                + b.proofs
                    .iter()
                    .map(|p| sizer(p.evidence().0) + sizer(p.evidence().1))
                    .sum::<usize>()
        }
        SecureMsg::Round(b) => sizer(&b.transfer),
        SecureMsg::RoundReply(b) => b.transfer.as_ref().map(sizer).unwrap_or(0),
        SecureMsg::Proof(p) => sizer(p.evidence().0) + sizer(p.evidence().1),
        // A ping carries only the joiner's key — no descriptor payload.
        SecureMsg::JoinPing(_) => 0,
        SecureMsg::JoinGrant(b) => {
            sizer(&b.descriptor)
                + b.proofs
                    .iter()
                    .map(|p| sizer(p.evidence().0) + sizer(p.evidence().1))
                    .sum::<usize>()
        }
    }
}

/// Message size under this crate's codec (descriptor payload only; framing
/// overhead is a few bytes and ignored, as in the paper's estimate).
pub fn message_wire_bytes(msg: &SecureMsg) -> usize {
    message_descriptor_bytes(msg, descriptor_wire_bytes)
}

/// Message size under the paper's §VI-A model.
pub fn message_paper_bytes(msg: &SecureMsg) -> usize {
    message_descriptor_bytes(msg, paper_descriptor_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_crypto::{Keypair, Scheme};

    fn kp(tag: u8) -> Keypair {
        Keypair::from_seed(Scheme::Schnorr61, [tag; 32])
    }

    fn chained(n: usize) -> SecureDescriptor {
        let creator = kp(0);
        let mut d = SecureDescriptor::create(&creator, 42, Timestamp(7777));
        let mut owner = creator;
        for i in 0..n {
            let next = kp(i as u8 + 1);
            d = d.transfer(&owner, next.public()).unwrap();
            owner = next;
        }
        d
    }

    #[test]
    fn roundtrip_various_chain_lengths() {
        for n in [0usize, 1, 2, 6, 15] {
            let d = chained(n);
            let mut buf = Vec::new();
            encode_descriptor(&d, &mut buf);
            assert_eq!(buf.len(), descriptor_wire_bytes(&d), "len {n}");
            let (back, used) = decode_descriptor(&buf).unwrap();
            assert_eq!(used, buf.len());
            assert_eq!(back, d);
            back.verify().expect("decoded descriptor verifies");
        }
    }

    #[test]
    fn roundtrip_redeemed_descriptor() {
        let creator = kp(0);
        let b = kp(1);
        let d = SecureDescriptor::create(&creator, 1, Timestamp(0))
            .transfer(&creator, b.public())
            .unwrap()
            .redeem(&b, LinkKind::RedeemNonSwappable)
            .unwrap();
        let mut buf = Vec::new();
        encode_descriptor(&d, &mut buf);
        let (back, _) = decode_descriptor(&buf).unwrap();
        assert_eq!(back.redemption_kind(), Some(LinkKind::RedeemNonSwappable));
        assert_eq!(back, d);
    }

    #[test]
    fn truncated_input_rejected() {
        let d = chained(2);
        let mut buf = Vec::new();
        encode_descriptor(&d, &mut buf);
        for cut in [0, 10, 40, buf.len() - 1] {
            assert_eq!(
                decode_descriptor(&buf[..cut]).unwrap_err(),
                WireError::UnexpectedEnd,
                "cut {cut}"
            );
        }
    }

    #[test]
    fn corrupt_key_tag_rejected() {
        let d = chained(1);
        let mut buf = Vec::new();
        encode_descriptor(&d, &mut buf);
        buf[0] = 0xff; // creator key scheme tag
        assert_eq!(
            decode_descriptor(&buf).unwrap_err(),
            WireError::BadPublicKey
        );
    }

    #[test]
    fn corrupt_link_kind_rejected() {
        let d = chained(1);
        let mut buf = Vec::new();
        encode_descriptor(&d, &mut buf);
        // link kind sits after genesis (108) + count (2) + key (32).
        let kind_pos = 108 + 2 + 32;
        buf[kind_pos] = 9;
        assert_eq!(
            decode_descriptor(&buf).unwrap_err(),
            WireError::BadLinkKind(9)
        );
    }

    #[test]
    fn nonzero_signature_padding_is_a_bad_signature() {
        // The genesis signature sits at 44, the first link's after the
        // genesis (108), the count (2) and the link's key and kind (33).
        let d = chained(1);
        let mut buf = Vec::new();
        encode_descriptor(&d, &mut buf);
        for sig_at in [44, 108 + 2 + 33] {
            for i in SIGNATURE_STORED_LEN..SIGNATURE_LEN {
                let mut padded = buf.clone();
                padded[sig_at + i] = 0x80;
                assert_eq!(
                    decode_descriptor(&padded).unwrap_err(),
                    WireError::BadSignature,
                    "signature at {sig_at}, byte {i}"
                );
            }
            // The last stored byte decodes: what it signs is for
            // verification to say.
            let mut flipped = buf.clone();
            flipped[sig_at + SIGNATURE_STORED_LEN - 1] ^= 0x80;
            assert!(decode_descriptor(&flipped).is_ok());
        }
    }

    #[test]
    fn paper_model_matches_section_vi_a() {
        // "a descriptor's size is 368 + 512·t bits" — at t = 6 that is
        // 3440 bits = 430 bytes.
        let d = chained(6);
        assert_eq!(paper_descriptor_bits(&d), 3440);
        assert_eq!(paper_descriptor_bytes(&d), 430);
        assert_eq!(paper_descriptor_bits(&chained(0)), 368);
    }

    #[test]
    fn message_sizes_sum_components() {
        let d = chained(2);
        let msg = SecureMsg::Round(Box::new(crate::msg::RoundBody {
            transfer: d.clone(),
        }));
        assert_eq!(message_wire_bytes(&msg), descriptor_wire_bytes(&d));
        assert_eq!(message_paper_bytes(&msg), paper_descriptor_bytes(&d));
        let empty = SecureMsg::RoundReply(Box::new(crate::msg::RoundReplyBody { transfer: None }));
        assert_eq!(message_wire_bytes(&empty), 0);
    }
}

// ----------------------------------------------------------------------
// Full message codec
// ----------------------------------------------------------------------

const MSG_REQUEST: u8 = 1;
const MSG_ACCEPT: u8 = 2;
const MSG_ROUND: u8 = 3;
const MSG_ROUND_REPLY: u8 = 4;
const MSG_PROOF: u8 = 5;
const MSG_JOIN_PING: u8 = 6;
const MSG_JOIN_GRANT: u8 = 7;

/// Serializes a full SecureCyclon message.
pub fn encode_message(msg: &SecureMsg, out: &mut Vec<u8>) {
    let mut w = Writer::new(out);
    match msg {
        SecureMsg::Request(b) => {
            w.u8(MSG_REQUEST);
            w.descriptor(&b.redeemed);
            w.descriptor(&b.fresh);
            w.list(2, &b.offered, Writer::descriptor);
            w.list(2, &b.samples, Writer::descriptor);
            w.list(2, &b.proofs, Writer::proof);
        }
        SecureMsg::Accept(b) => {
            w.u8(MSG_ACCEPT);
            w.list(2, &b.transfers, Writer::descriptor);
            w.list(2, &b.samples, Writer::descriptor);
            w.list(2, &b.proofs, Writer::proof);
        }
        SecureMsg::Round(b) => {
            w.u8(MSG_ROUND);
            w.descriptor(&b.transfer);
        }
        SecureMsg::RoundReply(b) => {
            w.u8(MSG_ROUND_REPLY);
            match &b.transfer {
                Some(d) => {
                    w.u8(1);
                    w.descriptor(d);
                }
                None => w.u8(0),
            }
        }
        SecureMsg::Proof(p) => {
            w.u8(MSG_PROOF);
            w.proof(p);
        }
        SecureMsg::JoinPing(b) => {
            w.u8(MSG_JOIN_PING);
            w.bytes(b.joiner.as_bytes());
        }
        SecureMsg::JoinGrant(b) => {
            w.u8(MSG_JOIN_GRANT);
            w.descriptor(&b.descriptor);
            w.list(2, &b.proofs, Writer::proof);
        }
    }
}

/// Deserializes a full message, consuming the entire buffer.
///
/// Proof payloads are re-validated against `period_ticks` during decoding
/// (see [`Reader::proof`]); descriptors are structurally checked but their
/// signatures are verified by the protocol layer, not the codec.
///
/// # Errors
///
/// Any [`WireError`]; trailing bytes are an error.
pub fn decode_message(buf: &[u8], period_ticks: u64) -> Result<SecureMsg, WireError> {
    decode_message_with(buf, period_ticks, &WireLimits::DEFAULT)
}

/// [`decode_message`] with caller-supplied [`WireLimits`].
///
/// The frame-size cap is checked before anything else — an oversized
/// input is rejected without reading a single structure — and every
/// length prefix inside is validated against both its cap and the
/// remaining bytes before allocation.
///
/// # Errors
///
/// Any [`WireError`]; trailing bytes are an error.
pub fn decode_message_with(
    buf: &[u8],
    period_ticks: u64,
    limits: &WireLimits,
) -> Result<SecureMsg, WireError> {
    if buf.len() > limits.max_frame_bytes {
        return Err(WireError::FrameTooLarge {
            len: buf.len(),
            max: limits.max_frame_bytes,
        });
    }
    let mut r = Reader::with_limits(buf, limits);
    let msg = match r.u8()? {
        MSG_REQUEST => SecureMsg::Request(Box::new(RequestBody {
            redeemed: r.descriptor()?,
            fresh: r.descriptor()?,
            offered: r.descriptors()?,
            samples: r.descriptors()?,
            proofs: r.proofs(period_ticks)?,
        })),
        MSG_ACCEPT => SecureMsg::Accept(Box::new(AcceptBody {
            transfers: r.descriptors()?,
            samples: r.descriptors()?,
            proofs: r.proofs(period_ticks)?,
        })),
        MSG_ROUND => SecureMsg::Round(Box::new(RoundBody {
            transfer: r.descriptor()?,
        })),
        MSG_ROUND_REPLY => {
            let transfer = match r.u8()? {
                1 => Some(r.descriptor()?),
                0 => None,
                t => return Err(WireError::BadMessageTag(t)),
            };
            SecureMsg::RoundReply(Box::new(RoundReplyBody { transfer }))
        }
        MSG_PROOF => SecureMsg::Proof(r.proof(period_ticks)?),
        MSG_JOIN_PING => SecureMsg::JoinPing(Box::new(JoinPingBody { joiner: r.key()? })),
        MSG_JOIN_GRANT => SecureMsg::JoinGrant(Box::new(JoinGrantBody {
            descriptor: r.descriptor()?,
            proofs: r.proofs(period_ticks)?,
        })),
        t => return Err(WireError::BadMessageTag(t)),
    };
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes);
    }
    Ok(msg)
}

#[cfg(test)]
mod message_tests {
    use super::*;
    use sc_crypto::{Keypair, Scheme};

    const PERIOD: u64 = 1000;

    fn kp(tag: u8) -> Keypair {
        Keypair::from_seed(Scheme::Schnorr61, [tag; 32])
    }

    fn sample_request() -> SecureMsg {
        let (a, b, c) = (kp(1), kp(2), kp(3));
        let token = SecureDescriptor::create(&a, 1, Timestamp(0))
            .transfer(&a, b.public())
            .unwrap();
        let redeemed = token.redeem(&b, LinkKind::Redeem).unwrap();
        let fresh = SecureDescriptor::create(&b, 2, Timestamp(50_000))
            .transfer(&b, a.public())
            .unwrap();
        let sample = SecureDescriptor::create(&c, 3, Timestamp(2_000));
        let d1 = SecureDescriptor::create(&c, 3, Timestamp(9_000));
        let d2 = SecureDescriptor::create(&c, 3, Timestamp(9_500));
        let proof = ViolationProof::frequency(d1, d2, PERIOD).unwrap();
        SecureMsg::Request(Box::new(RequestBody {
            redeemed,
            fresh,
            offered: vec![],
            samples: vec![sample],
            proofs: vec![proof],
        }))
    }

    fn roundtrip(msg: &SecureMsg) -> SecureMsg {
        let mut buf = Vec::new();
        encode_message(msg, &mut buf);
        decode_message(&buf, PERIOD).expect("roundtrip")
    }

    fn assert_equivalent(a: &SecureMsg, b: &SecureMsg) {
        // Compare via re-encoding (SecureMsg has no PartialEq).
        let mut ba = Vec::new();
        let mut bb = Vec::new();
        encode_message(a, &mut ba);
        encode_message(b, &mut bb);
        assert_eq!(ba, bb);
    }

    #[test]
    fn request_roundtrip_with_proofs() {
        let msg = sample_request();
        assert_equivalent(&msg, &roundtrip(&msg));
    }

    #[test]
    fn accept_and_rounds_roundtrip() {
        let a = kp(1);
        let d = SecureDescriptor::create(&a, 1, Timestamp(7));
        let accept = SecureMsg::Accept(Box::new(AcceptBody {
            transfers: vec![d.clone()],
            samples: vec![d.clone()],
            proofs: vec![],
        }));
        assert_equivalent(&accept, &roundtrip(&accept));
        let round = SecureMsg::Round(Box::new(RoundBody {
            transfer: d.clone(),
        }));
        assert_equivalent(&round, &roundtrip(&round));
        let reply_some = SecureMsg::RoundReply(Box::new(RoundReplyBody { transfer: Some(d) }));
        assert_equivalent(&reply_some, &roundtrip(&reply_some));
        let reply_none = SecureMsg::RoundReply(Box::new(RoundReplyBody { transfer: None }));
        assert_equivalent(&reply_none, &roundtrip(&reply_none));
    }

    #[test]
    fn forged_proofs_fail_decoding() {
        let (a, b) = (kp(1), kp(2));
        // Two legally spaced creations are no frequency violation; a
        // "proof" claiming so must fail to decode.
        let d1 = SecureDescriptor::create(&a, 1, Timestamp(0));
        let d2 = SecureDescriptor::create(&a, 1, Timestamp(5_000));
        let mut buf = vec![MSG_PROOF, 1];
        encode_descriptor(&d1, &mut buf);
        encode_descriptor(&d2, &mut buf);
        assert_eq!(
            decode_message(&buf, PERIOD).unwrap_err(),
            WireError::BadProof
        );
        // Unknown proof kind tag.
        let mut buf = vec![MSG_PROOF, 9];
        encode_descriptor(&d1, &mut buf);
        encode_descriptor(&d2, &mut buf);
        assert_eq!(
            decode_message(&buf, PERIOD).unwrap_err(),
            WireError::BadProofKind(9)
        );
        let _ = b;
    }

    #[test]
    fn trailing_bytes_rejected() {
        let msg = sample_request();
        let mut buf = Vec::new();
        encode_message(&msg, &mut buf);
        buf.push(0);
        assert_eq!(
            decode_message(&buf, PERIOD).unwrap_err(),
            WireError::TrailingBytes
        );
    }

    #[test]
    fn unknown_message_tag_rejected() {
        assert_eq!(
            decode_message(&[42], PERIOD).unwrap_err(),
            WireError::BadMessageTag(42)
        );
        assert_eq!(
            decode_message(&[], PERIOD).unwrap_err(),
            WireError::UnexpectedEnd
        );
    }

    #[test]
    fn oversized_frames_rejected_before_parsing() {
        let limits = WireLimits {
            max_frame_bytes: 64,
            ..WireLimits::DEFAULT
        };
        let msg = sample_request();
        let mut buf = Vec::new();
        encode_message(&msg, &mut buf);
        assert!(buf.len() > 64);
        assert_eq!(
            decode_message_with(&buf, PERIOD, &limits).unwrap_err(),
            WireError::FrameTooLarge {
                len: buf.len(),
                max: 64
            }
        );
    }

    #[test]
    fn hostile_length_prefixes_cannot_force_allocation() {
        // A descriptor claiming 65535 chain links backed by zero bytes:
        // the remaining-bytes check fires before any allocation.
        let d = SecureDescriptor::create(&kp(1), 1, Timestamp(0));
        let mut buf = Vec::new();
        encode_descriptor(&d, &mut buf);
        let count_pos = buf.len() - 2;
        buf[count_pos..].copy_from_slice(&u16::MAX.to_be_bytes());
        assert_eq!(
            decode_descriptor(&buf).unwrap_err(),
            WireError::ChainTooLong(u16::MAX)
        );
        // A count under the cap but with no backing bytes trips the
        // remaining-bytes check instead — still before allocation.
        buf[count_pos..].copy_from_slice(&100u16.to_be_bytes());
        assert_eq!(
            decode_descriptor(&buf).unwrap_err(),
            WireError::UnexpectedEnd
        );
    }

    #[test]
    fn list_and_proof_caps_enforced() {
        let a = kp(1);
        let d = SecureDescriptor::create(&a, 1, Timestamp(7));
        let limits = WireLimits {
            max_list_len: 1,
            max_proofs: 0,
            ..WireLimits::DEFAULT
        };
        let msg = SecureMsg::Accept(Box::new(AcceptBody {
            transfers: vec![d.clone(), d.clone()],
            samples: vec![],
            proofs: vec![],
        }));
        let mut buf = Vec::new();
        encode_message(&msg, &mut buf);
        assert_eq!(
            decode_message_with(&buf, PERIOD, &limits).unwrap_err(),
            WireError::ListTooLong(2)
        );
        // A hostile proof count with no backing bytes, kept under the
        // cap, is caught by the remaining-bytes check under default
        // limits too.
        let msg = SecureMsg::Accept(Box::new(AcceptBody {
            transfers: vec![],
            samples: vec![],
            proofs: vec![],
        }));
        let mut buf = Vec::new();
        encode_message(&msg, &mut buf);
        let n = buf.len();
        buf[n - 2..].copy_from_slice(&500u16.to_be_bytes());
        assert_eq!(
            decode_message(&buf, PERIOD).unwrap_err(),
            WireError::UnexpectedEnd
        );
        buf[n - 2..].copy_from_slice(&u16::MAX.to_be_bytes());
        assert_eq!(
            decode_message(&buf, PERIOD).unwrap_err(),
            WireError::TooManyProofs(u16::MAX)
        );
    }

    #[test]
    fn sub_reader_is_bounded_and_carries_the_limits() {
        let limits = WireLimits {
            max_list_len: 1,
            ..WireLimits::DEFAULT
        };
        let buf = [1u8, 2, 3, 4, 5];
        let mut outer = Reader::with_limits(&buf, &limits);
        assert_eq!(outer.sub(6).unwrap_err(), WireError::UnexpectedEnd);
        assert_eq!(outer.remaining(), 5, "a failed read consumes nothing");
        let mut inner = outer.sub(3).unwrap();
        assert_eq!((inner.rest(), outer.rest()), (&buf[..3], &buf[3..]));
        assert_eq!(inner.u16().unwrap(), 0x0102);
        assert_eq!(inner.u16().unwrap_err(), WireError::UnexpectedEnd);
        assert_eq!(
            inner.list_count(2, 0).unwrap_err(),
            WireError::ListTooLong(2),
            "the outer cursor's cap, not the default"
        );
    }

    #[test]
    fn round_reply_option_tag_validated() {
        let bad = [MSG_ROUND_REPLY, 7];
        assert_eq!(
            decode_message(&bad, PERIOD).unwrap_err(),
            WireError::BadMessageTag(7)
        );
    }

    #[test]
    fn wire_size_accounting_matches_encoding() {
        let msg = sample_request();
        let mut buf = Vec::new();
        encode_message(&msg, &mut buf);
        // Payload accounting counts descriptor bytes only; framing is a
        // few tag/length bytes on top.
        let payload = message_wire_bytes(&msg);
        assert!(buf.len() > payload);
        assert!(buf.len() < payload + 32, "framing overhead is small");
    }
}
