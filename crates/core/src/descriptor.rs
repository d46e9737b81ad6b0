//! Secure node descriptors with chains of ownership.
//!
//! This module implements §IV-A of the paper: descriptors are redefined
//! from plain contact records into "unique, unforgeable, and unclonable
//! tokens". A descriptor starts with a signed *genesis* record (creator's
//! public key, network address, creation timestamp). Every time ownership
//! moves, the current owner appends a [`ChainLink`] naming the new owner
//! and signs the entire structure; the result is the descriptor's **chain
//! of ownership** (Figure 4 of the paper).
//!
//! Redemption — spending the descriptor to gossip with its creator — is
//! modelled as a final link back to the creator ([`LinkKind::Redeem`] or
//! [`LinkKind::RedeemNonSwappable`]). This makes *every* double-use of a
//! descriptor (two transfers, a transfer plus a redemption, or two
//! redemptions) produce two links signed by the same owner over the same
//! chain prefix — the conflicting evidence that cloning proofs (§IV-B) are
//! built from.
//!
//! Signatures cover a running digest of everything before them, so a link
//! signature commits to the full history up to that point while signing
//! and verifying stay O(chain length). One walker verifies every chain:
//! `verify_batch` — what the protocol node and proof validation call —
//! pools every signature check of several descriptors into one batched
//! pass and consults no cache; [`SecureDescriptor::verify`] is that walk
//! on one chain; `verify_with` / `verify_batch_with` are the same walk
//! skipping what a [`VerifyMemo`] of verified tips covers.
//!
//! **Storage.** The chain is persistent: a descriptor is one pointer to
//! the block of its *last* link, and every block points at the block of
//! the link before it, down to the root block that holds the genesis. A
//! transfer therefore allocates one block, whatever the chain's length,
//! and the extended descriptor shares every earlier link with its source
//! and with every copy of every earlier version still sitting in a view
//! or a cache (§IV-B makes nodes cache every descriptor they see): `L`
//! transfers cost `L + 1` blocks in all, not `L` growing copies. What a
//! chain's *end* says — owner, redemption, state digest, length, the
//! signer of the last link — is read in O(1); everything that needs the
//! links in order walks them tip to root in a loop, never by recursion
//! (a peer may send [`WireLimits::max_chain_links`] of them).
//!
//! [`WireLimits::max_chain_links`]: crate::wire::WireLimits::max_chain_links

use crate::memo::VerifyMemo;
use crate::time::Timestamp;
use crate::Addr;
use sc_crypto::{sha256_concat, Digest, Keypair, NodeId, PublicKey, Signature, SIGNATURE_PADDING};
use std::sync::Arc;

/// The globally unique identity of a descriptor: who created it and when.
///
/// Two valid descriptors sharing a [`DescriptorId`] are either copies of
/// the same token (compatible chains) or evidence of a violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DescriptorId {
    /// The creator's public key.
    pub creator: NodeId,
    /// Creation timestamp.
    pub created_at: Timestamp,
}

/// The signed creation record at the root of every descriptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Genesis {
    /// Creator's public key (also the node's ID).
    pub creator: NodeId,
    /// Creator's network address at creation time.
    pub addr: Addr,
    /// Creation timestamp.
    pub created_at: Timestamp,
    /// Creator's signature over the genesis fields.
    pub sig: Signature,
}

/// How a chain link moves ownership.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// Ordinary ownership transfer during a gossip exchange.
    Transfer,
    /// Redemption: the owner spends the descriptor to gossip with its
    /// creator. Terminal.
    Redeem,
    /// Redemption of a retained non-swappable copy (§V-A). Terminal, and
    /// the single kind allowed to conflict with one onward transfer.
    RedeemNonSwappable,
}

impl LinkKind {
    /// Whether this kind ends the descriptor's life.
    pub fn is_redemption(self) -> bool {
        matches!(self, LinkKind::Redeem | LinkKind::RedeemNonSwappable)
    }

    fn tag(self) -> u8 {
        match self {
            LinkKind::Transfer => 0,
            LinkKind::Redeem => 1,
            LinkKind::RedeemNonSwappable => 2,
        }
    }
}

/// One entry of a descriptor's chain of ownership.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainLink {
    /// The receiving owner.
    pub to: NodeId,
    /// Transfer or redemption.
    pub kind: LinkKind,
    /// Signature by the *previous* owner over the running digest plus
    /// `(to, kind)`.
    pub sig: Signature,
}

/// Errors from descriptor operations and verification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DescriptorError {
    /// The genesis signature does not verify.
    BadGenesisSignature,
    /// A chain link's signature does not verify against its signer.
    BadLinkSignature {
        /// Index of the offending link.
        index: usize,
    },
    /// A redemption link appears before the end of the chain.
    RedemptionNotTerminal,
    /// A redemption link does not point back at the creator.
    RedemptionNotToCreator,
    /// A transfer hands the descriptor to its current owner.
    TransferToSelf,
    /// The keypair attempting an operation does not own the descriptor.
    NotOwner,
    /// The descriptor is already redeemed and cannot move further.
    AlreadyRedeemed,
}

impl core::fmt::Display for DescriptorError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DescriptorError::BadGenesisSignature => write!(f, "invalid genesis signature"),
            DescriptorError::BadLinkSignature { index } => {
                write!(f, "invalid signature on chain link {index}")
            }
            DescriptorError::RedemptionNotTerminal => {
                write!(f, "redemption link is not the last link")
            }
            DescriptorError::RedemptionNotToCreator => {
                write!(f, "redemption link does not point at the creator")
            }
            DescriptorError::TransferToSelf => write!(f, "transfer to current owner"),
            DescriptorError::NotOwner => write!(f, "operation requires descriptor ownership"),
            DescriptorError::AlreadyRedeemed => write!(f, "descriptor already redeemed"),
        }
    }
}

impl std::error::Error for DescriptorError {}

/// A SecureCyclon node descriptor: a signed genesis record plus the chain
/// of ownership accumulated over its life.
///
/// The value is **one pointer** to an immutable, reference-counted block:
/// the last link of the chain, which leads to the links before it.
/// Descriptors are copied far more often than they are made — every view
/// entry and redemption-cache entry goes into every outgoing sample set,
/// and every sample lands in the receiver's cache — so a copy is one
/// refcount increment and occupies one word in every view slot, message
/// vector, checkpoint and cache slot. Appending a link allocates the one
/// block of that link, whose parent is the source's block: the source,
/// usually still referenced by caches, and its extension share the whole
/// earlier chain.
#[derive(Clone)]
pub struct SecureDescriptor(Arc<Block>);

/// One version of a descriptor: the chain up to and including one link
/// (or, for the root, the bare genesis). Immutable once built, and shared
/// by every copy of this version and every version extending it.
///
/// The largest thing a node holds in number, so its size is pinned:
/// 120 bytes ([`SecureDescriptor::BLOCK_BYTES`]), 136 with the two
/// reference counts, in glibc's 144-byte chunk. A signature in it is its
/// 33 stored bytes, not its 64-byte wire form.
struct Block {
    /// Running digest over the genesis and every link up to this block's:
    /// the state digest of the version ending here. A pure function of
    /// the chain, computed once when the block is built from the parent's
    /// digest and the one new link (creation, append, wire decode), so
    /// signing, transferring and comparing never re-hash a chain.
    state: Digest,
    body: Body,
}

enum Body {
    /// The root of every version of one descriptor.
    Root(Genesis),
    /// A link, its 1-based position, the version it extends (`None` only
    /// while the block is being dropped), and the root — a hop away from
    /// any block, because a descriptor's identity is read at every
    /// sighting.
    Link {
        link: ChainLink,
        len: u32,
        parent: Option<Arc<Block>>,
        root: Arc<Block>,
    },
}

impl Block {
    fn genesis(&self) -> &Genesis {
        let root = match &self.body {
            Body::Root(genesis) => return genesis,
            Body::Link { root, .. } => root,
        };
        match &root.body {
            Body::Root(genesis) => genesis,
            Body::Link { .. } => unreachable!("a block's root holds the genesis"),
        }
    }

    /// Links in the chain ending here; 0 for the root.
    fn len(&self) -> usize {
        match self.body {
            Body::Root(_) => 0,
            Body::Link { len, .. } => len as usize,
        }
    }

    /// The last link and the version it extends; `None` for the root.
    fn last(&self) -> Option<(&ChainLink, &Block)> {
        match &self.body {
            Body::Link {
                link,
                parent: Some(parent),
                ..
            } => Some((link, parent)),
            _ => None,
        }
    }

    /// The owner after the last link; the creator for the root.
    fn owner(&self) -> NodeId {
        match &self.body {
            Body::Root(genesis) => genesis.creator,
            Body::Link { link, .. } => link.to,
        }
    }

    /// The version `len` links long that this one extends (or is).
    fn ancestor(&self, len: usize) -> &Block {
        let hops = self
            .len()
            .checked_sub(len)
            .expect("a prefix is no longer than its chain");
        let mut block = self;
        for _ in 0..hops {
            (_, block) = block.last().expect("a block with links has a parent");
        }
        block
    }

    /// The links, **last first**, each with the version it extends.
    fn links_rev(&self) -> impl Iterator<Item = (&ChainLink, &Block)> {
        std::iter::successors(self.last(), |(_, parent)| parent.last())
    }
}

/// Unlinks the ancestors this block alone keeps alive one at a time. Left
/// to the compiler, dropping a block drops its parent from inside its own
/// drop, and so on down the chain: one stack frame per link, on a chain
/// whose length a peer chooses.
impl Drop for Block {
    fn drop(&mut self) {
        let parent_of = |block: &mut Block| match &mut block.body {
            Body::Root(_) => None,
            Body::Link { parent, .. } => parent.take(),
        };
        let mut next = parent_of(self);
        while let Some(mut unshared) = next.and_then(Arc::into_inner) {
            next = parent_of(&mut unshared);
        }
    }
}

impl PartialEq for SecureDescriptor {
    fn eq(&self, other: &Self) -> bool {
        // Digests are derived, so differing ones settle it and equal ones
        // do not: equality is over the authoritative fields, link by link
        // down to a shared block (copies of one descriptor share their
        // tip) or to the genesis records.
        if self.0.state != other.0.state {
            return false;
        }
        let (mut a, mut b) = (&*self.0, &*other.0);
        while !core::ptr::eq(a, b) {
            match (a.last(), b.last()) {
                (Some((la, pa)), Some((lb, pb))) if la == lb => (a, b) = (pa, pb),
                (None, None) => return a.genesis() == b.genesis(),
                _ => return false,
            }
        }
        true
    }
}

/// Compact by hand: the derived form would print every signature byte of
/// every link, and would tie anything that renders a descriptor to the
/// storage layout.
impl core::fmt::Debug for SecureDescriptor {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "SecureDescriptor({}@{} links={} owner={} state={})",
            self.creator(),
            self.created_at().ticks(),
            self.transfer_count(),
            self.owner(),
            sc_crypto::hex::to_hex(&self.state_digest()[..8]),
        )
    }
}

impl Eq for SecureDescriptor {}

fn genesis_message(creator: &NodeId, addr: Addr, created_at: Timestamp) -> Digest {
    sha256_concat(&[
        b"sc/genesis-msg",
        creator.as_bytes(),
        &addr.to_be_bytes(),
        &created_at.ticks().to_be_bytes(),
    ])
}

/// The state digest of the root version. It and [`next_state`] hash a
/// signature's 64-byte wire form: the stored bytes and the zeros that pad
/// them, fed as two slices, with no copy made.
fn genesis_state(genesis: &Genesis) -> Digest {
    sha256_concat(&[
        b"sc/state0",
        &genesis_message(&genesis.creator, genesis.addr, genesis.created_at),
        genesis.sig.stored_bytes(),
        SIGNATURE_PADDING,
    ])
}

fn link_message(state: &Digest, to: &NodeId, kind: LinkKind) -> Digest {
    sha256_concat(&[b"sc/link-msg", state, to.as_bytes(), &[kind.tag()]])
}

fn next_state(state: &Digest, link: &ChainLink) -> Digest {
    sha256_concat(&[
        b"sc/state",
        state,
        link.to.as_bytes(),
        &[link.kind.tag()],
        link.sig.stored_bytes(),
        SIGNATURE_PADDING,
    ])
}

/// The structural rules on one link, hash-free: `index` is its position
/// in a chain `len` links long, `signer` the owner before it.
fn link_rule_broken(
    link: &ChainLink,
    index: usize,
    len: usize,
    signer: &NodeId,
    creator: &NodeId,
) -> Option<DescriptorError> {
    if link.kind.is_redemption() {
        if index != len - 1 {
            Some(DescriptorError::RedemptionNotTerminal)
        } else if link.to != *creator {
            Some(DescriptorError::RedemptionNotToCreator)
        } else {
            None
        }
    } else if link.to == *signer {
        Some(DescriptorError::TransferToSelf)
    } else {
        None
    }
}

impl SecureDescriptor {
    /// Creates and self-signs a fresh descriptor.
    ///
    /// Per the protocol, "the descriptor of a node may be generated
    /// exclusively by the node itself" — `creator` signs the genesis.
    pub fn create(creator: &Keypair, addr: Addr, created_at: Timestamp) -> Self {
        let msg = genesis_message(&creator.public(), addr, created_at);
        let sig = creator.sign(&msg);
        Self::from_genesis(Genesis {
            creator: creator.public(),
            addr,
            created_at,
            sig,
        })
    }

    /// The root version: `genesis` and no link, **without validation**.
    pub(crate) fn from_genesis(genesis: Genesis) -> Self {
        SecureDescriptor(Arc::new(Block {
            state: genesis_state(&genesis),
            body: Body::Root(genesis),
        }))
    }

    /// This version extended by `link`, **without validation**: the one
    /// place a link block is built — one allocation and one hash, on top
    /// of the block `self` already is.
    pub(crate) fn with_link(self, link: ChainLink) -> Self {
        let (len, root) = match &self.0.body {
            Body::Root(_) => (1, self.0.clone()),
            Body::Link { len, root, .. } => {
                let longer = len.checked_add(1).expect("2³² links outgrow any memory");
                (longer, root.clone())
            }
        };
        SecureDescriptor(Arc::new(Block {
            state: next_state(&self.0.state, &link),
            body: Body::Link {
                link,
                len,
                parent: Some(self.0),
                root,
            },
        }))
    }

    /// Reassembles a descriptor from decoded parts **without validation**.
    ///
    /// The result must be checked with [`SecureDescriptor::verify`]
    /// before any protocol use. It shares no block with any other
    /// descriptor, however equal.
    pub fn from_parts(genesis: Genesis, chain: Vec<ChainLink>) -> Self {
        chain
            .into_iter()
            .fold(Self::from_genesis(genesis), Self::with_link)
    }

    /// Whether `self` and `other` are copies sharing one block (and hence
    /// byte-identical). `false` says nothing: equal descriptors decoded
    /// separately live in separate blocks.
    pub(crate) fn same_block(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Bytes of one chain block, without the two reference counts in
    /// front of it. Not protocol surface: sizing tools multiply it by a
    /// count of [`SecureDescriptor::block_addrs`].
    #[doc(hidden)]
    pub const BLOCK_BYTES: usize = core::mem::size_of::<Block>();

    /// The addresses of the blocks this version is made of, the last
    /// link's first and the root's last. Not protocol surface: storage
    /// oracles count distinct addresses to tell shared blocks from copies.
    #[doc(hidden)]
    pub fn block_addrs(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(Some(&*self.0), |b| b.last().map(|(_, parent)| parent))
            .map(|b| b as *const Block as usize)
    }

    /// The descriptor's unique identity.
    pub fn id(&self) -> DescriptorId {
        let genesis = self.genesis();
        DescriptorId {
            creator: genesis.creator,
            created_at: genesis.created_at,
        }
    }

    /// The signed genesis record.
    pub fn genesis(&self) -> &Genesis {
        self.0.genesis()
    }

    /// The node this descriptor points at (its creator).
    pub fn creator(&self) -> NodeId {
        self.genesis().creator
    }

    /// The creator's network address.
    pub fn addr(&self) -> Addr {
        self.genesis().addr
    }

    /// Creation timestamp.
    pub fn created_at(&self) -> Timestamp {
        self.genesis().created_at
    }

    /// The chain of ownership, first link first, **copied out** of the
    /// blocks that hold it: for display, tests and tools. The protocol
    /// reads a chain's end through the O(1) accessors and never calls this.
    pub fn chain(&self) -> Vec<ChainLink> {
        let mut links: Vec<ChainLink> = self.links_rev().copied().collect();
        links.reverse();
        links
    }

    /// The links, **last first**.
    pub(crate) fn links_rev(&self) -> impl Iterator<Item = &ChainLink> {
        self.0.links_rev().map(|(link, _)| link)
    }

    /// Link `index` of the chain, if it is that long. The last link is
    /// one hop away, link 0 a walk over the whole chain.
    pub(crate) fn link(&self, index: usize) -> Option<&ChainLink> {
        if index >= self.0.len() {
            return None;
        }
        self.0.ancestor(index + 1).last().map(|(link, _)| link)
    }

    /// Number of ownership transfers the descriptor has undergone
    /// (the `t` of the paper's size model, §VI-A; includes redemption).
    pub fn transfer_count(&self) -> usize {
        self.0.len()
    }

    /// The current owner: the target of the last link, or the creator for
    /// a freshly created descriptor. For a redeemed descriptor this is the
    /// creator (redemption hands the token back).
    pub fn owner(&self) -> NodeId {
        self.0.owner()
    }

    /// The owner who signed the last link, if there is one: who handed
    /// the descriptor to its current owner.
    pub(crate) fn last_signer(&self) -> Option<NodeId> {
        self.0.last().map(|(_, parent)| parent.owner())
    }

    /// The owner who performed the redemption (the signer of the terminal
    /// link), if the descriptor is redeemed.
    pub fn redeemer(&self) -> Option<NodeId> {
        self.redemption_kind()?;
        self.last_signer()
    }

    /// Whether the descriptor has been redeemed (spent).
    pub fn is_redeemed(&self) -> bool {
        self.redemption_kind().is_some()
    }

    /// The kind of the terminal redemption link, if any.
    pub fn redemption_kind(&self) -> Option<LinkKind> {
        let (link, _) = self.0.last()?;
        link.kind.is_redemption().then_some(link.kind)
    }

    /// The owner *before* link `index` executes — i.e. the signer of
    /// `chain[index]`. Costs a walk back from the tip to that link.
    pub fn owner_at(&self, index: usize) -> NodeId {
        self.0.ancestor(index).owner()
    }

    /// Iterates over all owners in order: creator, then each link target.
    pub fn owners(&self) -> impl Iterator<Item = NodeId> + '_ {
        let targets = self.chain().into_iter().map(|l| l.to);
        std::iter::once(self.creator()).chain(targets)
    }

    /// Age in whole cycles at time `now`.
    pub fn age_cycles(&self, now: Timestamp, ticks_per_cycle: u64) -> u64 {
        self.created_at().age_cycles(now, ticks_per_cycle)
    }

    /// Running digest over genesis and the full chain (identifies the exact
    /// byte content of this copy, unlike [`SecureDescriptor::id`]).
    pub fn state_digest(&self) -> Digest {
        self.0.state
    }

    /// The version `len` links long that this one extends (or is): a
    /// copy of a block that already exists, so a cut allocates nothing and
    /// hashes nothing. The root (`len == 0`) is one hop away, any other
    /// version a walk back from the tip.
    ///
    /// # Panics
    ///
    /// If `len` exceeds [`transfer_count`](Self::transfer_count).
    pub(crate) fn prefix(&self, len: usize) -> Self {
        let block = match &self.0.body {
            _ if len == self.0.len() => &self.0,
            Body::Link { root, .. } if len == 0 => root,
            _ => match &self.0.ancestor(len + 1).body {
                Body::Link {
                    parent: Some(parent),
                    ..
                } => parent,
                _ => unreachable!("a block with links has a parent"),
            },
        };
        SecureDescriptor(block.clone())
    }

    /// Running digest after the first `len` links (`len == 0` is the
    /// genesis digest). The digest commits to every field of every link
    /// up to `len`, so two copies with equal prefix digests have
    /// byte-identical prefixes.
    #[cfg(test)]
    pub(crate) fn prefix_state(&self, len: usize) -> &Digest {
        &self.0.ancestor(len).state
    }

    /// Where the chains of two copies **of one genesis** part ways: the
    /// index of the first link they disagree on, its signer, and that
    /// link on either side. `None` if one chain is a prefix of the other
    /// (or they are the same).
    ///
    /// The longer side is stepped back to the shorter's length first. A
    /// shared block there — the usual case: one is an extension of the
    /// other, built on its very block — or equal digests mean the whole
    /// common prefix is byte-identical, without reading a link. Failing
    /// that the two walk back in step to the first pair of blocks whose
    /// parents agree, which hold the first differing link.
    pub(crate) fn divergence<'a>(
        &'a self,
        other: &'a Self,
    ) -> Option<(usize, NodeId, &'a ChainLink, &'a ChainLink)> {
        let same = |a: &Block, b: &Block| core::ptr::eq(a, b) || a.state == b.state;
        let common = self.0.len().min(other.0.len());
        let (mut a, mut b) = (self.0.ancestor(common), other.0.ancestor(common));
        if same(a, b) {
            return None;
        }
        while let (Some((la, pa)), Some((lb, pb))) = (a.last(), b.last()) {
            if same(pa, pb) {
                return Some((pa.len(), pa.owner(), la, lb));
            }
            (a, b) = (pa, pb);
        }
        // Two roots that differ: not copies of one genesis.
        None
    }

    /// Appends a signed ownership transfer to `to`, returning the extended
    /// descriptor. The caller should discard `self` afterwards — keeping
    /// and reusing it is exactly the cloning violation the protocol
    /// detects (honest exceptions: non-swappable copies, §V-A).
    ///
    /// # Errors
    ///
    /// Fails if `owner` does not currently own the descriptor, if the
    /// descriptor is already redeemed, or if `to` is the current owner.
    pub fn transfer(&self, owner: &Keypair, to: NodeId) -> Result<Self, DescriptorError> {
        self.append(owner, to, LinkKind::Transfer)
    }

    /// Appends a signed redemption link back to the creator.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SecureDescriptor::transfer`]; additionally a
    /// redemption must not target a descriptor the redeemer created (a node
    /// never gossips with itself).
    pub fn redeem(&self, owner: &Keypair, kind: LinkKind) -> Result<Self, DescriptorError> {
        debug_assert!(kind.is_redemption(), "redeem called with {kind:?}");
        self.append(owner, self.creator(), kind)
    }

    fn append(&self, owner: &Keypair, to: NodeId, kind: LinkKind) -> Result<Self, DescriptorError> {
        if self.is_redeemed() {
            return Err(DescriptorError::AlreadyRedeemed);
        }
        if owner.public() != self.owner() {
            return Err(DescriptorError::NotOwner);
        }
        if to == self.owner() && !kind.is_redemption() {
            return Err(DescriptorError::TransferToSelf);
        }
        let msg = link_message(&self.0.state, &to, kind);
        let sig = owner.sign(&msg);
        Ok(self.clone().with_link(ChainLink { to, kind, sig }))
    }

    /// Fully verifies the descriptor: genesis signature, every link
    /// signature against the correct signer, and structural rules
    /// (redemptions are terminal and point at the creator; no transfer to
    /// the current owner). The batch walker on one chain: each link's
    /// signed message is built from the running digest its parent block
    /// holds, computed from the signed fields when that block was built.
    ///
    /// # Errors
    ///
    /// Returns the first failure encountered, in chain order.
    pub fn verify(&self) -> Result<(), DescriptorError> {
        Self::verify_batch(&[self], &mut WalkScratch::default())[0]
    }

    /// Verification against a memo of chains this node already verified.
    /// The memo holds the **tip** digest of every chain that passed, so
    /// re-verifying a known copy is one lookup, and a copy that has moved
    /// on since — the tip verified then is one of its prefix digests now —
    /// pays only for the links appended after it. Prefix digests come from
    /// the descriptor's own blocks (built at creation, append or wire
    /// decode), so there is **no** O(chain) hash walk: extending a
    /// memoized chain by one link costs two lookups and one signature
    /// check. A fork below a memoized tip, or a shorter copy of one, finds
    /// nothing and is verified in full.
    ///
    /// Returns **exactly** what [`SecureDescriptor::verify`] returns:
    /// memo entries are digests of byte-exact chains that passed full
    /// verification, so skipping their signatures cannot change the
    /// verdict, and the structural rules (hash-free) are re-checked over
    /// the whole chain, so a memoized redeemed chain cannot hide an
    /// illegal extension. On success the tip digest is memoized.
    ///
    /// # Errors
    ///
    /// Identical to [`SecureDescriptor::verify`].
    pub fn verify_with(&self, memo: &mut VerifyMemo) -> Result<(), DescriptorError> {
        // The hot path of re-intake: one lookup, no walker.
        if memo.contains(&self.state_digest()) {
            return Ok(());
        }
        Self::walk_with(&[self], memo, true);
        memo.scratch.verdicts[0]
    }

    /// Verifies several descriptors against one memo, pooling every
    /// non-memoized signature check of the batch into a single
    /// [`sc_crypto::verify_batch_by`] call — one crypto bill for a whole
    /// received message. Returns one verdict per descriptor, in input
    /// order.
    ///
    /// **Result-identical to `verify_with` on each, in input order**,
    /// including *which* check a failing descriptor is blamed for:
    ///
    /// * Per descriptor, checks are collected in chain order and
    ///   collection stops at the first structural error; the verdict is
    ///   the first failing collected check, else the structural error,
    ///   else `Ok` — the precedence of a straight-line walk from the
    ///   genesis that stops at the first failure.
    /// * Signature validity is a pure function of `(key, message,
    ///   signature)` and the batch attributes failures exactly, so pooling
    ///   checks across descriptors changes no verdict.
    /// * One by one, descriptor `k+1` would see the tip descriptor `k`
    ///   just memoized and skip checks the batch re-collects; those belong
    ///   to byte-identical prefixes already proven valid, so they pass.
    ///   Duplicates (equal tips) take the first copy's verdict.
    /// * The memo ends up with the same contents, whatever its capacity:
    ///   tips that passed are memoized in input order, and re-inserting a
    ///   present digest is a no-op.
    pub fn verify_batch_with(
        descs: &[&Self],
        memo: &mut VerifyMemo,
    ) -> Vec<Result<(), DescriptorError>> {
        Self::walk_with(descs, memo, false);
        memo.scratch.verdicts.clone()
    }

    /// Verifies several descriptors from scratch, every time: each
    /// signature of each chain is checked and no verdict is remembered.
    /// The checks of the whole batch are pooled into a single
    /// [`sc_crypto::verify_batch_by`] call — one crypto bill for a whole
    /// received message — and a failing descriptor is blamed for the
    /// first check, in chain order, that fails. Returns one
    /// verdict per descriptor, in input order, borrowed from `scratch`
    /// (the walk's working vectors, which the caller keeps so that a walk
    /// allocates nothing once they have grown to a message's size).
    pub(crate) fn verify_batch<'s>(
        descs: &[&Self],
        scratch: &'s mut WalkScratch,
    ) -> &'s [Result<(), DescriptorError>] {
        Self::walk(descs, None, false, scratch);
        &scratch.verdicts
    }

    /// The walk against `memo`, on the scratch vectors `memo` owns.
    fn walk_with(descs: &[&Self], memo: &mut VerifyMemo, tips_missed: bool) {
        let mut scratch = std::mem::take(&mut memo.scratch);
        Self::walk(descs, Some(memo), tips_missed, &mut scratch);
        memo.scratch = scratch;
    }

    /// The one walker: leaves a verdict per descriptor in
    /// `scratch.verdicts`. Given a memo it skips the checks a memoized tip
    /// covers and memoizes the tips that pass (`tips_missed`: the caller
    /// already looked every tip up, in vain); given none it collects every
    /// check.
    fn walk(
        descs: &[&Self],
        mut memo: Option<&mut VerifyMemo>,
        tips_missed: bool,
        scratch: &mut WalkScratch,
    ) {
        let WalkScratch {
            plans,
            checks,
            seen_tips,
            bad,
            verdicts,
        } = scratch;
        plans.clear();
        checks.clear();
        seen_tips.clear();
        bad.clear();
        verdicts.clear();

        for (di, d) in descs.iter().enumerate() {
            let tip: &Block = &d.0;
            let start = checks.len();
            // Exact match: this byte content already passed verification.
            if !tips_missed && memo.as_mut().is_some_and(|m| m.contains(&tip.state)) {
                plans.push(Plan::Walked(start..start, None));
                continue;
            }
            if descs.len() > 1 {
                if let Some(&first) = seen_tips.get(&tip.state) {
                    plans.push(Plan::DupOf(first));
                    continue;
                }
                seen_tips.insert(tip.state, di);
            }
            // Blocks lead tip to root, so the checks are collected last
            // link first and turned into chain order at the end.
            let (genesis, n) = (tip.genesis(), tip.len());
            let mut structural = None;
            // Whether a memoized tip covers every link below the one at
            // hand: the longest memoized prefix, looked up from the tip
            // down so the extend-by-few path hits after a couple of
            // lookups. Never, without a memo.
            let mut covered = false;
            for (link, parent) in tip.links_rev() {
                // Structural rules run over the whole chain, memoized or
                // not: they are hash-free, and re-checking them keeps a
                // memoized redeemed chain from hiding a post-redemption
                // extension. Collection stops at the first broken rule
                // in chain order — the lowest: what was collected above
                // it goes.
                let (i, signer) = (parent.len(), parent.owner());
                let broken = link_rule_broken(link, i, n, &signer, &genesis.creator);
                if broken.is_some() {
                    structural = broken;
                    checks.truncate(start);
                }
                if !covered {
                    if broken.is_none() {
                        let msg = link_message(&parent.state, &link.to, link.kind);
                        let err = DescriptorError::BadLinkSignature { index: i };
                        checks.push((signer, msg, link.sig, err));
                    }
                    covered = memo.as_mut().is_some_and(|m| m.contains(&parent.state));
                }
            }
            // Not even the genesis is known good.
            if !covered {
                let msg = genesis_message(&genesis.creator, genesis.addr, genesis.created_at);
                let err = DescriptorError::BadGenesisSignature;
                checks.push((genesis.creator, msg, genesis.sig, err));
            }
            checks[start..].reverse();
            plans.push(Plan::Walked(start..checks.len(), structural));
        }

        // One combined pass over every collected check. The batch reports
        // only the first invalid index — everything before it is good — so
        // the pass resumes right after each confirmed-bad check: one extra
        // round per forged signature, none in the honest case.
        let mut from = 0;
        while let Err(k) = sc_crypto::verify_batch_by(checks.len() - from, |i| {
            let (pk, msg, sig, _) = &checks[from + i];
            (pk, msg.as_slice(), sig)
        }) {
            bad.push(from + k);
            from += k + 1;
        }

        // Verdicts in input order; with a memo, the tips that passed are
        // memoized on the schedule one-by-one verification follows (a
        // no-op for a tip still there).
        for (plan, d) in plans.iter().zip(descs) {
            let verdict = match plan {
                Plan::DupOf(first) => verdicts[*first],
                Plan::Walked(mine, structural) => match bad.iter().find(|&&i| mine.contains(&i)) {
                    Some(&i) => Err(checks[i].3),
                    None => structural.map_or(Ok(()), Err),
                },
            };
            if let (Ok(()), Some(m)) = (verdict, memo.as_mut()) {
                m.insert(d.state_digest());
            }
            verdicts.push(verdict);
        }
        #[cfg(test)]
        tests::SIGNATURE_CHECKS.with(|n| n.set(n.get() + checks.len()));
    }
}

/// How one descriptor's verdict follows from the pooled signature checks.
#[derive(Clone, Debug)]
enum Plan {
    /// Same tip as an earlier descriptor of the batch: its verdict.
    DupOf(usize),
    /// Its checks (a range into the flat list, in walk order; empty for an
    /// exact memo hit) and a structural error positioned after all of
    /// them (collection stopped there).
    Walked(std::ops::Range<usize>, Option<DescriptorError>),
}

/// Working storage of the walker, owned by whoever verifies — the
/// protocol node, or the [`VerifyMemo`] a walk goes against — and reused
/// from call to call, so that a walk allocates nothing once the vectors
/// have grown to a message's size.
#[derive(Clone, Debug, Default)]
pub(crate) struct WalkScratch {
    plans: Vec<Plan>,
    /// Collected checks and the error a failure means; contiguous per
    /// descriptor because collection is descriptor-major.
    checks: Vec<(PublicKey, Digest, Signature, DescriptorError)>,
    /// Tip digest → first index in the batch carrying it.
    seen_tips: sc_crypto::FxHashMap<Digest, usize>,
    /// Indices into `checks` of the signatures that failed, ascending.
    bad: Vec<usize>,
    /// The last walk's verdicts, in input order.
    verdicts: Vec<Result<(), DescriptorError>>,
}

/// The straight-line verifier the walker replaced, compiled for tests
/// only: genesis first, then each link in chain order, every digest
/// recomputed from the signed fields and none taken from a block. The
/// walker's tests pin its verdicts — and which check a failure is blamed
/// on — to this one.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// Verifies `d` from scratch; see [`SecureDescriptor::verify`].
    pub(crate) fn verify(d: &SecureDescriptor) -> Result<(), DescriptorError> {
        let genesis = d.genesis();
        let msg = genesis_message(&genesis.creator, genesis.addr, genesis.created_at);
        if !genesis.creator.verify(&msg, &genesis.sig) {
            return Err(DescriptorError::BadGenesisSignature);
        }
        // Blocks lead tip to root only; chain order is that list reversed.
        let links: Vec<&ChainLink> = d.links_rev().collect();
        let mut state = genesis_state(genesis);
        let mut owner: PublicKey = genesis.creator;
        for (i, link) in links.into_iter().rev().enumerate() {
            if let Some(broken) = link_rule_broken(link, i, d.0.len(), &owner, &genesis.creator) {
                return Err(broken);
            }
            let msg = link_message(&state, &link.to, link.kind);
            if !owner.verify(&msg, &link.sig) {
                return Err(DescriptorError::BadLinkSignature { index: i });
            }
            state = next_state(&state, link);
            owner = link.to;
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::chain::{compare_chains, ChainRelation};
    use proptest::prelude::*;
    use sc_crypto::Scheme;

    pub(crate) fn kp(tag: u8) -> Keypair {
        Keypair::from_seed(Scheme::Schnorr61, [tag; 32])
    }

    thread_local! {
        /// Signature checks the walker has collected on this
        /// thread (each test runs on its own).
        pub(crate) static SIGNATURE_CHECKS: std::cell::Cell<usize> =
            const { std::cell::Cell::new(0) };
    }

    /// What one `verify_with` call cost: its verdict, the memo lookups it
    /// made, the signatures it checked.
    fn cost(
        d: &SecureDescriptor,
        memo: &mut VerifyMemo,
    ) -> (Result<(), DescriptorError>, u64, usize) {
        let (lookups, checks) = (memo.lookups(), SIGNATURE_CHECKS.get());
        let verdict = d.verify_with(memo);
        (
            verdict,
            memo.lookups() - lookups,
            SIGNATURE_CHECKS.get() - checks,
        )
    }

    /// `d` with `link` spliced onto its chain, reassembled the way a wire
    /// decode would (descriptors are immutable; tampering goes through
    /// `from_parts`).
    fn with_link(d: &SecureDescriptor, link: ChainLink) -> SecureDescriptor {
        let mut links = d.chain();
        links.push(link);
        SecureDescriptor::from_parts(*d.genesis(), links)
    }

    #[test]
    fn create_verify_roundtrip() {
        let a = kp(1);
        let d = SecureDescriptor::create(&a, 7, Timestamp(1000));
        assert_eq!(d.creator(), a.public());
        assert_eq!(d.owner(), a.public());
        assert_eq!(d.transfer_count(), 0);
        assert!(!d.is_redeemed());
        d.verify().expect("fresh descriptor verifies");
    }

    #[test]
    fn figure4_chain_a_b_c_d() {
        // Reproduces Figure 4: A creates, hands to B, B to C, C to D.
        let (a, b, c, d) = (kp(1), kp(2), kp(3), kp(4));
        let desc = SecureDescriptor::create(&a, 0, Timestamp(0));
        let desc = desc.transfer(&a, b.public()).unwrap();
        let desc = desc.transfer(&b, c.public()).unwrap();
        let desc = desc.transfer(&c, d.public()).unwrap();
        desc.verify().expect("full chain verifies");
        let owners: Vec<NodeId> = desc.owners().collect();
        assert_eq!(owners, vec![a.public(), b.public(), c.public(), d.public()]);
        assert_eq!(desc.owner(), d.public());
        assert_eq!(desc.transfer_count(), 3);
    }

    #[test]
    fn transfer_requires_ownership() {
        let (a, b, c) = (kp(1), kp(2), kp(3));
        let desc = SecureDescriptor::create(&a, 0, Timestamp(0))
            .transfer(&a, b.public())
            .unwrap();
        assert_eq!(
            desc.transfer(&c, c.public()).unwrap_err(),
            DescriptorError::NotOwner
        );
    }

    #[test]
    fn transfer_to_current_owner_rejected() {
        let (a, b) = (kp(1), kp(2));
        let desc = SecureDescriptor::create(&a, 0, Timestamp(0))
            .transfer(&a, b.public())
            .unwrap();
        assert_eq!(
            desc.transfer(&b, b.public()).unwrap_err(),
            DescriptorError::TransferToSelf
        );
    }

    #[test]
    fn redeem_then_no_more_moves() {
        let (a, b) = (kp(1), kp(2));
        let desc = SecureDescriptor::create(&a, 0, Timestamp(0))
            .transfer(&a, b.public())
            .unwrap();
        let redeemed = desc.redeem(&b, LinkKind::Redeem).unwrap();
        redeemed.verify().unwrap();
        assert!(redeemed.is_redeemed());
        assert_eq!(redeemed.redemption_kind(), Some(LinkKind::Redeem));
        assert_eq!(redeemed.redeemer(), Some(b.public()));
        assert_eq!(redeemed.owner(), a.public(), "token returns to creator");
        assert_eq!(
            redeemed.transfer(&a, b.public()).unwrap_err(),
            DescriptorError::AlreadyRedeemed
        );
    }

    #[test]
    fn tampered_genesis_fails() {
        let a = kp(1);
        let d = SecureDescriptor::create(&a, 0, Timestamp(0));
        let mut genesis = *d.genesis();
        genesis.addr = 99;
        let tampered = SecureDescriptor::from_parts(genesis, Vec::new());
        assert_eq!(
            tampered.verify().unwrap_err(),
            DescriptorError::BadGenesisSignature
        );
    }

    #[test]
    fn tampered_link_target_fails() {
        let (a, b, c) = (kp(1), kp(2), kp(3));
        let d = SecureDescriptor::create(&a, 0, Timestamp(0))
            .transfer(&a, b.public())
            .unwrap();
        let mut links = d.chain();
        links[0].to = c.public();
        let tampered = SecureDescriptor::from_parts(*d.genesis(), links);
        assert_eq!(
            tampered.verify().unwrap_err(),
            DescriptorError::BadLinkSignature { index: 0 }
        );
    }

    #[test]
    fn forged_appended_link_fails() {
        let (a, b, c) = (kp(1), kp(2), kp(3));
        let d = SecureDescriptor::create(&a, 0, Timestamp(0))
            .transfer(&a, b.public())
            .unwrap();
        // c forges a link claiming b handed it the descriptor, but signs
        // with its own key.
        let state = d.state_digest();
        let msg = link_message(&state, &c.public(), LinkKind::Transfer);
        let forged = with_link(
            &d,
            ChainLink {
                to: c.public(),
                kind: LinkKind::Transfer,
                sig: c.sign(&msg),
            },
        );
        assert_eq!(
            forged.verify().unwrap_err(),
            DescriptorError::BadLinkSignature { index: 1 }
        );
    }

    #[test]
    fn signature_commits_to_full_history() {
        // Two descriptors identical except for an early link must produce
        // different states, so a later signature cannot be replayed.
        let (a, b, c, d) = (kp(1), kp(2), kp(3), kp(4));
        let base = SecureDescriptor::create(&a, 0, Timestamp(0));
        let via_b = base.transfer(&a, b.public()).unwrap();
        let via_c = base.transfer(&a, c.public()).unwrap();
        assert_ne!(via_b.state_digest(), via_c.state_digest());
        // Splice b's onward link onto the c-branch: must not verify.
        let onward = via_b.transfer(&b, d.public()).unwrap();
        let spliced = with_link(&via_c, *onward.chain().last().unwrap());
        assert!(spliced.verify().is_err());
    }

    #[test]
    fn mid_chain_redemption_rejected() {
        let (a, b, c) = (kp(1), kp(2), kp(3));
        let d = SecureDescriptor::create(&a, 0, Timestamp(0))
            .transfer(&a, b.public())
            .unwrap();
        let redeemed = d.redeem(&b, LinkKind::Redeem).unwrap();
        // Manually splice a transfer after the redemption.
        let state = redeemed.state_digest();
        let msg = link_message(&state, &c.public(), LinkKind::Transfer);
        let bad = with_link(
            &redeemed,
            ChainLink {
                to: c.public(),
                kind: LinkKind::Transfer,
                sig: a.sign(&msg),
            },
        );
        assert_eq!(
            bad.verify().unwrap_err(),
            DescriptorError::RedemptionNotTerminal
        );
    }

    #[test]
    fn redemption_must_target_creator() {
        let (a, b, c) = (kp(1), kp(2), kp(3));
        let d = SecureDescriptor::create(&a, 0, Timestamp(0))
            .transfer(&a, b.public())
            .unwrap();
        // Forge a "redemption" pointing at a third party.
        let state = d.state_digest();
        let msg = link_message(&state, &c.public(), LinkKind::Redeem);
        let bad = with_link(
            &d,
            ChainLink {
                to: c.public(),
                kind: LinkKind::Redeem,
                sig: b.sign(&msg),
            },
        );
        assert_eq!(
            bad.verify().unwrap_err(),
            DescriptorError::RedemptionNotToCreator
        );
    }

    #[test]
    fn ids_distinguish_creator_and_time() {
        let (a, b) = (kp(1), kp(2));
        let d1 = SecureDescriptor::create(&a, 0, Timestamp(0));
        let d2 = SecureDescriptor::create(&a, 0, Timestamp(1000));
        let d3 = SecureDescriptor::create(&b, 0, Timestamp(0));
        assert_ne!(d1.id(), d2.id());
        assert_ne!(d1.id(), d3.id());
        assert_eq!(d1.id(), d1.clone().id());
    }

    #[test]
    fn age_in_cycles() {
        let a = kp(1);
        let d = SecureDescriptor::create(&a, 0, Timestamp(3000));
        assert_eq!(d.age_cycles(Timestamp(8500), 1000), 5);
    }

    #[test]
    fn owner_at_indexes_signers() {
        let (a, b, c) = (kp(1), kp(2), kp(3));
        let d = SecureDescriptor::create(&a, 0, Timestamp(0))
            .transfer(&a, b.public())
            .unwrap()
            .transfer(&b, c.public())
            .unwrap();
        assert_eq!(d.owner_at(0), a.public());
        assert_eq!(d.owner_at(1), b.public());
    }

    #[test]
    fn verify_with_memoizes_tips_and_nothing_else() {
        let (a, b, c, d) = (kp(1), kp(2), kp(3), kp(4));
        let mut memo = VerifyMemo::new(64);
        let base = SecureDescriptor::create(&a, 0, Timestamp(0))
            .transfer(&a, b.public())
            .unwrap();
        let desc = base.transfer(&b, c.public()).unwrap();
        // First sighting: tip and both prefixes miss, genesis and both
        // links are checked, one digest — the tip — is memoized.
        assert_eq!(cost(&desc, &mut memo), (Ok(()), 3, 3));
        assert_eq!(memo.len(), 1);
        // Re-verifying a verified tip: one lookup, no signature check.
        assert_eq!(cost(&desc, &mut memo), (Ok(()), 1, 0));
        assert_eq!((memo.len(), memo.hits()), (1, 1));
        // Extension: tip miss, parent hit, the one new link checked.
        let extended = desc.transfer(&c, d.public()).unwrap();
        assert_eq!(cost(&extended, &mut memo), (Ok(()), 2, 1));
        // A fork *at* a verified tip is an extension of it just the same.
        let fork_at_tip = desc.transfer(&c, kp(5).public()).unwrap();
        assert_eq!(cost(&fork_at_tip, &mut memo), (Ok(()), 2, 1));
        assert_eq!(memo.len(), 3);
        // A fork *below* every verified tip finds nothing — `base` was
        // never a tip here — and is verified in full, like `verify()`.
        let fork_below = base.transfer(&b, kp(5).public()).unwrap();
        assert_eq!(
            cost(&fork_below, &mut memo),
            (reference::verify(&fork_below), 3, 3)
        );
        // So is a shorter copy of a verified chain.
        let shorter = SecureDescriptor::from_parts(*base.genesis(), base.chain());
        assert_eq!(
            cost(&shorter, &mut memo),
            (reference::verify(&shorter), 2, 2)
        );
        assert_eq!(memo.len(), 5, "one entry per verified version");
    }

    #[test]
    fn verify_with_matches_verify_on_valid_and_tampered_chains() {
        let (a, b, c) = (kp(1), kp(2), kp(3));
        let good = SecureDescriptor::create(&a, 0, Timestamp(0))
            .transfer(&a, b.public())
            .unwrap()
            .transfer(&b, c.public())
            .unwrap();
        let mut memo = VerifyMemo::new(64);
        good.verify_with(&mut memo).unwrap();
        // Tamper with a link of the memoized chain; rebuild via
        // `from_parts` so the state digest is consistent, exactly as a
        // wire decode would.
        let mut links = good.chain();
        let mut sig = links[0].sig.to_bytes();
        sig[8] ^= 0x40;
        links[0].sig = Signature::from_bytes(sig).unwrap();
        let tampered = SecureDescriptor::from_parts(*good.genesis(), links);
        assert_eq!(
            tampered.verify_with(&mut memo),
            reference::verify(&tampered)
        );
        assert_eq!(
            tampered.verify_with(&mut memo).unwrap_err(),
            DescriptorError::BadLinkSignature { index: 0 }
        );
    }

    #[test]
    fn memoized_redeemed_tip_rejects_post_redemption_extension() {
        let (a, b, c) = (kp(1), kp(2), kp(3));
        let redeemed = SecureDescriptor::create(&a, 0, Timestamp(0))
            .transfer(&a, b.public())
            .unwrap()
            .redeem(&b, LinkKind::Redeem)
            .unwrap();
        let mut memo = VerifyMemo::new(64);
        redeemed.verify_with(&mut memo).unwrap();
        // Splice a transfer after the terminal redemption: everything but
        // the new link is a memoized tip — no signature is even looked at
        // — but structure must still reject it.
        let mut links = redeemed.chain();
        let msg = link_message(&redeemed.state_digest(), &c.public(), LinkKind::Transfer);
        links.push(ChainLink {
            to: c.public(),
            kind: LinkKind::Transfer,
            sig: a.sign(&msg),
        });
        let bad = SecureDescriptor::from_parts(*redeemed.genesis(), links);
        assert_eq!(
            cost(&bad, &mut memo),
            (Err(DescriptorError::RedemptionNotTerminal), 2, 0)
        );
        assert_eq!(bad.verify_with(&mut memo), reference::verify(&bad));
    }

    #[test]
    fn extend_by_one_costs_two_lookups_and_one_signature_at_any_length() {
        // The extend-by-one hot path must not walk the chain: against a
        // memo holding the parent's tip it costs exactly two memo lookups
        // (miss on the tip, hit on the parent) and one signature check,
        // regardless of chain length, and memoizes the new tip.
        let keys: Vec<Keypair> = (0..8).map(kp).collect();
        for len in [1usize, 4, 16, 64] {
            let mut d = SecureDescriptor::create(&keys[0], 0, Timestamp(0));
            for i in 0..len {
                d = d
                    .transfer(&keys[i % 8], keys[(i + 1) % 8].public())
                    .unwrap();
            }
            let mut memo = VerifyMemo::new(1024);
            assert_eq!(cost(&d, &mut memo), (Ok(()), len as u64 + 1, len + 1));
            assert_eq!(memo.len(), 1, "chain length {len}: the tip alone");
            let extended = d
                .transfer(&keys[len % 8], keys[(len + 1) % 8].public())
                .unwrap();
            assert_eq!(
                cost(&extended, &mut memo),
                (Ok(()), 2, 1),
                "chain length {len}: tip miss + parent hit, one new link"
            );
            assert_eq!(memo.len(), 2, "chain length {len}: the new tip");
        }
    }

    #[test]
    fn prefix_digests_maintained_incrementally() {
        // The cached prefix digests equal what a fresh wire decode
        // computes, at every prefix length and through redemption.
        let (a, b, c) = (kp(1), kp(2), kp(3));
        let d = SecureDescriptor::create(&a, 0, Timestamp(0))
            .transfer(&a, b.public())
            .unwrap()
            .transfer(&b, c.public())
            .unwrap()
            .redeem(&c, LinkKind::Redeem)
            .unwrap();
        let decoded = SecureDescriptor::from_parts(*d.genesis(), d.chain());
        for len in 0..=d.chain().len() {
            assert_eq!(d.prefix_state(len), decoded.prefix_state(len));
        }
        assert_eq!(d.state_digest(), decoded.state_digest());
    }

    #[test]
    fn a_prefix_is_the_version_it_names() {
        // Every cut of a chain is the very block of that version: same
        // pointer, same digest, and no block that the chain lacks.
        let keys: Vec<Keypair> = (0..4).map(kp).collect();
        let mut versions = vec![SecureDescriptor::create(&keys[0], 0, Timestamp(0))];
        for i in 0..6 {
            let next = versions[i]
                .transfer(&keys[i % 4], keys[(i + 1) % 4].public())
                .unwrap();
            versions.push(next);
        }
        let tip = versions.last().unwrap();
        for (len, version) in versions.iter().enumerate() {
            let cut = tip.prefix(len);
            assert!(cut.same_block(version), "length {len}");
            assert_eq!(cut.transfer_count(), len);
            assert_eq!(cut.state_digest(), *tip.prefix_state(len));
            assert!(cut.block_addrs().all(|b| tip.block_addrs().any(|t| t == b)));
        }
    }

    #[test]
    fn descriptor_is_one_pointer() {
        use core::mem::size_of;
        assert_eq!(size_of::<SecureDescriptor>(), size_of::<usize>());
        assert_eq!(size_of::<Option<SecureDescriptor>>(), size_of::<usize>());
    }

    #[test]
    fn clones_share_storage_and_transfer_leaves_the_source_untouched() {
        let (a, b) = (kp(1), kp(2));
        let d = SecureDescriptor::create(&a, 0, Timestamp(0))
            .transfer(&a, b.public())
            .unwrap();
        let copy = d.clone();
        assert!(copy.same_block(&d));
        assert_eq!(d, copy);
        // A separately decoded equal descriptor is equal, in its own blocks.
        let decoded = SecureDescriptor::from_parts(*d.genesis(), d.chain());
        assert!(!decoded.same_block(&d));
        assert!(decoded
            .block_addrs()
            .all(|b| !d.block_addrs().any(|mine| mine == b)));
        assert_eq!(decoded, d);
        // Appending builds the one new block on top of the source's: the
        // source and its copies keep their links and digest, and are the
        // extension's parent.
        let before = d.state_digest();
        let extended = copy.transfer(&b, kp(3).public()).unwrap();
        assert!(!extended.same_block(&d));
        assert_eq!(d.chain().len(), 1);
        assert_eq!(copy.chain().len(), 1);
        assert_eq!(d.state_digest(), before);
        assert_eq!(extended.chain().len(), 2);
        assert_eq!(extended.chain()[0], d.chain()[0]);
        assert!(extended.block_addrs().skip(1).eq(d.block_addrs()));
        // Every version of a descriptor kept alive: one block per link
        // and one for the genesis, not one growing copy per version.
        let keys: Vec<Keypair> = (0..8).map(kp).collect();
        let mut versions = vec![SecureDescriptor::create(&keys[0], 0, Timestamp(0))];
        for i in 0..64 {
            let next = versions[i]
                .transfer(&keys[i % 8], keys[(i + 1) % 8].public())
                .unwrap();
            versions.push(next);
        }
        let blocks: std::collections::HashSet<usize> =
            versions.iter().flat_map(|v| v.block_addrs()).collect();
        assert_eq!(blocks.len(), 65);
    }

    #[test]
    fn block_is_one_small_allocation() {
        // What a transfer allocates, and what every cached version costs
        // beyond the blocks it shares. With the two reference counts in
        // front it is 136 bytes, the most that fits glibc's 144-byte
        // chunk; a word more costs 16.
        assert!(core::mem::size_of::<Block>() <= 120);
    }

    /// A chain as long as the wire lets a peer make it, decoded (never
    /// verified: its signatures are garbage).
    fn longest_decodable() -> SecureDescriptor {
        use crate::wire::{decode_descriptor, encode_descriptor, WireLimits};
        let (a, b) = (kp(1), kp(2));
        let genesis = *SecureDescriptor::create(&a, 0, Timestamp(0)).genesis();
        let links = (0..WireLimits::DEFAULT.max_chain_links)
            .map(|i| ChainLink {
                to: [b.public(), a.public()][i % 2],
                kind: LinkKind::Transfer,
                sig: {
                    let mut garbage = [0; sc_crypto::SIGNATURE_LEN];
                    garbage[..sc_crypto::SIGNATURE_STORED_LEN].fill(i as u8);
                    Signature::from_bytes(garbage).unwrap()
                },
            })
            .collect();
        let mut bytes = Vec::new();
        encode_descriptor(&SecureDescriptor::from_parts(genesis, links), &mut bytes);
        decode_descriptor(&bytes).expect("within the limits").0
    }

    #[test]
    fn the_longest_chain_is_handled_without_recursion() {
        // One stack frame per link — in drop, equality, verification or
        // encoding — would overflow this thread's stack many times over.
        let (d, twin) = (longest_decodable(), longest_decodable());
        let small_stack = std::thread::Builder::new().stack_size(32 * 1024);
        let handle = small_stack
            .spawn(move || {
                let n = d.transfer_count();
                assert_eq!(n, crate::wire::WireLimits::DEFAULT.max_chain_links);
                assert!(d == twin && !d.same_block(&twin));
                let expected = Err(DescriptorError::BadLinkSignature { index: 0 });
                assert_eq!(reference::verify(&d), expected);
                assert_eq!(d.verify(), expected);
                let mut scratch = WalkScratch::default();
                let verdicts = SecureDescriptor::verify_batch(&[&d, &twin], &mut scratch);
                assert_eq!(verdicts, [expected, reference::verify(&twin)]);
                assert_eq!(compare_chains(&d, &twin), Ok(ChainRelation::Identical));
                let mut bytes = Vec::new();
                crate::wire::encode_descriptor(&d, &mut bytes);
                assert_eq!(bytes.len(), crate::wire::descriptor_wire_bytes(&d));
                assert_eq!(d.owner_at(0), d.creator());
                assert_eq!(d.link(0), d.chain().first());
                drop(twin);
                drop(d);
            })
            .expect("spawn");
        handle.join().expect("no stack overflow");
    }

    #[test]
    fn debug_is_compact_and_layout_free() {
        let (a, b) = (kp(1), kp(2));
        let d = SecureDescriptor::create(&a, 0, Timestamp(7))
            .transfer(&a, b.public())
            .unwrap();
        let s = format!("{d:?}");
        assert!(s.starts_with("SecureDescriptor("), "{s}");
        assert!(s.contains("links=1"), "{s}");
        assert!(s.len() < 120, "no signature dumps: {s}");
        assert_eq!(s, format!("{:?}", d.clone()));
    }

    /// Oracle: batched verification must equal one-by-one `verify_with`
    /// (and both, the straight-line reference) — same verdicts in order,
    /// same final memo contents — and so must the memo-less batch the
    /// node uses and `verify`, the walk on one chain.
    fn assert_batch_matches_sequential(descs: &[&SecureDescriptor], capacity: usize) {
        let mut seq_memo = VerifyMemo::new(capacity);
        let expected: Vec<_> = descs.iter().map(|d| d.verify_with(&mut seq_memo)).collect();
        let mut batch_memo = VerifyMemo::new(capacity);
        let got = SecureDescriptor::verify_batch_with(descs, &mut batch_memo);
        assert_eq!(got, expected, "verdicts diverge from sequential");
        let plain: Vec<_> = descs.iter().map(|d| reference::verify(d)).collect();
        assert_eq!(got, plain, "verdicts diverge from the reference");
        let mut scratch = WalkScratch::default();
        assert_eq!(
            SecureDescriptor::verify_batch(descs, &mut scratch),
            plain,
            "memo-less batch diverges from the reference"
        );
        let one_by_one: Vec<_> = descs.iter().map(|d| d.verify()).collect();
        assert_eq!(one_by_one, plain, "verify diverges from the reference");
        assert!(batch_memo.len() <= capacity);
        assert_eq!(
            batch_memo.len(),
            seq_memo.len(),
            "memo sizes diverge from sequential"
        );
        // Same contents: every digest the sequential path memoized must
        // hit in the batched memo (and sizes already match).
        for d in descs {
            for i in 0..=d.chain().len() {
                assert_eq!(
                    batch_memo.contains(d.prefix_state(i)),
                    seq_memo.contains(d.prefix_state(i)),
                    "memo contents diverge at prefix {i}"
                );
            }
        }
    }

    #[test]
    fn batch_matches_sequential_on_valid_batches() {
        let keys: Vec<Keypair> = (0..8).map(kp).collect();
        let mut descs = Vec::new();
        for len in 0..6usize {
            let mut d = SecureDescriptor::create(&keys[len % 8], 0, Timestamp(len as u64));
            for i in 0..len {
                d = d
                    .transfer(&keys[(len + i) % 8], keys[(len + i + 1) % 8].public())
                    .unwrap();
            }
            descs.push(d);
        }
        let refs: Vec<&SecureDescriptor> = descs.iter().collect();
        assert_batch_matches_sequential(&refs, 64);
        // And with a tiny memo, exercising FIFO eviction mid-batch.
        assert_batch_matches_sequential(&refs, 3);
        // And with memoization disabled entirely.
        assert_batch_matches_sequential(&refs, 0);
        // The memo-less batch remembers no verdict: every signature of
        // every chain is checked, the second time as the first.
        let mut scratch = WalkScratch::default();
        for _ in 0..2 {
            let before = SIGNATURE_CHECKS.get();
            let verdicts = SecureDescriptor::verify_batch(&refs, &mut scratch);
            assert!(verdicts.iter().all(Result::is_ok));
            let all: usize = descs.iter().map(|d| d.chain().len() + 1).sum();
            assert_eq!(SIGNATURE_CHECKS.get() - before, all);
        }
    }

    #[test]
    fn batch_matches_sequential_with_forgeries_at_every_position() {
        let (a, b, c) = (kp(1), kp(2), kp(3));
        let mut descs = Vec::new();
        for v in 0..4u8 {
            let d = SecureDescriptor::create(&a, Addr::from(v), Timestamp(v as u64))
                .transfer(&a, b.public())
                .unwrap()
                .transfer(&b, c.public())
                .unwrap();
            descs.push(d);
        }
        // For each victim descriptor and each tamper point (genesis or a
        // link), the batch must blame exactly the descriptor and check the
        // sequential path blames, and admit every honest one.
        for victim in 0..descs.len() {
            for tamper_link in [None, Some(0), Some(1)] {
                let mut batch = descs.clone();
                match tamper_link {
                    None => {
                        let mut g = *batch[victim].genesis();
                        g.addr ^= 1;
                        batch[victim] = SecureDescriptor::from_parts(g, batch[victim].chain());
                    }
                    Some(li) => {
                        let mut links = batch[victim].chain();
                        let mut sig = links[li].sig.to_bytes();
                        sig[8] ^= 0x40;
                        links[li].sig = Signature::from_bytes(sig).unwrap();
                        batch[victim] =
                            SecureDescriptor::from_parts(*batch[victim].genesis(), links);
                    }
                }
                let refs: Vec<&SecureDescriptor> = batch.iter().collect();
                assert_batch_matches_sequential(&refs, 64);
            }
        }
    }

    #[test]
    fn batch_matches_sequential_on_structural_errors() {
        let (a, b, c) = (kp(1), kp(2), kp(3));
        let redeemed = SecureDescriptor::create(&a, 0, Timestamp(0))
            .transfer(&a, b.public())
            .unwrap()
            .redeem(&b, LinkKind::Redeem)
            .unwrap();
        // Post-redemption extension (RedemptionNotTerminal).
        let mut links = redeemed.chain();
        let msg = link_message(&redeemed.state_digest(), &c.public(), LinkKind::Transfer);
        links.push(ChainLink {
            to: c.public(),
            kind: LinkKind::Transfer,
            sig: a.sign(&msg),
        });
        let not_terminal = SecureDescriptor::from_parts(*redeemed.genesis(), links);
        // Redemption at a third party (RedemptionNotToCreator).
        let base = SecureDescriptor::create(&a, 1, Timestamp(0))
            .transfer(&a, b.public())
            .unwrap();
        let mut links = base.chain();
        let msg = link_message(&base.state_digest(), &c.public(), LinkKind::Redeem);
        links.push(ChainLink {
            to: c.public(),
            kind: LinkKind::Redeem,
            sig: b.sign(&msg),
        });
        let wrong_target = SecureDescriptor::from_parts(*base.genesis(), links);
        let good = SecureDescriptor::create(&c, 2, Timestamp(0));
        let refs: Vec<&SecureDescriptor> = vec![&not_terminal, &good, &wrong_target, &redeemed];
        assert_batch_matches_sequential(&refs, 64);
    }

    #[test]
    fn batch_matches_sequential_on_duplicates_and_shared_prefixes() {
        let keys: Vec<Keypair> = (0..8).map(kp).collect();
        let base = SecureDescriptor::create(&keys[0], 0, Timestamp(0))
            .transfer(&keys[0], keys[1].public())
            .unwrap();
        let extended = base.transfer(&keys[1], keys[2].public()).unwrap();
        let fork = base.transfer(&keys[1], keys[3].public()).unwrap();
        // Duplicates, a prefix after its extension, and two forks — the
        // interleaving cases where sequential memoization lets later
        // descriptors skip checks the batch re-collects.
        let refs: Vec<&SecureDescriptor> = vec![&extended, &base, &extended, &fork, &base];
        assert_batch_matches_sequential(&refs, 64);
        // A memo too small for the batch evicts mid-way; a duplicate whose
        // first copy is gone again by then is memoized again, as it would
        // be one by one.
        for capacity in [0, 1, 2, 3] {
            assert_batch_matches_sequential(&refs, capacity);
        }
        // Same batch but with the shared prefix carrying a forged link:
        // every chain built on it must be blamed identically.
        let mut links = extended.chain();
        let mut sig = links[0].sig.to_bytes();
        sig[3] ^= 2;
        links[0].sig = Signature::from_bytes(sig).unwrap();
        let bad_ext = SecureDescriptor::from_parts(*extended.genesis(), links);
        let refs: Vec<&SecureDescriptor> = vec![&bad_ext, &base, &bad_ext, &fork];
        assert_batch_matches_sequential(&refs, 64);
    }

    #[test]
    fn batch_against_warm_memo_skips_what_the_tips_cover() {
        let keys: Vec<Keypair> = (0..8).map(kp).collect();
        let mut d = SecureDescriptor::create(&keys[0], 0, Timestamp(0));
        for i in 0..16 {
            d = d
                .transfer(&keys[i % 8], keys[(i + 1) % 8].public())
                .unwrap();
        }
        let mut memo = VerifyMemo::new(1024);
        d.verify_with(&mut memo).unwrap();
        let extended = d.transfer(&keys[16 % 8], keys[17 % 8].public()).unwrap();
        // Exact hit plus extend-by-one: one lookup for the exact copy,
        // tip-miss + parent-hit for the extension — no chain walk, and
        // one signature in the pooled pass.
        let (lookups_before, checks_before) = (memo.lookups(), SIGNATURE_CHECKS.get());
        let results = SecureDescriptor::verify_batch_with(&[&d, &extended], &mut memo);
        assert_eq!(results, vec![Ok(()), Ok(())]);
        assert_eq!(
            memo.lookups() - lookups_before,
            3,
            "exact hit (1) + tip miss and parent hit (2)"
        );
        assert_eq!(SIGNATURE_CHECKS.get() - checks_before, 1);
    }

    #[test]
    fn empty_batch_is_empty() {
        let mut memo = VerifyMemo::new(8);
        assert!(SecureDescriptor::verify_batch_with(&[], &mut memo).is_empty());
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            DescriptorError::BadGenesisSignature,
            DescriptorError::BadLinkSignature { index: 3 },
            DescriptorError::RedemptionNotTerminal,
            DescriptorError::RedemptionNotToCreator,
            DescriptorError::TransferToSelf,
            DescriptorError::NotOwner,
            DescriptorError::AlreadyRedeemed,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    /// What `compare_chains` must say, worked out link by link on the
    /// flat copies — the definition, without digests or shared blocks.
    fn flat_relation(a: &SecureDescriptor, b: &SecureDescriptor) -> ChainRelation {
        let (ac, bc) = (a.chain(), b.chain());
        match ac.iter().zip(&bc).position(|(x, y)| x != y) {
            Some(index) => ChainRelation::Divergent {
                index,
                signer: a.owner_at(index),
                ns_exception: matches!(
                    (ac[index].kind, bc[index].kind),
                    (LinkKind::Transfer, LinkKind::RedeemNonSwappable)
                        | (LinkKind::RedeemNonSwappable, LinkKind::Transfer)
                ),
            },
            None => match ac.len().cmp(&bc.len()) {
                core::cmp::Ordering::Equal => ChainRelation::Identical,
                core::cmp::Ordering::Greater => ChainRelation::LeftExtendsRight,
                core::cmp::Ordering::Less => ChainRelation::RightExtendsLeft,
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// How a chain came to be — grown link by link on shared blocks,
        /// forked off an earlier version, decoded off the wire, or
        /// rebuilt from its flat parts into blocks of its own — shows in
        /// nothing a caller can observe.
        #[test]
        fn shared_and_rebuilt_chains_are_indistinguishable(
            path in proptest::collection::vec(0u8..8, 0..10),
            fork in (0usize..10, 0u8..8),
            redeem in prop_oneof![Just(LinkKind::Redeem), Just(LinkKind::RedeemNonSwappable)],
            tamper in (0usize..10, 0usize..sc_crypto::SIGNATURE_STORED_LEN),
        ) {
            let keys: Vec<Keypair> = (0..8u8)
                .map(|t| Keypair::from_seed(Scheme::KeyedHash, [t + 1; 32]))
                .collect();
            let key_of = |id: NodeId| keys.iter().find(|k| k.public() == id).expect("pool key");
            // Every version of one history, each built on the last.
            let mut set = vec![SecureDescriptor::create(&keys[0], 3, Timestamp(5000))];
            for &to in &path {
                let cur = set.last().unwrap();
                if let Ok(next) = cur.transfer(key_of(cur.owner()), keys[to as usize].public()) {
                    set.push(next);
                }
            }
            let tip = set.last().unwrap().clone();
            // A fork at a random depth, a redemption of the tip, the tip
            // off the wire, and a tampered chain extended by `append`.
            let base = set[fork.0 % set.len()].clone();
            set.extend(base.transfer(key_of(base.owner()), keys[fork.1 as usize].public()));
            set.extend(tip.redeem(key_of(tip.owner()), redeem));
            let mut bytes = Vec::new();
            crate::wire::encode_descriptor(&tip, &mut bytes);
            set.push(crate::wire::decode_descriptor(&bytes).expect("own encoding").0);
            if tip.transfer_count() > 0 {
                let mut links = tip.chain();
                let at = tamper.0 % links.len();
                let mut sig = links[at].sig.to_bytes();
                sig[tamper.1] ^= 0x20;
                links[at].sig = Signature::from_bytes(sig).unwrap();
                let tampered = SecureDescriptor::from_parts(*tip.genesis(), links);
                set.extend(tampered.redeem(key_of(tampered.owner()), redeem));
                set.push(tampered);
            }

            let rebuilt: Vec<SecureDescriptor> = set
                .iter()
                .map(|d| SecureDescriptor::from_parts(*d.genesis(), d.chain()))
                .collect();
            let encoded = |d: &SecureDescriptor| {
                let mut out = Vec::new();
                crate::wire::encode_descriptor(d, &mut out);
                out
            };
            for (d, r) in set.iter().zip(&rebuilt) {
                prop_assert_eq!(d, r);
                prop_assert_eq!(d.state_digest(), r.state_digest());
                prop_assert_eq!(d.redeemer(), r.redeemer());
                for i in 0..=d.transfer_count() {
                    prop_assert_eq!(d.prefix_state(i), r.prefix_state(i));
                    prop_assert_eq!(d.owner_at(i), r.owner_at(i));
                    prop_assert_eq!(d.link(i), r.link(i));
                }
                prop_assert_eq!(d.verify(), reference::verify(d));
                prop_assert_eq!(r.verify(), reference::verify(d));
                prop_assert_eq!(encoded(d), encoded(r));
            }
            // One pooled pass over each side: same verdicts, same blame,
            // and both what the straight-line reference says.
            let plain: Vec<_> = set.iter().map(reference::verify).collect();
            let (mut grown_scratch, mut rebuilt_scratch) = Default::default();
            let grown: Vec<&SecureDescriptor> = set.iter().collect();
            let flat: Vec<&SecureDescriptor> = rebuilt.iter().collect();
            prop_assert_eq!(SecureDescriptor::verify_batch(&grown, &mut grown_scratch), &plain[..]);
            prop_assert_eq!(SecureDescriptor::verify_batch(&flat, &mut rebuilt_scratch), &plain[..]);
            for (a, ra) in set.iter().zip(&rebuilt) {
                for (b, rb) in set.iter().zip(&rebuilt) {
                    let expected = Ok(flat_relation(a, b));
                    prop_assert_eq!(compare_chains(a, b), expected);
                    prop_assert_eq!(compare_chains(ra, rb), expected);
                    prop_assert_eq!(compare_chains(a, rb), expected);
                    prop_assert_eq!(compare_chains(ra, b), expected);
                }
            }
        }
    }
}
