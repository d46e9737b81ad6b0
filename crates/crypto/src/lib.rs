//! # sc-crypto — cryptographic substrate for the SecureCyclon reproduction
//!
//! SecureCyclon (Antonov & Voulgaris, ICDCS 2023) turns Cyclon node
//! descriptors into signed, chain-of-ownership tokens. This crate provides
//! everything the protocol layer needs, implemented from scratch:
//!
//! * [`mod@sha256`] — FIPS 180-4 SHA-256 (NIST-vector tested), used for
//!   descriptor digests and signature messages.
//! * [`keys`] — node identities ([`PublicKey`] = [`NodeId`]), keypairs and
//!   64-byte [`Signature`]s (33 of them held in memory) under two
//!   schemes: a real Schnorr construction over a toy group
//!   ([`schnorr61`]) and a fast keyed-hash scheme for large-scale
//!   simulations.
//! * [`hex`] — tiny hex codec for display purposes.
//! * [`fxhash`] — a one-multiply-per-word hasher for the protocol's hot
//!   digest-keyed lookup tables (not flooding-resistant; see module docs).
//!
//! # Quickstart
//!
//! ```
//! use sc_crypto::{Keypair, Scheme};
//!
//! let keypair = Keypair::from_seed(Scheme::Schnorr61, [7u8; 32]);
//! let node_id = keypair.public(); // the paper sets ID = public key
//! let sig = keypair.sign(b"descriptor bytes");
//! assert!(node_id.verify(b"descriptor bytes", &sig));
//! ```

// `deny` rather than `forbid`: the SHA-256 module opts a single
// runtime-feature-gated intrinsics path (SHA-NI) back in with a scoped
// `#[allow(unsafe_code)]`. Everything else in the crate stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod fxhash;
pub mod hex;
pub mod keys;
pub mod schnorr61;
pub mod sha256;

pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use keys::{
    verify_batch, verify_batch_by, Keypair, NodeId, PublicKey, Scheme, Signature, PUBLIC_KEY_LEN,
    SIGNATURE_LEN, SIGNATURE_PADDING, SIGNATURE_STORED_LEN,
};
pub use sha256::{sha256, sha256_concat, Digest, Sha256, DIGEST_LEN};
