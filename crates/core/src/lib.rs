//! # sc-core — SecureCyclon: dependable peer sampling
//!
//! A from-scratch Rust implementation of **SecureCyclon** (Antonov &
//! Voulgaris, IEEE ICDCS 2023), a Byzantine-hardened extension of the
//! Cyclon peer-sampling protocol that *deterministically eliminates* the
//! ability of malicious nodes to over-represent themselves in the overlay.
//!
//! The key idea: node descriptors become unforgeable, unclonable tokens
//! carrying a signed [chain of ownership](descriptor::SecureDescriptor).
//! Minting descriptors too fast or handing the same descriptor to two
//! peers produces two signed artifacts that together form an
//! [indisputable proof](proof::ViolationProof) of the violation; proofs
//! are flooded and the culprit is permanently
//! [blacklisted](blacklist::Blacklist) by every correct node.
//!
//! Module map (paper section in parentheses):
//!
//! * [`descriptor`] — secure descriptors and ownership chains (§IV-A)
//! * [`chain`] — chain compatibility algebra (§IV-B)
//! * [`checks`] — sample cache, frequency + ownership checks (§IV-B)
//! * [`memo`] — bounded memo of verified chains; a library type no node
//!   uses (an honest node verifies what it relies on, every time)
//! * [`proof`] — transferable violation proofs (§IV-B)
//! * [`blacklist`] — proof-backed eviction (§IV-C)
//! * [`view`] — the secure partial view with non-swappable slots (§V-A)
//! * [`redemption`] — the redemption cache (§V-C)
//! * [`machine`] — the sans-IO interface every participant takes its turn
//!   through: [`Machine::step`] maps an [`Input`] to [`Effects`]
//! * [`node`] — the full protocol node with tit-for-tat exchanges (§V-B),
//!   the honest [`Machine`]
//! * [`bootstrap`] — violation-free initial overlays
//! * [`wire`] — wire encoding and the §VI-A message-size model
//! * [`storage`] — durable state backends and crash-restart recovery
//!
//! # Quickstart
//!
//! ```
//! use sc_core::{SecureDescriptor, Timestamp};
//! use sc_crypto::{Keypair, Scheme};
//!
//! // Figure 4 of the paper: A → B → C, with every hop signed.
//! let a = Keypair::from_seed(Scheme::Schnorr61, [1u8; 32]);
//! let b = Keypair::from_seed(Scheme::Schnorr61, [2u8; 32]);
//! let c = Keypair::from_seed(Scheme::Schnorr61, [3u8; 32]);
//! let d = SecureDescriptor::create(&a, 0, Timestamp(0));
//! let d = d.transfer(&a, b.public()).unwrap();
//! let d = d.transfer(&b, c.public()).unwrap();
//! assert!(d.verify().is_ok());
//! assert_eq!(d.owner(), c.public());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A network address ("IP and port" in the paper's model): what a
/// descriptor points at and what effects are routed by. The simulator
/// indexes its node arena with it; the daemon listens on it as a TCP port.
pub type Addr = u32;

pub mod blacklist;
pub mod bootstrap;
pub mod chain;
pub mod checks;
pub mod config;
pub mod descriptor;
pub mod fault;
pub mod machine;
pub mod memo;
pub mod msg;
pub mod node;
pub mod proof;
pub mod redemption;
mod ring;
pub mod storage;
pub mod time;
pub mod view;
pub mod wire;

pub use blacklist::{Blacklist, StoredProof};
pub use bootstrap::{default_phase, ring_bootstrap, BootstrapPlan};
pub use chain::{compare_chains, ChainRelation, CompareError};
pub use checks::{Observation, SampleCache};
pub use config::SecureConfig;
pub use descriptor::{
    ChainLink, DescriptorError, DescriptorId, Genesis, LinkKind, SecureDescriptor,
};
pub use fault::{FaultDecision, FaultDir, FaultSpec, Loss, MsgKind};
pub use machine::{Effects, Flood, Input, Machine};
pub use memo::VerifyMemo;
pub use msg::{
    AcceptBody, JoinGrantBody, JoinPingBody, RequestBody, RoundBody, RoundReplyBody, SecureMsg,
};
pub use node::{Causes, Discard, ProofRecord, Refusal, Rejection, SecureCyclonNode, SecureStats};
pub use proof::{ProofError, ProofKind, ViolationProof};
pub use redemption::RedemptionCache;
pub use storage::{FileBackend, MemoryBackend, PersistentState, StateBackend};
pub use time::Timestamp;
pub use view::{SecureView, ViewEntry};
