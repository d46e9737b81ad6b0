//! # sc-attacks — the adversary suite of the SecureCyclon evaluation
//!
//! Implements every attack the paper (ICDCS 2023) evaluates, against both
//! the legacy Cyclon baseline and SecureCyclon itself:
//!
//! * [`hub_legacy`] — the hub attack on unprotected legacy Cyclon
//!   (Figure 3), where a handful of colluding nodes take over 100% of the
//!   overlay's links: the attacker and its party's shared roster.
//! * [`party`] — the colluding party's shared state: member keypairs
//!   (forge-on-demand), the descriptor pool, and harvested victim tokens.
//! * [`malicious`] — the malicious SecureCyclon participant with the
//!   paper's attack strategies: hub (Figure 5), link-depletion
//!   (Figure 6), age-targeted cloning (Figure 7), and frequency
//!   violations.
//!
//! Every adversary is a sans-IO [`sc_core::Machine`], like the honest
//! node: `step` maps an input to effects, the exchange an adversary
//! initiates is explicit state between its round trips, and requests are
//! served in any state. Nothing here calls into a simulator, so whatever
//! drives an honest node — `sc-sim`'s engine today — can host its
//! attackers too (`tests/step_machines.rs` steps them by hand, with no
//! engine at all).
//!
//! The mixed honest/malicious networks of both protocols and the figure
//! metrics live in `sc_testkit::net`, where they share one engine path
//! with fault scenarios and invariant oracles — this crate contains only
//! the adversaries themselves.
//!
//! The adversary model follows §II-C: members collude, share all keys and
//! descriptors, choose victims uniformly at random, and do not run any of
//! the protocol's defensive checks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hub_legacy;
pub mod malicious;
pub mod party;

pub use hub_legacy::{LegacyHubAttacker, LegacyParty};
pub use malicious::{CloneEvent, MaliciousSecureNode, SecureAttack};
pub use party::SecureParty;
