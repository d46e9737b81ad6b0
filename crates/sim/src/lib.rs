//! # sc-sim — a cycle-driven P2P simulation engine
//!
//! This crate is the workspace's stand-in for PeerNet/PeerSim, the Java
//! simulator the SecureCyclon paper (ICDCS 2023, §VI) evaluates on. It
//! hosts thousands of protocol nodes, drives them in randomized order once
//! per cycle, and models the network faults the paper's repair mechanisms
//! (§V-A) are designed around.
//!
//! Key pieces:
//!
//! * [`Engine`] — the simulator: arena-backed node storage, randomized
//!   turn order (one turn at a time — the only schedule), synchronous
//!   multi-round RPC (for tit-for-tat gossip exchanges), and batched
//!   one-way delivery (for proof flooding) at one hop per cycle, drained
//!   in address order.
//! * [`Arena`] — index-based node storage: pointer-sized node moves,
//!   O(alive) cycle setup, addresses never reused.
//! * [`SimNode`] — the trait protocol nodes implement (active thread, RPC
//!   server, datagram handler).
//! * [`NetworkModel`] — per-direction message-loss probabilities, plus
//!   deterministic [`Partition`]s with heal support.
//! * [`rng`] — deterministic seed derivation so whole experiments replay
//!   from one `u64`.
//!
//! # Example
//!
//! ```
//! use sc_sim::{Engine, SimConfig, SimNode, CycleCtx, NodeCtx, Addr};
//!
//! struct Counter(u64);
//! impl SimNode for Counter {
//!     type Msg = ();
//!     fn on_cycle(&mut self, _ctx: &mut CycleCtx<'_, Self>) { self.0 += 1; }
//!     fn on_rpc(&mut self, _f: Addr, _m: (), _c: &mut NodeCtx<'_, ()>) -> Option<()> { None }
//!     fn on_oneway(&mut self, _f: Addr, _m: (), _c: &mut NodeCtx<'_, ()>) {}
//! }
//!
//! let mut engine = Engine::new(SimConfig::seeded(1));
//! engine.spawn_with(|_| Counter(0));
//! engine.run_cycles(5);
//! assert_eq!(engine.node(0).unwrap().0, 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod clock;
pub mod engine;
pub mod net;
pub mod rng;
pub mod stats;

pub use arena::Arena;
pub use clock::{Clock, DEFAULT_TICKS_PER_CYCLE};
pub use engine::{Addr, CycleCtx, Engine, NodeCtx, RpcOutcome, SimConfig, SimNode};
pub use net::{NetworkModel, Partition};
pub use stats::TrafficStats;
