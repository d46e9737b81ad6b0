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
//!   turn order (one turn at a time — the only schedule), one round trip
//!   per `rpc` effect within the initiator's turn (for tit-for-tat gossip
//!   exchanges), and batched one-way delivery (for proof flooding) at one
//!   hop per cycle, drained in address order; a hook asked at every step
//!   may crash nodes mid-turn. Its clock is a cycle counter and nothing
//!   finer: the paper measures in cycles (§II-A), and a machine handed a
//!   cycle derives any tick it stamps from its own configuration.
//! * [`Arena`] — index-based node storage: nodes stepped in place,
//!   O(alive) cycle setup, addresses never reused.
//! * [`Machine`] — the trait protocol nodes implement, re-exported from
//!   `sc-core` with its [`Input`] and [`Effects`]: a sans-IO `step`. The
//!   engine is the driver that routes the effects; the same machine runs
//!   unchanged behind a socket.
//! * Per-kind message [`Loss`], decided per link and frame exactly as a
//!   socket's fault filter decides it, plus deterministic [`Partition`]s
//!   with heal support.
//! * [`rng`] — deterministic seed derivation so whole experiments replay
//!   from one `u64`.
//!
//! # Example
//!
//! ```
//! use sc_sim::{Effects, Engine, Input, Machine, SimConfig};
//!
//! struct Counter(u64);
//! impl Machine for Counter {
//!     type Msg = ();
//!     fn step(&mut self, input: Input<()>) -> Effects<()> {
//!         if let Input::Tick { .. } = input {
//!             self.0 += 1;
//!         }
//!         Effects::default()
//!     }
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
pub mod engine;
pub mod net;
pub mod rng;
pub mod stats;

pub use arena::Arena;
pub use engine::{Engine, Point, SimConfig, Step};
pub use net::Partition;
pub use sc_core::{Addr, Effects, Flood, Input, Loss, Machine};
pub use stats::TrafficStats;
