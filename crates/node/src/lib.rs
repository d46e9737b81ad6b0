//! # sc-node — a runnable SecureCyclon daemon
//!
//! Graduates the protocol from in-memory simulation to real sockets: a
//! single-threaded, event-driven daemon over non-blocking `std::net`,
//! running [`sc_core::SecureCyclonNode`] behind a small
//! [`transport::Transport`] trait. Between events the process
//! blocks in `poll(2)` ([`wait`]) until a frame arrives or its next
//! deadline comes; nothing in the crate sleeps and retries. Unix only.
//!
//! * [`frame`] — length-prefixed framing over `wire::encode_message` /
//!   `wire::decode_message`, with per-connection read budgets.
//! * [`transport`] — the `Transport` trait and its TCP implementation
//!   with connect/read timeouts and deterministic retry/backoff.
//! * [`fault`] — a deterministic fault-injecting `Transport` wrapper
//!   (seeded drop/delay/duplication, partitions).
//! * [`control`] — the control-socket status protocol test harnesses
//!   scrape live state through.
//! * [`daemon`] — the event loop: clock-driven gossip cycles, RPC turns
//!   that never stop it serving, the ring bootstrap. A `--sponsor` joiner
//!   enters through the protocol's own §V-A join ping and grant; the
//!   daemon states no handshake of its own.
//! * [`config`] — daemon configuration and the flag parser the `sc-node`
//!   binary uses.
//! * [`wait`] — the one wait primitive everything above blocks in.

// `deny` rather than `forbid`: `wait::wait` opts its one `poll(2)` call
// back in with a function-scoped `#[allow(unsafe_code)]` — the policy
// `sc-crypto` applies to SHA-NI. Everything else in the crate stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(not(unix))]
compile_error!("sc-node blocks in poll(2) (see `wait`): unix targets only");

pub mod config;
pub mod control;
pub mod daemon;
pub mod fault;
pub mod frame;
pub mod transport;
pub mod wait;

pub use config::NodeConfig;
pub use control::{ControlClient, StatusReport};
pub use daemon::Daemon;
pub use fault::FaultTransport;
pub use frame::{Frame, FrameError, FrameKind, FRAME_HEADER_BYTES};
pub use transport::{TcpTransport, Transport};
