//! # sc-testkit — deterministic adversarial scenario harness
//!
//! The paper's evaluation (§VI) and its security argument (§IV–V) only
//! hold *under adversity*: churn, asymmetric message loss, partitions,
//! and Byzantine fractions. This crate turns each of those claims into a
//! reproducible, seed-replayable test, FoundationDB-style:
//!
//! * [`net`] — the mixed honest/malicious network builder (moved here
//!   from `sc-attacks` so adversaries, experiments, and scenarios all run
//!   on the one real `sc-sim` engine), plus sponsored joins for churn and
//!   the metric helpers behind the paper's figures.
//! * [`scenario`] — the declarative [`Scenario`] builder composing loss,
//!   [partitions and heal events](sc_sim::Partition), churn windows,
//!   catastrophic failures, and `sc-attacks` adversaries.
//! * [`oracles`] — protocol invariants checked every cycle (unique live
//!   ownership, bounded in-degree, blacklist monotonicity + no false
//!   accusations, view conservation) and at run end (post-heal
//!   convergence, eventual adversary detection). The first violation
//!   reports scenario, seed, and cycle, and prints the one-command
//!   replay.
//! * [`snapshot`] — the uniform state shape the oracles check, producible
//!   from a simulated engine *or* from live `sc-node` control-socket
//!   scrapes, so real processes are held to the same invariants.
//! * [`harness`] — spawns, scrapes, churns, and stops fleets of real
//!   `sc-node` processes on 127.0.0.1 for the loopback test tier.
//! * [`live`] — the socket tier: [`run_scenario_live`] executes a
//!   catalog scenario on real `sc-node` processes, on top of the
//!   scrape-audit loop and quiescent final checks the loopback tier
//!   shares.
//! * [`runner`] — deterministic execution of a `(Scenario, seed)` pair,
//!   including `kill -9`-style crash-restarts of durably backed nodes;
//!   the one schedule both tiers carry out. [`run_scenario_observed`] is
//!   the simulated run loop, and the paper's figures record their series
//!   through its per-cycle observer.
//! * [`catalog`] — the standard 42-combination scenario matrix swept by
//!   `tests/scenario_matrix.rs`, with a `quick` sizing for CI. Every
//!   scenario carries the redemption-cache bound and §VI-A byte-budget
//!   oracles.
//!
//! # Example
//!
//! ```
//! use sc_testkit::{run_scenario, AdversaryKind, Scenario};
//!
//! let scenario = Scenario::new("doc-hub", 48)
//!     .cycles(40)
//!     .adversary(4, AdversaryKind::Hub, 5)
//!     .oracles(sc_testkit::OracleConfig {
//!         expect_detection: Some(0.9),
//!         final_connectivity: Some(1.0),
//!         ..Default::default()
//!     });
//! let summary = run_scenario(&scenario, 1).expect("oracles hold");
//! assert!(summary.proofs.0 > 0, "cloning was proven");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod harness;
pub mod live;
pub mod net;
pub mod oracles;
pub mod runner;
pub mod scenario;
pub mod snapshot;

pub use catalog::{standard_matrix, MatrixSize, MATRIX_SEEDS};
pub use harness::{ClusterConfig, ProcessCluster};
pub use live::{
    check_final, drive, env_seed, live_replay, replay_line, run_scenario_live, RunOutcome,
};
pub use net::{
    blacklist_coverage, build_secure_network, eclipsed_fraction, malicious_link_fraction,
    ns_link_fraction, proofs_generated, SecureNet, SecureNetParams, SecureNetwork,
};
pub use oracles::{largest_component, largest_honest_component, OracleSuite, Violation};
pub use runner::{
    run_scenario, run_scenario_observed, run_scenario_with_net, state_fingerprint, step_of,
    RunSummary,
};
pub use scenario::{AdversaryKind, ChurnWindow, Event, OracleConfig, Scenario};
pub use snapshot::{NetSnapshot, NodeSnapshot};
