//! Shared drivers for live-cluster test tiers.
//!
//! The loopback and live-matrix tiers in `crates/node/tests` both follow
//! the same shape: launch a [`ProcessCluster`], scrape it every few
//! hundred milliseconds while caller-scheduled actions fire at wall
//! cycles, audit every scrape with the per-node oracles, and run the
//! full suite on the quiescent end state. This module holds that shape
//! so each tier only writes its scenario. The `sc-node` binary path
//! cannot live here — `env!("CARGO_BIN_EXE_sc-node")` resolves only in
//! that crate's own tests — so callers pass it to
//! [`ProcessCluster::launch`] themselves.
//!
//! Replay: everything is parameterized by one seed (`SC_NODE_SEED`); the
//! caller builds the replay line with [`replay_line`] and every panic
//! carries it.

use crate::harness::ProcessCluster;
use crate::oracles::OracleSuite;
use crate::scenario::OracleConfig;
use crate::snapshot::NetSnapshot;
use sc_node::StatusReport;
use std::time::{Duration, Instant};

/// The run seed: `SC_NODE_SEED` if set, else 1.
pub fn env_seed() -> u64 {
    std::env::var("SC_NODE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// The command line that reruns the identical cluster, printed on every
/// failure. `test_file` is the integration-test name (`--test <file>`).
pub fn replay_line(test_file: &str, seed: u64, extra: &str) -> String {
    format!(
        "SC_NODE_SEED={seed} cargo test --release -p sc-node --test {test_file} -- --nocapture{extra}"
    )
}

/// Per-scrape oracles that are sound on torn (non-atomic) live snapshots:
/// each node's report is taken at a turn boundary, so per-node checks
/// hold exactly; cross-node checks wait for quiescence.
pub fn per_scrape_oracles() -> OracleConfig {
    OracleConfig {
        warmup: 0,
        stride: 1,
        view_invariants: true,
        unique_ownership: false,
        max_indegree: None,
        blacklist_monotone: true,
        final_connectivity: None,
        final_min_fill: None,
        expect_detection: None,
        // The daemon runs the default redemption-cache cap; the bound is
        // cycle-independent, so it is sound on live scrapes too.
        redemption_bound: Some(sc_core::node::REDEMPTION_CACHE_MAX_ENTRIES),
        // Byte budgets are keyed to protocol cycles, which live scrape
        // steps are not — the simulated matrix covers that axis.
        byte_budget_per_cycle: None,
    }
}

/// The full suite for the quiescent end-of-run snapshot.
pub fn final_oracles(view_len: usize, connectivity: f64) -> OracleConfig {
    OracleConfig {
        warmup: 0,
        stride: 1,
        view_invariants: true,
        unique_ownership: true,
        max_indegree: Some(4 * view_len), // 4×ℓ, the matrix convention
        blacklist_monotone: true,
        final_connectivity: Some(connectivity),
        final_min_fill: Some(0.5),
        expect_detection: None,
        redemption_bound: Some(sc_core::node::REDEMPTION_CACHE_MAX_ENTRIES),
        byte_budget_per_cycle: None,
    }
}

/// What a driven run left behind.
pub struct RunOutcome {
    /// Raw quiescent reports — the snapshot below is built from these,
    /// and they additionally carry the transport counters.
    pub reports: Vec<StatusReport>,
    /// Snapshot built from those reports.
    pub final_snap: NetSnapshot,
    /// One stdout summary line per member that exited cleanly.
    pub summaries: Vec<String>,
    /// Scrapes that produced a complete snapshot.
    pub scrapes: u64,
}

/// Drives a cluster from launch to quiescent shutdown: periodic scrapes
/// with per-node oracles, plus caller-scheduled actions keyed by the
/// shared wall cycle.
///
/// # Panics
///
/// On any oracle violation, or if a member stops answering control
/// scrapes after the stop boundary — both panics carry `replay`.
pub fn drive(
    cluster: &mut ProcessCluster,
    name: &str,
    stop_cycle: u64,
    view_len: usize,
    replay: &str,
    mut at_cycle: impl FnMut(&mut ProcessCluster, u64),
) -> RunOutcome {
    let mut suite = OracleSuite::with_replay(
        name,
        cluster.seed(),
        per_scrape_oracles(),
        view_len,
        replay.into(),
    );
    let mut step = 0u64;
    while cluster.wall_cycle() < stop_cycle {
        at_cycle(cluster, cluster.wall_cycle());
        if let Some(snap) = cluster.snapshot() {
            if let Err(v) = suite.check_snapshot(&snap, step) {
                panic!("live per-scrape oracle failed: {v}");
            }
            step += 1;
        }
        std::thread::sleep(Duration::from_millis(200));
    }
    // Slack for in-flight exchanges at the stop boundary to settle, then
    // scrape the quiescent cluster (retrying: a member may be serving
    // another RPC at the first attempt).
    std::thread::sleep(Duration::from_millis(400));
    let deadline = Instant::now() + Duration::from_secs(10);
    let reports = loop {
        let reports = cluster.statuses();
        if reports.len() == cluster.addrs().len() {
            break reports;
        }
        assert!(
            Instant::now() < deadline,
            "a member died or stopped answering control scrapes\n  replay: {replay}"
        );
        std::thread::sleep(Duration::from_millis(100));
    };
    let final_snap = NetSnapshot::from_reports(reports.clone());
    let summaries = cluster.shutdown_all();
    RunOutcome {
        reports,
        final_snap,
        summaries,
        scrapes: step,
    }
}

/// Runs the full oracle suite over a quiescent snapshot.
///
/// # Panics
///
/// On any oracle violation, carrying the replay line.
pub fn check_final(
    snap: &NetSnapshot,
    name: &str,
    seed: u64,
    view_len: usize,
    floor: f64,
    replay: &str,
) {
    let mut suite = OracleSuite::with_replay(
        name,
        seed,
        final_oracles(view_len, floor),
        view_len,
        replay.into(),
    );
    if let Err(v) = suite.check_snapshot(snap, 0) {
        panic!("quiescent-state oracle failed: {v}");
    }
    if let Err(v) = suite.check_snapshot_final(snap) {
        panic!("end-of-run oracle failed: {v}");
    }
}
