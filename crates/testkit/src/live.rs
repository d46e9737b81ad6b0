//! The socket tier's runner, and the shared shape of every live test.
//!
//! [`run_scenario_live`] executes a catalog [`Scenario`] on a
//! [`ProcessCluster`] of real `sc-node` processes: the same
//! schedule the simulated runner steps ([`crate::runner`]) makes every
//! draw, its `LiveTier` carries the verbs out over the control socket, and
//! the scenario's own oracles audit the scrapes — per scrape the subset
//! that is sound on torn snapshots, at quiescence all of them. On top of
//! the oracles the runner demands *evidence* that each axis the scenario
//! has was really exercised on the wire, so a run cannot pass because a
//! fault never fired.
//!
//! Underneath is the shape the loopback tier shares ([`drive`],
//! [`check_final`]): launch a cluster, scrape it every few hundred
//! milliseconds while scheduled actions fire at wall cycles, and run the
//! full suite on the quiescent end state. The `sc-node` binary path
//! cannot live here — `env!("CARGO_BIN_EXE_sc-node")` resolves only in
//! that crate's own tests — so callers pass it in.
//!
//! Replay: a run is parameterized by its scenario and one seed
//! (`SC_SCENARIO`, `SC_SEED` — the simulated matrix's coordinates);
//! every panic carries the line that reruns it. Wall-clock scheduling is
//! the one input a seed does not fix, which is why what is asserted is
//! invariants, floors and counters that prove a fault fired — never a
//! trajectory.

use crate::catalog::{honest_oracles, MatrixSize};
use crate::harness::{ClusterConfig, ProcessCluster};
use crate::oracles::OracleSuite;
use crate::runner::{LiveLedger, LiveTier, Schedule};
use crate::scenario::{OracleConfig, Scenario};
use crate::snapshot::NetSnapshot;
use sc_core::FaultSpec;
use sc_node::StatusReport;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The run seed: `SC_SEED` if set, else 1.
pub fn env_seed() -> u64 {
    std::env::var("SC_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// The command line that reruns a live test file under `seed`, printed
/// on every failure. `test_file` is the integration-test name
/// (`--test <file>`).
pub fn replay_line(test_file: &str, seed: u64, extra: &str) -> String {
    format!(
        "SC_SEED={seed} cargo test --release -p sc-node --test {test_file} -- --nocapture{extra}"
    )
}

/// Connectivity a quiescent live cluster is held to where the simulated
/// run demands a single component: wall-clock scheduling can leave the
/// odd member of a dozen a cycle short of its way back.
const LIVE_CONNECTIVITY: f64 = 0.85;

/// The part of a scenario's oracles that is sound on torn (non-atomic)
/// live snapshots: each member's report is taken at a turn boundary, so
/// per-node checks hold exactly; cross-node checks wait for quiescence,
/// and byte budgets are keyed to protocol cycles, which scrapes are not.
pub fn per_scrape_oracles(of: &OracleConfig) -> OracleConfig {
    OracleConfig {
        warmup: 0,
        stride: 1,
        unique_ownership: false,
        max_indegree: None,
        final_connectivity: None,
        final_min_fill: None,
        expect_detection: None,
        byte_budget_per_cycle: None,
        ..*of
    }
}

/// A scenario's oracles for the quiescent end-of-run snapshot:
/// everything but the byte budget, with connectivity held to
/// 0.85 at most.
pub fn final_oracles(of: &OracleConfig) -> OracleConfig {
    OracleConfig {
        warmup: 0,
        stride: 1,
        final_connectivity: of.final_connectivity.map(|f| f.min(LIVE_CONNECTIVITY)),
        byte_budget_per_cycle: None,
        ..*of
    }
}

/// What a cluster no scenario describes is held to: the catalog's honest
/// oracles at its view length.
fn honest_baseline(view_len: usize) -> OracleConfig {
    let size = MatrixSize {
        view_len,
        ..MatrixSize::live()
    };
    OracleConfig {
        redemption_bound: Some(sc_core::node::REDEMPTION_CACHE_MAX_ENTRIES),
        ..honest_oracles(size, Some(0.5))
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

/// Drives a cluster no scenario describes from launch to quiescent
/// shutdown: periodic scrapes under the honest per-node oracles, plus
/// caller-scheduled actions keyed by the shared wall cycle.
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
    at_cycle: impl FnMut(&mut ProcessCluster, u64),
) -> RunOutcome {
    let oracles = per_scrape_oracles(&honest_baseline(view_len));
    let suite = OracleSuite::with_replay(name, cluster.seed(), oracles, view_len, replay.into());
    drive_under(cluster, suite, stop_cycle, replay, at_cycle)
}

fn drive_under(
    cluster: &mut ProcessCluster,
    mut suite: OracleSuite,
    stop_cycle: u64,
    replay: &str,
    mut at_cycle: impl FnMut(&mut ProcessCluster, u64),
) -> RunOutcome {
    // Actions are offered every cycle, so one lands within a cycle of
    // when it falls due; a scrape is a dozen round trips, taken every
    // few cycles.
    let scrape_every = Duration::from_millis(200);
    let mut next_scrape = Instant::now();
    let mut step = 0u64;
    while cluster.wall_cycle() < stop_cycle {
        at_cycle(cluster, cluster.wall_cycle());
        if Instant::now() >= next_scrape {
            next_scrape = Instant::now() + scrape_every;
            if let Some(snap) = cluster.snapshot() {
                if let Err(v) = suite.check_snapshot(&snap, step) {
                    panic!("live per-scrape oracle failed: {v}");
                }
                step += 1;
            }
        }
        std::thread::sleep(cluster.cycle().min(scrape_every));
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

/// Runs the honest oracle suite over the quiescent snapshot of a cluster
/// no scenario describes, with connectivity held to `floor`.
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
    let oracles = OracleConfig {
        final_connectivity: Some(floor),
        ..final_oracles(&honest_baseline(view_len))
    };
    check_quiescent(
        snap,
        OracleSuite::with_replay(name, seed, oracles, view_len, replay.into()),
    );
}

fn check_quiescent(snap: &NetSnapshot, mut suite: OracleSuite) {
    if let Err(v) = suite.check_snapshot(snap, 0) {
        panic!("quiescent-state oracle failed: {v}");
    }
    if let Err(v) = suite.check_snapshot_final(snap) {
        panic!("end-of-run oracle failed: {v}");
    }
}

/// The command line that reruns one `(scenario, seed)` pair of the live
/// fault matrix.
pub fn live_replay(scenario: &str, seed: u64) -> String {
    format!(
        "SC_SCENARIO='{scenario}' {}",
        replay_line("live_matrix", seed, "")
    )
}

/// Runs one scenario under one seed on real `sc-node` processes (`bin`),
/// one a node: step `s` of the scenario falls due when the cluster's
/// shared wall clock reaches cycle `ℓ + s` (the ring bootstrap spans the
/// first ℓ cycles, as in the engine), and the members stop gossiping at
/// `ℓ + cycles` for the quiescent scrape.
///
/// # Panics
///
/// If [`Scenario::live_fit`] refuses the scenario; on any oracle
/// violation; if the cluster cannot be brought up or a member stops
/// answering; and if an axis the scenario has left no evidence on the
/// wire — loss that dropped nothing, an islander that never starved or
/// never came back, a joiner without a view, a restarted member under
/// another identity or on a blacklist. Every panic carries the replay
/// line.
pub fn run_scenario_live(bin: impl Into<PathBuf>, scenario: &Scenario, seed: u64) -> RunOutcome {
    if let Err(reason) = scenario.live_fit() {
        panic!(
            "scenario '{}' does not fit the live tier: {reason}",
            scenario.name
        );
    }
    let replay = live_replay(&scenario.name, seed);
    let view_len = scenario.cfg.view_len;
    let start = view_len as u64;
    let stop = start + scenario.cycles;

    let mut cfg = ClusterConfig::quick(scenario.n, seed);
    cfg.view_len = view_len;
    cfg.swap_len = scenario.cfg.swap_len;
    cfg.stop_cycle = stop;
    // A debug binary cannot hold the release-tuned schedule; slow the
    // shared clock, never the oracles or the floors.
    if cfg!(debug_assertions) {
        cfg.cycle_ms = 200;
    }
    let mut ledger = LiveLedger {
        loss: scenario.loss,
        ..LiveLedger::default()
    };
    if !ledger.loss.is_none() {
        cfg.fault_spec = Some(FaultSpec {
            seed,
            loss: ledger.loss,
            ..FaultSpec::default()
        });
    }
    let state_dir = scenario.durable.then(|| {
        let dir = std::env::temp_dir().join(format!(
            "sc-live-{}-{seed}-{}",
            scenario.name,
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("create state dir");
        dir
    });
    cfg.state_dir = state_dir.clone();

    let mut cluster = ProcessCluster::launch(bin, cfg).expect("spawn cluster");
    assert!(
        cluster.wait_cycle(start + 2, Duration::from_secs(30)),
        "cluster never started gossiping\n  replay: {replay}"
    );

    let mut schedule = Schedule::new(scenario, seed);
    let mut next_step = 0u64;
    let suite = OracleSuite::with_replay(
        &scenario.name,
        seed,
        per_scrape_oracles(&scenario.oracles),
        view_len,
        replay.clone(),
    );
    let out = drive_under(&mut cluster, suite, stop, &replay, |cluster, cycle| {
        let mut tier = LiveTier {
            cluster,
            ledger: &mut ledger,
            seed,
            replay: &replay,
        };
        while next_step < scenario.cycles && start + next_step <= cycle {
            schedule.step(&mut tier, next_step);
            next_step += 1;
        }
    });
    assert!(
        next_step > schedule.last_step(),
        "the run ended at step {next_step}, before the schedule did\n  replay: {replay}"
    );

    check_quiescent(
        &out.final_snap,
        OracleSuite::with_replay(
            &scenario.name,
            seed,
            final_oracles(&scenario.oracles),
            view_len,
            replay.clone(),
        ),
    );
    demand_evidence(scenario, &ledger, &out.reports, &replay);
    if let Some(dir) = state_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    out
}

/// What the oracles cannot see: that each axis the scenario has was
/// exercised on the wire. Members that did not survive the run owe
/// nothing.
fn demand_evidence(
    scenario: &Scenario,
    ledger: &LiveLedger,
    reports: &[StatusReport],
    replay: &str,
) {
    let demand = |held: bool, what: String| {
        assert!(held, "{}: {what}\n  replay: {replay}", scenario.name);
    };
    let survivor = |addr| reports.iter().find(|r| r.addr == addr);
    let total = |counter: fn(&StatusReport) -> u64| reports.iter().map(counter).sum::<u64>();

    if scenario.has_loss() {
        let dropped = total(|r| r.transport.frames_dropped_injected);
        demand(dropped > 0, "loss installed, no frame dropped".into());
        // §IV-B: the same request again inside its deadline is what keeps
        // exchanges completing on a lossy wire.
        let resent = total(|r| r.retransmits);
        demand(resent > 0, "frames dropped, none retransmitted".into());
    }

    // An island outlasting the descriptor lifetime drains: every link
    // dies redeeming toward an unreachable creator. A node pings only
    // when starved, so the counter proves the drain without having to
    // catch an empty view in a scrape; nobody but §V-A brought it back.
    for r in ledger.rejoiners.iter().filter_map(|&a| survivor(a)) {
        let who = r.addr;
        demand(
            r.transport.frames_dropped_injected > 0,
            format!("islander {who} was severed but cut no frame"),
        );
        demand(
            r.stats.rejoin_pings > 0,
            format!("islander {who} never starved into a §V-A rejoin ping"),
        );
        demand(
            r.joined && !r.view.is_empty(),
            format!("islander {who} did not reconnect in-protocol after the heal"),
        );
    }
    if !ledger.rejoiners.is_empty() {
        let grants = total(|r| r.stats.rejoin_grants);
        demand(
            grants > 0,
            "nobody granted an islander a sponsorship".into(),
        );
    }

    for r in ledger.joiners.iter().filter_map(|&a| survivor(a)) {
        let who = r.addr;
        demand(
            !r.view.is_empty(),
            format!("sponsored joiner {who} never acquired a view"),
        );
    }

    for &(addr, before) in &ledger.restarted {
        let Some(reborn) = survivor(addr) else {
            continue;
        };
        demand(
            reborn.id == before,
            format!("member {addr} lost its identity across the restart"),
        );
        let accuser = reports.iter().find(|r| r.blacklist.contains(&before));
        demand(
            accuser.is_none(),
            format!("a member holds a proof against restarted member {addr}"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::standard_matrix;

    #[test]
    fn live_oracles_are_the_scenarios_own() {
        for sc in standard_matrix(MatrixSize::live()) {
            let of = sc.oracles;
            // Per scrape: the per-node oracles as stated, nothing else.
            let scrape = per_scrape_oracles(&of);
            let per_node = OracleConfig {
                view_invariants: of.view_invariants,
                blacklist_monotone: of.blacklist_monotone,
                redemption_bound: of.redemption_bound,
                ..per_scrape_oracles(&OracleConfig::default())
            };
            assert_eq!(scrape, per_node, "{}", sc.name);
            assert!(!scrape.unique_ownership && scrape.max_indegree.is_none());
            // At quiescence: all of them but the cycle-keyed byte budget,
            // from the first snapshot on, connectivity at 0.85 at most.
            let end = final_oracles(&of);
            let stated = OracleConfig {
                warmup: 0,
                byte_budget_per_cycle: None,
                final_connectivity: of.final_connectivity.map(|_| LIVE_CONNECTIVITY),
                ..of
            };
            assert_eq!(end, stated, "{}", sc.name);
        }
        // A cluster no scenario describes: what the hand copy listed.
        let of = honest_baseline(4);
        assert!(of.unique_ownership && of.redemption_bound.is_some());
        assert_eq!((of.max_indegree, of.final_min_fill), (Some(16), Some(0.5)));
    }
}
