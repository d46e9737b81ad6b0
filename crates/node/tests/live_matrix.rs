//! The live fault matrix: the scenario catalog of the simulated matrix
//! (`tests/scenario_matrix.rs`), executed on real `sc-node` processes.
//!
//! One loop over `standard_matrix(MatrixSize::live())` — 12 processes a
//! cluster, ℓ = 6, 96 cycles — hands every scenario that fits the socket
//! tier to `sc_testkit::live::run_scenario_live`: the same schedule and
//! the same seeded draws as the simulated runner, carried out with
//! `kill`, `restart`, sponsored joiners and `FaultSpec`s, audited by the
//! scenario's own oracles plus the evidence that each of its axes fired.
//! A scenario the tier cannot express yet is skipped by name, with the
//! reason `Scenario::live_fit` gives. Same coordinates as the simulated
//! matrix, and every failure prints them:
//!
//! ```text
//! SC_SCENARIO=honest-island-rejoin SC_SEED=1 \
//!     cargo test --release -p sc-node --test live_matrix -- --nocapture
//! ```
//!
//! What no `Scenario` can state — inbound delay and reorder, outbound
//! duplication — keeps one hand-written test below.

use sc_core::{FaultSpec, Loss};
use sc_testkit::live::{check_final, drive, env_seed, replay_line, run_scenario_live};
use sc_testkit::{standard_matrix, ClusterConfig, MatrixSize, ProcessCluster};
use std::time::Duration;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_sc-node")
}

#[test]
fn live_matrix_runs_the_catalog() {
    let seed = env_seed();
    let only = std::env::var("SC_SCENARIO").ok().filter(|v| !v.is_empty());
    let mut matched = 0;
    for sc in standard_matrix(MatrixSize::live()) {
        if only.as_deref().is_some_and(|name| name != sc.name) {
            continue;
        }
        matched += 1;
        if let Err(reason) = sc.live_fit() {
            println!("skip {}: {reason}", sc.name);
            continue;
        }
        let out = run_scenario_live(bin(), &sc, seed);
        let sum =
            |f: &dyn Fn(&sc_node::StatusReport) -> u64| -> u64 { out.reports.iter().map(f).sum() };
        println!(
            "ok   {:<22} seed {seed}: {} alive, {} scrapes, component {}/{}, \
             {} frames dropped, {} retransmits, {} rejoin pings, {} grants",
            sc.name,
            out.reports.len(),
            out.scrapes,
            sc_testkit::largest_component(&out.final_snap).0,
            out.final_snap.nodes.len(),
            sum(&|r| r.transport.frames_dropped_injected),
            sum(&|r| r.retransmits),
            sum(&|r| r.stats.rejoin_pings),
            sum(&|r| r.stats.rejoin_grants),
        );
    }
    assert!(matched > 0, "no catalog scenario is named {only:?}");
}

/// The wire faults no scenario states. Every member boots with
/// `--fault-spec delay=0.2:3,dup=0.05`: delayed frames go through the
/// bounded-reorder release queue, duplicated requests land on the
/// daemon's idempotent reply cache — answered byte for byte, never run
/// twice, or the quiescent ownership oracles would see the second run.
#[test]
fn live_cluster_rides_out_delay_and_duplication() {
    let seed = env_seed();
    let replay = replay_line("live_matrix", seed, "");
    println!("replay: {replay}");

    let n = 12;
    let mut cfg = ClusterConfig::quick(n, seed);
    if cfg!(debug_assertions) {
        cfg.cycle_ms = 200;
    }
    let start = cfg.view_len as u64;
    let stop = start + 30;
    cfg.stop_cycle = stop;
    let view_len = cfg.view_len;
    let cfg = cfg.with_fault_spec(FaultSpec {
        seed,
        delay_prob: 0.2,
        delay_max_polls: 3,
        dup_prob: 0.05,
        ..FaultSpec::default()
    });
    let mut cluster = ProcessCluster::launch(bin(), cfg).expect("spawn cluster");
    assert!(
        cluster.wait_cycle(start + 2, Duration::from_secs(30)),
        "cluster never started gossiping under the boot fault spec\n  replay: {replay}"
    );

    // The grammar is stricter than the fields: a spec that does not parse
    // is never acknowledged, and never installed.
    let out_of_range = FaultSpec {
        loss: Loss {
            request: 2.0,
            ..Loss::default()
        },
        ..FaultSpec::default()
    };
    assert!(
        !cluster.set_fault(cluster.addrs()[0], &out_of_range),
        "a member acknowledged fault spec '{out_of_range}'"
    );

    let out = drive(
        &mut cluster,
        "live-delay-dup",
        stop,
        view_len,
        &replay,
        |_, _| {},
    );

    let delayed: u64 = out.reports.iter().map(|r| r.transport.frames_delayed).sum();
    let duplicated: u64 = out
        .reports
        .iter()
        .map(|r| r.transport.frames_duplicated)
        .sum();
    assert!(delayed > 0, "boot spec delayed nothing\n  replay: {replay}");
    assert!(
        duplicated > 0,
        "boot spec duplicated nothing\n  replay: {replay}"
    );
    let snap = &out.final_snap;
    assert_eq!(snap.nodes.len(), n, "final membership\n  replay: {replay}");
    check_final(snap, "live-delay-dup", seed, view_len, 0.85, &replay);
    println!(
        "live-delay-dup: {n} nodes, {} scrapes, {delayed} delayed / {duplicated} duplicated, \
         final component {}/{}",
        out.scrapes,
        sc_testkit::largest_component(snap).0,
        snap.nodes.len(),
    );
}
