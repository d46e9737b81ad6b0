//! The live fault matrix: real `sc-node` processes under deterministic
//! fault injection, audited by the same invariant oracles as the
//! simulated scenario matrix.
//!
//! Where the loopback tier proves the daemon works on a clean wire, this
//! tier ports the catalog's adversity axes — symmetric message loss,
//! partition with heal, loss under churn — onto real sockets through the
//! [`sc_node::FaultTransport`] layer. Faults arrive three ways, one per
//! test, covering every injection path: a `CtrlFault` broadcast mid-run,
//! a targeted per-member sever/heal, and the `--fault-spec` boot flag.
//!
//! Every injection decision derives from the printed seed
//! (`SC_NODE_SEED` convention), so a failing run replays with the same
//! drops, delays, and duplicates:
//!
//! ```text
//! SC_NODE_SEED=1 cargo test --release -p sc-node --test live_matrix -- --nocapture
//! ```
//!
//! Wall-clock scheduling is the remaining non-deterministic input, which
//! is why assertions are floors and protocol invariants plus the
//! injected-fault counters proving the faults actually fired — never
//! exact trajectories.

use sc_core::Addr;
use sc_core::FaultSpec;
use sc_testkit::live::{check_final, drive, env_seed};
use sc_testkit::{ClusterConfig, ProcessCluster};
use std::time::Duration;

fn replay_line(seed: u64, extra: &str) -> String {
    sc_testkit::live::replay_line("live_matrix", seed, extra)
}

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_sc-node")
}

/// Quick-tier sizing with the debug-build clock slowdown the loopback
/// tier uses: slow the shared schedule, never weaken oracles or floors.
fn quick_cfg(n: usize, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::quick(n, seed);
    if cfg!(debug_assertions) {
        cfg.cycle_ms = 200;
    }
    cfg
}

/// Symmetric message loss at wire speed: every member drops ~12% of
/// inbound gossip frames (each frame crosses exactly one inbound filter,
/// so this is ~12% symmetric link loss). The spec lands mid-run through
/// a `CtrlFault` broadcast; the cluster must stay connected — the §IV-B
/// retransmission path resending the *same* request inside its deadline
/// is what keeps exchange completion up.
#[test]
fn live_cluster_rides_out_symmetric_loss() {
    let seed = env_seed();
    let replay = replay_line(seed, "");
    println!("replay: {replay}");

    let n = 12;
    let mut cfg = quick_cfg(n, seed);
    let start = cfg.view_len as u64;
    let stop = start + 36;
    cfg.stop_cycle = stop;
    let view_len = cfg.view_len;
    let mut cluster = ProcessCluster::launch(bin(), cfg).expect("spawn cluster");

    assert!(
        cluster.wait_cycle(start + 4, Duration::from_secs(20)),
        "cluster never started gossiping\n  replay: {replay}"
    );

    let loss = FaultSpec {
        seed,
        drop_in: 0.12,
        ..FaultSpec::default()
    };
    let mut injected = false;
    let out = drive(
        &mut cluster,
        "live-loss",
        stop,
        view_len,
        &replay,
        |cluster, cycle| {
            if !injected && cycle >= start + 8 {
                let acked = cluster.broadcast_fault(&loss);
                assert_eq!(acked, n, "every member acks the fault spec");
                injected = true;
            }
        },
    );
    assert!(injected, "fault broadcast never fired");

    let dropped: u64 = out
        .reports
        .iter()
        .map(|r| r.transport.frames_dropped_injected)
        .sum();
    assert!(
        dropped > 0,
        "loss spec installed but no frame was ever dropped\n  replay: {replay}"
    );
    let retransmits: u64 = out.reports.iter().map(|r| r.retransmits).sum();
    assert!(
        retransmits > 0,
        "12% loss but the retransmission path never fired\n  replay: {replay}"
    );

    let snap = &out.final_snap;
    assert_eq!(snap.nodes.len(), n, "final membership\n  replay: {replay}");
    check_final(snap, "live-loss", seed, view_len, 0.85, &replay);

    println!(
        "live-loss: {n} nodes, {} scrapes, {dropped} frames dropped, \
         {retransmits} retransmits, final component {}/{}",
        out.scrapes,
        sc_testkit::largest_component(snap).0,
        snap.nodes.len(),
    );
}

/// A full partition that outlasts the descriptor lifetime, then heals —
/// with no harness re-sponsorship. One member is severed from everyone
/// (both directions, at its own transport); its links all die redeeming
/// toward unreachable creators, it drains to starvation, and after the
/// sever is lifted it must re-enter through the protocol's own §V-A
/// rejoin pings. The runner never heals it: recovery is in-protocol or
/// the test fails.
#[test]
fn live_partition_heals_in_protocol() {
    let seed = env_seed();
    let replay = replay_line(seed, "");
    println!("replay: {replay}");

    let n = 12;
    let mut cfg = quick_cfg(n, seed);
    let start = cfg.view_len as u64;
    let sever_at = start + 4;
    let heal_at = start + 20; // 16 severed cycles ≫ descriptor lifetime ℓ
    let stop = start + 40;
    cfg.stop_cycle = stop;
    let view_len = cfg.view_len;
    let mut cluster = ProcessCluster::launch(bin(), cfg).expect("spawn cluster");
    let base = cluster.addrs()[0];
    let victim = base + (n as Addr) - 1;
    let others: Vec<Addr> = cluster
        .addrs()
        .into_iter()
        .filter(|&a| a != victim)
        .collect();

    assert!(
        cluster.wait_cycle(start + 2, Duration::from_secs(20)),
        "cluster never started gossiping\n  replay: {replay}"
    );

    let sever = FaultSpec {
        seed,
        severed: others,
        ..FaultSpec::default()
    };
    let mut severed = false;
    let mut healed = false;
    let mut starved_seen = false;
    let out = drive(
        &mut cluster,
        "live-partition",
        stop,
        view_len,
        &replay,
        |cluster, cycle| {
            if !severed && cycle >= sever_at {
                assert!(
                    cluster.set_fault(victim, &sever),
                    "victim never acked the sever (control frames are exempt)"
                );
                severed = true;
            }
            if severed && !healed {
                // The control channel still answers through the partition;
                // watch the victim drain. Starvation is irreversible while
                // severed, so one sighting is proof.
                if let Some(r) = cluster.status_of(victim) {
                    if r.view.is_empty() && r.reserve.is_empty() {
                        starved_seen = true;
                    }
                }
            }
            if !healed && cycle >= heal_at {
                assert!(
                    cluster.set_fault(
                        victim,
                        &FaultSpec {
                            seed,
                            ..FaultSpec::default()
                        }
                    ),
                    "victim never acked the heal"
                );
                healed = true;
            }
        },
    );
    assert!(severed && healed, "partition phases never fired");
    assert!(
        starved_seen,
        "victim never drained to starvation while severed — the rejoin \
         path was not exercised\n  replay: {replay}"
    );

    let victim_report = out
        .reports
        .iter()
        .find(|r| r.addr == victim)
        .expect("victim report");
    assert!(
        victim_report.transport.frames_dropped_injected > 0,
        "sever installed but no frame was cut\n  replay: {replay}"
    );
    assert!(
        victim_report.stats.rejoin_pings > 0,
        "starved victim never sent a §V-A rejoin ping\n  replay: {replay}"
    );
    let grants: u64 = out.reports.iter().map(|r| r.stats.rejoin_grants).sum();
    assert!(
        grants > 0,
        "no member granted the victim a rejoin sponsorship\n  replay: {replay}"
    );
    assert!(
        victim_report.joined && !victim_report.view.is_empty(),
        "victim did not reconnect in-protocol after the heal\n  replay: {replay}"
    );

    let snap = &out.final_snap;
    assert_eq!(snap.nodes.len(), n, "final membership\n  replay: {replay}");
    check_final(snap, "live-partition", seed, view_len, 0.9, &replay);

    println!(
        "live-partition: {n} nodes, {} scrapes, victim {victim} cut \
         {} frames, {} rejoin pings, {grants} grants, final component {}/{}",
        out.scrapes,
        victim_report.transport.frames_dropped_injected,
        victim_report.stats.rejoin_pings,
        sc_testkit::largest_component(snap).0,
        snap.nodes.len(),
    );
}

/// Loss, delay-reorder, and duplication from boot (`--fault-spec` on
/// every member's command line), plus real churn: a member is killed
/// mid-run and a fresh identity rejoins through the §V-A sponsorship
/// handshake — all under a degraded wire. Duplicated requests land on
/// the daemon's idempotent reply cache; delayed frames exercise the
/// bounded-reorder release queue.
#[test]
fn live_cluster_survives_loss_with_churn() {
    let seed = env_seed();
    let replay = replay_line(seed, "");
    println!("replay: {replay}");

    let n = 12;
    let mut cfg = quick_cfg(n, seed);
    let start = cfg.view_len as u64;
    let stop = start + 36;
    cfg.stop_cycle = stop;
    let view_len = cfg.view_len;
    let cfg = cfg.with_fault_spec(FaultSpec {
        seed,
        drop_in: 0.08,
        delay_prob: 0.2,
        delay_max_polls: 3,
        dup_prob: 0.05,
        ..FaultSpec::default()
    });
    let mut cluster = ProcessCluster::launch(bin(), cfg).expect("spawn cluster");
    let base = cluster.addrs()[0];
    let kill_target = base + (n as Addr) - 1;
    let sponsor = base + 1;

    assert!(
        cluster.wait_cycle(start + 4, Duration::from_secs(30)),
        "cluster never started gossiping under the boot fault spec\n  replay: {replay}"
    );

    let mut killed = false;
    let mut joiner: Option<Addr> = None;
    let out = drive(
        &mut cluster,
        "live-loss-churn",
        stop,
        view_len,
        &replay,
        |cluster, cycle| {
            if !killed && cycle >= start + 14 {
                assert!(cluster.kill(kill_target), "kill target already gone");
                killed = true;
            }
            if killed && joiner.is_none() {
                joiner = Some(cluster.spawn_joiner(sponsor).expect("spawn joiner"));
            }
        },
    );
    assert!(killed, "churn never fired");
    let joiner = joiner.expect("joiner spawned");

    let dropped: u64 = out
        .reports
        .iter()
        .map(|r| r.transport.frames_dropped_injected)
        .sum();
    let delayed: u64 = out.reports.iter().map(|r| r.transport.frames_delayed).sum();
    let duplicated: u64 = out
        .reports
        .iter()
        .map(|r| r.transport.frames_duplicated)
        .sum();
    assert!(dropped > 0, "boot spec dropped nothing\n  replay: {replay}");
    assert!(delayed > 0, "boot spec delayed nothing\n  replay: {replay}");
    assert!(
        duplicated > 0,
        "boot spec duplicated nothing\n  replay: {replay}"
    );

    let snap = &out.final_snap;
    assert_eq!(snap.nodes.len(), n, "final membership\n  replay: {replay}");
    let joined = snap.nodes.iter().find(|nd| nd.addr == joiner).unwrap();
    assert!(
        !joined.view.is_empty(),
        "sponsored joiner never acquired a view on a lossy wire\n  replay: {replay}"
    );
    check_final(snap, "live-loss-churn", seed, view_len, 0.85, &replay);

    println!(
        "live-loss-churn: {n} nodes, {} scrapes, {dropped} dropped / \
         {delayed} delayed / {duplicated} duplicated, final component {}/{}",
        out.scrapes,
        sc_testkit::largest_component(snap).0,
        snap.nodes.len(),
    );
}
