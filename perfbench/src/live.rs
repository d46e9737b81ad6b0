//! The live workload: a ring of real `sc-node` processes on loopback
//! TCP with durable state, observed and disturbed from outside.
//!
//! Gossip is schedule-driven (an open loop: a turn that falls behind is
//! counted as skipped, never retried). The benchmark adds a closed-loop
//! operator: one control connection at a time, a fresh connection per
//! scrape, a fixed think time between scrapes.
//!
//! * Phase A, steady: the operator scrapes a rotating member. Every
//!   rate (processor time, bytes, exchanges per node-cycle) is a delta
//!   of the members' own counters between the two ends of this phase.
//! * The members stop gossiping at a shared cycle and linger; the idle
//!   ring's poll loops are watched.
//! * The oracle suite audits the quiescent snapshot.
//! * Phase B, recovery: every member in turn is `kill -9`ed and
//!   respawned from its state log; recovery is timed from the
//!   `restart()` call to the first control answer of the reborn process
//!   (boot, log replay, bind, one status round trip), which must carry
//!   the same identity and an empty blacklist. The ring is quiescent
//!   here on purpose: `kill -9` under live gossip trips rare product
//!   failures (see README), and a benchmark run must not fail at random.

use crate::counts::{indegree_cv, median, quantile, sorted, Counts};
use crate::procfs::{self, ProcSample};
use crate::spec::Metrics;
use crate::trace::Tracer;
use crate::{probes, RunArgs, RunOutput};
use sc_crypto::{NodeId, Scheme};
use sc_node::StatusReport;
use sc_testkit::{check_final, ClusterConfig, NetSnapshot, ProcessCluster};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const MEMBERS: usize = 8;
const VIEW_LEN: usize = 4;
const SWAP_LEN: usize = 2;
const CYCLE_MS: u64 = 50;
/// Operator think time between scrapes.
const THINK: Duration = Duration::from_millis(5);
/// Clusters launched per run; `setup_s` is the median launch time.
const LAUNCHES: usize = 3;
/// How far ahead of the spawns the shared epoch starts.
const START_DELAY_MS: u64 = 300;
/// Typical time from the epoch until every member has fired a turn;
/// only sizes the schedule, phase A ends by the shared clock.
const JOIN_ALLOWANCE_MS: u64 = 100;
/// Cycles before the stop at which phase A ends, so that its closing
/// scrape still sees a gossiping ring.
const CLOSING_CYCLES: u64 = 4;
/// How long the quiescent ring's poll loops are watched.
const IDLE_WATCH: Duration = Duration::from_millis(500);
/// `check_final`'s connectivity floor, as the loopback tests set it.
const CONNECTIVITY_FLOOR: f64 = 0.85;

fn config(seed: u64, state_dir: &Path, stop_cycle: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::quick(MEMBERS, seed).with_state_dir(state_dir);
    cfg.cycle_ms = CYCLE_MS;
    cfg.view_len = VIEW_LEN;
    cfg.swap_len = SWAP_LEN;
    cfg.scheme = "schnorr";
    cfg.stop_cycle = stop_cycle;
    cfg.start_delay_ms = START_DELAY_MS;
    cfg
}

/// Every member's report, or `None` if one did not answer.
fn scrape_all(cluster: &ProcessCluster) -> Option<Vec<StatusReport>> {
    let reports = cluster.statuses();
    (reports.len() == cluster.addrs().len()).then_some(reports)
}

/// Launches a ring and waits until every member has joined and fired a
/// turn. Returns the cluster and the time that took, in nanoseconds.
fn launch(
    args: &RunArgs,
    state_dir: &Path,
    stop_cycle: u64,
) -> Result<(ProcessCluster, u64), String> {
    let started = Instant::now();
    let cluster = ProcessCluster::launch(&args.node_bin, config(args.seed, state_dir, stop_cycle))
        .map_err(|e| format!("launching {}: {e}", args.node_bin.display()))?;
    let deadline = started + Duration::from_secs(15);
    loop {
        if scrape_all(&cluster).is_some_and(|rs| rs.iter().all(|r| r.joined && r.cycles_run >= 1)) {
            return Ok((cluster, started.elapsed().as_nanos() as u64));
        }
        if Instant::now() >= deadline {
            return Err("the ring did not join within 15 s".into());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn counts_of(reports: &[StatusReport]) -> Counts {
    let mut c = Counts::default();
    for r in reports {
        c.add_stats(&r.stats);
    }
    c
}

/// In-degree spread and the share of links that name a member, from
/// one report per member.
fn overlay_quality(reports: &[&StatusReport]) -> (f64, f64) {
    let ids: Vec<NodeId> = reports.iter().map(|r| r.id).collect();
    let links: Vec<NodeId> = reports
        .iter()
        .flat_map(|r| r.view.iter().map(|(d, _)| d.creator()))
        .collect();
    let known = links.iter().filter(|c| ids.contains(c)).count();
    (
        indegree_cv(&ids, links.iter().copied()),
        known as f64 / links.len().max(1) as f64,
    )
}

/// Bytes appended to the members' state logs since the last call. A log
/// that shrank was compacted; what it holds now was written since.
fn log_growth(state_dir: &Path, last: &mut Vec<u64>, addrs: &[u32]) -> u64 {
    last.resize(addrs.len(), 0);
    let mut grown = 0;
    for (slot, addr) in last.iter_mut().zip(addrs) {
        let size = std::fs::metadata(state_dir.join(format!("sc-node-{addr}.log")))
            .map(|m| m.len())
            .unwrap_or(*slot);
        grown += if size >= *slot { size - *slot } else { size };
        *slot = size;
    }
    grown
}

/// What phase A measured: deltas of the members' own counters between
/// its two ends, and what the operator saw in between.
struct Steady {
    elapsed: Duration,
    /// Node-cycles the members fired.
    fired: u64,
    counts: Counts,
    /// The children's processor counters.
    cpu: ProcSample,
    wire_bytes: f64,
    frames: f64,
    retransmits: f64,
    turns_skipped: f64,
    connect_failures: u64,
    peak_conns: u64,
    log_bytes: u64,
    scrape_us: Vec<f64>,
    /// Mean in-degree spread over full rotations of scrapes.
    indegree_cv: f64,
    /// Least share of links naming a ring member.
    member_share_min: f64,
    attempted: u64,
    failed: u64,
}

/// Phase A: the closed-loop operator scrapes a rotating member until
/// `CLOSING_CYCLES` before `stop_cycle`.
fn steady_phase(
    cluster: &ProcessCluster,
    pids: &[u32],
    state_dir: &Path,
    stop_cycle: u64,
    tracer: &mut Tracer,
    span: usize,
) -> Result<Steady, String> {
    let addrs = cluster.addrs();
    let before = scrape_all(cluster).ok_or("a member did not answer before phase A")?;
    let mut log_sizes = Vec::new();
    log_growth(state_dir, &mut log_sizes, &addrs);
    let cpu_before = procfs::sample_all(pids);
    let started = Instant::now();
    let mut scrape_us = Vec::new();
    let mut latest: Vec<Option<StatusReport>> = vec![None; MEMBERS];
    let (mut cv_sum, mut member_share_min, mut rotations) = (0.0, 1.0f64, 0u64);
    let (mut log_bytes, mut failed) = (0u64, 0u64);
    let mut i = 0usize;
    while cluster.wall_cycle() + CLOSING_CYCLES < stop_cycle {
        let s = tracer.now_ns();
        let report = cluster.status_of(addrs[i % MEMBERS]);
        let e = tracer.now_ns();
        tracer.record(format!("scrape[{i}]"), s, e, Some(span), 0);
        match report {
            Some(r) => {
                scrape_us.push((e - s) as f64 / 1e3);
                latest[i % MEMBERS] = Some(r);
            }
            None => failed += 1,
        }
        i += 1;
        if i.is_multiple_of(MEMBERS) {
            if let Some(ring) = latest
                .iter()
                .map(Option::as_ref)
                .collect::<Option<Vec<_>>>()
            {
                let (cv, share) = overlay_quality(&ring);
                cv_sum += cv;
                member_share_min = member_share_min.min(share);
                rotations += 1;
            }
            log_bytes += log_growth(state_dir, &mut log_sizes, &addrs);
        }
        std::thread::sleep(THINK);
    }
    let elapsed = started.elapsed();
    let cpu = procfs::sample_all(pids).since(&cpu_before);
    let after = scrape_all(cluster).ok_or("a member did not answer after phase A")?;

    let grown = |f: fn(&StatusReport) -> u64| {
        after.iter().map(f).sum::<u64>() - before.iter().map(f).sum::<u64>()
    };
    let fired = grown(|r| r.cycles_run);
    if fired == 0 || rotations == 0 {
        return Err("no node-cycle fired during phase A".into());
    }
    Ok(Steady {
        elapsed,
        fired,
        counts: counts_of(&after).since(&counts_of(&before)),
        cpu,
        wire_bytes: grown(|r| r.transport.bytes_out) as f64,
        frames: grown(|r| r.transport.frames_out) as f64,
        retransmits: grown(|r| r.retransmits) as f64,
        turns_skipped: grown(|r| r.turns_skipped) as f64,
        connect_failures: after.iter().map(|r| r.transport.connect_failures).sum(),
        peak_conns: after
            .iter()
            .map(|r| r.transport.peak_conns)
            .max()
            .unwrap_or(0),
        log_bytes,
        scrape_us,
        indegree_cv: cv_sum / rotations as f64,
        member_share_min,
        attempted: i as u64 + 2 * MEMBERS as u64,
        failed,
    })
}

/// Phase B: every member in turn is `kill -9`ed and respawned from its
/// log. Returns the recovery times in milliseconds and how many members
/// never answered again.
fn recovery_phase(
    cluster: &mut ProcessCluster,
    quiescent: &[StatusReport],
    first_victim: usize,
    tracer: &mut Tracer,
    phase_span: usize,
) -> Result<(Vec<f64>, u64), String> {
    let mut recovery_ms = Vec::new();
    let mut failed = 0;
    for j in 0..MEMBERS {
        let before = &quiescent[(first_victim + j) % MEMBERS];
        let victim = before.addr;
        let span = tracer.open(format!("restart[{j}]"), Some(phase_span), 0);
        let call = tracer.open("kill_respawn", Some(span), 0);
        let t = Instant::now();
        let respawned = cluster.restart(victim);
        tracer.close(call);
        let answer = tracer.open("first_answer", Some(span), 0);
        let deadline = t + Duration::from_secs(5);
        let reborn = loop {
            if !matches!(respawned, Ok(true)) || Instant::now() >= deadline {
                break None;
            }
            if let Some(r) = cluster.status_of(victim) {
                break Some(r);
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        tracer.close(answer);
        tracer.close(span);
        match reborn {
            Some(r) if r.id != before.id => {
                return Err(format!("member {victim} came back under another identity"));
            }
            Some(r) if !r.blacklist.is_empty() => {
                return Err(format!("member {victim} came back accusing an honest node"));
            }
            Some(_) => recovery_ms.push(t.elapsed().as_secs_f64() * 1e3),
            None => failed += 1,
        }
    }
    if recovery_ms.is_empty() {
        return Err("no restarted member answered".into());
    }
    Ok((recovery_ms, failed))
}

/// Runs the workload and reports its metrics, or the check that failed.
pub fn run(args: &RunArgs, tracer: &mut Tracer) -> Result<RunOutput, String> {
    let state_root: PathBuf = args.scratch.join(format!("live-{}", std::process::id()));
    let result = run_in(args, tracer, &state_root);
    let _ = std::fs::remove_dir_all(&state_root);
    result
}

fn run_in(args: &RunArgs, tracer: &mut Tracer, state_root: &Path) -> Result<RunOutput, String> {
    let run_span = tracer.open("run", None, 0);
    let phase_a_ms = if args.quick {
        3000
    } else {
        args.seconds * 1000
    };

    // -- set-up: several launches, the last one is measured ---------------
    let stop_after_ms = START_DELAY_MS + JOIN_ALLOWANCE_MS + phase_a_ms;
    let stop_cycle = VIEW_LEN as u64 + stop_after_ms / CYCLE_MS + CLOSING_CYCLES;
    let mut launch_ns = Vec::new();
    let mut kept = None;
    for i in 0..LAUNCHES {
        let last = i == LAUNCHES - 1;
        let dir = state_root.join(format!("launch-{i}"));
        let span = tracer.open("launch", Some(run_span), i);
        let (mut cluster, ns) = launch(args, &dir, if last { stop_cycle } else { 0 })?;
        tracer.close(span);
        launch_ns.push(ns as f64);
        if last {
            kept = Some((cluster, dir));
        } else {
            cluster.shutdown_all();
        }
    }
    let (mut cluster, state_dir) = kept.expect("LAUNCHES is at least 1");
    let pids = procfs::children_named("sc-node");
    if pids.len() != MEMBERS {
        return Err(format!(
            "found {} sc-node children, expected {MEMBERS}",
            pids.len()
        ));
    }

    // -- phase A: steady state under a closed-loop operator -------------
    let a_span = tracer.open("phase_a", Some(run_span), 0);
    let a = steady_phase(&cluster, &pids, &state_dir, stop_cycle, tracer, a_span)?;
    tracer.close(a_span);

    // -- quiescence and the idle ring ------------------------------------
    let q_span = tracer.open("quiesce", Some(run_span), 0);
    while cluster.wall_cycle() < stop_cycle {
        std::thread::sleep(Duration::from_millis(20));
    }
    // In-flight exchanges at the stop boundary settle.
    std::thread::sleep(Duration::from_millis(400));
    let idle_before = procfs::sample_all(&pids);
    std::thread::sleep(IDLE_WATCH);
    let idle = procfs::sample_all(&pids).since(&idle_before);
    let peak_rss_mb = pids
        .iter()
        .filter_map(|&p| procfs::peak_rss_mb(Some(p)))
        .fold(0.0, f64::max);
    tracer.close(q_span);

    // -- the oracle suite on the quiescent snapshot ----------------------
    let check_span = tracer.open("check_final", Some(run_span), 0);
    let reports = scrape_all(&cluster).ok_or("a member stopped answering control scrapes")?;
    let snap = NetSnapshot::from_reports(reports.clone());
    let replay = format!("sc-benchmark --workload live-ring8 --seed {}", args.seed);
    let verdict = std::panic::catch_unwind(|| {
        check_final(
            &snap,
            "live-ring8",
            args.seed,
            VIEW_LEN,
            CONNECTIVITY_FLOOR,
            &replay,
        )
    });
    tracer.close(check_span);
    if verdict.is_err() {
        return Err(
            "the oracle suite rejected the quiescent snapshot (see the panic above)".into(),
        );
    }

    // -- phase B: kill -9 and respawn from the log, member by member -----
    let b_span = tracer.open("phase_b", Some(run_span), 0);
    let first_victim = (args.seed % MEMBERS as u64) as usize;
    let (recovery_ms, unanswered) =
        recovery_phase(&mut cluster, &reports, first_victim, tracer, b_span)?;
    tracer.close(b_span);
    cluster.shutdown_all();
    tracer.close(run_span);

    // -- metrics ----------------------------------------------------------
    let fired = a.fired as f64;
    let setup_s = median(&launch_ns) / 1e9;
    let node_cycle_us = a.elapsed.as_secs_f64() * 1e6 / fired;
    let cpu_us = a.cpu.cpu_ns as f64 / 1e3 / fired;
    let mut m = Metrics::default();
    m.set("node_cycle_us", node_cycle_us);
    m.set("cpu_us_per_node_cycle", cpu_us);
    m.set("peak_rss_mb", peak_rss_mb);
    m.set(
        "paper_bytes_per_node_cycle",
        a.counts.bytes_sent as f64 / fired,
    );
    m.set("exchange_ok_ratio", a.counts.exchange_ok_ratio());
    m.set("indegree_cv", a.indegree_cv);
    m.set("honest_link_share_min", a.member_share_min);
    m.set("setup_s", setup_s);

    if args.traced {
        let scrapes = sorted(&a.scrape_us);
        let recoveries = sorted(&recovery_ms);
        let scheduled = MEMBERS as f64 * a.elapsed.as_secs_f64() * 1000.0 / CYCLE_MS as f64;
        m.set("run.node_cycle_us", node_cycle_us);
        m.set("run.setup_us_per_node", setup_s * 1e6 / MEMBERS as f64);
        a.counts.report(a.fired, &mut m);
        let filled: usize = reports.iter().map(|r| r.view.len()).sum();
        m.set(
            "core.node.view_fill_ratio",
            filled as f64 / (MEMBERS * VIEW_LEN) as f64,
        );
        m.set(
            "proc.minor_faults_per_node_cycle",
            a.cpu.minor_faults as f64 / fired,
        );
        m.set("proc.sys_share", a.cpu.sys_share());
        m.set(
            "proc.voluntary_switches_per_node_cycle",
            a.cpu.voluntary_switches as f64 / fired,
        );
        m.set(
            "node.idle_cpu_ms_per_s",
            idle.cpu_ns as f64 / 1e6 / IDLE_WATCH.as_secs_f64(),
        );
        m.set("node.frames_per_node_cycle", a.frames / fired);
        m.set("node.wire_bytes_per_node_cycle", a.wire_bytes / fired);
        m.set(
            "node.wire_overhead_ratio",
            a.wire_bytes / a.counts.bytes_sent.max(1) as f64,
        );
        m.set("node.log_bytes_per_node_cycle", a.log_bytes as f64 / fired);
        m.set("node.retransmits_per_node_cycle", a.retransmits / fired);
        m.set("node.turns_fired_ratio", fired / scheduled);
        m.set("node.turns_skipped", a.turns_skipped);
        m.set("node.connect_failures", a.connect_failures as f64);
        m.set("node.peak_conns", a.peak_conns as f64);
        m.set(
            "node.boot_ms",
            launch_ns.last().copied().unwrap_or(0.0) / 1e6,
        );
        m.set("node.scrape_us_p50", quantile(&scrapes, 0.5));
        // The highest percentile with at least ten samples beyond it.
        m.set("node.scrape_us_p99", quantile(&scrapes, 0.99));
        m.set("node.scrape_samples", scrapes.len() as f64);
        m.set("node.restart_recovery_ms_p50", quantile(&recoveries, 0.5));
        m.set(
            "node.restart_recovery_ms_max",
            recoveries.last().copied().unwrap_or(0.0),
        );

        let chain_lens: Vec<usize> = reports
            .iter()
            .flat_map(|r| r.view.iter().map(|(d, _)| d).chain(r.reserve.iter()))
            .map(|d| d.transfer_count())
            .collect();
        let probe_span = tracer.open("probes", None, 0);
        probes::run_all(
            probes::ProbeInput {
                scheme: Scheme::Schnorr61,
                chain_lens: &chain_lens,
                view_len: VIEW_LEN,
                quick: args.quick,
                scratch: &args.scratch,
            },
            tracer,
            Some(probe_span),
            &mut m,
        )
        .map_err(|e| format!("layer probes could not use the scratch directory: {e}"))?;
        tracer.close(probe_span);

        // Per node-cycle: the protocol work a simulated node does, plus
        // each exchange's two large messages through the codec on both
        // ends, plus the cycle's durable records.
        let unit = |name: &str| m.get(name).unwrap_or(0.0);
        let per_cycle = |v: u64| v as f64 / fired;
        let explained = per_cycle(a.counts.transfers_sent) * unit("core.desc.transfer_ns")
            + per_cycle(a.counts.transfers_received) * unit("core.desc.verify_extend_ns")
            + per_cycle(a.counts.samples)
                * (unit("core.desc.verify_memo_ns") + unit("core.desc.clone_ns"))
            + per_cycle(a.counts.initiated)
                * 2.0
                * (unit("core.wire.encode_request_ns") + unit("core.wire.decode_request_ns"))
            + unit("core.storage.file_checkpoint_us") * 1e3
            + (1.0 + per_cycle(a.counts.transfers_sent))
                * unit("core.storage.file_record_us")
                * 1e3;
        let share = explained / (cpu_us * 1e3);
        m.set("attribution.explained_share", share);
        m.set("attribution.unexplained_share", 1.0 - share);
        println!(
            "attribution: unit costs x counts explain {:.1} us of {:.1} us processor time per node-cycle ({:.1} %)",
            explained / 1e3,
            cpu_us,
            100.0 * share
        );
        // Layers this workload does not run, and instruments that only
        // reach into the benchmark's own process.
        m.zero_layers(&["sim.", "attack.", "proc.alloc", "run.cycle_spike", "trace."]);
    }
    Ok(RunOutput {
        metrics: m,
        attempted: a.attempted + MEMBERS as u64,
        failed: a.failed + unanswered,
    })
}
