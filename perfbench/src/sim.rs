//! The three simulated workloads: one engine, single-threaded, driven
//! cycle by cycle with every cycle timed from outside.
//!
//! A run is deterministic in its seed, so it is repeated and time is
//! taken from the **per-cycle minimum across repetitions**: noise on the
//! bench box (steal, hypervisor page-fault cost) only ever adds time,
//! while the deterministic cost spikes occur in every repetition and
//! survive. The measured window is a fixed number of cycles, so every
//! count the workload reports repeats exactly.

use crate::counts::{indegree_cv, median, Counts};
use crate::procfs::{self, ProcSample};
use crate::spec::Metrics;
use crate::trace::{self, Tracer};
use crate::{probes, RunArgs, RunOutput};
use sc_attacks::SecureAttack;
use sc_core::SecureConfig;
use sc_crypto::{Digest, NodeId, Scheme, Sha256};
use sc_sim::Addr;
use sc_testkit::{
    blacklist_coverage, build_secure_network, malicious_link_fraction, state_fingerprint,
    SecureNet, SecureNetParams, SecureNetwork,
};

/// Networks built per run; `setup_s` is the median build time.
const SETUP_SAMPLES: usize = 9;
/// Share of the population killed, joined and crash-restarted per cycle
/// of the churn workload.
const CHURN_SHARE: f64 = 0.01;
/// Malicious share of honest links below which the overlay counts as
/// purged.
const PURGED_BELOW: f64 = 0.005;

/// Sizing of one simulated workload.
pub struct SimSpec {
    pub n: usize,
    pub n_malicious: usize,
    pub scheme: Scheme,
    /// Honest nodes carry a `MemoryBackend`.
    pub durable: bool,
    /// Kill, join and crash-restart nodes during the window.
    pub churn: bool,
    /// Cycles run before the window; the attack starts at the window.
    pub warmup: u64,
    /// Cycles measured.
    pub window: u64,
    /// Same-seed repetitions: enough of them that together they span a
    /// slow phase of the bench box (tens of seconds).
    pub reps: usize,
    /// Least mean fill of honest views after the window. Under churn the
    /// newest joiners are still filling theirs.
    pub min_view_fill: f64,
}

/// The sizing of `workload` for a `seconds`-long measurement. Windows
/// are sized so that the windows of all repetitions together take about
/// `seconds` on the 2-core reference box.
pub fn spec(workload: &str, seconds: u64, quick: bool) -> Option<SimSpec> {
    let mut spec = match workload {
        // The paper configuration reaches steady state (chain lengths,
        // sample caches, memo hit rate) only after ≈110 cycles.
        "sim-honest" => SimSpec {
            n: 300,
            n_malicious: 0,
            scheme: Scheme::Schnorr61,
            durable: false,
            churn: false,
            warmup: 110,
            window: 7 * seconds,
            reps: 3,
            min_view_fill: 0.9,
        },
        // Figure 5, bottom panel, at half the population.
        "sim-hub40" => SimSpec {
            n: 500,
            n_malicious: 200,
            scheme: Scheme::KeyedHash,
            durable: false,
            churn: false,
            warmup: 50,
            window: 3 * seconds,
            reps: 5,
            min_view_fill: 0.9,
        },
        "sim-churn-durable" => SimSpec {
            n: 400,
            n_malicious: 0,
            scheme: Scheme::KeyedHash,
            durable: true,
            churn: true,
            warmup: 60,
            window: 6 * seconds,
            reps: 4,
            min_view_fill: 0.8,
        },
        _ => return None,
    };
    if quick {
        spec.n = 100;
        spec.n_malicious = spec.n_malicious.min(40);
        spec.warmup = 10;
        spec.window = 20;
        spec.reps = 2;
    }
    Some(spec)
}

fn build(spec: &SimSpec, seed: u64) -> SecureNetwork {
    let attack = if spec.n_malicious > 0 {
        SecureAttack::Hub
    } else {
        SecureAttack::None
    };
    let mut params = SecureNetParams::new(spec.n, spec.n_malicious, attack);
    // §VI-A: ℓ=20, s=3, r=5, tit-for-tat.
    params.cfg = SecureConfig::default();
    // The ring bootstrap ends at cycle ℓ; the attack opens the window.
    params.attack_start = params.cfg.view_len as u64 + spec.warmup;
    params.seed = seed;
    params.scheme = spec.scheme;
    params.durable = spec.durable;
    build_secure_network(params)
}

/// The benchmark's own seeded generator (victim and sponsor choice).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Churn driver: which operations ran, and the counters of nodes whose
/// `SecureStats` left the engine with them.
struct Churn {
    rng: SplitMix,
    departed: Counts,
    attempted: u64,
    failed: u64,
}

impl Churn {
    /// Kills, joins and crash-restarts `CHURN_SHARE` of the population.
    fn step(&mut self, net: &mut SecureNetwork) {
        let mut alive: Vec<Addr> = net.engine.nodes().map(|(a, _)| a).collect();
        let k = ((alive.len() as f64 * CHURN_SHARE) as usize).max(1);
        for _ in 0..k {
            let victim = alive.swap_remove(self.rng.below(alive.len()));
            self.retire(net, victim);
            net.engine.kill(victim);
            self.attempted += 1;
        }
        // Fisher–Yates, so sponsors are tried in a seeded random order.
        for i in (1..alive.len()).rev() {
            alive.swap(i, self.rng.below(i + 1));
        }
        for _ in 0..k {
            self.attempted += 1;
            if net.join_via_any(alive.iter().copied()).is_none() {
                self.failed += 1;
            }
        }
        for _ in 0..k {
            let victim = alive[self.rng.below(alive.len())];
            self.retire(net, victim);
            self.attempted += 1;
            if !net.crash_restart(victim) {
                self.failed += 1;
            }
        }
    }

    /// Keeps the counters of a node about to lose them.
    fn retire(&mut self, net: &SecureNetwork, addr: Addr) {
        if let Some(h) = net.engine.node(addr).and_then(SecureNet::honest) {
            self.departed.add_stats(&h.stats());
        }
    }
}

fn honest_totals(net: &SecureNetwork, departed: &Counts) -> Counts {
    let mut total = *departed;
    for (_, node) in net.engine.nodes() {
        if let Some(h) = node.honest() {
            total.add_stats(&h.stats());
        }
    }
    total
}

/// What the window of one repetition measured.
#[derive(Default)]
struct Window {
    counts: Counts,
    engine_msgs: u64,
    alive_node_cycles: u64,
    honest_node_cycles: u64,
    proc: ProcSample,
    allocs: (u64, u64),
    /// Malicious share of honest links after each cycle.
    mal_frac: Vec<f64>,
}

/// The network's state after the window, as the output checks and the
/// quality metrics need it.
struct EndState {
    fingerprint: Digest,
    view_fill: f64,
    indegree_cv: f64,
    /// Blacklist entries naming a node that is not malicious.
    honest_accused: usize,
    mal_frac: f64,
    coverage: f64,
    chain_lens: Vec<usize>,
}

fn end_state(net: &SecureNetwork) -> EndState {
    let honest: Vec<_> = net.engine.nodes().filter_map(|(_, n)| n.honest()).collect();
    let ids: Vec<NodeId> = honest.iter().map(|h| h.id()).collect();
    let links = honest
        .iter()
        .flat_map(|h| h.view().iter().map(|e| e.desc.creator()));
    let indegree_cv = indegree_cv(&ids, links);
    let slots: usize = honest.iter().map(|h| h.view().capacity()).sum();
    let filled: usize = honest.iter().map(|h| h.view().len()).sum();
    let honest_accused = honest
        .iter()
        .flat_map(|h| h.blacklist().culprits())
        .filter(|c| !net.malicious_ids.contains(c))
        .count();
    let chain_lens = honest
        .iter()
        .flat_map(|h| h.view().iter().map(|e| e.desc.transfer_count()))
        .collect();
    let mut fingerprint = Sha256::new();
    for line in state_fingerprint(net) {
        fingerprint.update(line.as_bytes()).update(b"\n");
    }
    EndState {
        fingerprint: fingerprint.finalize(),
        view_fill: filled as f64 / slots.max(1) as f64,
        indegree_cv,
        honest_accused,
        mal_frac: malicious_link_fraction(&net.engine, &net.malicious_ids),
        coverage: blacklist_coverage(&net.engine, &net.malicious_ids),
        chain_lens,
    }
}

/// One repetition: build, warm up, measure, inspect.
struct Rep {
    setup_ns: u64,
    /// Wall time of every cycle, warm-up first.
    cycle_ns: Vec<u64>,
    window: Window,
    peak_rss_mb: f64,
    ops: (u64, u64),
    /// Proofs generated over the whole run (the churn check).
    proofs_total: u64,
    end: EndState,
}

fn run_rep(
    spec: &SimSpec,
    seed: u64,
    rep: usize,
    count_allocs: bool,
    tracer: &mut Tracer,
    run_span: usize,
) -> Rep {
    let start = tracer.now_ns();
    let mut net = build(spec, seed);
    let built = tracer.now_ns();
    tracer.record("setup", start, built, Some(run_span), rep);

    let mut churn = Churn {
        rng: SplitMix(seed ^ 0x5c_be_9c),
        departed: Counts::default(),
        attempted: 0,
        failed: 0,
    };
    let mut cycle_ns = Vec::with_capacity((spec.warmup + spec.window) as usize);
    let mut timed_cycle = |net: &mut SecureNetwork,
                           churn: Option<&mut Churn>,
                           tracer: &mut Tracer,
                           parent: usize,
                           k: u64| {
        let s = tracer.now_ns();
        if let Some(c) = churn {
            c.step(net);
        }
        net.engine.run_cycle();
        let e = tracer.now_ns();
        tracer.record(format!("cycle[{k}]"), s, e, Some(parent), rep);
        cycle_ns.push(e - s);
    };

    let warmup_span = tracer.open("warmup", Some(run_span), rep);
    for k in 0..spec.warmup {
        timed_cycle(&mut net, None, tracer, warmup_span, k);
    }
    tracer.close(warmup_span);

    let mut w = Window::default();
    let window_span = tracer.open("window", Some(run_span), rep);
    let counts0 = honest_totals(&net, &churn.departed);
    let traffic0 = *net.engine.stats();
    let allocs0 = trace::alloc_counts();
    let proc0 = procfs::sample(None).unwrap_or_default();
    trace::set_counting(count_allocs);
    for k in 0..spec.window {
        let churn = spec.churn.then_some(&mut churn);
        timed_cycle(&mut net, churn, tracer, window_span, spec.warmup + k);
        let alive = net.engine.alive_count() as u64;
        w.alive_node_cycles += alive;
        w.honest_node_cycles += alive - spec.n_malicious as u64;
        if spec.n_malicious > 0 {
            // Observation sits outside every cycle's timing.
            let observe = tracer.open(
                format!("observe[{}]", spec.warmup + k),
                Some(window_span),
                rep,
            );
            w.mal_frac
                .push(malicious_link_fraction(&net.engine, &net.malicious_ids));
            tracer.close(observe);
        }
    }
    trace::set_counting(false);
    w.proc = procfs::sample(None).unwrap_or_default().since(&proc0);
    let allocs1 = trace::alloc_counts();
    w.allocs = (allocs1.0 - allocs0.0, allocs1.1 - allocs0.1);
    let traffic1 = *net.engine.stats();
    w.engine_msgs =
        (traffic1.rpcs_sent + traffic1.oneways_sent) - (traffic0.rpcs_sent + traffic0.oneways_sent);
    let totals = honest_totals(&net, &churn.departed);
    w.counts = totals.since(&counts0);
    tracer.close(window_span);

    // Before the end state is rendered: the fingerprint's strings would
    // otherwise count as the workload's memory.
    let peak_rss_mb = procfs::peak_rss_mb(None).unwrap_or(0.0);
    Rep {
        setup_ns: built - start,
        cycle_ns,
        window: w,
        peak_rss_mb,
        ops: (churn.attempted, churn.failed),
        proofs_total: totals.proofs_generated,
        end: end_state(&net),
    }
}

/// Runs `spec` and reports its metrics, or the output check that failed.
pub fn run(spec: &SimSpec, args: &RunArgs, tracer: &mut Tracer) -> Result<RunOutput, String> {
    let run_span = tracer.open("run", None, 0);
    let reps = args.reps.unwrap_or(spec.reps).max(1);
    let mut setup_ns = Vec::new();
    for _ in reps..SETUP_SAMPLES {
        let s = tracer.now_ns();
        drop(build(spec, args.seed));
        let e = tracer.now_ns();
        tracer.record("setup", s, e, Some(run_span), 0);
        setup_ns.push((e - s) as f64);
    }
    // A traced run alternates: even repetitions run exactly as an
    // untraced run does, odd ones count allocations. The same estimator
    // over each half gives the tracing overhead.
    let total = if args.traced { 2 * reps } else { reps };
    let runs: Vec<Rep> = (0..total)
        .map(|rep| {
            run_rep(
                spec,
                args.seed,
                rep,
                args.traced && rep % 2 == 1,
                tracer,
                run_span,
            )
        })
        .collect();
    tracer.close(run_span);
    setup_ns.extend(runs.iter().map(|r| r.setup_ns as f64));
    let (plain, counted): (Vec<&Rep>, Vec<&Rep>) = if args.traced {
        (
            runs.iter().step_by(2).collect(),
            runs.iter().skip(1).step_by(2).collect(),
        )
    } else {
        (runs.iter().collect(), Vec::new())
    };

    // -- output checks --------------------------------------------------
    let first = &runs[0];
    for (i, r) in runs.iter().enumerate().skip(1) {
        if r.end.fingerprint != first.end.fingerprint || r.window.counts != first.window.counts {
            return Err(format!(
                "repetition {i} diverged from repetition 0 under the same seed"
            ));
        }
    }
    let end = &first.end;
    if end.honest_accused > 0 {
        return Err(format!(
            "{} blacklist entries name an honest node",
            end.honest_accused
        ));
    }
    if spec.churn && first.proofs_total > 0 {
        return Err(format!(
            "{} violation proofs in an all-honest network: a crash-restarted node incriminated itself",
            first.proofs_total
        ));
    }
    // Convergence thresholds hold at benchmark size, not at smoke size.
    if !args.quick {
        if end.view_fill < spec.min_view_fill {
            return Err(format!(
                "honest views are {:.3} full, below {}",
                end.view_fill, spec.min_view_fill
            ));
        }
        if spec.n_malicious > 0 && end.mal_frac >= 0.01 {
            return Err(format!(
                "final malicious-link share {:.4} is not below 1 %",
                end.mal_frac
            ));
        }
        if spec.n_malicious > 0 && end.coverage < 0.9 {
            return Err(format!(
                "blacklist coverage {:.3} is below 0.9",
                end.coverage
            ));
        }
    }

    // -- time: per-cycle minimum across repetitions -----------------------
    let cycles = first.cycle_ns.len();
    let warmup = spec.warmup as usize;
    let per_cycle_min = |reps: &[&Rep]| -> Vec<u64> {
        (0..cycles)
            .map(|k| {
                reps.iter()
                    .map(|r| r.cycle_ns[k])
                    .min()
                    .expect("at least one repetition")
            })
            .collect()
    };
    let best = per_cycle_min(&plain);
    let window_ns: u64 = best[warmup..].iter().sum();
    let w = &first.window;
    let node_cycle_us = window_ns as f64 / 1e3 / w.alive_node_cycles as f64;
    let cpu_ns = plain
        .iter()
        .map(|r| r.window.proc.cpu_ns)
        .min()
        .expect("at least one repetition");
    let setup_s = median(&setup_ns) / 1e9;
    let mal_peak = w.mal_frac.iter().copied().fold(0.0, f64::max);

    let mut m = Metrics::default();
    m.set("node_cycle_us", node_cycle_us);
    m.set(
        "cpu_us_per_node_cycle",
        cpu_ns as f64 / 1e3 / w.alive_node_cycles as f64,
    );
    m.set("peak_rss_mb", first.peak_rss_mb);
    m.set(
        "paper_bytes_per_node_cycle",
        w.counts.bytes_sent as f64 / w.honest_node_cycles as f64,
    );
    m.set("exchange_ok_ratio", w.counts.exchange_ok_ratio());
    m.set("indegree_cv", end.indegree_cv);
    m.set("honest_link_share_min", 1.0 - mal_peak);
    m.set("setup_s", setup_s);

    if args.traced {
        let allocs = counted[0].window.allocs;
        m.set("run.node_cycle_us", node_cycle_us);
        m.set("run.setup_us_per_node", setup_s * 1e6 / spec.n as f64);
        let typical = median(&best.iter().map(|&ns| ns as f64).collect::<Vec<_>>());
        let worst = best.iter().copied().max().unwrap_or(0) as f64;
        m.set("run.cycle_spike_ratio", worst / typical);
        let mut slowest: Vec<usize> = (0..cycles).collect();
        slowest.sort_by_key(|&k| std::cmp::Reverse(best[k]));
        let slowest: Vec<String> = slowest
            .iter()
            .take(5)
            .map(|&k| format!("cycle {k}: {:.2}x", best[k] as f64 / typical))
            .collect();
        println!(
            "slowest cycles against the median cycle (0 = first warm-up cycle): {}",
            slowest.join(", ")
        );
        w.counts.report(w.honest_node_cycles, &mut m);
        m.set("core.node.view_fill_ratio", end.view_fill);
        m.set(
            "sim.engine.msgs_per_node_cycle",
            w.engine_msgs as f64 / w.alive_node_cycles as f64,
        );
        m.set(
            "proc.minor_faults_per_node_cycle",
            w.proc.minor_faults as f64 / w.alive_node_cycles as f64,
        );
        m.set("proc.sys_share", w.proc.sys_share());
        m.set(
            "proc.voluntary_switches_per_node_cycle",
            w.proc.voluntary_switches as f64 / w.alive_node_cycles as f64,
        );
        m.set(
            "proc.allocs_per_node_cycle",
            allocs.0 as f64 / w.alive_node_cycles as f64,
        );
        m.set(
            "proc.alloc_bytes_per_node_cycle",
            allocs.1 as f64 / w.alive_node_cycles as f64,
        );
        m.set("attack.mal_link_peak", mal_peak);
        // Cycles from the attack's start until the malicious share stays
        // below the purge threshold.
        let purge = w
            .mal_frac
            .iter()
            .rposition(|&f| f >= PURGED_BELOW)
            .map_or(0, |k| k + 1);
        m.set("attack.purge_cycles", purge as f64);
        m.set("attack.blacklist_coverage", end.coverage);
        let counted_ns: u64 = per_cycle_min(&counted)[warmup..].iter().sum();
        m.set(
            "trace.overhead_share",
            counted_ns as f64 / window_ns as f64 - 1.0,
        );

        let probe_span = tracer.open("probes", None, 0);
        probes::run_all(
            probes::ProbeInput {
                scheme: spec.scheme,
                chain_lens: &end.chain_lens,
                view_len: SecureConfig::default().view_len,
                quick: args.quick,
                scratch: &args.scratch,
            },
            tracer,
            Some(probe_span),
            &mut m,
        )
        .map_err(|e| format!("layer probes could not use the scratch directory: {e}"))?;
        tracer.close(probe_span);
        attribute(
            &mut m,
            w.counts,
            w.honest_node_cycles,
            window_ns as f64,
            spec.durable,
        );
        m.zero_layers(&["node."]);
        check_cycle_spans(tracer)?;
    }
    Ok(RunOutput {
        metrics: m,
        attempted: w.alive_node_cycles + first.ops.0,
        failed: first.ops.1,
    })
}

/// Σ(unit cost × count) against the measured window: what the layer
/// probes can explain of a node-cycle, and the residue they cannot.
fn attribute(m: &mut Metrics, c: Counts, honest_node_cycles: u64, window_ns: f64, durable: bool) {
    let unit = |name: &str| m.get(name).unwrap_or(0.0);
    let (transfer, extend, memo, clone, record) = (
        unit("core.desc.transfer_ns"),
        unit("core.desc.verify_extend_ns"),
        unit("core.desc.verify_memo_ns"),
        unit("core.desc.clone_ns"),
        unit("core.storage.mem_record_ns"),
    );
    let mut explained = c.transfers_sent as f64 * transfer
        + c.transfers_received as f64 * extend
        + c.samples as f64 * (memo + clone);
    if durable {
        // One spent record per transfer signed, one emission per cycle.
        explained += (c.transfers_sent + honest_node_cycles) as f64 * record;
    }
    let share = explained / window_ns;
    m.set("attribution.explained_share", share);
    m.set("attribution.unexplained_share", 1.0 - share);
    let per_cycle = |v: u64| v as f64 / honest_node_cycles as f64;
    println!(
        "attribution: transfers {:.2}/nc x {transfer:.0} ns + extends {:.2}/nc x {extend:.0} ns \
         + samples {:.2}/nc x ({memo:.0} + {clone:.0}) ns explain {:.1} % of the window",
        per_cycle(c.transfers_sent),
        per_cycle(c.transfers_received),
        per_cycle(c.samples),
        100.0 * share,
    );
}

/// The span file's own consistency: within each window, the cycle spans
/// (plus the observation spans between them) cover the window span.
fn check_cycle_spans(tracer: &Tracer) -> Result<(), String> {
    for (i, s) in tracer
        .spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "window")
    {
        let total = (s.end_ns - s.start_ns) as f64;
        let covered = tracer.children_ns(i, "cycle[") + tracer.children_ns(i, "observe[");
        if (total - covered as f64).abs() > 0.01 * total {
            return Err(format!(
                "cycle spans cover {covered} ns of a {total} ns window (repetition {})",
                s.rep
            ));
        }
    }
    Ok(())
}
