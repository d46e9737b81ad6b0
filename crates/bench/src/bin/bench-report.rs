//! `bench-report` — measures, with a plain `Instant`-based harness, the
//! series no other harness owns and writes them as a machine-readable
//! JSON baseline (`BENCH_<n>.json`): the population sweep (Cyclon to
//! 10⁵ nodes, SecureCyclon to 10⁴), the cost of one more transfer by
//! chain length (`append` is O(1)), and the sample cache in steady state.
//! Every per-layer cost — SHA-256, Schnorr, cold verification, clone,
//! the wire codec — is a frozen probe of `perfbench/`, the gate a
//! performance claim is resolved by.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p sc-bench --bin bench-report             # full run, auto-numbered file
//! cargo run --release -p sc-bench --bin bench-report -- --quick  # CI smoke (~seconds)
//! cargo run --release -p sc-bench --bin bench-report -- --out BENCH_2.json
//! ```
//!
//! `--quick` shrinks the per-bench time budget so CI executes every
//! measured code path without burning minutes; committed baselines should
//! come from a full run on an idle machine.

use sc_attacks::SecureAttack;
use sc_bench::report::{BenchResult, Report};
use sc_bench::{baselines, chained, pool};
use sc_core::{Observation, SampleCache, SecureConfig, SecureDescriptor, Timestamp};
use sc_crypto::Scheme;
use sc_testkit::{
    build_secure_network, run_scenario_observed, CyclonNetwork, Scenario, SecureNetParams,
};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Sample handling as one node of the `sim-honest` benchmark workload
/// sees it (300 nodes, ℓ=20): each cycle brings 48 first sightings —
/// descriptors created in the cycle they arrive in, as gossip delivers
/// them — and 9 re-sightings, then `prune` expires what was created a
/// retention window ago. One steady-state loop, three timers — so each
/// series is the cost of its step *in the company of the others* (cache
/// occupancy, dead slots awaiting a sweep), not of a step in isolation.
/// Re-sightings arrive as separately decoded copies, the live tier's
/// shape and the dearer one: a copy sharing the cached block is
/// recognised by pointer. What a cycle observes is built before its
/// timers start.
fn sample_cache_series(report: &mut Report, cycles_per_sample: u64, samples: usize) {
    const CREATORS: usize = 300;
    const NEW_PER_CYCLE: usize = 48;
    const SEEN_PER_CYCLE: usize = 9;
    const PERIOD: u64 = 1000;
    let retention = sc_core::node::SAMPLE_RETENTION_CYCLES;
    let keys = pool(Scheme::KeyedHash, CREATORS);
    // A cycle's 48 first sightings come from 48 consecutive creators, so
    // a creator's descriptors arrive six or seven cycles apart.
    let arrivals = |cycle: u64| -> Vec<SecureDescriptor> {
        (0..NEW_PER_CYCLE)
            .map(|j| {
                let c = (cycle as usize * NEW_PER_CYCLE + j) % CREATORS;
                SecureDescriptor::create(&keys[c], c as u32, Timestamp(cycle * PERIOD))
                    .transfer(&keys[c], keys[(c + 1) % CREATORS].public())
                    .unwrap()
            })
            .collect()
    };

    let mut cache = SampleCache::new(retention, PERIOD);
    let mut cycle = 0u64;
    let mut misjudged = 0u64;
    // Every arrival of the window and a few cycles more, as the network
    // around the node holds them: a slot the cache drops releases its
    // descriptor's blocks here, outside the timers, not inside them.
    let mut held: VecDeque<Vec<SecureDescriptor>> = VecDeque::new();
    // One simulated cycle; returns (first sightings, re-sightings, prune).
    let mut step = |cache: &mut SampleCache| -> [Duration; 3] {
        let fresh = arrivals(cycle);
        // From last cycle's arrivals (this cycle's, in cycle 0).
        let decoded: Vec<SecureDescriptor> = held
            .back()
            .unwrap_or(&fresh)
            .iter()
            .take(SEEN_PER_CYCLE)
            .map(|d| SecureDescriptor::from_parts(*d.genesis(), d.chain()))
            .collect();
        let t0 = Instant::now();
        for d in &fresh {
            misjudged += (cache.observe(d, cycle) != Observation::New) as u64;
        }
        let t1 = Instant::now();
        for d in &decoded {
            misjudged += (cache.observe(d, cycle) != Observation::AlreadyKnown) as u64;
        }
        let t2 = Instant::now();
        cycle += 1;
        cache.prune(cycle);
        let t3 = Instant::now();
        held.push_back(fresh);
        if held.len() > retention as usize + 4 {
            held.pop_front();
        }
        [t1 - t0, t2 - t1, t3 - t2]
    };
    // Fill to steady state: two windows, so sweeps and expiry are running.
    for _ in 0..2 * retention + 1 {
        step(&mut cache);
    }
    let mut per_sample: [Vec<f64>; 3] = Default::default();
    for _ in 0..samples.max(3) {
        let mut total = [Duration::ZERO; 3];
        for _ in 0..cycles_per_sample {
            let spent = step(&mut cache);
            for (t, s) in total.iter_mut().zip(spent) {
                *t += s;
            }
        }
        // In steady state a cycle expires what a cycle brings in.
        let items = [NEW_PER_CYCLE, SEEN_PER_CYCLE, NEW_PER_CYCLE];
        for ((series, t), n) in per_sample.iter_mut().zip(total).zip(items) {
            series.push(t.as_nanos() as f64 / (cycles_per_sample * n as u64) as f64);
        }
    }
    assert_eq!(misjudged, 0, "the loop must feed each timer what it names");
    assert_eq!(
        cache.len(),
        retention as usize * NEW_PER_CYCLE,
        "steady state: the first sightings of one window"
    );
    let names = ["first_sighting", "resighting", "expiry"];
    for (name, mut series) in names.into_iter().zip(per_sample) {
        series.sort_by(|a, b| a.total_cmp(b));
        let ns_per_iter = series[series.len() / 2];
        println!(
            "{:<44} {ns_per_iter:>9.1} ns",
            format!("sample_cache/{name}")
        );
        report.results.push(BenchResult {
            name: format!("sample_cache/{name}"),
            ns_per_iter,
            iters: cycles_per_sample,
            samples: series.len(),
        });
        report.derive_per_item(
            &format!("sample_cache_{name}_ns_per_sample"),
            &format!("sample_cache/{name}"),
            1,
        );
    }
}

fn main() {
    let mut quick = false;
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out = Some(args.next().expect("--out requires a path")),
            "--help" | "-h" => {
                println!("usage: bench-report [--quick] [--out PATH]");
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let (budget, samples, sim_budget) = if quick {
        (Duration::from_millis(30), 5, Duration::from_millis(200))
    } else {
        (Duration::from_millis(300), 11, Duration::from_secs(3))
    };

    let mut report = Report {
        mode: if quick { "quick" } else { "full" }.into(),
        ..Report::default()
    };

    // -- one more transfer, by chain length ---------------------------
    // One more transfer on top of t: a signature, a hash and one block,
    // whatever t is — `transfer_64_vs_1` is the gate that keeps `append`
    // from copying the chain it extends again.
    let keys = pool(Scheme::Schnorr61, 16);
    for t in [1usize, 16, 64] {
        let d = chained(&keys, t);
        let (owner, to) = (&keys[t % keys.len()], keys[(t + 1) % keys.len()].public());
        report.bench(&format!("descriptor/transfer/{t}"), budget, samples, || {
            std::hint::black_box(std::hint::black_box(&d).transfer(owner, to).unwrap());
        });
    }
    report.derive_ratio(
        "transfer_64_vs_1",
        "descriptor/transfer/64",
        "descriptor/transfer/1",
    );

    // -- the sample cache in steady state -----------------------------
    sample_cache_series(&mut report, if quick { 40 } else { 400 }, samples);

    // -- end-to-end simulation cycles, scaled by population -----------
    // Two series: the crypto-free Cyclon layer carries the engine to
    // 100k nodes; the full SecureCyclon protocol to 10k. Each records a
    // nodes-per-second derived metric below.
    let (cyclon_series, secure_series): (&[usize], &[usize]) = if quick {
        (&[32, 1_000], &[32, 1_000])
    } else {
        (&[200, 2_000, 20_000, 100_000], &[200, 1_000, 2_000, 10_000])
    };
    for &n in cyclon_series {
        // Five cycles settle past the bootstrap topology.
        let cfg = SecureConfig::default().with_view_len(10).with_swap_len(3);
        let settle = Scenario::new("cyclon-cycle", n).config(cfg).cycles(5);
        let (_, mut net) = run_scenario_observed(&settle, 1, |_: &CyclonNetwork| {})
            .expect("a Cyclon run is not audited");
        report.bench(
            &format!("simulation/cyclon_cycle_{n}"),
            sim_budget,
            samples.min(7),
            || {
                net.engine.run_cycle();
            },
        );
    }
    for &n in secure_series {
        let mut params = SecureNetParams::new(n, 0, SecureAttack::None);
        params.cfg = SecureConfig::default().with_view_len(10).with_swap_len(3);
        let mut net = build_secure_network(params);
        net.engine.run_cycles(10); // warm up to steady state
        report.bench(
            &format!("simulation/secure_cycle_{n}"),
            sim_budget,
            samples.min(7),
            || {
                net.engine.run_cycle();
            },
        );
    }

    // Throughput of one engine cycle, in simulated nodes per second.
    for &n in cyclon_series {
        report.derive_rate(
            &format!("cyclon_nodes_per_sec_{n}"),
            &format!("simulation/cyclon_cycle_{n}"),
            n as u64,
        );
    }
    for &n in secure_series {
        report.derive_rate(
            &format!("secure_nodes_per_sec_{n}"),
            &format!("simulation/secure_cycle_{n}"),
            n as u64,
        );
        // The headline end-to-end number: cost of one node-cycle of the
        // full secure protocol. PRs are gated on this not regressing.
        report.derive_per_item(
            &format!("secure_ns_per_node_cycle_{n}"),
            &format!("simulation/secure_cycle_{n}"),
            n as u64,
        );
    }

    // One past the highest existing index, so auto-numbered baselines stay
    // monotonic even when earlier indices are missing.
    let path = out.unwrap_or_else(|| {
        let next = baselines().last().map_or(0, |(n, _)| n + 1);
        format!("BENCH_{next}.json")
    });
    std::fs::write(&path, report.to_json()).expect("write bench report");
    println!("\nwrote {path}");
}
