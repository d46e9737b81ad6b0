//! **Figure 2** — indegree distribution of converged Cyclon overlays.
//!
//! Paper setup: 1k nodes with view length 20 and 10k nodes with view
//! length 50, measured after the overlay has converged. Expected shape:
//! each node's indegree is tightly concentrated around the configured
//! outdegree ℓ, with no starved nodes and no hubs.

use crate::common::{banner, results_dir, run_cell, Scale};
use sc_core::{Addr, SecureConfig};
use sc_metrics::{save_histogram_csv, Histogram};

use sc_testkit::{CyclonNetwork, Member, Scenario};
use std::collections::HashMap;

/// Computes the indegree histogram of a converged overlay. Each node has
/// its own address, so a node's indegree is the links routing to it.
pub fn indegree_histogram(n: usize, view_len: usize, cycles: u64, seed: u64) -> Histogram {
    let cfg = SecureConfig::default()
        .with_view_len(view_len)
        .with_swap_len(3);
    let cell = Scenario::new(&format!("fig2 n={n} l={view_len}"), n)
        .config(cfg)
        .cycles(cycles);
    let (_, net) = run_cell(&cell, seed, |_: &CyclonNetwork| {});
    let mut indeg: HashMap<Addr, u64> = HashMap::new();
    for (_, node) in net.engine.nodes() {
        for addr in node.links().expect("no attacker was built") {
            *indeg.entry(addr).or_default() += 1;
        }
    }
    // Nodes nobody points at have indegree zero.
    let mut hist = Histogram::new();
    let pointed = indeg.len() as u64;
    for (_, count) in indeg {
        hist.record(count);
    }
    for _ in pointed..n as u64 {
        hist.record(0);
    }
    hist
}

/// Runs the Figure 2 experiment at the given scale.
pub fn run(scale: Scale) {
    banner("Figure 2: indegree distribution of converged Cyclon overlays");
    let configs: Vec<(usize, usize, u64, &str)> = match scale {
        Scale::Smoke => vec![(300, 20, 120, "fig2_300_view20.csv")],
        Scale::Quick => vec![(1000, 20, 500, "fig2_1k_view20.csv")],
        Scale::Full => vec![
            (1000, 20, 500, "fig2_1k_view20.csv"),
            (10_000, 50, 500, "fig2_10k_view50.csv"),
        ],
    };
    for (n, view_len, cycles, file) in configs {
        let hist = indegree_histogram(n, view_len, cycles, 42);
        let path = results_dir().join(file);
        save_histogram_csv(&path, &hist).expect("write histogram");
        println!(
            "nodes:{n} view:{view_len} → indegree mean {:.1} (ℓ = {view_len}), σ {:.2}, \
             min {}, max {}, within ±50% of ℓ: {:.1}%  [{}]",
            hist.mean(),
            hist.std_dev(),
            hist.min().unwrap_or(0),
            hist.max().unwrap_or(0),
            100.0 * hist.fraction_within((view_len / 2) as u64, (view_len * 3 / 2) as u64),
            path.display()
        );
        println!(
            "  paper shape: indegree tightly bounded around the outdegree ℓ, no starved nodes"
        );
    }
}
