//! **§VI-A network costs** — the paper's back-of-the-envelope table,
//! reproduced with measured quantities.
//!
//! Paper model: a descriptor is `368 + 512·t` bits after `t` transfers;
//! with ℓ = 20, s = 3, r = 5 a descriptor is transferred 2s = 6 times on
//! average over its ℓ-cycle life, giving ≈430 bytes per descriptor and
//! ≈10.5 KB per gossip direction (ℓ + r = 25 descriptors).
//!
//! This experiment runs a converged all-honest SecureCyclon overlay,
//! measures the actual transfer-count distribution and per-message sizes
//! under both the paper's size model and this crate's wire codec, and
//! prints them against the paper's estimates.

use crate::common::{banner, results_dir, run_cell, Scale};
use sc_core::{wire, SecureConfig};
use sc_metrics::{save_histogram_csv, summarize, Histogram};
use sc_testkit::{Scenario, SecureNetwork};

/// Measured network-cost summary.
#[derive(Debug)]
pub struct NetCost {
    /// Mean ownership transfers per view descriptor.
    pub mean_transfers: f64,
    /// Mean paper-model descriptor size (bytes).
    pub mean_paper_bytes: f64,
    /// Mean wire-codec descriptor size (bytes).
    pub mean_wire_bytes: f64,
    /// Paper-model bytes for one gossip direction (ℓ + r descriptors at
    /// the measured mean size).
    pub per_direction_paper: f64,
}

/// The §VI-A cell: `n` honest nodes at view length ℓ, `cycles` cycles
/// after the bootstrap.
pub fn scenario(n: usize, view_len: usize, cycles: u64) -> Scenario {
    let cfg = SecureConfig::default().with_view_len(view_len);
    Scenario::new(&format!("netcost n={n}"), n)
        .config(cfg)
        .cycles(cycles)
}

/// Measures descriptor sizes on a converged overlay.
pub fn measure(n: usize, view_len: usize, cycles: u64, seed: u64) -> (NetCost, Histogram) {
    let cell = scenario(n, view_len, cycles);
    let redemption = cell.cfg.redemption_cache_cycles as f64;
    let (_, net) = run_cell(&cell, seed, |_: &SecureNetwork| {});

    let mut transfers = Histogram::new();
    let mut paper_sizes = Vec::new();
    let mut wire_sizes = Vec::new();
    for (_, node) in net.engine.nodes() {
        let Some(h) = node.honest() else { continue };
        for e in h.view().iter() {
            transfers.record(e.desc.transfer_count() as u64);
            paper_sizes.push(wire::paper_descriptor_bytes(&e.desc) as f64);
            wire_sizes.push(wire::descriptor_wire_bytes(&e.desc) as f64);
        }
    }
    let paper = summarize(&paper_sizes);
    let wire_s = summarize(&wire_sizes);
    let cost = NetCost {
        mean_transfers: transfers.mean(),
        mean_paper_bytes: paper.mean,
        mean_wire_bytes: wire_s.mean,
        per_direction_paper: paper.mean * (view_len as f64 + redemption),
    };
    (cost, transfers)
}

/// Runs the §VI-A cost table at the given scale.
pub fn run(scale: Scale) {
    banner("Section VI-A: network cost model (the paper's table)");
    let (n, cycles) = match scale {
        Scale::Smoke => (300, 60),
        Scale::Quick | Scale::Full => (1000, 120),
    };
    let (cost, transfers) = measure(n, 20, cycles, 42);
    let path = results_dir().join("netcost_transfers.csv");
    save_histogram_csv(&path, &transfers).expect("write histogram");

    println!("quantity                         paper (§VI-A)      measured");
    println!(
        "transfers per descriptor (t)     2s = 6 (pessim.)   {:.2} (mean over views)",
        cost.mean_transfers
    );
    println!(
        "descriptor size, paper model     430 B at t=6       {:.0} B (at measured t)",
        cost.mean_paper_bytes
    );
    println!(
        "descriptor size, wire codec      —                  {:.0} B",
        cost.mean_wire_bytes
    );
    println!(
        "per direction (ℓ+r = 25 descs)   ≈10.5 KB           {:.1} KB",
        cost.per_direction_paper / 1024.0
    );
    println!("  [{}]", path.display());
    println!(
        "  note: the paper's t = 6 is an explicit pessimistic bound; younger descriptors \
         have shorter chains, so the measured mean sits below it"
    );
}
