//! **Figure 6** — the link-depletion attack and the tit-for-tat defense.
//!
//! Malicious responders accept gossip requests but return an empty view,
//! bleeding initiators of their descriptors. Setup: 1k nodes, view 20,
//! swap lengths {3, 5, 8, 10}, attack at cycle 50; malicious share 2%
//! (top) and 50% (bottom); tit-for-tat disabled (left) vs enabled (right).
//!
//! Expected shape: without tit-for-tat the non-swappable fraction grows
//! with the swap length (top-left) and saturates near 100% at 50%
//! malicious (bottom-left); with tit-for-tat it stays negligible at 2%
//! (top-right) and is bounded far below saturation at 50% (bottom-right,
//! ≈27% in the paper).

use crate::common::{banner, results_dir, run_cell, Scale, ATTACK_CYCLE};
use sc_core::SecureConfig;
use sc_metrics::{ascii_chart, save_series_csv, TimeSeries};
use sc_testkit::{ns_link_fraction, step_of, AdversaryKind, Scenario};

/// The Figure 6 cell: `n` nodes, `k` of them depleting responders from
/// engine cycle 50, view length ℓ, swap length `s`, tit-for-tat on or
/// off, `cycles` cycles after the bootstrap.
pub fn scenario(
    n: usize,
    k: usize,
    view_len: usize,
    swap_len: usize,
    tit_for_tat: bool,
    cycles: u64,
) -> Scenario {
    let mut cfg = SecureConfig::default()
        .with_view_len(view_len)
        .with_swap_len(swap_len);
    cfg.tit_for_tat = tit_for_tat;
    let name = format!("fig6 n={n} k={k} s={swap_len} tft={tit_for_tat}");
    Scenario::new(&name, n)
        .config(cfg)
        .adversary(k, AdversaryKind::Depletion, step_of(ATTACK_CYCLE, &cfg))
        .cycles(cycles)
}

fn run_panel(n: usize, n_malicious: usize, view_len: usize, tft: bool, cycles: u64, file: &str) {
    let pct = 100 * n_malicious / n;
    println!(
        "nodes:{n}, view:{view_len}, malicious nodes:{n_malicious} ({pct}%), tit-for-tat: {}",
        if tft { "enabled" } else { "disabled" }
    );
    let mut all = Vec::new();
    for swap_len in [3usize, 5, 8, 10] {
        let mut s = TimeSeries::new(format!("swap length {swap_len}"));
        let cell = scenario(n, n_malicious, view_len, swap_len, tft, cycles);
        run_cell(&cell, 42, |net| {
            let c = net.engine.cycle();
            if c.is_multiple_of(2) {
                s.push(c, 100.0 * ns_link_fraction(&net.engine));
            }
        });
        println!(
            "  swap length {swap_len}: final non-swappable links {:.1}%",
            s.last().unwrap_or(0.0)
        );
        all.push(s);
    }
    let path = results_dir().join(file);
    save_series_csv(&path, &all).expect("write series");
    print!("{}", ascii_chart(&all, 60));
    println!("  [{}]", path.display());
}

/// Runs all four Figure 6 panels at the given scale.
pub fn run(scale: Scale) {
    banner("Figure 6: link-depletion attack, tit-for-tat disabled vs enabled");
    let (n, view_len, cycles) = match scale {
        Scale::Smoke => (300, 20, 70),
        Scale::Quick | Scale::Full => (1000, 20, 100),
    };
    let low = n / 50; // 2%
    let high = n / 2; // 50%
    run_panel(n, low, view_len, false, cycles, "fig6_low_tft_off.csv");
    run_panel(n, low, view_len, true, cycles, "fig6_low_tft_on.csv");
    run_panel(n, high, view_len, false, cycles, "fig6_high_tft_off.csv");
    run_panel(n, high, view_len, true, cycles, "fig6_high_tft_on.csv");
    println!(
        "  paper shape: NS% ∝ swap length without TFT; ≈0% (2%) and bounded ≈27% (50%) with TFT"
    );
}
