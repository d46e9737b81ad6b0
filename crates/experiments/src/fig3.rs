//! **Figure 3** — the hub attack takes over legacy Cyclon.
//!
//! Paper setup: 1k nodes (view 20, 20 malicious) and 10k nodes (view 50,
//! 50 malicious); all nodes correct until cycle 50, then the malicious
//! start presenting all-malicious views. Swap lengths 3, 5, 8, 10.
//! Expected shape: links to malicious nodes rise from the malicious
//! population share to 100%, faster for larger swap lengths.

use crate::common::{banner, results_dir, run_cell, Scale, ATTACK_CYCLE};
use sc_attacks::SecureAttack;
use sc_core::SecureConfig;
use sc_metrics::{ascii_chart, save_series_csv, TimeSeries};
use sc_testkit::{malicious_link_fraction, CyclonNetwork, Scenario};

/// One takeover run, hub attackers from cycle 50 (a Cyclon step is its
/// engine cycle); returns the malicious-link percentage over time.
pub fn takeover_series(
    n: usize,
    k: usize,
    view_len: usize,
    swap_len: usize,
    cycles: u64,
) -> TimeSeries {
    let cfg = SecureConfig::default()
        .with_view_len(view_len)
        .with_swap_len(swap_len);
    let cell = Scenario::new(&format!("fig3 n={n} k={k} s={swap_len}"), n)
        .config(cfg)
        .adversary(k, SecureAttack::Hub, ATTACK_CYCLE)
        .cycles(cycles);
    let mut series = TimeSeries::new(format!("swap length {swap_len}"));
    run_cell(&cell, 42, |net: &CyclonNetwork| {
        let c = net.engine.cycle() - 1; // the step that just ran
        if c.is_multiple_of(5) {
            let malicious = &net.malicious_addrs;
            series.push(c, 100.0 * malicious_link_fraction(&net.engine, malicious));
        }
    });
    series
}

/// Runs the Figure 3 experiment at the given scale.
pub fn run(scale: Scale) {
    banner("Figure 3: hub attack takes over legacy Cyclon");
    let configs: Vec<(usize, usize, usize, u64, &str)> = match scale {
        Scale::Smoke => vec![(300, 20, 20, 220, "fig3_300_view20.csv")],
        Scale::Quick => vec![(1000, 20, 20, 500, "fig3_1k_view20.csv")],
        Scale::Full => vec![
            (1000, 20, 20, 500, "fig3_1k_view20.csv"),
            (10_000, 50, 50, 500, "fig3_10k_view50.csv"),
        ],
    };
    for (n, view_len, n_malicious, cycles, file) in configs {
        println!("nodes:{n}, view:{view_len}, malicious nodes:{n_malicious}, attack at cycle 50");
        let mut all = Vec::new();
        for swap_len in [3usize, 5, 8, 10] {
            let s = takeover_series(n, n_malicious, view_len, swap_len, cycles);
            println!(
                "  swap length {swap_len}: 50% crossed at cycle {:?}, final {:.1}%",
                s.points()
                    .iter()
                    .find(|&&(_, v)| v >= 50.0)
                    .map(|&(c, _)| c),
                s.last().unwrap_or(0.0)
            );
            all.push(s);
        }
        let path = results_dir().join(file);
        save_series_csv(&path, &all).expect("write series");
        print!("{}", ascii_chart(&all, 60));
        println!("  [{}]", path.display());
        println!("  paper shape: takeover to ~100%, faster with larger swap length");
    }
}
