//! **Figure 5** — SecureCyclon shields the overlay from the hub attack.
//!
//! Top row: the minimal viable attack group (as many attackers as the
//! view length — 20/1k, 50/10k). Bottom row: 40% of the population is
//! malicious. Swap lengths 3, 5, 8, 10; attack starts at cycle 50.
//!
//! Expected shape (top): a small spike after cycle 50, then rapid decay
//! toward 0 as proofs spread and attackers are evicted. Expected shape
//! (bottom-left, 1k): a temporary surge to 60–90%, then collapse; with
//! very high swap lengths (8, 10) a residual fraction of eclipsed nodes
//! retains malicious links. Bottom-right (10k): full recovery for the
//! same swap lengths because s ≪ ℓ.

use crate::common::{banner, results_dir, run_cell, Scale, ATTACK_CYCLE};
use sc_attacks::SecureAttack;
use sc_core::SecureConfig;
use sc_metrics::{ascii_chart, save_series_csv, TimeSeries};
use sc_testkit::{eclipsed_fraction, malicious_link_fraction, step_of, Scenario, SecureNetwork};

/// The Figure 5 cell: `n` nodes, `k` of them hub attackers from engine
/// cycle 50, view length ℓ, swap length `s`, `cycles` cycles after the
/// bootstrap.
pub fn scenario(n: usize, k: usize, view_len: usize, swap_len: usize, cycles: u64) -> Scenario {
    let cfg = SecureConfig::default()
        .with_view_len(view_len)
        .with_swap_len(swap_len);
    Scenario::new(&format!("fig5 n={n} k={k} s={swap_len}"), n)
        .config(cfg)
        .adversary(k, SecureAttack::Hub, step_of(ATTACK_CYCLE, &cfg))
        .cycles(cycles)
}

fn run_panel(title: &str, n: usize, n_malicious: usize, view_len: usize, cycles: u64, file: &str) {
    println!("{title}: nodes:{n}, view:{view_len}, malicious nodes:{n_malicious}");
    let mut mal_series = Vec::new();
    for swap_len in [3usize, 5, 8, 10] {
        let label = format!("swap length {swap_len}");
        let (mut mal, mut ecl) = (TimeSeries::new(&label), TimeSeries::new(&label));
        let cell = scenario(n, n_malicious, view_len, swap_len, cycles);
        run_cell(&cell, 42, |net: &SecureNetwork| {
            let c = net.engine.cycle();
            if c.is_multiple_of(2) {
                let malicious = &net.malicious_ids;
                mal.push(c, 100.0 * malicious_link_fraction(&net.engine, malicious));
                ecl.push(c, 100.0 * eclipsed_fraction(&net.engine, malicious));
            }
        });
        println!(
            "  swap length {swap_len}: peak {:.1}%, final {:.1}%, eclipsed {:.1}%",
            mal.max().unwrap_or(0.0),
            mal.last().unwrap_or(0.0),
            ecl.last().unwrap_or(0.0)
        );
        mal_series.push(mal);
    }
    let path = results_dir().join(file);
    save_series_csv(&path, &mal_series).expect("write series");
    print!("{}", ascii_chart(&mal_series, 60));
    println!("  [{}]", path.display());
}

/// Runs the Figure 5 **top** panels (minimal attack group).
pub fn run_top(scale: Scale) {
    banner("Figure 5 (top): SecureCyclon vs the minimal hub attack");
    match scale {
        Scale::Smoke => run_panel("smoke", 300, 20, 20, 80, "fig5_top_300.csv"),
        Scale::Quick => run_panel("1k", 1000, 20, 20, 100, "fig5_top_1k.csv"),
        Scale::Full => {
            run_panel("1k", 1000, 20, 20, 100, "fig5_top_1k.csv");
            run_panel("10k", 10_000, 50, 50, 100, "fig5_top_10k.csv");
        }
    }
    println!("  paper shape: brief spike after cycle 50, then rapid decay to ~0");
}

/// Runs the Figure 5 **bottom** panels (40% malicious).
pub fn run_bottom(scale: Scale) {
    banner("Figure 5 (bottom): SecureCyclon vs a 40% hub attack");
    match scale {
        Scale::Smoke => run_panel("smoke", 300, 120, 20, 100, "fig5_bottom_300.csv"),
        Scale::Quick => run_panel("1k", 1000, 400, 20, 120, "fig5_bottom_1k.csv"),
        Scale::Full => {
            run_panel("1k", 1000, 400, 20, 120, "fig5_bottom_1k.csv");
            run_panel("10k", 10_000, 4000, 50, 120, "fig5_bottom_10k.csv");
        }
    }
    println!(
        "  paper shape: surge to 60–90%, then collapse; s∈{{8,10}} at 1k leave an eclipsed residue"
    );
}
