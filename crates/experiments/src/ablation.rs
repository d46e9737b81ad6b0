//! **Ablations** — how much each design choice contributes to the
//! defense. Not a paper figure: it isolates, one at a time, the three
//! mechanisms the §IV–V defense rests on besides the proofs themselves:
//!
//! * **proof piggyback** (§IV-C): proofs ride on gossip in addition to
//!   flooding, catching nodes the flood missed;
//! * **redemption cache** (§V-C): spent descriptors keep circulating as
//!   samples for a few cycles;
//! * **eviction** (§IV-C): blacklisting + purging + flooding, versus
//!   merely detecting.
//!
//! Each variant runs the same hub attack; reported are the final
//! malicious-link share, blacklist coverage, and honest-side proof count.

use crate::common::{banner, results_dir, run_cell, Scale, ATTACK_CYCLE};
use sc_attacks::SecureAttack;
use sc_core::SecureConfig;
use sc_metrics::{save_series_csv, TimeSeries};
use sc_testkit::{malicious_link_fraction, step_of, Scenario, SecureNetwork};

struct Variant {
    name: &'static str,
    tweak: fn(&mut SecureConfig),
}

fn variants() -> Vec<Variant> {
    vec![
        Variant {
            name: "full protocol",
            tweak: |_| {},
        },
        Variant {
            name: "no proof piggyback",
            tweak: |c| c.proof_piggyback_cycles = 0,
        },
        Variant {
            name: "no redemption cache",
            tweak: |c| c.redemption_cache_cycles = 0,
        },
        Variant {
            name: "detection only (no eviction)",
            tweak: |c| c.eviction_enabled = false,
        },
    ]
}

/// The ablation cell: `n` nodes at the paper's defaults bar `v`'s tweak,
/// `k` of them hub attackers from engine cycle 50, `cycles` cycles after
/// the bootstrap.
fn scenario(v: &Variant, n: usize, k: usize, cycles: u64) -> Scenario {
    let mut cfg = SecureConfig::default();
    (v.tweak)(&mut cfg);
    Scenario::new(&format!("ablation {}", v.name), n)
        .config(cfg)
        .adversary(k, SecureAttack::Hub, step_of(ATTACK_CYCLE, &cfg))
        .cycles(cycles)
}

/// Runs the ablation matrix at the given scale.
pub fn run(scale: Scale) {
    banner("Ablation: contribution of each defense mechanism (hub attack)");
    let (n, n_malicious, cycles) = match scale {
        Scale::Smoke => (300, 15, 70),
        Scale::Quick | Scale::Full => (500, 25, 100),
    };
    println!("nodes:{n}, malicious:{n_malicious}, view:20, swap:3, attack at cycle 50");
    let mut all = Vec::new();
    for v in variants() {
        let mut series = TimeSeries::new(v.name);
        let cell = scenario(&v, n, n_malicious, cycles);
        let (summary, _) = run_cell(&cell, 42, |net: &SecureNetwork| {
            let malicious = &net.malicious_ids;
            series.push(
                net.engine.cycle(),
                100.0 * malicious_link_fraction(&net.engine, malicious),
            );
        });
        let (cloning, freq) = summary.proofs;
        println!(
            "  {:<30} final mal links {:>5.1}%  peak {:>5.1}%  blacklist coverage {:>5.1}%  proofs {}+{}",
            v.name,
            series.last().unwrap_or(0.0),
            series.max().unwrap_or(0.0),
            100.0 * summary.coverage,
            cloning,
            freq
        );
        all.push(series);
    }
    let path = results_dir().join("ablation_hub.csv");
    save_series_csv(&path, &all).expect("write series");
    println!("  [{}]", path.display());
    println!(
        "  expectation: eviction is the decisive mechanism; the caches and piggyback \
         accelerate convergence and cover stragglers"
    );
}
