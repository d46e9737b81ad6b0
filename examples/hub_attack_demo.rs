//! The paper's headline result, side by side: the same hub attack
//! destroys legacy Cyclon and bounces off SecureCyclon.
//!
//! ```text
//! cargo run --release --example hub_attack_demo
//! ```

use securecyclon::attacks::{
    build_legacy_network, legacy_malicious_link_fraction, LegacyNetParams, SecureAttack,
};
use securecyclon::core::SecureConfig;
use securecyclon::cyclon::CyclonConfig;
use securecyclon::metrics::{ascii_chart, TimeSeries};
use securecyclon::testkit::{malicious_link_fraction, run_scenario_observed, step_of, Scenario};

const N: usize = 400;
const MALICIOUS: usize = 12;
const VIEW: usize = 12;
const ATTACK_AT: u64 = 30;
const CYCLES: u64 = 160;

fn legacy_run() -> TimeSeries {
    let (mut engine, mal) = build_legacy_network(LegacyNetParams {
        n: N,
        n_malicious: MALICIOUS,
        cfg: CyclonConfig {
            view_len: VIEW,
            swap_len: 3,
        },
        attack_start: ATTACK_AT,
        seed: 9,
    });
    let mut series = TimeSeries::new("legacy Cyclon");
    for c in 0..CYCLES {
        engine.run_cycle();
        series.push(c, 100.0 * legacy_malicious_link_fraction(&engine, &mal));
    }
    series
}

/// The Figure 5 scenario shape: hub attackers from engine cycle
/// `ATTACK_AT`.
fn secure_run() -> TimeSeries {
    let cfg = SecureConfig::default().with_view_len(VIEW).with_swap_len(3);
    let scenario = Scenario::new("hub-attack-demo", N)
        .config(cfg)
        .adversary(MALICIOUS, SecureAttack::Hub, step_of(ATTACK_AT, &cfg))
        .cycles(CYCLES);
    let mut series = TimeSeries::new("SecureCyclon");
    let mut c = 0;
    run_scenario_observed(&scenario, 9, |net| {
        series.push(
            c,
            100.0 * malicious_link_fraction(&net.engine, &net.malicious_ids),
        );
        c += 1;
    })
    .unwrap_or_else(|v| panic!("{v}"));
    series
}

fn main() {
    println!(
        "hub attack: {MALICIOUS} colluding nodes among {N}, attack starts at cycle {ATTACK_AT}\n"
    );
    let legacy = legacy_run();
    let secure = secure_run();

    println!("links routing to the attacker (% of honest views):\n");
    print!("{}", ascii_chart(&[legacy.clone(), secure.clone()], 64));

    println!(
        "\nlegacy Cyclon:  final {:.1}% — the attacker owns the overlay",
        legacy.last().unwrap_or(0.0)
    );
    println!(
        "SecureCyclon:   peak {:.1}%, final {:.1}% — violators proven, blacklisted, purged",
        secure.max().unwrap_or(0.0),
        secure.last().unwrap_or(0.0)
    );
}
