//! The paper's headline result, side by side: the same hub attack
//! destroys legacy Cyclon and bounces off SecureCyclon.
//!
//! ```text
//! cargo run --release --example hub_attack_demo
//! ```

use securecyclon::attacks::SecureAttack;
use securecyclon::core::SecureConfig;
use securecyclon::metrics::{ascii_chart, TimeSeries};
use securecyclon::testkit::{
    malicious_link_fraction, run_scenario_observed, CyclonNetwork, Scenario, SecureNetwork,
    SimNetwork,
};

const N: usize = 400;
const MALICIOUS: usize = 12;
const VIEW: usize = 12;
const ATTACK_AT: u64 = 30;
const CYCLES: u64 = 160;

/// The attack on protocol `P`'s network: links routing to the attacker
/// after every step.
fn run<P: SimNetwork>(name: &str, scenario: &Scenario) -> TimeSeries {
    let mut series = TimeSeries::new(name);
    let mut c = 0;
    run_scenario_observed(scenario, 9, |net: &P| {
        let malicious = net.malicious();
        series.push(c, 100.0 * malicious_link_fraction(net.engine(), malicious));
        c += 1;
    })
    .unwrap_or_else(|v| panic!("{v}"));
    series
}

fn main() {
    println!(
        "hub attack: {MALICIOUS} colluding nodes among {N}, attack starts at cycle {ATTACK_AT}\n"
    );
    let cfg = SecureConfig::default().with_view_len(VIEW).with_swap_len(3);
    let scenario = Scenario::new("hub-attack-demo", N)
        .config(cfg)
        .adversary(MALICIOUS, SecureAttack::Hub, ATTACK_AT)
        .cycles(CYCLES);
    let legacy = run::<CyclonNetwork>("legacy Cyclon", &scenario);
    let secure = run::<SecureNetwork>("SecureCyclon", &scenario);

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
