//! Shared experiment machinery: scales, the one way a SecureCyclon
//! figure cell runs (a [`Scenario`] through the testkit runner), and
//! result emission.

use sc_testkit::{run_scenario_observed, RunSummary, Scenario, SecureNetwork};
use std::path::PathBuf;

/// How big the experiments run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Tiny runs for CI and benches (hundreds of nodes, short horizons).
    Smoke,
    /// The paper's 1k-node configurations (default).
    Quick,
    /// Adds the paper's 10k-node configurations.
    Full,
}

impl Scale {
    /// Parses a `--scale` argument.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "smoke" => Some(Scale::Smoke),
            "quick" => Some(Scale::Quick),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }
}

/// Where CSV outputs land (`results/` under the workspace root).
pub fn results_dir() -> PathBuf {
    std::env::var_os("SC_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// The engine cycle at which every SecureCyclon figure's attack starts
/// (§VI: "attack at cycle 50").
pub const ATTACK_CYCLE: u64 = 50;

/// Runs one figure cell through the scenario runner, handing the network
/// to `observe` after every cycle. A figure cell is audited by its
/// scenario's oracles like any catalog run, so one that trips is a
/// protocol bug: it panics naming the cell, the seed and the violation.
pub fn run_cell(
    scenario: &Scenario,
    seed: u64,
    observe: impl FnMut(&SecureNetwork),
) -> (RunSummary, SecureNetwork) {
    run_scenario_observed(scenario, seed, observe).unwrap_or_else(|v| {
        panic!(
            "figure cell '{}' (seed {}) tripped oracle '{}' at cycle {}: {}",
            v.scenario, v.seed, v.oracle, v.cycle, v.detail
        )
    })
}

/// Prints a section header for terminal output.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}
