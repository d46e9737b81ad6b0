//! The deterministic adversarial scenario matrix.
//!
//! Sweeps every scenario in `sc_testkit::catalog` under every matrix seed
//! (≥ 30 scenario×seed combinations), checking the protocol invariant
//! oracles after every cycle. Any violation aborts with the scenario
//! name, seed, and cycle — and, because runs are deterministic, re-running
//! with that seed reproduces the failure bit-for-bit.
//!
//! Environment knobs:
//!
//! * `SC_MATRIX=full` — full-fidelity sizing (larger populations, longer
//!   horizons). The default — and what CI runs on every push — is the
//!   quick sizing: same scenarios, same seeds, same oracles, smaller
//!   runs.
//! * `SC_MATRIX=scale` — scale-tier sizing: the same scenarios at
//!   5k–20k nodes with sampled per-cycle oracles. Run it with
//!   `--release`; debug builds are an order of magnitude slower at these
//!   populations.
//! * `SC_SCENARIO=<name>` — run only the named scenario.
//! * `SC_SEED=<seed>` — run only the given seed.
//!
//! Each clean run prints its `ok` summary line and, under it, the honest
//! nodes' refusals, rejections and discards summed by cause.
//!
//! Replaying a reported violation:
//!
//! ```text
//! SC_SCENARIO='honest-partition-heal' SC_SEED=2 \
//!     cargo test --test scenario_matrix -- --nocapture
//! ```

use securecyclon::testkit::{
    run_scenario, run_scenario_with_net, standard_matrix, MatrixSize, NetSnapshot, MATRIX_SEEDS,
};

fn env_filter(name: &str) -> Option<String> {
    std::env::var(name).ok().filter(|v| !v.is_empty())
}

#[test]
fn scenario_matrix_holds_all_oracles() {
    let size = match env_filter("SC_MATRIX").as_deref() {
        Some("full") => MatrixSize::full(),
        Some("scale") => MatrixSize::scale(),
        _ => MatrixSize::quick(),
    };
    let scenario_filter = env_filter("SC_SCENARIO");
    let seed_filter: Option<u64> = env_filter("SC_SEED").map(|s| {
        s.parse()
            .unwrap_or_else(|_| panic!("SC_SEED must be an integer, got '{s}'"))
    });

    let scenarios = standard_matrix(size);
    let combos: Vec<_> = scenarios
        .iter()
        .filter(|sc| scenario_filter.as_deref().is_none_or(|f| sc.name == f))
        .flat_map(|sc| {
            MATRIX_SEEDS
                .iter()
                .filter(|&&s| seed_filter.is_none_or(|f| s == f))
                .map(move |&s| (sc, s))
        })
        .collect();
    assert!(
        !combos.is_empty(),
        "no combination matches SC_SCENARIO={scenario_filter:?} SC_SEED={seed_filter:?}"
    );
    if scenario_filter.is_none() && seed_filter.is_none() {
        assert!(
            combos.len() >= 30,
            "the matrix must sweep at least 30 scenario×seed combinations, got {}",
            combos.len()
        );
    }

    let mut failures = Vec::new();
    for (scenario, seed) in combos {
        match run_scenario_with_net(scenario, seed) {
            Ok((summary, net)) => {
                let end = NetSnapshot::from_network(&net);
                println!(
                    "ok   {:<24} seed {seed}: {} cycles, {} alive ({} honest, +{} joined, \
                     -{} departed), proofs {:?}, coverage {:.2}, mal-links {:.3}, ns {:.3}",
                    summary.scenario,
                    summary.steps,
                    summary.final_alive,
                    summary.final_honest,
                    summary.joined,
                    summary.departed,
                    summary.proofs,
                    summary.coverage,
                    summary.malicious_links,
                    summary.ns_links,
                );
                println!("     causes {}", end.causes());
            }
            Err(violation) => {
                println!("FAIL {violation}");
                failures.push(violation.to_string());
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} oracle violation(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// `honest-island-rejoin` with its lone islander cut off for 70 cycles,
/// longer than the 60-cycle sample window: every sample and redeemed copy
/// the islander holds expires before the heal, and it must still find a
/// sponsor. The quick and full sizings sever it for 10 and 20 cycles.
#[test]
fn an_island_outlasting_the_sample_window_rejoins() {
    let size = MatrixSize {
        cycles: 280,
        ..MatrixSize::quick()
    };
    let scenarios = standard_matrix(size);
    let island = scenarios
        .iter()
        .find(|s| s.name == "honest-island-rejoin")
        .expect("catalog names are stable");
    for seed in MATRIX_SEEDS {
        if let Err(violation) = run_scenario(island, seed) {
            panic!("{violation}");
        }
    }
}

#[test]
fn replayed_runs_are_bit_identical() {
    // The contract behind the replay workflow: the same (scenario, seed)
    // pair produces the same summary, down to every counter.
    let size = MatrixSize::quick();
    let scenarios = standard_matrix(size);
    let scenario = scenarios
        .iter()
        .find(|s| s.name == "lossy-churn-hub")
        .expect("catalog names are stable");
    let a = run_scenario(scenario, MATRIX_SEEDS[0]).expect("clean run");
    let b = run_scenario(scenario, MATRIX_SEEDS[0]).expect("clean run");
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}
