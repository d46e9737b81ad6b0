//! The standard scenario matrix.
//!
//! Fourteen scenarios × three seeds = 42 deterministic combinations,
//! covering the paper's adversity axes: message loss (uniform and
//! asymmetric), partitions with heal, churn, catastrophic failure,
//! crash-restarts from durable state, every `sc-attacks` strategy, and
//! compositions thereof. Every scenario additionally carries the
//! redemption-cache bound and §VI-A byte-budget oracles. `quick` mode
//! shrinks populations and horizons for CI while keeping every scenario
//! and every oracle in play.

use crate::scenario::{OracleConfig, Scenario};
use sc_attacks::SecureAttack;
use sc_core::{Loss, SecureConfig};

/// Seeds every scenario is swept under.
pub const MATRIX_SEEDS: [u64; 3] = [1, 2, 3];

/// Relative sizing for a matrix sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatrixSize {
    /// Honest+malicious population of the standard scenario.
    pub n: usize,
    /// Run length of the standard scenario.
    pub cycles: u64,
    /// Per-cycle oracle sampling stride (`1` = check every cycle). The
    /// scale tier samples sparsely because each check walks every view.
    pub oracle_stride: u64,
    /// Population of the headline `honest-reliable` scenario. Equal to
    /// `n` in the quick/full tiers; the scale tier stretches just this
    /// one scenario to its 20k ceiling so the sweep exercises the
    /// engine's upper range without tripling the whole matrix's cost.
    pub headline_n: usize,
    /// Protocol view length ℓ. The quick/full tiers run the harness's
    /// historical ℓ = 8; the scale tier runs the paper's proposed
    /// configuration (§VI-A: ℓ = 20, s = 3) — at thousands of nodes a
    /// compressed view does not survive the mass view purge that follows
    /// evicting a hub adversary, and the overlay fragments.
    pub view_len: usize,
}

impl MatrixSize {
    /// Full-fidelity sizing (local runs, nightly CI).
    pub fn full() -> Self {
        MatrixSize {
            n: 96,
            cycles: 80,
            oracle_stride: 1,
            headline_n: 96,
            view_len: 8,
        }
    }

    /// CI sizing: same scenarios, same oracles, smaller and shorter.
    pub fn quick() -> Self {
        MatrixSize {
            n: 48,
            cycles: 40,
            oracle_stride: 1,
            headline_n: 48,
            view_len: 8,
        }
    }

    /// Socket-tier sizing: one `sc-node` process a node, at the view
    /// length of the loopback tier's quick clusters
    /// ([`crate::ClusterConfig::quick`]). The horizon is set by
    /// `honest-island-rejoin`, whose island is cut off for a quarter of
    /// it: a node has starved — view, reserve and both back-fill pools
    /// empty, the condition of a §V-A rejoin ping — ℓ + 8 + ≈ 3 cycles
    /// after its last exchange (14–17 measured at ℓ = 6), and 24 severed
    /// cycles leave that a margin wall-clock scheduling does not eat.
    pub fn live() -> Self {
        MatrixSize {
            n: 12,
            cycles: 96,
            oracle_stride: 1,
            headline_n: 12,
            view_len: 6,
        }
    }

    /// Scale-tier sizing: the same fourteen scenarios at 5k nodes (20k for
    /// the headline honest scenario), with per-cycle oracles sampled
    /// every few cycles. Run it in release mode — debug builds are an
    /// order of magnitude slower at these populations:
    ///
    /// ```text
    /// SC_MATRIX=scale cargo test --release --test scenario_matrix -- --nocapture
    /// ```
    pub fn scale() -> Self {
        MatrixSize {
            n: 5_000,
            cycles: 32,
            oracle_stride: 8,
            headline_n: 20_000,
            view_len: 20,
        }
    }
}

/// §VI-A per-node-per-cycle traffic ceiling, in paper bytes, for the
/// byte-budget oracle. Measured across the quick tier (ℓ = 8): the
/// busiest node of the hottest scenario (partition-cloning, which
/// combines proof floods with post-heal catch-up) averages ≈12 KiB per
/// cycle, under half this ceiling — enough headroom for seed variance,
/// tight enough to catch a quadratic-traffic regression immediately
/// (the runner's headroom test pins the measurement). Scaled by ℓ
/// because both the per-exchange payload (ownership chains grow to the
/// descriptor lifetime ≈ ℓ) and the proof-flood fanout (one flood per
/// neighbor) grow linearly with the view length.
pub(crate) fn byte_budget(size: MatrixSize) -> u64 {
    4 * 1024 * size.view_len as u64
}

/// Oracles for honest-only scenarios: everything that is unconditionally
/// sound, including global unique ownership.
pub(crate) fn honest_oracles(size: MatrixSize, min_fill: Option<f64>) -> OracleConfig {
    OracleConfig {
        warmup: size.cycles / 2,
        stride: size.oracle_stride,
        unique_ownership: true,
        max_indegree: Some(4 * size.view_len), // 4×ℓ (Figure 2 tail)
        final_connectivity: Some(1.0),
        final_min_fill: min_fill,
        ..OracleConfig::default()
    }
}

/// Oracles for attack scenarios: detection replaces unique ownership
/// (cloning adversaries violate it by design until they are caught).
fn attack_oracles(size: MatrixSize, coverage_floor: f64) -> OracleConfig {
    OracleConfig {
        warmup: size.cycles / 2,
        stride: size.oracle_stride,
        expect_detection: Some(coverage_floor),
        final_connectivity: Some(1.0),
        ..OracleConfig::default()
    }
}

/// Builds the standard scenario matrix at the given size.
pub fn standard_matrix(size: MatrixSize) -> Vec<Scenario> {
    let n = size.n;
    let cycles = size.cycles;
    let cfg = SecureConfig::default()
        .with_view_len(size.view_len)
        .with_swap_len(3);
    let byz = n / 12; // ~8% Byzantine where an adversary is present
    let attack_start = cycles / 8;
    let mid = cycles / 3;
    let heal = 2 * cycles / 3;

    vec![
        // -- honest baselines over the fault axes ----------------------
        Scenario::new("honest-reliable", size.headline_n)
            .cycles(cycles)
            .config(cfg)
            .oracles(honest_oracles(size, Some(0.7))),
        Scenario::new("honest-lossy-10", n)
            .cycles(cycles)
            .config(cfg)
            .loss(Loss::uniform(0.10))
            .oracles(honest_oracles(size, Some(0.6))),
        Scenario::new("honest-asymmetric-loss", n)
            .cycles(cycles)
            .config(cfg)
            .loss(Loss::new(0.15, 0.05, 0.10))
            // The congestion clears late in the run: the loss-regime
            // change exercises `set_loss_at`, and recovery must follow.
            .set_loss_at(heal, Loss::default())
            .oracles(honest_oracles(size, Some(0.6))),
        Scenario::new("honest-partition-heal", n)
            .cycles(cycles)
            .config(cfg)
            .partition_at(mid, 1.0 / 3.0)
            .heal_at(heal)
            // A third of the network keeps gossiping internally, never
            // starves, and so never sends rejoin pings — reconnection
            // needs the harness's bootstrap-server stand-in.
            .heal_fallback()
            .oracles(honest_oracles(size, Some(0.5))),
        Scenario::new("honest-island-rejoin", n)
            .cycles(cycles)
            .config(cfg)
            // A lone node severed from everyone: its links all die, it
            // drains to starvation, and after the heal it must re-enter
            // through the protocol's own §V-A rejoin pings — no harness
            // re-sponsorship (the fallback stays off).
            .partition_at(cycles / 4, 1.2 / n as f64)
            .heal_at(cycles / 2)
            .oracles(honest_oracles(size, Some(0.5))),
        Scenario::new("honest-crash-restart", n)
            .cycles(cycles)
            .config(cfg)
            // Two kill -9 + recover-from-backend waves. Unique ownership
            // stays on: recovery must never resurrect a descriptor whose
            // ownership left in a previous life.
            .restart_at(mid, 0.25)
            // The second wave strikes *inside* a cycle, halfway through
            // the turn order: nodes that already gossiped this cycle are
            // replaced by recovered instances before the rest fire.
            .restart_mid_cycle_at(heal, 0.25, 0.5)
            .oracles(honest_oracles(size, Some(0.5))),
        Scenario::new("honest-churn", n)
            .cycles(cycles)
            .config(cfg)
            // Joins are stated relative to the population, like the
            // leave probability: one a cycle at the quick tier's 48
            // nodes, and leaves and joins balance at every size.
            .churn(mid / 2, heal, 0.02, n as f64 / 48.0)
            .oracles(honest_oracles(size, Some(0.5))),
        Scenario::new("honest-mass-failure", n)
            .cycles(cycles)
            .config(cfg)
            .kill_at(mid, 0.3)
            .oracles(honest_oracles(size, Some(0.5))),
        // -- each adversary through the real engine --------------------
        Scenario::new("hub-attack", n)
            .cycles(cycles)
            .config(cfg)
            .adversary(byz, SecureAttack::Hub, attack_start)
            .oracles(attack_oracles(size, 0.9)),
        Scenario::new("cloning-attack", n)
            .cycles(cycles)
            .config(cfg)
            .adversary(byz, SecureAttack::Cloner { target_age: 3 }, attack_start)
            .oracles(attack_oracles(size, 0.2)),
        Scenario::new("frequency-attack", n)
            .cycles(cycles)
            .config(cfg)
            .adversary(
                byz.min(4),
                SecureAttack::Frequency { extra: 2 },
                attack_start,
            )
            .oracles(attack_oracles(size, 0.8)),
        Scenario::new("depletion-attack", n)
            .cycles(cycles)
            .config(cfg)
            .adversary(byz, SecureAttack::Depletion, attack_start)
            // Depletion never clones, so nothing is provable; the oracle
            // load here is structural: views stay legal, nobody honest is
            // accused, and the overlay survives connected.
            .oracles(OracleConfig {
                warmup: cycles / 2,
                stride: size.oracle_stride,
                final_connectivity: Some(1.0),
                ..OracleConfig::default()
            }),
        // -- compositions ----------------------------------------------
        Scenario::new("partition-cloning", n)
            .cycles(cycles)
            .config(cfg)
            .adversary(byz, SecureAttack::Cloner { target_age: 3 }, attack_start)
            .partition_at(mid, 0.25)
            .heal_at(heal)
            .heal_fallback()
            .oracles(attack_oracles(size, 0.1)),
        Scenario::new("lossy-churn-hub", n)
            .cycles(cycles)
            .config(cfg)
            .adversary(byz, SecureAttack::Hub, attack_start)
            .loss(Loss::uniform(0.05))
            .churn(mid / 2, heal, 0.01, n as f64 / 96.0)
            // Loss, churn, and an active adversary composed can strand the
            // odd orphan whose every link died; tolerate a small residue.
            .oracles(OracleConfig {
                final_connectivity: Some(0.9),
                ..attack_oracles(size, 0.7)
            }),
    ]
    .into_iter()
    .map(|mut sc| {
        // Every scenario — honest or adversarial — carries the two
        // resource oracles: the §V-C redemption cache stays within its
        // configured entry cap, and per-node traffic stays within the
        // §VI-A budget.
        sc.oracles.redemption_bound = Some(sc_core::node::REDEMPTION_CACHE_MAX_ENTRIES);
        sc.oracles.byte_budget_per_cycle = Some(byte_budget(size));
        sc
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_tier_spans_five_to_twenty_thousand_nodes() {
        let size = MatrixSize::scale();
        let scenarios = standard_matrix(size);
        assert!(scenarios.iter().all(|s| s.n >= 5_000));
        assert!(scenarios.iter().any(|s| s.n >= 20_000));
        assert!(scenarios.iter().all(|s| s.oracles.stride > 1));
        // The scale tier runs the paper's proposed configuration (§VI-A).
        assert!(scenarios.iter().all(|s| s.cfg.view_len == 20));
        // The quick tier is untouched by the scale tier's existence.
        let quick = standard_matrix(MatrixSize::quick());
        assert!(quick
            .iter()
            .all(|s| s.n == 48 && s.oracles.stride == 1 && s.cfg.view_len == 8));
    }

    #[test]
    fn matrix_meets_the_thirty_combination_floor() {
        for size in [MatrixSize::quick(), MatrixSize::full(), MatrixSize::scale()] {
            let scenarios = standard_matrix(size);
            assert!(scenarios.len() * MATRIX_SEEDS.len() >= 30);
            // Names are unique (they are the replay filter key).
            let mut names: Vec<_> = scenarios.iter().map(|s| s.name.clone()).collect();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), scenarios.len());
        }
    }

    #[test]
    fn seven_scenarios_fit_the_socket_tier_and_seven_say_why_not() {
        const NO_ADVERSARY: &str =
            "no adversary binary: sc-node runs the honest machine only (ROADMAP 3(a))";
        const NO_RESPONSOR: &str = "heal_fallback: the control socket has no re-sponsor verb";
        let fits: Vec<(String, Result<(), &str>)> = standard_matrix(MatrixSize::live())
            .iter()
            .map(|s| (s.name.clone(), s.live_fit()))
            .collect();
        let expected = [
            ("honest-reliable", Ok(())),
            ("honest-lossy-10", Ok(())),
            ("honest-asymmetric-loss", Ok(())),
            ("honest-partition-heal", Err(NO_RESPONSOR)),
            ("honest-island-rejoin", Ok(())),
            ("honest-crash-restart", Ok(())),
            ("honest-churn", Ok(())),
            ("honest-mass-failure", Ok(())),
            ("hub-attack", Err(NO_ADVERSARY)),
            ("cloning-attack", Err(NO_ADVERSARY)),
            ("frequency-attack", Err(NO_ADVERSARY)),
            ("depletion-attack", Err(NO_ADVERSARY)),
            ("partition-cloning", Err(NO_ADVERSARY)),
            ("lossy-churn-hub", Err(NO_ADVERSARY)),
        ];
        assert_eq!(fits.len(), expected.len());
        for ((name, fit), (expected_name, expected_fit)) in fits.iter().zip(expected) {
            assert_eq!((name.as_str(), *fit), (expected_name, expected_fit));
        }
        // One process a node: a dozen, with the loopback tier's ℓ.
        assert!(standard_matrix(MatrixSize::live())
            .iter()
            .all(|s| s.n == 12 && s.cfg.view_len == 6));
    }

    #[test]
    fn matrix_covers_the_required_axes() {
        let scenarios = standard_matrix(MatrixSize::quick());
        assert!(scenarios
            .iter()
            .any(|s| s.has_partition() && s.n_malicious == 0));
        assert!(scenarios
            .iter()
            .any(|s| matches!(s.adversary, SecureAttack::Cloner { .. })));
        assert!(scenarios.iter().any(|s| s.churn.is_some()));
        assert!(scenarios
            .iter()
            .any(|s| s.n_malicious > 0 && (s.has_partition() || s.churn.is_some())));
        // Durable-state coverage: crash-restarts, and a partition healed
        // purely by the protocol's rejoin pings (no harness fallback).
        assert!(scenarios.iter().any(|s| s.has_restart() && s.durable));
        assert!(scenarios
            .iter()
            .any(|s| s.has_partition() && !s.runner_heal_fallback));
        // The resource oracles ride along on every scenario.
        assert!(scenarios
            .iter()
            .all(|s| s.oracles.redemption_bound.is_some()
                && s.oracles.byte_budget_per_cycle.is_some()));
    }
}
