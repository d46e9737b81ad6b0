//! Deterministic scenario execution.
//!
//! [`run_scenario`] turns a `(Scenario, seed)` pair into a full simulated
//! run on the real `sc-sim` engine: bootstrap, scheduled fault injection,
//! churn with sponsored joins, per-cycle oracle checks, and end-of-run
//! convergence checks. All randomness — fault targets, churn rolls,
//! joiner identities — derives from the master seed through
//! `sc_sim::rng`, so two runs of the same pair are bit-identical.

use crate::net::{
    build_secure_network, malicious_link_fraction, ns_link_fraction, proofs_generated,
    SecureNetParams, SecureNetwork,
};
use crate::oracles::{OracleSuite, Violation};
use crate::scenario::{Event, Scenario};
use rand::seq::SliceRandom;
use rand::Rng;
use sc_crypto::hex::to_hex;
use sc_sim::{Addr, NetworkModel, Partition};

/// What a completed (violation-free) run looked like.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Scenario name.
    pub scenario: String,
    /// Master seed.
    pub seed: u64,
    /// Run steps executed.
    pub steps: u64,
    /// Alive nodes at the end.
    pub final_alive: usize,
    /// Alive honest nodes at the end.
    pub final_honest: usize,
    /// Nodes that joined via sponsorship during the run.
    pub joined: u64,
    /// Nodes that crashed (churn + kill events).
    pub departed: u64,
    /// Existing nodes reintroduced via sponsorship at heal events.
    pub reintroduced: u64,
    /// Honest nodes crash-restarted from their durable backends.
    pub restarted: u64,
    /// Violation proofs generated by honest nodes `(cloning, frequency)`.
    pub proofs: (u64, u64),
    /// Final average blacklist coverage of the malicious population.
    pub coverage: f64,
    /// Final fraction of honest links pointing at malicious nodes.
    pub malicious_links: f64,
    /// Final fraction of honest links that are non-swappable.
    pub ns_links: f64,
    /// Deliberate duplications performed by cloner adversaries.
    pub clone_events: usize,
}

/// Runs one scenario under one seed; returns the summary, or the first
/// oracle violation (which names scenario, seed, and cycle for replay).
pub fn run_scenario(scenario: &Scenario, seed: u64) -> Result<RunSummary, Violation> {
    run_scenario_with_net(scenario, seed).map(|(summary, _)| summary)
}

/// [`run_scenario`], but also hands back the finished network so callers
/// can inspect final node state (the equivalence oracle compares two such
/// networks byte for byte).
pub fn run_scenario_with_net(
    scenario: &Scenario,
    seed: u64,
) -> Result<(RunSummary, SecureNetwork), Violation> {
    let (attack, ledger) = scenario.adversary.materialize();
    // Scenario steps are relative to the end of bootstrap; the engine
    // clock starts at ℓ (ring-bootstrap contract), so shift the attack
    // trigger accordingly.
    let start_cycle = scenario.cfg.view_len as u64;
    let params = SecureNetParams {
        n: scenario.n,
        n_malicious: scenario.n_malicious,
        cfg: scenario.cfg,
        attack,
        attack_start: start_cycle + scenario.attack_start,
        seed,
        scheme: sc_crypto::Scheme::KeyedHash,
        net: NetworkModel::asymmetric(scenario.loss.0, scenario.loss.1, scenario.loss.2),
        durable: scenario.durable,
    };
    let mut net = build_secure_network(params);
    let mut oracles = OracleSuite::new(scenario, seed);
    let mut fault_rng = sc_sim::rng::std_rng(seed, "faults", 0);
    let mut churn_rng = sc_sim::rng::std_rng(seed, "churn", 0);
    let mut join_accumulator = 0.0f64;
    let mut joined = 0u64;
    let mut departed = 0u64;
    let mut reintroduced = 0u64;
    let mut restarted = 0u64;

    for step in 0..scenario.cycles {
        // -- scheduled fault events ------------------------------------
        // Mid-cycle restarts cannot be applied here (the cycle hasn't
        // started): pick the victims now, from the same seeded stream as
        // every other fault, and interrupt the cycle below.
        let mut mid_restart: Option<(Vec<Addr>, f64)> = None;
        for event in scenario.events.iter().filter(|e| e.step() == step) {
            if let Event::RestartMidCycle {
                frac, turn_frac, ..
            } = *event
            {
                let mut honest: Vec<Addr> = net
                    .engine
                    .nodes()
                    .filter(|(_, n)| !n.is_malicious())
                    .map(|(a, _)| a)
                    .collect();
                honest.shuffle(&mut fault_rng);
                let k = ((honest.len() as f64 * frac) as usize).min(honest.len());
                honest.truncate(k);
                mid_restart = Some((honest, turn_frac));
                continue;
            }
            apply_event(
                &mut net,
                event,
                scenario.runner_heal_fallback,
                &mut fault_rng,
                &mut departed,
                &mut reintroduced,
                &mut restarted,
            );
        }

        // -- churn ------------------------------------------------------
        if let Some(w) = scenario.churn {
            if step >= w.from && step < w.to {
                churn_step(
                    &mut net,
                    w.leave_prob,
                    w.join_per_cycle,
                    &mut churn_rng,
                    &mut join_accumulator,
                    &mut joined,
                    &mut departed,
                );
            }
        }

        match mid_restart {
            Some((victims, turn_frac)) => {
                let after = (net.engine.alive_count() as f64 * turn_frac) as usize;
                restarted += net.run_cycle_with_mid_restart(after, &victims) as u64;
            }
            None => net.engine.run_cycle(),
        }
        oracles.check_cycle(&net, step)?;
    }
    oracles.check_final(&net)?;

    let final_honest = net
        .engine
        .nodes()
        .filter(|(_, n)| !n.is_malicious())
        .count();
    let summary = RunSummary {
        scenario: scenario.name.clone(),
        seed,
        steps: scenario.cycles,
        final_alive: net.engine.alive_count(),
        final_honest,
        joined,
        departed,
        reintroduced,
        restarted,
        proofs: proofs_generated(&net.engine),
        coverage: crate::net::blacklist_coverage(&net.engine, &net.malicious_ids),
        malicious_links: malicious_link_fraction(&net.engine, &net.malicious_ids),
        ns_links: ns_link_fraction(&net.engine),
        clone_events: ledger.map_or(0, |l| l.lock().unwrap().events.len()),
    };
    Ok((summary, net))
}

/// Canonical rendering of every honest node's protocol-visible end state:
/// its view in order — `id`, state digest and non-swappable flag per
/// entry — and its blacklist with culprits sorted. Two runs are
/// state-identical iff these renderings match byte for byte. The
/// rendering names protocol values only, never a type's `Debug` layout,
/// so it does not move when storage does.
pub fn state_fingerprint(net: &SecureNetwork) -> Vec<String> {
    use std::fmt::Write;
    net.engine
        .nodes()
        .filter_map(|(addr, node)| {
            let h = node.honest()?;
            let mut line = format!("node {addr}: view=[");
            for e in h.view().iter() {
                let id = e.desc.id();
                let _ = write!(
                    line,
                    "({}@{} {} ns={}) ",
                    to_hex(id.creator.as_bytes()),
                    id.created_at.ticks(),
                    to_hex(&e.desc.state_digest()),
                    e.non_swappable,
                );
            }
            line.push_str("] blacklist=[");
            let mut culprits: Vec<_> = h.blacklist().culprits().collect();
            culprits.sort_unstable();
            for c in culprits {
                let _ = write!(line, "{} ", to_hex(c.as_bytes()));
            }
            line.push(']');
            Some(line)
        })
        .collect()
}

/// Minimum population a fault event leaves alive, so a scenario cannot
/// accidentally annihilate the network it is supposed to observe.
const MIN_ALIVE: usize = 8;

#[allow(clippy::too_many_arguments)]
fn apply_event(
    net: &mut SecureNetwork,
    event: &Event,
    heal_fallback: bool,
    rng: &mut rand::rngs::StdRng,
    departed: &mut u64,
    reintroduced: &mut u64,
    restarted: &mut u64,
) {
    match *event {
        Event::Partition { island_frac, .. } => {
            let mut alive: Vec<Addr> = net.engine.nodes().map(|(a, _)| a).collect();
            alive.shuffle(rng);
            let island_len = ((alive.len() as f64 * island_frac) as usize).min(alive.len());
            let island = alive.into_iter().take(island_len);
            let model = net
                .engine
                .net()
                .clone()
                .with_partition(Partition::isolate(island));
            net.engine.set_net(model);
        }
        Event::Heal { .. } => {
            let partition = net.engine.net().partition.clone();
            let model = net.engine.net().clone().healed();
            net.engine.set_net(model);
            // A partition outlasting the descriptor lifetime consumes
            // every cross-side link (redeeming toward an unreachable
            // creator spends the descriptor). Fully starved nodes now
            // re-sponsor themselves through the protocol's own rejoin
            // pings (§V-A), but islands big enough to keep gossiping
            // internally never starve and never ping; scenarios with
            // such islands opt into this harness fallback, which models
            // a bootstrap-server reconnect: a few island nodes are
            // re-sponsored by mainland nodes, and ordinary gossip
            // re-knits the rest.
            if let Some(p) = partition.filter(|_| heal_fallback) {
                let mainland_side = p.default_side();
                let mut island: Vec<Addr> = Vec::new();
                let mut mainland: Vec<Addr> = Vec::new();
                for (addr, node) in net.engine.nodes() {
                    if node.is_malicious() {
                        continue;
                    }
                    if p.side(addr) == mainland_side {
                        mainland.push(addr);
                    } else {
                        island.push(addr);
                    }
                }
                island.sort_unstable();
                mainland.sort_unstable();
                island.shuffle(rng);
                mainland.shuffle(rng);
                let k = (island.len() / 8).max(2).min(mainland.len());
                for (&node, &sponsor) in island.iter().zip(mainland.iter()).take(k) {
                    if net.reintroduce(node, sponsor) {
                        *reintroduced += 1;
                    }
                }
            }
        }
        Event::SetLoss { rates, .. } => {
            let mut model = NetworkModel::asymmetric(rates.0, rates.1, rates.2);
            model.partition = net.engine.net().partition.clone();
            net.engine.set_net(model);
        }
        Event::Kill { frac, .. } => {
            let mut alive: Vec<Addr> = net.engine.nodes().map(|(a, _)| a).collect();
            alive.shuffle(rng);
            let budget = alive.len().saturating_sub(MIN_ALIVE);
            let kill = ((alive.len() as f64 * frac) as usize).min(budget);
            for addr in alive.into_iter().take(kill) {
                net.engine.kill(addr);
                *departed += 1;
            }
        }
        // Handled in the step loop: it interrupts the cycle itself.
        Event::RestartMidCycle { .. } => {}
        Event::Restart { frac, .. } => {
            let mut honest: Vec<Addr> = net
                .engine
                .nodes()
                .filter(|(_, n)| !n.is_malicious())
                .map(|(a, _)| a)
                .collect();
            honest.shuffle(rng);
            let k = ((honest.len() as f64 * frac) as usize).min(honest.len());
            for addr in honest.into_iter().take(k) {
                if net.crash_restart(addr) {
                    *restarted += 1;
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn churn_step(
    net: &mut SecureNetwork,
    leave_prob: f64,
    join_per_cycle: f64,
    rng: &mut rand::rngs::StdRng,
    join_accumulator: &mut f64,
    joined: &mut u64,
    departed: &mut u64,
) {
    if leave_prob > 0.0 {
        let alive: Vec<Addr> = net.engine.nodes().map(|(a, _)| a).collect();
        for addr in alive {
            if net.engine.alive_count() <= MIN_ALIVE {
                break;
            }
            if rng.gen::<f64>() < leave_prob {
                net.engine.kill(addr);
                *departed += 1;
            }
        }
    }
    *join_accumulator += join_per_cycle;
    while *join_accumulator >= 1.0 {
        *join_accumulator -= 1.0;
        // Candidate sponsors in random order: alive honest nodes that have
        // not yet spent this cycle's fresh-descriptor budget.
        let mut sponsors: Vec<Addr> = net
            .engine
            .nodes()
            .filter(|(_, n)| !n.is_malicious())
            .map(|(a, _)| a)
            .collect();
        sponsors.shuffle(rng);
        if net.join_via_any(sponsors).is_some() {
            *joined += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{AdversaryKind, OracleConfig};

    #[test]
    fn runs_replay_bit_for_bit() {
        let sc = Scenario::new("replay", 32)
            .cycles(20)
            .lossy(0.05)
            .partition_at(5, 0.3)
            .heal_at(12)
            .heal_fallback()
            .churn(3, 15, 0.02, 0.5);
        let a = run_scenario(&sc, 7).expect("clean run");
        let b = run_scenario(&sc, 7).expect("clean run");
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = run_scenario(&sc, 8).expect("clean run");
        assert_ne!(format!("{a:?}"), format!("{c:?}"), "seed matters");
    }

    #[test]
    fn crash_restart_runs_replay_and_stay_clean() {
        // Restarting a quarter of the population twice mid-run must not
        // trip any oracle — in particular no self-made frequency or
        // cloning proofs — and must replay bit-for-bit.
        let sc = Scenario::new("restart", 32)
            .cycles(24)
            .restart_at(8, 0.25)
            .restart_at(16, 0.25)
            .oracles(OracleConfig {
                unique_ownership: true,
                final_connectivity: Some(1.0),
                ..OracleConfig::default()
            });
        let a = run_scenario(&sc, 7).expect("clean run");
        assert!(a.restarted >= 12, "two waves restarted: {}", a.restarted);
        assert_eq!(a.proofs, (0, 0), "no self-incrimination after restarts");
        let b = run_scenario(&sc, 7).expect("clean run");
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn sponsored_joins_add_honest_nodes() {
        let sc = Scenario::new("join", 24).cycles(16).churn(2, 14, 0.0, 1.0);
        let summary = run_scenario(&sc, 3).expect("clean run");
        assert!(summary.joined >= 10, "joins happened: {}", summary.joined);
        assert_eq!(summary.final_alive, 24 + summary.joined as usize);
    }

    #[test]
    fn detection_oracle_fails_when_adversary_is_honest() {
        // An "adversary" that never deviates can never be detected; the
        // eventual-detection oracle must report that as a violation with
        // the replay coordinates filled in.
        let sc = Scenario::new("ctrl", 24)
            .cycles(12)
            .adversary(4, AdversaryKind::None, 0)
            .oracles(OracleConfig {
                expect_detection: Some(0.5),
                ..OracleConfig::default()
            });
        let violation = run_scenario(&sc, 5).expect_err("cannot detect a non-attack");
        assert_eq!(violation.oracle, "eventual-detection");
        assert_eq!(violation.seed, 5);
        assert!(violation.to_string().contains("SC_SEED=5"));
    }
}

#[cfg(test)]
mod byte_budget_headroom {
    use super::*;
    use crate::catalog::{byte_budget, standard_matrix, MatrixSize};
    use crate::oracles::detection_allowance;
    use crate::snapshot::NetSnapshot;

    /// The busiest honest node's cumulative traffic at the end of a clean
    /// seed-1 run, and the number of cycles it accumulated over.
    fn busiest_node(sc: &Scenario) -> (u64, u64) {
        let (_, net) = run_scenario_with_net(sc, 1).expect("clean run");
        let snap = NetSnapshot::from_network(&net);
        let max = snap
            .nodes
            .iter()
            .map(|n| n.stats.bytes_sent.max(n.stats.bytes_received))
            .max()
            .unwrap_or(0);
        (max, snap.cycle + 1)
    }

    /// Pins the measurement behind the catalog's §VI-A ceiling: the
    /// busiest node of the hottest quick-tier scenario must stay under
    /// half the budget. If traffic creeps past that, the ceiling stops
    /// being a meaningful regression tripwire and needs re-measuring —
    /// this test is the reminder.
    #[test]
    fn matrix_byte_budget_keeps_twofold_headroom() {
        let size = MatrixSize::quick();
        let budget = byte_budget(size);
        for sc in standard_matrix(size) {
            let (total, cycles) = busiest_node(&sc);
            let max = total / cycles;
            assert!(
                max <= budget / 2,
                "{}: busiest node averages {max} B/cycle, over half the \
                 {budget} B/cycle ceiling — re-measure the §VI-A budget",
                sc.name
            );
        }
    }

    /// The same rule for the one-off proof allowance, where it binds:
    /// with 20 cloners among 240 nodes (the quick tier has 4 among 48;
    /// the cloner's proofs are the largest of any adversary's) the proofs
    /// outweigh the gossip, the per-cycle ceiling alone is overrun, and
    /// ceiling plus allowance must keep the twofold headroom.
    #[test]
    fn detection_allowance_keeps_twofold_headroom() {
        let size = MatrixSize {
            n: 240,
            ..MatrixSize::quick()
        };
        let sc = standard_matrix(size)
            .into_iter()
            .find(|sc| sc.name == "cloning-attack")
            .expect("catalog names are stable");
        let (total, cycles) = busiest_node(&sc);
        let (ceiling, allowance) = (byte_budget(size) * cycles, detection_allowance(&sc));
        assert!(
            total > ceiling / 2,
            "{total} B fit half the {ceiling} B ceiling: the allowance is not exercised"
        );
        assert!(
            total <= (ceiling + allowance) / 2,
            "busiest node moved {total} B, over half of the {ceiling} B ceiling \
             plus the {allowance} B proof allowance — re-measure it"
        );
    }
}
