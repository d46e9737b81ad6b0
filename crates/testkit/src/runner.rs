//! Deterministic scenario execution.
//!
//! [`run_scenario`] turns a `(Scenario, seed)` pair into a full simulated
//! run on the real `sc-sim` engine: bootstrap, scheduled fault injection,
//! churn with sponsored joins, per-cycle oracle checks, and end-of-run
//! convergence checks. All randomness — fault targets, churn rolls,
//! joiner identities — derives from the master seed through
//! `sc_sim::rng`, so two runs of the same pair are bit-identical.
//!
//! A scenario's faults and churn are executed by one `Schedule` on
//! whichever `Tier` the run is on: it makes every draw — island
//! members, kill and restart victims, leave rolls, sponsor order — from
//! the seed's `"faults"` and `"churn"` streams, and the tier only carries
//! the verbs out. The two tiers stand side by side below: `SimTier`, a
//! [`SimNetwork`] inside the engine, and `LiveTier`, a
//! [`ProcessCluster`] of `sc-node` processes
//! ([`crate::live::run_scenario_live`] drives it against the wall
//! clock). What the socket tier cannot express yet is named by
//! [`Scenario::live_fit`]. The simulated tier runs either protocol: a
//! [`SecureNetwork`] or the legacy [`crate::CyclonNetwork`].

use crate::harness::ProcessCluster;
use crate::net::{
    crash_restart_in, malicious_link_fraction, ns_link_fraction, Member, SecureNetwork,
};
use crate::oracles::{OracleSuite, Violation};
use crate::scenario::{Event, Scenario};
use crate::snapshot::NetSnapshot;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use sc_core::{DescriptorId, FaultSpec, Loss, ProofKind, SecureConfig};
use sc_crypto::hex::to_hex;
use sc_crypto::NodeId;
use sc_sim::{Addr, Engine, Partition, Point};
use std::collections::HashSet;

/// What a completed (violation-free) run looked like; a legacy Cyclon
/// run reports no proofs, blacklists or non-swappable links.
#[derive(Clone, Debug, Default)]
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
    /// Cloner adversaries' duplications, `(detected, performed)`: the
    /// distinct duplicated descriptors some honest node holds a cloning
    /// proof against, and every duplication performed (Figure 7's ratio).
    pub clones: (usize, usize),
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
    run_scenario_observed(scenario, seed, |_| {})
}

/// The one run loop: [`run_scenario_with_net`] on any [`SimNetwork`],
/// handing the network to `observe` after every step's cycle has run and
/// passed the oracles — how the paper's figures record their series.
/// Observing reads state only, so it cannot move the run.
pub fn run_scenario_observed<N: SimNetwork>(
    scenario: &Scenario,
    seed: u64,
    mut observe: impl FnMut(&N),
) -> Result<(RunSummary, N), Violation> {
    let mut tier = SimTier::<N>::boot(scenario, seed);
    let mut oracles = OracleSuite::new(scenario, seed);
    let mut schedule = Schedule::new(scenario, seed);

    for step in 0..scenario.cycles {
        schedule.step(&mut tier, step);
        tier.run_cycle();
        if let Some(net) = tier.net.secure().filter(|_| oracles.checks(step)) {
            oracles.check_snapshot(&NetSnapshot::from_network(net), step)?;
        }
        observe(&tier.net);
    }
    let SimTier {
        mut net,
        joined,
        departed,
        reintroduced,
        restarted,
        ..
    } = tier;
    let engine = net.engine();
    let mut summary = RunSummary {
        scenario: scenario.name.clone(),
        seed,
        steps: scenario.cycles,
        final_alive: engine.alive_count(),
        final_honest: engine.nodes().filter(|(_, n)| !n.is_malicious()).count(),
        joined,
        departed,
        reintroduced,
        restarted,
        malicious_links: malicious_link_fraction(engine, net.malicious()),
        ..RunSummary::default()
    };
    if let Some(net) = net.secure() {
        let last = NetSnapshot::from_network(net);
        oracles.check_snapshot_final(&last)?;
        summary.proofs = last.proofs_generated();
        summary.coverage = last.blacklist_coverage();
        summary.ns_links = ns_link_fraction(&net.engine);
        summary.clones = clones(net);
    }
    Ok((summary, net))
}

/// A simulated network the run loop carries a scenario out on: the
/// caller picks the protocol by the network type it runs.
pub trait SimNetwork: Sized {
    /// The node enum its engine steps.
    type Node: Member;

    /// The scenario's population after bootstrap, derived from `seed`.
    fn boot(scenario: &Scenario, seed: u64) -> Self;

    /// The engine.
    fn engine(&self) -> &Engine<Self::Node>;

    /// The engine, mutably.
    fn engine_mut(&mut self) -> &mut Engine<Self::Node>;

    /// Where malicious links point, as [`malicious_link_fraction`] counts.
    fn malicious(&self) -> &HashSet<<Self::Node as Member>::Target>;

    /// The network itself if it runs SecureCyclon, which alone sponsors
    /// joins, crash-restarts, re-sponsors an island at a heal and is
    /// audited by the oracles; any other boot refuses the first three.
    fn secure(&mut self) -> Option<&mut SecureNetwork> {
        None
    }
}

/// The network a scenario scheduling SecureCyclon's verbs booted.
fn secure<N: SimNetwork>(net: &mut N) -> &mut SecureNetwork {
    net.secure()
        .expect("the boot refuses a scenario it cannot run")
}

/// `(detected, performed)` over the party's clone events: the distinct
/// duplicated descriptors named by some honest node's cloning proof, and
/// every duplication the cloners performed.
fn clones(net: &SecureNetwork) -> (usize, usize) {
    let party = net.party.lock().unwrap();
    let events = party.clone_events();
    let cloned: HashSet<DescriptorId> = events.iter().map(|e| e.desc).collect();
    let detected: HashSet<DescriptorId> = net
        .engine
        .nodes()
        .filter_map(|(_, node)| node.honest())
        .flat_map(|h| h.proof_log())
        .filter(|rec| rec.kind == ProofKind::Cloning)
        .filter_map(|rec| rec.descriptor)
        .filter(|id| cloned.contains(id))
        .collect();
    (detected.len(), events.len())
}

/// The scenario step that runs engine cycle `cycle` under `cfg`. Steps
/// count from the end of the ring bootstrap, which leaves the engine at
/// cycle ℓ: an attack "at cycle 50" starts at step 50 − ℓ.
pub fn step_of(cycle: u64, cfg: &SecureConfig) -> u64 {
    cycle - cfg.view_len as u64
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

/// The verbs a scenario's schedule is carried out with. A tier makes no
/// draw of its own, bar the simulated heal fallback, which takes the
/// schedule's stream.
pub(crate) trait Tier {
    /// Alive members, in address order.
    fn alive(&self) -> Vec<Addr>;
    /// The alive members that run the honest machine, in address order.
    fn honest(&self) -> Vec<Addr>;
    /// Cuts `island` off from everybody else, both directions; members
    /// that join later land on the mainland side.
    fn sever(&mut self, island: Vec<Addr>);
    /// Lifts the partition.
    fn heal(&mut self, faults: &mut StdRng);
    /// Replaces the per-kind drop probabilities, keeping any partition.
    fn set_loss(&mut self, loss: Loss);
    /// Crashes one member for good.
    fn kill(&mut self, addr: Addr);
    /// `kill -9`s `victims` and restarts each from its durable state —
    /// with `Some(turn_frac)`, after that fraction of the cycle's turns.
    fn restart(&mut self, victims: Vec<Addr>, turn_frac: Option<f64>);
    /// A fresh node joins through the first of `sponsors` that can
    /// sponsor it.
    fn join(&mut self, sponsors: Vec<Addr>);
}

/// One run's faults and churn: the scenario's events and churn window,
/// and the two seeded streams every draw comes from.
pub(crate) struct Schedule<'a> {
    scenario: &'a Scenario,
    faults: StdRng,
    churn: StdRng,
    join_accumulator: f64,
}

impl<'a> Schedule<'a> {
    pub(crate) fn new(scenario: &'a Scenario, seed: u64) -> Self {
        Schedule {
            scenario,
            faults: sc_sim::rng::std_rng(seed, "faults", 0),
            churn: sc_sim::rng::std_rng(seed, "churn", 0),
            join_accumulator: 0.0,
        }
    }

    /// The last step at which anything is scheduled.
    pub(crate) fn last_step(&self) -> u64 {
        let events = self.scenario.events.iter().map(Event::step);
        let churn = self.scenario.churn.map(|w| w.to.saturating_sub(1));
        events.chain(churn).max().unwrap_or(0)
    }

    /// A random `frac` of `pool`, leaving at least `spare` of it alone.
    fn fraction(&mut self, mut pool: Vec<Addr>, frac: f64, spare: usize) -> Vec<Addr> {
        pool.shuffle(&mut self.faults);
        let k = (pool.len() as f64 * frac) as usize;
        pool.truncate(k.min(pool.len().saturating_sub(spare)));
        pool
    }

    /// Carries out what the scenario schedules for `step` — its events
    /// in order, then its churn — before that step's cycle runs.
    pub(crate) fn step(&mut self, tier: &mut impl Tier, step: u64) {
        let scenario = self.scenario;
        for event in scenario.events.iter().filter(|e| e.step() == step) {
            match *event {
                Event::Partition { island_frac, .. } => {
                    let island = self.fraction(tier.alive(), island_frac, 0);
                    tier.sever(island);
                }
                Event::Heal { .. } => tier.heal(&mut self.faults),
                Event::SetLoss { loss, .. } => tier.set_loss(loss),
                Event::Kill { frac, .. } => {
                    for addr in self.fraction(tier.alive(), frac, MIN_ALIVE) {
                        tier.kill(addr);
                    }
                }
                Event::Restart { frac, .. } => {
                    let victims = self.fraction(tier.honest(), frac, 0);
                    tier.restart(victims, None);
                }
                Event::RestartMidCycle {
                    frac, turn_frac, ..
                } => {
                    let victims = self.fraction(tier.honest(), frac, 0);
                    tier.restart(victims, Some(turn_frac));
                }
            }
        }
        let Some(w) = scenario.churn.filter(|w| step >= w.from && step < w.to) else {
            return;
        };
        if w.leave_prob > 0.0 {
            let alive = tier.alive();
            let mut left = alive.len();
            for addr in alive {
                if left <= MIN_ALIVE {
                    break;
                }
                if self.churn.gen::<f64>() < w.leave_prob {
                    tier.kill(addr);
                    left -= 1;
                }
            }
        }
        self.join_accumulator += w.join_per_cycle;
        while self.join_accumulator >= 1.0 {
            self.join_accumulator -= 1.0;
            // Candidate sponsors in random order: on the simulated tier
            // the first that has not yet spent this cycle's
            // fresh-descriptor budget takes the joiner.
            let mut sponsors = tier.honest();
            sponsors.shuffle(&mut self.churn);
            tier.join(sponsors);
        }
    }
}

/// The simulated tier: a [`SimNetwork`] between two engine cycles, and
/// the counts the [`RunSummary`] reports.
struct SimTier<N> {
    net: N,
    heal_fallback: bool,
    /// Victims of a mid-cycle restart and the fraction of the cycle's
    /// turns that run before it, kept until the cycle runs.
    mid_restart: Option<(Vec<Addr>, f64)>,
    joined: u64,
    departed: u64,
    reintroduced: u64,
    restarted: u64,
}

impl<N: SimNetwork> SimTier<N> {
    /// The scenario's population after bootstrap.
    fn boot(scenario: &Scenario, seed: u64) -> Self {
        SimTier {
            net: N::boot(scenario, seed),
            heal_fallback: scenario.runner_heal_fallback,
            mid_restart: None,
            joined: 0,
            departed: 0,
            reintroduced: 0,
            restarted: 0,
        }
    }

    /// Runs the cycle the schedule just prepared, with the mid-cycle
    /// restart it drew, if any, before the `k`-th turn.
    fn run_cycle(&mut self) {
        let Some((victims, turn_frac)) = self.mid_restart.take() else {
            return self.net.engine_mut().run_cycle();
        };
        let net = secure(&mut self.net);
        let k = (net.engine.alive_count() as f64 * turn_frac) as usize;
        let (seed, restarts, restarted) = (net.seed, &mut net.restarts, &mut self.restarted);
        net.engine.run_cycle_with(|engine, at| {
            if at == Point::Turn(k) {
                for &addr in &victims {
                    *restarted += u64::from(crash_restart_in(engine, seed, restarts, addr));
                }
            }
        });
    }
}

impl<N: SimNetwork> Tier for SimTier<N> {
    fn alive(&self) -> Vec<Addr> {
        self.net.engine().nodes().map(|(a, _)| a).collect()
    }

    fn honest(&self) -> Vec<Addr> {
        let honest = self.net.engine().nodes().filter(|(_, n)| !n.is_malicious());
        honest.map(|(a, _)| a).collect()
    }

    fn sever(&mut self, island: Vec<Addr>) {
        self.net
            .engine_mut()
            .set_partition(Some(Partition::isolate(island)));
    }

    fn heal(&mut self, faults: &mut StdRng) {
        let partition = self.net.engine_mut().set_partition(None);
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
        if let Some(p) = partition.filter(|_| self.heal_fallback) {
            let (mut mainland, mut island): (Vec<Addr>, Vec<Addr>) =
                self.honest().into_iter().partition(|&a| p.side(a) == 0);
            island.shuffle(faults);
            mainland.shuffle(faults);
            let k = (island.len() / 8).max(2).min(mainland.len());
            let net = secure(&mut self.net);
            for (&node, &sponsor) in island.iter().zip(mainland.iter()).take(k) {
                self.reintroduced += u64::from(net.reintroduce(node, sponsor));
            }
        }
    }

    fn set_loss(&mut self, loss: Loss) {
        self.net.engine_mut().set_loss(loss);
    }

    fn kill(&mut self, addr: Addr) {
        self.net.engine_mut().kill(addr);
        self.departed += 1;
    }

    fn restart(&mut self, victims: Vec<Addr>, turn_frac: Option<f64>) {
        match turn_frac {
            Some(turn_frac) => self.mid_restart = Some((victims, turn_frac)),
            None => {
                let net = secure(&mut self.net);
                for addr in victims {
                    self.restarted += u64::from(net.crash_restart(addr));
                }
            }
        }
    }

    fn join(&mut self, sponsors: Vec<Addr>) {
        self.joined += u64::from(secure(&mut self.net).join_via_any(sponsors).is_some());
    }
}

/// What the socket tier's verbs leave behind for
/// [`crate::live::run_scenario_live`] to demand evidence about.
#[derive(Default)]
pub(crate) struct LiveLedger {
    /// The per-kind drop probabilities in force.
    pub(crate) loss: Loss,
    /// Members currently severed from everybody else.
    pub(crate) island: Vec<Addr>,
    /// Members a heal let back in.
    pub(crate) rejoiners: Vec<Addr>,
    /// Members spawned by churn.
    pub(crate) joiners: Vec<Addr>,
    /// Restarted members, with the identity each had before its kill.
    pub(crate) restarted: Vec<(Addr, NodeId)>,
}

/// The socket tier: a [`ProcessCluster`] at one instant of the wall
/// clock. Loss is filtered on the way in: every frame crosses exactly one
/// inbound filter, held to its kind's rate, so the scenario's [`Loss`] on
/// every member is its loss on every link. A partition is the islanders'
/// own transports severing the other side — control frames are exempt,
/// so the harness reaches through it.
pub(crate) struct LiveTier<'a> {
    pub(crate) cluster: &'a mut ProcessCluster,
    pub(crate) ledger: &'a mut LiveLedger,
    pub(crate) seed: u64,
    pub(crate) replay: &'a str,
}

impl LiveTier<'_> {
    /// Installs on each of `members` the spec it should be under now:
    /// the loss in force, and for an islander the other side severed.
    fn install(&self, members: &[Addr]) {
        let alive = self.cluster.addrs();
        let island = &self.ledger.island;
        for &addr in members.iter().filter(|a| alive.contains(a)) {
            let mut severed = Vec::new();
            if island.contains(&addr) {
                severed.extend(alive.iter().filter(|a| !island.contains(a)));
            }
            let spec = FaultSpec {
                seed: self.seed,
                loss: self.ledger.loss,
                severed,
                ..FaultSpec::default()
            };
            assert!(
                self.cluster.set_fault(addr, &spec),
                "member {addr} never acked fault spec '{spec}'\n  replay: {}",
                self.replay
            );
        }
    }
}

impl Tier for LiveTier<'_> {
    fn alive(&self) -> Vec<Addr> {
        self.cluster.addrs()
    }

    fn honest(&self) -> Vec<Addr> {
        self.cluster.addrs()
    }

    fn sever(&mut self, island: Vec<Addr>) {
        self.ledger.island = island;
        self.install(&self.ledger.island);
    }

    fn heal(&mut self, _: &mut StdRng) {
        let island = std::mem::take(&mut self.ledger.island);
        self.install(&island);
        self.ledger.rejoiners.extend(island);
    }

    fn set_loss(&mut self, loss: Loss) {
        self.ledger.loss = loss;
        self.install(&self.cluster.addrs());
    }

    fn kill(&mut self, addr: Addr) {
        self.cluster.kill(addr);
    }

    /// Wall clock cannot place the cut inside a cycle; phase-staggered
    /// turns make any kill mid-cycle for somebody.
    fn restart(&mut self, victims: Vec<Addr>, _turn_frac: Option<f64>) {
        for addr in victims {
            let before = self.cluster.status_of(addr);
            let before = before.unwrap_or_else(|| {
                panic!(
                    "restart victim {addr} is not answering\n  replay: {}",
                    self.replay
                )
            });
            self.ledger.restarted.push((addr, before.id));
            let respawned = self.cluster.restart(addr);
            assert!(
                matches!(respawned, Ok(true)),
                "restarting {addr}: {respawned:?}\n  replay: {}",
                self.replay
            );
        }
    }

    fn join(&mut self, sponsors: Vec<Addr>) {
        let Some(&sponsor) = sponsors.first() else {
            return;
        };
        let joiner = self.cluster.spawn_joiner(sponsor);
        let joiner =
            joiner.unwrap_or_else(|e| panic!("spawning a joiner: {e}\n  replay: {}", self.replay));
        self.ledger.joiners.push(joiner);
        // The islanders sever everybody else by address.
        self.install(&self.ledger.island);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::OracleConfig;
    use sc_attacks::SecureAttack;

    #[test]
    fn runs_replay_bit_for_bit() {
        let sc = Scenario::new("replay", 32)
            .cycles(20)
            .loss(Loss::uniform(0.05))
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
    fn an_observed_run_sees_every_step_and_ends_where_the_plain_one_does() {
        let sc = Scenario::new("observed", 32)
            .cycles(20)
            .adversary(3, SecureAttack::Hub, 5)
            .churn(3, 15, 0.02, 0.5);
        let mut cycles = Vec::new();
        let (_, observed) = run_scenario_observed(&sc, 7, |net: &SecureNetwork| {
            cycles.push(net.engine.cycle())
        })
        .expect("clean run");
        assert_eq!(cycles.len() as u64, sc.cycles, "once per step");
        assert!(cycles.windows(2).all(|w| w[0] < w[1]), "{cycles:?}");
        let (_, plain) = run_scenario_with_net(&sc, 7).expect("clean run");
        assert_eq!(state_fingerprint(&observed), state_fingerprint(&plain));
    }

    #[test]
    fn a_cyclon_run_refuses_what_only_securecyclon_can_do() {
        use crate::net::CyclonNetwork;
        for sc in [
            Scenario::new("cyclon-restart", 16).restart_at(3, 0.25),
            Scenario::new("cyclon-mid-cycle", 16).restart_mid_cycle_at(3, 0.25, 0.5),
            Scenario::new("cyclon-join", 16).churn(2, 6, 0.0, 1.0),
            Scenario::new("cyclon-heal", 16)
                .partition_at(2, 0.5)
                .heal_at(4)
                .heal_fallback(),
        ] {
            let run =
                std::panic::catch_unwind(|| run_scenario_observed(&sc, 1, |_: &CyclonNetwork| {}));
            let refusal = run.map(drop).expect_err("a Cyclon boot refuses it");
            let refusal = refusal.downcast_ref::<String>().expect("a formatted panic");
            assert!(refusal.contains(&format!("'{}'", sc.name)), "{refusal}");
        }
    }

    #[test]
    fn a_cloner_run_counts_detected_and_performed_clones() {
        let cloner = SecureAttack::Cloner { target_age: 4 };
        let sc = Scenario::new("clones", 32)
            .cycles(30)
            .adversary(4, cloner, 5);
        let (detected, performed) = run_scenario(&sc, 1).expect("clean run").clones;
        assert!(
            0 < detected && detected <= performed,
            "{detected}/{performed}"
        );
        // Every duplication the cloners performed at seed 1.
        assert_eq!(performed, 45);
    }

    #[test]
    fn detection_oracle_fails_when_adversary_is_honest() {
        // An "adversary" that never deviates can never be detected; the
        // eventual-detection oracle must report that as a violation with
        // the replay coordinates filled in.
        let sc = Scenario::new("ctrl", 24)
            .cycles(12)
            .adversary(4, SecureAttack::None, 0)
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
mod one_schedule_two_tiers {
    use super::*;
    use crate::catalog::{standard_matrix, MatrixSize};

    /// Records what the schedule asks of a tier — addresses relative to
    /// the tier's first — and passes it on.
    struct Logged<T> {
        tier: T,
        base: Addr,
        log: Vec<String>,
    }

    impl<T> Logged<T> {
        fn note(&mut self, verb: &str, addrs: &[Addr]) {
            let at: Vec<Addr> = addrs.iter().map(|a| a - self.base).collect();
            self.log.push(format!("{verb} {at:?}"));
        }
    }

    impl<T: Tier> Tier for Logged<T> {
        fn alive(&self) -> Vec<Addr> {
            self.tier.alive()
        }
        fn honest(&self) -> Vec<Addr> {
            self.tier.honest()
        }
        fn sever(&mut self, island: Vec<Addr>) {
            self.note("sever", &island);
            self.tier.sever(island);
        }
        fn heal(&mut self, faults: &mut StdRng) {
            self.note("heal", &[]);
            self.tier.heal(faults);
        }
        fn set_loss(&mut self, loss: Loss) {
            self.note("set-loss", &[]);
            self.tier.set_loss(loss);
        }
        fn kill(&mut self, addr: Addr) {
            self.note("kill", &[addr]);
            self.tier.kill(addr);
        }
        fn restart(&mut self, victims: Vec<Addr>, turn_frac: Option<f64>) {
            self.note(
                &format!("restart mid-cycle={}", turn_frac.is_some()),
                &victims,
            );
            self.tier.restart(victims, turn_frac);
        }
        fn join(&mut self, sponsors: Vec<Addr>) {
            self.note("join via the first of", &sponsors);
            self.tier.join(sponsors);
        }
    }

    /// Membership as a [`ProcessCluster`] keeps it, without the
    /// processes: founders on a block of ports, a kill frees one, a
    /// restart keeps it, a joiner takes the next never used.
    struct Ports {
        alive: Vec<Addr>,
        next: Addr,
    }

    impl Tier for Ports {
        fn alive(&self) -> Vec<Addr> {
            self.alive.clone()
        }
        fn honest(&self) -> Vec<Addr> {
            self.alive.clone()
        }
        fn sever(&mut self, _: Vec<Addr>) {}
        fn heal(&mut self, _: &mut StdRng) {}
        fn set_loss(&mut self, _: Loss) {}
        fn kill(&mut self, addr: Addr) {
            self.alive.retain(|a| *a != addr);
        }
        fn restart(&mut self, _: Vec<Addr>, _: Option<f64>) {}
        fn join(&mut self, _: Vec<Addr>) {
            self.alive.push(self.next);
            self.next += 1;
        }
    }

    /// Both runners step the same [`Schedule`], which sees a tier only
    /// through its alive members in address order — so the node at engine
    /// address `i` and the process on port `base + i` meet the same fate:
    /// same island, same kill and restart victims, same leave rolls, same
    /// sponsor order, for every catalog scenario the socket tier runs.
    #[test]
    fn the_engine_and_a_port_block_draw_the_same_fates() {
        const BASE: Addr = 41_000;
        let seed = 3;
        let mut verbs = 0;
        for sc in standard_matrix(MatrixSize::live()) {
            if sc.live_fit().is_err() {
                continue;
            }
            let mut sim = Logged {
                tier: SimTier::<SecureNetwork>::boot(&sc, seed),
                base: 0,
                log: Vec::new(),
            };
            let mut live = Logged {
                tier: Ports {
                    alive: (BASE..BASE + sc.n as Addr).collect(),
                    next: BASE + sc.n as Addr,
                },
                base: BASE,
                log: Vec::new(),
            };
            let (mut on_sim, mut on_live) = (Schedule::new(&sc, seed), Schedule::new(&sc, seed));
            for step in 0..sc.cycles {
                on_sim.step(&mut sim, step);
                sim.tier.run_cycle();
                on_live.step(&mut live, step);
            }
            assert_eq!(sim.log, live.log, "{}", sc.name);
            assert_eq!(
                sim.tier.alive().len(),
                live.tier.alive.len(),
                "{}: every sponsored join found a sponsor",
                sc.name
            );
            verbs += sim.log.len();
        }
        assert!(verbs > 20, "the fitting scenarios schedule something");
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
