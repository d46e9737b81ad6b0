//! Declarative adversarial scenarios.
//!
//! A [`Scenario`] composes everything the paper's evaluation (§VI) and
//! security argument (§IV–V) assume can go wrong at once: per-kind
//! message loss, network partitions with scheduled heal events, membership
//! churn, catastrophic failures, and a Byzantine fraction running one of
//! the `sc-attacks` strategies. Scenarios are pure descriptions — a
//! `(Scenario, seed)` pair replays bit-for-bit through
//! [`crate::run_scenario`], which is what makes every oracle violation a
//! one-command reproduction.

use sc_attacks::SecureAttack;
use sc_core::{Loss, SecureConfig};

/// A scheduled fault injection, keyed by run step (0-based cycle index
/// relative to the start of the run, *not* the absolute engine cycle).
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// Partition the network: a random `island_frac` of the alive nodes is
    /// severed from the rest (joiners land on the mainland side).
    Partition {
        /// Step at which the partition is installed.
        step: u64,
        /// Fraction of alive nodes moved to the island side.
        island_frac: f64,
    },
    /// Heal any active partition.
    Heal {
        /// Step at which the partition is removed.
        step: u64,
    },
    /// Replace the loss rates (partition state is preserved).
    SetLoss {
        /// Step at which the new rates apply.
        step: u64,
        /// New per-kind drop probabilities.
        loss: Loss,
    },
    /// Kill a random batch of alive nodes at once (mass failure).
    Kill {
        /// Step at which the failure strikes.
        step: u64,
        /// Fraction of alive nodes crashed.
        frac: f64,
    },
    /// `kill -9` + same-cycle restart for a random batch of honest
    /// durable nodes: each victim's in-memory state is discarded and a
    /// replacement node recovers from the survived [`sc_core::StateBackend`].
    /// Requires [`Scenario::durable`]; nodes without a backend are
    /// skipped (there is nothing to restart from).
    Restart {
        /// Step at which the crash-restarts strike.
        step: u64,
        /// Fraction of alive honest nodes crash-restarted.
        frac: f64,
    },
    /// Like [`Event::Restart`], but the crashes land *inside* the
    /// cycle: the victims die after a seeded `turn_frac` fraction of
    /// the cycle's shuffled turns already ran, so some victims have
    /// already emitted this cycle and their durable logs sit mid-cycle
    /// rather than at a checkpoint.
    RestartMidCycle {
        /// Step whose cycle is interrupted.
        step: u64,
        /// Fraction of alive honest nodes crash-restarted.
        frac: f64,
        /// Fraction of the cycle's turns that run before the crash.
        turn_frac: f64,
    },
}

impl Event {
    /// The step this event fires at.
    pub fn step(&self) -> u64 {
        match self {
            Event::Partition { step, .. }
            | Event::Heal { step }
            | Event::SetLoss { step, .. }
            | Event::Kill { step, .. }
            | Event::Restart { step, .. }
            | Event::RestartMidCycle { step, .. } => *step,
        }
    }
}

/// Continuous membership churn over a window of run steps.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnWindow {
    /// First step (inclusive) churn applies.
    pub from: u64,
    /// Last step (exclusive) churn applies.
    pub to: u64,
    /// Per-node probability of crashing each step.
    pub leave_prob: f64,
    /// Expected sponsored joins per step (fractions accumulate).
    pub join_per_cycle: f64,
}

/// Which invariant oracles a scenario enables, and their thresholds.
///
/// Not every oracle is sound under every workload: global unique
/// ownership, for instance, is exactly the property a cloning adversary
/// violates *by design* until detection catches up, so attack scenarios
/// replace it with the eventual-detection oracle.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OracleConfig {
    /// Cycles (run steps) to wait before bound-style oracles apply.
    pub warmup: u64,
    /// Run the per-cycle oracles every `stride` steps (1 = every cycle).
    /// The scale tier samples sparsely because each check is O(n·ℓ); all
    /// the per-cycle oracles are sound under sampling (structural checks
    /// are per-state, and blacklist monotonicity is transitive across
    /// skipped cycles). End-of-run oracles are unaffected.
    pub stride: u64,
    /// Per-view structural invariants (capacity, ownership, no dups).
    /// Sound unconditionally; always on in practice.
    pub view_invariants: bool,
    /// No descriptor identity is live-owned (swappable view entry or
    /// reserve entry) by two honest nodes at once. Sound only without a
    /// cloning-capable adversary.
    pub unique_ownership: bool,
    /// Maximum in-degree (over honest views, counting honest creators)
    /// after warmup. `None` disables.
    pub max_indegree: Option<usize>,
    /// Honest blacklists only grow, and never contain honest identities.
    pub blacklist_monotone: bool,
    /// End-of-run: the largest weakly-connected component of the honest
    /// overlay covers at least this fraction of the alive honest nodes
    /// (`1.0` = a single component; slightly lower floors tolerate the
    /// occasional orphan that combined churn+loss+attack can strand).
    pub final_connectivity: Option<f64>,
    /// End-of-run: average honest view fill ≥ this fraction of ℓ.
    pub final_min_fill: Option<f64>,
    /// End-of-run: the adversary was caught — at least one violation
    /// proven, and average blacklist coverage ≥ this fraction.
    pub expect_detection: Option<f64>,
    /// Per-cycle: no honest redemption cache holds more than this many
    /// entries (the §V-C cache is bounded by construction; `None`
    /// disables).
    pub redemption_bound: Option<usize>,
    /// Per-cycle: every honest node's cumulative gossip traffic (paper
    /// bytes sent, and received, §VI-A) stays within `ceiling × cycles
    /// alive`, plus a one-off allowance for the proofs that convict the
    /// scenario's adversaries. Checked cumulatively so it is sound across
    /// crash-restarts (a reborn node restarts its counters at zero).
    /// `None` disables.
    pub byte_budget_per_cycle: Option<u64>,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            warmup: 20,
            stride: 1,
            view_invariants: true,
            unique_ownership: false,
            max_indegree: None,
            blacklist_monotone: true,
            final_connectivity: None,
            final_min_fill: None,
            expect_detection: None,
            redemption_bound: None,
            byte_budget_per_cycle: None,
        }
    }
}

/// A complete adversarial scenario: population, protocol parameters,
/// faults, churn, adversary, horizon, and the oracles that must hold.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Unique name (the matrix filter key).
    pub name: String,
    /// Total nodes at bootstrap.
    pub n: usize,
    /// Byzantine nodes among them.
    pub n_malicious: usize,
    /// Adversary strategy.
    pub adversary: SecureAttack,
    /// Run step at which the adversary starts deviating.
    pub attack_start: u64,
    /// Protocol configuration.
    pub cfg: SecureConfig,
    /// Base per-kind loss rates, active from step 0.
    pub loss: Loss,
    /// Scheduled fault events.
    pub events: Vec<Event>,
    /// Optional churn window.
    pub churn: Option<ChurnWindow>,
    /// Run length in cycles.
    pub cycles: u64,
    /// Enabled oracles and thresholds.
    pub oracles: OracleConfig,
    /// Give every honest node a durable [`sc_core::StateBackend`]
    /// (in-memory for the simulated tier), so [`Event::Restart`] can
    /// crash-restart it with state recovery.
    pub durable: bool,
    /// Let the runner re-sponsor island nodes at [`Event::Heal`] — the
    /// pre-rejoin harness hack modelling an out-of-band bootstrap-server
    /// reconnect. Off by default: partitions now heal through the
    /// protocol's own starved-node rejoin pings (§V-A), and this flag
    /// exists only as a fallback for scenarios whose islands are big
    /// enough to keep gossiping internally (never starving, never
    /// pinging).
    pub runner_heal_fallback: bool,
}

impl Scenario {
    /// A reliable, honest-only scenario with paper-default parameters and
    /// the unconditionally sound oracles enabled.
    pub fn new(name: &str, n: usize) -> Self {
        Scenario {
            name: name.to_string(),
            n,
            n_malicious: 0,
            adversary: SecureAttack::None,
            attack_start: 0,
            cfg: SecureConfig::default().with_view_len(8).with_swap_len(3),
            loss: Loss::default(),
            events: Vec::new(),
            churn: None,
            cycles: 60,
            oracles: OracleConfig::default(),
            durable: false,
            runner_heal_fallback: false,
        }
    }

    /// Sets the run length.
    pub fn cycles(mut self, cycles: u64) -> Self {
        self.cycles = cycles;
        self
    }

    /// Overrides the protocol configuration.
    pub fn config(mut self, cfg: SecureConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Makes `k` nodes Byzantine, running `adversary` from `attack_start`.
    pub fn adversary(mut self, k: usize, adversary: SecureAttack, attack_start: u64) -> Self {
        self.n_malicious = k;
        self.adversary = adversary;
        self.attack_start = attack_start;
        self
    }

    /// Message loss from step 0: uniform, or per kind (the asymmetric-loss
    /// scenarios of §V-A).
    pub fn loss(mut self, loss: Loss) -> Self {
        self.loss = loss;
        self
    }

    /// Partitions a random `island_frac` of the network at `step`.
    pub fn partition_at(mut self, step: u64, island_frac: f64) -> Self {
        self.events.push(Event::Partition { step, island_frac });
        self
    }

    /// Heals any active partition at `step`.
    pub fn heal_at(mut self, step: u64) -> Self {
        self.events.push(Event::Heal { step });
        self
    }

    /// Crashes a random `frac` of the alive nodes at `step`.
    pub fn kill_at(mut self, step: u64, frac: f64) -> Self {
        self.events.push(Event::Kill { step, frac });
        self
    }

    /// `kill -9`s and immediately restarts a random `frac` of the alive
    /// honest nodes at `step`, each recovering from its durable backend
    /// (implies [`Scenario::durable`]).
    pub fn restart_at(mut self, step: u64, frac: f64) -> Self {
        self.durable = true;
        self.events.push(Event::Restart { step, frac });
        self
    }

    /// Like [`Scenario::restart_at`], but the crashes strike after a
    /// `turn_frac` fraction of that cycle's turns have already run —
    /// mid-cycle, the case checkpoint-boundary restarts cannot cover
    /// (implies [`Scenario::durable`]).
    pub fn restart_mid_cycle_at(mut self, step: u64, frac: f64, turn_frac: f64) -> Self {
        self.durable = true;
        self.events.push(Event::RestartMidCycle {
            step,
            frac,
            turn_frac,
        });
        self
    }

    /// Gives every honest node a durable state backend without scheduling
    /// any restart (e.g. to measure the checkpoint overhead alone).
    pub fn durable(mut self) -> Self {
        self.durable = true;
        self
    }

    /// Re-enables the runner's heal-time re-sponsorship fallback (see
    /// [`Scenario::runner_heal_fallback`]).
    pub fn heal_fallback(mut self) -> Self {
        self.runner_heal_fallback = true;
        self
    }

    /// Replaces the per-kind loss rates at `step`, keeping any active
    /// partition (loss regimes that change mid-run, e.g. a congestion
    /// burst that later clears).
    pub fn set_loss_at(mut self, step: u64, loss: Loss) -> Self {
        self.events.push(Event::SetLoss { step, loss });
        self
    }

    /// Applies churn over `[from, to)` steps.
    pub fn churn(mut self, from: u64, to: u64, leave_prob: f64, join_per_cycle: f64) -> Self {
        self.churn = Some(ChurnWindow {
            from,
            to,
            leave_prob,
            join_per_cycle,
        });
        self
    }

    /// Replaces the oracle configuration.
    pub fn oracles(mut self, oracles: OracleConfig) -> Self {
        self.oracles = oracles;
        self
    }

    /// Whether any scheduled event partitions the network.
    #[cfg(test)]
    pub(crate) fn has_partition(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, Event::Partition { .. }))
    }

    /// Whether any scheduled event crash-restarts nodes.
    pub fn has_restart(&self) -> bool {
        self.events.iter().any(|e| {
            matches!(e, Event::Restart { .. }) || matches!(e, Event::RestartMidCycle { .. })
        })
    }

    /// Whether any message is ever dropped: a base rate or a scheduled
    /// loss regime above zero.
    pub fn has_loss(&self) -> bool {
        let scheduled = self.events.iter().filter_map(|e| match e {
            Event::SetLoss { loss, .. } => Some(*loss),
            _ => None,
        });
        std::iter::once(self.loss)
            .chain(scheduled)
            .any(|l| !l.is_none())
    }

    /// Whether the socket tier ([`crate::live::run_scenario_live`]) can
    /// run this scenario, or the reason it cannot yet. Everything else a
    /// scenario states maps onto `sc-node` processes, their control
    /// socket and their `FaultSpec`s.
    pub fn live_fit(&self) -> Result<(), &'static str> {
        if self.n_malicious > 0 {
            return Err("no adversary binary: sc-node runs the honest machine only (ROADMAP: the adversary binary)");
        }
        if self.runner_heal_fallback {
            return Err("heal_fallback: the control socket has no re-sponsor verb");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes() {
        let sc = Scenario::new("t", 64)
            .cycles(80)
            .adversary(6, SecureAttack::Hub, 20)
            .loss(Loss::uniform(0.05))
            .partition_at(30, 0.3)
            .heal_at(50)
            .set_loss_at(60, Loss::default())
            .churn(10, 40, 0.01, 0.5);
        assert_eq!(sc.n_malicious, 6);
        assert_eq!(sc.loss, Loss::uniform(0.05));
        assert!(sc.has_loss());
        assert!(!Scenario::new("t", 8).has_loss());
        assert!(sc.has_partition());
        assert_eq!(sc.events.len(), 3);
        assert!(sc.churn.is_some());
        assert!(!sc.durable);
        assert!(!sc.runner_heal_fallback);
    }

    #[test]
    fn restart_builder_implies_durability() {
        let sc = Scenario::new("r", 32).restart_at(10, 0.25);
        assert!(sc.durable);
        assert!(sc.has_restart());
        assert_eq!(sc.events[0].step(), 10);
        let mid = Scenario::new("m", 32).restart_mid_cycle_at(12, 0.25, 0.5);
        assert!(mid.durable);
        assert!(mid.has_restart());
        assert_eq!(mid.events[0].step(), 12);
        assert!(Scenario::new("d", 32).durable().durable);
        assert!(Scenario::new("f", 32).heal_fallback().runner_heal_fallback);
    }
}
