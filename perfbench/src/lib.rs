//! The repository's benchmark: four workloads over both tiers (the
//! simulator and live `sc-node` processes), end-to-end metrics a user of
//! the system would see, and a ledger of per-layer costs and counts
//! measured from outside. See `README.md` beside this crate.

pub mod compare;
pub mod counts;
pub mod json;
pub mod live;
pub mod probes;
pub mod procfs;
pub mod sim;
pub mod spec;
pub mod trace;

use std::path::PathBuf;

/// What one invocation was asked to do.
pub struct RunArgs {
    pub seed: u64,
    /// Length of the measurement; sizes the fixed windows.
    pub seconds: u64,
    /// Same-seed repetitions of a simulated workload, when not the
    /// workload's own number.
    pub reps: Option<usize>,
    /// Record per-layer metrics and spans instead of end-to-end metrics.
    pub traced: bool,
    /// Smoke sizing; never feeds a reported number.
    pub quick: bool,
    /// Directory for state logs, probe files and span files.
    pub scratch: PathBuf,
    /// The `sc-node` binary the live workload launches.
    pub node_bin: PathBuf,
}

/// What a workload measured.
pub struct RunOutput {
    pub metrics: spec::Metrics,
    /// Operations the benchmark issued: node turns driven, churn
    /// operations, scrapes, restarts.
    pub attempted: u64,
    /// Those that were refused or did not complete.
    pub failed: u64,
}
