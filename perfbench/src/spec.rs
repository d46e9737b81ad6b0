//! The benchmark's catalogue: workloads and metric names with their
//! units, mirrored by `BENCHMARK.json` (the smoke test holds the two
//! together). Bounds and directions live only in `BENCHMARK.json`.

use std::collections::BTreeMap;

/// A metric's name and unit.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

pub const WORKLOADS: [&str; 4] = ["sim-honest", "sim-hub40", "sim-churn-durable", "live-ring8"];

/// Printed by every workload's untraced run. Each is defined on both
/// tiers; what a tier cannot measure lives in [`PER_LAYER`] instead.
pub const END_TO_END: &[MetricDef] = &[
    m("node_cycle_us", "us"),
    m("cpu_us_per_node_cycle", "us"),
    m("peak_rss_mb", "MB"),
    m("paper_bytes_per_node_cycle", "B"),
    m("exchange_ok_ratio", "ratio"),
    m("indegree_cv", "ratio"),
    m("honest_link_share_min", "ratio"),
    m("setup_s", "s"),
];

/// Printed by every workload's traced run. A metric of a layer the
/// workload does not run reads 0 there (no frames in a simulation, no
/// engine messages on sockets).
pub const PER_LAYER: &[MetricDef] = &[
    m("crypto.sha256_1k_ns", "ns"),
    m("crypto.keyed_sign_ns", "ns"),
    m("crypto.keyed_verify_ns", "ns"),
    m("crypto.schnorr_sign_ns", "ns"),
    m("crypto.schnorr_verify_ns", "ns"),
    m("crypto.schnorr_batch64_ns_per_sig", "ns"),
    m("core.desc.chain_len_mean", "count"),
    m("core.desc.clone_ns", "ns"),
    m("core.desc.transfer_ns", "ns"),
    m("core.desc.verify_cold_ns", "ns"),
    m("core.desc.verify_memo_ns", "ns"),
    m("core.desc.verify_extend_ns", "ns"),
    m("core.wire.request_bytes", "B"),
    m("core.wire.desc_bytes_mean", "B"),
    m("core.wire.encode_request_ns", "ns"),
    m("core.wire.decode_request_ns", "ns"),
    m("core.storage.mem_record_ns", "ns"),
    m("core.storage.file_record_us", "us"),
    m("core.storage.file_checkpoint_us", "us"),
    m("core.storage.file_recover_us", "us"),
    m("core.node.exchanges_per_node_cycle", "count"),
    m("core.node.samples_per_node_cycle", "count"),
    m("core.node.transfers_per_node_cycle", "count"),
    m("core.node.timeouts_per_node_cycle", "count"),
    m("core.node.refused_per_node_cycle", "count"),
    m("core.node.dup_drops_per_node_cycle", "count"),
    m("core.node.proofs_received_per_node_cycle", "count"),
    m("core.node.invalid_descriptors", "count"),
    m("core.node.proofs_generated", "count"),
    m("core.node.view_fill_ratio", "ratio"),
    m("sim.engine.msgs_per_node_cycle", "count"),
    m("run.node_cycle_us", "us"),
    m("run.setup_us_per_node", "us"),
    m("run.cycle_spike_ratio", "ratio"),
    m("proc.minor_faults_per_node_cycle", "count"),
    m("proc.sys_share", "ratio"),
    m("proc.voluntary_switches_per_node_cycle", "count"),
    m("proc.allocs_per_node_cycle", "count"),
    m("proc.alloc_bytes_per_node_cycle", "B"),
    m("node.idle_cpu_ms_per_s", "ms/s"),
    m("node.frames_per_node_cycle", "count"),
    m("node.wire_bytes_per_node_cycle", "B"),
    m("node.wire_overhead_ratio", "ratio"),
    m("node.log_bytes_per_node_cycle", "B"),
    m("node.retransmits_per_node_cycle", "count"),
    m("node.turns_fired_ratio", "ratio"),
    m("node.turns_skipped", "count"),
    m("node.connect_failures", "count"),
    m("node.peak_conns", "count"),
    m("node.boot_ms", "ms"),
    m("node.scrape_us_p50", "us"),
    m("node.scrape_us_p99", "us"),
    m("node.scrape_samples", "count"),
    m("node.restart_recovery_ms_p50", "ms"),
    m("node.restart_recovery_ms_max", "ms"),
    m("attack.mal_link_peak", "ratio"),
    m("attack.purge_cycles", "count"),
    m("attack.blacklist_coverage", "ratio"),
    m("attribution.explained_share", "ratio"),
    m("attribution.unexplained_share", "ratio"),
    m("trace.overhead_share", "ratio"),
];

/// Measured values by metric name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Marks every unset metric whose name starts with one of `prefixes`
    /// as not run by this workload.
    pub fn zero_layers(&mut self, prefixes: &[&str]) {
        for def in PER_LAYER {
            if prefixes.iter().any(|p| def.name.starts_with(p)) {
                self.0.entry(def.name).or_insert(0.0);
            }
        }
    }

    /// The values of `catalogue` in catalogue order.
    ///
    /// # Errors
    ///
    /// Names a metric that was never set or is not finite: the runner
    /// must print every metric of the list it was asked for.
    pub fn select(
        &self,
        catalogue: &[MetricDef],
    ) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        catalogue
            .iter()
            .map(|def| match self.0.get(def.name) {
                Some(v) if v.is_finite() => Ok((def.name, *v, def.unit)),
                Some(v) => Err(format!("metric {} is not finite: {v}", def.name)),
                None => Err(format!("metric {} was not measured", def.name)),
            })
            .collect()
    }
}
