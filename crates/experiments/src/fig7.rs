//! **Figure 7** — clone-detection ratio vs age at duplication, for
//! several redemption-cache sizes and malicious shares.
//!
//! Malicious nodes hold descriptors until they reach a target age, then
//! double-spend them (two transfers to different victims). Detection
//! relies on the §IV-B ownership check; for old descriptors the §V-C
//! redemption cache is what keeps the spent copy circulating long enough
//! to be cross-checked.
//!
//! Measurement protocol (also recorded in EXPERIMENTS.md): eviction is
//! disabled so attackers survive their first proof and keep producing
//! duplication events across the whole run; each attacker is assigned a
//! target age from the sweep (round-robin), so one simulation per
//! (cache size, malicious share) covers every age bucket.

use crate::common::{banner, results_dir, Scale};
use sc_attacks::{CloneLedger, SecureAttack};
use sc_core::{ProofKind, SecureConfig};
use sc_metrics::{save_series_csv, TimeSeries};
use sc_testkit::{build_secure_network, SecureNetParams};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// Detection ratio per age bucket for one (cache, malicious%) cell.
#[allow(clippy::too_many_arguments)]
pub fn detection_by_age(
    n: usize,
    n_malicious: usize,
    view_len: usize,
    cache_cycles: u64,
    ages: &[u64],
    cycles: u64,
    seed: u64,
) -> HashMap<u64, (usize, usize)> {
    // One network per target age (every attacker clones at that age),
    // each with its own ledger and a seed derived from the age.
    let mut out: HashMap<u64, (usize, usize)> = HashMap::new();
    for (k, &age) in ages.iter().enumerate() {
        let ledger = Arc::new(Mutex::new(CloneLedger::new()));
        let mut params = SecureNetParams::new(
            n,
            n_malicious,
            SecureAttack::Cloner {
                target_age: age,
                ledger: Arc::clone(&ledger),
            },
        );
        params.cfg = SecureConfig::default()
            .with_view_len(view_len)
            .with_redemption_cache(cache_cycles);
        params.cfg.eviction_enabled = false;
        params.attack_start = 30;
        params.seed = seed ^ ((age << 8) ^ k as u64);
        let mut net = build_secure_network(params);
        net.engine.run_cycles(cycles);

        let events = &ledger.lock().unwrap().events;
        let ids: HashSet<_> = events.iter().map(|e| e.desc).collect();
        let mut detected: HashSet<_> = HashSet::new();
        for (_, node) in net.engine.nodes() {
            let Some(h) = node.honest() else { continue };
            for rec in h.proof_log() {
                if rec.kind == ProofKind::Cloning {
                    if let Some(id) = rec.descriptor {
                        if ids.contains(&id) {
                            detected.insert(id);
                        }
                    }
                }
            }
        }
        let entry = out.entry(age).or_default();
        entry.0 += detected.len();
        entry.1 += events.len();
    }
    out
}

/// Runs the Figure 7 experiment at the given scale.
pub fn run(scale: Scale) {
    banner("Figure 7: detection ratio vs descriptor age at duplication");
    // Quick scale trades population for sweep time (120 separate runs);
    // full scale is the paper's 1k nodes across the whole age sweep.
    let (n, view_len, cycles, ages): (usize, usize, u64, Vec<u64>) = match scale {
        Scale::Smoke => (300, 20, 70, vec![2, 8, 14, 20]),
        Scale::Quick => (500, 20, 80, vec![2, 6, 10, 14, 18]),
        Scale::Full => (1000, 20, 90, (1..=10).map(|a| a * 2).collect()),
    };
    for mal_pct in [5usize, 20, 50] {
        let n_malicious = n * mal_pct / 100;
        println!("nodes:{n}, view:{view_len}, malicious nodes:{mal_pct}%");
        let mut all_series = Vec::new();
        for cache in [0u64, 2, 5, 10] {
            let per_age = detection_by_age(n, n_malicious, view_len, cache, &ages, cycles, 42);
            let label = if cache == 0 {
                "no redemption cache".to_string()
            } else {
                format!("cache {cache} cycles")
            };
            let mut series = TimeSeries::new(label.clone());
            let mut sorted: Vec<_> = per_age.iter().collect();
            sorted.sort_by_key(|(&age, _)| age);
            let mut cells = Vec::new();
            for (&age, &(det, tot)) in sorted {
                let ratio = if tot == 0 {
                    0.0
                } else {
                    100.0 * det as f64 / tot as f64
                };
                series.push(age, ratio);
                cells.push(format!("{age}→{ratio:.0}%({det}/{tot})"));
            }
            println!("  {label}: {}", cells.join(" "));
            all_series.push(series);
        }
        let path = results_dir().join(format!("fig7_mal{mal_pct}.csv"));
        save_series_csv(&path, &all_series).expect("write series");
        println!("  [{}]", path.display());
    }
    println!(
        "  paper shape: near-total detection for young clones, decaying with age; \
         larger caches lift the old-age tail; higher malicious share lowers detection"
    );
}
