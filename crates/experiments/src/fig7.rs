//! **Figure 7** — clone-detection ratio vs age at duplication, for
//! several redemption-cache sizes and malicious shares.
//!
//! Malicious nodes hold descriptors until they reach a target age, then
//! double-spend them (two transfers to different victims). Detection
//! relies on the §IV-B ownership check; for old descriptors the §V-C
//! redemption cache is what keeps the spent copy circulating long enough
//! to be cross-checked.
//!
//! Measurement protocol: eviction is disabled so attackers survive
//! their first proof and keep producing duplication events across the
//! whole run, and every attacker of a run clones at the same target age,
//! so one run per (cache size, malicious share, age) fills one point. A
//! point is the share of duplicated descriptors some honest node holds a
//! cloning proof against, over the duplications performed.

use crate::common::{banner, results_dir, run_cell, Scale};
use sc_core::SecureConfig;
use sc_metrics::{save_series_csv, TimeSeries};
use sc_testkit::{step_of, AdversaryKind, Scenario};

/// The engine cycle from which the cloners are active.
const CLONE_CYCLE: u64 = 30;

/// The Figure 7 cell for one target age: `n` nodes, `k` of them cloners
/// that double-spend each descriptor they hold once it is `age` cycles
/// old, view length ℓ, a redemption cache of `cache_cycles`, eviction
/// off, `cycles` cycles after the bootstrap.
pub fn scenario(
    n: usize,
    k: usize,
    view_len: usize,
    cache_cycles: u64,
    age: u64,
    cycles: u64,
) -> Scenario {
    let mut cfg = SecureConfig::default()
        .with_view_len(view_len)
        .with_redemption_cache(cache_cycles);
    cfg.eviction_enabled = false;
    let name = format!("fig7 n={n} k={k} cache={cache_cycles} age={age}");
    let cloner = AdversaryKind::Cloner { target_age: age };
    Scenario::new(&name, n)
        .config(cfg)
        .adversary(k, cloner, step_of(CLONE_CYCLE, &cfg))
        .cycles(cycles)
}

/// Runs the Figure 7 experiment at the given scale.
pub fn run(scale: Scale) {
    banner("Figure 7: detection ratio vs descriptor age at duplication");
    // Quick scale trades population for sweep time (60 separate runs);
    // full scale is the paper's 1k nodes across the whole age sweep
    // (120 runs).
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
            let label = if cache == 0 {
                "no redemption cache".to_string()
            } else {
                format!("cache {cache} cycles")
            };
            let mut series = TimeSeries::new(label.clone());
            let mut cells = Vec::new();
            for (k, &age) in ages.iter().enumerate() {
                // One run per age, under a seed derived from the age.
                let cell = scenario(n, n_malicious, view_len, cache, age, cycles);
                let (summary, _) = run_cell(&cell, 42 ^ ((age << 8) ^ k as u64), |_| {});
                let (det, tot) = summary.clones;
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
