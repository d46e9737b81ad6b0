//! `bench-diff` — regression gate over committed benchmark baselines.
//!
//! Loads the two most recent `BENCH_<n>.json` files (or two explicit
//! paths) and compares every derived metric present in both. A metric
//! that regresses by more than the threshold (default 25%) fails the run,
//! so a PR cannot silently undo a committed performance win: landing a
//! new baseline with worse derived ratios turns CI red.
//!
//! Direction is inferred from the metric name: keys containing `ns_per`
//! or `_vs_` are costs/overhead ratios (lower is better); everything else
//! is a speedup or throughput (higher is better).
//!
//! ```text
//! cargo run --release -p sc-bench --bin bench-diff                 # two newest BENCH_<n>.json
//! cargo run --release -p sc-bench --bin bench-diff -- OLD NEW
//! cargo run --release -p sc-bench --bin bench-diff -- --threshold 10
//! ```

use std::process::ExitCode;

/// Extracts the `"derived"` object from a `bench-report` JSON file.
///
/// The files are produced by this workspace's own serializer
/// (`sc_bench::report::Report::to_json`), which writes one `"key": value`
/// pair per line inside the `"derived"` block — this parser relies on
/// that shape rather than pulling in a JSON dependency.
fn parse_derived(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let Some(start) = text.find("\"derived\"") else {
        return out;
    };
    for line in text[start..].lines().skip(1) {
        let line = line.trim().trim_end_matches(',');
        if line.starts_with('}') {
            break;
        }
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let key = key.trim().trim_matches('"');
        if let Ok(v) = value.trim().parse::<f64>() {
            out.push((key.to_string(), v));
        }
    }
    out
}

/// Whether `key` names a cost (lower is better) rather than a speedup.
fn lower_is_better(key: &str) -> bool {
    key.contains("ns_per") || key.contains("_vs_")
}

/// The two highest-numbered `BENCH_<n>.json` files in the current
/// directory, oldest first.
fn latest_two() -> Option<(String, String)> {
    let mut found = sc_bench::baselines();
    let newest = found.pop()?;
    let previous = found.pop()?;
    Some((previous.1, newest.1))
}

/// What [`compare`] counted.
#[derive(Default)]
struct Tally {
    /// Metrics present in both baselines.
    compared: usize,
    /// Of those, the ones worse by more than the threshold.
    regressions: usize,
    /// Metrics only the older baseline has: the series was retired.
    dropped: usize,
}

/// Prints one verdict line per derived metric and counts them. Only a
/// metric both baselines carry can regress: one the newer baseline
/// introduces is skipped, one it no longer measures is listed as
/// `dropped` (`old_path` names where it was last seen).
fn compare(
    old: &[(String, f64)],
    new: &[(String, f64)],
    threshold_pct: f64,
    old_path: &str,
) -> Tally {
    let mut tally = Tally::default();
    for (key, new_v) in new {
        let Some((_, old_v)) = old.iter().find(|(k, _)| k == key) else {
            continue; // metric introduced by the new baseline
        };
        tally.compared += 1;
        // Change in the "goodness" direction: positive = improved.
        let change_pct = if lower_is_better(key) {
            (old_v - new_v) / old_v * 100.0
        } else {
            (new_v - old_v) / old_v * 100.0
        };
        let verdict = if change_pct < -threshold_pct {
            tally.regressions += 1;
            "REGRESSED"
        } else {
            "ok"
        };
        println!("{verdict:<9} {key:<36} {old_v:>12.3} -> {new_v:>12.3}  ({change_pct:+.1}%)");
    }
    for (key, _) in old {
        if !new.iter().any(|(k, _)| k == key) {
            tally.dropped += 1;
            println!("dropped   {key:<36} (present only in {old_path})");
        }
    }
    tally
}

fn main() -> ExitCode {
    let mut threshold_pct = 25.0f64;
    let mut paths: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threshold" => {
                threshold_pct = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--threshold requires a percentage");
            }
            "--help" | "-h" => {
                println!("usage: bench-diff [--threshold PCT] [OLD.json NEW.json]");
                return ExitCode::SUCCESS;
            }
            other => paths.push(other.to_string()),
        }
    }
    let (old_path, new_path) = match paths.len() {
        0 => match latest_two() {
            Some(pair) => pair,
            None => {
                println!("bench-diff: fewer than two BENCH_<n>.json baselines; nothing to compare");
                return ExitCode::SUCCESS;
            }
        },
        2 => (paths.swap_remove(0), paths.pop().unwrap()),
        _ => {
            eprintln!("usage: bench-diff [--threshold PCT] [OLD.json NEW.json]");
            return ExitCode::from(2);
        }
    };

    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_else(|e| panic!("read {p}: {e}"));
    let old = parse_derived(&read(&old_path));
    let new = parse_derived(&read(&new_path));
    println!("bench-diff: {old_path} -> {new_path} (threshold {threshold_pct}%)\n");

    let tally = compare(&old, &new, threshold_pct, &old_path);
    println!(
        "\n{} metrics compared, {} regression(s), {} dropped",
        tally.compared, tally.regressions, tally.dropped
    );
    if tally.regressions > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_reports_own_shape() {
        let json = "{\n  \"benches\": [\n  ],\n  \"derived\": {\n    \"a_speedup\": 2.500,\n    \"secure_ns_per_node_cycle_200\": 192183.169\n  }\n}\n";
        let derived = parse_derived(json);
        assert_eq!(derived.len(), 2);
        assert_eq!(derived[0], ("a_speedup".to_string(), 2.5));
        assert!((derived[1].1 - 192183.169).abs() < 1e-6);
    }

    #[test]
    fn direction_inference() {
        assert!(lower_is_better("secure_ns_per_node_cycle_200"));
        assert!(lower_is_better("batch_vs_fast_per_sig_64"));
        assert!(!lower_is_better("verify_fast_speedup"));
        assert!(!lower_is_better("cyclon_nodes_per_sec_1000"));
    }

    #[test]
    fn empty_or_absent_derived_is_harmless() {
        assert!(parse_derived("{}").is_empty());
        assert!(parse_derived("{\"derived\": {\n  }\n}").is_empty());
    }

    #[test]
    fn a_retired_metric_is_dropped_and_a_new_one_skipped() {
        let m = |pairs: &[(&str, f64)]| -> Vec<(String, f64)> {
            pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
        };
        // `retired_speedup` would be a 100 % loss if its absence read as
        // zero; `added_ns_per_op` has nothing to be compared with.
        let old = m(&[("kept_ns_per_op", 100.0), ("retired_speedup", 3.0)]);
        let new = m(&[("kept_ns_per_op", 110.0), ("added_ns_per_op", 9e9)]);
        let tally = compare(&old, &new, 25.0, "OLD.json");
        assert_eq!(
            (tally.compared, tally.regressions, tally.dropped),
            (1, 0, 1)
        );
        // Past the threshold, only the shared metric counts.
        let worse = m(&[("kept_ns_per_op", 130.0), ("added_ns_per_op", 9e9)]);
        assert_eq!(compare(&old, &worse, 25.0, "OLD.json").regressions, 1);
    }
}
