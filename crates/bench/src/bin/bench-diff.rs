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
    let mut found: Vec<(u32, String)> = Vec::new();
    for entry in std::fs::read_dir(".").ok()?.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(n) = name
            .strip_prefix("BENCH_")
            .and_then(|s| s.strip_suffix(".json"))
            .and_then(|s| s.parse::<u32>().ok())
        {
            found.push((n, name));
        }
    }
    found.sort_unstable();
    let newest = found.pop()?;
    let previous = found.pop()?;
    Some((previous.1, newest.1))
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

    let mut regressions = 0usize;
    let mut compared = 0usize;
    for (key, new_v) in &new {
        let Some((_, old_v)) = old.iter().find(|(k, _)| k == key) else {
            continue; // metric introduced by the new baseline
        };
        compared += 1;
        // Change in the "goodness" direction: positive = improved.
        let change_pct = if lower_is_better(key) {
            (old_v - new_v) / old_v * 100.0
        } else {
            (new_v - old_v) / old_v * 100.0
        };
        let verdict = if change_pct < -threshold_pct {
            regressions += 1;
            "REGRESSED"
        } else {
            "ok"
        };
        println!("{verdict:<9} {key:<36} {old_v:>12.3} -> {new_v:>12.3}  ({change_pct:+.1}%)");
    }
    for (key, _) in &old {
        if !new.iter().any(|(k, _)| k == key) {
            println!("dropped   {key:<36} (present only in {old_path})");
        }
    }

    println!("\n{compared} metrics compared, {regressions} regression(s)");
    if regressions > 0 {
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
}
