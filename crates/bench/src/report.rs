//! A minimal timing + JSON-report harness for the `bench-report` runner.
//!
//! This module produces **machine-readable baselines**: each run emits a
//! `BENCH_<n>.json` snapshot that is committed next to the code it
//! measured, giving the repository a performance trajectory that reviews
//! and future optimisation PRs can diff against.

use std::time::{Duration, Instant};

/// One measured entry.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Hierarchical benchmark name, e.g. `descriptor/verify_cold/16`.
    pub name: String,
    /// Median nanoseconds per iteration across samples.
    pub ns_per_iter: f64,
    /// Iterations per timed sample (after calibration).
    pub iters: u64,
    /// Number of timed samples.
    pub samples: usize,
}

/// A full report: measurements plus derived ratios.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// `"quick"` (CI smoke) or `"full"` (committed baseline).
    pub mode: String,
    /// Measured entries, in execution order.
    pub results: Vec<BenchResult>,
    /// Derived metrics, typically speedup ratios between entries.
    pub derived: Vec<(String, f64)>,
}

/// Times `f`, calibrating the per-sample iteration count to roughly fill
/// `budget / samples`, then reports the median ns/iteration.
pub fn time_median<F: FnMut()>(budget: Duration, samples: usize, mut f: F) -> (f64, u64, usize) {
    let samples = samples.max(3);
    let per_sample = budget / samples as u32;
    // Calibrate: double the iteration count until one batch fills the
    // per-sample slot (or we hit a sane cap).
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        if start.elapsed() >= per_sample || iters >= 1 << 24 {
            break;
        }
        iters = iters.saturating_mul(2);
    }
    let mut per_iter: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        per_iter.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    per_iter.sort_by(|a, b| a.total_cmp(b));
    (per_iter[per_iter.len() / 2], iters, samples)
}

impl Report {
    /// Runs and records one benchmark.
    pub fn bench<F: FnMut()>(&mut self, name: &str, budget: Duration, samples: usize, f: F) {
        let (ns_per_iter, iters, samples) = time_median(budget, samples, f);
        println!(
            "{name:<44} {:>12}  (x{iters} iters)",
            format_ns(ns_per_iter)
        );
        self.results.push(BenchResult {
            name: name.to_string(),
            ns_per_iter,
            iters,
            samples,
        });
    }

    /// Looks up a recorded result by name.
    pub fn get(&self, name: &str) -> Option<&BenchResult> {
        self.results.iter().find(|r| r.name == name)
    }

    /// Records the ratio `numerator / denominator` as a derived metric.
    pub fn derive_ratio(&mut self, label: &str, numerator: &str, denominator: &str) {
        if let (Some(n), Some(d)) = (self.get(numerator), self.get(denominator)) {
            if d.ns_per_iter > 0.0 {
                let ratio = n.ns_per_iter / d.ns_per_iter;
                println!("{label:<44} {ratio:>11.2}x");
                self.derived.push((label.to_string(), ratio));
            }
        }
    }

    /// Records a per-item cost: a recorded per-iteration time divided by
    /// the `count` of work items one iteration covers (e.g. ns per
    /// node-cycle from one engine cycle over `count` nodes, or ns per
    /// signature from one batch verification over `count` signatures).
    /// Lower is better; `bench-diff` keys off the `ns_per` naming.
    pub fn derive_per_item(&mut self, label: &str, bench: &str, count: u64) {
        if let Some(r) = self.get(bench) {
            if count > 0 {
                let per_item = r.ns_per_iter / count as f64;
                println!("{label:<44} {:>12}", format_ns(per_item));
                self.derived.push((label.to_string(), per_item));
            }
        }
    }

    /// Records a throughput metric: `count` work items per wall-clock
    /// second, from a recorded per-iteration time (e.g. nodes simulated
    /// per second from one engine cycle over `count` nodes).
    pub fn derive_rate(&mut self, label: &str, bench: &str, count: u64) {
        if let Some(r) = self.get(bench) {
            if r.ns_per_iter > 0.0 {
                let rate = count as f64 * 1e9 / r.ns_per_iter;
                println!("{label:<44} {rate:>11.0}/s");
                self.derived.push((label.to_string(), rate));
            }
        }
    }

    /// Serializes the report as pretty-printed JSON (schema version 1).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": 1,\n");
        out.push_str("  \"suite\": \"sc-bench/bench-report\",\n");
        out.push_str(&format!("  \"mode\": \"{}\",\n", escape(&self.mode)));
        out.push_str("  \"benches\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"ns_per_iter\": {:.2}, \"iters\": {}, \"samples\": {}}}{}\n",
                escape(&r.name),
                r.ns_per_iter,
                r.iters,
                r.samples,
                if i + 1 < self.results.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"derived\": {\n");
        for (i, (k, v)) in self.derived.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\": {:.3}{}\n",
                escape(k),
                v,
                if i + 1 < self.derived.len() { "," } else { "" }
            ));
        }
        out.push_str("  }\n}\n");
        out
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.3} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.3} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_shape() {
        let mut report = Report {
            mode: "quick".into(),
            ..Report::default()
        };
        report.bench("a/b", Duration::from_millis(2), 3, || {
            std::hint::black_box(1 + 1);
        });
        report.bench("a/c", Duration::from_millis(2), 3, || {
            std::hint::black_box(1 + 1);
        });
        report.derive_ratio("b_over_c", "a/b", "a/c");
        let json = report.to_json();
        assert!(json.contains("\"schema\": 1"));
        assert!(json.contains("\"a/b\""));
        assert!(json.contains("\"b_over_c\""));
        assert!(json.ends_with("}\n"));
        // No trailing commas before closing brackets.
        assert!(!json.contains(",\n  ]"));
        assert!(!json.contains(",\n  }"));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny"), "x\\u000ay");
    }

    #[test]
    fn time_median_measures_something() {
        let (ns, iters, samples) = time_median(Duration::from_millis(5), 3, || {
            std::hint::black_box((0..100u64).sum::<u64>());
        });
        assert!(ns > 0.0);
        assert!(iters >= 1);
        assert_eq!(samples, 3);
    }
}
