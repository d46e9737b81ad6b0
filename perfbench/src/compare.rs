//! `sc-benchmark --compare A.jsonl B.jsonl`: two sets of untraced runs
//! held against the bounds and directions of `BENCHMARK.json`.
//!
//! A set is the file `--out` appends to: one result line per run. Per
//! (workload, end-to-end metric) the two medians are compared; a metric
//! whose run-to-run spread (interquartile range over median) exceeds its
//! bound in either set is reported as *unresolved*, never as unchanged,
//! unless every run of B reads better than every run of A.

use crate::counts::{median, sorted};
use crate::json::Json;
use std::collections::BTreeMap;

struct Bound {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

/// Values by (workload, metric) of the untraced runs in a set file.
fn load_set(path: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        if run.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", n + 1))?;
        let failed = run.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        let metrics = run.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
        for (name, m) in metrics {
            // A failed operation counts as missing any limit.
            let value = if failed > 0.0 {
                f64::NAN
            } else {
                m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN)
            };
            set.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

fn load_bounds(path: &str) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let spec = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let list = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no end_to_end list"))?;
    list.iter()
        .map(|m| {
            let text = |key: &str| m.get(key).and_then(Json::as_str).map(String::from);
            Some(Bound {
                name: text("name")?,
                unit: text("unit")?,
                lower_is_better: text("better")? == "lower",
                bound: m.get("bound").and_then(Json::as_f64)?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{path}: an end_to_end entry lacks name, unit, better or bound"))
}

/// Interquartile range over the median, Python's
/// `statistics.quantiles(values, n=4)` (exclusive method).
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let v = sorted(values);
    let quartile = |q: f64| {
        let pos = (v.len() + 1) as f64 * q;
        let j = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (quartile(0.75) - quartile(0.25)).abs() / median(values).abs().max(f64::MIN_POSITIVE)
}

/// Prints one row per (workload, metric) and returns whether every
/// metric is resolved and within its bound.
pub fn compare(spec_path: &str, a_path: &str, b_path: &str) -> Result<bool, String> {
    let bounds = load_bounds(spec_path)?;
    let (a, b) = (load_set(a_path)?, load_set(b_path)?);
    let workloads: Vec<&String> = {
        let mut w: Vec<_> = a.keys().map(|(w, _)| w).collect();
        w.dedup();
        w
    };
    println!(
        "{:<18} {:<28} {:>6} {:>14} {:>14} {:>9} {:>8} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "median A",
        "median B",
        "B/A",
        "spread A",
        "spread B",
        "bound"
    );
    let mut all_ok = true;
    for workload in workloads {
        for bound in &bounds {
            let key = (workload.clone(), bound.name.clone());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                println!("{workload:<18} {:<28} missing from one set", bound.name);
                all_ok = false;
                continue;
            };
            if va.iter().chain(vb).any(|v| !v.is_finite()) {
                println!(
                    "{workload:<18} {:<28} a run had failed operations: missed",
                    bound.name
                );
                all_ok = false;
                continue;
            }
            let (ma, mb) = (median(va), median(vb));
            // How much worse B is than A, as a share of A.
            let worse = if bound.lower_is_better {
                mb / ma - 1.0
            } else {
                1.0 - mb / ma
            };
            let b_wins_every_pair = va.iter().all(|x| {
                vb.iter()
                    .all(|y| if bound.lower_is_better { y < x } else { y > x })
            });
            let verdict = if spread(va).max(spread(vb)) > bound.bound && !b_wins_every_pair {
                "unresolved"
            } else if worse > bound.bound {
                "REGRESSED"
            } else {
                "ok"
            };
            all_ok &= verdict == "ok";
            println!(
                "{workload:<18} {:<28} {:>6} {ma:>14.6} {mb:>14.6} {:>9.4} {:>8.4} {:>8.4} {:>6}  {verdict}",
                bound.name,
                bound.unit,
                mb / ma,
                spread(va),
                spread(vb),
                bound.bound,
            );
        }
    }
    println!("B/A is median B over median A; spread is the interquartile range over the median of one set's runs.");
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[3.0]), 0.0);
    }
}
