//! Runs the benchmark's one command in smoke sizing on every workload,
//! untraced and traced, and holds what it prints to `BENCHMARK.json`:
//! every listed metric exactly once, in order, finite, with its unit.
//!
//! The command builds `sc-node` and the runner in release mode first, so
//! the first run of this test takes as long as that build.

use sc_benchmark::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

fn strings(list: &Json) -> Vec<&str> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|v| v.as_str().expect("a string"))
        .collect()
}

#[test]
fn every_workload_prints_every_listed_metric_once() {
    let root = repo_root();
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    let command = strings(spec.get("command").expect("command"));
    let workloads = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    assert_eq!(workloads.len(), 4);

    for workload in workloads {
        let name = workload
            .get("name")
            .and_then(Json::as_str)
            .expect("workload name");
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let mut cmd = Command::new(command[0]);
            // The command runs from the repository root, this test from the
            // package: a relative target directory must mean the same place.
            if let Some(dir) = std::env::var_os("CARGO_TARGET_DIR") {
                cmd.env(
                    "CARGO_TARGET_DIR",
                    std::path::absolute(dir).expect("a usable path"),
                );
            }
            let out = cmd
                .args(&command[1..])
                .args([
                    "--workload",
                    name,
                    "--seed",
                    "3",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                    "--quick",
                ])
                .current_dir(&root)
                .output()
                .expect("the benchmark command starts");
            assert!(
                out.status.success(),
                "{name} --trace {trace} failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last).expect("the last line is one JSON object");
            let keys: Vec<&str> = result
                .as_obj()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert!(
                result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .expect("attempted")
                    >= 1.0
            );

            let listed = spec.get(list).and_then(Json::as_arr).expect("metric list");
            let printed = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics");
            let listed_names: Vec<&str> = listed
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).expect("metric name"))
                .collect();
            let printed_names: Vec<&str> = printed.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(printed_names, listed_names, "{name} --trace {trace}");
            for ((_, value), def) in printed.iter().zip(listed) {
                let v = value
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("a numeric value");
                assert!(v.is_finite());
                assert_eq!(value.get("unit"), def.get("unit"));
            }
        }
    }
}
