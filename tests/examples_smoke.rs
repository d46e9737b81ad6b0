//! Smoke-executes every example end-to-end.
//!
//! Ignored by default because each test spawns a nested `cargo` (slow, and
//! it contends for the build lock under plain `cargo test`). CI runs them
//! via the "Examples run end-to-end" step; locally:
//!
//! ```text
//! cargo test --release --test examples_smoke -- --ignored --test-threads=1
//! ```

use std::process::Command;

fn run_example(name: &str) -> String {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let output = Command::new(cargo)
        .args(["run", "--release", "--example", name])
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn cargo for example {name}: {e}"));
    assert!(
        output.status.success(),
        "example {name} exited with {:?}\n--- stderr ---\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        !output.stdout.is_empty(),
        "example {name} produced no output"
    );
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
#[ignore = "spawns a nested cargo build; run via CI or with -- --ignored"]
fn quickstart_runs() {
    run_example("quickstart");
}

#[test]
#[ignore = "spawns a nested cargo build; run via CI or with -- --ignored"]
fn descriptor_chain_runs() {
    run_example("descriptor_chain");
}

#[test]
#[ignore = "spawns a nested cargo build; run via CI or with -- --ignored"]
fn churn_healing_runs() {
    run_example("churn_healing");
}

#[test]
#[ignore = "spawns a nested cargo build; run via CI or with -- --ignored"]
fn hub_attack_demo_runs() {
    run_example("hub_attack_demo");
}

#[test]
#[ignore = "spawns a nested cargo build; run via CI or with -- --ignored"]
fn large_scale_runs() {
    let out = run_example("large_scale");
    // The sizing ledger README's memory table is rebuilt from.
    let line = out.lines().find(|l| l.starts_with("footprint per node"));
    let line = line.unwrap_or_else(|| panic!("no footprint line in:\n{out}"));
    for field in [
        "visible",
        "stored",
        "slot capacity",
        "creator index",
        "spent records",
        "chain blocks",
    ] {
        assert!(line.contains(field), "no {field:?} in {line:?}");
    }
}

#[test]
#[ignore = "spawns a nested cargo build; run via CI or with -- --ignored"]
fn loopback_cluster_runs() {
    run_example("loopback_cluster");
}
