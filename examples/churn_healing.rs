//! Self-healing under churn: nodes join and crash continuously, a
//! catastrophic failure wipes out a third of the network, and the overlay
//! keeps every survivor connected.
//!
//! ```text
//! cargo run --release --example churn_healing
//! ```

use securecyclon::core::SecureConfig;
use securecyclon::testkit::{
    largest_honest_component, run_scenario_observed, OracleConfig, Scenario,
};

const CONVERGE: u64 = 40;
const HEAL: u64 = 30;

fn main() {
    // 400 nodes at the paper's defaults; from step 10 to the catastrophe
    // 0.5 % of the alive nodes crash each cycle and two join through a
    // sponsor; a third of the survivors die at once; the run then heals
    // undisturbed. The end-of-run oracle demands one honest component.
    let scenario = Scenario::new("churn-healing", 400)
        .config(SecureConfig::default())
        .churn(10, CONVERGE, 0.005, 2.0)
        .kill_at(CONVERGE, 1.0 / 3.0)
        .cycles(CONVERGE + HEAL)
        .oracles(OracleConfig {
            final_connectivity: Some(1.0),
            ..OracleConfig::default()
        });

    println!("converging a 400-node overlay under churn…");
    let mut step = 0;
    let (summary, net) = run_scenario_observed(&scenario, 4, |net| {
        step += 1;
        if step == CONVERGE || step == CONVERGE + 1 {
            let (component, alive) = largest_honest_component(net);
            if step == CONVERGE {
                println!("  alive {alive}, largest connected component {component}");
                println!("\ncatastrophe: killing a third of the nodes at once");
            } else {
                println!("  one cycle later: alive {alive}, largest component {component}");
            }
        }
    })
    .unwrap_or_else(|v| panic!("{v}"));
    println!(
        "  (the run saw {} joins and {} crashes)",
        summary.joined, summary.departed
    );

    let (component, alive) = largest_honest_component(&net);
    println!("\nafter {HEAL} healing cycles: alive {alive}, largest component {component}");

    let mut dead_links = 0usize;
    let mut total = 0usize;
    for (_, n) in net.engine.nodes() {
        for e in n.honest().unwrap().view().iter() {
            total += 1;
            if !net.engine.is_alive(e.desc.addr()) {
                dead_links += 1;
            }
        }
    }
    println!(
        "dead links remaining in views: {dead_links}/{total} ({:.1}%)",
        100.0 * dead_links as f64 / total as f64
    );
    println!("\noverlay healed: every survivor remains connected ✓");
}
