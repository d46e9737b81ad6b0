//! Experiment harness regenerating every table and figure of the
//! SecureCyclon paper's evaluation (§VI).
//!
//! ```text
//! cargo run --release -p sc-experiments -- <experiment> [--scale smoke|quick|full] [--out DIR]
//!
//! experiments:
//!   fig2        indegree distribution of converged Cyclon overlays
//!   fig3        hub attack takeover of legacy Cyclon
//!   fig5-top    SecureCyclon vs the minimal hub attack
//!   fig5-bottom SecureCyclon vs a 40% hub attack
//!   fig5        both Figure 5 rows
//!   fig6        link-depletion attack, tit-for-tat off/on
//!   fig7        clone-detection ratio vs age at duplication
//!   netcost     §VI-A message-size table
//!   ablation    per-mechanism contribution matrix (not a paper figure)
//!   all         everything above
//! ```
//!
//! `--scale quick` (default) runs the paper's 1k-node configurations;
//! `full` adds the 10k ones; `smoke` is a minutes-scale sanity pass.
//!
//! Every SecureCyclon cell (Figures 5–7, netcost, the ablation) is a
//! `sc_testkit::Scenario` run through the testkit runner, audited by the
//! scenario's oracles; Figures 2 and 3 run the legacy Cyclon engine.

mod ablation;
mod common;
mod fig2;
mod fig3;
mod fig5;
mod fig6;
mod fig7;
mod netcost;

use common::Scale;

fn usage() -> ! {
    eprintln!(
        "usage: experiments <fig2|fig3|fig5-top|fig5-bottom|fig5|fig6|fig7|netcost|ablation|all> \
         [--scale smoke|quick|full] [--out DIR]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Option<String> = None;
    let mut scale = Scale::Quick;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| usage());
            }
            "--out" => {
                i += 1;
                let dir = args.get(i).unwrap_or_else(|| usage());
                std::env::set_var("SC_RESULTS_DIR", dir);
            }
            other if which.is_none() && !other.starts_with('-') => {
                which = Some(other.to_string());
            }
            _ => usage(),
        }
        i += 1;
    }
    let which = which.unwrap_or_else(|| usage());
    let started = std::time::Instant::now();
    match which.as_str() {
        "fig2" => fig2::run(scale),
        "fig3" => fig3::run(scale),
        "fig5-top" => fig5::run_top(scale),
        "fig5-bottom" => fig5::run_bottom(scale),
        "fig5" => {
            fig5::run_top(scale);
            fig5::run_bottom(scale);
        }
        "fig6" => fig6::run(scale),
        "fig7" => fig7::run(scale),
        "netcost" => netcost::run(scale),
        "ablation" => ablation::run(scale),
        "all" => {
            fig2::run(scale);
            fig3::run(scale);
            fig5::run_top(scale);
            fig5::run_bottom(scale);
            fig6::run(scale);
            fig7::run(scale);
            netcost::run(scale);
            ablation::run(scale);
        }
        _ => usage(),
    }
    eprintln!("\n(completed in {:.1?})", started.elapsed());
}
