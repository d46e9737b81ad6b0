//! `sc-benchmark` — the repository's one benchmark runner.
//!
//! ```text
//! sc-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//!              [--reps N] [--quick] [--out set.jsonl]
//! sc-benchmark --compare A.jsonl B.jsonl
//! ```
//!
//! Run it from the repository root: `--compare` reads `BENCHMARK.json`
//! there, the live workload launches `<target>/release/sc-node`, and
//! state logs, probe files and span files go to
//! `<target>/sc-benchmark-scratch`, where `<target>` is
//! `CARGO_TARGET_DIR` or `target`.
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` — every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`. A failed output
//! check exits non-zero without a result line.

use sc_benchmark::json::quote;
use sc_benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use sc_benchmark::trace::{CountingAlloc, Tracer};
use sc_benchmark::{compare, live, sim, RunArgs};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str =
    "usage: sc-benchmark --workload <sim-honest|sim-hub40|sim-churn-durable|live-ring8> \
--seed <u64> --seconds <n> --trace <0|1> [--reps N] [--quick] [--out FILE]
       sc-benchmark --compare A.jsonl B.jsonl";

struct Cli {
    workload: Option<String>,
    args: RunArgs,
    out: Option<PathBuf>,
    compare: Option<(String, String)>,
}

fn parse() -> Result<Cli, String> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let mut cli = Cli {
        workload: None,
        args: RunArgs {
            seed: 1,
            seconds: 12,
            reps: None,
            traced: false,
            quick: false,
            scratch: PathBuf::from(&target).join("sc-benchmark-scratch"),
            node_bin: PathBuf::from(&target).join("release/sc-node"),
        },
        out: None,
        compare: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: {v} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.args.seed = number(value()?)?,
            "--seconds" => cli.args.seconds = number(value()?)?.clamp(1, 60),
            "--reps" => cli.args.reps = Some(number(value()?)?.clamp(1, 8) as usize),
            "--trace" => cli.args.traced = number(value()?)? != 0,
            "--quick" => cli.args.quick = true,
            "--out" => cli.out = Some(value()?.into()),
            "--compare" => cli.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("sc-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &cli.compare {
        return match compare::compare("BENCHMARK.json", a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("sc-benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    let Some(workload) = cli.workload.as_deref().filter(|w| WORKLOADS.contains(w)) else {
        eprintln!("sc-benchmark: --workload must be one of {WORKLOADS:?}\n{USAGE}");
        return ExitCode::from(2);
    };

    let args = &cli.args;
    let mut tracer = Tracer::default();
    let result = match sim::spec(workload, args.seconds, args.quick) {
        Some(spec) => sim::run(&spec, args, &mut tracer),
        None => live::run(args, &mut tracer),
    };
    let output = match result {
        Ok(output) => output,
        Err(e) => {
            eprintln!(
                "sc-benchmark: {workload} --seed {}: output check failed: {e}",
                args.seed
            );
            return ExitCode::from(1);
        }
    };
    let catalogue = if args.traced { PER_LAYER } else { END_TO_END };
    let metrics = match output.metrics.select(catalogue) {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("sc-benchmark: {workload}: {e}");
            return ExitCode::from(1);
        }
    };

    if args.traced {
        let path = args
            .scratch
            .join(format!("spans-{workload}-{}.jsonl", args.seed));
        let written = std::fs::create_dir_all(&args.scratch)
            .and_then(|()| std::fs::write(&path, tracer.to_json_lines(workload)));
        match written {
            Ok(()) => println!("{} spans written to {}", tracer.spans.len(), path.display()),
            Err(e) => {
                eprintln!("sc-benchmark: writing {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }
    println!(
        "{workload} seed {} ({})",
        args.seed,
        if args.traced { "traced" } else { "untraced" }
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<42} {value:>16.6} {unit}");
    }
    println!(
        "  ops attempted {} failed {}",
        output.attempted, output.failed
    );

    // `{}` prints the shortest decimal that round-trips: every digit measured.
    let body = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                quote(name),
                quote(unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let result = format!(
        "\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}",
        output.attempted, output.failed
    );
    if let Some(path) = &cli.out {
        let line = format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, {result}}}\n",
            quote(workload),
            args.seed,
            u8::from(args.traced)
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()));
        if let Err(e) = appended {
            eprintln!("sc-benchmark: appending to {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    println!("{{{result}}}");
    ExitCode::SUCCESS
}
