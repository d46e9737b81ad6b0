#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json names it): builds the
# repository's `sc-node` daemon and the benchmark runner from source in
# release mode, then runs the runner with the arguments given:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything it writes lands under the
# cargo target directory (`CARGO_TARGET_DIR`, default `target`).
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-target}

# Build output goes to stderr: the runner owns standard output.
cargo build --release --offline --quiet -p sc-node >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin sc-benchmark >&2

exec "$CARGO_TARGET_DIR/release/sc-benchmark" "$@"
