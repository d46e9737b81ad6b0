#!/usr/bin/env bash
# Collects one set of runs for `sc-benchmark --compare`:
#
#   bash perfbench/collect.sh OUT.jsonl [seed ...]      (default seeds: 1..10)
#
# Every workload runs untraced once per seed, then traced once on the
# first seed; each run appends its result line to OUT.jsonl.
set -euo pipefail

out=$1
shift
seeds=("$@")
[ ${#seeds[@]} -gt 0 ] || seeds=(1 2 3 4 5 6 7 8 9 10)
here=$(dirname "$0")
seconds=$(python3 -c "import json; print(json.load(open('BENCHMARK.json'))['run_seconds'])")

for workload in sim-honest sim-hub40 sim-churn-durable live-ring8; do
    for seed in "${seeds[@]}"; do
        bash "$here/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 --out "$out" | tail -n 1
    done
    bash "$here/run.sh" --workload "$workload" --seed "${seeds[0]}" --seconds "$seconds" --trace 1 --out "$out" | tail -n 1
done
