#!/usr/bin/env bash
# Runs every workload end to end (--trace 0) and traced (--trace 1), one
# process each, from the repository root: bash perfbench/all.sh [seed] [seconds]
set -euo pipefail
seed="${1:-1}"
seconds="${2:-25}"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
for workload in committee-adaptive sampled-scale faulty-net; do
    for trace in 0 1; do
        cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
