#!/usr/bin/env bash
# The one command of the benchmark: builds the harness (release, offline)
# and runs it. See README.md in this directory for the arguments.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh                      every workload, both ways
#   benchmark/run.sh compare A.json B.json
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

# Host facts the harness cannot read from /proc.
export HBSP_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export HBSP_BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"

exec "${CARGO_TARGET_DIR:-benchmark/target}/release/hbsp-benchmark" "$@"
