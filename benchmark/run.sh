#!/usr/bin/env bash
# Builds `perf_ledger` offline in release mode and runs it.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace 0|1]
#
# Without --workload all four workloads run, each in a fresh process (peak
# memory is per process). Every metric is printed as `name unit value`, the
# last line of standard output is the result object, and result files land
# in benchmark/out/ (a later `--out DIR` overrides that). Run from the
# repository root or anywhere else: paths are taken from this script's
# location, the build directory from CARGO_TARGET_DIR (default
# benchmark/target).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
ledger="${CARGO_TARGET_DIR:-$here/target}/release/perf_ledger"
commit="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"

if [[ " $* " == *" --workload "* ]]; then
    exec "$ledger" run --out "$here/out" --commit "$commit" "$@"
fi
for workload in env_worlds player_crowd sharded_horde campaign_sweep; do
    "$ledger" run --out "$here/out" --commit "$commit" --workload "$workload" "$@"
done
