#!/usr/bin/env bash
# Runs every workload untraced N times (default 10), each time with another
# seed, into SET_DIR/seed<k>/ — one *set* of runs. Two sets of the same
# commit show the benchmark's own noise; a set per commit shows a change:
#
#   benchmark/repeat.sh /tmp/set-a && benchmark/repeat.sh /tmp/set-b
#   perf_ledger compare /tmp/set-a /tmp/set-b
#
# FIRST_SEED (default 1) shifts the seeds, e.g. to hold a claim against seeds
# that were not used while the change was written.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
set_dir="${1:?usage: repeat.sh SET_DIR [N]}"
runs="${2:-10}"
first="${FIRST_SEED:-1}"
for ((k = first; k < first + runs; k++)); do
    "$here/run.sh" --seed "$k" --out "$set_dir/seed$k" | grep '^{"correct"'
done
