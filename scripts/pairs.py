#!/usr/bin/env python3
"""Runs alternating benchmark pairs of a parent revision and a change.

    python3 scripts/pairs.py [--parent REV] [--workload W]... \\
        [--first-seed K] [--pairs N] [--seconds S] [--control]

Both sides are built one after the other at one fixed path,
$TMPDIR/meterstick-pair/src (target directory $TMPDIR/meterstick-pair/target),
with the cargo command of benchmark/run.sh, so neither side's binary differs
from the other's by where it was built. The parent is `git archive REV`
(default HEAD); the change is the working tree's tracked and untracked,
not ignored, files. Each side's `perf_ledger` is kept, and then the pairs
run: pair k runs seed FIRST_SEED + k on both sides, the parent first on even
k and the change first on odd k, each run in a fresh process at full length
unless --seconds is given.

For every workload and every end-to-end metric of BENCHMARK.json the script
prints each side's median and quartiles, the ratio of the medians, how many
pairs the change won (by the metric's direction there), and whether the gap
between the medians exceeds the parent's quartile spread. Runs that report `correct: false` or failed
operations are counted and printed. The script exits 1 after the report
when any run on either side is not correct, failed an operation or lacks
one of those metrics: such a pair measures something else.

--control builds the parent twice instead of parent and change, and exits 1
unless `cmp` finds the two binaries identical: a check that building at one
path makes a build reproducible, run before trusting a pair. It runs no
pairs.

Python standard library only.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["env_worlds", "player_crowd", "sharded_horde", "campaign_sweep"]


def pair_dir():
    return os.path.join(tempfile.gettempdir(), "meterstick-pair")


def export(rev, src):
    """Replaces `src` with the files of `rev`, or of the working tree when
    `rev` is None, every file stamped with the current time.

    The stamp matters: both sides share one target directory, and cargo
    decides what to rebuild by modification times. An archive carries the
    commit's time and a copy could keep the file's own, either of which can
    be older than the other side's build, so cargo would call the second
    side fresh and hand back the first side's binary."""
    shutil.rmtree(src, ignore_errors=True)
    os.makedirs(src)
    if rev is not None:
        archive = subprocess.run(
            ["git", "-C", ROOT, "archive", "--format=tar", rev],
            check=True, capture_output=True,
        ).stdout
        subprocess.run(["tar", "-x", "-m", "-C", src], input=archive, check=True)
        return
    listed = subprocess.run(
        ["git", "-C", ROOT, "ls-files", "-z", "-co", "--exclude-standard"],
        check=True, capture_output=True,
    ).stdout
    for name in filter(None, listed.decode().split("\0")):
        origin = os.path.join(ROOT, name)
        if not os.path.isfile(origin):
            continue  # deleted in the working tree
        dest = os.path.join(src, name)
        os.makedirs(os.path.dirname(dest), exist_ok=True)
        shutil.copyfile(origin, dest)
        shutil.copymode(origin, dest)


def build(rev, keep_as):
    """Builds `perf_ledger` from `rev` at the fixed path and copies it to
    `keep_as`."""
    base = pair_dir()
    src, target = os.path.join(base, "src"), os.path.join(base, "target")
    export(rev, src)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(src, "benchmark", "Cargo.toml")],
        check=True, env=env,
    )
    shutil.copy2(os.path.join(target, "release", "perf_ledger"), keep_as)
    return keep_as


def run_once(binary, workload, seed, seconds, out):
    """One run; returns (metrics, tally) where tally is the result object."""
    cmd = [binary, "run", "--workload", workload, "--seed", str(seed), "--out", out]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {}, {"correct": False, "failed": None, "attempted": None}
    metrics = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 3:
            try:
                metrics[fields[0]] = float(fields[2])
            except ValueError:
                pass
    result = json.loads(lines[-1])
    return metrics, {k: result.get(k) for k in ("correct", "attempted", "failed")}


def end_to_end_metrics():
    """(name, lower is better) of each end-to-end metric in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    return [(m["name"], m["better"] == "lower") for m in declared["end_to_end"]]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(workload, runs, metrics):
    """Prints the comparison; returns whether every run is correct, failed
    nothing and reports every metric."""
    parent, change = runs["parent"], runs["change"]
    print(f"\n== {workload}: {len(parent)} pairs")
    print("metric: parent median [q1-q3] -> change median [q1-q3], ratio, wins,"
          " gap beyond the parent's quartile spread")
    for name, lower in metrics:
        pairs = [(p[0].get(name), c[0].get(name)) for p, c in zip(parent, change)]
        pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
        if not pairs:
            continue
        ps, cs = [p for p, _ in pairs], [c for _, c in pairs]
        pq1, pmed, pq3 = quartiles(ps)
        cq1, cmed, cq3 = quartiles(cs)
        wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
        ratio = f"{cmed / pmed:.4f}" if pmed else "n/a"
        beyond = "beyond" if abs(cmed - pmed) > pq3 - pq1 else "inside"
        print(f"{name}: {pmed:.6g} [{pq1:.6g}-{pq3:.6g}] -> {cmed:.6g} [{cq1:.6g}-{cq3:.6g}],"
              f" x {ratio}, {wins}/{len(pairs)} won, {beyond}")
    names = [name for name, _ in metrics]
    ok = True
    for side in ("parent", "change"):
        bad = [t for _, t in runs[side] if not t["correct"] or t["failed"]]
        failed = sum(t["failed"] or 0 for _, t in runs[side])
        attempted = sum(t["attempted"] or 0 for _, t in runs[side])
        missing = sorted({n for m, _ in runs[side] for n in names if n not in m})
        print(f"{side}: {len(runs[side]) - len(bad)}/{len(runs[side])} runs correct,"
              f" {failed} of {attempted} operations failed"
              + (f", metrics missing: {', '.join(missing)}" if missing else ""))
        ok = ok and not bad and not missing
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD", help="parent revision (default HEAD)")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default all four)")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: perf_ledger's full length)")
    parser.add_argument("--control", action="store_true",
                        help="build the parent twice and compare the binaries")
    args = parser.parse_args()

    base = pair_dir()
    os.makedirs(base, exist_ok=True)
    bins = os.path.join(base, "bin")
    os.makedirs(bins, exist_ok=True)
    if args.control:
        first = build(args.parent, os.path.join(bins, "perf_ledger.first"))
        second = build(args.parent, os.path.join(bins, "perf_ledger.second"))
        same = subprocess.run(["cmp", first, second]).returncode == 0
        print(f"control: {args.parent} built twice at {base}/src:"
              f" binaries {'identical' if same else 'DIFFER'}")
        return 0 if same else 1

    sides = {
        "parent": build(args.parent, os.path.join(bins, "perf_ledger.parent")),
        "change": build(None, os.path.join(bins, "perf_ledger.change")),
    }
    if subprocess.run(["cmp", "-s", sides["parent"], sides["change"]]).returncode == 0:
        print("pairs: the parent and the change built to identical binaries", file=sys.stderr)
        return 1
    metrics = end_to_end_metrics()
    ok = True
    for workload in args.workload or WORKLOADS:
        runs = {"parent": [], "change": []}
        for k in range(args.pairs):
            seed = args.first_seed + k
            order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
            for side in order:
                out = os.path.join(base, "out", side, f"seed{seed}")
                runs[side].append(run_once(sides[side], workload, seed, args.seconds, out))
            p = runs["parent"][-1][0].get("run_wall_s")
            c = runs["change"][-1][0].get("run_wall_s")
            print(f"{workload} seed {seed}: run_wall_s parent {p} change {c}", flush=True)
        ok = report(workload, runs, metrics) and ok
    if not ok:
        print("pairs: a run was not correct, failed operations or lacked a metric",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
