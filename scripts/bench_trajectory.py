#!/usr/bin/env python3
"""Benchmark trajectory files (BENCH_<pr>.json): write one, or check some.

Write — from two sets of benchmark/out-style result directories
(SET/seed<k>/<workload>.json, e.g. left by `benchmark/repeat.sh SET`), one
measured on the parent commit and one on the change, paired seed by seed:

    scripts/bench_trajectory.py --pr 22 --parent /tmp/set-parent \\
        --change /tmp/set-change --seeds 21,22,23 --change-id <id> > BENCH_22.json

`--change-id` names what the change side ran from; a change measured from an
uncommitted tree has no commit yet, so name it by its `crates/` tree.

Check — every file has every key the writer emits, no failed operation on
either side, only workloads and metrics that BENCHMARK.json declares, and in
every row the fields derived from its `runs` (quartiles, `change_over_parent`,
`parent_iqr_over_median`, `change_wins`, `every_change_run_beats_every_parent_run`)
equal to what the writer computes from them — a hand-edited median or a claim
copied from another row fails:

    scripts/bench_trajectory.py --check BENCH_*.json

Given several files, the check also holds them against each other, in `pr`
order: each file's `parent` medians are compared, per workload and metric,
with the previous file's `change` medians — the same tree measured in two
sessions — and a median that is *worse* than the previous file left it by
more than the metric's `bound` fails the check. Something moved the benchmark
between two PRs (the box, the toolchain, an unmeasured change) and the newer
file's ratios cannot be read as a continuation of the older one's.

Cells — where a workload's `setup_s`, `run_wall_s` or ticking time moved, cell
by cell, from two sets as for writing:

    scripts/bench_trajectory.py --cells --parent /tmp/set-parent \\
        --change /tmp/set-change --seeds 21,22,23 --workload sharded_horde

A workload's time metric is the sum over its cells of each cell's lower
quartile across rounds of its host-corrected time (benchmark/src/ledger.rs).
For every cell this prints, per side, the median over seeds of that lower
quartile for `setup_s`, `wall_s` and `ticking_s` — a round's `wall_s` minus
its `setup_s`, the time after set-up, which no recorded metric isolates: a
cell that spends half its wall in set-up can hide a ticking saving behind a
set-up slip — and the change-over-parent ratio. It also prints each cell's
`ticks` (the simulated ticks of one round, from the result file; the median
over seeds) and, per side, its ticking time per tick in milliseconds
(`ticking_s / ticks`, median over seeds) with their ratio. Cells
pair up by position, since a seed may rename one (`campaign_sweep`'s labels
carry the seed's start time); both sides of a seed must name them alike. It
re-derives each quartile from the result file's per-round samples, and fails
if a run's cells do not sum to the `setup_s` or `run_wall_s` that run recorded,
or if a cell's tick count differs between the two sides of one seed: ticks are
modeled output, and a cell that crashes its server (the Horde cells stop after
a few ticks) would move `sim_ticks_per_s` without any speed-up if the crash
moved.

Medians are compared, never single runs: `peak_rss_mb` on `campaign_sweep`
and `sharded_horde` has been bimodal — about one run in ten landed near 12 MiB
instead of 9.5, depending on which thread's allocator arena the big
allocations land in (benchmark/README.md, where the `peak_rss_mb` bound is
set; visible in BENCH_22.json's parent runs). On `campaign_sweep` the cause
was `ParallelExecutor` leaving its workers unjoined, which it no longer does
(docs/ARCHITECTURE.md, campaign layer); a parent measured before that still
shows it.

Run from the repository root (BENCHMARK.json is read from the working
directory). Standard library only.
"""
import argparse
import json
import math
import statistics
import sys

ORDER = "odd seeds ran the parent first, even seeds the change first"
SIDE_KEYS = ("commit", "threads_available", "attempted", "failed", "host_state_kernel_s")
ROW_KEYS = ("unit", "better", "bound", "parent", "change", "change_over_parent", "parent_iqr_over_median",
            "change_wins", "pairs", "every_change_run_beats_every_parent_run")
QUARTILE_KEYS = ("p25", "p50", "p75", "runs")


def quartiles(values):
    p25, p50, p75 = statistics.quantiles(values, n=4, method="inclusive")
    return {"p25": p25, "p50": p50, "p75": p75, "runs": values}


def derive(parent_runs, change_runs, better):
    """Every field of a row that follows from its runs, paired in order."""
    beats = (lambda y, x: y > x) if better == "higher" else (lambda y, x: y < x)
    qa, qb = quartiles(parent_runs), quartiles(change_runs)
    return {
        "parent": qa, "change": qb,
        "change_over_parent": qb["p50"] / qa["p50"],
        "parent_iqr_over_median": (qa["p75"] - qa["p25"]) / qa["p50"],
        "change_wins": sum(beats(y, x) for x, y in zip(parent_runs, change_runs)), "pairs": len(parent_runs),
        "every_change_run_beats_every_parent_run": all(beats(y, x) for x in parent_runs for y in change_runs),
    }


def disagreements(row, where):
    """Where a row's recorded derived fields differ from what its runs give."""
    found = []

    def differs(recorded, recomputed):
        if isinstance(recomputed, float):
            return not (isinstance(recorded, (int, float)) and math.isclose(recorded, recomputed, rel_tol=1e-9))
        return type(recorded) is not type(recomputed) or recorded != recomputed

    expected = derive(row["parent"]["runs"], row["change"]["runs"], row["better"])
    for key, value in expected.items():
        fields = [(f"{key}.{q}", row[key][q], value[q]) for q in ("p25", "p50", "p75")] \
            if key in ("parent", "change") else [(key, row[key], value)]
        found.extend(f"{where}.{name}: recorded {recorded!r}, its runs give {recomputed!r}"
                     for name, recorded, recomputed in fields if differs(recorded, recomputed))
    return found


def write(spec, pr, parent_dir, change_dir, seeds, change_id):
    def load(set_dir):
        results = {}
        for k in seeds:
            for w in spec["workloads"]:
                with open(f"{set_dir}/seed{k}/{w['name']}.json") as f:
                    results[k, w["name"]] = json.load(f)
        return results

    sides = {"parent": load(parent_dir), "change": load(change_dir)}
    out = {"pr": pr, "command": f"bash benchmark/run.sh --seed <k>  (run_seconds {spec['run_seconds']}, untraced)",
           "seeds": seeds, "order": ORDER, "workloads": {}}
    for side, results in sides.items():
        runs = list(results.values())
        out[side] = {
            "commit": runs[0]["commit"] if side == "parent" else change_id,
            "threads_available": runs[0]["threads_available"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "host_state_kernel_s": {q: statistics.median(r["host_state"][q] for r in runs)
                                    for q in ("p25", "p50", "p75")},
        }
    for w in spec["workloads"]:
        rows = out["workloads"][w["name"]] = {}
        for m in spec["end_to_end"]:
            a, b = ([results[k, w["name"]]["metrics"][m["name"]]["value"] for k in seeds]
                    for results in sides.values())
            rows[m["name"]] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                               **derive(a, b, m["better"])}
    json.dump(out, sys.stdout, indent=1)
    print()


def problems(spec, doc):
    """Everything wrong with one trajectory file, as strings."""
    found = []

    def need(obj, keys, where):
        missing = [k for k in keys if not isinstance(obj, dict) or k not in obj]
        found.extend(f"{where}: missing key {k!r}" for k in missing)
        return not missing

    if not need(doc, ("pr", "command", "seeds", "order", "workloads", "parent", "change"), "top level"):
        return found
    for side in ("parent", "change"):
        if need(doc[side], SIDE_KEYS, side) and doc[side]["failed"] != 0:
            found.append(f"{side}: failed = {doc[side]['failed']}, must be 0")
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"]}
    for workload, rows in doc["workloads"].items():
        if workload not in workloads:
            found.append(f"workload {workload!r} is not in BENCHMARK.json")
        for metric, row in rows.items():
            where = f"{workload}.{metric}"
            if metric not in metrics:
                found.append(f"{where}: metric is not an end_to_end metric of BENCHMARK.json")
            if need(row, ROW_KEYS, where):
                sound = True
                for side in ("parent", "change"):
                    if not need(row[side], QUARTILE_KEYS, f"{where}.{side}"):
                        sound = False
                    elif len(row[side]["runs"]) != row["pairs"]:
                        found.append(f"{where}.{side}: {len(row[side]['runs'])} runs for {row['pairs']} pairs")
                        sound = False
                if sound:
                    found.extend(disagreements(row, where))
    return found


def discontinuities(previous, current):
    """Where `current`'s parent medians are worse than `previous`'s change medians by more than the bound."""
    found = []
    for workload, rows in current["workloads"].items():
        for metric, row in rows.items():
            before = previous["workloads"].get(workload, {}).get(metric)
            if before is None:
                continue
            left, now = before["change"]["p50"], row["parent"]["p50"]
            worse = (left - now if row["better"] == "higher" else now - left) / left
            if worse > row["bound"]:
                found.append(f"{workload}.{metric}: parent median {now:.6g} is {worse:.1%} worse than the "
                             f"{left:.6g} that PR {previous['pr']} left (bound {row['bound']:.0%})")
    return found


CELL_METRICS = (("setup_s", "setup_s"), ("wall_s", "run_wall_s"))
CELL_COLUMNS = ("setup_s", "wall_s", "ticking_s")


def lower_quartile(values):
    """The 25th percentile by linear interpolation, as `stats::percentile` computes it."""
    v = sorted(values)
    rank = 0.25 * (len(v) - 1)
    lo, hi = math.floor(rank), math.ceil(rank)
    return v[lo] + (v[hi] - v[lo]) * (rank - lo)


def cell_values(path):
    """Each cell's host-corrected lower quartile of `setup_s`, `wall_s` and `ticking_s` (per round,
    `wall_s − setup_s`) and its `ticks`, in cell order, after checking that the first two sum to the
    run's recorded metrics."""
    with open(path) as f:
        result = json.load(f)
    nominal = result["host_state"]["nominal"]
    cells = []
    for cell in result["cells"]:
        kernel = [(before + after) / 2 for before, after in zip(cell["kernel_before_s"], cell["kernel_after_s"])]
        rounds = {key: [s * nominal / k for s, k in zip(cell[key], kernel)] for key, _ in CELL_METRICS}
        rounds["ticking_s"] = [wall - setup for wall, setup in zip(rounds["wall_s"], rounds["setup_s"])]
        values = {key: lower_quartile(rounds[key]) for key in CELL_COLUMNS}
        values["ticks"] = cell["ticks"]
        cells.append((cell["cell"], values))
    for key, metric in CELL_METRICS:
        total, recorded = sum(values[key] for _, values in cells), result["metrics"][metric]["value"]
        if not math.isclose(total, recorded, rel_tol=1e-12):
            sys.exit(f"{path}: the cells' {key} sum to {total!r}, the run recorded {metric} {recorded!r}")
    return cells


def print_cells(parent_dir, change_dir, seeds, workload):
    sides = {side: [cell_values(f"{set_dir}/seed{k}/{workload}.json") for k in seeds]
             for side, set_dir in (("parent", parent_dir), ("change", change_dir))}
    # A seed may rename a cell (campaign_sweep's labels carry the seed's start
    # time), so cells pair up by position; the two sides of a seed must agree.
    for k, parent, change in zip(seeds, *sides.values()):
        names = [[label for label, _ in run] for run in (parent, change)]
        if names[0] != names[1] or len(names[0]) != len(sides["parent"][0]):
            sys.exit(f"seed {k}: parent cells {names[0]} and change cells {names[1]} differ")
        for (label, a), (_, b) in zip(parent, change):
            if a["ticks"] != b["ticks"]:
                sys.exit(f"seed {k}: cell {label!r} ran {a['ticks']} ticks on the parent and {b['ticks']} on "
                         f"the change; ticks are modeled output")
    labels = [label for label, _ in sides["parent"][0]]
    print(f"{workload}: per cell, the median over seeds {','.join(map(str, seeds))} of the cell's "
          f"host-corrected lower quartile across rounds, in seconds (cells named as in seed {seeds[0]})")
    print("".join(f"{key + ' ' + side:>18}" for key in CELL_COLUMNS
                  for side in ("parent", "change", "ratio"))
          + f"{'ticks':>8}" + "".join(f"{'ms/tick ' + side:>16}" for side in ("parent", "change", "ratio")) + "  cell")
    for c, label in enumerate(labels):
        line = ""
        for key in CELL_COLUMNS:
            a, b = (statistics.median(run[c][1][key] for run in runs) for runs in sides.values())
            line += f"{a:>18.6f}{b:>18.6f}{b / a:>18.3f}"
        line += f"{statistics.median(run[c][1]['ticks'] for run in sides['parent']):>8g}"
        a, b = (statistics.median(1e3 * run[c][1]["ticking_s"] / run[c][1]["ticks"] for run in runs)
                for runs in sides.values())
        line += f"{a:>16.4f}{b:>16.4f}{b / a:>16.3f}"
        print(f"{line}  {label}")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check", nargs="+", metavar="FILE", help="trajectory files to check")
    parser.add_argument("--cells", action="store_true", help="print per-cell medians of one workload")
    parser.add_argument("--workload", help="the workload --cells reads")
    parser.add_argument("--pr", type=int)
    parser.add_argument("--parent", metavar="SET_DIR")
    parser.add_argument("--change", metavar="SET_DIR")
    parser.add_argument("--seeds", help="comma-separated, in the order the pairs ran")
    parser.add_argument("--change-id")
    args = parser.parse_args()
    if args.cells:
        missing = [flag for flag in ("parent", "change", "seeds", "workload") if getattr(args, flag) is None]
        if missing:
            parser.error("with --cells, also give --" + ", --".join(missing))
        print_cells(args.parent, args.change, [int(s) for s in args.seeds.split(",")], args.workload)
        return
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.check:
        bad, sound = 0, []
        for path in args.check:
            with open(path) as f:
                doc = json.load(f)
            found = problems(spec, doc)
            for problem in found:
                print(f"{path}: {problem}", file=sys.stderr)
            bad += bool(found)
            if not found:
                sound.append((doc["pr"], path, doc))
        sound.sort(key=lambda entry: entry[0])
        for (_, _, previous), (_, path, doc) in zip(sound, sound[1:]):
            found = discontinuities(previous, doc)
            for problem in found:
                print(f"{path}: {problem}", file=sys.stderr)
            bad += bool(found)
        sys.exit(1 if bad else 0)
    missing = [flag for flag in ("pr", "parent", "change", "seeds", "change_id") if getattr(args, flag) is None]
    if missing:
        parser.error("to write a file, also give --" + ", --".join(flag.replace("_", "-") for flag in missing))
    write(spec, args.pr, args.parent, args.change, [int(s) for s in args.seeds.split(",")], args.change_id)


if __name__ == "__main__":
    main()
