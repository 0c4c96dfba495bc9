#!/usr/bin/env python3
"""Runs the committed mutation checks of tests/mutants.txt.

    python3 scripts/mutants.py

Each mutant is one line of the list, five tab-separated fields:

    file  snippet  replacement  cargo-test-args  [equivalent: reason]

`snippet` must occur exactly once in `file` (relative to the repository
root); `replacement` takes its place. In both, `\\n` stands for a newline and
`\\t` for a tab. `cargo-test-args` follow `cargo test -q --offline`, e.g.
`-p mlg-server --lib -- drain_totals a_horde_batch`: they select only the
tests expected to kill the mutant, so a kill by any other test does not
count. A mutant marked `equivalent: <reason>` is reported and not run. Blank
lines and lines starting with `#` are ignored.

The repository is copied once to a temporary directory (without `target/`,
`.git/` and the benchmark's outputs), each mutant is applied there on its own
and undone afterwards, and every `cargo test` shares one target directory
inside the copy. A mutant is *killed* when its tests fail or run longer than
TEST_TIMEOUT_S (a mutant can make a loop unbounded), *survived* when they
pass, and *unviable* when they do not compile. Prints one line per mutant
with the tests that failed, and exits 1 on a survivor not marked equivalent,
on an unviable mutant, or on a snippet that is not found exactly once.
Python standard library only.
"""

import argparse
import os
import re
import shlex
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIP = {".git", "target", "out", ".bench_build"}
# Once built, the unmutated tests of every line finish in seconds.
TEST_TIMEOUT_S = 300


def unescape(field):
    return field.replace("\\n", "\n").replace("\\t", "\t")


def parse(path):
    mutants = []
    with open(path, encoding="utf-8") as f:
        for number, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) not in (4, 5):
                sys.exit(f"{path}:{number}: expected 4 or 5 tab-separated fields, got {len(fields)}")
            equivalent = None
            if len(fields) == 5:
                if not fields[4].startswith("equivalent: "):
                    sys.exit(f"{path}:{number}: the fifth field must start with 'equivalent: '")
                equivalent = fields[4][len("equivalent: "):]
            mutants.append({
                "line": number,
                "file": fields[0],
                "snippet": unescape(fields[1]),
                "replacement": unescape(fields[2]),
                "args": shlex.split(fields[3]),
                "equivalent": equivalent,
            })
    return mutants


def failed_tests(output):
    """The test names listed under libtest's `failures:` heading."""
    names, listing = [], False
    for line in output.splitlines():
        if line == "failures:":
            listing = True
        elif listing and re.fullmatch(r"    \S+", line):
            names.append(line.strip())
        elif listing and line.startswith("test result:"):
            listing = False
    return sorted(set(names))


def cargo(tree, target, args, timeout=None):
    """`(exit status, output)` of `cargo test`, or None past `timeout` seconds.

    cargo runs in a process group of its own, so that a timeout also stops
    the test binary it started, which would otherwise hold the output open.
    """
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    proc = subprocess.Popen(["cargo", "test", "-q", "--offline", *args], cwd=tree, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                            start_new_session=True)
    try:
        output, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None
    return proc.returncode, output


def main():
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args()

    mutants = parse(os.path.join(ROOT, "tests", "mutants.txt"))
    bad = 0
    for m in mutants:
        with open(os.path.join(ROOT, m["file"]), encoding="utf-8") as f:
            found = f.read().count(m["snippet"])
        if found != 1:
            print(f"line {m['line']}: snippet found {found} times in {m['file']}")
            bad += 1
    if bad:
        return 1

    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        tree = os.path.join(scratch, "tree")
        shutil.copytree(ROOT, tree, ignore=lambda _, names: [n for n in names if n in SKIP])
        target = os.path.join(scratch, "target")
        for m in mutants:
            label = f"line {m['line']} {m['file']}"
            if m["equivalent"] is not None:
                print(f"equivalent  {label}: {m['equivalent']}", flush=True)
                continue
            path = os.path.join(tree, m["file"])
            with open(path, encoding="utf-8") as f:
                original = f.read()
            with open(path, "w", encoding="utf-8") as f:
                f.write(original.replace(m["snippet"], m["replacement"], 1))
            try:
                built, build_output = cargo(tree, target, ["--no-run", *m["args"]])
                run = cargo(tree, target, m["args"], TEST_TIMEOUT_S) if built == 0 else None
            finally:
                with open(path, "w", encoding="utf-8") as f:
                    f.write(original)
            if built != 0:
                print(f"unviable    {label}\n{build_output[-2000:]}", flush=True)
                bad += 1
            elif run is None:
                print(f"killed      {label}: (timeout after {TEST_TIMEOUT_S} s)", flush=True)
            elif run[0] != 0:
                killers = ", ".join(failed_tests(run[1])) or "(no test named)"
                print(f"killed      {label}: {killers}", flush=True)
            else:
                print(f"survived    {label}: cargo test -q {shlex.join(m['args'])}", flush=True)
                bad += 1
    print(f"{len(mutants)} mutants, {bad} failing the check, {time.monotonic() - started:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
