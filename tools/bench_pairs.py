"""Run benchmark workloads on two checkouts in alternating pairs and write
every result to ``BENCH_<label>.json``.

Run from the repository root, with two plain checkouts (a parent commit
and a change):

    python3 tools/bench_pairs.py PARENT CHANGE --label NAME \\
        --workload tables --workload sweep --pairs 5 --seed 0 --seconds 5

Each run is ``python3 bench/run.py --workload W --seed S --seconds T`` in
one checkout's root.  Pair i runs the parent first when i is even and the
change first when it is odd.  A run's result is the last line it prints:
``correct``, ``attempted``, ``failed`` and ``metrics``.  The file records
the machine (Python, numpy, cores), both checkouts' commits, every run's
result, each side's median of each metric and each pair's ratio change /
parent.  The workloads, seed and run length are the caller's to choose.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def last_result(stdout: str) -> dict:
    """The JSON object on the last line of a ``bench/run.py`` run."""
    return json.loads(stdout.strip().splitlines()[-1])


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True, check=True)
    return last_result(proc.stdout)


def commit_of(root: Path) -> str:
    """The checkout's HEAD, marked when tracked files differ from it."""
    def git(*args) -> str:
        return subprocess.run(["git", "-C", str(root), *args], check=True,
                              capture_output=True, text=True).stdout.strip()
    try:
        head = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"
    return f"{head} with uncommitted changes" if dirty else head


def summarize(pairs: list[dict]) -> dict:
    """Each side's median of every metric, and every pair's ratio change /
    parent (None where the parent read 0), from pairs of results."""
    names = list(pairs[0]["parent"]["metrics"])

    def value(pair, side, name):
        return pair[side]["metrics"][name]["value"]

    return {
        "all_correct": all(p[s]["correct"] is True for p in pairs
                           for s in SIDES),
        "medians": {s: {name: statistics.median(value(p, s, name)
                                                for p in pairs)
                        for name in names} for s in SIDES},
        "ratios": {name: [value(p, "change", name) / value(p, "parent", name)
                          if value(p, "parent", name) else None
                          for p in pairs] for name in names}}


def machine() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cores": len(os.sched_getaffinity(0)),
            "platform": platform.platform()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--label", required=True, help="names BENCH_<label>.json")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=5.0)
    p.add_argument("--out", type=Path, default=Path("."),
                   help="directory the file is written to")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    roots = {"parent": args.parent, "change": args.change}
    record = {
        "label": args.label, "machine": machine(),
        "command": f"python3 bench/run.py --workload W --seed {args.seed} "
                   f"--seconds {args.seconds:g}",
        "commits": {side: commit_of(root) for side, root in roots.items()},
        "workloads": {}}
    for workload in args.workload:
        pairs = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_once(roots[side], workload, args.seed,
                                      args.seconds)
            print(f"{workload} pair {i}: " + ", ".join(
                f"{side} {pair[side]['metrics']['throughput']['value']:.4g}"
                for side in SIDES), file=sys.stderr)
            pairs.append(pair)
        record["workloads"][workload] = {"runs": pairs, **summarize(pairs)}
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
