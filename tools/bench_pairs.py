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

Each metric also gets the figures the acceptance rule reads, in
``verdicts``: the parent's quartiles, the change's median, how many pairs
the change won (in the direction BENCHMARK.json's ``better`` gives), its
gain over the parent's median against the parent's interquartile range,
and, for the end-to-end metrics, the relative change against the
metric's ``bound`` and whether the parent's spread resolves that bound.
These are printed as a table too.  With ``--trace`` each workload also
gets one ``--trace 1`` run per side after its pairs, and the file keeps
both sides' per-layer values (each a median over the run's traced
rounds) with their ratios.
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
SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def last_result(stdout: str) -> dict:
    """The JSON object on the last line of a ``bench/run.py`` run."""
    return json.loads(stdout.strip().splitlines()[-1])


def run_once(root: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True)
    return last_result(proc.stdout)


def metric_rules(path: Path = SPEC) -> dict[str, dict]:
    """Each metric's ``better`` and, for the end-to-end ones, ``bound``,
    from BENCHMARK.json."""
    spec = json.loads(path.read_text())
    return {m["name"]: {"better": m["better"], "bound": m.get("bound")}
            for m in spec["end_to_end"] + spec["per_layer"]}


def quartiles(values: list[float]) -> list[float]:
    """Lower quartile, median and upper quartile (inclusive method)."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def verdict(parent: list[float], change: list[float], better: str,
            bound: float | None) -> dict:
    """What the acceptance rule reads of one metric over the pairs:
    ``wins`` counts the pairs where the change is strictly better, and
    ``gain`` is the change's median minus the parent's, signed so that
    better is positive, which the claim needs above ``parent_iqr``.
    ``relative`` is the change's median over the parent's, minus one;
    an end-to-end metric is ``resolved`` when the parent's interquartile
    range, relative to its median, is within the metric's bound."""
    sign = 1 if better == "higher" else -1
    q1, mid, q3 = quartiles(parent)
    median = statistics.median(change)
    out = {"better": better, "parent_quartiles": [q1, mid, q3],
           "change_median": median,
           "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
           "pairs": len(parent), "gain": sign * (median - mid),
           "parent_iqr": q3 - q1,
           "relative": median / mid - 1 if mid else None}
    if bound is not None:
        out["bound"] = bound
        out["resolved"] = bool(mid) and (q3 - q1) / abs(mid) <= bound
    return out


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


def summarize(pairs: list[dict], rules: dict[str, dict]) -> dict:
    """Each side's median of every metric, every pair's ratio change /
    parent (None where the parent read 0) and, for each metric ``rules``
    names, its ``verdict``, from pairs of results."""
    names = list(pairs[0]["parent"]["metrics"])

    def value(pair, side, name):
        return pair[side]["metrics"][name]["value"]

    def values(side, name):
        return [value(p, side, name) for p in pairs]

    return {
        "all_correct": all(p[s]["correct"] is True for p in pairs
                           for s in SIDES),
        "medians": {s: {name: statistics.median(value(p, s, name)
                                                for p in pairs)
                        for name in names} for s in SIDES},
        "ratios": {name: [value(p, "change", name) / value(p, "parent", name)
                          if value(p, "parent", name) else None
                          for p in pairs] for name in names},
        "verdicts": {name: verdict(values("parent", name),
                                   values("change", name),
                                   rules[name]["better"], rules[name]["bound"])
                     for name in names if name in rules}}


def traced(results: dict[str, dict]) -> dict:
    """Both sides' per-layer values from one traced run each, and their
    ratios change / parent (None where the parent read 0)."""
    layers = {side: {name: m["value"]
                     for name, m in results[side]["metrics"].items()}
              for side in SIDES}
    return {"correct": {s: results[s]["correct"] for s in SIDES}, **layers,
            "ratios": {name: layers["change"][name] / v if v else None
                       for name, v in layers["parent"].items()}}


def table(workload: str, verdicts: dict[str, dict]) -> str:
    """The verdicts as text, one metric a line."""
    lines = [f"{workload}: metric, parent q1 / median / q3, change median, "
             "wins, relative change"]
    for name, v in verdicts.items():
        q1, mid, q3 = v["parent_quartiles"]
        rel = "n/a" if v["relative"] is None else f"{v['relative']:+.1%}"
        note = ""
        if "bound" in v and not v["resolved"]:
            note = f"  unresolved: parent spread exceeds bound {v['bound']}"
        lines.append(f"  {name}: {q1:.4g} / {mid:.4g} / {q3:.4g}, "
                     f"{v['change_median']:.4g}, {v['wins']}/{v['pairs']}, "
                     f"{rel} (better {v['better']}){note}")
    return "\n".join(lines)


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
    p.add_argument("--trace", action="store_true",
                   help="also one traced run per side and workload")
    p.add_argument("--out", type=Path, default=Path("."),
                   help="directory the file is written to")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    rules = metric_rules()
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
        entry = {"runs": pairs, **summarize(pairs, rules)}
        print(table(workload, entry["verdicts"]), file=sys.stderr)
        if args.trace:
            entry["traced"] = traced({
                side: run_once(roots[side], workload, args.seed, args.seconds,
                               trace=1) for side in SIDES})
        record["workloads"][workload] = entry
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
