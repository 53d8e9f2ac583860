"""Self-test of the benchmark on tiny inputs (about half a minute).

    python3 bench/selftest.py

Checks that every workload reports every metric with its unit, traced and
untraced; that each layer is measured by the workload meant to exercise it;
that an injected table fault is counted as a failed operation instead of
crashing the run; and that the benchmark refuses to run, printing no
result, in a directory that holds only BENCHMARK.json and bench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7

# End-to-end figures each workload prints and records (name -> unit),
# whether or not BENCHMARK.json gates them.
REPORTED = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
            "fail_ratio": "ratio", "throughput": "work/s"}
REPORTED_BY_WORKLOAD = {
    "tables": {"bags_per_s": "bags/s"},
    "sweep": {"reps_per_s": "reps/s"},
    "audit": {"events_per_s": "events/s", "trajectory_p50_ms": "ms",
              "trajectory_p95_ms": "ms"},
}


def _slots(stem):
    return [f"{stem}.{n}" for n in ("n16", "n18", "n20")]


def _policies(stem):
    return [f"{stem}.{p}" for p in ("max_cut_drop", "resistance_greedy",
                                    "degree_proportional", "uniform",
                                    "random_node")]


# Per-layer metrics that must be non-zero on the workload that exercises
# the layer; together they cover every per-layer metric but the overhead.
ACTIVE = {
    "tables": ["graph.generate_s", "crusade.validate_crusade_s",
               "crusade.width_s"]
    + [f"{m}_s" for m in _slots("graph.cut_table")
       + _slots("resistance.resistance_table")
       + _slots("resistance.monotone_resistance_table")
       + _slots("resistance.check_bellman")
       + _slots("resistance.witness_crusade")
       + _slots("analysis.verify_table_invariants")]
    + _slots("resistance.rounds") + _slots("resistance.bytes_per_round"),
    "sweep": ["graph.generate_s", "analysis.extinction_sweep.complete_s",
              "analysis.extinction_sweep.line_s"],
    "audit": ["graph.generate_s", "resistance.resistance_table.n16_s",
              "resistance.rounds.n16", "resistance.bytes_per_round.n16",
              "crusade.audit_bottleneck_s", "epidemic.validate_log_s",
              "epidemic.replay_s", "epidemic.log_roundtrip_s",
              "analysis.audit_recovery_bound_s",
              "analysis.scan_halving_window_s"]
    + [f"{m}_s" for m in _policies("epidemic.simulate")
       + _policies("epidemic.simulate_self") + _policies("epidemic.allocate")]
    + _policies("epidemic.allocate.calls") + _policies("epidemic.events"),
}


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.3", "--trace", str(trace),
         "--scale", "tiny", *extra],
        capture_output=True, text=True, timeout=300, cwd=cwd)
    return proc


def result_and_record(workload: str, trace: int, *extra: str):
    proc = run(workload, trace, *extra)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}: {proc.stderr[-1500:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads(
        (HERE / "out" / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    return result, record


def check_workload(workload: str) -> list[str]:
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, record = result_and_record(workload, trace)
        where = f"{workload} trace={trace}"
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{where}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            problems.append(f"{where}: {result['failed']} of "
                            f"{result['attempted']} failed: {record['failures'][:3]}")
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                            f"missing {sorted(set(want) - set(got))}, "
                            f"extra {sorted(set(got) - set(want))}, units "
                            f"{[k for k in want if k in got and got[k] != want[k]]}")
        if trace == 0:
            shown = {k: v["unit"] for k, v in
                     {**record["metrics"], **record["also"]}.items()}
            for name, unit in {**REPORTED, **REPORTED_BY_WORKLOAD[workload]}.items():
                if shown.get(name) != unit:
                    problems.append(f"{where}: {name} [{unit}] not reported")
        else:
            for name in ACTIVE[workload]:
                if not result["metrics"][name]["value"] > 0:
                    problems.append(f"{where}: layer metric {name} is not measured")
            if not record["spans"]:
                problems.append(f"{where}: no spans recorded")
    return problems


def check_fault() -> list[str]:
    result, record = result_and_record("tables", 0, "--inject-fault")
    rounds = len(record["rounds"])
    if result["correct"] or result["failed"] != rounds \
            or result["attempted"] != 3 * rounds:
        return [f"injected fault: expected {rounds} failed of {3 * rounds}, "
                f"got {result['failed']} of {result['attempted']}"]
    return []


def check_bare_directory() -> list[str]:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns(
        "out", "__pycache__"))
    proc = run("tables", 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["bare directory: the benchmark ran without the program"]
    return []


def main() -> int:
    problems = []
    for workload in ("tables", "sweep", "audit"):
        problems += check_workload(workload)
    problems += check_fault()
    problems += check_bare_directory()
    for line in problems:
        print(f"FAIL {line}")
    print("self-test:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
