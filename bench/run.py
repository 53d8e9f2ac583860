"""Run one benchmark workload, check its outputs and print its metrics.

    python3 bench/run.py --workload tables --seed 0 --seconds 30 --trace 0

Run it from the root of a plain checkout: ``erl`` is imported from the
``src`` directory beside this one, and nothing needs installing.  The run
sets up once, then repeats rounds of the workload until ``--seconds`` have
passed (at least one round).  ``--trace 0`` reports the end-to-end metrics
named in BENCHMARK.json; ``--trace 1`` alternates untraced and traced rounds
on the same inputs and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full run record (machine,
samples, digests, failures and, when traced, the spans) is written to
``bench/out/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import NO_TRACE, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("tables", "sweep", "audit")
SETUP_SAMPLES = 7   # fresh processes whose median set-up time is setup_s


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measure whole rounds until this many seconds pass")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny inputs are for the self-test only")
    p.add_argument("--inject-fault", action="store_true", dest="inject_fault",
                   help="tables: corrupt the n16 table as `erl verify "
                        "--inject-fault` does")
    p.add_argument("--setup-probe", action="store_true", dest="setup_probe",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_record() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    caches = {}   # data and unified caches of cpu0, as the kernel reports them
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "type").read_text().strip() != "Instruction":
                level = (index / "level").read_text().strip()
                caches[f"l{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass

    return {"commit": git_commit(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "l2": caches.get("l2", "unknown"),
            "l3": caches.get("l3", "unknown"),
            "python": platform.python_version(), "numpy": numpy.__version__}


def setup_samples(args) -> list[float]:
    """Set-up time of fresh processes, each from `import erl` to ready."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--scale", args.scale],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def run_rounds(wl, tracer, args) -> list:
    """Whole rounds until --seconds pass; traced runs pair each untraced
    round with a traced one on the same inputs."""
    rounds = []
    clock = perf_counter()
    index = 0
    while True:
        rounds.append(wl.run_round(index, NO_TRACE))
        if tracer.enabled:
            tracer.round = index
            rounds.append(wl.run_round(index, tracer))
            tracer.round = None
        index += 1
        if perf_counter() - clock >= args.seconds:
            return rounds


def check_repeats(rounds) -> None:
    """Every round runs the same inputs, traced or not, so every round must
    give the first round's output."""
    for rnd in rounds[1:]:
        if rnd.digests != rounds[0].digests:
            rnd.failed = rnd.ops
            rnd.failures.append(
                f"round {rnd.index} ({'traced' if rnd.traced else 'untraced'}): "
                "output digests differ from an earlier round on the same inputs")


def layer_metrics(wl, tracer, rounds, names) -> dict[str, tuple[float, int]]:
    """Per-layer values: the median over traced rounds (set-up spans for
    layers that only work during set-up); 0 for layers this workload
    leaves idle."""
    traced = [r for r in rounds if r.traced]
    per_round = []
    for rnd in traced:
        values = {f"{n}_s": secs for n, secs in tracer.busy(rnd.index).items()}
        values.update(rnd.layer)
        wl.derive_layers(values)
        per_round.append(values)
    during_setup = {f"{n}_s": secs for n, secs in tracer.busy(None).items()}
    plain_s = sum(r.seconds for r in rounds if not r.traced)
    out = {}
    for name in names:
        if name == "trace.overhead_ratio":
            out[name] = (sum(r.seconds for r in traced) / plain_s - 1, len(traced))
        elif any(name in v for v in per_round):
            out[name] = (statistics.median(v.get(name, 0.0) for v in per_round),
                         len(per_round))
        else:
            out[name] = (during_setup.get(name, 0.0), 1)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    started = perf_counter()
    try:
        import erl
        import workloads
    except ImportError as exc:
        print(f"error: cannot import erl from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(erl.__file__).resolve().is_relative_to(SRC):
        print(f"error: erl was imported from {erl.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, args.scale,
                                             args.inject_fault)
    tracer = Tracer() if args.trace else NO_TRACE
    wl.setup(tracer)
    setup_here = perf_counter() - started
    if args.setup_probe:
        print(repr(setup_here))
        return 0

    rounds = run_rounds(wl, tracer, args)
    extra_attempted, extra_failed, notes = wl.finish(tracer)
    check_repeats(rounds)
    attempted = sum(r.ops for r in rounds) + extra_attempted
    failed = min(attempted, sum(r.failed for r in rounds) + extra_failed)
    plain = [r for r in rounds if not r.traced]

    # name -> (value, unit, samples, description)
    shown: dict[str, tuple] = {}
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, (value, n) in layer_metrics(wl, tracer, rounds, names).items():
            shown[name] = (value, units[name], n, "")
    else:
        setups = setup_samples(args)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        shown["throughput"] = (wl.throughput(plain), units["throughput"],
                               len(plain), wl.work_unit)
        shown["peak_rss_mb"] = (rss_mb, units["peak_rss_mb"], 1,
                                "ru_maxrss of this process")
        shown["setup_s"] = (statistics.median(setups), units["setup_s"],
                            len(setups), "fresh processes, import erl to ready")
    # figures beside the contract metrics, printed and recorded only
    extra = {"wall_s": (statistics.median(r.seconds for r in plain), "s",
                        len(plain), "one round"),
             "fail_ratio": (failed / attempted, "ratio", attempted, "")}
    for name, value, unit, n in wl.report(plain):
        extra[name] = (value, unit, n, "")
    extra["setup_main_s"] = (setup_here, "s", 1, "this process")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "machine": machine_record(),
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n, _) in shown.items()},
        "also": {k: {"value": v, "unit": u, "samples": n}
                 for k, (v, u, n, _) in extra.items()},
        "rounds": [{"index": r.index, "traced": r.traced, "seconds": r.seconds,
                    "ops": r.ops, "failed": r.failed, "op_seconds": r.op_seconds}
                   for r in rounds],
        "digests": rounds[0].digests,
        "failures": [f for r in rounds for f in r.failures],
        "notes": notes,
        "spans": tracer.to_json() if args.trace else [],
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    m = record["machine"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(rounds)} commit={m['commit'][:12]} nproc={m['nproc']} "
          f"cpu={m['cpu_model']!r} l2={m['l2']} l3={m['l3']} "
          f"python={m['python']} numpy={m['numpy']}")
    for name, (value, unit, n, what) in {**shown, **extra}.items():
        print(f"  {name:44s} {value:14.6g} {unit:8s} n={n} {what}")
    for label, digest in record["digests"].items():
        print(f"  digest {label} {digest}")
    for line in notes + record["failures"][:20]:
        print(f"  {line}")
    print(f"# record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _, _) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
