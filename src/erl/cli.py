"""Command-line interface: resistance, cutwidth, simulate, verify, sweep.

Every subcommand is deterministic given its arguments; all randomness flows
from --seed.  File outputs get a sibling ``<out>.manifest.json`` recording
the exact invocation.  Exit codes: 0 success / no violations, 1 violations
found, 2 usage or capacity errors, 3 I/O errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .analysis import (audit_recovery_bound, extinction_sweep, make_policy,
                       mean_and_stderr, scan_halving_window, sweep_to_csv,
                       verify_table_invariants)
from .crusade import audit_bottleneck, crusade_to_json, validate_crusade, width
from .epidemic import EpidemicConfig, _extinction_times, replay, simulate
from .errors import (CapacityError, ErlError, GenerationError, GraphParseError,
                     LemmaViolationError)
from .graph import Bag, Graph, generate, parse_graph
from .resistance import cutwidth, resistance_table, witness_crusade


def _parse_gen(spec: str):
    if ":" in spec:
        kind, params = spec.split(":", 1)
        try:
            params = tuple(int(p) for p in params.split(","))
        except ValueError:
            raise GenerationError(f"bad generator parameters in {spec!r}")
    else:
        kind, params = spec, ()
    return kind, params


def _load_graph(args) -> Graph:
    if getattr(args, "gen", None):
        kind, params = _parse_gen(args.gen)
        return generate(kind, params, seed=getattr(args, "seed", 0))
    if getattr(args, "graph", None):
        with open(args.graph, "r", encoding="utf-8") as fh:
            return parse_graph(fh.read())
    raise ErlError("one of --graph or --gen is required")


def _parse_bag(spec: str, g: Graph) -> Bag:
    if spec == "all":
        return g.all_nodes()
    try:
        if spec.startswith("0x") or spec.startswith("0X"):
            bag = Bag.from_mask(int(spec, 16))
        else:
            bag = Bag(int(x) for x in spec.split(","))
    except ValueError:
        raise ErlError(f"bad bag {spec!r}: expected all, 0xMASK or an id list")
    g.check_bag(bag)
    return bag


def _parse_budget(spec: str) -> Fraction:
    try:
        return Fraction(spec)
    except (ValueError, ZeroDivisionError):
        raise ErlError(f"bad budget {spec!r}: expected a number")


def _write(path: str, data) -> None:
    mode = "wb" if isinstance(data, bytes) else "w"
    with open(path, mode) as fh:
        fh.write(data)


def _manifest(subcommand: str, argv: list[str], seed, outputs: list[str],
              started: float, threads: int = 1) -> None:
    if not outputs:
        return
    doc = {
        "subcommand": subcommand,
        "argv": argv,
        "seed": seed,
        "artifact_version": __version__,
        "outputs": outputs,
        "duration_seconds": time.time() - started,
        "threads": threads,
    }
    _write(outputs[0] + ".manifest.json",
           json.dumps(doc, sort_keys=True, indent=2) + "\n")


def cmd_resistance(args, argv) -> int:
    started = time.time()
    g = _load_graph(args)
    table = resistance_table(g)
    outputs = []
    if args.out:
        if args.out.endswith(".csv"):
            _write(args.out, table.to_csv())
        else:
            _write(args.out, table.dump_binary())
        outputs.append(args.out)
    if args.witness is not None:
        bag = _parse_bag(args.witness, g)
        crusade = witness_crusade(g, table, bag)
        check = validate_crusade(crusade.bags, bag, Bag())
        w = width(g, crusade)
        if not check.valid or w != table.gamma(bag):
            raise ErlError(f"witness reconstruction broke its contract "
                           f"(valid={check.valid}, width={w}, "
                           f"gamma={table.gamma(bag)})")
        doc = {"bag": list(bag.nodes()), "gamma": table.gamma(bag),
               "width": w, "crusade": json.loads(crusade_to_json(crusade))}
        print(json.dumps(doc, sort_keys=True))
    if not args.out and args.witness is None:
        print(f"n={g.node_count} cutwidth={table.cutwidth} "
              f"rounds={table.converged_rounds}")
    _manifest("resistance", argv, args.seed, outputs, started)
    return 0


def cmd_cutwidth(args, argv) -> int:
    g = _load_graph(args)
    w = cutwidth(g)  # raises unless the monotone DP's full-set entry is w
    print(w)
    print(f"monotone DP agrees: {w}", file=sys.stderr)
    return 0


def cmd_simulate(args, argv) -> int:
    started = time.time()
    if args.replications < 0:
        raise ErlError("--replications must be nonnegative, "
                       f"got {args.replications}")
    g = _load_graph(args)
    initial = _parse_bag(args.initial, g)
    budget = _parse_budget(args.budget)
    config = EpidemicConfig(
        graph=g, initial_infected=initial, budget=budget,
        infection_rate=args.infection_rate, horizon=args.horizon,
        seed=args.seed, max_events=args.max_events)
    policy = make_policy(args.policy, g)
    outputs = []
    if args.replications == 1:
        result = simulate(config, policy)
        doc = result.to_json_dict()
        if args.events_csv:
            _write(args.events_csv, result.log.to_csv())
            outputs.append(args.events_csv)
    else:
        outcomes = _extinction_times(config, policy, range(args.replications))
        taus = [tau for tau, _ in outcomes if tau is not None]
        mean, stderr = mean_and_stderr(taus)
        doc = {"replications": args.replications, "mean_tau": mean,
               "stderr": stderr, "censored": len(outcomes) - len(taus),
               "policy": policy.name, "budget": str(budget), "seed": args.seed}
    if args.out:
        _write(args.out, json.dumps(doc, sort_keys=True, indent=2) + "\n")
        outputs.insert(0, args.out)
    print(json.dumps(doc, sort_keys=True))
    _manifest("simulate", argv, args.seed, outputs, started, 1)
    return 0


def cmd_verify(args, argv) -> int:
    started = time.time()
    if args.trajectories < 0:
        raise ErlError("--trajectories must be nonnegative, "
                       f"got {args.trajectories}")
    g = _load_graph(args)
    table = resistance_table(g)
    if args.inject_fault:
        values = table.values.copy()
        values[-1] += 1
        table = type(table)(g, values, table.converged_rounds)
    report = verify_table_invariants(g, table, mode=args.mode,
                                     samples=args.samples, seed=args.seed)
    trajectory_failures = []
    audits = 0
    if args.trajectories:
        budget = _parse_budget(args.budget) if args.budget else Fraction(
            2 * g.degree_bound + 2)
        policy = make_policy(args.policy, g)
        config = EpidemicConfig(graph=g, initial_infected=g.all_nodes(),
                                budget=budget, seed=args.seed,
                                max_events=10**6)
        for j in range(args.trajectories):
            res = simulate(config, policy, replication=j)
            bags = [bag for _, bag in replay(res.log, g)]
            audit = audit_bottleneck(g, bags)
            audits += 1
            if not audit.passed:
                trajectory_failures.append(
                    {"replication": j, "kind": "bottleneck", "reason": audit.reason})
            if res.extinct and res.log.events:
                try:
                    audit_recovery_bound(g, table, res.log, 0.0,
                                         res.log.events[-1].time)
                    scan_halving_window(g, table, res.log)
                except LemmaViolationError as exc:
                    trajectory_failures.append(
                        {"replication": j, "kind": "trajectory", "reason": str(exc)})
    doc = report.to_json_dict()
    doc["trajectories_audited"] = audits
    doc["trajectory_failures"] = trajectory_failures
    ok = report.ok and not trajectory_failures
    doc["ok"] = ok
    outputs = []
    if args.out:
        _write(args.out, json.dumps(doc, sort_keys=True, indent=2) + "\n")
        outputs.append(args.out)
    if ok:
        print("ok: 0 violations")
    else:
        for v in report.violations():
            print(f"violation: {v}", file=sys.stderr)
        for v in trajectory_failures:
            print(f"violation: {v}", file=sys.stderr)
        total = len(report.violations()) + len(trajectory_failures)
        print(f"FAIL: {total} violations")
    _manifest("verify", argv, args.seed, outputs, started)
    return 0 if ok else 1


def cmd_sweep(args, argv) -> int:
    started = time.time()
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    records = extinction_sweep(spec, threads=args.threads)
    csv_text = sweep_to_csv(records)
    outputs = []
    if args.out:
        _write(args.out, csv_text)
        outputs.append(args.out)
    else:
        print(csv_text, end="")
    for rec in records:
        if rec.error:
            print(f"point n={rec.n} skipped: {rec.error}", file=sys.stderr)
        elif rec.lower_bound:
            print(f"point n={rec.n}: >50% censored, mean is a lower bound",
                  file=sys.stderr)
    _manifest("sweep", argv, spec.get("seed"), outputs, started, args.threads)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="erl",
        description="Resistance, CutWidth, SIS curing simulation, and audits")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_graph_flags(p):
        p.add_argument("--graph", help="graph file (edge list or JSON)")
        p.add_argument("--gen", help="generator, e.g. line:9 or random_regular:10,3")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("resistance", help="full resistance table")
    add_graph_flags(p)
    p.add_argument("--out", help=".csv for text, anything else for binary")
    p.add_argument("--witness", help="bag (all, 0xMASK, or id list) to certify")
    p.set_defaults(func=cmd_resistance)

    p = sub.add_parser("cutwidth", help="CutWidth of the graph")
    add_graph_flags(p)
    p.set_defaults(func=cmd_cutwidth)

    p = sub.add_parser("simulate", help="run the curing process")
    add_graph_flags(p)
    p.add_argument("--initial", default="all",
                   help="initially infected bag (all, 0xMASK, or id list)")
    p.add_argument("--budget", required=True, help="total curing rate budget")
    p.add_argument("--policy", default="max_cut_drop")
    p.add_argument("--replications", type=int, default=1)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--max-events", type=int, default=10**8, dest="max_events")
    p.add_argument("--infection-rate", type=float, default=1.0,
                   dest="infection_rate")
    p.add_argument("--out", help="result JSON path")
    p.add_argument("--events-csv", dest="events_csv",
                   help="event log CSV (single replication only)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the invariant and trajectory audits")
    add_graph_flags(p)
    p.add_argument("--mode", choices=["exhaustive", "sampled"],
                   default="exhaustive")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--trajectories", type=int, default=0)
    p.add_argument("--policy", default="max_cut_drop")
    p.add_argument("--budget", default=None)
    p.add_argument("--inject-fault", action="store_true", dest="inject_fault")
    p.add_argument("--out", help="report JSON path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="extinction-time sweep from a spec file")
    p.add_argument("--spec", required=True, help="sweep spec JSON")
    p.add_argument("--out", help="records CSV path")
    p.add_argument("--threads", type=int,
                   default=int(os.environ.get("ERL_THREADS", "1")))
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, argv)
    except (CapacityError, GenerationError, GraphParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LemmaViolationError as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ErlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
