"""The benchmark's three workloads: ``tables``, ``sweep`` and ``audit``.

Each workload builds its inputs from the workload seed in ``setup`` and then
runs rounds.  A round is one closed-loop pass over the workload's
operations (one caller, each call after the previous one returns) and
checks every output as it goes.  An operation that raises or fails a check
is counted as failed; it never stops the run.

Every round of a run repeats the same inputs, and throughput is taken from
each operation's lower-quartile time over the rounds.  Load from elsewhere
on the machine only ever makes an operation slower, but it comes and goes
over seconds to minutes: the fastest repeat depends on whether a quiet
spell fell inside the run, while the lower quartile of many repeats of
small operations sits in the machine's usual state and repeats from run to
run.

Every call into ``erl`` sits inside a span named after the layer (module)
it belongs to, and only names exported from ``erl/__init__.py`` are used.
See README.md in this directory for why each workload exists and which
metric each layer should move.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from erl import (Bag, EpidemicConfig, EventLog, ResistanceTable,
                 audit_bottleneck, audit_recovery_bound, builtin_policy,
                 check_bellman, complete_extinction_mean, cut_table,
                 extinction_sweep, generate, monotone_resistance_table, replay,
                 resistance_table, scan_halving_window, simulate, sweep_to_csv,
                 validate_crusade, validate_log, verify_table_invariants,
                 width, witness_crusade)

from tracing import PolicyProbe

# Output digests recorded at the commit that defined the benchmark, keyed by
# input label.  Inputs without an entry are reported but not compared.
RECORDED = json.loads((Path(__file__).parent / "digests.json").read_text())

POLICIES = ("max_cut_drop", "resistance_greedy", "degree_proportional",
            "uniform", "random_node")

# A complete point's mean may sit this many standard errors from the exact
# value, the standard error being taken as exact mean / sqrt(replications).
# From full infection the infected count is a birth-death chain, whose time
# to absorption is a sum of independent exponentials (Keilson), so its
# standard deviation is at most its mean.  The worst case, one exponential,
# passes 5 such errors with probability below 5e-5 at the 33 or more
# replications each size is checked on, and the sample mean can never fall
# 5 below, so correct runs are not flagged on seeds the benchmark does not
# choose.
SWEEP_Z_LIMIT = 5.0
SWEEP_MAX_CENSORED = 0.10


def derive(seed: int, *labels) -> int:
    """63-bit child seed for one input of the workload seed."""
    digest = hashlib.sha256(repr((seed, *labels)).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def operator_round_bytes(n: int) -> int:
    """Computed bytes one value-iteration round touches, from array sizes.

    This models the operator as written when the benchmark was defined
    (uint16 tables of N = 2^n entries, an int64 mask array):
    max(cut, gamma) 6N; copy into the superset-min buffer 4N; n in-place
    superset-min passes at 3N each; copy of the result 4N; the int64 mask
    array 8N; per node, the masked index 16N, the gather 12N and the
    running minimum 6N; the round's minimum with gamma 6N and the
    convergence test 5N.  It is computed, not measured.
    """
    return (33 + 37 * n) << n


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def geometric_mean(values) -> float:
    values = list(values)
    return math.prod(values) ** (1 / len(values))


@dataclass
class Round:
    """What one round did, checked and timed."""

    index: int
    traced: bool
    seconds: float = 0.0
    ops: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    op_seconds: dict[str, float] = field(default_factory=dict)
    op_work: dict[str, float] = field(default_factory=dict)

    def attempt(self, label: str, op) -> None:
        """Run and time one operation; ``op`` returns its failed checks."""
        self.ops += 1
        start = perf_counter()
        try:
            problems = op()
        except Exception:  # a raising operation is a failed one; keep going
            problems = [traceback.format_exc(limit=3).strip()]
        self.op_seconds[label] = perf_counter() - start
        if problems:
            self.failed += 1
            self.failures.append(f"{label} (round {self.index}): "
                                 + "; ".join(problems))

    def check_digest(self, kind: str, label: str, digest: str) -> list[str]:
        self.digests[label] = digest
        want = RECORDED[kind].get(label)
        if want is not None and want != digest:
            return [f"output digest {digest[:16]} != recorded {want[:16]}"]
        return []


def quartile_seconds(rounds: list[Round]) -> dict[str, float]:
    """Each operation's lower-quartile time over the rounds that ran it
    (the fastest, when fewer than four rounds ran it)."""
    times = defaultdict(list)
    for rnd in rounds:
        for label, secs in rnd.op_seconds.items():
            times[label].append(secs)
    return {label: sorted(v)[len(v) // 4] for label, v in times.items()}


class Workload:
    """Defaults shared by the workloads."""

    def finish(self, tr) -> tuple[int, int, list[str]]:
        """Checks after the timed rounds: (operations attempted, failed,
        notes)."""
        return 0, 0, []

    def report(self, rounds: list[Round]) -> list[tuple]:
        """Extra end-to-end figures: (name, value, unit, samples)."""
        return []

    def derive_layers(self, values: dict[str, float]) -> None:
        """Add per-layer metrics computed from the measured ones."""


class Tables(Workload):
    """Exact lattice pipeline: ``erl verify --mode sampled`` plus
    ``erl resistance --witness all`` on three graphs (n = 20, 18, 16)."""

    name = "tables"
    work_unit = "bags (sum of 2^n) over the sum of per-graph lower-quartile times"
    GRAPHS = {
        "full": (("n20", "random_regular", (20, 3)),
                 ("n18", "random_regular", (18, 3)),
                 ("n16", "hypercube", (4,))),
        # self-test sizes; slot names stay so every metric still appears
        "tiny": (("n20", "random_regular", (10, 3)),
                 ("n18", "random_regular", (8, 3)),
                 ("n16", "hypercube", (3,))),
    }

    def __init__(self, seed: int, scale: str, inject_fault: bool = False):
        self.seed = seed
        self.specs = self.GRAPHS[scale]
        self.inject_fault = inject_fault
        self.graphs = []

    def setup(self, tr) -> None:
        for slot, kind, params in self.specs:
            label = f"{kind}:{','.join(map(str, params))}"
            gseed = 0
            if kind == "random_regular":
                gseed = derive(self.seed, "tables", slot)
                label += f"@{gseed}"
            with tr.span("graph.generate"):
                g = generate(kind, params, seed=gseed)
            self.graphs.append((slot, label, g, gseed))

    def run_round(self, index: int, tr) -> Round:
        rnd = Round(index, tr.enabled)
        start = perf_counter()
        for slot, label, g, gseed in self.graphs:
            rnd.op_work[label] = 1 << g.node_count
            rnd.attempt(label, lambda: self._pipeline(rnd, tr, slot, label, g, gseed))
        rnd.seconds = perf_counter() - start
        return rnd

    def _pipeline(self, rnd: Round, tr, slot, label, g, gseed) -> list[str]:
        with tr.span(f"graph.cut_table.{slot}"):
            cuts = cut_table(g)
        with tr.span(f"resistance.resistance_table.{slot}"):
            table = resistance_table(g)
        if self.inject_fault and slot == "n16":
            # the fault `erl verify --inject-fault` builds
            values = table.values.copy()
            values[-1] += 1
            table = ResistanceTable(g, values, table.converged_rounds)
        rnd.layer[f"resistance.rounds.{slot}"] = table.converged_rounds
        rnd.layer[f"resistance.bytes_per_round.{slot}"] = \
            operator_round_bytes(g.node_count)
        with tr.span(f"resistance.monotone_resistance_table.{slot}"):
            mono = monotone_resistance_table(g)
        with tr.span(f"resistance.check_bellman.{slot}"):
            bellman = check_bellman(g, table)
        with tr.span(f"resistance.witness_crusade.{slot}"):
            full = g.all_nodes()
            crusade = witness_crusade(g, table, full)
            gamma_full = table.gamma(full)
        with tr.span("crusade.validate_crusade"):
            valid = validate_crusade(crusade.bags, full, Bag())
        with tr.span("crusade.width"):
            w = width(g, crusade)
        with tr.span(f"analysis.verify_table_invariants.{slot}"):
            report = verify_table_invariants(g, table, mode="sampled", seed=gseed)
        with tr.span("resistance.dump_binary"):
            blob = table.dump_binary()

        problems = rnd.check_digest(self.name, label, sha256(blob))
        if table.cutwidth != mono.cutwidth:
            problems.append(f"cutwidth {table.cutwidth} != monotone "
                            f"{mono.cutwidth}")
        if not bellman.passed:
            problems.append(repr(bellman))
        if not valid.valid:
            problems.append(f"witness crusade invalid: {valid.reason}")
        if w != gamma_full:
            problems.append(f"witness width {w} != gamma(full) {gamma_full}")
        if w != max((int(cuts[b.mask]) for b in crusade.bags[1:]), default=0):
            problems.append("width disagrees with the cut table")
        if not report.ok:
            problems.append(f"invariant violations: {report.violations()[:3]}")
        return problems

    def throughput(self, rounds: list[Round]) -> float:
        quartile = quartile_seconds(rounds)
        return sum(rounds[0].op_work.values()) / sum(quartile.values())

    def report(self, rounds: list[Round]) -> list[tuple]:
        return [("bags_per_s", self.throughput(rounds), "bags/s", len(rounds))]


class Sweep(Workload):
    """``extinction_sweep`` on the two spec shapes of acceptance test 08,
    with fewer replications, split into calls of tens of milliseconds so
    that each call is timed on its own and repeated many times a run.  The
    complete points' means are checked after the timed rounds, on one more
    call per size with enough replications for the check to mean something."""

    name = "sweep"
    work_unit = "geometric mean over points of simulated time per second"
    # family -> (budget, {size: (replications per call, calls per round)});
    # each call has its own spec seed, the same in every round
    POINTS = {
        "full": {"complete": ({"per_node": 0.25}, {4: (10, 4), 5: (2, 6), 6: (1, 3)}),
                 "line": (4, {8: (50, 2), 16: (20, 2), 32: (10, 3)})},
        "tiny": {"complete": ({"per_node": 0.25}, {3: (4, 2), 4: (2, 2)}),
                 "line": (4, {4: (10, 1), 8: (10, 1)})},
    }
    # complete size -> replications of the untimed check call
    CHECK = {"full": {4: 200, 5: 60, 6: 30}, "tiny": {3: 20, 4: 10}}

    def __init__(self, seed: int, scale: str, inject_fault: bool = False):
        self.seed = seed
        self.points = self.POINTS[scale]
        self.check = self.CHECK[scale]
        # n -> [(r, completed, mean)] of the first round's complete calls
        self.complete: dict[int, list[tuple]] = defaultdict(list)

    def spec(self, family: str, sizes: list[int], reps: int, call) -> dict:
        budget, _ = self.points[family]
        return {"family": family, "sizes": sizes, "budget": budget,
                "policy": "max_cut_drop", "replications": reps,
                "seed": derive(self.seed, "sweep", family, sizes, call)}

    def setup(self, tr) -> None:
        for family, (_, reps) in self.points.items():
            for n in reps:
                with tr.span("graph.generate"):
                    generate(family, (n,))
            with tr.span("analysis.extinction_sweep.validate"):
                extinction_sweep(self.spec(family, list(reps), 0, 0))

    def run_round(self, index: int, tr) -> Round:
        rnd = Round(index, tr.enabled)
        start = perf_counter()
        records = []
        for family, (_, sizes) in self.points.items():
            for n, (count, calls) in sizes.items():
                for call in range(calls):
                    rnd.attempt(f"{family}:{n}#{call}", lambda: self._call(
                        rnd, tr, family, n, count, call, records))
        with tr.span("analysis.sweep_to_csv"):
            text = sweep_to_csv(records)
        rnd.digests["records"] = sha256(text.encode())
        rnd.seconds = perf_counter() - start
        return rnd

    def _call(self, rnd, tr, family, n, count, call, records) -> list[str]:
        """One call for one size, timed on its own."""
        with tr.span(f"analysis.extinction_sweep.{family}"):
            recs = extinction_sweep(self.spec(family, [n], count, call),
                                    threads=1)
        if len(recs) != 1 or recs[0].n != n:
            return [f"expected one record for n={n}, got {recs}"]
        rec = recs[0]
        records.append(rec)
        if rec.error is not None or rec.mean_tau is None:
            return [f"error {rec.error}, mean {rec.mean_tau}"]
        completed = rec.replications - rec.censored
        rnd.op_work[f"{family}:{n}#{call}"] = rec.mean_tau * completed
        if family == "line":
            return [f"{rec.censored} censored"] if rec.censored else []
        if rec.censored > SWEEP_MAX_CENSORED * rec.replications:
            return [f"{rec.censored} of {rec.replications} censored"]
        if rnd.index == 0 and not rnd.traced:
            self.complete[n].append((rec.r, completed, rec.mean_tau))
        return []

    def throughput(self, rounds: list[Round]) -> float:
        """Geometric mean over the points of simulated time per second, each
        call at its lower-quartile time.  Simulated time, unlike the replication count,
        is in proportion to the events a point costs, so the rate does not
        swing with how long the seed's extinctions happened to run."""
        work, seconds = defaultdict(float), defaultdict(float)
        for label, secs in quartile_seconds(rounds).items():
            point = label.split("#")[0]
            work[point] += rounds[0].op_work.get(label, 0.0)
            seconds[point] += secs
        return geometric_mean(work[p] / seconds[p] for p in seconds)

    def finish(self, tr) -> tuple[int, int, list[str]]:
        """One more call per complete size, pooled with the first round's
        calls of that size (every round repeats them), and the pooled mean
        compared with the exact birth-death value."""
        failed, notes = 0, []
        for n, reps in self.check.items():
            with tr.span("analysis.extinction_sweep.check"):
                recs = extinction_sweep(
                    self.spec("complete", [n], reps, "check"), threads=1)
            rec = recs[0]
            calls = self.complete[n]
            problems = []
            if rec.error is not None or rec.mean_tau is None:
                problems.append(f"error {rec.error}, mean {rec.mean_tau}")
            elif rec.censored > SWEEP_MAX_CENSORED * rec.replications:
                problems.append(f"{rec.censored} of {rec.replications} censored")
            else:
                calls = calls + [(rec.r, rec.replications - rec.censored,
                                  rec.mean_tau)]
            count = sum(k for _, k, _ in calls)
            mean = sum(k * m for _, k, m in calls) / count
            with tr.span("analysis.complete_extinction_mean"):
                exact = complete_extinction_mean(n, calls[0][0])
            z = (mean - exact) / (exact / math.sqrt(count))
            notes.append(f"complete:{n} mean {mean:.2f} over {count} "
                         f"replications, exact {exact:.2f}, z = {z:+.2f}")
            if abs(z) > SWEEP_Z_LIMIT:
                problems.append(f"|z| > {SWEEP_Z_LIMIT}")
            if problems:
                failed += 1
                notes.append(f"FAIL complete:{n}: " + "; ".join(problems))
        return len(self.check), failed, notes

    def report(self, rounds: list[Round]) -> list[tuple]:
        reps = sum(count * calls for _, sizes in self.points.values()
                   for count, calls in sizes.values()) * len(rounds)
        return [("reps_per_s", reps / sum(r.seconds for r in rounds),
                 "reps/s", len(rounds))]


class Audit(Workload):
    """Trajectories produced and consumed on n = 16 random regular graphs:
    five policies, each log validated, replayed, audited and sent through
    the REL1 format.  Several graphs, each with a few trajectories per
    policy, so that one graph's cost per event does not set the figure."""

    name = "audit"
    work_unit = ("geometric mean over policies of events simulated and "
                 "audited over the sum of per-trajectory lower-quartile times")
    SIZES = {
        "full": {"graph": ("random_regular", (16, 3)), "graphs": 4,
                 "budget": 8, "replications": 6},
        "tiny": {"graph": ("random_regular", (8, 3)), "graphs": 2,
                 "budget": 4, "replications": 2},
    }

    def __init__(self, seed: int, scale: str, inject_fault: bool = False):
        self.seed = seed
        self.sizes = self.SIZES[scale]
        self.inputs = []   # (graph, config, label) per graph

    def setup(self, tr) -> None:
        kind, params = self.sizes["graph"]
        for i in range(self.sizes["graphs"]):
            gseed = derive(self.seed, "audit", "graph", i)
            sim_seed = derive(self.seed, "audit", "simulate", i)
            with tr.span("graph.generate"):
                graph = generate(kind, params, seed=gseed)
            with tr.span("epidemic.EpidemicConfig"):
                config = EpidemicConfig(
                    graph=graph, initial_infected=graph.all_nodes(),
                    budget=Fraction(self.sizes["budget"]), seed=sim_seed,
                    max_events=10**6)
            label = (f"{kind}:{','.join(map(str, params))}@{gseed}"
                     f"/budget={self.sizes['budget']}/seed={sim_seed}"
                     f"/reps={self.sizes['replications']}")
            self.inputs.append((graph, config, label))

    def run_round(self, index: int, tr) -> Round:
        rnd = Round(index, tr.enabled)
        start = perf_counter()
        reps = self.sizes["replications"]
        layer = defaultdict(float)
        for i, (graph, config, label) in enumerate(self.inputs):
            with tr.span("resistance.resistance_table.n16"):
                table = resistance_table(graph)
            layer["resistance.rounds.n16"] += table.converged_rounds
            for kind in POLICIES:
                with tr.span("epidemic.builtin_policy"):
                    policy = (builtin_policy(kind, table=table)
                              if kind == "resistance_greedy"
                              else builtin_policy(kind))
                if tr.enabled:
                    policy = PolicyProbe(policy)
                log_hash = hashlib.sha256()
                failed_before = rnd.failed
                for j in range(reps):
                    rnd.attempt(f"{kind}@{i}#{j}", lambda: self._trajectory(
                        rnd, tr, graph, config, kind, policy, table,
                        f"{kind}@{i}#{j}", j, log_hash))
                wrong = rnd.check_digest(self.name, f"{label}/{kind}",
                                         log_hash.hexdigest())
                if wrong:
                    # the digest covers all of the policy's trajectories
                    rnd.failed = failed_before + reps
                    rnd.failures.append(f"{kind} on graph {i}: {wrong[0]}")
                layer[f"epidemic.events.{kind}"] += sum(
                    rnd.op_work.get(f"{kind}@{i}#{j}", 0) for j in range(reps))
                if tr.enabled:
                    layer[f"epidemic.allocate.{kind}_s"] += policy.busy
                    layer[f"epidemic.allocate.calls.{kind}"] += policy.calls
        rnd.layer.update(layer)
        rnd.layer["resistance.bytes_per_round.n16"] = operator_round_bytes(
            self.inputs[0][0].node_count)
        rnd.seconds = perf_counter() - start
        return rnd

    def _trajectory(self, rnd, tr, g, config, kind, policy, table, op, j,
                    log_hash) -> list[str]:
        with tr.span(f"epidemic.simulate.{kind}"):
            res = simulate(config, policy, replication=j)
        log = res.log
        problems = [] if res.extinct else [f"not extinct ({res.censored})"]
        with tr.span("epidemic.validate_log"):
            validate_log(log, g)
        with tr.span("epidemic.replay"):
            bags = [bag for _, bag in replay(log, g)]
        with tr.span("crusade.audit_bottleneck"):
            bottleneck = audit_bottleneck(g, bags)
        if not bottleneck.passed:
            problems.append(f"bottleneck audit: {bottleneck.reason}")
        if res.extinct:
            with tr.span("analysis.audit_recovery_bound"):
                audit_recovery_bound(g, table, log, 0.0, res.extinction_time)
            with tr.span("analysis.scan_halving_window"):
                scan_halving_window(g, table, log)
        with tr.span("epidemic.log_roundtrip"):
            blob = log.to_binary()
            back = EventLog.from_binary(blob)
            same = back == log
        if not same:
            problems.append("REL1 round trip changed the log")
        log_hash.update(blob)
        rnd.op_work[op] = len(log.events)
        return problems

    def throughput(self, rounds: list[Round]) -> float:
        """Geometric mean over the policies of events per second.  Policies
        differ fivefold in cost per event, so a plain events per second
        would move with the seed's mix of trajectory lengths."""
        work, seconds = defaultdict(float), defaultdict(float)
        for label, secs in quartile_seconds(rounds).items():
            kind = label.split("@")[0]
            work[kind] += rounds[0].op_work.get(label, 0)
            seconds[kind] += secs
        return geometric_mean(work[kind] / seconds[kind] for kind in POLICIES)

    def report(self, rounds: list[Round]) -> list[tuple]:
        times = sorted(t for r in rounds for t in r.op_seconds.values())
        p95 = times[min(len(times) - 1, math.ceil(0.95 * len(times)) - 1)]
        events = [sum(r.op_work.values()) / r.seconds for r in rounds]
        return [("events_per_s", statistics.median(events), "events/s", len(rounds)),
                ("trajectory_p50_ms", 1000 * statistics.median(times), "ms", len(times)),
                ("trajectory_p95_ms", 1000 * p95, "ms", len(times))]

    def derive_layers(self, values: dict[str, float]) -> None:
        for kind in POLICIES:
            sim = values.get(f"epidemic.simulate.{kind}_s", 0.0)
            values[f"epidemic.simulate_self.{kind}_s"] = \
                sim - values.get(f"epidemic.allocate.{kind}_s", 0.0)


WORKLOADS = {w.name: w for w in (Tables, Sweep, Audit)}
