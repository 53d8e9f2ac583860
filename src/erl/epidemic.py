"""Event-driven simulation of the budget-constrained SIS curing process.

Between events the state is constant, so a state-feedback policy's
allocation is too; the simulator therefore re-queries the policy exactly at
events and samples the next event from the total hazard (direct Gillespie
method).  Each healthy node's infection hazard is the infection rate times
its infected-neighbor count, so the total infection hazard equals the
infection rate times the cut of the infected set, which is maintained
incrementally and (in debug runs) re-derived from scratch at every event.

Budget feasibility is checked in exact rational arithmetic; only the event
sampling itself uses floating point.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ErlError, PolicyViolationError, ReplayError
from .graph import Bag, Graph, cut, mask_of, toggle_delta

INFECTION = "INFECTION"
RECOVERY = "RECOVERY"

HORIZON = "HORIZON"
MAX_EVENTS = "MAX_EVENTS"
STALLED = "STALLED"

LOG_MAGIC = b"REL1"
_EVENT = struct.Struct("<dBI")


class Event(NamedTuple):
    time: float
    kind: str
    node: int


def event_streams(seed: int, replication: int = 0):
    """Two independent Philox streams (events, policy) for one run.

    Replication j of a sweep derives its streams from (seed, j), so
    replications are independent and individually reproducible.
    """
    root = np.random.SeedSequence(entropy=seed, spawn_key=(replication,))
    ev_ss, pol_ss = root.spawn(2)
    return (np.random.Generator(np.random.Philox(ev_ss)),
            np.random.Generator(np.random.Philox(pol_ss)))


def derive_seed(master_seed: int, index: int) -> int:
    """Stable 64-bit child seed for sweep point ``index``."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class EpidemicConfig:
    graph: Graph
    initial_infected: Bag
    budget: Fraction
    infection_rate: float = 1.0
    horizon: float | None = None
    seed: int = 0
    max_events: int = 10**8

    def __post_init__(self):
        object.__setattr__(self, "budget", Fraction(self.budget))
        self.graph.check_bag(self.initial_infected)
        if self.budget < 0:
            raise ErlError("budget must be nonnegative")
        if self.infection_rate <= 0:
            raise ErlError("infection rate must be positive")
        if self.horizon is not None and self.horizon <= 0:
            raise ErlError("horizon must be positive")


@dataclass(frozen=True)
class EventLog:
    initial_infected: Bag
    events: tuple[Event, ...]
    final: Bag

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("time,kind,node\n")
        for ev in self.events:
            out.write(f"{ev.time!r},{ev.kind},{ev.node}\n")
        return out.getvalue()

    @classmethod
    def from_csv(cls, text: str, initial_infected: Bag) -> "EventLog":
        events = []
        mask = initial_infected.mask
        lines = text.splitlines()
        if not lines or lines[0].strip() != "time,kind,node":
            raise ErlError("event CSV must start with 'time,kind,node'")
        for line in lines[1:]:
            if not line.strip():
                continue
            fields = line.split(",")
            if len(fields) != 3:
                raise ErlError(f"event line {line!r} needs 3 fields")
            time_s, kind, node_s = fields
            if kind not in (INFECTION, RECOVERY):
                raise ErlError(f"unknown event kind {kind!r}")
            try:
                time, node = float(time_s), int(node_s)
            except ValueError:
                raise ErlError(f"bad number in event line {line!r}")
            if node < 0:
                raise ErlError(f"negative node id in event line {line!r}")
            events.append(Event(time, kind, node))
            if kind == INFECTION:
                mask |= 1 << node
            else:
                mask &= ~(1 << node)
        return cls(initial_infected, tuple(events), Bag.from_mask(mask))

    def to_binary(self) -> bytes:
        out = [LOG_MAGIC]
        for bag in (self.initial_infected, self.final):
            nodes = bag.nodes()
            out.append(struct.pack("<I", len(nodes)))
            out.append(struct.pack(f"<{len(nodes)}I", *nodes))
        out.append(struct.pack("<Q", len(self.events)))
        for ev in self.events:
            out.append(_EVENT.pack(ev.time, 0 if ev.kind == INFECTION else 1,
                                   ev.node))
        return b"".join(out)

    @classmethod
    def from_binary(cls, data: bytes) -> "EventLog":
        if data[:4] != LOG_MAGIC:
            raise ErlError("bad magic bytes in event log")
        off = 4
        bags = []
        try:
            for _ in range(2):
                (k,) = struct.unpack_from("<I", data, off)
                off += 4
                bags.append(Bag(struct.unpack_from(f"<{k}I", data, off)))
                off += 4 * k
            (count,) = struct.unpack_from("<Q", data, off)
            off += 8
        except struct.error:
            raise ErlError("event log ends inside its header")
        if len(data) - off != count * _EVENT.size:
            raise ErlError(f"event log declares {count} events but holds "
                           f"{len(data) - off} bytes of them")
        events = []
        for t, kind, node in _EVENT.iter_unpack(data[off:]):
            if kind > 1:
                raise ErlError(f"unknown event kind byte {kind}")
            events.append(Event(t, INFECTION if kind == 0 else RECOVERY, node))
        return cls(bags[0], tuple(events), bags[1])

    def recovery_count(self) -> int:
        return sum(1 for ev in self.events if ev.kind == RECOVERY)

    def infection_count(self) -> int:
        return sum(1 for ev in self.events if ev.kind == INFECTION)


@dataclass(frozen=True)
class SimulationResult:
    extinction_time: float | None
    censored: str | None
    log: EventLog
    infection_count: int
    recovery_count: int

    @property
    def extinct(self) -> bool:
        return self.extinction_time is not None

    def to_json_dict(self) -> dict:
        return {
            "extinction_time": self.extinction_time,
            "censored": self.censored,
            "infection_count": self.infection_count,
            "recovery_count": self.recovery_count,
            "initial": list(self.log.initial_infected.nodes()),
            "final": list(self.log.final.nodes()),
            "events": len(self.log.events),
        }


class Policy:
    """Maps the observable history to a curing-rate allocation.

    ``allocate`` returns a map node -> nonnegative Fraction whose sum must
    not exceed the budget and whose support must lie inside the infected
    set.  ``rng`` is a dedicated stream owned by the run, separate from the
    event stream, so randomized policies stay reproducible.  ``history`` is
    the live event list and must not be mutated.
    """

    name = "abstract"

    def allocate(self, graph: Graph, infected: set[int], elapsed: float,
                 history: Sequence[Event], budget: Fraction,
                 rng: np.random.Generator) -> dict[int, Fraction]:
        raise NotImplementedError


class MaxCutDropPolicy(Policy):
    """All budget on the infected node whose removal leaves the smallest cut;
    ties go to the smaller node id."""

    name = "max_cut_drop"

    def allocate(self, graph, infected, elapsed, history, budget, rng):
        mask = mask_of(infected)
        best = min(infected, key=lambda v: (toggle_delta(graph, mask, v), v))
        return {best: budget}


class ResistanceGreedyPolicy(Policy):
    """All budget on the infected node whose removal leaves the smallest
    resistance; ties by smaller resulting cut, then smaller id.

    Heuristic baseline only; carries no optimality claim.
    """

    name = "resistance_greedy"

    def __init__(self, table):
        self.table = table

    def allocate(self, graph, infected, elapsed, history, budget, rng):
        mask = mask_of(infected)

        def key(v):
            return (self.table.gamma(mask & ~(1 << v)),
                    toggle_delta(graph, mask, v), v)

        return {min(infected, key=key): budget}


class DegreeProportionalPolicy(Policy):
    """Rates proportional to degree over infected nodes, summing exactly to
    the budget; falls back to a uniform split when all degrees are zero."""

    name = "degree_proportional"

    def allocate(self, graph, infected, elapsed, history, budget, rng):
        nodes = sorted(infected)
        total = sum(graph.degree(v) for v in nodes)
        if total == 0:
            share = budget / len(nodes)
            return {v: share for v in nodes}
        return {v: budget * graph.degree(v) / total for v in nodes}


class UniformPolicy(Policy):
    name = "uniform"

    def allocate(self, graph, infected, elapsed, history, budget, rng):
        share = budget / len(infected)
        return {v: share for v in sorted(infected)}


class RandomNodePolicy(Policy):
    """All budget on a uniformly random infected node (policy RNG stream)."""

    name = "random_node"

    def allocate(self, graph, infected, elapsed, history, budget, rng):
        nodes = sorted(infected)
        return {nodes[int(rng.integers(len(nodes)))]: budget}


_POLICY_KINDS = {
    "max_cut_drop": MaxCutDropPolicy,
    "resistance_greedy": ResistanceGreedyPolicy,
    "degree_proportional": DegreeProportionalPolicy,
    "uniform": UniformPolicy,
    "random_node": RandomNodePolicy,
}


def builtin_policy(kind: str, **params) -> Policy:
    if kind not in _POLICY_KINDS:
        raise ErlError(f"unknown policy kind {kind!r}; "
                       f"choose from {sorted(_POLICY_KINDS)}")
    return _POLICY_KINDS[kind](**params)


def _validate_allocation(alloc: dict[int, Fraction], infected: set[int],
                         budget: Fraction, policy_name: str) -> Fraction:
    total = Fraction(0)
    for v, rate in alloc.items():
        if v not in infected:
            raise PolicyViolationError(policy_name,
                                       f"allocated to non-infected node {v}")
        if rate < 0:
            raise PolicyViolationError(policy_name, f"negative rate at node {v}")
        total += rate
    if total > budget:
        raise PolicyViolationError(policy_name,
                                   f"total rate {total} exceeds budget {budget}")
    return total


def simulate(config: EpidemicConfig, policy: Policy, replication: int = 0,
             debug: bool = False) -> SimulationResult:
    """Run one trajectory to extinction, horizon, or the event cap.

    Identical (config, policy, replication) produce a bit-identical event
    log.  ``debug`` re-derives the cached infection hazard from scratch at
    every event and asserts agreement (exact integer comparison).
    """
    g = config.graph
    n = g.node_count
    ev_rng, pol_rng = event_streams(config.seed, replication)
    beta = float(config.infection_rate)
    budget = config.budget

    infected: set[int] = set(config.initial_infected)
    inf_nbrs = [0] * n
    for v in infected:
        for u in g.adjacency[v]:
            inf_nbrs[u] += 1
    cut_now = sum(inf_nbrs[u] for u in range(n) if u not in infected)

    events: list[Event] = []
    t = 0.0
    extinction_time: float | None = None
    censored: str | None = None

    while True:
        if not infected:
            extinction_time = t
            break
        if len(events) >= config.max_events:
            censored = MAX_EVENTS
            break
        alloc = policy.allocate(g, infected, t, events, budget, pol_rng)
        rho_total = _validate_allocation(alloc, infected, budget, policy.name)
        infection_hazard = beta * cut_now
        total = infection_hazard + float(rho_total)
        if total == 0.0:
            censored = STALLED
            break
        dt = ev_rng.exponential(1.0 / total)
        if config.horizon is not None and t + dt > config.horizon:
            censored = HORIZON
            break
        t += dt
        if ev_rng.random() * total < infection_hazard:
            k = int(ev_rng.integers(cut_now))
            node = -1
            for u in range(n):
                if u not in infected and inf_nbrs[u] > 0:
                    k -= inf_nbrs[u]
                    if k < 0:
                        node = u
                        break
            if node < 0:
                raise ErlError("hazard bookkeeping drifted: cached cut "
                               f"{cut_now} exceeds boundary weight")
            infected.add(node)
            for w in g.adjacency[node]:
                inf_nbrs[w] += 1
            cut_now += g.degree(node) - 2 * inf_nbrs[node]
            events.append(Event(t, INFECTION, node))
        else:
            u = ev_rng.random() * float(rho_total)
            acc = 0.0
            items = sorted(alloc.items())
            node = items[-1][0]
            for v, rate in items:
                acc += float(rate)
                if u < acc:
                    node = v
                    break
            infected.discard(node)
            for w in g.adjacency[node]:
                inf_nbrs[w] -= 1
            cut_now += 2 * inf_nbrs[node] - g.degree(node)
            events.append(Event(t, RECOVERY, node))
        if debug:
            fresh = cut(g, Bag(infected))
            if fresh != cut_now:
                raise ErlError(
                    f"hazard bookkeeping drifted: cached cut {cut_now}, "
                    f"recomputed {fresh} after event {len(events) - 1}")

    log = EventLog(config.initial_infected, tuple(events), Bag(infected))
    return SimulationResult(
        extinction_time=extinction_time,
        censored=censored,
        log=log,
        infection_count=log.infection_count(),
        recovery_count=log.recovery_count(),
    )


def replay(log: EventLog, g: Graph) -> Iterator[tuple[float, Bag]]:
    """Reconstruct the piecewise-constant trajectory from an event log.

    Yields (time, bag) starting with the initial state at time 0; each
    event flips exactly one node, so the bag sequence is unit-step.  Raises
    ReplayError with the offending event index on any inconsistency.
    """
    g.check_bag(log.initial_infected)
    mask = log.initial_infected.mask
    yield (0.0, Bag.from_mask(mask))
    prev_t = 0.0
    for i, ev in enumerate(log.events):
        if ev.time <= prev_t:
            raise ReplayError(f"time {ev.time} not after {prev_t}", i)
        prev_t = ev.time
        if not 0 <= ev.node < g.node_count:
            raise ReplayError(f"node {ev.node} out of range", i)
        bit = 1 << ev.node
        if ev.kind == INFECTION:
            if mask & bit:
                raise ReplayError(f"infection of already-infected node {ev.node}", i)
            if not any((mask >> u) & 1 for u in g.adjacency[ev.node]):
                raise ReplayError(
                    f"infection of node {ev.node} with no infected neighbor", i)
            mask |= bit
        elif ev.kind == RECOVERY:
            if not mask & bit:
                raise ReplayError(f"recovery of healthy node {ev.node}", i)
            mask &= ~bit
        else:
            raise ReplayError(f"unknown event kind {ev.kind!r}", i)
        yield (ev.time, Bag.from_mask(mask))
    if mask != log.final.mask:
        raise ReplayError(
            f"final state {Bag.from_mask(mask)!r} does not match recorded "
            f"{log.final!r}", len(log.events))


def validate_log(log: EventLog, g: Graph) -> None:
    """Run every consistency check; raises ReplayError on the first failure."""
    for _ in replay(log, g):
        pass
