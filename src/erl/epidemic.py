"""Event-driven simulation of the budget-constrained SIS curing process.

Between events the state is constant, so a state-feedback policy's
allocation is too; the simulator samples the next event from the total
hazard (direct Gillespie method).  A policy's ``allocate`` must be a
function of its arguments (graph, infected mask, budget, policy stream):
each allocation is Fraction-validated when computed and then reused at every
later visit to the same bag within the run (within all replications of a
sweep point, for sweeps), unless the call that produced it touched the
policy stream, in which case the policy is queried again at each visit.
The memo holds one value per bag, the table its simulator draws from.
Each healthy node's infection hazard is the infection rate times its
infected-neighbor count, so the total infection hazard equals the infection
rate times the cut of the infected set.  Every neighbour count in the
package is a popcount of ``Graph.neighbor_masks`` against the infected
mask; ``simulate`` keeps only that mask and its cut, updates the cut by one
``toggle_delta`` per event and (in debug runs) re-derives it from scratch
at every event.

``simulate`` records each event's time, kind and node as the three
columns of its event log, and is the reference.  Sweeps run the
τ-only engine ``_extinction_times``, which follows the same law with
different draws from the same seed; ``graph._seeds`` lists every stream.

Budget feasibility is checked in exact rational arithmetic; only the event
sampling itself uses floating point.
"""

from __future__ import annotations

import io
import struct
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate
from math import inf, lcm
from numbers import Rational, Real
from operator import index
from sys import float_info
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import ErlError, PolicyViolationError, ReplayError
from .graph import (GENERATE_CAP, Bag, Graph, _check_seed, _CounterRange,
                    _is_int, _seeds, _stream, cut, mask_array, members,
                    toggle_delta)

INFECTION = "INFECTION"
RECOVERY = "RECOVERY"

HORIZON = "HORIZON"
MAX_EVENTS = "MAX_EVENTS"
STALLED = "STALLED"

LOG_MAGIC = b"REL1"
# Bound on an allocation memo in entries times nodes (an entry holds a few
# tables of at most 2n + 1 items each); the memo is emptied when it reaches
# the bound, which changes no output.
_MEMO_CELLS = 1 << 20
# One REL1 event: little-endian float64 time, kind byte (0 infection,
# 1 recovery) and uint32 node, 13 bytes with no padding.
_EVENT = np.dtype([("time", "<f8"), ("kind", "u1"), ("node", "<u4")])
_KINDS = (INFECTION, RECOVERY)
_NODE_MAX = int(np.iinfo(_EVENT["node"]).max)


def _node_id_error(top: int, where: str) -> ErlError:
    return ErlError(f"node id {top} in {where} is above the largest id "
                    f"{GENERATE_CAP - 1} a graph can have")


class Event(NamedTuple):
    time: float
    kind: str
    node: int


def event_streams(seed: int, replication: int = 0):
    """Two independent Philox streams (events, policy) for one ``simulate``
    run, on the keys ``graph._seeds`` lists for it."""
    return _stream(seed, replication, 0), _stream(seed, replication, 1)


def derive_seed(master_seed: int, index: int) -> int:
    """Stable 64-bit child seed for sweep point ``index``."""
    return int(_seeds(master_seed, index).generate_state(1, np.uint64)[0])


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
        # NaN and the infinities have no Fraction
        if self.budget != self.budget or self.budget in (inf, -inf):
            raise ErlError(f"budget must be finite, got {self.budget!r}")
        try:
            budget = Fraction(self.budget)
        except (TypeError, ValueError):
            raise ErlError("budget must be a real number, "
                           f"got {self.budget!r}") from None
        object.__setattr__(self, "budget", budget)
        self.graph.check_bag(self.initial_infected)
        if self.budget < 0:
            raise ErlError("budget must be nonnegative")
        # rates are drawn as floats, which a larger budget overflows
        if self.budget > float_info.max:
            raise ErlError(f"budget must be at most {float_info.max!r}, "
                           "the largest float")
        # the event and policy streams are seeded from it
        _check_seed(self.seed)
        # written so that NaN fails each test
        if not (isinstance(self.infection_rate, Real)
                and 0 < self.infection_rate <= float_info.max):
            raise ErlError("infection rate must be a positive finite float")
        if self.horizon is not None and not (isinstance(self.horizon, Real)
                                             and self.horizon > 0):
            raise ErlError("horizon must be a positive real number, "
                           f"got {self.horizon!r}")
        if not _is_int(self.max_events):
            raise ErlError(f"max_events must be an int, got {self.max_events!r}")
        if self.max_events < 1:
            raise ErlError("max_events must be at least 1, "
                           f"got {self.max_events}")


@dataclass(frozen=True)
class EventLog:
    """One run's events as three columns: time, kind and node of each."""

    initial_infected: Bag
    times: tuple[float, ...]
    kinds: tuple[str, ...]
    nodes: tuple[int, ...]
    final: Bag

    def __eq__(self, other) -> bool:
        """Every field compares as a tuple, except that where the time
        tuples differ, a time also equals one with the same float64 bit
        pattern: a log with a NaN time equals its REL1 round trip, 0.0 and
        -0.0 equal each other, as ``==`` has it, and NaNs of different
        bits differ."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        if (self.initial_infected, self.kinds, self.nodes, self.final) != \
                (other.initial_infected, other.kinds, other.nodes, other.final):
            return False
        if self.times == other.times:
            return True
        if len(self.times) != len(other.times):
            return False
        a = np.array(self.times, dtype=np.float64)
        b = np.array(other.times, dtype=np.float64)
        return bool(np.all((a == b) | (a.view(np.uint64) == b.view(np.uint64))))

    def __hash__(self) -> int:
        # without the times, which == may equate where their hashes differ
        return hash((self.initial_infected, self.kinds, self.nodes, self.final))

    @property
    def events(self) -> tuple[Event, ...]:
        """The events as rows, built at each read."""
        return tuple(map(Event, self.times, self.kinds, self.nodes))

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("time,kind,node\n")
        for t, kind, node in zip(self.times, self.kinds, self.nodes):
            out.write(f"{t!r},{kind},{node}\n")
        return out.getvalue()

    @classmethod
    def from_csv(cls, text: str, initial_infected: Bag) -> "EventLog":
        times, kinds, nodes = [], [], []
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
            if kind not in _KINDS:
                raise ErlError(f"unknown event kind {kind!r}")
            try:
                time, node = float(time_s), int(node_s)
            except ValueError:
                raise ErlError(f"bad number in event line {line!r}")
            if not 0 <= node < GENERATE_CAP:
                raise ErlError(f"node id out of range 0..{GENERATE_CAP - 1} "
                               f"in event line {line!r}")
            times.append(time)
            kinds.append(kind)
            nodes.append(node)
            if kind == INFECTION:
                mask |= 1 << node
            else:
                mask &= ~(1 << node)
        return cls(initial_infected, tuple(times), tuple(kinds), tuple(nodes),
                   Bag.from_mask(mask))

    def to_binary(self) -> bytes:
        out = [LOG_MAGIC]
        for bag in (self.initial_infected, self.final):
            nodes = bag.nodes()
            out.append(struct.pack("<I", len(nodes)))
            out.append(struct.pack(f"<{len(nodes)}I", *nodes))
        out.append(struct.pack("<Q", len(self.times)))
        body = np.empty(len(self.times), dtype=_EVENT)
        body["time"] = self.times
        body["kind"] = [kind != INFECTION for kind in self.kinds]
        # one range check over the array, whatever numpy dtype it takes:
        # a numpy id out of range would be cast to uint32 without error
        nodes = np.array(self.nodes)
        if nodes.size and not (0 <= nodes.min() and nodes.max() <= _NODE_MAX):
            top = next(v for v in self.nodes if not 0 <= v <= _NODE_MAX)
            raise ErlError(f"node id {top} in an event is outside "
                           f"0..{_NODE_MAX}, the ids REL1 can hold")
        body["node"] = nodes
        out.append(body.tobytes())
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
                nodes = struct.unpack_from(f"<{k}I", data, off)
                # refused before Bag turns an id into a bit of its mask
                if nodes and max(nodes) >= GENERATE_CAP:
                    raise _node_id_error(max(nodes), "the log header")
                bags.append(Bag(nodes))
                off += 4 * k
            (count,) = struct.unpack_from("<Q", data, off)
            off += 8
        except struct.error:
            raise ErlError("event log ends inside its header")
        if len(data) - off != count * _EVENT.itemsize:
            raise ErlError(f"event log declares {count} events but holds "
                           f"{len(data) - off} bytes of them")
        body = np.frombuffer(data, dtype=_EVENT, offset=off)
        bad = np.flatnonzero(body["kind"] > 1)
        if bad.size:
            raise ErlError(f"unknown event kind byte {body['kind'][bad[0]]}")
        top = int(body["node"].max(initial=0))
        if top >= GENERATE_CAP:
            raise _node_id_error(top, "an event")
        return cls(bags[0], tuple(body["time"].tolist()),
                   tuple(map(_KINDS.__getitem__, body["kind"].tolist())),
                   tuple(body["node"].tolist()), bags[1])


@dataclass(frozen=True)
class SimulationResult:
    extinction_time: float | None
    censored: str | None
    log: EventLog

    @property
    def extinct(self) -> bool:
        return self.extinction_time is not None

    def to_json_dict(self) -> dict:
        log = self.log
        recoveries = log.kinds.count(RECOVERY)
        return {
            "extinction_time": self.extinction_time,
            "censored": self.censored,
            "infection_count": len(log.kinds) - recoveries,
            "recovery_count": recoveries,
            "initial": list(log.initial_infected.nodes()),
            "final": list(log.final.nodes()),
            "events": len(log.kinds),
        }


class Policy:
    """Maps the infected set to a curing-rate allocation.

    ``allocate`` receives the infected set as a bitmask (bit v set = node v
    infected) and returns a map node -> nonnegative rational (int or
    Fraction) whose sum must not exceed the budget and whose support must
    lie inside the infected set.  ``rng`` is a dedicated stream owned by the
    run, separate from the event stream, so randomized policies stay
    reproducible; it is a stand-in that forwards every attribute to that
    stream.

    ``allocate`` must be a function of its arguments: ``simulate`` computes
    an allocation once per bag and reuses it at every later visit to that
    bag in the run, unless the call that produced it touched ``rng`` (read
    any attribute of it, whether or not that drew).  A sweep shares that
    memo across all replications of one sweep point (one memo per worker
    process when pooled), so an allocation that did not touch ``rng`` is
    reused by every later replication too; only at a bag with no
    transition, which ends the run, is it asked again by each replication.
    """

    name = "abstract"

    def allocate(self, graph: Graph, infected: int, budget: Fraction,
                 rng: np.random.Generator) -> dict[int, Fraction]:
        raise NotImplementedError


def _removal_deltas(graph: Graph,
                    infected: int) -> tuple[list[int], list[int]]:
    """The members v of A = ``infected`` in ascending order, and for each
    cut(A - v) - cut(A): v's edges into A - v join the cut and its edges
    out of A leave it."""
    masks, adjacency = graph.neighbor_masks, graph.adjacency
    nodes = members(infected)
    return nodes, [2 * (masks[v] & infected).bit_count() - len(adjacency[v])
                   for v in nodes]


class MaxCutDropPolicy(Policy):
    """All budget on the infected node whose removal leaves the smallest cut;
    ties go to the smaller node id."""

    name = "max_cut_drop"

    def allocate(self, graph, infected, budget, rng):
        nodes, deltas = _removal_deltas(graph, infected)
        # index finds the first of equal minima, the smallest id
        return {nodes[deltas.index(min(deltas))]: budget}


class ResistanceGreedyPolicy(Policy):
    """All budget on the infected node whose removal leaves the smallest
    resistance; ties by smaller resulting cut, then smaller id.

    Heuristic baseline only; carries no optimality claim.
    """

    name = "resistance_greedy"

    def __init__(self, table):
        self.table = table

    def allocate(self, graph, infected, budget, rng):
        gamma = self.table.gamma
        nodes, deltas = _removal_deltas(graph, infected)
        keys = [(gamma(infected & ~(1 << v)), d) for v, d in zip(nodes, deltas)]
        # index finds the first of equal minima, the smallest id
        return {nodes[keys.index(min(keys))]: budget}


class DegreeProportionalPolicy(Policy):
    """Rates proportional to degree over infected nodes, summing exactly to
    the budget; falls back to a uniform split when all degrees are zero."""

    name = "degree_proportional"

    def allocate(self, graph, infected, budget, rng):
        nodes = members(infected)
        degrees = [graph.degree(v) for v in nodes]
        total = sum(degrees)
        if total == 0:
            share = budget / len(nodes)
            return {v: share for v in nodes}
        unit = budget / total
        rate = {d: unit * d for d in set(degrees)}
        return {v: rate[d] for v, d in zip(nodes, degrees)}


class UniformPolicy(Policy):
    name = "uniform"

    def allocate(self, graph, infected, budget, rng):
        nodes = members(infected)
        share = budget / len(nodes)
        return {v: share for v in nodes}


class RandomNodePolicy(Policy):
    """All budget on a uniformly random infected node (policy RNG stream)."""

    name = "random_node"

    def allocate(self, graph, infected, budget, rng):
        rest = infected
        for _ in range(int(rng.integers(infected.bit_count()))):
            rest &= rest - 1    # drop the smallest member
        return {(rest & -rest).bit_length() - 1: budget}


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


# Stands for "no rate seen yet" in _curing_table; no allocation holds it.
_NO_RATE = object()


def _curing_table(alloc: dict[int, Fraction], infected: int,
                  budget: Fraction, policy_name: str):
    """Validate an allocation exactly and tabulate it for drawing the cured
    node.

    Returns the total rate as a float, the allocated nodes in ascending
    order and the running float sums of their rates in that order; the node
    cured by a uniform draw u in [0, total) is the first whose sum exceeds u.
    The total is summed over a common denominator, in integers.

    Entries are checked in dict order and the first bad one is reported.
    Consecutive entries that hold the same rate object form a run, whose
    rate is checked, rescaled and converted to float once: a uniform split
    over k nodes costs one rate check, not k.  Each node still gets its own
    float, converted after the budget check, and the running sums add them
    in node order, so the floats do not depend on how the entries group.
    """
    den = 1
    runs = []       # (rate, entries) for each run of one rate object
    count = 0       # entries so far in the run of ``last``
    last = _NO_RATE
    nodes = []
    for v, rate in alloc.items():
        try:
            node = index(v)
        except TypeError:
            node = -1
        if node < 0 or not (infected >> node) & 1:
            raise PolicyViolationError(policy_name,
                                       f"allocated to non-infected node {v}")
        if rate is not last:
            if not isinstance(rate, Rational):
                raise PolicyViolationError(
                    policy_name, f"rate {rate!r} at node {v} is not rational")
            if rate.numerator < 0:
                raise PolicyViolationError(policy_name,
                                           f"negative rate at node {v}")
            if count:
                runs.append((last, count))
            den = lcm(den, rate.denominator)
            last = rate
            count = 0
        count += 1
        nodes.append(node)
    if count:
        runs.append((last, count))
    num = 0
    for rate, entries in runs:
        num += rate.numerator * (den // rate.denominator) * entries
    if num * budget.denominator > budget.numerator * den:
        raise PolicyViolationError(
            policy_name,
            f"total rate {Fraction(num, den)} exceeds budget {budget}")
    floats = []
    for rate, entries in runs:
        floats += [float(rate)] * entries
    if nodes != sorted(nodes):
        # node ids are distinct, so the floats are never compared
        pairs = sorted(zip(nodes, floats))
        nodes = [node for node, _ in pairs]
        floats = [f for _, f in pairs]
    return num / den, nodes, list(accumulate(floats))


class _StreamWatch:
    """The policy stream of one run, made by ``make()`` when a policy first
    touches it.

    It stands in for the stream at every policy call and forwards every
    attribute to it, noting whether the call touched it, that is, read any
    of its attributes, whether or not that drew.
    """

    __slots__ = ("_make", "_rng", "_touched")

    def __init__(self, make: Callable[[], np.random.Generator]):
        self._make = make
        self._rng = None
        self._touched = False

    def __getattr__(self, name):
        if self._rng is None:
            self._rng = self._make()
        self._touched = True
        return getattr(self._rng, name)

    def _call(self, policy: Policy, graph: Graph, mask: int,
              budget: Fraction) -> tuple[dict, bool]:
        """The policy's allocation at ``mask`` with this watch standing in
        for the stream, and whether the call touched it."""
        self._touched = False
        return policy.allocate(graph, mask, budget, self), self._touched


class _Allocations:
    """The allocation rule of ``simulate`` and of the sweep engine.

    ``memo`` maps a bag's mask to ``build(mask, curing table)``: the
    curing table itself for ``simulate``, the step table for the sweep
    engine.  A bag's allocation is computed and validated at a visit and,
    unless the policy call touched the policy stream, its built value is
    reused at every later visit by every run that shares the memo; one
    whose call touched the stream is queried, and validated, again at the
    next visit.  So is a bag that built to None (the engine's bag with no
    transition), at most once per replication since it ends the run.  The
    memo is emptied when a value is to be kept while it holds
    ``_MEMO_CELLS`` // n, which changes no output.
    """

    __slots__ = ("graph", "policy", "budget", "build", "memo", "limit")

    def __init__(self, graph: Graph, policy: Policy, budget: Fraction,
                 build: Callable):
        self.graph = graph
        self.policy = policy
        self.budget = budget
        self.build = build
        self.memo: dict = {}
        self.limit = max(1, _MEMO_CELLS // max(1, graph.node_count))

    def entry(self, mask: int, watch: _StreamWatch):
        """``mask``'s value built from a policy call, kept in the memo when
        the call did not touch the stream; callers look the memo up first."""
        alloc, touched = watch._call(self.policy, self.graph, mask,
                                     self.budget)
        value = self.build(mask, _curing_table(alloc, mask, self.budget,
                                               self.policy.name))
        if not touched:
            if len(self.memo) >= self.limit:
                self.memo.clear()
            self.memo[mask] = value
        return value


def simulate(config: EpidemicConfig, policy: Policy, replication: int = 0,
             debug: bool = False) -> SimulationResult:
    """Run one trajectory to extinction, horizon, or the event cap.

    Identical (config, policy, replication) produce a bit-identical event
    log.  Allocations follow ``_Allocations``' rule with a memo of the
    run's own.  The state is the infected mask and its cut: an infection
    takes the healthy end of the k-th cut edge, k uniform below the cut,
    by scanning the healthy nodes in node order and counting their
    infected neighbours from ``Graph.neighbor_masks``, and every event
    updates the cut by one ``toggle_delta``.  ``debug`` re-derives the cut
    from scratch at every event and asserts agreement (exact integer
    comparison).
    """
    g = config.graph
    neighbors = g.neighbor_masks
    ev_rng = _stream(config.seed, replication, 0)
    watch = _StreamWatch(partial(_stream, config.seed, replication, 1))
    beta = float(config.infection_rate)

    mask = config.initial_infected.mask
    cut_now = cut(g, config.initial_infected)
    allocations = _Allocations(g, policy, config.budget,
                               lambda mask, curing: curing)
    memo_get = allocations.memo.get

    times: list[float] = []
    kinds: list[str] = []
    nodes: list[int] = []
    t = 0.0
    extinction_time: float | None = None
    censored: str | None = None

    while True:
        if not mask:
            extinction_time = t
            break
        if len(times) >= config.max_events:
            censored = MAX_EVENTS
            break
        table = memo_get(mask)
        if table is None:
            table = allocations.entry(mask, watch)
        rho, cured, cured_sums = table
        infection_hazard = beta * cut_now
        total = infection_hazard + rho
        if total == 0.0:
            censored = STALLED
            break
        dt = ev_rng.exponential(1.0 / total)
        if config.horizon is not None and t + dt > config.horizon:
            censored = HORIZON
            break
        t += dt
        if ev_rng.random() * total < infection_hazard:
            # the healthy end of the k-th cut edge, in node order
            k = int(ev_rng.integers(cut_now))
            rest = g.full_mask & ~mask
            while rest:
                low = rest & -rest
                rest ^= low
                node = low.bit_length() - 1
                k -= (neighbors[node] & mask).bit_count()
                if k < 0:
                    break
            else:
                raise ErlError("hazard bookkeeping drifted: cached cut "
                               f"{cut_now} exceeds boundary weight")
            kind = INFECTION
        else:
            i = bisect_right(cured_sums, ev_rng.random() * rho)
            node = cured[i] if i < len(cured) else cured[-1]
            kind = RECOVERY
        cut_now += toggle_delta(g, mask, node)
        mask ^= 1 << node
        times.append(t)
        kinds.append(kind)
        nodes.append(node)
        if debug:
            fresh = cut(g, Bag.from_mask(mask))
            if fresh != cut_now:
                raise ErlError(
                    f"hazard bookkeeping drifted: cached cut {cut_now}, "
                    f"recomputed {fresh} after event {len(times) - 1}")

    return SimulationResult(extinction_time, censored, EventLog(
        config.initial_infected, tuple(times), tuple(kinds), tuple(nodes),
        Bag.from_mask(mask)))


# Uniforms and exponentials the sweep engine draws at a time: the first
# block of a run holds _BLOCK_FIRST of each, and each next block twice the
# last, up to _BLOCK_MAX.
_BLOCK_FIRST = 64
_BLOCK_MAX = 4096


def _extinction_times(config: EpidemicConfig, policy: Policy,
                      replications: Iterable[int]
                      ) -> list[tuple[float | None, str | None]]:
    """(extinction time or None, censor reason or None) of each replication
    index in ``replications``: ``simulate``'s process, keeping only τ.

    The law is ``simulate``'s but the draws are not: replication j draws
    from the engine's streams that ``graph._seeds`` lists, a policy's
    only when touched.  Each event takes one uniform and one standard
    exponential, drawn in blocks.  So replication j's τ depends on
    (config, policy, j) only, not on the other replications, their order
    or how a sweep splits them into chunks, and it differs from
    ``simulate``'s τ for the same seed.  Runs are censored for the
    same reasons as in ``simulate``, checked in its order: the event cap,
    then a bag with no transition, then the horizon.

    All replications share one ``_Allocations`` memo of step tables, built
    from the curing tables: the total rate, the running rates of the
    next bags (each healthy node u in node order, at β·|N(u) ∩ A| as
    running integer counts times β, so the infection part ends at exactly
    β·cut(A); then each cure, from the curing table) and the next bags,
    with the last one repeated for a uniform that rounds past the end.
    Transitions of rate 0 are left out.  A bag whose policy call touched
    the policy stream gets a fresh step table at every visit, and a bag
    with none (no transition) a fresh policy call.
    """
    g = config.graph
    beta = float(config.infection_rate)
    neighbors = g.neighbor_masks
    horizon = inf if config.horizon is None else config.horizon
    seq = _seeds(config.seed)
    events, draws = _CounterRange(seq, 0), _CounterRange(seq, 1)

    def step_table(mask: int, curing: tuple) -> tuple | None:
        """The step table of ``mask``, None when no transition leaves it."""
        rho, cured, sums = curing
        cum, nexts = [], []
        count = 0
        for u in members(g.full_mask & ~mask):
            c = (neighbors[u] & mask).bit_count()
            if c:
                count += c
                cum.append(beta * count)
                nexts.append(mask | (1 << u))
        infection = last = beta * count
        for v, s in zip(cured, sums):
            if infection + s > last:
                last = infection + s
                cum.append(last)
                nexts.append(mask & ~(1 << v))
        if not cum:
            return None
        nexts.append(nexts[-1])
        return infection + rho, cum, nexts

    allocations = _Allocations(g, policy, config.budget, step_table)
    memo_get = allocations.memo.get

    def run(replication: int) -> tuple[float | None, str | None]:
        mask = config.initial_infected.mask
        if not mask:
            return 0.0, None
        ev_rng = events.at(replication)
        watch = _StreamWatch(partial(draws.at, replication))
        t = 0.0
        remaining = config.max_events
        size = _BLOCK_FIRST
        while remaining > 0:
            us = ev_rng.random(size).tolist()
            es = ev_rng.standard_exponential(size).tolist()
            if remaining < size:
                del us[remaining:]
            remaining -= len(us)
            for u, e in zip(us, es):
                table = memo_get(mask)
                if table is None:
                    table = allocations.entry(mask, watch)
                    if table is None:
                        return None, STALLED
                total, cum, nexts = table
                t_next = t + e / total
                if t_next > horizon:
                    return None, HORIZON
                t = t_next
                mask = nexts[bisect_right(cum, u * total)]
                if not mask:
                    return t, None
            size = min(2 * size, _BLOCK_MAX)
        return None, MAX_EVENTS

    return [run(j) for j in replications]


def _trajectory(log: EventLog, g: Graph) -> tuple[list[float], np.ndarray]:
    """Check a log against ``g`` and reconstruct its trajectory.

    Returns the state times (0.0, then each event's time) and the infected
    masks as one ``mask_array``, so entry i is the state after i events;
    each event flips exactly one node, so consecutive masks differ in one
    bit.  Raises ReplayError with the offending event index on any
    inconsistency, and InvalidBagError when the initial bag lies outside
    ``g``.
    """
    g.check_bag(log.initial_infected)
    n = g.node_count
    neighbors = g.neighbor_masks
    mask = log.initial_infected.mask
    times = [0.0]
    masks = [mask]
    prev_t = 0.0
    for i, (t, kind, node) in enumerate(zip(log.times, log.kinds, log.nodes)):
        if not prev_t < t < inf:
            raise ReplayError(f"time {t} is not a finite time after {prev_t}", i)
        prev_t = t
        if not 0 <= node < n:
            raise ReplayError(f"node {node} out of range", i)
        bit = 1 << node
        if kind == INFECTION:
            if mask & bit:
                raise ReplayError(f"infection of already-infected node {node}", i)
            if not mask & neighbors[node]:
                raise ReplayError(
                    f"infection of node {node} with no infected neighbor", i)
        elif kind == RECOVERY:
            if not mask & bit:
                raise ReplayError(f"recovery of healthy node {node}", i)
        else:
            raise ReplayError(f"unknown event kind {kind!r}", i)
        mask ^= bit
        times.append(t)
        masks.append(mask)
    if mask != log.final.mask:
        raise ReplayError(
            f"final state {Bag.from_mask(mask)!r} does not match recorded "
            f"{log.final!r}", len(times) - 1)
    return times, mask_array(masks, n)


def replay(log: EventLog, g: Graph) -> Iterator[tuple[float, Bag]]:
    """Reconstruct the piecewise-constant trajectory from an event log.

    Yields (time, bag) starting with the initial state at time 0; each
    event flips exactly one node, so the bag sequence is unit-step.  The
    whole log is checked before the first state is yielded: any
    inconsistency raises ReplayError with the offending event index.
    """
    times, masks = _trajectory(log, g)
    for t, mask in zip(times, masks.tolist()):
        yield t, Bag.from_mask(mask)


def validate_log(log: EventLog, g: Graph) -> None:
    """Run every consistency check of :func:`replay`, without building a
    bag per state; raises ReplayError on the first failure."""
    _trajectory(log, g)
