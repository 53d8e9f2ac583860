"""Event-driven simulation of the budget-constrained SIS curing process.

Between events the state is constant, so a state-feedback policy's
allocation is too; the simulator samples the next event from the total
hazard (direct Gillespie method).  A policy's ``allocate`` must be a
function of its arguments (graph, infected mask, budget, policy stream):
each allocation is Fraction-validated when computed and then reused at every
later visit to the same bag within the run (within all replications of a
sweep point, for sweeps), unless the call that produced it drew from the
policy stream, in which case the policy is queried again at each visit.
Each healthy node's infection hazard is the infection rate times its
infected-neighbor count, so the total infection hazard equals the infection
rate times the cut of the infected set, which is maintained incrementally
and (in debug runs) re-derived from scratch at every event.

``simulate`` writes event logs and is the reference.  Sweeps run the
τ-only engine ``_extinction_times``, which follows the same law with
different draws from the same seed.

Budget feasibility is checked in exact rational arithmetic; only the event
sampling itself uses floating point.
"""

from __future__ import annotations

import io
import struct
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import inf, lcm
from numbers import Rational
from operator import index, itemgetter, mul
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import ErlError, PolicyViolationError, ReplayError
from .graph import GENERATE_CAP, Bag, Graph, cut, members, toggle_delta

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
_EVENT = struct.Struct("<dBI")


def _node_id_error(top: int, where: str) -> ErlError:
    return ErlError(f"node id {top} in {where} is above the largest id "
                    f"{GENERATE_CAP - 1} a graph can have")


class Event(NamedTuple):
    time: float
    kind: str
    node: int


def _stream(seed: int, replication: int, k: int) -> np.random.Generator:
    """Stream ``k`` of one run: 0 for events, 1 for the policy.

    It is the k-th child of the (seed, replication) seed sequence, built
    directly from its spawn key rather than by spawning from the parent,
    which gives the same stream.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(
        entropy=seed, spawn_key=(replication, k))))


def event_streams(seed: int, replication: int = 0):
    """Two independent Philox streams (events, policy) for one run.

    Replication j of a sweep derives its streams from (seed, j), so
    replications are independent and individually reproducible.
    """
    return _stream(seed, replication, 0), _stream(seed, replication, 1)


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
        # written so that NaN fails each test
        if not 0 < self.infection_rate < inf:
            raise ErlError("infection rate must be positive and finite")
        if self.horizon is not None and not self.horizon > 0:
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
            if not 0 <= node < GENERATE_CAP:
                raise ErlError(f"node id out of range 0..{GENERATE_CAP - 1} "
                               f"in event line {line!r}")
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
        if len(data) - off != count * _EVENT.size:
            raise ErlError(f"event log declares {count} events but holds "
                           f"{len(data) - off} bytes of them")
        events = []
        for t, kind, node in _EVENT.iter_unpack(data[off:]):
            if kind > 1:
                raise ErlError(f"unknown event kind byte {kind}")
            events.append(Event(t, INFECTION if kind == 0 else RECOVERY, node))
        # one check of the largest id, so that no event pays a branch for it
        top = max(map(itemgetter(2), events), default=0)
        if top >= GENERATE_CAP:
            raise _node_id_error(top, "an event")
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
    """Maps the infected set to a curing-rate allocation.

    ``allocate`` receives the infected set as a bitmask (bit v set = node v
    infected) and returns a map node -> nonnegative rational (int or
    Fraction) whose sum must not exceed the budget and whose support must
    lie inside the infected set.  ``rng`` is a dedicated stream owned by the
    run, separate from the event stream, so randomized policies stay
    reproducible; at the first visit to a bag it is a stand-in that forwards
    every attribute to that stream.

    ``allocate`` must be a function of its arguments: ``simulate`` computes
    an allocation once per bag and reuses it at every later visit to that
    bag in the run, unless the call that produced it drew from ``rng``.
    A sweep shares that memo across all replications of one sweep point
    (one memo per worker process when pooled), so an allocation that did
    not draw is reused by every later replication too.
    """

    name = "abstract"

    def allocate(self, graph: Graph, infected: int, budget: Fraction,
                 rng: np.random.Generator) -> dict[int, Fraction]:
        raise NotImplementedError


class MaxCutDropPolicy(Policy):
    """All budget on the infected node whose removal leaves the smallest cut;
    ties go to the smaller node id."""

    name = "max_cut_drop"

    def allocate(self, graph, infected, budget, rng):
        best = min(members(infected),
                   key=lambda v: (toggle_delta(graph, infected, v), v))
        return {best: budget}


class ResistanceGreedyPolicy(Policy):
    """All budget on the infected node whose removal leaves the smallest
    resistance; ties by smaller resulting cut, then smaller id.

    Heuristic baseline only; carries no optimality claim.
    """

    name = "resistance_greedy"

    def __init__(self, table):
        self.table = table

    def allocate(self, graph, infected, budget, rng):
        def key(v):
            return (self.table.gamma(infected & ~(1 << v)),
                    toggle_delta(graph, infected, v), v)

        return {min(members(infected), key=key): budget}


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


def _stream_position(bits: np.random.Philox) -> tuple:
    """Where a Philox stream stands: its block counter, the next word of its
    output buffer and whether half a word is held back.  Every draw moves
    at least one of them."""
    state = bits.state
    return (state["state"]["counter"].tobytes(), state["buffer_pos"],
            state["has_uint32"])


class _StreamWatch:
    """The policy stream of one run, built when a policy first touches it.

    During a first policy call at a bag it stands in for the stream and
    forwards every attribute to it, noting whether the call moved it.  The
    position the stream stood at after the last call is kept when it was
    read, so a call that follows a touching call costs one read, and a call
    that never touches the stream costs none.
    """

    __slots__ = ("_seed", "_replication", "_rng", "_position", "_touched")

    def __init__(self, seed: int, replication: int):
        self._seed = seed
        self._replication = replication
        self._rng = None
        self._position = None
        self._touched = False

    def _generator(self) -> np.random.Generator:
        if self._rng is None:
            self._rng = _stream(self._seed, self._replication, 1)
        return self._rng

    def __getattr__(self, name):
        rng = self._generator()
        if not self._touched:
            self._touched = True
            if self._position is None:
                self._position = _stream_position(rng.bit_generator)
        return getattr(rng, name)

    def _call(self, policy: Policy, graph: Graph, mask: int,
              budget: Fraction) -> tuple[dict, bool]:
        """The policy's allocation at ``mask`` with this watch standing in
        for the stream, and whether the call drew from it."""
        self._touched = False
        alloc = policy.allocate(graph, mask, budget, self)
        if not self._touched:
            return alloc, False
        start = self._position
        self._position = _stream_position(self._rng.bit_generator)
        return alloc, self._position != start

    def _requery(self, policy: Policy, graph: Graph, mask: int,
                 budget: Fraction) -> dict:
        """The policy's allocation at a bag whose first call drew: the
        stream itself is passed, and the position it leaves is not read."""
        self._position = None
        return policy.allocate(graph, mask, budget, self._generator())


class _Allocations:
    """The allocation rule of ``simulate`` and of the sweep engine.

    ``memo`` maps a bag's mask to [its curing table, or None when the
    policy call that produced the table drew from the policy stream; the
    caller's own table for the bag, or None].  A bag's allocation is
    computed and validated at its first visit and reused at every later
    visit by every run that shares the memo; one whose call drew is
    queried again, and validated again, at each visit.  The memo is
    emptied when it holds ``_MEMO_CELLS`` // n entries, which changes no
    output.
    """

    __slots__ = ("graph", "policy", "budget", "memo", "limit")

    def __init__(self, graph: Graph, policy: Policy, budget: Fraction):
        self.graph = graph
        self.policy = policy
        self.budget = budget
        self.memo: dict[int, list] = {}
        self.limit = max(1, _MEMO_CELLS // max(1, graph.node_count))

    def entry(self, mask: int, watch: _StreamWatch) -> tuple[list, tuple]:
        """The memo entry of ``mask`` and the bag's curing table."""
        entry = self.memo.get(mask)
        if entry is not None and entry[0] is not None:
            return entry, entry[0]
        g, policy, budget = self.graph, self.policy, self.budget
        if entry is not None:
            alloc = watch._requery(policy, g, mask, budget)
            return entry, _curing_table(alloc, mask, budget, policy.name)
        if len(self.memo) >= self.limit:
            self.memo.clear()
        alloc, drew = watch._call(policy, g, mask, budget)
        curing = _curing_table(alloc, mask, budget, policy.name)
        entry = self.memo[mask] = [None if drew else curing, None]
        return entry, curing


def simulate(config: EpidemicConfig, policy: Policy, replication: int = 0,
             debug: bool = False) -> SimulationResult:
    """Run one trajectory to extinction, horizon, or the event cap.

    Identical (config, policy, replication) produce a bit-identical event
    log.  Allocations follow ``_Allocations``' rule with a memo of the
    run's own; next to each bag's curing table the memo keeps, from the
    first infection there on, the table of infection targets.  ``debug``
    re-derives the cached infection hazard from scratch at every event and
    asserts agreement (exact integer comparison).
    """
    g = config.graph
    adjacency = g.adjacency
    degree = [g.degree(v) for v in range(g.node_count)]
    ev_rng = _stream(config.seed, replication, 0)
    watch = _StreamWatch(config.seed, replication)
    beta = float(config.infection_rate)

    mask = config.initial_infected.mask
    healthy = [0 if (mask >> v) & 1 else 1 for v in range(g.node_count)]
    inf_nbrs = [0] * g.node_count
    for v in config.initial_infected:
        for u in adjacency[v]:
            inf_nbrs[u] += 1
    cut_now = cut(g, config.initial_infected)
    # the caller's table of an entry: running sums over nodes of healthy x
    # infected-neighbor count
    allocations = _Allocations(g, policy, config.budget)
    memo_get = allocations.memo.get

    events: list[Event] = []
    t = 0.0
    extinction_time: float | None = None
    censored: str | None = None

    while True:
        if not mask:
            extinction_time = t
            break
        if len(events) >= config.max_events:
            censored = MAX_EVENTS
            break
        entry = memo_get(mask)
        if entry is None or (curing := entry[0]) is None:
            entry, curing = allocations.entry(mask, watch)
        rho, cured, cured_sums = curing
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
            k = int(ev_rng.integers(cut_now))
            if entry[1] is None:
                entry[1] = list(accumulate(map(mul, healthy, inf_nbrs)))
            node = bisect_right(entry[1], k)
            if node == len(healthy):
                raise ErlError("hazard bookkeeping drifted: cached cut "
                               f"{cut_now} exceeds boundary weight")
            mask |= 1 << node
            healthy[node] = 0
            for w in adjacency[node]:
                inf_nbrs[w] += 1
            cut_now += degree[node] - 2 * inf_nbrs[node]
            events.append(Event(t, INFECTION, node))
        else:
            i = bisect_right(cured_sums, ev_rng.random() * rho)
            node = cured[i] if i < len(cured) else cured[-1]
            mask &= ~(1 << node)
            healthy[node] = 1
            for w in adjacency[node]:
                inf_nbrs[w] -= 1
            cut_now += 2 * inf_nbrs[node] - degree[node]
            events.append(Event(t, RECOVERY, node))
        if debug:
            fresh = cut(g, Bag.from_mask(mask))
            if fresh != cut_now:
                raise ErlError(
                    f"hazard bookkeeping drifted: cached cut {cut_now}, "
                    f"recomputed {fresh} after event {len(events) - 1}")

    log = EventLog(config.initial_infected, tuple(events), Bag.from_mask(mask))
    return SimulationResult(
        extinction_time=extinction_time,
        censored=censored,
        log=log,
        infection_count=log.infection_count(),
        recovery_count=log.recovery_count(),
    )


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

    The law is ``simulate``'s but the draws are not: each event takes one
    uniform and one standard exponential from the run's event stream,
    drawn in blocks, so the output is reproducible from (config, policy,
    replications) but differs from ``simulate``'s τ for the same seed.
    Runs are censored for the same reasons as in ``simulate``, checked in
    its order: the event cap, then a bag with no transition, then the
    horizon.

    All replications share one ``_Allocations`` memo.  Its caller's table
    is the bag's step table: the total rate, the running rates of the
    next bags (each infection target u in node order, at β·|N(u) ∩ A| as
    running integer counts times β, so the infection part ends at exactly
    β·cut(A); then each cure, from the curing table) and the next bags,
    with the last one repeated for a uniform that rounds past the end.
    Transitions of rate 0 are left out.  A bag whose allocation drew from
    the policy stream gets a fresh step table at every visit.
    """
    g = config.graph
    n = g.node_count
    beta = float(config.infection_rate)
    neighbors = [sum(1 << u for u in adj) for adj in g.adjacency]
    horizon = inf if config.horizon is None else config.horizon
    allocations = _Allocations(g, policy, config.budget)
    memo_get = allocations.memo.get

    def step_table(mask: int, watch: _StreamWatch) -> tuple | None:
        """The step table of ``mask``, None when no transition leaves it."""
        entry, (rho, cured, sums) = allocations.entry(mask, watch)
        cum, nexts = [], []
        count = 0
        for u in range(n):
            if not (mask >> u) & 1:
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
        table = (infection + rho, cum, nexts)
        if entry[0] is not None:
            entry[1] = table
        return table

    def run(replication: int) -> tuple[float | None, str | None]:
        mask = config.initial_infected.mask
        if not mask:
            return 0.0, None
        ev_rng = _stream(config.seed, replication, 0)
        watch = _StreamWatch(config.seed, replication)
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
                entry = memo_get(mask)
                if entry is None or (table := entry[1]) is None:
                    table = step_table(mask, watch)
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


def _trajectory(log: EventLog, g: Graph) -> tuple[list[float], list[int]]:
    """Check an event log against ``g`` and reconstruct its trajectory.

    Returns the state times (0.0, then each event's time) and the infected
    mask from that time on, so entry i is the state after i events; each
    event flips exactly one node, so consecutive masks differ in one bit.
    Raises ReplayError with the offending event index on any inconsistency,
    and InvalidBagError when the initial bag lies outside ``g``.
    """
    g.check_bag(log.initial_infected)
    n = g.node_count
    neighbors = [sum(1 << u for u in adj) for adj in g.adjacency]
    mask = log.initial_infected.mask
    times = [0.0]
    masks = [mask]
    prev_t = 0.0
    for i, (t, kind, node) in enumerate(log.events):
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
            f"{log.final!r}", len(log.events))
    return times, masks


def replay(log: EventLog, g: Graph) -> Iterator[tuple[float, Bag]]:
    """Reconstruct the piecewise-constant trajectory from an event log.

    Yields (time, bag) starting with the initial state at time 0; each
    event flips exactly one node, so the bag sequence is unit-step.  The
    whole log is checked before the first state is yielded: any
    inconsistency raises ReplayError with the offending event index.
    """
    times, masks = _trajectory(log, g)
    for t, mask in zip(times, masks):
        yield t, Bag.from_mask(mask)


def validate_log(log: EventLog, g: Graph) -> None:
    """Run every consistency check of :func:`replay`, without building a
    bag per state; raises ReplayError on the first failure."""
    _trajectory(log, g)
