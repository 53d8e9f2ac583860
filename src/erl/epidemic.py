"""Event-driven simulation of the budget-constrained SIS curing process.

Between events the state is constant, so a state-feedback policy's
allocation is too; the simulator samples the next event from the total
hazard (direct Gillespie method).  A policy's ``allocate`` must be a
function of its arguments (graph, infected mask, budget, policy stream):
each allocation is Fraction-validated when computed and then reused at every
later visit to the same bag within the run, unless the call that produced
it drew from the policy stream, in which case the policy is queried again
at each visit.  Each healthy node's infection hazard is the infection rate
times its infected-neighbor count, so the total infection hazard equals the
infection rate times the cut of the infected set, which is maintained
incrementally and (in debug runs) re-derived from scratch at every event.

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
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ErlError, PolicyViolationError, ReplayError
from .graph import GENERATE_CAP, Bag, Graph, cut, members, toggle_delta

INFECTION = "INFECTION"
RECOVERY = "RECOVERY"

HORIZON = "HORIZON"
MAX_EVENTS = "MAX_EVENTS"
STALLED = "STALLED"

LOG_MAGIC = b"REL1"
# Bound on a run's allocation memo in entries times nodes (an entry holds
# at most two tables of one item per node), a few tens of MB; the memo is
# emptied when it reaches the bound, which changes no output.
_MEMO_CELLS = 1 << 20
_EVENT = struct.Struct("<dBI")


def _node_id_error(top: int, where: str) -> ErlError:
    return ErlError(f"node id {top} in {where} is above the largest id "
                    f"{GENERATE_CAP - 1} a graph can have")


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
    """Stands in for the policy stream during one policy call and forwards
    every attribute to it, noting whether the policy touched the stream.

    ``start`` is the stream position before the call; when the caller does
    not know it, it is read at the first touch, so a call that never
    touches the stream costs no read.
    """

    __slots__ = ("_rng", "start", "touched")

    def __init__(self, rng: np.random.Generator, start: tuple | None):
        self._rng = rng
        self.start = start
        self.touched = False

    def __getattr__(self, name):
        if not self.touched:
            self.touched = True
            if self.start is None:
                self.start = _stream_position(self._rng.bit_generator)
        return getattr(self._rng, name)


def simulate(config: EpidemicConfig, policy: Policy, replication: int = 0,
             debug: bool = False) -> SimulationResult:
    """Run one trajectory to extinction, horizon, or the event cap.

    Identical (config, policy, replication) produce a bit-identical event
    log.  For each bag the run visits it keeps the validated curing table,
    reused at later visits unless the policy call that produced it drew from
    the policy stream, and, from the first infection there on, the table of
    infection targets.  ``debug`` re-derives the cached infection hazard
    from scratch at every event and asserts agreement (exact integer
    comparison).
    """
    g = config.graph
    adjacency = g.adjacency
    degree = [g.degree(v) for v in range(g.node_count)]
    ev_rng, pol_rng = event_streams(config.seed, replication)
    beta = float(config.infection_rate)
    budget = config.budget

    mask = config.initial_infected.mask
    healthy = [0 if (mask >> v) & 1 else 1 for v in range(g.node_count)]
    inf_nbrs = [0] * g.node_count
    for v in config.initial_infected:
        for u in adjacency[v]:
            inf_nbrs[u] += 1
    cut_now = cut(g, config.initial_infected)
    # mask -> [curing table, None when its allocation drew from the policy
    #          stream; running sums over nodes of healthy x infected-neighbor
    #          count, None until the first infection there]
    memo: dict[int, list] = {}
    memo_limit = max(1, _MEMO_CELLS // g.node_count)
    # policy-stream position after the last policy call, if it was read
    position = None

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
        entry = memo.get(mask)
        if entry is not None and entry[0] is not None:
            curing = entry[0]
        elif entry is not None:
            curing = _curing_table(policy.allocate(g, mask, budget, pol_rng),
                                   mask, budget, policy.name)
            position = None
        else:
            if len(memo) >= memo_limit:
                memo.clear()
            watch = _StreamWatch(pol_rng, position)
            curing = _curing_table(policy.allocate(g, mask, budget, watch),
                                   mask, budget, policy.name)
            drew = False
            if watch.touched:
                position = _stream_position(pol_rng.bit_generator)
                drew = position != watch.start
            entry = memo[mask] = [None if drew else curing, None]
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
