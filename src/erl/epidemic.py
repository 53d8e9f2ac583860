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
Neither ``simulate`` nor the sweep engine calls a builtin's ``allocate``.
A policy that declares node weights (``uniform``, ``degree_proportional``)
has its weights checked once per run and its curing tables built from
them, with the floats that the validated allocation would give, so logs
and times are the same.  A policy that names one target node per bag
(``max_cut_drop``, ``resistance_greedy``, ``random_node``) has the node
checked and given the whole budget.
Each healthy node's infection hazard is the infection rate times its
infected-neighbor count, so the total infection hazard equals the infection
rate times the cut of the infected set.  Every neighbour count in the
package is a popcount of ``Graph.neighbor_masks`` against the infected
mask; ``simulate`` keeps only that mask and its cut, and updates the cut
from the toggled node's degree and infected-neighbour count.

``simulate`` records each event's time, kind and node as the three
columns of its event log, and is the reference.  Its uniforms and the
cut edge an infection takes are computed from raw Philox words by
numpy's own algorithms (``graph._raw_draws``), so they are the draws of
``Generator.random`` and ``Generator.integers``; its exponentials and
``random_node``'s policy draws are still ``Generator`` method calls.
Sweeps run the τ-only engine ``_extinction_times``, which follows the
same law with different draws from the same seed; ``graph._seeds`` lists
every stream.
A log keeps its checked trajectory for the graph object it was replayed
against, so ``validate_log``, ``replay`` and the audits share one pass.

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
from itertools import accumulate, repeat
from math import inf, lcm
from numbers import Rational, Real
from operator import index, truediv
from sys import float_info
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import ErlError, PolicyViolationError, ReplayError
from .graph import (GENERATE_CAP, Bag, Graph, _check_seed, _CounterRange,
                    _is_int, _raw_draws, _seeds, _stream, cut, mask_array,
                    members)

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
        """The events as rows, built at each read: ``tuple.__new__`` makes
        each ``Event`` from its zipped fields without a call of
        ``Event.__new__``."""
        return tuple(map(tuple.__new__, repeat(Event),
                         zip(self.times, self.kinds, self.nodes)))

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

    A policy that gives the whole budget to one infected node declares
    only ``target(graph, infected, rng)``, that node's id, under the same
    rules as ``allocate``, which then returns {target: budget}.
    ``simulate`` and the sweep engine call ``target`` instead.

    A policy whose rates follow a weight rule declares only ``weights``:
    the base ``allocate`` is the rule, which gives node v of a nonempty bag
    A the rate budget·w(v)/W(A), where W(A) sums the weights over A, and
    splits the budget uniformly when W(A) is 0.  Only the exact chain
    calls that ``allocate``; ``simulate`` and the sweep engine check the
    weights once per run and take the curing tables from them.  A target
    outranks weights.  At the empty bag the base ``allocate`` returns {}.
    """

    name = "abstract"
    target = None

    def allocate(self, graph: Graph, infected: int, budget: Fraction,
                 rng: np.random.Generator) -> dict[int, Fraction]:
        if not infected:
            return {}
        if self.target is not None:
            return {self.target(graph, infected, rng): budget}
        weights = self.weights(graph)
        if weights is None:
            raise NotImplementedError
        nodes = members(infected)
        node_weights = [weights[v] for v in nodes]
        total = sum(node_weights)
        if total == 0:
            share = budget / len(nodes)
            return {v: share for v in nodes}
        unit = budget / total
        rate = {w: unit * w for w in set(node_weights)}
        return {v: rate[w] for v, w in zip(nodes, node_weights)}

    def weights(self, graph: Graph) -> tuple[int, ...] | None:
        """One nonnegative int weight per node of ``graph`` when the
        allocation is the weight rule, else None."""
        return None


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

    def target(self, graph, infected, rng):
        nodes, deltas = _removal_deltas(graph, infected)
        # index finds the first of equal minima, the smallest id
        return nodes[deltas.index(min(deltas))]


class ResistanceGreedyPolicy(Policy):
    """All budget on the infected node whose removal leaves the smallest
    resistance; ties by smaller resulting cut, then smaller id.

    Heuristic baseline only; carries no optimality claim.  ``table`` is
    a ``ResistanceTable`` or ``CompleteGraphResistance``, read once per
    call for all members through ``_gammas``, since the masks are of
    checked bags.
    """

    name = "resistance_greedy"

    def __init__(self, table):
        self.table = table

    def target(self, graph, infected, rng):
        nodes, deltas = _removal_deltas(graph, infected)
        gammas = self.table._gammas(mask_array(
            [infected ^ 1 << v for v in nodes], graph.node_count))
        keys = list(zip(gammas.tolist(), deltas))
        # index finds the first of equal minima, the smallest id
        return nodes[keys.index(min(keys))]


class DegreeProportionalPolicy(Policy):
    """Rates proportional to degree over infected nodes, summing exactly to
    the budget; falls back to a uniform split when all degrees are zero."""

    name = "degree_proportional"

    def weights(self, graph):
        return tuple(map(len, graph.adjacency))


class UniformPolicy(Policy):
    name = "uniform"

    def weights(self, graph):
        return (1,) * graph.node_count


class RandomNodePolicy(Policy):
    """All budget on a uniformly random infected node (policy RNG stream)."""

    name = "random_node"

    def target(self, graph, infected, rng):
        rest = infected
        for _ in range(int(rng.integers(infected.bit_count()))):
            rest &= rest - 1    # drop the smallest member
        return (rest & -rest).bit_length() - 1


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


def _infected_node(v, infected: int, policy_name: str) -> int:
    """``v`` as a node id, which must be a member of ``infected``."""
    try:
        node = index(v)
    except TypeError:
        node = -1
    if node < 0 or not (infected >> node) & 1:
        raise PolicyViolationError(policy_name,
                                   f"allocated to non-infected node {v}")
    return node


def _curing_table(alloc: dict[int, Fraction], infected: int,
                  budget: Fraction, policy_name: str):
    """Validate an allocation exactly and tabulate it for drawing the cured
    node.

    Returns the total rate as a float, the allocated nodes in ascending
    order and the running float sums of their rates in that order; the node
    cured by a uniform draw u in [0, total) is the first whose sum exceeds u.
    The total is summed over a common denominator, in integers.  Entries
    are checked in dict order and the first bad one is reported; the rates
    are converted to floats after the budget check.
    """
    den = 1
    pairs = []
    for v, rate in alloc.items():
        node = _infected_node(v, infected, policy_name)
        if not isinstance(rate, Rational):
            raise PolicyViolationError(
                policy_name, f"rate {rate!r} at node {v} is not rational")
        if rate.numerator < 0:
            raise PolicyViolationError(policy_name,
                                       f"negative rate at node {v}")
        den = lcm(den, rate.denominator)
        pairs.append((node, rate))
    num = sum(rate.numerator * (den // rate.denominator) for _, rate in pairs)
    if num * budget.denominator > budget.numerator * den:
        raise PolicyViolationError(
            policy_name,
            f"total rate {Fraction(num, den)} exceeds budget {budget}")
    pairs.sort()
    return (num / den, [node for node, _ in pairs],
            list(accumulate(float(rate) for _, rate in pairs)))


class _WeightRule:
    """The curing rates of a policy with node weights w, at budget p/q: at
    a nonempty bag A of weight W = Σ_{v∈A} w(v), node v gets p·w(v)/(q·W),
    or p/(q·|A|) when W = 0.

    A rate's float is the int division of those two products, which rounds
    the same rational as ``float(Fraction)``, and the total is ``float(p/q)``,
    since the rule spends the whole budget.  So ``table`` is, float for
    float, what ``_curing_table`` makes of the rule's allocation, and
    ``pick`` cures the node that a bisection of its running sums finds.
    """

    __slots__ = ("weights", "rho", "den", "scaled", "even")

    def __init__(self, weights: tuple[int, ...], budget: Fraction):
        p = budget.numerator
        self.weights = weights
        self.rho = float(budget)
        self.den = budget.denominator
        self.scaled = [p * w for w in weights]
        self.even = [p] * len(weights)

    def _rates(self, infected: int, total: int) -> tuple[list[int], int]:
        if total:
            return self.scaled, self.den * total
        return self.even, self.den * infected.bit_count()

    def table(self, infected: int) -> tuple[float, list[int], list[float]]:
        """The curing table of the bag ``infected``."""
        nodes = members(infected)
        rates, den = self._rates(infected,
                                 sum(map(self.weights.__getitem__, nodes)))
        return self.rho, nodes, list(accumulate(
            map(truediv, map(rates.__getitem__, nodes), repeat(den))))

    def pick(self, infected: int, total: int, u: float) -> int:
        """The member of ``infected`` (of weight ``total``) that the draw
        ``u`` cures: the first in ascending order whose running sum exceeds
        u, else the last, found without building the sums."""
        rates, den = self._rates(infected, total)
        acc = 0.0
        while infected:
            low = infected & -infected
            infected ^= low
            node = low.bit_length() - 1
            acc += rates[node] / den
            if acc > u:
                break
        return node


def _weight_rule(policy: Policy, graph: Graph,
                 budget: Fraction) -> _WeightRule | None:
    """``policy``'s weight rule on ``graph`` at ``budget``, its weights
    checked, or None when it declares no weights or has a target."""
    if policy.target is not None:
        return None
    weights = policy.weights(graph)
    if weights is None:
        return None
    if not (isinstance(weights, tuple) and len(weights) == graph.node_count):
        raise PolicyViolationError(
            policy.name, f"weights must be a tuple of {graph.node_count} "
            f"ints, one per node, got {weights!r:.80}")
    for v, w in enumerate(weights):
        if not (_is_int(w) and w >= 0):
            raise PolicyViolationError(
                policy.name,
                f"weight {w!r} of node {v} is not a nonnegative int")
    return _WeightRule(weights, budget)


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

    def _call(self, method: Callable, *args) -> tuple[object, bool]:
        """``method(*args, rng)``, a policy's ``allocate`` or ``target``,
        with this watch as the rng, and whether the call touched it."""
        self._touched = False
        return method(*args, self), self._touched


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
    ``_MEMO_CELLS`` // n, which changes no output.  A policy with a
    target (read off the instance, so a forwarding wrapper is seen
    through) is asked for its node, checked as ``_curing_table`` checks a
    key; the curing table is (ρ, (node,), (ρ,)) with ρ = float(budget),
    what ``_curing_table`` makes of {node: budget}.  A policy that declares
    weights gets its checked ``_WeightRule``, ``rule``, once; the curing
    table is ``rule.table``, which calls no policy and so is always kept.
    Only a policy with neither is asked to ``allocate``.  Under weights,
    ``simulate`` calls no ``entry`` and ``keep``s its own values instead:
    () for a bag with one recovery so far, then the bag's curing table.
    """

    __slots__ = ("graph", "policy", "budget", "build", "memo", "limit",
                 "target", "rule", "rho")

    def __init__(self, graph: Graph, policy: Policy, budget: Fraction,
                 build: Callable):
        self.graph = graph
        self.policy = policy
        self.budget = budget
        self.build = build
        self.memo: dict = {}
        self.limit = max(1, _MEMO_CELLS // max(1, graph.node_count))
        self.target = policy.target
        self.rule = _weight_rule(policy, graph, budget)
        self.rho = float(budget)

    def entry(self, mask: int, watch: _StreamWatch):
        """``mask``'s value built from its curing table, kept in the memo
        unless a policy call touched the stream; callers look the memo up
        first."""
        if self.target is not None:
            node, touched = watch._call(self.target, self.graph, mask)
            node = _infected_node(node, mask, self.policy.name)
            curing = self.rho, (node,), (self.rho,)
        elif self.rule is not None:
            curing = self.rule.table(mask)
            touched = False
        else:
            alloc, touched = watch._call(self.policy.allocate, self.graph,
                                         mask, self.budget)
            curing = _curing_table(alloc, mask, self.budget, self.policy.name)
        value = self.build(mask, curing)
        return value if touched else self.keep(mask, value)

    def keep(self, mask: int, value):
        """Keep ``value`` as ``mask``'s, emptying a full memo first."""
        if len(self.memo) >= self.limit:
            self.memo.clear()
        self.memo[mask] = value
        return value


def simulate(config: EpidemicConfig, policy: Policy,
             replication: int = 0) -> SimulationResult:
    """Run one trajectory to extinction, horizon, or the event cap.

    Identical (config, policy, replication) produce a bit-identical event
    log.  Allocations follow ``_Allocations``' rule with a memo of the
    run's own, so a policy with a target is asked for its node, not its
    allocation.  A policy that declares weights is never called: its
    total rate is the budget at every bag, and its ``_WeightRule``
    (``_Allocations.rule``) finds the cured node by walking the bag's
    members at the bag's first recovery; the second builds the bag's
    curing table, which the memo keeps for later recoveries to bisect.
    The state is the infected mask and its cut: an infection takes the
    healthy end of the k-th cut edge, k uniform below the cut, by scanning
    the healthy nodes in node order and counting their infected
    neighbours from ``Graph.neighbor_masks``, and every event adds to the
    cut the toggled node's degree less twice its neighbours on the side it
    joins.  The uniforms and k come from raw words (``_raw_draws``),
    the times from ``Generator.standard_exponential``.  ``replication``
    must be a nonnegative int.  The test suite holds every log, bit for
    bit, to a plain loop
    (``tests/reference_simulate.py``) that draws by ``Generator``
    methods, asks the policy to allocate and recounts the cut at every
    event.
    """
    _check_seed(replication, "replication")
    g = config.graph
    neighbors = g.neighbor_masks
    degrees = tuple(map(len, g.adjacency))
    ev_rng = _stream(config.seed, replication, 0)
    random, below = _raw_draws(ev_rng)
    exponential = ev_rng.standard_exponential
    watch = _StreamWatch(partial(_stream, config.seed, replication, 1))
    beta = float(config.infection_rate)
    allocations = _Allocations(g, policy, config.budget,
                               lambda mask, curing: curing)
    memo_get = allocations.memo.get
    rule = allocations.rule
    mask = config.initial_infected.mask
    if rule is not None:
        rho, weights = rule.rho, rule.weights
        weight = sum(map(weights.__getitem__, members(mask)))
    cut_now = cut(g, config.initial_infected)

    horizon = inf if config.horizon is None else config.horizon
    max_events, full = config.max_events, g.full_mask
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
        if len(times) >= max_events:
            censored = MAX_EVENTS
            break
        if rule is None:
            table = memo_get(mask)
            if table is None:
                table = allocations.entry(mask, watch)
            rho = table[0]
        infection_hazard = beta * cut_now
        total = infection_hazard + rho
        if total == 0.0:
            censored = STALLED
            break
        # what ev_rng.exponential(1.0 / total) draws
        dt = (1.0 / total) * exponential()
        if t + dt > horizon:
            censored = HORIZON
            break
        t += dt
        if random() * total < infection_hazard:
            # the healthy end of the k-th cut edge, in node order
            k = below(cut_now)
            rest = full & ~mask
            while rest:
                low = rest & -rest
                rest ^= low
                node = low.bit_length() - 1
                inside = (neighbors[node] & mask).bit_count()
                k -= inside
                if k < 0:
                    break
            else:
                raise ErlError("hazard bookkeeping drifted: cached cut "
                               f"{cut_now} exceeds boundary weight")
            cut_now += degrees[node] - 2 * inside
            if rule is not None:
                weight += weights[node]
            kind = INFECTION
        else:
            u = random() * rho
            if rule is not None:
                table = memo_get(mask)
                if table is None:
                    # a bag's first recovery walks its members, its second
                    # keeps the table that later ones bisect
                    allocations.keep(mask, ())
                elif not table:
                    table = allocations.keep(mask, rule.table(mask))
            if table:
                _, cured, cured_sums = table
                i = bisect_right(cured_sums, u)
                node = cured[i] if i < len(cured) else cured[-1]
            else:
                node = rule.pick(mask, weight, u)
            if rule is not None:
                weight -= weights[node]
            cut_now += 2 * (neighbors[node] & mask).bit_count() - degrees[node]
            kind = RECOVERY
        mask ^= 1 << node
        times.append(t)
        kinds.append(kind)
        nodes.append(node)

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
    from the curing tables that it takes from a target, a weight rule or,
    for a policy with neither, the checked allocation: the total rate,
    the running rates of the next bags (each healthy node u in node order,
    at β·|N(u) ∩ A| as running integer counts times β, so the infection
    part ends at exactly β·cut(A); then each cure, from the curing table)
    and the next bags, with the last one repeated for a uniform that
    rounds past the end.
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


def _trajectory(log: EventLog, g: Graph) -> tuple[tuple[float, ...],
                                                  np.ndarray]:
    """Check a log against ``g`` and reconstruct its trajectory.

    Returns the state times (0.0, then each event's time) and the infected
    masks as one read-only ``mask_array``, so entry i is the state after i
    events; each event flips exactly one node, so consecutive masks differ
    in one bit.  Raises ReplayError with the offending event index on any
    inconsistency, and InvalidBagError when the initial bag lies outside
    ``g``.

    The log keeps the result for the graph object ``g``, in an attribute
    that no field, ``==``, ``hash`` or serialization reads, and later
    calls with ``g`` return it; another graph object gets a new pass, and
    a pass that raises keeps nothing.
    """
    kept = log.__dict__.get("_replayed")
    if kept is not None and kept[0] is g:
        return kept[1], kept[2]
    times, masks = _replay_pass(log, g)
    masks.flags.writeable = False
    object.__setattr__(log, "_replayed", (g, times, masks))
    return times, masks


def _replay_pass(log: EventLog, g: Graph) -> tuple[tuple[float, ...],
                                                   np.ndarray]:
    """One pass of ``_trajectory`` over the log, nothing kept."""
    g.check_bag(log.initial_infected)
    n = g.node_count
    neighbors = g.neighbor_masks
    mask = log.initial_infected.mask
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
        masks.append(mask)
    if mask != log.final.mask:
        raise ReplayError(
            f"final state {Bag.from_mask(mask)!r} does not match recorded "
            f"{log.final!r}", len(masks) - 1)
    return (0.0, *log.times), mask_array(masks, n)


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
