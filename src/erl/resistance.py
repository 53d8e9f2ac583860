"""Exact resistance tables, CutWidth, and independent brute-force oracles.

The resistance of a bag is the minimum, over all crusades from the bag to
the empty set, of the maximum cut entered along the way (the starting bag's
own cut does not count).  The resistance of the full node set is the
CutWidth of the graph.

The main algorithm is value iteration on the bottleneck fixed-point
equation

    gamma(A) = min over {B : |A \\ B| <= 1} of max(cut(B), gamma(B))

with the exponentially large successor set collapsed to n+1 lookups per bag
by a superset-minimum lattice transform.  Iteration starts from the
removal-only (monotone) table.  That start is exact: a removal-only crusade
is a crusade, so the monotone table bounds gamma from above at every bag;
the operator is monotone, so the iterates stay above gamma while they fall;
and entries only decrease and are bounded below by zero, so iteration
terminates at the greatest fixed point, which is the crusade-definition
value.  It converges in one or two rounds where a start from "unreached"
everywhere needs n + 1; the round count is recorded but nothing relies on it.
"""

from __future__ import annotations

import functools
import heapq
import io
import struct

import numpy as np

from .crusade import Crusade
from .errors import CapacityError, ErlError
from .graph import Bag, Graph, cut_table, halves, rowwise

LATTICE_CAP = 20    # full 2^n tables
ORACLE_CAP = 10     # literal state-graph search
UNREACHED = int(np.iinfo(np.uint16).max)
NO_STEP = int(np.iinfo(np.uint8).max)    # witness search: bag not reached

MAGIC = b"RGT1"


def _require_cap(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise CapacityError(
            f"{what} is capped at n <= {cap}, got n = {n}; "
            "use brute_force_resistance for single-source queries on small graphs")


def superset_min(values: np.ndarray, n: int) -> np.ndarray:
    """m[C] = min over D ⊇ C of values[D], via the n-pass lattice sweep.

    Pass v lowers the entry of each bag without v to that of the bag with
    v added, in place on the without-v half (``halves``/``rowwise``, column
    by column where rows are short).
    """
    m = values.copy()
    for v in range(n):
        without, with_v = halves(m, v)
        rowwise(np.minimum, without, with_v, out=without)
    return m


def step_min(values: np.ndarray, n: int) -> np.ndarray:
    """out[A] = min over {B : |A \\ B| <= 1} of values[B].

    That is the minimum of m[A] and of m[A - v] over v in A, where m is the
    superset minimum.  Per node v the with-v half of the output reads the
    without-v half of m (``halves``/``rowwise``); bags without v are
    skipped, because for them A - v is A itself.
    """
    m = superset_min(values, n)
    out = m.copy()
    for v in range(n):
        with_v = halves(out, v)[1]
        rowwise(np.minimum, with_v, halves(m, v)[0], out=with_v)
    return out


def _bellman_rhs(values: np.ndarray, cut_t: np.ndarray, n: int) -> np.ndarray:
    """One application of the fixed-point operator to ``values``."""
    return step_min(np.maximum(cut_t, values), n)


class ResistanceTable:
    """gamma(A) for every bag of a graph, indexed by bag bitmask."""

    def __init__(self, graph: Graph | None, values: np.ndarray, converged_rounds: int):
        self.graph = graph
        self.values = values
        self.converged_rounds = converged_rounds

    @property
    def node_count(self) -> int:
        return len(self.values).bit_length() - 1

    def require_graph(self, g: Graph) -> None:
        """Raise ErlError unless this table can be read as ``g``'s: it has
        2^n entries, and it was built for ``g`` or for no graph in
        particular."""
        size = 1 << g.node_count
        if len(self.values) != size:
            raise ErlError(f"table does not match graph size: {len(self.values)} "
                           f"entries, a graph on {g.node_count} nodes has "
                           f"{size} bags")
        if self.graph is not None and self.graph != g:
            raise ErlError("table was built for a different graph")

    def gamma(self, bag) -> int:
        mask = bag.mask if isinstance(bag, Bag) else int(bag)
        return int(self.values[mask])

    @property
    def cutwidth(self) -> int:
        return int(self.values[-1])

    def dump_binary(self) -> bytes:
        return MAGIC + struct.pack("<I", self.node_count) + \
            self.values.astype("<u2").tobytes()

    @classmethod
    def load_binary(cls, data: bytes, graph: Graph | None = None) -> "ResistanceTable":
        if data[:4] != MAGIC:
            raise ErlError("bad magic bytes in table dump")
        if len(data) < 8:
            raise ErlError("table dump ends inside its header")
        (n,) = struct.unpack("<I", data[4:8])
        if n > LATTICE_CAP:
            raise ErlError(f"table dump declares n={n}, above the cap "
                           f"n <= {LATTICE_CAP}")
        body = data[8:]
        if len(body) != 2 << n:
            raise ErlError(f"table dump for n={n} has wrong length {len(body)}")
        values = np.frombuffer(body, dtype="<u2").astype(np.uint16)
        table = cls(graph, values, converged_rounds=0)
        if graph is not None:
            table.require_graph(graph)
        return table

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("bag_bitmask,gamma\n")
        for mask, g in enumerate(self.values):
            out.write(f"{mask},{g}\n")
        return out.getvalue()


def _value_iteration(g: Graph, start: np.ndarray) -> ResistanceTable:
    """Apply the fixed-point operator from ``start`` until nothing changes.

    ``start`` must bound gamma from above with ``start[0] == 0``; it is not
    modified, and the returned table never shares its array.
    """
    n = g.node_count
    cut_t = cut_table(g)
    gamma = start
    rounds = 0
    while True:
        rounds += 1
        new = np.minimum(gamma, _bellman_rhs(gamma, cut_t, n))
        if np.array_equal(new, gamma):
            return ResistanceTable(g, new, converged_rounds=rounds)
        gamma = new


def resistance_table(g: Graph) -> ResistanceTable:
    """gamma(A) for all 2^n bags by value iteration from the monotone
    table (n <= 20)."""
    _require_cap(g.node_count, LATTICE_CAP, "resistance_table")
    return _value_iteration(g, monotone_resistance_table(g).values)


@functools.cache
def _popcount_layers(n: int) -> tuple[np.ndarray, ...]:
    """The bags of each size k = 0..n as ascending uint32 masks (read-only,
    built once per n)."""
    masks = np.arange(1 << n, dtype=np.uint32)
    pops = np.bitwise_count(masks)
    order = np.argsort(pops, kind="stable").astype(np.uint32)
    order.setflags(write=False)
    bounds = np.cumsum(np.bincount(pops, minlength=n + 1))[:-1]
    return tuple(np.split(order, bounds))


def monotone_resistance_table(g: Graph) -> ResistanceTable:
    """DP over subsets in increasing size order; removal-only crusades.

    The full-set entry is the classical deletion-ordering CutWidth.  Layer
    by layer, mg(A) is the minimum over v of h(A xor v), where h holds
    max(cut, mg) on the finished layers and UNREACHED elsewhere: for v in A
    that is the step to A - v, and for v not in A it reads the next,
    unfinished layer and changes nothing.
    """
    n = g.node_count
    _require_cap(n, LATTICE_CAP, "monotone_resistance_table")
    cut_t = cut_table(g)
    mg = np.full(1 << n, UNREACHED, dtype=np.uint16)
    h = mg.copy()
    mg[0] = h[0] = 0
    for layer in _popcount_layers(n)[1:]:
        best = np.full(layer.shape, UNREACHED, dtype=np.uint16)
        sub = np.empty_like(layer)
        cand = np.empty_like(best)
        for v in range(n):
            np.bitwise_xor(layer, np.uint32(1 << v), out=sub)
            np.take(h, sub, out=cand)
            np.minimum(best, cand, out=best)
        mg[layer] = best
        h[layer] = np.maximum(cut_t[layer], best)
    return ResistanceTable(g, mg, converged_rounds=1)


def cutwidth(g: Graph) -> int:
    """Resistance of the full node set; cross-checked against the
    removal-only DP, which computes the same number by a theorem of the
    underlying theory.

    The monotone table is built once: value iteration starts from it, and
    the two full-set entries are compared, so a returned width is also the
    monotone DP's.
    """
    _require_cap(g.node_count, LATTICE_CAP, "resistance_table")
    mono = monotone_resistance_table(g)
    w = _value_iteration(g, mono.values).cutwidth
    if w != mono.cutwidth:
        raise ErlError(
            f"cutwidth mismatch: nonmonotone {w} vs monotone {mono.cutwidth} "
            "(implementation bug)")
    return w


def brute_force_resistance(g: Graph, a: Bag) -> int:
    """Independent single-source oracle (n <= 10).

    Literal minimax search on the full state digraph: from bag A, drop one
    member (or none), then extend by every superset; edge cost is the cut of
    the entered bag; label-setting in increasing bottleneck value.
    """
    n = g.node_count
    _require_cap(n, ORACLE_CAP, "brute_force_resistance")
    g.check_bag(a)
    cut_t = cut_table(g)
    full = (1 << n) - 1
    src = a.mask
    dist = {src: 0}
    heap = [(0, src)]
    settled = set()
    while heap:
        d, x = heapq.heappop(heap)
        if x in settled:
            continue
        settled.add(x)
        if x == 0:
            return d
        bases = [x] + [x & ~(1 << v) for v in range(n) if (x >> v) & 1]
        for base in bases:
            free = full & ~base
            s = free
            while True:
                b = base | s
                nd = max(d, int(cut_t[b]))
                if nd < dist.get(b, UNREACHED):
                    dist[b] = nd
                    heapq.heappush(heap, (nd, b))
                if s == 0:
                    break
                s = (s - 1) & free
    raise ErlError("unreachable: the empty bag is reachable from every bag")


def brute_force_resistance_all(g: Graph) -> np.ndarray:
    """Oracle distances from every bag at once (n <= 10).

    Label-setting outward from the empty bag over reversed steps, with
    in-neighbors enumerated literally (every subset of the settled bag,
    optionally plus one outside node).
    """
    n = g.node_count
    _require_cap(n, ORACLE_CAP, "brute_force_resistance_all")
    cut_t = cut_table(g)
    dist = np.full(1 << n, UNREACHED, dtype=np.int64)
    dist[0] = 0
    settled = np.zeros(1 << n, dtype=bool)
    heap = [(0, 0)]
    while heap:
        d, y = heapq.heappop(heap)
        if settled[y]:
            continue
        settled[y] = True
        cand = max(d, int(cut_t[y]))
        outside = [1 << w for w in range(n) if not (y >> w) & 1]
        s = y
        while True:
            if cand < dist[s]:
                dist[s] = cand
                heapq.heappush(heap, (cand, s))
            for wbit in outside:
                z = s | wbit
                if cand < dist[z]:
                    dist[z] = cand
                    heapq.heappush(heap, (cand, z))
            if s == 0:
                break
            s = (s - 1) & y
    return dist


class BellmanCheck:
    def __init__(self, passed: bool, witness_mask: int | None = None,
                 lhs: int | None = None, rhs: int | None = None):
        self.passed = passed
        self.witness_mask = witness_mask
        self.lhs = lhs
        self.rhs = rhs

    def __repr__(self) -> str:
        if self.passed:
            return "BellmanCheck(passed)"
        return (f"BellmanCheck(failed at bag {self.witness_mask:#x}: "
                f"table {self.lhs} vs operator {self.rhs})")


def check_bellman(g: Graph, table: ResistanceTable) -> BellmanCheck:
    """Verify the bottleneck fixed-point equation at every bag.

    The right-hand side is recomputed with the superset-min transform, so
    the whole check is O(n 2^n).  Returns the first violating bag (in mask
    order) with both sides on failure.

    The equation is a necessary condition only: the true table is its
    greatest fixed point, but smaller fixed points exist (the identically
    zero table is one, since every bag may step to the zero-cut full set).
    A passing check therefore certifies a table from above; equality with
    the crusade definition is what the brute-force oracle tests establish.

    Raises ErlError when the table is not ``g``'s (wrong size, or built
    for another graph).
    """
    table.require_graph(g)
    n = g.node_count
    gamma = table.values
    if gamma[0] != 0:
        return BellmanCheck(False, 0, int(gamma[0]), 0)
    rhs = _bellman_rhs(gamma, cut_table(g), n)
    bad = np.nonzero(rhs != gamma)[0]
    if bad.size:
        first = int(bad[0])
        return BellmanCheck(False, first, int(gamma[first]), int(rhs[first]))
    return BellmanCheck(True)


def witness_crusade(g: Graph, table: ResistanceTable, a: Bag) -> Crusade:
    """A concrete optimal crusade from ``a`` to the empty bag.

    Walks a shortest crusade among those of optimal width: every entered bag
    has cut at most gamma(a).  Ties prefer fewer remaining steps, then
    smaller bags, then smaller bitmask, so output is deterministic.

    Step counts are uint8 with NO_STEP = 255 as "not reached", so a search
    that would need 255 steps or more raises ErlError.  The (steps,
    popcount, mask) tie key is uint32 when it fits in 32 bits (at n = 20,
    whenever the longest step count found is below 128) and uint64
    otherwise.
    """
    n = g.node_count
    _require_cap(n, LATTICE_CAP, "witness_crusade")
    table.require_graph(g)
    g.check_bag(a)
    if a.mask == 0:
        return Crusade((a,))
    t = table.gamma(a)
    size = 1 << n
    allowed = cut_table(g) <= t

    # Breadth-first: round r reaches the bags r steps from the empty bag,
    # so finite counts stay below the round count and the +1 cannot wrap.
    steps = np.full(size, NO_STEP, dtype=np.uint8)
    steps[0] = 0
    src = a.mask
    rounds = 0
    while steps[src] == NO_STEP:
        rounds += 1
        if rounds == NO_STEP:
            raise ErlError(f"witness crusade needs more than {NO_STEP - 1} "
                           "steps, the limit of its uint8 step counts")
        near = step_min(np.where(allowed, steps, NO_STEP), n)
        nxt = np.minimum(steps, np.minimum(near, NO_STEP - 1) + 1)
        if np.array_equal(nxt, steps):
            raise ErlError("no crusade within the optimal width reached the "
                           "source (implementation bug)")
        steps = nxt

    # Composite key packs (steps, popcount, mask) so one superset-min gives
    # the lexicographic argmin over supersets; popcount <= 20 fits 5 bits.
    keyed = allowed & (steps != NO_STEP)
    top = int(steps.max(where=keyed, initial=0))
    kt = np.uint32 if top.bit_length() + 5 + n <= 32 else np.uint64
    none = int(np.iinfo(kt).max)
    key = np.arange(size, dtype=kt)
    key |= np.bitwise_count(key).astype(kt) << kt(n)
    key |= steps.astype(kt) << kt(n + 5)
    key[~keyed] = none
    km = superset_min(key, n)

    bags = [a]
    cur = src
    while cur:
        best = int(km[cur])
        for v in range(n):
            if (cur >> v) & 1:
                best = min(best, int(km[cur & ~(1 << v)]))
        if best == none:
            raise ErlError("witness walk stuck (implementation bug)")
        nxt = best & (size - 1)
        if best >> (n + 5) != int(steps[cur]) - 1:
            raise ErlError("witness walk did not shorten (implementation bug)")
        bags.append(Bag.from_mask(nxt))
        cur = nxt
    return Crusade(tuple(bags))


class CompleteGraphResistance:
    """Closed-form resistance lookup for complete graphs, any size.

    On a complete graph every bag of a given size has the same cut, a
    crusade's size sequence steps down by at most one per step, and growing
    the bag never helps, so gamma depends only on bag size:
    gamma(|A| = k) = max over 1 <= j <= k-1 of j(n-j).  Cross-checked
    against the dense table for small n in the test suite.
    """

    def __init__(self, graph: Graph):
        n = graph.node_count
        if len(graph.edges) != n * (n - 1) // 2:
            raise ErlError("CompleteGraphResistance needs a complete graph")
        self.graph = graph
        by_size = [0] * (n + 1)
        best = 0
        for k in range(2, n + 1):
            j = k - 1
            best = max(best, j * (n - j))
            by_size[k] = best
        self.by_size = by_size

    @property
    def node_count(self) -> int:
        return self.graph.node_count

    def gamma(self, bag) -> int:
        mask = bag.mask if isinstance(bag, Bag) else int(bag)
        return self.by_size[mask.bit_count()]

    @property
    def cutwidth(self) -> int:
        return self.by_size[self.node_count]
