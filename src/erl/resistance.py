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
import struct
from dataclasses import dataclass

import numpy as np

from .crusade import Crusade
from .errors import CapacityError, ErlError, InvalidBagError
from .graph import (Bag, Graph, _narrow_cut_table, cut, cut_table, halves,
                    members, rowwise, toggle_delta)

LATTICE_CAP = 20    # full 2^n tables
ORACLE_CAP = 10     # literal state-graph search
UNREACHED = int(np.iinfo(np.uint16).max)
NO_STEP = int(np.iinfo(np.uint8).max)    # witness search: bag not reached

MAGIC = b"RGT1"


def _require_cap(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise CapacityError(f"{what} is capped at n <= {cap}, got n = {n}")


def _superset(x: np.ndarray, nodes: range, ufunc) -> np.ndarray:
    """In place, x[C] = ``ufunc`` over x[D] for the D ⊇ C that add only
    ``nodes``: pass v folds the with-v half into the without-v half in one
    ``rowwise`` call on its ``halves``, made over the transposed views
    where rows are short."""
    for v in nodes:
        without, with_v = halves(x, v)
        rowwise(ufunc, without, with_v, out=without)
    return x


def _step(m: np.ndarray, nodes: range, ufunc) -> np.ndarray:
    """out[A] = ``ufunc`` over m[A] and m[A - v] for v in A ∩ ``nodes``:
    pass v folds m's without-v half into out's with-v half."""
    out = m.copy()
    for v in nodes:
        with_v = halves(out, v)[1]
        rowwise(ufunc, with_v, halves(m, v)[0], out=with_v)
    return out


def superset_min(values: np.ndarray, n: int) -> np.ndarray:
    """m[C] = min over D ⊇ C of values[D], via the n-pass lattice sweep."""
    return _superset(values.copy(), range(n), np.minimum)


def step_min(values: np.ndarray, n: int) -> np.ndarray:
    """out[A] = min over {B : |A \\ B| <= 1} of values[B]: the minimum of
    m[A] and of m[A - v] over v in A, where m is the superset minimum."""
    return _step(superset_min(values, n), range(n), np.minimum)


def _bellman_rhs(values: np.ndarray, cut_t: np.ndarray, n: int) -> np.ndarray:
    """One application of the fixed-point operator to ``values``, in the
    dtype of ``np.maximum(cut_t, values)``.  The superset fold runs in
    place on that fresh maximum, so a call holds two arrays of its size:
    the fold and the one-removal output."""
    h = _superset(np.maximum(cut_t, values), range(n), np.minimum)
    return _step(h, range(n), np.minimum)


def _narrowed(cut_t: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``cut_t`` and ``values`` in the narrowest integer dtype that holds
    every entry of both, their minimum and their maximum: uint8 for every
    table value iteration builds, since a cut and a resistance are at most
    floor(n^2 / 4), 100 at n = 20.  An array already in that dtype is
    returned as it is, not copied; the callers only read them."""
    lo = min(int(cut_t.min()), int(values.min()))
    hi = max(int(cut_t.max()), int(values.max()))
    # the signed dtype holding -1 - hi also holds hi
    work = np.min_scalar_type(hi if lo >= 0 else min(lo, -1 - hi))
    return cut_t.astype(work, copy=False), values.astype(work, copy=False)


def _lookup_masks(masks: np.ndarray, n: int) -> np.ndarray:
    """``masks`` as an array, if every entry is an int mask in 0..2^n - 1:
    an integer dtype, or an object array of ints as ``graph.mask_array``
    makes above 64 nodes.  Anything else is refused with InvalidBagError,
    as ``_lookup_mask`` refuses a single bag."""
    masks = np.asarray(masks)
    if masks.dtype == object:
        ints = all(isinstance(m, (int, np.integer)) and not isinstance(m, bool)
                   for m in masks.flat)
    else:
        ints = masks.dtype.kind in "iu"
    if not ints or masks.size and (masks.min() < 0 or masks.max() >> n):
        raise InvalidBagError(f"gammas needs an integer array of masks in "
                              f"0..2^{n} - 1, got {masks!r}")
    return masks.astype(np.uint64) if masks.dtype == object and n <= 64 else masks


def _lookup_mask(bag, n: int) -> int:
    """The mask of ``bag``, a ``Bag`` or an int mask (numpy ints too), on a
    graph of n nodes; anything else, and any mask outside 0..2^n - 1, is
    refused with InvalidBagError."""
    mask = bag.mask if isinstance(bag, Bag) else bag
    if (not isinstance(mask, (int, np.integer)) or isinstance(mask, bool)
            or not 0 <= mask < 1 << n):
        raise InvalidBagError(f"gamma needs a Bag or an int mask in "
                              f"0..2^{n} - 1, got {bag!r}")
    return int(mask)


class ResistanceTable:
    """gamma(A) for every bag of a graph, indexed by bag bitmask.

    A table from ``resistance_table`` also keeps two things its builder
    already computed: its graph's removal-only values, uint8 by bag mask,
    in ``_monotone`` for ``witness_crusade``, and in ``_fixed_point`` the
    ``check_bellman`` report of its last value-iteration round, with the
    array it certifies.  Its ``values`` and ``_monotone`` are read-only, so
    that the report cannot go stale.  Neither is serialized, compared or
    passed to the constructor; every other table (loaded, hand-built,
    copied) has None there.
    """

    _monotone: np.ndarray | None = None
    _fixed_point: tuple[np.ndarray, BellmanCheck] | None = None

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
        return int(self.values[_lookup_mask(bag, self.node_count)])

    def gammas(self, masks: np.ndarray) -> np.ndarray:
        """gamma of every bag of a mask array (``graph.mask_array``)."""
        return self._gammas(_lookup_masks(masks, self.node_count))

    def _gammas(self, masks: np.ndarray) -> np.ndarray:
        """``gammas`` without its check, for masks already checked."""
        return self.values[masks]

    @property
    def cutwidth(self) -> int:
        return int(self.values[-1])

    def dump_binary(self) -> bytes:
        """``RGT1``, n as little-endian uint32, then the values as
        little-endian uint16, with one copy of a uint16 table's values."""
        body = np.ascontiguousarray(self.values, dtype="<u2")
        return MAGIC + struct.pack("<I", self.node_count) + memoryview(body)

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
        """``bag_bitmask,gamma`` and then one ``mask,gamma`` line per bag,
        in mask order.

        The lines are one uint8 matrix with a row per bag: the mask's and
        gamma's digits right-aligned in fixed-width fields, padded with NUL
        bytes that are deleted once at the end.
        """
        masks = _ascending_decimal(len(self.values))
        gammas = _ascending_decimal(int(self.values.max()) + 1)[self.values]
        comma = masks.shape[1]
        lines = np.empty((len(masks), comma + gammas.shape[1] + 2),
                         dtype=np.uint8)
        lines[:, :comma] = masks
        lines[:, comma] = ord(",")
        lines[:, comma + 1:-1] = gammas
        lines[:, -1] = ord("\n")
        return "bag_bitmask,gamma\n" + \
            lines.tobytes().translate(None, b"\0").decode("ascii")


def _ascending_decimal(count: int) -> np.ndarray:
    """0, 1, ..., count - 1 in ASCII decimal, one number per row of a
    (count, width) uint8 matrix, right-aligned and padded with NUL bytes.

    The digit at place p of x is (x // p) % 10, so its column is 0..9
    repeated p times each; x has a leading zero there exactly when x < p.
    """
    width = len(str(count - 1))
    text = np.empty((count, width), dtype=np.uint8)
    for j in range(width):
        place = 10 ** (width - 1 - j)
        digits = np.arange(-(-count // place)) % 10 + ord("0")
        text[:, j] = np.repeat(digits.astype(np.uint8), place)[:count]
        if place > 1:
            text[:place, j] = 0
    return text


def _value_iteration(g: Graph, start: np.ndarray,
                     cut_t: np.ndarray) -> ResistanceTable:
    """Apply the fixed-point operator from ``start`` until nothing changes.

    ``start`` must bound gamma from above with ``start[0] == 0``; it is not
    modified, and the returned table never shares its array.  ``cut_t``
    holds ``g``'s cuts in any integer dtype; it is not modified either.

    The rounds run on both in the dtype ``_narrowed`` picks (uint8 for
    every start this module passes), copied only where they are not in it
    already, and the fixed point is returned as uint16, like every table.
    Each round holds the cut table, the iterate, the operator's fold and
    its one-removal output, one byte per bag each on uint8.  The last
    round applied the operator to the values it returns, so its
    ``check_bellman`` report is kept on the table as ``_fixed_point`` and
    the values are made read-only.
    """
    n = g.node_count
    cut_t, gamma = _narrowed(cut_t, start)
    rounds = 0
    while True:
        rounds += 1
        rhs = _bellman_rhs(gamma, cut_t, n)
        if not (rhs < gamma).any():
            break
        # a new iterate rather than one written into rhs: it holds the
        # same bytes, but the tables benchmark's peak RSS read 1.1-1.5 MB
        # higher with the in-place form (2-core VM, glibc malloc)
        gamma = np.minimum(gamma, rhs)
        del rhs    # not held through the next round's operator
    check = _fixed_point_check(gamma, rhs)
    del rhs    # not held beside the uint16 copy
    values = gamma.astype(np.uint16)
    values.flags.writeable = False
    table = ResistanceTable(g, values, converged_rounds=rounds)
    table._fixed_point = (values, check)
    return table


def resistance_table(g: Graph) -> ResistanceTable:
    """gamma(A) for all 2^n bags by value iteration from the monotone
    table (n <= 20).  Both read one uint8 cut table, and the returned table
    keeps the monotone values (uint8) as its ``_monotone``, and its own
    ``check_bellman`` report; both arrays are read-only."""
    _require_cap(g.node_count, LATTICE_CAP, "resistance_table")
    cut_t = _narrow_cut_table(g)
    mg = _monotone_values(g, cut_t)
    table = _value_iteration(g, mg, cut_t)
    mg.flags.writeable = False
    table._monotone = mg
    return table


# Nodes below BLOCK_NODES index the columns of the monotone DP's blocks
# and the others its rows.  Milliseconds for the DP on random_regular:n,3
# (seed 1) from its uint8 cut table at each width w, the fastest of 15
# calls (5 at n = 22, 3 at n = 24) taken in turn, on 2 cores of a shared
# VM with numpy 2.4:
#
#     n     w=6    w=7    w=8    w=9    w=10
#     16    1.0    1.0    1.0    1.2    1.4
#     18    2.1    1.8    1.9    2.1    2.5
#     20    5.6    4.7    4.3    4.6    5.7
#     22     26     22     19     19     20
#     24    202    123    113    100    102
#
# (The DP called directly at n = 22 and 24.)  Narrower blocks add row
# layers and shorten the whole-row gathers; wider ones add column layers.
# w = 7 edges ahead at n = 18, but w = 8 is the fastest at n = 20, the
# size whose DP costs most in the pipeline, and within noise at 16 and 18.
BLOCK_NODES = 8
UNREACHED8 = int(np.iinfo(np.uint8).max)    # the monotone DP's "unreached"
# Bytes of a layer's rows the monotone DP transposes into its block at a
# time: a (924, 256) uint8 transpose took 0.29 ms whole and 0.09 ms in
# tiles of 128 rows, whose 32 kB stay in the core's first-level cache
# while their columns are written out.
TILE_BYTES = 1 << 15


@functools.cache
def _popcount_steps(m: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The m-bit masks by popcount k = 0..m, each as (layer, reads).

    ``layer`` holds the masks with k bits set, ascending.  ``reads`` is a
    (k + 1, len(layer)) array: row 0 is ``layer + 2^m``, and row j >= 1
    holds each mask with its j-th lowest set bit cleared, its
    predecessors one removal down.  So ``reads[1:]`` indexes a table of
    2^m lines, and all of ``reads`` one of 2^(m + 1) lines whose upper
    half stands beside the lower.  Built once per width and shared by
    every caller, so both arrays are read-only.
    """
    pops = np.bitwise_count(np.arange(1 << m))
    steps = []
    for k in range(m + 1):
        layer = np.flatnonzero(pops == k)
        i, v = np.nonzero(layer[:, None] >> np.arange(m) & 1)
        preds = (layer[i] ^ (1 << v)).reshape(len(layer), k).T
        reads = np.concatenate([layer[None] + (1 << m), preds])
        layer.flags.writeable = reads.flags.writeable = False
        steps.append((layer, reads))
    return tuple(steps)


def monotone_resistance_table(g: Graph) -> ResistanceTable:
    """The removal-only table: mg(A) = min over v in A of max(cut(A - v),
    mg(A - v)), with mg of the empty bag 0.

    The full-set entry is the classical deletion-ordering CutWidth.  With
    h = max(cut, mg), the table is viewed as a (2^(n-w), 2^w) matrix for
    w = BLOCK_NODES: a row is a bag of the high n - w nodes and a column
    a bag of the low w nodes.  Rows go one popcount layer at a time, so
    every row one high node smaller is finished when a layer starts:
    ``best``, the minimum over high v of the whole rows of h without v,
    takes one contiguous 2^w-byte gather per row and predecessor.  Inside
    the layer the low nodes run the same recurrence one column popcount
    layer at a time, vectorised over the layer's rows.  The layer's block
    is held transposed, h of its columns in 2^w lines and their running
    minimum (first ``best``, then mg) in 2^w more, so that a column is a
    contiguous line, and a column layer reads its own running minimum
    and h of all its predecessors one low node smaller in one gather and
    one ``np.minimum.reduce``.  Rows go into the block in tiles of
    TILE_BYTES.  Both orders visit every A - v before A, so each entry is
    the exact minimum over all n removals.

    Work arrays are uint8, with UNREACHED8 = 255 left only in the empty
    high bag's row, which has no high predecessor: a cut is at most
    floor(n^2 / 4), 100 at n = 20 and 144 at n = 24, so uint8 holds every
    value.  The values are returned as uint16, like every table.  The cost
    is O(n 2^n) byte operations, in about a thousand numpy calls at
    n = 20 (1,700 with a gather per column predecessor).  Besides the
    table and its uint8 cut table, the only index lists are
    the popcount layers of the 2^(n-w) rows and of the 2^w columns with
    their predecessors, built once per width by ``_popcount_steps``.
    """
    _require_cap(g.node_count, LATTICE_CAP, "monotone_resistance_table")
    return ResistanceTable(g, _monotone_values(g, _narrow_cut_table(g)).astype(np.uint16),
                           converged_rounds=1)


def _monotone_values(g: Graph, cut_t: np.ndarray) -> np.ndarray:
    """The values of ``monotone_resistance_table`` as uint8, from
    ``cut_t``, g's cuts (read in place when uint8, as ``_narrow_cut_table``
    builds them), which is not modified."""
    n = g.node_count
    w = min(BLOCK_NODES, n)
    W, step = 1 << w, -(-TILE_BYTES >> w)
    cut_t = cut_t.astype(np.uint8, copy=False).reshape(-1, W)
    mg, h = np.empty_like(cut_t), np.empty_like(cut_t)
    for rows, reads in _popcount_steps(n - w):
        best = np.full((len(rows), W), UNREACHED8, dtype=np.uint8)
        for p in reads[1:]:
            np.minimum(best, h[p], out=best)
        if len(reads) == 1:
            best[0, 0] = 0    # the empty bag
        # the layer's columns, transposed: h, then the running minimum
        block = np.empty((2 * W, len(rows)), dtype=np.uint8)
        cut_b = np.empty((W, len(rows)), dtype=np.uint8)
        for i in range(0, len(rows), step):
            block[W:, i:i + step] = best[i:i + step].T
            cut_b[:, i:i + step] = cut_t[rows[i:i + step]].T
        for cols, col_reads in _popcount_steps(w):
            val = np.minimum.reduce(block[col_reads], axis=0)
            block[W:][cols] = val
            block[cols] = np.maximum(cut_b[cols], val)
        mg[rows] = block[W:].T
        h[rows] = block[:W].T
    return mg.reshape(-1)


def cutwidth(g: Graph) -> int:
    """Resistance of the full node set; cross-checked against the
    removal-only DP, which computes the same number by a theorem of the
    underlying theory.

    The cut table and the monotone table are built once: value iteration
    starts from the monotone table, which ``resistance_table`` keeps, and
    the two full-set entries are compared, so a returned width is also the
    monotone DP's.
    """
    table = resistance_table(g)
    w, mw = table.cutwidth, int(table._monotone[-1])
    if w != mw:
        raise ErlError(f"cutwidth mismatch: nonmonotone {w} vs monotone {mw} "
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


@dataclass(frozen=True)
class BellmanCheck:
    passed: bool
    witness_mask: int | None = None
    lhs: int | None = None
    rhs: int | None = None

    def __repr__(self) -> str:
        if self.passed:
            return "BellmanCheck(passed)"
        return (f"BellmanCheck(failed at bag {self.witness_mask:#x}: "
                f"table {self.lhs} vs operator {self.rhs})")


def _fixed_point_check(values: np.ndarray, rhs: np.ndarray) -> BellmanCheck:
    """The report on ``values`` whose operator output is ``rhs``: the first
    bag in mask order where the two differ, with both sides."""
    diff = rhs != values
    if not diff.any():
        return BellmanCheck(True)
    first = int(diff.argmax())
    return BellmanCheck(False, first, int(values[first]), int(rhs[first]))


def check_bellman(g: Graph, table: ResistanceTable) -> BellmanCheck:
    """Verify the bottleneck fixed-point equation at every bag.

    The right-hand side is recomputed with the superset-min transform, so
    the whole check is O(n 2^n).  Returns the first violating bag (in mask
    order) with both sides on failure.  It is computed in the dtype that
    ``_narrowed`` picks from the cuts and the table's own minimum and
    maximum, uint8 for any table value iteration builds, so a hand-built
    table with entries above 255 or below 0 gets the same report as in
    int64.

    A table from ``resistance_table`` is not recomputed: value iteration's
    last round applied the operator to the values it returned and stored
    this report as the table's ``_fixed_point``.  It is returned while the
    table's ``values`` are still that read-only array; a table made
    writable again, or given other values, is checked afresh, as is every
    loaded, hand-built or copied table.

    The equation is a necessary condition only: the true table is its
    greatest fixed point, but smaller fixed points exist (the identically
    zero table is one, since every bag may step to the zero-cut full set).
    A passing check therefore certifies a table from above; equality with
    the crusade definition is what the brute-force oracle tests establish.

    Raises ErlError when the table is not ``g``'s (wrong size, or built
    for another graph).
    """
    table.require_graph(g)
    gamma = table.values
    if gamma[0] != 0:
        return BellmanCheck(False, 0, int(gamma[0]), 0)
    if table._fixed_point is not None:
        certified, report = table._fixed_point
        if certified is gamma and not gamma.flags.writeable:
            return report
    cut_t, narrow = _narrowed(_narrow_cut_table(g), gamma)
    return _fixed_point_check(narrow, _bellman_rhs(narrow, cut_t, g.node_count))


# Bit-packed bag sets: bag m is bit m % 64 of uint64 word m // 64, so one
# word holds the bags that differ from each other only in nodes 0..5.  Below
# n = 6 the set is one word whose bits from 2^n up (no bag) stay clear.
WORD_NODES = 6
# _WORD_LOW[v]: the bits of a word whose bag lacks node v (v < 6).
_WORD_LOW = tuple(np.uint64(sum(1 << p for p in range(64) if not p >> v & 1))
                  for v in range(WORD_NODES))


def _pack_bags(flags: np.ndarray) -> np.ndarray:
    """A bool array indexed by bag mask, packed into uint64 words."""
    padded = np.zeros(max(len(flags), 64), dtype=bool)
    padded[:len(flags)] = flags
    return np.packbits(padded, bitorder="little").view("<u8")


def _unpack_bags(words: np.ndarray, size: int) -> np.ndarray:
    """The first ``size`` bits of packed bag sets, as uint8 0/1 by bag mask."""
    return np.unpackbits(words.view(np.uint8), count=size, bitorder="little")


def _reach_round(reached: np.ndarray, allowed: np.ndarray, n: int) -> np.ndarray:
    """The bags one crusade step from an allowed bag of ``reached``.

    Both arguments and the result are packed bag sets.  A step from B may
    enter any A with |A \\ B| <= 1, so the allowed reached bags are first
    closed downward (a bag without v gains its with-v partner's bit), then
    each bag with v gains the bit of its without-v partner in that closure.
    Nodes below WORD_NODES are shifts within a word under a constant mask;
    the others are whole words, closed by the ``_superset`` and ``_step``
    of ``step_min`` with OR for min.
    """
    down = reached & allowed
    for v in range(min(n, WORD_NODES)):
        down |= (down >> np.uint64(1 << v)) & _WORD_LOW[v]
    words = range(n - WORD_NODES)
    out = _step(_superset(down, words, np.bitwise_or), words, np.bitwise_or)
    for v in range(min(n, WORD_NODES)):
        out |= (down & _WORD_LOW[v]) << np.uint64(1 << v)
    return out


def _crusade_steps(allowed: np.ndarray, n: int, src: int) -> np.ndarray:
    """Fewest crusade steps from each bag to the empty bag entering only
    ``allowed`` bags, as uint8 with NO_STEP for "not reached", found
    breadth-first outward from the empty bag until ``src`` is reached.

    Round r reaches, in one ``_reach_round`` on packed bag sets, the bags
    one step from an allowed bag reached before it, and writes r into the
    steps of the bags new in it; the others keep their count.
    """
    allowed = _pack_bags(allowed)
    reached = np.zeros_like(allowed)
    reached[0] = 1
    steps = np.full(1 << n, NO_STEP, dtype=np.uint8)
    steps[0] = 0
    rounds = 0
    while steps[src] == NO_STEP:
        rounds += 1
        if rounds == NO_STEP:
            raise ErlError(f"witness crusade needs more than {NO_STEP - 1} "
                           "steps, the limit of its uint8 step counts")
        new = _reach_round(reached, allowed, n) & ~reached
        if not new.any():
            raise ErlError("no crusade within the optimal width reached the "
                           "source (implementation bug)")
        # new bags hold NO_STEP: subtracting NO_STEP - r there writes r
        hits = _unpack_bags(new, 1 << n)
        hits *= np.uint8(NO_STEP - rounds)
        steps -= hits
        reached |= new
    return steps


def witness_crusade(g: Graph, table: ResistanceTable, a: Bag) -> Crusade:
    """A concrete optimal crusade from ``a`` to the empty bag.

    Walks a shortest crusade among those of optimal width t = gamma(a):
    every entered bag has cut at most t.  Ties prefer fewer remaining
    steps, then smaller bags, then smaller bitmask, so output is
    deterministic.  Two cases split on mg(a), the removal-only value of
    ``a`` (the table's ``_monotone``, else the monotone DP run on ``g``):

    - mg(a) <= t: ``a`` has a removal-only crusade within t, of |a|
      steps, and none is shorter, since a step removes at most one node.
      A bag one step along a shortest crusade then has |a| - 1 nodes, so
      it is some a - v with cut(a - v) <= t and mg(a - v) <= t, and of
      those the tie rule picks the smallest mask, the highest v.  The same
      holds at every later bag, so ``_removal_walk`` takes those removals
      with no step count and no tie key.
    - mg(a) > t: the crusade must grow some bag, and ``_search_walk``
      counts steps by breadth-first search and walks the tie key.

    Both apply the one tie rule, so wherever mg(a) <= t they return the
    same crusade (the tests compare them on every bag of small graphs).
    On a table of gamma the full bag is always in the first case: its
    resistance is the CutWidth, which is mg's full-bag entry.
    """
    _require_cap(g.node_count, LATTICE_CAP, "witness_crusade")
    table.require_graph(g)
    g.check_bag(a)
    t = table.gamma(a)
    mg = table._monotone
    if mg is None:
        mg = _monotone_values(g, _narrow_cut_table(g))
    if int(mg[a.mask]) <= t:
        path = _removal_walk(g, mg, t, a.mask)
    else:
        path = _search_walk(g, t, a.mask)
    return Crusade(tuple(Bag.from_mask(m) for m in path))


def _removal_walk(g: Graph, mg: np.ndarray, t: int, src: int) -> list[int]:
    """The masks of the crusade from ``src`` that removes, at each step,
    the highest node v of the bag with cut(bag - v) <= t and
    mg(bag - v) <= t, for the monotone values ``mg``.

    Needs mg(src) <= t; mg's recurrence then gives every nonempty bag on
    the way such a node.  Cuts follow the walk by ``toggle_delta``.
    """
    path = [src]
    cur, c = src, cut(g, Bag.from_mask(src))
    while cur:
        for v in reversed(members(cur)):
            nxt, c_nxt = cur ^ (1 << v), c + toggle_delta(g, cur, v)
            if c_nxt <= t and int(mg[nxt]) <= t:
                break
        else:
            raise ErlError("witness walk stuck (implementation bug)")
        path.append(nxt)
        cur, c = nxt, c_nxt
    return path


def _search_walk(g: Graph, t: int, src: int) -> list[int]:
    """The masks of the shortest crusade of width at most ``t`` from
    ``src``, under ``witness_crusade``'s tie rule, for any source.

    The step counts come from a breadth-first search on bit-packed bag
    sets, 64 bags to a uint64 word (``_crusade_steps``).  A round asks
    only which bags are one step from an allowed bag reached earlier: two
    boolean lattice sweeps over 2^n / 64 words (about 1 ms at n = 20, a
    seventh of a uint8 ``step_min``), then one unpack of the new bags to
    write the round number into their uint8 step counts.  Below n = 6 all
    2^n bags fit in one word, and its bits from 2^n up must stay clear: a
    stray bit there would count as a newly reached bag and hide the "no
    crusade reached the source" error.  Step counts are uint8 with
    NO_STEP = 255 as "not reached", so a search that would need 255 steps
    or more raises ErlError.

    The (steps, popcount, mask) tie key is uint32 when it fits in 32 bits
    (at n = 20, whenever the longest step count found is below 128) and
    uint64 otherwise.
    """
    n = g.node_count
    size = 1 << n
    allowed = cut_table(g) <= t
    steps = _crusade_steps(allowed, n, src)

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

    path = [src]
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
        path.append(nxt)
        cur = nxt
    return path


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

    def require_graph(self, g: Graph) -> None:
        """Raise ErlError unless ``g`` is the complete graph this lookup was
        built for."""
        if g != self.graph:
            raise ErlError("table was built for a different graph")

    def gamma(self, bag) -> int:
        return self.by_size[_lookup_mask(bag, self.node_count).bit_count()]

    def gammas(self, masks: np.ndarray) -> np.ndarray:
        """gamma of every bag of a mask array (``graph.mask_array``)."""
        return self._gammas(_lookup_masks(masks, self.node_count))

    def _gammas(self, masks: np.ndarray) -> np.ndarray:
        """``gammas`` without its check, for masks already checked."""
        return np.array(self.by_size)[np.bitwise_count(masks).astype(np.intp)]

    @property
    def cutwidth(self) -> int:
        return self.by_size[self.node_count]
