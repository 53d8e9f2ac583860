"""Undirected bounded-degree graphs and node-subset (bag) arithmetic.

Bags are canonically encoded as integer bitmasks (bit v set = node v is a
member).  Python integers are arbitrary precision, so the same encoding
serves every graph size; full-lattice tables elsewhere in the package are
what carry size caps, not the encoding.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator

import numpy as np

from .errors import GenerationError, GraphParseError, InvalidBagError

# Generator kinds and the number of integer parameters each takes.
GENERATOR_ARITY = {
    "line": 1,
    "cycle": 1,
    "star": 1,
    "complete": 1,
    "hypercube": 1,
    "grid": 2,
    "random_regular": 2,
}

# generate builds at most this many nodes and at most this many edges.
GENERATE_CAP = 100_000

# Node and edge counts of a family member, from its parameters clamped at
# zero (the family checks reject negative ones); a hypercube past d = 64
# is as far over the cap as d = 64, and 1 << 64 stays cheap to form.
_SIZE_OF = {
    "line": lambda n: (n, n - 1),
    "cycle": lambda n: (n, n),
    "star": lambda leaves: (leaves + 1, leaves),
    "complete": lambda n: (n, n * (n - 1) // 2),
    "hypercube": lambda d: (1 << min(d, 64), d << min(d, 64) >> 1),
    "grid": lambda rows, cols: (rows * cols, 2 * rows * cols - rows - cols),
    "random_regular": lambda n, d: (n, n * d // 2),
}


def members(mask: int) -> list[int]:
    """The nodes of the bag ``mask`` in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Bag:
    """Immutable subset of nodes, stored as a bitmask."""

    __slots__ = ("mask",)

    def __init__(self, nodes: Iterable[int] = ()):
        mask = 0
        for v in nodes:
            if v < 0:
                raise InvalidBagError(f"negative node id {v}")
            mask |= 1 << v
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_mask(cls, mask: int) -> "Bag":
        if mask < 0:
            raise InvalidBagError("negative bitmask")
        bag = cls.__new__(cls)
        object.__setattr__(bag, "mask", mask)
        return bag

    def __setattr__(self, name, value):
        raise AttributeError("Bag is immutable")

    def __reduce__(self):
        return (Bag.from_mask, (self.mask,))

    def nodes(self) -> tuple[int, ...]:
        return tuple(members(self.mask))

    def __iter__(self) -> Iterator[int]:
        return iter(members(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, v: int) -> bool:
        return v >= 0 and (self.mask >> v) & 1 == 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Bag) and self.mask == other.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    def __repr__(self) -> str:
        return f"Bag({{{', '.join(map(str, self))}}})"

    def __or__(self, other: "Bag") -> "Bag":
        return Bag.from_mask(self.mask | other.mask)

    def __and__(self, other: "Bag") -> "Bag":
        return Bag.from_mask(self.mask & other.mask)

    def __sub__(self, other: "Bag") -> "Bag":
        return Bag.from_mask(self.mask & ~other.mask)

    def __xor__(self, other: "Bag") -> "Bag":
        return Bag.from_mask(self.mask ^ other.mask)

    def add(self, v: int) -> "Bag":
        return Bag.from_mask(self.mask | (1 << v))

    def remove(self, v: int) -> "Bag":
        return Bag.from_mask(self.mask & ~(1 << v))

    def issubset(self, other: "Bag") -> bool:
        return self.mask & ~other.mask == 0


EMPTY_BAG = Bag.from_mask(0)


class Graph:
    """Immutable undirected graph on nodes 0..n-1 with a declared degree bound.

    ``degree_bound`` defaults to the exact maximum degree; a larger value may
    be declared (never a smaller one) because size-sensitive inequalities are
    stated in terms of the declared bound.
    """

    __slots__ = ("node_count", "edges", "adjacency", "degree_bound", "full_mask")

    def __init__(self, node_count: int, edges: Iterable[tuple[int, int]],
                 degree_bound: int | None = None):
        if node_count < 1:
            raise GenerationError("graph needs at least one node")
        adj: list[list[int]] = [[] for _ in range(node_count)]
        edge_set: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise GraphParseError(f"self-loop at node {u}")
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise GraphParseError(f"edge ({u}, {v}) out of range 0..{node_count - 1}")
            e = (u, v) if u < v else (v, u)
            if e in edge_set:
                raise GraphParseError(f"duplicate edge ({e[0]}, {e[1]})")
            edge_set.add(e)
            adj[u].append(v)
            adj[v].append(u)
        max_degree = max((len(a) for a in adj), default=0)
        if degree_bound is None:
            degree_bound = max_degree
        elif degree_bound < max_degree:
            raise GraphParseError(
                f"declared degree bound {degree_bound} below actual maximum {max_degree}")
        object.__setattr__(self, "node_count", node_count)
        object.__setattr__(self, "edges", frozenset(edge_set))
        object.__setattr__(self, "adjacency", tuple(tuple(sorted(a)) for a in adj))
        object.__setattr__(self, "degree_bound", degree_bound)
        object.__setattr__(self, "full_mask", (1 << node_count) - 1)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        return (Graph, (self.node_count, sorted(self.edges), self.degree_bound))

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def all_nodes(self) -> Bag:
        return Bag.from_mask(self.full_mask)

    def check_bag(self, a: Bag) -> None:
        if a.mask >> self.node_count:
            raise InvalidBagError(
                f"bag {a!r} has members outside 0..{self.node_count - 1}")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph)
                and self.node_count == other.node_count
                and self.edges == other.edges
                and self.degree_bound == other.degree_bound)

    def __hash__(self) -> int:
        return hash((self.node_count, self.edges, self.degree_bound))

    def __repr__(self) -> str:
        return (f"Graph(n={self.node_count}, edges={len(self.edges)}, "
                f"degree_bound={self.degree_bound})")


def cut(g: Graph, a: Bag) -> int:
    """Number of edges with exactly one endpoint in ``a``."""
    g.check_bag(a)
    mask = a.mask
    total = 0
    m = mask
    while m:
        low = m & -m
        m ^= low
        for u in g.adjacency[low.bit_length() - 1]:
            if not (mask >> u) & 1:
                total += 1
    return total


def toggle_delta(g: Graph, mask: int, v: int) -> int:
    """Change in the cut of the bag ``mask`` when node ``v`` is toggled.

    deg(v) - 2*inside when ``v`` joins, the negation when it leaves, where
    inside counts the neighbours of ``v`` in ``mask``.  Unchecked; callers
    pass a node of ``g`` and a bag inside it.
    """
    adj = g.adjacency[v]
    inside = 0
    for u in adj:
        inside += (mask >> u) & 1
    delta = len(adj) - 2 * inside
    return -delta if (mask >> v) & 1 else delta


def cut_sequence(g: Graph, masks: Iterable[int]) -> list[int]:
    """Cuts of the bags along a sequence of bitmasks.

    Each cut is found from the one before by toggling the nodes where the
    two masks differ, one ``toggle_delta`` per node (the first from the
    empty bag, whose cut is 0), so a unit-step sequence costs O(deg) per
    step.  Unchecked like ``toggle_delta``: every mask must be a bag of
    ``g``.
    """
    cuts = []
    value = prev = 0
    for mask in masks:
        flipped = prev ^ mask
        while flipped:
            low = flipped & -flipped
            value += toggle_delta(g, prev, low.bit_length() - 1)
            prev ^= low
            flipped ^= low
        cuts.append(value)
    return cuts


# Widest operand row, in bytes, that ``rowwise`` runs one column at a time:
# timed per pass at n = 20, column slices win on rows of up to 16 bytes for
# every dtype the lattice passes use, and lose from 32 bytes on for all but
# uint64.
SHORT_ROW_BYTES = 16


def halves(x: np.ndarray, v: int) -> tuple[np.ndarray, np.ndarray]:
    """The (without v, with v) half-views of an array indexed by bag bitmask.

    Both have shape (len(x) / 2^(v+1), 2^v); entry [i, j] is the bag with
    mask i * 2^(v+1) + j, without or with bit v, so its flattened index is
    that mask with bit v removed.  Every per-node lattice pass views its
    arrays through this function and runs through ``rowwise``.
    """
    r = x.reshape(-1, 2, 1 << v)
    return r[:, 0, :], r[:, 1, :]


def rowwise(ufunc, *args, out: np.ndarray) -> np.ndarray:
    """``ufunc(*args, out=out)`` over 2-D operands of one shape, such as
    ``halves`` views or a contiguous buffer of that shape; returns ``out``.

    numpy runs its inner loop once per row of a strided view, so on rows
    of a few elements the per-row overhead dominates.  When the widest
    operand's row is at most SHORT_ROW_BYTES, the call is made one column
    at a time instead: 2^v long strided calls, not one short call per row.
    An elementwise ufunc gives the same result either way; scalars
    broadcast, and ``out`` may be one of the inputs.
    """
    width = max(a.itemsize for a in (*args, out) if isinstance(a, np.ndarray))
    cols = out.shape[1]
    if cols * width <= SHORT_ROW_BYTES:
        for j in range(cols):
            ufunc(*(a[:, j] if isinstance(a, np.ndarray) else a for a in args),
                  out=out[:, j])
    else:
        ufunc(*args, out=out)
    return out


def cut_table(g: Graph) -> np.ndarray:
    """Cuts of all 2^n bags as a uint16 array indexed by bag bitmask.

    Built node by node.  While ``table[:2^v]`` holds the cuts of the bags
    A of nodes 0..v-1 counting only edges among those nodes, node v's edges
    to them add |N(v) ∩ A| to A and |N(v) - A| to A + v.  The counts
    |N(v) ∩ A| take one ``+= 1`` on the with-u half (``halves``) per
    neighbour u below v; no mask array is built.
    """
    table = np.zeros(1 << g.node_count, dtype=np.uint16)
    for v, adj in enumerate(g.adjacency):
        half = 1 << v
        lower = [u for u in adj if u < v]
        inside = np.zeros(half, dtype=np.uint16)
        for u in lower:
            with_u = halves(inside, u)[1]
            rowwise(np.add, with_u, 1, out=with_u)
        prefix = table[:half]
        np.subtract(prefix + len(lower), inside, out=table[half:2 * half])
        prefix += inside
    return table


def _pairing_attempt(n: int, d: int, rng: np.random.Generator):
    stubs = np.repeat(np.arange(n), d)
    rng.shuffle(stubs)
    edges = set()
    for i in range(0, len(stubs), 2):
        u, v = int(stubs[i]), int(stubs[i + 1])
        if u == v:
            return None
        e = (u, v) if u < v else (v, u)
        if e in edges:
            return None
        edges.add(e)
    return edges


def generate(kind: str, params: tuple[int, ...] = (), seed: int = 0) -> Graph:
    """Build a named graph family member; deterministic for a given seed.

    Members with more than ``GENERATE_CAP`` nodes or edges are rejected
    before anything is built.
    """
    if kind not in GENERATOR_ARITY:
        raise GenerationError(f"unknown graph kind {kind!r}")
    if len(params) != GENERATOR_ARITY[kind]:
        raise GenerationError(f"{kind} takes {GENERATOR_ARITY[kind]} "
                              f"parameter(s), got {len(params)}")
    if max(_SIZE_OF[kind](*(max(p, 0) for p in params))) > GENERATE_CAP:
        raise GenerationError(
            f"{kind}:{','.join(map(str, params))} is too large: generate "
            f"builds at most {GENERATE_CAP} nodes and {GENERATE_CAP} edges")
    if kind == "line":
        (n,) = params
        if n < 1:
            raise GenerationError("line needs n >= 1")
        return Graph(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "cycle":
        (n,) = params
        if n < 3:
            raise GenerationError("cycle needs n >= 3")
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "star":
        (leaves,) = params
        if leaves < 0:
            raise GenerationError("star needs a nonnegative leaf count")
        return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])
    if kind == "complete":
        (n,) = params
        if n < 1:
            raise GenerationError("complete needs n >= 1")
        return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if kind == "hypercube":
        (d,) = params
        if d < 0:
            raise GenerationError("hypercube needs d >= 0")
        n = 1 << d
        return Graph(n, [(x, x | (1 << b))
                         for x in range(n) for b in range(d) if not (x >> b) & 1])
    if kind == "grid":
        rows, cols = params
        if rows < 1 or cols < 1:
            raise GenerationError("grid needs positive dimensions")
        edges = []
        for i in range(rows):
            for j in range(cols):
                v = i * cols + j
                if j + 1 < cols:
                    edges.append((v, v + 1))
                if i + 1 < rows:
                    edges.append((v, v + cols))
        return Graph(rows * cols, edges)
    if kind == "random_regular":
        n, d = params
        if d < 0 or d > n - 1 or (n * d) % 2 != 0:
            raise GenerationError(
                f"random_regular needs 0 <= d <= n-1 and even n*d, got n={n}, d={d}")
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        for _ in range(10000):
            edges = _pairing_attempt(n, d, rng)
            if edges is not None:
                return Graph(n, edges)
        raise GenerationError(f"pairing model failed for n={n}, d={d}, seed={seed}")


def parse_graph(text: str) -> Graph:
    """Parse either the edge-list text format or the JSON format.

    Edge list: first line is n, then one ``u v`` pair per line, 0-based;
    ``#`` starts a comment.  JSON: ``{"n": int, "edges": [[u, v], ...],
    "degree_bound": int?}``.  Like ``generate``, at most ``GENERATE_CAP``
    nodes and ``GENERATE_CAP`` edges are accepted; the declared n is checked
    before anything is built, and the edge count as edges are read.
    """
    if text.lstrip().startswith("{"):
        return _parse_graph_json(text)
    n = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 1:
                raise GraphParseError("expected node count", line=lineno)
            try:
                n = int(fields[0])
            except ValueError:
                raise GraphParseError(f"bad node count {fields[0]!r}", line=lineno)
            _check_node_count(n, lineno)
            continue
        if len(edges) == GENERATE_CAP:
            raise GraphParseError(f"more than {GENERATE_CAP} edges", line=lineno)
        if len(fields) != 2:
            raise GraphParseError(f"expected 'u v', got {line!r}", line=lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphParseError(f"non-integer node id in {line!r}", line=lineno)
        if u == v:
            raise GraphParseError(f"self-loop at node {u}", line=lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"edge ({u}, {v}) out of range 0..{n - 1}", line=lineno)
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise GraphParseError(f"duplicate edge ({e[0]}, {e[1]})", line=lineno)
        seen.add(e)
        edges.append(e)
    if n is None:
        raise GraphParseError("empty input")
    return Graph(n, edges)


def _check_node_count(n: int, line: int | None = None) -> None:
    if n < 1:
        raise GraphParseError("node count must be positive", line=line)
    if n > GENERATE_CAP:
        raise GraphParseError(f"node count {n} is above the cap of "
                              f"{GENERATE_CAP} nodes", line=line)


def _is_int(x) -> bool:
    """A JSON integer: ``bool`` is an ``int`` subclass, but true is no id."""
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_graph_json(text: str) -> Graph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"bad JSON: {exc}", line=exc.lineno)
    if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
        raise GraphParseError('JSON graph needs "n" and "edges"')
    n, edges, bound = doc["n"], doc["edges"], doc.get("degree_bound")
    if not _is_int(n):
        raise GraphParseError(f'"n" must be an integer, got {type(n).__name__}')
    _check_node_count(n)
    if not isinstance(edges, list):
        raise GraphParseError(f'"edges" must be a list, got {type(edges).__name__}')
    if len(edges) > GENERATE_CAP:
        raise GraphParseError(f"more than {GENERATE_CAP} edges")
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(map(_is_int, e))):
            raise GraphParseError(f"bad edge {e!r}")
    if bound is not None and not _is_int(bound):
        raise GraphParseError('"degree_bound" must be an integer, got '
                              f'{type(bound).__name__}')
    return Graph(n, map(tuple, edges), degree_bound=bound)


def serialize_graph(g: Graph, fmt: str = "edgelist") -> str:
    """Canonical text form; ``parse_graph`` round-trips it exactly."""
    if fmt == "edgelist":
        lines = [str(g.node_count)]
        lines += [f"{u} {v}" for u, v in sorted(g.edges)]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps(
            {"n": g.node_count,
             "edges": [list(e) for e in sorted(g.edges)],
             "degree_bound": g.degree_bound},
            separators=(",", ":")) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
