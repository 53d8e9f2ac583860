"""Undirected bounded-degree graphs and node-subset (bag) arithmetic.

Bags are canonically encoded as integer bitmasks (bit v set = node v is a
member).  Python integers are arbitrary precision, so the same encoding
serves every graph size; full-lattice tables elsewhere in the package are
what carry size caps, not the encoding.  Every module imports this one,
so it also owns the rule that turns a seed into draws (``_seeds``) and
the draws taken from raw Philox words (``_raw_draws``).
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator

import numpy as np

from .errors import ErlError, GenerationError, GraphParseError, InvalidBagError

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


def _add_edge(seen: set, u: int, v: int, n: int, line: int | None = None) -> None:
    """Add the edge {u, v} to ``seen`` as (low, high), refusing a self-loop,
    an end outside 0..n-1 and an edge already in ``seen``."""
    if u == v:
        raise GraphParseError(f"self-loop at node {u}", line=line)
    if not (0 <= u < n and 0 <= v < n):
        raise GraphParseError(f"edge ({u}, {v}) out of range 0..{n - 1}", line=line)
    e = (u, v) if u < v else (v, u)
    if e in seen:
        raise GraphParseError(f"duplicate edge ({e[0]}, {e[1]})", line=line)
    seen.add(e)


class Graph:
    """Immutable undirected graph on nodes 0..n-1 with a declared degree bound.

    ``degree_bound`` defaults to the exact maximum degree; a larger value may
    be declared (never a smaller one) because size-sensitive inequalities are
    stated in terms of the declared bound.
    """

    __slots__ = ("node_count", "edges", "adjacency", "degree_bound", "full_mask",
                 "_neighbor_masks")

    def __init__(self, node_count: int, edges: Iterable[tuple[int, int]],
                 degree_bound: int | None = None):
        if node_count < 1:
            raise GenerationError("graph needs at least one node")
        adj: list[list[int]] = [[] for _ in range(node_count)]
        edge_set: set[tuple[int, int]] = set()
        for u, v in edges:
            _add_edge(edge_set, u, v, node_count)
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

    @property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Each node's neighbors as a bag bitmask, built on first use: the
        masks of a long sparse graph hold about n^2 / 16 bytes (61 MB for
        a 30,000-node cycle), which a graph that never needs them should
        not pay."""
        try:
            return self._neighbor_masks
        except AttributeError:
            masks = tuple(sum(1 << u for u in adj) for adj in self.adjacency)
            object.__setattr__(self, "_neighbor_masks", masks)
            return masks

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
    masks, outside = g.neighbor_masks, ~a.mask
    return sum((masks[v] & outside).bit_count() for v in members(a.mask))


def toggle_delta(g: Graph, mask: int, v: int) -> int:
    """Change in the cut of the bag ``mask`` when node ``v`` is toggled.

    deg(v) - 2*inside when ``v`` joins, the negation when it leaves, where
    inside counts the neighbours of ``v`` in ``mask``.  Unchecked; callers
    pass a node of ``g`` and a bag inside it.
    """
    delta = len(g.adjacency[v]) - 2 * (g.neighbor_masks[v] & mask).bit_count()
    return -delta if (mask >> v) & 1 else delta


def mask_array(masks: list[int], n: int) -> np.ndarray:
    """Bag masks of nodes below ``n`` as one array: uint64 for n <= 64, an
    object array of Python ints above.  Every pass over a mask array is
    the same numpy code on both dtypes."""
    return np.array(masks, dtype=np.uint64 if n <= 64 else object)


def cuts_along(g: Graph, masks: np.ndarray) -> np.ndarray:
    """Cuts of the bags of a mask array whose steps flip at most one node,
    as int64: the first counted as ``cut`` counts it, then every step's
    ``toggle_delta`` at once (a node leaves exactly when the mask drops)
    and their cumulative sum.  Unchecked like ``toggle_delta``; from a
    step that flips more nodes on the cuts mean nothing."""
    neighbors = np.array(g.neighbor_masks, dtype=masks.dtype)
    degrees = np.bitwise_count(neighbors).astype(np.int64)
    first = np.bitwise_count(neighbors[members(int(masks[0]))] & ~masks[0])
    prev, flip = masks[:-1], masks[1:] ^ masks[:-1]
    # for one flipped bit 2^v, v is the popcount of 2^v - 1
    node = np.where(flip, np.bitwise_count(flip - 1), 0).astype(np.intp)
    delta = degrees[node] - 2 * np.bitwise_count(
        neighbors[node] & prev).astype(np.int64)
    delta = np.where(masks[1:] < prev, -delta, delta) * (flip != 0)
    return np.cumsum(np.concatenate(([int(first.sum())], delta)))


# Widest operand row, in bytes, on which ``rowwise`` makes its one ufunc
# call over the transposed views, one long strided inner loop per column:
# timed per pass at n = 20, running by column wins on rows of up to 16
# bytes for every dtype the lattice passes use, and loses from 32 bytes on
# for all but uint64.  With value iteration on uint8, a cut at 8 bytes
# (16-column uint8 rows run plainly) made the whole tables pipeline slower
# at n = 20 and 18 in 6 of 8 interleaved benchmark pairs, so 16 stays.
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
    operand's row is at most SHORT_ROW_BYTES, the call is made on the
    transposed views in C order instead, which numpy runs as 2^v long
    strided inner loops, one per column, not one short loop per row.  An
    elementwise ufunc gives the same result either way; scalars
    broadcast, and ``out`` may be one of the inputs.
    """
    width = max(a.itemsize for a in (*args, out) if isinstance(a, np.ndarray))
    if out.shape[1] * width <= SHORT_ROW_BYTES:
        ufunc(*(a.T if isinstance(a, np.ndarray) else a for a in args),
              out=out.T, order="C")
    else:
        ufunc(*args, out=out)
    return out


def transposed(x: np.ndarray, k: int) -> np.ndarray:
    """A contiguous copy of an array indexed by bag bitmask, over m bits,
    with its low k bits moved to the top: ``x.reshape(-1, 2^k).T``.

    The bag with mask i * 2^k + j (j < 2^k) moves to index j * 2^(m-k) +
    i, so node v < k moves to bit m - k + v and node v >= k to bit v - k;
    the ``halves`` of a node below k become long contiguous runs.
    """
    return np.ascontiguousarray(x.reshape(-1, 1 << k).T).reshape(-1)


def cut_table(g: Graph) -> np.ndarray:
    """Cuts of all 2^n bags as a uint16 array indexed by bag bitmask.

    Built node by node.  While ``table[:2^v]`` holds the cuts of the bags
    A of nodes 0..v-1 counting only edges among those nodes, node v's edges
    to them add |N(v) ∩ A| to A and |N(v) - A| to A + v.  The counts
    |N(v) ∩ A| take one ``+= 1`` on the with-u half (``halves``) per
    neighbour u below v, in a uint8 array (fewer than 256 neighbours below
    v on any table that fits in memory); no mask array is built, and the
    upper half is written in place.
    """
    return _cut_table(g, np.uint16)


# Most nodes whose cut table ``_narrow_cut_table`` builds in uint8: a cut
# of n nodes is at most floor(n^2 / 4), and the build adds at most
# Delta < n to one before it subtracts, so every entry stays below 256 up
# to n = 30.
CUT8_NODES = 30


def _narrow_cut_table(g: Graph) -> np.ndarray:
    """``cut_table(g)`` built in uint8, half its bytes, for the table
    builders that read their cuts in uint8 anyway; uint16 above
    CUT8_NODES nodes."""
    return _cut_table(g, np.uint8 if g.node_count <= CUT8_NODES else np.uint16)


def _cut_table(g: Graph, dtype) -> np.ndarray:
    """``cut_table``'s build in ``dtype``, which must hold every cut plus
    the largest degree."""
    table = np.zeros(1 << g.node_count, dtype=dtype)
    for v, adj in enumerate(g.adjacency):
        half = 1 << v
        lower = [u for u in adj if u < v]
        inside = np.zeros(half, dtype=np.uint8)
        for u in lower:
            with_u = halves(inside, u)[1]
            rowwise(np.add, with_u, 1, out=with_u)
        prefix, upper = table[:half], table[half:2 * half]
        np.add(prefix, len(lower), out=upper)
        upper -= inside
        prefix += inside
    return table


def _check_seed(seed, name: str = "seed") -> None:
    """Refuse, with ``ErlError`` naming it ``name``, a seed or stream key
    that is not a nonnegative int."""
    if not _is_int(seed):
        raise ErlError(f"{name} must be an int, got {seed!r}")
    if seed < 0:
        raise ErlError(f"{name} must be nonnegative, got {seed}")


def _seeds(seed: int, *key: int) -> np.random.SeedSequence:
    """``SeedSequence(entropy=seed, spawn_key=key)``, refusing a seed or a
    key word ``_check_seed`` refuses: the one rule by which the package
    turns a seed into draws.

    It is the child at ``key[-1]`` of ``(seed, *key[:-1])``'s sequence, and
    ``SeedSequence(seed)`` with no key.  Every stream is a Philox4x64
    generator on one (``_stream``, ``_CounterRange``).  The keys:
    ``(seed)`` for ``generate``, the Poisson sampler and the invariant
    audit; ``(seed, j, 0)`` and ``(seed, j, 1)`` for the events and policy
    draws of ``simulate``'s replication j; ``(seed, index)`` for a sweep
    point's seed (``derive_seed``); ``(seed)`` once per sweep engine call,
    whose replication j takes its events and its policy draws from counter
    ranges 0 and 1 on it, so they depend on j alone and differ from
    ``simulate``'s; ``(0, 0, 1)`` for the exact chain's policy stream,
    which must stay untouched.  Only ``simulate``'s uniforms and bounded
    ints are read from raw words (``_raw_draws``); every other draw is a
    ``Generator`` method's.
    """
    _check_seed(seed)
    for word in key:
        _check_seed(word, "stream key")
    return np.random.SeedSequence(entropy=seed, spawn_key=key)


def _stream(seed: int, *key: int) -> np.random.Generator:
    """The Philox stream on ``_seeds(seed, *key)``."""
    return np.random.Generator(np.random.Philox(_seeds(seed, *key)))


def _raw_draws(rng: np.random.Generator):
    """``(random, below)``: ``rng.random()`` and ``int(rng.integers(k))``
    for 1 <= k < 2^63, computed from ``rng``'s raw Philox words by numpy's
    own algorithms, so they draw what those methods draw, bit for bit,
    and leave the stream where those would.

    A uniform is a word's top 53 bits times 2^-53.  ``below`` is numpy's
    ``random_bounded_uint64_fill``: no draw for k = 1, else Lemire's
    multiply-and-reject (ACM TOMACS 29(1), 2019) of b-bit draws, whose
    threshold (2^b - k) mod k is below k; at b = 32 it is computed only
    when the low 32 bits of the product are.  For k <= 2^32, b = 32: the
    low half of a word first and the high half, kept, at the next such
    draw, as Philox's ``next_uint32`` does; at k = 2^32 the draw is the
    half itself, numpy's special case.  Above, b = 64: whole words.
    ``below`` keeps that word itself, so ``rng`` may draw whole words
    between calls (``standard_exponential``) but no halves (``integers``).
    """
    raw = rng.bit_generator.random_raw
    spare = None

    def random() -> float:
        return (raw() >> 11) * 2.0 ** -53

    def below(k: int) -> int:
        nonlocal spare
        if k == 1:
            return 0
        while k > 1 << 32:
            m = raw() * k
            if m & 0xFFFFFFFFFFFFFFFF >= ((1 << 64) - k) % k:
                return m >> 64
        while True:
            if spare is None:
                spare = raw()
                m = (spare & 0xFFFFFFFF) * k
            else:
                m, spare = (spare >> 32) * k, None
            low = m & 0xFFFFFFFF
            if low >= k or low >= ((1 << 32) - k) % k:
                return m >> 32

    return random, below


class _CounterRange:
    """Philox streams under one key, one per replication, on one reused
    bit generator.

    Philox4x64 is a counter-based generator (Salmon et al., "Parallel
    Random Numbers: As Easy as 1, 2, 3", SC 2011): under one key, blocks
    at distinct counters are independent.  Replication j's stream starts
    at counter (0, 0, j, ``word3``) under ``seq``'s key, so streams sit
    2^128 blocks apart and each ``word3`` holds one more stream per
    replication.  ``at(j)`` moves the bit generator, built at the first
    call, to the start of j's stream by setting its state: a fraction of
    the cost of a seed sequence and a bit generator per replication.
    """

    __slots__ = ("_seq", "_word3", "_bits", "_state", "_counter", "_rng")

    def __init__(self, seq: np.random.SeedSequence, word3: int):
        self._seq = seq
        self._word3 = word3
        self._bits = None

    def at(self, replication: int) -> np.random.Generator:
        """The generator, at the start of ``replication``'s stream."""
        if self._bits is None:
            self._bits = np.random.Philox(self._seq)
            self._state = self._bits.state
            self._counter = self._state["state"]["counter"]
            self._counter[3] = self._word3
            self._rng = np.random.Generator(self._bits)
        self._counter[2] = replication
        self._bits.state = self._state
        return self._rng


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
        # a seed that is no int is refused by _seeds
        if _is_int(seed) and seed < 0:
            raise GenerationError(f"random_regular needs a nonnegative seed, got {seed}")
        rng = _stream(seed)
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
    edges: set[tuple[int, int]] = set()
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
        _add_edge(edges, u, v, n, lineno)
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
