import sys
from typing import Callable

import numpy as np
import pytest

import erl.epidemic
from erl import Bag, EventLog, Graph, generate

ZOO = [
    ("line5", lambda: generate("line", (5,))),
    ("line9", lambda: generate("line", (9,))),
    ("cycle6", lambda: generate("cycle", (6,))),
    ("star3", lambda: generate("star", (3,))),
    ("k4", lambda: generate("complete", (4,))),
    ("hypercube3", lambda: generate("hypercube", (3,))),
    ("grid2x3", lambda: generate("grid", (2, 3))),
    ("rr8_3", lambda: generate("random_regular", (8, 3), seed=13)),
    ("rr10_3", lambda: generate("random_regular", (10, 3), seed=7)),
]


@pytest.fixture(params=ZOO, ids=[name for name, _ in ZOO])
def zoo_graph(request) -> Graph:
    return request.param[1]()


def random_bounded_graph(n: int, max_degree: int, rng: np.random.Generator) -> Graph:
    """Random graph with all degrees <= max_degree, for invariant tests."""
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n)]
    perm = rng.permutation(len(candidates))
    deg = [0] * n
    edges = []
    target = int(rng.integers(0, len(candidates) + 1))
    for idx in perm[:target]:
        u, v = candidates[idx]
        if deg[u] < max_degree and deg[v] < max_degree:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return Graph(n, edges)


def random_unit_step_sequence(n: int, length: int,
                              rng: np.random.Generator) -> list[Bag]:
    """Random walk over bags where each step flips exactly one node."""
    mask = int(rng.integers(0, 1 << n))
    seq = [Bag.from_mask(mask)]
    for _ in range(length):
        full = (1 << n) - 1
        if mask == 0:
            flip = 1 << int(rng.integers(n))
        elif mask == full or rng.random() < 0.5:
            members = [v for v in range(n) if (mask >> v) & 1]
            flip = 1 << members[int(rng.integers(len(members)))]
        else:
            absent = [v for v in range(n) if not (mask >> v) & 1]
            flip = 1 << absent[int(rng.integers(len(absent)))]
        mask ^= flip
        seq.append(Bag.from_mask(mask))
    return seq


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def event_log(initial: Bag, events, final: Bag) -> EventLog:
    """The ``EventLog`` of ``Event`` rows: its three columns in row order."""
    return EventLog(initial, *(tuple(zip(*events)) or ((), (), ())), final)


def count_event_rows(monkeypatch) -> Callable[[], int]:
    """Stand a subclass of ``Event`` in for it in ``erl.epidemic`` and
    return a count of the rows made of it so far.  Rows are made without a
    call of ``Event`` (``EventLog.events`` uses ``tuple.__new__``), so the
    count reads what every row leaves: a live one holds a reference to its
    class, and a freed one has run ``__del__``."""
    freed = []

    class Counted(erl.epidemic.Event):
        __slots__ = ()

        def __del__(self):
            freed.append(None)

    monkeypatch.setattr(erl.epidemic, "Event", Counted)
    base = sys.getrefcount(Counted)
    return lambda: sys.getrefcount(Counted) - base + len(freed)
