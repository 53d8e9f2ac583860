"""The trajectory audits as numpy passes, against their loop oracles.

Every input is run through the array form and through the loop form kept
in ``reference_audits``; both must give the same report, with Python
``int``/``float`` fields (compared by ``repr``, which tells ``3`` from
``np.int64(3)``), or the same exception type, message and witness.
Graphs of more than 64 nodes run the object-dtype mask arrays.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erl import (Bag, CompleteGraphResistance, EpidemicConfig, ErlError,
                 ResistanceTable, audit_bottleneck, builtin_policy, generate,
                 resistance_table, simulate, validate_crusade)
from erl.analysis import _halving_scan, _recovery_audit
from erl.epidemic import _trajectory
from erl.graph import mask_array

from conftest import random_unit_step_sequence, rng_for
from reference_audits import (reference_bottleneck_audit,
                              reference_halving_scan,
                              reference_recovery_audit,
                              reference_validate_crusade)

GRAPHS = {
    "line7": generate("line", (7,)),
    "rr8_3": generate("random_regular", (8, 3), seed=13),
    "k6": generate("complete", (6,)),
    "k34": generate("complete", (34,)),
    "k70": generate("complete", (70,)),
    "rr100_3": generate("random_regular", (100, 3), seed=100),
}


def bumped(table):
    """``table`` with its full-set entry raised by one, as
    ``erl verify --inject-fault`` does."""
    if isinstance(table, ResistanceTable):
        values = table.values.copy()
        values[-1] += 1
        return ResistanceTable(table.graph, values, table.converged_rounds)
    out = CompleteGraphResistance(table.graph)
    out.by_size[-1] += 1
    return out


def tables_of(name: str) -> list:
    g = GRAPHS[name]
    out = []
    if g.node_count <= 8:
        out.append(resistance_table(g))
    if name.startswith("k"):
        out.append(CompleteGraphResistance(g))
    return out + [bumped(t) for t in out]


TABLES = {name: tables_of(name) for name in GRAPHS}


def outcome(call):
    try:
        return repr(call())
    except ErlError as exc:
        return (type(exc).__name__, str(exc),
                repr(getattr(exc, "witness", None)))


def walk(n: int, length: int, rng) -> list[int]:
    """A unit-step walk of masks: ``random_unit_step_sequence`` where a mask
    fits an int64 draw, else one uniformly drawn node flipped per step."""
    if n < 63:
        return [b.mask for b in random_unit_step_sequence(n, length, rng)]
    mask = sum(1 << v for v in range(n) if rng.random() < 0.5)
    masks = [mask]
    for _ in range(length):
        mask ^= 1 << int(rng.integers(n))
        masks.append(mask)
    return masks


def spoil(masks: list[int], n: int, rng) -> list[int]:
    """``masks`` with one step made non-unit: a repeated bag or a jump."""
    i = int(rng.integers(1, len(masks)))
    if rng.random() < 0.5:
        return masks[:i] + masks[i - 1:]
    flip = sum(1 << int(v) for v in rng.choice(n, size=2, replace=False))
    return masks[:i] + [m ^ flip for m in masks[i:]]


def thetas(masks: list[int], n: int, rng) -> dict:
    """Overrides of the bottleneck sequence: a step early, at double speed,
    one that jumps (every third true bag, with random nodes dropped), and
    the trajectory itself a step late, which leaves the source bag and
    grows."""
    true = []
    for m in masks:
        true.append(m if not true else true[-1] & m)
    last = len(true) - 1
    jumps = [true[min(3 * i, last)] for i in range(len(true))]
    jumps = [m & ~(1 << int(rng.integers(n))) if rng.random() < 0.2 else m
             for m in jumps]
    return {"early": true[1:] + true[-1:],
            "double": [true[min(2 * i, last)] for i in range(len(true))],
            "jumping": jumps, "late_self": masks[:1] + masks[:-1]}


def bags(masks: list[int]) -> list[Bag]:
    return [Bag.from_mask(m) for m in masks]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(sorted(GRAPHS)), st.integers(0, 80),
       st.integers(0, 2**32 - 1))
def test_bottleneck_audit_matches_reference(name, length, seed):
    g = GRAPHS[name]
    n = g.node_count
    rng = rng_for(seed)
    masks = walk(n, length, rng)
    if length and rng.random() < 0.3:
        masks = spoil(masks, n, rng)
    seq = bags(masks)
    assert outcome(lambda: audit_bottleneck(g, seq)) == \
        outcome(lambda: reference_bottleneck_audit(g, masks))
    for theta in thetas(masks, n, rng).values():
        assert outcome(lambda: audit_bottleneck(g, seq, theta=bags(theta))) \
            == outcome(lambda: reference_bottleneck_audit(g, masks, theta))


def jumpy_walk(n: int, length: int, rng) -> list[int]:
    """Masks of nodes below ``n`` whose steps each remove up to three
    members (more often none or one) and add up to three other nodes."""
    mask = sum(1 << v for v in range(n) if rng.random() < 0.5)
    masks = [mask]
    for _ in range(length):
        for _ in range(int(rng.choice(4, p=[0.3, 0.4, 0.2, 0.1]))):
            if mask:
                mask &= ~(1 << int(rng.choice(Bag.from_mask(mask).nodes())))
        for v in rng.choice(n, size=min(n, int(rng.integers(4))), replace=False):
            mask |= 1 << int(v)
        masks.append(mask)
    return masks


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from([1, 5, 16, 64, 70, 100]), st.integers(0, 40),
       st.integers(0, 2**32 - 1))
def test_validate_crusade_matches_reference(n, length, seed):
    """Same check, message and first violation index; the endpoints are
    the sequence's own or, a third of the time each, another bag."""
    rng = rng_for(seed)
    seq = bags(jumpy_walk(n, length, rng))[:length]
    a, b = (seq[0], seq[-1]) if seq else (Bag(), Bag())
    if rng.random() < 1 / 3:
        a = Bag.from_mask(jumpy_walk(n, 0, rng)[0])
    if rng.random() < 1 / 3:
        b = Bag.from_mask(jumpy_walk(n, 0, rng)[0])
    assert outcome(lambda: validate_crusade(seq, a, b)) == \
        outcome(lambda: reference_validate_crusade(seq, a, b))


def trajectory(name: str, kind: str, rng) -> tuple[list[float], list[int]]:
    """State times and masks of a simulated run, of a monotone recovery in
    random order, or of a random walk that then cures every node left."""
    g = GRAPHS[name]
    n = g.node_count
    if kind == "simulated":
        cfg = EpidemicConfig(
            graph=g, initial_infected=g.all_nodes(),
            budget=Fraction(int(rng.integers(1, 3 * n * n // 4 + 2))),
            seed=int(rng.integers(1 << 30)), max_events=3000)
        pol = builtin_policy(("max_cut_drop", "uniform")[int(rng.integers(2))])
        times, masks = _trajectory(simulate(cfg, pol).log, g)
        return times, masks.tolist()
    if kind == "monotone":
        masks = [g.all_nodes().mask]
        for v in rng.permutation(n):
            masks.append(masks[-1] & ~(1 << int(v)))
    else:
        masks = walk(n, int(rng.integers(0, 60)), rng)
        for v in range(n):
            if (masks[-1] >> v) & 1:
                masks.append(masks[-1] & ~(1 << v))
    steps = rng.uniform(0.1, 1.0, size=len(masks) - 1)
    return [0.0] + np.cumsum(steps).tolist(), masks


def bounds(times: list[float], rng) -> list[tuple[float, float]]:
    """Segments from the start, from inside, from past the end, and with
    infinite ends."""
    a, b = sorted(float(t) for t in rng.uniform(0, times[-1] * 1.1, size=2))
    return [(0.0, times[-1]), (a, b), (0.0, math.inf), (a, math.inf),
            (math.inf, math.inf), (-math.inf, math.inf),
            (times[-1] + 1.0, math.inf)]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from([name for name in sorted(GRAPHS) if TABLES[name]]),
       st.sampled_from(["simulated", "monotone", "walk"]),
       st.integers(0, 2**32 - 1))
def test_log_audits_match_reference(name, kind, seed):
    g = GRAPHS[name]
    rng = rng_for(seed)
    times, masks = trajectory(name, kind, rng)
    array = mask_array(masks, g.node_count)
    for table in TABLES[name]:
        for t_from, t_to in bounds(times, rng):
            assert outcome(lambda: _recovery_audit(
                g, table, times, array, t_from, t_to)) == \
                outcome(lambda: reference_recovery_audit(
                    g, table, times, masks, t_from, t_to))
        assert outcome(lambda: _halving_scan(g, table, times, array)) == \
            outcome(lambda: reference_halving_scan(g, table, times, masks))


@pytest.mark.parametrize("name", ["k70", "rr100_3"])
def test_wide_graphs_use_python_ints(name):
    g = GRAPHS[name]
    masks = walk(g.node_count, 5, rng_for(1))
    assert mask_array(masks, g.node_count).dtype == object
    assert mask_array([(1 << 64) - 1], 64).dtype == np.uint64
