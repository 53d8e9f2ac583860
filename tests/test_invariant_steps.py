"""The node-at-a-time invariant audit against its check-at-a-time form in
``reference_invariants``: the same report, by ``repr``, on clean and on
edited tables, and every step and square it finds against a literal
enumeration in mask order, on both sides of ``TRANSPOSE_NODES``.  Each
check's verdict from the steps alone and with random pairs is the one the
reference's enumeration of every pair gives; a table whose steps pass
draws no random pair, and exhaustive mode draws none at all."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import erl.analysis
import erl.graph
from erl import (ErlError, ResistanceTable, generate, resistance_table,
                 verify_table_invariants)
from erl.analysis import SAMPLE_CAP, TRANSPOSE_NODES, _MAX_WITNESSES
from erl.graph import SHORT_ROW_BYTES, cut_table, rowwise

from conftest import ZOO, random_bounded_graph, rng_for
from reference_invariants import reference_verify_table_invariants

K = TRANSPOSE_NODES


def bumped(values: np.ndarray, pairs, points) -> np.ndarray:
    """``values`` plus c at every bag holding both nodes of each (a, b, c)
    in ``pairs`` (one node when a == b), with each (mask, value) of
    ``points`` written over; kept in its dtype unless an entry went
    negative, as in a hand-built signed table.

    A bump of c > 2 on a node pair breaks submodularity on exactly that
    pair's squares, since a cut's squares sum to -2 or 0; a bump on one
    node moves that node's steps alone."""
    masks = np.arange(len(values))
    out = values.astype(np.int64)
    for a, b, c in pairs:
        out += c * (masks >> a & masks >> b & 1)
    for mask, value in points:
        out[mask % len(out)] = value
    return out.astype(values.dtype) if out.min() >= 0 else out


@st.composite
def audit_cases(draw, sizes=st.integers(1, 14)):
    n = draw(sizes)
    node = st.integers(0, n - 1)
    bump = st.integers(-6, 6)
    point = st.tuples(st.integers(0, (1 << n) - 1), st.integers(-130, 300))
    return dict(
        n=n,
        mode=draw(st.sampled_from(["exhaustive", "sampled"])),
        graph_seed=draw(st.integers(0, 2**16)),
        cut_pairs=draw(st.lists(st.tuples(node, node, bump), max_size=3)),
        cut_points=draw(st.lists(point, max_size=2)),
        gamma_pairs=draw(st.lists(st.tuples(node, node, bump), max_size=2)),
        gamma_points=draw(st.lists(point, max_size=2)),
        samples=draw(st.integers(0, 300)),
        seed=draw(st.integers(0, 2**32)))


def audits(case, *runs):
    """Each of ``runs``, an audit function and its keywords, on the case's
    graph, with its bumped table and bumped cuts."""
    n = case["n"]
    g = random_bounded_graph(n, 4, rng_for(case["graph_seed"]))
    table = resistance_table(g)
    table = ResistanceTable(g, bumped(table.values, case["gamma_pairs"],
                                      case["gamma_points"]), 1)
    cuts = bumped(cut_table(g), case["cut_pairs"], case["cut_points"])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(erl.analysis, "_narrow_cut_table", lambda _g: cuts.copy())
        return [audit(g, table, **kwargs) for audit, kwargs in runs]


def both_reports(case):
    kwargs = dict(mode=case["mode"], samples=case["samples"],
                  seed=case["seed"])
    return audits(case, (verify_table_invariants, kwargs),
                  (reference_verify_table_invariants, kwargs))


def case(n, mode="sampled", cut_pairs=(), gamma_pairs=(), cut_points=(),
         gamma_points=()):
    return dict(n=n, mode=mode, graph_seed=n, cut_pairs=list(cut_pairs),
                cut_points=list(cut_points), gamma_pairs=list(gamma_pairs),
                gamma_points=list(gamma_points), samples=100, seed=n)


# squares of a low node with a node whose transposed bit gives short rows,
# and with one whose bit does not; steps of low nodes; one bag's entries
@example(case(12, cut_pairs=[(0, K, 3), (2, K + 5, 4)]))
@example(case(14, cut_pairs=[(5, K + 2, 5)], gamma_pairs=[(1, 1, -3)]))
@example(case(13, cut_pairs=[(K - 1, K - 1, 7)], gamma_pairs=[(0, 9, 4)]))
@example(case(9, "exhaustive", cut_pairs=[(3, 8, 3)],
              gamma_points=[(300, 0), (17, 250)]))
@example(case(7, cut_points=[(5, 300), (64, -125)]))
@settings(derandomize=True, max_examples=150, deadline=None)
@given(audit_cases())
def test_report_matches_reference(case):
    got, want = both_reports(case)
    assert repr(got) == repr(want)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(audit_cases(st.integers(2, 10)))
def test_pair_checks_only_add_witnesses(case):
    """A pair violation implies a single-node one: a pair is |A xor B|
    steps apart, a subset is reached by removals, and submodularity
    follows from its squares.  So every check's verdict from the steps,
    alone or with random pairs, is the one every pair gives."""
    reports = audits(
        case, (verify_table_invariants, dict(mode="exhaustive")),
        (verify_table_invariants, dict(mode="sampled", samples=300,
                                       seed=case["seed"])),
        (reference_verify_table_invariants, dict(mode="enumerated")))
    verdicts = [{name: check.ok for name, check in report.checks.items()}
                for report in reports]
    assert verdicts[0] == verdicts[1] == verdicts[2]


def counted_stream(draws: list):
    """``graph._stream`` whose generators note each method they are asked
    for in ``draws`` before handing it over."""
    def stream(*args):
        rng = erl.graph._stream(*args)

        class Counted:
            def __getattr__(self, name):
                draws.append(name)
                return getattr(rng, name)
        return Counted()
    return stream


@pytest.mark.parametrize("mode", ["sampled", "exhaustive"])
@pytest.mark.parametrize("name,make", ZOO, ids=[name for name, _ in ZOO])
def test_passing_tables_draw_no_pairs(name, make, mode, monkeypatch):
    """A table whose steps pass needs no random pair to say so, and gets
    the report that drawing them gives; an exhaustive report counts the
    steps alone."""
    g = make()
    table = resistance_table(g)
    draws = []
    monkeypatch.setattr(erl.analysis, "_stream", counted_stream(draws))
    got = verify_table_invariants(g, table, mode=mode, seed=3)
    assert got.ok and draws == []
    want = reference_verify_table_invariants(g, table, mode=mode, seed=3)
    assert repr(got) == repr(want)
    if mode == "exhaustive":
        n = g.node_count
        steps = [got.checks[check] for check in erl.analysis._SAMPLED_CHECKS]
        assert {(c.strategy, c.checked) for c in steps} == {
            ("single_steps", n << n)}


# a bag whose cut is bumped at n = 2 fails two steps, four witnesses; the
# full bag lowered to 0 at n = 4 fails its four removals
@pytest.mark.parametrize("name,bumps", [
    ("cut_lipschitz", case(2, cut_points=[(1, 9)])),
    ("resistance_monotone", case(4, gamma_points=[(15, 0)]))])
def test_failing_steps_draw_the_pairs(name, bumps, monkeypatch):
    """Fewer step witnesses than the cap leave room for sampled pairs',
    which carry a bag alone; they are the oracle's, draw for draw."""
    draws = []
    monkeypatch.setattr(erl.analysis, "_stream", counted_stream(draws))
    got, want = both_reports(bumps)
    assert repr(got) == repr(want)
    assert draws
    check = got.checks[name]
    steps = [w for w in check.violations if len(w) > 1]
    assert 0 < len(steps) < _MAX_WITNESSES
    assert {"bag"} in [w.keys() for w in check.violations]


@pytest.mark.parametrize("name,bumps", [
    ("cut_lipschitz", case(2, "exhaustive", cut_points=[(1, 9)])),
    ("resistance_monotone", case(4, "exhaustive", gamma_points=[(15, 0)])),
    ("resistance_smooth", case(12, "exhaustive", gamma_pairs=[(0, 0, 9)]))])
def test_failing_steps_draw_nothing_in_exhaustive_mode(name, bumps,
                                                       monkeypatch):
    """Exhaustive mode reports the failing steps and touches no generator
    method."""
    draws = []
    monkeypatch.setattr(erl.analysis, "_stream", counted_stream(draws))
    got, want = both_reports(bumps)
    assert repr(got) == repr(want)
    assert draws == []
    check = got.checks[name]
    assert not check.ok
    assert all(len(w) > 1 for w in check.violations)


@pytest.mark.parametrize("n", [K, K + 2, 12])
def test_pairs_read_mask_ordered_tables(n, monkeypatch):
    """The steps leave the tables transposed above K nodes; the random
    pairs index them by mask."""
    g = generate("random_regular", (n, 3), seed=n)
    gam = bumped(resistance_table(g).values, [(0, 0, -3)], [])
    seen = []

    def spy(cut_t, gam_t, *args):
        seen.append((cut_t.tolist(), gam_t.tolist()))
        return sampled_pairs(cut_t, gam_t, *args)

    sampled_pairs = erl.analysis._sampled_pairs
    monkeypatch.setattr(erl.analysis, "_sampled_pairs", spy)
    report = verify_table_invariants(g, ResistanceTable(g, gam, 1),
                                     mode="sampled")
    assert not report.checks["resistance_monotone"].ok
    assert seen == [(cut_table(g).tolist(), gam.tolist())]


@pytest.mark.parametrize("kwargs", [
    dict(seed=-1), dict(seed=1.5), dict(seed=True), dict(samples=-1),
    dict(samples=2.5), dict(samples=True), dict(samples=SAMPLE_CAP + 1)])
def test_bad_arguments_refused_on_a_passing_table(kwargs):
    g = generate("random_regular", (12, 3), seed=5)
    table = resistance_table(g)
    assert verify_table_invariants(g, table, mode="sampled").ok
    with pytest.raises(ErlError, match="seed|samples"):
        verify_table_invariants(g, table, mode="sampled", **kwargs)


def literal_steps(cuts, gam, delta: int, n: int) -> dict:
    """Oracle for ``_Steps``: each check's first bags per node, and per node
    pair for the squares, by enumerating masks in order."""
    cuts = [int(c) for c in cuts]
    gam = [int(x) for x in gam]

    def first(cond, bags):
        return [s for s in bags if cond(s)][:_MAX_WITNESSES]

    found = {}
    for v in range(n):
        bit = 1 << v
        out = [s for s in range(1 << n) if not s & bit]
        dc = {s: cuts[s] - cuts[s | bit] for s in out}
        dg = {s: gam[s] - gam[s | bit] for s in out}
        found["cut_lipschitz", v] = first(lambda s: abs(dc[s]) > delta, out)
        found["resistance_smooth", v] = first(lambda s: abs(dg[s]) > delta,
                                              out)
        found["resistance_monotone", v] = first(lambda s: dg[s] > 0, out)
        found["cut_at_drop", v] = first(
            lambda s: max(cuts[s], gam[s]) < gam[s | bit], out)
        for u in range(v + 1, n):
            found["square", v, u] = first(
                lambda s: dc[s] > dc[s | 1 << u],
                [s for s in out if not s >> u & 1])
    return found


class StepsSpy(erl.analysis._Steps):
    made: list = []

    def __init__(self, *args):
        super().__init__(*args)
        StepsSpy.made.append(self)


@pytest.mark.parametrize("n", [K + 1, 11, 12])
def test_every_step_and_square_matches_literal(n, monkeypatch):
    """Random bumps on a third of the node pairs and on every node, so that
    nearly every step and square has hits to map back from both layouts."""
    rng = rng_for(700 + n)
    g = random_bounded_graph(n, 4, rng)
    table = resistance_table(g)
    pairs = [(a, b, int(rng.integers(-6, 7))) for a in range(n)
             for b in range(a, n) if a == b or rng.random() < 0.33]
    pairs += [(0, n - 1, 3), (K - 1, K, 4)]
    cuts = bumped(cut_table(g), pairs, [])
    gam = bumped(table.values, [(a, a, int(rng.integers(-4, 5)))
                                for a in range(n)], [])
    monkeypatch.setattr(erl.analysis, "_narrow_cut_table", lambda _g: cuts.copy())
    monkeypatch.setattr(erl.analysis, "_Steps", StepsSpy)
    StepsSpy.made.clear()
    verify_table_invariants(g, ResistanceTable(g, gam, 1), mode="sampled",
                            samples=0)
    (steps,) = StepsSpy.made
    want = literal_steps(cuts, gam, g.degree_bound, n)
    got = {(name, v): list(bags) for name, per_node in steps.hits.items()
           for v, bags in enumerate(per_node)}
    got.update({("square", v, u): list(bags)
                for (v, u), bags in steps.squares.items()})
    assert got == want
    low_hits = {key[0] for key, bags in got.items()
                if bags and min(key[1:]) < K}
    assert low_hits == {"cut_lipschitz", "resistance_smooth",
                        "resistance_monotone", "cut_at_drop", "square"}
    assert any(bags and key[1] < K <= key[2] for key, bags in got.items()
               if key[0] == "square")


def test_no_short_row_pass_at_n12(monkeypatch):
    """Every ``rowwise`` call of the audit at n = 12 has rows longer than
    SHORT_ROW_BYTES: the low nodes' passes run on transposed copies."""
    widths = []

    def spy(ufunc, *args, out):
        widths.append(out.shape[1] * max(
            a.itemsize for a in (*args, out) if isinstance(a, np.ndarray)))
        return rowwise(ufunc, *args, out=out)

    g = generate("random_regular", (12, 3), seed=12)
    table = resistance_table(g)
    monkeypatch.setattr(erl.analysis, "rowwise", spy)
    report = verify_table_invariants(g, table, mode="sampled")
    assert report.ok
    assert widths and min(widths) > SHORT_ROW_BYTES, sorted(set(widths))


def test_small_tables_are_not_copied(monkeypatch):
    def no_copy(*args):
        raise AssertionError("transposed a table")

    monkeypatch.setattr(erl.analysis, "transposed", no_copy)
    g = generate("random_regular", (K, 3), seed=1)
    assert verify_table_invariants(g, resistance_table(g), mode="sampled").ok
