import hashlib
import math
import struct
import sys
from bisect import bisect_right
from fractions import Fraction
from functools import partial
from itertools import accumulate
from math import lcm
from numbers import Rational
from operator import index

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erl import (GENERATE_CAP, HORIZON, MAX_EVENTS, RECOVERY, STALLED, Bag,
                 EpidemicConfig, ErlError, EventLog, Graph, Policy,
                 PolicyViolationError, ReplayError, builtin_policy, cut,
                 derive_seed, extinction_sweep, generate, replay,
                 resistance_table, simulate, validate_log,
                 verify_table_invariants)
from erl import analysis, epidemic
from erl.analysis import exact_extinction_times, make_policy
from erl.epidemic import LOG_MAGIC, Event, INFECTION

from conftest import ZOO, count_event_rows, event_log, rng_for
from reference_simulate import reference_simulate


def isolated(n: int) -> Graph:
    return Graph(n, [])


class TestPolicies:
    def test_max_cut_drop_prefers_interior_removal(self):
        g = generate("line", (3,))
        alloc = builtin_policy("max_cut_drop").allocate(
            g, Bag([0, 1]).mask, Fraction(2), None)
        assert alloc == {1: Fraction(2)}

    def test_max_cut_drop_tie_breaks_to_smaller_id(self):
        alloc = builtin_policy("max_cut_drop").allocate(
            isolated(3), Bag([1, 2]).mask, Fraction(1), None)
        assert alloc == {1: Fraction(1)}

    def test_degree_proportional_star(self):
        g = generate("star", (3,))
        alloc = builtin_policy("degree_proportional").allocate(
            g, Bag([0, 1]).mask, Fraction(1), None)
        assert alloc == {0: Fraction(3, 4), 1: Fraction(1, 4)}

    def test_degree_proportional_isolated_falls_back_to_uniform(self):
        alloc = builtin_policy("degree_proportional").allocate(
            isolated(4), Bag([0, 2]).mask, Fraction(1), None)
        assert alloc == {0: Fraction(1, 2), 2: Fraction(1, 2)}

    def test_uniform_split(self):
        alloc = builtin_policy("uniform").allocate(
            isolated(6), Bag([0, 1, 2, 3]).mask, Fraction(2), None)
        assert alloc == {v: Fraction(1, 2) for v in range(4)}

    def test_random_node_uses_policy_stream(self):
        pol = builtin_policy("random_node")
        rng = rng_for(1)
        picks = set()
        for _ in range(40):
            alloc = pol.allocate(isolated(5), Bag([1, 3, 4]).mask, Fraction(1), rng)
            (node, rate), = alloc.items()
            assert rate == Fraction(1)
            picks.add(node)
        assert picks <= {1, 3, 4}
        assert len(picks) == 3

    def test_resistance_greedy_cures_toward_lower_resistance(self):
        g = generate("line", (5,))
        table = resistance_table(g)
        pol = builtin_policy("resistance_greedy", table=table)
        # both removals leave a zero-resistance singleton, so the cut
        # tie-break fires: cut({0}) = 1 < cut({1}) = 2, cure node 1
        alloc = pol.allocate(g, Bag([0, 1]).mask, Fraction(3), None)
        assert alloc == {1: Fraction(3)}

    def test_cut_policies_match_from_scratch_argmin(self, zoo_graph):
        g = zoo_graph
        table = resistance_table(g)
        drop = builtin_policy("max_cut_drop")
        greedy = builtin_policy("resistance_greedy", table=table)
        for mask in range(1, 1 << g.node_count):
            infected = set(Bag.from_mask(mask))

            def after(v):
                rest = Bag.from_mask(mask & ~(1 << v))
                return table.gamma(rest), cut(g, rest), v

            want_drop = min(infected, key=lambda v: after(v)[1:])
            want_greedy = min(infected, key=after)
            assert drop.allocate(g, mask, Fraction(1), None) \
                == {want_drop: Fraction(1)}
            assert greedy.allocate(g, mask, Fraction(1), None) \
                == {want_greedy: Fraction(1)}

    def test_unknown_kind(self):
        with pytest.raises(ErlError):
            builtin_policy("psychic")

    @pytest.mark.parametrize("kind", sorted(epidemic._POLICY_KINDS))
    def test_allocate_at_the_empty_bag(self, kind):
        g = generate("line", (3,))
        assert make_policy(kind, g).allocate(g, 0, Fraction(2),
                                             rng_for(1)) == {}

    def test_one_node_policies_allocate_their_target(self):
        g = generate("grid", (2, 3))
        for kind in TARGET_KINDS:
            pol = make_policy(kind, g)
            for mask in range(1, 1 << g.node_count):
                node = pol.target(g, mask, rng_for(mask))
                assert (mask >> node) & 1
                assert pol.allocate(g, mask, Fraction(5, 2), rng_for(mask)) \
                    == {node: Fraction(5, 2)}
        assert Policy.target is None


class BadPolicy(Policy):
    name = "bad"

    def __init__(self, alloc_fn):
        self.alloc_fn = alloc_fn

    def allocate(self, graph, infected, budget, rng):
        return self.alloc_fn(set(Bag.from_mask(infected)), budget)


class TestAllocationContract:
    def setup_method(self):
        g = generate("line", (3,))
        self.config = EpidemicConfig(graph=g, initial_infected=Bag([0, 1]),
                                     budget=Fraction(1), seed=5)

    def test_overspend_rejected(self):
        pol = BadPolicy(lambda inf, b: {min(inf): b + Fraction(1, 10**9)})
        with pytest.raises(PolicyViolationError) as exc:
            simulate(self.config, pol)
        assert "bad" in str(exc.value)
        assert "budget" in str(exc.value)

    def test_healthy_allocation_rejected(self):
        pol = BadPolicy(lambda inf, b: {2: b})
        with pytest.raises(PolicyViolationError) as exc:
            simulate(self.config, pol)
        assert "non-infected" in str(exc.value)

    def test_negative_rate_rejected(self):
        pol = BadPolicy(lambda inf, b: {min(inf): -b})
        with pytest.raises(PolicyViolationError):
            simulate(self.config, pol)

    def test_float_rate_rejected(self):
        pol = BadPolicy(lambda inf, b: {min(inf): 0.5})
        with pytest.raises(PolicyViolationError) as exc:
            simulate(self.config, pol)
        assert "rational" in str(exc.value)

    def test_exact_budget_is_fine(self):
        pol = BadPolicy(lambda inf, b: {v: b / len(inf) for v in inf})
        res = simulate(self.config, pol)
        assert res.extinct


def per_entry_curing_table(alloc, infected, budget, policy_name):
    """Reference for ``epidemic._curing_table``: the same checks and sums,
    with one rate check, lcm and float conversion per entry."""
    den = 1
    pairs = []
    for v, rate in alloc.items():
        try:
            node = index(v)
        except TypeError:
            node = -1
        if node < 0 or not (infected >> node) & 1:
            raise PolicyViolationError(policy_name,
                                       f"allocated to non-infected node {v}")
        if not isinstance(rate, Rational):
            raise PolicyViolationError(
                policy_name, f"rate {rate!r} at node {v} is not rational")
        if rate.numerator < 0:
            raise PolicyViolationError(policy_name, f"negative rate at node {v}")
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


def curing_outcome(table_fn, alloc, infected, budget):
    try:
        return table_fn(alloc, infected, budget, "p")
    except (PolicyViolationError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"


def random_allocation(rng, infected: int, n: int) -> dict:
    """Entries over random nodes in random order, with runs that share one
    rate object, equal rates held by distinct objects, ints, bools and
    mixed denominators; now and then one entry is bad."""
    alloc = {}
    shared = Fraction(int(rng.integers(0, 7)), int(rng.integers(1, 13)))
    for v in rng.permutation(n)[:int(rng.integers(0, n + 1))]:
        v = int(v)
        pick = rng.random()
        if pick < 0.5:
            rate = shared
        elif pick < 0.6:
            rate = Fraction(shared.numerator, shared.denominator)
        elif pick < 0.7:
            rate = int(rng.integers(0, 3))
        elif pick < 0.75:
            rate = bool(rng.integers(2))
        elif pick < 0.95:
            shared = Fraction(int(rng.integers(0, 7)), int(rng.integers(1, 13)))
            rate = shared
        else:
            rate = [-shared - 1, 0.5, None, "1"][int(rng.integers(4))]
        alloc[v] = rate
    if alloc and rng.random() < 0.05:
        alloc[[-1, 1.5, "a"][int(rng.integers(3))]] = shared
    return alloc


class TestCuringTable:
    def test_matches_per_entry_reference(self):
        rng = rng_for(88)
        outcomes = set()
        for _ in range(3000):
            n = int(rng.integers(1, 13))
            infected = int(rng.integers(0, 1 << n))
            alloc = random_allocation(rng, infected, n)
            exact = sum(r for r in alloc.values() if isinstance(r, Rational))
            budget = Fraction(exact) + Fraction(int(rng.integers(-1, 2)),
                                                int(rng.integers(1, 5)))
            want = curing_outcome(per_entry_curing_table, alloc, infected,
                                  budget)
            got = curing_outcome(epidemic._curing_table, alloc, infected,
                                 budget)
            assert got == want, (alloc, infected, budget)
            outcomes.add(want.split("violated: ")[1].split()[0]
                         if isinstance(want, str) else "ok")
        assert outcomes == {"ok", "allocated", "rate", "negative", "total"}

    @pytest.mark.parametrize("budget", [Fraction(1), Fraction(10**400)])
    def test_rate_too_large_for_a_float(self, budget):
        # over budget, the budget error wins; within it, float() overflows
        huge = Fraction(10**400, 3)
        alloc = {0: Fraction(1, 2), 1: huge, 2: huge}
        want = curing_outcome(per_entry_curing_table, alloc, 0b111, budget)
        assert ("exceeds budget" in want) == (budget == 1)
        assert want.startswith("OverflowError") == (budget > 1)
        assert curing_outcome(epidemic._curing_table, alloc, 0b111,
                              budget) == want

    def test_empty_allocation(self):
        assert epidemic._curing_table({}, 0b101, Fraction(1), "p") == \
            (0.0, [], [])

    @pytest.mark.parametrize("alloc,message", [
        ({0: Fraction(1, 4), 1: Fraction(1, 4), 2: Fraction(1, 4)},
         "allocated to non-infected node 2"),
        ({0: 0.25, 1: Fraction(1, 4)}, "rate 0.25 at node 0 is not rational"),
        ({0: Fraction(1, 4), 1: Fraction(-1, 4)}, "negative rate at node 1"),
        ({0: Fraction(1, 2), 1: Fraction(2, 3)}, "total rate 7/6 exceeds budget 1"),
    ])
    def test_first_bad_entry_named(self, alloc, message):
        # node 2 is healthy; the bad entry follows a good one
        with pytest.raises(PolicyViolationError) as exc:
            epidemic._curing_table(alloc, 0b011, Fraction(1), "p")
        assert message in str(exc.value)

    def test_shared_rate_checked_at_its_first_entry(self):
        bad = Fraction(-1, 3)
        alloc = {3: Fraction(1, 3), 1: bad, 0: bad, 5: Fraction(0)}
        with pytest.raises(PolicyViolationError) as exc:
            epidemic._curing_table(alloc, 0b1011, Fraction(1), "p")
        assert "negative rate at node 1" in str(exc.value)
        share = Fraction(1, 3)
        alloc = {0: share, 1: share, 2: share, 3: share}
        with pytest.raises(PolicyViolationError) as exc:
            epidemic._curing_table(alloc, 0b1011, Fraction(1), "p")
        assert "non-infected node 2" in str(exc.value)


class CountingPolicy(Policy):
    """Forwards to a policy and records the bag of every call."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.bags = []

    def allocate(self, graph, infected, budget, rng):
        self.bags.append(infected)
        return self.inner.allocate(graph, infected, budget, rng)


class TestAllocationMemo:
    def run(self, kind):
        g = generate("complete", (6,))
        cfg = EpidemicConfig(graph=g, initial_infected=g.all_nodes(),
                             budget=Fraction(2), seed=17)
        pol = CountingPolicy(builtin_policy(kind))
        res = simulate(cfg, pol, replication=1)
        assert res.extinct
        assert res.log == simulate(cfg, builtin_policy(kind),
                                   replication=1).log
        # the bag before each event; an extinct run calls the policy there only
        before = [bag.mask for _, bag in replay(res.log, g)][:-1]
        return pol.bags, before

    @pytest.mark.parametrize("kind", ["max_cut_drop", "degree_proportional",
                                      "uniform"])
    def test_deterministic_policy_called_once_per_bag(self, kind):
        calls, before = self.run(kind)
        assert len(before) > 4 * len(set(before))
        assert sorted(calls) == sorted(set(before))

    def test_random_node_called_whenever_it_touches(self):
        calls, before = self.run("random_node")
        singles = {m for m in before if m.bit_count() == 1}
        # one-node bags are revisited; integers(1) draws nothing there, but
        # it touches the stream, so the policy is called again
        assert sum(m.bit_count() == 1 for m in before) > len(singles)
        assert sorted(calls) == sorted(before)

    @pytest.mark.parametrize("touch", ["integers", "bit_generator"])
    def test_touching_without_drawing_called_at_every_visit(self, touch):
        g = generate("complete", (6,))
        cfg = EpidemicConfig(graph=g, initial_infected=g.all_nodes(),
                             budget=Fraction(2), seed=17)
        pol = TouchesOnly(touch)
        res = simulate(cfg, pol, replication=1)
        want = simulate(cfg, builtin_policy("max_cut_drop"), replication=1)
        assert res.log.to_binary() == want.log.to_binary()
        before = [bag.mask for _, bag in replay(res.log, g)][:-1]
        assert len(before) > 4 * len(set(before))
        assert sorted(pol.bags) == sorted(before)

    def test_full_memo_is_emptied_without_changing_the_log(self, monkeypatch):
        cfg = golden_config("complete:6")
        monkeypatch.setattr(epidemic, "_MEMO_CELLS", 3 * cfg.graph.node_count)
        pol = CountingPolicy(builtin_policy("uniform"))
        log = simulate(cfg, pol, replication=3).log
        assert sha256(log) == GOLDEN_LOGS["complete:6", "uniform"]
        assert len(pol.bags) > 10 * len(set(pol.bags))

    def test_requeried_allocation_is_validated(self):
        class Overspends(Policy):
            """Draws at every call and overspends from the fifth call on."""
            name = "overspends"
            calls = 0

            def allocate(self, graph, infected, budget, rng):
                rng.random()
                self.calls += 1
                node = (infected & -infected).bit_length() - 1
                return {node: budget if self.calls < 5 else 2 * budget}

        g = generate("line", (2,))
        cfg = EpidemicConfig(graph=g, initial_infected=g.all_nodes(),
                             budget=Fraction(1, 10), seed=3)
        pol = Overspends()
        with pytest.raises(PolicyViolationError):
            simulate(cfg, pol)
        assert pol.calls == 5


def bits(xs) -> list[int]:
    """Each float as its 64-bit pattern, so that a comparison is bit for
    bit."""
    return [struct.unpack("<Q", struct.pack("<d", x))[0] for x in xs]


def assert_matches_reference(cfg, policy, replication=0):
    """``simulate``'s run is ``reference_simulate``'s: the same log bytes,
    extinction time bits and censor reason.  Returns the run."""
    got = simulate(cfg, policy, replication=replication)
    want = reference_simulate(cfg, policy, replication)
    assert got.log.to_binary() == want.log.to_binary()
    assert got.censored == want.censored
    taus = [None if r.extinction_time is None else bits([r.extinction_time])
            for r in (got, want)]
    assert taus[0] == taus[1]
    return got


WEIGHT_KINDS = ["degree_proportional", "uniform"]
WEIGHT_BUDGETS = [Fraction(0), Fraction(1), Fraction(3, 2), Fraction(7, 3),
                  Fraction(10**6)]


def with_isolated() -> Graph:
    """A path 0-1-2 beside isolated nodes 3, 4 and 5: a bag inside {3, 4, 5}
    has degree weight 0, where degree_proportional splits uniformly."""
    return Graph(6, [(0, 1), (1, 2)])


class TestWeightRule:
    """``simulate`` and the sweep engine take the curing table of a policy
    that declares weights from the weights alone; every table and node must
    be the ones that ``_curing_table`` gives the policy's allocation."""

    @pytest.mark.parametrize("graph", [pytest.param(make, id=name)
                                       for name, make in ZOO]
                             + [pytest.param(with_isolated, id="isolated")])
    def test_tables_match_curing_table_on_every_bag(self, graph):
        g = graph()
        assert g.node_count <= 10
        for kind in WEIGHT_KINDS:
            pol = builtin_policy(kind)
            weights = pol.weights(g)
            for budget in WEIGHT_BUDGETS:
                rule = epidemic._weight_rule(pol, g, budget)
                for mask in range(1, 1 << g.node_count):
                    total = sum(weights[v] for v in Bag.from_mask(mask))
                    want = epidemic._curing_table(
                        pol.allocate(g, mask, budget, None), mask, budget,
                        pol.name)
                    rho, cured, sums = rule.table(mask)
                    assert bits([rho]) == bits([want[0]]) == \
                        bits([float(budget)])
                    assert cured == want[1] == list(Bag.from_mask(mask).nodes())
                    assert bits(sums) == bits(want[2])
                    # the walk cures what a bisection of the sums cures, at
                    # each sum, beside it and at the ends of [0, rho)
                    probes = {0.0, np.nextafter(rho, 0.0)} | {
                        x for s in sums for x in
                        (s, np.nextafter(s, 0.0), np.nextafter(s, np.inf))
                        if 0.0 <= x < rho}
                    for u in probes:
                        i = min(bisect_right(sums, u), len(cured) - 1)
                        assert rule.pick(mask, total, u) == cured[i]

    def test_isolated_bag_splits_uniformly(self):
        g = with_isolated()
        rule = epidemic._weight_rule(builtin_policy("degree_proportional"),
                                     g, Fraction(7, 3))
        rho, cured, sums = rule.table(Bag([3, 5]).mask)
        assert cured == [3, 5]
        assert bits(sums) == bits([7 / 6, 7 / 6 + 7 / 6])

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.sampled_from([name for name, _ in ZOO] + ["isolated"]),
           st.sampled_from(WEIGHT_KINDS), st.integers(0, 2**64 - 1),
           st.integers(0, 2**10 - 1), st.integers(0, 3),
           st.sampled_from(WEIGHT_BUDGETS[:4] + [Fraction(9, 4)]),
           st.sampled_from([None, 0.5, 4.0]), st.integers(1, 400))
    def test_logs_match_the_allocation_path(self, name, kind, seed, start,
                                            replication, budget, horizon,
                                            cap):
        g = dict(ZOO, isolated=with_isolated)[name]()
        # a full start half the time, else a partial one
        start = g.full_mask if start % 2 else start & g.full_mask
        cfg = EpidemicConfig(graph=g, initial_infected=Bag.from_mask(start),
                             budget=budget, seed=seed, horizon=horizon,
                             max_events=cap)
        forced = CountingPolicy(builtin_policy(kind))
        want = simulate(cfg, forced, replication=replication)
        got = simulate(cfg, builtin_policy(kind), replication=replication)
        assert got.log.to_binary() == want.log.to_binary()
        assert (got.extinction_time, got.censored) == \
            (want.extinction_time, want.censored)
        assert bool(forced.bags) == bool(start)

    def test_logs_match_the_allocation_path_on_long_runs(self):
        # revisited bags: walks, kept tables and bisections all cure
        for spec in ("complete:6", "random_regular:10,3"):
            cfg = golden_config(spec)
            for kind in WEIGHT_KINDS:
                want = simulate(cfg, CountingPolicy(builtin_policy(kind)),
                                replication=3).log
                assert simulate(cfg, builtin_policy(kind),
                                replication=3).log == want

    def test_no_policy_call_or_stream(self, monkeypatch):
        made = []
        real = epidemic._stream

        def counting(seed, replication, k):
            made.append(k)
            return real(seed, replication, k)

        def refuse(*args):
            raise AssertionError("the weight rule called allocate")

        monkeypatch.setattr(epidemic, "_stream", counting)
        monkeypatch.setattr(epidemic, "_curing_table", refuse)
        cfg = golden_config("complete:6")
        for kind in WEIGHT_KINDS:
            monkeypatch.setattr(type(builtin_policy(kind)), "allocate",
                                refuse)
            log = simulate(cfg, builtin_policy(kind), replication=3).log
            assert sha256(log) == GOLDEN_LOGS["complete:6", kind]
        assert made == [0, 0]

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.sampled_from([name for name, _ in ZOO] + ["isolated"]),
           st.sampled_from(WEIGHT_KINDS), st.integers(0, 2**64 - 1),
           st.integers(0, 2**10 - 1), st.sampled_from(WEIGHT_BUDGETS),
           st.sampled_from([None, 0.5, 4.0]), st.integers(1, 400))
    def test_engine_matches_the_allocation_path(self, name, kind, seed, start,
                                                budget, horizon, cap):
        g = dict(ZOO, isolated=with_isolated)[name]()
        # a full start half the time, else a partial one
        start = g.full_mask if start % 2 else start & g.full_mask
        cfg = EpidemicConfig(graph=g, initial_infected=Bag.from_mask(start),
                             budget=budget, seed=seed, horizon=horizon,
                             max_events=cap)
        forced = CountingPolicy(builtin_policy(kind))
        want = epidemic._extinction_times(cfg, forced, range(4))
        got = epidemic._extinction_times(cfg, builtin_policy(kind), range(4))
        assert got == want
        assert bool(forced.bags) == bool(start)

    def test_weights_read_once_per_run(self, monkeypatch):
        calls = []
        real = epidemic.UniformPolicy.weights

        def counted(self, graph):
            calls.append(graph)
            return real(self, graph)

        monkeypatch.setattr(epidemic.UniformPolicy, "weights", counted)
        cfg = golden_config("complete:6")
        simulate(cfg, builtin_policy("uniform"), replication=3)
        assert calls == [cfg.graph]
        epidemic._extinction_times(cfg, builtin_policy("uniform"), range(8))
        assert calls == [cfg.graph] * 2

    def test_weight_rule_made_once_per_call(self, monkeypatch):
        made = []
        real = epidemic._weight_rule

        def counted(policy, graph, budget):
            made.append(policy.name)
            return real(policy, graph, budget)

        monkeypatch.setattr(epidemic, "_weight_rule", counted)
        monkeypatch.setattr(analysis, "_weight_rule", counted)
        cfg = golden_config("complete:6")
        for kind in WEIGHT_KINDS:
            simulate(cfg, builtin_policy(kind), replication=3)
            epidemic._extinction_times(cfg, builtin_policy(kind), range(8))
            exact_extinction_times(cfg.graph, builtin_policy(kind), cfg.budget)
        assert made == [kind for kind in WEIGHT_KINDS for _ in range(3)]

    def test_allocate_is_the_weight_rule(self):
        g = with_isolated()
        degree = builtin_policy("degree_proportional")
        assert degree.allocate(g, Bag([0, 1, 3]).mask, Fraction(3), None) \
            == {0: 1, 1: 2, 3: 0}
        assert degree.allocate(g, Bag([3, 5]).mask, Fraction(3), None) \
            == {3: Fraction(3, 2), 5: Fraction(3, 2)}
        assert builtin_policy("uniform").allocate(
            g, Bag([0, 2, 4]).mask, Fraction(2), None) == \
            {0: Fraction(2, 3), 2: Fraction(2, 3), 4: Fraction(2, 3)}
        with pytest.raises(NotImplementedError):
            epidemic.Policy().allocate(g, 1, Fraction(1), None)

    @pytest.mark.parametrize("weights,message", [
        ((1, 1), "weights must be a tuple of 3 ints"),
        ((1, 1, 1, 1), "weights must be a tuple of 3 ints"),
        ([1, 1, 1], "weights must be a tuple of 3 ints"),
        ((1, -1, 1), "weight -1 of node 1 is not a nonnegative int"),
        ((1, 1, 1.0), "weight 1.0 of node 2 is not a nonnegative int"),
        ((True, 1, 1), "weight True of node 0 is not a nonnegative int"),
        ((1, np.int64(1), 1), r"weight np\.int64\(1\) of node 1 is not"),
        ((1, Fraction(1), 1), r"weight Fraction\(1, 1\) of node 1 is not")])
    def test_bad_weights_refused_before_any_event(self, weights, message):
        class Declares(epidemic.UniformPolicy):
            name = "declares"

            def weights(self, graph):
                return weights

        g = generate("line", (3,))
        cfg = EpidemicConfig(graph=g, initial_infected=g.all_nodes(),
                             budget=Fraction(1), seed=1)
        for run in (lambda pol: simulate(cfg, pol),
                    lambda pol: epidemic._extinction_times(cfg, pol, range(2)),
                    lambda pol: exact_extinction_times(g, pol, cfg.budget)):
            with pytest.raises(PolicyViolationError,
                               match=f"policy 'declares' violated: {message}"):
                run(Declares())


TARGET_KINDS = ["max_cut_drop", "random_node", "resistance_greedy"]


class Forwards:
    """Forwards every attribute to a policy, as a tracing probe does, and
    counts its ``allocate`` calls; not a ``Policy``."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = 0

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def allocate(self, *args):
        self.calls += 1
        return self._inner.allocate(*args)


class Aims(Policy):
    """All budget on the node ``pick(infected)`` names."""

    name = "aims"

    def __init__(self, pick):
        self.pick = pick

    def target(self, graph, infected, rng):
        return self.pick(infected)


class TestTarget:
    """``simulate`` and the sweep engine ask a one-node policy for its
    target, not its allocation; tables, draws and logs must be the ones
    its allocation {target: budget} gives through ``_curing_table``."""

    @pytest.mark.parametrize("spec", ["complete:6", "random_regular:10,3"])
    def test_no_allocate_or_curing_table(self, spec, monkeypatch):
        # weight policies take neither in either simulator too
        cfg = golden_config(spec)
        kinds = TARGET_KINDS + WEIGHT_KINDS
        pols = {kind: make_policy(kind, cfg.graph) for kind in kinds}
        sweep = {"family": "line", "sizes": [4, 6], "budget": 3,
                 "replications": 30, "seed": 5}
        want = {kind: extinction_sweep(dict(sweep, policy=kind))
                for kind in kinds}
        want_engine = {kind: epidemic._extinction_times(cfg, pol, range(8))
                       for kind, pol in pols.items()}

        def refuse(*args):
            raise AssertionError("a builtin was asked to allocate")

        monkeypatch.setattr(epidemic.Policy, "allocate", refuse)
        monkeypatch.setattr(epidemic, "_curing_table", refuse)
        for kind, pol in pols.items():
            if (spec, kind) in GOLDEN_LOGS:
                assert sha256(simulate(cfg, pol, replication=3).log) == \
                    GOLDEN_LOGS[spec, kind]
            assert epidemic._extinction_times(cfg, pol, range(8)) == \
                want_engine[kind]
            assert extinction_sweep(dict(sweep, policy=kind)) == want[kind]

    @pytest.mark.parametrize("kind", TARGET_KINDS)
    @pytest.mark.parametrize("budget", [Fraction(0), Fraction(7, 3),
                                        Fraction(1, 10**30), Fraction(3)])
    def test_same_draws_as_the_allocation_path(self, kind, budget):
        g = generate("grid", (3, 4))
        cfg = EpidemicConfig(graph=g, initial_infected=Bag([0, 5, 6]),
                             budget=budget, infection_rate=0.7, seed=4243,
                             max_events=2000)
        pol = make_policy(kind, g)
        forced = CountingPolicy(pol)
        for replication in range(3):
            got = simulate(cfg, pol, replication=replication)
            want = simulate(cfg, forced, replication=replication)
            assert got.log.to_binary() == want.log.to_binary()
            assert (got.extinction_time, got.censored) == \
                (want.extinction_time, want.censored)
        assert forced.bags
        assert epidemic._extinction_times(cfg, pol, range(6)) == \
            epidemic._extinction_times(cfg, forced, range(6))

    @pytest.mark.parametrize("pick", [
        lambda infected: 2, lambda infected: -1, lambda infected: "0",
        lambda infected: 0.0, lambda infected: None,
        lambda infected: 1 << 20],
        ids=["healthy", "negative", "str", "float", "none", "beyond"])
    def test_bad_target_refused_as_curing_table_refuses(self, pick):
        g = generate("line", (3,))
        cfg = EpidemicConfig(graph=g, initial_infected=Bag([0, 1]),
                             budget=Fraction(1), seed=5, max_events=50)
        with pytest.raises(PolicyViolationError) as want:
            epidemic._curing_table({pick(0b011): cfg.budget}, 0b011,
                                   cfg.budget, "aims")
        for run in (lambda pol: simulate(cfg, pol),
                    lambda pol: epidemic._extinction_times(cfg, pol,
                                                           range(2))):
            with pytest.raises(PolicyViolationError) as got:
                run(Aims(pick))
            assert str(got.value) == str(want.value)

    def test_numpy_and_bool_ids_accepted_as_curing_table_accepts(self):
        g = generate("line", (3,))
        cfg = EpidemicConfig(graph=g, initial_infected=Bag([1]),
                             budget=Fraction(1), seed=5, max_events=1)
        for node in (np.int64(1), True):
            res = simulate(cfg, Aims(lambda infected: node))
            assert res.log.nodes == (1,)
            assert type(res.log.nodes[0]) is int

    @pytest.mark.parametrize("kind", TARGET_KINDS + WEIGHT_KINDS)
    def test_forwarding_wrapper_takes_the_same_path(self, kind):
        cfg = golden_config("complete:6")
        pol = make_policy(kind, cfg.graph)
        wrapped = Forwards(pol)
        assert not isinstance(wrapped, Policy)
        log = simulate(cfg, wrapped, replication=3).log
        assert sha256(log) == GOLDEN_LOGS["complete:6", kind]
        assert epidemic._extinction_times(cfg, wrapped, range(6)) == \
            epidemic._extinction_times(cfg, pol, range(6))
        assert wrapped.calls == 0

    def test_target_outranks_weights(self):
        class Both(epidemic.UniformPolicy):
            name = "both"

            def target(self, graph, infected, rng):
                return infected.bit_length() - 1

        cfg = golden_config("complete:6")
        forced = CountingPolicy(Both())
        assert Both().allocate(cfg.graph, 0b101, cfg.budget, None) == \
            {2: cfg.budget}
        assert simulate(cfg, Both(), replication=3).log == \
            simulate(cfg, forced, replication=3).log
        assert epidemic._extinction_times(cfg, Both(), range(4)) == \
            epidemic._extinction_times(cfg, forced, range(4))


class TestStreams:
    @pytest.mark.parametrize("make", [
        lambda seed: epidemic._stream(seed, 0, 0),
        lambda seed: derive_seed(seed, 0)], ids=["stream", "derive_seed"])
    def test_negative_seed_refused(self, make):
        with pytest.raises(ErlError, match="seed must be nonnegative, got -1"):
            make(-1)

    @pytest.mark.parametrize("make", [
        lambda seed: derive_seed(seed, 0),
        lambda seed: generate("random_regular", (8, 3), seed=seed),
        lambda seed: verify_table_invariants(
            generate("line", (3,)), resistance_table(generate("line", (3,))),
            seed=seed)],
        ids=["derive_seed", "generate", "verify_table_invariants"])
    @pytest.mark.parametrize("seed", [1.5, True, "1"])
    def test_seed_not_an_int_refused(self, make, seed):
        with pytest.raises(ErlError, match="seed must be an int"):
            make(seed)

    @pytest.mark.parametrize("seed,replication", [(0, 0), (4242, 3),
                                                  (2**63 + 5, 17)])
    def test_same_streams_as_spawned_children(self, seed, replication):
        # simulate's event (k = 0) and policy (k = 1) streams
        root = np.random.SeedSequence(entropy=seed, spawn_key=(replication,))
        for k, child in enumerate(root.spawn(2)):
            got = epidemic._stream(seed, replication, k)
            want = np.random.Generator(np.random.Philox(child))
            assert got.random(100).tolist() == want.random(100).tolist()
            assert got.integers(1 << 62, size=100).tolist() == \
                want.integers(1 << 62, size=100).tolist()

    @pytest.mark.parametrize("kind,built", [("uniform", 0), ("max_cut_drop", 0),
                                            ("random_node", 1)])
    def test_policy_stream_built_only_when_touched(self, kind, built,
                                                   monkeypatch):
        made = []
        real = epidemic._stream

        def counting(seed, replication, k):
            made.append(k)
            return real(seed, replication, k)

        monkeypatch.setattr(epidemic, "_stream", counting)
        cfg = golden_config("random_regular:10,3")
        simulate(cfg, builtin_policy(kind), replication=3)
        assert made == [0] + [1] * built
        made.clear()
        # the engine seeds no stream per replication: it moves its events
        # range to each replication, and its policy range only when touched
        moved = []
        real_at = epidemic._CounterRange.at

        def counting_at(self, replication):
            moved.append(self._word3)
            return real_at(self, replication)

        monkeypatch.setattr(epidemic._CounterRange, "at", counting_at)
        epidemic._extinction_times(cfg, builtin_policy(kind), range(4))
        assert made == []
        assert moved == [0, *[1] * built] * 4


def extinction_times(cfg, policy, replications=range(1)):
    return epidemic._extinction_times(cfg, policy, replications)


class AlwaysDraws(Policy):
    """All budget on the smallest infected node, after one draw from the
    policy stream at every call."""

    name = "always_draws"

    def __init__(self):
        self.bags = []

    def allocate(self, graph, infected, budget, rng):
        self.bags.append(infected)
        rng.random()
        return {(infected & -infected).bit_length() - 1: budget}


class TouchesOnly(Policy):
    """Allocates as max_cut_drop after touching the policy stream without
    drawing from it: ``integers(1)`` is always 0 and takes no draw, and
    reading ``bit_generator`` moves nothing."""

    name = "touches_only"

    def __init__(self, touch):
        self.touch = touch
        self.bags = []

    def allocate(self, graph, infected, budget, rng):
        self.bags.append(infected)
        if self.touch == "integers":
            assert rng.integers(1) == 0
        else:
            rng.bit_generator
        return builtin_policy("max_cut_drop").allocate(graph, infected,
                                                       budget, rng)


class TestSweepEngine:
    """The tau-only engine behind sweeps: same law as ``simulate``, checked
    against exact means in test_analysis; its contract is checked here."""

    @pytest.mark.parametrize("kind", ["max_cut_drop", "random_node"])
    def test_reproducible_and_chunkable(self, kind):
        g = generate("cycle", (6,))
        cfg = EpidemicConfig(graph=g, initial_infected=g.all_nodes(),
                             budget=Fraction(4), seed=5)
        whole = extinction_times(cfg, builtin_policy(kind), range(12))
        assert whole == extinction_times(cfg, builtin_policy(kind), range(12))
        parts = (extinction_times(cfg, builtin_policy(kind), range(5))
                 + extinction_times(cfg, builtin_policy(kind), range(5, 12)))
        assert parts == whole
        assert len({tau for tau, _ in whole}) == 12

    @pytest.mark.parametrize("kind", ["max_cut_drop", "random_node"])
    def test_replication_does_not_depend_on_its_company(self, kind):
        g = generate("cycle", (6,))
        cfg = EpidemicConfig(graph=g, initial_infected=g.all_nodes(),
                             budget=Fraction(4), seed=5)
        whole = extinction_times(cfg, builtin_policy(kind), range(12))
        for j in range(12):
            assert extinction_times(cfg, builtin_policy(kind), [j]) == \
                [whole[j]]
        # each replication after ones of other lengths, longest or shortest
        # first, and in a chunk of its own
        for order in (sorted(range(12), key=lambda j: whole[j][0]),
                      sorted(range(12), key=lambda j: -whole[j][0]),
                      [7, 2, 11, 0]):
            assert extinction_times(cfg, builtin_policy(kind), order) == \
                [whole[j] for j in order]

    def test_no_seed_sequence_or_philox_per_replication(self, monkeypatch):
        built = []

        def counted(name):
            real = getattr(np.random, name)

            def make(*args, **kwargs):
                built.append(name)
                return real(*args, **kwargs)
            return make

        g = generate("cycle", (6,))
        cfg = EpidemicConfig(graph=g, initial_infected=g.all_nodes(),
                             budget=Fraction(4), seed=5)
        # random_node draws from the policy stream in every replication
        pol = CountingPolicy(builtin_policy("random_node"))
        for name in ("SeedSequence", "Philox"):
            monkeypatch.setattr(np.random, name, counted(name))
        times = extinction_times(cfg, pol, range(50))
        assert len(times) == 50 and len(pol.bags) > 50
        assert sorted(built) == ["Philox", "Philox", "SeedSequence"]

    def test_empty_start_is_extinct_at_zero(self):
        g = generate("line", (3,))
        cfg = EpidemicConfig(graph=g, initial_infected=Bag(), budget=1)
        assert simulate(cfg, builtin_policy("uniform")).extinction_time == 0.0
        assert extinction_times(cfg, builtin_policy("uniform")) == [(0.0, None)]

    def test_stalled_as_simulate(self):
        g = generate("line", (2,))
        cfg = EpidemicConfig(graph=g, initial_infected=Bag([0]), budget=0,
                             seed=1)
        assert simulate(cfg, builtin_policy("uniform")).censored == STALLED
        assert extinction_times(cfg, builtin_policy("uniform"), range(3)) == \
            [(None, STALLED)] * 3

    def test_stalled_bag_asked_again_by_each_replication(self):
        # every run infects node 1 and stalls at the full bag, which has no
        # transition and so no step table to keep; its first bag is kept
        g = generate("line", (2,))
        cfg = EpidemicConfig(graph=g, initial_infected=Bag([0]), budget=0,
                             seed=1)
        pol = CountingPolicy(builtin_policy("uniform"))
        assert extinction_times(cfg, pol, range(4)) == [(None, STALLED)] * 4
        assert pol.bags == [0b01] + [0b11] * 4

    def test_horizon_as_simulate(self):
        cfg = EpidemicConfig(graph=isolated(1), initial_infected=Bag([0]),
                             budget=Fraction(1, 1000), horizon=0.01, seed=2)
        assert simulate(cfg, builtin_policy("uniform")).censored == HORIZON
        assert extinction_times(cfg, builtin_policy("uniform"), range(3)) == \
            [(None, HORIZON)] * 3

    def test_max_events_as_simulate(self):
        g = generate("complete", (5,))
        cfg = EpidemicConfig(graph=g, initial_infected=g.all_nodes(),
                             budget=Fraction(1, 4), seed=3, max_events=10)
        assert simulate(cfg, builtin_policy("uniform")).censored == MAX_EVENTS
        assert extinction_times(cfg, builtin_policy("uniform"), range(3)) == \
            [(None, MAX_EVENTS)] * 3

    # isolated nodes are only ever cured, so extinction takes exactly n
    # events; 150 nodes span the first three blocks of draws (64, 128)
    @pytest.mark.parametrize("n,cap", [(3, 2), (3, 3), (150, 63), (150, 64),
                                       (150, 65), (150, 149), (150, 150)])
    def test_event_cap_at_extinction_as_simulate(self, n, cap):
        cfg = EpidemicConfig(graph=isolated(n), initial_infected=Bag(range(n)),
                             budget=1, seed=4, max_events=cap)
        res = simulate(cfg, builtin_policy("max_cut_drop"))
        (tau, reason), = extinction_times(cfg, builtin_policy("max_cut_drop"))
        assert reason == res.censored == (None if cap >= n else MAX_EVENTS)
        assert (tau is None) == (res.extinction_time is None)

    def test_event_cap_does_not_change_uncensored_times(self):
        # about 300 events a run: E[tau] = 74 at total rates of about 4
        g = generate("complete", (4,))
        runs = [extinction_times(
            EpidemicConfig(graph=g, initial_infected=g.all_nodes(),
                           budget=Fraction(1), seed=5, max_events=cap),
            builtin_policy("max_cut_drop"), range(20)) for cap in (10**8, 300)]
        kept = [(a, b) for a, b in zip(*runs) if b[1] is None]
        assert kept and all(a == b for a, b in kept)
        assert any(b[1] == MAX_EVENTS for b in runs[1])

    def test_deterministic_policy_called_once_per_bag_across_replications(self):
        cfg = EpidemicConfig(graph=isolated(3), initial_infected=Bag(range(3)),
                             budget=1, seed=6)
        pol = CountingPolicy(builtin_policy("uniform"))
        extinction_times(cfg, pol, range(20))
        assert sorted(pol.bags) == list(range(1, 8))

    def test_touching_policy_requeried_at_every_visit(self):
        # every run visits one bag of each size 3, 2 and 1
        cfg = EpidemicConfig(graph=isolated(3), initial_infected=Bag(range(3)),
                             budget=1, seed=6)
        pol = AlwaysDraws()
        extinction_times(cfg, pol, range(20))
        assert len(pol.bags) == 3 * 20
        # integers(1) draws nothing at one-node bags, but it touches the
        # stream, so they are not memoized either
        pol = CountingPolicy(builtin_policy("random_node"))
        extinction_times(cfg, pol, range(20))
        assert len(pol.bags) == 3 * 20

    @pytest.mark.parametrize("touch", ["integers", "bit_generator"])
    def test_touching_without_drawing_same_times(self, touch):
        cfg = EpidemicConfig(graph=isolated(3), initial_infected=Bag(range(3)),
                             budget=1, seed=6)
        pol = TouchesOnly(touch)
        assert extinction_times(cfg, pol, range(20)) == \
            extinction_times(cfg, builtin_policy("max_cut_drop"), range(20))
        assert len(pol.bags) == 3 * 20
        g = generate("cycle", (6,))
        cfg = EpidemicConfig(graph=g, initial_infected=g.all_nodes(),
                             budget=Fraction(4), seed=5)
        assert extinction_times(cfg, TouchesOnly(touch), range(12)) == \
            extinction_times(cfg, builtin_policy("max_cut_drop"), range(12))

    @pytest.mark.parametrize("kind", ["uniform", "random_node"])
    def test_full_memo_is_emptied_without_changing_times(self, kind,
                                                         monkeypatch):
        cfg = golden_config("complete:6")
        want = extinction_times(cfg, builtin_policy(kind), range(6))
        monkeypatch.setattr(epidemic, "_MEMO_CELLS", 3 * cfg.graph.node_count)
        pol = CountingPolicy(builtin_policy(kind))
        assert extinction_times(cfg, pol, range(6)) == want
        assert len(pol.bags) > 10 * len(set(pol.bags))

    def test_requeried_allocation_is_validated(self):
        class Overspends(AlwaysDraws):
            def allocate(self, graph, infected, budget, rng):
                alloc = super().allocate(graph, infected, budget, rng)
                return alloc if len(self.bags) < 5 else {
                    v: 2 * budget for v in alloc}

        g = generate("line", (2,))
        cfg = EpidemicConfig(graph=g, initial_infected=g.all_nodes(),
                             budget=Fraction(1, 10), seed=3)
        pol = Overspends()
        with pytest.raises(PolicyViolationError):
            extinction_times(cfg, pol, range(10))
        assert len(pol.bags) == 5


class TestConfigValidation:
    @pytest.mark.parametrize("field,value,message", [
        ("seed", 1.5, "seed must be an int"),
        ("seed", True, "seed must be an int"),
        ("budget", "abc", "budget must be a real number"),
        ("budget", None, "budget must be a real number"),
        ("infection_rate", "1", "infection rate"),
        ("horizon", "5", "horizon"),
        ("max_events", 2.5, "max_events must be an int"),
        ("max_events", "5", "max_events must be an int"),
    ])
    def test_wrong_type_refused_at_construction(self, field, value, message):
        """Refused with ``ErlError`` when built, not by a ``TypeError`` or
        ``ValueError`` at construction or at the first run."""
        args = dict(graph=isolated(1), initial_infected=Bag([0]), budget=1)
        with pytest.raises(ErlError, match=message):
            EpidemicConfig(**{**args, field: value})

    def test_negative_budget(self):
        with pytest.raises(ErlError):
            EpidemicConfig(graph=isolated(1), initial_infected=Bag([0]),
                           budget=-1)

    def test_nonpositive_infection_rate(self):
        with pytest.raises(ErlError):
            EpidemicConfig(graph=isolated(1), initial_infected=Bag([0]),
                           budget=1, infection_rate=0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    def test_nonfinite_infection_rate(self, rate):
        with pytest.raises(ErlError, match="infection rate"):
            EpidemicConfig(graph=isolated(1), initial_infected=Bag([0]),
                           budget=1, infection_rate=rate)

    @pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf])
    def test_nonfinite_budget(self, budget):
        """Refused here, not by ``Fraction``."""
        with pytest.raises(ErlError, match="budget must be finite"):
            EpidemicConfig(graph=isolated(1), initial_infected=Bag([0]),
                           budget=budget)

    def test_rate_beyond_the_float_range(self):
        with pytest.raises(ErlError, match="infection rate"):
            EpidemicConfig(graph=isolated(1), initial_infected=Bag([0]),
                           budget=1, infection_rate=10**400)

    def test_nan_horizon(self):
        with pytest.raises(ErlError, match="horizon"):
            EpidemicConfig(graph=isolated(1), initial_infected=Bag([0]),
                           budget=1, horizon=math.nan)

    def test_infinite_horizon_accepted(self):
        cfg = EpidemicConfig(graph=isolated(1), initial_infected=Bag([0]),
                             budget=1, horizon=math.inf)
        assert cfg.horizon == math.inf

    @pytest.mark.parametrize("cap", [0, -3])
    def test_event_cap_below_one(self, cap):
        with pytest.raises(ErlError, match="max_events must be at least 1"):
            EpidemicConfig(graph=isolated(1), initial_infected=Bag([0]),
                           budget=1, max_events=cap)

    def test_negative_seed(self):
        """Refused here, not by ``SeedSequence`` at the first run."""
        with pytest.raises(ErlError, match="seed must be nonnegative"):
            EpidemicConfig(graph=isolated(1), initial_infected=Bag([0]),
                           budget=1, seed=-1)

    def test_budget_beyond_the_float_range(self):
        """A budget the float rates cannot hold is refused; the largest
        float is accepted and runs."""
        with pytest.raises(ErlError, match="largest float"):
            EpidemicConfig(graph=isolated(1), initial_infected=Bag([0]),
                           budget=10**400)
        cfg = EpidemicConfig(graph=isolated(1), initial_infected=Bag([0]),
                             budget=sys.float_info.max)
        assert simulate(cfg, builtin_policy("uniform")).extinct

    def test_budget_parsed_exactly_from_string(self):
        cfg = EpidemicConfig(graph=isolated(1), initial_infected=Bag([0]),
                             budget="2.5")
        assert cfg.budget == Fraction(5, 2)


class TestSimulate:
    def test_deterministic_given_seed(self):
        g = generate("cycle", (6,))
        cfg = EpidemicConfig(graph=g, initial_infected=g.all_nodes(),
                             budget=Fraction(5), seed=11)
        pol = builtin_policy("max_cut_drop")
        a = simulate(cfg, pol, replication=2)
        b = simulate(cfg, pol, replication=2)
        assert a.log == b.log
        assert a.extinction_time == b.extinction_time

    def test_replications_differ(self):
        g = generate("cycle", (6,))
        cfg = EpidemicConfig(graph=g, initial_infected=g.all_nodes(),
                             budget=Fraction(5), seed=11)
        pol = builtin_policy("max_cut_drop")
        a = simulate(cfg, pol, replication=0)
        b = simulate(cfg, pol, replication=1)
        assert a.log != b.log

    def test_single_node_mean_matches_exponential(self):
        cfg = EpidemicConfig(graph=isolated(1), initial_infected=Bag([0]),
                             budget=2, seed=42)
        pol = builtin_policy("uniform")
        k = 8000
        taus = [simulate(cfg, pol, replication=j).extinction_time
                for j in range(k)]
        mean = sum(taus) / k
        se = 0.5 / math.sqrt(k)
        assert abs(mean - 0.5) <= 3 * se

    def test_two_isolated_nodes_sequential(self):
        cfg = EpidemicConfig(graph=isolated(2), initial_infected=Bag([0, 1]),
                             budget=1, seed=43)
        pol = builtin_policy("max_cut_drop")
        k = 4000
        results = [simulate(cfg, pol, replication=j) for j in range(k)]
        assert all(INFECTION not in r.log.kinds for r in results[:50])
        mean = sum(r.extinction_time for r in results) / k
        se = math.sqrt(2) / math.sqrt(k)
        assert abs(mean - 2.0) <= 3 * se

    def test_stalled_when_no_hazard(self):
        g = generate("line", (2,))
        cfg = EpidemicConfig(graph=g, initial_infected=Bag([0]), budget=0,
                             seed=1)
        res = simulate(cfg, builtin_policy("uniform"))
        assert res.censored == STALLED
        assert res.extinction_time is None
        assert res.log.final == g.all_nodes()

    def test_horizon_censoring(self):
        cfg = EpidemicConfig(graph=isolated(1), initial_infected=Bag([0]),
                             budget=Fraction(1, 1000), horizon=0.01, seed=2)
        res = simulate(cfg, builtin_policy("uniform"))
        assert res.censored == HORIZON
        assert not res.extinct
        assert res.log.final == Bag([0])

    def test_max_events_censoring(self):
        g = generate("complete", (5,))
        cfg = EpidemicConfig(graph=g, initial_infected=g.all_nodes(),
                             budget=Fraction(1, 4), seed=3, max_events=10)
        res = simulate(cfg, builtin_policy("uniform"))
        assert res.censored == MAX_EVENTS
        assert len(res.log.events) == 10

    def test_extinct_iff_final_empty(self):
        g = generate("line", (4,))
        for budget, seed in [(6, 1), (Fraction(1, 10), 2)]:
            cfg = EpidemicConfig(graph=g, initial_infected=g.all_nodes(),
                                 budget=budget, seed=seed, horizon=3.0)
            res = simulate(cfg, builtin_policy("max_cut_drop"))
            assert res.extinct == (res.log.final == Bag())

    def test_debug_bookkeeping_holds(self, zoo_graph):
        """One ``toggle_delta`` updates the cut at infections and at the
        recoveries each builtin chooses: every run is the one that
        ``reference_simulate`` draws with the cut recounted at each event."""
        g = zoo_graph
        cfg = EpidemicConfig(graph=g, initial_infected=g.all_nodes(),
                             budget=Fraction(2 * g.degree_bound + 2), seed=8)
        for kind in sorted(epidemic._POLICY_KINDS):
            res = assert_matches_reference(cfg, make_policy(kind, g))
            assert res.extinct, kind

    @pytest.mark.parametrize("replication,message", [
        (-1, "replication must be nonnegative, got -1"),
        (1.5, "replication must be an int, got 1.5"),
        (True, "replication must be an int, got True"),
        ("0", "replication must be an int, got '0'")])
    def test_bad_replication_refused(self, replication, message):
        cfg = EpidemicConfig(graph=isolated(1), initial_infected=Bag([0]),
                             budget=1, seed=2)
        with pytest.raises(ErlError, match=message):
            simulate(cfg, builtin_policy("uniform"), replication=replication)

    def test_counts_match_log(self):
        g = generate("cycle", (5,))
        cfg = EpidemicConfig(graph=g, initial_infected=g.all_nodes(),
                             budget=Fraction(4), seed=9)
        res = simulate(cfg, builtin_policy("random_node"))
        doc = res.to_json_dict()
        assert doc["infection_count"] == sum(
            1 for e in res.log.events if e.kind == INFECTION)
        assert doc["recovery_count"] == sum(
            1 for e in res.log.events if e.kind == RECOVERY)
        assert doc["events"] == len(res.log.events) > 5

    def test_no_event_until_events_read(self, monkeypatch):
        made = count_event_rows(monkeypatch)
        g = generate("cycle", (5,))
        cfg = EpidemicConfig(graph=g, initial_infected=g.all_nodes(),
                             budget=Fraction(4), seed=9)
        log = simulate(cfg, builtin_policy("uniform")).log
        assert made() == 0 and len(log.times) > 5
        validate_log(log, g)
        EventLog.from_binary(log.to_binary())
        assert made() == 0
        rows = log.events
        assert made() == len(rows)
        assert all(type(row) is epidemic.Event for row in rows)
        assert rows == tuple(zip(log.times, log.kinds, log.nodes))
        del rows
        assert made() == len(log.times)

    def test_event_rows_as_built_by_event(self):
        cfg = golden_config("complete:6")
        log = simulate(cfg, builtin_policy("uniform"), replication=3).log
        rows = log.events
        want = tuple(map(Event, log.times, log.kinds, log.nodes))
        assert len(rows) == 4000 and rows == want
        assert [type(row) for row in rows] == [Event] * len(rows)
        assert [row._asdict() for row in rows] == \
            [row._asdict() for row in want]

    def test_simulate_outputs_replay_clean(self, zoo_graph):
        g = zoo_graph
        cfg = EpidemicConfig(graph=g, initial_infected=g.all_nodes(),
                             budget=Fraction(g.degree_bound + 2), seed=14,
                             max_events=20000)
        for j in range(5):
            res = simulate(cfg, builtin_policy("degree_proportional"),
                           replication=j)
            validate_log(res.log, g)


# SHA-256 of log.to_binary() for replication 3 of the run below, recorded
# from the per-event simulator before the allocation memo replaced it; the
# memo changes no RNG draw, so every log must stay byte for byte the same.
GOLDEN_LOGS = {
    ("complete:6", "max_cut_drop"):
        "17be4d216f757ea79cfb35c4b4a632d04b4dfab7b34176bc649529698931ab9d",
    ("complete:6", "resistance_greedy"):
        "17be4d216f757ea79cfb35c4b4a632d04b4dfab7b34176bc649529698931ab9d",
    ("complete:6", "degree_proportional"):
        "32156aed4f7f5891cbf981db1517d1bc32edcc7447424575c3ff063796d687bd",
    ("complete:6", "uniform"):
        "32156aed4f7f5891cbf981db1517d1bc32edcc7447424575c3ff063796d687bd",
    ("complete:6", "random_node"):
        "6825c63d615e14132f372bf3c9107660b114271a9e23a8d8355057e1dee357d1",
    ("random_regular:10,3", "max_cut_drop"):
        "249bf34cc69bb8bf3d791230c8e37864d4be4e4bfe8accd71fe988b769884079",
    ("random_regular:10,3", "resistance_greedy"):
        "249bf34cc69bb8bf3d791230c8e37864d4be4e4bfe8accd71fe988b769884079",
    ("random_regular:10,3", "degree_proportional"):
        "993717b91f86cbb6a74de615880d29776651b98832daeb85f98fed352f2d77a9",
    ("random_regular:10,3", "uniform"):
        "993717b91f86cbb6a74de615880d29776651b98832daeb85f98fed352f2d77a9",
    ("random_regular:10,3", "random_node"):
        "66b260f825d53190caab595e60c3ace9231b6a031d129ae8eb973101015b7608",
}
# graph spec -> (family, params, budget, max_events); complete:6 is the slow
# regime and is cut at the event cap, random_regular:10,3 runs to extinction
GOLDEN_RUNS = {
    "complete:6": ("complete", (6,), Fraction(3, 2), 4000),
    "random_regular:10,3": ("random_regular", (10, 3), Fraction(3), 4000),
}


def golden_config(spec: str) -> EpidemicConfig:
    family, params, budget, cap = GOLDEN_RUNS[spec]
    g = generate(family, params, seed=41)
    return EpidemicConfig(graph=g, initial_infected=g.all_nodes(),
                          budget=budget, seed=4242, max_events=cap)


def sha256(log: EventLog) -> str:
    return hashlib.sha256(log.to_binary()).hexdigest()


@pytest.mark.parametrize("spec,kind", sorted(GOLDEN_LOGS))
def test_event_logs_bit_identical(spec, kind):
    cfg = golden_config(spec)
    pol = (builtin_policy(kind, table=resistance_table(cfg.graph))
           if kind == "resistance_greedy" else builtin_policy(kind))
    assert sha256(simulate(cfg, pol, replication=3).log) == GOLDEN_LOGS[spec, kind]


# SHA-256 of log.to_binary() for replication 2 of the partial-start runs
# below, recorded from the simulator that kept per-node infected-neighbour
# counts and a cached table of infection targets per bag, before it kept
# only the infected mask and its cut.  Healthy nodes with no infected
# neighbour sit between the targets, and the infection rate is not 1.
PARTIAL_GOLDEN_LOGS = {
    ("grid:3,4", "max_cut_drop"):
        "14e2023a662c586e31e1f6b5bd49c6d063e1b634378257c38b887064da934098",
    ("grid:3,4", "uniform"):
        "e504714490a78e7d90b54c0faae95abac594bbf8b99489f5d8dfa7e79571f15f",
    ("grid:3,4", "random_node"):
        "4d1941754765415a29057025f1962ec22b258c3ed2b83d9f1be34a57b54b3da1",
    ("star:5", "max_cut_drop"):
        "05ba7970ab461383678ec888ad5c5d5bf1e720a633cdf5b5290fe65cc29edfaf",
    ("star:5", "uniform"):
        "6493f5618ed0ba833d6d5ecfc77280bda07722373085a8441511daee0974d80d",
    ("star:5", "random_node"):
        "4ab066610482009a7b0087b71f145a160568e9081862d7fc4e70439e4876973d",
}
# graph spec -> (family, params, initial bag, budget, max_events); the grid
# runs to the event cap, the star goes extinct after 72-424 events
PARTIAL_GOLDEN_RUNS = {
    "grid:3,4": ("grid", (3, 4), (0, 5), Fraction(1, 2), 3000),
    "star:5": ("star", (5,), (1, 2), Fraction(1), 10**8),
}


def partial_config(spec: str) -> EpidemicConfig:
    family, params, initial, budget, cap = PARTIAL_GOLDEN_RUNS[spec]
    g = generate(family, params)
    return EpidemicConfig(graph=g, initial_infected=Bag(initial),
                          budget=budget, infection_rate=0.7, seed=4243,
                          max_events=cap)


@pytest.mark.parametrize("spec,kind", sorted(PARTIAL_GOLDEN_LOGS))
def test_partial_start_logs_bit_identical(spec, kind):
    res = simulate(partial_config(spec), builtin_policy(kind), replication=2)
    assert sha256(res.log) == PARTIAL_GOLDEN_LOGS[spec, kind]
    assert res.extinct == (spec == "star:5")


# policies run against the reference: the builtins, the allocation path
# under weights, and policies that draw from or only touch their stream
REFERENCE_POLICIES = {
    **{kind: partial(make_policy, kind)
       for kind in sorted(epidemic._POLICY_KINDS)},
    "counting":
        lambda g: CountingPolicy(builtin_policy("degree_proportional")),
    "always_draws": lambda g: AlwaysDraws(),
    "touches_integers": lambda g: TouchesOnly("integers"),
    "touches_bit_generator": lambda g: TouchesOnly("bit_generator"),
}


class TestReferenceSimulate:
    """``reference_simulate`` asks the policy to allocate and recounts the
    cut at every event.  It must give the recorded golden logs itself, and
    ``simulate``, with its memo, weight walk, kept tables and one
    ``toggle_delta`` per event, must give its runs bit for bit."""

    @pytest.mark.parametrize("spec,kind", sorted(GOLDEN_LOGS))
    def test_golden_logs(self, spec, kind):
        cfg = golden_config(spec)
        log = reference_simulate(cfg, make_policy(kind, cfg.graph), 3).log
        assert sha256(log) == GOLDEN_LOGS[spec, kind]

    @pytest.mark.parametrize("spec,kind", sorted(PARTIAL_GOLDEN_LOGS))
    def test_partial_start_golden_logs(self, spec, kind):
        log = reference_simulate(partial_config(spec), builtin_policy(kind),
                                 2).log
        assert sha256(log) == PARTIAL_GOLDEN_LOGS[spec, kind]

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.sampled_from([name for name, _ in ZOO] + ["isolated"]),
           st.sampled_from(sorted(REFERENCE_POLICIES)),
           st.integers(0, 2**64 - 1),
           st.sampled_from(["full", "partial", "empty"]),
           st.integers(0, 2**10 - 1), st.sampled_from(WEIGHT_BUDGETS),
           st.sampled_from([0.7, 1.0, 2.5]),
           st.sampled_from([None, 0.5, 4.0]), st.integers(1, 400),
           st.integers(0, 5))
    def test_simulate_matches(self, name, kind, seed, start, bag, budget,
                              beta, horizon, cap, replication):
        g = dict(ZOO, isolated=with_isolated)[name]()
        mask = {"full": g.full_mask, "partial": bag & g.full_mask,
                "empty": 0}[start]
        cfg = EpidemicConfig(graph=g, initial_infected=Bag.from_mask(mask),
                             budget=budget, infection_rate=beta, seed=seed,
                             horizon=horizon, max_events=cap)
        assert_matches_reference(cfg, REFERENCE_POLICIES[kind](g),
                                 replication)


class TestReplay:
    def test_empty_log_single_segment(self):
        g = generate("line", (5,))
        log = event_log(Bag([3]), (), Bag([3]))
        assert list(replay(log, g)) == [(0.0, Bag([3]))]

    def test_two_node_cure_sequence(self):
        g = isolated(2)
        log = event_log(Bag([0, 1]),
                       (Event(0.5, RECOVERY, 0), Event(1.5, RECOVERY, 1)),
                       Bag())
        bags = [b for _, b in replay(log, g)]
        assert bags == [Bag([0, 1]), Bag([1]), Bag()]

    def test_unit_step_property(self):
        g = generate("cycle", (6,))
        cfg = EpidemicConfig(graph=g, initial_infected=g.all_nodes(),
                             budget=Fraction(4), seed=21)
        res = simulate(cfg, builtin_policy("max_cut_drop"))
        bags = [b for _, b in replay(res.log, g)]
        for i in range(1, len(bags)):
            assert len(bags[i] ^ bags[i - 1]) == 1

    def test_recovery_of_healthy_node_rejected(self):
        g = generate("line", (3,))
        log = event_log(Bag([0]), (Event(1.0, RECOVERY, 2),), Bag([0]))
        with pytest.raises(ReplayError) as exc:
            validate_log(log, g)
        assert exc.value.index == 0

    def test_infection_of_infected_node_rejected(self):
        g = generate("line", (3,))
        log = event_log(Bag([0]), (Event(1.0, INFECTION, 0),), Bag([0]))
        with pytest.raises(ReplayError):
            validate_log(log, g)

    def test_infection_without_infected_neighbor_rejected(self):
        g = generate("line", (4,))
        log = event_log(Bag([0]), (Event(1.0, INFECTION, 3),), Bag([0, 3]))
        with pytest.raises(ReplayError) as exc:
            validate_log(log, g)
        assert exc.value.index == 0

    def test_nonincreasing_times_rejected(self):
        g = isolated(2)
        log = event_log(Bag([0, 1]),
                       (Event(1.0, RECOVERY, 0), Event(1.0, RECOVERY, 1)),
                       Bag())
        with pytest.raises(ReplayError) as exc:
            validate_log(log, g)
        assert exc.value.index == 1

    def test_nan_time_rejected(self):
        log = event_log(Bag([0]), (Event(math.nan, RECOVERY, 0),), Bag())
        with pytest.raises(ReplayError) as exc:
            validate_log(log, generate("line", (1,)))
        assert exc.value.index == 0

    def test_nan_time_from_csv_rejected(self):
        log = EventLog.from_csv("time,kind,node\nnan,RECOVERY,0\n", Bag([0]))
        with pytest.raises(ReplayError):
            validate_log(log, generate("line", (1,)))

    def test_inf_time_rejected(self):
        g = isolated(2)
        log = event_log(Bag([0, 1]),
                       (Event(1.0, RECOVERY, 0), Event(math.inf, RECOVERY, 1)),
                       Bag())
        with pytest.raises(ReplayError) as exc:
            validate_log(log, g)
        assert exc.value.index == 1

    def test_inf_time_from_csv_rejected(self):
        log = EventLog.from_csv("time,kind,node\ninf,RECOVERY,0\n", Bag([0]))
        assert log.events[0].time == math.inf
        with pytest.raises(ReplayError) as exc:
            validate_log(log, generate("line", (1,)))
        assert exc.value.index == 0

    def test_inf_time_from_binary_rejected(self):
        # REL1: initial bag {0}, final bag {}, one recovery of node 0 at inf
        blob = (b"REL1" + struct.pack("<III", 1, 0, 0) + struct.pack("<Q", 1)
                + struct.pack("<dBI", math.inf, 1, 0))
        log = EventLog.from_binary(blob)
        assert log.events == (Event(math.inf, RECOVERY, 0),)
        with pytest.raises(ReplayError) as exc:
            validate_log(log, generate("line", (1,)))
        assert exc.value.index == 0

    def test_final_mismatch_rejected(self):
        g = isolated(1)
        log = event_log(Bag([0]), (Event(1.0, RECOVERY, 0),), Bag([0]))
        with pytest.raises(ReplayError):
            validate_log(log, g)


class TestLogSerialization:
    def make_log(self):
        g = generate("cycle", (6,))
        cfg = EpidemicConfig(graph=g, initial_infected=g.all_nodes(),
                             budget=Fraction(5), seed=33)
        return g, simulate(cfg, builtin_policy("max_cut_drop")).log

    def test_csv_round_trip(self):
        g, log = self.make_log()
        back = EventLog.from_csv(log.to_csv(), log.initial_infected)
        assert back == log

    def test_binary_round_trip(self):
        g, log = self.make_log()
        assert EventLog.from_binary(log.to_binary()) == log

    def test_binary_truncated_rejected(self):
        g, log = self.make_log()
        data = log.to_binary()
        for end in (6, len(data) - 1):
            with pytest.raises(ErlError):
                EventLog.from_binary(data[:end])

    def test_binary_trailing_bytes_rejected(self):
        g, log = self.make_log()
        with pytest.raises(ErlError):
            EventLog.from_binary(log.to_binary() + b"\x00")

    def test_binary_unknown_kind_rejected(self):
        g, log = self.make_log()
        data = bytearray(log.to_binary())
        data[-5] = 2    # kind byte of the last event
        with pytest.raises(ErlError):
            EventLog.from_binary(bytes(data))

    @pytest.mark.parametrize("header,events", [
        ([2**28], []),          # a 24-byte blob naming node 2^28
        ([GENERATE_CAP], []),
        ([], [(1.0, 0, 2**28)]),
        ([0], [(1.0, 1, GENERATE_CAP)])])
    def test_binary_node_id_above_cap_rejected(self, header, events):
        data = (LOG_MAGIC
                + struct.pack(f"<I{len(header)}I", len(header), *header)
                + struct.pack("<IQ", 0, len(events))
                + b"".join(struct.pack("<dBI", *ev) for ev in events))
        with pytest.raises(ErlError, match="above the largest id"):
            EventLog.from_binary(data)

    def test_binary_largest_node_id_accepted(self):
        top = GENERATE_CAP - 1
        log = event_log(Bag([top]), (Event(1.0, INFECTION, top),), Bag([top]))
        assert EventLog.from_binary(log.to_binary()) == log

    @pytest.mark.parametrize("line", [
        "abc,INFECTION,0", "1.0,INFECTION,x", "1.0,INFECTION,-1",
        "1.0,INFECTION", "1.0,INFECTION,0,0", "1.0,INFECTION,200000000",
        f"1.0,RECOVERY,{GENERATE_CAP}"])
    def test_csv_malformed_line_rejected(self, line):
        with pytest.raises(ErlError):
            EventLog.from_csv("time,kind,node\n" + line + "\n", Bag())

    def test_csv_header_required(self):
        with pytest.raises(ErlError):
            EventLog.from_csv("nope\n", Bag())

    def test_result_json_shape(self):
        g, log = self.make_log()
        cfg = EpidemicConfig(graph=g, initial_infected=g.all_nodes(),
                             budget=Fraction(5), seed=33)
        res = simulate(cfg, builtin_policy("max_cut_drop"))
        doc = res.to_json_dict()
        assert doc["extinction_time"] == res.extinction_time
        assert doc["censored"] is None
        assert doc["final"] == []
