import dataclasses
import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

import erl.resistance
from erl import (LATTICE_CAP, Bag, CapacityError, CompleteGraphResistance,
                 ErlError, Graph, ResistanceTable, brute_force_resistance,
                 brute_force_resistance_all, check_bellman, cut, cutwidth,
                 generate, monotone_resistance_table, resistance_table,
                 validate_crusade, verify_table_invariants, width,
                 witness_crusade)
from erl.graph import cut_table
from erl.resistance import (BLOCK_NODES, NO_STEP, UNREACHED, BellmanCheck,
                            _bellman_rhs, _crusade_steps, _monotone_values,
                            _reach_round, _removal_walk, _search_walk,
                            step_min, superset_min)

from conftest import ZOO, random_bounded_graph, rng_for

RANDOM_REGULAR = [(n, d, seed) for n in (6, 8, 10, 12, 14, 16)
                  for d in (3, 4) for seed in (1, 2)]


def ordering_cutwidth(g: Graph) -> int:
    """Independent oracle: best max-prefix-cut over all deletion orders."""
    best = None
    nodes = range(g.node_count)
    for order in itertools.permutations(nodes):
        remaining = set(nodes)
        worst = 0
        for v in order:
            remaining.discard(v)
            worst = max(worst, cut(g, Bag(remaining)))
        best = worst if best is None else min(best, worst)
    return best


class TestLineGraph:
    def test_all_values(self):
        g = generate("line", (9,))
        t = resistance_table(g)
        sizes = np.bitwise_count(np.arange(512).astype(np.int64))
        # multi-node bags all cost exactly 1; single nodes can be dropped
        # straight to the empty bag (whose cut is 0), so they cost 0
        assert np.all(t.values[sizes >= 2] == 1)
        assert np.all(t.values[np.isin(np.arange(512), 1 << np.arange(9))] == 0)
        assert t.values[0] == 0
        assert t.cutwidth == 1

    def test_cutwidth_op(self):
        assert cutwidth(generate("line", (9,))) == 1

    def test_cutwidth_cross_check_fires(self, monkeypatch):
        # value iteration lowers a raised start back to gamma, so only the
        # removal-only full-set entry the table keeps is off
        def raised(g, cut_t):
            mg = _monotone_values(g, cut_t)
            mg[-1] += 1
            return mg
        monkeypatch.setattr(erl.resistance, "_monotone_values", raised)
        g = generate("line", (9,))
        assert resistance_table(g).cutwidth == 1
        with pytest.raises(ErlError, match="^cutwidth mismatch: nonmonotone 1 "
                           r"vs monotone 2 \(implementation bug\)$"):
            cutwidth(g)

    def test_monotone_full_set(self):
        assert monotone_resistance_table(generate("line", (5,))).cutwidth == 1


class TestSmallGraphValues:
    def test_complete4(self):
        assert cutwidth(generate("complete", (4,))) == 4

    def test_cycle6(self):
        assert cutwidth(generate("cycle", (6,))) == 2

    def test_star3(self):
        assert cutwidth(generate("star", (3,))) == 2

    def test_single_node(self):
        g = Graph(1, [])
        assert cutwidth(g) == 0

    def test_ordering_oracle_matches_monotone_dp(self, zoo_graph):
        if zoo_graph.node_count > 7:
            pytest.skip("factorial oracle kept small")
        assert monotone_resistance_table(zoo_graph).cutwidth \
            == ordering_cutwidth(zoo_graph)


class TestOracleEquivalence:
    def test_table_matches_reverse_oracle(self, zoo_graph):
        t = resistance_table(zoo_graph)
        oracle = brute_force_resistance_all(zoo_graph)
        assert np.array_equal(oracle, t.values.astype(np.int64))

    def test_forward_oracle_spot_checks(self, zoo_graph):
        g = zoo_graph
        t = resistance_table(g)
        rng = rng_for(50)
        masks = {0, g.full_mask, *(int(m) for m in rng.integers(0, g.full_mask + 1, 6))}
        for mask in masks:
            assert brute_force_resistance(g, Bag.from_mask(mask)) == t.gamma(mask)

    def test_random_bounded_graphs(self):
        rng = rng_for(51)
        for _ in range(10):
            g = random_bounded_graph(7, 4, rng)
            t = resistance_table(g)
            assert np.array_equal(brute_force_resistance_all(g),
                                  t.values.astype(np.int64))

    def test_empty_bag(self):
        g = generate("line", (4,))
        assert brute_force_resistance(g, Bag()) == 0

    def test_line7_even_positions(self):
        g = generate("line", (7,))
        assert brute_force_resistance(g, Bag([0, 2, 4, 6])) == 1

    def test_path3_middle_node_reaches_empty_free(self):
        # a one-node bag can step straight to the empty bag, whose cut is 0
        g = generate("line", (3,))
        assert brute_force_resistance(g, Bag([1])) == 0


class TestMonotoneVsPlain:
    def test_pointwise_dominance_and_full_set_equality(self, zoo_graph):
        t = resistance_table(zoo_graph)
        mt = monotone_resistance_table(zoo_graph)
        assert np.all(mt.values >= t.values)
        assert mt.cutwidth == t.cutwidth

    def test_strictly_larger_on_line_even_bag(self):
        g = generate("line", (9,))
        even = Bag([0, 2, 4, 6, 8])
        t = resistance_table(g)
        mt = monotone_resistance_table(g)
        assert t.gamma(even) == 1
        assert mt.gamma(even) > 1


class TestTableShape:
    def test_no_unreached_entries(self, zoo_graph):
        t = resistance_table(zoo_graph)
        assert not np.any(t.values == UNREACHED)
        assert int(t.values.max()) <= len(zoo_graph.edges)

    def test_rounds_positive(self, zoo_graph):
        assert resistance_table(zoo_graph).converged_rounds >= 1

    def test_warm_start_not_aliased(self, zoo_graph):
        # k4 and star3 converge in the first round, where the start itself
        # is already the fixed point
        mono = monotone_resistance_table(zoo_graph)
        before = mono.values.copy()
        table = erl.resistance._value_iteration(zoo_graph, mono.values,
                                                cut_table(zoo_graph))
        assert not np.shares_memory(table.values, mono.values)
        assert np.array_equal(mono.values, before)
        assert table.values.dtype == np.uint16

    def test_wide_start_iterates_in_its_own_dtype(self):
        """A start above 255, here UNREACHED everywhere but the empty bag,
        runs on uint16 and reaches the cold-start oracle's fixed point."""
        g = generate("random_regular", (10, 3), seed=1)
        start = np.full(1 << 10, UNREACHED, dtype=np.uint16)
        start[0] = 0
        before = start.copy()
        table = erl.resistance._value_iteration(g, start, cut_table(g))
        assert np.array_equal(table.values, cold_resistance_table(g))
        assert np.array_equal(table.values, resistance_table(g).values)
        assert not np.shares_memory(table.values, start)
        assert np.array_equal(start, before)

    def test_peak_memory(self):
        """Under 9 bytes per bag at n = 18 (7.1 measured): value iteration
        holds the cut table, the iterate, the operator's fold and its
        output in uint8 beside the uint16 cut table and the uint8 monotone
        values the table keeps; with a uint16 monotone table it peaked at
        9.0, on uint16 rounds at 12.2, and at 8.0 while two copies of the
        last iterate were held beside its uint16 copy."""
        g = generate("random_regular", (18, 3), seed=1)
        tracemalloc.start()
        try:
            resistance_table(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9 << 18

    def test_one_cut_table_per_call(self, monkeypatch):
        g = generate("random_regular", (12, 3), seed=1)
        values, width = resistance_table(g).values, cutwidth(g)
        built = []

        def counting(graph):
            built.append(graph)
            return cut_table(graph)

        monkeypatch.setattr(erl.resistance, "cut_table", counting)
        assert np.array_equal(resistance_table(g).values, values)
        assert cutwidth(g) == width
        assert built == [g, g]

    def test_capacity_errors(self):
        with pytest.raises(CapacityError):
            resistance_table(generate("line", (21,)))
        with pytest.raises(CapacityError):
            brute_force_resistance(generate("line", (11,)), Bag([0]))


class TestBellmanCheck:
    def test_fresh_tables_pass(self, zoo_graph):
        t = resistance_table(zoo_graph)
        assert check_bellman(zoo_graph, t).passed

    def test_perturbed_full_set_is_the_witness(self):
        g = generate("complete", (4,))
        t = resistance_table(g)
        values = t.values.copy()
        values[-1] += 1
        bc = check_bellman(g, ResistanceTable(g, values, 1))
        assert not bc.passed
        assert bc.witness_mask == g.full_mask
        assert bc.lhs == bc.rhs + 1

    def test_generic_perturbations_caught(self, zoo_graph):
        g = zoo_graph
        t = resistance_table(g)
        rng = rng_for(60)
        for _ in range(5):
            values = t.values.copy()
            mask = int(rng.integers(1, len(values)))
            values[mask] += 1
            assert not check_bellman(g, ResistanceTable(g, values, 1)).passed

    @pytest.mark.parametrize("edits", [
        {0x155: 300}, {0x2a5: -3}, {0x3ff: -1}, {0x3ff: 256, 0x100: -2}],
        ids=["above_255", "negative_inside", "minus_one_at_full",
             "both_sides"])
    def test_report_as_in_int64(self, edits):
        """Hand-built tables outside [0, 255] get the report the operator
        gives on int64 copies.  The -1 at the full bag needs the dtype to
        cover the minimum: read as uint8 it would be 255 and move the
        first violation from 0x3 to the full bag."""
        g = generate("random_regular", (10, 3), seed=1)
        values = resistance_table(g).values.astype(np.int64)
        for mask, value in edits.items():
            values[mask] = value
        rhs = _bellman_rhs(values, cut_table(g).astype(np.int64), 10)
        first = int(np.flatnonzero(rhs != values)[0])
        bc = check_bellman(g, ResistanceTable(g, values, 1))
        assert not bc.passed
        assert (bc.witness_mask, bc.lhs, bc.rhs) == \
            (first, int(values[first]), int(rhs[first]))
        if edits == {0x3ff: -1}:
            assert (first, bc.lhs, bc.rhs) == (0x3, 3, 0)

    def test_peak_memory(self):
        """Under 7 bytes per bag at n = 18 (4.1 measured): the cut table
        is built in uint16 and dropped once narrowed, and the operator's
        fold and output are uint8; on uint16 the check peaked at 8.2.  The
        table is a copy, which has no stored report, so the check runs."""
        g = generate("random_regular", (18, 3), seed=1)
        table = ResistanceTable(g, resistance_table(g).values.copy(), 1)
        tracemalloc.start()
        try:
            assert check_bellman(g, table).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 << 18

    def test_all_zeros_is_a_spurious_fixed_point(self):
        # every bag may step to the full set, whose cut is zero, so the
        # identically-zero table satisfies the recursion; only the oracle
        # comparison rules it out
        g = generate("line", (4,))
        zeros = ResistanceTable(g, np.zeros(16, dtype=np.uint16), 1)
        assert check_bellman(g, zeros).passed
        assert not np.array_equal(brute_force_resistance_all(g), zeros.values)


class TestStoredReport:
    """A table from ``resistance_table`` carries value iteration's last
    ``check_bellman`` report, which is returned while its values are the
    read-only array it certifies; every other table is checked afresh."""

    @staticmethod
    def assert_same_as_a_copy(g, table):
        copy = ResistanceTable(g, table.values.copy(), table.converged_rounds)
        assert table._fixed_point[0] is table.values
        assert check_bellman(g, table) is table._fixed_point[1]
        assert repr(check_bellman(g, table)) == repr(check_bellman(g, copy))
        assert verify_table_invariants(g, table).to_json_dict() == \
            verify_table_invariants(g, copy).to_json_dict()

    def test_zoo(self, zoo_graph):
        self.assert_same_as_a_copy(zoo_graph, resistance_table(zoo_graph))

    @pytest.mark.parametrize("n,d,seed", RANDOM_REGULAR,
                             ids=[f"rr{n}_{d}s{s}" for n, d, s in RANDOM_REGULAR])
    def test_random_regular(self, n, d, seed):
        g = generate("random_regular", (n, d), seed=seed)
        self.assert_same_as_a_copy(g, resistance_table(g))

    def test_failed_report_is_stored(self):
        """From a start that is not an upper bound (a zero punched into
        the monotone table), the iteration stops where the operator lies
        above the iterate, and the stored report names that bag."""
        g = generate("random_regular", (10, 3), seed=1)
        start = _monotone_values(g, cut_table(g))
        start[0x155] = 0
        table = erl.resistance._value_iteration(g, start, cut_table(g))
        assert not table._fixed_point[1].passed
        self.assert_same_as_a_copy(g, table)

    def test_bellman_rhs_runs_only_on_other_tables(self, monkeypatch):
        g = generate("random_regular", (12, 3), seed=1)
        table = resistance_table(g)
        copy = ResistanceTable(g, table.values.copy(), table.converged_rounds)
        calls = []
        real = erl.resistance._bellman_rhs

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(erl.resistance, "_bellman_rhs", counting)
        for t, want in ((table, 0), (copy, 1)):
            calls.clear()
            assert check_bellman(g, t).passed
            assert len(calls) == want
            calls.clear()
            assert verify_table_invariants(g, t, mode="sampled").ok
            assert len(calls) == want

    def test_values_are_read_only(self):
        table = resistance_table(generate("cycle", (6,)))
        with pytest.raises(ValueError):
            table.values[-1] += 1
        with pytest.raises(ValueError):
            table._monotone[-1] = 0
        with pytest.raises(ValueError):
            table.values[:].flags.writeable = True

    def test_writable_again_is_checked_afresh(self):
        g = generate("random_regular", (10, 3), seed=1)
        table = resistance_table(g)
        stored = check_bellman(g, table)
        table.values.flags.writeable = True
        table.values[-1] += 1
        bc = check_bellman(g, table)
        assert stored is table._fixed_point[1] and stored.passed
        assert (bc.passed, bc.witness_mask, bc.lhs) == \
            (False, g.full_mask, table.cutwidth)

    def test_other_values_are_checked_afresh(self):
        g = generate("random_regular", (10, 3), seed=1)
        table = resistance_table(g)
        bumped = table.values.copy()
        bumped[-1] += 1
        bumped.flags.writeable = False
        table.values = bumped
        assert table._fixed_point[1].passed
        assert not check_bellman(g, table).passed

    def test_report_is_frozen(self):
        bc = check_bellman(generate("line", (4,)),
                           resistance_table(generate("line", (4,))))
        with pytest.raises(dataclasses.FrozenInstanceError):
            bc.passed = False
        assert repr(bc) == "BellmanCheck(passed)"
        assert repr(BellmanCheck(False, 0x3ff, 4, 3)) == \
            "BellmanCheck(failed at bag 0x3ff: table 4 vs operator 3)"


class TestForeignTable:
    """A table from another graph is refused with ErlError by every reader."""

    def test_wrong_size(self):
        g = generate("complete", (5,))
        other = resistance_table(generate("line", (4,)))
        with pytest.raises(ErlError, match="graph size"):
            check_bellman(g, other)
        with pytest.raises(ErlError, match="graph size"):
            witness_crusade(g, other, g.all_nodes())

    def test_same_size_other_graph(self):
        g = generate("complete", (5,))
        other = resistance_table(generate("line", (5,)))
        with pytest.raises(ErlError, match="different graph"):
            check_bellman(g, other)
        with pytest.raises(ErlError, match="different graph"):
            witness_crusade(g, other, g.all_nodes())

    def test_graphless_table_accepted(self):
        g = generate("cycle", (5,))
        loose = ResistanceTable(None, resistance_table(g).values, 1)
        assert check_bellman(g, loose).passed
        assert width(g, witness_crusade(g, loose, g.all_nodes())) == loose.cutwidth


class TestWitness:
    def test_valid_and_optimal_on_zoo(self, zoo_graph):
        g = zoo_graph
        t = resistance_table(g)
        rng = rng_for(70)
        masks = {g.full_mask, 0, *(int(m) for m in rng.integers(0, g.full_mask + 1, 5))}
        for mask in masks:
            bag = Bag.from_mask(mask)
            c = witness_crusade(g, t, bag)
            assert validate_crusade(c.bags, bag, Bag()).valid
            assert width(g, c) == t.gamma(mask)

    def test_deterministic(self):
        g = generate("cycle", (6,))
        t = resistance_table(g)
        c1 = witness_crusade(g, t, g.all_nodes())
        c2 = witness_crusade(g, t, g.all_nodes())
        assert c1 == c2

    def test_unreachable_source_raises(self, zoo_graph):
        # a lowered gamma(full) admits no crusade; the uint8 step counts
        # must stay "not reached" rather than wrap to 0 and end the search
        g = zoo_graph
        values = resistance_table(g).values.copy()
        values[-1] -= 1
        with pytest.raises(ErlError, match="no crusade within the optimal width"):
            witness_crusade(g, ResistanceTable(g, values, 1), g.all_nodes())

    def test_step_limit_raises(self, monkeypatch):
        # a round that reaches mask r in round r needs 511 rounds to reach
        # the full set of 9 nodes, past the 254 a uint8 count can hold; at
        # width 0 the full bag has no removal-only crusade, so the search
        # runs
        def path_round(reached, allowed, n):
            bits = np.unpackbits(reached.view(np.uint8), bitorder="little")
            bits[1:] |= bits[:-1]
            return np.packbits(bits, bitorder="little").view(reached.dtype)

        g = generate("line", (9,))
        values = resistance_table(g).values.copy()
        values[-1] = 0
        monkeypatch.setattr(erl.resistance, "_reach_round", path_round)
        with pytest.raises(ErlError, match="more than 254 steps"):
            witness_crusade(g, ResistanceTable(g, values, 1), g.all_nodes())

    def test_full_bag_runs_no_search(self, monkeypatch):
        """On a table from ``resistance_table`` the full bag takes the
        removal walk on the kept monotone values: no breadth-first round
        and no cut table."""
        g = generate("random_regular", (20, 3), seed=1)
        table = resistance_table(g)
        calls = []

        def refused(*args):
            calls.append(args)
            raise AssertionError("called")

        monkeypatch.setattr(erl.resistance, "_reach_round", refused)
        monkeypatch.setattr(erl.resistance, "cut_table", refused)
        c = witness_crusade(g, table, g.all_nodes())
        assert calls == []
        assert len(c.bags) == g.node_count + 1
        assert width(g, c) == table.cutwidth

    def test_lowered_full_set_raises_promptly(self, monkeypatch):
        g = generate("random_regular", (12, 3), seed=5)
        values = resistance_table(g).values.copy()
        values[-1] -= 1
        rounds = []

        def counting_round(reached, allowed, n):
            rounds.append(n)
            return _reach_round(reached, allowed, n)

        monkeypatch.setattr(erl.resistance, "_reach_round", counting_round)
        with pytest.raises(ErlError, match="no crusade within the optimal width"):
            witness_crusade(g, ResistanceTable(g, values, 1), g.all_nodes())
        # the search stops at the first round that reaches no new bag
        assert 1 <= len(rounds) <= g.node_count


def step_min_crusade_steps(allowed: np.ndarray, n: int) -> np.ndarray:
    """Oracle: the witness search's breadth-first rounds as one uint8
    ``step_min`` each, run until a round reaches no new bag.

    Round r gives a bag the count r when it is one step from an allowed
    bag counted before.  ``_crusade_steps`` runs the same rounds on
    bit-packed bag sets and stops once its source is counted, so up to that
    round the two must agree.
    """
    steps = np.full(1 << n, NO_STEP, dtype=np.uint8)
    steps[0] = 0
    while True:
        near = step_min(np.where(allowed, steps, NO_STEP), n)
        nxt = np.minimum(steps, np.minimum(near, NO_STEP - 1) + 1)
        if np.array_equal(nxt, steps):
            return steps
        steps = nxt


class TestPackedSearch:
    """``_crusade_steps`` against the ``step_min`` oracle from every source
    bag: the counts up to the source's round, and the error where the
    oracle never reaches the source."""

    @staticmethod
    def check_sources(g: Graph, threshold: int, sources) -> None:
        n = g.node_count
        allowed = cut_table(g).astype(np.int64) <= threshold
        oracle = step_min_crusade_steps(allowed, n)
        for src in sources:
            if oracle[src] == NO_STEP:
                with pytest.raises(ErlError, match="no crusade within"):
                    _crusade_steps(allowed, n, src)
            else:
                expected = np.where(oracle <= oracle[src], oracle, NO_STEP)
                assert np.array_equal(_crusade_steps(allowed, n, src),
                                      expected)

    def test_every_bag_of_zoo(self, zoo_graph):
        gamma = resistance_table(zoo_graph).values
        for t in np.unique(gamma):
            self.check_sources(zoo_graph, int(t), np.flatnonzero(gamma == t))

    def test_lowered_full_set(self, zoo_graph):
        g = zoo_graph
        lowered = resistance_table(g).cutwidth - 1
        self.check_sources(g, lowered, range(1 << g.node_count))

    def test_small_n_padding_stays_clear(self, monkeypatch):
        """At n < 6 all bags fit in one word; the bits from 2^n up must
        stay clear, or a stray one would count as a new bag and hide the
        error of a round that reaches none."""
        rounds = []

        def checked_round(reached, allowed, n):
            out = _reach_round(reached, allowed, n)
            assert out.shape == (1,) and int(out[0]) >> (1 << n) == 0
            rounds.append(n)
            return out

        monkeypatch.setattr(erl.resistance, "_reach_round", checked_round)
        rng = rng_for(90)
        for n in range(1, 6):
            graphs = [generate("line", (n,)), generate("complete", (n,)),
                      *(random_bounded_graph(n, 3, rng) for _ in range(3))]
            for g in graphs:
                for t in range(-1, int(cut_table(g).max()) + 1):
                    self.check_sources(g, t, range(1 << n))
        assert set(rounds) == {1, 2, 3, 4, 5}


class TestRemovalWalk:
    """``_removal_walk`` against the breadth-first ``_search_walk``: the two
    must return the same crusade from every source a with mg(a) <= t."""

    @staticmethod
    def agree(g: Graph, mg: np.ndarray, values: np.ndarray, sources) -> int:
        """Compare the walks at t = values[a] from each source with
        mg(a) <= t; return how many sources were compared."""
        compared = 0
        for src in map(int, sources):
            t = int(values[src])
            if mg[src] <= t:
                assert _removal_walk(g, mg, t, src) == _search_walk(g, t, src)
                compared += 1
        return compared

    def test_every_bag_of_zoo(self, zoo_graph):
        g = zoo_graph
        assert g.node_count <= 10
        table = resistance_table(g)
        bags = range(1 << g.node_count)
        assert self.agree(g, table._monotone, table.values, bags) >= 2

    def test_sampled_bags_of_large_graphs(self):
        rng = rng_for(91)
        for name in ("rr16_3s1", "rr18_3s2", "rr20_3s1"):
            g = GOLDEN_GRAPHS[name]()
            table = resistance_table(g)
            mg, values = table._monotone, table.values
            # sample among the removal-only sources, which are rare here
            fit = np.flatnonzero(mg <= values)
            sources = rng.choice(fit, 8, replace=False)
            assert self.agree(g, mg, values, sources) == 8

    def test_raised_gamma(self, zoo_graph):
        """Hand-built tables: gamma(a) raised by one, and raised to mg(a)
        where that is higher, which moves a must-grow source into the
        removal case.  ``witness_crusade`` computes mg from the graph."""
        g = zoo_graph
        gamma = resistance_table(g).values
        mg = _monotone_values(g, cut_table(g))
        rng = rng_for(92)
        sources = rng.integers(1, g.full_mask + 1, 12)
        for src in map(int, sources):
            for raised in {int(gamma[src]) + 1, int(mg[src])}:
                if raised <= gamma[src]:
                    continue
                values = gamma.copy()
                values[src] = raised
                got = witness_crusade(g, ResistanceTable(g, values, 1),
                                      Bag.from_mask(src))
                assert [b.mask for b in got.bags] == \
                    _search_walk(g, raised, src)
                assert width(g, got) <= raised

    def test_golden_sources_reach_both_walks(self):
        """The golden witness digests cover both cases: every full bag and
        some seeded bags take the removal walk, other seeded bags must
        grow."""
        walks = []
        for make in GOLDEN_GRAPHS.values():
            g = make()
            table = resistance_table(g)
            full, *seeded = _witness_sources(g)
            assert table._monotone[full] <= table.cutwidth
            walks += [table._monotone[src] <= table.gamma(src)
                      for src in seeded]
        assert any(walks) and not all(walks)


class TestDumpFormats:
    def test_binary_round_trip(self):
        g = generate("cycle", (5,))
        t = resistance_table(g)
        loaded = ResistanceTable.load_binary(t.dump_binary(), graph=g)
        assert np.array_equal(loaded.values, t.values)
        assert check_bellman(g, loaded).passed

    def test_bad_magic(self):
        with pytest.raises(ErlError):
            ResistanceTable.load_binary(b"NOPE" + b"\x00" * 12)

    def test_truncated(self):
        g = generate("line", (3,))
        data = resistance_table(g).dump_binary()
        with pytest.raises(ErlError):
            ResistanceTable.load_binary(data[:-2])

    def test_graph_size_checked(self):
        t = resistance_table(generate("line", (4,)))
        data = t.dump_binary()
        with pytest.raises(ErlError, match="graph size"):
            ResistanceTable.load_binary(data, graph=generate("line", (5,)))
        loaded = ResistanceTable.load_binary(data, graph=generate("line", (4,)))
        assert loaded.node_count == 4
        assert loaded.gamma(0b1111) == t.cutwidth

    def test_node_count(self):
        for n in range(LATTICE_CAP + 1):
            table = ResistanceTable(None, np.zeros(1 << n, dtype=np.uint16), 0)
            assert table.node_count == n

    def test_bad_header_rejected(self):
        # n near 2^32 must be refused before the length 2 << n is formed
        for data in (b"RGT1\x00", b"RGT1" + (2**32 - 1).to_bytes(4, "little")):
            with pytest.raises(ErlError):
                ResistanceTable.load_binary(data)

    def test_csv(self):
        g = generate("line", (3,))
        text = resistance_table(g).to_csv()
        lines = text.splitlines()
        assert lines[0] == "bag_bitmask,gamma"
        assert len(lines) == 9
        assert lines[1] == "0,0"

    def test_csv_matches_per_line_text(self):
        # the mask field widens at 10, 100 and 1000 bags (n = 4, 7, 10);
        # edgeless tables are all zeros, complete ones reach two digits
        for n in range(1, 12):
            for g in (Graph(n, []), generate("complete", (n,))):
                t = resistance_table(g)
                want = "bag_bitmask,gamma\n" + "".join(
                    f"{m},{v}\n" for m, v in enumerate(t.values.tolist()))
                assert t.to_csv() == want


class TestCompleteGraphClosedForm:
    def test_matches_dense_tables(self):
        for n in range(1, 11):
            g = generate("complete", (n,))
            cg = CompleteGraphResistance(g)
            t = resistance_table(g)
            for mask in range(1 << n):
                assert cg.gamma(mask) == t.gamma(mask)

    def test_rejects_non_complete(self):
        with pytest.raises(ErlError):
            CompleteGraphResistance(generate("line", (4,)))

    def test_large_instance_values(self):
        g = generate("complete", (32,))
        cg = CompleteGraphResistance(g)
        assert cg.cutwidth == 16 * 16
        assert cg.gamma(Bag([0])) == 0
        assert cg.gamma(Bag([0, 1])) == 31


class TestStepMin:
    def test_matches_literal_definition(self):
        rng = rng_for(31)
        for n in range(9):
            values = rng.integers(0, 1 << 16, size=1 << n).astype(np.uint16)
            out = step_min(values, n)
            masks = np.arange(1 << n)
            for a in range(1 << n):
                near = np.bitwise_count(a & ~masks) <= 1
                assert out[a] == values[near].min()

    @pytest.mark.parametrize("dtype", ["uint8", "uint16", "uint32", "uint64",
                                       "int8", "int16", "int32"])
    def test_every_dtype(self, dtype):
        """Both kernels against the literal minimum, at every n up to 10:
        the passes for small v run column by column, the others plainly."""
        info = np.iinfo(dtype)
        rng = rng_for(32)
        for n in range(11):
            values = rng.integers(info.min, info.max, size=1 << n,
                                  dtype=dtype, endpoint=True)
            masks = np.arange(1 << n)
            a, b = masks[:, None], masks[None, :]
            literal = np.where((b & a) == a, values, info.max).min(axis=1)
            assert np.array_equal(superset_min(values, n), literal)
            near = np.bitwise_count(a & ~b) <= 1
            literal = np.where(near, values, info.max).min(axis=1)
            out = step_min(values, n)
            assert out.dtype == values.dtype
            assert np.array_equal(out, literal)


def cold_resistance_table(g: Graph) -> np.ndarray:
    """Oracle: value iteration from the all-unreached start.

    Every entry but the empty bag's starts at UNREACHED, and the Bellman
    operator is applied until nothing changes.  ``resistance_table`` starts
    from the monotone table instead; both must reach the same fixed point.
    """
    n = g.node_count
    cut_t = cut_table(g)
    gamma = np.full(1 << n, UNREACHED, dtype=np.uint16)
    gamma[0] = 0
    while True:
        new = np.minimum(gamma, _bellman_rhs(gamma, cut_t, n))
        if np.array_equal(new, gamma):
            return gamma
        gamma = new


def layered_monotone_table(g: Graph) -> np.ndarray:
    """Oracle: the removal-only DP over all 2^n bags one popcount layer at
    a time, through an index of the bags sorted by popcount.

    Layer by layer, mg(A) is the minimum over v of h(A xor v), where h holds
    max(cut, mg) on the finished layers and UNREACHED elsewhere: for v in A
    that is the step to A - v, and for v not in A it reads the next,
    unfinished layer and changes nothing.  ``monotone_resistance_table``
    runs the same recurrence on blocks and must match it bit for bit.
    """
    n = g.node_count
    cut_t = cut_table(g)
    masks = np.arange(1 << n, dtype=np.uint32)
    pops = np.bitwise_count(masks)
    order = np.argsort(pops, kind="stable").astype(np.uint32)
    layers = np.split(order, np.cumsum(np.bincount(pops, minlength=n + 1))[:-1])
    mg = np.full(1 << n, UNREACHED, dtype=np.uint16)
    h = mg.copy()
    mg[0] = h[0] = 0
    for layer in layers[1:]:
        best = np.full(layer.shape, UNREACHED, dtype=np.uint16)
        for v in range(n):
            np.minimum(best, h[layer ^ np.uint32(1 << v)], out=best)
        mg[layer] = best
        h[layer] = np.maximum(cut_t[layer], best)
    return mg


MONOTONE_REGULAR = [(n, 3) for n in range(6, 19, 2)] + \
    [(n, 4) for n in range(6, 19)]


class TestBlockedMonotone:
    """``monotone_resistance_table`` against the layered oracle."""

    def test_zoo(self, zoo_graph):
        got = monotone_resistance_table(zoo_graph).values
        assert got.dtype == np.uint16
        assert np.array_equal(got, layered_monotone_table(zoo_graph))

    @pytest.mark.parametrize("n,d", MONOTONE_REGULAR,
                             ids=[f"rr{n}_{d}" for n, d in MONOTONE_REGULAR])
    def test_random_regular(self, n, d):
        g = generate("random_regular", (n, d), seed=1)
        assert np.array_equal(monotone_resistance_table(g).values,
                              layered_monotone_table(g))

    def test_block_width_boundary(self):
        """Up to BLOCK_NODES nodes the table is one row; above it the rows
        split into layers."""
        for n in range(1, BLOCK_NODES + 3):
            for g in (Graph(n, []), generate("line", (n,)),
                      generate("complete", (n,))):
                assert np.array_equal(monotone_resistance_table(g).values,
                                      layered_monotone_table(g))

    def test_n22(self, monkeypatch):
        """The one n = 22 table; its digest was recorded from the layered
        DP before the blocked one replaced it."""
        monkeypatch.setattr(erl.resistance, "LATTICE_CAP", 22)
        g = generate("random_regular", (22, 3), seed=1)
        got = monotone_resistance_table(g).values
        assert np.array_equal(got, layered_monotone_table(g))
        assert _sha(got.astype("<u2").tobytes()) == "1f33e476f6b719db"

    def test_peak_memory(self):
        """Under 6 bytes per bag at n = 18: the peak, 5.08 bytes per bag,
        comes from the DP's own uint8 arrays and uint16 result, not from
        the cut table's build, which stays below 3 (``TestCutTable``); the
        layered DP peaked at 9.4 without and 23 with its popcount index
        build."""
        g = generate("random_regular", (18, 3), seed=1)
        tracemalloc.start()
        try:
            monotone_resistance_table(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 << 18


class TestColdStartOracle:
    def test_zoo(self, zoo_graph):
        assert np.array_equal(cold_resistance_table(zoo_graph),
                              resistance_table(zoo_graph).values)

    @pytest.mark.parametrize("n,d,seed", RANDOM_REGULAR,
                             ids=[f"rr{n}_{d}s{s}" for n, d, s in RANDOM_REGULAR])
    def test_random_regular(self, n, d, seed):
        g = generate("random_regular", (n, d), seed=seed)
        assert np.array_equal(cold_resistance_table(g),
                              resistance_table(g).values)


GOLDEN_GRAPHS = dict(ZOO)
GOLDEN_GRAPHS.update({
    f"rr{n}_3s{seed}": (lambda n=n, seed=seed:
                        generate("random_regular", (n, 3), seed=seed))
    for n in (16, 18) for seed in (1, 2)})
GOLDEN_GRAPHS["rr20_3s1"] = lambda: generate("random_regular", (20, 3), seed=1)

# First 16 hex digits of the SHA-256 of: the monotone table's values, the
# resistance table's values (both little-endian uint16), and the witness
# crusades' mask sequences from the full set and from five seeded bags.
GOLDEN = {
    "cycle6": ("4721abff60a74d1d", "d6ee2c75d7c9ad8c", "2504a0fef55d28f2"),
    "grid2x3": ("835eb7bb609e6bec", "2715687582fb77dc", "94a7aa62774af161"),
    "hypercube3": ("d4e874d0781bdf07", "faa6ed2758946fbe",
                   "7daa151f085aef46"),
    "k4": ("5452f7906b1a28a8", "5452f7906b1a28a8", "81fd91ca821de6dc"),
    "line5": ("34cd412bb7ef7a18", "a477b087e36cfa8b", "bee239f87a888467"),
    "line9": ("8316e422941e445f", "b9c44c36d80a4c16", "49ee849ff81442e0"),
    "rr10_3": ("42125a4204ea76dc", "d76dfc65e5b4d806", "a58a5840133e98bd"),
    "rr16_3s1": ("47d7ecc259d5b397", "0e973624f3ae598c", "ea9e46bd9acfcc42"),
    "rr16_3s2": ("25ffaad1545e2d66", "fd3f3059ac6a8a22", "047fe0cf74e83644"),
    "rr18_3s1": ("bbdb91014d4f3405", "b6c7e933093c800b", "b84de6e1ab54a854"),
    "rr18_3s2": ("2bb8831c39b24c8a", "af7fe194f90b8197", "3a5fd24691e19cfc"),
    "rr20_3s1": ("a849c2955a15b665", "24ac823e48d01966", "b2357c2960c193ab"),
    "rr8_3": ("d62b72574d3fd818", "ebdcf83a43969410", "8d7f3f0fe16291df"),
    "star3": ("8c3a2e88b9a57312", "8c3a2e88b9a57312", "d9566dfe80b29859"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _witness_sources(g: Graph) -> list[int]:
    """The full bag and five seeded bags."""
    rng = rng_for(80)
    return [g.full_mask, *(int(m) for m in rng.integers(1, g.full_mask + 1, 5))]


def _witness_digest(g: Graph, table: ResistanceTable) -> str:
    h = hashlib.sha256()
    for mask in _witness_sources(g):
        bags = witness_crusade(g, table, Bag.from_mask(mask)).bags
        h.update(len(bags).to_bytes(4, "little"))
        h.update(np.array([b.mask for b in bags], dtype="<u4").tobytes())
    return h.hexdigest()[:16]


# First 16 hex digits of the SHA-256 of the resistance table's ``to_csv()``,
# recorded from the per-line writer before the vectorised one replaced it.
CSV_GOLDEN = {
    "cycle6": "e0ce6f9fbf9b0452", "grid2x3": "867f6776c0315b87",
    "hypercube3": "7fa9ac79ac85c45c", "k4": "e61943366de328bc",
    "line5": "e63c6d7512a5fe36", "line9": "37d95bba23d54dba",
    "rr10_3": "69278991753e4184", "rr16_3s1": "360f287c3659195e",
    "rr16_3s2": "6b37fd17e8bebb5f", "rr18_3s1": "5ade8b45225d9e7e",
    "rr18_3s2": "beee90bf565c19dd", "rr20_3s1": "802ab4ad29da7a26",
    "rr8_3": "4ce47d9be74fbd5b", "star3": "c9f80fcb807873cd",
}


class TestCsvGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN_GRAPHS))
    def test_digest(self, name):
        text = resistance_table(GOLDEN_GRAPHS[name]()).to_csv()
        assert _sha(text.encode()) == CSV_GOLDEN[name]


class TestGolden:
    """Tables and witnesses recorded before the warm start and the
    small-type witness search (rr20_3s1 before the removal walk); both
    must stay bit-identical."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_GRAPHS))
    def test_digests(self, name):
        g = GOLDEN_GRAPHS[name]()
        mono = monotone_resistance_table(g)
        table = resistance_table(g)
        got = (_sha(mono.values.astype("<u2").tobytes()),
               _sha(table.values.astype("<u2").tobytes()),
               _witness_digest(g, table))
        assert got == GOLDEN[name]
