import hashlib
import itertools

import numpy as np
import pytest

import erl.resistance
from erl import (LATTICE_CAP, Bag, CapacityError, CompleteGraphResistance,
                 ErlError, Graph, ResistanceTable, brute_force_resistance,
                 brute_force_resistance_all, check_bellman, cut, cutwidth,
                 generate, monotone_resistance_table, resistance_table,
                 validate_crusade, width, witness_crusade)
from erl.graph import cut_table
from erl.resistance import UNREACHED, _bellman_rhs, step_min, superset_min

from conftest import ZOO, random_bounded_graph, rng_for


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
        table = erl.resistance._value_iteration(zoo_graph, mono.values)
        assert not np.shares_memory(table.values, mono.values)
        assert np.array_equal(mono.values, before)

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

    def test_all_zeros_is_a_spurious_fixed_point(self):
        # every bag may step to the full set, whose cut is zero, so the
        # identically-zero table satisfies the recursion; only the oracle
        # comparison rules it out
        g = generate("line", (4,))
        zeros = ResistanceTable(g, np.zeros(16, dtype=np.uint16), 1)
        assert check_bellman(g, zeros).passed
        assert not np.array_equal(brute_force_resistance_all(g), zeros.values)


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
        # an operator that reaches mask r in round r needs 511 rounds to
        # reach the full set of 9 nodes, past the 254 a uint8 count can hold
        def path_step_min(vals, n):
            out = vals.copy()
            np.minimum(out[1:], vals[:-1], out=out[1:])
            return out

        g = generate("line", (9,))
        values = resistance_table(g).values.copy()
        values[-1] = 100
        monkeypatch.setattr(erl.resistance, "step_min", path_step_min)
        with pytest.raises(ErlError, match="more than 254 steps"):
            witness_crusade(g, ResistanceTable(g, values, 1), g.all_nodes())

    def test_lowered_full_set_raises_promptly(self, monkeypatch):
        g = generate("random_regular", (12, 3), seed=5)
        values = resistance_table(g).values.copy()
        values[-1] -= 1
        rounds = []

        def counting_step_min(vals, n):
            rounds.append(n)
            return step_min(vals, n)

        monkeypatch.setattr(erl.resistance, "step_min", counting_step_min)
        with pytest.raises(ErlError, match="no crusade within the optimal width"):
            witness_crusade(g, ResistanceTable(g, values, 1), g.all_nodes())
        # the search stops at the first round that reaches no new bag
        assert len(rounds) <= g.node_count


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
                                       "int32"])
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


RANDOM_REGULAR = [(n, d, seed) for n in (6, 8, 10, 12, 14, 16)
                  for d in (3, 4) for seed in (1, 2)]


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
    "rr8_3": ("d62b72574d3fd818", "ebdcf83a43969410", "8d7f3f0fe16291df"),
    "star3": ("8c3a2e88b9a57312", "8c3a2e88b9a57312", "d9566dfe80b29859"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _witness_digest(g: Graph, table: ResistanceTable) -> str:
    rng = rng_for(80)
    sources = [g.full_mask, *(int(m) for m in rng.integers(1, g.full_mask + 1, 5))]
    h = hashlib.sha256()
    for mask in sources:
        bags = witness_crusade(g, table, Bag.from_mask(mask)).bags
        h.update(len(bags).to_bytes(4, "little"))
        h.update(np.array([b.mask for b in bags], dtype="<u4").tobytes())
    return h.hexdigest()[:16]


class TestGolden:
    """Tables and witnesses recorded before the warm start and the
    small-type witness search; both must stay bit-identical."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_GRAPHS))
    def test_digests(self, name):
        g = GOLDEN_GRAPHS[name]()
        mono = monotone_resistance_table(g)
        table = resistance_table(g)
        got = (_sha(mono.values.astype("<u2").tobytes()),
               _sha(table.values.astype("<u2").tobytes()),
               _witness_digest(g, table))
        assert got == GOLDEN[name]
