import inspect
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from erl import (GENERATE_CAP, Bag, GenerationError, Graph, GraphParseError,
                 InvalidBagError, cut, generate, parse_graph, serialize_graph)
import erl
from erl.graph import cut_table, halves, rowwise, toggle_delta
from erl.resistance import _pack_bags, _unpack_bags

from conftest import random_bounded_graph, rng_for


def brute_cut(g: Graph, members: set[int]) -> int:
    return sum(1 for u, v in g.edges if (u in members) != (v in members))


class TestGenerators:
    def test_line(self):
        g = generate("line", (5,))
        assert g.node_count == 5
        assert len(g.edges) == 4
        assert g.degree_bound == 2

    def test_hypercube(self):
        g = generate("hypercube", (3,))
        assert g.node_count == 8
        assert len(g.edges) == 12
        assert g.degree_bound == 3
        assert all(g.degree(v) == 3 for v in range(8))

    def test_star_counts_leaves(self):
        g = generate("star", (3,))
        assert g.node_count == 4
        assert g.degree(0) == 3
        assert g.degree_bound == 3

    def test_grid(self):
        g = generate("grid", (2, 3))
        assert g.node_count == 6
        assert len(g.edges) == 7
        assert g.degree_bound == 3

    def test_cycle_needs_three_nodes(self):
        with pytest.raises(GenerationError):
            generate("cycle", (2,))

    def test_random_regular_deterministic(self):
        g1 = generate("random_regular", (10, 3), seed=7)
        g2 = generate("random_regular", (10, 3), seed=7)
        assert g1.edges == g2.edges
        assert all(g1.degree(v) == 3 for v in range(10))
        g3 = generate("random_regular", (10, 3), seed=8)
        assert g3.edges != g1.edges  # overwhelmingly likely for this family

    def test_random_regular_infeasible(self):
        with pytest.raises(GenerationError):
            generate("random_regular", (5, 3))  # odd stub count
        with pytest.raises(GenerationError):
            generate("random_regular", (4, 4))  # d > n-1

    def test_unknown_kind(self):
        with pytest.raises(GenerationError):
            generate("torus", (4,))

    def test_degree_bound_is_exact_max(self, zoo_graph):
        assert zoo_graph.degree_bound == max(
            zoo_graph.degree(v) for v in range(zoo_graph.node_count))


class TestGenerateCap:
    # (kind, largest parameters within the cap, smallest ones above it)
    @pytest.mark.parametrize("kind, inside, outside", [
        ("line", (GENERATE_CAP,), (GENERATE_CAP + 1,)),
        ("cycle", (GENERATE_CAP,), (GENERATE_CAP + 1,)),
        ("star", (GENERATE_CAP - 1,), (GENERATE_CAP,)),
        ("complete", (447,), (448,)),
        ("hypercube", (13,), (14,)),
        ("grid", (1, GENERATE_CAP), (1, GENERATE_CAP + 1)),
        ("grid", (224, 224), (224, 225)),
        ("random_regular", (GENERATE_CAP, 2), (GENERATE_CAP + 2, 2)),
    ], ids=["line", "cycle", "star", "complete", "hypercube", "grid_nodes",
            "grid_edges", "random_regular"])
    def test_boundary(self, kind, inside, outside):
        g = generate(kind, inside)
        assert max(g.node_count, len(g.edges)) <= GENERATE_CAP
        with pytest.raises(GenerationError, match="too large"):
            generate(kind, outside)

    @pytest.mark.parametrize("kind, params", [
        ("complete", (10**6,)),
        ("hypercube", (10**6,)),
        ("grid", (10**5, 10**5)),
        ("random_regular", (1000, 202)),
    ])
    def test_rejected_before_building(self, kind, params):
        # none of these could be built in the lifetime of the test run
        with pytest.raises(GenerationError, match="too large"):
            generate(kind, params)


class TestParseCap:
    # a cycle on GENERATE_CAP nodes has exactly GENERATE_CAP edges
    CYCLE = [(i, (i + 1) % GENERATE_CAP) for i in range(GENERATE_CAP)]

    @staticmethod
    def edge_list(n, edges):
        return "\n".join([str(n), *(f"{u} {v}" for u, v in edges)]) + "\n"

    @staticmethod
    def json_doc(n, edges):
        return json.dumps({"n": n, "edges": [list(e) for e in edges]})

    @pytest.mark.parametrize("fmt", ["edge_list", "json_doc"])
    def test_node_count_boundary(self, fmt):
        text = getattr(self, fmt)
        assert parse_graph(text(GENERATE_CAP, [])).node_count == GENERATE_CAP
        with pytest.raises(GraphParseError, match="above the cap"):
            parse_graph(text(GENERATE_CAP + 1, []))

    @pytest.mark.parametrize("fmt", ["edge_list", "json_doc"])
    def test_edge_count_boundary(self, fmt):
        text = getattr(self, fmt)
        g = parse_graph(text(GENERATE_CAP, self.CYCLE))
        assert len(g.edges) == GENERATE_CAP
        with pytest.raises(GraphParseError, match=f"more than {GENERATE_CAP} edges"):
            parse_graph(text(GENERATE_CAP, self.CYCLE + [(0, 2)]))

    def test_edge_cap_reports_line(self):
        with pytest.raises(GraphParseError) as exc:
            parse_graph(self.edge_list(GENERATE_CAP, self.CYCLE + [(0, 2)]))
        assert exc.value.line == GENERATE_CAP + 2

    def test_huge_declared_count(self):
        # rejected before a Graph of that size is built
        with pytest.raises(GraphParseError, match="line 1: node count"):
            parse_graph("1000000\n")
        with pytest.raises(GraphParseError, match="node count"):
            parse_graph('{"n": 1000000000000, "edges": []}')


class TestGraphConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphParseError):
            Graph(3, [(0, 0)])

    def test_rejects_duplicate_even_reversed(self):
        with pytest.raises(GraphParseError):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_low_degree_bound(self):
        with pytest.raises(GraphParseError):
            Graph(3, [(0, 1), (1, 2)], degree_bound=1)

    def test_declared_bound_above_actual_is_kept(self):
        g = Graph(3, [(0, 1)], degree_bound=5)
        assert g.degree_bound == 5

    def test_immutable(self):
        g = generate("line", (3,))
        with pytest.raises(AttributeError):
            g.node_count = 7


class TestCut:
    def test_empty_and_full_are_zero(self, zoo_graph):
        assert cut(zoo_graph, Bag()) == 0
        assert cut(zoo_graph, zoo_graph.all_nodes()) == 0

    def test_line_even_positions(self):
        for n in (7, 9):
            g = generate("line", (n,))
            even = Bag(range(0, n, 2))
            assert cut(g, even) == n - 1

    def test_path_prefix(self):
        g = generate("line", (4,))
        assert cut(g, Bag([0, 1])) == 1

    def test_complement_symmetry(self, zoo_graph):
        g = zoo_graph
        rng = rng_for(3)
        for _ in range(50):
            mask = int(rng.integers(0, 1 << g.node_count))
            a = Bag.from_mask(mask)
            comp = Bag.from_mask(g.full_mask & ~mask)
            assert cut(g, a) == cut(g, comp)

    def test_against_edge_enumeration(self, zoo_graph):
        g = zoo_graph
        rng = rng_for(4)
        for _ in range(100):
            members = {v for v in range(g.node_count) if rng.random() < 0.5}
            assert cut(g, Bag(members)) == brute_cut(g, members)

    def test_out_of_range_bag(self):
        g = generate("line", (3,))
        with pytest.raises(InvalidBagError):
            cut(g, Bag([5]))


class TestCutAfterToggle:
    """The cut after toggling one node, as ``cut + toggle_delta``."""

    def test_path_examples(self):
        g = generate("line", (4,))
        a = Bag([0, 1])
        assert cut(g, a) + toggle_delta(g, a.mask, 2) == cut(g, Bag([0, 1, 2]))

    def test_from_empty_gives_degree(self, zoo_graph):
        g = zoo_graph
        for v in range(g.node_count):
            assert toggle_delta(g, 0, v) == g.degree(v)

    def test_star_center_plus_leaf(self):
        g = generate("star", (3,))
        a = Bag([0])
        assert cut(g, a) + toggle_delta(g, a.mask, 1) == 2

    def test_agrees_with_scratch_on_100k_pairs(self):
        g = random_bounded_graph(12, 5, rng_for(99))
        table = cut_table(g)  # vectorized, independent of cut()
        rng = rng_for(100)
        masks = rng.integers(0, 1 << 12, size=100_000)
        nodes = rng.integers(0, 12, size=100_000)
        for mask, v in zip(masks.tolist(), nodes.tolist()):
            got = int(table[mask]) + toggle_delta(g, mask, v)
            assert got == int(table[mask ^ (1 << v)])


class TestCutTable:
    def test_matches_direct_cut(self, zoo_graph):
        g = zoo_graph
        table = cut_table(g)
        for mask in range(1 << g.node_count):
            assert int(table[mask]) == cut(g, Bag.from_mask(mask))

    def test_every_edge_offset(self):
        """Edges (0, n-1), every (v, v+1) and random ones put a neighbour at
        each bit offset below a node, checked on every mask."""
        rng = rng_for(31)
        for n in range(1, 13):
            path = [(v, v + 1) for v in range(n - 1)]
            graphs = [Graph(n, []), Graph(n, path), random_bounded_graph(n, n - 1, rng)]
            if n > 1:
                graphs.append(Graph(n, [(0, n - 1)]))
            if n > 2:
                graphs.append(Graph(n, path + [(0, n - 1)]))
            for g in graphs:
                table = cut_table(g)
                assert table.dtype == np.uint16
                assert table.tolist() == [cut(g, Bag.from_mask(m))
                                          for m in range(1 << n)]


KERNEL_DTYPES = ["uint8", "uint16", "uint32", "uint64", "int8", "int16",
                 "int32"]


class TestHalves:
    def test_entries_are_masks(self):
        masks = np.arange(1 << 6)
        for v in range(6):
            without, with_v = halves(masks, v)
            assert without.shape == with_v.shape == (1 << (5 - v), 1 << v)
            assert not (without & (1 << v)).any()
            assert np.array_equal(with_v, without | (1 << v))
            # flattened index = mask with bit v removed, in mask order
            low = without.reshape(-1) & ((1 << v) - 1)
            high = without.reshape(-1) >> (v + 1)
            assert np.array_equal((high << v) | low, np.arange(1 << 5))

    def test_no_strided_pass_outside_halves(self):
        """Every per-node lattice pass goes through ``halves``: its body is
        the only place in the package that views an array by node."""
        assert_only_in("reshape(-1, 2,", halves)

    def test_bit_packing_only_in_packing_helpers(self):
        """Bag sets are packed into words and unpacked again only by the
        two helpers that fix the bit layout."""
        assert_only_in("np.packbits", _pack_bags)
        assert_only_in("np.unpackbits", _unpack_bags)

    def test_no_mask_order_index(self):
        """No 2^n index of the bags in popcount order: the monotone DP
        indexes only the popcount layers of its blocks' rows and columns,
        and a sort by popcount would bring the full index back."""
        assert_only_in("argsort", None)


def assert_only_in(pattern: str, func) -> None:
    """``pattern`` occurs once in the package's sources, inside ``func``;
    with ``func`` None, nowhere in them."""
    hits = {p.name: p.read_text().count(pattern)
            for p in Path(erl.__file__).parent.glob("*.py")}
    if func is None:
        assert not any(hits.values()), hits
        return
    home = Path(inspect.getsourcefile(func)).name
    assert {name: c for name, c in hits.items() if c} == {home: 1}
    assert inspect.getsource(func).count(pattern) == 1


class TestRowwise:
    """``rowwise`` against the plain ufunc call for every v <= 12, on both
    sides of the short-row cutoff."""

    @pytest.mark.parametrize("dtype", KERNEL_DTYPES)
    def test_matches_plain_ufunc(self, dtype):
        info = np.iinfo(dtype)
        rng = rng_for(41)
        x = rng.integers(info.min, info.max, size=1 << 13, dtype=dtype,
                         endpoint=True)
        for v in range(13):
            without, with_v = halves(x, v)
            for ufunc in (np.minimum, np.maximum, np.subtract, np.greater,
                          np.less):
                want = ufunc(without, with_v)
                got = np.empty(without.shape, dtype=want.dtype)
                assert rowwise(ufunc, without, with_v, out=got) is got
                assert np.array_equal(got, want)
            want = np.add(with_v, 1)
            got = np.empty_like(want)
            rowwise(np.add, with_v, 1, out=got)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", KERNEL_DTYPES)
    def test_out_aliases_input(self, dtype):
        info = np.iinfo(dtype)
        rng = rng_for(42)
        for v in range(13):
            x = rng.integers(info.min, info.max, size=1 << 13, dtype=dtype,
                             endpoint=True)
            y = x.copy()
            without, with_v = halves(x, v)
            rowwise(np.minimum, without, with_v, out=without)
            y_without, y_with = halves(y, v)
            np.minimum(y_without, y_with, out=y_without)
            assert np.array_equal(x, y)
            rowwise(np.add, with_v, 1, out=with_v)
            np.add(y_with, 1, out=y_with)
            assert np.array_equal(x, y)


class TestCutInequalities:
    """Exhaustive small-graph checks, independent of the analysis module."""

    def test_bounded_difference(self):
        g = random_bounded_graph(6, 4, rng_for(5))
        d = g.degree_bound
        for a in range(64):
            for b in range(64):
                lhs = abs(cut(g, Bag.from_mask(a)) - cut(g, Bag.from_mask(b)))
                assert lhs <= d * bin(a ^ b).count("1")

    def test_submodular(self):
        g = random_bounded_graph(6, 4, rng_for(6))
        for b in range(64):
            cb = cut(g, Bag.from_mask(b))
            s = b
            while True:
                cs = cut(g, Bag.from_mask(s))
                for v in range(6):
                    if (s >> v) & 1:
                        drop_small = cut(g, Bag.from_mask(s & ~(1 << v))) - cs
                        drop_big = cut(g, Bag.from_mask(b & ~(1 << v))) - cb
                        assert drop_small <= drop_big
                if s == 0:
                    break
                s = (s - 1) & b


class TestSerialization:
    def test_edge_list_round_trip(self, zoo_graph):
        text = serialize_graph(zoo_graph)
        assert parse_graph(text) == zoo_graph

    def test_json_round_trip(self, zoo_graph):
        text = serialize_graph(zoo_graph, fmt="json")
        assert parse_graph(text) == zoo_graph

    def test_parse_basic(self):
        g = parse_graph("3\n0 1\n1 2\n")
        assert g.node_count == 3
        assert g.edges == {(0, 1), (1, 2)}

    def test_comments_and_blank_lines(self):
        g = parse_graph("# a path\n3\n\n0 1  # first\n1 2\n")
        assert g.edges == {(0, 1), (1, 2)}

    def test_self_loop_reports_line(self):
        with pytest.raises(GraphParseError) as exc:
            parse_graph("2\n0 0\n")
        assert exc.value.line == 2

    def test_duplicate_reports_line(self):
        with pytest.raises(GraphParseError) as exc:
            parse_graph("3\n0 1\n1 0\n")
        assert exc.value.line == 3

    def test_out_of_range_reports_line(self):
        with pytest.raises(GraphParseError) as exc:
            parse_graph("2\n0 5\n")
        assert exc.value.line == 2

    def test_malformed_line(self):
        with pytest.raises(GraphParseError):
            parse_graph("2\n0 1 2\n")

    def test_empty_input(self):
        with pytest.raises(GraphParseError):
            parse_graph("   \n# nothing\n")

    @pytest.mark.parametrize("text", [
        '{"n": "3", "edges": [[0, 1]]}',
        '{"n": 3.5, "edges": [[0, 1]]}',
        '{"n": true, "edges": []}',
        '{"n": 0, "edges": []}',
        '{"n": 3, "edges": 5}',
        '{"n": 3, "edges": {"0": 1}}',
        '{"n": 3, "edges": [5]}',
        '{"n": 3, "edges": [[true, 2]]}',
        '{"n": 3, "edges": [[0, 1.0]]}',
        '{"n": 3, "edges": [[0, 1, 2]]}',
        '{"n": 3, "edges": [[0, 1]], "degree_bound": "x"}',
        '{"n": 3, "edges": [[0, 1]], "degree_bound": true}',
    ], ids=["n_str", "n_float", "n_bool", "n_zero", "edges_int", "edges_dict",
            "edge_int", "edge_bool", "edge_float", "edge_triple", "bound_str",
            "bound_bool"])
    def test_malformed_json(self, text):
        with pytest.raises(GraphParseError):
            parse_graph(text)

    def test_json_degree_bound_optional(self):
        g = parse_graph('{"n": 3, "edges": [[0, 1]]}')
        assert g.degree_bound == 1
        g2 = parse_graph('{"n": 3, "edges": [[0, 1]], "degree_bound": 2}')
        assert g2.degree_bound == 2

    def test_serialized_form_is_canonical(self):
        a = parse_graph("3\n1 2\n0 1\n")
        b = parse_graph("3\n0 1\n2 1\n")
        assert serialize_graph(a) == serialize_graph(b)


@st.composite
def node_sets(draw):
    return draw(st.frozensets(st.integers(0, 15), max_size=16))


class TestBagAlgebra:
    @given(node_sets(), node_sets())
    def test_set_ops_match_python_sets(self, xs, ys):
        a, b = Bag(xs), Bag(ys)
        assert set(a | b) == xs | ys
        assert set(a & b) == xs & ys
        assert set(a - b) == xs - ys
        assert set(a ^ b) == xs ^ ys
        assert len(a) == len(xs)
        assert a.issubset(b) == (xs <= ys)

    @given(node_sets(), st.integers(0, 15))
    def test_add_remove(self, xs, v):
        a = Bag(xs)
        assert set(a.add(v)) == xs | {v}
        assert set(a.remove(v)) == xs - {v}
        assert (v in a) == (v in xs)

    def test_nodes_sorted(self):
        assert Bag([4, 1, 9]).nodes() == (1, 4, 9)

    def test_negative_rejected(self):
        with pytest.raises(InvalidBagError):
            Bag([-1])

    def test_mask_round_trip(self):
        assert Bag.from_mask(0b1011).nodes() == (0, 1, 3)
