from fractions import Fraction

import pytest

from erl import (Bag, Crusade, EpidemicConfig, ErlError, audit_bottleneck,
                 bottleneck_sequence, brute_force_resistance, builtin_policy,
                 crusade_from_json, crusade_to_json, cut, generate, replay,
                 resistance_table, simulate, validate_crusade, width)
from erl.epidemic import _POLICY_KINDS

from conftest import random_unit_step_sequence, rng_for


def bags(*node_lists):
    return tuple(Bag(nodes) for nodes in node_lists)


class TestValidate:
    def test_single_removal_per_step_ok(self):
        seq = bags([1, 2], [2], [])
        check = validate_crusade(seq, Bag([1, 2]), Bag())
        assert check.valid

    def test_double_removal_rejected_at_index(self):
        check = validate_crusade(bags([1, 2], []), Bag([1, 2]), Bag())
        assert not check.valid
        assert check.violation_index == 0

    def test_arbitrary_additions_allowed(self):
        seq = bags([1], [1, 2, 3], [2, 3], [3], [])
        assert validate_crusade(seq, Bag([1]), Bag()).valid

    def test_wrong_endpoints(self):
        seq = bags([1], [])
        assert not validate_crusade(seq, Bag([2]), Bag()).valid
        assert not validate_crusade(seq, Bag([1]), Bag([3])).valid

    def test_empty_sequence_is_an_error(self):
        with pytest.raises(ErlError):
            validate_crusade((), Bag(), Bag())

    def test_crusade_type_enforces_step_rule(self):
        with pytest.raises(ErlError):
            Crusade(bags([1, 2], []))


class TestWidth:
    def test_line_left_to_right_cure(self):
        g = generate("line", (5,))
        seq = [Bag(range(i, 5)) for i in range(6)]
        assert validate_crusade(seq, g.all_nodes(), Bag()).valid
        assert width(g, Crusade(tuple(seq))) == 1

    def test_single_node_to_empty_is_zero(self):
        g = generate("line", (5,))
        assert width(g, Crusade(bags([2], []))) == 0

    def test_path3_example(self):
        g = generate("line", (3,))
        c = Crusade(bags([0, 1, 2], [1, 2], [2], []))
        assert width(g, c) == max(cut(g, Bag([1, 2])), cut(g, Bag([2])), 0) == 1

    def test_length_zero_crusade(self):
        g = generate("line", (3,))
        assert width(g, Crusade(bags([0, 1]))) == 0

    def test_initial_bag_cut_excluded(self):
        g = generate("line", (9,))
        even = Bag(range(0, 9, 2))
        seq = [even, g.all_nodes()] + [Bag(range(i, 9)) for i in range(1, 10)]
        assert width(g, Crusade(tuple(seq))) == 1  # cut(even) = 8 not counted


class TestBottleneckSequence:
    def test_running_intersection_example(self):
        seq = bags([1, 2], [1, 2, 3], [2, 3], [2])
        theta = bottleneck_sequence(seq)
        assert theta.bags == bags([1, 2], [1, 2], [2], [2])

    def test_all_additions_is_constant(self):
        seq = bags([1], [1, 2], [1, 2, 3], [1, 2, 3, 4])
        theta = bottleneck_sequence(seq)
        assert all(b == Bag([1]) for b in theta.bags)

    def test_removal_propagates(self):
        assert bottleneck_sequence(bags([1], [])).bags == bags([1], [])

    def test_is_a_crusade_from_the_first_bag(self):
        seq = bags([1, 2], [1, 2, 3], [2, 3], [2])
        theta = bottleneck_sequence(seq)
        assert isinstance(theta, Crusade)
        assert validate_crusade(theta.bags, seq[0], Bag([2])).valid
        assert crusade_to_json(theta) == "[[1,2],[1,2],[2],[2]]"

    def test_non_unit_step_rejected(self):
        with pytest.raises(ErlError, match=r"^step 1 is not a unit step "
                           r"\(symmetric difference size 0\)$"):
            bottleneck_sequence(bags([1, 2], [1, 2]))
        with pytest.raises(ErlError, match=r"^step 1 is not a unit step "
                           r"\(symmetric difference size 2\)$"):
            bottleneck_sequence(bags([1, 2], []))
        # the first non-unit step is named, not a later one
        with pytest.raises(ErlError, match=r"^step 3 is not a unit step "
                           r"\(symmetric difference size 4\)$"):
            bottleneck_sequence(bags([1], [1, 2], [2], [0, 1, 3], [0, 1]))

    def test_empty_rejected(self):
        with pytest.raises(ErlError,
                           match="^empty sequence has no bottleneck sequence$"):
            bottleneck_sequence(())

    def test_matches_prefix_intersections(self):
        rng = rng_for(22)
        for _ in range(30):
            seq = random_unit_step_sequence(7, 25, rng)
            theta = bottleneck_sequence(seq).bags
            running = seq[0].mask
            for i, a in enumerate(seq):
                running &= a.mask
                assert theta[i].mask == running

    def test_wide_walk_matches_prefix_intersections(self):
        # above 64 nodes the masks are held in an object array
        rng = rng_for(23)
        for _ in range(10):
            mask = int(rng.integers(0, 1 << 62)) << 8 | 1
            seq = [Bag.from_mask(mask)]
            for v in rng.integers(0, 70, size=60).tolist():
                mask ^= 1 << v
                seq.append(Bag.from_mask(mask))
            assert max(a.mask for a in seq).bit_length() > 64
            theta = bottleneck_sequence(seq).bags
            running = seq[0].mask
            for i, a in enumerate(seq):
                running &= a.mask
                assert theta[i].mask == running


class TestAuditBottleneck:
    def test_random_walks_pass(self):
        g = generate("random_regular", (8, 3), seed=3)
        rng = rng_for(30)
        for _ in range(50):
            seq = random_unit_step_sequence(8, 60, rng)
            audit = audit_bottleneck(g, seq)
            assert audit.passed, audit

    def test_hand_built_path_sequence(self):
        g = generate("line", (3,))
        seq = bags([0, 1], [1], [1, 2])
        audit = audit_bottleneck(g, seq)
        assert audit.passed
        theta = bottleneck_sequence(seq).bags
        cuts = [cut(g, b) for b in theta]
        assert cuts[1] != cuts[0]      # removal step moved the cut
        assert cuts[2] == cuts[1]      # addition step left it alone

    def test_corrupted_theta_fails_with_index(self):
        g = generate("line", (4,))
        seq = bags([0, 1, 2, 3], [1, 2, 3], [2, 3])
        theta = list(bottleneck_sequence(seq).bags)
        theta[2] = Bag([2, 3, 0])  # not a subset of the source bag
        audit = audit_bottleneck(g, seq, theta=theta)
        assert not audit.passed
        assert audit.violation_index == 2

    @pytest.mark.parametrize("theta", [None, []])
    def test_empty_sequence_rejected(self, theta):
        with pytest.raises(ErlError, match="empty sequence"):
            audit_bottleneck(generate("line", (3,)), [], theta=theta)

    def test_theta_may_jump_several_nodes(self):
        g = generate("line", (4,))
        seq = bags([0, 1, 2, 3], [1, 2, 3], [2, 3], [3], [])
        audit = audit_bottleneck(g, seq, theta=bags([0, 1, 2, 3], [2, 3], [],
                                                    [], []))
        assert audit.passed
        audit = audit_bottleneck(g, seq, theta=bags([0, 1, 2, 3], [1, 3],
                                                    [3], [3], []))
        assert (audit.passed, audit.violation_index, audit.reason) == \
            (False, 1, "cut increased by 3 > degree bound 2")

    def test_subset_and_shrinking_properties(self):
        rng = rng_for(31)
        for _ in range(40):
            seq = random_unit_step_sequence(9, 50, rng)
            theta = bottleneck_sequence(seq).bags
            for i in range(len(seq)):
                assert theta[i].issubset(seq[i])
                if i:
                    assert theta[i].issubset(theta[i - 1])

    def test_cut_growth_stays_within_degree_bound(self, zoo_graph):
        g = zoo_graph
        rng = rng_for(32)
        for _ in range(20):
            seq = random_unit_step_sequence(g.node_count, 40, rng)
            theta = bottleneck_sequence(seq).bags
            cuts = [cut(g, b) for b in theta]
            for i in range(1, len(cuts)):
                assert cuts[i] - cuts[i - 1] <= g.degree_bound
                if cuts[i] > cuts[i - 1]:
                    assert seq[i].issubset(seq[i - 1]) and seq[i] != seq[i - 1]


class TestWidthVersusResistance:
    def test_any_valid_crusade_is_at_least_resistance(self):
        g = generate("random_regular", (8, 3), seed=5)
        rng = rng_for(40)
        for _ in range(25):
            start = Bag.from_mask(int(rng.integers(1, 256)))
            # random valid crusade: occasionally add a random set, always
            # remove one node until empty
            seq = [start]
            cur = set(start)
            while cur:
                if rng.random() < 0.3:
                    extra = {int(v) for v in rng.integers(0, 8, size=2)}
                    cur |= extra
                    seq.append(Bag(cur))
                drop = sorted(cur)[int(rng.integers(len(cur)))]
                cur.discard(drop)
                seq.append(Bag(cur))
            assert validate_crusade(seq, start, Bag()).valid
            w = width(g, Crusade(tuple(seq)))
            assert w >= brute_force_resistance(g, start)


class TestBottleneckWidthVersusResistance:
    def test_extinct_runs_are_at_least_initial_resistance(self, zoo_graph):
        """On a run that dies out, the bottleneck sequence is a crusade from
        the initial bag to the empty one, so its width is at least gamma of
        the initial bag."""
        g = zoo_graph
        table = resistance_table(g)
        rng = rng_for(41)
        partial = Bag.from_mask(int(rng.integers(1, 1 << g.node_count)))
        extinct = 0
        for start in (g.all_nodes(), partial):
            gamma = table.gamma(start)
            assert gamma == brute_force_resistance(g, start)
            for kind in _POLICY_KINDS:
                params = {"table": table} if kind == "resistance_greedy" else {}
                for rep in range(4):
                    cfg = EpidemicConfig(
                        graph=g, initial_infected=start,
                        budget=Fraction(2 * g.degree_bound + 1), seed=5,
                        max_events=10**4)
                    res = simulate(cfg, builtin_policy(kind, **params),
                                   replication=rep)
                    if not res.extinct:
                        continue
                    extinct += 1
                    theta = bottleneck_sequence(
                        [b for _, b in replay(res.log, g)])
                    assert theta.bags[-1] == Bag()
                    assert width(g, theta) >= gamma
        assert extinct >= 30


class TestJson:
    def test_round_trip(self):
        c = Crusade(bags([0, 2], [2], [2, 3], [3], []))
        assert crusade_from_json(crusade_to_json(c)) == c
