"""End-to-end acceptance suite.

One test per acceptance criterion; each prints a single pass/fail line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them live).
All integer claims are exact; statistical claims use 3-standard-error
tolerances fixed here.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from erl import (CASE2, NOT_APPLICABLE, RECOVERY, Bag, CompleteGraphResistance,
                 EpidemicConfig, audit_bottleneck,
                 audit_recovery_bound, bottleneck_sequence, builtin_policy,
                 complete_extinction_mean, cut, extinction_sweep, generate,
                 brute_force_resistance_all, monotone_resistance_table,
                 poisson_ld_exponent, poisson_tail_probability, replay,
                 resistance_table, scan_halving_window, simulate,
                 slow_regime_constants, verify_table_invariants)
from erl.epidemic import Event

from conftest import event_log, random_bounded_graph, random_unit_step_sequence, rng_for
from reference_simulate import reference_simulate


@contextmanager
def criterion(label: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"\nacceptance {label}: FAIL ({time.time() - start:.1f}s)")
        raise
    print(f"\nacceptance {label}: PASS ({time.time() - start:.1f}s)")


FAMILIES_N10 = [
    ("line", (10,)),
    ("cycle", (10,)),
    ("star", (9,)),
    ("complete", (10,)),
    ("hypercube", (3,)),
    ("grid", (2, 5)),
    ("random_regular", (10, 3)),
]


def test_01_line_graph_exactness():
    with criterion("01 line-graph exactness"):
        g = generate("line", (9,))
        table = resistance_table(g)
        assert table.cutwidth == 1
        assert monotone_resistance_table(g).cutwidth == 1
        sizes = np.bitwise_count(np.arange(512).astype(np.int64))
        # every bag of two or more nodes resists at exactly 1
        assert np.all(table.values[sizes >= 2] == 1)
        # a single node drops straight to the empty bag (cut 0), so
        # singletons resist at 0 -- forced by the width definition
        assert np.all(table.values[(sizes == 1).nonzero()[0]] == 0)
        assert table.values[0] == 0
        assert cut(g, Bag(range(0, 9, 2))) == 8


def test_02_monotone_equivalence():
    with criterion("02 monotone/non-monotone equivalence"):
        rng = rng_for(2025)
        graphs = []
        for i in range(200):
            n = int(rng.integers(4, 11))
            graphs.append(random_bounded_graph(n, 4, rng))
        graphs += [generate(kind, params, seed=3) for kind, params in FAMILIES_N10]
        for g in graphs:
            assert resistance_table(g).cutwidth == \
                monotone_resistance_table(g).cutwidth


def test_03_oracle_equivalence():
    with criterion("03 oracle equivalence"):
        rng = rng_for(1903)
        for i in range(50):
            n = int(rng.integers(4, 9))
            g = random_bounded_graph(n, 4, rng)
            table = resistance_table(g)
            oracle = brute_force_resistance_all(g)
            assert np.array_equal(oracle, table.values.astype(np.int64)), \
                f"graph {i} disagrees with the oracle"


def test_04_invariant_suites():
    with criterion("04 invariant suites"):
        small = [generate(kind, params, seed=3) for kind, params in FAMILIES_N10]
        small += [generate("line", (9,)), generate("complete", (4,)),
                  generate("star", (3,)), generate("cycle", (6,))]
        rng = rng_for(44)
        small += [random_bounded_graph(int(rng.integers(4, 11)), 4, rng)
                  for _ in range(10)]
        for g in small:
            report = verify_table_invariants(g, resistance_table(g),
                                             mode="exhaustive", seed=1)
            assert report.ok, report.violations()
        large = [generate("random_regular", (12, 3), seed=5),
                 generate("random_regular", (14, 3), seed=6),
                 generate("grid", (4, 4)),
                 generate("random_regular", (16, 3), seed=7)]
        for g in large:
            report = verify_table_invariants(g, resistance_table(g),
                                             mode="exhaustive",
                                             samples=100_000, seed=2)
            assert report.ok, report.violations()


def test_05_bottleneck_properties():
    with criterion("05 bottleneck properties"):
        rng = rng_for(55)
        graphs = [generate("random_regular", (10, 3), seed=8),
                  generate("line", (12,)), generate("cycle", (9,)),
                  generate("grid", (3, 4))]
        # 10^4 random unit-step sequences, exact integer checks throughout
        for i in range(10_000):
            g = graphs[i % len(graphs)]
            seq = random_unit_step_sequence(g.node_count, 30, rng)
            theta = bottleneck_sequence(seq).bags
            prev_cut = cut(g, theta[0])
            for j in range(len(seq)):
                assert theta[j].issubset(seq[j])
                if j:
                    cur = cut(g, theta[j])
                    if cur > prev_cut:
                        assert seq[j].issubset(seq[j - 1]) and seq[j] != seq[j - 1]
                    assert cur - prev_cut <= g.degree_bound
                    prev_cut = cur
        # 10^3 simulated trajectory segments
        audited = 0
        pol = builtin_policy("max_cut_drop")
        rep_idx = 0
        while audited < 1000:
            g = graphs[rep_idx % len(graphs)]
            cfg = EpidemicConfig(graph=g, initial_infected=g.all_nodes(),
                                 budget=Fraction(2 * g.degree_bound + 1),
                                 seed=90, max_events=5000)
            res = simulate(cfg, pol, replication=rep_idx)
            rep_idx += 1
            bags = [b for _, b in replay(res.log, g)]
            if len(bags) < 3:
                continue
            for _ in range(3):
                a, b = sorted(rng.integers(0, len(bags), size=2))
                if b - a < 1:
                    continue
                segment = bags[a:b + 1]
                audit = audit_bottleneck(g, segment)
                assert audit.passed, audit
                audited += 1


def _extinct_log(g, budget, seed, replication):
    cfg = EpidemicConfig(graph=g, initial_infected=g.all_nodes(),
                         budget=Fraction(budget), seed=seed, max_events=10**6)
    res = simulate(cfg, builtin_policy("max_cut_drop"), replication=replication)
    assert res.extinct
    return res.log


def test_06_recovery_count_bound():
    with criterion("06 recovery-count bound"):
        corpus = [
            (generate("line", (16,)), 5),
            (generate("cycle", (12,)), 5),
            (generate("star", (8,)), 10),
            (generate("complete", (8,)), 18),
            (generate("hypercube", (3,)), 8),
            (generate("grid", (3, 4)), 9),
            (generate("random_regular", (12, 3), seed=9), 8),
            (generate("random_regular", (16, 3), seed=10), 8),
        ]
        rng = rng_for(66)
        trajectories = 0
        for g, budget in corpus:
            table = resistance_table(g)
            for j in range(125):
                log = _extinct_log(g, budget, 600, j)
                end = log.events[-1].time
                reports = [audit_recovery_bound(g, table, log, 0.0, end)]
                for _ in range(2):
                    a, b = sorted(rng.uniform(0.0, end, size=2))
                    reports.append(
                        audit_recovery_bound(g, table, log, float(a), float(b)))
                for rep in reports:
                    assert rep.recoveries * g.degree_bound >= \
                        rep.theta_cut_max - rep.theta_cut_start
                trajectories += 1
        assert trajectories == 1000

        # complete-graph fixtures: the stated sizes sit below the b >= 1
        # gate, which must fire cleanly with a partial audit...
        for n in (12, 14, 16):
            g = generate("complete", (n,))
            table = CompleteGraphResistance(g)
            log = _extinct_log(g, 4 * n, 700 + n, 0)
            witness = scan_halving_window(g, table, log)
            assert witness.case_tag == NOT_APPLICABLE
            assert witness.b < 1
            assert witness.partial_audit is not None
        # ...and a hand-built extinct complete-graph trajectory large
        # enough for b = 1 exercises the full witness path
        g = generate("complete", (32,))
        table = CompleteGraphResistance(g)
        events = tuple(Event(float(i + 1), RECOVERY, 31 - i) for i in range(32))
        log = event_log(g.all_nodes(), events, Bag())
        witness = scan_halving_window(g, table, log)
        assert witness.case_tag == CASE2
        assert witness.b == 1
        assert witness.recoveries == 1
        assert witness.min_cut_on_interval >= witness.cut_threshold == 64
        assert witness.infections <= g.node_count + witness.b


def test_07_simulator_calibration():
    with criterion("07 simulator calibration"):
        from erl.graph import Graph
        one = Graph(1, [])
        cfg = EpidemicConfig(graph=one, initial_infected=Bag([0]), budget=2,
                             seed=7001)
        pol = builtin_policy("max_cut_drop")
        k = 100_000
        total = 0.0
        totsq = 0.0
        for j in range(k):
            tau = simulate(cfg, pol, replication=j).extinction_time
            total += tau
            totsq += tau * tau
        mean = total / k
        se = 0.5 / math.sqrt(k)     # exponential(2): sd = 1/2
        assert abs(mean - 0.5) <= 3 * se, f"mean {mean}"
        var = totsq / k - mean * mean
        se_var = math.sqrt(8) * 0.25 / math.sqrt(k)  # 4th-moment formula
        assert abs(var - 0.25) <= 3 * se_var, f"variance {var}"

        two = Graph(2, [])
        cfg2 = EpidemicConfig(graph=two, initial_infected=Bag([0, 1]),
                              budget=1, seed=7002)
        k2 = 30_000
        mean2 = sum(simulate(cfg2, pol, replication=j).extinction_time
                    for j in range(k2)) / k2
        se2 = math.sqrt(2) / math.sqrt(k2)   # sum of two exp(1): var = 2
        assert abs(mean2 - 2.0) <= 3 * se2, f"mean {mean2}"

        # hazard bookkeeping: each run is the one drawn by a loop that
        # recounts the cut and asks the policy at every event
        g = generate("random_regular", (12, 3), seed=12)
        cfg3 = EpidemicConfig(graph=g, initial_infected=g.all_nodes(),
                              budget=Fraction(8), seed=7003)
        for j in range(20):
            res = simulate(cfg3, pol, replication=j)
            assert res.extinct
            assert res == reference_simulate(cfg3, pol, j)


def test_08_phase_transition():
    with criterion("08 phase transition"):
        # slow regime: complete family at a quarter-unit budget per node.
        # E[tau] here is ~74, ~366, ~2365 (exact birth-death values), so the
        # exponential blow-up is measurable; larger complete graphs at this
        # budget have expected extinction times beyond any feasible horizon.
        slow = extinction_sweep({
            "family": "complete", "sizes": [4, 5, 6],
            "budget": {"per_node": 0.25}, "policy": "max_cut_drop",
            "replications": 1000, "seed": 8801})
        for rec in slow:
            assert rec.error is None
            assert rec.censored <= rec.replications * 0.10
            ci = 2 * rec.stderr
            print(f"  slow n={rec.n} mean={rec.mean_tau:.1f} +- {ci:.1f} "
                  f"censored={rec.censored}")
        for prev, cur in zip(slow, slow[1:]):
            assert cur.growth_ratio >= 1.5, cur
        # the simulator mean must sit on the exact birth-death value
        for rec in slow:
            expected = complete_extinction_mean(rec.n, rec.r)
            assert abs(rec.mean_tau - expected) <= 3 * rec.stderr, \
                (rec.mean_tau, expected)

        # fast regime: line family with a fixed budget of 4
        fast = extinction_sweep({
            "family": "line", "sizes": [8, 16, 32], "budget": 4,
            "policy": "max_cut_drop", "replications": 1000, "seed": 8802})
        per_node = []
        for rec in fast:
            assert rec.error is None
            assert rec.censored == 0
            per_node.append(rec.mean_tau / rec.n)
            print(f"  fast n={rec.n} mean={rec.mean_tau:.2f} "
                  f"+- {2 * rec.stderr:.2f}")
        assert max(per_node) / min(per_node) < 2.0, per_node


def test_09_poisson_tail_bound():
    with criterion("09 poisson tail bound"):
        grid = [0.25, 0.5, 1.0, 2.0, 4.0]
        for lam in grid:
            for lp in grid:
                eps = poisson_ld_exponent(lam, lp)
                assert (eps == 0.0) == (lam == lp)
                assert eps >= 0.0
        emp, bound = poisson_tail_probability(1, 2, 20, samples=10**6, seed=91)
        assert emp <= bound, (emp, bound)
        emp, bound = poisson_tail_probability(2, 1, 20, samples=10**6, seed=92)
        assert emp <= bound, (emp, bound)


def test_10_slow_regime_constants():
    with criterion("10 slow-regime constants"):
        c = slow_regime_constants(1, 2)
        assert c.c_r == Fraction(1, 160)
        assert c.t_bar == Fraction(12)
        for cg in (0.25, 0.5, 1, 2):
            for delta in (2, 3, 4, 8):
                k = slow_regime_constants(cg, delta)
                assert k.c_r < k.c_gamma ** 2 / (40 * delta)
                assert k.c_r * k.t_bar < k.c_gamma / (5 * delta)
                assert (k.c_gamma / 4) * k.t_bar > 2
