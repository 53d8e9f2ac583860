import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import erl.analysis
from erl import (CASE1, CASE2, NOT_APPLICABLE, Bag, CompleteGraphResistance,
                 EpidemicConfig, ErlError, EventLog, Graph, LemmaViolationError,
                 Policy, PolicyViolationError, RECOVERY, ResistanceTable,
                 audit_bottleneck, audit_recovery_bound, bottleneck_sequence,
                 builtin_policy, complete_extinction_mean, cut_table,
                 exact_extinction_times, extinction_sweep, generate,
                 iter_bottleneck, poisson_ld_exponent,
                 poisson_tail_probability, replay, resistance_table,
                 scan_halving_window, simulate, slow_regime_constants,
                 sweep_to_csv, verify_table_invariants)
from erl.analysis import CheckResult, make_policy, mean_and_stderr
from erl.epidemic import Event, _extinction_times
from erl.graph import cut_sequence

from conftest import ZOO, random_bounded_graph, rng_for
from test_epidemic import GOLDEN_RUNS, golden_config


class TestPoissonExponent:
    def test_zero_iff_equal(self):
        grid = [0.25, 0.5, 1.0, 2.0, 5.0]
        for lam in grid:
            for lp in grid:
                eps = poisson_ld_exponent(lam, lp)
                if lam == lp:
                    assert eps == 0.0
                else:
                    assert eps > 0.0

    def test_known_values(self):
        assert math.isclose(poisson_ld_exponent(1, 2), 2 * math.log(2) - 1)
        assert math.isclose(poisson_ld_exponent(2, 1), math.log(0.5) + 1)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            poisson_ld_exponent(0, 1)
        with pytest.raises(ValueError):
            poisson_ld_exponent(1, -2)

    def test_continuity_near_diagonal(self):
        base = poisson_ld_exponent(1.0, 1.0)
        assert poisson_ld_exponent(1.0, 1.0 + 1e-9) < 1e-12
        assert base == 0.0

    def test_tail_bounds_hold(self):
        emp, bound = poisson_tail_probability(1, 2, 20, samples=200_000, seed=4)
        assert emp <= bound
        emp, bound = poisson_tail_probability(2, 1, 20, samples=200_000, seed=5)
        assert emp <= bound


class TestSlowRegimeConstants:
    def test_hand_check(self):
        c = slow_regime_constants(1, 2)
        assert c.c_r == Fraction(1, 160)
        assert c.t_bar == 12
        assert c.c_r * c.t_bar == Fraction(12, 160) < Fraction(1, 10)
        assert Fraction(1, 4) * c.t_bar == 3 > 2

    def test_second_example(self):
        c = slow_regime_constants(2, 4)
        assert c.c_r == Fraction(1, 80)
        assert c.t_bar == 6

    def test_grid_always_satisfies_inequalities(self):
        for cg in (0.25, 0.5, 1, 2):
            for delta in (2, 3, 4, 8):
                if cg > delta:
                    continue
                c = slow_regime_constants(cg, delta)
                assert c.c_r < c.c_gamma ** 2 / (40 * delta)
                assert c.c_r * c.t_bar < c.c_gamma / (5 * delta)
                assert (c.c_gamma / 4) * c.t_bar > 2

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            slow_regime_constants(0, 2)
        with pytest.raises(ValueError):
            slow_regime_constants(3, 2)  # above the degree bound
        with pytest.raises(ValueError):
            slow_regime_constants(1, 0)

    def test_derived_thresholds(self):
        c = slow_regime_constants(1, 2)
        assert c.recovery_target(80) == 80 // 8 - 1
        assert c.cut_threshold(10) == 3


class TestInvariantSuite:
    def test_zoo_graphs_clean(self, zoo_graph):
        t = resistance_table(zoo_graph)
        report = verify_table_invariants(zoo_graph, t, mode="exhaustive")
        assert report.ok, report.violations()

    def test_sampled_mode_clean(self):
        g = generate("random_regular", (12, 3), seed=17)
        t = resistance_table(g)
        report = verify_table_invariants(g, t, mode="sampled", samples=20000)
        assert report.ok

    def test_dense_graph_sampled_clean(self):
        # degree bound times pair distance reaches 16 * 17 here, past uint8
        g = generate("complete", (17,))
        report = verify_table_invariants(g, resistance_table(g), mode="sampled",
                                         samples=20000)
        assert report.ok, report.violations()

    def test_lowered_entry_detected_with_witness(self):
        g = generate("random_regular", (8, 3), seed=19)
        t = resistance_table(g)
        values = t.values.copy()
        values[200] -= 1
        report = verify_table_invariants(g, ResistanceTable(g, values, 1))
        assert not report.ok
        failing = {name for name, c in report.checks.items() if not c.ok}
        assert "fixed_point" in failing or "resistance_monotone" in failing
        assert report.violations()

    def test_raised_full_set_detected(self):
        g = generate("cycle", (6,))
        t = resistance_table(g)
        values = t.values.copy()
        values[-1] += 1
        report = verify_table_invariants(g, ResistanceTable(g, values, 1))
        assert not report.ok
        assert not report.checks["fixed_point"].ok

    def test_size_mismatch_rejected(self):
        g = generate("line", (4,))
        other = resistance_table(generate("line", (5,)))
        with pytest.raises(ErlError):
            verify_table_invariants(g, other)

    def test_graph_mismatch_rejected(self):
        g = generate("line", (4,))
        other = resistance_table(generate("cycle", (4,)))
        with pytest.raises(ErlError):
            verify_table_invariants(g, other)

    def test_bad_mode(self):
        g = generate("line", (3,))
        with pytest.raises(ErlError):
            verify_table_invariants(g, resistance_table(g), mode="quick")

    def test_negative_samples_rejected_before_any_work(self, monkeypatch):
        g = generate("random_regular", (12, 3), seed=17)
        t = resistance_table(g)

        def no_work(*args):
            raise AssertionError("the audit started")

        monkeypatch.setattr(erl.analysis, "check_bellman", no_work)
        monkeypatch.setattr(erl.analysis, "cut_table", no_work)
        for mode in ("exhaustive", "sampled"):
            with pytest.raises(ErlError, match="samples"):
                verify_table_invariants(g, t, mode=mode, samples=-5)

    def test_report_json(self):
        g = generate("line", (4,))
        report = verify_table_invariants(g, resistance_table(g))
        doc = report.to_json_dict()
        assert doc["ok"] is True
        assert set(doc["checks"]) == {
            "cut_lipschitz", "resistance_smooth", "resistance_monotone",
            "cut_submodular", "cut_at_drop", "below_cutwidth", "fixed_point"}


# (case id, n, mode, edited table, edit, edited entries).  Graphs are
# random_regular:n,4 with graph seed n; edits hit entries picked by
# rng_for(100 + n).  An integer edit sets the picked entries to that value:
# just past the range of a narrower signed dtype, uint16's largest, or a
# negative one (an int64 table) that widens the differences, so a work
# dtype that cannot hold every value and difference exactly fails.
GOLDEN_CASES = [
    ("clean_n12", 12, "sampled", None, None, 0),
    ("clean_n14", 14, "sampled", None, None, 0),
    ("gamma_raise_n8_exh", 8, "exhaustive", "gamma", "raise", 6),
    ("gamma_raise_n9_exh", 9, "exhaustive", "gamma", "raise", 6),
    ("gamma_lower_n9_smp", 9, "sampled", "gamma", "lower", 6),
    ("gamma_lower_n10_exh", 10, "exhaustive", "gamma", "lower", 40),
    ("gamma_raise_n10_smp", 10, "sampled", "gamma", "raise", 1),
    ("gamma_raise_n11_exh", 11, "exhaustive", "gamma", "raise", 40),
    ("gamma_lower_n11_smp", 11, "sampled", "gamma", "lower", 3),
    ("gamma_lower_n12_exh", 12, "exhaustive", "gamma", "lower", 2),
    ("gamma_raise_n12_smp", 12, "sampled", "gamma", "raise", 40),
    ("cut_raise_n8_exh", 8, "exhaustive", "cut", "raise", 3),
    ("cut_raise_n9_exh", 9, "exhaustive", "cut", "raise", 1),
    ("cut_lower_n9_smp", 9, "sampled", "cut", "lower", 64),
    ("cut_lower_n10_exh", 10, "exhaustive", "cut", "lower", 2),
    ("cut_raise_n11_smp", 11, "sampled", "cut", "raise", 64),
    ("cut_lower_n12_exh", 12, "exhaustive", "cut", "lower", 64),
    ("cut_raise_n12_smp", 12, "sampled", "cut", "raise", 2),
    ("gamma_128_n8_exh", 8, "exhaustive", "gamma", 128, 4),
    ("gamma_128_n10_smp", 10, "sampled", "gamma", 128, 3),
    ("gamma_32768_n11_smp", 11, "sampled", "gamma", 32768, 3),
    ("gamma_65535_n12_smp", 12, "sampled", "gamma", 65535, 3),
    ("cut_128_n9_exh", 9, "exhaustive", "cut", 128, 2),
    ("cut_128_n10_smp", 10, "sampled", "cut", 128, 3),
    ("gamma_neg125_n10_smp", 10, "sampled", "gamma", -125, 3),
    ("cut_neg125_n10_smp", 10, "sampled", "cut", -125, 3),
]

# SHA-256 of json.dumps(report.to_json_dict(), sort_keys=True), recorded
# with the mask-gather implementation of the single-step checks; the
# integer-edit cases were recorded with int32 work arrays.
GOLDEN_DIGESTS = {
    "clean_n12": "18dc80312a2d4aef0273fdd733126493cafdbdc38958ac8ef68fc84c8403345b",
    "clean_n14": "51856550c027050b5c0c69b33691667f362bbc787b4e1578ffb5fa708b16c37d",
    "gamma_raise_n8_exh": "21d22cec807d2c938443d046a0a004df6a673d86935ccc32acf760af7906767c",
    "gamma_raise_n9_exh": "0fdb491fa935ff1fbc333365ae31ed522266e32e8c088f4baef7c89e9d794efa",
    "gamma_lower_n9_smp": "3cdf8aaf1bf2e25856f7e97c2ab8c7e16336117a54d0a72b57cec632f8297751",
    "gamma_lower_n10_exh": "5fbbedfea6e43d18b6d0cafae295bb17bf6dd97755f8e00e59528ff5bfe4bb1a",
    "gamma_raise_n10_smp": "86d4c5da55357e75f2275bbb8284eac493bb231aa3a526fc102c81c0562b3729",
    "gamma_raise_n11_exh": "7a57071042944086d90aae03e2b56a66ede225a0f2123dbb797448430f62afa8",
    "gamma_lower_n11_smp": "24a246b14804eb849baf989b9f48430d27e388b5a861e9defd48a49706019a2f",
    "gamma_lower_n12_exh": "f138e9a20e22a0bbf6113d7b105ec03b9c4bde4b4f4cb9df4b931f578f5ce41b",
    "gamma_raise_n12_smp": "2eedff9af3f93717936a55c66d891de7b764aed6352ebcf49edd82bd3428dda0",
    "cut_raise_n8_exh": "494ca00b721ae8a447bba539668b53ae9aa862f2cf1218e0056de0a46c9024e6",
    "cut_raise_n9_exh": "4757fedeb1a3e24472f4f8c8244951d3b4ccabf17b1adae524c7de5a9d4059bd",
    "cut_lower_n9_smp": "1e27ac97d412d8f3f4075c4519fe92c44796625553d4b1db05c8bea95eea9313",
    "cut_lower_n10_exh": "897e3d6f46782163de5a400c7bce39a1cd8b6d34067b64106199ecc79613deff",
    "cut_raise_n11_smp": "005c4bb1e97da6faf7e747ff85e67c5ed59fdb60d7fe333a7e2ba996ef20b265",
    "cut_lower_n12_exh": "db2dd86a77b7a6aba8d86f52407f22128aef2a08544c8c2011998f231f289456",
    "cut_raise_n12_smp": "b93460eb3f6ff765ba47832bd3356ffdb65da20ecd97e218dca7bb79433c8a41",
    "gamma_128_n8_exh": "52c1df3a950181879b7a7cf9ccfc7488b8e0b65d0bbf3354ab84f431f4e3e551",
    "gamma_128_n10_smp": "3f8410227d79153412cc87d1eabcd759f20558e7b5a6651d329e6d0f23039393",
    "gamma_32768_n11_smp": "e1c30d03b03f7968d5d96e30f5fdf098e895683078e683d6b76b9ea5764466bc",
    "gamma_65535_n12_smp": "ca3ec2f0cfeb173cd2760aa744a33dd560eb91b84238b78f09a7d78fb5040ace",
    "cut_128_n9_exh": "f4d20ebbb5e1e82ab7e549b615cc5f0e89e398041749b00bec5c2f11129bf8aa",
    "cut_128_n10_smp": "d39215d667a26e8c8c0f7fc9bb5550dba9893b707000b5e14b4f3d8432f1331a",
    "gamma_neg125_n10_smp": "85e3de037dbb0baebf3528baffa8d8489e6e46bc490e6b3be5b6bb411d728f44",
    "cut_neg125_n10_smp": "65cef13103cba09d54f1a11113335f7b4d8181da7e2b01b8a467e4b8ce18b269",
}


def _edit(values: np.ndarray, n: int, how: str | int, count: int,
          step: int) -> np.ndarray:
    picked = rng_for(100 + n).choice(1 << n, size=count, replace=False)
    out = values.astype(np.int64)
    if how == "raise":
        out[picked] += step
    elif how == "lower":
        out[picked] = 0
    else:
        out[picked] = how
    # a negative entry keeps the int64 copy, as in a hand-built signed table
    return out.astype(values.dtype) if out.min() >= 0 else out


def golden_report(case, monkeypatch):
    _, n, mode, target, how, count = case
    g = generate("random_regular", (n, 4), seed=n)
    table = resistance_table(g)
    if target == "gamma":
        table = ResistanceTable(g, _edit(table.values, n, how, count, 2), 1)
    elif target == "cut":
        bad_cuts = _edit(cut_table(g), n, how, count, 2 * g.degree_bound + 1)
        monkeypatch.setattr(erl.analysis, "cut_table", lambda _g: bad_cuts.copy())
    return verify_table_invariants(g, table, mode=mode, samples=4000, seed=n)


class TestInvariantGolden:
    @pytest.mark.parametrize("case", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
    def test_report_digest(self, case, monkeypatch):
        doc = golden_report(case, monkeypatch).to_json_dict()
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == GOLDEN_DIGESTS[case[0]]

    def test_cases_exercise_every_witness_path(self, monkeypatch):
        failing: dict[str, list[int]] = {}
        for case in GOLDEN_CASES:
            with monkeypatch.context() as mp:
                report = golden_report(case, mp)
            if case[3] is None:
                assert report.ok, report.violations()
            for name, c in report.checks.items():
                if not c.ok:
                    failing.setdefault(name, []).append(len(c.violations))
        for name in ("cut_lipschitz", "cut_submodular", "cut_at_drop",
                     "resistance_smooth", "resistance_monotone"):
            assert name in failing, name
        # some case hits the witness limit on each single-step cut check,
        # and some case reports fewer witnesses than the limit
        for name in ("cut_lipschitz", "cut_submodular", "cut_at_drop"):
            assert max(failing[name]) == 5, (name, failing[name])
        assert min(min(v) for v in failing.values()) < 5


def literal_submodular(cuts, n: int) -> CheckResult:
    """Oracle: the single-step submodularity check, one ordered pair (v, u)
    and one bag A holding v but not u at a time, in that order and in mask
    order: cut(A - v) - cut(A) <= cut(B - v) - cut(B) for B = A + u."""
    cuts = [int(c) for c in cuts]
    viols = []
    checked = 0
    for v in range(n):
        for u in range(n):
            if u == v:
                continue
            for a in range(1 << n):
                if not a >> v & 1 or a >> u & 1:
                    continue
                checked += 1
                b = a | 1 << u
                drop = 1 << v
                if (cuts[a & ~drop] - cuts[a] > cuts[b & ~drop] - cuts[b]
                        and len(viols) < erl.analysis._MAX_WITNESSES):
                    viols.append({"bag": a, "superset": b, "node": v})
    return CheckResult(checked, "single_steps", viols)


class TestSubmodularOracle:
    """The pair-once submodularity check against the literal one, on random
    faulty cut tables: entries overwritten with values up to uint16's
    largest, so both the condition's symmetry and the work dtype matter."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_literal_check(self, n, monkeypatch):
        rng = rng_for(300 + n)
        lengths = []
        for trial in range(4):
            g = random_bounded_graph(n, 4, rng)
            table = resistance_table(g)
            cuts = cut_table(g)
            picked = rng.choice(1 << n, size=int(rng.integers(1, n + 1)),
                                replace=False)
            top = (2 * g.degree_bound + 1, 127, 300, 65535)[trial]
            cuts[picked] = rng.integers(0, top, size=len(picked), endpoint=True)
            monkeypatch.setattr(erl.analysis, "cut_table",
                                lambda _g: cuts.copy())
            report = verify_table_invariants(g, table, mode="sampled",
                                             samples=10, seed=n)
            want = literal_submodular(cuts, n)
            assert report.checks["cut_submodular"] == want
            lengths.append(len(want.violations))
        assert max(lengths) > 0


def k32_monotone_log() -> tuple:
    g = generate("complete", (32,))
    events = tuple(Event(float(i + 1), RECOVERY, 31 - i) for i in range(32))
    return g, CompleteGraphResistance(g), EventLog(g.all_nodes(), events, Bag())


def simulated_extinct_log(kind, params, budget, seed):
    g = generate(kind, params, seed=seed)
    cfg = EpidemicConfig(graph=g, initial_infected=g.all_nodes(),
                         budget=Fraction(budget), seed=seed, max_events=10**6)
    res = simulate(cfg, builtin_policy("max_cut_drop"))
    assert res.extinct
    return g, res.log


class TestCutSequence:
    def test_matches_cut_table(self):
        g, log = simulated_extinct_log("random_regular", (10, 3), 8, 9)
        table = cut_table(g)
        states = [bag.mask for _, bag in replay(log, g)]
        theta = [bag.mask for bag in iter_bottleneck(
            Bag.from_mask(m) for m in states)]
        assert len(set(theta)) < len(theta)    # holds repeated masks
        jumps = [int(m) for m in rng_for(78).integers(0, 1 << 10, size=200)]
        for masks in (states, theta, jumps):
            assert cut_sequence(g, masks) == [int(table[m]) for m in masks]


class TestRecoveryBoundAudit:
    def test_simulated_full_segments(self):
        for kind, params, budget, seed in [
            ("line", (9,), 4, 1),
            ("cycle", (8,), 5, 2),
            ("random_regular", (10, 3), 8, 3),
            ("complete", (8,), 20, 4),
        ]:
            g, log = simulated_extinct_log(kind, params, budget, seed)
            table = resistance_table(g)
            rep = audit_recovery_bound(g, table, log, 0.0, log.events[-1].time)
            assert rep.recoveries * g.degree_bound >= \
                rep.theta_cut_max - rep.theta_cut_start

    def test_random_subsegments(self):
        g, log = simulated_extinct_log("random_regular", (10, 3), 8, 9)
        table = resistance_table(g)
        rng = rng_for(77)
        end = log.events[-1].time
        for _ in range(25):
            a, b = sorted(rng.uniform(0, end, size=2))
            audit_recovery_bound(g, table, log, float(a), float(b))

    def test_zero_recovery_segment_has_flat_theta(self):
        g = generate("line", (6,))
        # infections only: 0 infected grows rightward
        events = tuple(Event(float(i), "INFECTION", i) for i in range(1, 6))
        log = EventLog(Bag([0]), events, g.all_nodes())
        table = resistance_table(g)
        rep = audit_recovery_bound(g, table, log, 0.0, 5.0)
        assert rep.recoveries == 0
        assert rep.theta_cut_max == rep.theta_cut_start

    def test_crossing_checked_on_k32(self):
        g, table, log = k32_monotone_log()
        rep = audit_recovery_bound(g, table, log, 0.0, 32.0)
        assert rep.recoveries == 32
        assert rep.crossing_index is not None
        assert rep.crossing_cut >= rep.crossing_gamma_before > 128

    def test_lying_table_raises(self):
        g, _, log = k32_monotone_log()

        class InflatedTable(CompleteGraphResistance):
            # claims a colossal resistance for every nonempty bag, so the
            # crossing-step cut can never cover the pre-crossing value
            def gamma(self, bag):
                mask = bag.mask if isinstance(bag, Bag) else int(bag)
                return 0 if mask == 0 else 10**6

        with pytest.raises(LemmaViolationError):
            audit_recovery_bound(g, InflatedTable(g), log, 0.0, 32.0)

    def test_bad_interval(self):
        g, table, log = k32_monotone_log()
        with pytest.raises(ErlError):
            audit_recovery_bound(g, table, log, 5.0, 1.0)

    @pytest.mark.parametrize("t_from,t_to", [
        (0.0, math.nan), (math.nan, 10.0), (math.nan, math.nan),
        (-1.0, 1.0), (math.inf, 1.0)])
    def test_nan_and_unordered_bounds_rejected(self, t_from, t_to):
        g, log = simulated_extinct_log("line", (5,), 4, 5)
        with pytest.raises(ErlError, match="t_from"):
            audit_recovery_bound(g, resistance_table(g), log, t_from, t_to)

    def test_infinite_end_is_the_whole_log(self):
        g, log = simulated_extinct_log("line", (5,), 4, 5)
        table = resistance_table(g)
        whole = audit_recovery_bound(g, table, log, 0.0, log.events[-1].time)
        assert audit_recovery_bound(g, table, log, 0.0, math.inf) == whole
        assert whole.recoveries == log.recovery_count()


class TestHalvingWindow:
    def test_k32_full_witness(self):
        g, table, log = k32_monotone_log()
        w = scan_halving_window(g, table, log)
        assert w.case_tag == CASE2
        assert w.gamma_initial == 256
        assert w.b == 1
        assert w.cut_threshold == 64
        assert w.recoveries == w.b
        assert w.min_cut_on_interval >= w.cut_threshold
        assert w.infections <= g.node_count + w.b
        assert 0 <= w.t_prime <= w.t_double_prime <= w.T
        assert w.T_prime == w.t_prime

    def test_small_gamma_not_applicable_with_partial_audit(self):
        for n in (12, 14, 16):
            g, log = simulated_extinct_log("complete", (n,), 4 * n, n)
            table = CompleteGraphResistance(g)
            w = scan_halving_window(g, table, log)
            assert w.case_tag == NOT_APPLICABLE
            assert w.b < 1
            assert w.partial_audit is not None
            assert w.partial_audit.recoveries >= g.node_count  # cured everyone

    def test_requires_extinct_log(self):
        g = generate("line", (4,))
        log = EventLog(Bag([0]), (), Bag([0]))
        with pytest.raises(ErlError):
            scan_halving_window(g, resistance_table(g), log)

    def test_case1_on_crafted_log(self):
        # start from a half set (cut 256 = gamma) and cure monotonically:
        # the cut stays above the threshold all the way to the halving
        g = generate("complete", (32,))
        table = CompleteGraphResistance(g)
        start = Bag(range(16))
        events = tuple(Event(float(i + 1), RECOVERY, 15 - i) for i in range(16))
        log = EventLog(start, events, Bag())
        w = scan_halving_window(g, table, log)
        assert w.case_tag == CASE1
        assert w.t_prime == 0.0
        assert w.recoveries == w.b

    def test_simulated_large_complete_graph_witnesses(self):
        # n = 34 clears the b >= 1 gate (gamma = 289, 4*delta = 132) and a
        # budget above the peak cut makes extinction quick, so the full
        # witness machinery runs on genuinely stochastic trajectories
        g = generate("complete", (34,))
        table = CompleteGraphResistance(g)
        assert table.cutwidth == 289
        pol = builtin_policy("max_cut_drop")
        cfg = EpidemicConfig(graph=g, initial_infected=g.all_nodes(),
                             budget=Fraction(320), seed=4040,
                             max_events=10**5)
        for j in range(25):
            res = simulate(cfg, pol, replication=j)
            assert res.extinct
            w = scan_halving_window(g, table, res.log)
            assert w.case_tag in (CASE1, CASE2)
            assert w.b == 1
            assert w.recoveries == 1
            assert w.min_cut_on_interval >= w.cut_threshold
            assert w.infections <= g.node_count + w.b
            audit_recovery_bound(g, table, res.log, 0.0,
                                 res.log.events[-1].time)

    def test_lying_table_raises(self):
        g, _, log = k32_monotone_log()

        class DropNeverTable(CompleteGraphResistance):
            # resistance "never halves" until the empty bag, then the cut
            # at the final step cannot cover it
            def gamma(self, bag):
                mask = bag.mask if isinstance(bag, Bag) else int(bag)
                return 0 if mask == 0 else 256

        with pytest.raises(LemmaViolationError):
            scan_halving_window(g, DropNeverTable(g), log)


# Trajectories whose audit reports are pinned: the event-log golden runs,
# two random_regular:16,3 graphs (budget 8, all extinct) and complete:34,
# whose resistance (289) is large enough for a full halving witness.
AUDIT_POLICIES = ("max_cut_drop", "resistance_greedy", "degree_proportional",
                  "uniform", "random_node")


def audit_config(spec: str) -> tuple:
    if spec in GOLDEN_RUNS:
        cfg = golden_config(spec)
        return cfg, resistance_table(cfg.graph)
    if spec == "complete:34":
        g = generate("complete", (34,))
        cfg = EpidemicConfig(graph=g, initial_infected=g.all_nodes(),
                             budget=Fraction(320), seed=4040, max_events=10**5)
        return cfg, CompleteGraphResistance(g)
    seed = int(spec.split("@")[1])
    g = generate("random_regular", (16, 3), seed=seed)
    cfg = EpidemicConfig(graph=g, initial_infected=g.all_nodes(),
                         budget=Fraction(8), seed=1600 + seed, max_events=10**5)
    return cfg, resistance_table(g)


def _outcome(call):
    try:
        out = call()
    except ErlError as exc:
        return [type(exc).__name__, str(exc)]
    return repr(out) if not hasattr(out, "to_json_dict") else out.to_json_dict()


def audit_reports(spec: str, kind: str) -> list:
    """Every audit of replications 0-2 of ``kind`` on ``spec``: the
    bottleneck audit of the trajectory and of the trajectory read
    backwards, and three wrong bottleneck sequences for it (the trajectory
    itself, the true one a step early, and the true one at double speed);
    the recovery bound on the whole log and on its middle third; and the
    halving window."""
    cfg, table = audit_config(spec)
    g = cfg.graph
    pol = builtin_policy(kind, table=table) if kind == "resistance_greedy" \
        else builtin_policy(kind)
    docs = []
    for j in range(3):
        log = simulate(cfg, pol, replication=j).log
        bags = [bag for _, bag in replay(log, g)]
        theta = bottleneck_sequence(bags).bags
        early = theta[1:] + theta[-1:]
        double = [theta[min(2 * i, len(theta) - 1)] for i in range(len(theta))]
        end = log.events[-1].time
        docs.append({
            "bottleneck": _outcome(lambda: audit_bottleneck(g, bags)),
            "backwards": _outcome(lambda: audit_bottleneck(g, bags[::-1])),
            "self_theta": _outcome(
                lambda: audit_bottleneck(g, bags, theta=bags)),
            "early_theta": _outcome(
                lambda: audit_bottleneck(g, bags, theta=early)),
            "double_theta": _outcome(
                lambda: audit_bottleneck(g, bags, theta=double)),
            "recovery": _outcome(
                lambda: audit_recovery_bound(g, table, log, 0.0, end)),
            "recovery_mid": _outcome(lambda: audit_recovery_bound(
                g, table, log, end / 3, 2 * end / 3)),
            "halving": _outcome(lambda: scan_halving_window(g, table, log)),
        })
    return docs


# SHA-256 of json.dumps(audit_reports(spec, kind), sort_keys=True), recorded
# with the Bag-based audits that replayed the log once per audit.
AUDIT_DIGESTS = {
    ("complete:6", "max_cut_drop"):
        "3e7443e6a6e45579afcca76f03e449aec1b6a05ca89c41de4ae1c2bbe5b51f78",
    ("complete:6", "resistance_greedy"):
        "3e7443e6a6e45579afcca76f03e449aec1b6a05ca89c41de4ae1c2bbe5b51f78",
    ("complete:6", "degree_proportional"):
        "c423d1392bf88320e4060993c54e4cedf516de74dd4b9775db8b0a7cf46c908e",
    ("complete:6", "uniform"):
        "c423d1392bf88320e4060993c54e4cedf516de74dd4b9775db8b0a7cf46c908e",
    ("complete:6", "random_node"):
        "fb2ff72875b49258e2a031e894fbd36f6fa868e7af9ec5c46d99264a5f6c6b1a",
    ("random_regular:10,3", "max_cut_drop"):
        "7315c73c43a7f98bcff159125cd438c6985e1356ee81f403e92ecfad61fc87ea",
    ("random_regular:10,3", "resistance_greedy"):
        "7315c73c43a7f98bcff159125cd438c6985e1356ee81f403e92ecfad61fc87ea",
    ("random_regular:10,3", "degree_proportional"):
        "c6c22dbf7dc84b4dd1f46f40fef2bce6034046fd7d940df202f27ee5b7a74e53",
    ("random_regular:10,3", "uniform"):
        "c6c22dbf7dc84b4dd1f46f40fef2bce6034046fd7d940df202f27ee5b7a74e53",
    ("random_regular:10,3", "random_node"):
        "8388a66358caf75fd9439f3d5121818540dba75848aa0d2f0c64d9b7decdb604",
    ("random_regular:16,3@16", "max_cut_drop"):
        "9858e1be2dde42a9fdf1f4a76ffee76af8609e3d8114f70c1089985e976d4a9f",
    ("random_regular:16,3@16", "resistance_greedy"):
        "9858e1be2dde42a9fdf1f4a76ffee76af8609e3d8114f70c1089985e976d4a9f",
    ("random_regular:16,3@16", "degree_proportional"):
        "1f107fa0f6c8ded53396bae004ea398b83670cd42959eb72b820780ed476465b",
    ("random_regular:16,3@16", "uniform"):
        "1f107fa0f6c8ded53396bae004ea398b83670cd42959eb72b820780ed476465b",
    ("random_regular:16,3@16", "random_node"):
        "ad3518aeba6e73865a1d212276efe99bfbddd849f40bbb05088aff4568bab43e",
    ("random_regular:16,3@17", "max_cut_drop"):
        "2dcd90db35c897a372839027eb6c5716c54e4f92d15df8be9922bde9caf3b77a",
    ("random_regular:16,3@17", "resistance_greedy"):
        "2dcd90db35c897a372839027eb6c5716c54e4f92d15df8be9922bde9caf3b77a",
    ("random_regular:16,3@17", "degree_proportional"):
        "ca07a1b77d8348911d31c6d4b548f5ffca1bdc8bd09a776344e7eb50bf282ed4",
    ("random_regular:16,3@17", "uniform"):
        "ca07a1b77d8348911d31c6d4b548f5ffca1bdc8bd09a776344e7eb50bf282ed4",
    ("random_regular:16,3@17", "random_node"):
        "24f21479a4524ef5eafae57f45f8e7cc0979e91aea3bf92c78d6de368a55bc36",
    ("complete:34", "max_cut_drop"):
        "d5607355e7ed85c62e915a0ddcd3c90a095573ed9aa71d525822257683f0ccbb",
    ("complete:34", "resistance_greedy"):
        "d5607355e7ed85c62e915a0ddcd3c90a095573ed9aa71d525822257683f0ccbb",
    ("complete:34", "degree_proportional"):
        "8413aec2dbf77ab9b51984d25d3fd50e7903b72d6473b945de177b47d041be57",
    ("complete:34", "uniform"):
        "8413aec2dbf77ab9b51984d25d3fd50e7903b72d6473b945de177b47d041be57",
    ("complete:34", "random_node"):
        "79ad418de9a489f756fb488b19478deb89b44a6906644b0934b20f1232b201bd",
}


class TestAuditGolden:
    @pytest.mark.parametrize("spec,kind", sorted(AUDIT_DIGESTS))
    def test_report_digest(self, spec, kind):
        doc = json.dumps(audit_reports(spec, kind), sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest() == \
            AUDIT_DIGESTS[spec, kind]


class TestForeignTables:
    """Both trajectory audits read the table only after checking that it
    belongs to the log's graph."""

    @pytest.mark.parametrize("audit", ["recovery", "halving"])
    @pytest.mark.parametrize("table_of", [
        lambda: resistance_table(generate("line", (4,))),
        lambda: resistance_table(generate("complete", (5,))),
        lambda: CompleteGraphResistance(generate("complete", (5,))),
    ], ids=["line4", "complete5", "complete5_closed_form"])
    def test_rejected(self, audit, table_of):
        g, log = simulated_extinct_log("line", (5,), 4, 5)
        table = table_of()
        with pytest.raises(ErlError, match="table") as exc:
            if audit == "recovery":
                audit_recovery_bound(g, table, log, 0.0, log.events[-1].time)
            else:
                scan_halving_window(g, table, log)
        assert not isinstance(exc.value, LemmaViolationError)

    def test_own_closed_form_accepted(self):
        g, table, log = k32_monotone_log()
        table.require_graph(g)
        table.require_graph(generate("complete", (32,)))
        with pytest.raises(ErlError):
            table.require_graph(generate("complete", (31,)))


class TestReplayOnce:
    """Each audit call checks and replays its log once, as masks."""

    def count(self, monkeypatch):
        """Record every trajectory built and every bag made from a mask."""
        calls = []
        bags = []
        trajectory = erl.epidemic._trajectory
        from_mask = Bag.from_mask

        def counted(log, g):
            calls.append(log)
            return trajectory(log, g)

        def counted_from_mask(cls, mask):
            bags.append(mask)
            return from_mask(mask)

        monkeypatch.setattr(erl.epidemic, "_trajectory", counted)
        monkeypatch.setattr(erl.analysis, "_trajectory", counted)
        monkeypatch.setattr(Bag, "from_mask", classmethod(counted_from_mask))
        return calls, bags

    @pytest.mark.parametrize("spec", ["random_regular:16,3@16", "complete:34"])
    def test_halving_window_replays_once(self, spec, monkeypatch):
        cfg, table = audit_config(spec)
        log = simulate(cfg, builtin_policy("uniform")).log
        calls, bags = self.count(monkeypatch)
        w = scan_halving_window(cfg.graph, table, log)
        # b < 1 on the 16-node graph, so its partial audit runs too
        assert (w.case_tag == NOT_APPLICABLE) == (spec != "complete:34")
        assert (w.partial_audit is None) == (spec == "complete:34")
        assert calls == [log]
        assert bags == []

    def test_recovery_bound_replays_once(self, monkeypatch):
        cfg, table = audit_config("random_regular:16,3@17")
        log = simulate(cfg, builtin_policy("degree_proportional")).log
        calls, bags = self.count(monkeypatch)
        audit_recovery_bound(cfg.graph, table, log, 0.0, math.inf)
        assert calls == [log]
        assert bags == []

    def test_validate_log_replays_once(self, monkeypatch):
        cfg, _ = audit_config("random_regular:16,3@17")
        log = simulate(cfg, builtin_policy("uniform")).log
        assert len(log.events) > 100
        calls, bags = self.count(monkeypatch)
        erl.epidemic.validate_log(log, cfg.graph)
        assert calls == [log]
        assert bags == []


class TestCompleteExtinctionOracle:
    def test_closed_form_recurrence(self):
        # n = 2, r = 1: h_2 = 1, h_1 = (1 + 1*1)/1 = 2, total 3
        assert math.isclose(complete_extinction_mean(2, 1), 3.0)

    def test_single_node_is_exponential_mean(self):
        assert math.isclose(complete_extinction_mean(1, 2), 0.5)

    def test_simulator_agrees_on_k5(self):
        n, r = 5, 1.25
        g = generate("complete", (n,))
        cfg = EpidemicConfig(graph=g, initial_infected=g.all_nodes(),
                             budget=Fraction(5, 4), seed=101)
        pol = builtin_policy("max_cut_drop")
        k = 1500
        taus = [simulate(cfg, pol, replication=j).extinction_time
                for j in range(k)]
        mean = sum(taus) / k
        sd = math.sqrt(sum((x - mean) ** 2 for x in taus) / (k - 1))
        expected = complete_extinction_mean(n, r)
        assert abs(mean - expected) <= 3 * sd / math.sqrt(k)

    def test_rejects_zero_budget(self):
        with pytest.raises(ErlError):
            complete_extinction_mean(4, 0)


SMALL_ZOO = [(name, make) for name, make in ZOO if make().node_count <= 8]
DETERMINISTIC = ["max_cut_drop", "resistance_greedy", "degree_proportional",
                 "uniform"]


def full_start(g, budget, seed):
    return EpidemicConfig(graph=g, initial_infected=g.all_nodes(),
                          budget=budget, seed=seed)


def engine_mean(cfg, policy, reps):
    """Mean and standard error of the sweep engine's extinction times."""
    outcomes = _extinction_times(cfg, policy, range(reps))
    assert all(reason is None for _, reason in outcomes)
    return mean_and_stderr([tau for tau, _ in outcomes])


class TestExactChain:
    def test_two_isolated_nodes_by_hand(self):
        # one node cured at rate 1 at a time: 1 + 1 from the full bag
        h = exact_extinction_times(Graph(2, []), builtin_policy("max_cut_drop"),
                                   1)
        assert h.tolist() == [0.0, 1.0, 1.0, 2.0]

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("per_node", [Fraction(1, 4), Fraction(1), 2])
    def test_complete_graph_closed_form(self, n, per_node):
        g = generate("complete", (n,))
        r = per_node * n
        h = exact_extinction_times(g, builtin_policy("max_cut_drop"), r)
        assert math.isclose(h[-1], complete_extinction_mean(n, r),
                            rel_tol=1e-9)

    def test_rates_scale_time(self):
        g = generate("grid", (2, 3))
        pol = builtin_policy("degree_proportional")
        h = exact_extinction_times(g, pol, 3)
        scaled = exact_extinction_times(g, pol, Fraction(15, 2), 2.5)
        np.testing.assert_allclose(scaled * 2.5, h, rtol=1e-12)

    def test_cap_named(self):
        with pytest.raises(ErlError, match="12"):
            exact_extinction_times(Graph(13, []), builtin_policy("uniform"), 1)

    def test_drawing_policy_refused(self):
        with pytest.raises(ErlError, match="drew"):
            exact_extinction_times(generate("line", (3,)),
                                   builtin_policy("random_node"), 1)

    def test_unreachable_extinction_refused(self):
        with pytest.raises(ErlError, match="cannot be reached from bag 0x1"):
            exact_extinction_times(generate("line", (3,)),
                                   builtin_policy("uniform"), 0)

    def test_unreachable_from_one_bag_refused(self):
        class SparesNodeTwo(Policy):
            name = "spares_node_two"

            def allocate(self, graph, infected, budget, rng):
                low = infected & 0b011
                return {low.bit_length() - 1: budget} if low else {}

        with pytest.raises(ErlError, match="cannot be reached from bag 0x4"):
            exact_extinction_times(Graph(3, []), SparesNodeTwo(), 1)

    def test_allocation_validated(self):
        class Overspends(Policy):
            name = "overspends"

            def allocate(self, graph, infected, budget, rng):
                return {(infected & -infected).bit_length() - 1: 2 * budget}

        with pytest.raises(PolicyViolationError):
            exact_extinction_times(generate("line", (3,)), Overspends(), 1)

    @pytest.mark.parametrize("kind", DETERMINISTIC)
    @pytest.mark.parametrize("make", [m for _, m in SMALL_ZOO],
                             ids=[name for name, _ in SMALL_ZOO])
    def test_engine_mean_on_exact_value(self, make, kind):
        g = make()
        budget = Fraction(2 * g.degree_bound + 2)
        policy = make_policy(kind, g)
        exact = exact_extinction_times(g, policy, budget)[-1]
        mean, se = engine_mean(full_start(g, budget, 1207), policy, 2000)
        assert abs(mean - exact) <= 4 * se, (mean, exact, se)

    @pytest.mark.parametrize("spec", [("star", (3,)), ("cycle", (6,)),
                                      ("grid", (2, 3)), ("hypercube", (3,))],
                             ids=["star3", "cycle6", "grid2x3", "hypercube3"])
    def test_random_node_has_the_uniform_law(self, spec):
        g = generate(*spec)
        budget = Fraction(2 * g.degree_bound + 2)
        exact = exact_extinction_times(g, builtin_policy("uniform"),
                                       budget)[-1]
        mean, se = engine_mean(full_start(g, budget, 1208),
                               builtin_policy("random_node"), 2000)
        assert abs(mean - exact) <= 4 * se, (mean, exact, se)

    def test_simulate_mean_on_exact_value(self):
        g = generate("grid", (2, 3))
        budget = Fraction(2 * g.degree_bound + 2)
        policy = builtin_policy("degree_proportional")
        exact = exact_extinction_times(g, policy, budget)[-1]
        cfg = full_start(g, budget, 1209)
        mean, se = mean_and_stderr([simulate(cfg, policy, replication=j)
                                    .extinction_time for j in range(2000)])
        assert abs(mean - exact) <= 4 * se, (mean, exact, se)


class TestSweep:
    BASE = {"family": "line", "sizes": [4, 6], "budget": 3,
            "policy": "max_cut_drop", "replications": 40, "seed": 5}

    def test_zero_replications_vacuous(self):
        spec = dict(self.BASE, replications=0)
        assert extinction_sweep(spec) == []

    def test_deterministic(self):
        a = extinction_sweep(self.BASE)
        b = extinction_sweep(self.BASE)
        assert [(r.mean_tau, r.stderr, r.seed) for r in a] == \
            [(r.mean_tau, r.stderr, r.seed) for r in b]

    def test_growth_ratio_column(self):
        recs = extinction_sweep(self.BASE)
        assert recs[0].growth_ratio is None
        assert math.isclose(recs[1].growth_ratio,
                            recs[1].mean_tau / recs[0].mean_tau)

    def test_threads_do_not_change_results(self):
        serial = extinction_sweep(self.BASE, threads=1)
        parallel = extinction_sweep(self.BASE, threads=2)
        assert [(r.mean_tau, r.stderr, r.censored) for r in serial] == \
            [(r.mean_tau, r.stderr, r.censored) for r in parallel]

    def test_budget_per_node(self):
        spec = dict(self.BASE, budget={"per_node": 0.5}, sizes=[4])
        recs = extinction_sweep(spec)
        assert recs[0].r == 2.0

    def test_capacity_error_surfaces_and_sweep_continues(self):
        spec = dict(self.BASE, policy="resistance_greedy", sizes=[4, 25, 6],
                    replications=5)
        recs = extinction_sweep(spec)
        assert len(recs) == 3
        assert recs[0].error is None
        assert recs[1].error is not None and "capped" in recs[1].error
        assert recs[2].error is None

    def test_censoring_reported_not_folded(self):
        spec = {"family": "complete", "sizes": [8], "budget": 2,
                "policy": "max_cut_drop", "replications": 6, "seed": 3,
                "horizon": 0.5}
        recs = extinction_sweep(spec)
        assert recs[0].censored > 0
        assert recs[0].censored + (0 if recs[0].mean_tau is None else 1) >= 1
        if recs[0].censored == 6:
            assert recs[0].mean_tau is None
        assert recs[0].lower_bound == (recs[0].censored * 2 > 6)

    def test_schema_rejects_missing_field(self):
        spec = dict(self.BASE)
        del spec["budget"]
        with pytest.raises(ErlError) as exc:
            extinction_sweep(spec)
        assert "budget" in str(exc.value)

    def test_schema_rejects_bad_family(self):
        with pytest.raises(ErlError) as exc:
            extinction_sweep(dict(self.BASE, family="moebius"))
        assert "family" in str(exc.value)

    def test_schema_rejects_wrong_type(self):
        with pytest.raises(ErlError) as exc:
            extinction_sweep(dict(self.BASE, replications="many"))
        assert "replications" in str(exc.value)

    def test_random_regular_needs_degree(self):
        with pytest.raises(ErlError) as exc:
            extinction_sweep(dict(self.BASE, family="random_regular"))
        assert "degree" in str(exc.value)

    def test_csv_columns(self):
        recs = extinction_sweep(dict(self.BASE, sizes=[4], replications=5))
        text = sweep_to_csv(recs)
        header = text.splitlines()[0]
        assert header == ("family,n,r,policy,replications,mean_tau,stderr,"
                          "censored,growth_ratio,seed")
        assert len(text.splitlines()) == 2
