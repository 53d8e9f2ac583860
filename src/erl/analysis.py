"""Mechanical verification of the theory on tables and trajectories, plus
large-deviations utilities and extinction-time sweep experiments.

Every check here either holds for all valid inputs (so a failure flags an
implementation bug, raised as LemmaViolationError) or is reported with
explicit witnesses.  All integer inequalities are checked exactly; no
tolerances.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import partial
from itertools import repeat
from numbers import Number, Real
from operator import index
from sys import float_info

import numpy as np

from .epidemic import (_POLICY_KINDS, EpidemicConfig, EventLog, Policy,
                       _curing_table, _extinction_times, _StreamWatch,
                       _trajectory, _weight_rule, builtin_policy, derive_seed)
from .errors import CapacityError, ErlError, LemmaViolationError
from .graph import (SHORT_ROW_BYTES, Graph, _is_int, _narrow_cut_table,
                    _stream, cuts_along, generate, halves, rowwise,
                    transposed)
from .resistance import ResistanceTable, check_bellman, resistance_table


# ---------------------------------------------------------------------------
# Poisson tail utilities

def poisson_ld_exponent(lam: float, lam_prime: float) -> float:
    """Chernoff exponent for Poisson tail deviations.

    For X Poisson with mean lam*n, P(X >= lam_prime*n) (upper tail,
    lam_prime > lam) and P(X <= lam_prime*n) (lower tail, lam_prime < lam)
    are both bounded by exp(-eps*n) with eps = l'*ln(l'/l) - l' + l.
    Positive iff the arguments differ.
    """
    # written so that NaN fails the test
    if not (0 < lam < math.inf and 0 < lam_prime < math.inf):
        raise ErlError("poisson_ld_exponent needs positive finite rates, "
                       f"got lam={lam!r}, lam_prime={lam_prime!r}")
    return lam_prime * math.log(lam_prime / lam) - lam_prime + lam


# numpy's largest Poisson mean: the int64 maximum less ten of its square
# roots, as numpy.random computes it
POISSON_MEAN_MAX = float(np.iinfo(np.int64).max
                         - 10 * math.sqrt(np.iinfo(np.int64).max))


def poisson_tail_probability(lam: float, lam_prime: float, n: int,
                             samples: int = 10**6, seed: int = 0) -> tuple[float, float]:
    """Monte Carlo tail estimate next to its Chernoff bound.

    Returns (empirical tail, exp(-eps*n)); the tail direction follows the
    sign of lam_prime - lam.
    """
    if not _is_int(samples) or samples < 1:
        raise ErlError(f"samples must be an int of at least 1, got {samples!r}")
    if not _is_int(n) or n < 0:
        raise ErlError(f"n must be a nonnegative int, got {n!r}")
    # written so that NaN fails the test
    if not (lam > 0 and lam_prime > 0):
        raise ErlError("poisson_tail_probability needs positive rates, "
                       f"got lam={lam!r}, lam_prime={lam_prime!r}")
    if not (lam < math.inf and lam_prime < math.inf):
        raise ErlError("poisson_tail_probability needs finite rates, "
                       f"got lam={lam!r}, lam_prime={lam_prime!r}")
    if n > POISSON_MEAN_MAX or lam * n > POISSON_MEAN_MAX:
        raise ErlError(f"n and lam * n must be at most {POISSON_MEAN_MAX!r}, "
                       "the largest Poisson mean numpy draws; "
                       f"got lam={lam!r}, n={n}")
    rng = _stream(seed)
    x = rng.poisson(lam * n, size=samples)
    if lam_prime >= lam:
        emp = float(np.mean(x >= lam_prime * n))
    else:
        emp = float(np.mean(x <= lam_prime * n))
    bound = math.exp(-poisson_ld_exponent(lam, lam_prime) * n)
    return emp, bound


# ---------------------------------------------------------------------------
# Constants for the slow-extinction regime

@dataclass(frozen=True)
class SlowRegimeConstants:
    """Budget and interval-length constants for the slow-extinction bound.

    c_r is the per-node budget coefficient and t_bar the audit interval
    length; both are exact rationals chosen so that, per node, recoveries in
    an interval of length t_bar undershoot the recovery target while
    infections overshoot it whenever the cut stays above the threshold.
    """

    c_gamma: Fraction
    delta: int
    c_r: Fraction
    t_bar: Fraction

    def recovery_target(self, n: int) -> int:
        """Recovery count b demanded of a witness interval at size n."""
        return math.floor(self.c_gamma * n / (4 * self.delta)) - 1

    def cut_threshold(self, n: int) -> int:
        return math.ceil(self.c_gamma * n / 4)


def slow_regime_constants(c_gamma, delta: int) -> SlowRegimeConstants:
    """Derive (c_r, t_bar) from the resistance growth rate and degree bound.

    Chooses c_r = c_gamma^2/(80*delta) and t_bar = 12/c_gamma, then asserts
    the three inequalities the choice must satisfy:
    c_r < c_gamma^2/(40*delta), c_r*t_bar < c_gamma/(5*delta), and
    (c_gamma/4)*t_bar > 2.  Exact rational arithmetic throughout.
    """
    if not _is_int(delta) or delta < 1:
        raise ErlError(f"delta must be a positive int, got {delta!r}")
    # written so that NaN fails the test
    if not (isinstance(c_gamma, Real) and 0 < c_gamma <= delta):
        raise ErlError(f"c_gamma must lie in (0, delta], got {c_gamma!r}")
    cg = Fraction(c_gamma)
    c_r = cg * cg / (80 * delta)
    t_bar = Fraction(12) / cg
    if not c_r < cg * cg / (40 * delta):
        raise ErlError("budget coefficient bound failed (implementation bug)")
    if not c_r * t_bar < cg / (5 * delta):
        raise ErlError("recovery undershoot inequality failed (implementation bug)")
    if not (cg / 4) * t_bar > 2:
        raise ErlError("infection overshoot inequality failed (implementation bug)")
    return SlowRegimeConstants(cg, delta, c_r, t_bar)


# ---------------------------------------------------------------------------
# Table invariant suite

@dataclass
class CheckResult:
    checked: int
    strategy: str
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class InvariantReport:
    node_count: int
    mode: str
    checks: dict[str, CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks.values())

    def violations(self) -> list:
        out = []
        for name, c in self.checks.items():
            out += [{"check": name, **v} for v in c.violations]
        return out

    def to_json_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}


_MAX_WITNESSES = 5
_NO_HITS = np.empty(0, dtype=np.int64)
_STEP_CHECKS = ("cut_lipschitz", "resistance_smooth", "resistance_monotone",
                "cut_at_drop")


def _collect(viols: list, bad_masks, detail) -> None:
    for m in bad_masks[:_MAX_WITNESSES - len(viols)]:
        viols.append({"bag": int(m), **detail(int(m))})


def _hits(cond: np.ndarray, order: list[int]) -> np.ndarray:
    """The first reportable bags of a flattened condition over an array
    whose index bit p holds node ``order[p]``, as masks in mask order.

    One with no hit, the usual case, costs one ``any``.  Otherwise every
    hit is mapped back and sorted: index order is mask order only when
    ``order`` ascends.
    """
    if not cond.any():
        return _NO_HITS
    idx = np.flatnonzero(cond)
    masks = np.zeros(idx.size, dtype=np.int64)
    for p, v in enumerate(order):
        masks |= (idx >> p & 1) << v
    masks.sort()
    return masks[:_MAX_WITNESSES]


class _Steps:
    """The single-node steps of the invariant audit, one node at a time.

    ``node`` makes node v's three passes over the ``halves`` of a cut
    table and a resistance table laid out by ``order`` (node ``order[p]``
    at index bit p), each for the bags A holding v: dc = cut(A - v) -
    cut(A), dg = gamma(A - v) - gamma(A) and cut(A - v) - gamma(A).  Every
    check reads them from half-size buffers: the Lipschitz checks |dc| and
    |dg|, monotonicity dg, cut-at-drop max(cut(A - v) - gamma(A), dg) and
    submodularity the squares of dc.  It keeps each check's first bags
    per node, and per node pair for submodularity, as masks.
    """

    def __init__(self, n: int, delta: int, work: np.dtype):
        half = (1 << n) >> 1
        self.delta = delta
        self.dc = np.empty(half, dtype=work)
        self.dg = np.empty(half, dtype=work)
        self.cond = np.empty(half >> 1, dtype=bool)     # a square's compare
        self.hits = {name: [_NO_HITS] * n for name in _STEP_CHECKS}
        # (v, u), v < u -> first bags S without either node for which
        # cut(S) + cut(S + u + v) > cut(S + u) + cut(S + v)
        self.squares: dict[tuple[int, int], np.ndarray] = {}

    def node(self, v: int, order: list[int], cut: np.ndarray,
             gam: np.ndarray, partners, lift: int = 0) -> None:
        """Node v's steps, and its squares with each node of ``partners``
        on dc; with ``lift``, also its squares with nodes 0..lift-1, on a
        transposed copy of dc that puts their bits on top (``order`` must
        then hold them at bits 0..lift-1)."""
        p = order.index(v)
        rest = order[:p] + order[p + 1:]        # the halves' layout
        c_out, c_in = halves(cut, p)
        g_out, g_in = halves(gam, p)
        dc, dg, hits = self.dc, self.dg, self.hits
        rowwise(np.subtract, c_out, c_in, out=dc.reshape(c_out.shape))
        for u in partners:
            self._square(dc, rest, v, u)
        if lift:
            lifted = transposed(dc, lift)
            lifted_order = rest[lift:] + rest[:lift]
            for u in rest[:lift]:
                self._square(lifted, lifted_order, v, u)
        # each condition is tested on the extremes of its difference
        # first, and built only when they allow a hit
        delta = self.delta
        if dc.min() < -delta or dc.max() > delta:
            hits["cut_lipschitz"][v] = _hits(np.abs(dc) > delta, rest)
        rowwise(np.subtract, g_out, g_in, out=dg.reshape(c_out.shape))
        g_lo, g_hi = dg.min(), dg.max()
        if g_hi > 0:
            hits["resistance_monotone"][v] = _hits(dg > 0, rest)
        if g_lo < -delta or g_hi > delta:
            hits["resistance_smooth"][v] = _hits(np.abs(dg) > delta, rest)
        rowwise(np.subtract, c_out, g_in, out=dc.reshape(c_out.shape))
        np.maximum(dc, dg, out=dc)
        if dc.min() < 0:
            hits["cut_at_drop"][v] = _hits(dc < 0, rest)

    def _square(self, d: np.ndarray, order: list[int], v: int,
                u: int) -> None:
        """Squares of v and u from d, v's or u's cut difference laid out
        by ``order``: the violation d(S) > d(S + u) is symmetric in u and
        v, so one quarter-size compare serves both orders."""
        w = order.index(u)
        d_out, d_in = halves(d, w)
        cond = rowwise(np.greater, d_out, d_in,
                       out=self.cond.reshape(d_out.shape))
        self.squares[min(u, v), max(u, v)] = _hits(cond,
                                                   order[:w] + order[w + 1:])


def _first_pairs(bad: np.ndarray, **pairs: np.ndarray) -> list[dict]:
    """The first bad entries of pair arrays, in their order, as witnesses
    keyed as ``pairs`` is."""
    return [{key: int(p[i]) for key, p in pairs.items()}
            for i in np.flatnonzero(bad)[:_MAX_WITNESSES]]


def _pair_checks(cut_t: np.ndarray, gam: np.ndarray, delta: int,
                 all_pairs: bool, all_subsets: bool, rng,
                 samples: int) -> tuple[dict, dict]:
    """The invariant checks on bag pairs beyond single-node steps, on the
    mask-ordered tables.  Each check is one violation expression over pair
    arrays: every pair in enumeration order when its branch covers the
    whole lattice, reported as a ``CheckResult``, and otherwise its random
    pairs, drawn in check order, whose bad bags are returned.  Its arrays
    are freed on return, before the steps' buffers exist."""
    size = len(cut_t)
    whole: dict[str, CheckResult] = {}
    sampled: dict[str, np.ndarray] = {}

    # |f(A) - f(B)| <= delta * |A xor B| for f in {cut, resistance}; every
    # pair runs B ascending, then A ascending
    if all_pairs:
        b, a = np.divmod(np.arange(size * size), size)
    for name, vals in (("cut_lipschitz", cut_t), ("resistance_smooth", gam)):
        if not all_pairs:
            a = rng.integers(0, size, samples)
            b = rng.integers(0, size, samples)
        dist = np.bitwise_count(a ^ b).astype(np.int64)
        bad = np.abs(vals[a] - vals[b]) > delta * dist
        if all_pairs:
            whole[name] = CheckResult(bad.size, "all_pairs",
                                      _first_pairs(bad, bag=a, other=b))
        else:
            sampled[name] = a[bad]

    # resistance is monotone under set inclusion; every subset pair runs B
    # ascending, then A descending through the subsets of B
    if all_subsets:
        masks = np.arange(size, dtype=np.uint16)
        sup, sub = np.divmod(
            np.flatnonzero((masks[::-1] & ~masks[:, None]) == 0), size)
        sub = size - 1 - sub
    else:
        sup = rng.integers(0, size, samples)
        sub = sup & rng.integers(0, size, samples)
    bad = gam[sub] > gam[sup]
    if all_subsets:
        whole["resistance_monotone"] = CheckResult(
            bad.size, "all_subset_pairs", _first_pairs(bad, bag=sub,
                                                       superset=sup))
    else:
        sampled["resistance_monotone"] = sub[bad]

    # cut submodularity: dropping v hurts a small bag at most as much as a
    # containing one: cut(A-v) - cut(A) <= cut(B-v) - cut(B) for A <= B;
    # every triple runs through the subset pairs above, then v ascending
    if all_pairs:
        n = size.bit_length() - 1
        pair, v = np.divmod(np.flatnonzero(sub[:, None] >> np.arange(n) & 1),
                            n)
        s, bm, drop = sub[pair], sup[pair], ~(1 << v)
        bad = cut_t[s & drop] - cut_t[s] > cut_t[bm & drop] - cut_t[bm]
        whole["cut_submodular"] = CheckResult(
            bad.size, "all_subset_pairs", _first_pairs(bad, bag=s, superset=bm,
                                                       node=v))
    return whole, sampled


# Nodes below TRANSPOSE_NODES are audited on transposed copies of the
# tables; see ``verify_table_invariants`` for the timings that chose it.
TRANSPOSE_NODES = 6

# Most random pairs ``verify_table_invariants`` draws.  Its arrays take
# about 43 bytes per pair (traced on random_regular:16,3 at 10^6 and
# 2 * 10^6 pairs), so about 0.43 GB at the cap.
SAMPLE_CAP = 10**7


def verify_table_invariants(g: Graph, table: ResistanceTable,
                            mode: str = "exhaustive", samples: int = 100_000,
                            seed: int = 0) -> InvariantReport:
    """Run the full invariant suite for cuts and resistances.

    Exhaustive mode checks all bag pairs when n <= 8 and all subset pairs
    for monotonicity when n <= 10; above that, and throughout sampled mode,
    the pair checks run over all single-node steps plus ``samples`` random
    pairs, at most ``SAMPLE_CAP``.  The fixed-point and cut-at-drop checks
    are always complete.

    Each pair check is one array pass (``_pair_checks``): its violation
    expression over pair arrays, which hold either every pair in
    enumeration order or the random pairs.  The exhaustive pairs come from
    mask grids: every (B, A) for the Lipschitz checks; B's subsets A for
    monotonicity, read from a 2^n x 2^n subset test (uint16 masks and
    their booleans, 3 MB at n = 10, the largest grid); and those pairs
    times A's members for submodularity.  Witnesses are the first bad
    pairs in that order, so reports match a literal enumeration.

    Single-node steps run one node at a time (``_Steps``).  Three passes
    over the ``graph.halves`` views of the two tables give node v's cut
    difference, its resistance difference and cut(A - v) - gamma(A), and
    every check reads those: both Lipschitz checks, monotonicity and
    cut-at-drop test the extremes of a difference first and build a
    condition only when they allow a hit.  Submodularity compares the cut
    difference of v with itself one node u further: for a bag S without
    u and v, the violation dv(S) > dv(S+u) reads cut(S) + cut(S+u+v) >
    cut(S+u) + cut(S+v).  That is symmetric in u and v, so one
    quarter-size compare per pair, n(n-1)/2 in all, serves the checks
    (v, u) and (u, v).

    A node's half-views have rows of 2^v entries, and numpy pays per row
    (``graph.rowwise``).  So nodes K = TRANSPOSE_NODES and up run first,
    on the mask-ordered int8 tables, which are then replaced, one at a
    time, by copies transposed by ``graph.transposed``: node v < K sits
    at bit n - K + v there and node u >= K at bit u - K, so the low
    nodes' passes run on long rows.  A square of a low node with a node
    u >= K is compared on the low node's transposed difference, unless
    u's bit gives rows of at most ``SHORT_ROW_BYTES`` there; then it is
    compared on a transposed copy of u's difference, which puts the low
    nodes on top.  For n <= K nothing is copied.  Witnesses are mapped
    back to masks and sorted only for a condition with a hit, so reports
    match a literal enumeration of the bags.  Milliseconds for the
    sampled audit (10^5 pairs) on random_regular:n,3 (seed 1) at each K,
    the best of three lower quartiles of 21 calls, on 2 cores of a
    shared VM with numpy 2.4 (K = 0 copies nothing):

        n     K=0    K=4    K=5    K=6    K=7    K=8
        16    6.0    5.9    5.8    5.8    5.8    5.8
        18    9.2    8.6    8.4    8.4    8.6    9.0
        20   27.0   24.2   22.7   23.1   23.9   25.4

    K = 5 and 6 are within 2% at every n; 6 is the first width whose rows
    reach 64 bytes on int8.  The check-at-a-time oracle in
    ``tests/reference_invariants.py`` takes 6.7, 10.8 and 32.3 ms.

    Values are compared in the narrowest signed dtype that holds every
    cut, every table entry, the degree bound and every difference of two
    of them exactly: int8 for any valid table up to n = 22, wider only for
    tables with larger entries.  The mask grids exist only in the n <= 8
    and n <= 10 exhaustive branches, which run with the random pairs on
    the mask-ordered tables before the steps.
    """
    if mode not in ("exhaustive", "sampled"):
        raise ErlError(f"unknown mode {mode!r}")
    if not _is_int(samples) or not 0 <= samples <= SAMPLE_CAP:
        raise ErlError(f"samples must be an int in 0..{SAMPLE_CAP}, "
                       f"got {samples!r}")
    rng = _stream(seed)
    table.require_graph(g)
    # computed before the work arrays below exist, so its own arrays do
    # not stack on theirs; reported last
    bc = check_bellman(g, table)
    n = g.node_count
    size = 1 << n
    delta = g.degree_bound
    cut_t = _narrow_cut_table(g)
    # values in [lo, hi] differ by at most hi - lo, which the signed dtype
    # holding lo - hi - 1 also holds
    lo = min(0, int(cut_t.min()), int(table.values.min()))
    hi = max(delta, int(cut_t.max()), int(table.values.max()))
    work = np.min_scalar_type(lo - hi - 1)
    cut_t = cut_t.astype(work)
    gam = table.values.astype(work)
    all_pairs = mode == "exhaustive" and n <= 8
    all_subsets = mode == "exhaustive" and n <= 10
    whole, sampled = _pair_checks(cut_t, gam, delta, all_pairs, all_subsets,
                                  rng, samples)

    # no bag is harder than the full set
    viols = []
    _collect(viols, np.nonzero(gam > gam[-1])[0],
             lambda m: {"cutwidth": int(gam[-1])})
    below = CheckResult(size, "all_bags", viols)

    low = TRANSPOSE_NODES if n > TRANSPOSE_NODES else 0
    steps = _Steps(n, delta, work)
    order = list(range(n))
    for v in range(low, n):
        # v's squares with the low nodes go on a transposed copy of its
        # cut difference when v's bit would give short rows after the
        # tables are transposed
        short = (1 << (v - low)) * work.itemsize <= SHORT_ROW_BYTES
        steps.node(v, order, cut_t, gam, range(v + 1, n), low if short else 0)
    if low:
        cut_t = transposed(cut_t, low)
        gam = transposed(gam, low)
        order = order[low:] + order[:low]
        for v in range(low):
            steps.node(v, order, cut_t, gam,
                       [u for u in range(v + 1, n)
                        if (v, u) not in steps.squares])

    checks: dict[str, CheckResult] = {}
    for name in ("cut_lipschitz", "resistance_smooth"):
        viols = []
        for v, bags in enumerate(steps.hits[name]):
            # both bags of a bad step are witnesses, in mask order
            _collect(viols, np.sort(np.concatenate([bags, bags | 1 << v])),
                     lambda m, v=v: {"other": m ^ (1 << v)})
        _collect(viols, sampled.get(name, _NO_HITS), lambda m: {})
        checks[name] = CheckResult(n * size + samples,
                                   "single_steps+sampled_pairs", viols)

    viols = []
    for v, bags in enumerate(steps.hits["resistance_monotone"]):
        _collect(viols, bags | 1 << v,
                 lambda m, v=v: {"bag": m & ~(1 << v), "superset": m})
    _collect(viols, sampled.get("resistance_monotone", _NO_HITS),
             lambda m: {})
    checks["resistance_monotone"] = CheckResult(
        n * size + samples, "single_steps+sampled_pairs", viols)

    # pair (v, u) reports its squares' bags holding v, in mask order
    viols = []
    for v in range(n):
        for u in range(n):
            if u != v:
                bags = steps.squares[min(u, v), max(u, v)] | 1 << v
                _collect(viols, bags,
                         lambda m, u=u, v=v: {"superset": m | (1 << u),
                                              "node": v})
    checks["cut_submodular"] = CheckResult(n * (n - 1) * (size >> 2),
                                           "single_steps", viols)

    # whenever removing a node lowers the resistance, the cut it leaves
    # behind is at least the resistance it left; a witness has
    # gamma(A - v) < gamma(A) and cut(A - v) < gamma(A)
    viols = []
    for v, bags in enumerate(steps.hits["cut_at_drop"]):
        _collect(viols, bags | 1 << v, lambda m, v=v: {"node": v})
    checks["cut_at_drop"] = CheckResult(n * (size >> 1), "all_bag_node_pairs",
                                        viols)
    checks["below_cutwidth"] = below

    # the table is a fixed point of the bottleneck recursion
    viols = [] if bc.passed else [{"bag": bc.witness_mask, "table": bc.lhs,
                                   "operator": bc.rhs}]
    checks["fixed_point"] = CheckResult(size, "all_bags", viols)
    # the enumerated checks' reports replace the steps' in place
    checks.update(whole)
    return InvariantReport(n, mode, checks)


# ---------------------------------------------------------------------------
# Trajectory audits

@dataclass(frozen=True)
class RecoveryBoundReport:
    """Successful audit of one trajectory segment."""

    recoveries: int
    infections: int
    theta_cut_start: int
    theta_cut_max: int
    degree_bound: int
    crossing_index: int | None
    crossing_cut: int | None
    crossing_gamma_before: int | None

    def to_json_dict(self) -> dict:
        return asdict(self)


def audit_recovery_bound(g: Graph, table, log: EventLog,
                         t_from: float, t_to: float) -> RecoveryBoundReport:
    """Audit the recovery-count lower bound on a trajectory segment.

    Builds the bottleneck (running intersection) sequence over the segment
    and asserts, exactly in integers, that the number of recovery events is
    at least (max cut of the bottleneck bags - its starting cut) divided by
    the degree bound.  When the bottleneck resistance crosses half the
    initial resistance inside the segment, also asserts that the crossing
    cut is at least the pre-crossing resistance.  Violations raise
    LemmaViolationError; they indicate a simulator or table bug.

    The segment needs 0 <= t_from <= t_to (t_to may be infinite; a NaN
    bound is rejected) and a table that belongs to ``g``; either failing
    raises ErlError.  The log is checked and replayed once, into a mask
    array (``mask_array``).
    """
    if not 0 <= t_from <= t_to:
        raise ErlError("need 0 <= t_from <= t_to")
    table.require_graph(g)
    times, masks = _trajectory(log, g)
    return _recovery_audit(g, table, times, masks, t_from, t_to)


def _recovery_audit(g: Graph, table, times: tuple[float, ...],
                    masks: np.ndarray, t_from: float,
                    t_to: float) -> RecoveryBoundReport:
    """:func:`audit_recovery_bound` on a trajectory already checked by
    ``_trajectory``: numpy passes over the segment's mask array."""
    # states after the events at or before each bound; times increase
    # strictly, so the segment's states are one slice
    first = bisect_right(times, t_from) - 1
    last = bisect_right(times, t_to) - 1
    seg = masks[first:last + 1]
    theta = np.bitwise_and.accumulate(seg)
    theta_cuts = cuts_along(g, theta)
    gam = table._gammas(theta)

    half = int(table._gammas(masks[:1])[0]) // 2
    crossing_index = crossing_cut = crossing_gamma_before = None
    crossed = np.flatnonzero((gam[1:] <= half) & (gam[:-1] > half))
    if crossed.size:
        i = int(crossed[0]) + 1
        crossing_index = i
        crossing_cut = int(theta_cuts[i])
        crossing_gamma_before = int(gam[i - 1])
        if crossing_cut < crossing_gamma_before:
            raise LemmaViolationError(
                f"bottleneck crossing at step {i}: cut {crossing_cut} "
                f"below pre-crossing resistance {crossing_gamma_before}",
                witness={"theta": int(theta[i]), "index": i})

    # a unit step is a recovery exactly when it lowers the mask
    recoveries = int(np.count_nonzero(seg[1:] < seg[:-1]))
    infections = len(seg) - 1 - recoveries
    c0 = int(theta_cuts[0])
    cmax = int(theta_cuts.max())
    if recoveries * g.degree_bound < cmax - c0:
        raise LemmaViolationError(
            f"{recoveries} recoveries cannot explain bottleneck cut growth "
            f"{c0} -> {cmax} with degree bound {g.degree_bound}",
            witness={"segment_start": t_from, "segment_end": t_to})
    return RecoveryBoundReport(recoveries, infections, c0, cmax,
                               g.degree_bound, crossing_index, crossing_cut,
                               crossing_gamma_before)


CASE1 = "CASE1"
CASE2 = "CASE2"
NOT_APPLICABLE = "NOT_APPLICABLE"


@dataclass(frozen=True)
class IntervalWitness:
    """A trajectory interval with sustained high cut and counted recoveries."""

    case_tag: str
    gamma_initial: int
    b: int
    cut_threshold: int
    T: float
    T_prime: float | None
    t_prime: float | None
    t_double_prime: float | None
    recoveries: int | None
    infections: int | None
    min_cut_on_interval: int | None
    partial_audit: RecoveryBoundReport | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)


def scan_halving_window(g: Graph, table, log: EventLog) -> IntervalWitness:
    """Extract the high-cut window preceding the first resistance halving.

    Replays an extinct trajectory, finds the first time T at which the
    resistance of the infected set falls to half its initial value, and
    produces an interval [t', t''] ending at the b-th recovery on which the
    cut never drops below ceil(gamma/4), where b = floor(gamma/(4*delta))-1.
    CASE1 holds when the cut is above threshold throughout [0, T]; CASE2
    starts the window at the last sub-threshold time T'.  When b < 1 the
    full witness is vacuous and a partial audit of [0, tau] is returned
    instead, run on the same replayed trajectory.  Any failed property
    raises LemmaViolationError; a table that does not belong to ``g``, or a
    log that does not end in extinction, raises ErlError.  The log is
    checked and replayed once, into a mask array (``mask_array``).
    """
    table.require_graph(g)
    times, masks = _trajectory(log, g)
    return _halving_scan(g, table, times, masks)


def _halving_scan(g: Graph, table, times: tuple[float, ...],
                  masks: np.ndarray) -> IntervalWitness:
    """:func:`scan_halving_window` on a trajectory already checked by
    ``_trajectory``: numpy passes over its mask array, where event e is a
    recovery exactly when it lowers the mask."""
    if masks[-1] != 0:
        raise ErlError("scan_halving_window needs a log that ends in extinction")
    gam = table._gammas(masks)
    gamma0 = int(gam[0])
    delta = g.degree_bound
    # with no edge every cut and every gamma is 0: the vacuous case
    b = gamma0 // (4 * delta) - 1 if delta else -1
    cut_thr = -(-gamma0 // 4)
    half = gamma0 // 2

    halved = np.flatnonzero(gam <= half)
    if not halved.size:
        raise LemmaViolationError("resistance never halved on an extinct path",
                                  witness={"gamma_initial": gamma0})
    t_idx = int(halved[0])
    T = times[t_idx]

    if b < 1:
        partial = _recovery_audit(g, table, times, masks, 0.0, times[-1])
        return IntervalWitness(NOT_APPLICABLE, gamma0, b, cut_thr, T, None,
                               None, None, None, None, None, partial)

    # every read below is at an index <= t_idx
    cuts = cuts_along(g, masks[:t_idx + 1])
    below = np.flatnonzero(cuts < cut_thr)
    if not below.size:
        case = CASE1
        t_prime_time = 0.0
        T_prime = None
        first_event = 0
    else:
        case = CASE2
        jlast = int(below[-1])
        if jlast == t_idx:
            raise LemmaViolationError(
                "cut below threshold at the halving state",
                witness={"state": int(masks[t_idx])})
        # a resistance drop on a growing set would contradict monotonicity
        if masks[t_idx] & ~masks[t_idx - 1]:
            raise LemmaViolationError(
                "resistance halved on a non-recovery step",
                witness={"state": int(masks[t_idx])})
        gamma_before = int(gam[t_idx - 1])
        if cuts[t_idx] < gamma_before:
            raise LemmaViolationError(
                f"cut {int(cuts[t_idx])} at the halving below pre-halving "
                f"resistance {gamma_before}",
                witness={"state": int(masks[t_idx])})
        T_prime = times[jlast + 1]
        if cuts[jlast + 1] >= cut_thr + delta:
            raise LemmaViolationError(
                "cut jumped past threshold by more than the degree bound",
                witness={"state": int(masks[jlast + 1])})
        t_prime_time = T_prime
        first_event = jlast + 1

    rec_events = first_event + np.flatnonzero(
        masks[first_event + 1:t_idx + 1] < masks[first_event:t_idx])
    if len(rec_events) < b:
        raise LemmaViolationError(
            f"only {len(rec_events)} recoveries before the halving, "
            f"needed {b}", witness={"case": case})
    e_b = int(rec_events[b - 1])
    t_double = times[e_b + 1]
    min_cut = int(cuts[first_event:e_b + 2].min())
    if min_cut < cut_thr:
        raise LemmaViolationError(
            f"cut fell to {min_cut} inside the witness window "
            f"(threshold {cut_thr})", witness={"case": case})
    window = masks[first_event:e_b + 2]
    recoveries = int(np.count_nonzero(window[1:] < window[:-1]))
    infections = len(window) - 1 - recoveries
    if recoveries != b:
        raise LemmaViolationError(
            f"window holds {recoveries} recoveries, expected exactly {b}",
            witness={"case": case})
    if infections > g.node_count + b:
        raise LemmaViolationError(
            f"window holds {infections} infections > n + b "
            f"= {g.node_count + b}", witness={"case": case})
    return IntervalWitness(case, gamma0, b, cut_thr, T, T_prime, t_prime_time,
                           t_double, recoveries, infections, min_cut)


# ---------------------------------------------------------------------------
# Extinction-time sweeps

SWEEP_FAMILIES = ("line", "cycle", "star", "complete", "hypercube",
                  "random_regular")

_SPEC_REQUIRED = ("family", "sizes", "budget", "policy", "replications", "seed")
# the integer fields and their minima; each entry of "sizes" has minimum 1
_SPEC_INTS = {"replications": 0, "seed": 0, "max_events": 1, "degree": 0,
              "graph_seed": 0}
_SPEC_ENUMS = {"family": list(SWEEP_FAMILIES), "policy": list(_POLICY_KINDS)}
_SPEC_FIELDS = {*_SPEC_REQUIRED, *_SPEC_INTS, "horizon"}


@dataclass
class SweepRecord:
    family: str
    n: int
    r: float
    policy: str
    replications: int
    mean_tau: float | None
    stderr: float | None
    censored: int
    growth_ratio: float | None
    seed: int
    lower_bound: bool = False
    error: str | None = None


def _number(x) -> bool:
    """A JSON Schema number: any ``Number`` but a bool."""
    return isinstance(x, Number) and not isinstance(x, bool)


def _int_error(x, minimum: int) -> str | None:
    if not _is_int(x):
        return f"{x!r} is not of type 'integer'"
    return f"{x!r} is less than the minimum of {minimum}" if x < minimum else None


def _spec_error(spec) -> tuple[str, str] | None:
    """The spec's first breach of the sweep schema, by path, as (path,
    message) in jsonschema's words; None if it has none."""
    if not isinstance(spec, dict):
        return "(top level)", f"{spec!r} is not of type 'object'"
    for key in _SPEC_REQUIRED:
        if key not in spec:
            return "(top level)", f"{key!r} is a required property"
    if extras := sorted((k for k in spec if k not in _SPEC_FIELDS), key=str):
        listed = ", ".join(map(repr, extras))
        verb = "was" if len(extras) == 1 else "were"
        return "(top level)", ("Additional properties are not allowed "
                               f"({listed} {verb} unexpected)")
    # "sizes" is the last key by path, and its entries follow it
    for key in sorted(spec.keys() - {"sizes"}):
        x = spec[key]
        if key in _SPEC_INTS:
            error = _int_error(x, _SPEC_INTS[key])
        elif key in _SPEC_ENUMS:
            error = (None if x in _SPEC_ENUMS[key]
                     else f"{x!r} is not one of {_SPEC_ENUMS[key]!r}")
        elif key == "horizon":
            error = (None if x is None or _number(x)
                     else f"{x!r} is not of type 'number', 'null'")
        else:
            # a budget is a number, or an object of the one key "per_node"
            # holding one
            rate = (x["per_node"] if isinstance(x, dict)
                    and x.keys() == {"per_node"} else x)
            error = (None if _number(rate) and not rate < 0 else
                     f"{x!r} is not valid under any of the given schemas")
        if error:
            return key, error
    sizes = spec["sizes"]
    if not isinstance(sizes, list):
        return "sizes", f"{sizes!r} is not of type 'array'"
    return next(((f"sizes/{i}", error) for i, size in enumerate(sizes)
                 if (error := _int_error(size, 1))), None)


def validate_sweep_spec(spec: dict) -> None:
    """Refuse, with ``ErlError``, a sweep spec that README's sweep-spec
    paragraph does not allow, naming the first offending path.

    The schema rules (``_spec_error``) are JSON Schema's, with its messages,
    except that an integer is ``graph._is_int``'s: 4.0 is none.  Then a
    ``random_regular`` spec needs a degree, the budget's rate must be a
    finite float, and a horizon must be null or a positive number, not
    NaN.  Nothing is imported for it.
    """
    if error := _spec_error(spec):
        raise ErlError("sweep spec invalid at %s: %s" % error)
    if spec["family"] == "random_regular" and "degree" not in spec:
        raise ErlError("sweep spec invalid at degree: required for random_regular")
    budget = spec["budget"]
    where, rate = (("budget/per_node", budget["per_node"])
                   if isinstance(budget, dict) else ("budget", budget))
    # json reads NaN and Infinity, which pass "minimum", and integers of any
    # length, which the simulators' float rates cannot hold
    if not rate <= float_info.max:
        raise ErlError(f"sweep spec invalid at {where}: {rate!r} is not a "
                       "finite float")
    horizon = spec.get("horizon")
    # written so that NaN fails the test
    if horizon is not None and not (isinstance(horizon, Real) and horizon > 0):
        raise ErlError(f"sweep spec invalid at horizon: {horizon!r} is not a "
                       "positive number")


def _sweep_graph(family: str, size: int, spec: dict) -> Graph:
    if family == "random_regular":
        return generate(family, (size, spec["degree"]),
                        seed=spec.get("graph_seed", 0))
    return generate(family, (size,))


def _sweep_budget(budget_rule, n: int) -> Fraction:
    if isinstance(budget_rule, dict):
        return Fraction(budget_rule["per_node"]) * n
    return Fraction(budget_rule)


def make_policy(kind: str, g: Graph) -> Policy:
    """A builtin policy for ``g``, building the resistance table the
    resistance-greedy policy ranks by."""
    if kind == "resistance_greedy":
        return builtin_policy(kind, table=resistance_table(g))
    return builtin_policy(kind)


def mean_and_stderr(taus: list[float]) -> tuple[float | None, float | None]:
    """Sample mean of the uncensored extinction times and its standard
    error; None where there are too few values to define one."""
    if not taus:
        return None, None
    mean = sum(taus) / len(taus)
    if len(taus) < 2:
        return mean, None
    var = sum((x - mean) ** 2 for x in taus) / (len(taus) - 1)
    return mean, math.sqrt(var / len(taus))


def extinction_sweep(spec: dict, threads: int = 1) -> list[SweepRecord]:
    """Run replicated extinction-time measurements over one graph family.

    All runs start fully infected.  Censored replications are counted,
    never folded into the mean; a point with more than half its runs
    censored is flagged and its mean is only a lower bound.  Capacity
    errors are surfaced on the affected point and the sweep continues.

    Replications run on the τ-only engine ``epidemic._extinction_times``:
    the same law as ``simulate``, with different draws from the same seed.
    Each point's seed is ``derive_seed(seed, index)``, and replication j's
    draws depend on that seed and j alone (``graph._seeds``), so its τ
    does not depend on which other replications run beside it.  One
    allocation memo is shared across all replications of a point.  With
    ``threads`` > 1 one process pool serves the whole sweep, opened at the
    first point that runs: each point's replications are split into
    contiguous chunks, one per worker, each with its own memo, as many as
    the least of ``threads``, the replications and the cores.  The output
    is the same for a given spec whatever ``threads`` is; it must be an
    int of at least 1.  The spec is checked whole by ``validate_sweep_spec``
    before any point runs, and the core count is read only for a pool.
    """
    if not _is_int(threads):
        raise ErlError(f"threads must be an int, got {threads!r}")
    if threads < 1:
        raise ErlError(f"threads must be at least 1, got {threads}")
    validate_sweep_spec(spec)
    reps = spec["replications"]
    if reps == 0:
        return []
    parts = min(threads, reps, os.cpu_count() or 1) if threads > 1 else 1
    chunks = [range(reps * k // parts, reps * (k + 1) // parts)
              for k in range(parts)]
    pool = None
    records: list[SweepRecord] = []
    try:
        for idx, size in enumerate(spec["sizes"]):
            point_seed = derive_seed(spec["seed"], idx)
            try:
                g = _sweep_graph(spec["family"], size, spec)
                r = _sweep_budget(spec["budget"], g.node_count)
                policy = make_policy(spec["policy"], g)
                config = EpidemicConfig(
                    graph=g, initial_infected=g.all_nodes(), budget=r,
                    horizon=spec.get("horizon"), seed=point_seed,
                    max_events=spec.get("max_events", 10**8))
            except (CapacityError, ErlError) as exc:
                records.append(SweepRecord(
                    spec["family"], size, float("nan"), spec["policy"], reps,
                    None, None, 0, None, point_seed, error=str(exc)))
                continue
            if parts > 1:
                if pool is None:
                    from concurrent.futures import ProcessPoolExecutor
                    pool = ProcessPoolExecutor(max_workers=parts)
                outcomes = [o for part in pool.map(
                    _extinction_times, repeat(config), repeat(policy),
                    chunks) for o in part]
            else:
                outcomes = _extinction_times(config, policy, range(reps))
            taus = [tau for tau, _ in outcomes if tau is not None]
            censored = reps - len(taus)
            mean, stderr = mean_and_stderr(taus)
            records.append(SweepRecord(
                spec["family"], g.node_count, float(r), spec["policy"], reps,
                mean, stderr, censored, None, point_seed,
                lower_bound=censored * 2 > reps))
    finally:
        if pool is not None:
            pool.shutdown()
    prev_mean = None
    for rec in records:
        if rec.mean_tau is not None and prev_mean:
            rec.growth_ratio = rec.mean_tau / prev_mean
        prev_mean = rec.mean_tau
    return records


SWEEP_CSV_COLUMNS = ("family", "n", "r", "policy", "replications", "mean_tau",
                     "stderr", "censored", "growth_ratio", "seed")


def sweep_to_csv(records: list[SweepRecord]) -> str:
    lines = [",".join(SWEEP_CSV_COLUMNS)]
    for rec in records:
        row = []
        for col in SWEEP_CSV_COLUMNS:
            val = getattr(rec, col)
            row.append("" if val is None else repr(val) if isinstance(val, float)
                       else str(val))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def complete_extinction_mean(n: int, r) -> float:
    """Exact expected extinction time on a complete graph, all infected.

    Any policy that puts the whole budget on one infected node makes the
    infected-set size a birth-death chain (up rate k(n-k), down rate r);
    the expected absorption time has a closed recurrence.  Used as an
    independent oracle for simulator means.
    """
    if not _is_int(n) or n < 1:
        raise ErlError(f"n must be an int of at least 1, got {n!r}")
    # written so that NaN fails the test; a larger budget has no float
    if not 0 < r <= float_info.max:
        raise ErlError("needs a positive budget of at most "
                       f"{float_info.max!r}, got {r!r}")
    rf = float(r)
    h_next = 0.0
    total = 0.0
    for k in range(n, 0, -1):
        lam = k * (n - k)
        h_k = (1.0 + lam * h_next) / rf
        total += h_k
        h_next = h_k
    return total


# Largest graph the exact chain is solved on: 2^12 bags, a 128 MB dense
# generator.
CHAIN_CAP = 12


def exact_extinction_times(g: Graph, policy: Policy, budget,
                           infection_rate: float = 1.0) -> np.ndarray:
    """Exact expected extinction time from every bag, indexed by mask.

    The SIS chain on all 2^n bags (Van Mieghem, Omic & Kooij, "Virus
    spread in networks", IEEE/ACM ToN 2009) with curing rates from a
    deterministic policy: from bag A a healthy node u is infected at rate
    β·|N(u) ∩ A| and an infected node v is cured at the rate the policy
    allocates it.  ``allocate`` is called once per nonempty bag and its
    result validated as in ``simulate``; the rates are read off the
    allocation itself.  The dense generator Q over the nonempty bags gives
    h from (−Q)h = 1, solved by ``numpy.linalg.solve``; entry 0 is 0.  The
    independent oracle of the target and weight rules that the simulator
    and the sweep engine follow: it calls every policy's ``allocate``, the
    package's only caller of a builtin's, and shares with them only the
    allocation check ``_curing_table``, which they run for user-written
    policies with neither a target nor weights, and the weights check, so
    it refuses the weights that ``simulate`` refuses.

    Raises ErlError for a graph of more than ``CHAIN_CAP`` nodes, a budget
    or rate that ``EpidemicConfig`` refuses, a policy call that touches the
    policy stream (reads any attribute of it, even without drawing), and a
    bag from which extinction cannot be reached.
    """
    n = g.node_count
    if n > CHAIN_CAP:
        raise ErlError(f"exact extinction times are capped at n = "
                       f"{CHAIN_CAP} nodes, got {n}")
    config = EpidemicConfig(graph=g, initial_infected=g.all_nodes(),
                            budget=budget, infection_rate=infection_rate)
    budget, beta = config.budget, float(config.infection_rate)
    size = 1 << n
    neighbors = g.neighbor_masks
    # row and column A - 1 stand for bag A; the empty bag is absorbing
    minus_q = np.zeros((size - 1, size - 1))
    into = [[] for _ in range(size)]    # bag -> the bags with a step to it
    watch = _StreamWatch(partial(_stream, 0, 0, 1))
    _weight_rule(policy, g, budget)     # refuses what simulate refuses
    for a in range(1, size):
        alloc, touched = watch._call(policy.allocate, g, a, budget)
        if touched:
            raise ErlError(f"policy {policy.name!r} touched its stream at "
                           f"bag {a:#x}; the exact chain needs a "
                           "deterministic policy")
        _curing_table(alloc, a, budget, policy.name)
        steps = [(a & ~(1 << index(v)), float(rate))
                 for v, rate in alloc.items()]
        steps += [(a | (1 << u), beta * (neighbors[u] & a).bit_count())
                  for u in range(n) if not (a >> u) & 1]
        # summed in Python floats, which overflow to inf without a warning
        total = 0.0
        for b, rate in steps:
            if rate > 0:
                total += rate
                if b:
                    minus_q[a - 1, b - 1] = -rate
                into[b].append(a)
        if not math.isfinite(total):
            raise ErlError(f"the total rate out of bag {a:#x} is above the "
                           "largest float")
        minus_q[a - 1, a - 1] = total
    reached = {0}
    frontier = {0}
    while frontier:
        frontier = {a for b in frontier for a in into[b]} - reached
        reached.update(frontier)
    if len(reached) < size:
        first = min(set(range(size)) - reached)
        raise ErlError(f"extinction cannot be reached from bag {first:#x}")
    h = np.zeros(size)
    h[1:] = np.linalg.solve(minus_q, np.ones(size - 1))
    return h
