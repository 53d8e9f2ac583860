"""Mechanical verification of the theory on tables and trajectories, plus
large-deviations utilities and extinction-time sweep experiments.

Every check here either holds for all valid inputs (so a failure flags an
implementation bug, raised as LemmaViolationError) or is reported with
explicit witnesses.  All integer inequalities are checked exactly; no
tolerances.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, repeat
from operator import and_, gt, index

import numpy as np
from jsonschema import Draft202012Validator

from .epidemic import (RECOVERY, EpidemicConfig, EventLog, Policy,
                       _curing_table, _extinction_times, _StreamWatch,
                       _trajectory, builtin_policy, derive_seed)
from .errors import CapacityError, ErlError, LemmaViolationError
from .graph import (Graph, cut_sequence, cut_table, generate, halves,
                    rowwise)
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
    if lam <= 0 or lam_prime <= 0:
        raise ValueError("poisson_ld_exponent needs positive rates")
    return lam_prime * math.log(lam_prime / lam) - lam_prime + lam


def poisson_tail_probability(lam: float, lam_prime: float, n: int,
                             samples: int = 10**6, seed: int = 0) -> tuple[float, float]:
    """Monte Carlo tail estimate next to its Chernoff bound.

    Returns (empirical tail, exp(-eps*n)); the tail direction follows the
    sign of lam_prime - lam.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
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
    cg = Fraction(c_gamma)
    if not isinstance(delta, int) or delta < 1:
        raise ValueError("delta must be a positive integer")
    if not 0 < cg <= delta:
        raise ValueError(f"c_gamma must lie in (0, delta], got {cg}")
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
        return {
            "node_count": self.node_count,
            "mode": self.mode,
            "ok": self.ok,
            "checks": {name: {"checked": c.checked, "strategy": c.strategy,
                              "violations": c.violations}
                       for name, c in self.checks.items()},
        }


_MAX_WITNESSES = 5


def _collect(viols: list, bad_masks, detail) -> None:
    for m in bad_masks[:_MAX_WITNESSES - len(viols)]:
        viols.append({"bag": int(m), **detail(int(m))})


def _insert_bit(k, v: int, bit: int):
    """Masks with bit ``v`` set to ``bit`` from indices that lack that bit.

    The flattened index of a bag in ``halves(x, v)[bit]``, and in any
    array of that shape, is its mask with bit v removed; inserting the bit
    back keeps order.
    """
    low = (1 << v) - 1
    return ((k & ~low) << 1) | (k & low) | (bit << v)


def _first(cond: np.ndarray) -> np.ndarray:
    """Indices of the first reportable witnesses in a flattened condition."""
    return np.flatnonzero(cond)[:_MAX_WITNESSES]


def verify_table_invariants(g: Graph, table: ResistanceTable,
                            mode: str = "exhaustive", samples: int = 100_000,
                            seed: int = 0) -> InvariantReport:
    """Run the full invariant suite for cuts and resistances.

    Exhaustive mode checks all bag pairs when n <= 8 and all subset pairs
    for monotonicity when n <= 10; above that, and throughout sampled mode,
    the pair checks run over all single-node steps plus ``samples`` random
    pairs.  The fixed-point and cut-at-drop checks are always complete.

    Single-node steps use the half-views of ``graph.halves``: they line
    every bag without v up with the bag that adds v, so no mask array is
    built or gathered.  Each step condition is written by ``rowwise`` into
    a reused half-size buffer of the half-view's shape.  Submodularity
    takes dv = cut(A - v) - cut(A) on the half holding v and compares it
    with itself one node u higher: for a bag S without u and v, the
    violation dv(S) > dv(S+u) reads cut(S) + cut(S+u+v) > cut(S+u) +
    cut(S+v).  That is symmetric in u and v, and both orders index it by
    S with both bits removed, so one quarter-size compare per pair u > v,
    n(n-1)/2 in all, serves the checks (v, u) and (u, v); each order maps
    the same indices to its own witnesses.

    Values are compared in the narrowest signed dtype that holds every
    cut, every table entry, the degree bound and every difference of two
    of them exactly: int8 for any valid table up to n = 22, wider only for
    tables with larger entries.  Full-size int64 mask arrays exist only in
    the n <= 8 and n <= 10 exhaustive branches.  Only reported witnesses
    are mapped back to masks, in mask order, so reports match a literal
    enumeration of the bags.
    """
    if mode not in ("exhaustive", "sampled"):
        raise ErlError(f"unknown mode {mode!r}")
    if samples < 0:
        raise ErlError(f"samples must be nonnegative, got {samples}")
    table.require_graph(g)
    # computed before the work arrays below exist, so its own arrays do
    # not stack on theirs; reported last
    bc = check_bellman(g, table)
    n = g.node_count
    size = 1 << n
    delta = g.degree_bound
    cut_t = cut_table(g)
    # values in [lo, hi] differ by at most hi - lo, which the signed dtype
    # holding lo - hi - 1 also holds
    lo = min(0, int(cut_t.min()), int(table.values.min()))
    hi = max(delta, int(cut_t.max()), int(table.values.max()))
    work = np.min_scalar_type(lo - hi - 1)
    cut_t = cut_t.astype(work)
    gam = table.values.astype(work)
    # half-size work buffers, viewed in each pass with the half-view's shape
    diff = np.empty(size >> 1, dtype=work)
    cond = np.empty(size >> 1, dtype=bool)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    all_pairs = mode == "exhaustive" and n <= 8
    all_subsets = mode == "exhaustive" and n <= 10
    checks: dict[str, CheckResult] = {}

    # |f(A) - f(B)| <= delta * |A xor B| for f in {cut, resistance}
    for name, vals in (("cut_lipschitz", cut_t), ("resistance_smooth", gam)):
        viols: list = []
        checked = 0
        if all_pairs:
            masks = np.arange(size, dtype=np.int64)
            pops = np.bitwise_count(masks).astype(np.int64)
            for bm in range(size):
                bad = np.nonzero(np.abs(vals - vals[bm])
                                 > delta * pops[masks ^ bm])[0]
                checked += size
                _collect(viols, bad, lambda m, bm=bm: {"other": bm})
            strategy = "all_pairs"
        else:
            for v in range(n):
                without, with_v = halves(vals, v)
                rowwise(np.subtract, without, with_v,
                        out=diff.reshape(without.shape))
                np.abs(diff, out=diff)
                k = _first(np.greater(diff, delta, out=cond))
                checked += size
                # both bags of a bad step are witnesses, in mask order
                bad = np.sort(np.concatenate([_insert_bit(k, v, 0),
                                              _insert_bit(k, v, 1)]))
                _collect(viols, bad, lambda m, v=v: {"other": m ^ (1 << v)})
            a = rng.integers(0, size, samples)
            bm = rng.integers(0, size, samples)
            dist = np.bitwise_count(a ^ bm).astype(np.int64)
            bad = np.nonzero(np.abs(vals[a] - vals[bm]) > delta * dist)[0]
            checked += samples
            _collect(viols, a[bad], lambda m: {})
            strategy = "single_steps+sampled_pairs"
        checks[name] = CheckResult(checked, strategy, viols)

    # resistance is monotone under set inclusion
    viols = []
    checked = 0
    if all_subsets:
        gl = gam.tolist()
        for bm in range(size):
            gb = gl[bm]
            s = bm
            while True:
                checked += 1
                if gl[s] > gb and len(viols) < _MAX_WITNESSES:
                    viols.append({"bag": s, "superset": bm})
                if s == 0:
                    break
                s = (s - 1) & bm
        strategy = "all_subset_pairs"
    else:
        for v in range(n):
            without, with_v = halves(gam, v)
            k = _first(rowwise(np.greater, without, with_v,
                               out=cond.reshape(without.shape)))
            checked += size
            _collect(viols, _insert_bit(k, v, 1),
                     lambda m, v=v: {"bag": m & ~(1 << v), "superset": m})
        sup = rng.integers(0, size, samples)
        sub = sup & rng.integers(0, size, samples)
        bad = np.nonzero(gam[sub] > gam[sup])[0]
        checked += samples
        _collect(viols, sub[bad], lambda m: {})
        strategy = "single_steps+sampled_pairs"
    checks["resistance_monotone"] = CheckResult(checked, strategy, viols)

    # cut submodularity: dropping v hurts a small bag at most as much as a
    # containing one: cut(A-v) - cut(A) <= cut(B-v) - cut(B) for A <= B
    viols = []
    checked = 0
    if all_pairs:
        cl = cut_t.tolist()
        for bm in range(size):
            s = bm
            while True:
                if s:
                    t = s
                    while t:
                        vbit = t & -t
                        t ^= vbit
                        checked += 1
                        if (cl[s & ~vbit] - cl[s] > cl[bm & ~vbit] - cl[bm]
                                and len(viols) < _MAX_WITNESSES):
                            viols.append({"bag": s, "superset": bm,
                                          "node": vbit.bit_length() - 1})
                if s == 0:
                    break
                s = (s - 1) & bm
        strategy = "all_subset_pairs"
    else:
        quarter = cond[:size >> 2]
        first = {}      # pair (v, u), u > v -> first indices of its condition
        for v in range(n):
            without, with_v = halves(cut_t, v)
            # diff[A - v] = cut(A - v) - cut(A) for the bags A holding v
            rowwise(np.subtract, without, with_v,
                    out=diff.reshape(without.shape))
            for u in range(n):
                if u == v:
                    continue
                w = u - (u > v)     # u's bit once v's bit is removed
                if u > v:
                    d_without, d_with = halves(diff, w)
                    first[v, u] = _first(rowwise(
                        np.greater, d_without, d_with,
                        out=quarter.reshape(d_without.shape)))
                k = first[min(u, v), max(u, v)]
                checked += size >> 2
                _collect(viols, _insert_bit(_insert_bit(k, w, 0), v, 1),
                         lambda m, u=u, v=v: {"superset": m | (1 << u),
                                              "node": v})
        strategy = "single_steps"
    checks["cut_submodular"] = CheckResult(checked, strategy, viols)

    # whenever removing a node lowers the resistance, the cut it leaves
    # behind is at least the resistance it left
    viols = []
    checked = 0
    for v in range(n):
        g_without, g_in = halves(gam, v)
        # gamma(A - v) < gamma(A) and cut(A - v) < gamma(A), as one compare
        high = rowwise(np.maximum, g_without, halves(cut_t, v)[0],
                       out=diff.reshape(g_in.shape))
        k = _first(rowwise(np.less, high, g_in, out=cond.reshape(g_in.shape)))
        checked += size >> 1
        _collect(viols, _insert_bit(k, v, 1), lambda m, v=v: {"node": v})
    checks["cut_at_drop"] = CheckResult(checked, "all_bag_node_pairs", viols)

    # no bag is harder than the full set
    viols = []
    bad = np.nonzero(gam > gam[-1])[0]
    _collect(viols, bad, lambda m: {"cutwidth": int(gam[-1])})
    checks["below_cutwidth"] = CheckResult(size, "all_bags", viols)

    # the table is a fixed point of the bottleneck recursion
    viols = [] if bc.passed else [{"bag": bc.witness_mask, "table": bc.lhs,
                                   "operator": bc.rhs}]
    checks["fixed_point"] = CheckResult(size, "all_bags", viols)

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
        return dict(self.__dict__)


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
    raises ErlError.  The log is checked and replayed once, as masks.
    """
    if not 0 <= t_from <= t_to:
        raise ErlError("need 0 <= t_from <= t_to")
    table.require_graph(g)
    times, masks = _trajectory(log, g)
    return _recovery_audit(g, table, times, masks, t_from, t_to)


def _recovery_audit(g: Graph, table, times: list[float], masks: list[int],
                    t_from: float, t_to: float) -> RecoveryBoundReport:
    """:func:`audit_recovery_bound` on a trajectory already checked by
    ``_trajectory``."""
    # states after the events at or before each bound; times increase
    # strictly, so the segment's states are one slice
    first = bisect_right(times, t_from) - 1
    last = bisect_right(times, t_to) - 1
    seg_masks = masks[first:last + 1]
    theta_masks = list(accumulate(seg_masks, and_))
    theta_cuts = cut_sequence(g, theta_masks)

    gamma0 = table.gamma(masks[0])
    half = gamma0 // 2
    crossing_index = crossing_cut = crossing_gamma_before = None
    prev_gam = table.gamma(theta_masks[0])
    for i in range(1, len(theta_masks)):
        cur_gam = (prev_gam if theta_masks[i] == theta_masks[i - 1]
                   else table.gamma(theta_masks[i]))
        if cur_gam <= half < prev_gam:
            crossing_index = i
            crossing_cut = theta_cuts[i]
            crossing_gamma_before = prev_gam
            if crossing_cut < prev_gam:
                raise LemmaViolationError(
                    f"bottleneck crossing at step {i}: cut {crossing_cut} "
                    f"below pre-crossing resistance {prev_gam}",
                    witness={"theta": theta_masks[i], "index": i})
            break
        prev_gam = cur_gam

    # a unit step is a recovery exactly when it lowers the mask
    recoveries = sum(map(gt, seg_masks, seg_masks[1:]))
    infections = len(seg_masks) - 1 - recoveries
    c0 = theta_cuts[0]
    cmax = max(theta_cuts)
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
        d = {k: v for k, v in self.__dict__.items() if k != "partial_audit"}
        d["partial_audit"] = (self.partial_audit.to_json_dict()
                              if self.partial_audit else None)
        return d


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
    checked and replayed once, as masks.
    """
    table.require_graph(g)
    times, state_masks = _trajectory(log, g)
    if state_masks[-1] != 0:
        raise ErlError("scan_halving_window needs a log that ends in extinction")
    gamma0 = table.gamma(state_masks[0])
    delta = g.degree_bound
    b = gamma0 // (4 * delta) - 1
    cut_thr = -(-gamma0 // 4)
    half = gamma0 // 2

    t_idx = None
    for j, m in enumerate(state_masks):
        if table.gamma(m) <= half:
            t_idx = j
            break
    if t_idx is None:
        raise LemmaViolationError("resistance never halved on an extinct path",
                                  witness={"gamma_initial": gamma0})
    T = times[t_idx]

    if b < 1:
        partial = _recovery_audit(g, table, times, state_masks, 0.0, times[-1])
        return IntervalWitness(NOT_APPLICABLE, gamma0, b, cut_thr, T, None,
                               None, None, None, None, None, partial)

    cuts = cut_sequence(g, state_masks)
    below = [j for j in range(t_idx + 1) if cuts[j] < cut_thr]
    if not below:
        case = CASE1
        t_prime_time = 0.0
        T_prime = None
        first_event = 0
    else:
        case = CASE2
        jlast = below[-1]
        if jlast == t_idx:
            raise LemmaViolationError(
                "cut below threshold at the halving state",
                witness={"state": state_masks[t_idx]})
        # a resistance drop on a growing set would contradict monotonicity
        if state_masks[t_idx] & ~state_masks[t_idx - 1]:
            raise LemmaViolationError(
                "resistance halved on a non-recovery step",
                witness={"state": state_masks[t_idx]})
        gamma_before = table.gamma(state_masks[t_idx - 1])
        if cuts[t_idx] < gamma_before:
            raise LemmaViolationError(
                f"cut {cuts[t_idx]} at the halving below pre-halving "
                f"resistance {gamma_before}",
                witness={"state": state_masks[t_idx]})
        T_prime = times[jlast + 1]
        if cuts[jlast + 1] >= cut_thr + delta:
            raise LemmaViolationError(
                "cut jumped past threshold by more than the degree bound",
                witness={"state": state_masks[jlast + 1]})
        t_prime_time = T_prime
        first_event = jlast + 1

    rec_events = [e for e in range(first_event, t_idx)
                  if log.events[e].kind == RECOVERY]
    if len(rec_events) < b:
        raise LemmaViolationError(
            f"only {len(rec_events)} recoveries before the halving, "
            f"needed {b}", witness={"case": case})
    e_b = rec_events[b - 1]
    t_double = times[e_b + 1]
    window_states = range(first_event, e_b + 2)
    min_cut = min(cuts[j] for j in window_states)
    if min_cut < cut_thr:
        raise LemmaViolationError(
            f"cut fell to {min_cut} inside the witness window "
            f"(threshold {cut_thr})", witness={"case": case})
    window_events = range(first_event, e_b + 1)
    recoveries = sum(1 for e in window_events if log.events[e].kind == RECOVERY)
    infections = len(window_events) - recoveries
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

SWEEP_SCHEMA = {
    "type": "object",
    "required": ["family", "sizes", "budget", "policy", "replications", "seed"],
    "additionalProperties": False,
    "properties": {
        "family": {"enum": list(SWEEP_FAMILIES)},
        "sizes": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "budget": {"oneOf": [
            {"type": "number", "minimum": 0},
            {"type": "object", "required": ["per_node"],
             "additionalProperties": False,
             "properties": {"per_node": {"type": "number", "minimum": 0}}},
        ]},
        "policy": {"enum": ["max_cut_drop", "resistance_greedy",
                            "degree_proportional", "uniform", "random_node"]},
        "replications": {"type": "integer", "minimum": 0},
        "seed": {"type": "integer"},
        "horizon": {"type": ["number", "null"]},
        "max_events": {"type": "integer", "minimum": 1},
        "degree": {"type": "integer", "minimum": 0},
        "graph_seed": {"type": "integer"},
    },
}


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


def validate_sweep_spec(spec: dict) -> None:
    validator = Draft202012Validator(SWEEP_SCHEMA)
    errors = sorted(validator.iter_errors(spec), key=lambda e: list(e.path))
    if errors:
        e = errors[0]
        where = "/".join(str(p) for p in e.path) or "(top level)"
        raise ErlError(f"sweep spec invalid at {where}: {e.message}")
    if spec["family"] == "random_regular" and "degree" not in spec:
        raise ErlError("sweep spec invalid at degree: required for random_regular")


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
    One allocation memo is shared across all replications of a point; with
    ``threads`` > 1 the replications are split into ``threads`` contiguous
    chunks, one per worker, each with its own memo.  Deterministic for a
    given spec regardless of ``threads``.
    """
    validate_sweep_spec(spec)
    reps = spec["replications"]
    if reps == 0:
        return []
    records: list[SweepRecord] = []
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
            records.append(SweepRecord(spec["family"], size, float("nan"),
                                       spec["policy"], reps, None, None, 0,
                                       None, point_seed, error=str(exc)))
            continue
        if threads > 1:
            parts = min(threads, reps)
            chunks = [range(reps * k // parts, reps * (k + 1) // parts)
                      for k in range(parts)]
            with ProcessPoolExecutor(max_workers=threads) as pool:
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
    rf = float(r)
    if rf <= 0:
        raise ErlError("needs a positive budget")
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
    h from (−Q)h = 1, solved by ``numpy.linalg.solve``; entry 0 is 0.  An
    independent oracle for the simulator and the sweep engine: it shares
    the allocation check with them and nothing else.

    Raises ErlError for a graph of more than ``CHAIN_CAP`` nodes, a policy
    call that draws from the policy stream, and a bag from which extinction
    cannot be reached.
    """
    n = g.node_count
    if n > CHAIN_CAP:
        raise ErlError(f"exact extinction times are capped at n = "
                       f"{CHAIN_CAP} nodes, got {n}")
    budget = Fraction(budget)
    beta = float(infection_rate)
    if not 0 < beta < math.inf:
        raise ErlError("infection rate must be positive and finite")
    size = 1 << n
    neighbors = [sum(1 << u for u in adj) for adj in g.adjacency]
    # row and column A - 1 stand for bag A; the empty bag is absorbing
    minus_q = np.zeros((size - 1, size - 1))
    into = [[] for _ in range(size)]    # bag -> the bags with a step to it
    watch = _StreamWatch(0, 0)
    for a in range(1, size):
        alloc, drew = watch._call(policy, g, a, budget)
        if drew:
            raise ErlError(f"policy {policy.name!r} drew from its stream at "
                           f"bag {a:#x}; the exact chain needs a "
                           "deterministic policy")
        _curing_table(alloc, a, budget, policy.name)
        steps = [(a & ~(1 << index(v)), float(rate))
                 for v, rate in alloc.items()]
        steps += [(a | (1 << u), beta * (neighbors[u] & a).bit_count())
                  for u in range(n) if not (a >> u) & 1]
        for b, rate in steps:
            if rate > 0:
                minus_q[a - 1, a - 1] += rate
                if b:
                    minus_q[a - 1, b - 1] -= rate
                into[b].append(a)
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
