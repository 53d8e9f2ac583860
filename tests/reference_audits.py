"""Loop forms of the trajectory audits, kept as oracles for the array forms.

Each function walks its masks one step at a time, in Python integers, and
is what the package ran before its audits became numpy passes over one
mask array: ``reference_cut_sequence`` for ``graph.cuts_along``,
``reference_validate_crusade`` for ``crusade.validate_crusade``, and the
three audits for ``crusade._bottleneck_audit``,
``analysis._recovery_audit`` and ``analysis._halving_scan``.  Masks are
lists of Python ints, except the bags ``reference_validate_crusade``
takes.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from operator import and_, gt

from erl import (CASE1, CASE2, NOT_APPLICABLE, ErlError, IntervalWitness,
                 LemmaViolationError, RecoveryBoundReport)
from erl.crusade import BottleneckAudit, CrusadeCheck, _check_unit_step
from erl.graph import toggle_delta


def reference_cut_sequence(g, masks) -> list[int]:
    """Cuts of the bags along a sequence of bitmasks, any step size: each
    cut from the one before by one ``toggle_delta`` per flipped node (the
    first from the empty bag, whose cut is 0)."""
    cuts = []
    value = prev = 0
    for mask in masks:
        flipped = prev ^ mask
        while flipped:
            low = flipped & -flipped
            value += toggle_delta(g, prev, low.bit_length() - 1)
            prev ^= low
            flipped ^= low
        cuts.append(value)
    return cuts


def reference_validate_crusade(seq, a, b) -> CrusadeCheck:
    """The crusade check one step at a time, by ``Bag`` differences."""
    if len(seq) == 0:
        raise ErlError("empty sequence is not a crusade")
    if seq[0] != a:
        return CrusadeCheck(False, 0, f"starts at {seq[0]!r}, expected {a!r}")
    if seq[-1] != b:
        return CrusadeCheck(False, len(seq) - 1,
                            f"ends at {seq[-1]!r}, expected {b!r}")
    for i in range(len(seq) - 1):
        removed = len(seq[i] - seq[i + 1])
        if removed > 1:
            return CrusadeCheck(False, i, f"step {i} removes {removed} nodes")
    return CrusadeCheck(True, None, None)


def reference_bottleneck_audit(g, masks: list[int],
                               thetas: list[int] | None = None
                               ) -> BottleneckAudit:
    if thetas is None:
        thetas = list(accumulate(masks, and_))
    cuts = reference_cut_sequence(g, thetas)
    if thetas[0] & ~masks[0]:
        return BottleneckAudit(False, 0, 0, "bottleneck bag not inside source bag")
    bound = g.degree_bound
    for i in range(1, len(masks)):
        prev, cur = masks[i - 1], masks[i]
        _check_unit_step(prev, cur, i)
        if thetas[i] & ~cur:
            return BottleneckAudit(False, i, i, "bottleneck bag not inside source bag")
        if thetas[i] & ~thetas[i - 1]:
            return BottleneckAudit(False, i, i, "bottleneck bag grew")
        growth = cuts[i] - cuts[i - 1]
        if growth > 0 and cur > prev:
            return BottleneckAudit(False, i, i, "cut increased on a non-removal step")
        if growth > bound:
            return BottleneckAudit(
                False, i, i,
                f"cut increased by {growth} > degree bound {bound}")
    return BottleneckAudit(True, len(masks) - 1, None, None)


def reference_recovery_audit(g, table, times: list[float], masks: list[int],
                             t_from: float, t_to: float) -> RecoveryBoundReport:
    first = bisect_right(times, t_from) - 1
    last = bisect_right(times, t_to) - 1
    seg_masks = masks[first:last + 1]
    theta_masks = list(accumulate(seg_masks, and_))
    theta_cuts = reference_cut_sequence(g, theta_masks)

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


def reference_halving_scan(g, table, times: list[float],
                           state_masks: list[int]) -> IntervalWitness:
    if state_masks[-1] != 0:
        raise ErlError("scan_halving_window needs a log that ends in extinction")
    gamma0 = table.gamma(state_masks[0])
    delta = g.degree_bound
    b = gamma0 // (4 * delta) - 1 if delta else -1
    cut_thr = -(-gamma0 // 4)
    half = gamma0 // 2

    for t_idx, m in enumerate(state_masks):
        if table.gamma(m) <= half:
            break
    else:
        raise LemmaViolationError("resistance never halved on an extinct path",
                                  witness={"gamma_initial": gamma0})
    T = times[t_idx]

    if b < 1:
        partial = reference_recovery_audit(g, table, times, state_masks, 0.0,
                                           times[-1])
        return IntervalWitness(NOT_APPLICABLE, gamma0, b, cut_thr, T, None,
                               None, None, None, None, None, partial)

    cuts = reference_cut_sequence(g, state_masks[:t_idx + 1])
    below = [j for j, c in enumerate(cuts) if c < cut_thr]
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
                  if state_masks[e + 1] < state_masks[e]]
    if len(rec_events) < b:
        raise LemmaViolationError(
            f"only {len(rec_events)} recoveries before the halving, "
            f"needed {b}", witness={"case": case})
    e_b = rec_events[b - 1]
    t_double = times[e_b + 1]
    min_cut = min(cuts[first_event:e_b + 2])
    if min_cut < cut_thr:
        raise LemmaViolationError(
            f"cut fell to {min_cut} inside the witness window "
            f"(threshold {cut_thr})", witness={"case": case})
    window = state_masks[first_event:e_b + 2]
    recoveries = sum(map(gt, window, window[1:]))
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
