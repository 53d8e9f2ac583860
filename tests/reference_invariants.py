"""The check-at-a-time form of the table invariant audit, kept as an
oracle for ``analysis.verify_table_invariants``.

Each check makes its own pass over every node, reading the tables in mask
order through ``graph.halves``: two Lipschitz checks, monotonicity,
submodularity (one quarter-size compare per node pair) and cut-at-drop on
max(gamma, cut).  The package's audit runs each node once, computes each
difference once and reads nodes below ``TRANSPOSE_NODES`` from transposed
copies; its reports must match these by ``repr``.  The cut table and the
Bellman check are read through ``erl.analysis``, so a test that patches
``erl.analysis._narrow_cut_table`` feeds both versions the same cuts.

Its exhaustive branches' loops over bags, subsets and nodes are the only
enumerations of the pair checks left: the package runs each as one array
pass over every pair, and its witness order and cap are checked against
these loops.
"""

from __future__ import annotations

import numpy as np

import erl.analysis as analysis
from erl.analysis import SAMPLE_CAP, CheckResult, InvariantReport
from erl.errors import ErlError
from erl.graph import _is_int, _stream, halves, rowwise

_MAX_WITNESSES = 5
_NO_HITS = np.empty(0, dtype=np.intp)


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
    """Indices of the first reportable witnesses in a flattened condition;
    one with no hit, the usual case, costs one ``any``."""
    if not cond.any():
        return _NO_HITS
    return np.flatnonzero(cond)[:_MAX_WITNESSES]


def reference_verify_table_invariants(g, table, mode: str = "exhaustive",
                                      samples: int = 100_000,
                                      seed: int = 0) -> InvariantReport:
    """The single-step audit one check at a time, each node's passes on
    the ``graph.halves`` views of the mask-ordered tables."""
    if mode not in ("exhaustive", "sampled"):
        raise ErlError(f"unknown mode {mode!r}")
    if not _is_int(samples) or not 0 <= samples <= SAMPLE_CAP:
        raise ErlError(f"samples must be an int in 0..{SAMPLE_CAP}, "
                       f"got {samples!r}")
    rng = _stream(seed)
    table.require_graph(g)
    # computed before the work arrays below exist, so its own arrays do
    # not stack on theirs; reported last
    bc = analysis.check_bellman(g, table)
    n = g.node_count
    size = 1 << n
    delta = g.degree_bound
    cut_t = analysis._narrow_cut_table(g)
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
                if k.size:
                    _collect(viols, _insert_bit(_insert_bit(k, w, 0), v, 1),
                             lambda m, u=u, v=v: {"superset": m | (1 << u),
                                                  "node": v})
        strategy = "single_steps"
    checks["cut_submodular"] = CheckResult(checked, strategy, viols)

    # whenever removing a node lowers the resistance, the cut it leaves
    # behind is at least the resistance it left: gamma(A - v) < gamma(A)
    # and cut(A - v) < gamma(A), as one compare of max(gamma, cut), which
    # overwrites the cuts (no later check reads them)
    viols = []
    checked = 0
    high = np.maximum(gam, cut_t, out=cut_t)
    for v in range(n):
        g_in = halves(gam, v)[1]
        k = _first(rowwise(np.less, halves(high, v)[0], g_in,
                           out=cond.reshape(g_in.shape)))
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
