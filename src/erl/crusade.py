"""Crusade validity, width, and the bottleneck sequence of a trajectory.

A crusade is a sequence of bags in which each step may add arbitrarily many
nodes but remove at most one.  The bottleneck sequence of a unit-step bag
sequence is its running intersection: it tracks removals and ignores
additions, which is what lets recovery counts be read off cut growth.  The
bottleneck sequence removes at most one node per step, so it is a crusade
from the first bag, and on a trajectory that dies out its width is at least
that bag's resistance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ErlError
from .graph import Bag, Graph, cut, cuts_along, mask_array


@dataclass(frozen=True)
class Crusade:
    """Ordered bag sequence obeying the remove-at-most-one-per-step rule."""

    bags: tuple[Bag, ...]

    def __post_init__(self):
        if not self.bags:
            raise ErlError("a crusade has at least one bag")
        check = validate_crusade(self.bags, self.bags[0], self.bags[-1])
        if not check.valid:
            raise ErlError(check.reason)

    def __len__(self) -> int:
        return len(self.bags)


@dataclass(frozen=True)
class CrusadeCheck:
    valid: bool
    violation_index: int | None
    reason: str | None


@dataclass(frozen=True)
class BottleneckAudit:
    passed: bool
    steps_checked: int
    violation_index: int | None
    reason: str | None


def validate_crusade(seq: Sequence[Bag], a: Bag, b: Bag) -> CrusadeCheck:
    """Check that ``seq`` is a crusade from ``a`` to ``b``.

    The violation index is the position of the first offending bag (for the
    step rule, the index of the step's first bag).  The bags are read into
    one mask array (``mask_array``) and every step's removals are counted
    at once, as the nodes of ``prev & ~cur``.
    """
    if len(seq) == 0:
        raise ErlError("empty sequence is not a crusade")
    if seq[0] != a:
        return CrusadeCheck(False, 0, f"starts at {seq[0]!r}, expected {a!r}")
    if seq[-1] != b:
        return CrusadeCheck(False, len(seq) - 1,
                            f"ends at {seq[-1]!r}, expected {b!r}")
    masks = [bag.mask for bag in seq]
    arr = mask_array(masks, max(masks).bit_length())
    removed = np.bitwise_count(arr[:-1] & ~arr[1:])
    bad = np.flatnonzero(removed > 1)
    if bad.size:
        i = int(bad[0])
        return CrusadeCheck(False, i, f"step {i} removes {int(removed[i])} nodes")
    return CrusadeCheck(True, None, None)


def width(g: Graph, c: Crusade) -> int:
    """Maximum cut over the crusade's bags, excluding the initial bag.

    A single-bag crusade has width 0 (maximum over an empty index set).
    """
    return max((cut(g, w) for w in c.bags[1:]), default=0)


def _check_unit_step(prev: int, cur: int, i: int) -> None:
    flipped = (prev ^ cur).bit_count()
    if flipped != 1:
        raise ErlError(
            f"step {i} is not a unit step (symmetric difference size "
            f"{flipped})")


def bottleneck_sequence(seq: Sequence[Bag]) -> Crusade:
    """The running intersection of a unit-step bag sequence, as a crusade
    from its first bag.

    The bags are read into one mask array (``mask_array``), every step is
    checked to flip exactly one node at once, and the intersections are
    ``np.bitwise_and.accumulate``, the pass the audits run.  An empty
    sequence and the first non-unit step raise ErlError.
    """
    if not seq:
        raise ErlError("empty sequence has no bottleneck sequence")
    masks = [b.mask for b in seq]
    arr = mask_array(masks, max(masks).bit_length())
    bad = np.flatnonzero(np.bitwise_count(arr[:-1] ^ arr[1:]) != 1)
    if bad.size:
        i = int(bad[0]) + 1
        _check_unit_step(masks[i - 1], masks[i], i)
    theta = np.bitwise_and.accumulate(arr).tolist()
    return Crusade(tuple(map(Bag.from_mask, theta)))


def audit_bottleneck(g: Graph, seq: Sequence[Bag],
                     theta: Sequence[Bag] | None = None) -> BottleneckAudit:
    """Audit the bottleneck sequence of a unit-step bag sequence.

    Checks, index by index: the bottleneck bag stays inside the source bag;
    its cut grows only on removal steps; and it grows by at most the degree
    bound per step.  ``theta`` overrides the computed sequence so that
    corrupted inputs can be fed in deliberately; its bags may jump by any
    number of nodes per step.

    Both sequences are read once, into mask arrays (``mask_array``), and
    every check runs over all steps at once; the computed sequence's cuts
    come from ``cuts_along``, an overriding one's from ``cut`` per bag.
    An empty sequence raises ErlError, as does a non-unit step that comes
    before the first violation; a bag of ``theta`` (or, without it, the
    first source bag) outside ``g`` raises InvalidBagError.
    """
    if not seq:
        raise ErlError("empty sequence has no bottleneck sequence")
    if theta is not None and len(theta) != len(seq):
        return BottleneckAudit(False, 0, 0,
                               "length mismatch with source sequence")
    # without theta, every computed bag lies inside the first source bag
    for b in seq[:1] if theta is None else theta:
        g.check_bag(b)
    # later source bags are unchecked, so the widest one sets the dtype
    n = max(g.node_count, max(b.mask for b in seq).bit_length())
    masks = mask_array([b.mask for b in seq], n)
    if theta is None:
        return _bottleneck_audit(g, masks)
    return _bottleneck_audit(g, masks, mask_array([b.mask for b in theta], n),
                             np.array([cut(g, b) for b in theta]))


def _bottleneck_audit(g: Graph, masks: np.ndarray,
                      thetas: np.ndarray | None = None,
                      cuts: np.ndarray | None = None) -> BottleneckAudit:
    """:func:`audit_bottleneck` on a mask array already checked against
    ``g``; ``thetas`` and their ``cuts`` default to the running
    intersection and its ``cuts_along``.  Each check runs over all steps
    at once, and the first failing step reports its first failed check."""
    if thetas is None:
        thetas = np.bitwise_and.accumulate(masks)
        cuts = cuts_along(g, thetas)
    if thetas[0] & ~masks[0]:
        return BottleneckAudit(False, 0, 0, "bottleneck bag not inside source bag")
    prev, cur = masks[:-1], masks[1:]
    growth = np.diff(cuts)
    bound = g.degree_bound
    # in check order; after a unit step, the mask drops exactly when a
    # node is removed
    failures = [
        (np.bitwise_count(prev ^ cur) != 1, None),
        ((thetas[1:] & ~cur) != 0, "bottleneck bag not inside source bag"),
        ((thetas[1:] & ~thetas[:-1]) != 0, "bottleneck bag grew"),
        ((growth > 0) & (cur > prev), "cut increased on a non-removal step"),
        (growth > bound, "cut increased by {} > degree bound {}"),
    ]
    hits = np.flatnonzero(np.logical_or.reduce([f for f, _ in failures]))
    if not hits.size:
        return BottleneckAudit(True, len(masks) - 1, None, None)
    i = int(hits[0]) + 1
    _check_unit_step(int(masks[i - 1]), int(masks[i]), i)
    reason = next(r for f, r in failures[1:] if f[i - 1])
    return BottleneckAudit(False, i, i,
                           reason.format(int(growth[i - 1]), bound))


def crusade_to_json(c: Crusade) -> str:
    """Debug serialization: a JSON array of sorted node-id arrays."""
    return json.dumps([list(b.nodes()) for b in c.bags], separators=(",", ":"))


def crusade_from_json(text: str) -> Crusade:
    return Crusade(tuple(Bag(nodes) for nodes in json.loads(text)))
