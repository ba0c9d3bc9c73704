"""Region-matching segmentation quality metrics (Hoover scheme).

Every ground-truth region ends up in exactly one of {correctly detected,
over-segmented, merged into an under-segmentation instance, missed}; every
machine region in exactly one of {correct, over-instance participant,
under-segmented, noise}.  All overlap comparisons and scores use exact
rational arithmetic so the four ground-truth fractions sum to 1 exactly.
"""

from __future__ import annotations

import numbers
import types
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .grids import LabelMap, _check_field


def _as_fraction(t: float | Fraction) -> Fraction:
    """The overlap threshold, a number in (0, 1], as an exact fraction."""
    _check_field("threshold", t, float, {"gt": 0, "le": 1})
    # str() keeps the decimal the caller wrote (0.51 -> 51/100)
    return t if isinstance(t, Fraction) else Fraction(str(t))


def _is_count(v: object) -> bool:
    """An integer >= 1, not a bool; a plain int takes the fast path."""
    return (type(v) is int or isinstance(v, numbers.Integral) and not isinstance(v, bool)) and v >= 1


@dataclass(frozen=True)
class OverlapTable:
    """Pixel-overlap contingency between ground-truth and machine regions.

    Construction stores read-only copies of the three mappings and checks the
    contract in one pass over them: ids, sizes and overlaps are integers >= 1
    (not bools), each overlap names a region of both size mappings, and a
    region's overlaps sum to no more than its size.  Any failure is a
    ``ValueError``.  The table is frozen, so the contract holds for its life.
    """

    gt_sizes: Mapping[int, int]
    ms_sizes: Mapping[int, int]
    overlaps: Mapping[tuple[int, int], int]

    def __post_init__(self) -> None:
        for name in ("gt_sizes", "ms_sizes", "overlaps"):
            object.__setattr__(self, name, types.MappingProxyType(dict(getattr(self, name))))
        sides = {"gt": self.gt_sizes, "ms": self.ms_sizes}
        for side, sizes in sides.items():
            for i, n in sizes.items():
                if not (_is_count(i) and _is_count(n)):
                    raise ValueError(f"{side}_sizes must map integer ids >= 1 to integer sizes >= 1, got {i!r}: {n!r}")
        # what each region's size leaves after the overlaps seen so far
        gt_left, ms_left = dict(self.gt_sizes), dict(self.ms_sizes)
        try:
            for (gi, mi), ov in self.overlaps.items():
                if not (_is_count(ov) and _is_count(gi) and _is_count(mi)):
                    raise ValueError(f"overlaps must map id pairs to integers >= 1, got {(gi, mi)!r}: {ov!r}")
                if gi not in gt_left or mi not in ms_left:
                    side = "gt" if gi not in gt_left else "ms"
                    raise ValueError(f"overlap {(gi, mi)!r} names a region missing from {side}_sizes")
                gt_left[gi] -= ov
                ms_left[mi] -= ov
        except TypeError as exc:  # a key that does not unpack into two ids
            raise ValueError(f"overlaps must be keyed by (gt id, ms id) pairs: {exc}") from None
        for side, left in (("gt", gt_left), ("ms", ms_left)):
            for i, rest in left.items():
                if rest < 0:
                    size = sides[side][i]
                    raise ValueError(f"the overlaps of {side} region {i} sum to {size - rest}, above its size {size}")


@dataclass
class HooverClassification:
    correct_pairs: list[tuple[int, int]] = field(default_factory=list)
    over_instances: list[tuple[int, tuple[int, ...]]] = field(default_factory=list)
    under_instances: list[tuple[int, tuple[int, ...]]] = field(default_factory=list)
    missed_gt: list[int] = field(default_factory=list)
    noise_ms: list[int] = field(default_factory=list)


@dataclass
class HooverScores:
    """The five normalised metrics plus their raw counts.

    Fractions of ground-truth regions except ``noise``, which is the fraction
    of machine regions.  ``correct + over + under + missed == 1`` exactly.
    """

    correct_detection: Fraction
    over_segmentation: Fraction
    under_segmentation: Fraction
    missed: Fraction
    noise: Fraction
    correct_count: int
    over_count: int
    under_count: int
    missed_count: int
    noise_count: int
    n_gt: int
    n_ms: int
    threshold: Fraction

    def as_floats(self) -> dict[str, float]:
        return {
            "correct_detection": float(self.correct_detection),
            "over_segmentation": float(self.over_segmentation),
            "under_segmentation": float(self.under_segmentation),
            "missed": float(self.missed),
            "noise": float(self.noise),
        }

    def to_dict(self) -> dict:
        out = self.as_floats()
        out["correct_plus_over"] = float(self.correct_detection + self.over_segmentation)
        out["counts"] = {
            "correct": self.correct_count,
            "over": self.over_count,
            "under": self.under_count,
            "missed": self.missed_count,
            "noise": self.noise_count,
            "n_gt": self.n_gt,
            "n_ms": self.n_ms,
        }
        out["threshold"] = float(self.threshold)
        return out


def _sizes(ids: np.ndarray, counts: np.ndarray) -> dict[int, int]:
    """Pixel count per positive id, from (id, count) pairs sorted by id."""
    first = np.flatnonzero(np.diff(ids, prepend=-1))
    return {i: c for i, c in zip(ids[first].tolist(), np.add.reduceat(counts, first).tolist()) if i > 0}


def overlap_table(gt: LabelMap, ms: LabelMap) -> OverlapTable:
    """Region sizes and pairwise intersections from one sort of the pixels.

    Every pixel's (gt, ms) pair is one int64 key; the counts of the distinct
    keys give the overlaps and, summed per label, both sides' region sizes.
    Background (label 0) is excluded on both sides.
    """
    if gt.labels.shape != ms.labels.shape:
        raise ValueError("ground truth and machine maps differ in size")
    base = int(ms.labels.max()) + 1
    # int32 labels on both sides keep every key below 2**62, exact in int64
    keys, counts = np.unique(gt.labels.astype(np.int64) * base + ms.labels, return_counts=True)
    g, m = np.divmod(keys, base)
    order = np.argsort(m, kind="stable")
    both = (g > 0) & (m > 0)
    pairs = zip(g[both].tolist(), m[both].tolist(), counts[both].tolist())
    return OverlapTable(
        gt_sizes=_sizes(g, counts),
        ms_sizes=_sizes(m[order], counts[order]),
        overlaps={(i, j): c for i, j, c in pairs},
    )


def _instances(overlaps, own_sizes, other_sizes, free_own: set[int], free_other: set[int], T: Fraction) -> list:
    """Over-segmentation instances among the free regions, scanning ``own``
    ids ascending; with the gt and ms sides swapped, under-segmentation.

    An own region takes every free other region with at least T of its
    pixels inside it, when there are two or more and together they cover T
    of it.  The regions taken leave ``free_own`` and ``free_other``.
    """
    p, q = T.numerator, T.denominator
    shares: dict[int, list[tuple[int, int]]] = {}
    for (a, b), ov in overlaps:
        if ov * q >= p * other_sizes[b]:
            shares.setdefault(a, []).append((b, ov))
    found = []
    for a in sorted(free_own):
        members = sorted((b, ov) for b, ov in shares.get(a, ()) if b in free_other)
        if len(members) >= 2 and sum(ov for _, ov in members) * q >= p * own_sizes[a]:
            ids = tuple(b for b, _ in members)
            found.append((a, ids))
            free_own.remove(a)
            free_other.difference_update(ids)
    return found


def hoover_classify(table: OverlapTable, threshold: float | Fraction = 0.5) -> HooverClassification:
    """Greedy region classification at overlap threshold T in (0, 1].

    Priority is correct > over-segmentation > under-segmentation; each
    region participates in at most one instance.  Candidate correct pairs
    are taken in decreasing overlap (ties: smaller gt id, then ms id);
    over instances scan gt ids ascending, under instances ms ids ascending.
    """
    T = _as_fraction(threshold)
    gt_sizes, ms_sizes, overlaps = table.gt_sizes, table.ms_sizes, table.overlaps
    free_gt = set(gt_sizes)
    free_ms = set(ms_sizes)
    result = HooverClassification()

    # ov >= T * size exactly, in integers: ov * q >= p * size with T = p / q
    p, q = T.numerator, T.denominator
    candidates = [
        (ov, gi, mi)
        for (gi, mi), ov in overlaps.items()
        if ov * q >= p * ms_sizes[mi] and ov * q >= p * gt_sizes[gi]
    ]
    candidates.sort(key=lambda it: (-it[0], it[1], it[2]))
    for ov, gi, mi in candidates:
        if gi in free_gt and mi in free_ms:
            result.correct_pairs.append((gi, mi))
            free_gt.remove(gi)
            free_ms.remove(mi)

    result.over_instances = _instances(overlaps.items(), gt_sizes, ms_sizes, free_gt, free_ms, T)
    swapped = (((mi, gi), ov) for (gi, mi), ov in overlaps.items())
    result.under_instances = _instances(swapped, ms_sizes, gt_sizes, free_ms, free_gt, T)
    result.missed_gt = sorted(free_gt)
    result.noise_ms = sorted(free_ms)
    return result


def hoover_bruteforce(table: OverlapTable, threshold: float | Fraction = 0.5) -> HooverClassification:
    """Exhaustive-enumeration oracle for :func:`hoover_classify`.

    Enumerates every subset satisfying the instance conditions instead of
    constructing the maximal set directly, then applies the same greedy
    priority.  Limited to 6 regions per side.
    """
    if len(table.gt_sizes) > 6 or len(table.ms_sizes) > 6:
        raise ValueError("instance too large for brute-force enumeration")
    T = _as_fraction(threshold)
    gt_sizes, ms_sizes, overlaps = table.gt_sizes, table.ms_sizes, table.overlaps

    def ov(gi: int, mi: int) -> int:
        return overlaps.get((gi, mi), 0)

    free_gt = set(gt_sizes)
    free_ms = set(ms_sizes)
    result = HooverClassification()

    # correct pairs: enumerate every pair, then greedy by overlap
    candidates = [
        (ov(gi, mi), gi, mi)
        for gi in sorted(gt_sizes)
        for mi in sorted(ms_sizes)
        if ov(gi, mi) >= T * ms_sizes[mi] and ov(gi, mi) >= T * gt_sizes[gi]
    ]
    candidates.sort(key=lambda it: (-it[0], it[1], it[2]))
    for _, gi, mi in candidates:
        if gi in free_gt and mi in free_ms:
            result.correct_pairs.append((gi, mi))
            free_gt.remove(gi)
            free_ms.remove(mi)

    def instances(own_sizes: dict[int, int], other_sizes: dict[int, int], free_own, free_other, pair) -> list:
        """Each free own region with the one maximal subset of free other
        regions meeting the instance conditions; with the sides swapped,
        under-segmentation."""
        found = []
        for own in sorted(free_own):
            pool = sorted(free_other)
            subsets = [
                subset
                for r in range(2, len(pool) + 1)
                for subset in combinations(pool, r)
                if all(pair(own, other) >= T * other_sizes[other] for other in subset)
                and sum(pair(own, other) for other in subset) >= T * own_sizes[own]
            ]
            if subsets:
                # maximal qualifying subset: not contained in any other
                maximal = [s for s in subsets if not any(set(s) < set(o) for o in subsets)]
                assert len(maximal) == 1
                found.append((own, maximal[0]))
                free_own.remove(own)
                free_other.difference_update(maximal[0])
        return found

    result.over_instances = instances(gt_sizes, ms_sizes, free_gt, free_ms, ov)
    result.under_instances = instances(ms_sizes, gt_sizes, free_ms, free_gt, lambda mi, gi: ov(gi, mi))
    result.missed_gt = sorted(free_gt)
    result.noise_ms = sorted(free_ms)
    return result


def hoover_scores(
    classification: HooverClassification,
    n_gt: int,
    n_ms: int,
    threshold: float | Fraction = 0.5,
) -> HooverScores:
    """Normalise classification counts into the five scores.

    ``n_gt`` and ``n_ms`` are integers (not bools) equal to the regions the
    classification places on each side: gt in correct pairs, over instances,
    under-instance members and missed; ms in correct pairs, over-instance
    members, under instances and noise.  Ground-truth-side fractions use
    n_gt; the noise fraction uses n_ms (0 when there are no machine regions).
    """
    _check_field("n_gt", n_gt, int, {})
    _check_field("n_ms", n_ms, int, {})
    if n_gt <= 0:
        raise ValueError("ground truth has no regions")
    T = _as_fraction(threshold)
    correct = len(classification.correct_pairs)
    over = len(classification.over_instances)
    under = sum(len(members) for _, members in classification.under_instances)
    missed = len(classification.missed_gt)
    noise = len(classification.noise_ms)
    over_members = sum(len(members) for _, members in classification.over_instances)
    placed_ms = correct + over_members + len(classification.under_instances) + noise
    for name, n, placed in (("n_gt", n_gt, correct + over + under + missed), ("n_ms", n_ms, placed_ms)):
        if n != placed:
            raise ValueError(f"{name} must equal the {placed} regions the classification places on its side, got {n}")

    # the four gt-side counts sum to n_gt, so their fractions sum to 1 exactly
    return HooverScores(
        correct_detection=Fraction(correct, n_gt),
        over_segmentation=Fraction(over, n_gt),
        under_segmentation=Fraction(under, n_gt),
        missed=Fraction(missed, n_gt),
        noise=Fraction(noise, n_ms) if n_ms > 0 else Fraction(0),
        correct_count=correct,
        over_count=over,
        under_count=under,
        missed_count=missed,
        noise_count=noise,
        n_gt=n_gt,
        n_ms=n_ms,
        threshold=T,
    )


def _evaluate(
    gt: LabelMap, ms: LabelMap, threshold: float | Fraction
) -> tuple[HooverClassification, HooverScores]:
    """Overlap table, classification and scores: the one scoring path of
    :func:`evaluate_segmentation` and the ``evaluate`` command.  Region
    counts come from the table."""
    T = _as_fraction(threshold)
    table = overlap_table(gt, ms)
    classification = hoover_classify(table, T)
    return classification, hoover_scores(classification, len(table.gt_sizes), len(table.ms_sizes), T)


def evaluate_segmentation(
    gt: LabelMap, ms: LabelMap, threshold: float | Fraction = 0.5
) -> HooverScores:
    """Overlap table, classification and scores in one call."""
    return _evaluate(gt, ms, threshold)[1]
