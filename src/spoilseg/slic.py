"""SLIC superpixel clustering in the joint (L, a, b, x, y) space.

Cluster centers start on a regular grid of step S = round(sqrt(N/k)), are
nudged to the lowest-gradient pixel of their 3x3 neighbourhood, then iterate
windowed assignment / mean update.  The distance is
D = sqrt(d_lab^2 + (d_xy / S)^2 * m^2) with compactness weight m.  A final
connectivity pass absorbs fragments below a quarter of the nominal
superpixel area into the neighbour sharing the longest boundary.

The assignment kernel works on the image split once per call into
contiguous L, a, b planes, which also feed the center update.  It builds
each window's distances in place in the same floating-point order as the
plain (h, w, 3) window loop, so its labels are bit-identical to that loop,
which tests/oracles.py keeps as ``slic_assign_loop``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import LabelMap, LabImage, _check_params, _param
from .labels import merge_small_regions


@dataclass
class SlicParams:
    superpixels: int = _param(550, ge=1)
    compactness: float = _param(30.0, gt=0, lt=math.inf)
    iterations: int = _param(10, ge=1)
    min_region_size: int | None = _param(None, ge=1)  # None: quarter of the nominal area

    __post_init__ = _check_params


_NEIGHBOURS = np.array([(0, 0)] + [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if dy or dx])
_ORPHAN_BLOCK_CELLS = 1 << 18  # (orphan, center) distances held at once by the fallback


def _split_planes(lab: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Contiguous float64 L, a, b planes of an (h, w, 3) image."""
    return tuple(np.ascontiguousarray(lab[..., c], dtype=np.float64) for c in range(3))


def _seed_centers(lab: np.ndarray, step: int) -> np.ndarray:
    """Initial (L, a, b, x, y) centers on an even grid, moved off gradients.

    A center moves to a 3x3 neighbour only when that pixel has strictly
    lower gradient (the first such in scan order on ties), so uniform
    images keep the exact grid.
    """
    h, w, _ = lab.shape
    ny = max(1, round(h / step))
    nx = max(1, round(w / step))
    cys = np.floor((np.arange(ny) + 0.5) * h / ny).astype(np.int64)
    cxs = np.floor((np.arange(nx) + 0.5) * w / nx).astype(np.int64)

    # candidate 0 is the grid cell itself, so argmin's first-minimum rule
    # moves a center only on a strictly lower gradient
    ys = cys[None, :, None] + _NEIGHBOURS[:, 0, None, None]
    xs = cxs[None, None, :] + _NEIGHBOURS[:, 1, None, None]
    inside = (ys >= 0) & (ys < h) & (xs >= 0) & (xs < w)
    ys, xs = ys.clip(0, h - 1), xs.clip(0, w - 1)
    # edge-replicated central differences, taken at the candidates only
    dx = lab[ys, np.minimum(xs + 1, w - 1)] - lab[ys, np.maximum(xs - 1, 0)]
    dy = lab[np.minimum(ys + 1, h - 1), xs] - lab[np.maximum(ys - 1, 0), xs]
    cand = np.where(inside, (dx**2).sum(axis=-1) + (dy**2).sum(axis=-1), np.inf)
    cand[1:][np.isnan(cand[1:])] = np.inf  # a NaN neighbour never compares lower
    pick = cand.argmin(axis=0)
    best_y = (cys[:, None] + _NEIGHBOURS[pick, 0]).ravel()
    best_x = (cxs[None, :] + _NEIGHBOURS[pick, 1]).ravel()
    return np.column_stack([lab[best_y, best_x], best_x, best_y]).astype(np.float64)


def _assign_planes(planes: tuple[np.ndarray, ...], centers: np.ndarray, step: int, compactness: float) -> np.ndarray:
    """slic_assign over split L, a, b planes (see _split_planes)."""
    lp, ap, bp = planes
    h, w = lp.shape
    best_d2 = np.full((h, w), np.inf)
    assign = np.full((h, w), -1, dtype=np.int64)
    m2_s2 = (compactness / step) ** 2
    xs = np.arange(w, dtype=np.float64)
    ys = np.arange(h, dtype=np.float64)
    side = 2 * step + 1
    d2_buf, tmp_buf = np.empty((side, side)), np.empty((side, side))
    better_buf = np.empty((side, side), dtype=bool)

    for ci, (L, a, b, cx, cy) in enumerate(centers.tolist()):
        y0, y1 = max(0, int(cy) - step), min(h, int(cy) + step + 1)
        x0, x1 = max(0, int(cx) - step), min(w, int(cx) + step + 1)
        if y0 >= y1 or x0 >= x1:
            continue
        win = (slice(y0, y1), slice(x0, x1))
        d2 = d2_buf[: y1 - y0, : x1 - x0]
        tmp = tmp_buf[: y1 - y0, : x1 - x0]
        # ((dL^2 + da^2) + db^2): the order of a 3-element sum over the last axis
        np.square(np.subtract(lp[win], L, out=d2), out=d2)
        d2 += np.square(np.subtract(ap[win], a, out=tmp), out=tmp)
        d2 += np.square(np.subtract(bp[win], b, out=tmp), out=tmp)
        np.add((xs[x0:x1] - cx) ** 2, ((ys[y0:y1] - cy) ** 2)[:, None], out=tmp)
        tmp *= m2_s2
        d2 += tmp
        better = np.less(d2, best_d2[win], out=better_buf[: y1 - y0, : x1 - x0])
        np.copyto(assign[win], ci, where=better)
        np.copyto(best_d2[win], d2, where=better)

    oy, ox = np.nonzero(assign < 0)
    rows = max(1, _ORPHAN_BLOCK_CELLS // max(1, len(centers)))
    for i in range(0, len(oy), rows):
        y, x = oy[i : i + rows, None], ox[i : i + rows, None]
        d_lab2 = (centers[:, 0] - lp[y, x]) ** 2 + (centers[:, 1] - ap[y, x]) ** 2 + (centers[:, 2] - bp[y, x]) ** 2
        d_xy2 = (centers[:, 3] - x) ** 2 + (centers[:, 4] - y) ** 2
        assign[y[:, 0], x[:, 0]] = np.argmin(d_lab2 + d_xy2 * m2_s2, axis=1)
    return assign


def slic_assign(
    lab: np.ndarray, centers: np.ndarray, step: int, compactness: float
) -> np.ndarray:
    """One SLIC assignment sweep: label each pixel with its minimal-D center.

    Each center competes only inside its (2S+1)-sided window; pixels claimed
    by no window fall back to an exhaustive search.  Ties keep the
    lower-index center.  Returns 0-based center indices shaped like the image.
    """
    return _assign_planes(_split_planes(lab), centers, step, compactness)


def _cluster(lab: np.ndarray, p: SlicParams) -> np.ndarray:
    """Seed, then alternate assignment and center update: int32 labels 1..k.

    Kept apart from :func:`slic` so the planes, pixel grids and assignment
    buffers are freed before the small regions merge.
    """
    h, w, _ = lab.shape
    step = max(1, round(math.sqrt(h * w / p.superpixels)))
    centers = _seed_centers(lab, step)
    planes = _split_planes(lab)
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)

    assign = _assign_planes(planes, centers, step, p.compactness)
    for _ in range(p.iterations - 1):
        counts = np.bincount(assign.ravel(), minlength=len(centers)).astype(np.float64)
        nonempty = counts > 0
        for col, feat in enumerate([*planes, xs, ys]):
            sums = np.bincount(assign.ravel(), weights=feat.ravel(), minlength=len(centers))
            centers[nonempty, col] = sums[nonempty] / counts[nonempty]
        del assign  # not held while the next sweep builds its own
        assign = _assign_planes(planes, centers, step, p.compactness)
    labels = assign.astype(np.int32)
    labels += 1
    return labels


def slic(img: LabImage, params: SlicParams | None = None) -> LabelMap:
    """SLIC superpixels: labels 1..K, every region one connected component."""
    p = params if params is not None else SlicParams()
    n = img.width * img.height
    if p.superpixels > n:
        raise ValueError("superpixel count exceeds pixel count")

    labels = _cluster(img.values, p)
    min_size = p.min_region_size
    if min_size is None:
        min_size = max(1, (n // p.superpixels) // 4)
    return merge_small_regions(LabelMap(labels), min_size)
