"""SLIC superpixel clustering in the joint (L, a, b, x, y) space.

Cluster centers start on a regular grid of step S = round(sqrt(N/k)), are
nudged to the lowest-gradient pixel of their 3x3 neighbourhood, then iterate
windowed assignment / mean update.  The distance is
D = sqrt(d_lab^2 + (d_xy / S)^2 * m^2) with compactness weight m.  A final
connectivity pass absorbs fragments below a quarter of the nominal
superpixel area into the neighbour sharing the longest boundary.
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
    compactness: float = _param(30.0, gt=0)
    iterations: int = _param(10, ge=1)
    min_region_size: int | None = _param(None, ge=1)  # None: quarter of the nominal area

    __post_init__ = _check_params


def _seed_centers(lab: np.ndarray, step: int) -> np.ndarray:
    """Initial (L, a, b, x, y) centers on an even grid, moved off gradients.

    A center moves to a 3x3 neighbour only when that pixel has strictly
    lower gradient, so uniform images keep the exact grid.
    """
    h, w, _ = lab.shape
    ny = max(1, round(h / step))
    nx = max(1, round(w / step))
    cys = np.floor((np.arange(ny) + 0.5) * h / ny).astype(np.int64)
    cxs = np.floor((np.arange(nx) + 0.5) * w / nx).astype(np.int64)

    right = np.concatenate([lab[:, 1:], lab[:, -1:]], axis=1)
    left = np.concatenate([lab[:, :1], lab[:, :-1]], axis=1)
    down = np.concatenate([lab[1:, :], lab[-1:, :]], axis=0)
    up = np.concatenate([lab[:1, :], lab[:-1, :]], axis=0)
    grad = ((right - left) ** 2).sum(axis=2) + ((down - up) ** 2).sum(axis=2)

    centers = []
    for cy in cys:
        for cx in cxs:
            best_y, best_x = int(cy), int(cx)
            best_g = grad[best_y, best_x]
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    y, x = int(cy) + dy, int(cx) + dx
                    if 0 <= y < h and 0 <= x < w and grad[y, x] < best_g:
                        best_g = grad[y, x]
                        best_y, best_x = y, x
            centers.append([*lab[best_y, best_x], float(best_x), float(best_y)])
    return np.array(centers, dtype=np.float64)


def slic_assign(
    lab: np.ndarray, centers: np.ndarray, step: int, compactness: float
) -> np.ndarray:
    """One SLIC assignment sweep: label each pixel with its minimal-D center.

    Each center competes only inside its (2S+1)-sided window; pixels claimed
    by no window fall back to an exhaustive search.  Ties keep the
    lower-index center.  Returns 0-based center indices shaped like the image.
    """
    h, w, _ = lab.shape
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    best_d2 = np.full((h, w), np.inf)
    assign = np.full((h, w), -1, dtype=np.int64)
    m2_s2 = (compactness / step) ** 2

    for ci, (L, a, b, cx, cy) in enumerate(centers):
        y0, y1 = max(0, int(cy) - step), min(h, int(cy) + step + 1)
        x0, x1 = max(0, int(cx) - step), min(w, int(cx) + step + 1)
        if y0 >= y1 or x0 >= x1:
            continue
        win = lab[y0:y1, x0:x1]
        d_lab2 = ((win - np.array([L, a, b])) ** 2).sum(axis=2)
        d_xy2 = (xs[y0:y1, x0:x1] - cx) ** 2 + (ys[y0:y1, x0:x1] - cy) ** 2
        d2 = d_lab2 + d_xy2 * m2_s2
        better = d2 < best_d2[y0:y1, x0:x1]
        assign[y0:y1, x0:x1][better] = ci
        best_d2[y0:y1, x0:x1][better] = d2[better]

    orphans = assign < 0
    if orphans.any():
        oy, ox = np.nonzero(orphans)
        for y, x in zip(oy, ox):
            d_lab2 = ((centers[:, :3] - lab[y, x]) ** 2).sum(axis=1)
            d_xy2 = (centers[:, 3] - x) ** 2 + (centers[:, 4] - y) ** 2
            assign[y, x] = int(np.argmin(d_lab2 + d_xy2 * m2_s2))
    return assign


def slic(img: LabImage, params: SlicParams | None = None) -> LabelMap:
    """SLIC superpixels: labels 1..K, every region one connected component."""
    p = params if params is not None else SlicParams()
    lab = img.values
    h, w, _ = lab.shape
    n = h * w
    if p.superpixels > n:
        raise ValueError("superpixel count exceeds pixel count")

    step = max(1, round(math.sqrt(n / p.superpixels)))
    centers = _seed_centers(lab, step)
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)

    assign = slic_assign(lab, centers, step, p.compactness)
    for _ in range(p.iterations - 1):
        counts = np.bincount(assign.ravel(), minlength=len(centers)).astype(np.float64)
        nonempty = counts > 0
        feats = [lab[..., 0], lab[..., 1], lab[..., 2], xs, ys]
        for col, feat in enumerate(feats):
            sums = np.bincount(assign.ravel(), weights=feat.ravel(), minlength=len(centers))
            centers[nonempty, col] = sums[nonempty] / counts[nonempty]
        assign = slic_assign(lab, centers, step, p.compactness)

    min_size = p.min_region_size
    if min_size is None:
        min_size = max(1, (n // p.superpixels) // 4)
    return merge_small_regions(LabelMap(assign.astype(np.int32) + 1), min_size)
