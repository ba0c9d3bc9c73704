"""Seeded Voronoi segmentation of bright mounds on a dark background.

Pipeline stages: Gaussian noise reduction, local-maxima seed detection,
Otsu foreground masking, background seed removal, and nearest-seed
(Voronoi) labelling, optionally clipped to the foreground.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .grids import GrayImage, LabelMap, ScalarGrid, _check_params, _param


@dataclass
class VoronoiParams:
    sigma: float = _param(12.0, gt=0)
    peak_radius: int | None = _param(None, ge=1)  # None: ceil(sigma)
    restrict_to_foreground: bool = True
    invert_foreground: bool = False

    __post_init__ = _check_params


@dataclass
class SeedSet:
    """Seed points as parallel coordinate arrays plus 8-bit intensities."""

    xs: np.ndarray
    ys: np.ndarray
    intensities: np.ndarray

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=np.int64)
        ys = np.asarray(self.ys, dtype=np.int64)
        it = np.asarray(self.intensities, dtype=np.int64)
        if not (xs.shape == ys.shape == it.shape) or xs.ndim != 1:
            raise ValueError("seed arrays must be 1-D and equally long")
        if xs.size and len({(int(x), int(y)) for x, y in zip(xs, ys)}) != xs.size:
            raise ValueError("duplicate seed coordinates")
        self.xs, self.ys, self.intensities = xs, ys, it

    def __len__(self) -> int:
        return int(self.xs.size)


def gaussian_blur(img: GrayImage, sigma: float) -> ScalarGrid:
    """Separable Gaussian blur, kernel truncated at radius ceil(3*sigma).

    The sampled kernel is normalised to sum 1 so constants are preserved;
    borders replicate the edge pixel.  Output stays floating point.
    """
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    radius = math.ceil(3.0 * sigma)
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(offsets**2) / (2.0 * sigma**2))
    kernel /= kernel.sum()
    out = ndimage.correlate1d(img.values.astype(np.float64), kernel, axis=1, mode="nearest")
    out = ndimage.correlate1d(out, kernel, axis=0, mode="nearest")
    return ScalarGrid(out)


def detect_local_maxima(grid: ScalarGrid, peak_radius: int) -> SeedSet:
    """Seeds at regional maxima of the grid.

    A pixel qualifies when it is >= every neighbour within Chebyshev distance
    peak_radius.  Equal-valued adjacent candidates form a plateau that yields
    one seed at the member pixel nearest the plateau centroid.  Seeds are then
    accepted in decreasing intensity (ties: scan order) while suppressing any
    candidate within peak_radius (Chebyshev) of an accepted seed.
    """
    if peak_radius < 1:
        raise ValueError("peak_radius must be >= 1")
    v = grid.values
    if grid.nodata is not None:
        v = np.where(grid.nodata_mask, -np.inf, v)
    size = 2 * peak_radius + 1
    candidates = v == ndimage.maximum_filter(v, size=size, mode="nearest")
    if grid.nodata is not None:
        candidates &= ~grid.nodata_mask

    # adjacent candidates are always equal-valued, so plateaus are plain
    # 8-connected components of the candidate mask
    comp = ndimage.label(candidates, structure=np.ones((3, 3), dtype=bool))[0]
    py, px = np.nonzero(comp)
    ids = comp[py, px]
    sizes = np.bincount(ids)[ids]
    cy = np.bincount(ids, weights=py)[ids] / sizes
    cx = np.bincount(ids, weights=px)[ids] / sizes
    # per plateau, the member nearest its centroid; ties go to the first in scan order
    order = np.lexsort(((py - cy) ** 2 + (px - cx) ** 2, ids))
    first = order[np.flatnonzero(np.diff(ids[order], prepend=0))]
    plateau_seeds = sorted((-v[y, x], int(y), int(x)) for y, x in zip(py[first], px[first]))

    h, w = v.shape
    blocked = np.zeros((h, w), dtype=bool)
    xs, ys, intensities = [], [], []
    for neg_val, y, x in plateau_seeds:
        if blocked[y, x]:
            continue
        xs.append(x)
        ys.append(y)
        intensities.append(int(min(255, max(0, math.floor(-neg_val + 0.5)))))
        blocked[
            max(0, y - peak_radius) : y + peak_radius + 1,
            max(0, x - peak_radius) : x + peak_radius + 1,
        ] = True
    return SeedSet(np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64), np.array(intensities, dtype=np.int64))


def otsu_threshold(img: GrayImage) -> tuple[int, np.ndarray]:
    """Threshold maximising between-class variance over the 256-bin histogram.

    Returns (t, mask) where mask marks foreground pixels with value > t.
    Ties pick the smallest threshold.
    """
    hist = np.bincount(img.values.ravel(), minlength=256).astype(np.float64)
    if np.count_nonzero(hist) < 2:
        raise ValueError("constant image: no threshold separates two classes")
    total = hist.sum()
    levels = np.arange(256, dtype=np.float64)
    w0 = np.cumsum(hist)
    w1 = total - w0
    sum0 = np.cumsum(hist * levels)
    sum_all = sum0[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        mu0 = sum0 / w0
        mu1 = (sum_all - sum0) / w1
        var = w0 * w1 * (mu0 - mu1) ** 2
    var[(w0 == 0) | (w1 == 0)] = 0.0
    t = int(np.argmax(var))
    return t, img.values > t


def filter_background_seeds(seeds: SeedSet, mask: np.ndarray) -> SeedSet:
    """Keep only the seeds whose pixel is foreground in the mask."""
    if seeds.xs.size == 0:
        return seeds
    keep = mask[seeds.ys, seeds.xs]
    return SeedSet(seeds.xs[keep], seeds.ys[keep], seeds.intensities[keep])


def voronoi_label(
    seeds: SeedSet, width: int, height: int, mask: np.ndarray | None = None
) -> LabelMap:
    """Label each pixel by its nearest seed (Euclidean); seed i gets label i+1.

    Exact squared integer distances decide ties toward the lower seed index.
    With a mask, only foreground pixels are labelled; background stays 0.
    """
    if len(seeds) == 0:
        raise ValueError("empty seed set")
    if seeds.xs.min() < 0 or seeds.xs.max() >= width or seeds.ys.min() < 0 or seeds.ys.max() >= height:
        raise ValueError("seed coordinates out of bounds")
    if mask is None:
        yy, xx = np.mgrid[0:height, 0:width]
        yy, xx = yy.ravel(), xx.ravel()
    else:
        yy, xx = np.nonzero(mask)
    labels = np.zeros((height, width), dtype=np.int32)
    if yy.size == 0:
        return LabelMap(labels)

    best_d2 = np.full(yy.size, np.iinfo(np.int64).max, dtype=np.int64)
    best = np.zeros(yy.size, dtype=np.int32)
    for i, (sx, sy) in enumerate(zip(seeds.xs, seeds.ys)):
        d2 = (xx - sx) ** 2 + (yy - sy) ** 2
        closer = d2 < best_d2
        best[closer] = i + 1
        best_d2[closer] = d2[closer]
    labels[yy, xx] = best
    return LabelMap(labels)


def _requantize8(grid: ScalarGrid) -> GrayImage:
    q = np.floor(np.clip(grid.values, 0.0, 255.0) + 0.5)
    return GrayImage(np.minimum(q, 255.0).astype(np.uint8))


def voronoi_pipeline(img: GrayImage, params: VoronoiParams | None = None) -> LabelMap:
    """Blur, detect seeds, mask the background, and tessellate.

    A blurred image with no contrast (or one whose surviving seed set is
    empty) yields an all-background map rather than an error.
    """
    p = params if params is not None else VoronoiParams()
    radius = p.peak_radius if p.peak_radius is not None else math.ceil(p.sigma)
    blurred = gaussian_blur(img, p.sigma)
    seeds = detect_local_maxima(blurred, radius)
    quantized = _requantize8(blurred)
    if np.all(quantized.values == quantized.values.flat[0]):
        return LabelMap(np.zeros((img.height, img.width), dtype=np.int32))
    _, mask = otsu_threshold(quantized)
    if p.invert_foreground:
        mask = ~mask
    surviving = filter_background_seeds(seeds, mask)
    if len(surviving) == 0:
        return LabelMap(np.zeros((img.height, img.width), dtype=np.int32))
    return voronoi_label(
        surviving, img.width, img.height, mask if p.restrict_to_foreground else None
    )
