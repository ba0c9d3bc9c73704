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

# Voronoi labelling works on _TILE × _TILE tiles.  On a 1000² hillshade, 16
# was 1.7–2.8× slower at sigma 20 and 10, and 64 was 2.7–3.7× slower at sigma ≤ 2.
_TILE = 32
# Most (candidate seed, tile pixel) squared distances held at once.
_BLOCK_CELLS = 1 << 18


@dataclass
class VoronoiParams:
    sigma: float = _param(12.0, gt=0, lt=math.inf)
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
        # in (y, x) order a duplicate sits next to its twin
        order = np.lexsort((xs, ys))
        sx, sy = xs[order], ys[order]
        if np.any((sx[1:] == sx[:-1]) & (sy[1:] == sy[:-1])):
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


def _any_outside(seeds: SeedSet, height: int, width: int) -> bool:
    """Whether a seed lies outside a ``height`` × ``width`` raster."""
    xs, ys = seeds.xs, seeds.ys
    return xs.size > 0 and bool(xs.min() < 0 or xs.max() >= width or ys.min() < 0 or ys.max() >= height)


def filter_background_seeds(seeds: SeedSet, mask: np.ndarray) -> SeedSet:
    """Keep only the seeds whose pixel is foreground in the mask (a 2-D bool
    array covering every seed)."""
    mask = np.asarray(mask)
    if mask.ndim != 2 or mask.dtype != bool or _any_outside(seeds, *mask.shape):
        raise ValueError("mask must be a 2-D bool array covering every seed")
    keep = mask[seeds.ys, seeds.xs]
    return SeedSet(seeds.xs[keep], seeds.ys[keep], seeds.intensities[keep])


def voronoi_label(
    seeds: SeedSet, width: int, height: int, mask: np.ndarray | None = None
) -> LabelMap:
    """Label each pixel by its nearest seed (Euclidean); seed i gets label i+1.

    Exact squared integer distances decide ties toward the lower seed index.
    With a mask (bool, shaped (height, width)), only foreground pixels are
    labelled; background stays 0.

    Works one ``_TILE`` × ``_TILE`` tile at a time, comparing each tile only
    with the seeds that can win or tie somewhere in it.
    """
    if len(seeds) == 0:
        raise ValueError("empty seed set")
    if _any_outside(seeds, height, width):
        raise ValueError("seed coordinates out of bounds")
    if mask is not None:
        mask = np.asarray(mask)
        if mask.shape != (height, width) or mask.dtype != bool:
            raise ValueError(f"mask must be a bool array of shape ({height}, {width})")
    sx, sy = seeds.xs, seeds.ys
    labels = np.zeros((height, width), dtype=np.int32)
    for y0 in range(0, height, _TILE):
        y1 = min(y0 + _TILE, height)
        ys = np.arange(y0, y1)
        # squared row distances from each seed to the nearest and farthest tile row
        dy_near = np.maximum(np.maximum(y0 - sy, sy - (y1 - 1)), 0) ** 2
        dy_far = np.maximum(sy - y0, (y1 - 1) - sy) ** 2
        for x0 in range(0, width, _TILE):
            x1 = min(x0 + _TILE, width)
            fg = None if mask is None else mask[y0:y1, x0:x1]
            if fg is not None and not fg.any():
                continue
            d_near = dy_near + np.maximum(np.maximum(x0 - sx, sx - (x1 - 1)), 0) ** 2
            d_far = dy_far + np.maximum(sx - x0, (x1 - 1) - sx) ** 2
            # a seed whose nearest tile point lies beyond some seed's farthest
            # one is strictly farther at every tile pixel: it can neither win nor tie
            cand = np.flatnonzero(d_near <= d_far.min())
            best = _nearest_in_tile(sx[cand], sy[cand], np.arange(x0, x1), ys)
            tile = (cand[best] + 1).astype(np.int32)
            labels[y0:y1, x0:x1] = tile if fg is None else np.where(fg, tile, 0)
    return LabelMap(labels)


def _nearest_in_tile(cx: np.ndarray, cy: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Per pixel of the xs × ys tile, the position in (cx, cy) of the nearest seed.

    Candidates are taken in blocks of at most ``_BLOCK_CELLS`` distance cells;
    within a block ``argmin`` keeps the first minimum and across blocks only a
    strictly smaller distance replaces it, so ties go to the lowest position.
    """
    block = max(1, _BLOCK_CELLS // (xs.size * ys.size))

    def distances(lo: int) -> np.ndarray:
        bx, by = cx[lo : lo + block, None, None], cy[lo : lo + block, None, None]
        return (xs[None, None, :] - bx) ** 2 + (ys[None, :, None] - by) ** 2

    d2 = distances(0)
    best = d2.argmin(axis=0)
    if cx.size <= block:
        return best
    best_d2 = np.take_along_axis(d2, best[None], axis=0)[0]
    for lo in range(block, cx.size, block):
        d2 = distances(lo)
        i = d2.argmin(axis=0)
        i_d2 = np.take_along_axis(d2, i[None], axis=0)[0]
        closer = i_d2 < best_d2
        best[closer] = i[closer] + lo
        best_d2[closer] = i_d2[closer]
    return best


def voronoi_pipeline(img: GrayImage, params: VoronoiParams | None = None) -> LabelMap:
    """Blur, detect seeds, mask the background, and tessellate.

    A blurred image with no contrast (or one whose surviving seed set is
    empty) yields an all-background map rather than an error.
    """
    p = params if params is not None else VoronoiParams()
    radius = p.peak_radius if p.peak_radius is not None else math.ceil(p.sigma)
    blurred = gaussian_blur(img, p.sigma)
    seeds = detect_local_maxima(blurred, radius)
    quantized = GrayImage(np.floor(np.clip(blurred.values, 0.0, 255.0) + 0.5).astype(np.uint8))
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
