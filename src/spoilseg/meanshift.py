"""Mean shift filtering and segmentation in joint spatial-colour space.

Each pixel is a point (x, y, r, g, b).  Filtering repeatedly moves a query
point to the arithmetic mean of the original pixels lying within the flat
joint kernel: spatial Euclidean distance <= spatial_radius AND colour
Euclidean distance <= range_radius.  Segmentation links 4-adjacent pixels
whose converged modes are close in both subspaces, then fuses regions below
the minimum size into their most colour-similar neighbour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fork import fork_map, worker_count
from .grids import LabelMap, RasterRGB, _check_params, _param
from .labels import _pixel_components, merge_small_regions


@dataclass
class MeanShiftParams:
    spatial_radius: float = _param(5.0, ge=1)
    range_radius: float = _param(20.0, gt=0)
    min_region_size: int = _param(10000, ge=1)
    convergence_eps: float = _param(0.01, gt=0)
    max_iterations: int = _param(50, ge=1)

    __post_init__ = _check_params


# Candidate cells one batch of query points may hold: about 80 bytes of
# temporaries per cell, so under 1 MB per batch (84 points at spatial_radius
# 5).  Twice as many ran slower on the 64x64 benchmark crops.
_BATCH_CELLS = 1 << 13

# Stencil cells x pixels still moving after their first step, from which
# the filter runs in interleaved pixel shards, one per usable core.  Counting
# every pixel forked on one-step noise, and lost (medians of 9 calls on a
# 2-core host, one core -> two: hs 1 at 256x256 37 -> 45 ms, hs 5 at 57x57
# 10 -> 22 ms).  The 64x64 benchmark crops keep about 4,050 of 4,096 pixels
# moving at hs 5, 25 % above.  Stepping every pixel before forking, to count
# exactly, slowed the benchmark's mean shift jobs; one batch estimates them.
_SHARD_CELLS = 5 << 16


def _square(radius: float) -> float:
    """``radius ** 2``, or inf where that overflows: such a radius works as inf does."""
    try:
        return radius**2
    except OverflowError:
        return math.inf


def _joint_points(img: RasterRGB) -> np.ndarray:
    h, w = img.height, img.width
    ys, xs = np.mgrid[0:h, 0:w]
    rgb = img.pixels.reshape(-1, 3).astype(np.float64)
    return np.column_stack([xs.ravel().astype(np.float64), ys.ravel().astype(np.float64), rgb])


def mean_shift_filter(img: RasterRGB, p: MeanShiftParams | None = None) -> np.ndarray:
    """Converged (x, y, r, g, b) mode per pixel, shaped (height, width, 5).

    Every pixel still moving takes one step per iteration, in batches of at
    most ``_BATCH_CELLS`` candidate cells.  A pixel stops once its
    normalised displacement falls below ``convergence_eps``, when its kernel
    holds no pixel, or after ``max_iterations`` steps.  A pixel's path reads
    only the original image and every sum in a step is a sum of integers, so
    the pixels split into interleaved shards (pixels k, k + n, ...), each
    run in its own forked process (``_SHARD_CELLS``), give the same bits.
    """
    p = p if p is not None else MeanShiftParams()
    h, w = img.height, img.width
    hs2, hr2 = _square(p.spatial_radius), _square(p.range_radius)
    # Candidates are one stencil of integer offsets around the rounded query
    # position: each cell whose nearest point to any query rounding to it is
    # within spatial_radius.  Offsets past the image size never land in it.
    r = min(math.ceil(min(p.spatial_radius, max(h, w))) + 1, max(h, w))
    oy, ox = np.mgrid[-r : r + 1, -r : r + 1]
    near = np.maximum(np.abs(ox) - 0.5, 0) ** 2 + np.maximum(np.abs(oy) - 0.5, 0) ** 2 <= hs2
    wp = w + 2 * r
    offsets = (oy * wp + ox)[near]
    ox, oy = ox[near].astype(np.float64), oy[near].astype(np.float64)
    # colour planes plus an in-image plane (1 inside, 0 in the padding),
    # padded by r so that every stencil cell of a query point can be read
    planes = np.zeros((4, h + 2 * r, wp), dtype=np.float32)
    planes[:3, r : r + h, r : r + w] = np.moveaxis(img.pixels, 2, 0)
    planes[3, r : r + h, r : r + w] = 1.0
    planes = planes.reshape(4, -1)

    def shift(cur: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One step for a batch of query points: next points, displacements."""
        rx, ry = np.rint(cur[:, 0]), np.rint(cur[:, 1])
        # rx - x is exact, so dx is (cell x - x) rounded once, as in the
        # per-pixel definition; the same holds for dy
        dx = (rx - cur[:, 0])[:, None] + ox
        dy = (ry - cur[:, 1])[:, None] + oy
        d2_sp = dx * dx + dy * dy
        cells = ((ry + r) * wp + (rx + r)).astype(np.int64)[:, None] + offsets
        rgbm = planes.take(cells, axis=1)
        dc = rgbm[:3] - cur[:, 2:].T[:, :, None]
        dc *= dc
        d2_rg = (dc[0] + dc[1]) + dc[2]
        weights = np.multiply((d2_sp <= hs2) & (d2_rg <= hr2), rgbm[3], dtype=np.float64)
        count = weights.sum(axis=1)
        # every sum is of integers, so exact, and sum / count equals np.mean
        sums = np.column_stack(
            [count * rx + weights @ ox, count * ry + weights @ oy, np.einsum("bk,cbk->bc", weights, rgbm[:3])]
        )
        nxt = np.where(count[:, None] > 0, sums / np.maximum(count, 1)[:, None], cur)
        m2 = nxt - cur
        m2 *= m2
        disp = np.sqrt((m2[:, 0] + m2[:, 1]) / hs2 + ((m2[:, 2] + m2[:, 3]) + m2[:, 4]) / hr2)
        return nxt, disp

    modes = _joint_points(img)
    batch = max(1, _BATCH_CELLS // offsets.size)
    # one batch of pixels spread over the image: how many one step leaves moving
    _, disp = shift(modes[:: -(-h * w // batch)])
    work = offsets.size * h * w * np.mean(~(disp < p.convergence_eps))
    n = worker_count(h * w) if p.max_iterations > 1 and work >= _SHARD_CELLS else 1

    def shard(k: int) -> np.ndarray:
        """Modes of pixels k, k + n, k + 2n, ...: the filter on those pixels alone."""
        out = modes[k::n]  # a view: shard 0 converges in place in the parent
        active = np.arange(len(out))
        for _ in range(p.max_iterations):
            if active.size == 0:
                break
            moving = []
            for start in range(0, active.size, batch):
                idx = active[start : start + batch]
                out[idx], disp = shift(out[idx])
                moving.append(idx[~(disp < p.convergence_eps)])
            active = np.concatenate(moving)
        return out

    for k, block in enumerate(fork_map(shard, n)):
        if k:
            modes[k::n] = block
    return modes.reshape(h, w, 5)


def _link_components(modes: np.ndarray, p: MeanShiftParams) -> np.ndarray:
    """Connected components over 4-adjacent pixels with nearby modes, 1..K."""

    def linked(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        d2_sp = ((a[..., :2] - b[..., :2]) ** 2).sum(axis=-1)
        d2_rg = ((a[..., 2:] - b[..., 2:]) ** 2).sum(axis=-1)
        return (d2_sp <= _square(p.spatial_radius)) & (d2_rg <= _square(p.range_radius))

    nodes = np.ones(modes.shape[:2], dtype=bool)
    return _pixel_components(nodes, linked(modes[:, :-1], modes[:, 1:]), linked(modes[:-1], modes[1:]))


def mean_shift_segment(img: RasterRGB, p: MeanShiftParams | None = None) -> LabelMap:
    """Full mean shift segmentation: filter, cluster, fuse, relabel 1..K."""
    p = p if p is not None else MeanShiftParams()
    modes = mean_shift_filter(img, p)
    comp = _link_components(modes, p)
    return merge_small_regions(LabelMap(comp), p.min_region_size, colors=modes[..., 2:])
