"""Mean shift filtering and segmentation in joint spatial-colour space.

Each pixel is a point (x, y, r, g, b).  Filtering repeatedly moves a query
point to the arithmetic mean of the original pixels lying within the flat
joint kernel: spatial Euclidean distance <= spatial_radius AND colour
Euclidean distance <= range_radius.  Segmentation links 4-adjacent pixels
whose converged modes are close in both subspaces, then fuses regions below
the minimum size into their most colour-similar neighbour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import LabelMap, RasterRGB
from .labels import _pixel_components, merge_small_regions


@dataclass
class MeanShiftParams:
    spatial_radius: float = 5.0
    range_radius: float = 20.0
    min_region_size: int = 10000
    convergence_eps: float = 0.01
    max_iterations: int = 50

    def __post_init__(self) -> None:
        if not self.spatial_radius >= 1:
            raise ValueError("spatial_radius must be >= 1")
        if not self.range_radius > 0:
            raise ValueError("range_radius must be positive")
        if not self.min_region_size >= 1:
            raise ValueError("min_region_size must be >= 1")
        if not self.convergence_eps > 0:
            raise ValueError("convergence_eps must be positive")
        if not self.max_iterations >= 1:
            raise ValueError("max_iterations must be >= 1")


def _joint_points(img: RasterRGB) -> np.ndarray:
    h, w = img.height, img.width
    ys, xs = np.mgrid[0:h, 0:w]
    rgb = img.pixels.reshape(-1, 3).astype(np.float64)
    return np.column_stack([xs.ravel().astype(np.float64), ys.ravel().astype(np.float64), rgb])


def _spatial_bins(points: np.ndarray, cell: float) -> dict[tuple[int, int], np.ndarray]:
    """Bucket point indices by floor(position / cell) for radius queries."""
    bx = np.floor(points[:, 0] / cell).astype(np.int64)
    by = np.floor(points[:, 1] / cell).astype(np.int64)
    order = np.lexsort((bx, by))
    bins: dict[tuple[int, int], np.ndarray] = {}
    keys = np.column_stack([by[order], bx[order]])
    start = 0
    for i in range(1, len(order) + 1):
        if i == len(order) or keys[i, 0] != keys[start, 0] or keys[i, 1] != keys[start, 1]:
            bins[(int(keys[start, 0]), int(keys[start, 1]))] = order[start:i]
            start = i
    return bins


def _candidates(bins: dict, x: float, y: float, cell: float) -> np.ndarray:
    bx, by = int(np.floor(x / cell)), int(np.floor(y / cell))
    chunks = [
        bins[(j, i)]
        for j in range(by - 1, by + 2)
        for i in range(bx - 1, bx + 2)
        if (j, i) in bins
    ]
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks)


def _shift_once(
    points: np.ndarray, bins: dict, current: np.ndarray, p: MeanShiftParams
) -> tuple[np.ndarray, float]:
    """One mean shift step; returns (next point, normalised displacement)."""
    cand = _candidates(bins, current[0], current[1], p.spatial_radius)
    if cand.size == 0:
        return current, 0.0
    sub = points[cand]
    d2_sp = ((sub[:, :2] - current[:2]) ** 2).sum(axis=1)
    d2_rg = ((sub[:, 2:] - current[2:]) ** 2).sum(axis=1)
    inside = (d2_sp <= p.spatial_radius**2) & (d2_rg <= p.range_radius**2)
    if not inside.any():
        return current, 0.0
    nxt = sub[inside].mean(axis=0)
    delta = nxt - current
    disp = float(
        np.sqrt(
            (delta[:2] ** 2).sum() / p.spatial_radius**2
            + (delta[2:] ** 2).sum() / p.range_radius**2
        )
    )
    return nxt, disp


def mean_shift_trajectory(
    img: RasterRGB, p: MeanShiftParams, x: int, y: int
) -> list[np.ndarray]:
    """Iterate sequence for one pixel: start point plus every visited point."""
    points = _joint_points(img)
    bins = _spatial_bins(points, p.spatial_radius)
    current = points[y * img.width + x].copy()
    path = [current.copy()]
    for _ in range(p.max_iterations):
        current, disp = _shift_once(points, bins, current, p)
        path.append(current.copy())
        if disp < p.convergence_eps:
            break
    return path


def mean_shift_filter(img: RasterRGB, p: MeanShiftParams | None = None) -> np.ndarray:
    """Converged (x, y, r, g, b) mode per pixel, shaped (height, width, 5)."""
    p = p if p is not None else MeanShiftParams()
    points = _joint_points(img)
    bins = _spatial_bins(points, p.spatial_radius)
    modes = np.empty_like(points)
    for i in range(points.shape[0]):
        current = points[i].copy()
        for _ in range(p.max_iterations):
            current, disp = _shift_once(points, bins, current, p)
            if disp < p.convergence_eps:
                break
        modes[i] = current
    return modes.reshape(img.height, img.width, 5)


def _link_components(modes: np.ndarray, p: MeanShiftParams) -> np.ndarray:
    """Connected components over 4-adjacent pixels with nearby modes, 1..K."""

    def linked(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        d2_sp = ((a[..., :2] - b[..., :2]) ** 2).sum(axis=-1)
        d2_rg = ((a[..., 2:] - b[..., 2:]) ** 2).sum(axis=-1)
        return (d2_sp <= p.spatial_radius**2) & (d2_rg <= p.range_radius**2)

    nodes = np.ones(modes.shape[:2], dtype=bool)
    return _pixel_components(nodes, linked(modes[:, :-1], modes[:, 1:]), linked(modes[:-1], modes[1:]))


def mean_shift_segment(img: RasterRGB, p: MeanShiftParams | None = None) -> LabelMap:
    """Full mean shift segmentation: filter, cluster, fuse, relabel 1..K."""
    p = p if p is not None else MeanShiftParams()
    modes = mean_shift_filter(img, p)
    comp = _link_components(modes, p)
    return merge_small_regions(LabelMap(comp), p.min_region_size, colors=modes[..., 2:])
