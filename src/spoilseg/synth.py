"""Synthetic pile-field fixtures: Gaussian mounds on a noisy floor.

Desk-scale stand-in for UAV survey data.  Mound centers sit on a jittered
regular grid; the ground truth labels every pixel within two standard
deviations of a mound center.  Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import LabelMap, ScalarGrid, _check_field

_TINY = float(np.finfo(np.float64).tiny)
_NOISE = 0.08  # the noise floor is uniform in [0, _NOISE); mounds have unit height


def _reach2(floor: float, sigma: float, gt_radius2: float) -> float:
    """Squared distance from a mound's center beyond which its unit-height
    term cannot change a bit of any cell, or inf where that cannot be shown.

    No cell falls below ``floor``, the lowest noise value, so a term under
    ``spacing(floor) / 2`` rounds away (round to nearest).  The reach aims at
    ``t = spacing(floor) / 8``, leaving 4x headroom for the rounding of
    ``exp`` and of the reach itself, and never falls inside the ground-truth
    disk.  A positive floor is at least ``_NOISE * 2**-53``, so ``t`` is a
    normal number far below 1.
    """
    two_s2 = 2.0 * sigma**2
    if not floor > 0 or two_s2 < _TINY:
        return math.inf
    t = float(np.spacing(floor)) / 8.0
    return max(gt_radius2, -two_s2 * math.log(t))


def synth_pilefield(
    rows: int,
    cols: int,
    n_bumps: int,
    bump_sigma: float,
    rng_seed: int,
) -> tuple[ScalarGrid, LabelMap]:
    """Generate (dsm, ground_truth) with ``n_bumps`` well-separated mounds.

    Mound supports (3 sigma disks) must stay inside the canvas and pairwise
    disjoint after jittering, otherwise the placement is rejected.  A
    ``bump_sigma`` so small that a mound's ground-truth disk holds no cell
    center is rejected too.

    Each mound is summed only over the box of cells within its reach
    (``_reach2``); the cells outside would not change by a bit, so the
    result equals summing every mound over the whole frame.
    """
    for name, value in (("rows", rows), ("cols", cols), ("n_bumps", n_bumps)):
        _check_field(name, value, int, {"ge": 1})
    _check_field("bump_sigma", bump_sigma, float, {"gt": 0, "lt": math.inf})
    _check_field("rng_seed", rng_seed, int, {"ge": 0})
    rng = np.random.default_rng(rng_seed)

    grid_rows = math.ceil(math.sqrt(n_bumps))
    grid_cols = math.ceil(n_bumps / grid_rows)
    spacing_y = rows / grid_rows
    spacing_x = cols / grid_cols
    jitter = min(spacing_y, spacing_x) / 8.0  # stays under the spacing/4 bound

    centers = []
    for i in range(n_bumps):
        gy, gx = divmod(i, grid_cols)
        cy = (gy + 0.5) * spacing_y + rng.uniform(-jitter, jitter)
        cx = (gx + 0.5) * spacing_x + rng.uniform(-jitter, jitter)
        centers.append((cy, cx))

    support = 3.0 * bump_sigma
    for cy, cx in centers:
        if cy < support or cy > rows - 1 - support or cx < support or cx > cols - 1 - support:
            raise ValueError("bump support falls outside the canvas")
    for i in range(n_bumps):
        for j in range(i + 1, n_bumps):
            dy = centers[i][0] - centers[j][0]
            dx = centers[i][1] - centers[j][1]
            if math.hypot(dy, dx) < 2.0 * support:
                raise ValueError("bump supports overlap")

    ys = np.arange(rows, dtype=np.float64)
    xs = np.arange(cols, dtype=np.float64)
    dsm = rng.uniform(0.0, _NOISE, size=(rows, cols))
    gt = np.zeros((rows, cols), dtype=np.int32)
    gt_radius2 = (2.0 * bump_sigma) ** 2
    reach2 = _reach2(float(dsm.min()), bump_sigma, gt_radius2)
    for i, (cy, cx) in enumerate(centers):
        # outside the box, d2 >= max(dy2, dx2) > reach2
        dy2 = (ys - cy) ** 2
        dx2 = (xs - cx) ** 2
        in_y = np.flatnonzero(dy2 <= reach2)
        in_x = np.flatnonzero(dx2 <= reach2)
        labelled = 0  # the reach covers the ground-truth disk, so an empty box labels nothing
        if in_y.size and in_x.size:
            box = slice(in_y[0], in_y[-1] + 1), slice(in_x[0], in_x[-1] + 1)
            d2 = dy2[box[0], None] + dx2[None, box[1]]
            dsm[box] += np.exp(-d2 / (2.0 * bump_sigma**2))
            inside = d2 <= gt_radius2
            gt[box][inside] = i + 1
            labelled = np.count_nonzero(inside)
        if not labelled:
            raise ValueError(f"bump_sigma {bump_sigma!r} is too small: mound {i + 1} covers no cell")
    return ScalarGrid(dsm, cellsize=1.0), LabelMap(gt)
