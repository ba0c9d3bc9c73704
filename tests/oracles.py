"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (flood fills, exhaustive scans,
double loops) and shares no code with the package under test.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np


def flood_fill_components(labels: np.ndarray, connectivity: int = 4) -> np.ndarray:
    """BFS connected components per label value, numbered in scan order."""
    h, w = labels.shape
    if connectivity == 4:
        steps = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    else:
        steps = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if (dy, dx) != (0, 0)]
    out = np.zeros((h, w), dtype=np.int32)
    next_label = 0
    for y in range(h):
        for x in range(w):
            if labels[y, x] == 0 or out[y, x] != 0:
                continue
            next_label += 1
            value = labels[y, x]
            queue = deque([(y, x)])
            out[y, x] = next_label
            while queue:
                cy, cx = queue.popleft()
                for dy, dx in steps:
                    ny, nx = cy + dy, cx + dx
                    if 0 <= ny < h and 0 <= nx < w and out[ny, nx] == 0 and labels[ny, nx] == value:
                        out[ny, nx] = next_label
                        queue.append((ny, nx))
    return out


def nearest_seed_labels(
    seed_xy: list[tuple[int, int]], width: int, height: int, mask: np.ndarray | None = None
) -> np.ndarray:
    """Exhaustive nearest-seed labelling; ties go to the lower seed index."""
    out = np.zeros((height, width), dtype=np.int32)
    for y in range(height):
        for x in range(width):
            if mask is not None and not mask[y, x]:
                continue
            best_d2 = None
            best_i = 0
            for i, (sx, sy) in enumerate(seed_xy):
                d2 = (x - sx) ** 2 + (y - sy) ** 2
                if best_d2 is None or d2 < best_d2:
                    best_d2 = d2
                    best_i = i + 1
            out[y, x] = best_i
    return out


def exhaustive_otsu(values: np.ndarray) -> int:
    """Scan all 256 thresholds for the max between-class variance (first max)."""
    flat = values.ravel().astype(np.float64)
    n = flat.size
    best_t, best_var = 0, -1.0
    for t in range(256):
        low = flat[flat <= t]
        high = flat[flat > t]
        if low.size == 0 or high.size == 0:
            var = 0.0
        else:
            w0 = low.size / n
            w1 = high.size / n
            var = w0 * w1 * (low.mean() - high.mean()) ** 2
        if var > best_var:
            best_var = var
            best_t = t
    return best_t


def sampled_gaussian_kernel(sigma: float) -> np.ndarray:
    radius = math.ceil(3.0 * sigma)
    ks = np.array([math.exp(-(i * i) / (2.0 * sigma * sigma)) for i in range(-radius, radius + 1)])
    return ks / ks.sum()


def srgb_to_lab_scalar(r: int, g: int, b: int) -> tuple[float, float, float]:
    """Pure-scalar reference sRGB -> CIELAB chain (D65)."""

    def linearise(v: int) -> float:
        c = v / 255.0
        return c / 12.92 if c <= 0.04045 else ((c + 0.055) / 1.055) ** 2.4

    rl, gl, bl = linearise(r), linearise(g), linearise(b)
    x = 0.4124564 * rl + 0.3575761 * gl + 0.1804375 * bl
    y = 0.2126729 * rl + 0.7151522 * gl + 0.0721750 * bl
    z = 0.0193339 * rl + 0.1191920 * gl + 0.9503041 * bl
    xn = 0.4124564 + 0.3575761 + 0.1804375
    yn = 0.2126729 + 0.7151522 + 0.0721750
    zn = 0.0193339 + 0.1191920 + 0.9503041

    def f(t: float) -> float:
        return t ** (1.0 / 3.0) if t > (6.0 / 29.0) ** 3 else t / (3.0 * (6.0 / 29.0) ** 2) + 4.0 / 29.0

    fx, fy, fz = f(x / xn), f(y / yn), f(z / zn)
    return 116.0 * fy - 16.0, 500.0 * (fx - fy), 200.0 * (fy - fz)


def absorb_small_components(
    labels: np.ndarray, min_size: int, colors: np.ndarray | None = None
) -> np.ndarray:
    """Reference absorb-smallest-first region merging.

    The target is the neighbour sharing the longest boundary, or with
    per-pixel ``colors`` the neighbour whose mean colour is closest.
    Recomputes sizes, boundaries and mean colours from scratch on every
    step, which keeps it independent of the incremental implementation
    under test.
    """
    current = flood_fill_components(labels, connectivity=4)
    while True:
        ids = [int(v) for v in np.unique(current) if v != 0]
        if len(ids) <= 1:
            break
        sizes = {i: int((current == i).sum()) for i in ids}
        candidates = sorted(
            (i for i in ids if sizes[i] < min_size), key=lambda i: (sizes[i], i)
        )
        merged = False
        for src in candidates:
            boundary: dict[int, int] = {}
            ys, xs = np.nonzero(current == src)
            for y, x in zip(ys, xs):
                for dy, dx in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < current.shape[0] and 0 <= nx < current.shape[1]:
                        other = int(current[ny, nx])
                        if other not in (0, src):
                            boundary[other] = boundary.get(other, 0) + 1
            if not boundary:
                continue
            if colors is None:
                dst = min(boundary, key=lambda l: (-boundary[l], l))
            else:
                src_mean = colors[current == src].mean(axis=0)

                def gap(l: int) -> float:
                    return float(np.sqrt(((colors[current == l].mean(axis=0) - src_mean) ** 2).sum()))

                dst = min(boundary, key=lambda l: (gap(l), l))
            current[current == src] = dst
            merged = True
            break
        if not merged:
            break
    return flood_fill_components(current, connectivity=4)
