"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (flood fills, exhaustive scans,
double loops) and shares no code with the package under test.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
from scipy import ndimage


def flood_fill_components(labels: np.ndarray) -> np.ndarray:
    """BFS 4-connected components per label value, numbered in scan order."""
    h, w = labels.shape
    steps = [(-1, 0), (1, 0), (0, -1), (0, 1)]
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


def doubled_grid_components(nodes: np.ndarray, right: np.ndarray, down: np.ndarray) -> np.ndarray:
    """4-connected components of a pixel graph by one binary ``ndimage.label``.

    ``nodes`` (h, w) marks the graph's pixels, ``right`` (h, w-1) and ``down``
    (h-1, w) its joined neighbour pairs.  Pixels sit on the even cells of a
    (2h-1, 2w-1) grid and each joined pair sets the cell between its pixels;
    a component's first cell in raster order is a pixel cell, so the numbers
    follow the pixels' raster discovery order.  Non-nodes are 0.
    """
    h, w = nodes.shape
    grid = np.zeros((2 * h - 1, 2 * w - 1), dtype=bool)
    grid[::2, ::2] = nodes
    grid[::2, 1::2] = right
    grid[1::2, ::2] = down
    return ndimage.label(grid)[0][::2, ::2]


def linked_mode_components(modes: np.ndarray, spatial_radius: float, range_radius: float) -> np.ndarray:
    """Components of the pixels whose 4-neighbours' modes lie within both radii, pair by pair."""
    h, w = modes.shape[:2]

    def linked(a, b) -> bool:
        return (
            float(((a[:2] - b[:2]) ** 2).sum()) <= spatial_radius**2
            and float(((a[2:] - b[2:]) ** 2).sum()) <= range_radius**2
        )

    right = np.array([[linked(modes[y, x], modes[y, x + 1]) for x in range(w - 1)] for y in range(h)], dtype=bool)
    down = np.array([[linked(modes[y, x], modes[y + 1, x]) for x in range(w)] for y in range(h - 1)], dtype=bool)
    return doubled_grid_components(np.ones((h, w), dtype=bool), right.reshape(h, w - 1), down.reshape(h - 1, w))


def zero_small_regions(labels: np.ndarray, min_size: int) -> np.ndarray:
    """Zero every positive label owning fewer than ``min_size`` pixels; keep the rest as they are."""
    if min_size <= 1:
        return labels.copy()
    counts = np.bincount(labels.ravel())
    keep = counts >= min_size
    keep[0] = False
    return np.where(keep[labels], labels, 0).astype(np.int32)


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


def voronoi_label_loop(
    xs: np.ndarray, ys: np.ndarray, width: int, height: int, mask: np.ndarray | None = None
) -> np.ndarray:
    """Nearest-seed labelling as a per-seed loop over every (foreground) pixel:
    seed i gets label i + 1, a strictly smaller squared distance replaces the
    best so far, so ties keep the lower seed index."""
    if mask is None:
        yy, xx = np.mgrid[0:height, 0:width]
        yy, xx = yy.ravel(), xx.ravel()
    else:
        yy, xx = np.nonzero(mask)
    labels = np.zeros((height, width), dtype=np.int32)
    if yy.size == 0:
        return labels

    best_d2 = np.full(yy.size, np.iinfo(np.int64).max, dtype=np.int64)
    best = np.zeros(yy.size, dtype=np.int32)
    for i, (sx, sy) in enumerate(zip(xs, ys)):
        d2 = (xx - sx) ** 2 + (yy - sy) ** 2
        closer = d2 < best_d2
        best[closer] = i + 1
        best_d2[closer] = d2[closer]
    labels[yy, xx] = best
    return labels


def plateau_peak_seeds(
    values: np.ndarray, peak_radius: int, missing: np.ndarray | None = None
) -> list[tuple[int, int, int]]:
    """Naive regional-maximum seeding as (x, y, intensity), in acceptance order.

    A pixel is a candidate when no pixel within Chebyshev distance
    peak_radius is larger (missing pixels never count).  Each 8-connected
    plateau of candidates gives its member nearest the plateau centroid
    (first in scan order on ties); seeds are then accepted by decreasing
    value (ties: scan order) unless within peak_radius of an accepted seed.
    """
    h, w = values.shape
    missing = np.zeros((h, w), dtype=bool) if missing is None else missing
    r = peak_radius
    cand = np.zeros((h, w), dtype=bool)
    for y in range(h):
        for x in range(w):
            if missing[y, x]:
                continue
            window = [
                values[j, i]
                for j in range(max(0, y - r), min(h, y + r + 1))
                for i in range(max(0, x - r), min(w, x + r + 1))
                if not missing[j, i]
            ]
            cand[y, x] = values[y, x] >= max(window)
    seen = np.zeros((h, w), dtype=bool)
    plateau_seeds = []
    for y in range(h):
        for x in range(w):
            if not cand[y, x] or seen[y, x]:
                continue
            members = []
            queue = deque([(y, x)])
            seen[y, x] = True
            while queue:
                cy, cx = queue.popleft()
                members.append((cy, cx))
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        ny, nx = cy + dy, cx + dx
                        if 0 <= ny < h and 0 <= nx < w and cand[ny, nx] and not seen[ny, nx]:
                            seen[ny, nx] = True
                            queue.append((ny, nx))
            members.sort()
            my = sum(m[0] for m in members) / len(members)
            mx = sum(m[1] for m in members) / len(members)
            by, bx = min(members, key=lambda m: ((m[0] - my) ** 2 + (m[1] - mx) ** 2, m))
            plateau_seeds.append((-float(values[by, bx]), by, bx))
    accepted: list[tuple[int, int, int]] = []
    for neg_val, y, x in sorted(plateau_seeds):
        if all(max(abs(x - ax), abs(y - ay)) > r for ax, ay, _ in accepted):
            accepted.append((x, y, min(255, max(0, math.floor(-neg_val + 0.5)))))
    return accepted


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
    current = flood_fill_components(labels)
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
    return flood_fill_components(current)


def _mean_shift_points(img) -> np.ndarray:
    h, w = img.pixels.shape[:2]
    ys, xs = np.mgrid[0:h, 0:w]
    rgb = img.pixels.reshape(-1, 3).astype(np.float64)
    return np.column_stack([xs.ravel().astype(np.float64), ys.ravel().astype(np.float64), rgb])


def _mean_shift_bins(points: np.ndarray, cell: float) -> dict[tuple[int, int], list[int]]:
    """Point indices bucketed by floor(position / cell)."""
    bins: dict[tuple[int, int], list[int]] = {}
    for i, (x, y) in enumerate(points[:, :2]):
        bins.setdefault((math.floor(y / cell), math.floor(x / cell)), []).append(i)
    return bins


def _mean_shift_step(points, bins, current, p) -> tuple[np.ndarray, float]:
    """One step of the per-pixel loop: (next point, normalised displacement)."""
    cell = p.spatial_radius
    bx, by = math.floor(current[0] / cell), math.floor(current[1] / cell)
    cand = [i for j in (by - 1, by, by + 1) for k in (bx - 1, bx, bx + 1) for i in bins.get((j, k), [])]
    if not cand:
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


def _mean_shift_path(points, bins, start: int, p) -> list[np.ndarray]:
    current = points[start].copy()
    path = [current.copy()]
    for _ in range(p.max_iterations):
        current, disp = _mean_shift_step(points, bins, current, p)
        path.append(current.copy())
        if disp < p.convergence_eps:
            break
    return path


def mean_shift_trajectory(img, p, x: int, y: int) -> list[np.ndarray]:
    """Per-pixel mean shift loop for one pixel: its start point plus every
    visited point.  Each step moves to the mean of the original
    (x, y, r, g, b) points within spatial_radius and range_radius, found
    through spatial bins of side spatial_radius."""
    points = _mean_shift_points(img)
    return _mean_shift_path(points, _mean_shift_bins(points, p.spatial_radius), y * img.pixels.shape[1] + x, p)


def mean_shift_modes(img, p) -> np.ndarray:
    """Final point of every pixel's trajectory, shaped (height, width, 5)."""
    points = _mean_shift_points(img)
    bins = _mean_shift_bins(points, p.spatial_radius)
    modes = [_mean_shift_path(points, bins, i, p)[-1] for i in range(len(points))]
    return np.array(modes).reshape(img.pixels.shape[0], img.pixels.shape[1], 5)


def seed_centers_loop(lab: np.ndarray, step: int) -> np.ndarray:
    """SLIC seeding as a triple loop: grid centers, each moved to the first
    3x3 neighbour (scan order) with strictly lower gradient than the best so far."""
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


def slic_assign_loop(lab: np.ndarray, centers: np.ndarray, step: int, compactness: float) -> np.ndarray:
    """SLIC assignment as a per-center window loop over the (h, w, 3) image,
    with a per-pixel exhaustive search for pixels no window reached.
    Ties keep the lower-index center."""
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

    for y, x in zip(*np.nonzero(assign < 0)):
        d_lab2 = ((centers[:, :3] - lab[y, x]) ** 2).sum(axis=1)
        d_xy2 = (centers[:, 3] - x) ** 2 + (centers[:, 4] - y) ** 2
        assign[y, x] = int(np.argmin(d_lab2 + d_xy2 * m2_s2))
    return assign


def nearest_center_exhaustive(lab: np.ndarray, centers: np.ndarray, step: int, compactness: float) -> np.ndarray:
    """Per-pixel argmin of the SLIC distance over every center, ignoring windows."""
    h, w, _ = lab.shape
    out = np.empty((h, w), dtype=np.int64)
    for y in range(h):
        for x in range(w):
            d_lab2 = ((centers[:, :3] - lab[y, x]) ** 2).sum(axis=1)
            d_xy2 = (centers[:, 3] - x) ** 2 + (centers[:, 4] - y) ** 2
            out[y, x] = int(np.argmin(d_lab2 + d_xy2 * (compactness / step) ** 2))
    return out


def synth_pilefield_full(
    rows: int,
    cols: int,
    n_bumps: int,
    bump_sigma: float,
    rng_seed: int,
    *,
    bump_amplitude: float = 1.0,
    noise_amplitude: float = 0.08,
) -> tuple[np.ndarray, np.ndarray]:
    """The pile-field synthesis with every mound summed over the whole frame;
    returns the raw (dsm, ground truth) arrays."""
    if rows < 1 or cols < 1 or n_bumps < 1 or bump_sigma <= 0:
        raise ValueError("invalid pile-field geometry")
    rng = np.random.default_rng(rng_seed)

    grid_rows = math.ceil(math.sqrt(n_bumps))
    grid_cols = math.ceil(n_bumps / grid_rows)
    spacing_y = rows / grid_rows
    spacing_x = cols / grid_cols
    jitter = min(spacing_y, spacing_x) / 8.0

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

    yy, xx = np.mgrid[0:rows, 0:cols].astype(np.float64)
    dsm = rng.uniform(0.0, noise_amplitude, size=(rows, cols))
    gt = np.zeros((rows, cols), dtype=np.int32)
    gt_radius2 = (2.0 * bump_sigma) ** 2
    for i, (cy, cx) in enumerate(centers):
        d2 = (yy - cy) ** 2 + (xx - cx) ** 2
        dsm += bump_amplitude * np.exp(-d2 / (2.0 * bump_sigma**2))
        gt[d2 <= gt_radius2] = i + 1
    return dsm, gt


class AscFormatError(ValueError):
    """A format fault found by ``read_asc_whole``."""


def read_asc_whole(path) -> tuple[np.ndarray, float, float | None]:
    """ESRI ASCII grid reader over the whole text and one token list per row.

    Returns the raw (values, cellsize, nodata) before any check of the values
    themselves, or raises ``AscFormatError`` for the first fault in the order
    the format documents.
    """
    with open(path) as f:
        lines = f.read().splitlines()
    header: dict[str, str] = {}
    row_lines: list[list[str]] = []
    for line in lines:
        parts = line.split()
        if not parts:
            continue
        try:
            float(parts[0])
            numeric = True
        except ValueError:
            numeric = False
        if not row_lines and not numeric:
            if len(parts) != 2:
                raise AscFormatError(f"malformed header line: {line!r}")
            key = parts[0].lower()
            if key in header:
                raise AscFormatError(f"duplicate header key {key}")
            header[key] = parts[1]
        else:
            row_lines.append(parts)

    for key in ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize"):
        if key not in header:
            raise AscFormatError(f"missing header key {key}")
    try:
        ncols = int(header["ncols"])
        nrows = int(header["nrows"])
        float(header["xllcorner"])
        float(header["yllcorner"])
        cellsize = float(header["cellsize"])
        nodata = float(header["nodata_value"]) if "nodata_value" in header else None
    except ValueError:
        raise AscFormatError("non-numeric header value") from None

    if len(row_lines) != nrows:
        raise AscFormatError(f"expected {nrows} data rows, got {len(row_lines)}")
    for r, parts in enumerate(row_lines):
        if len(parts) != ncols:
            raise AscFormatError(f"row {r} has {len(parts)} tokens, expected {ncols}")
    if nrows < 1 or ncols < 1:
        raise AscFormatError(f"grid must be at least 1x1, header declares {ncols}x{nrows}")
    values = np.empty((nrows, ncols), dtype=np.float64)
    for r, parts in enumerate(row_lines):
        try:
            values[r] = [float(tok) for tok in parts]
        except ValueError:
            raise AscFormatError(f"non-numeric token in row {r}") from None
    return values, cellsize, nodata


class NetpbmFormatError(ValueError):
    """A format fault found by ``read_netpbm_loop``."""


_WHITESPACE = b" \t\n\r\x0b\x0c"


def read_header_tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    """Collect `count` whitespace-separated netpbm header tokens byte by byte,
    skipping ``#`` comment lines.

    Returns the tokens and the offset one byte past the final token.
    """
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < count:
        while pos < len(data) and data[pos] in _WHITESPACE:
            pos += 1
        if pos >= len(data):
            raise NetpbmFormatError("truncated header")
        if data[pos] == ord("#"):
            nl = data.find(b"\n", pos)
            if nl == -1:
                raise NetpbmFormatError("truncated header")
            pos = nl + 1
            continue
        end = pos
        while end < len(data) and data[end] not in _WHITESPACE and data[end] != ord("#"):
            end += 1
        tokens.append(data[pos:end])
        pos = end
    return tokens, pos


def read_netpbm_loop(data: bytes, magic: bytes, maxval: int, channels: int, dtype: str) -> np.ndarray:
    """The (height, width, channels) samples of a binary netpbm file's bytes,
    with the header read by ``read_header_tokens``, or ``NetpbmFormatError``
    for the first fault."""
    tokens, pos = read_header_tokens(data, 4)
    if tokens[0] != magic:
        raise NetpbmFormatError(f"bad magic {tokens[0]!r}, expected {magic.decode()}")
    try:
        width, height, declared = (int(t) for t in tokens[1:])
    except ValueError:
        raise NetpbmFormatError("non-numeric header field") from None
    if width < 1 or height < 1:
        raise NetpbmFormatError("image dimensions must be positive")
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise NetpbmFormatError("missing separator before pixel payload")
    if declared != maxval:
        raise NetpbmFormatError(f"unsupported maxval {declared}, expected {maxval}")
    need = width * height * channels * np.dtype(dtype).itemsize
    if len(data) - pos - 1 < need:
        raise NetpbmFormatError(f"truncated pixel payload: expected {need} bytes, got {len(data) - pos - 1}")
    payload = data[pos + 1 : pos + 1 + need]
    return np.frombuffer(payload, dtype=dtype).reshape(height, width, channels)


def _terrain_nodata(nodata: float | None) -> float | None:
    """Output sentinel of the terrain stages: one inside [0, 1] moves to -9999."""
    if nodata is None:
        return None
    return -9999.0 if 0.0 <= nodata <= 1.0 else nodata


def hillshade_whole(
    values: np.ndarray,
    cellsize: float,
    nodata: float | None,
    azimuth: float,
    altitude: float,
    z_factor: float,
) -> tuple[np.ndarray, float | None]:
    """Horn hillshade over the whole edge-padded grid at once; cells whose
    3x3 window touches nodata become the output sentinel.  Returns (shade,
    output nodata)."""
    z = np.pad(values, 1, mode="edge")
    a, b, c = z[:-2, :-2], z[:-2, 1:-1], z[:-2, 2:]
    d, f = z[1:-1, :-2], z[1:-1, 2:]
    g, h, i = z[2:, :-2], z[2:, 1:-1], z[2:, 2:]
    denom = 8.0 * cellsize
    dzdx = ((c + 2.0 * f + i) - (a + 2.0 * d + g)) / denom
    dzdy = ((g + 2.0 * h + i) - (a + 2.0 * b + c)) / denom

    slope = np.arctan(z_factor * np.hypot(dzdx, dzdy))
    aspect = np.arctan2(dzdy, -dzdx)
    zenith = math.radians(90.0 - altitude)
    az_math = math.radians((360.0 - azimuth + 90.0) % 360.0)
    shade = math.cos(zenith) * np.cos(slope) + math.sin(zenith) * np.sin(slope) * np.cos(
        az_math - aspect
    )
    shade = np.maximum(shade, 0.0)

    out_nodata = _terrain_nodata(nodata)
    if nodata is not None:
        m = np.pad(values == nodata, 1, mode="edge")
        height, width = values.shape
        touched = np.zeros(values.shape, dtype=bool)
        for dy in range(3):
            for dx in range(3):
                touched |= m[dy : dy + height, dx : dx + width]
        shade = np.where(touched, out_nodata, shade)
    return shade, out_nodata


def sigmoidal_stretch_copies(
    values: np.ndarray, nodata: float | None, strength: float, scale: float
) -> tuple[np.ndarray, float | None]:
    """Logistic contrast stretch with a fresh array per operation; returns
    (stretched, output nodata)."""
    mask = values == nodata if nodata is not None else np.zeros(values.shape, dtype=bool)
    data = values[~mask]
    if data.size == 0:
        raise ValueError("grid holds no data values")
    lo, hi = data.min(), data.max()
    if lo == hi:
        raise ValueError("constant grid: min-max normalisation undefined")

    k = strength * scale
    kept = np.where(mask, lo, values)
    x = (kept - lo) / (hi - lo)
    s = 1.0 / (1.0 + np.exp(-k * (x - 0.5)))
    s0 = 1.0 / (1.0 + math.exp(k * 0.5))
    s1 = 1.0 / (1.0 + math.exp(-k * 0.5))
    y = (s - s0) / (s1 - s0)

    out_nodata = _terrain_nodata(nodata)
    if nodata is not None:
        y = np.where(mask, out_nodata, y)
    return y, out_nodata


def rgb_to_lab_whole(pixels: np.ndarray) -> np.ndarray:
    """sRGB to CIELAB (D65) over the whole (h, w, 3) uint8 image at once, a
    fresh array per operation; returns the (h, w, 3) float64 Lab values."""
    srgb_to_xyz = np.array(
        [
            [0.4124564, 0.3575761, 0.1804375],
            [0.2126729, 0.7151522, 0.0721750],
            [0.0193339, 0.1191920, 0.9503041],
        ]
    )
    white = srgb_to_xyz.sum(axis=1)
    eps = (6.0 / 29.0) ** 3
    c = pixels.astype(np.float64) / 255.0
    linear = np.where(c <= 0.04045, c / 12.92, ((c + 0.055) / 1.055) ** 2.4)
    xyz = linear @ srgb_to_xyz.T / white
    f = np.where(xyz > eps, np.cbrt(xyz), xyz / (3.0 * (6.0 / 29.0) ** 2) + 4.0 / 29.0)
    L = 116.0 * f[..., 1] - 16.0
    a = 500.0 * (f[..., 0] - f[..., 1])
    b = 200.0 * (f[..., 1] - f[..., 2])
    return np.stack([L, a, b], axis=-1)


def boundary_table_concat(labels: np.ndarray, n: int) -> dict[int, dict[int, int]]:
    """Shared 4-adjacent pixel-pair counts between distinct positive labels,
    from int64 pixel pairs of both directions concatenated: {label: {other: count}}
    for every label 1..n-1."""
    labels = labels.astype(np.int64)
    a = np.concatenate([labels[:, :-1].ravel(), labels[:-1, :].ravel()])
    b = np.concatenate([labels[:, 1:].ravel(), labels[1:, :].ravel()])
    keep = (a != b) & (a > 0) & (b > 0)
    lo, hi = np.minimum(a[keep], b[keep]), np.maximum(a[keep], b[keep])
    keys, counts = np.unique(lo * n + hi, return_counts=True)
    table: dict[int, dict[int, int]] = {l: {} for l in range(1, n)}
    for key, c in zip(keys.tolist(), counts.tolist()):
        x, y = divmod(key, n)
        table[x][y] = table[y][x] = c
    return table


def hoover_classify_fractions(
    gt_sizes: dict[int, int], ms_sizes: dict[int, int], overlaps: dict[tuple[int, int], int], T
) -> tuple[list, list, list, list, list]:
    """Greedy Hoover classification comparing every overlap with ``T * size``
    as a ``Fraction`` (T a Fraction in (0, 1]).  Returns (correct pairs, over
    instances, under instances, missed gt, noise ms)."""
    free_gt, free_ms = set(gt_sizes), set(ms_sizes)
    correct, over, under = [], [], []
    candidates = [
        (ov, gi, mi)
        for (gi, mi), ov in overlaps.items()
        if ov >= T * ms_sizes[mi] and ov >= T * gt_sizes[gi]
    ]
    candidates.sort(key=lambda it: (-it[0], it[1], it[2]))
    for _, gi, mi in candidates:
        if gi in free_gt and mi in free_ms:
            correct.append((gi, mi))
            free_gt.remove(gi)
            free_ms.remove(mi)

    by_gt: dict[int, list[int]] = {}
    by_ms: dict[int, list[int]] = {}
    for gi, mi in overlaps:
        by_gt.setdefault(gi, []).append(mi)
        by_ms.setdefault(mi, []).append(gi)
    for gi in sorted(free_gt):
        members = sorted(
            mi for mi in by_gt.get(gi, []) if mi in free_ms and overlaps[(gi, mi)] >= T * ms_sizes[mi]
        )
        if len(members) >= 2 and sum(overlaps[(gi, mi)] for mi in members) >= T * gt_sizes[gi]:
            over.append((gi, tuple(members)))
            free_gt.remove(gi)
            free_ms.difference_update(members)
    for mi in sorted(free_ms):
        members = sorted(
            gi for gi in by_ms.get(mi, []) if gi in free_gt and overlaps[(gi, mi)] >= T * gt_sizes[gi]
        )
        if len(members) >= 2 and sum(overlaps[(gi, mi)] for gi in members) >= T * ms_sizes[mi]:
            under.append((mi, tuple(members)))
            free_ms.remove(mi)
            free_gt.difference_update(members)
    return correct, over, under, sorted(free_gt), sorted(free_ms)
