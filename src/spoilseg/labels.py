"""Connected-component normalisation and small-region merging for label maps.

Region-matching evaluation assumes every positive label denotes one connected
blob, so segmentations pass through :func:`relabel_connected` before scoring.
:func:`merge_small_regions` is the shared final step of the colour
segmenters: mean shift fuses small regions by colour, SLIC by boundary.
"""

from __future__ import annotations

import heapq

import numpy as np
from scipy import ndimage

from .grids import LabelMap

_STRUCTURE = {
    4: ndimage.generate_binary_structure(2, 1),
    8: ndimage.generate_binary_structure(2, 2),
}


def relabel_connected(label_map: LabelMap, connectivity: int = 4) -> LabelMap:
    """Split every label into its connected components, renumbered 1..K.

    New ids are assigned in raster-scan discovery order; background pixels
    stay 0 and the partition of foreground pixels is preserved.  The result
    is idempotent under a second application.
    """
    if connectivity not in _STRUCTURE:
        raise ValueError("connectivity must be 4 or 8")
    structure = _STRUCTURE[connectivity]
    lab = label_map.labels
    used = np.unique(lab)
    used = used[used > 0]
    if used.size == 0:
        return LabelMap(np.zeros_like(lab))

    # dense 1..V ids so find_objects can bound the per-label work
    dense = np.searchsorted(used, lab).astype(np.int64) + 1
    dense[lab == 0] = 0

    comp = np.zeros(lab.shape, dtype=np.int64)
    next_id = 0
    for i, sl in enumerate(ndimage.find_objects(dense), start=1):
        if sl is None:
            continue
        mask = dense[sl] == i
        cc, n = ndimage.label(mask, structure=structure)
        sub = comp[sl]
        sub[mask] = cc[mask] + next_id
        next_id += n

    # renumber components by first raster-scan occurrence
    flat = comp.ravel()
    first = np.full(next_id + 1, flat.size, dtype=np.int64)
    np.minimum.at(first, flat, np.arange(flat.size))
    order = np.argsort(first[1:], kind="stable")
    rank = np.empty(next_id, dtype=np.int64)
    rank[order] = np.arange(next_id)
    remap = np.concatenate(([0], rank + 1))
    return LabelMap(remap[comp].astype(np.int32))


def drop_small_regions(label_map: LabelMap, min_size: int) -> LabelMap:
    """Zero out every positive label owning fewer than ``min_size`` pixels."""
    if min_size <= 1:
        return LabelMap(label_map.labels.copy())
    lab = label_map.labels
    counts = np.bincount(lab.ravel())
    small = np.flatnonzero(counts < min_size)
    keep = np.ones(counts.size, dtype=bool)
    keep[small] = False
    keep[0] = False
    out = np.where(keep[lab], lab, 0)
    return LabelMap(out.astype(np.int32))


def _boundary_table(labels: np.ndarray, n: int) -> dict[int, dict[int, int]]:
    """Shared 4-adjacent pixel-pair counts between distinct positive labels."""
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


def merge_small_regions(
    label_map: LabelMap, min_size: int, colors: np.ndarray | None = None
) -> LabelMap:
    """Split labels into 4-connected regions, then merge those below min_size.

    The smallest region merges first (ties: lower id).  Its target is the
    adjacent region with the closest mean colour when per-pixel ``colors``
    (height, width, channels) are given, otherwise the adjacent region
    sharing the longest boundary; ties go to the lower id.  Background never
    merges and a region without neighbours is left alone.  Stops when every
    region reaches min_size or one region remains; the result is renumbered
    1..K in raster-scan order.
    """
    current = relabel_connected(label_map, connectivity=4)
    labels = current.labels.astype(np.int64)
    n = int(labels.max()) + 1
    flat = labels.ravel()
    sizes = np.bincount(flat, minlength=n).astype(np.int64)
    sums = None
    if colors is not None:
        sums = np.zeros((n, colors.shape[-1]), dtype=np.float64)
        for ch in range(colors.shape[-1]):
            sums[:, ch] = np.bincount(flat, weights=colors[..., ch].ravel(), minlength=n)
    boundary = _boundary_table(labels, n)

    parent = np.arange(n)
    active = n - 1
    heap = [(int(sizes[l]), l) for l in range(1, n) if sizes[l] < min_size]
    heapq.heapify(heap)
    while heap and active > 1:
        size, src = heapq.heappop(heap)
        if parent[src] != src or sizes[src] != size:
            continue  # stale entry: merged away or grown since it was pushed
        nbrs = boundary.pop(src)
        if not nbrs:
            continue  # isolated fragment, nothing to absorb it
        if sums is None:
            dst = min(nbrs, key=lambda l: (-nbrs[l], l))
        else:
            src_mean = sums[src] / sizes[src]
            dst = min(
                nbrs, key=lambda l: (float(np.sqrt(((sums[l] / sizes[l] - src_mean) ** 2).sum())), l)
            )
            sums[dst] += sums[src]
        sizes[dst] += sizes[src]
        parent[src] = dst
        active -= 1
        for l, c in nbrs.items():
            del boundary[l][src]
            if l != dst:
                boundary[l][dst] = boundary[l].get(dst, 0) + c
                boundary[dst][l] = boundary[dst].get(l, 0) + c
        if sizes[dst] < min_size:
            heapq.heappush(heap, (int(sizes[dst]), dst))

    # resolve merge chains by pointer jumping
    while True:
        root = parent[parent]
        if np.array_equal(root, parent):
            break
        parent = root
    return relabel_connected(LabelMap(parent[labels].astype(np.int32)), connectivity=4)
