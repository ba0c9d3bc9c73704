"""Connected-component normalisation and small-region merging for label maps.

Region-matching evaluation assumes every positive label denotes one connected
blob, so segmentations pass through :func:`relabel_connected` before scoring.
:func:`merge_small_regions` is the shared final step of the colour
segmenters: mean shift fuses small regions by colour, SLIC by boundary.
Every numbering of components goes through the one private helper
:func:`_components` (``scipy.sparse.csgraph.connected_components``): the
pixel components of this relabel, of the split that starts the merge and of
mean shift's mode linking (horizontal runs joined vertically), and the
groups the merge leaves.
"""

from __future__ import annotations

import heapq

import numpy as np

from .grids import LabelMap, _check_field


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Components of the undirected graph on ``0..n-1`` with edges ``a[i]-b[i]``.

    ``a`` is nondecreasing (CSR row order).  The components are numbered
    from 0 in the order of their lowest node, an order scipy does not
    document; the oracle tests pin it.
    """
    # csgraph is imported here, not at module level: it costs about 0.1 s and
    # 10 MB, which ``import spoilseg`` and the commands without a relabel skip
    from scipy.sparse import csgraph, csr_matrix

    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(a, minlength=n), out=indptr[1:])
    graph = csr_matrix((np.ones(b.size, dtype=bool), b, indptr), shape=(n, n))
    return csgraph.connected_components(graph, directed=False)[1]


def _pixel_components(nodes: np.ndarray, right: np.ndarray, down: np.ndarray) -> np.ndarray:
    """4-connected components of a pixel graph, numbered 1..K in raster order.

    ``nodes`` (h, w) marks the pixels that belong to the graph; ``right``
    (h, w-1) and ``down`` (h-1, w) mark the joined horizontal and vertical
    neighbour pairs, and may only join two nodes.  A run starts at each node
    not joined to its left neighbour, so one ``cumsum`` numbers the runs
    1..R in raster order.  Of the ``down`` pairs joining the same upper and
    lower run over consecutive columns only the first is kept as an edge of
    the run graph.  Its components, numbered by their lowest run, are in the
    raster order of their first pixels; run 0, the non-nodes, stays 0.
    """
    h, w = nodes.shape
    start = nodes.copy()
    start[:, 1:] &= ~right
    run = np.cumsum(start, dtype=np.int32 if nodes.size < 2**31 else np.intp)  # flat, raster order
    n = int(run[-1]) + 1
    run *= nodes.ravel()
    del start
    edge = down.copy()
    edge[:, 1:] &= ~(down[:, :-1] & right[:-1] & right[1:])
    upper = np.flatnonzero(edge)
    lower = run[upper + w]
    upper = run[upper]  # nondecreasing, as _components asks
    return _components(n, upper, lower)[run].reshape(h, w)


def relabel_connected(label_map: LabelMap) -> LabelMap:
    """Split every label into its 4-connected components, renumbered 1..K.

    New ids are assigned in raster-scan discovery order; background pixels
    stay 0 and the partition of foreground pixels is preserved.  The result
    is idempotent under a second application.
    """
    lab = label_map.labels
    fg = lab > 0
    right = fg[:, :-1] & (lab[:, :-1] == lab[:, 1:])
    down = fg[:-1] & (lab[:-1] == lab[1:])
    return LabelMap(_pixel_components(fg, right, down))


def drop_small_regions(label_map: LabelMap, min_size: int) -> LabelMap:
    """Zero every region below ``min_size`` pixels; number the rest 1..K in label order.

    On a :func:`relabel_connected` map this is the relabel of the zeroed map,
    bit for bit: zeroing whole regions neither splits nor joins a survivor.
    Pixel counts are indexed by label, so a label above the pixel count is
    refused; relabel such a map first.  ``min_size`` is an integer >= 0.
    """
    _check_field("min_size", min_size, int, {"ge": 0})
    lab = label_map.labels
    top = int(lab.max())
    if top > lab.size:
        raise ValueError(f"label {top} exceeds the pixel count {lab.size}; relabel the map first")
    keep = np.bincount(lab.ravel()) >= max(min_size, 1)
    keep[0] = False
    return LabelMap(np.where(keep, np.cumsum(keep, dtype=np.int32), 0)[lab])


def _boundary_table(labels: np.ndarray, n: int) -> dict[int, dict[int, int]]:
    """Shared 4-adjacent pixel-pair counts between distinct positive labels.

    Each direction contributes the pairs where the label changes between two
    regions; only those pixels become int64 keys ``lo * n + hi``.
    """
    keys = []
    for a, b in ((labels[:, :-1], labels[:, 1:]), (labels[:-1], labels[1:])):
        keep = a != b
        keep &= a > 0
        keep &= b > 0
        a, b = a[keep], b[keep]
        keys.append(np.minimum(a, b).astype(np.int64) * n + np.maximum(a, b))
    keys, counts = np.unique(np.concatenate(keys), return_counts=True)
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
    1..K in raster-scan order.  ``min_size`` is an integer >= 0.
    """
    _check_field("min_size", min_size, int, {"ge": 0})
    current = relabel_connected(label_map)
    labels = current.labels
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

    # A group only ever absorbs a neighbour, so it stays connected, and region
    # ids are in raster discovery order, so numbering the groups by their
    # lowest member is numbering them by their first pixel in raster order.
    # Nothing merges into background region 0, so it stays component 0.
    return LabelMap(_components(n, np.arange(n), parent)[labels])
