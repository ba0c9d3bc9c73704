"""One exact fork map: ``fn(0), ..., fn(n - 1)`` over the usable cores.

The sweep maps its grid rows through :func:`fork_map`, the mean shift
filter its interleaved pixel shards, and the ESRI ASCII grid reader and
writer their row bands.  With ``w`` processes, share k holds items k,
k + w, k + 2w, ... and runs whole in one process; the caller runs share 0.
The running map's ``fn`` is this module's only state: forked workers
inherit it and all it reads, so only share numbers go out and only results
come back.  A caller whose results are large arrays may instead have its
items write them into a shared mapping made before the map, as the ASC
bands do, and return only small results.  While ``fn`` is set, in the caller
and every worker, :func:`worker_count` is 1: maps never nest, so a sweep
row run in a worker filters its pixels serially.
"""

from __future__ import annotations

import os
from typing import Callable

_fn: Callable | None = None  # the running map's function, in the caller and (inherited) in its workers


def worker_count(n: int) -> int:
    """Processes for a map of ``n`` items, the caller included.

    One per usable core, at most one per item; 1 inside a running map, and
    where the platform cannot report its usable cores or cannot fork
    (macOS, Windows).
    """
    if _fn is not None or not hasattr(os, "sched_getaffinity") or not hasattr(os, "fork"):
        return 1
    return min(n, len(os.sched_getaffinity(0)))


def _share(k: int, w: int, n: int) -> list:
    return [_fn(i) for i in range(k, n, w)]


def fork_map(fn: Callable[[int], object], n: int) -> list:
    """``[fn(0), ..., fn(n - 1)]``, in ``w = worker_count(n)`` processes.

    The caller runs share 0 while ``w - 1`` forked workers take the others,
    one task each (a worker done early may take a second).  An exception
    from ``fn`` propagates, the caller's first and then the workers' in
    share order, as does a worker that dies (``BrokenProcessPool``); every
    worker has exited by the time the map returns or raises.
    """
    w = worker_count(n)
    if w <= 1:
        return [fn(i) for i in range(n)]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    global _fn
    pool = ProcessPoolExecutor(w - 1, mp_context=multiprocessing.get_context("fork"))
    try:
        _fn = fn  # the pool forks its workers at the first submit, so they inherit it
        tasks = [pool.submit(_share, k, w, n) for k in range(1, w)]
        shares = [_share(0, w, n)] + [task.result() for task in tasks]
        return [shares[i % w][i // w] for i in range(n)]
    finally:
        _fn = None
        pool.shutdown(cancel_futures=True)  # joins every worker, on success or failure
