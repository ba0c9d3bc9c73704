"""One exact fork map: ``fn(0), ..., fn(n - 1)`` over the usable cores.

The sweep maps its grid rows through :func:`fork_map` and the mean shift
filter its interleaved pixel shards.  ``fn`` reaches the forked workers by
inheritance, never by pickling: only item indices go out and only results
come back, in order.  A map never forks inside another: while one runs, in
the parent and in every worker, :func:`worker_count` is 1, so a sweep row
run in a worker filters its pixels serially.
"""

from __future__ import annotations

import os
from typing import Callable

_in_map = False  # set while a map runs, in the parent and in each of its workers
_worker_fn: Callable | None = None  # the mapped function, set in each forked worker by _start_worker


def worker_count(n: int) -> int:
    """Processes for a map of ``n`` items, the parent included.

    One per usable core, at most one per item; 1 inside a running map, and
    where the platform cannot report its usable cores or cannot fork
    (macOS, Windows).
    """
    if _in_map or not hasattr(os, "sched_getaffinity") or not hasattr(os, "fork"):
        return 1
    return min(n, len(os.sched_getaffinity(0)))


def _start_worker(fn: Callable) -> None:
    global _in_map, _worker_fn
    _in_map, _worker_fn = True, fn


def _call(i: int):
    return _worker_fn(i)


def fork_map(fn: Callable[[int], object], n: int) -> list:
    """``[fn(0), ..., fn(n - 1)]``, in ``w = worker_count(n)`` processes.

    The parent runs items 0, w, 2w, ... itself while ``w - 1`` forked
    workers take the others as they come free.  An exception from ``fn``,
    or a worker that dies (``BrokenProcessPool``), propagates; every worker
    has exited by the time the map returns or raises.
    """
    w = worker_count(n)
    if w <= 1:
        return [fn(i) for i in range(n)]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    global _in_map
    pool = ProcessPoolExecutor(
        w - 1, mp_context=multiprocessing.get_context("fork"), initializer=_start_worker, initargs=(fn,)
    )
    _in_map = True
    try:
        futures = {i: pool.submit(_call, i) for i in range(n) if i % w}
        own = {i: fn(i) for i in range(0, n, w)}
        return [own[i] if i % w == 0 else futures[i].result() for i in range(n)]
    finally:
        _in_map = False
        pool.shutdown(cancel_futures=True)  # joins every worker, on success or failure
