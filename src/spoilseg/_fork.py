"""One exact fork map: ``fn(0), ..., fn(n - 1)`` over the usable cores.

The sweep maps its grid rows through :func:`fork_map`, the mean shift
filter its interleaved pixel shards, and the ESRI ASCII grid reader and
writer their row bands.  With ``w`` processes, share k holds items k,
k + w, k + 2w, ... and runs whole in one process: the caller runs share 0,
and each of ``w - 1`` forked workers one other.  Workers inherit ``fn`` and
all it reads; each share's results come back pickled through an in-memory
file, or, where they are large arrays, may be written by the items into a
shared mapping made before the map, as the ASC bands do.  While a map runs,
in the caller and every worker, :func:`worker_count` is 1: maps never nest,
so a sweep row run in a worker filters its pixels serially.
"""

from __future__ import annotations

import os
import pickle
from typing import Callable

_running = False  # set while a map runs, in the caller and (inherited) in its workers


def worker_count(n: int) -> int:
    """Processes for a map of ``n`` items, the caller included.

    One per usable core, at most one per item; 1 inside a running map, and
    where the platform cannot report its usable cores or has no in-memory
    files (macOS, Windows).
    """
    if _running or not hasattr(os, "sched_getaffinity") or not hasattr(os, "memfd_create"):
        return 1
    return min(n, len(os.sched_getaffinity(0)))


def fork_map(fn: Callable[[int], object], n: int) -> list:
    """``[fn(0), ..., fn(n - 1)]``, in ``w = worker_count(n)`` processes.

    Worker k pickles ``(ok, results or exception)`` into its own in-memory
    file, and exits with status 0 only once that file is whole.  An
    exception from ``fn`` propagates, the caller's first and then the
    workers' in share order; a worker that dies, or whose results cannot be
    pickled, raises ``ChildProcessError``.  Every worker has been reaped by
    the time the map returns or raises.
    """
    w = worker_count(n)
    if w <= 1:
        return [fn(i) for i in range(n)]
    global _running
    files, pids = [], []
    _running = True
    try:
        for k in range(1, w):
            files.append(open(os.memfd_create(f"fork_map share {k}"), "w+b"))
            pid = os.fork()
            if pid == 0:  # the worker: it leaves only through os._exit
                try:
                    try:
                        out = (True, [fn(i) for i in range(k, n, w)])
                    except BaseException as e:
                        out = (False, e)
                    pickle.dump(out, files[-1], pickle.HIGHEST_PROTOCOL)
                    files[-1].flush()
                    os._exit(0)
                finally:
                    os._exit(1)
            pids.append(pid)
        shares = [[fn(i) for i in range(0, n, w)]]
        for f in files:
            status = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
            pid = pids.pop(0)
            if status:
                raise ChildProcessError(f"fork map worker {pid} exited with status {status}")
            f.seek(0)
            ok, out = pickle.load(f)
            if not ok:
                raise out
            shares.append(out)
        return [shares[i % w][i // w] for i in range(n)]
    finally:
        _running = False
        for f in files:
            f.close()
        for pid in pids:
            os.waitpid(pid, 0)
