"""Process bootstrap and environment record shared by the benchmark entry points.

:func:`prepare` must run before numpy is imported: it caps every BLAS/OpenMP
pool at one thread, so that one process and no helper threads generate the
load, and it puts the checkout's own ``src/`` first on the import path.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class MissingSources(RuntimeError):
    """The checkout holds no spoilseg sources to benchmark."""


def prepare() -> None:
    """Pin thread caps and import spoilseg from this checkout only."""
    os.environ.update(THREAD_CAPS)
    src = ROOT / "src"
    if not (src / "spoilseg" / "__init__.py").is_file():
        raise MissingSources(f"no spoilseg package under {src}")
    for path in (str(ROOT), str(src)):
        if path in sys.path:
            sys.path.remove(path)
        sys.path.insert(0, path)


def record() -> dict:
    """nproc, interpreter and library versions, and the thread caps in force."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {name: os.environ.get(name) for name in THREAD_CAPS},
    }
