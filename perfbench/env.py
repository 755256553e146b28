"""Steady single-process environment for every benchmark run.

Imported by ``run.py`` before numpy or ``repro``: BLAS/OpenMP pools are
pinned to one thread (OpenBLAS otherwise sizes its pool to the host's
core count, which on a small shared box makes timings swing), and the
``repro`` knobs that change what a call does are forced off.
"""

import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "REPRO_TRACE": "0",
    "REPRO_CONTRACTS": "0",
}
UNSET = ("REPRO_FEATURES_STORE",)


def pin() -> None:
    """Apply the pinned environment and put the checkout's ``src`` first."""
    os.environ.update(PINNED)
    for name in UNSET:
        os.environ.pop(name, None)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` (``unknown`` outside git)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def describe() -> dict:
    """What each result is recorded with: commit, cores, numpy, python."""
    import numpy

    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "pinned": dict(PINNED),
    }
