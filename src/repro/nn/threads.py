"""BLAS thread-count control for the big GEMMs (ROADMAP item 3).

numpy's matmul dispatches to the BLAS bundled with the wheel (OpenBLAS in the
``numpy.libs`` vendored build); its thread pool size decides whether the
padded ``(B, rows, dim)`` forwards of the fused engine run single-threaded or
fan out.  The substrate has no deep-learning dependency and ``threadpoolctl``
may not be installed, so this module talks to the BLAS runtime directly via
:mod:`ctypes`, degrading to an informative no-op when no known symbol is
found (e.g. a numpy linked against an unknown BLAS).

Use :func:`set_num_threads` / :func:`num_threads` for a process-wide setting
(the ``REPRO_NUM_THREADS`` environment variable applies one at import time)
and the :func:`blas_threads` context manager to scope a setting to one block
— the benchmarks record the active setting in their environment blocks via
:func:`thread_info`.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

__all__ = [
    "set_num_threads",
    "num_threads",
    "blas_threads",
    "thread_info",
    "max_threads",
    "shard_blas_threads",
]

#: Environment variable applied once at import (see :func:`_apply_env`).
ENV_VAR = "REPRO_NUM_THREADS"

#: Overrides the machine-wide thread budget returned by :func:`max_threads`
#: (defaults to ``os.cpu_count()``).  Sharded serving divides it among its
#: worker processes (:func:`shard_blas_threads`) so shards × BLAS threads
#: never oversubscribes the box.
BUDGET_ENV_VAR = "REPRO_MAX_THREADS"

#: (set, get) symbol-name pairs of the BLAS runtimes numpy is known to bundle.
#: The scipy-openblas wheels mangle the usual ``openblas_*`` entry points.
_SYMBOL_PAIRS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

_RESOLVED: tuple | None = None
_PROBED = False


def _candidate_libraries() -> list[Path]:
    """BLAS shared objects vendored next to the running numpy."""
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    if not libs_dir.is_dir():
        return []
    return sorted(
        path
        for path in libs_dir.iterdir()
        if "blas" in path.name.lower() and ".so" in path.name.lower()
    )


def _resolve() -> tuple | None:
    """Locate (set_fn, get_fn) in numpy's BLAS, once; None when unavailable."""
    global _RESOLVED, _PROBED
    if _PROBED:
        return _RESOLVED
    _PROBED = True
    for path in _candidate_libraries():
        try:
            library = ctypes.CDLL(str(path))
        except OSError:  # pragma: no cover - unreadable vendored library
            continue
        for set_name, get_name in _SYMBOL_PAIRS:
            set_fn = getattr(library, set_name, None)
            get_fn = getattr(library, get_name, None)
            if set_fn is None or get_fn is None:
                continue
            set_fn.argtypes = [ctypes.c_int]
            set_fn.restype = None
            get_fn.argtypes = []
            get_fn.restype = ctypes.c_int
            _RESOLVED = (set_fn, get_fn)
            return _RESOLVED
    return None


def set_num_threads(count: int) -> bool:
    """Set the BLAS thread-pool size; returns False when BLAS is uncontrollable."""
    if count <= 0:
        raise ValueError("thread count must be positive")
    resolved = _resolve()
    if resolved is None:
        return False
    resolved[0](int(count))
    return True


def num_threads() -> int | None:
    """Current BLAS thread-pool size, or None when BLAS is uncontrollable."""
    resolved = _resolve()
    if resolved is None:
        return None
    return int(resolved[1]())


@contextmanager
def blas_threads(count: int):
    """Run a block under ``count`` BLAS threads, restoring the previous setting.

    Yields the previous thread count (None when the BLAS runtime could not be
    controlled, in which case the block runs unchanged).
    """
    previous = num_threads()
    if previous is not None:
        set_num_threads(count)
    try:
        yield previous
    finally:
        if previous is not None:
            set_num_threads(previous)


def thread_info() -> dict:
    """What the benchmarks record: controllability and the active setting."""
    return {
        "controllable": _resolve() is not None,
        "blas_threads": num_threads(),
        "env": os.environ.get(ENV_VAR),
        "cpu_count": os.cpu_count(),
    }


def max_threads() -> int:
    """The machine-wide thread budget sharded serving divides among shards.

    ``REPRO_MAX_THREADS`` (a positive integer) overrides; otherwise
    ``os.cpu_count()`` (at least 1).  Invalid override values are ignored,
    matching :func:`_apply_env`'s lenient treatment of ``REPRO_NUM_THREADS``.
    """
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw:
        try:
            count = int(raw)
        except ValueError:
            count = 0
        if count > 0:
            return count
    return os.cpu_count() or 1


def shard_blas_threads(shards: int) -> int:
    """BLAS threads each of ``shards`` concurrent processes may use.

    The sharded serve front-end exports this as ``REPRO_NUM_THREADS`` for its
    worker processes so ``shards × blas_threads`` stays within the budget.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return max(1, max_threads() // shards)


def _apply_env() -> None:
    """Honour ``REPRO_NUM_THREADS`` once at import (invalid values ignored)."""
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return
    try:
        count = int(raw)
    except ValueError:
        return
    if count > 0:
        set_num_threads(count)


_apply_env()
