"""Process-wide runtime policy, applied once when ``scenemotion`` is imported.

This is the one module that touches the process: it sets environment
variables and calls into the C library. ``scenemotion/__init__.py`` imports
it before anything else, so numpy has not loaded yet unless the caller
imported it first.

- BLAS threads: ``THREAD_VARS`` default to "1". The BiLSTM runs its two
  directions on two threads, the body kernel gives a second thread every
  other frame block, and the RouteNet/PoseNet head's backward gives it one
  weight-gradient GEMM (``_worker``); a multi-threaded BLAS under them
  competes for the same cores. A value the user set wins; none has an
  effect once numpy has loaded its BLAS.
- Freed memory: on glibc, large blocks are taken from the heap, not from
  ``mmap``, and the heap is not trimmed, so the arrays a training or
  refinement step frees are reused by the next step instead of being
  returned to the kernel and faulted in again. A user who set either
  threshold, by ``MALLOC_*_THRESHOLD_`` or ``GLIBC_TUNABLES``, keeps it.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# mallopt parameters (malloc.h)
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
# glibc's ceiling for the mmap threshold on 64-bit (HEAP_MAX_SIZE / 2); a
# block at least this large is still mapped and unmapped on its own.
MMAP_THRESHOLD = 32 << 20
# Far above the largest step's transient memory. Setting it also turns off
# glibc's dynamic thresholds, which is why both values are set.
TRIM_THRESHOLD = 1 << 30

_USER_MALLOC_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")
_USER_TUNABLES = ("glibc.malloc.mmap_threshold", "glibc.malloc.trim_threshold")


def _is_glibc():
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


def _user_set_malloc_thresholds():
    tunables = os.environ.get("GLIBC_TUNABLES", "")
    return (any(v in os.environ for v in _USER_MALLOC_VARS)
            or any(t in tunables for t in _USER_TUNABLES))


def _keep_freed_memory():
    """Apply the glibc thresholds; True when both calls succeeded."""
    if not _is_glibc() or _user_set_malloc_thresholds():
        return False
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD))


for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")
KEEPS_FREED_MEMORY = _keep_freed_memory()
