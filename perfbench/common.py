"""Thread pinning, import path and environment record shared by the scripts.

Import this module before anything imports numpy: OpenBLAS reads its thread
count once, when it loads, and otherwise starts one thread per core.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def import_package():
    """Import scenemotion from this checkout's ``src``; raise if it is missing."""
    if not os.path.isdir(os.path.join(SRC, "scenemotion")):
        raise ImportError(f"no scenemotion package under {SRC}")
    sys.path.insert(0, SRC)
    import scenemotion
    if os.path.commonpath([os.path.abspath(scenemotion.__file__), SRC]) != SRC:
        raise ImportError(f"scenemotion was imported from {scenemotion.__file__}, not {SRC}")
    return scenemotion


def git_sha():
    """HEAD commit read from ``.git`` without running git; None outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "scenemotion")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def environment():
    import numpy
    import scipy
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }
