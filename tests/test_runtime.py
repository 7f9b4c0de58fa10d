"""The process policy that importing ``scenemotion`` sets (``scenemotion._runtime``)."""

import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from scenemotion import _runtime

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
_PROBE = ("import json, os, scenemotion; from scenemotion import _runtime; "
          "print(json.dumps({'env': {v: os.environ[v] for v in _runtime.THREAD_VARS}, "
          "'keeps': _runtime.KEEPS_FREED_MEMORY}))")


def import_in_subprocess(**env):
    """What a fresh ``import scenemotion`` sets, under ``env`` on top of a
    copy of this environment without the variables the policy reads."""
    base = {k: v for k, v in os.environ.items()
            if k not in _runtime.THREAD_VARS and not k.startswith("MALLOC_")
            and k != "GLIBC_TUNABLES"}
    base["PYTHONPATH"] = SRC
    out = subprocess.run([sys.executable, "-c", _PROBE], env={**base, **env}, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_blas_runs_one_thread_unless_the_user_chose():
    assert import_in_subprocess()["env"] == {v: "1" for v in _runtime.THREAD_VARS}
    got = import_in_subprocess(OPENBLAS_NUM_THREADS="2")["env"]
    assert got == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def test_allocator_thresholds_the_user_set_win():
    for env in ({"MALLOC_MMAP_THRESHOLD_": "131072"}, {"MALLOC_TRIM_THRESHOLD_": "131072"},
                {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=131072"}):
        assert import_in_subprocess(**env)["keeps"] is False, env


@pytest.mark.skipif(not _runtime._is_glibc() or _runtime._user_set_malloc_thresholds(),
                    reason="the allocator policy applies to glibc without user thresholds")
def test_freed_array_memory_is_reused_without_page_faults():
    # glibc's defaults map a 16 MB block on its own and unmap it on free, so
    # writing it again faults in every page: hundreds to thousands of faults
    assert _runtime.KEEPS_FREED_MEMORY
    a = np.ones(2 << 20)
    del a
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    b = np.ones(2 << 20)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert b[-1] == 1.0
    assert faults < 100
