"""The worker thread that the BiLSTM, the body kernel, the energy and training share
(``scenemotion._worker``)."""

import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from scenemotion._worker import both, worker
from helpers import count_pools

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_worker_runs_under_the_callers_numpy_error_state():
    with np.errstate(over="raise", invalid="ignore"):
        mine, theirs = both(np.geterr, np.geterr)
    assert mine == theirs
    assert theirs["over"] == "raise" and theirs["invalid"] == "ignore"
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            both(lambda: None, lambda: np.exp(np.array([1e3])))


def test_worker_error_reaches_the_caller_ahead_of_the_callers():
    def fail(what):
        raise ValueError(what)

    with pytest.raises(ValueError, match="worker") as err:
        both(lambda: fail("caller"), lambda: fail("worker"))
    assert str(err.value.__context__) == "caller"
    with pytest.raises(ValueError, match="worker"):
        both(lambda: 1, lambda: fail("worker"))


def test_work_runs_on_one_other_thread_shared_inside_a_block(monkeypatch):
    pools = count_pools(monkeypatch)
    caller = threading.get_ident()
    with worker():
        idents = [both(threading.get_ident, threading.get_ident) for _ in range(3)]
    assert len(pools) == 1
    assert {mine for mine, _ in idents} == {caller}
    assert len({theirs for _, theirs in idents} - {caller}) == 1
    # work on the worker that fans out again opens its own worker, never waits on itself
    with worker():
        inner = both(lambda: None, lambda: both(threading.get_ident, threading.get_ident))[1]
    assert len(pools) == 3 and inner[0] != caller


def test_import_starts_no_thread():
    probe = ("import json, threading, scenemotion.cli; "
             "print(json.dumps(threading.active_count()))")
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": SRC},
                         check=True, capture_output=True, text=True).stdout
    assert json.loads(out) == 1
