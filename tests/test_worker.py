"""The one worker thread of the process, which the BiLSTM, the body kernel and the
RouteNet/PoseNet head share (``scenemotion._worker``)."""

import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from scenemotion import _worker, body
from scenemotion._worker import both
from scenemotion.cvae import CVAETrainer, GoalCVAE
from scenemotion.motion_nets import PoseNet, RouteNet, train_pose_net, train_route_net
from scenemotion.pipeline import GoalSpec, plan_long_term
from scenemotion.refine import RefinementSchedule, refine
from scenemotion.rotation import heading_to_rot6d
from scenemotion.sequence import MotionSequence
from helpers import rest_params, worker_handoffs

# how long a forked child may take to run one fan-out and exit
FORK_JOIN_S = 30.0
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


def _walk(n, rng):
    """``n`` rest-pose frames walking 1 m along x, with small pose noise."""
    frames = np.tile(rest_params().flat(), (n, 1))
    frames[:, body.T] = np.linspace([-1.0, 0.0, 0.93], [0.0, 0.0, 0.93], n)
    frames[:, body.POSE] += rng.standard_normal((n, 56)) * 0.1
    return frames


def test_refine_the_trainers_and_a_plan_share_one_worker_thread(template, slab_field,
                                                                monkeypatch):
    """Every fan-out of each call, and of every call after it, runs on the
    same worker thread, and no call starts a thread or a second pool."""
    rng = np.random.default_rng(0)
    k = 15
    clips = [{"scene": 0, "frames": _walk(k + 1, rng)} for _ in range(3)]
    clouds = {0: slab_field.cloud.points}
    cvae = GoalCVAE(np.random.default_rng(0), hidden=32, cond_dim=24, point_hidden=(8, 12))
    route = RouteNet(np.random.default_rng(1), hidden=24, fc_width=32, point_hidden=(8, 12))
    pose = PoseNet(np.random.default_rng(2), hidden=24, fc_width=32, point_hidden=(8, 12))
    bodies = _walk(body.FRAME_BLOCK + 8, rng)  # two body-kernel blocks
    spec = GoalSpec(translations=np.array([[-1.0, 0.0, 0.93], [0.2, 0.3, 0.93]]),
                    rotations=np.stack([heading_to_rot6d(0.0), heading_to_rot6d(0.2)]),
                    beta=np.zeros(10))
    calls = {
        "refine": lambda: refine(template, MotionSequence(frames=bodies), slab_field,
                                 RefinementSchedule.two_stage(iters=1)),
        "cvae": lambda: CVAETrainer(cvae, template, {0: slab_field}).train_step(
            bodies, [0] * len(bodies)),
        "route": lambda: train_route_net(route, clips, clouds, epochs=1, batch_size=3),
        "pose": lambda: train_pose_net(pose, route, clips, clouds, epochs=1, batch_size=3),
        "plan": lambda: plan_long_term(cvae, route, pose, template, spec, slab_field, k=k,
                                       schedule=None),
    }
    handoffs = worker_handoffs(monkeypatch)
    caller, threads = threading.get_ident(), threading.active_count()
    for name, call in calls.items():
        ran = len(handoffs)
        call()
        assert len(handoffs) > ran, name
        assert set(handoffs) == {_worker._thread.ident} != {caller}, name
        assert threading.active_count() == threads, name


def test_a_fan_out_on_the_worker_runs_in_turn_there(monkeypatch):
    handoffs = worker_handoffs(monkeypatch)
    inner = both(lambda: None, lambda: both(threading.get_ident, threading.get_ident))[1]
    assert inner == (_worker._thread.ident,) * 2 and handoffs == [inner[0]]
    assert inner[0] != threading.get_ident()


def test_the_worker_runs_on_after_an_error(monkeypatch):
    handoffs = worker_handoffs(monkeypatch)

    def fail():
        raise ValueError("worker")

    with pytest.raises(ValueError, match="worker"):
        both(lambda: 1, fail)
    assert both(lambda: 1, threading.get_ident) == (1, _worker._thread.ident)
    assert handoffs == [_worker._thread.ident] * 2


def _fan_out_in_child():
    mine, theirs = both(threading.get_ident, threading.get_ident)
    assert mine != theirs == _worker._thread.ident


def test_a_forked_child_starts_its_own_worker():
    both(lambda: None, lambda: None)  # the parent's worker is running
    child = multiprocessing.get_context("fork").Process(target=_fan_out_in_child)
    child.start()
    child.join(FORK_JOIN_S)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join()
    assert not hung and child.exitcode == 0


def test_calling_threads_that_race_to_start_the_worker_start_one():
    """Four calling threads (more than the two cores) make their first ``both``
    at once, in a fresh process with a short switch interval."""
    probe = textwrap.dedent("""
        import json, sys, threading
        from scenemotion import _worker
        pools = []

        def counting(*args, real=_worker.ThreadPoolExecutor, **kwargs):
            pools.append(real(*args, **kwargs))
            return pools[-1]

        _worker.ThreadPoolExecutor = counting
        sys.setswitchinterval(1e-6)
        start, ran_on = threading.Barrier(4), set()

        def call():
            start.wait()
            for _ in range(200):
                ran_on.add(_worker.both(int, threading.get_ident)[1])

        callers = [threading.Thread(target=call) for _ in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join()
        print(json.dumps([len(pools), len(ran_on)]))
    """)
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": SRC},
                         check=True, capture_output=True, text=True, timeout=60).stdout
    assert json.loads(out) == [1, 1]


def test_import_starts_no_thread():
    probe = ("import json, threading, scenemotion.cli; "
             "print(json.dumps(threading.active_count()))")
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": SRC},
                         check=True, capture_output=True, text=True).stdout
    assert json.loads(out) == 1
