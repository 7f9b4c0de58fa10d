"""One-point, one-frame, one-sequence and value-only forms that tests use as oracles.

The package keeps only the batched forms; these wrap or unroll them for readability.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib.util
import os
import threading

import numpy as np

from scenemotion import _worker, body, rotation
from scenemotion.datagen import leg_length
from scenemotion.energy import scene_energy
from scenemotion.rotation import heading_to_rot6d
from scenemotion.sdf import sample_sdf_batch
from scenemotion.sequence import MotionSequence


def rest_params():
    """The rest pose: zero t, beta, p and h and the identity orientation."""
    return body.BodyParams(t=np.zeros(3), r=rotation.IDENTITY_6D.copy(),
                           beta=np.zeros(body.SHAPE_DIM),
                           p=np.zeros(body.POSE_DIM), h=np.zeros(body.HAND_DIM))


def sdf_at(grid, point):
    """Trilinear SDF value (float) and gradient (3,) at one point."""
    vals, grads = sample_sdf_batch(grid, np.reshape(point, (1, 3)))
    return float(vals[0]), grads[0]


def record_posings(monkeypatch, fail_at=None, error=None):
    """Frames of every call of the body kernel (``body.forward_batch`` and
    ``forward_batch_with_cache``), one array per call, in call order; call
    number ``fail_at`` (from 0) raises ``error`` instead."""
    posed = []
    for name in ("forward_batch", "forward_batch_with_cache"):
        def recording(template, frames, original=getattr(body, name)):
            posed.append(np.array(frames))
            if len(posed) - 1 == fail_at:
                raise error
            return original(template, frames)

        monkeypatch.setattr(body, name, recording)
    return posed


def foot_labels(segmentation, T):
    """Per-frame side ("left" | "right" | "none") of a FootSegmentation."""
    out = np.empty(T, dtype=object)
    for seg in segmentation.segments:
        out[seg.start:seg.end] = seg.side
    return out


def path_length(seq):
    """Total pelvis travel of a MotionSequence in meters."""
    return float(np.linalg.norm(np.diff(seq.translations, axis=0), axis=1).sum())


def shares_beta(seq):
    """Every frame of ``seq`` carries the first frame's shape vector."""
    return bool(np.all(seq.betas == seq.betas[0]))


class PinnedIndex:
    """A ``VertexIndex`` whose query rows each get a pinned cloud index, so the
    contact targets hold still while the vertices move."""

    def __init__(self, points, indices):
        self.points = points
        self.indices = np.asarray(indices).reshape(-1)

    def _nearest(self, query):
        query = np.asarray(query, dtype=np.float64).reshape(-1, 3)
        return self.indices, np.linalg.norm(query - self.points[self.indices], axis=1)

    nearest = _nearest


def pinned_field(scene_field, correspondences):
    """``scene_field`` with its contact targets pinned to ``correspondences``
    (T, C cloud indices), or unchanged when they are None."""
    if correspondences is None:
        return scene_field
    return dataclasses.replace(scene_field,
                               index=PinnedIndex(scene_field.index.points, correspondences))


def energy_value(template, frames, scene_field, weights, segmentation, correspondences=None):
    """Weighted energy total of refinement's objective, without its gradient."""
    vertices = body.forward_batch(template, frames).vertices
    report, _ = scene_energy(template, vertices, pinned_field(scene_field, correspondences),
                             weights, segmentation)
    return report.total


def contact_correspondences(template, frames, scene_field):
    """Exact nearest-cloud index of every contact vertex per frame, (T, C)."""
    cv = body.forward_batch(template, frames).vertices[:, template.contact_vertex_ids()]
    nn_idx, _ = scene_field.index.nearest(cv.reshape(-1, 3))
    return nn_idx.reshape(cv.shape[:2])


def frozen_energy_and_gradients(template, frames, scene_field, weights, segmentation,
                                correspondences):
    """``refine.energy_and_gradients`` with the contact targets pinned to
    ``correspondences`` (T, C cloud indices), so that finite differences of
    ``energy_value`` with the same targets check its gradient."""
    mesh, cache = body.forward_batch_with_cache(template, frames)
    report, g_vertices = scene_energy(template, mesh.vertices,
                                      pinned_field(scene_field, correspondences), weights,
                                      segmentation, want_grad=True)
    return report, body.pullback_batch(cache, g_vertices)


def gen_motion_per_frame(scene_spec, motion_spec, template, fps=30):
    """``datagen.gen_motion`` one frame at a time: the pelvis placed on the
    straight walk and each frame's gait angles built as a ``body.BodyParams``."""
    pts = np.asarray(motion_spec.waypoints, dtype=np.float64)
    if np.abs(pts).max() > scene_spec.floor_extent / 2.0 + 1e-9:
        raise ValueError("path leaves the floor extent")
    start, end = pts
    d = end - start
    length = float(np.linalg.norm(np.diff(pts, axis=0), axis=1)[0])
    heading = np.arctan2(d[1], d[0])

    def tri_wave(phi):
        m = np.mod(phi, 2.0 * np.pi)
        return 1.0 - 2.0 * m / np.pi if m < np.pi else -3.0 + 2.0 * m / np.pi

    speed = motion_spec.step_length * motion_spec.cadence
    walk_time = length / speed
    T = int(round(walk_time * fps)) + 1

    beta = np.zeros(body.SHAPE_DIM) if motion_spec.beta is None else np.asarray(motion_spec.beta)
    amp = np.clip(motion_spec.step_length / (2.0 * leg_length(template)), 0.0, 0.9)
    omega = np.pi * motion_spec.cadence
    phi0 = np.pi / 2.0

    ax = body.DESIGNED_AXIS_INDEX
    frames = np.zeros((T, body.PARAM_DIM))
    stance = []
    for i in range(T):
        ti = i / fps
        pos = start + (min(min(ti, walk_time) * speed, length) / length) * d
        coeffs = {}
        if ti <= walk_time:
            swing = amp * tri_wave(omega * min(ti, walk_time) + phi0)
            coeffs[ax[("l_hip", 0)]] = swing
            coeffs[ax[("r_hip", 0)]] = -swing
            coeffs[ax[("l_ankle", 0)]] = -swing
            coeffs[ax[("r_ankle", 0)]] = swing
            coeffs[ax[("l_shoulder", 0)]] = -0.35 * swing
            coeffs[ax[("r_shoulder", 0)]] = 0.35 * swing
            mid = np.mod(omega * min(ti + 0.5 / fps, walk_time) + phi0, 2.0 * np.pi)
            stance.append("left" if mid < np.pi else "right")
        else:
            stance.append("none")
        params = body.BodyParams(t=np.array([pos[0], pos[1], motion_spec.pelvis_height]),
                                 r=heading_to_rot6d(heading - np.pi / 2.0),
                                 beta=beta, p=body.pose_latent_for(template, coeffs),
                                 h=np.zeros(body.HAND_DIM))
        frames[i] = params.flat()
    return MotionSequence(frames=frames, fps=fps), stance


def segment_clear_of_boxes_per_point(a, b, boxes, margin=0.35):
    """``datagen._segment_clear_of_boxes`` one box and one sample point at a time."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    for center, size in boxes:
        half = np.asarray(size[:2]) / 2.0 + margin
        lo = np.asarray(center[:2]) - half
        hi = np.asarray(center[:2]) + half
        for alpha in np.linspace(0.0, 1.0, 9):
            p = a + alpha * (b - a)
            if np.all(p >= lo) and np.all(p <= hi):
                return False
    return True


def _load_script(name, *path):
    """The script at ``path`` under the repository root, loaded as module ``name``."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(name, os.path.join(root, *path))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def perfbench_tracing():
    """The benchmark's ``perfbench/tracing.py``, loaded as a module."""
    return _load_script("_perfbench_tracing", "perfbench", "tracing.py")


def thread_recording_tracer():
    """The benchmark's ``Tracer`` whose wrappers also record the threads each
    traced callable ran on; returns (tracing module, tracer, {span name: thread ids})."""
    tracing = perfbench_tracing()
    ran_on = {}

    class ThreadRecorder(tracing.Tracer):
        def _wrap(self, name, fn, work):
            traced = super()._wrap(name, fn, work)

            @functools.wraps(fn)
            def recorded(*args, **kwargs):
                ran_on.setdefault(name, set()).add(threading.get_ident())
                return traced(*args, **kwargs)
            return recorded

    return tracing, ThreadRecorder(), ran_on


def count_pools(monkeypatch):
    """Every thread pool ``scenemotion._worker`` opens from now on, in order."""
    pools = []

    def counting(*args, real=_worker.ThreadPoolExecutor, **kwargs):
        pools.append(real(*args, **kwargs))
        return pools[-1]

    monkeypatch.setattr(_worker, "ThreadPoolExecutor", counting)
    return pools


def identity_script():
    """The output identity check ``tests/identity.py``, loaded as a module."""
    return _load_script("_identity", "tests", "identity.py")
