"""Spans around the public functions of each scenemotion layer.

The wrappers live here, in the benchmark, and are installed only for traced
operations; nothing in the package is edited. A span records its name, start,
end, parent span and operation id; spans stay in memory until the run writes
them out. A function imported by name into other modules is patched at every
binding site, so a call through any of them is recorded.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

import numpy as np


def _points(args, result):
    return np.asarray(args[1]).size // 3


def _node_faces(args, result):
    return result.values.size * len(args[0].faces)


def _cloud_key(args, result):
    return hash(np.asarray(args[1]).tobytes())


def targets():
    """(span name, owner, attribute, work annotation) for every traced callable.

    A work annotation maps (call args, result) to a number stored on the span:
    points sampled, queries made, node-face pairs built, or a key naming the
    point cloud encoded.
    """
    from scenemotion import (body, cvae, energy, metrics, motion_nets, pipeline,  # noqa: F401
                             refine, scene, sdf)
    from scenemotion.nn import adam, layers, lstm, pointnet
    terms = [(energy, n) for n in ("_foot_term", "_col_term", "_cont_term", "_smooth_term",
                                   "e_col", "e_cont", "e_smooth")]
    terms.append((refine, "_contact_value_grad"))
    return [
        ("body.forward_with_cache", body, "forward_with_cache", None),
        ("body.pullback", body, "pullback", None),
        ("energy.segment_stable_foot", energy, "segment_stable_foot", None),
        ("energy.total_energy", energy, "total_energy", None),
        *[("energy.terms", owner, name, None) for owner, name in terms],
        ("refine.refine", refine, "refine", None),
        ("refine.energy_and_gradients", refine, "energy_and_gradients", None),
        ("sdf.sample_sdf_batch", sdf, "sample_sdf_batch", _points),
        ("sdf.build_sdf", sdf, "build_sdf", _node_faces),
        ("sdf.unsigned_distance", sdf, "unsigned_distance", None),
        ("sdf.inside_mask", sdf, "inside_mask", None),
        ("scene.nearest", scene.VertexIndex, "nearest", _points),
        ("scene.sample_point_cloud", scene, "sample_point_cloud", None),
        ("scene.index_build", scene.VertexIndex, "__init__", None),
        ("nn.pointnet.forward", pointnet.PointEncoder, "forward", _cloud_key),
        ("nn.pointnet.backward", pointnet.PointEncoder, "backward", None),
        ("nn.lstm.forward", lstm.BiLSTM, "forward", None),
        ("nn.lstm.backward", lstm.BiLSTM, "backward", None),
        ("nn.linear.forward", layers.Linear, "forward", None),
        ("nn.linear.backward", layers.Linear, "backward", None),
        ("nn.adam.step", adam.AdamState, "step", None),
        ("cvae.sample_goal_body", cvae.GoalCVAE, "sample_goal_body", None),
        ("cvae.forward_backward", cvae.CVAETrainer, "forward_backward", None),
        ("cvae.body_energies", cvae.CVAETrainer, "_body_energies", None),
        ("motion_nets.synthesize_clip", motion_nets, "synthesize_clip", None),
        ("motion_nets.forward_batch", motion_nets._SeqNet, "forward_batch", None),
        ("motion_nets.backward_batch", motion_nets._SeqNet, "backward_batch", None),
        ("pipeline.plan_long_term", pipeline, "plan_long_term", None),
    ]


def span_names():
    return list(dict.fromkeys(name for name, *_ in targets()))


class Tracer:
    """Records spans while installed; ``with tracer.op(i):`` marks one operation."""

    ROOT = "op"

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, op id, work]
        self._stack = []
        self._op = None
        self._patches = []     # (owner, attribute, original)
        self.sites = {}        # span name -> ["module.attribute", ...] patched

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if work is not None:
                rec[5] = work(args, result)
            return result
        return traced

    def install(self):
        self.sites = {}
        for name, owner, attr, work in targets():
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, work)
            if isinstance(owner, type):
                sites = [owner]
            else:  # a module function: every module that bound it by name
                sites = [m for m in list(sys.modules.values())
                         if getattr(m, "__name__", "").startswith("scenemotion")
                         and m.__dict__.get(attr) is original]
            for site in sites:
                self._patches.append((site, attr, original))
                setattr(site, attr, wrapper)
                self.sites.setdefault(name, []).append(f"{site.__name__}.{attr}")

    def uninstall(self):
        for site, attr, original in reversed(self._patches):
            setattr(site, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def op(self, op_id):
        """Install the wrappers and record one operation under a root span."""
        self.install()
        self._op = op_id
        rec = [self.ROOT, 0.0, 0.0, -1, op_id, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            self._op = None
            self.uninstall()


def span_problems(spans):
    """Why ``spans`` are not one well-nested tree per op; empty when they are.

    Each op has exactly one root span. Every other span has a parent of the
    same op, lies within the parent's interval and does not overlap its
    siblings. Only then does every instant of an op count in exactly one
    span's self time.
    """
    problems, roots, children = [], {}, {}
    for i, (name, start, end, parent, op, work) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} ({name}) ends before it starts")
        if name == Tracer.ROOT:
            if parent != -1 or op in roots:
                problems.append(f"span {i} is a second root of op {op} or has a parent")
            roots[op] = i
        elif not 0 <= parent < len(spans):
            problems.append(f"span {i} ({name}) has no parent")
        elif spans[parent][4] != op:
            problems.append(f"span {i} ({name}) of op {op} has a parent of another op")
        elif start < spans[parent][1] or end > spans[parent][2]:
            problems.append(f"span {i} ({name}) lies outside its parent {parent}")
        else:
            children.setdefault(parent, []).append(i)
    for parent, kids in children.items():
        kids.sort(key=lambda i: spans[i][1])
        for a, b in zip(kids, kids[1:]):
            if spans[b][1] < spans[a][2]:
                problems.append(f"spans {a} and {b} overlap under parent {parent}")
    for op in sorted({s[4] for s in spans} - set(roots), key=str):
        problems.append(f"op {op} has no root span")
    return problems


def self_times(spans):
    """Per span: duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op, work in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def summarize(spans):
    """Per span name: calls, self seconds, inclusive seconds, summed work."""
    out = {}
    for s, self_s in zip(spans, self_times(spans)):
        rec = out.setdefault(s[0], {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "work": 0})
        rec["calls"] += 1
        rec["self_s"] += self_s
        rec["incl_s"] += s[2] - s[1]
        rec["work"] += s[5]
    return out
