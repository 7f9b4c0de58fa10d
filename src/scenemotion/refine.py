"""Gradient-based refinement of a whole sequence against the scene.

Optimizes every frame's body pose and hand pose, and the translation and
global orientation of every frame but the goal frames (``chunk_boundaries``),
with Adam under a staged weight schedule; shape stays fixed. The goal frames
keep their given translation and orientation bit-exact; left free, the
smoothness term would shrink the trajectory by pulling the goals together. Foot
segmentation is recomputed at stage boundaries; the nearest-point contact
targets are refreshed every iteration and frozen within it.

Each frame set is posed and scored once. A stage's first evaluation segments
its own posed vertices, and the same evaluation closes the stage before: that
stage's last total is the evaluation's collision, contact and smoothness terms
with the foot term under the earlier segmentation, in the earlier weights.
After the last stage one value-only evaluation closes it and scores the
refined frames under a fresh segmentation. Stages of n1, ..., nk iterations
thus take n1 + ... + nk + 1 evaluations. The result carries the unweighted
terms of the first and the final evaluation, the reports of the unrefined and
the refined frames.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from . import body
from ._worker import worker
from .config import _coerce
from .energy import (EnergyReport, EnergyWeights, FootSegmentation, e_foot, scene_energy,
                     segment_stable_foot)
# The benchmark's tracer (perfbench/tracing.py) looks the contact term up
# under this name.
from .energy import _cont_term as _contact_value_grad  # noqa: F401
from .errors import InvalidRotationError, NumericError
from .nn.adam import AdamState
from .nn.params import Param
from .sequence import MotionSequence

DEFAULT_STAGE_ITERS = 200
DEFAULT_STAGE_LR = 1e-2
_WEIGHT_NAMES = tuple(f.name for f in fields(EnergyWeights))  # foot, col, cont, smooth


@dataclass
class RefineStage:
    weights: EnergyWeights
    iters: int = DEFAULT_STAGE_ITERS
    lr: float = DEFAULT_STAGE_LR

    def __post_init__(self):
        if self.iters < 1:
            raise ValueError(f"stage iteration count must be >= 1, got {self.iters}")
        if not (np.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"stage learning rate must be finite and positive, got {self.lr}")


@dataclass
class RefinementSchedule:
    stages: list

    def __post_init__(self):
        if not self.stages:
            raise ValueError("schedule needs at least one stage")

    @staticmethod
    def two_stage(iters=DEFAULT_STAGE_ITERS, lr=DEFAULT_STAGE_LR):
        """Environment-first stage, then foot stability joins in at the
        default (report) weights."""
        return RefinementSchedule(stages=[RefineStage(EnergyWeights(foot=0.0), iters, lr),
                                          RefineStage(EnergyWeights(), iters, lr)])

    @staticmethod
    def from_json(path):
        """Stages from a JSON list of ``{weights, iters, lr}`` records, all four
        weights given; a malformed file raises ValueError naming the stage."""
        with open(path) as f:
            records = json.load(f)
        if not isinstance(records, list):
            raise ValueError("schedule must be a JSON list of stages")
        stages = []
        for n, rec in enumerate(records):
            if not isinstance(rec, dict) or "weights" not in rec:
                raise ValueError(f"stage {n} needs a \"weights\" entry")
            w = rec["weights"]
            try:
                named = isinstance(w, dict)
                ws = {k: _coerce(f"weight {k!r}", v, 0.0)
                      for k, v in (w.items() if named else enumerate(w))}
                if set(ws) != set(_WEIGHT_NAMES if named else range(len(_WEIGHT_NAMES))):
                    raise ValueError(f"weights need all four terms {list(_WEIGHT_NAMES)}, "
                                     f"got {w!r}")
                weights = EnergyWeights(**ws) if named else EnergyWeights(*ws.values())
                iters = _coerce("'iters'", rec.get("iters", DEFAULT_STAGE_ITERS),
                                DEFAULT_STAGE_ITERS)
                lr = _coerce("'lr'", rec.get("lr", DEFAULT_STAGE_LR), DEFAULT_STAGE_LR)
                stages.append(RefineStage(weights, iters, lr))
            except (TypeError, ValueError) as e:
                raise ValueError(f"stage {n}: {e}") from None
        return RefinementSchedule(stages=stages)


@dataclass
class RefineResult:
    sequence: MotionSequence
    history: list                 # per stage: weights, lr, and totals and terms per iteration
    diagnostic: str | None = None
    first_terms: list | None = None   # [foot, col, cont, smooth] of the unrefined frames
    final_terms: list | None = None   # ... of the refined frames; None after an abort


def frames_to_vars(frames):
    return np.concatenate([frames[:, body.ROUTE], frames[:, body.POSE]], axis=1)


def vars_to_frames(x, betas):
    return np.concatenate([x[:, body.ROUTE], betas, x[:, body.VAR_POSE]], axis=1)


@dataclass
class Evaluation:
    """One posing and scoring of a frame set."""
    report: EnergyReport              # under ``segmentation``
    grad: np.ndarray | None           # dTotal/d(t,r,p,h) per frame; None when value-only
    vertices: np.ndarray              # posed (T, V, 3)
    segmentation: FootSegmentation

    def closing(self, template, weights, segmentation):
        """The report of these frames under an earlier stage's ``weights`` and
        ``segmentation``; only the foot term is taken again."""
        r = self.report
        return EnergyReport(e_foot(template, self.vertices, segmentation), r.col, r.cont,
                            r.smooth, weights)


def energy_and_gradients(template, frames, scene_field, weights, segmentation=None):
    """Weighted energy report plus dTotal/d(t,r,p,h) per frame, as an Evaluation.

    Without a ``segmentation`` the frames' own posed vertices are segmented.
    Contact targets come from fresh exact queries, and the gradient is taken
    with those targets held fixed.
    """
    mesh, cache = body.forward_batch_with_cache(template, frames)
    return _score(template, mesh.vertices, scene_field, weights, segmentation, cache)


def _score(template, vertices, scene_field, weights, segmentation, cache=None):
    """Evaluation of posed ``vertices``; with the posing's ``cache`` it has a gradient."""
    if segmentation is None:
        segmentation = segment_stable_foot(template, vertices)
    report, g_vertices = scene_energy(template, vertices, scene_field, weights, segmentation,
                                      want_grad=cache is not None)
    grad = None if cache is None else body.pullback_batch(cache, g_vertices)
    return Evaluation(report, grad, vertices, segmentation)


_EVAL_ERRORS = (InvalidRotationError, NumericError, FloatingPointError)


def refine(template, seq, scene_field, schedule):
    """Run the staged Adam refinement over the whole sequence.

    The translation and orientation of every ``seq.chunk_boundaries`` frame
    are held fixed by zeroing their gradient rows before each Adam step.
    Returns a RefineResult; on a failed evaluation or non-finite energy or
    gradients the loop aborts and the result carries the last finite state
    plus a diagnostic string naming the stage and iteration. A stage whose
    closing evaluation failed keeps one total per iteration and no closing one.
    """
    betas = seq.betas.copy()
    x = Param("refine.vars", frames_to_vars(seq.frames))
    adam = AdamState([x])
    history = []
    diagnostic = None
    last_finite = x.value.copy()
    first = final = None
    unclosed = None  # (history record, stage, segmentation) of a stage that ran to its end

    def record(rec, report):
        rec["totals"].append(report.total)
        rec["terms"].append(report.terms())

    def close(ev):
        rec, stage, segmentation = unclosed
        record(rec, ev.closing(template, stage.weights, segmentation))

    with worker():  # one worker thread for every evaluation below
        for stage_idx, stage in enumerate(schedule.stages):
            rec = {"stage": stage_idx, "weights": list(stage.weights.as_tuple()),
                   "lr": stage.lr, "totals": [], "terms": []}
            history.append(rec)
            segmentation = None  # the first evaluation's, frozen for the stage
            for it in range(stage.iters):
                try:
                    ev = energy_and_gradients(template, vars_to_frames(x.value, betas),
                                              scene_field, stage.weights, segmentation)
                except _EVAL_ERRORS as e:
                    diagnostic = f"stage {stage_idx}: {e} at iteration {it}"
                    x.value[...] = last_finite
                    break
                if it == 0:
                    if unclosed is not None:  # the frames the stage before ended on
                        close(ev)
                    if stage_idx == 0:
                        first = ev.report.terms()
                    segmentation = ev.segmentation
                if not np.isfinite(ev.report.total):
                    diagnostic = f"stage {stage_idx}: non-finite energy at iteration {it}"
                    x.value[...] = last_finite
                    break
                last_finite = x.value.copy()
                record(rec, ev.report)
                x.zero_grad()
                x.grad += ev.grad
                x.grad[seq.chunk_boundaries, body.ROUTE] = 0.0  # t and r of the goal frames
                try:
                    adam.step(stage.lr)
                except NumericError as e:
                    diagnostic = f"stage {stage_idx}: {e} at iteration {it}"
                    break
            else:
                unclosed = (rec, stage, segmentation)
            if diagnostic is not None:
                break
        else:  # one value-only evaluation of the frames the last step reached
            try:
                vertices = body.forward_batch(template, vars_to_frames(x.value, betas)).vertices
                ev = _score(template, vertices, scene_field, stage.weights, None)
            except _EVAL_ERRORS as e:
                diagnostic = f"stage {stage_idx}: {e} at iteration {stage.iters}"
                x.value[...] = last_finite
            else:
                close(ev)
                final = ev.report.terms()

    refined = MotionSequence(frames=vars_to_frames(x.value, betas), fps=seq.fps,
                             chunk_boundaries=list(seq.chunk_boundaries))
    return RefineResult(sequence=refined, history=history, diagnostic=diagnostic,
                        first_terms=first, final_terms=final)
