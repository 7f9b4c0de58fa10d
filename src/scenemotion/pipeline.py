"""Two-level long-term synthesis: sample a body at every goal, fill every gap
between consecutive goals with a short clip that starts and ends on the shared
goal bodies, then refine the whole sequence against the scene."""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import body
from .config import _coerce
from .cvae import fit_latent
from .energy import EnergyReport, EnergyWeights, total_energy
from .errors import InvalidRotationError, SceneMotionError
from .motion_nets import synthesize_clip
from .refine import refine
from .rotation import rot6d_to_matrix
from .sequence import MotionSequence


class PipelineStageError(SceneMotionError):
    """Wraps a failure with the pipeline stage it happened in."""


@contextmanager
def _stage(name):
    """Wrap what bad inputs raise in stage ``name`` (InvalidRotationError, BodyParams'
    ValueError, NumericError, FloatingPointError) in a PipelineStageError; a
    program fault propagates as it is."""
    try:
        yield
    except (SceneMotionError, ValueError, ArithmeticError) as e:
        raise PipelineStageError(f"stage {name!r}: {e}") from e


@dataclass
class GoalSpec:
    translations: np.ndarray              # (G, 3)
    rotations: np.ndarray                 # (G, 6)
    beta: np.ndarray                      # (10,) shared by every goal body
    seeds: list = field(default_factory=list)  # per-goal latent seeds

    def __post_init__(self):
        for name, width in (("translations", 3), ("rotations", 6), ("beta", None)):
            a = np.asarray(getattr(self, name), dtype=np.float64)
            want = (body.SHAPE_DIM,) if not width else np.shape(self.translations)[:1] + (width,)
            if a.shape != want:
                raise ValueError(f"goal {name}: shape {a.shape}, expected {want}")
            if not np.all(np.isfinite(a)):
                raise ValueError(f"goal {name} must be finite")
            setattr(self, name, a)
        if len(self.translations) < 2:
            raise ValueError("need at least two goals (start and end)")
        if not self.seeds:
            self.seeds = list(range(len(self.translations)))
        if len(self.seeds) != len(self.translations):
            raise ValueError("one latent seed per goal required")
        try:
            rot6d_to_matrix(self.rotations)
        except InvalidRotationError as e:
            raise InvalidRotationError(f"degenerate goal orientation: {e}") from None
        disp = np.linalg.norm(np.diff(self.translations, axis=0), axis=1)
        if np.any(disp == 0.0):
            raise ValueError("consecutive goals must not coincide")

    def __len__(self):
        return len(self.translations)

    @staticmethod
    def from_json(path):
        with open(path) as f:
            rec = json.load(f)
        goals = rec["goals"]
        return GoalSpec(
            translations=np.array([g["t"] for g in goals]),
            rotations=np.array([g["r"] for g in goals]),
            beta=np.array(rec.get("beta", np.zeros(body.SHAPE_DIM))),
            seeds=[_coerce(f"goal {i} 'seed'", g.get("seed", i), 0)
                   for i, g in enumerate(goals)],
        )


def validate_spec(spec, scene_mesh):
    """Warnings for goals more than 0.5 m outside the scene's floor bounds;
    GoalSpec itself rejects degenerate orientations and coinciding goals."""
    lo, hi = scene_mesh.bounds()
    return [f"goal {i}: outside the scene bounds" for i, t in enumerate(spec.translations)
            if np.any(t[:2] < lo[:2] - 0.5) or np.any(t[:2] > hi[:2] + 0.5)]


@dataclass
class PlanResult:
    sequence: MotionSequence              # refined (or raw when no schedule)
    pre_refine: MotionSequence
    goal_bodies: list
    energy_history: list
    pre_report: object
    post_report: object = None
    diagnostic: str | None = None         # why refinement stopped early, as RefineResult's


def plan_long_term(cvae_model, route_model, pose_model, template, spec, scene_field,
                   k, schedule=None):
    """Goal bodies -> short clips -> whole-sequence refinement.

    Each generative model runs once per plan: the CVAE decodes every goal in
    one batch, and RouteNet and PoseNet each fill all gaps in one pass.
    Consecutive clips share their boundary body, so the raw sequence is
    exactly continuous at every seam. Passing ``schedule=None`` skips
    refinement. The reports before and after refinement reuse the terms
    refinement scored those frames with.
    """
    cloud = scene_field.cloud.points
    with _stage("goal-body sampling"):
        bodies = cvae_model.sample_goal_bodies(spec.beta, spec.translations, spec.rotations,
                                               cvae_model.point_enc.forward(cloud)[0],
                                               spec.seeds)
    with _stage("clip synthesis"):
        pre = synthesize_clip(route_model, pose_model, bodies, cloud, k)

    report_weights = EnergyWeights()

    def report(terms, frames):
        """The report of ``frames`` from the terms refinement scored them with,
        or a fresh one when refinement stopped before scoring them."""
        if terms is None:
            return total_energy(template, frames, scene_field, report_weights)
        return EnergyReport(*terms, weights=report_weights)

    if schedule is None:
        return PlanResult(sequence=pre.copy(), pre_refine=pre, goal_bodies=bodies,
                          energy_history=[], pre_report=report(None, pre.frames))
    with _stage("refinement"):
        result = refine(template, pre, scene_field, schedule)
    return PlanResult(sequence=result.sequence, pre_refine=pre, goal_bodies=bodies,
                      energy_history=result.history,
                      pre_report=report(result.first_terms, pre.frames),
                      post_report=report(result.final_terms, result.sequence.frames),
                      diagnostic=result.diagnostic)


def cvae_interpolation_baseline(cvae_model, start, end, scene_feat, steps,
                                fit_steps=500, fit_seeds=(0, 1)):
    """Latent-interpolation baseline: Adam-fit z for both endpoint bodies, then
    decode linear blends of (z, t, r) for the frames in between. ``scene_feat``
    is the scene cloud's ``cvae_model.point_enc`` feature."""
    if steps < 2:
        raise ValueError(f"need at least 2 interpolation steps, got {steps}")
    if np.any(start.beta != end.beta):
        raise ValueError("baseline requires a shared shape vector")
    cond_s, _ = cvae_model.condition_from_feature(scene_feat, start.beta, start.t, start.r)
    cond_e, _ = cvae_model.condition_from_feature(scene_feat, end.beta, end.t, end.r)
    z_s = fit_latent(cvae_model, cond_s, np.concatenate([start.p, start.h]),
                     steps=fit_steps, seed=fit_seeds[0])
    z_e = fit_latent(cvae_model, cond_e, np.concatenate([end.p, end.h]),
                     steps=fit_steps, seed=fit_seeds[1])

    frames = np.empty((steps, body.PARAM_DIM))
    for i, alpha in enumerate(np.linspace(0.0, 1.0, steps)):
        z = (1.0 - alpha) * z_s + alpha * z_e
        t = (1.0 - alpha) * start.t + alpha * end.t
        r = (1.0 - alpha) * start.r + alpha * end.r
        cond, _ = cvae_model.condition_from_feature(scene_feat, start.beta, t, r)
        ph, _ = cvae_model.decode(z, cond)
        frames[i] = body.BodyParams(t=t, r=r, beta=start.beta,
                                    p=ph[0, :body.POSE_DIM],
                                    h=ph[0, body.POSE_DIM:]).flat()
    return MotionSequence(frames=frames)
