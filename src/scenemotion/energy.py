"""Geometric energies over a motion sequence: foot stability, scene collision,
scene contact, and temporal smoothness, with hand-derived vertex gradients."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import body
from .sdf import sample_penetration
# Unused here; perfbench/selftest.py BINDING_SITES expects this module to bind it.
from .sdf import sample_sdf_batch  # noqa: F401

CONTACT_SIGMA = 0.2       # m, Geman-McClure scale
STANCE_MOVE_THRESHOLD = 0.02  # m/frame; both soles faster -> no stance
STANCE_HYSTERESIS = 3     # frames; shorter runs are absorbed


def geman_mcclure(x):
    """Bounded robustifier: 0 at 0, monotone, saturating at CONTACT_SIGMA^2."""
    x = np.asarray(x, dtype=np.float64)
    s2 = CONTACT_SIGMA * CONTACT_SIGMA
    return s2 * x * x / (x * x + s2)


def geman_mcclure_deriv(x):
    x = np.asarray(x, dtype=np.float64)
    s2 = CONTACT_SIGMA * CONTACT_SIGMA
    return 2.0 * s2 * s2 * x / (x * x + s2) ** 2


@dataclass
class FootSegment:
    start: int            # first frame, inclusive
    end: int              # past-the-end frame
    side: str             # "left" | "right" | "none"
    mean: np.ndarray | None  # mean stable-sole centroid, None for no-stance


def sole_centroids(template, vertices):
    """Per-frame (left, right) sole-centroid tracks of posed vertices (T, V, 3), each (T, 3)."""
    left = vertices[:, template.sole_vertex_ids("left")].mean(axis=1)
    right = vertices[:, template.sole_vertex_ids("right")].mean(axis=1)
    return left, right


def segment_stable_foot(template, vertices):
    """Split the timeline of posed vertices (T, V, 3) into a list of
    stable-foot ``FootSegment`` by the nearer-foot rule.

    Per frame pair the foot whose sole centroid moved less is stable; frames
    where both soles move more than ``STANCE_MOVE_THRESHOLD`` have no stance.
    Runs shorter than ``STANCE_HYSTERESIS`` frames are absorbed to prevent
    label chatter.
    """
    return segment_from_centroids(*sole_centroids(template, vertices))


def segment_from_centroids(left, right):
    """:func:`segment_stable_foot` of given sole-centroid tracks (T, 3).

    Neighbouring segments differ in side, and a result of more than one
    segment has none shorter than ``STANCE_HYSTERESIS`` frames.
    """
    if len(left) < 2:
        raise ValueError(f"need at least 2 frames to segment, got {len(left)}")
    dl = np.linalg.norm(np.diff(left, axis=0), axis=1)
    dr = np.linalg.norm(np.diff(right, axis=0), axis=1)
    moving = (dl > STANCE_MOVE_THRESHOLD) & (dr > STANCE_MOVE_THRESHOLD)
    raw = np.where(moving, "none", np.where(dl <= dr, "left", "right")).tolist()
    raw.append(raw[-1])  # last frame inherits the last pair's label

    runs = []
    for label in raw:
        if runs and runs[-1][0] == label:
            runs[-1][1] += 1
        else:
            runs.append([label, 1])
    merged = []
    for label, length in runs:
        if merged and (length < STANCE_HYSTERESIS or merged[-1][0] == label):
            merged[-1][1] += length
        else:
            merged.append([label, length])
    # a short first run joins the second; the two differ in label, so the
    # result still has no equal neighbours
    if len(merged) > 1 and merged[0][1] < STANCE_HYSTERESIS:
        merged[1][1] += merged.pop(0)[1]

    segments = []
    start = 0
    for label, length in merged:
        end = start + length
        if label == "none":
            mean = None
        else:
            track = left if label == "left" else right
            mean = track[start:end].mean(axis=0)
        segments.append(FootSegment(start=start, end=end, side=label, mean=mean))
        start = end
    return segments


# -- energy terms --------------------------------------------------------------
#
# Each _*_term takes posed vertices (T, V, 3) and returns the term's value;
# given a g_vertices buffer it also adds scale * dTerm/dvertices into it in
# place. Gradients treat the nearest-point contact targets and segment means
# as constants, matching one optimizer inner step.

def _foot_term(template, vertices, segmentation, g_vertices=None, scale=1.0):
    """All frames of a segment at once; they touch only its sole vertices."""
    per_frame = []
    for seg in segmentation:
        if seg.side == "none":
            continue
        ids = template.sole_vertex_ids(seg.side)
        frames = slice(seg.start, min(seg.end, len(vertices)))
        diff = vertices[frames, ids].mean(axis=1) - seg.mean
        n = _row_norms(diff)
        per_frame.append(n)
        if g_vertices is not None:
            pos = n > 0.0
            step = scale * diff / (np.where(pos, n, 1.0) * len(ids))[:, None]
            step[~pos] = 0.0
            g_vertices[frames, ids] += step[:, None, :]
    return _frame_order_sum(np.concatenate(per_frame)) if per_frame else 0.0


def e_foot(template, vertices, segmentation):
    """Summed distance of each stance frame's sole centroid from its segment's mean."""
    # A call, not an alias, so that the tracer's wrapper of _foot_term
    # (perfbench/tracing.py) also sees refinement's closing foot terms.
    return _foot_term(template, vertices, segmentation)


def _col_term(vertices, grid, g_vertices=None, scale=1.0):
    """Mean |negative SDF| per frame, summed over frames; vertices (T, V, 3). Per
    block of ``body.FRAME_BLOCK`` frames, one ``sdf.sample_penetration`` call
    gives the vertices that read < 0; the others add no value or gradient."""
    T, V = vertices.shape[:2]
    per_frame = np.empty(T)
    for lo in range(0, T, body.FRAME_BLOCK):
        block = vertices[lo:lo + body.FRAME_BLOCK]
        rows, vals, grads = sample_penetration(grid, block.reshape(-1, 3), g_vertices is not None)
        depth = np.zeros(len(block) * V)
        depth[rows] = vals
        if g_vertices is not None and len(rows):
            frame, vertex = np.divmod(rows, V)
            g_vertices[lo + frame, vertex] += scale * (-grads) / V
        per_frame[lo:lo + len(block)] = -depth.reshape(len(block), V).sum(axis=1) / V
    return _frame_order_sum(per_frame)


def _cont_term(vertices, contact_ids, index, g_vertices=None, scale=1.0):
    """Sum of robustified nearest-scene distances of the contact vertices. One
    exact ``index.nearest`` query over every frame's contact vertices gives
    each its target: its nearest cloud point's index and distance."""
    cv = vertices[:, contact_ids]
    nn_idx, d = (a.reshape(cv.shape[:2]) for a in index.nearest(cv.reshape(-1, 3)))
    total = _frame_order_sum(geman_mcclure(d).sum(axis=1))
    if g_vertices is not None:
        pos = d > 0.0
        if pos.any():
            frame, col = np.nonzero(pos)
            pull = geman_mcclure_deriv(d[pos]) / d[pos]
            g_vertices[frame, contact_ids[col]] += (
                scale * pull[:, None] * (cv[pos] - index.points[nn_idx[pos]]))
    return total


# Value-only callers give no buffer; the names stay for them and the tracer.
e_col = _col_term
e_cont = _cont_term


def _frame_order_sum(per_frame):
    """Add per-frame values left to right onto 0.0, as a running total does."""
    return float(np.cumsum(np.concatenate([[0.0], per_frame]))[-1])


def _row_norms(x):
    """Euclidean norm of each leading-axis row of ``x``, each from one BLAS dot
    product as ``np.linalg.norm`` takes it, so the values match it bit for bit."""
    flat = x.reshape(len(x), math.prod(x.shape[1:]))
    return np.sqrt(np.matmul(flat[:, None, :], flat[:, :, None])[:, 0, 0])


def e_smooth(vertices):
    """Sum over consecutive frames of the Frobenius norm of the vertex delta."""
    if len(vertices) < 2:
        raise ValueError("need at least 2 frames for the smoothness term")
    return _smooth_term(vertices)


def _smooth_term(vertices, g_vertices=None, scale=1.0):
    """Frame pairs are taken per block of ``body.FRAME_BLOCK``; frame i's
    gradient row takes -G[i-1] before +G[i], as a loop over pairs adds them.
    One frame has no pairs and scores 0."""
    T = len(vertices)
    per_pair = np.empty(max(T - 1, 0))
    for lo in range(0, T - 1, body.FRAME_BLOCK):
        hi = min(lo + body.FRAME_BLOCK, T - 1)
        diff = vertices[lo:hi] - vertices[lo + 1:hi + 1]
        n = per_pair[lo:hi] = _row_norms(diff)
        if g_vertices is not None:
            pos = n > 0.0
            diff *= scale
            diff /= np.where(pos, n, 1.0)[:, None, None]
            diff[~pos] = 0.0
            g_vertices[lo + 1:hi + 1] -= diff
            g_vertices[lo:hi] += diff
    return _frame_order_sum(per_pair)


@dataclass
class EnergyWeights:
    foot: float = 1.0
    col: float = 1.0
    cont: float = 1.0
    smooth: float = 0.25

    def __post_init__(self):
        vals = (self.foot, self.col, self.cont, self.smooth)
        if any(w < 0 or not np.isfinite(w) for w in vals):
            raise ValueError(f"energy weights must be finite and non-negative, got {vals}")

    def as_tuple(self):
        return (self.foot, self.col, self.cont, self.smooth)


@dataclass
class EnergyReport:
    foot: float
    col: float
    cont: float
    smooth: float
    weights: EnergyWeights
    total: float = field(init=False)

    def __post_init__(self):
        self.total = (self.weights.foot * self.foot + self.weights.col * self.col +
                      self.weights.cont * self.cont + self.weights.smooth * self.smooth)

    def terms(self):
        """The unweighted terms ``[foot, col, cont, smooth]``."""
        return [self.foot, self.col, self.cont, self.smooth]

    def to_dict(self):
        return {"foot": self.foot, "col": self.col, "cont": self.cont,
                "smooth": self.smooth, "total": self.total,
                "weights": list(self.weights.as_tuple())}


def scene_energy(template, vertices, scene_field, weights, segmentation, want_grad=False):
    """Weighted four-term energy of posed vertices (T, V, 3).

    ``segmentation`` is a list of ``FootSegment``. Returns the EnergyReport
    and, with ``want_grad``, dTotal/dvertices (T, V, 3), else None; a
    zero-weight term is given no gradient buffer. The terms run in turn on the
    calling thread and add their gradients in the order foot, col, cont, smooth.
    """
    g = np.zeros(vertices.shape) if want_grad else None
    g_foot, g_col, g_cont, g_smooth = (g if w != 0.0 else None for w in weights.as_tuple())
    foot = _foot_term(template, vertices, segmentation, g_foot, scale=weights.foot)
    col = _col_term(vertices, scene_field.grid, g_col, scale=weights.col)
    cont = _cont_term(vertices, template.contact_vertex_ids(), scene_field.index, g_cont,
                      scale=weights.cont)
    smooth = _smooth_term(vertices, g_smooth, scale=weights.smooth)
    return EnergyReport(foot=foot, col=col, cont=cont, smooth=smooth, weights=weights), g


def total_energy(template, frames, scene_field, weights):
    """Evaluate all four terms of flat records ``frames`` (T, 75) under their
    own foot segmentation."""
    vertices = body.forward_batch(template, frames).vertices
    report, _ = scene_energy(template, vertices, scene_field, weights,
                             segment_stable_foot(template, vertices))
    return report
