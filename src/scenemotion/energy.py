"""Geometric energies over a motion sequence: foot stability, scene collision,
scene contact, and temporal smoothness, with hand-derived vertex gradients."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import body
from .sdf import sample_sdf_batch

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


@dataclass
class FootSegmentation:
    segments: list


def sole_centroids(template, vertices):
    """Per-frame (left, right) sole-centroid tracks of posed vertices (T, V, 3), each (T, 3)."""
    left = vertices[:, template.sole_vertex_ids("left")].mean(axis=1)
    right = vertices[:, template.sole_vertex_ids("right")].mean(axis=1)
    return left, right


def segment_stable_foot(template, vertices):
    """Split the timeline of posed vertices (T, V, 3) into stable-foot
    segments by the nearer-foot rule.

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
    return FootSegmentation(segments=segments)


# -- energy terms --------------------------------------------------------------
#
# Each _*_term takes posed vertices (T, V, 3) and returns the term's value;
# with want_grad it adds scale * dTerm/dvertices into g_vertices in place.
# Gradients treat the nearest-point contact targets and segment means as
# constants, matching one optimizer inner step. The e_* functions are the
# value-only forms.

def _foot_term(template, vertices, segmentation, want_grad, g_vertices=None, scale=1.0):
    """All frames of a segment at once; they touch only its sole vertices."""
    per_frame = []
    for seg in segmentation.segments:
        if seg.side == "none":
            continue
        ids = template.sole_vertex_ids(seg.side)
        frames = slice(seg.start, min(seg.end, len(vertices)))
        diff = vertices[frames, ids].mean(axis=1) - seg.mean
        n = _row_norms(diff)
        per_frame.append(n)
        if want_grad:
            pos = n > 0.0
            step = scale * diff / (np.where(pos, n, 1.0) * len(ids))[:, None]
            step[~pos] = 0.0
            g_vertices[frames, ids] += step[:, None, :]
    return _frame_order_sum(np.concatenate(per_frame)) if per_frame else 0.0


def e_foot(template, vertices, segmentation):
    """Summed distance of each stance frame's sole centroid from its segment's mean."""
    return _foot_term(template, vertices, segmentation, want_grad=False)


def e_col(vertices, grid):
    """Mean |negative SDF| per frame, summed over frames; vertices (T, V, 3)."""
    return _col_term(vertices, grid, want_grad=False)


def _col_term(vertices, grid, want_grad, g_vertices=None, scale=1.0):
    """Per block of ``body.FRAME_BLOCK`` frames, the SDF is sampled only at the
    vertices whose cell has a negative corner (``SdfGrid.may_be_negative``);
    every other vertex reads >= 0 and adds neither value nor gradient."""
    T, V = vertices.shape[:2]
    per_frame = np.empty(T)
    for lo in range(0, T, body.FRAME_BLOCK):
        block = vertices[lo:lo + body.FRAME_BLOCK]
        points = block.reshape(-1, 3)
        rows = np.flatnonzero(grid.may_be_negative(points))
        depth = np.zeros(len(points))
        if len(rows):
            vals, grads = sample_sdf_batch(grid, points.take(rows, axis=0), want_grad)
            hit = vals < 0.0
            rows = rows[hit]
            depth[rows] = vals[hit]
            if want_grad and len(rows):
                frame, vertex = np.divmod(rows, V)
                g_vertices[lo + frame, vertex] += scale * (-grads[hit]) / V
        per_frame[lo:lo + len(block)] = -depth.reshape(len(block), V).sum(axis=1) / V
    return _frame_order_sum(per_frame)


def e_cont(vertices, contact_ids, index):
    """Sum of robustified nearest-scene distances of the contact vertices."""
    return _cont_term(vertices, contact_ids, index,
                      _contact_query(vertices, contact_ids, index), want_grad=False)


def _cont_term(vertices, contact_ids, index, nearest, want_grad, g_vertices=None, scale=1.0):
    """``nearest`` is what ``_contact_query`` returned for these vertices: the
    cloud index of, and the distance to, each contact vertex's target."""
    cv = vertices[:, contact_ids]
    nn_idx, d = (a.reshape(cv.shape[:2]) for a in nearest)
    total = _frame_order_sum(geman_mcclure(d).sum(axis=1))
    if want_grad:
        pos = d > 0.0
        if pos.any():
            frame, col = np.nonzero(pos)
            pull = geman_mcclure_deriv(d[pos]) / d[pos]
            g_vertices[frame, contact_ids[col]] += (
                scale * pull[:, None] * (cv[pos] - index.points[nn_idx[pos]]))
    return total


def _contact_query(vertices, contact_ids, index):
    """One exact nearest-point query over every frame's contact vertices."""
    return index.nearest(vertices[:, contact_ids].reshape(-1, 3))


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
    return _smooth_term(vertices, want_grad=False)


def _smooth_term(vertices, want_grad, g_vertices=None, scale=1.0):
    """Frame pairs are taken per block of ``body.FRAME_BLOCK``; frame i's
    gradient row takes -G[i-1] before +G[i], as a loop over pairs adds them."""
    T = len(vertices)
    per_pair = np.empty(max(T - 1, 0))
    for lo in range(0, T - 1, body.FRAME_BLOCK):
        hi = min(lo + body.FRAME_BLOCK, T - 1)
        diff = vertices[lo:hi] - vertices[lo + 1:hi + 1]
        n = per_pair[lo:hi] = _row_norms(diff)
        if want_grad:
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

    Returns the EnergyReport and, with ``want_grad``, dTotal/dvertices
    (T, V, 3), else None; a zero-weight term adds no gradient. The terms run
    in turn on the calling thread and add their gradients in the order foot,
    col, cont, smooth.
    """
    g = np.zeros(vertices.shape) if want_grad else None
    contact_ids, index = template.contact_vertex_ids(), scene_field.index
    foot = _foot_term(template, vertices, segmentation, want_grad and weights.foot != 0.0, g,
                      scale=weights.foot)
    col = _col_term(vertices, scene_field.grid, want_grad and weights.col != 0.0, g,
                    scale=weights.col)
    cont = _cont_term(vertices, contact_ids, index, _contact_query(vertices, contact_ids, index),
                      want_grad and weights.cont != 0.0, g, scale=weights.cont)
    smooth = _smooth_term(vertices, want_grad and weights.smooth != 0.0, g,
                          scale=weights.smooth)
    return EnergyReport(foot=foot, col=col, cont=cont, smooth=smooth, weights=weights), g


def total_energy(template, frames, scene_field, weights, segmentation=None):
    """Evaluate all four terms of flat records ``frames`` (T, 75); the
    segmentation is recomputed unless supplied."""
    vertices = body.forward_batch(template, frames).vertices
    if segmentation is None:
        segmentation = segment_stable_foot(template, vertices)
    report, _ = scene_energy(template, vertices, scene_field, weights, segmentation)
    return report
