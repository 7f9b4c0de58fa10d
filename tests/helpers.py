"""One-point, one-sequence and value-only shorthands that tests use as oracles.

The package keeps only the batched forms; these wrap them for readability.
"""

from __future__ import annotations

import numpy as np

from scenemotion import body
from scenemotion.energy import scene_energy
from scenemotion.sdf import sample_sdf_batch


def sdf_at(grid, point):
    """Trilinear SDF value (float) and gradient (3,) at one point."""
    vals, grads = sample_sdf_batch(grid, np.reshape(point, (1, 3)))
    return float(vals[0]), grads[0]


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


def energy_value(template, frames, scene_field, weights, segmentation, frozen_nn=None):
    """Weighted energy total of refinement's objective, without its gradient."""
    vertices = body.forward_batch(template, frames).vertices
    report, _ = scene_energy(template, vertices, scene_field, weights, segmentation,
                             correspondences=frozen_nn)
    return report.total
