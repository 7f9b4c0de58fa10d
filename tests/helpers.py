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


def energy_value(template, frames, scene_field, weights, segmentation, correspondences=None):
    """Weighted energy total of refinement's objective, without its gradient."""
    vertices = body.forward_batch(template, frames).vertices
    report, _ = scene_energy(template, vertices, scene_field, weights, segmentation,
                             correspondences=correspondences)
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
    report, g_vertices = scene_energy(template, mesh.vertices, scene_field, weights,
                                      segmentation, correspondences=correspondences,
                                      want_grad=True)
    return report, body.pullback_batch(cache, g_vertices)
