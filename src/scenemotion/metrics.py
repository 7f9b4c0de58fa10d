"""Evaluation metrics: parameter reconstruction, MPJPE/MPVPE, boundary v2v,
and the in-environment non-collision / contact scores."""

from __future__ import annotations

import io
import json
from dataclasses import dataclass

import numpy as np

from . import body
from .sdf import sample_sdf_batch

CONTACT_SDF_THRESHOLD = 0.01  # m; strictly-below counts as contact


@dataclass
class MetricReport:
    transl_l1_x100: float = 0.0
    orient_l1_x100: float = 0.0
    pose_l1_x100: float = 0.0
    mpjpe_mm: float = 0.0
    mpvpe_mm: float = 0.0
    neighbour_v2v: float = 0.0
    non_collision_pct: float = 100.0
    contact_pct: float = 0.0

    def to_dict(self):
        return dict(self.__dict__)

    def to_json(self, path=None):
        blob = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        if path:
            with open(path, "w") as f:
                f.write(blob)
        return blob


def reconstruction_errors(pred, gt):
    """Mean per-frame per-dimension l1 on (t, r, p), reported x100."""
    if len(pred) != len(gt):
        raise ValueError(f"sequence length mismatch: {len(pred)} vs {len(gt)}")
    dt = np.abs(pred.translations - gt.translations).mean()
    dr = np.abs(pred.rotations - gt.rotations).mean()
    dp = np.abs(pred.poses - gt.poses).mean()
    return 100.0 * dt, 100.0 * dr, 100.0 * dp


def mpjpe(pred, gt, template):
    """Mean per-joint position error in millimeters."""
    a, b = _pose_pair(pred, gt, template)
    return _mean_distance(a.joints, b.joints) * 1000.0


def mpvpe(pred, gt, template):
    """Mean per-vertex position error in millimeters."""
    a, b = _pose_pair(pred, gt, template)
    return _mean_distance(a.vertices, b.vertices) * 1000.0


def _pose_pair(pred, gt, template):
    if len(pred) != len(gt):
        raise ValueError(f"sequence length mismatch: {len(pred)} vs {len(gt)}")
    return body.forward_batch(template, pred.frames), body.forward_batch(template, gt.frames)


def _mean_distance(a, b):
    return float(np.linalg.norm(a - b, axis=2).mean())


def neighbour_v2v(clip, template):
    """Continuity of a clip at its endpoints: mean per-vertex distance between
    (frame 1, frame 0) and (frame k-1, frame k), x100."""
    if len(clip) < 3:
        raise ValueError(f"clip too short for neighbour v2v: {len(clip)} frames")
    return _neighbour_v2v(body.forward_batch(template, clip.frames[_ends(clip)]).vertices)


def _ends(clip):
    k = len(clip) - 1
    return [1, 0, k - 1, k]


def _neighbour_v2v(v):
    """``v``: posed vertices of frames (1, 0, k-1, k)."""
    vals = np.linalg.norm(v[0::2] - v[1::2], axis=2).mean(axis=1)
    return 100.0 * float(np.mean(vals))


def non_collision_score(seq, template, grid):
    """Mean over frames of the fraction of vertices with SDF >= 0, x100."""
    return _non_collision_pct(_sdf_values(seq.meshes(template), grid))


def contact_score(seq, template, grid, threshold=CONTACT_SDF_THRESHOLD):
    """Percentage of frames with at least one vertex strictly below the
    contact threshold of the signed distance."""
    return _contact_pct(_sdf_values(seq.meshes(template), grid), threshold)


def _non_collision_pct(vals):
    return 100.0 * float(np.mean((vals >= 0.0).mean(axis=1)))


def _contact_pct(vals, threshold):
    return 100.0 * int((vals < threshold).any(axis=1).sum()) / len(vals)


def _sdf_values(vertices, grid):
    """SDF values (T, V) of posed vertices (T, V, 3), sampled in blocks of
    ``body.FRAME_BLOCK`` frames."""
    vals = np.empty(vertices.shape[:2])
    for lo in range(0, len(vertices), body.FRAME_BLOCK):
        block = vertices[lo:lo + body.FRAME_BLOCK]
        vals[lo:lo + len(block)] = sample_sdf_batch(grid, block.reshape(-1, 3))[0].reshape(
            block.shape[:2])
    return vals


def evaluate(pred, gt, template, grid=None):
    """Full MetricReport; environment scores need an SDF grid. Each sequence
    is posed once and the SDF is sampled once."""
    tr, orient, pose = reconstruction_errors(pred, gt)
    a, b = _pose_pair(pred, gt, template)
    report = MetricReport(
        transl_l1_x100=float(tr),
        orient_l1_x100=float(orient),
        pose_l1_x100=float(pose),
        mpjpe_mm=_mean_distance(a.joints, b.joints) * 1000.0,
        mpvpe_mm=_mean_distance(a.vertices, b.vertices) * 1000.0,
        neighbour_v2v=_neighbour_v2v(a.vertices[_ends(pred)]) if len(pred) >= 3 else 0.0,
    )
    if grid is not None:
        vals = _sdf_values(a.vertices, grid)
        report.non_collision_pct = _non_collision_pct(vals)
        report.contact_pct = _contact_pct(vals, CONTACT_SDF_THRESHOLD)
    return report


_CSV_COLUMNS = ["method", "transl", "orientation", "pose", "MPJPE", "MPVPE",
                "neighbour_v2v", "non-collision", "contact"]


def metrics_csv(rows):
    """CSV table with one row per method, columns in the reference layout."""
    out = io.StringIO()
    out.write(",".join(_CSV_COLUMNS) + "\n")
    for name, rep in rows.items():
        values = [name,
                  f"{rep.transl_l1_x100:.2f}", f"{rep.orient_l1_x100:.2f}",
                  f"{rep.pose_l1_x100:.2f}", f"{rep.mpjpe_mm:.1f}", f"{rep.mpvpe_mm:.1f}",
                  f"{rep.neighbour_v2v:.2f}", f"{rep.non_collision_pct:.2f}",
                  f"{rep.contact_pct:.2f}"]
        out.write(",".join(values) + "\n")
    return out.getvalue()
