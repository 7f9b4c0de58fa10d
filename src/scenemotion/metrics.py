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
    return _mean_position_error(pred, gt, template, attr="joints") * 1000.0


def mpvpe(pred, gt, template):
    """Mean per-vertex position error in millimeters."""
    return _mean_position_error(pred, gt, template, attr="vertices") * 1000.0


def _mean_position_error(pred, gt, template, attr):
    if len(pred) != len(gt):
        raise ValueError(f"sequence length mismatch: {len(pred)} vs {len(gt)}")
    a = getattr(body.forward_batch(template, pred.frames), attr)
    b = getattr(body.forward_batch(template, gt.frames), attr)
    return float(np.linalg.norm(a - b, axis=2).mean())


def neighbour_v2v(clip, template):
    """Continuity of a clip at its endpoints: mean per-vertex distance between
    (frame 1, frame 0) and (frame k-1, frame k), x100."""
    if len(clip) < 3:
        raise ValueError(f"clip too short for neighbour v2v: {len(clip)} frames")
    k = len(clip) - 1
    v = body.forward_batch(template, clip.frames[[1, 0, k - 1, k]]).vertices
    vals = np.linalg.norm(v[0::2] - v[1::2], axis=2).mean(axis=1)
    return 100.0 * float(np.mean(vals))


def non_collision_score(seq, template, grid):
    """Mean over frames of the fraction of vertices with SDF >= 0, x100."""
    fracs = np.concatenate([(vals >= 0.0).mean(axis=1)
                            for vals in _frame_block_sdf(seq, template, grid)])
    return 100.0 * float(np.mean(fracs))


def contact_score(seq, template, grid, threshold=CONTACT_SDF_THRESHOLD):
    """Percentage of frames with at least one vertex strictly below the
    contact threshold of the signed distance."""
    hits = sum(int((vals < threshold).any(axis=1).sum())
               for vals in _frame_block_sdf(seq, template, grid))
    return 100.0 * hits / len(seq)


def _frame_block_sdf(seq, template, grid):
    """SDF values of the posed vertices, one (B, V) array per block of
    ``body.FRAME_BLOCK`` frames."""
    vertices = seq.meshes(template)
    for lo in range(0, len(vertices), body.FRAME_BLOCK):
        block = vertices[lo:lo + body.FRAME_BLOCK]
        vals, _ = sample_sdf_batch(grid, block.reshape(-1, 3))
        yield vals.reshape(block.shape[:2])


def evaluate(pred, gt, template, grid=None):
    """Full MetricReport; environment scores need an SDF grid."""
    tr, orient, pose = reconstruction_errors(pred, gt)
    report = MetricReport(
        transl_l1_x100=float(tr),
        orient_l1_x100=float(orient),
        pose_l1_x100=float(pose),
        mpjpe_mm=float(mpjpe(pred, gt, template)),
        mpvpe_mm=float(mpvpe(pred, gt, template)),
        neighbour_v2v=float(neighbour_v2v(pred, template)) if len(pred) >= 3 else 0.0,
    )
    if grid is not None:
        report.non_collision_pct = float(non_collision_score(pred, template, grid))
        report.contact_pct = float(contact_score(pred, template, grid))
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
