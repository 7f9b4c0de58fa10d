import json

import numpy as np
import pytest

from scenemotion import body, metrics
from scenemotion.metrics import (contact_score, evaluate, mpjpe, mpvpe,
                                 neighbour_v2v, non_collision_score, reconstruction_errors)
from scenemotion.sdf import SdfGrid
from scenemotion.sequence import MotionSequence

IDENTITY_R = np.array([1.0, 0, 0, 0, 1, 0])


def plane_grid(extent=6.0, cell=1.0, zlo=-8.0, zhi=4.0):
    """Synthetic field whose value is exactly the z coordinate (floor at z=0)."""
    n = int(2 * extent / cell) + 1
    zs = np.arange(zlo, zhi + 0.5 * cell, cell)
    values = np.broadcast_to(zs[None, None, :], (n, n, len(zs))).copy()
    return SdfGrid(origin=np.array([-extent, -extent, zlo]), cell=cell, values=values)


def seq_of_translations(ts, base=None):
    frames = []
    for t in ts:
        frames.append(body.BodyParams(
            t=np.asarray(t, dtype=np.float64), r=IDENTITY_R,
            beta=np.zeros(10) if base is None else base.beta,
            p=np.zeros(32) if base is None else base.p,
            h=np.zeros(24) if base is None else base.h).flat())
    return MotionSequence(frames=np.stack(frames))


def test_identical_sequences_zero_errors(template):
    seq = seq_of_translations([[0, 0, 1.0], [0.1, 0, 1.0], [0.2, 0, 1.0]])
    tr, orient, pose = reconstruction_errors(seq, seq)
    assert (tr, orient, pose) == (0.0, 0.0, 0.0)
    assert mpjpe(seq, seq, template) == 0.0
    assert mpvpe(seq, seq, template) == 0.0


def test_uniform_translation_offset_x100():
    gt = seq_of_translations([[0, 0, 1.0], [0.3, 0, 1.0]])
    pred = seq_of_translations([[0.05, 0.05, 1.05], [0.35, 0.05, 1.05]])
    tr, orient, pose = reconstruction_errors(pred, gt)
    assert tr == pytest.approx(5.0, abs=1e-9)
    assert orient == 0.0
    assert pose == 0.0


def test_length_mismatch_rejected(template):
    a = seq_of_translations([[0, 0, 1.0]])
    b = seq_of_translations([[0, 0, 1.0], [1, 0, 1.0]])
    with pytest.raises(ValueError):
        reconstruction_errors(a, b)
    with pytest.raises(ValueError):
        mpjpe(a, b, template)


def test_rigid_10mm_offset_mpjpe_mpvpe(template):
    gt = seq_of_translations([[0, 0, 1.0], [0.5, 0, 1.0]])
    pred = seq_of_translations([[0.01, 0, 1.0], [0.51, 0, 1.0]])
    assert mpjpe(pred, gt, template) == pytest.approx(10.0, abs=1e-6)
    assert mpvpe(pred, gt, template) == pytest.approx(10.0, abs=1e-6)


def test_reconstruction_matches_naive_oracle():
    rng = np.random.default_rng(0)
    frames_a = np.zeros((4, 75))
    frames_b = np.zeros((4, 75))
    frames_a[:, 3:9] = IDENTITY_R
    frames_b[:, 3:9] = IDENTITY_R
    frames_a[:, 0:3] = rng.standard_normal((4, 3))
    frames_b[:, 0:3] = rng.standard_normal((4, 3))
    frames_a[:, 19:51] = rng.standard_normal((4, 32))
    frames_b[:, 19:51] = rng.standard_normal((4, 32))
    a = MotionSequence(frames=frames_a)
    b = MotionSequence(frames=frames_b)
    tr, orient, pose = reconstruction_errors(a, b)
    exp_tr = 100 * np.mean([abs(frames_a[i, d] - frames_b[i, d])
                            for i in range(4) for d in range(3)])
    exp_pose = 100 * np.mean([abs(frames_a[i, 19 + d] - frames_b[i, 19 + d])
                              for i in range(4) for d in range(32)])
    assert tr == pytest.approx(exp_tr, abs=1e-9)
    assert pose == pytest.approx(exp_pose, abs=1e-9)
    assert orient == 0.0


def test_neighbour_v2v_identities(template):
    # frame1 == frame0 and frame k-1 == frame k -> 0
    seq = seq_of_translations([[0, 0, 1], [0, 0, 1], [0.5, 0, 1], [1, 0, 1], [1, 0, 1]])
    assert neighbour_v2v(seq, template) == 0.0


def test_neighbour_v2v_hand_case(template):
    # frame 1 rigidly offset 0.05 from frame 0; far side exact -> mean(5, 0) = 2.5
    seq = seq_of_translations([[0, 0, 1], [0.05, 0, 1], [0.5, 0, 1], [1, 0, 1], [1, 0, 1]])
    assert neighbour_v2v(seq, template) == pytest.approx(2.5, abs=1e-9)


def test_neighbour_v2v_needs_three_frames(template):
    seq = seq_of_translations([[0, 0, 1], [1, 0, 1]])
    with pytest.raises(ValueError):
        neighbour_v2v(seq, template)


def test_non_collision_floating_body(template):
    grid = plane_grid()
    seq = seq_of_translations([[0, 0, 2.5], [0.3, 0, 2.5]])
    assert non_collision_score(seq, template, grid) == 100.0
    assert contact_score(seq, template, grid) == 0.0


def test_non_collision_exactly_half_below(template):
    grid = plane_grid()
    zs = np.sort(template.rest_vertices[:, 2])
    V = len(zs)
    zstar = 0.5 * (zs[V // 2 - 1] + zs[V // 2])  # splits vertices in half
    assert zs[V // 2 - 1] < zstar < zs[V // 2]
    seq = seq_of_translations([[0, 0, -zstar], [0.2, 0, -zstar]])
    assert non_collision_score(seq, template, grid) == pytest.approx(50.0, abs=1e-9)


def _puppet_template():
    """Single-vertex template whose posed vertex equals t bit-exactly."""
    J = body.NUM_JOINTS
    weights = np.zeros((1, J))
    weights[0, 0] = 1.0
    return body.BodyTemplate(
        rest_vertices=np.zeros((1, 3)), faces=np.zeros((0, 3), dtype=np.int64),
        joints=body.default_template().joints, parents=np.array(body.PARENTS),
        skin_weights=weights, shape_basis=np.zeros((1, 3, 10)),
        pose_map=np.zeros((63, 32)), hand_map=np.zeros((6, 24)))


def test_contact_threshold_is_strict():
    # grid value along z equals the z coordinate exactly (origin 0, cell 1);
    # a vertex sitting at SDF value 0.01 is NOT a contact (strictly below only)
    zs = np.arange(0.0, 5.0, 1.0)
    values = np.broadcast_to(zs[None, None, :], (9, 9, len(zs))).copy()
    grid = SdfGrid(origin=np.array([-4.0, -4.0, 0.0]), cell=1.0, values=values)
    puppet = _puppet_template()
    seq_at = seq_of_translations([[2.0, -1.0, 0.01]])
    assert contact_score(seq_at, puppet, grid) == 0.0
    seq_below = seq_of_translations([[2.0, -1.0, 0.01 - 1e-12]])
    assert contact_score(seq_below, puppet, grid) == 100.0
    assert non_collision_score(seq_at, puppet, grid) == 100.0


def test_contact_score_monotone_in_threshold(template, monkeypatch):
    grid = plane_grid()
    rng = np.random.default_rng(1)
    seq = seq_of_translations([[0, 0, 0.9 + 0.2 * rng.random()] for _ in range(5)])
    scores = []
    for th in (0.001, 0.01, 0.05, 0.2):
        monkeypatch.setattr(metrics, "CONTACT_SDF_THRESHOLD", th)
        scores.append(contact_score(seq, template, grid))
    assert all(a <= b for a, b in zip(scores, scores[1:]))


def test_standing_on_floor_contacts_every_frame(template):
    grid = plane_grid()
    lowest = template.rest_vertices[:, 2].min()
    seq = seq_of_translations([[0, 0, -lowest + 0.002], [0.3, 0, -lowest + 0.002]])
    assert contact_score(seq, template, grid) == 100.0


def test_evaluate_and_json(template):
    gt = seq_of_translations([[0, 0, 1], [0.1, 0, 1], [0.2, 0, 1]])
    pred = seq_of_translations([[0.01, 0, 1], [0.11, 0, 1], [0.21, 0, 1]])
    report = evaluate(pred, gt, template, grid=plane_grid())
    assert report.mpjpe_mm == pytest.approx(10.0, abs=1e-6)
    blob = report.to_json()
    assert "mpjpe_mm" in blob
    assert json.loads(blob) == report.to_dict()
    assert list(report.to_dict()) == ["transl_l1_x100", "orient_l1_x100", "pose_l1_x100",
                                      "mpjpe_mm", "mpvpe_mm", "neighbour_v2v",
                                      "non_collision_pct", "contact_pct"]


def _random_sequence(rng, n):
    frames = np.zeros((n, 75))
    frames[:, 0:3] = rng.uniform(-1.0, 1.0, (n, 3)) * [1.0, 1.0, 0.2] + [0.0, 0.0, 0.8]
    frames[:, 3:9] = IDENTITY_R + 0.2 * rng.standard_normal((n, 6))
    frames[:, 19:] = 0.3 * rng.standard_normal((n, 56))
    return MotionSequence(frames=frames)


def test_evaluate_poses_each_sequence_once(template, monkeypatch):
    rng = np.random.default_rng(12)
    n = 2 * body.FRAME_BLOCK + 3
    pred, gt = _random_sequence(rng, n), _random_sequence(rng, n)
    posed = []
    forward_batch = body.forward_batch

    def counting(tpl, frames):
        posed.append(len(frames))
        return forward_batch(tpl, frames)

    monkeypatch.setattr(body, "forward_batch", counting)
    report = evaluate(pred, gt, template, grid=plane_grid())
    assert sum(posed) == len(pred) + len(gt)
    monkeypatch.undo()
    # the same values as the metric functions called one at a time
    assert report.mpjpe_mm == mpjpe(pred, gt, template)
    assert report.mpvpe_mm == mpvpe(pred, gt, template)
    assert report.neighbour_v2v == neighbour_v2v(pred, template)
    assert report.non_collision_pct == non_collision_score(pred, template, plane_grid())
    assert report.contact_pct == contact_score(pred, template, plane_grid())
    assert 0.0 < report.non_collision_pct < 100.0 and 0.0 < report.contact_pct < 100.0
