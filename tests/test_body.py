import threading

import numpy as np
import pytest

from scenemotion import body
from scenemotion.errors import InvalidRotationError, NumericError
from scenemotion.rotation import (axis_angle_to_matrix_with_cache, rot6d_matrix_pullback,
                                  rot6d_to_matrix)
from helpers import rest_params


def test_template_invariants(template):
    assert template.num_vertices >= 300
    assert np.abs(template.skin_weights.sum(axis=1) - 1.0).max() <= 1e-6
    assert (np.count_nonzero(template.skin_weights, axis=1) <= 4).all()
    # tree rooted at pelvis: every parent precedes its child
    assert template.parents[0] == -1
    assert np.all(template.parents[1:] < np.arange(1, len(template.parents)))
    groups = template.vertex_groups
    seen = set()
    for name, ids in groups.items():
        assert len(ids) > 0, name
        assert not (set(ids.tolist()) & seen)
        seen.update(ids.tolist())


def test_rest_pose_reproduces_template_bit_exactly(template):
    mesh, _ = body.forward_with_cache(template, rest_params())
    assert np.array_equal(mesh.vertices, template.rest_vertices)
    assert np.array_equal(mesh.joints, template.joints)


def test_translation_equivariance(template):
    rng = np.random.default_rng(0)
    params = body.BodyParams(t=np.zeros(3), r=rng.standard_normal(6),
                             beta=rng.standard_normal(10) * 0.3,
                             p=rng.standard_normal(32) * 0.5,
                             h=rng.standard_normal(24) * 0.5)
    offset = np.array([1.0, 2.0, 3.0])
    shifted = body.BodyParams(t=offset, r=params.r, beta=params.beta, p=params.p, h=params.h)
    va = body.forward_with_cache(template, params)[0].vertices
    vb = body.forward_with_cache(template, shifted)[0].vertices
    assert np.array_equal(vb, va + offset)


def test_rotation_equivariance_about_pelvis(template):
    rng = np.random.default_rng(1)
    base = body.BodyParams(t=rng.standard_normal(3), r=np.array([1.0, 0, 0, 0, 1, 0]),
                           beta=np.zeros(10), p=rng.standard_normal(32) * 0.4,
                           h=np.zeros(24))
    Q = rot6d_to_matrix(rng.standard_normal(6))
    rotated = body.BodyParams(t=base.t, r=body.rotation.matrix_to_rot6d(Q @ rot6d_to_matrix(base.r)),
                              beta=base.beta, p=base.p, h=base.h)
    va = body.forward_with_cache(template, base)[0].vertices
    vb = body.forward_with_cache(template, rotated)[0].vertices
    np.testing.assert_allclose(vb - base.t, (va - base.t) @ Q.T, atol=1e-9)


def test_knee_rotation_matches_two_bone_fk_oracle(template):
    # rotate the left knee 90 degrees about its local x axis; the ankle must
    # land exactly where a rigid rotation about the knee puts it
    angle = np.pi / 2
    idx = body.DESIGNED_AXIS_INDEX[("l_knee", 0)]
    p = body.pose_latent_for(template, {idx: angle})
    params = body.BodyParams(t=np.zeros(3), r=np.array([1.0, 0, 0, 0, 1, 0]),
                             beta=np.zeros(10), p=p, h=np.zeros(24))
    mesh, _ = body.forward_with_cache(template, params)
    names = body.JOINT_NAMES
    knee = template.joints[names.index("l_knee")]
    ankle_rest = template.joints[names.index("l_ankle")]
    oracle = knee + axis_angle_to_matrix_with_cache([angle, 0, 0])[0] @ (ankle_rest - knee)
    np.testing.assert_allclose(mesh.joints[names.index("l_ankle")], oracle, atol=1e-9)


def test_pose_latent_for_is_exact(template):
    # designed columns are orthonormal, so other joints stay at rest
    idx = body.DESIGNED_AXIS_INDEX[("l_knee", 0)]
    p = body.pose_latent_for(template, {idx: 0.7})
    rots = body.joint_rotations(template, p, np.zeros(24))
    knee_row = body.JOINT_NAMES.index("l_knee")
    np.testing.assert_allclose(rots[knee_row], [0.7, 0, 0], atol=1e-12)
    others = np.delete(rots, knee_row, axis=0)
    assert np.abs(others).max() < 1e-12


def test_pose_latent_for_takes_per_frame_angles(template):
    ax = body.DESIGNED_AXIS_INDEX
    hip, knee = ax[("l_hip", 0)], ax[("l_knee", 0)]
    hips = np.array([0.3, -0.0, 0.5])
    p = body.pose_latent_for(template, {hip: hips, knee: -0.2})
    assert p.shape == (3, body.POSE_DIM)
    for i, angle in enumerate(hips):
        assert np.array_equal(p[i], body.pose_latent_for(template, {hip: angle, knee: -0.2}))


def test_unit_latent_rotation_bound(template):
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = rng.standard_normal(32)
        p /= np.linalg.norm(p)
        rots = body.joint_rotations(template, p, np.zeros(24))
        assert np.linalg.norm(rots, axis=1).max() <= 0.5 + 1e-12


def test_jacobian_translation_block_is_identity(template):
    rng = np.random.default_rng(3)
    params = rest_params()
    _, cache = body.forward_with_cache(template, params)
    cot = rng.standard_normal((template.num_vertices, 3))
    grads = body.pullback(cache, cot)
    np.testing.assert_allclose(grads["t"], cot.sum(axis=0), atol=1e-12)


def test_shape_basis_column_is_linear(template):
    eps = 1e-3
    beta = np.zeros(10)
    beta[0] = eps
    params = body.BodyParams(t=np.zeros(3), r=np.array([1.0, 0, 0, 0, 1, 0]),
                             beta=beta, p=np.zeros(32), h=np.zeros(24))
    delta = body.forward_with_cache(template, params)[0].vertices - template.rest_vertices
    np.testing.assert_allclose(delta, eps * template.shape_basis[:, :, 0], atol=1e-12)


def test_pullback_matches_fd_on_every_block(template):
    rng = np.random.default_rng(4)
    params = body.BodyParams(t=rng.standard_normal(3) * 0.1, r=rng.standard_normal(6),
                             beta=rng.standard_normal(10) * 0.3,
                             p=rng.standard_normal(32) * 0.5,
                             h=rng.standard_normal(24) * 0.5)
    mesh, cache = body.forward_with_cache(template, params)
    cot = rng.standard_normal(mesh.vertices.shape)
    grads = body.pullback(cache, cot)

    def scalar(pr):
        return float((body.forward_with_cache(template, pr)[0].vertices * cot).sum())

    h = 1e-4
    for name in ("t", "r", "p", "h"):
        vec = getattr(params, name)
        direction = rng.standard_normal(vec.shape)
        direction /= np.linalg.norm(direction)
        vp = dict(params.__dict__)
        vm = dict(params.__dict__)
        vp[name] = vec + h * direction
        vm[name] = vec - h * direction
        numeric = (scalar(body.BodyParams(**vp)) - scalar(body.BodyParams(**vm))) / (2 * h)
        analytic = float(grads[name] @ direction)
        assert abs(analytic - numeric) / max(abs(numeric), 1e-8) < 1e-3, name


def random_frames(rng, n):
    frames = np.empty((n, body.PARAM_DIM))
    frames[:, 0:3] = rng.standard_normal((n, 3)) * 0.2
    frames[:, 3:9] = rng.standard_normal((n, 6))
    frames[:, 9:19] = rng.standard_normal((n, 10)) * 0.3
    frames[:, 19:51] = rng.standard_normal((n, 32)) * 0.4
    frames[:, 51:75] = rng.standard_normal((n, 24)) * 0.4
    return frames


def test_blocked_batch_matches_frames_posed_one_at_a_time(template):
    rng = np.random.default_rng(6)
    frames = random_frames(rng, 2 * body.FRAME_BLOCK + 3)
    mesh, cache = body.forward_batch_with_cache(template, frames)
    cot = rng.standard_normal(mesh.vertices.shape)
    grads = body.pullback_batch(cache, cot)
    plain = body.forward_batch(template, frames)
    assert np.array_equal(plain.vertices, mesh.vertices)
    assert np.array_equal(plain.joints, mesh.joints)
    for i, frame in enumerate(frames):
        one, one_cache = body.forward_with_cache(template, body.BodyParams.from_flat(frame))
        g = body.pullback(one_cache, cot[i])
        g = np.concatenate([g[name] for name in ("t", "r", "p", "h")])
        np.testing.assert_allclose(mesh.vertices[i], one.vertices, rtol=0, atol=1e-12)
        np.testing.assert_allclose(mesh.joints[i], one.joints, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grads[i], g, rtol=0, atol=1e-12 * np.abs(g).max())


def _kernel_outputs(template, frames, cot):
    mesh, cache = body.forward_batch_with_cache(template, frames)
    plain = body.forward_batch(template, frames)
    return [mesh.vertices, mesh.joints, plain.vertices, plain.joints, *cache[1:3],
            body.pullback_batch(cache, cot)]


def test_kernel_blocks_on_two_threads_match_the_blocks_run_in_turn(template, monkeypatch):
    """Same bytes as the same blocks run one after the other on the calling
    thread. (Not as separate one-block calls: the rotations and FK run over
    all frames at once, and numpy rounds some rows of a 6-frame tail call
    differently from the same rows of a 70-frame call.)"""
    rng = np.random.default_rng(22)
    frames = random_frames(rng, 2 * body.FRAME_BLOCK + 6)   # three blocks
    cot = rng.standard_normal((len(frames), template.num_vertices, 3))
    ran_on = []

    def recording(mine, theirs, real=body.both):
        def on(role, fn):
            return lambda: (ran_on.append((role, threading.get_ident())), fn())[1]
        return real(on("mine", mine), on("theirs", theirs))

    monkeypatch.setattr(body, "both", recording)
    threaded = _kernel_outputs(template, frames, cot)
    # forward twice and pullback once, each on the calling thread and one worker
    caller = threading.get_ident()
    assert sorted((role, ident == caller) for role, ident in ran_on) == (
        [("mine", True)] * 3 + [("theirs", False)] * 3)
    _kernel_outputs(template, frames[:body.FRAME_BLOCK], cot[:body.FRAME_BLOCK])
    assert len(ran_on) == 6   # one block: nothing to hand over
    monkeypatch.setattr(body, "both", lambda mine, theirs: (mine(), theirs()))
    in_turn = _kernel_outputs(template, frames, cot)
    for got, want in zip(threaded, in_turn):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [5, 2 * body.FRAME_BLOCK + 6])
def test_pullback_t_and_r_columns_are_the_whole_batch_expressions(template, n):
    """Each block sums its own frames' vertex cotangents for t and takes their
    product with the skinned vertices for r; the columns keep the bytes of
    those expressions over the whole batch."""
    rng = np.random.default_rng(25)
    mesh, cache = body.forward_batch_with_cache(template, random_frames(rng, n))
    gv = rng.standard_normal(mesh.vertices.shape)
    grads = body.pullback_batch(cache, gv)
    v_skin, glob_cache = cache[2], cache[7]
    want_r = rot6d_matrix_pullback(glob_cache, gv.transpose(0, 2, 1) @ v_skin)
    assert grads[:, body.T].tobytes() == gv.sum(axis=1).tobytes()
    assert grads[:, body.R].tobytes() == want_r.tobytes()


def test_kernel_error_on_the_worker_reaches_the_caller(template, monkeypatch):
    caller = threading.get_ident()

    def blend(tpl, affine, real=body._blend):
        if threading.get_ident() != caller:
            raise RuntimeError("skinning failed on the worker")
        return real(tpl, affine)

    monkeypatch.setattr(body, "_blend", blend)
    frames = random_frames(np.random.default_rng(23), 2 * body.FRAME_BLOCK + 6)
    with pytest.raises(RuntimeError, match="on the worker"):
        body.forward_batch(template, frames)
    body.forward_batch(template, frames[:body.FRAME_BLOCK])   # one block: caller only


def test_pullback_batch_matches_fd_on_every_block(template):
    rng = np.random.default_rng(7)
    frames = random_frames(rng, 5)
    mesh, cache = body.forward_batch_with_cache(template, frames)
    cot = rng.standard_normal(mesh.vertices.shape)
    grads = body.pullback_batch(cache, cot)
    assert grads.shape == (len(frames), 65)

    def scalar(fr):
        return float((body.forward_batch(template, fr).vertices * cot).sum())

    h = 1e-4
    for name, cols in (("t", slice(0, 3)), ("r", slice(3, 9)), ("p", slice(19, 51)),
                       ("h", slice(51, 75))):
        direction = np.zeros_like(frames)
        direction[:, cols] = rng.standard_normal(direction[:, cols].shape)
        direction /= np.linalg.norm(direction)
        numeric = (scalar(frames + h * direction) - scalar(frames - h * direction)) / (2 * h)
        analytic = float((grads * np.delete(direction, np.s_[9:19], axis=1)).sum())
        assert abs(analytic - numeric) / max(abs(numeric), abs(analytic), 1e-8) < 1e-3, name


def test_batch_rejects_one_bad_row(template):
    frames = random_frames(np.random.default_rng(8), 5)
    degenerate = frames.copy()
    degenerate[3, 3:9] = [1.0, 0, 0, 2.0, 0, 0]  # parallel 6D columns
    with pytest.raises(InvalidRotationError):
        body.forward_batch(template, degenerate)
    overflowing = frames.copy()
    overflowing[2, 19:51] = 1e200
    with pytest.raises(NumericError):
        body.forward_batch_with_cache(template, overflowing)


def test_bodyparams_flat_round_trip_order():
    rng = np.random.default_rng(5)
    vec = rng.standard_normal(75)
    vec[3:9] = [1, 0, 0, 0, 1, 0]
    params = body.BodyParams.from_flat(vec)
    np.testing.assert_array_equal(params.t, vec[:3])
    np.testing.assert_array_equal(params.r, vec[3:9])
    np.testing.assert_array_equal(params.beta, vec[9:19])
    np.testing.assert_array_equal(params.p, vec[19:51])
    np.testing.assert_array_equal(params.h, vec[51:75])
    assert np.array_equal(params.flat(), vec)


def test_bodyparams_rejects_nonfinite_and_degenerate():
    with pytest.raises(ValueError):
        body.BodyParams(t=[np.nan, 0, 0], r=[1, 0, 0, 0, 1, 0],
                        beta=np.zeros(10), p=np.zeros(32), h=np.zeros(24))
    with pytest.raises(ValueError):
        body.BodyParams(t=np.zeros(3), r=np.zeros(6),
                        beta=np.zeros(10), p=np.zeros(32), h=np.zeros(24))


def test_record_fields_tile_the_record_in_order(template):
    fields = [body.T, body.R, body.BETA, body.P, body.H]
    assert [f.stop - f.start for f in fields] == [3, 6, body.SHAPE_DIM, body.POSE_DIM,
                                                  body.HAND_DIM]
    assert [f.start for f in fields] == [0] + [f.stop for f in fields[:-1]]
    assert fields[-1].stop == body.PARAM_DIM == 75
    assert all(f.step is None for f in fields)
    cols = np.arange(body.PARAM_DIM)
    assert np.array_equal(cols[body.ROUTE], np.r_[cols[body.T], cols[body.R]])
    assert np.array_equal(cols[body.POSE], np.r_[cols[body.P], cols[body.H]])
    # the variable layout is the record without beta, as pullback_batch writes it
    var_cols = np.delete(cols, cols[body.BETA])
    assert len(var_cols) == body.VAR_DIM == 65
    for var, rec in ((body.T, body.T), (body.R, body.R), (body.ROUTE, body.ROUTE),
                     (body.VAR_P, body.P), (body.VAR_H, body.H), (body.VAR_POSE, body.POSE)):
        assert np.array_equal(var_cols[var], cols[rec])
    _, cache = body.forward_batch_with_cache(template, rest_params().flat()[None])
    grad = body.pullback_batch(cache, np.zeros((1, template.num_vertices, 3)))
    assert grad.shape == (1, body.VAR_DIM)
    vec = np.random.default_rng(6).standard_normal(body.PARAM_DIM)
    vec[body.R] = [1, 0, 0, 0, 1, 0]
    assert np.array_equal(body.BodyParams.from_flat(vec).flat(), vec)
