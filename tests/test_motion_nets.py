import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenemotion import body
from scenemotion.errors import InvalidRotationError
from scenemotion.motion_nets import (PoseNet, RouteNet, pose_loss, route_loss,
                                     synthesize_clip)
from scenemotion.nn.gradcheck import check_param_grads_directional
from scenemotion.rotation import heading_to_rot6d

IDENTITY_R = np.array([1.0, 0, 0, 0, 1, 0])


def small_route(seed=0):
    return RouteNet(np.random.default_rng(seed), hidden=16, fc_width=24, point_hidden=(6, 8))


def small_pose(seed=1):
    return PoseNet(np.random.default_rng(seed), hidden=16, fc_width=24, point_hidden=(6, 8))


def test_route_forward_length_at_default_k():
    model = small_route()
    cloud = np.random.default_rng(2).standard_normal((40, 3))
    out = model.forward(np.zeros(3), IDENTITY_R, np.array([1.0, 1.0, 0.0]), IDENTITY_R,
                        cloud, k=61)
    assert out.shape == (60, 9)


def test_route_zero_weight_network_outputs_head_bias():
    model = small_route()
    for p in model.params():
        p.value[...] = 0.0
    model.head.fc2.b.value[...] = np.arange(9) * 0.5
    cloud = np.random.default_rng(3).standard_normal((20, 3))
    out = model.forward(np.zeros(3), IDENTITY_R, np.ones(3), IDENTITY_R, cloud, k=10)
    for step in out:
        np.testing.assert_array_equal(step, np.arange(9) * 0.5)


def test_route_rejects_degenerate_rotation():
    model = small_route()
    cloud = np.zeros((5, 3)) + [0, 0, 1.0]
    with pytest.raises(InvalidRotationError):
        model.forward(np.zeros(3), np.zeros(6), np.ones(3), IDENTITY_R, cloud, k=8)


def test_pose_forward_length_matches_route():
    model = small_pose()
    cloud = np.random.default_rng(4).standard_normal((20, 3))
    route = np.zeros((9, 9))
    out = model.forward(np.zeros(32), np.zeros(24), np.zeros(32), np.zeros(24),
                        route, cloud, k=10)
    assert out.shape == (9, 56)


def test_pose_route_length_mismatch_rejected():
    model = small_pose()
    cloud = np.zeros((5, 3)) + [0, 0, 1.0]
    with pytest.raises(ValueError):
        model.forward(np.zeros(32), np.zeros(24), np.zeros(32), np.zeros(24),
                      np.zeros((5, 9)), cloud, k=10)


def test_route_loss_identities():
    gt = np.random.default_rng(5).standard_normal((6, 9))
    assert route_loss(gt, gt) == 0.0
    pred = gt.copy()
    pred[0, 0] += 0.1
    assert route_loss(pred, gt) == pytest.approx(0.1, abs=1e-12)


def test_route_loss_matches_naive_oracle():
    rng = np.random.default_rng(6)
    pred = rng.standard_normal((8, 9))
    gt = rng.standard_normal((8, 9))
    expected = 0.0
    for i in range(8):
        for j in range(9):
            expected += abs(pred[i, j] - gt[i, j])  # lambda_t = lambda_r = 1
    assert route_loss(pred, gt) == pytest.approx(expected, abs=1e-12)


def test_pose_loss_hand_weighting():
    gt = np.zeros((4, 56))
    pred = gt.copy()
    pred[2, 40] = 1.0  # one hand coordinate off by 1.0
    assert pose_loss(pred, gt) == pytest.approx(0.1, abs=1e-12)
    pred2 = gt.copy()
    pred2[1, 3] = 1.0  # body-pose coordinate
    assert pose_loss(pred2, gt) == pytest.approx(1.0, abs=1e-12)


def test_pose_loss_matches_naive_oracle():
    rng = np.random.default_rng(7)
    pred = rng.standard_normal((5, 56))
    gt = rng.standard_normal((5, 56))
    expected = 0.0
    for i in range(5):
        for j in range(56):
            w = 1.0 if j < 32 else 0.1
            expected += w * abs(pred[i, j] - gt[i, j])
    assert pose_loss(pred, gt) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.001, 100.0))
def test_losses_are_one_homogeneous(scale):
    rng = np.random.default_rng(8)
    gt = rng.standard_normal((3, 9))
    resid = rng.standard_normal((3, 9))
    base = route_loss(gt + resid, gt)
    scaled = route_loss(gt + scale * resid, gt)
    assert scaled == pytest.approx(scale * base, rel=1e-9)


def test_loss_length_mismatch():
    with pytest.raises(ValueError):
        route_loss(np.zeros((3, 9)), np.zeros((4, 9)))
    with pytest.raises(ValueError):
        pose_loss(np.zeros((3, 56)), np.zeros((4, 56)))


def test_seqnet_gradients_match_fd():
    rng = np.random.default_rng(9)
    model = small_route()
    cloud = rng.standard_normal((15, 3))
    starts = rng.standard_normal((2, 9))
    ends = rng.standard_normal((2, 9))
    gt = rng.standard_normal((2, 7, 9))

    def loss():
        feats, caches = model.encode_scenes([0, 0], {0: cloud})
        xs = model.step_inputs(starts, ends, 8)
        out, cache = model.forward_batch(xs, feats)
        from scenemotion.motion_nets import route_loss_grad
        value = sum(route_loss(out[i], gt[i]) for i in range(2))
        _, g_feats = model.backward_batch(cache, route_loss_grad(out, gt))
        model.backward_scenes([0, 0], caches, g_feats)
        return value

    worst = check_param_grads_directional(loss, model.params(), n_cases=12, h=1e-5, tol=1e-3)
    assert worst < 1e-3


def test_synthesize_clip_contracts(template):
    rng = np.random.default_rng(10)
    route, pose = small_route(), small_pose()
    cloud = rng.standard_normal((20, 3))
    beta = rng.standard_normal(10) * 0.1
    start = body.BodyParams(t=np.zeros(3), r=IDENTITY_R, beta=beta,
                            p=rng.standard_normal(32) * 0.1, h=np.zeros(24))
    end = body.BodyParams(t=np.array([1.0, 0.5, 0.0]), r=IDENTITY_R, beta=beta,
                          p=rng.standard_normal(32) * 0.1, h=np.zeros(24))
    clip = synthesize_clip(route, pose, [start, end], cloud, k=12)
    assert len(clip) == 13
    assert np.array_equal(clip.frames[0], start.flat())
    assert np.array_equal(clip.frames[12], end.flat())
    assert clip.shares_beta()
    # bit determinism with frozen weights
    clip2 = synthesize_clip(route, pose, [start, end], cloud, k=12)
    assert np.array_equal(clip.frames, clip2.frames)


def test_synthesize_clip_rejects_beta_mismatch(template):
    rng = np.random.default_rng(11)
    route, pose = small_route(), small_pose()
    cloud = rng.standard_normal((10, 3))
    start = body.BodyParams.rest()
    end = body.BodyParams(t=np.ones(3), r=IDENTITY_R, beta=np.ones(10),
                          p=np.zeros(32), h=np.zeros(24))
    with pytest.raises(ValueError):
        synthesize_clip(route, pose, [start, end], cloud, k=8)


def test_batched_forwards_check_every_row():
    rng = np.random.default_rng(12)
    route, pose = small_route(), small_pose()
    cloud = rng.standard_normal((10, 3))
    r0 = np.tile(IDENTITY_R, (4, 1))
    r0[2] = 0.0
    with pytest.raises(InvalidRotationError, match="^row 2: "):
        route.forward(np.zeros((4, 3)), r0, np.ones((4, 3)), np.tile(IDENTITY_R, (4, 1)),
                      cloud, k=8)
    assert pose.forward(np.zeros((3, 32)), np.zeros((3, 24)), np.zeros((3, 32)),
                        np.zeros((3, 24)), np.zeros((3, 9, 9)), cloud, k=10).shape == (3, 9, 56)
    with pytest.raises(ValueError, match="route shape"):
        pose.forward(np.zeros((3, 32)), np.zeros((3, 24)), np.zeros((3, 32)),
                     np.zeros((3, 24)), np.zeros((2, 9, 9)), cloud, k=10)


def test_chain_matches_its_two_body_clips():
    rng = np.random.default_rng(13)
    route, pose = small_route(), small_pose()
    cloud = rng.standard_normal((20, 3))
    beta = rng.standard_normal(10) * 0.1
    bodies = [body.BodyParams(t=np.array([0.8 * g, 0.3 * g, 0.0]), r=heading_to_rot6d(0.4 * g),
                              beta=beta, p=rng.standard_normal(32) * 0.1,
                              h=rng.standard_normal(24) * 0.1) for g in range(4)]
    k = 9
    chain = synthesize_clip(route, pose, bodies, cloud, k)
    assert len(chain) == 3 * k + 1
    assert chain.chunk_boundaries == [0, k, 2 * k, 3 * k]
    for g, b in enumerate(bodies):
        assert np.array_equal(chain.frames[g * k], b.flat())
    for g in range(3):
        clip = synthesize_clip(route, pose, bodies[g:g + 2], cloud, k)
        np.testing.assert_allclose(chain.frames[g * k:(g + 1) * k + 1], clip.frames,
                                   rtol=0, atol=1e-12)
    with pytest.raises(ValueError, match="at least two"):
        synthesize_clip(route, pose, bodies[:1], cloud, k)


def test_dataset_clips_respect_displacement_filter(dataset):
    assert len(dataset["clips"]) > 0
    for clip in dataset["clips"]:
        assert clip["displacement"] > 0.5
        assert len(clip["frames"]) == dataset["k"] + 1
    # a 0.3 m clip would be rejected by the same predicate
    assert not (0.3 > dataset["manifest"]["min_displacement"])


def test_routenet_frozen_during_pose_training(trained_stack):
    before, after = trained_stack["route_checksums"]
    assert before == after


def test_trained_pose_net_is_route_sensitive(trained_stack, dataset):
    pose = trained_stack["pose"]
    clouds = trained_stack["clouds"]
    clip = dataset["clips"][0]
    k = dataset["k"]
    route_gt = clip["frames"][1:k, 0:9]
    out1 = pose.forward(clip["frames"][0, 19:51], clip["frames"][0, 51:75],
                        clip["frames"][k, 19:51], clip["frames"][k, 51:75],
                        route_gt, clouds[clip["scene"]], k)
    shifted = route_gt.copy()
    shifted[:, 0] += 0.5
    out2 = pose.forward(clip["frames"][0, 19:51], clip["frames"][0, 51:75],
                        clip["frames"][k, 19:51], clip["frames"][k, 51:75],
                        shifted, clouds[clip["scene"]], k)
    assert np.abs(out1 - out2).max() > 1e-9


def test_neighbour_v2v_decreases_with_training(trained_stack, dataset, template):
    from scenemotion.metrics import neighbour_v2v
    seeds = trained_stack["init_seeds"]
    arch = trained_stack["arch"]["nets"]
    route_untrained = RouteNet(np.random.default_rng(seeds["route"]), **arch)
    pose_untrained = PoseNet(np.random.default_rng(seeds["pose"]), **arch)
    clouds = trained_stack["clouds"]
    k = dataset["k"]

    def v2v(route, pose):
        vals = []
        for clip in dataset["clips"][:5]:
            start = body.BodyParams.from_flat(clip["frames"][0])
            end = body.BodyParams.from_flat(clip["frames"][k])
            syn = synthesize_clip(route, pose, [start, end], clouds[clip["scene"]], k)
            vals.append(neighbour_v2v(syn, template))
        return float(np.mean(vals))

    trained = v2v(trained_stack["route"], trained_stack["pose"])
    untrained = v2v(route_untrained, pose_untrained)
    assert np.isfinite(trained)
    assert trained < untrained
