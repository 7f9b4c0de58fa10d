import copy
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenemotion import body, motion_nets
from scenemotion.cvae import CVAETrainer
from scenemotion.errors import InvalidRotationError
from scenemotion.field import SceneField
from scenemotion.motion_nets import (PoseNet, RouteNet, _SeqHead, pose_loss, pose_loss_grad,
                                     route_loss, route_loss_grad, synthesize_clip,
                                     train_pose_net, train_route_net)
from scenemotion.nn.adam import AdamState
from scenemotion.nn import layers
from scenemotion.nn.layers import leaky_relu, leaky_relu_backward
from gradcheck import check_param_grads_directional
from helpers import count_pools, rest_params, shares_beta
from scenemotion.rotation import heading_to_rot6d
from scenemotion.scene import PointCloud, VertexIndex
from test_cvae import far_slab_grid, tiny_model
from test_nn import oracle_bilstm, rel_err

IDENTITY_R = np.array([1.0, 0, 0, 0, 1, 0])


def records(n=1, **fields):
    """(n, 75) goal records, zero but for the named ``body`` fields (T, R, ...)."""
    x = np.zeros((n, body.PARAM_DIM))
    for name, value in fields.items():
        x[:, getattr(body, name)] = value
    return x


def small_route(seed=0):
    return RouteNet(np.random.default_rng(seed), hidden=16, fc_width=24, point_hidden=(6, 8))


def small_pose(seed=1):
    return PoseNet(np.random.default_rng(seed), hidden=16, fc_width=24, point_hidden=(6, 8))


def test_route_forward_length_at_default_k():
    model = small_route()
    cloud = np.random.default_rng(2).standard_normal((40, 3))
    out = model.forward(records(R=IDENTITY_R), records(T=[1.0, 1.0, 0.0], R=IDENTITY_R),
                        cloud, k=61)[0]
    assert out.shape == (60, 9)


def test_route_zero_weight_network_outputs_head_bias():
    model = small_route()
    for p in model.params():
        p.value[...] = 0.0
    model.head.fc2.b.value[...] = np.arange(9) * 0.5
    cloud = np.random.default_rng(3).standard_normal((20, 3))
    out = model.forward(records(R=IDENTITY_R), records(T=1.0, R=IDENTITY_R), cloud, k=10)[0]
    for step in out:
        np.testing.assert_array_equal(step, np.arange(9) * 0.5)


def test_route_rejects_degenerate_rotation():
    model = small_route()
    cloud = np.zeros((5, 3)) + [0, 0, 1.0]
    with pytest.raises(InvalidRotationError):
        model.forward(records(), records(T=1.0, R=IDENTITY_R), cloud, k=8)


def test_pose_forward_length_matches_route():
    model = small_pose()
    cloud = np.random.default_rng(4).standard_normal((20, 3))
    route = np.zeros((1, 9, 9))
    out = model.forward(records(), records(), route, cloud, k=10)[0]
    assert out.shape == (9, 56)


def test_pose_route_length_mismatch_rejected():
    model = small_pose()
    cloud = np.zeros((5, 3)) + [0, 0, 1.0]
    with pytest.raises(ValueError):
        model.forward(records(), records(), np.zeros((1, 5, 9)), cloud, k=10)


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
    starts = records(2, ROUTE=rng.standard_normal((2, 9)))
    ends = records(2, ROUTE=rng.standard_normal((2, 9)))
    gt = rng.standard_normal((2, 7, 9))

    def loss():
        feats, caches = model.point_enc.encode_scenes([0, 0], {0: cloud})
        xs = model.step_inputs(starts, ends, 8)
        out, cache = model.forward_batch(xs, feats)
        value = sum(route_loss(out[i], gt[i]) for i in range(2))
        _, g_feats = model.backward_batch(cache, route_loss_grad(out, gt))
        model.point_enc.backward_scenes([0, 0], caches, g_feats)
        return value

    worst = check_param_grads_directional(loss, model.params(), n_cases=12, h=1e-5, tol=1e-3)
    assert worst < 1e-3


def oracle_seqnet(model, xs, feats, g_out):
    """forward_batch + backward_batch through the per-step BiLSTM and a head
    that runs fc1 as one Linear on concatenated [lstm, scene] rows.

    Returns (out, g_xs, g_feats, {param name: grad}) for the LSTM and head."""
    N, T, _ = xs.shape
    k = T - 1
    fc1, fc2 = copy.deepcopy(model.head.fc1), copy.deepcopy(model.head.fc2)
    fc1.zero_grad()
    fc2.zero_grad()
    y = oracle_bilstm(model.lstm, xs, np.zeros((N, T, 2 * model.hidden)))[0]
    feat_b = np.broadcast_to(feats[:, None, :], (N, k - 1, feats.shape[1]))
    cat = np.concatenate([y[:, 1:k], feat_b], axis=2).reshape(N * (k - 1), -1)
    h_pre, c1 = fc1.forward(cat)
    out, c2 = fc2.forward(leaky_relu(h_pre))
    g_pre = leaky_relu_backward(h_pre, fc2.backward(c2, g_out.reshape(len(cat), -1)))
    g_cat = fc1.backward(c1, g_pre).reshape(N, k - 1, -1)
    g_y = np.zeros_like(y)
    g_y[:, 1:k] = g_cat[:, :, :2 * model.hidden]
    _, g_xs, grads = oracle_bilstm(model.lstm, xs, g_y)
    grads.update({p.name: p.grad for p in fc1.params() + fc2.params()})
    return (out.reshape(N, k - 1, -1), g_xs, g_cat[:, :, 2 * model.hidden:].sum(axis=1),
            grads)


@pytest.mark.parametrize("make", [small_route, small_pose], ids=["route", "pose"])
def test_seqnet_matches_concatenated_head_oracle(make):
    rng = np.random.default_rng(14)
    model = make()
    xs = rng.standard_normal((3, 9, model.step_dim))
    feats = rng.standard_normal((3, 256))
    g_out = rng.standard_normal((3, 7, model.out_dim))
    model.zero_grad()
    out, cache = model.forward_batch(xs, feats)
    g_xs, g_feats = model.backward_batch(cache, g_out)
    out_ref, g_xs_ref, g_feats_ref, grads_ref = oracle_seqnet(model, xs, feats, g_out)
    assert rel_err(out, out_ref) < 1e-12
    assert rel_err(g_xs, g_xs_ref) < 1e-12
    assert rel_err(g_feats, g_feats_ref) < 1e-12
    for p in model.lstm.params() + model.head.params():
        assert rel_err(p.grad, grads_ref[p.name]) < 1e-12, p.name


def test_seq_head_has_the_bytes_of_the_serial_expressions(monkeypatch):
    """The head's backward hands fc1's and fc2's step weight gradients to the
    worker; its outputs and gradients keep the bytes of the serial head. (At
    14 rows of width 128 OpenBLAS computes a 7-row half of fc1's product with
    another kernel than the whole, so row halves would not keep them.)"""
    rng = np.random.default_rng(19)
    S, N, L, D, F, O = 7, 2, 128, 7, 128, 5
    head = _SeqHead(L, D, F, O, rng, name="head")
    y, feats, gy = (rng.standard_normal(shape) for shape in ((S, N, L), (N, D), (S, N, O)))
    for p in head.params():
        p.grad[...] = rng.standard_normal(p.grad.shape)
    W1, b1, W2, b2 = (p.value for p in (head.fc1.W, head.fc1.b, head.fc2.W, head.fc2.b))
    gW1, gb1, gW2, gb2 = (p.grad.copy() for p in (head.fc1.W, head.fc1.b, head.fc2.W,
                                                  head.fc2.b))
    h_pre = (y.reshape(S * N, L) @ W1[:, :L].T).reshape(S, N, -1)
    h_pre += feats @ W1[:, L:].T + b1
    act = leaky_relu(h_pre)
    want_out = act @ W2.T
    want_out += b2
    gy2 = gy.reshape(-1, O)
    gW2 += gy2.T @ act.reshape(-1, F)
    gb2 += gy2.sum(axis=0)
    g_pre = leaky_relu_backward(h_pre, gy @ W2)
    g_clip = g_pre.sum(axis=0)
    g_pre = g_pre.reshape(S * N, F)
    gW1[:, :L] += g_pre.T @ y.reshape(S * N, L)
    gW1[:, L:] += g_clip.T @ feats
    gb1 += g_clip.sum(axis=0)
    want = [(g_pre @ W1[:, :L]).reshape(S, N, L), g_clip @ W1[:, L:], gW1, gb1, gW2, gb2]

    ran_on = []

    def recording(acc, a, b, real=layers.add_product):
        ran_on.append(threading.get_ident())
        real(acc, a, b)

    monkeypatch.setattr(layers, "add_product", recording)
    monkeypatch.setattr(motion_nets, "add_product", recording)
    out, cache = head.forward(y, feats)
    g_y, g_feats = head.backward(cache, gy)
    got = [g_y, g_feats] + [p.grad for p in (head.fc1.W, head.fc1.b, head.fc2.W, head.fc2.b)]
    assert out.tobytes() == want_out.tobytes()
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    assert len(ran_on) == 2 and threading.get_ident() not in ran_on


def _random_clips(rng, n, k, scenes):
    return [{"scene": int(rng.integers(scenes)),
             "frames": rng.standard_normal((k + 1, body.PARAM_DIM)) * 0.3} for _ in range(n)]


def oracle_train_route_net(model, clips, clouds, epochs, batch_size, lr, seed):
    """train_route_net as a hand loop over the same permutations and batches."""
    rng = np.random.default_rng(seed)
    adam = AdamState(model.params())
    k = len(clips[0]["frames"]) - 1
    curve = []
    for _ in range(epochs):
        order = rng.permutation(len(clips))
        losses = []
        for lo in range(0, len(order), batch_size):
            batch = [clips[i] for i in order[lo:lo + batch_size]]
            n = len(batch)
            sids = [c["scene"] for c in batch]
            gt = np.stack([c["frames"][1:k, 0:9] for c in batch])
            feats, feat_caches = model.point_enc.encode_scenes(sids, clouds)
            xs = model.step_inputs(np.stack([c["frames"][0] for c in batch]),
                                   np.stack([c["frames"][k] for c in batch]), k)
            out, cache = model.forward_batch(xs, feats)
            losses.append(sum(route_loss(out[i], gt[i]) for i in range(n)) / n)
            model.zero_grad()
            _, g_feats = model.backward_batch(cache, route_loss_grad(out, gt) / n)
            model.point_enc.backward_scenes(sids, feat_caches, g_feats)
            adam.step(lr)
        curve.append(float(np.mean(losses)))
    return curve


def test_route_training_matches_the_hand_loop():
    rng = np.random.default_rng(17)
    clips = _random_clips(rng, 5, 8, scenes=2)
    clouds = {s: rng.standard_normal((12, 3)) for s in range(2)}
    oracle_route, route = small_route(), small_route()
    expect = oracle_train_route_net(oracle_route, clips, clouds, epochs=3, batch_size=2,
                                    lr=1e-3, seed=4)
    curve = train_route_net(route, clips, clouds, epochs=3, batch_size=2, lr=1e-3, seed=4)
    assert curve == expect
    for p, q in zip(route.params(), oracle_route.params()):
        assert np.array_equal(p.value, q.value), p.name


def _trainer(tag, template):
    """(items, train(items, log)) for two epochs of the trainer named ``tag``."""
    rng = np.random.default_rng(18)
    clips = _random_clips(rng, 3, 8, scenes=1)
    clouds = {0: rng.standard_normal((12, 3))}
    if tag == "cvae":
        field = SceneField(mesh=None, cloud=PointCloud(points=clouds[0]), grid=far_slab_grid(),
                           index=VertexIndex(clouds[0]))
        trainer = CVAETrainer(tiny_model(), template, {0: field}, w_col=0.0, w_cont=0.0)

        def train(data, log):
            return trainer.run_epochs(data, [0] * len(data), epochs=2, batch_size=2, lr=1e-3,
                                      log=log)
        return np.stack([c["frames"][0] for c in clips]), train
    if tag == "route":
        def train(data, log):
            return train_route_net(small_route(), data, clouds, epochs=2, batch_size=2, log=log)
        return clips, train

    def train(data, log):
        return train_pose_net(small_pose(), small_route(), data, clouds, epochs=2,
                              batch_size=2, log=log)
    return clips, train


@pytest.mark.parametrize("tag", ["cvae", "route", "pose"])
def test_trainers_log_each_epoch_and_reject_an_empty_set(template, tag):
    items, train = _trainer(tag, template)
    lines = []
    curve = train(items, lines.append)
    assert len(curve) == 2
    for epoch, (line, loss) in enumerate(zip(lines, curve), start=1):
        assert re.fullmatch(rf"{tag} epoch {epoch}/2: loss \d+\.\d{{4}}", line), line
        assert line.endswith(f"{loss:.4f}")
    with pytest.raises(ValueError, match="^empty training set$"):
        train(items[:0], lines.append)
    assert len(lines) == 2


@pytest.mark.parametrize("tag", ["cvae", "route", "pose"])
def test_a_training_call_opens_one_worker_and_leaves_no_thread(template, tag, monkeypatch):
    items, train = _trainer(tag, template)
    pools = count_pools(monkeypatch)
    threads = threading.active_count()
    train(items, None)
    assert len(pools) == 1
    assert threading.active_count() == threads


def oracle_train_pose_net(model, route_model, clips, clouds, epochs, batch_size, lr, seed):
    """train_pose_net with the frozen RouteNet run on every batch of every epoch."""
    rng = np.random.default_rng(seed)
    adam = AdamState(model.params())
    k = len(clips[0]["frames"]) - 1
    curve = []
    for _ in range(epochs):
        order = rng.permutation(len(clips))
        losses = []
        for lo in range(0, len(order), batch_size):
            batch = [clips[i] for i in order[lo:lo + batch_size]]
            n = len(batch)
            sids = [c["scene"] for c in batch]
            starts = np.stack([c["frames"][0] for c in batch])
            ends = np.stack([c["frames"][k] for c in batch])
            rfeats, _ = route_model.point_enc.encode_scenes(sids, clouds)
            routes = route_model.forward_batch(route_model.step_inputs(starts, ends, k),
                                               rfeats)[0]
            gt = np.stack([c["frames"][1:k, 19:75] for c in batch])
            feats, feat_caches = model.point_enc.encode_scenes(sids, clouds)
            xs = model.step_inputs(starts, ends, routes, k)
            out, cache = model.forward_batch(xs, feats)
            losses.append(sum(pose_loss(out[i], gt[i]) for i in range(n)) / n)
            model.zero_grad()
            _, g_feats = model.backward_batch(cache, pose_loss_grad(out, gt) / n)
            model.point_enc.backward_scenes(sids, feat_caches, g_feats)
            adam.step(lr)
        curve.append(float(np.mean(losses)))
    return curve


def test_pose_training_runs_the_frozen_route_net_once_per_clip_chunk(monkeypatch):
    rng = np.random.default_rng(15)
    k, n, batch = 8, 5, 2
    clips = _random_clips(rng, n, k, scenes=2)
    clouds = {s: rng.standard_normal((12, 3)) for s in range(2)}
    route = small_route()
    oracle_pose, pose = small_pose(), small_pose()
    expect = oracle_train_pose_net(oracle_pose, route, clips, clouds, epochs=3,
                                   batch_size=batch, lr=1e-3, seed=4)
    passes = []
    forward = route.lstm.forward
    monkeypatch.setattr(route.lstm, "forward", lambda xs: passes.append(len(xs)) or forward(xs))
    curve = train_pose_net(pose, route, clips, clouds, epochs=3, batch_size=batch, lr=1e-3,
                           seed=4)
    assert passes == [2, 2, 1]       # ceil(5 / 2) chunks in clip order, for all 3 epochs
    assert rel_err(np.array(curve), np.array(expect)) < 1e-12
    for p, q in zip(pose.params(), oracle_pose.params()):
        assert rel_err(p.value, q.value) < 1e-12, p.name


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
    assert shares_beta(clip)
    # bit determinism with frozen weights
    clip2 = synthesize_clip(route, pose, [start, end], cloud, k=12)
    assert np.array_equal(clip.frames, clip2.frames)


def test_synthesize_clip_rejects_beta_mismatch(template):
    rng = np.random.default_rng(11)
    route, pose = small_route(), small_pose()
    cloud = rng.standard_normal((10, 3))
    start = rest_params()
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
        route.forward(records(4, R=r0), records(4, T=1.0, R=IDENTITY_R), cloud, k=8)
    assert pose.forward(records(3), records(3), np.zeros((3, 9, 9)), cloud,
                        k=10).shape == (3, 9, 56)
    with pytest.raises(ValueError, match="route shape"):
        pose.forward(records(3), records(3), np.zeros((2, 9, 9)), cloud, k=10)
    with pytest.raises(ValueError, match="route shape"):  # training builds its inputs here
        PoseNet.step_inputs(records(3), records(3), np.zeros((3, 8, 9)), 10)


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
    out1 = pose.forward(clip["frames"][[0]], clip["frames"][[k]], route_gt[None],
                        clouds[clip["scene"]], k)[0]
    shifted = route_gt.copy()
    shifted[:, 0] += 0.5
    out2 = pose.forward(clip["frames"][[0]], clip["frames"][[k]], shifted[None],
                        clouds[clip["scene"]], k)[0]
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
