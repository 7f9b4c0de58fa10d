import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenemotion import body
from scenemotion.cvae import (CVAETrainer, GoalCVAE, fit_latent, kl_grads, kl_loss)
from scenemotion.field import SceneField
from gradcheck import check_param_grads_directional
from helpers import rest_params, worker_handoffs
from scenemotion.rotation import heading_to_rot6d
from scenemotion.scene import PointCloud, VertexIndex
from scenemotion.sdf import SdfGrid


def tiny_model(seed=0):
    return GoalCVAE(np.random.default_rng(seed), hidden=24, cond_dim=16, point_hidden=(6, 8))


def far_slab_grid():
    # positive everywhere near the body: plane-distance field high above a slab
    zs = np.arange(-8.0, 4.01, 1.0)
    values = np.broadcast_to(zs[None, None, :] + 8.0, (12, 12, len(zs))).copy()
    return SdfGrid(origin=np.array([-6.0, -6.0, -8.0]), cell=1.0, values=values)


# -- KL -----------------------------------------------------------------------

def test_kl_matching_gaussians_is_zero():
    assert kl_loss(np.zeros(32), np.zeros(32)) == 0.0


def test_kl_unit_mean_closed_form():
    assert kl_loss(np.ones(32), np.zeros(32)) == pytest.approx(16.0, abs=1e-12)


def test_kl_matches_monte_carlo_oracle():
    rng = np.random.default_rng(0)
    mu = rng.standard_normal(32) * 0.5
    log_var = rng.standard_normal(32) * 0.4
    sigma = np.exp(0.5 * log_var)
    n = 1_000_000
    z = mu + sigma * rng.standard_normal((n, 32))
    # log q(z) - log p(z) averaged over z ~ q
    log_q = (-0.5 * ((z - mu) / sigma) ** 2 - 0.5 * np.log(2 * np.pi) - 0.5 * log_var).sum(axis=1)
    log_p = (-0.5 * z ** 2 - 0.5 * np.log(2 * np.pi)).sum(axis=1)
    samples = log_q - log_p
    estimate = samples.mean()
    stderr = samples.std(ddof=1) / np.sqrt(n)
    assert abs(kl_loss(mu, log_var) - estimate) <= 3 * stderr


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=32, max_size=32),
       st.lists(st.floats(-3, 3), min_size=32, max_size=32))
def test_kl_nonnegative(mu, log_var):
    assert kl_loss(np.asarray(mu), np.asarray(log_var)) >= -1e-12


def test_kl_grads_closed_form():
    rng = np.random.default_rng(1)
    mu = rng.standard_normal(32)
    lv = rng.standard_normal(32)
    g_mu, g_lv = kl_grads(mu, lv)
    h = 1e-6
    for i in (0, 7, 31):
        mp, mm = mu.copy(), mu.copy()
        mp[i] += h
        mm[i] -= h
        assert g_mu[i] == pytest.approx((kl_loss(mp, lv) - kl_loss(mm, lv)) / (2 * h), rel=1e-5)
        lp, lm = lv.copy(), lv.copy()
        lp[i] += h
        lm[i] -= h
        assert g_lv[i] == pytest.approx((kl_loss(mu, lp) - kl_loss(mu, lm)) / (2 * h), rel=1e-5)


# -- condition / encode / decode ------------------------------------------------

def condition(model, beta, t, r, cloud):
    """F_hs for a single goal: the scene feature fused with (beta, t, r)."""
    feat, _ = model.point_enc.forward(cloud)
    return model.condition_from_feature(feat, beta, t, r)[0][0]


def test_condition_deterministic_and_permutation_invariant():
    model = tiny_model()
    rng = np.random.default_rng(2)
    cloud = rng.standard_normal((50, 3))
    beta, t, r = np.zeros(10), np.array([1.0, 2.0, 0.9]), np.array([1.0, 0, 0, 0, 1, 0])
    a = condition(model, beta, t, r, cloud)
    b = condition(model, beta, t, r, cloud)
    c = condition(model, beta, t, r, cloud[rng.permutation(50)])
    assert np.array_equal(a, b)
    assert np.array_equal(a, c)


def test_zero_weight_encoder_outputs_bias():
    model = tiny_model()
    for p in model.params():
        p.value[...] = 0.0
    model.enc_fc2.b.value[...] = np.arange(64) * 0.1
    rng = np.random.default_rng(3)
    cond = np.zeros((2, 16))
    mu1, lv1, _ = model.encode(rng.standard_normal((2, 75)), cond)
    mu2, lv2, _ = model.encode(rng.standard_normal((2, 75)), cond)
    assert np.array_equal(mu1, mu2)  # constant across inputs
    np.testing.assert_allclose(mu1[0], np.arange(32) * 0.1)
    np.testing.assert_allclose(lv1[0], (np.arange(32) + 32) * 0.1)


def test_decode_is_deterministic_and_sample_reproducible(template):
    model = tiny_model()
    rng = np.random.default_rng(4)
    feat = model.point_enc.forward(rng.standard_normal((30, 3)))[0]
    beta = rng.standard_normal(10) * 0.1
    t = np.array([0.5, -0.2, 0.9])
    r = np.array([1.0, 0, 0, 0, 1, 0])
    a = model.sample_goal_body(beta, t, r, feat, seed=9)
    b = model.sample_goal_body(beta, t, r, feat, seed=9)
    assert np.array_equal(a.flat(), b.flat())
    # pass-through contract
    assert np.array_equal(a.t, t)
    assert np.array_equal(a.r, r)
    assert np.array_equal(a.beta, beta)


def test_sampled_bodies_satisfy_invariants():
    model = tiny_model()
    rng = np.random.default_rng(5)
    feat = model.point_enc.forward(rng.standard_normal((30, 3)))[0]
    params = model.sample_goal_body(np.zeros(10), [0, 0, 0.9], [1, 0, 0, 0, 1, 0], feat, seed=1)
    assert np.all(np.isfinite(params.flat()))


def test_goal_bodies_batch_matches_one_goal_at_a_time():
    model = tiny_model()
    rng = np.random.default_rng(6)
    feat = model.point_enc.forward(rng.standard_normal((30, 3)))[0]
    beta = rng.standard_normal(10) * 0.1
    ts = rng.uniform(-2.0, 2.0, (5, 3))
    rs = np.stack([heading_to_rot6d(a) for a in rng.uniform(0.0, 2.0 * np.pi, 5)])
    seeds = [11, 3, 11, 7, 2**31 - 1]
    bodies = model.sample_goal_bodies(beta, ts, rs, feat, seeds)
    assert len(bodies) == 5
    for g, b in enumerate(bodies):
        one = model.sample_goal_body(beta, ts[g], rs[g], feat, seed=seeds[g])
        np.testing.assert_allclose(b.flat(), one.flat(), rtol=0, atol=1e-12)
        assert np.array_equal(b.t, ts[g])
        assert np.array_equal(b.r, rs[g])
        assert np.array_equal(b.beta, beta)


# -- training step ----------------------------------------------------------------

def _contact_cloud_field(template, params):
    mesh, _ = body.forward_with_cache(template, params)
    pts = mesh.vertices[template.contact_vertex_ids()]
    cloud = PointCloud(points=pts)
    return SceneField(mesh=None, cloud=cloud, grid=far_slab_grid(),
                      index=VertexIndex(pts))


def test_perfect_reconstruction_zero_energy_placement_gives_zero_total(template):
    gt = body.BodyParams(t=np.array([0.0, 0.0, 0.9]), r=np.array([1.0, 0, 0, 0, 1, 0]),
                         beta=np.zeros(10), p=np.full(32, 0.1), h=np.full(24, -0.2))
    model = tiny_model()
    for p in model.params():
        p.value[...] = 0.0
    model.dec_out.b.value[...] = np.concatenate([gt.p, gt.h])  # decoder reproduces gt exactly
    field = _contact_cloud_field(template, gt)
    trainer = CVAETrainer(model, template, {0: field}, w_kl=0.1, w_col=0.01, w_cont=0.01,
                          warmup_frac=0.0, seed=0)
    stats = trainer.forward_backward(gt.flat()[None, :], [0], eps=np.zeros((1, 32)))
    assert stats["recon"] == 0.0
    assert stats["kl"] == 0.0
    assert stats["e_col"] == 0.0
    assert stats["e_cont"] == 0.0
    assert stats["total"] == 0.0


def test_zero_kl_weight_removes_kl_exactly(template):
    rng = np.random.default_rng(6)
    gt = body.BodyParams(t=np.array([0.0, 0.0, 0.9]), r=np.array([1.0, 0, 0, 0, 1, 0]),
                         beta=np.zeros(10), p=rng.standard_normal(32) * 0.2,
                         h=rng.standard_normal(24) * 0.2)
    field = _contact_cloud_field(template, gt)
    eps = rng.standard_normal((1, 32))

    def run(w_kl):
        model = tiny_model(seed=7)
        trainer = CVAETrainer(model, template, {0: field}, w_kl=w_kl, w_col=0.0, w_cont=0.0,
                              warmup_frac=0.0, seed=0)
        return trainer.forward_backward(gt.flat()[None, :], [0], eps=eps)

    with_kl = run(0.1)
    without = run(0.0)
    assert without["total"] == pytest.approx(without["recon"], abs=0.0)
    assert with_kl["total"] == pytest.approx(with_kl["recon"] + 0.1 * with_kl["kl"], abs=1e-12)


def test_train_step_gradients_match_fd(template):
    rng = np.random.default_rng(8)
    gt = body.BodyParams(t=np.array([0.1, -0.1, 0.9]), r=np.array([1.0, 0, 0, 0, 1, 0]),
                         beta=rng.standard_normal(10) * 0.1,
                         p=rng.standard_normal(32) * 0.2, h=rng.standard_normal(24) * 0.2)
    field = _contact_cloud_field(template, gt)
    model = tiny_model(seed=9)
    trainer = CVAETrainer(model, template, {0: field}, w_kl=0.1, w_col=0.01, w_cont=0.01,
                          warmup_frac=0.0, seed=0)
    batch = np.stack([gt.flat(), gt.flat() + 0.01])
    batch[:, 3:9] = [1, 0, 0, 0, 1, 0]
    eps = rng.standard_normal((2, 32))

    def loss():
        return trainer.forward_backward(batch, [0, 0], eps)["total"]

    worst = check_param_grads_directional(loss, model.params(), n_cases=12, h=1e-5, tol=1e-3)
    assert worst < 1e-3


def test_nan_loss_aborts(template):
    gt = rest_params()
    field = _contact_cloud_field(template, gt)
    model = tiny_model(seed=10)
    model.dec_out.b.value[...] = np.nan
    trainer = CVAETrainer(model, template, {0: field}, w_col=0.0, w_cont=0.0, seed=0)
    from scenemotion.errors import NumericError
    with pytest.raises(NumericError):
        trainer.forward_backward(gt.flat()[None, :], [0], eps=np.zeros((1, 32)))


def test_empty_batch_rejected(template):
    gt = rest_params()
    field = _contact_cloud_field(template, gt)
    trainer = CVAETrainer(tiny_model(), template, {0: field}, seed=0)
    with pytest.raises(ValueError):
        trainer.forward_backward(np.zeros((0, 75)), [], eps=np.zeros((0, 32)))


def test_body_energies_are_the_batch_mean_of_refinement_terms(template, slab_field):
    # two scenes, bodies sunk into the slab or the box, both scene terms on
    from scenemotion.datagen import box_mesh_arrays
    from scenemotion.energy import EnergyWeights, scene_energy
    from scenemotion.scene import make_mesh
    box = SceneField.build(make_mesh(*box_mesh_arrays([0.3, 0.0, 0.6], [0.8, 0.8, 0.6])),
                           cloud_points=256, cloud_seed=2, cell=0.1, padding=0.4)
    fields = {0: slab_field, 1: box}
    rng = np.random.default_rng(15)
    scene_ids = [1, 0, 0, 1, 0, 1, 1]
    frames = np.tile(rest_params().flat(), (len(scene_ids), 1))
    frames[:, 0:3] = rng.uniform([-0.2, -0.2, 0.7], [0.2, 0.2, 0.9], (len(scene_ids), 3))
    frames[:, 9:19] = rng.standard_normal((len(scene_ids), 10)) * 0.2
    frames[:, 19:] += rng.standard_normal((len(scene_ids), 56)) * 0.2
    w_col, w_cont = 0.7, 0.3
    trainer = CVAETrainer(tiny_model(), template, fields, w_col=w_col, w_cont=w_cont, seed=0)
    col, cont, g_ph = trainer._body_energies(frames, scene_ids)

    n = len(frames)
    weights = EnergyWeights(foot=0.0, col=w_col, cont=w_cont, smooth=0.0)
    mesh, cache = body.forward_batch_with_cache(template, frames)
    g_vertices = np.zeros(mesh.vertices.shape)
    reports = []
    for i, sid in enumerate(scene_ids):
        report, g = scene_energy(template, mesh.vertices[i:i + 1], fields[sid], weights, [],
                                 want_grad=True)
        reports.append(report)
        g_vertices[i] = g[0] / n
    want_col = np.mean([r.col for r in reports])
    want_cont = np.mean([r.cont for r in reports])
    want_g = body.pullback_batch(cache, g_vertices)[:, 9:]
    assert min(r.col for r, s in zip(reports, scene_ids) if s == 0) > 0.0
    assert min(r.col for r, s in zip(reports, scene_ids) if s == 1) > 0.0
    assert col == pytest.approx(want_col, rel=1e-12, abs=0.0)
    assert cont == pytest.approx(want_cont, rel=1e-12, abs=0.0)
    np.testing.assert_allclose(g_ph, want_g, rtol=0.0, atol=1e-12 * np.abs(want_g).max())


def test_run_epochs_matches_a_hand_loop_of_train_steps(template, slab_field):
    # two scenes with the scene terms on, batches that mix them, a short last batch
    rng = np.random.default_rng(13)
    rest = rest_params()
    fields = {0: slab_field, 1: _contact_cloud_field(template, rest)}
    vecs = np.tile(rest.flat(), (7, 1))
    vecs[:, 0:3] += rng.uniform(-0.5, 0.5, (7, 3))
    vecs[:, 19:] += rng.standard_normal((7, 56)) * 0.1
    scene_ids = [0, 1, 1, 0, 1, 0, 0]
    trainers = [CVAETrainer(tiny_model(seed=14), template, fields, total_steps=9, seed=3)
                for _ in range(2)]
    curve = trainers[0].run_epochs(vecs, scene_ids, epochs=3, batch_size=3, lr=1e-3)

    hand = trainers[1]
    order_rng = np.random.default_rng(hand.rng.integers(2**31))
    expect = []
    for _ in range(3):
        order = order_rng.permutation(7)
        totals = [hand.train_step(vecs[idx], [scene_ids[i] for i in idx], lr=1e-3)["total"]
                  for idx in (order[lo:lo + 3] for lo in range(0, 7, 3))]
        expect.append(float(np.mean(totals)))
    assert curve == expect
    assert trainers[0].model.checksum() == hand.model.checksum()


def test_fit_latent_reconstructs_decodable_target():
    model = tiny_model(seed=11)
    rng = np.random.default_rng(12)
    cond = rng.standard_normal(16)
    z_true = rng.standard_normal(32)
    target, _ = model.decode(z_true, cond)
    z_fit = fit_latent(model, cond, target[0], steps=400, seed=0)
    fitted, _ = model.decode(z_fit, cond)
    assert np.abs(fitted - target).sum() < 0.5 * np.abs(target).sum()


def test_fit_latent_opens_no_pool(monkeypatch):
    model = tiny_model(seed=11)
    cond = np.random.default_rng(12).standard_normal(16)
    handoffs = worker_handoffs(monkeypatch)
    fit_latent(model, cond, model.decode(np.ones(32), cond)[0][0], steps=3)
    assert handoffs == []


def test_encode_decode_round_trip_beats_noise_floor(template):
    # converged toy model: decode(encode(x, eps=0)) must reconstruct training
    # bodies well below the error of predicting the training-set mean
    rng = np.random.default_rng(0)
    modes_p = rng.standard_normal((3, 32)) * 0.5
    modes_h = rng.standard_normal((3, 24)) * 0.3
    vecs = []
    for i in range(24):
        m = i % 3
        vecs.append(body.BodyParams(
            t=np.array([0.1 * (i % 5), 0.0, 0.93]), r=np.array([1.0, 0, 0, 0, 1, 0]),
            beta=np.zeros(10), p=modes_p[m] + rng.standard_normal(32) * 0.05,
            h=modes_h[m] + rng.standard_normal(24) * 0.05).flat())
    vecs = np.stack(vecs)
    cloud_pts = rng.standard_normal((32, 3))
    field = SceneField(mesh=None, cloud=PointCloud(points=cloud_pts), grid=far_slab_grid(),
                       index=VertexIndex(cloud_pts))
    model = GoalCVAE(np.random.default_rng(1), hidden=64, cond_dim=32, point_hidden=(8, 16))
    trainer = CVAETrainer(model, template, {0: field}, w_kl=0.01, w_col=0.0, w_cont=0.0,
                          warmup_frac=0.1, total_steps=600, seed=2)
    trainer.run_epochs(vecs, [0] * 24, epochs=200, batch_size=8, lr=1e-3)

    feat, _ = model.point_enc.forward(cloud_pts)
    cond, _ = model.condition_from_feature(np.tile(feat, (24, 1)), vecs[:, 9:19],
                                           vecs[:, 0:3], vecs[:, 3:9])
    mu, _, _ = model.encode(vecs, cond)
    ph, _ = model.decode(mu, cond)  # eps = 0 -> z = mu
    gt_ph = vecs[:, 19:]
    recon_err = np.abs(ph - gt_ph).mean()
    noise_floor = np.abs(gt_ph - gt_ph.mean(axis=0)).mean()
    assert recon_err < 0.5 * noise_floor


# -- probes on the trained model ---------------------------------------------------

def test_trained_condition_is_sensitive_to_goal_location(trained_stack):
    cvae = trained_stack["cvae"]
    cloud = trained_stack["fields"][0].cloud.points
    beta = np.zeros(10)
    r = np.array([1.0, 0, 0, 0, 1, 0])
    a = condition(cvae, beta, np.array([0.0, 0.0, 0.9]), r, cloud)
    b = condition(cvae, beta, np.array([1.0, 0.5, 0.9]), r, cloud)
    assert not np.array_equal(a, b)
    assert np.abs(a - b).max() > 1e-8


def test_trained_decoder_diversity(trained_stack):
    cvae = trained_stack["cvae"]
    cloud = trained_stack["fields"][0].cloud.points
    beta = np.zeros(10)
    t = np.array([0.2, 0.1, 0.93])
    r = np.array([1.0, 0, 0, 0, 1, 0])
    cond = condition(cvae, beta, t, r, cloud)
    rng = np.random.default_rng(13)
    ph1, _ = cvae.decode(rng.standard_normal(32), cond)
    ph2, _ = cvae.decode(rng.standard_normal(32), cond)
    assert np.abs(ph1 - ph2).sum() > 0.0


def test_trained_sampling_ten_seeds_distinct(trained_stack):
    cvae = trained_stack["cvae"]
    feat = cvae.point_enc.forward(trained_stack["fields"][0].cloud.points)[0]
    bodies = [cvae.sample_goal_body(np.zeros(10), [0.3, -0.2, 0.93], [1, 0, 0, 0, 1, 0],
                                    feat, seed=s) for s in range(10)]
    distinct = {tuple(np.round(np.concatenate([b.p, b.h]), 12)) for b in bodies}
    assert len(distinct) >= 2
