import threading
import tracemalloc

import numpy as np
import pytest

from scenemotion import RunConfig, body
from scenemotion.cvae import CVAETrainer, GoalCVAE
from scenemotion.datagen import gen_scene, SyntheticSceneSpec
from scenemotion.energy import total_energy
from scenemotion.errors import ArtefactError, InvalidRotationError, NumericError
from scenemotion.field import SceneField
from scenemotion.motion_nets import PoseNet, RouteNet, train_pose_net, train_route_net
from scenemotion.persist import load_model, save_model
from scenemotion.pipeline import (GoalSpec, cvae_interpolation_baseline, plan_long_term,
                                  validate_spec)
from scenemotion.refine import RefinementSchedule
from scenemotion.rotation import heading_to_rot6d
from helpers import (fail_evaluation, record_posings, rest_params, shares_beta,
                     thread_recording_tracer)

IDENTITY_R = np.array([1.0, 0, 0, 0, 1, 0])


@pytest.fixture(scope="module")
def random_models():
    cvae = GoalCVAE(np.random.default_rng(0), hidden=32, cond_dim=24, point_hidden=(8, 12))
    route = RouteNet(np.random.default_rng(1), hidden=24, fc_width=32, point_hidden=(8, 12))
    pose = PoseNet(np.random.default_rng(2), hidden=24, fc_width=32, point_hidden=(8, 12))
    return cvae, route, pose


@pytest.fixture(scope="module")
def small_field():
    mesh = gen_scene(SyntheticSceneSpec(floor_extent=8.0))
    return SceneField.build(mesh, cloud_points=128, cloud_seed=0, cell=0.4, padding=0.4)


def goals(G, spread=1.2, seeds=None):
    ts = np.stack([[spread * g - 2.0, 0.3 * g, 0.93] for g in range(G)])
    rs = np.stack([heading_to_rot6d(0.2 * g) for g in range(G)])
    return GoalSpec(translations=ts, rotations=rs, beta=np.zeros(10),
                    seeds=seeds or list(range(G)))


def test_goal_spec_validation():
    with pytest.raises(ValueError):
        GoalSpec(translations=np.zeros((1, 3)), rotations=np.zeros((1, 6)), beta=np.zeros(10))
    with pytest.raises(ValueError):
        GoalSpec(translations=np.zeros((2, 3)), rotations=np.tile(IDENTITY_R, (2, 1)),
                 beta=np.zeros(10))  # zero displacement
    with pytest.raises(ValueError):
        GoalSpec(translations=np.array([[0, 0, 0], [1, 0, 0]]),
                 rotations=np.tile(IDENTITY_R, (2, 1)), beta=np.zeros(10), seeds=[1])
    with pytest.raises(InvalidRotationError, match="degenerate goal orientation: row 1: "):
        GoalSpec(translations=np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]]),
                 rotations=np.stack([IDENTITY_R, np.zeros(6), IDENTITY_R]), beta=np.zeros(10))


_TWO_GOALS = {"translations": np.array([[0.0, 0, 0.93], [1, 0, 0.93]]),
              "rotations": np.tile(IDENTITY_R, (2, 1)), "beta": np.zeros(10)}


@pytest.mark.parametrize("field, value, message", [
    ("translations", np.array([[np.nan, 0, 0.93], [1, 0, 0.93]]),
     "goal translations must be finite"),
    ("rotations", np.stack([IDENTITY_R, [1, 0, 0, 0, np.inf, 0]]), "goal rotations must be finite"),
    ("beta", np.r_[np.inf, np.zeros(9)], "goal beta must be finite"),
    ("translations", np.zeros((3, 2)), r"goal translations: shape \(3, 2\), expected \(3, 3\)"),
    ("translations", np.zeros(6), r"goal translations: shape \(6,\), expected \(6, 3\)"),
    ("rotations", np.zeros((2, 3, 2)), r"goal rotations: shape \(2, 3, 2\), expected \(2, 6\)"),
    ("rotations", np.tile(IDENTITY_R, (3, 1)),
     r"goal rotations: shape \(3, 6\), expected \(2, 6\)"),
    ("beta", np.zeros((2, 5)), r"goal beta: shape \(2, 5\), expected \(10,\)"),
], ids=["nan-t", "inf-r", "inf-beta", "t-3x2", "t-flat", "r-2x3x2", "r-unpaired", "beta-2x5"])
def test_goal_spec_rejects_non_finite_and_misshapen_goals(field, value, message):
    GoalSpec(**_TWO_GOALS)
    with pytest.raises(ValueError, match=message):
        GoalSpec(**{**_TWO_GOALS, field: value})


@pytest.mark.parametrize("G,k", [(2, 15), (3, 15), (5, 15), (2, 61), (3, 61)])
def test_frame_count_law(random_models, small_field, template, G, k):
    cvae, route, pose = random_models
    result = plan_long_term(cvae, route, pose, template, goals(G), small_field, k=k,
                            schedule=None)
    assert len(result.sequence) == (G - 1) * k + 1
    assert result.sequence.chunk_boundaries == [g * k for g in range(G)]


def test_boundary_frames_are_sampled_bodies_bit_exact(random_models, small_field, template):
    cvae, route, pose = random_models
    k = 15
    result = plan_long_term(cvae, route, pose, template, goals(3), small_field, k=k,
                            schedule=None)
    for g, b in enumerate(result.goal_bodies):
        assert np.array_equal(result.pre_refine.frames[g * k], b.flat())


def test_beta_constant_across_frames(random_models, small_field, template):
    cvae, route, pose = random_models
    spec = goals(3)
    spec.beta[...] = np.linspace(-0.5, 0.5, 10)
    result = plan_long_term(cvae, route, pose, template, spec, small_field, k=15,
                            schedule=None)
    assert shares_beta(result.sequence)
    np.testing.assert_array_equal(result.sequence.betas[0], spec.beta)


def test_plan_is_bit_deterministic(random_models, small_field, template):
    cvae, route, pose = random_models
    a = plan_long_term(cvae, route, pose, template, goals(3), small_field, k=15,
                       schedule=RefinementSchedule.two_stage(iters=3, lr=1e-2))
    b = plan_long_term(cvae, route, pose, template, goals(3), small_field, k=15,
                       schedule=RefinementSchedule.two_stage(iters=3, lr=1e-2))
    assert np.array_equal(a.sequence.frames, b.sequence.frames)
    assert a.sequence.frames.tobytes() == b.sequence.frames.tobytes()


def test_different_goal_seeds_give_different_sequences(random_models, small_field, template):
    cvae, route, pose = random_models
    a = plan_long_term(cvae, route, pose, template, goals(3, seeds=[1, 2, 3]),
                       small_field, k=15, schedule=None)
    b = plan_long_term(cvae, route, pose, template, goals(3, seeds=[4, 5, 6]),
                       small_field, k=15, schedule=None)
    assert not np.array_equal(a.sequence.frames, b.sequence.frames)


def test_refinement_history_recorded(random_models, small_field, template):
    cvae, route, pose = random_models
    result = plan_long_term(cvae, route, pose, template, goals(2), small_field, k=15,
                            schedule=RefinementSchedule.two_stage(iters=4, lr=1e-2))
    assert len(result.energy_history) == 2
    assert result.post_report is not None
    assert len(result.energy_history[0]["totals"]) == 5


def test_refinement_holds_goal_translation_and_orientation(random_models, small_field,
                                                           template):
    cvae, route, pose = random_models
    spec = goals(3)
    k = 15
    result = plan_long_term(cvae, route, pose, template, spec, small_field, k=k,
                            schedule=RefinementSchedule.two_stage(iters=4, lr=1e-2))
    seq, pre = result.sequence, result.pre_refine
    assert seq.chunk_boundaries == [0, k, 2 * k]
    for g, f in enumerate(seq.chunk_boundaries):
        assert np.array_equal(seq.translations[f], spec.translations[g])
        assert np.array_equal(seq.rotations[f], spec.rotations[g])
    for f in range(len(seq)):
        if f not in seq.chunk_boundaries:
            assert not np.array_equal(seq.frames[f], pre.frames[f]), f"frame {f} unrefined"


def test_stage_failures_carry_stage_tag(random_models, small_field, template):
    from scenemotion.pipeline import PipelineStageError
    cvae, route, pose = random_models
    spec = goals(2)
    spec.beta = np.full(10, np.nan)  # poisons goal-body sampling
    with pytest.raises(PipelineStageError, match="goal-body"):
        plan_long_term(cvae, route, pose, template, spec, small_field, k=15, schedule=None)


def test_a_program_fault_in_a_stage_propagates_unwrapped(random_models, small_field, template,
                                                         monkeypatch):
    """Only what bad inputs raise is tagged with its stage as a user error; a
    TypeError is a fault of the program and reaches the caller as it is."""
    from scenemotion import pipeline

    def broken(*args):
        raise TypeError("a bug")

    monkeypatch.setattr(pipeline, "synthesize_clip", broken)
    cvae, route, pose = random_models
    with pytest.raises(TypeError, match="^a bug$"):
        plan_long_term(cvae, route, pose, template, goals(2), small_field, k=15, schedule=None)


def test_degenerate_goal_rotation_names_its_row(random_models, small_field, template):
    from scenemotion.pipeline import PipelineStageError
    cvae, route, pose = random_models
    spec = goals(4)
    spec.rotations[2] = 0.0
    with pytest.raises(PipelineStageError,
                       match="^stage 'goal-body sampling': row 2: first 6D column"):
        plan_long_term(cvae, route, pose, template, spec, small_field, k=15, schedule=None)


def test_plan_runs_each_network_once(random_models, small_field, template, monkeypatch):
    from scenemotion.nn.lstm import BiLSTM
    from scenemotion.nn.pointnet import PointEncoder
    calls = {}

    def count(cls, name):
        forward = cls.forward

        def counted(self, *args):
            calls[name] = calls.get(name, 0) + 1
            return forward(self, *args)
        monkeypatch.setattr(cls, "forward", counted)

    count(PointEncoder, "point encoder")
    count(BiLSTM, "bilstm")
    cvae, route, pose = random_models
    plan_long_term(cvae, route, pose, template, goals(5), small_field, k=15, schedule=None)
    assert calls == {"point encoder": 3, "bilstm": 2}


def test_benchmark_traced_callables_run_only_on_the_calling_thread(random_models, small_field,
                                                                   template):
    """The benchmark's tracer keeps one span stack for the process, so nothing
    it wraps may run on the worker thread that refinement and the BiLSTM use."""
    tracing, tracer, ran_on = thread_recording_tracer()
    cvae, route, pose = random_models
    with tracer.op(0):   # 46 frames: two body-kernel blocks
        plan_long_term(cvae, route, pose, template, goals(4), small_field, k=15,
                       schedule=RefinementSchedule.two_stage(iters=2))
    assert {"refine.energy_and_gradients", "energy.terms", "scene.nearest",
            "nn.lstm.forward"} <= set(ran_on)
    assert {name: threads for name, threads in ran_on.items()
            if threads != {threading.get_ident()}} == {}
    assert tracing.span_problems(tracer.spans) == []


def test_benchmark_traced_callables_run_only_on_the_calling_thread_in_training(small_field,
                                                                               template):
    """The same holds for one CVAE, one RouteNet and one PoseNet training step,
    which hand weight gradients and half of each Adam update to the worker."""
    tracing, tracer, ran_on = thread_recording_tracer()
    cvae = GoalCVAE(np.random.default_rng(0), hidden=32, cond_dim=24, point_hidden=(8, 12))
    route = RouteNet(np.random.default_rng(1), hidden=24, fc_width=32, point_hidden=(8, 12))
    pose = PoseNet(np.random.default_rng(2), hidden=24, fc_width=32, point_hidden=(8, 12))
    rng = np.random.default_rng(3)
    k = 15
    clips = []
    for _ in range(4):
        frames = np.tile(rest_params().flat(), (k + 1, 1))
        frames[:, body.T] = np.linspace([-1.0, 0.0, 0.93], [0.0, 0.5, 0.93], k + 1)
        frames[:, body.POSE] += rng.standard_normal((k + 1, 56)) * 0.1
        clips.append({"scene": 0, "frames": frames})
    clouds = {0: small_field.cloud.points}
    trainer = CVAETrainer(cvae, template, {0: small_field}, seed=0)
    with tracer.op(0):
        trainer.train_step(np.stack([c["frames"][0] for c in clips]), [0] * len(clips))
        train_route_net(route, clips, clouds, epochs=1, batch_size=len(clips))
        train_pose_net(pose, route, clips, clouds, epochs=1, batch_size=len(clips))
    assert {"cvae.forward_backward", "cvae.body_energies", "nn.linear.backward",
            "nn.pointnet.backward", "nn.lstm.backward", "nn.adam.step",
            "motion_nets.backward_batch", "scene.nearest"} <= set(ran_on)
    assert {name: threads for name, threads in ran_on.items()
            if threads != {threading.get_ident()}} == {}
    assert tracing.span_problems(tracer.spans) == []


def test_plan_reports_come_from_refinement_evaluations(random_models, small_field, template,
                                                      monkeypatch):
    """With a schedule the plan poses nothing beyond refinement's n1 + n2 + 1
    evaluations, and its reports equal fresh reports of the same frames."""
    cvae, route, pose = random_models
    posed = record_posings(monkeypatch)
    plan_long_term(cvae, route, pose, template, goals(3), small_field, k=15, schedule=None)
    unrefined = len(posed)  # the pre-refinement report's posing and the clip synthesis's
    posed.clear()
    result = plan_long_term(cvae, route, pose, template, goals(3), small_field, k=15,
                            schedule=RefinementSchedule.two_stage(iters=2))
    assert len(posed) == unrefined - 1 + 2 + 2 + 1
    weights = result.pre_report.weights
    assert result.pre_report.to_dict() == total_energy(template, result.pre_refine.frames,
                                                       small_field, weights).to_dict()
    assert result.post_report.to_dict() == total_energy(template, result.sequence.frames,
                                                        small_field, weights).to_dict()


@pytest.mark.parametrize("fail_at", [0, 4])
def test_plan_reports_fall_back_when_refinement_aborts(random_models, small_field,
                                                             template, monkeypatch, fail_at):
    """Refinement whose first (or final) evaluation fails leaves the plan to
    score the unrefined (or the reverted) frames itself."""
    cvae, route, pose = random_models
    before = record_posings(monkeypatch)
    plan_long_term(cvae, route, pose, template, goals(3), small_field, k=15, schedule=None)
    record_posings(monkeypatch, fail_at=len(before) - 1 + fail_at,
                   error=InvalidRotationError("row 0: degenerate"))
    result = plan_long_term(cvae, route, pose, template, goals(3), small_field, k=15,
                            schedule=RefinementSchedule.two_stage(iters=2))
    # stage 0's first evaluation, or stage 1's close: no totals, or its 2 without a close
    assert len(result.energy_history[-1]["totals"]) == (0 if fail_at == 0 else 2)
    weights = result.pre_report.weights
    for report, frames in ((result.pre_report, result.pre_refine.frames),
                           (result.post_report, result.sequence.frames)):
        assert report.to_dict() == total_energy(template, frames, small_field, weights).to_dict()


def test_plan_carries_the_refinement_abort(random_models, small_field, template, monkeypatch):
    """A refinement that aborts hands its diagnostic to the plan; one that runs
    to its end, or no refinement at all, leaves it None."""
    cvae, route, pose = random_models
    schedule = RefinementSchedule.two_stage(iters=3)
    for kept in (None, schedule):
        result = plan_long_term(cvae, route, pose, template, goals(3), small_field, k=15,
                                schedule=kept)
        assert result.diagnostic is None
    fail_evaluation(monkeypatch, at=2, error=NumericError("injected"))
    result = plan_long_term(cvae, route, pose, template, goals(3), small_field, k=15,
                            schedule=schedule)
    assert result.diagnostic == "stage 0: injected at iteration 2"
    assert [len(rec["totals"]) for rec in result.energy_history] == [2]


def test_validate_spec_diagnostics(small_field):
    ts = np.array([[50.0, 0, 0.9], [0.0, 0, 0.9], [1.0, 0, 0.9]])
    spec = GoalSpec(translations=ts, rotations=np.tile(IDENTITY_R, (3, 1)), beta=np.zeros(10))
    assert validate_spec(spec, small_field.mesh) == ["goal 0: outside the scene bounds"]


def test_validate_spec_clean(small_field):
    assert validate_spec(goals(3), small_field.mesh) == []


def test_goal_spec_json_round_trip(tmp_path):
    import json
    path = tmp_path / "goals.json"
    payload = {"beta": list(np.zeros(10)),
               "goals": [{"t": [0, 0, 0.9], "r": list(IDENTITY_R), "seed": 5},
                         {"t": [1, 0, 0.9], "r": list(IDENTITY_R)}]}
    path.write_text(json.dumps(payload))
    spec = GoalSpec.from_json(path)
    assert len(spec) == 2
    assert spec.seeds == [5, 1]


# -- interpolation baseline ------------------------------------------------------

def test_baseline_two_steps_returns_fitted_decoded_endpoints(random_models, small_field):
    cvae, _, _ = random_models
    feat = cvae.point_enc.forward(small_field.cloud.points)[0]
    rng = np.random.default_rng(3)
    start = body.BodyParams(t=np.array([-1.0, 0, 0.93]), r=IDENTITY_R, beta=np.zeros(10),
                            p=rng.standard_normal(32) * 0.2, h=rng.standard_normal(24) * 0.2)
    end = body.BodyParams(t=np.array([1.0, 0, 0.93]), r=IDENTITY_R, beta=np.zeros(10),
                          p=rng.standard_normal(32) * 0.2, h=rng.standard_normal(24) * 0.2)
    seq = cvae_interpolation_baseline(cvae, start, end, feat, steps=2, fit_steps=50)
    assert len(seq) == 2
    # frames carry the endpoint (t, r) and decoded (p, h)
    np.testing.assert_array_equal(seq.frames[0, 0:3], start.t)
    np.testing.assert_array_equal(seq.frames[1, 0:3], end.t)
    assert not np.array_equal(seq.frames[0, 19:75],
                              np.concatenate([start.p, start.h]))  # fitted, not copied


def test_baseline_constant_when_endpoints_identical(random_models, small_field):
    # identical bodies with identical fit seeds -> z_start = z_end exactly, so
    # the decoded interpolation is constant
    cvae, _, _ = random_models
    feat = cvae.point_enc.forward(small_field.cloud.points)[0]
    p0 = body.BodyParams(t=np.array([0.5, 0, 0.93]), r=IDENTITY_R, beta=np.zeros(10),
                         p=np.full(32, 0.1), h=np.zeros(24))
    base = cvae_interpolation_baseline(cvae, p0, p0, feat, steps=6, fit_steps=50,
                                       fit_seeds=(4, 4))
    assert len(base) == 6
    ref = base.frames[0]
    for f in base.frames[1:]:
        np.testing.assert_allclose(f, ref, atol=1e-12)


def test_baseline_requires_two_steps_and_shared_beta(random_models, small_field):
    cvae, _, _ = random_models
    feat = cvae.point_enc.forward(small_field.cloud.points)[0]
    a = rest_params()
    with pytest.raises(ValueError):
        cvae_interpolation_baseline(cvae, a, a, feat, steps=1)
    b = body.BodyParams(t=np.ones(3), r=IDENTITY_R, beta=np.ones(10),
                        p=np.zeros(32), h=np.zeros(24))
    with pytest.raises(ValueError):
        cvae_interpolation_baseline(cvae, a, b, feat, steps=4)


def _small_models():
    return (GoalCVAE(np.random.default_rng(0), hidden=32, cond_dim=24, point_hidden=(8, 12)),
            RouteNet(np.random.default_rng(1), hidden=24, fc_width=32, point_hidden=(8, 12)),
            PoseNet(np.random.default_rng(2), hidden=24, fc_width=32, point_hidden=(8, 12)))


def _grad_slots(*models):
    return [name for m in models for name, p in m.named_params().items()
            if p._grad is not None]


@pytest.mark.parametrize("schedule", [None, RefinementSchedule.two_stage(iters=2)])
def test_planning_creates_no_network_grad_slot(small_field, template, schedule):
    models = _small_models()
    result = plan_long_term(*models, template, goals(3), small_field, k=15, schedule=schedule)
    assert (result.post_report is None) == (schedule is None)
    assert _grad_slots(*models) == []


@pytest.mark.parametrize("kind", ["cvae", "route", "pose"])
def test_loaded_model_holds_no_grad_slot(tmp_path, kind):
    model = dict(zip(("cvae", "route", "pose"), _small_models()))[kind]
    path = str(tmp_path / f"{kind}.npz")
    save_model(path, model, kind)
    loaded, _ = load_model(path, kind)
    assert loaded.checksum() == model.checksum()
    assert _grad_slots(loaded) == []


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_loading_weights_with_a_non_finite_tensor_names_file_and_tensor(tmp_path, bad):
    model = _small_models()[0]
    name, param = next(iter(model.named_params().items()))
    param.value.flat[3] = bad
    path = str(tmp_path / "cvae.npz")
    save_model(path, model, "cvae")
    with pytest.raises(ArtefactError, match="non-finite") as err:
        load_model(path, "cvae")
    assert path in str(err.value) and name in str(err.value)


def test_reference_width_models_hold_their_weights_alone():
    """Building the three models at the reference widths leaves their weights
    live and little else: no gradient slot, which would double it."""
    cfg = RunConfig()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        models = (GoalCVAE(np.random.default_rng(0), hidden=cfg.hidden, cond_dim=cfg.cond_dim,
                           point_hidden=cfg.point_hidden),
                  RouteNet(np.random.default_rng(1), hidden=cfg.hidden, fc_width=cfg.fc_width,
                           point_hidden=cfg.point_hidden),
                  PoseNet(np.random.default_rng(2), hidden=cfg.hidden, fc_width=cfg.fc_width,
                          point_hidden=cfg.point_hidden))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    weights = sum(p.value.nbytes for m in models for p in m.params())
    assert weights > 20 * 2**20
    assert held - weights < 2**20, f"{held / 2**20:.1f} MiB live, {weights / 2**20:.1f} weights"
