import functools
import threading

import numpy as np
import pytest

from scenemotion import body
from scenemotion.cvae import GoalCVAE
from scenemotion.datagen import gen_scene, SyntheticSceneSpec
from scenemotion.energy import total_energy
from scenemotion.errors import InvalidRotationError
from scenemotion.field import SceneField
from scenemotion.motion_nets import PoseNet, RouteNet
from scenemotion.pipeline import (GoalSpec, cvae_interpolation_baseline, plan_long_term,
                                  validate_spec)
from scenemotion.refine import RefinementSchedule
from scenemotion.rotation import heading_to_rot6d
from helpers import perfbench_tracing, record_posings, rest_params, shares_beta

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
    tracing = perfbench_tracing()
    ran_on = {}

    class ThreadRecorder(tracing.Tracer):
        def _wrap(self, name, fn, work):
            traced = super()._wrap(name, fn, work)

            @functools.wraps(fn)
            def recorded(*args, **kwargs):
                ran_on.setdefault(name, set()).add(threading.get_ident())
                return traced(*args, **kwargs)
            return recorded

    cvae, route, pose = random_models
    tracer = ThreadRecorder()
    with tracer.op(0):   # 46 frames: two body-kernel blocks
        plan_long_term(cvae, route, pose, template, goals(4), small_field, k=15,
                       schedule=RefinementSchedule.two_stage(iters=2))
    assert {"refine.energy_and_gradients", "energy.terms", "nn.lstm.forward"} <= set(ran_on)
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
