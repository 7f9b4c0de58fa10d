import json
import threading

import numpy as np
import pytest

from scenemotion import body
from scenemotion.energy import EnergyReport, EnergyWeights, segment_stable_foot, total_energy
from scenemotion.errors import InvalidRotationError
from scenemotion.refine import (RefinementSchedule, RefineStage, energy_and_gradients,
                                frames_to_vars, refine, vars_to_frames)
from scenemotion.sequence import MotionSequence
from helpers import (contact_correspondences, count_pools, energy_value,
                     frozen_energy_and_gradients, record_posings)


def walking_frames(rng, n=4, z=0.93):
    frames = np.zeros((n, body.PARAM_DIM))
    for i in range(n):
        frames[i] = body.BodyParams(
            t=np.array([0.15 * i, 0.02 * i, z]) + rng.standard_normal(3) * 0.01,
            r=np.array([1.0, 0, 0, 0, 1, 0]) + rng.standard_normal(6) * 0.05,
            beta=rng.standard_normal(10) * 0.2,
            p=rng.standard_normal(32) * 0.3,
            h=rng.standard_normal(24) * 0.2).flat()
    return frames


def test_schedule_validation():
    with pytest.raises(ValueError):
        RefinementSchedule(stages=[])
    with pytest.raises(ValueError):
        RefineStage(EnergyWeights(), iters=0)
    for lr in (0.0, -1e-2, np.inf, np.nan):
        with pytest.raises(ValueError, match="learning rate"):
            RefineStage(EnergyWeights(), lr=lr)


def test_two_stage_schedule_default_weights():
    sched = RefinementSchedule.two_stage()
    assert sched.stages[0].weights.as_tuple() == (0.0, 1.0, 1.0, 0.25)
    assert sched.stages[1].weights.as_tuple() == (1.0, 1.0, 1.0, 0.25)


def test_schedule_from_json(tmp_path):
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps([
        {"weights": [0.0, 1.0, 1.0, 0.25], "iters": 10, "lr": 0.02},
        {"weights": {"foot": 1.0, "col": 1.0, "cont": 1.0, "smooth": 0.25}, "iters": 5},
    ]))
    sched = RefinementSchedule.from_json(path)
    assert len(sched.stages) == 2
    assert sched.stages[0].iters == 10
    assert sched.stages[0].lr == 0.02
    assert sched.stages[1].weights.foot == 1.0


def test_vars_round_trip():
    rng = np.random.default_rng(0)
    frames = walking_frames(rng)
    x = frames_to_vars(frames)
    back = vars_to_frames(x, frames[:, 9:19])
    assert np.array_equal(back, frames)


def test_zero_weight_schedule_is_identity(template, slab_field):
    rng = np.random.default_rng(1)
    seq = MotionSequence(frames=walking_frames(rng))
    sched = RefinementSchedule([RefineStage(EnergyWeights(0, 0, 0, 0), iters=5, lr=1e-2)])
    result = refine(template, seq, slab_field, sched)
    assert np.array_equal(result.sequence.frames, seq.frames)
    assert result.diagnostic is None


def test_energy_gradients_match_fd(template, slab_field):
    rng = np.random.default_rng(2)
    frames = walking_frames(rng, n=3)
    seg = segment_stable_foot(template, body.forward_batch(template, frames).vertices)
    weights = EnergyWeights(1.0, 1.0, 1.0, 0.25)
    frozen = contact_correspondences(template, frames, slab_field)
    _, g = frozen_energy_and_gradients(template, frames, slab_field, weights, seg, frozen)

    def loss(x):
        fr = vars_to_frames(x, frames[:, 9:19])
        return energy_value(template, fr, slab_field, weights, seg, correspondences=frozen)

    x0 = frames_to_vars(frames)
    h = 1e-4
    checked = 0
    for _ in range(60):
        i = rng.integers(0, len(frames))
        j = rng.integers(0, 65)
        xp, xm = x0.copy(), x0.copy()
        xp[i, j] += h
        xm[i, j] -= h
        fd = (loss(xp) - loss(xm)) / (2 * h)
        if abs(fd) < 1e-7:
            continue
        rel = abs(g[i, j] - fd) / max(abs(fd), abs(g[i, j]))
        assert rel < 1e-3, (i, j, g[i, j], fd)
        checked += 1
    assert checked >= 30


def test_floor_penetration_regression(template, slab_field):
    # soles 5 cm below the slab top; collision-only refinement must fix it
    sole_z = template.rest_vertices[template.sole_vertex_ids("left")][:, 2].min()
    t_z = -sole_z - 0.05
    frames = np.stack([
        body.BodyParams(t=np.array([0.2 * i - 0.4, 0.0, t_z]),
                        r=np.array([1.0, 0, 0, 0, 1, 0]), beta=np.zeros(10),
                        p=np.zeros(32), h=np.zeros(24)).flat()
        for i in range(5)
    ])
    seq = MotionSequence(frames=frames)
    sched = RefinementSchedule([RefineStage(EnergyWeights(0.0, 1.0, 0.0, 0.0),
                                            iters=300, lr=1e-2)])
    result = refine(template, seq, slab_field, sched)
    totals = result.history[0]["totals"]
    assert totals[0] > 0.0
    assert totals[-1] < 0.05 * totals[0]


def test_two_stage_totals_do_not_increase(template, slab_field):
    rng = np.random.default_rng(3)
    seq = MotionSequence(frames=walking_frames(rng, n=6, z=0.96))
    sched = RefinementSchedule.two_stage(iters=40, lr=1e-2)
    result = refine(template, seq, slab_field, sched)
    for stage in result.history:
        assert stage["totals"][-1] <= stage["totals"][0] + 1e-9
    assert result.diagnostic is None


def test_nonfinite_energy_aborts_with_diagnostic(template, slab_field):
    rng = np.random.default_rng(4)
    seq = MotionSequence(frames=walking_frames(rng))
    sched = RefinementSchedule([RefineStage(EnergyWeights(0, 1.0, 0, 0), iters=50, lr=1e200)])
    result = refine(template, seq, slab_field, sched)
    assert result.diagnostic is not None
    assert np.all(np.isfinite(result.sequence.frames))


def test_refine_opens_one_worker_and_leaves_no_thread_when_it_aborts(template, slab_field,
                                                                     monkeypatch):
    pools = count_pools(monkeypatch)
    threads = threading.active_count()
    seq = MotionSequence(frames=walking_frames(np.random.default_rng(9),
                                               n=2 * body.FRAME_BLOCK + 6))
    result = refine(template, seq, slab_field, RefinementSchedule.two_stage(iters=2))
    assert result.diagnostic is None and len(pools) == 1
    assert threading.active_count() == threads
    # an abort in the middle of a stage
    sched = RefinementSchedule([RefineStage(EnergyWeights(0, 1.0, 1.0, 0), iters=50, lr=1e200)])
    result = refine(template, seq, slab_field, sched)
    assert result.diagnostic.endswith("at iteration 1") and len(pools) == 2
    assert threading.active_count() == threads

    # and an error raised on the worker, in a body-kernel block, which refine
    # does not catch
    caller = threading.get_ident()

    def blend(tpl, affine, real=body._blend):
        if threading.get_ident() != caller:
            raise RuntimeError("skinning failed on the worker")
        return real(tpl, affine)

    monkeypatch.setattr(body, "_blend", blend)
    with pytest.raises(RuntimeError, match="on the worker"):
        refine(template, seq, slab_field, sched)
    assert threading.active_count() == threads


def test_refine_is_deterministic(template, slab_field):
    rng = np.random.default_rng(5)
    seq = MotionSequence(frames=walking_frames(rng))
    sched = RefinementSchedule.two_stage(iters=10, lr=1e-2)
    a = refine(template, seq, slab_field, sched).sequence.frames
    b = refine(template, seq, slab_field, sched).sequence.frames
    assert np.array_equal(a, b)


# -- shared energy kernel ------------------------------------------------------------

def sinking_frames(rng, n=6):
    """A slow shuffle low enough that the body penetrates the slab, with a stance
    foot, so all four terms are non-zero."""
    frames = np.zeros((n, body.PARAM_DIM))
    for i in range(n):
        frames[i] = body.BodyParams(
            t=np.array([0.01 * i, 0.0, 0.85]),
            r=np.array([1.0, 0, 0, 0, 1, 0]) + rng.standard_normal(6) * 0.01,
            beta=np.zeros(10),
            p=rng.standard_normal(32) * 0.02,
            h=rng.standard_normal(24) * 0.2).flat()
    return frames


def test_total_energy_matches_refine_report_term_by_term(template, slab_field):
    frames = sinking_frames(np.random.default_rng(0))
    weights = EnergyWeights(1.0, 1.0, 1.0, 0.25)
    report = total_energy(template, frames, slab_field, weights)
    ev = energy_and_gradients(template, frames, slab_field, weights)  # segments its own frames
    ref = ev.report
    assert ev.grad.shape == (len(frames), 65)
    assert min(report.foot, report.col, report.cont, report.smooth) > 0.0
    for term in ("foot", "col", "cont", "smooth", "total"):
        assert getattr(report, term) == getattr(ref, term), term


def test_frozen_correspondences_match_fresh_queries(template, slab_field):
    frames = sinking_frames(np.random.default_rng(1))
    seg = segment_stable_foot(template, body.forward_batch(template, frames).vertices)
    weights = EnergyWeights(1.0, 1.0, 1.0, 0.25)
    frozen = contact_correspondences(template, frames, slab_field)
    ev = energy_and_gradients(template, frames, slab_field, weights, seg)
    fresh, g_fresh = ev.report, ev.grad
    pinned, g_pinned = frozen_energy_and_gradients(template, frames, slab_field, weights, seg,
                                                   frozen)
    assert fresh.cont > 0.0
    for term in ("foot", "col", "cont", "smooth", "total"):
        assert getattr(pinned, term) == pytest.approx(getattr(fresh, term), rel=1e-12, abs=0.0)
    np.testing.assert_allclose(g_pinned, g_fresh, rtol=0.0,
                               atol=1e-12 * np.abs(g_fresh).max())


def test_total_energy_poses_each_frame_once(template, slab_field, monkeypatch):
    frames = sinking_frames(np.random.default_rng(2))
    posed = record_posings(monkeypatch)
    total_energy(template, frames, slab_field, EnergyWeights())
    assert sum(map(len, posed)) == len(frames)


# -- one evaluation per frame set -----------------------------------------------------

STAGES = [RefineStage(EnergyWeights(0.0, 1.0, 1.0, 0.25), iters=3, lr=1e-2),
          RefineStage(EnergyWeights(1.0, 1.0, 1.0, 0.25), iters=2, lr=1e-2)]


def posed(template, frames):
    return body.forward_batch(template, frames).vertices


def test_refine_poses_each_frame_set_once(template, slab_field, monkeypatch):
    """Stages of n1 and n2 iterations take n1 + n2 evaluations with gradient
    and one value-only evaluation of the refined frames."""
    seq = MotionSequence(frames=sinking_frames(np.random.default_rng(6)))
    frames = record_posings(monkeypatch)
    result = refine(template, seq, slab_field, RefinementSchedule(STAGES))
    assert result.diagnostic is None
    assert len(frames) == 3 + 2 + 1
    assert np.array_equal(frames[0], seq.frames)
    assert np.array_equal(frames[-1], result.sequence.frames)


def test_every_recorded_total_is_its_terms_in_the_stage_weights(template, slab_field):
    seq = MotionSequence(frames=sinking_frames(np.random.default_rng(7)))
    result = refine(template, seq, slab_field, RefinementSchedule(STAGES))
    for rec, stage in zip(result.history, STAGES):
        assert len(rec["terms"]) == len(rec["totals"]) == stage.iters + 1
        for total, terms in zip(rec["totals"], rec["terms"]):
            assert EnergyReport(*terms, weights=stage.weights).total == total


def test_each_closing_total_is_the_stage_end_energy(template, slab_field):
    """The total a stage closes on is the energy of the frames it ended on,
    under its weights and the segmentation of the frames it started on."""
    seq = MotionSequence(frames=sinking_frames(np.random.default_rng(8)))
    full = refine(template, seq, slab_field, RefinementSchedule(STAGES))
    start = seq.frames
    for s, stage in enumerate(STAGES):
        end = refine(template, seq, slab_field, RefinementSchedule(STAGES[:s + 1])).sequence.frames
        seg = segment_stable_foot(template, posed(template, start))
        closing = total_energy(template, end, slab_field, stage.weights, seg)
        assert full.history[s]["totals"][-1] == closing.total
        assert full.history[s]["terms"][-1] == closing.terms()
        start = end
    assert np.array_equal(start, full.sequence.frames)


def test_first_and_final_terms_are_fresh_reports_of_the_frames(template, slab_field):
    seq = MotionSequence(frames=sinking_frames(np.random.default_rng(9)))
    result = refine(template, seq, slab_field, RefinementSchedule(STAGES))
    weights = EnergyWeights()
    for terms, frames in ((result.first_terms, seq.frames),
                          (result.final_terms, result.sequence.frames)):
        assert terms == total_energy(template, frames, slab_field, weights).terms()


@pytest.mark.parametrize("stage, fail_at", [(0, 3), (1, 5)])
def test_failed_closing_evaluation_ends_refinement_with_a_diagnostic(
        template, slab_field, monkeypatch, stage, fail_at):
    """The posing after a stage's last step raises: refinement stops with a
    diagnostic, the stage keeps one total per iteration and none for its
    close, and the sequence reverts to the frames of the last evaluation."""
    seq = MotionSequence(frames=sinking_frames(np.random.default_rng(10)))
    frames = record_posings(monkeypatch, fail_at=fail_at,
                            error=InvalidRotationError("row 0: degenerate"))
    result = refine(template, seq, slab_field, RefinementSchedule(STAGES))
    # stage 0's close is stage 1's first evaluation; stage 1's is the value-only one
    iteration = 0 if stage == 0 else 2
    assert result.diagnostic == f"stage 1: row 0: degenerate at iteration {iteration}"
    assert [len(rec["totals"]) for rec in result.history] == ([3, 0] if stage == 0 else [4, 2])
    assert np.array_equal(result.sequence.frames, frames[fail_at - 1])
    assert result.final_terms is None and result.first_terms is not None
