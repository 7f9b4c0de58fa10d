"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import json
import time

import numpy as np
import pytest

from scenemotion import body
from scenemotion.cvae import GoalCVAE
from scenemotion.datagen import (SyntheticMotionSpec, SyntheticSceneSpec, box_mesh_arrays,
                                 gen_motion)
from scenemotion.energy import (CONTACT_SIGMA, EnergyWeights, e_col, e_cont, e_smooth,
                                geman_mcclure, segment_stable_foot)
from scenemotion.field import SceneField
from scenemotion.metrics import contact_score, mpjpe, mpvpe, non_collision_score, \
    reconstruction_errors
from scenemotion.motion_nets import PoseNet, RouteNet
from scenemotion.nn.gradcheck import check_param_grads_directional
from scenemotion.nn.layers import Linear, ResidualBlock
from scenemotion.nn.lstm import BiLSTM
from scenemotion.nn.pointnet import PointEncoder
from scenemotion.pipeline import GoalSpec, cvae_interpolation_baseline, plan_long_term
from scenemotion.refine import (RefinementSchedule, RefineStage, contact_correspondences,
                                energy_and_gradients, frames_to_vars, refine,
                                vars_to_frames)
from scenemotion.rotation import heading_to_rot6d
from scenemotion.scene import VertexIndex, make_mesh
from scenemotion.sequence import MotionSequence

IDENTITY_R = np.array([1.0, 0, 0, 0, 1, 0])


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{status}] {name}: {detail}", flush=True)
    return ok


def _standing_frames(n, z=0.93, dx=0.0):
    frames = np.zeros((n, 75))
    for i in range(n):
        frames[i] = body.BodyParams(t=np.array([dx * i, 0.0, z]), r=IDENTITY_R,
                                    beta=np.zeros(10), p=np.zeros(32),
                                    h=np.zeros(24)).flat()
    return frames


# -- 1. gradient correctness ------------------------------------------------------

def test_c01_gradient_correctness(template, slab_field):
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    worst = {}

    # body-model pullback: 50 random directional cases
    err = 0.0
    for case in range(50):
        params = body.BodyParams(t=rng.standard_normal(3) * 0.2, r=rng.standard_normal(6),
                                 beta=rng.standard_normal(10) * 0.3,
                                 p=rng.standard_normal(32) * 0.4,
                                 h=rng.standard_normal(24) * 0.4)
        mesh, cache = body.forward_with_cache(template, params)
        cot = rng.standard_normal(mesh.vertices.shape)
        grads = body.pullback(cache, cot)
        block = ("t", "r", "beta", "p", "h")[case % 5]
        vec = getattr(params, block)
        d = rng.standard_normal(vec.shape)
        d /= np.linalg.norm(d)
        h = 1e-4
        up = dict(params.__dict__)
        dn = dict(params.__dict__)
        up[block] = vec + h * d
        dn[block] = vec - h * d
        num = ((body.forward(template, body.BodyParams(**up)).vertices * cot).sum()
               - (body.forward(template, body.BodyParams(**dn)).vertices * cot).sum()) / (2 * h)
        ana = float(grads[block] @ d)
        err = max(err, abs(ana - num) / max(abs(num), abs(ana), 1e-8))
    worst["body"] = err

    # nn-core layers, 50 directional cases each
    lin = Linear(6, 5, rng)
    x = rng.standard_normal((4, 6))
    w = rng.standard_normal((4, 5))

    def lin_loss():
        y, c = lin.forward(x)
        lin.backward(c, w)
        return float((y * w).sum())

    worst["linear"] = check_param_grads_directional(lin_loss, lin.params(), n_cases=50,
                                                    h=1e-4, tol=1e-3, seed=1)
    res = ResidualBlock(6, rng)
    wr = rng.standard_normal((4, 6))

    def res_loss():
        y, c = res.forward(x)
        res.backward(c, wr)
        return float((y * wr).sum())

    worst["residual"] = check_param_grads_directional(res_loss, res.params(), n_cases=50,
                                                      h=1e-4, tol=1e-3, seed=2)
    lstm = BiLSTM(5, 4, rng)
    xs = rng.standard_normal((2, 6, 5))
    wl = rng.standard_normal((2, 6, 8))

    def lstm_loss():
        y, c = lstm.forward(xs)
        lstm.backward(c, wl)
        return float((y * wl).sum())

    worst["bilstm"] = check_param_grads_directional(lstm_loss, lstm.params(), n_cases=50,
                                                    h=1e-4, tol=1e-3, seed=3)
    enc = PointEncoder(rng, hidden=(8, 12))
    pts = rng.standard_normal((25, 3))
    wf = rng.standard_normal(256)

    def enc_loss():
        f, c = enc.forward(pts)
        enc.backward(c, wf)
        return float((f * wf).sum())

    worst["pointnet"] = check_param_grads_directional(enc_loss, enc.params(), n_cases=50,
                                                      h=1e-4, tol=1e-3, seed=4)

    # four energies with frozen correspondences and segmentation
    frames = np.zeros((3, 75))
    for i in range(3):
        frames[i] = body.BodyParams(t=np.array([0.2 * i, 0.05 * i, 0.93 + 0.01 * i]),
                                    r=IDENTITY_R + rng.standard_normal(6) * 0.05,
                                    beta=rng.standard_normal(10) * 0.2,
                                    p=rng.standard_normal(32) * 0.3,
                                    h=rng.standard_normal(24) * 0.2).flat()
    seg = segment_stable_foot(template, frames)
    frozen = contact_correspondences(template, frames, slab_field)
    x0 = frames_to_vars(frames)
    betas = frames[:, 9:19]
    for term, weights in (("foot", EnergyWeights(1, 0, 0, 0)),
                          ("col", EnergyWeights(0, 1, 0, 0)),
                          ("cont", EnergyWeights(0, 0, 1, 0)),
                          ("smooth", EnergyWeights(0, 0, 0, 1))):
        _, g = energy_and_gradients(template, frames, slab_field, weights, seg,
                                    frozen_nn=frozen)

        def term_loss(xv):
            rep, _ = energy_and_gradients(template, vars_to_frames(xv, betas), slab_field,
                                          weights, seg, frozen_nn=frozen, want_grad=False)
            return rep.total

        err = 0.0
        cases = 0
        attempts = 0
        while cases < 50 and attempts < 300:
            attempts += 1
            i = rng.integers(0, 3)
            j = rng.integers(0, 65)
            h = 1e-4
            xp, xm = x0.copy(), x0.copy()
            xp[i, j] += h
            xm[i, j] -= h
            num = (term_loss(xp) - term_loss(xm)) / (2 * h)
            if abs(num) < 1e-7 and abs(g[i, j]) < 1e-7:
                continue  # inactive coordinate for this term
            err = max(err, abs(g[i, j] - num) / max(abs(num), abs(g[i, j])))
            cases += 1
        worst[f"energy.{term}"] = err

    elapsed = time.monotonic() - t0
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items()) + f", {elapsed:.0f}s"
    ok = max(worst.values()) < 1e-3 and elapsed < 120
    assert _report(1, "gradient correctness", ok, detail)


# -- 2. SDF oracle equivalence ------------------------------------------------------

def test_c02_sdf_oracle_equivalence():
    from test_sdf import oracle_signed_distance
    from scenemotion.sdf import build_sdf, sample_sdf

    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    verts, faces = [], []
    for _ in range(3):
        c = rng.uniform(-1.5, 1.5, 3)
        c[2] = abs(c[2]) + 0.2
        sz = rng.uniform(0.3, 1.0, 3)
        v, f = box_mesh_arrays(c, sz)
        faces.extend((np.asarray(f) + len(verts)).tolist())
        verts.extend(v.tolist())
    mesh = make_mesh(np.array(verts), np.array(faces))
    grid = build_sdf(mesh, cell=0.3, padding=0.7)
    tris = mesh.vertices[mesh.faces]
    xs, ys, zs = grid.node_positions()
    worst_val = 0.0
    for _ in range(200):
        i, j, k = rng.integers(0, len(xs)), rng.integers(0, len(ys)), rng.integers(0, len(zs))
        p = np.array([xs[i], ys[j], zs[k]])
        worst_val = max(worst_val, abs(oracle_signed_distance(p, tris) - grid.values[i, j, k]))

    worst_grad = 0.0
    checked = 0
    while checked < 50:
        p = rng.uniform(grid.origin + 0.05, grid.upper - 0.05)
        local = (p - grid.origin) / grid.cell
        frac = local - np.floor(local)
        if np.any(frac < 0.01) or np.any(frac > 0.99):
            continue
        _, grad = sample_sdf(grid, p)
        for ax in range(3):
            h = 1e-5
            pp, pm = p.copy(), p.copy()
            pp[ax] += h
            pm[ax] -= h
            fd = (sample_sdf(grid, pp)[0] - sample_sdf(grid, pm)[0]) / (2 * h)
            worst_grad = max(worst_grad, abs(grad[ax] - fd))
        checked += 1
    elapsed = time.monotonic() - t0
    ok = worst_val < 1e-6 and worst_grad < 1e-4 and elapsed < 60
    assert _report(2, "SDF oracle equivalence",
                   ok, f"value err {worst_val:.2e}, grad err {worst_grad:.2e}, {elapsed:.0f}s")


# -- 3. energy identities --------------------------------------------------------------

def test_c03_energy_identities(template, slab_field):
    static = MotionSequence(frames=_standing_frames(4)).meshes(template)
    smooth_static = e_smooth(static)
    floating = MotionSequence(frames=_standing_frames(2, z=2.0)).meshes(template)
    col0 = e_col(floating, slab_field.grid)
    rho0 = geman_mcclure(0.0)
    rho_sup = geman_mcclure(1e12)
    s2 = CONTACT_SIGMA ** 2
    # hand arithmetic: one vertex 0.1 below among V; rigid 0.01 translation
    V = 500
    verts = np.zeros((1, V, 3))
    verts[0, :, 2] = 1.0
    verts[0, 0, 2] = -0.1
    col_hand = e_col(verts, slab_field.grid)
    pair = np.zeros((2, V, 3))
    pair[1, :, 0] = 0.01
    smooth_hand = e_smooth(pair)
    index = VertexIndex([[0.0, 0.0, 0.0]])
    cont_sigma = e_cont(np.array([[[CONTACT_SIGMA, 0.0, 0.0]]]), np.array([0]), index)
    ok = (smooth_static == 0.0 and col0 == 0.0 and rho0 == 0.0
          and abs(rho_sup - s2) < 1e-9
          and abs(col_hand - 0.1 / V) < 1e-9
          and abs(smooth_hand - 0.01 * np.sqrt(V)) < 1e-9
          and abs(cont_sigma - s2 / 2) < 1e-9)
    assert _report(3, "energy identities", ok,
                   f"smooth0={smooth_static}, col0={col0}, rho(0)={rho0}, "
                   f"sup-rho err={abs(rho_sup - s2):.1e}, hand errs "
                   f"{abs(col_hand - 0.1 / V):.1e}/{abs(smooth_hand - 0.01 * np.sqrt(V)):.1e}")


# -- 4. refinement efficacy --------------------------------------------------------------

def test_c04_refinement_efficacy(template, slab_field, trained_stack):
    t0 = time.monotonic()
    # (a) constructed 5 cm floor penetration, collision-only schedule
    sole_z = template.rest_vertices[template.sole_vertex_ids("left")][:, 2].min()
    frames = _standing_frames(5, z=-sole_z - 0.05, dx=0.2)
    seq = MotionSequence(frames=frames)
    sched = RefinementSchedule([RefineStage(EnergyWeights(0.0, 1.0, 0.0, 0.0),
                                            iters=300, lr=1e-2)])
    res = refine(template, seq, slab_field, sched)
    totals = res.history[0]["totals"]
    ratio = totals[-1] / totals[0]

    # (b) two-stage schedule on pipeline output
    field = trained_stack["fields"][0]
    spec = GoalSpec(translations=np.array([[-1.2, -0.9, 0.93], [0.2, 0.1, 0.93],
                                           [1.3, 1.0, 0.93]]),
                    rotations=np.stack([heading_to_rot6d(a) for a in (0.6, 0.8, 0.2)]),
                    beta=np.zeros(10), seeds=[1, 2, 3])
    plan = plan_long_term(trained_stack["cvae"], trained_stack["route"],
                          trained_stack["pose"], template, spec, field, k=15,
                          schedule=RefinementSchedule.two_stage(iters=200, lr=1e-2))
    stage_ok = all(st["totals"][-1] <= st["totals"][0] + 1e-9
                   for st in plan.energy_history)
    elapsed = time.monotonic() - t0
    ok = ratio < 0.05 and stage_ok and elapsed < 300
    stage_txt = "; ".join(f"stage{st['stage']}: {st['totals'][0]:.2f}->{st['totals'][-1]:.2f}"
                          for st in plan.energy_history)
    assert _report(4, "refinement efficacy", ok,
                   f"E_col ratio {ratio:.4f}, {stage_txt}, {elapsed:.0f}s")


# -- 5. foot segmentation ----------------------------------------------------------------

def test_c05_foot_segmentation(template):
    scene = SyntheticSceneSpec(floor_extent=10.0)
    rng = np.random.default_rng(100)
    agreements = []
    for seed in range(20):
        step = rng.uniform(0.45, 0.62)
        cadence = rng.uniform(1.6, 2.4)
        heading = rng.uniform(0, 2 * np.pi)
        start = rng.uniform(-1.0, 1.0, 2)
        end = start + np.array([np.cos(heading), np.sin(heading)]) * rng.uniform(2.0, 3.0)
        mspec = SyntheticMotionSpec(waypoints=[start, end], step_length=step, cadence=cadence)
        seq, stance = gen_motion(scene, mspec, template)
        seg = segment_stable_foot(template, seq.frames)
        labels = seg.labels(len(seq))
        agreements.append(np.mean([a == b for a, b in zip(labels, stance)]))
    worst = min(agreements)
    mean = float(np.mean(agreements))
    ok = all(a >= 0.9 for a in agreements)
    assert _report(5, "foot segmentation vs stance oracle", ok,
                   f"min {worst:.3f}, mean {mean:.3f} over 20 gaits")


# -- 6. training regressions --------------------------------------------------------------

def test_c06_training_regressions(trained_stack, dataset):
    curves = trained_stack["curves"]
    cvae_ratio = curves["cvae"][-1] / curves["cvae"][0]

    # RouteNet vs the zero-weight constant predictor
    arch = trained_stack["arch"]["nets"]
    zero = RouteNet(np.random.default_rng(99), **arch)
    for p in zero.params():
        p.value[...] = 0.0
    clouds = trained_stack["clouds"]
    k = dataset["k"]

    def mean_l1(model):
        total = 0.0
        for c in dataset["clips"]:
            pred = model.forward(c["frames"][0, 0:3], c["frames"][0, 3:9],
                                 c["frames"][k, 0:3], c["frames"][k, 3:9],
                                 clouds[c["scene"]], k)
            total += np.abs(pred - c["frames"][1:k, 0:9]).mean()
        return total / len(dataset["clips"])

    trained_err = mean_l1(trained_stack["route"])
    zero_err = mean_l1(zero)
    route_factor = zero_err / trained_err

    pose_curve = np.asarray(curves["pose"])
    kernel = np.ones(5) / 5.0
    smoothed = np.convolve(pose_curve, kernel, mode="valid")
    pose_monotone = bool(np.all(np.diff(smoothed) <= 1e-9))

    freeze_ok = trained_stack["route_checksums"][0] == trained_stack["route_checksums"][1]
    runtime = sum(trained_stack["timings"].values())
    ok = (cvae_ratio < 0.5 and route_factor >= 5.0 and pose_monotone and freeze_ok
          and runtime < 900)
    assert _report(6, "training regressions", ok,
                   f"cvae ratio {cvae_ratio:.3f}, route factor {route_factor:.1f}x, "
                   f"pose monotone {pose_monotone}, freeze {freeze_ok}, {runtime:.0f}s")


# -- 7. pipeline laws ----------------------------------------------------------------------

def test_c07_pipeline_laws(template):
    cvae = GoalCVAE(np.random.default_rng(0), hidden=32, cond_dim=24, point_hidden=(8, 12))
    route = RouteNet(np.random.default_rng(1), hidden=24, fc_width=32, point_hidden=(8, 12))
    pose = PoseNet(np.random.default_rng(2), hidden=24, fc_width=32, point_hidden=(8, 12))
    mesh = make_mesh(*box_mesh_arrays([0.0, 0.0, -0.15], [14.0, 14.0, 0.3]))
    field = SceneField.build(mesh, cloud_points=96, cloud_seed=0, cell=0.6, padding=0.5)

    counts_ok = True
    for G in (2, 3, 5):
        spec = GoalSpec(translations=np.array([[1.1 * g - 2.0, 0.2 * g, 0.93]
                                               for g in range(G)]),
                        rotations=np.stack([heading_to_rot6d(0.1 * g) for g in range(G)]),
                        beta=np.zeros(10), seeds=list(range(G)))
        for k in (15, 61):
            result = plan_long_term(cvae, route, pose, template, spec, field, k=k,
                                    schedule=None)
            counts_ok &= len(result.sequence) == (G - 1) * k + 1

    # seam v2v = 0: shared boundary bodies make consecutive clips exactly continuous
    from scenemotion.motion_nets import synthesize_clip
    spec3 = GoalSpec(translations=np.array([[-1.5, 0, 0.93], [0, 0.3, 0.93], [1.5, 0, 0.93]]),
                     rotations=np.stack([heading_to_rot6d(a) for a in (0.0, 0.3, 0.0)]),
                     beta=np.full(10, 0.2), seeds=[7, 8, 9])
    result = plan_long_term(cvae, route, pose, template, spec3, field, k=15, schedule=None)
    bodies = result.goal_bodies
    cloud = field.cloud.points
    clip_a = synthesize_clip(route, pose, [bodies[0], bodies[1]], cloud, 15)
    clip_b = synthesize_clip(route, pose, [bodies[1], bodies[2]], cloud, 15)
    va = body.forward(template, body.BodyParams.from_flat(clip_a.frames[-1])).vertices
    vb = body.forward(template, body.BodyParams.from_flat(clip_b.frames[0])).vertices
    seam_v2v = float(np.linalg.norm(va - vb, axis=1).mean())

    beta_ok = result.sequence.shares_beta()
    again = plan_long_term(cvae, route, pose, template, spec3, field, k=15, schedule=None)
    determinism = again.sequence.frames.tobytes() == result.sequence.frames.tobytes()
    ok = counts_ok and seam_v2v == 0.0 and beta_ok and determinism
    assert _report(7, "pipeline laws", ok,
                   f"counts {counts_ok}, seam v2v {seam_v2v}, beta {beta_ok}, "
                   f"bit-deterministic {determinism}")


# -- 8. metric identities ----------------------------------------------------------------

def test_c08_metric_identities(template):
    from test_metrics import _puppet_template, plane_grid, seq_of_translations
    seq = MotionSequence(frames=_standing_frames(3, dx=0.1))
    tr, orient, pose_err = reconstruction_errors(seq, seq)
    ident_ok = (tr, orient, pose_err) == (0.0, 0.0, 0.0)

    gt = MotionSequence(frames=_standing_frames(2, z=1.0))
    shifted = gt.copy()
    shifted.frames[:, 0] += 0.01
    mpj = mpjpe(shifted, gt, template)
    mpv = mpvpe(shifted, gt, template)
    rigid_ok = abs(mpj - 10.0) <= 1e-6 and abs(mpv - 10.0) <= 1e-6

    grid = plane_grid()
    floating = MotionSequence(frames=_standing_frames(2, z=2.5))
    float_ok = (non_collision_score(floating, template, grid) == 100.0
                and contact_score(floating, template, grid) == 0.0)

    zs = np.arange(0.0, 5.0, 1.0)
    values = np.broadcast_to(zs[None, None, :], (9, 9, len(zs))).copy()
    from scenemotion.sdf import SdfGrid
    exact_grid = SdfGrid(origin=np.array([-4.0, -4.0, 0.0]), cell=1.0, values=values)
    puppet = _puppet_template()
    at = seq_of_translations([[2.0, -1.0, 0.01]])
    below = seq_of_translations([[2.0, -1.0, 0.01 - 1e-12]])
    threshold_ok = (contact_score(at, puppet, exact_grid) == 0.0
                    and contact_score(below, puppet, exact_grid) == 100.0)

    ok = ident_ok and rigid_ok and float_ok and threshold_ok
    assert _report(8, "metric identities", ok,
                   f"identical zeros {ident_ok}, rigid 10mm ({mpj:.6f}/{mpv:.6f}), "
                   f"floating {float_ok}, threshold boundary {threshold_ok}")


# -- 9. baseline contrast (refinement holds the goal t/r; see README) ---------------------

def test_c09_baseline_contrast(trained_stack, template):
    field = trained_stack["fields"][0]
    cvae = trained_stack["cvae"]
    cloud = field.cloud.points
    k = 15
    wins = 0
    pairs = []
    paths = []
    drift = 0.0
    for seed in range(10):
        spec = GoalSpec(
            translations=np.array([[-1.0, -0.7, 0.93], [0.7, 0.9, 0.93]]),
            rotations=np.stack([heading_to_rot6d(0.7), heading_to_rot6d(0.7)]),
            beta=np.zeros(10), seeds=[2 * seed, 2 * seed + 1])
        plan = plan_long_term(cvae, trained_stack["route"], trained_stack["pose"],
                              template, spec, field, k=k,
                              schedule=RefinementSchedule.two_stage(iters=100, lr=1e-2))
        baseline = cvae_interpolation_baseline(cvae, plan.goal_bodies[0], plan.goal_bodies[1],
                                               cloud, steps=k + 1)
        paths.append(plan.sequence.path_length())
        sm_pipe = e_smooth(plan.sequence.meshes(template)) / paths[-1]
        sm_base = e_smooth(baseline.meshes(template)) / baseline.path_length()
        pairs.append((sm_base, sm_pipe))
        goal_t = plan.sequence.translations[plan.sequence.chunk_boundaries]
        drift = max(drift, np.linalg.norm(goal_t - spec.translations, axis=1).max())
        wins += sm_base > sm_pipe
    detail = (f"baseline higher on {wins}/10 pairs; "
              f"mean baseline {np.mean([p[0] for p in pairs]):.2f} vs "
              f"pipeline {np.mean([p[1] for p in pairs]):.2f} per meter "
              f"(a rigid glide scores sqrt(V)={np.sqrt(template.num_vertices):.2f}); "
              f"refined pelvis path mean {np.mean(paths):.2f} m, "
              f"largest goal drift {drift:.2e} m")
    ok = wins == 10
    assert _report(9, "baseline contrast (E_smooth per meter)", ok, detail)


# -- 10. end-to-end smoke -------------------------------------------------------------------

def test_c10_end_to_end_smoke(tmp_path):
    from scenemotion.cli import main

    t0 = time.monotonic()
    cfg = {"k": 15, "hidden": 64, "fc_width": 128, "point_hidden": [32, 64],
           "cond_dim": 128, "cloud_points": 256, "sdf_cell": 0.15, "sdf_padding": 0.4,
           "n_scenes": 2, "clips_per_scene": 24, "refine_iters": 40,
           "cvae_epochs": 2, "route_epochs": 2, "pose_epochs": 2}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    ds = tmp_path / "dataset"
    conf = ["--config", str(cfg_path)]

    steps = []
    steps.append(("gen-data", main(["gen-data", "--out", str(ds)] + conf)))
    steps.append(("build-sdf", main(["build-sdf", "--dataset", str(ds)] + conf)))
    steps.append(("train-cvae", main(["train-cvae", "--dataset", str(ds),
                                      "--out", str(tmp_path / "w.cvae")] + conf)))
    steps.append(("train-route", main(["train-route", "--dataset", str(ds),
                                       "--out", str(tmp_path / "w.route")] + conf)))
    steps.append(("train-pose", main(["train-pose", "--dataset", str(ds),
                                      "--route", str(tmp_path / "w.route"),
                                      "--out", str(tmp_path / "w.pose")] + conf)))
    goals = {"beta": [0.0] * 10,
             "goals": [{"t": [-1.0, -0.8, 0.93], "r": list(heading_to_rot6d(0.6)), "seed": 1},
                       {"t": [0.8, 0.6, 0.93], "r": list(heading_to_rot6d(0.6)), "seed": 2}]}
    (tmp_path / "goals.json").write_text(json.dumps(goals))
    scene_obj = str(ds / "scenes" / "scene_000.obj")
    seq_dir = tmp_path / "seq"
    steps.append(("synthesize", main(["synthesize", "--scene", scene_obj,
                                      "--goals", str(tmp_path / "goals.json"),
                                      "--cvae", str(tmp_path / "w.cvae"),
                                      "--route", str(tmp_path / "w.route"),
                                      "--pose", str(tmp_path / "w.pose"),
                                      "--out", str(seq_dir)] + conf)))
    steps.append(("refine", main(["refine", "--scene", scene_obj, "--seq", str(seq_dir),
                                  "--out", str(tmp_path / "seq2")] + conf)))
    steps.append(("baseline-interp", main(["baseline-interp", "--scene", scene_obj,
                                           "--goals", str(tmp_path / "goals.json"),
                                           "--cvae", str(tmp_path / "w.cvae"),
                                           "--steps", "16",
                                           "--out", str(tmp_path / "base")] + conf)))
    report_path = tmp_path / "report.json"
    steps.append(("evaluate", main(["evaluate", "--pred", str(tmp_path / "seq2"),
                                    "--gt", str(seq_dir), "--scene", scene_obj,
                                    "--out", str(report_path)] + conf)))
    steps.append(("export-mesh", main(["export-mesh", "--seq", str(tmp_path / "seq2"),
                                       "--out", str(tmp_path / "meshes"), "--every", "4"] + conf)))
    elapsed = time.monotonic() - t0

    all_zero = all(code == 0 for _, code in steps)
    report = json.loads(report_path.read_text())
    objs = [p for p in (tmp_path / "meshes").iterdir() if p.suffix == ".obj"]
    ok = all_zero and elapsed < 600 and "mpjpe_mm" in report and len(objs) > 0
    assert _report(10, "end-to-end smoke", ok,
                   f"exit codes {[c for _, c in steps]}, {elapsed:.0f}s, "
                   f"report+{len(objs)} meshes emitted")
