"""The four benchmark workloads, built from one seed through the public API.

Each workload class draws its seeded inputs (rooms, goal lists, walks,
probes) in ``inputs(seed)``, which is not timed, and does its set-up in
``__init__(seed, inputs)``, which is timed as ``setup_s`` and calls only into
scenemotion. It runs one operation per ``op(i)`` call and checks an
operation's output with ``check(out)``, which returns a list of problems
(empty when the output is correct). Nothing here raises on a wrong output:
the caller counts a non-empty list as a failed operation.
"""

from __future__ import annotations

import time

import numpy as np

from scenemotion import GoalSpec, RunConfig, SceneField, body, datagen, motion_nets, pipeline
from scenemotion.cvae import CVAETrainer, GoalCVAE
from scenemotion.motion_nets import PoseNet, RouteNet
from scenemotion.refine import RefinementSchedule
from scenemotion.rotation import heading_to_rot6d
from scenemotion.sdf import sample_sdf_batch

CFG = RunConfig()            # reference widths: hidden 256, fc 512, cond 256
K = CFG.k                    # 61 frames per clip
CELL = 0.15                  # SDF cell of every room, m
ROOM_EXTENT = 6.0            # floor side length, m; fixed so grid size is too
CABINET_HEIGHT = 0.9         # first box of every room; pins the grid's z range
PELVIS_HEIGHT = 0.93


def _rng(seed, stream):
    """Independent generator per (seed, purpose)."""
    return np.random.default_rng([seed, stream])


def room_spec(rng, n_boxes):
    """Floor of fixed extent plus ``n_boxes`` boxes in distinct cells of a 3x3 layout.

    The first box is always CABINET_HEIGHT tall and the others are no taller,
    so every room has the same bounds and therefore the same SDF node count;
    the seed moves and resizes the boxes, never the amount of work. One box
    per layout cell keeps boxes apart without rejection sampling, so set-up
    time does not depend on the seed either.
    """
    cell = ROOM_EXTENT / 3.0
    boxes = []
    for n, slot in enumerate(rng.choice(9, size=n_boxes, replace=False)):
        size = rng.uniform([0.4, 0.4, 0.3], [1.2, 1.2, CABINET_HEIGHT])
        if n == 0:
            size[2] = CABINET_HEIGHT
        centre = (np.array([slot % 3, slot // 3]) + 0.5) * cell - ROOM_EXTENT / 2.0
        xy = centre + rng.uniform(-1.0, 1.0, size=2) * (cell - size[:2] - 0.2) / 2.0
        boxes.append((np.array([xy[0], xy[1], size[2] / 2.0]), size))
    return datagen.SyntheticSceneSpec(floor_extent=ROOM_EXTENT, boxes=boxes)


def goal_spec(rng, boxes, n_goals):
    """Goals 1.0-1.8 m apart with clear hops between them, each facing the next hop."""
    half = ROOM_EXTENT / 2.0 - 0.6
    while True:
        pts = [rng.uniform(-half, half, size=2)]
        if not datagen._segment_clear_of_boxes(pts[0], pts[0], boxes, 0.5):
            continue
        while len(pts) < n_goals:
            for _ in range(100):
                ang = rng.uniform(0.0, 2.0 * np.pi)
                nxt = pts[-1] + rng.uniform(1.0, 1.8) * np.array([np.cos(ang), np.sin(ang)])
                if (np.abs(nxt).max() <= half
                        and datagen._segment_clear_of_boxes(pts[-1], nxt, boxes, 0.5)):
                    pts.append(nxt)
                    break
            else:
                break
        if len(pts) == n_goals:
            break
    pts = np.array(pts)
    hops = np.diff(pts, axis=0)
    headings = np.arctan2(hops[:, 1], hops[:, 0])
    headings = np.append(headings, headings[-1])
    return GoalSpec(
        translations=np.column_stack([pts, np.full(n_goals, PELVIS_HEIGHT)]),
        rotations=np.stack([heading_to_rot6d(h - np.pi / 2.0) for h in headings]),
        beta=np.clip(0.3 * rng.standard_normal(body.SHAPE_DIM), -1.0, 1.0),
        seeds=[int(s) for s in rng.integers(0, 2**31, size=n_goals)],
    )


def build_field(spec, cloud_seed):
    return SceneField.build(datagen.gen_scene(spec), cloud_points=CFG.cloud_points,
                            cloud_seed=cloud_seed, cell=CELL)


def models(seed):
    """Untrained CVAE, RouteNet and PoseNet at the reference widths."""
    return (GoalCVAE(_rng(seed, 1), hidden=CFG.hidden, cond_dim=CFG.cond_dim,
                     point_hidden=CFG.point_hidden),
            RouteNet(_rng(seed, 2), hidden=CFG.hidden, fc_width=CFG.fc_width,
                     point_hidden=CFG.point_hidden),
            PoseNet(_rng(seed, 3), hidden=CFG.hidden, fc_width=CFG.fc_width,
                    point_hidden=CFG.point_hidden))


def fingerprint(model):
    """Per-tensor parameter sums; a tensor that Adam updated changes its sum."""
    return np.array([p.value.sum() for p in model.params()])


def all_finite(*arrays):
    return all(np.all(np.isfinite(a)) for a in arrays)


# -- synthesize / plan -------------------------------------------------------------

class Plan:
    """``plan_long_term`` over a cycle of goal lists in one seeded room."""

    name = "plan"
    n_goals = 6
    n_goal_lists = 4
    n_boxes = 3
    schedule = None

    @classmethod
    def inputs(cls, seed):
        """One room and a cycle of goal lists in it."""
        room = room_spec(_rng(seed, 4), cls.n_boxes)
        goal_rng = _rng(seed, 5)
        return room, [goal_spec(goal_rng, room.boxes, cls.n_goals)
                      for _ in range(cls.n_goal_lists)]

    def __init__(self, seed, inputs):
        room, self.specs = inputs
        self.template = body.build_template(CFG.template_seed)
        self.cvae, self.route, self.pose = models(seed)
        self.field = build_field(room, cloud_seed=seed)
        self.frames_per_op = (self.n_goals - 1) * K + 1
        self.items_per_op = self.frames_per_op

    def op(self, i):
        spec = self.specs[i % len(self.specs)]
        result = pipeline.plan_long_term(self.cvae, self.route, self.pose, self.template,
                                         spec, self.field, K, schedule=self.schedule)
        return spec, result

    def check(self, out):
        spec, result = out
        if not len(result.sequence) == len(result.pre_refine) == self.frames_per_op:
            return [f"frame count {len(result.sequence)} != {self.frames_per_op}"]
        problems = []
        for g, goal in enumerate(result.goal_bodies):
            if not np.array_equal(result.pre_refine.frames[g * K], goal.flat()):
                problems.append(f"goal body {g} is not frame {g * K}")
            if not (np.array_equal(goal.t, spec.translations[g])
                    and np.array_equal(goal.r, spec.rotations[g])
                    and np.array_equal(goal.beta, spec.beta)):
                problems.append(f"goal body {g} does not carry its requested goal")
        if len(result.goal_bodies) != len(spec):
            problems.append(f"{len(result.goal_bodies)} goal bodies for {len(spec)} goals")
        reports = [r for r in (result.pre_report, result.post_report) if r is not None]
        if not all_finite(result.sequence.frames, result.pre_refine.frames,
                          [r.total for r in reports]):
            problems.append("non-finite output")
        problems += self.check_refinement(result)
        return problems

    def details(self, out):
        return {}

    def check_refinement(self, result):
        if result.energy_history or result.post_report is not None:
            return ["refinement ran without a schedule"]
        if not np.array_equal(result.sequence.frames, result.pre_refine.frames):
            return ["unrefined sequence differs from the raw concatenation"]
        return []


class Synthesize(Plan):
    """The user path: goals -> clips -> two-stage refinement."""

    name = "synthesize"
    n_goals = 2
    schedule = RefinementSchedule.two_stage(iters=5)

    def check_refinement(self, result):
        done, scheduled = iters_run(result, self.schedule)
        if done != scheduled:
            return [f"refinement ran {done} of {scheduled} scheduled iterations"]
        if result.post_report is None or not np.isfinite(result.post_report.total):
            return ["missing or non-finite post-refinement report"]
        return []

    def details(self, out):
        _, result = out
        done, scheduled = iters_run(result, self.schedule)
        return {"iters_run": done, "iters_scheduled": scheduled,
                "energy_ratio": result.post_report.total / result.pre_report.total}


def iters_run(result, schedule):
    """(iterations run, iterations scheduled) from a plan's energy history.

    A stage that runs all its iterations records one total per iteration plus
    the final one; a stage that aborts (``RefineResult.diagnostic`` set)
    records fewer and is the last stage recorded. An aborted stage counts at
    most ``iters - 1``, so any abort shows as a shortfall.
    """
    done = 0
    for hist, stage in zip(result.energy_history, schedule.stages):
        n = len(hist["totals"])
        done += stage.iters if n == stage.iters + 1 else min(n, stage.iters - 1)
    return done, sum(s.iters for s in schedule.stages)


# -- train ----------------------------------------------------------------------------

class Train:
    """One CVAE step, one RouteNet step and one PoseNet step per op."""

    name = "train"
    n_scenes = 2
    n_clips = 48
    n_boxes = 3

    @classmethod
    def inputs(cls, seed):
        """Per room: its spec, a cloud seed and datagen walks of K + 1 frames."""
        rng = _rng(seed, 6)
        rooms = []
        for _ in range(cls.n_scenes):
            room = room_spec(rng, cls.n_boxes)
            walks = []
            while len(walks) < cls.n_clips // cls.n_scenes:
                walk = datagen._sample_clip_spec(rng, room, (K + 1) / CFG.fps)
                if walk is not None:
                    walks.append(walk)
            rooms.append((room, int(rng.integers(2**31)), walks))
        return rooms

    def __init__(self, seed, inputs):
        self.template = body.build_template(CFG.template_seed)
        self.clips, self.fields, self.clouds = [], {}, {}
        for sid, (room, cloud_seed, walks) in enumerate(inputs):
            self.fields[sid] = build_field(room, cloud_seed=cloud_seed)
            self.clouds[sid] = self.fields[sid].cloud.points
            for walk in walks:
                seq, _ = datagen.gen_motion(room, walk, self.template, fps=CFG.fps)
                self.clips.append({"scene": sid, "frames": seq.frames[:K + 1]})
        self.bodies, self.body_scenes = datagen.dataset_bodies({"clips": self.clips},
                                                               stride=CFG.body_stride)
        self.cvae, self.route, self.pose = models(seed)
        self.trainer = CVAETrainer(self.cvae, self.template, self.fields, w_kl=CFG.w_kl,
                                   w_col=CFG.w_col, w_cont=CFG.w_cont, seed=seed)
        self.batch_rng = _rng(seed, 7)
        self.items_per_op = CFG.cvae_batch + CFG.route_batch + CFG.pose_batch

    def op(self, i):
        rng = self.batch_rng
        body_idx = rng.choice(len(self.bodies), CFG.cvae_batch, replace=False)
        route_clips = [self.clips[j] for j in rng.choice(len(self.clips), CFG.route_batch,
                                                         replace=False)]
        pose_clips = [self.clips[j] for j in rng.choice(len(self.clips), CFG.pose_batch,
                                                        replace=False)]
        models = (self.cvae, self.route, self.pose)
        before = [fingerprint(m) for m in models]
        t0 = time.perf_counter()
        stats = self.trainer.train_step(self.bodies[body_idx],
                                        [self.body_scenes[j] for j in body_idx], lr=CFG.cvae_lr)
        t1 = time.perf_counter()
        route_curve = motion_nets.train_route_net(self.route, route_clips, self.clouds, epochs=1,
                                                  batch_size=CFG.route_batch, lr=CFG.route_lr,
                                                  seed=i)
        t2 = time.perf_counter()
        pose_curve = motion_nets.train_pose_net(self.pose, self.route, pose_clips, self.clouds,
                                                epochs=1, batch_size=CFG.pose_batch,
                                                lr=CFG.pose_lr, seed=i)
        t3 = time.perf_counter()
        after = [fingerprint(m) for m in models]
        return {"losses": [stats["total"], stats["e_col"], stats["e_cont"]] + route_curve
                + pose_curve,
                "changed": [bool(np.all(a != b)) for a, b in zip(before, after)],
                "cvae_step_ms": 1e3 * (t1 - t0), "route_step_ms": 1e3 * (t2 - t1),
                "pose_step_ms": 1e3 * (t3 - t2)}

    def check(self, out):
        problems = []
        if len(out["losses"]) != 5 or not all_finite(out["losses"]):
            problems.append(f"losses not finite: {out['losses']}")
        for name, changed in zip(("cvae", "route", "pose"), out["changed"]):
            if not changed:
                problems.append(f"some {name} parameter tensors did not change")
        return problems

    def details(self, out):
        return {k: out[k] for k in ("cvae_step_ms", "route_step_ms", "pose_step_ms")}


# -- scene ----------------------------------------------------------------------------

class Scene:
    """``SceneField.build`` (cloud, SDF grid, k-d index) over a cycle of rooms."""

    name = "scene"
    n_boxes = 8
    n_rooms = 4
    probe_height = 0.3

    @classmethod
    def inputs(cls, seed):
        """A cycle of rooms, each with a probe point above its open floor."""
        rng = _rng(seed, 8)
        rooms = []
        for _ in range(cls.n_rooms):
            room = room_spec(rng, cls.n_boxes)
            rooms.append((room, cls.open_floor(rng, room.boxes)))
        return rooms

    def __init__(self, seed, inputs):
        self.rooms = [(room, datagen.gen_scene(room), probe) for room, probe in inputs]
        lo, hi = self.rooms[0][1].bounds()
        self.nodes = int(np.prod(np.ceil((hi - lo + 2 * 0.5) / CELL).astype(int) + 1))
        self.items_per_op = self.nodes

    @classmethod
    def open_floor(cls, rng, boxes):
        """A floor point whose nearest surface is the floor, for the height probe."""
        half = ROOM_EXTENT / 2.0 - 0.5
        while True:
            xy = rng.uniform(-half, half, size=2)
            if datagen._segment_clear_of_boxes(xy, xy, boxes, cls.probe_height + 2 * CELL):
                return np.array([xy[0], xy[1], cls.probe_height])

    def op(self, i):
        spec, mesh, probe = self.rooms[i % len(self.rooms)]
        return spec, probe, SceneField.build(mesh, cloud_points=CFG.cloud_points,
                                             cloud_seed=i, cell=CELL)

    def check(self, out):
        spec, probe, field = out
        grid = field.grid
        if grid.values.size != self.nodes:
            return [f"grid has {grid.values.size} nodes, expected {self.nodes}"]
        if not all_finite(grid.values):
            return ["non-finite SDF values"]
        problems = []
        try:
            grid.check_lipschitz()
        except ValueError as e:
            problems.append(f"Lipschitz check: {e}")
        centres = np.array([c for c, _ in spec.boxes])
        inside, _ = sample_sdf_batch(grid, centres)
        if np.any(inside >= 0.0):
            problems.append(f"box centres not inside: {np.round(inside, 3).tolist()}")
        above, _ = sample_sdf_batch(grid, probe[None, :])
        if abs(above[0] - self.probe_height) > CELL:
            problems.append(f"SDF {above[0]:.4f} at {self.probe_height} m above open floor")
        if len(field.cloud.points) != CFG.cloud_points:
            problems.append("wrong cloud size")
        return problems

    def details(self, out):
        return {}


WORKLOADS = {w.name: w for w in (Synthesize, Plan, Train, Scene)}
