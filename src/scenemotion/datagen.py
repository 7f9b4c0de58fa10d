"""Procedural scenes and gait motion standing in for captured training data.

Scenes are a floor rectangle plus axis-aligned furniture boxes. Motions put
the pelvis on a waypoint path at a fixed cadence and drive the legs through
the designed latent axes, so the alternating stance schedule is known by
construction and is emitted alongside the frames as a segmentation oracle.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import body
from .rotation import heading_to_rot6d
from .scene import make_mesh
from .sdf import DEFAULT_NODE_BUDGET, load_sdf
from .sequence import MotionSequence

FLOOR_MARGIN = 0.05
MIN_DISPLACEMENT = 0.5  # m between clip endpoints; shorter clips are filtered


@dataclass
class SyntheticSceneSpec:
    floor_extent: float = 6.0            # full side length, floor spans +-extent/2
    boxes: list = field(default_factory=list)  # (center xyz, size xyz) tuples
    seed: int = 0

    def __post_init__(self):
        if self.floor_extent <= 0:
            raise ValueError(f"floor extent must be positive, got {self.floor_extent}")
        for center, size in self.boxes:
            center = np.asarray(center, dtype=np.float64)
            size = np.asarray(size, dtype=np.float64)
            if np.any(size <= 0):
                raise ValueError(f"box size must be positive, got {size}")
            if center[2] - size[2] / 2 < -1e-9:
                raise ValueError("boxes must rest on or above the floor")


@dataclass
class SyntheticMotionSpec:
    waypoints: list                       # (x, y) floor points
    step_length: float = 0.55
    cadence: float = 1.8                  # steps per second
    pelvis_height: float = 0.93
    sit_box: tuple | None = None          # (center xyz, size xyz) to sit on
    sit_duration: float = 1.0
    duration: float | None = None         # only used for zero-length paths
    beta: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        if self.cadence <= 0:
            raise ValueError(f"cadence must be positive, got {self.cadence}")
        if self.step_length <= 0:
            raise ValueError(f"step length must be positive, got {self.step_length}")


def box_mesh_arrays(center, size):
    """Vertices/faces of one closed axis-aligned box (12 triangles)."""
    c = np.asarray(center, dtype=np.float64)
    s = np.asarray(size, dtype=np.float64) / 2.0
    corners = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
    verts = c + corners * s
    # outward-wound quads per face of the (x, y, z in {-,+}) corner lattice
    quads = [
        (0, 1, 3, 2),  # -x
        (4, 6, 7, 5),  # +x
        (0, 4, 5, 1),  # -y
        (2, 3, 7, 6),  # +y
        (0, 2, 6, 4),  # -z
        (1, 5, 7, 3),  # +z
    ]
    faces = []
    for a, b, cc, d in quads:
        faces.append((a, b, cc))
        faces.append((a, cc, d))
    return verts, np.asarray(faces, dtype=np.int64)


def gen_scene(spec):
    """Triangulated floor plus furniture boxes; deterministic per spec."""
    e = spec.floor_extent / 2.0
    verts = [(-e, -e, 0.0), (e, -e, 0.0), (e, e, 0.0), (-e, e, 0.0)]
    faces = [(0, 1, 2), (0, 2, 3)]
    vertices = [np.asarray(v, dtype=np.float64) for v in verts]
    faces = list(faces)
    for center, size in spec.boxes:
        bverts, bfaces = box_mesh_arrays(center, size)
        offset = len(vertices)
        vertices.extend(bverts)
        faces.extend((offset + f[0], offset + f[1], offset + f[2]) for f in bfaces)
    return make_mesh(np.asarray(vertices), np.asarray(faces, dtype=np.int64))


def random_scene_spec(seed, extent_range=(5.0, 7.0), box_count_range=(1, 3)):
    rng = np.random.default_rng(seed)
    extent = rng.uniform(*extent_range)
    boxes = []
    for _ in range(rng.integers(box_count_range[0], box_count_range[1] + 1)):
        size = rng.uniform([0.4, 0.4, 0.3], [1.2, 1.2, 0.9])
        lim = extent / 2.0 - size[:2] / 2.0 - FLOOR_MARGIN
        center_xy = rng.uniform(-lim, lim)
        boxes.append((np.array([center_xy[0], center_xy[1], size[2] / 2.0]), size))
    return SyntheticSceneSpec(floor_extent=extent, boxes=boxes, seed=int(seed))


# -- gait generation -------------------------------------------------------------

def _polyline(waypoints):
    pts = np.asarray(waypoints, dtype=np.float64).reshape(-1, 2)
    if len(pts) == 1:
        return pts, np.array([0.0])
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    return pts, np.concatenate([[0.0], np.cumsum(seg)])


def _point_on_path(pts, cum, s):
    if cum[-1] == 0.0:
        return pts[0], 0.0
    s = min(max(s, 0.0), cum[-1])
    i = int(np.searchsorted(cum, s, side="right")) - 1
    i = min(i, len(pts) - 2)
    seg = cum[i + 1] - cum[i]
    alpha = 0.0 if seg == 0.0 else (s - cum[i]) / seg
    pos = pts[i] + alpha * (pts[i + 1] - pts[i])
    d = pts[i + 1] - pts[i]
    heading = np.arctan2(d[1], d[0])
    return pos, heading


def leg_length(template):
    j = {n: template.joints[i] for i, n in enumerate(body.JOINT_NAMES)}
    return (np.linalg.norm(j["l_knee"] - j["l_hip"])
            + np.linalg.norm(j["l_ankle"] - j["l_knee"]))


def _tri_wave(phi):
    """Periodic triangle wave: 1 at phi=0, linear to -1 at pi, back to 1 at 2pi.

    The hip follows this instead of a sinusoid: a linear sweep through the
    stance half-cycle keeps the planted foot's world velocity near zero the
    whole time (a sine only manages that at mid-stance), which is what makes
    the emitted stance schedule a reliable segmentation oracle.
    """
    m = np.mod(phi, 2.0 * np.pi)
    return np.where(m < np.pi, 1.0 - 2.0 * m / np.pi, -3.0 + 2.0 * m / np.pi)


def gen_motion(scene_spec, motion_spec, template, fps=30):
    """Procedural gait along the waypoint path.

    Returns (MotionSequence, stance schedule) where the schedule holds one of
    "left"/"right"/"none" per frame, known from the gait phase by construction.
    """
    pts, cum = _polyline(motion_spec.waypoints)
    half = scene_spec.floor_extent / 2.0
    if np.abs(pts).max() > half + 1e-9:
        raise ValueError("path leaves the floor extent")

    speed = motion_spec.step_length * motion_spec.cadence
    length = cum[-1]
    if length > 0.0:
        walk_time = length / speed
    else:
        walk_time = motion_spec.duration if motion_spec.duration else 1.0
    sit = motion_spec.sit_box is not None
    total_time = walk_time + (motion_spec.sit_duration if sit else 0.0)
    T = int(round(total_time * fps)) + 1

    beta = np.zeros(body.SHAPE_DIM) if motion_spec.beta is None else np.asarray(motion_spec.beta)
    amp = np.clip(motion_spec.step_length / (2.0 * leg_length(template)), 0.0, 0.9)
    omega = np.pi * motion_spec.cadence   # full gait cycle spans two steps
    phi0 = np.pi / 2.0                     # start mid left-stance

    ax = body.DESIGNED_AXIS_INDEX
    frames = np.zeros((T, body.PARAM_DIM))
    stance = []
    for i in range(T):
        ti = i / fps
        walking = length > 0.0 and ti <= walk_time
        s = min(ti, walk_time) * speed
        pos, heading = _point_on_path(pts, cum, s)
        phase = omega * min(ti, walk_time) + phi0

        coeffs = {}
        if walking:
            swing = amp * float(_tri_wave(phase))
            coeffs[ax[("l_hip", 0)]] = swing
            coeffs[ax[("r_hip", 0)]] = -swing
            coeffs[ax[("l_ankle", 0)]] = -swing   # keep feet level
            coeffs[ax[("r_ankle", 0)]] = swing
            coeffs[ax[("l_shoulder", 0)]] = -0.35 * swing
            coeffs[ax[("r_shoulder", 0)]] = 0.35 * swing
            # left foot is planted while its hip sweeps backward (descending
            # half of the triangle wave)
            mid = np.mod(omega * min(ti + 0.5 / fps, walk_time) + phi0, 2.0 * np.pi)
            stance.append("left" if mid < np.pi else "right")
        else:
            stance.append("none")

        pelvis_z = motion_spec.pelvis_height
        if sit and ti > walk_time:
            alpha = np.clip((ti - walk_time) / motion_spec.sit_duration, 0.0, 1.0)
            alpha = alpha * alpha * (3.0 - 2.0 * alpha)
            center, size = motion_spec.sit_box
            seat_z = center[2] + size[2] / 2.0 + 0.16
            pelvis_z = (1.0 - alpha) * motion_spec.pelvis_height + alpha * seat_z
            bend = alpha * 0.45 * np.pi
            coeffs[ax[("l_hip", 0)]] = bend
            coeffs[ax[("r_hip", 0)]] = bend
            coeffs[ax[("l_knee", 0)]] = -bend
            coeffs[ax[("r_knee", 0)]] = -bend

        p = body.pose_latent_for(template, coeffs)
        params = body.BodyParams(
            t=np.array([pos[0], pos[1], pelvis_z]),
            r=heading_to_rot6d(heading - np.pi / 2.0),  # template faces +y
            beta=beta, p=p, h=np.zeros(body.HAND_DIM),
        )
        frames[i] = params.flat()
    return MotionSequence(frames=frames, fps=fps), stance


# -- dataset building ---------------------------------------------------------------

def _segment_clear_of_boxes(a, b, boxes, margin=0.35):
    """2D clearance test between a path segment and every box footprint."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    for center, size in boxes:
        half = np.asarray(size[:2]) / 2.0 + margin
        lo = np.asarray(center[:2]) - half
        hi = np.asarray(center[:2]) + half
        for alpha in np.linspace(0.0, 1.0, 9):
            p = a + alpha * (b - a)
            if np.all(p >= lo) and np.all(p <= hi):
                return False
    return True


def _sample_clip_spec(rng, scene_spec, clip_seconds):
    """Draw one walking path of the right duration inside the scene."""
    half = scene_spec.floor_extent / 2.0 - 0.4
    for _ in range(64):
        step = rng.uniform(0.45, 0.62)
        cadence = rng.uniform(1.6, 2.4)
        speed = step * cadence
        length = speed * clip_seconds
        start = rng.uniform(-half, half, size=2)
        heading = rng.uniform(0.0, 2.0 * np.pi)
        dvec = np.array([np.cos(heading), np.sin(heading)])
        end = start + dvec * length
        if np.abs(end).max() > half:
            continue
        if not _segment_clear_of_boxes(start, end, scene_spec.boxes):
            continue
        beta = np.clip(rng.standard_normal(body.SHAPE_DIM) * 0.3, -1.0, 1.0)
        return SyntheticMotionSpec(waypoints=[start, end], step_length=step,
                                   cadence=cadence,
                                   pelvis_height=rng.uniform(0.90, 0.96),
                                   beta=beta, seed=int(rng.integers(2**31)))
    return None


def build_dataset(out_dir, template, n_scenes=8, clips_per_scene=125, k=61, fps=30,
                  master_seed=0, min_displacement=MIN_DISPLACEMENT, log=None):
    """Generate scenes + clips, filter by endpoint displacement, write manifest.

    Regeneration with the same master seed is byte-identical.
    """
    os.makedirs(os.path.join(out_dir, "scenes"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "clips"), exist_ok=True)
    clip_seconds = k / fps
    scenes = []
    clips = []
    rejected = 0
    clip_id = 0
    for s in range(n_scenes):
        scene_seed = master_seed * 1_000_003 + 7919 * s + 17
        spec = random_scene_spec(scene_seed)
        mesh = gen_scene(spec)
        scene_file = f"scenes/scene_{s:03d}.obj"
        from .scene import save_obj
        save_obj(os.path.join(out_dir, scene_file), mesh.vertices, mesh.faces)
        scenes.append({
            "id": s, "file": scene_file, "seed": scene_seed,
            "floor_extent": float(spec.floor_extent),
            "boxes": [[list(map(float, c)), list(map(float, sz))] for c, sz in spec.boxes],
        })
        rng = np.random.default_rng(scene_seed + 1)
        accepted = 0
        attempts = 0
        while accepted < clips_per_scene and attempts < clips_per_scene * 40:
            attempts += 1
            mspec = _sample_clip_spec(rng, spec, clip_seconds)
            if mspec is None:
                continue
            seq, stance = gen_motion(spec, mspec, template, fps=fps)
            if len(seq) != k + 1:
                # duration rounding can land off by one frame; trim or skip
                if len(seq) > k + 1:
                    seq = MotionSequence(frames=seq.frames[:k + 1], fps=fps)
                    stance = stance[:k + 1]
                else:
                    continue
            disp = float(np.linalg.norm(seq.frames[k, :3] - seq.frames[0, :3]))
            if disp <= min_displacement:
                rejected += 1
                continue
            clip_file = f"clips/clip_{clip_id:05d}.bin"
            with open(os.path.join(out_dir, clip_file), "wb") as f:
                f.write(np.ascontiguousarray(seq.frames, dtype="<f8").tobytes())
            stance_file = f"clips/clip_{clip_id:05d}.stance.json"
            with open(os.path.join(out_dir, stance_file), "w") as f:
                json.dump(stance, f)
            clips.append({"id": clip_id, "scene": s, "file": clip_file,
                          "stance_file": stance_file, "displacement": disp})
            clip_id += 1
            accepted += 1
        if log:
            log(f"scene {s}: {accepted} clips accepted, {attempts - accepted} rejected/filtered")

    manifest = {
        "version": 1,
        "master_seed": master_seed,
        "k": k,
        "fps": fps,
        "min_displacement": min_displacement,
        "rejected_clips": rejected,
        "scenes": scenes,
        "clips": clips,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    return manifest


def load_dataset(dataset_dir):
    """Manifest + in-memory clip frames and scene meshes."""
    from .scene import load_scene
    with open(os.path.join(dataset_dir, "manifest.json")) as f:
        manifest = json.load(f)
    k = manifest["k"]
    scenes = {}
    for rec in manifest["scenes"]:
        scenes[rec["id"]] = {
            "mesh": load_scene(os.path.join(dataset_dir, rec["file"])),
            "seed": rec["seed"],
            "record": rec,
        }
    clips = []
    for rec in manifest["clips"]:
        frames = np.fromfile(os.path.join(dataset_dir, rec["file"]), dtype="<f8")
        frames = frames.reshape(k + 1, body.PARAM_DIM).astype(np.float64)
        stance = None
        if rec.get("stance_file"):
            with open(os.path.join(dataset_dir, rec["stance_file"])) as f:
                stance = json.load(f)
        clips.append({"id": rec["id"], "scene": rec["scene"], "frames": frames,
                      "stance": stance, "displacement": rec["displacement"]})
    return {"manifest": manifest, "scenes": scenes, "clips": clips,
            "k": k, "fps": manifest["fps"]}


def dataset_scene_fields(dataset, cloud_points=1024, cell=0.05, padding=0.5,
                         node_budget=DEFAULT_NODE_BUDGET, sdf_dir=None, log=None):
    """One SceneField per dataset scene, using cached SDF grids when present."""
    from .field import SceneField
    fields = {}
    for sid, rec in dataset["scenes"].items():
        grid = None
        if sdf_dir:
            cache = os.path.join(sdf_dir, f"scene_{sid:03d}.sdf")
            if os.path.exists(cache):
                grid = load_sdf(cache)
        if grid is None and log:
            log(f"building SDF for scene {sid}")
        fields[sid] = SceneField.build(rec["mesh"], cloud_points=cloud_points,
                                       cloud_seed=rec["seed"], cell=cell,
                                       padding=padding, grid=grid, node_budget=node_budget)
    return fields


def dataset_clouds(dataset, cloud_points=1024):
    """scene_id -> sampled cloud points (no SDF), for motion-net training."""
    from .scene import sample_point_cloud
    return {sid: sample_point_cloud(rec["mesh"], cloud_points, seed=rec["seed"]).points
            for sid, rec in dataset["scenes"].items()}


def dataset_bodies(dataset, stride=10):
    """Static body records (flat 75 floats) sampled every ``stride`` frames."""
    vecs, scene_ids = [], []
    for clip in dataset["clips"]:
        for i in range(0, len(clip["frames"]), stride):
            vecs.append(clip["frames"][i])
            scene_ids.append(clip["scene"])
    return np.asarray(vecs), scene_ids
