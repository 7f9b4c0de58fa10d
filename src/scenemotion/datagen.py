"""Procedural scenes and gait motion standing in for captured training data.

Scenes are a floor rectangle plus axis-aligned furniture boxes. Motions walk
the pelvis in a straight line between two floor points at a fixed cadence and
drive the legs through the designed latent axes, so the alternating stance
schedule is known by construction and is emitted alongside the frames as a
segmentation oracle.

A clip is computed as whole (T,) and (T, 75) arrays: frame times, position on
the walk, gait swing and stance labels. Its frames are checked once, by
``MotionSequence`` for finiteness and by one batched ``rot6d_to_matrix`` for
the global orientations, not frame by frame.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import artefact, body
from .errors import ArtefactError, EmptyDatasetError
from .rotation import heading_to_rot6d, rot6d_to_matrix
from .scene import make_mesh
from .sdf import DEFAULT_NODE_BUDGET, cache_mismatch, load_sdf
from .sequence import MotionSequence

FLOOR_MARGIN = 0.05
MIN_DISPLACEMENT = 0.5  # m between clip endpoints; shorter clips are filtered
DATASET_FILE = "dataset.smwt"  # the clip container inside a dataset directory


@dataclass
class SyntheticSceneSpec:
    floor_extent: float = 6.0            # full side length, floor spans +-extent/2
    boxes: list = field(default_factory=list)  # (center xyz, size xyz) tuples

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
    waypoints: list                       # the walk's start and end: two (x, y) floor points
    step_length: float = 0.55
    cadence: float = 1.8                  # steps per second
    pelvis_height: float = 0.93
    beta: np.ndarray | None = None

    def __post_init__(self):
        try:
            pts = np.asarray(self.waypoints, dtype=np.float64)
        except (TypeError, ValueError):
            pts = None
        if (pts is None or pts.shape != (2, 2) or not np.all(np.isfinite(pts))
                or np.array_equal(pts[0], pts[1])):
            raise ValueError(f"waypoints must be two distinct finite (x, y) points, "
                             f"got {self.waypoints!r}")
        for name in ("step_length", "cadence"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not math.isfinite(self.pelvis_height):
            raise ValueError(f"pelvis_height must be finite, got {self.pelvis_height!r}")


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


def random_scene_spec(seed):
    """A floor 5-7 m across with one to three boxes, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    extent = rng.uniform(5.0, 7.0)
    boxes = []
    for _ in range(rng.integers(1, 4)):
        size = rng.uniform([0.4, 0.4, 0.3], [1.2, 1.2, 0.9])
        lim = extent / 2.0 - size[:2] / 2.0 - FLOOR_MARGIN
        center_xy = rng.uniform(-lim, lim)
        boxes.append((np.array([center_xy[0], center_xy[1], size[2] / 2.0]), size))
    return SyntheticSceneSpec(floor_extent=extent, boxes=boxes)


# -- gait generation -------------------------------------------------------------

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


# (designed hip/ankle/shoulder axis, multiple of the gait swing); the ankles
# counter the hips to keep the feet level
_GAIT_AXES = (("l_hip", 1.0), ("r_hip", -1.0), ("l_ankle", -1.0), ("r_ankle", 1.0),
              ("l_shoulder", -0.35), ("r_shoulder", 0.35))


def gen_motion(scene_spec, motion_spec, template, fps=30):
    """Procedural gait in a straight line from the first waypoint to the second.

    Returns (MotionSequence, stance schedule) where the schedule holds one of
    "left"/"right"/"none" per frame, known from the gait phase by construction.
    """
    if not (math.isfinite(fps) and fps > 0):
        raise ValueError(f"fps must be finite and positive, got {fps!r}")
    pts = np.asarray(motion_spec.waypoints, dtype=np.float64)
    half = scene_spec.floor_extent / 2.0
    if np.abs(pts).max() > half + 1e-9:
        raise ValueError("path leaves the floor extent")

    speed = motion_spec.step_length * motion_spec.cadence
    length = np.linalg.norm(np.diff(pts, axis=0), axis=1)[0]
    walk_time = length / speed
    T = int(round(walk_time * fps)) + 1

    beta = np.zeros(body.SHAPE_DIM) if motion_spec.beta is None else np.asarray(motion_spec.beta)
    amp = np.clip(motion_spec.step_length / (2.0 * leg_length(template)), 0.0, 0.9)
    omega = np.pi * motion_spec.cadence   # full gait cycle spans two steps
    phi0 = np.pi / 2.0                     # start mid left-stance

    t = np.arange(T) / fps
    walk_t = np.minimum(t, walk_time)
    d = pts[1] - pts[0]
    # walk_time * speed may round past the length
    pos = pts[0] + (np.minimum(walk_t * speed, length) / length)[:, None] * d
    heading = np.full(T, np.arctan2(d[1], d[0]))
    walking = t <= walk_time
    swing = amp * _tri_wave(omega * walk_t + phi0)
    ax = body.DESIGNED_AXIS_INDEX
    angles = {ax[(joint, 0)]: np.where(walking, gain * swing, 0.0) for joint, gain in _GAIT_AXES}
    # the left foot is planted while its hip sweeps backward (descending half
    # of the triangle wave)
    mid = np.mod(omega * np.minimum(t + 0.5 / fps, walk_time) + phi0, 2.0 * np.pi)
    stance = np.where(walking, np.where(mid < np.pi, "left", "right"), "none").tolist()

    frames = np.zeros((T, body.PARAM_DIM))
    frames[:, body.T] = np.column_stack([pos, np.full(T, motion_spec.pelvis_height)])
    frames[:, body.R] = heading_to_rot6d(heading - np.pi / 2.0)  # template faces +y
    frames[:, body.BETA] = np.reshape(beta, body.SHAPE_DIM)
    frames[:, body.P] = body.pose_latent_for(template, angles)
    rot6d_to_matrix(frames[:, body.R])  # rejects a degenerate global orientation
    return MotionSequence(frames=frames, fps=fps), stance


# -- dataset building ---------------------------------------------------------------

def _segment_clear_of_boxes(a, b, boxes, margin=0.35):
    """2D clearance test between a path segment and every box footprint: True
    when none of 9 evenly spaced points on the segment lies in a footprint
    grown by ``margin``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    centers = np.array([np.asarray(c, dtype=np.float64)[:2] for c, _ in boxes]).reshape(-1, 2)
    half = np.array([np.asarray(sz, dtype=np.float64)[:2] for _, sz in boxes]).reshape(-1, 2)
    half = half / 2.0 + margin
    p = a + np.linspace(0.0, 1.0, 9)[:, None, None] * (b - a)   # (9, 1, 2)
    inside = np.all((p >= centers - half) & (p <= centers + half), axis=-1)
    return not inside.any()


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
        spec = SyntheticMotionSpec(waypoints=[start, end], step_length=step, cadence=cadence,
                                   pelvis_height=rng.uniform(0.90, 0.96), beta=beta)
        rng.integers(2**31)  # unused; the later clips' draws, so every dataset, follow it
        return spec
    return None


def build_dataset(out_dir, template, n_scenes=8, clips_per_scene=125, k=61, fps=30,
                  master_seed=0, min_displacement=MIN_DISPLACEMENT, log=None):
    """Generate scenes + clips and filter them by endpoint displacement; write
    the scenes as OBJ files and the clips as one ``dataset`` container,
    ``DATASET_FILE``. Returns the container's meta.

    Regeneration with the same master seed is byte-identical. Nothing is
    written when no clip is kept.
    """
    from .scene import save_obj
    clip_seconds = k / fps
    scenes = []
    meshes = []
    clips = []
    frames = []
    rejected = 0
    for s in range(n_scenes):
        scene_seed = master_seed * 1_000_003 + 7919 * s + 17
        spec = random_scene_spec(scene_seed)
        mesh = gen_scene(spec)
        meshes.append(mesh)
        scenes.append({
            "id": s, "file": f"scenes/scene_{s:03d}.obj", "seed": scene_seed,
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
            disp = float(np.linalg.norm(seq.frames[k, body.T] - seq.frames[0, body.T]))
            if disp <= min_displacement:
                rejected += 1
                continue
            clips.append({"id": len(clips), "scene": s, "displacement": disp, "stance": stance})
            frames.append(seq.frames)
            accepted += 1
        if log:
            log(f"scene {s}: {accepted} clips accepted, {attempts - accepted} rejected/filtered")

    if not clips:
        raise EmptyDatasetError(
            f"no clip was kept: {rejected} moved no more than min_displacement="
            f"{min_displacement} m and the rest found no clear path; {DATASET_FILE} "
            f"is not written")
    os.makedirs(os.path.join(out_dir, "scenes"), exist_ok=True)
    for scene, mesh in zip(scenes, meshes):
        save_obj(os.path.join(out_dir, scene["file"]), mesh.vertices, mesh.faces)
    meta = {
        "kind": "dataset",
        "master_seed": master_seed,
        "k": k,
        "fps": fps,
        "min_displacement": min_displacement,
        "rejected_clips": rejected,
        "scenes": scenes,
        "clips": clips,
    }
    artefact.save(os.path.join(out_dir, DATASET_FILE),
                  {"frames": np.reshape(frames, (len(clips), k + 1, body.PARAM_DIM))}, meta)
    return meta


def load_dataset(dataset_dir):
    """The dataset in ``dataset_dir``: its meta (as ``manifest``), scene meshes
    and per-clip frames. A container or scene file that is missing or
    malformed, or frames that do not fit the clip list, raise ArtefactError."""
    from .scene import load_scene
    path = os.path.join(dataset_dir, DATASET_FILE)
    arrays, meta = artefact.load(path, "dataset")
    try:
        k = meta["k"]
        scenes = {rec["id"]: {"mesh": load_scene(os.path.join(dataset_dir, rec["file"])),
                              "seed": rec["seed"]}
                  for rec in meta["scenes"]}
        records = meta["clips"]
        if not records:
            raise ValueError("the dataset lists no clips")
        for rec in records:
            if rec["scene"] not in scenes:
                raise ValueError(f"clip {rec['id']} names unknown scene {rec['scene']!r}")
        frames = arrays["frames"]
        if frames.shape != (len(records), k + 1, body.PARAM_DIM):
            raise ValueError(f"frames are {frames.shape}, expected {len(records)} clips "
                             f"x {k + 1} x {body.PARAM_DIM}")
        clips = [{"id": rec["id"], "scene": rec["scene"], "frames": clip,
                  "stance": rec["stance"], "displacement": rec["displacement"]}
                 for rec, clip in zip(records, frames)]
        return {"manifest": meta, "scenes": scenes, "clips": clips, "k": k, "fps": meta["fps"]}
    except KeyError as e:
        raise ArtefactError(f"{path}: dataset lacks {e}") from None
    except (OSError, TypeError, ValueError) as e:
        raise ArtefactError(f"{path}: {e}") from None


def dataset_scene_fields(dataset, cloud_points=1024, cell=0.05, padding=0.5,
                         node_budget=DEFAULT_NODE_BUDGET, sdf_dir=None, log=None):
    """One SceneField per dataset scene. A cached SDF grid is used when it was
    built from the scene's mesh at ``cell`` and ``padding``; otherwise the grid
    is rebuilt and ``log`` told why."""
    from .field import SceneField
    fields = {}
    for sid, rec in dataset["scenes"].items():
        grid = None
        why = "no cache"
        if sdf_dir:
            cache = os.path.join(sdf_dir, f"scene_{sid:03d}.sdf")
            if os.path.exists(cache):
                grid, header = load_sdf(cache)
                why = cache_mismatch(header, rec["mesh"], cell, padding)
                if why:
                    grid = None
                    why = f"{cache} {why}"
        if grid is None and log:
            log(f"building SDF for scene {sid} ({why})")
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
