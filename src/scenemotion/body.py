"""Simplified differentiable parametric body: params -> joints -> skinned mesh.

The template is a procedurally built capsule humanoid (no licensed assets)
with the same parameter interface as a full statistical body model:
translation t (3), 6D global rotation r (6), shape beta (10), body-pose
latent p (32) and hand-pose latent h (24). Pose latents map to per-joint
axis-angle rotations through fixed orthogonalized linear maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import rotation
from ._worker import both

NUM_BODY_JOINTS = 22
NUM_HAND_JOINTS = 2
NUM_JOINTS = NUM_BODY_JOINTS + NUM_HAND_JOINTS
POSE_DIM = 32
HAND_DIM = 24
SHAPE_DIM = 10
# The flat record of one frame: these fields in this order. Only this module
# writes its offsets; the others index a record through these names.
T = slice(0, 3)                               # translation
R = slice(T.stop, T.stop + 6)                 # 6D global orientation
BETA = slice(R.stop, R.stop + SHAPE_DIM)      # shape
P = slice(BETA.stop, BETA.stop + POSE_DIM)    # body-pose latent
H = slice(P.stop, P.stop + HAND_DIM)          # hand-pose latent
PARAM_DIM = H.stop                            # 75
ROUTE = slice(T.start, R.stop)                # t, r: what RouteNet predicts
POSE = slice(P.start, H.stop)                 # p, h: what PoseNet predicts
# The variable layout of refinement and pullback_batch: the record without
# beta, which no optimisation moves; t and r keep their offsets.
VAR_P = slice(R.stop, R.stop + POSE_DIM)
VAR_H = slice(VAR_P.stop, VAR_P.stop + HAND_DIM)
VAR_POSE = slice(VAR_P.start, VAR_H.stop)
VAR_DIM = VAR_H.stop                          # 65

DEFAULT_TEMPLATE_SEED = 20240117
# vertex groups encouraged to contact the scene: the soles, the only part of
# the body that touches the scene in a walk, which is all the data holds
CONTACT_GROUPS = ("left_sole", "right_sole")

JOINT_NAMES = [
    "pelvis", "l_hip", "r_hip", "spine1", "l_knee", "r_knee", "spine2",
    "l_ankle", "r_ankle", "spine3", "l_toe", "r_toe", "neck", "l_collar",
    "r_collar", "head", "l_shoulder", "r_shoulder", "l_elbow", "r_elbow",
    "l_wrist", "r_wrist", "l_hand", "r_hand",
]
PARENTS = [-1, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9, 9, 12, 13, 14, 16, 17, 18, 19, 20, 21]

# latent directions with a fixed meaning; remaining columns are a random
# orthogonal complement. (joint name, axis index) per latent dim.
_DESIGNED_POSE_AXES = [
    ("l_hip", 0), ("r_hip", 0), ("l_knee", 0), ("r_knee", 0),
    ("l_shoulder", 0), ("r_shoulder", 0), ("l_elbow", 1), ("r_elbow", 1),
    ("spine1", 0), ("l_hip", 1), ("r_hip", 1), ("l_ankle", 0), ("r_ankle", 0),
]
POSE_GAIN = 0.5  # unit-norm latent moves any joint by at most 0.5 rad

_FIELDS = {"t": T, "r": R, "beta": BETA, "p": P, "h": H}  # BodyParams fields, in record order


@dataclass(frozen=True)
class BodyParams:
    """One frame of body state: (t, r, beta, p, h)."""

    t: np.ndarray
    r: np.ndarray
    beta: np.ndarray
    p: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        for name, cols in _FIELDS.items():
            arr = np.asarray(getattr(self, name), dtype=np.float64).reshape(cols.stop - cols.start)
            object.__setattr__(self, name, arr)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"BodyParams.{name} contains non-finite values")
        rotation.rot6d_to_matrix(self.r)  # rejects degenerate global orientation

    def flat(self):
        """Serialize to the flat record."""
        return np.concatenate([getattr(self, name) for name in _FIELDS])

    @staticmethod
    def from_flat(vec):
        vec = np.asarray(vec, dtype=np.float64).reshape(PARAM_DIM)
        return BodyParams(**{name: vec[cols] for name, cols in _FIELDS.items()})


@dataclass
class BodyMesh:
    """Posed vertices and joints; faces are shared with the template."""

    vertices: np.ndarray  # (V, 3) meters
    joints: np.ndarray    # (J, 3) meters
    faces: np.ndarray     # (F, 3) int


@dataclass
class BodyTemplate:
    rest_vertices: np.ndarray      # (V, 3)
    faces: np.ndarray              # (F, 3)
    joints: np.ndarray             # (J, 3) rest joint locations, pelvis at origin
    parents: np.ndarray            # (J,) parent indices, -1 for the root
    skin_weights: np.ndarray       # (V, J) rows sum to 1, <= 4 non-zeros each
    shape_basis: np.ndarray        # (V, 3, 10)
    pose_map: np.ndarray           # (63, 32): p -> axis-angle of joints 1..21
    hand_map: np.ndarray           # (6, 24): h -> axis-angle of the 2 hand joints
    vertex_groups: dict = field(default_factory=dict)
    seed: int = DEFAULT_TEMPLATE_SEED

    @property
    def num_vertices(self):
        return self.rest_vertices.shape[0]

    def validate(self):
        V, J = self.num_vertices, self.joints.shape[0]
        if V < 300:
            raise ValueError(f"template too coarse: {V} vertices")
        w = self.skin_weights
        if np.any(w < -1e-12):
            raise ValueError("negative skinning weights")
        if np.abs(w.sum(axis=1) - 1.0).max() > 1e-6:
            raise ValueError("skinning weight rows must sum to 1")
        if (np.count_nonzero(w, axis=1) > 4).any():
            raise ValueError("more than 4 skinning influences on a vertex")
        if self.parents[0] != -1 or np.any(self.parents[1:] >= np.arange(1, J)):
            raise ValueError("skeleton parents must form a tree rooted at the pelvis")
        seen = np.zeros(V, dtype=bool)
        for name, idx in self.vertex_groups.items():
            idx = np.asarray(idx)
            if idx.size == 0:
                raise ValueError(f"vertex group {name!r} is empty")
            if idx.min() < 0 or idx.max() >= V:
                raise ValueError(f"vertex group {name!r} indexes out of range")
            if seen[idx].any():
                raise ValueError(f"vertex group {name!r} overlaps another group")
            seen[idx] = True
        if self.faces.min() < 0 or self.faces.max() >= V:
            raise ValueError("face indices out of range")
        return self

    def contact_vertex_ids(self):
        """Vertex ids encouraged to contact the scene: those of ``CONTACT_GROUPS``."""
        return np.concatenate([self.vertex_groups[g] for g in CONTACT_GROUPS])

    def sole_vertex_ids(self, side):
        return self.vertex_groups["left_sole" if side == "left" else "right_sole"]


# -- procedural template construction ----------------------------------------

_REST_JOINTS = {
    "pelvis": (0.00, 0.00, 0.00),
    "l_hip": (0.09, 0.00, -0.06),
    "r_hip": (-0.09, 0.00, -0.06),
    "spine1": (0.00, 0.00, 0.10),
    "l_knee": (0.09, 0.00, -0.48),
    "r_knee": (-0.09, 0.00, -0.48),
    "spine2": (0.00, 0.00, 0.22),
    "l_ankle": (0.09, 0.00, -0.88),
    "r_ankle": (-0.09, 0.00, -0.88),
    "spine3": (0.00, 0.00, 0.34),
    "l_toe": (0.09, 0.14, -0.93),
    "r_toe": (-0.09, 0.14, -0.93),
    "neck": (0.00, 0.00, 0.50),
    "l_collar": (0.05, 0.00, 0.46),
    "r_collar": (-0.05, 0.00, 0.46),
    "head": (0.00, 0.00, 0.63),
    "l_shoulder": (0.17, 0.00, 0.46),
    "r_shoulder": (-0.17, 0.00, 0.46),
    "l_elbow": (0.43, 0.00, 0.46),
    "r_elbow": (-0.43, 0.00, 0.46),
    "l_wrist": (0.67, 0.00, 0.46),
    "r_wrist": (-0.67, 0.00, 0.46),
    "l_hand": (0.76, 0.00, 0.46),
    "r_hand": (-0.76, 0.00, 0.46),
}

# (proximal joint, distal joint, radius, rings, ring segments)
_BONE_TUBES = [
    ("pelvis", "spine1", 0.13, 2, 8),
    ("spine1", "spine2", 0.13, 2, 8),
    ("spine2", "spine3", 0.13, 2, 8),
    ("spine3", "neck", 0.11, 2, 8),
    ("neck", "head", 0.05, 2, 6),
    ("l_hip", "l_knee", 0.07, 3, 8),
    ("r_hip", "r_knee", 0.07, 3, 8),
    ("l_knee", "l_ankle", 0.05, 3, 8),
    ("r_knee", "r_ankle", 0.05, 3, 8),
    ("l_ankle", "l_toe", 0.035, 2, 8),
    ("r_ankle", "r_toe", 0.035, 2, 8),
    ("l_collar", "l_shoulder", 0.05, 2, 6),
    ("r_collar", "r_shoulder", 0.05, 2, 6),
    ("l_shoulder", "l_elbow", 0.045, 2, 6),
    ("r_shoulder", "r_elbow", 0.045, 2, 6),
    ("l_elbow", "l_wrist", 0.035, 2, 6),
    ("r_elbow", "r_wrist", 0.035, 2, 6),
    ("l_wrist", "l_hand", 0.03, 2, 6),
    ("r_wrist", "r_hand", 0.03, 2, 6),
]

_HEAD_RADIUS = 0.095


def build_template(seed=DEFAULT_TEMPLATE_SEED):
    """Construct the default capsule humanoid deterministically from ``seed``.

    The seed drives only the random parts of the pose/hand latent maps and the
    high-order shape basis; the geometry itself is fixed by the skeleton table.
    """
    jindex = {n: i for i, n in enumerate(JOINT_NAMES)}
    joints = np.array([_REST_JOINTS[n] for n in JOINT_NAMES])
    parents = np.array(PARENTS, dtype=np.int64)

    verts, faces, owners = [], [], []  # owners: (proximal id, distal id, blend)
    groups = {k: [] for k in CONTACT_GROUPS}

    def add_ring(center, u, v, radius, nseg, prox, dist, blend, squash=1.0):
        base = len(verts)
        for s in range(nseg):
            ang = 2.0 * np.pi * s / nseg
            verts.append(center + radius * (np.cos(ang) * u + squash * np.sin(ang) * v))
            owners.append((prox, dist, blend))
        return base

    def bridge(ring_a, ring_b, nseg):
        for s in range(nseg):
            a0, a1 = ring_a + s, ring_a + (s + 1) % nseg
            b0, b1 = ring_b + s, ring_b + (s + 1) % nseg
            faces.append((a0, b0, b1))
            faces.append((a0, b1, a1))

    def cap(ring, nseg, apex_point, prox, dist, blend, flip=False):
        apex = len(verts)
        verts.append(np.asarray(apex_point, dtype=np.float64))
        owners.append((prox, dist, blend))
        for s in range(nseg):
            a0, a1 = ring + s, ring + (s + 1) % nseg
            faces.append((a1, a0, apex) if not flip else (a0, a1, apex))
        return apex

    for prox_name, dist_name, radius, nrings, nseg in _BONE_TUBES:
        pj, dj = jindex[prox_name], jindex[dist_name]
        a, b = joints[pj], joints[dj]
        axis = b - a
        length = np.linalg.norm(axis)
        axis = axis / length
        # build an orthonormal frame around the bone
        ref = np.array([0.0, 1.0, 0.0]) if abs(axis[1]) < 0.9 else np.array([1.0, 0.0, 0.0])
        u = np.cross(axis, ref)
        u /= np.linalg.norm(u)
        v = np.cross(axis, u)
        squash = 0.65 if "ankle" in prox_name else 1.0  # feet are flat-ish
        rings = []
        for ri in range(nrings + 1):
            s = ri / nrings
            c = a + s * length * axis
            blend = np.clip((s - 0.55) / 0.45, 0.0, 1.0) ** 2
            rings.append(add_ring(c, u, v, radius, nseg, pj, dj, blend, squash))
        first = len(verts) - (nrings + 1) * nseg
        for ri in range(nrings):
            bridge(rings[ri], rings[ri + 1], nseg)
        cap(rings[0], nseg, a - axis * radius * 0.6, pj, dj, 0.0, flip=True)
        cap(rings[-1], nseg, b + axis * radius * 0.6, pj, dj, 1.0)

        vs = np.arange(first, len(verts))
        coords = np.array([verts[i] for i in vs])
        if prox_name == "l_ankle":
            groups["left_sole"].extend(vs[coords[:, 2] < joints[jindex["l_toe"]][2] + 0.01])
        elif prox_name == "r_ankle":
            groups["right_sole"].extend(vs[coords[:, 2] < joints[jindex["r_toe"]][2] + 0.01])

    # head blob
    head_center = joints[jindex["head"]] + np.array([0.0, 0.0, 0.05])
    hj = jindex["head"]
    nseg, nlat = 8, 4
    prev_ring = None
    top = bottom = None
    for li in range(nlat + 1):
        phi = np.pi * li / nlat
        z = head_center[2] + _HEAD_RADIUS * np.cos(phi)
        rad = _HEAD_RADIUS * np.sin(phi)
        if li == 0:
            bottom = len(verts)
            verts.append(np.array([head_center[0], head_center[1], z]))
            owners.append((hj, hj, 0.0))
            continue
        if li == nlat:
            top = len(verts)
            verts.append(np.array([head_center[0], head_center[1], z]))
            owners.append((hj, hj, 0.0))
            for s in range(nseg):
                faces.append((prev_ring + s, prev_ring + (s + 1) % nseg, top))
            continue
        ring = add_ring(np.array([head_center[0], head_center[1], z]),
                        np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
                        rad, nseg, hj, hj, 0.0)
        if li == 1:
            for s in range(nseg):
                faces.append((ring + (s + 1) % nseg, ring + s, bottom))
        else:
            bridge(prev_ring, ring, nseg)
        prev_ring = ring

    verts = np.asarray(verts)
    faces = np.asarray(faces, dtype=np.int64)
    V = len(verts)

    weights = np.zeros((V, NUM_JOINTS))
    for i, (pj, dj, blend) in enumerate(owners):
        weights[i, pj] += 1.0 - blend
        weights[i, dj] += blend

    rng = np.random.default_rng(seed)
    shape_basis = _build_shape_basis(verts, rng)
    pose_map = _build_pose_map(rng, jindex)
    hand_map = POSE_GAIN * _orthonormal_rows(rng, 2 * 3, HAND_DIM)

    tpl = BodyTemplate(
        rest_vertices=verts,
        faces=faces,
        joints=joints,
        parents=parents,
        skin_weights=weights,
        shape_basis=shape_basis,
        pose_map=pose_map,
        hand_map=hand_map,
        vertex_groups={k: np.asarray(sorted(v), dtype=np.int64) for k, v in groups.items()},
        seed=seed,
    )
    return tpl.validate()


def _build_shape_basis(verts, rng):
    V = len(verts)
    basis = np.zeros((V, 3, SHAPE_DIM))
    radial = verts.copy()
    radial[:, 2] = 0.0
    torso = 1.0 / (1.0 + np.exp(-12.0 * (verts[:, 2] + 0.05)))
    legs = 1.0 - torso
    basis[:, 2, 0] = 0.08 * verts[:, 2]                  # stature
    basis[:, :2, 1] = 0.10 * radial[:, :2]               # overall girth
    basis[:, :2, 2] = 0.12 * radial[:, :2] * torso[:, None]   # torso girth
    basis[:, 2, 3] = -0.06 * legs                        # leg length
    basis[:, :2, 4] = 0.10 * radial[:, :2] * legs[:, None]    # leg girth
    for k in range(5, SHAPE_DIM):
        freq = rng.uniform(1.0, 3.0, size=3)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=3)
        amp = rng.uniform(0.005, 0.02, size=3)
        for ax in range(3):
            basis[:, ax, k] = amp[ax] * np.sin(freq[ax] * verts[:, (ax + 1) % 3] * 2.0 * np.pi + phase[ax])
    return basis


def _build_pose_map(rng, jindex):
    dim = (NUM_BODY_JOINTS - 1) * 3  # pelvis rotation is owned by r
    cols = []
    for joint_name, axis in _DESIGNED_POSE_AXES:
        col = np.zeros(dim)
        col[(jindex[joint_name] - 1) * 3 + axis] = 1.0
        cols.append(col)
    Q = np.stack(cols, axis=1)
    Q = _extend_orthonormal(Q, POSE_DIM, rng)
    return POSE_GAIN * Q


def _extend_orthonormal(Q, target_cols, rng):
    dim = Q.shape[0]
    cols = [Q[:, i] for i in range(Q.shape[1])]
    while len(cols) < target_cols:
        v = rng.standard_normal(dim)
        for c in cols:
            v -= (c @ v) * c
        n = np.linalg.norm(v)
        if n > 1e-6:
            cols.append(v / n)
    return np.stack(cols, axis=1)


def _orthonormal_rows(rng, rows, cols):
    m = rng.standard_normal((cols, rows))
    q, _ = np.linalg.qr(m)
    return q[:, :rows].T


def pose_latent_for(template, coeffs):
    """Latents p (..., 32) that realize exact designed-axis angles.

    ``coeffs`` maps a designed latent index (order of the documented axis
    table) to an angle in radians, or to an array of per-frame angles; p
    takes the angles' common shape as its leading axes. Exactness holds
    because the designed columns are orthonormal before the gain is applied.
    """
    angles = {idx: np.asarray(angle, dtype=np.float64) for idx, angle in coeffs.items()}
    p = np.zeros(np.broadcast_shapes(*(a.shape for a in angles.values())) + (POSE_DIM,))
    for idx, angle in angles.items():
        p[..., idx] = angle / POSE_GAIN
    return p


DESIGNED_AXIS_INDEX = {name_axis: i for i, name_axis in enumerate(_DESIGNED_POSE_AXES)}


# -- forward kinematics / skinning -------------------------------------------
#
# One kernel poses N frames at once, in the structure of SMPL's batched
# lbs(): Rodrigues and the 6D conversion over all (frame, joint) rows, FK
# and reverse FK once per joint over all frames, and skinning as one
# skin_weights @ (B, J, 12) matmul over per-joint affine maps
# [Rw - I | dw - (Rw - I) J] in blocks of FRAME_BLOCK frames. Both parts of
# the map vanish identically at rest, so the rest template is reproduced
# bit-for-bit (no a + (b - a) rounding). The blocks of skinning and of its
# adjoint (with the adjoint's vertex sum for t and vertex product for the
# global rotation) are split between the calling thread and a worker;
# everything else runs on the calling thread. The pullback stops at t, r, p
# and h: every optimisation holds the shape beta fixed, so nothing asks for
# dL/dbeta.

FRAME_BLOCK = 32  # frames skinned together; bounds the (B, V, 12) transients


def joint_rotations(template, p, h):
    """Per-joint local axis-angle vectors (..., J, 3) of latents p (..., 32), h (..., 24).

    The pelvis row stays zero.
    """
    p = np.asarray(p, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    lead = p.shape[:-1]
    w = np.zeros(lead + (NUM_JOINTS, 3))
    w[..., 1:NUM_BODY_JOINTS, :] = (p @ template.pose_map.T).reshape(lead + (-1, 3))
    w[..., NUM_BODY_JOINTS:, :] = (h @ template.hand_map.T).reshape(lead + (-1, 3))
    return w


def forward_with_cache(template, params):
    """Pose one BodyParams (shape offsets, FK, linear-blend skinning, global
    r|t); a one-frame view of :func:`forward_batch_with_cache`."""
    mesh, cache = forward_batch_with_cache(template, params.flat()[None])
    return BodyMesh(vertices=mesh.vertices[0], joints=mesh.joints[0], faces=mesh.faces), cache


def pullback(cache, g_vertices):
    """One-frame view of :func:`pullback_batch`.

    Args:
        cache: second return of :func:`forward_with_cache`.
        g_vertices: (V, 3) dL/dvertices.

    Returns:
        dict with keys t, r, p, h holding the parameter gradients.
    """
    g = pullback_batch(cache, np.asarray(g_vertices, dtype=np.float64)[None])[0]
    return {"t": g[T], "r": g[R], "p": g[VAR_P], "h": g[VAR_H]}


def forward_batch(template, frames):
    """Pose every flat parameter record in ``frames`` (N, 75).

    Returns a BodyMesh with vertices (N, V, 3) and joints (N, J, 3).
    """
    return _pose(template, frames, keep_cache=False)[0]


def forward_batch_with_cache(template, frames):
    """:func:`forward_batch` plus the cache that :func:`pullback_batch` reads."""
    return _pose(template, frames, keep_cache=True)


def _pose(tpl, frames, keep_cache):
    frames = np.asarray(frames, dtype=np.float64).reshape(-1, PARAM_DIM)
    if not np.all(np.isfinite(frames)):
        raise ValueError("body parameters contain non-finite values")
    N, J, V = len(frames), NUM_JOINTS, tpl.num_vertices
    t, beta = frames[:, T], frames[:, BETA]
    R_glob, glob_cache = rotation.rot6d_to_matrix_with_cache(frames[:, R])
    R_loc, loc_cache = rotation.axis_angle_to_matrix_with_cache(
        joint_rotations(tpl, frames[:, P], frames[:, H]))

    # FK in displacement form: dw[:, j] = posed joint - rest joint
    eye = np.eye(3)
    Rw = np.empty((N, J, 3, 3))
    dw = np.zeros((N, J, 3))
    Rw[:, 0] = R_loc[:, 0]
    for j in range(1, J):
        par = tpl.parents[j]
        Rw[:, j] = Rw[:, par] @ R_loc[:, j]
        dw[:, j] = dw[:, par] + (Rw[:, par] - eye) @ (tpl.joints[j] - tpl.joints[par])
    M = Rw - eye
    affine = np.concatenate([M, (dw - (M @ tpl.joints[:, :, None])[..., 0])[..., None]], axis=-1)

    vertices = np.empty((N, V, 3))
    v_rest = np.empty((N, V, 3)) if keep_cache else None
    v_skin = np.empty((N, V, 3)) if keep_cache else None
    R_glob_T = R_glob.transpose(0, 2, 1)
    basis_T = tpl.shape_basis.reshape(-1, SHAPE_DIM).T

    def skin(b):
        rest = tpl.rest_vertices + (beta[b] @ basis_T).reshape(-1, V, 3)
        blend = _blend(tpl, affine[b])
        skinned = rest + np.einsum("bvik,bvk->bvi", blend[..., :3], rest) + blend[..., 3]
        vertices[b] = skinned @ R_glob_T[b] + t[b, None]
        if keep_cache:
            v_rest[b], v_skin[b] = rest, skinned

    _each_block(N, skin)

    joints = (tpl.joints + dw) @ R_glob_T + t[:, None]
    mesh = BodyMesh(vertices=vertices, joints=joints, faces=tpl.faces)
    if not keep_cache:
        return mesh, None
    return mesh, (tpl, v_rest, v_skin, R_loc, loc_cache, Rw, R_glob, glob_cache)


def _each_block(n, fn):
    """``fn(b)`` for the slice ``b`` of each FRAME_BLOCK block of ``n`` frames.

    With more than one block, the worker (``_worker.both``) takes every other
    block while the calling thread takes the rest; blocks write disjoint rows.
    """
    blocks = [slice(lo, lo + FRAME_BLOCK) for lo in range(0, n, FRAME_BLOCK)]

    def run(share):
        for b in share:
            fn(b)

    if len(blocks) > 1:
        both(partial(run, blocks[0::2]), partial(run, blocks[1::2]))
    else:
        run(blocks)


def _blend(tpl, affine):
    """Per-vertex blended affine maps (B, V, 3, 4) of per-joint maps (B, J, 3, 4)."""
    B = len(affine)
    return (tpl.skin_weights @ affine.reshape(B, NUM_JOINTS, 12)).reshape(B, -1, 3, 4)


def pullback_batch(cache, g_vertices):
    """Reverse-mode map from vertex cotangents to parameter gradients.

    Args:
        cache: second return of :func:`forward_batch_with_cache`.
        g_vertices: (N, V, 3) dL/dvertices.

    Returns:
        (N, VAR_DIM) dL/d(t, r, p, h) in the variable layout.
    """
    tpl, v_rest, v_skin, R_loc, loc_cache, Rw, R_glob, glob_cache = cache
    gv = np.asarray(g_vertices, dtype=np.float64)
    N, J = len(gv), NUM_JOINTS
    out = np.empty((N, VAR_DIM))
    g_glob = np.empty((N, 3, 3))

    # one block at a time: the translation and global-rotation cotangents, and
    # the skinning adjoint's per-joint map cotangents [g_M | g_c]
    g_affine = np.empty((N, J, 3, 4))
    W_T = tpl.skin_weights.T

    def skin_adjoint(b):
        out[b, T] = gv[b].sum(axis=1)
        g_glob[b] = gv[b].transpose(0, 2, 1) @ v_skin[b]
        g_skin = gv[b] @ R_glob[b]
        rest = v_rest[b]
        B, V = rest.shape[:2]
        outer = np.empty((B, V, 3, 4))
        np.einsum("bvi,bvk->bvik", g_skin, rest, out=outer[..., :3])
        outer[..., 3] = g_skin
        g_affine[b] = (W_T @ outer.reshape(B, V, 12)).reshape(B, J, 3, 4)

    _each_block(N, skin_adjoint)
    out[:, R] = rotation.rot6d_matrix_pullback(glob_cache, g_glob)

    # c = dw - M J and M = Rw - I
    g_dw = g_affine[..., 3].copy()
    g_Rw = g_affine[..., :3] - g_dw[..., :, None] * tpl.joints[None, :, None, :]

    # reverse FK: children before parents
    g_Rloc = np.zeros((N, J, 3, 3))
    for j in range(J - 1, 0, -1):
        par = tpl.parents[j]
        g_Rloc[:, j] = Rw[:, par].transpose(0, 2, 1) @ g_Rw[:, j]
        g_Rw[:, par] += (g_Rw[:, j] @ R_loc[:, j].transpose(0, 2, 1)
                         + g_dw[:, j, :, None] * (tpl.joints[j] - tpl.joints[par]))
        g_dw[:, par] += g_dw[:, j]

    g_w = rotation.axis_angle_pullback(loc_cache, g_Rloc)
    out[:, VAR_P] = g_w[:, 1:NUM_BODY_JOINTS].reshape(N, -1) @ tpl.pose_map
    out[:, VAR_H] = g_w[:, NUM_BODY_JOINTS:].reshape(N, -1) @ tpl.hand_map
    return out


_template_cache = {}


def default_template(seed=DEFAULT_TEMPLATE_SEED):
    """Process-wide cached template; construction is deterministic per seed."""
    if seed not in _template_cache:
        _template_cache[seed] = build_template(seed)
    return _template_cache[seed]
