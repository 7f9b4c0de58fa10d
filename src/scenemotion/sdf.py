"""Uniform-grid signed distance field with differentiable trilinear sampling.

Grid nodes hold the minimum point-triangle distance to the scene mesh,
signed negative where a majority of three axis-parallel ray-parity tests
report inside. Open meshes therefore read as outside by default.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError

DEFAULT_CELL = 0.05      # m
DEFAULT_PADDING = 0.5    # m
DEFAULT_NODE_BUDGET = 64_000_000

_MAGIC = b"SMSF"
_CACHE_VERSION = 1


@dataclass
class SdfGrid:
    origin: np.ndarray    # (3,) position of node (0,0,0)
    cell: float           # node spacing, m
    values: np.ndarray    # (nx, ny, nz) signed distances, m

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=np.float64).reshape(3)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 3 or min(self.values.shape) < 2:
            raise ValueError(f"grid needs >= 2 nodes per axis, got {self.values.shape}")
        if self.cell <= 0.0:
            raise ValueError(f"cell size must be positive, got {self.cell}")

    @property
    def dims(self):
        return self.values.shape

    @property
    def upper(self):
        return self.origin + (np.array(self.dims) - 1) * self.cell

    def node_positions(self):
        nx, ny, nz = self.dims
        xs = self.origin[0] + np.arange(nx) * self.cell
        ys = self.origin[1] + np.arange(ny) * self.cell
        zs = self.origin[2] + np.arange(nz) * self.cell
        return xs, ys, zs

    def check_lipschitz(self, tol=1e-6):
        """Adjacent-node jumps must respect the distance-field bound."""
        bound = np.sqrt(3.0) * self.cell + tol
        for ax in range(3):
            d = np.abs(np.diff(self.values, axis=ax)).max()
            if d > bound:
                raise ValueError(f"axis {ax}: adjacent node jump {d:.4g} exceeds {bound:.4g}")
        return True


def build_sdf(mesh, cell=DEFAULT_CELL, padding=DEFAULT_PADDING, node_budget=DEFAULT_NODE_BUDGET):
    """Sample the signed distance of ``mesh`` on a padded uniform grid."""
    if cell <= 0.0:
        raise ValueError(f"cell size must be positive, got {cell}")
    lo, hi = mesh.bounds()
    origin = lo - padding
    dims = np.maximum(np.ceil((hi + padding - origin) / cell).astype(int) + 1, 2)
    n_nodes = int(np.prod(dims))
    if n_nodes > node_budget:
        raise ResourceLimitError(f"SDF grid of {n_nodes} nodes exceeds budget {node_budget}")

    xs = origin[0] + np.arange(dims[0]) * cell
    ys = origin[1] + np.arange(dims[1]) * cell
    zs = origin[2] + np.arange(dims[2]) * cell
    gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
    nodes = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)

    values = np.empty(n_nodes)
    chunk = 262_144
    tri = mesh.vertices[mesh.faces]
    for start in range(0, n_nodes, chunk):
        pts = nodes[start:start + chunk]
        dist = unsigned_distance(pts, tri)
        inside = inside_mask(pts, tri)
        values[start:start + len(pts)] = np.where(inside, -dist, dist)
    return SdfGrid(origin=origin, cell=float(cell), values=values.reshape(tuple(dims)))


def unsigned_distance(points, triangles):
    """Min distance from each point to any triangle; (N,) for (N,3) points."""
    points = np.asarray(points, dtype=np.float64)
    best = np.full(len(points), np.inf)
    for a, b, c in triangles:
        d2 = _point_triangle_dist2(points, a, b, c)
        np.minimum(best, d2, out=best)
    return np.sqrt(best)


def _point_triangle_dist2(p, a, b, c):
    """Squared distances from points (N,3) to one triangle (Ericson's regions)."""
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = ap @ ab
    d2 = ap @ ac
    bp = p - b
    d3 = bp @ ab
    d4 = bp @ ac
    cp = p - c
    d5 = cp @ ab
    d6 = cp @ ac

    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    closest = np.empty_like(p)
    done = np.zeros(len(p), dtype=bool)

    def assign(mask, value):
        m = mask & ~done
        if m.any():
            closest[m] = value[m] if value.ndim == 2 else value
            done[m] = True

    assign((d1 <= 0) & (d2 <= 0), np.broadcast_to(a, p.shape))
    assign((d3 >= 0) & (d4 <= d3), np.broadcast_to(b, p.shape))
    with np.errstate(divide="ignore", invalid="ignore"):
        v_ab = np.where(d1 != d3, d1 / (d1 - d3), 0.0)
    assign((vc <= 0) & (d1 >= 0) & (d3 <= 0), a + np.clip(v_ab, 0, 1)[:, None] * ab)
    assign((d6 >= 0) & (d5 <= d6), np.broadcast_to(c, p.shape))
    with np.errstate(divide="ignore", invalid="ignore"):
        w_ac = np.where(d2 != d6, d2 / (d2 - d6), 0.0)
    assign((vb <= 0) & (d2 >= 0) & (d6 <= 0), a + np.clip(w_ac, 0, 1)[:, None] * ac)
    e1 = d4 - d3
    e2 = d5 - d6
    with np.errstate(divide="ignore", invalid="ignore"):
        w_bc = np.where((e1 + e2) != 0, e1 / (e1 + e2), 0.0)
    assign((va <= 0) & (e1 >= 0) & (e2 >= 0), b + np.clip(w_bc, 0, 1)[:, None] * (c - b))
    if not done.all():
        denom = va + vb + vc
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.where(denom != 0, vb / denom, 1.0 / 3.0)
            w = np.where(denom != 0, vc / denom, 1.0 / 3.0)
        face = a + v[:, None] * ab + w[:, None] * ac
        closest[~done] = face[~done]
    diff = p - closest
    return np.einsum("ij,ij->i", diff, diff)


def inside_mask(points, triangles):
    """Majority vote of +x/+y/+z ray-crossing parity tests."""
    points = np.asarray(points, dtype=np.float64)
    votes = np.zeros(len(points), dtype=np.int32)
    for axis in range(3):
        votes += _ray_parity(points, triangles, axis)
    return votes >= 2


def _ray_parity(points, triangles, axis):
    # Queries exactly on a projected edge are resolved by symbolically
    # perturbing the query by (eps^2, eps) in the projection plane, so a
    # shared edge or vertex is claimed by exactly one triangle and grid
    # nodes aligned with the geometry are never double counted.
    u, w = (axis + 1) % 3, (axis + 2) % 3
    crossings = np.zeros(len(points), dtype=np.int64)
    for a, b, c in triangles:
        n = np.cross(b - a, c - a)
        if abs(n[axis]) < 1e-12:
            continue  # ray parallel to the triangle plane
        s = (n @ a - points @ n) / n[axis]
        inside = _projected_inside(points[:, u], points[:, w],
                                   (a[u], a[w]), (b[u], b[w]), (c[u], c[w]))
        crossings += inside & (s > 0)
    return (crossings & 1).astype(np.int32)


def _projected_inside(qu, qw, a2, b2, c2):
    sign = None
    for p1, p2 in ((a2, b2), (b2, c2), (c2, a2)):
        eu, ew = p2[0] - p1[0], p2[1] - p1[1]
        wv = eu * (qw - p1[1]) - ew * (qu - p1[0])
        # tie sign for wv == 0: sign of the edge function at q + (eps^2, eps)
        tie = 1.0 if (eu > 0 or (eu == 0 and ew < 0)) else -1.0
        es = np.where(wv > 0, 1.0, np.where(wv < 0, -1.0, tie))
        if sign is None:
            sign = es
            ok = np.ones(len(qu), dtype=bool)
        else:
            ok &= es == sign
    return ok


# -- sampling ------------------------------------------------------------------

def sample_sdf(grid, point):
    """Trilinear value and analytic gradient at one point (total function)."""
    v, g = sample_sdf_batch(grid, np.asarray(point, dtype=np.float64).reshape(1, 3))
    return float(v[0]), g[0]


def sample_sdf_batch(grid, points):
    """Vectorized :func:`sample_sdf`; out-of-grid points get the clamped
    boundary value plus Euclidean distance to the grid box, with the gradient
    pointing away from the box."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    lo = grid.origin
    hi = grid.upper
    q = np.clip(points, lo, hi)
    delta = points - q
    outside_dist = np.linalg.norm(delta, axis=1)

    local = (q - lo) / grid.cell
    dims = np.array(grid.dims)
    idx = np.minimum(local.astype(np.int64), dims - 2)
    frac = local - idx

    fx, fy, fz = frac[:, 0], frac[:, 1], frac[:, 2]
    # the eight cell corners, read from the flattened grid at offsets of one base index
    flat = grid.values.ravel()
    sj = dims[2]
    si = dims[1] * sj
    base = (idx[:, 0] * dims[1] + idx[:, 1]) * sj + idx[:, 2]
    c000 = flat.take(base)
    c100 = flat.take(base + si)
    c010 = flat.take(base + sj)
    c110 = flat.take(base + (si + sj))
    c001 = flat.take(base + 1)
    c101 = flat.take(base + (si + 1))
    c011 = flat.take(base + (sj + 1))
    c111 = flat.take(base + (si + sj + 1))

    gx, gy, gz = 1.0 - fx, 1.0 - fy, 1.0 - fz
    value = (c000 * gx * gy * gz + c100 * fx * gy * gz + c010 * gx * fy * gz +
             c110 * fx * fy * gz + c001 * gx * gy * fz + c101 * fx * gy * fz +
             c011 * gx * fy * fz + c111 * fx * fy * fz)

    dx = ((c100 - c000) * gy * gz + (c110 - c010) * fy * gz +
          (c101 - c001) * gy * fz + (c111 - c011) * fy * fz) / grid.cell
    dy = ((c010 - c000) * gx * gz + (c110 - c100) * fx * gz +
          (c011 - c001) * gx * fz + (c111 - c101) * fx * fz) / grid.cell
    dz = ((c001 - c000) * gx * gy + (c101 - c100) * fx * gy +
          (c011 - c010) * gx * fy + (c111 - c110) * fx * fy) / grid.cell
    grad = np.stack([dx, dy, dz], axis=1)

    out = outside_dist > 0.0
    if out.any():
        value = value + outside_dist
        with np.errstate(divide="ignore", invalid="ignore"):
            away = np.where(outside_dist[:, None] > 0, delta / np.maximum(outside_dist, 1e-300)[:, None], 0.0)
        outside_axis = delta != 0.0
        grad = np.where(outside_axis, away, grad)
    return value, grad


# -- disk cache ----------------------------------------------------------------

def save_sdf(path, grid):
    """Header JSON + raw little-endian float32 node values."""
    header = {
        "version": _CACHE_VERSION,
        "origin": [float(x) for x in grid.origin],
        "cell": float(grid.cell),
        "dims": [int(d) for d in grid.dims],
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        f.write(np.ascontiguousarray(grid.values, dtype="<f4").tobytes())


def load_sdf(path):
    with open(path, "rb") as f:
        if f.read(4) != _MAGIC:
            raise ValueError(f"{path}: not an SDF cache file")
        hlen, = struct.unpack("<I", f.read(4))
        header = json.loads(f.read(hlen).decode())
        if header.get("version") != _CACHE_VERSION:
            raise ValueError(f"{path}: unsupported SDF cache version")
        dims = header["dims"]
        count = dims[0] * dims[1] * dims[2]
        values = np.frombuffer(f.read(count * 4), dtype="<f4").astype(np.float64)
    return SdfGrid(origin=np.array(header["origin"]), cell=header["cell"],
                   values=values.reshape(dims))
