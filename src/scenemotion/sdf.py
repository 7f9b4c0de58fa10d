"""Uniform-grid signed distance field with differentiable trilinear sampling.

Grid nodes hold the minimum point-triangle distance to the scene mesh,
signed negative where a majority of three axis-parallel ray-parity tests
report inside. Open meshes therefore read as outside by default.

The build is exact, node for node, and avoids most node-triangle pairs:

- Distance. The nodes are split into bricks of ``BRICK``^3. For a brick with
  centre ``b`` and half-diagonal ``rho``, every node ``p`` lies within ``rho``
  of ``b``, so ``d(p, t) >= d(b, t) - rho`` and ``min_t d(p, t) <= min_t
  d(b, t) + rho``. A triangle with ``d(b, t) - rho`` above that bound cannot
  be the nearest to any node of the brick and is skipped there. ``rho`` is
  inflated slightly so rounding never drops the nearest triangle. The kept
  pairs run through the same per-point arithmetic, and the minimum does not
  depend on which other triangles took part.
- Sign. Along a ray parallel to an axis, whether a node's projection falls
  inside a triangle depends only on the node's column, not on its depth. The
  projected-inside test runs once per column and triangle, and the crossing
  depth only on the nodes of the columns it passes.
- Kernel. ``_point_triangle_dist2`` measures a point set against one
  triangle, or against a tile of nt triangles in one call, through
  Ericson's seven Voronoi regions. Each elementwise step runs one coordinate
  column against a triangle's scalar, broadcast over (nt, 1) in a tile, into
  one reused (nt, N, 3) buffer: numpy loops over a column several times
  faster than over rows broadcast against a (3,) vector. Two operations fix
  the bits, and stay as they are: the six dot products are stacked
  ``(nt, N, 3) @ (nt, 3, 1)`` matmuls, one BLAS gemv per triangle on
  row-major offsets, whose result for a row depends neither on N, nt nor
  the row's position; and the squared norm is ``einsum`` over the rows. An
  elementwise sum of products rounds differently from either. Every other
  step is one IEEE operation per element, so each row of a tile has the bits
  of its one-triangle call, and the columns the bits the rows gave.
- Tiles. The culling pass measures the brick centres, and the sign pass
  tests the columns, against tiles of triangles of at most ``_TILE_PAIRS``
  pairs per call. The node pass calls the kernel once per triangle: its
  triangles keep different brick sets.

Both passes hold at most ``_CHUNK_NODES`` node coordinates at a time. A
grid holds finite values only, and sampling takes finite points only: either
breach raises.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import artefact
from .errors import ArtefactError, NumericError, ResourceLimitError

DEFAULT_CELL = 0.05      # m
DEFAULT_PADDING = 0.5    # m
DEFAULT_NODE_BUDGET = 64_000_000
BRICK = 4                # nodes per brick edge in the distance pass

_CHUNK_NODES = 262_144   # node coordinates held at once
_PAIR_BUDGET = 1 << 22   # brick-triangle distances held at once
_TILE_PAIRS = 1 << 15    # point-triangle pairs per call of a culling or sign kernel


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
        bad = self.values.size - np.count_nonzero(np.isfinite(self.values))
        if bad:
            raise ValueError(f"{bad} of {self.values.size} grid node values are not finite")
        # One flag per node: entry (i, j, k) below the last layer on every axis
        # says whether cell (i, j, k) has a negative corner; the last layer
        # stands for points on or past the far faces and is always set.
        neg = self.values < 0.0
        cells = neg[:-1] | neg[1:]
        cells = cells[:, :-1] | cells[:, 1:]
        self.negative_cells = np.ones(self.dims, dtype=bool)
        self.negative_cells[:-1, :-1, :-1] = cells[:, :, :-1] | cells[:, :, 1:]

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

    def may_be_negative(self, points):
        """Mask over ``points`` (N, 3): False where :func:`sample_sdf_batch`
        certainly reads >= 0 there. A non-finite point raises
        :class:`NumericError`, as it does in the sampler.

        A point whose floored cell coordinates stay below ``dims - 1`` on
        every axis is in the sampler's cell with fractions in [0, 1), so its
        value is a combination with non-negative weights of that cell's
        corners, plus a non-negative distance to the grid box; without a
        negative corner it cannot be negative. Points whose clamped
        coordinates reach a far face (where the sampler's fraction can round
        past 1) read the always-set last layer.
        """
        points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        _, local = _cell_coords(self, points)
        i = _floor_cells(local, np.array(self.dims) - 1)
        _, ny, nz = self.dims
        return self.negative_cells.ravel().take((i[:, 0] * ny + i[:, 1]) * nz + i[:, 2])

    def check_lipschitz(self):
        """Adjacent-node jumps must respect the distance-field bound."""
        bound = np.sqrt(3.0) * self.cell + 1e-6
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

    axes = [origin[a] + np.arange(dims[a] + BRICK - 1) * cell for a in range(3)]
    tri = mesh.vertices[mesh.faces]
    values = unsigned_distance(axes, tuple(dims), tri)
    np.negative(values, out=values, where=inside_mask([ax[:n] for ax, n in zip(axes, dims)], tri))
    return SdfGrid(origin=origin, cell=float(cell), values=values)


def unsigned_distance(axes, dims, triangles):
    """Min distance from every grid node to any triangle, as a ``dims`` array.

    ``axes`` are the node coordinates per axis, running at least ``BRICK - 1``
    nodes past ``dims`` so the bricks at the far faces are whole; the extra
    nodes are evaluated and dropped.
    """
    if not len(triangles):
        return np.full(dims, np.inf)
    nb = [-(-n // BRICK) for n in dims]
    brick_axes = [ax[:k * BRICK].reshape(k, BRICK) for ax, k in zip(axes, nb)]
    padded = np.empty([k * BRICK for k in nb])
    bricks = padded.reshape(nb[0], BRICK, nb[1], BRICK, nb[2], BRICK)
    rho = 0.5 * np.sqrt(3.0) * (brick_axes[0][0, -1] - brick_axes[0][0, 0])
    scale = max(np.abs(triangles).max(), *(np.abs(b).max() for b in brick_axes))
    reach = 2.0 * rho * (1.0 + 1e-6) + 1e-12 * scale
    n_bricks = int(np.prod(nb))
    per_chunk = max(1, min(_CHUNK_NODES // BRICK**3, _PAIR_BUDGET // len(triangles)))
    for start in range(0, n_bricks, per_chunk):
        ids = np.unravel_index(np.arange(start, min(start + per_chunk, n_bricks)), nb)
        coords = [ax[i] for ax, i in zip(brick_axes, ids)]      # (m, BRICK) per axis
        centres = np.stack([0.5 * (c[:, 0] + c[:, -1]) for c in coords], axis=1)
        near = np.empty((len(triangles), len(centres)))
        tile = max(1, _TILE_PAIRS // len(centres))
        for t in range(0, len(triangles), tile):
            near[t:t + tile] = _point_triangle_dist2(centres, *triangles[t:t + tile].transpose(1, 0, 2))
        np.sqrt(near, out=near)
        candidate = near <= near.min(axis=0) + reach                # (faces, m)
        m = len(centres)
        nodes = np.empty((m, BRICK, BRICK, BRICK, 3))
        nodes[..., 0] = coords[0][:, :, None, None]
        nodes[..., 1] = coords[1][:, None, :, None]
        nodes[..., 2] = coords[2][:, None, None, :]
        nodes = nodes.reshape(m, BRICK**3, 3)
        best = np.full((m, BRICK**3), np.inf)
        for t in np.flatnonzero(candidate.any(axis=1)):
            sel = np.flatnonzero(candidate[t])
            d2 = _point_triangle_dist2(nodes[sel].reshape(-1, 3), *triangles[t])
            best[sel] = np.minimum(best[sel], d2.reshape(len(sel), -1))
        bricks[ids[0], :, ids[1], :, ids[2], :] = np.sqrt(best).reshape(m, BRICK, BRICK, BRICK)
    return np.ascontiguousarray(padded[:dims[0], :dims[1], :dims[2]])


def _point_triangle_dist2(p, a, b, c):
    """Squared distances from points ``p`` (m, 3) to one triangle, with
    ``a``, ``b``, ``c`` of shape (3,), as (m,); or to a tile of nt triangles,
    each vertex array of shape (nt, 3), as (nt, m). Ericson's regions, column
    by column; the module docstring says which operations fix the bits.

    A triangle whose first two vertices coincide is measured as (a, c, a):
    the regions take a repeated c, but a repeated b would give every point
    its distance to a."""
    one = np.ndim(a) == 1
    a, b, c = (np.reshape(v, (-1, 3)) for v in (a, b, c))
    same = (a == b).all(axis=1, keepdims=True)
    if same.any():
        b, c = np.where(same, c, b), np.where(same, a, c)
    ab = b - a
    ac = c - a
    nt, n = len(a), len(p)
    off = np.empty((nt, n, 3))    # p minus a vertex; then the closest points; then p minus those
    rows = off.reshape(-1, 3)     # row t * n + i is point i against triangle t

    def dots(v):
        for k in range(3):
            np.subtract(p[:, k], v[:, k, None], out=off[:, :, k])
        return (off @ ab[:, :, None]).ravel(), (off @ ac[:, :, None]).ravel()

    d1, d2 = dots(a)
    d3, d4 = dots(b)
    d5, d6 = dots(c)

    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    # each pair takes the first Voronoi region that claims it; a region's
    # closest point is computed only on the pairs it takes
    todo = np.ones(nt * n, dtype=bool)

    def take(mask):
        m = np.flatnonzero(mask & todo)
        todo[m] = False
        return m

    def put(m, origin, *steps):
        """closest[m] = origin + t0 * e0 + t1 * e1 ..., column by column, summed
        left to right as the row form summed it; a lone triangle's vertex and
        edge coordinates are scalars, a tile's are gathered per pair."""
        tri = 0 if nt == 1 else m // n
        for k in range(3):
            col = origin[tri, k]
            for t, e in steps:
                col = col + t * e[tri, k]
            rows[m, k] = col

    put(take((d1 <= 0) & (d2 <= 0)), a)
    put(take((d3 >= 0) & (d4 <= d3)), b)
    with np.errstate(divide="ignore", invalid="ignore"):
        m = take((vc <= 0) & (d1 >= 0) & (d3 <= 0))
        x, y = d1[m], d3[m]
        put(m, a, (np.clip(np.where(x != y, x / (x - y), 0.0), 0, 1), ab))
        put(take((d6 >= 0) & (d5 <= d6)), c)
        m = take((vb <= 0) & (d2 >= 0) & (d6 <= 0))
        x, y = d2[m], d6[m]
        put(m, a, (np.clip(np.where(x != y, x / (x - y), 0.0), 0, 1), ac))
        e1 = d4 - d3
        e2 = d5 - d6
        m = take((va <= 0) & (e1 >= 0) & (e2 >= 0))
        x, y = e1[m], e2[m]
        put(m, b, (np.clip(np.where((x + y) != 0, x / (x + y), 0.0), 0, 1), c - b))
        m = np.flatnonzero(todo)
        denom = va[m] + vb[m] + vc[m]
        v = np.where(denom != 0, vb[m] / denom, 1.0 / 3.0)
        w = np.where(denom != 0, vc[m] / denom, 1.0 / 3.0)
        put(m, a, (v, ab), (w, ac))
    np.subtract(p, off, out=off)
    dist2 = np.einsum("ij,ij->i", rows, rows)
    return dist2 if one else dist2.reshape(nt, n)


def inside_mask(axes, triangles):
    """Majority vote of +x/+y/+z ray-crossing parity tests over the grid
    whose node coordinates per axis are ``axes``."""
    votes = np.zeros(tuple(len(ax) for ax in axes), dtype=np.int8)
    normals = np.cross(triangles[:, 1] - triangles[:, 0], triangles[:, 2] - triangles[:, 0])
    for axis in range(3):
        votes += _ray_parity(axes, triangles, normals, axis)
    return votes >= 2


def _ray_parity(axes, triangles, normals, axis):
    # Queries exactly on a projected edge are resolved by symbolically
    # perturbing the query by (eps^2, eps) in the projection plane, so a
    # shared edge or vertex is claimed by exactly one triangle and grid
    # nodes aligned with the geometry are never double counted.
    u, w = (axis + 1) % 3, (axis + 2) % 3
    qu, qw = (q.ravel() for q in np.meshgrid(axes[u], axes[w], indexing="ij"))
    depth = axes[axis]
    parity = np.zeros((len(qu), len(depth)), dtype=bool)   # one row per column
    step = max(1, _CHUNK_NODES // len(depth))
    crossed = np.flatnonzero(~(np.abs(normals[:, axis]) < 1e-12))  # rays not parallel to the plane
    tile = max(1, _TILE_PAIRS // len(qu))
    for start in range(0, len(crossed), tile):
        ids = crossed[start:start + tile]
        a2, b2, c2 = ((v[:, u], v[:, w]) for v in triangles[ids].transpose(1, 0, 2))
        for t, inside in zip(ids, _projected_inside(qu, qw, a2, b2, c2)):
            a, n = triangles[t, 0], normals[t]
            cols = np.flatnonzero(inside)
            for lo in range(0, len(cols), step):
                sel = cols[lo:lo + step]
                pts = np.empty((len(sel), len(depth), 3))
                pts[..., u] = qu[sel, None]
                pts[..., w] = qw[sel, None]
                pts[..., axis] = depth
                s = (n @ a - pts.reshape(-1, 3) @ n) / n[axis]
                parity[sel] ^= (s > 0).reshape(len(sel), -1)
    shape = (len(axes[u]), len(axes[w]), len(depth))
    return parity.reshape(shape).transpose(np.argsort((u, w, axis)))


def _projected_inside(qu, qw, a2, b2, c2):
    """Whether the columns (qu, qw) fall inside a triangle projected to the
    (u, w) plane, with vertices ``a2``, ``b2``, ``c2`` given as (u, w) pairs:
    of scalars for one triangle, as (ncols,), or of (nt,) arrays for a tile
    of triangles, as (nt, ncols)."""
    side = []
    for p1, p2 in ((a2, b2), (b2, c2), (c2, a2)):
        p1u, p1w, p2u, p2w = (np.asarray(x)[..., None] for x in (*p1, *p2))
        eu, ew = p2u - p1u, p2w - p1w
        wv = eu * (qw - p1w) - ew * (qu - p1u)
        # wv == 0 takes the side of the edge function at q + (eps^2, eps)
        tie = (eu > 0) | ((eu == 0) & (ew < 0))
        side.append((wv > 0) | (tie & ~(wv < 0)))
    return (side[0] == side[1]) & (side[1] == side[2])


# -- sampling ------------------------------------------------------------------

def _cell_coords(grid, points):
    """Points (N, 3) clamped to the grid box, and their coordinates in cells
    from the origin, ``(q - origin) / cell``. Each axis runs as one column
    against scalar bounds, which numpy loops over far faster than a
    broadcast (3,) bound. A non-finite point has no cell: NumericError."""
    finite = np.isfinite(points)
    if not finite.all():
        row = int(np.flatnonzero(~finite.all(axis=1))[0])
        raise NumericError(f"sample point {row} is not finite: {points[row].tolist()}")
    lo, hi = grid.origin, grid.upper
    q = np.empty_like(points)
    local = np.empty_like(points)
    for a in range(3):
        np.clip(points[:, a], lo[a], hi[a], out=q[:, a])
        np.subtract(q[:, a], lo[a], out=local[:, a])
    local /= grid.cell
    return q, local


def _floor_cells(local, top):
    """Non-negative cell coordinates (N, 3) floored, capped at ``top`` per axis."""
    idx = local.astype(np.int64)
    for a in range(3):
        np.minimum(idx[:, a], top[a], out=idx[:, a])
    return idx


def sample_sdf_batch(grid, points, want_grad=True):
    """Trilinear values (N,) and analytic gradients (N, 3) at points (N, 3),
    defined at every finite point. Out-of-grid points get the clamped boundary
    value plus the Euclidean distance to the grid box, with the gradient
    pointing away from the box. With ``want_grad`` False the gradient is not
    computed and comes back as None; the values are the same. A non-finite
    point raises :class:`NumericError` naming its row."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    q, local = _cell_coords(grid, points)
    delta = points - q
    outside_dist = np.linalg.norm(delta, axis=1)

    dims = np.array(grid.dims)
    idx = _floor_cells(local, dims - 2)
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

    outside = bool((outside_dist > 0.0).any())
    if outside:
        value = value + outside_dist
    if not want_grad:
        return value, None

    dx = ((c100 - c000) * gy * gz + (c110 - c010) * fy * gz +
          (c101 - c001) * gy * fz + (c111 - c011) * fy * fz) / grid.cell
    dy = ((c010 - c000) * gx * gz + (c110 - c100) * fx * gz +
          (c011 - c001) * gx * fz + (c111 - c101) * fx * fz) / grid.cell
    dz = ((c001 - c000) * gx * gy + (c101 - c100) * fx * gy +
          (c011 - c010) * gx * fy + (c111 - c110) * fx * fy) / grid.cell
    grad = np.stack([dx, dy, dz], axis=1)
    if outside:
        with np.errstate(divide="ignore", invalid="ignore"):
            away = np.where(outside_dist[:, None] > 0, delta / np.maximum(outside_dist, 1e-300)[:, None], 0.0)
        outside_axis = delta != 0.0
        grad = np.where(outside_axis, away, grad)
    return value, grad


# -- disk cache ----------------------------------------------------------------

def mesh_sha256(mesh):
    """Hex sha256 of the mesh's vertex (<f8) and face (<i8) bytes."""
    h = hashlib.sha256(np.ascontiguousarray(mesh.vertices, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(mesh.faces, dtype="<i8").tobytes())
    return h.hexdigest()


def save_sdf(path, grid, mesh, padding):
    """Write ``grid`` as an ``sdf`` container whose meta records what it was
    built from: ``mesh`` (as its sha256), cell and padding."""
    artefact.save(path, {"values": grid.values},
                  {"kind": "sdf", "origin": [float(x) for x in grid.origin],
                   "cell": float(grid.cell), "padding": float(padding),
                   "mesh_sha256": mesh_sha256(mesh)})


def load_sdf(path):
    """Read a cache written by :func:`save_sdf`; returns (grid, meta)."""
    arrays, meta = artefact.load(path, "sdf")
    try:
        return SdfGrid(origin=meta["origin"], cell=meta["cell"], values=arrays["values"]), meta
    except (KeyError, TypeError, ValueError) as e:
        raise ArtefactError(f"{path}: not an SDF grid: {e}") from None


def cache_mismatch(header, mesh, cell, padding):
    """Why a cache with ``header`` does not stand for ``build_sdf(mesh, cell,
    padding)``, or None when it does."""
    for key, want in (("cell", float(cell)), ("padding", float(padding))):
        if header.get(key) != want:
            return f"built at {key} {header.get(key)}, requested {want}"
    if header.get("mesh_sha256") != mesh_sha256(mesh):
        return "built from a different mesh"
    return None
