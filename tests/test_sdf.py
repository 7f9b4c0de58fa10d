import warnings

import numpy as np
import pytest

from scenemotion.datagen import box_mesh_arrays, dataset_scene_fields, gen_scene, random_scene_spec
from scenemotion.errors import ArtefactError, NumericError, ResourceLimitError, SceneMotionError
from scenemotion.scene import make_mesh
from scenemotion.sdf import (BRICK, SdfGrid, _point_triangle_dist2, _projected_inside, build_sdf,
                             load_sdf, sample_sdf_batch, save_sdf, unsigned_distance)
from helpers import sdf_at


def unit_cube():
    verts, faces = box_mesh_arrays([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    return make_mesh(verts, faces)


# independent scalar oracle: exhaustive point-triangle distance + parity sign

# Each parity ray runs along an axis from p moved by (eps^2, eps) in the other
# two coordinates (axis + 1, axis + 2) mod 3. That moves it off every edge a
# node can lie on, so a ray through an edge two triangles share counts once.
RAY_EPS = 1e-6


def oracle_signed_distance(p, tris):
    best = np.inf
    for a, b, c in tris:
        best = min(best, _oracle_point_tri(p, a, b, c))
    votes = 0
    for axis in range(3):
        cnt = 0
        d = np.zeros(3)
        d[axis] = 1.0
        q = p.astype(np.float64)
        q[(axis + 1) % 3] += RAY_EPS**2
        q[(axis + 2) % 3] += RAY_EPS
        for a, b, c in tris:
            n = np.cross(b - a, c - a)
            if abs(n[axis]) < 1e-12:
                continue
            s = (n @ a - n @ q) / n[axis]
            if s <= 0:
                continue
            x = q + s * d
            v0, v1, v2 = b - a, c - a, x - a
            d00, d01, d11 = v0 @ v0, v0 @ v1, v1 @ v1
            d20, d21 = v2 @ v0, v2 @ v1
            den = d00 * d11 - d01 * d01
            bv = (d11 * d20 - d01 * d21) / den
            bw = (d00 * d21 - d01 * d20) / den
            if bv >= 0 and bw >= 0 and bv + bw <= 1:
                cnt += 1
        votes += cnt & 1
    return -best if votes >= 2 else best


def _oracle_point_tri(p, a, b, c):
    return float(np.linalg.norm(p - _oracle_closest(p, a, b, c)[1]))


def _oracle_closest(p, a, b, c):
    """(Voronoi region, closest point) of a non-degenerate triangle to p."""
    ab, ac, ap = b - a, c - a, p - a
    d1, d2 = ap @ ab, ap @ ac
    bp, cp = p - b, p - c
    d3, d4 = bp @ ab, bp @ ac
    d5, d6 = cp @ ab, cp @ ac
    if d1 <= 0 and d2 <= 0:
        return "a", a
    if d3 >= 0 and d4 <= d3:
        return "b", b
    if d6 >= 0 and d5 <= d6:
        return "c", c
    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4
    if vc <= 0 and d1 >= 0 and d3 <= 0:
        return "ab", a + ab * (d1 / (d1 - d3))
    if vb <= 0 and d2 >= 0 and d6 <= 0:
        return "ac", a + ac * (d2 / (d2 - d6))
    if va <= 0 and (d4 - d3) >= 0 and (d5 - d6) >= 0:
        return "bc", b + (c - b) * ((d4 - d3) / ((d4 - d3) + (d5 - d6)))
    den = va + vb + vc
    return "face", a + ab * (vb / den) + ac * (vc / den)


def test_cube_center_and_outside_nodes():
    grid = build_sdf(unit_cube(), cell=0.25, padding=1.0)
    val, _ = sdf_at(grid, [0.0, 0.0, 0.0])
    assert abs(val - (-0.5)) <= 0.25 + 1e-9
    val, _ = sdf_at(grid, [1.0, 0.0, 0.0])
    assert abs(val - 0.5) <= 0.25 + 1e-9


def test_grid_matches_bruteforce_oracle_on_random_boxes():
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
    grid = build_sdf(mesh, cell=0.33, padding=0.7)
    tris = mesh.vertices[mesh.faces]
    xs, ys, zs = grid.node_positions()
    for _ in range(200):
        i = rng.integers(0, len(xs))
        j = rng.integers(0, len(ys))
        k = rng.integers(0, len(zs))
        p = np.array([xs[i], ys[j], zs[k]])
        assert abs(oracle_signed_distance(p, tris) - grid.values[i, j, k]) < 1e-6


def _floor_and_box():
    fv, ff = box_mesh_arrays([0.0, 0.0, -0.05], [3.0, 3.0, 0.1])
    bv, bf = box_mesh_arrays([0.4, -0.3, 0.3], [0.3, 0.5, 0.6])
    return make_mesh(np.vstack([fv, bv]), np.vstack([ff, np.asarray(bf) + len(fv)]))


def _single_triangle():
    return make_mesh(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.2]]),
                     np.array([[0, 1, 2]]))


# Every node against the oracle: (i) nodes on the cube's faces, edges and
# corners, whose rays run through edges two triangles share, (ii) huge floor
# triangles next to a small box, on a grid whose dims are no multiple of the
# brick edge (iv), (iii) nodes 3 m and more from the surface, and an open
# mesh, which reads as outside everywhere. The grid must also equal, bit for
# bit, the one every node-triangle pair gives.
@pytest.mark.parametrize("make, cell, padding", [
    (unit_cube, 0.25, 1.0),
    (_floor_and_box, 0.3, 0.4),
    (unit_cube, 0.5, 3.0),
    (_single_triangle, 0.2, 0.3),
], ids=["cube-on-nodes", "floor-and-box", "far-padding", "open-triangle"])
def test_every_node_matches_oracle(make, cell, padding):
    mesh = make()
    grid = build_sdf(mesh, cell=cell, padding=padding)
    tris = mesh.vertices[mesh.faces]
    xs, ys, zs = grid.node_positions()
    for i, j, k in np.ndindex(grid.dims):
        p = np.array([xs[i], ys[j], zs[k]])
        assert abs(grid.values[i, j, k] - oracle_signed_distance(p, tris)) < 1e-12, (i, j, k)
    assert np.array_equal(grid.values, _every_pair_sdf(grid, tris))


def test_every_node_of_a_generated_room_matches_every_pair():
    # the floor-plus-boxes rooms the program builds, not a hand-made mesh
    spec = random_scene_spec(1)
    assert len(spec.boxes) == 3
    mesh = gen_scene(spec)
    grid = build_sdf(mesh, cell=0.15, padding=0.3)
    assert grid.values.min() < 0.0 < grid.values.max()
    assert np.array_equal(grid.values, _every_pair_sdf(grid, mesh.vertices[mesh.faces]))


def test_oracle_counts_a_ray_through_a_shared_edge_once():
    # The z ray from this node runs up the diagonal both triangles of the
    # cube's top face share; x and y rays likewise.
    mesh = unit_cube()
    grid = build_sdf(mesh, cell=0.25, padding=1.0)
    xs, ys, zs = grid.node_positions()
    i, j, k = (int(np.flatnonzero(np.isclose(v, -0.25))[0]) for v in (xs, ys, zs))
    assert oracle_signed_distance(np.full(3, -0.25), mesh.vertices[mesh.faces]) == -0.25
    assert grid.values[i, j, k] == -0.25


def _every_pair_sdf(grid, tris):
    """The grid from every node-triangle pair through the module's own
    per-point kernels: what the bricks and columns must reproduce bit for bit."""
    nodes = np.stack(np.meshgrid(*grid.node_positions(), indexing="ij"), axis=-1).reshape(-1, 3)
    dist = np.sqrt(np.min([_point_triangle_dist2(nodes, a, b, c) for a, b, c in tris], axis=0))
    votes = np.zeros(len(nodes), dtype=int)
    for axis in range(3):
        u, w = (axis + 1) % 3, (axis + 2) % 3
        crossings = np.zeros(len(nodes), dtype=int)
        for a, b, c in tris:
            n = np.cross(b - a, c - a)
            if abs(n[axis]) < 1e-12:
                continue
            s = (n @ a - nodes @ n) / n[axis]
            crossings += _projected_inside(nodes[:, u], nodes[:, w], (a[u], a[w]),
                                           (b[u], b[w]), (c[u], c[w])) & (s > 0)
        votes += crossings & 1
    return np.where(votes >= 2, -dist, dist).reshape(grid.dims)


def test_culled_build_cases_cover_their_geometry():
    on_nodes = build_sdf(unit_cube(), cell=0.25, padding=1.0)
    assert np.sum(on_nodes.values == 0.0) == 98     # every surface node of the 5^3 lattice
    assert build_sdf(unit_cube(), cell=0.5, padding=3.0).values.max() > 5.0
    assert all(d % BRICK for d in build_sdf(_floor_and_box(), cell=0.3, padding=0.4).dims)
    assert build_sdf(_single_triangle(), cell=0.2, padding=0.3).values.min() >= 0.0


def _plane_triangle(point, normal, size=20.0):
    """A large triangle through ``point`` perpendicular to ``normal``."""
    e1 = np.cross(normal, [1.0, 0.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(normal, e1)
    return np.array([point + size * e1, point + size * (-0.5 * e1 + 0.9 * e2),
                     point + size * (-0.5 * e1 - 0.9 * e2)])


def test_brick_bound_keeps_a_triangle_nearest_by_a_hair():
    # One brick with centre c and half-diagonal rho. Triangle A lies 1 m past c
    # along the diagonal; B lies 1 m + 2 rho - eps before it, so from c it
    # looks farther by almost 2 rho, yet it is nearest to the corner node
    # at c - rho n by eps. A bound tighter than 2 rho drops it.
    cell, eps = 0.1, 1e-3
    axes = [np.arange(2 * BRICK - 1) * cell for _ in range(3)]
    centre = np.full(3, 0.5 * (BRICK - 1) * cell)
    rho = np.sqrt(3.0) * 0.5 * (BRICK - 1) * cell
    n = np.ones(3) / np.sqrt(3.0)
    tris = np.array([_plane_triangle(centre + 1.0 * n, n),
                     _plane_triangle(centre - (1.0 + 2.0 * rho - eps) * n, n)])
    dist = unsigned_distance(axes, (BRICK,) * 3, tris)
    for ijk in np.ndindex(dist.shape):
        p = np.array([axes[a][i] for a, i in enumerate(ijk)])
        expect = min(_oracle_point_tri(p, a, b, c) for a, b, c in tris)
        assert abs(dist[ijk] - expect) < 1e-12, ijk
    assert dist[0, 0, 0] == pytest.approx(1.0 + rho - eps, abs=1e-9)


def test_kernel_matches_oracle_in_every_voronoi_region():
    # Each of the kernel's seven regions computes its closest point in a
    # branch of its own: points in every region, exactly on a vertex and on
    # an edge, in one call, in random frames.
    rng = np.random.default_rng(21)
    tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.2, 0.9, 0.0]])
    pts = np.array([[-0.3, -0.2, 0.4], [1.4, -0.3, -0.2], [0.1, 1.5, 0.3],    # a, b, c
                    [0.5, -0.4, 0.2], [-0.4, 0.5, -0.1], [0.9, 0.7, 0.5],     # ab, ac, bc
                    [0.3, 0.3, 0.6], [0.4, 0.2, -0.3]])                       # face, both sides
    hit = set()
    for _ in range(25):
        rot, shift = np.linalg.qr(rng.standard_normal((3, 3)))[0], rng.uniform(-3.0, 3.0, 3)
        a, b, c = tri @ rot.T + shift
        p = np.vstack([pts @ rot.T + shift + rng.normal(scale=0.02, size=pts.shape),
                       b, a + 0.5 * (c - a)])
        dist = np.sqrt(_point_triangle_dist2(p, a, b, c))
        for q, d in zip(p, dist):
            hit.add(_oracle_closest(q, a, b, c)[0])
            assert abs(d - _oracle_point_tri(q, a, b, c)) < 1e-12
        assert dist[-2] == 0.0
    assert hit == {"a", "b", "c", "ab", "ac", "bc", "face"}


def _segment_distance(p, a, b):
    ab = b - a
    t = np.clip((p - a) @ ab / (ab @ ab), 0.0, 1.0)
    return np.linalg.norm(p - (a + t[:, None] * ab), axis=1)


_X0, _X1, _X2 = np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.3, -0.2]), np.array([2.0, 0.6, -0.4])


@pytest.mark.parametrize("tri, ends", [
    ((_X0, _X1, _X2), (_X0, _X2)),
    ((_X1, _X0, _X2), (_X0, _X2)),
    ((_X0, _X2, _X1), (_X0, _X2)),
    ((_X0, _X2, _X2), (_X0, _X2)),
    ((_X0, _X2, _X0), (_X0, _X2)),
    ((_X0, _X0, _X2), (_X0, _X2)),
    ((_X1, _X1, _X1), (_X1, _X1)),
], ids=["collinear-b-middle", "collinear-a-middle", "collinear-c-middle",
        "c-repeats-b", "c-repeats-a", "b-repeats-a", "one-point"])
def test_kernel_on_degenerate_triangles_is_the_segment_distance(tri, ends):
    rng = np.random.default_rng(22)
    p = np.vstack([rng.normal(scale=2.0, size=(400, 3)), *tri])
    ab = ends[1] - ends[0]
    want = (_segment_distance(p, *ends) if ab @ ab > 0.0
            else np.linalg.norm(p - ends[0], axis=1))
    np.testing.assert_allclose(np.sqrt(_point_triangle_dist2(p, *tri)), want, rtol=0.0, atol=1e-12)


def test_node_exact_sampling():
    grid = build_sdf(unit_cube(), cell=0.25, padding=0.75)
    xs, ys, zs = grid.node_positions()
    val, _ = sdf_at(grid, [xs[3], ys[4], zs[5]])
    assert val == grid.values[3, 4, 5]


def test_trilinear_gradient_matches_fd():
    grid = build_sdf(unit_cube(), cell=0.25, padding=1.0)
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 60:
        p = rng.uniform(-1.2, 1.2, 3)
        # stay away from cell boundaries so the FD stencil sees one cell
        local = (p - grid.origin) / grid.cell
        frac = local - np.floor(local)
        if np.any(frac < 0.01) or np.any(frac > 0.99):
            continue
        _, grad = sdf_at(grid, p)
        h = 1e-5
        for i in range(3):
            pp, pm = p.copy(), p.copy()
            pp[i] += h
            pm[i] -= h
            fd = (sdf_at(grid, pp)[0] - sdf_at(grid, pm)[0]) / (2 * h)
            assert abs(grad[i] - fd) < 1e-4
        checked += 1


def test_continuity_across_cell_faces():
    grid = build_sdf(unit_cube(), cell=0.25, padding=1.0)
    xs, ys, zs = grid.node_positions()
    rng = np.random.default_rng(5)
    for _ in range(50):
        # approach a shared x-face from both sides
        x = xs[rng.integers(1, len(xs) - 1)]
        y = rng.uniform(ys[0], ys[-1])
        z = rng.uniform(zs[0], zs[-1])
        lo, _ = sdf_at(grid, [x - 1e-10, y, z])
        hi, _ = sdf_at(grid, [x + 1e-10, y, z])
        assert abs(lo - hi) < 1e-9


def test_outside_grid_clamped_plus_distance():
    grid = build_sdf(unit_cube(), cell=0.25, padding=0.5)
    hi = grid.upper
    outside = np.array([hi[0] + 2.0, 0.1, 0.2])
    val, grad = sdf_at(grid, outside)
    boundary, _ = sdf_at(grid, [hi[0], 0.1, 0.2])
    assert val == pytest.approx(boundary + 2.0, abs=1e-12)
    assert grad[0] == pytest.approx(1.0, abs=1e-12)  # unit component away from the box
    assert val > 0
    # diagonal exit: gradient points away from the box on every outside axis
    diag = hi + np.array([1.0, 2.0, 3.0])
    val_d, grad_d = sdf_at(grid, diag)
    away = (diag - hi) / np.linalg.norm(diag - hi)
    np.testing.assert_allclose(grad_d, away, atol=1e-12)
    assert val_d > 0


def test_lipschitz_validation():
    grid = build_sdf(unit_cube(), cell=0.2, padding=0.6)
    assert grid.check_lipschitz()
    bad = SdfGrid(origin=np.zeros(3), cell=0.1,
                  values=np.array([[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]))
    with pytest.raises(ValueError):
        bad.check_lipschitz()


def test_node_budget_enforced():
    with pytest.raises(ResourceLimitError):
        build_sdf(unit_cube(), cell=0.001, padding=1.0, node_budget=1000)


def test_cache_round_trip(tmp_path):
    grid = build_sdf(unit_cube(), cell=0.25, padding=0.5)
    path = tmp_path / "cube.sdf"
    save_sdf(path, grid, unit_cube(), 0.5)
    loaded, header = load_sdf(path)
    assert loaded.dims == grid.dims
    assert loaded.cell == grid.cell
    assert header["padding"] == 0.5
    np.testing.assert_allclose(loaded.origin, grid.origin)
    # cache stores float64 values: a cached grid is the fresh one, bit for bit
    assert np.array_equal(loaded.values, grid.values)


def _cube_dataset(mesh):
    return {"scenes": {0: {"mesh": mesh, "seed": 0}}}


def test_matching_cache_is_used(tmp_path):
    grid = build_sdf(unit_cube(), cell=0.25, padding=0.5)
    save_sdf(tmp_path / "scene_000.sdf", grid, unit_cube(), 0.5)
    logs = []
    fields = dataset_scene_fields(_cube_dataset(unit_cube()), cloud_points=16, cell=0.25,
                                  padding=0.5, sdf_dir=str(tmp_path), log=logs.append)
    assert logs == []
    assert np.array_equal(fields[0].grid.values, grid.values)


@pytest.mark.parametrize("cell, padding, shift, reason", [
    (0.2, 0.5, 0.0, "cell"),
    (0.25, 0.75, 0.0, "padding"),
    (0.25, 0.5, 0.1, "different mesh"),
], ids=["cell", "padding", "mesh"])
def test_stale_cache_is_rebuilt(tmp_path, cell, padding, shift, reason):
    save_sdf(tmp_path / "scene_000.sdf", build_sdf(unit_cube(), cell=0.25, padding=0.5),
             unit_cube(), 0.5)
    mesh = make_mesh(unit_cube().vertices + shift, unit_cube().faces)
    logs = []
    fields = dataset_scene_fields(_cube_dataset(mesh), cloud_points=16, cell=cell,
                                  padding=padding, sdf_dir=str(tmp_path), log=logs.append)
    assert len(logs) == 1 and reason in logs[0]
    fresh = build_sdf(mesh, cell=cell, padding=padding)
    assert np.array_equal(fields[0].grid.values, fresh.values)


def _smsf_cache(path, grid):
    """The SDF cache layout of its own ``SMSF`` format (version 2), used before
    caches were written as containers."""
    import json
    import struct
    blob = json.dumps({"version": 2, "origin": grid.origin.tolist(), "cell": grid.cell,
                       "padding": 0.5, "mesh_sha256": "", "dims": list(grid.dims)}).encode()
    path.write_bytes(b"SMSF" + struct.pack("<I", len(blob)) + blob
                     + grid.values.astype("<f8").tobytes())


@pytest.mark.parametrize("damage, message", [
    ("magic", "not a container"),
    ("version", "not a container"),
    ("truncated", "truncated tensor 'values'"),
], ids=["magic", "version", "truncated"])
def test_malformed_cache_is_a_typed_error(tmp_path, damage, message):
    grid = build_sdf(unit_cube(), cell=0.25, padding=0.5)
    path = tmp_path / "cube.sdf"
    save_sdf(path, grid, unit_cube(), 0.5)
    data = path.read_bytes()
    if damage == "magic":
        path.write_bytes(b"XXXX" + data[4:])
    elif damage == "version":
        _smsf_cache(path, grid)
    else:
        path.write_bytes(data[:-8])
    with pytest.raises(ArtefactError, match=message) as err:
        load_sdf(path)
    assert isinstance(err.value, SceneMotionError)


def test_batch_matches_scalar():
    grid = build_sdf(unit_cube(), cell=0.25, padding=0.5)
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1.5, 1.5, size=(40, 3))
    vals, grads = sample_sdf_batch(grid, pts)
    for p, v, g in zip(pts, vals, grads):
        v1, g1 = sdf_at(grid, p)
        assert v == v1
        assert np.array_equal(g, g1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_non_finite_sample_point_is_a_numeric_error(bad):
    grid = build_sdf(unit_cube(), cell=0.25, padding=0.5)
    pts = np.full((4, 3), 0.3)
    pts[2, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for read in (lambda q: sample_sdf_batch(grid, q), grid.may_be_negative):
            with pytest.raises(NumericError, match="sample point 2 is not finite"):
                read(pts)


def test_non_finite_node_values_are_rejected(tmp_path):
    values = np.ones((3, 4, 5))
    values[1, 2, 3] = np.nan
    values[0, 0, 0] = -np.inf
    with pytest.raises(ValueError, match="2 of 60 grid node values are not finite"):
        SdfGrid(origin=np.zeros(3), cell=0.1, values=values)
    # a cache written with one NaN node does not load
    grid = build_sdf(unit_cube(), cell=0.25, padding=0.5)
    grid.values[1, 2, 3] = np.nan
    path = tmp_path / "cube.sdf"
    save_sdf(path, grid, unit_cube(), 0.5)
    with pytest.raises(ArtefactError, match="1 of .* grid node values are not finite"):
        load_sdf(path)


def _trilinear_oracle(grid, p):
    """Direct 3-D-indexed trilinear value and gradient at one point, plus the
    distance to the grid box and a unit gradient on every axis it exits."""
    lo, hi = grid.origin, grid.upper
    q = np.clip(p, lo, hi)
    local = (q - lo) / grid.cell
    ijk = np.minimum(np.floor(local).astype(int), np.array(grid.dims) - 2)
    f = local - ijk
    value, grad = 0.0, np.zeros(3)
    for corner in np.ndindex(2, 2, 2):
        node = grid.values[tuple(ijk + corner)]
        w = [f[a] if corner[a] else 1.0 - f[a] for a in range(3)]
        dw = [1.0 if corner[a] else -1.0 for a in range(3)]
        value += node * w[0] * w[1] * w[2]
        grad += node * np.array([dw[0] * w[1] * w[2], w[0] * dw[1] * w[2],
                                 w[0] * w[1] * dw[2]]) / grid.cell
    delta = p - q
    dist = np.linalg.norm(delta)
    if dist > 0.0:
        value += dist
        grad = np.where(delta != 0.0, delta / dist, grad)
    return value, grad


def test_batch_matches_3d_indexed_trilinear_inside_and_past_each_face():
    # an uneven random grid, so a mixed-up axis or stride shows
    rng = np.random.default_rng(11)
    grid = SdfGrid(origin=np.array([-0.3, 0.2, -1.1]), cell=0.25,
                   values=rng.standard_normal((5, 7, 4)))
    lo, hi = grid.origin, grid.upper
    inside = rng.uniform(lo, hi, size=(60, 3))
    pts = [inside, np.array([lo, hi])]  # the two corner nodes
    for axis in range(3):
        for side, bound in ((-1.0, lo), (1.0, hi)):
            past = rng.uniform(lo, hi, size=(10, 3))
            past[:, axis] = bound[axis] + side * rng.uniform(0.01, 2.0, size=10)
            pts.append(past)
    pts.append(hi + rng.uniform(0.1, 1.0, size=(5, 3)))  # past three faces at once
    pts = np.concatenate(pts)
    vals, grads = sample_sdf_batch(grid, pts)
    for p, v, g in zip(pts, vals, grads):
        v1, g1 = _trilinear_oracle(grid, p)
        assert v == pytest.approx(v1, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(g, g1, rtol=1e-12, atol=1e-12)


def _far_face_rounding_grid():
    """A grid whose far x face sits, by rounding, just past ``dims - 1`` cells
    from the origin, with zeros on that face and ones elsewhere: no node is
    negative, yet the sampler's fraction there exceeds 1 and the value dips
    below 0."""
    values = np.ones((4, 4, 4))
    values[-1] = 0.0
    grid = SdfGrid(origin=np.full(3, -1.3), cell=0.1, values=values)
    assert ((grid.upper - grid.origin) / grid.cell)[0] > grid.dims[0] - 1
    return grid


def test_may_be_negative_is_false_only_where_the_sample_is_not_negative():
    rng = np.random.default_rng(13)
    values = rng.uniform(0.0, 2.0, size=(6, 5, 7))
    values[rng.random(values.shape) < 0.05] *= -1.0
    values[0, 0, 0] = values[-1, -1, -1] = -0.5           # negative corner nodes
    grid = SdfGrid(origin=np.array([-0.3, 0.2, -1.1]), cell=0.25, values=values)
    lo, hi = grid.origin, grid.upper
    nodes = np.stack(np.meshgrid(*grid.node_positions(), indexing="ij"), axis=-1).reshape(-1, 3)
    pts = np.concatenate([rng.uniform(lo - 1.0, hi + 1.0, size=(5000, 3)), nodes,
                          nodes + 0.5 * grid.cell, np.array([lo, hi])])
    mask = grid.may_be_negative(pts)
    vals, _ = sample_sdf_batch(grid, pts)
    assert not np.any(vals[~mask] < 0.0)
    assert mask.any() and not mask.all()
    assert np.all(mask[vals < 0.0])

    edge = _far_face_rounding_grid()
    on_face = np.array([[edge.upper[0], -1.15, -1.05]])
    val, _ = sample_sdf_batch(edge, on_face)
    assert val[0] < 0.0
    assert edge.may_be_negative(on_face)[0]
    assert not edge.may_be_negative(on_face - [edge.cell / 2, 0.0, 0.0])[0]
    assert not edge.negative_cells[:-1, :-1, :-1].any()
