import struct

import numpy as np
import pytest

from scenemotion.errors import EmptySceneError, MeshFormatError, StateError
from scenemotion.scene import VertexIndex, load_scene, make_mesh, sample_point_cloud, save_obj


def _write_obj(path, text):
    path.write_text(text)
    return str(path)


def test_obj_unit_quad(tmp_path):
    path = _write_obj(tmp_path / "quad.obj", """
v 0 0 0
v 1 0 0
v 1 1 0
v 0 1 0
f 1 2 3
f 1 3 4
""".lstrip())
    mesh = load_scene(path)
    assert len(mesh.vertices) == 4
    assert len(mesh.faces) == 2


def test_obj_face_with_slashes_and_polygons(tmp_path):
    path = _write_obj(tmp_path / "poly.obj", """
v 0 0 0
v 1 0 0
v 1 1 0
v 0 1 0
f 1/1 2/2 3/3 4/4
""".lstrip())
    mesh = load_scene(path)
    assert len(mesh.faces) == 2  # quad fan-triangulated


def test_obj_zero_area_face_dropped_with_count(tmp_path):
    path = _write_obj(tmp_path / "degen.obj", """
v 0 0 0
v 1 0 0
v 1 1 0
v 0.5 0 0
f 1 2 3
f 1 2 4
""".lstrip())
    mesh = load_scene(path)
    assert len(mesh.faces) == 1


def test_obj_parse_error_reports_line(tmp_path):
    path = _write_obj(tmp_path / "bad.obj", "v 0 0 zero\n")
    with pytest.raises(MeshFormatError, match=r":1:"):
        load_scene(path)


def test_obj_empty_scene(tmp_path):
    path = _write_obj(tmp_path / "empty.obj", "# nothing here\n")
    with pytest.raises(EmptySceneError):
        load_scene(path)


def _cube_ply_binary(path):
    verts = [(x, y, z) for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
    quads = [(0, 1, 3, 2), (4, 6, 7, 5), (0, 4, 5, 1), (2, 3, 7, 6), (0, 2, 6, 4), (1, 5, 7, 3)]
    header = (
        "ply\nformat binary_little_endian 1.0\n"
        f"element vertex {len(verts)}\n"
        "property float x\nproperty float y\nproperty float z\n"
        f"element face {len(quads) * 2}\n"
        "property list uchar int vertex_indices\nend_header\n"
    )
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        for v in verts:
            f.write(struct.pack("<fff", *v))
        for a, b, c, d in quads:
            f.write(struct.pack("<Biii", 3, a, b, c))
            f.write(struct.pack("<Biii", 3, a, c, d))
    return str(path)


def _cube_ply_bytes(path):
    _cube_ply_binary(path)
    return path.read_bytes()


def test_ply_binary_little_endian_cube(tmp_path):
    mesh = load_scene(_cube_ply_binary(tmp_path / "cube.ply"))
    assert len(mesh.vertices) == 8
    assert len(mesh.faces) == 12


_TRI_ASCII = ("ply\nformat ascii 1.0\n"
              "element vertex 3\nproperty float x\nproperty float y\nproperty float z\n"
              "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
              "0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")


def test_ply_ascii(tmp_path):
    path = tmp_path / "tri.ply"
    path.write_text(_TRI_ASCII)
    mesh = load_scene(str(path))
    assert len(mesh.vertices) == 3
    assert len(mesh.faces) == 1


@pytest.mark.parametrize("make", [
    lambda path: path.write_text(_TRI_ASCII[:-3]),
    lambda path: path.write_text(_TRI_ASCII.replace("float x", "float w")),
    lambda path: path.write_bytes(_cube_ply_bytes(path)[:-6]),
    lambda path: path.write_bytes(_cube_ply_bytes(path).replace(b"float x", b"float128 x")),
], ids=["truncated-ascii", "ascii-vertex-without-x", "truncated-binary", "float128"])
def test_malformed_ply_raises_mesh_format_error(tmp_path, make):
    path = tmp_path / "bad.ply"
    make(path)
    with pytest.raises(MeshFormatError):
        load_scene(str(path))


def test_save_obj_round_trip(tmp_path):
    verts = np.array([[0.0, 0.125, -3.5], [1.0, 0.0, 0.0], [0.0, 1.0, 0.7]])
    faces = np.array([[0, 1, 2]])
    path = tmp_path / "roundtrip.obj"
    save_obj(path, verts, faces)
    mesh = load_scene(str(path))
    assert np.array_equal(mesh.vertices, verts)


def test_sample_single_triangle_planarity():
    mesh = make_mesh([[0, 0, 1.0], [2, 0, 1.0], [0, 2, 1.0]], [[0, 1, 2]])
    cloud = sample_point_cloud(mesh, 1000, seed=0)
    assert len(cloud) == 1000
    assert np.abs(cloud.points[:, 2] - 1.0).max() < 1e-6
    # inside the triangle
    assert (cloud.points[:, 0] >= -1e-9).all()
    assert (cloud.points[:, 1] >= -1e-9).all()
    assert (cloud.points[:, 0] + cloud.points[:, 1] <= 2 + 1e-9).all()


def test_sample_area_weighting_binomial_bound():
    # area ratio 9:1, m = 10000 -> counts within 3 sigma of 9000/1000
    mesh = make_mesh(
        [[0, 0, 0], [3, 0, 0], [0, 6, 0], [10, 0, 0], [11, 0, 0], [10, 2, 0]],
        [[0, 1, 2], [3, 4, 5]])
    areas = mesh.triangle_areas()
    np.testing.assert_allclose(areas, [9.0, 1.0])
    m = 10000
    cloud = sample_point_cloud(mesh, m, seed=7)
    big = int((cloud.points[:, 0] < 9.0).sum())
    p = 0.9
    sigma = np.sqrt(m * p * (1 - p))
    assert abs(big - m * p) <= 3 * sigma


def test_sampling_deterministic_per_seed():
    mesh = make_mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    a = sample_point_cloud(mesh, 128, seed=3)
    b = sample_point_cloud(mesh, 128, seed=3)
    c = sample_point_cloud(mesh, 128, seed=4)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_sample_zero_count_rejected():
    mesh = make_mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    with pytest.raises(ValueError):
        sample_point_cloud(mesh, 0)


def test_nearest_vertex_trivial_cases():
    index = VertexIndex([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
    idx, d = index.nearest(np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0]]))
    assert d.tolist() == [0.0, 4.0]
    assert np.array_equal(index.points[idx], [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def test_nearest_vertex_equals_linear_scan():
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((500, 3))
    index = VertexIndex(pts)
    queries = rng.standard_normal((1000, 3)) * 2.0
    idx, dist = index.nearest(queries)
    for q, i, d in zip(queries, idx, dist):
        dists = np.linalg.norm(pts - q, axis=1)
        j = int(dists.argmin())
        assert i == j
        assert abs(d - dists[j]) < 1e-12


def test_empty_index_rejected():
    with pytest.raises(StateError):
        VertexIndex(np.zeros((0, 3)))
