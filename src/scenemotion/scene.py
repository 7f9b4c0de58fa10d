"""Scene geometry: mesh ingestion, surface sampling, exact nearest queries."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptySceneError, MeshFormatError, StateError

MIN_TRIANGLE_AREA = 1e-12  # m^2


@dataclass
class SceneMesh:
    vertices: np.ndarray  # (N, 3)
    faces: np.ndarray     # (F, 3) int
    dropped_faces: int = 0  # degenerate faces removed at load/construction

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.faces = np.asarray(self.faces, dtype=np.int64).reshape(-1, 3)
        if len(self.vertices) == 0 or len(self.faces) == 0:
            raise EmptySceneError("scene has no usable geometry")
        if not np.all(np.isfinite(self.vertices)):
            raise MeshFormatError("scene vertices contain non-finite coordinates")
        if self.faces.min() < 0 or self.faces.max() >= len(self.vertices):
            raise MeshFormatError("face references an out-of-range vertex")

    def triangle_areas(self):
        tri = self.vertices[self.faces]
        return 0.5 * np.linalg.norm(np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1)

    def bounds(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)


@dataclass
class PointCloud:
    points: np.ndarray             # (M, 3)
    normals: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if self.normals is not None:
            self.normals = np.asarray(self.normals, dtype=np.float64).reshape(-1, 3)

    def __len__(self):
        return len(self.points)


def make_mesh(vertices, faces):
    """Build a SceneMesh, dropping degenerate (area <= 1e-12) faces."""
    vertices = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    if len(faces):
        if faces.min() < 0 or faces.max() >= len(vertices):
            raise MeshFormatError("face references an out-of-range vertex")
        tri = vertices[faces]
        areas = 0.5 * np.linalg.norm(np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1)
        keep = areas > MIN_TRIANGLE_AREA
        dropped = int((~keep).sum())
        faces = faces[keep]
    else:
        dropped = 0
    return SceneMesh(vertices=vertices, faces=faces, dropped_faces=dropped)


# -- file readers -------------------------------------------------------------

def load_scene(path):
    """Load an OBJ or PLY mesh; degenerate faces are dropped and counted."""
    path = str(path)
    lower = path.lower()
    if lower.endswith(".obj"):
        vertices, faces = _read_obj(path)
    elif lower.endswith(".ply"):
        vertices, faces = _read_ply(path)
    else:
        raise MeshFormatError(f"{path}: unsupported extension (expected .obj or .ply)")
    if not vertices or not faces:
        raise EmptySceneError(f"{path}: no geometry found")
    try:
        return make_mesh(vertices, faces)
    except OverflowError:  # an index past the int64 range
        raise MeshFormatError(f"{path}: face references an out-of-range vertex") from None


def _read_obj(path):
    """(vertex rows, triangle index rows) of an OBJ file."""
    vertices, faces = [], []
    # bytes that are not UTF-8 only matter where a number is due
    with open(path, encoding="utf-8", errors="replace") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "v":
                if len(parts) < 4:
                    raise MeshFormatError(f"{path}:{lineno}: vertex needs 3 coordinates")
                try:
                    vertices.append([float(parts[1]), float(parts[2]), float(parts[3])])
                except ValueError as e:
                    raise MeshFormatError(f"{path}:{lineno}: bad vertex coordinate ({e})") from None
            elif parts[0] == "f":
                if len(parts) < 4:
                    raise MeshFormatError(f"{path}:{lineno}: face needs at least 3 vertices")
                idx = []
                for tok in parts[1:]:
                    head = tok.split("/")[0]
                    try:
                        i = int(head)
                    except ValueError:
                        raise MeshFormatError(f"{path}:{lineno}: bad face index {tok!r}") from None
                    idx.append(i - 1 if i > 0 else len(vertices) + i)
                # fan-triangulate polygons
                for a, b in zip(idx[1:-1], idx[2:]):
                    faces.append([idx[0], a, b])
    return vertices, faces


_PLY_TYPES = {"char": "b", "uchar": "B", "int8": "b", "uint8": "B",
              "short": "h", "ushort": "H", "int16": "h", "uint16": "H",
              "int": "i", "uint": "I", "int32": "i", "uint32": "I",
              "float": "f", "float32": "f", "double": "d", "float64": "d"}


def _ply_reader(fmt, body):
    """``read(kind, n)``: the next ``n`` values of PLY type ``kind`` in
    ``body``; ValueError at a bad token or past the end."""
    pos = 0
    if fmt == "ascii":
        tokens = body.decode("ascii", errors="replace").split()

        def read(kind, n):
            nonlocal pos
            if n < 0 or pos + n > len(tokens):
                raise ValueError(f"body ends at token {len(tokens)}")
            pos += n
            return [float(tok) for tok in tokens[pos - n:pos]]
    else:
        def read(kind, n):
            nonlocal pos
            size = struct.calcsize("<" + _PLY_TYPES[kind]) * n
            if n < 0 or pos + size > len(body):
                raise ValueError(f"body ends at byte {len(body)}")
            pos += size
            return struct.unpack_from("<" + _PLY_TYPES[kind] * n, body, pos - size)
    return read


def _read_ply(path):
    """(vertex rows, triangle index rows) of an ASCII or little-endian PLY file."""
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(b"ply"):
        raise MeshFormatError(f"{path}: missing ply magic")
    header_end = data.find(b"end_header")
    if header_end < 0:
        raise MeshFormatError(f"{path}: unterminated header")
    header_end = data.find(b"\n", header_end) + 1
    header = data[:header_end].decode("ascii", errors="replace")

    fmt = None
    elements = []  # (name, count, [(name, list count type or None, value type)])
    for lineno, line in enumerate(header.splitlines(), start=1):
        parts = line.split()
        keyword = parts[0] if parts else None
        if keyword not in ("format", "element", "property"):
            continue
        try:
            if keyword == "format":
                fmt = parts[1]
            elif keyword == "element":
                elements.append((parts[1], int(parts[2]), []))
            elif parts[1] == "list":
                prop = (parts[4], parts[2], parts[3])
            else:
                prop = (parts[2], None, parts[1])
        except (IndexError, ValueError):
            raise MeshFormatError(f"{path}:{lineno}: malformed {keyword} line") from None
        if keyword == "property":
            if not elements:
                raise MeshFormatError(f"{path}:{lineno}: property before element")
            for kind in filter(None, prop[1:]):
                if kind not in _PLY_TYPES:
                    raise MeshFormatError(f"{path}:{lineno}: unknown property type {kind!r}")
            elements[-1][2].append(prop)
    if fmt not in ("ascii", "binary_little_endian"):
        raise MeshFormatError(f"{path}: unsupported ply format {fmt!r}")

    read = _ply_reader(fmt, data[header_end:])
    vertices, faces = [], []
    try:
        for name, count, props in elements:
            for i in range(count):
                values = {}
                for prop, count_kind, kind in props:
                    if count_kind is None:
                        values[prop] = read(kind, 1)[0]
                    else:
                        values[prop] = [int(v) for v in read(kind, int(read(count_kind, 1)[0]))]
                if name == "vertex":
                    if not {"x", "y", "z"} <= values.keys():
                        raise ValueError("lacks x/y/z")
                    vertices.append([values["x"], values["y"], values["z"]])
                elif name == "face":
                    idx = values.get("vertex_indices", values.get("vertex_index"))
                    if not isinstance(idx, list):
                        raise ValueError("lacks a vertex index list")
                    faces.extend([idx[0], a, b] for a, b in zip(idx[1:-1], idx[2:]))
    except (ValueError, OverflowError) as e:
        raise MeshFormatError(f"{path}: {name} element {i}: {e}") from None
    return vertices, faces


def save_obj(path, vertices, faces):
    with open(path, "w") as f:
        for v in np.asarray(vertices, dtype=np.float64):
            f.write(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        for face in np.asarray(faces, dtype=np.int64):
            f.write(f"f {face[0] + 1} {face[1] + 1} {face[2] + 1}\n")


# -- surface sampling ----------------------------------------------------------

def sample_point_cloud(mesh, m, seed=0):
    """Area-weighted uniform surface samples; deterministic per seed."""
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    areas = mesh.triangle_areas()
    total = areas.sum()
    if total <= 0.0:
        raise EmptySceneError("mesh has zero total surface area")
    rng = np.random.default_rng(seed)
    tri_idx = rng.choice(len(areas), size=m, p=areas / total)
    tri = mesh.vertices[mesh.faces[tri_idx]]
    r1 = np.sqrt(rng.random(m))
    r2 = rng.random(m)
    w0 = 1.0 - r1
    w1 = r1 * (1.0 - r2)
    w2 = r1 * r2
    points = w0[:, None] * tri[:, 0] + w1[:, None] * tri[:, 1] + w2[:, None] * tri[:, 2]
    n = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    return PointCloud(points=points, normals=n)


# -- exact nearest-neighbor index ----------------------------------------------

class VertexIndex:
    """Exact nearest-neighbor queries over a fixed point set (k-d tree)."""

    def __init__(self, points):
        points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        if len(points) == 0:
            raise StateError("cannot build a nearest-vertex index over an empty set")
        self.points = points
        self._tree = cKDTree(points)

    def nearest(self, query):
        """(indices (Q,), distances (Q,)) of the nearest point to each query row (Q, 3)."""
        d, i = self._tree.query(np.asarray(query, dtype=np.float64).reshape(-1, 3), k=1)
        return i.astype(np.int64), d
