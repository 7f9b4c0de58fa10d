import hashlib
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import gen_motion_per_frame, segment_clear_of_boxes_per_point
from scenemotion import body
from scenemotion.datagen import (SyntheticMotionSpec, SyntheticSceneSpec, _sample_clip_spec,
                                 _segment_clear_of_boxes, box_mesh_arrays, build_dataset,
                                 dataset_bodies, gen_motion, gen_scene, load_dataset,
                                 random_scene_spec)
from scenemotion.errors import EmptyDatasetError


def test_floor_only_scene_is_two_triangles():
    mesh = gen_scene(SyntheticSceneSpec(floor_extent=4.0, boxes=[]))
    assert len(mesh.vertices) == 4
    assert len(mesh.faces) == 2


def test_one_box_scene_is_fourteen_triangles():
    spec = SyntheticSceneSpec(floor_extent=4.0,
                              boxes=[(np.array([0.5, 0.5, 0.5]), np.array([1.0, 1.0, 1.0]))])
    mesh = gen_scene(spec)
    assert len(mesh.faces) == 14


def test_box_faces_wind_outward():
    verts, faces = box_mesh_arrays([0, 0, 0], [2.0, 2.0, 2.0])
    tri = verts[faces]
    normals = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    centers = tri.mean(axis=1)
    assert (np.einsum("ij,ij->i", normals, centers) > 0).all()


def test_scene_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSceneSpec(floor_extent=-1.0)
    with pytest.raises(ValueError):
        SyntheticSceneSpec(boxes=[(np.array([0, 0, 0.1]), np.array([1, 1, 1.0]))])


def test_same_seed_same_scene():
    a = gen_scene(random_scene_spec(42))
    b = gen_scene(random_scene_spec(42))
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.faces, b.faces)


def test_straight_walk_two_meters_at_one_mps(template):
    spec = SyntheticSceneSpec(floor_extent=6.0)
    mspec = SyntheticMotionSpec(waypoints=[(0.0, -1.0), (0.0, 1.0)],
                                step_length=0.5, cadence=2.0)
    seq, stance = gen_motion(spec, mspec, template)
    assert len(seq) == 61
    y = seq.frames[:, 1]
    assert np.all(np.diff(y) >= -1e-12)
    assert set(stance) <= {"left", "right"}


def test_path_outside_floor_rejected(template):
    spec = SyntheticSceneSpec(floor_extent=2.0)
    mspec = SyntheticMotionSpec(waypoints=[(0.0, 0.0), (5.0, 0.0)])
    with pytest.raises(ValueError):
        gen_motion(spec, mspec, template)


def test_motion_spec_validation():
    with pytest.raises(ValueError, match="cadence"):
        SyntheticMotionSpec(waypoints=[(0, 0), (1, 0)], cadence=0.0)
    with pytest.raises(ValueError, match="step_length"):
        SyntheticMotionSpec(waypoints=[(0, 0), (1, 0)], step_length=-0.1)


@pytest.mark.parametrize("field, value", [
    ("waypoints", []),
    ("waypoints", [(0.0, 0.0), (np.nan, 1.0)]),
    ("step_length", np.nan),
    ("cadence", np.nan),
    ("pelvis_height", np.inf),
    ("waypoints", [(0.0, 0.0)]),                          # one point
    ("waypoints", [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]),  # three points
    ("waypoints", [(0.5, 0.5), (0.5, 0.5)]),              # two equal points
])
def test_motion_spec_rejects_bad_field(field, value):
    kwargs = {"waypoints": [(0.0, 0.0), (1.0, 0.0)], field: value}
    with pytest.raises(ValueError, match=field):
        SyntheticMotionSpec(**kwargs)


@pytest.mark.parametrize("fps", [0, -30, np.nan])
def test_gen_motion_rejects_bad_fps(template, fps):
    mspec = SyntheticMotionSpec(waypoints=[(0.0, 0.0), (1.0, 0.0)])
    with pytest.raises(ValueError, match="fps"):
        gen_motion(SyntheticSceneSpec(), mspec, template, fps=fps)


def assert_same_as_per_frame(scene_spec, motion_spec, template, fps=30):
    seq, stance = gen_motion(scene_spec, motion_spec, template, fps=fps)
    ref, ref_stance = gen_motion_per_frame(scene_spec, motion_spec, template, fps=fps)
    assert np.array_equal(seq.frames, ref.frames)
    assert np.array_equal(np.signbit(seq.frames), np.signbit(ref.frames))
    assert stance == ref_stance
    assert seq.fps == ref.fps


def test_sampled_clips_match_the_per_frame_loop(template):
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 20:
        spec = random_scene_spec(int(rng.integers(2**31)))
        mspec = _sample_clip_spec(rng, spec, 62 / 30)
        if mspec is not None:
            assert_same_as_per_frame(spec, mspec, template)
            checked += 1


@pytest.mark.parametrize("mspec, fps", [
    # 1 m/s over 2 m: the last walking frame falls exactly on the walk's end
    (SyntheticMotionSpec(waypoints=[(0.0, -1.0), (0.0, 1.0)], step_length=0.5, cadence=2.0,
                         beta=np.linspace(-0.5, 0.5, body.SHAPE_DIM)), 30),
    (SyntheticMotionSpec(waypoints=[(1.0, 1.0), (-1.5, 0.2)], cadence=1.7), 24),
], ids=["ends-on-a-frame", "fps24"])
def test_path_cases_match_the_per_frame_loop(template, mspec, fps):
    assert_same_as_per_frame(SyntheticSceneSpec(floor_extent=6.0), mspec, template, fps=fps)


_COORD = st.sampled_from([-1.5, -0.6, -0.25, 0.0, 0.25, 0.5, 0.6, 1.5])
_POINT = st.tuples(_COORD, _COORD)
_BOX = st.tuples(st.tuples(_COORD, _COORD, st.just(0.5)),
                 st.tuples(st.sampled_from([0.5, 1.0, 1.2]), st.sampled_from([0.5, 1.0]),
                           st.just(1.0)))


@settings(max_examples=200, deadline=None)
@given(_POINT, _POINT, st.lists(_BOX, max_size=4), st.sampled_from([0.0, 0.1, 0.35]))
@example((0.0, 0.0), (1.0, 1.0), [], 0.35)                              # no boxes
@example((0.5, 0.5), (0.5, 0.5), [((0.0, 0.0, 0.5), (1.0, 1.0, 1.0))], 0.0)  # a == b on a corner
@example((0.5, -1.5), (0.5, 1.5), [((0.0, 0.0, 0.5), (1.0, 1.0, 1.0))], 0.0)  # along an edge
@example((0.6, -1.5), (0.6, 1.5), [((0.0, 0.0, 0.5), (1.0, 1.0, 1.0))], 0.0)  # just outside
def test_segment_clearance_matches_the_per_point_loop(a, b, boxes, margin):
    boxes = [(np.array(c), np.array(sz)) for c, sz in boxes]
    got = _segment_clear_of_boxes(a, b, boxes, margin)
    assert got is segment_clear_of_boxes_per_point(a, b, boxes, margin)


@pytest.mark.parametrize("k, fps", [(15, 30), (61, 30), (40, 24), (7, 60)])
def test_sampled_clips_have_k_plus_one_frames(template, k, fps):
    """``build_dataset`` stores every clip it draws as k + 1 frames, untrimmed."""
    rng = np.random.default_rng(k + fps)
    checked = 0
    while checked < 10:
        spec = random_scene_spec(int(rng.integers(2**31)))
        mspec = _sample_clip_spec(rng, spec, k / fps)
        if mspec is not None:
            seq, stance = gen_motion(spec, mspec, template, fps=fps)
            assert len(seq) == len(stance) == k + 1
            checked += 1


def _dir_digest(root):
    hasher = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            hasher.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                hasher.update(f.read())
    return hasher.hexdigest()


def test_build_dataset_deterministic_bytes(tmp_path, template):
    a = tmp_path / "a"
    b = tmp_path / "b"
    build_dataset(str(a), template, n_scenes=2, clips_per_scene=6, k=15, master_seed=9)
    build_dataset(str(b), template, n_scenes=2, clips_per_scene=6, k=15, master_seed=9)
    assert _dir_digest(a) == _dir_digest(b)
    c = tmp_path / "c"
    build_dataset(str(c), template, n_scenes=2, clips_per_scene=6, k=15, master_seed=10)
    assert _dir_digest(a) != _dir_digest(c)


def test_manifest_counts_and_filter(tmp_path, template):
    out = tmp_path / "ds"
    manifest = build_dataset(str(out), template, n_scenes=2, clips_per_scene=5, k=15,
                             master_seed=1)
    assert len(manifest["scenes"]) == 2
    assert len(manifest["clips"]) == sum(1 for c in manifest["clips"])
    ds = load_dataset(str(out))
    for clip in ds["clips"]:
        assert clip["displacement"] > manifest["min_displacement"]
        assert clip["stance"] is not None
        assert len(clip["stance"]) == 16


def test_dataset_bodies_stride(dataset):
    vecs, scene_ids = dataset_bodies(dataset, stride=10)
    per_clip = int(np.ceil((dataset["k"] + 1) / 10))
    assert len(vecs) == per_clip * len(dataset["clips"])
    assert len(scene_ids) == len(vecs)
    assert vecs.shape[1] == body.PARAM_DIM


def test_dataset_with_no_clip_is_not_written(tmp_path, template):
    with pytest.raises(EmptyDatasetError, match=r"min_displacement=50\.0.*") as err:
        build_dataset(str(tmp_path), template, n_scenes=1, clips_per_scene=3, k=15,
                      min_displacement=50.0)
    assert "120 moved" in str(err.value)   # 3 clips x 40 attempts, all too short
    assert not (tmp_path / "dataset.smwt").exists()
